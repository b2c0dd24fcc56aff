"""The streamed unfolding against the recursive enumerator it replaced.

`_RecursiveEnumeration` is the former `PathEnumeration`, kept verbatim in
behaviour as the reference: one generator per tree node, with the block
list and the visited set copied at every step.  The explicit-stack walk
must give the identical ProgramPath sequence: the same paths, in the same
order, with the same functions.  The reference's own call count must equal
the number of calls it lists.
"""

import time
from typing import Iterator

import pytest

from evmscope.cfg import Cfg, EdgeKind, Terminator, build_cfg
from evmscope.disasm import disassemble, parse_hex
from evmscope.pathgen import PathBounds, ProgramPath, enumerate_paths

from conftest import FIXTURES, MICRO, get_cfg


class _RecursiveEnumeration:
    def __init__(self, cfg: Cfg, bounds: PathBounds, deadline: float | None = None):
        self.cfg = cfg
        self.bounds = bounds
        self.deadline = deadline
        self.timed_out = False
        self._entry_names = {block: name for name, block in cfg.function_entries.items()}
        self._steps = 0

    def __iter__(self) -> Iterator[ProgramPath]:
        yield from self._walk(self.cfg.root, blocks=[], call_count=1,
                              functions=[None],
                              seg_visited=set(), seg_edge_counts={})

    def _expired(self) -> bool:
        if self.timed_out:
            return True
        self._steps += 1
        if self.deadline is not None and (self._steps & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
        return self.timed_out

    def _emit(self, blocks, call_count, functions) -> ProgramPath:
        assert call_count == len(functions)
        return ProgramPath(tuple(blocks), tuple(functions))

    def _walk(self, block_id, blocks, call_count, functions, seg_visited,
              seg_edge_counts) -> Iterator[ProgramPath]:
        if self._expired():
            return
        blocks = blocks + [block_id]
        seg_visited = seg_visited | {block_id}
        if functions[-1] is None and block_id in self._entry_names:
            functions = functions[:-1] + [self._entry_names[block_id]]

        block = self.cfg.blocks[block_id]
        bounds = self.bounds

        if block.terminator is Terminator.TERMINAL:
            if (call_count >= bounds.call_depth
                    or len(blocks) + 1 > bounds.max_blocks):
                yield self._emit(blocks, call_count, functions)
            else:
                yield from self._walk(
                    self.cfg.root, blocks, call_count + 1,
                    functions + [None],
                    seg_visited=set(), seg_edge_counts={})
            return

        for edge in sorted(self.cfg.successors(block_id),
                           key=lambda e: (e.dst, e.kind.value)):
            if edge.kind in (EdgeKind.NEW_TRANSACTION, EdgeKind.EXTERNAL_CALLBACK):
                continue
            if len(blocks) + 1 > bounds.max_blocks:
                continue
            if edge.dst in seg_visited:
                key = (edge.src, edge.dst)
                count = seg_edge_counts.get(key, 0) + 1
                if count > bounds.loop_bound:
                    continue
                counts = dict(seg_edge_counts)
                counts[key] = count
                yield from self._walk(edge.dst, blocks, call_count,
                                      functions, seg_visited, counts)
            else:
                yield from self._walk(edge.dst, blocks, call_count,
                                      functions, seg_visited, seg_edge_counts)


# No fixture loops, so hand-assembled programs reach the loop bound: a
# conditional self-loop, and a loop whose body makes a CALL (a re-entry
# point inside the loop).
_LOOPS = {
    "self_loop": "5b600160005700",
    "call_loop": "5b60006000600060006000335af160005700",
}
# A loop around a diamond, H -> (B | C) -> D -> H: sibling branches reach
# the same blocks and back-edges, so the visit and loop counts a subtree
# leaves behind must be undone exactly.  Its unfolding grows fast, so it
# runs at its own bounds.
_DIAMOND_LOOP = "5b600035600a57600e565b600e565b60003560005700"
_NAMES = (sorted(p.stem for p in FIXTURES.glob("*.json"))
          + sorted(p.stem for p in MICRO.glob("*.json")))


def _cfgs() -> list[tuple[str, Cfg]]:
    return ([(name, get_cfg(name)) for name in _NAMES]
            + [(name, build_cfg(disassemble(parse_hex(code)))) for name, code in _LOOPS.items()])


def test_corpus_covers_every_fixture():
    assert len(_NAMES) == 52


@pytest.mark.parametrize("call_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [{}, {"max_blocks": 12}, {"loop_bound": 1}],
                         ids=["default", "max_blocks_12", "loop_bound_1"])
def test_stream_matches_recursive_reference(call_depth, extra):
    bounds = PathBounds(call_depth=call_depth, **extra)
    for name, cfg in _cfgs():
        expected = list(_RecursiveEnumeration(cfg, bounds))
        got = enumerate_paths(cfg, bounds)
        assert list(got) == expected, name
        assert not got.timed_out


@pytest.mark.parametrize("bounds", [
    PathBounds(call_depth=2), PathBounds(call_depth=3, loop_bound=2),
    PathBounds(call_depth=4, loop_bound=1), PathBounds(call_depth=4, max_blocks=12),
], ids=lambda b: f"{b.call_depth}-{b.loop_bound}-{b.max_blocks}")
def test_stream_matches_reference_on_a_looping_diamond(bounds):
    cfg = build_cfg(disassemble(parse_hex(_DIAMOND_LOOP)))
    expected = list(_RecursiveEnumeration(cfg, bounds))
    assert list(enumerate_paths(cfg, bounds)) == expected


def test_reference_run_reaches_caps_and_loops():
    """The settings above do reach capped paths and loop bounds."""
    cfgs = dict(_cfgs())
    capped = list(_RecursiveEnumeration(get_cfg("toydao"), PathBounds(call_depth=4, max_blocks=12)))
    assert any(p.call_count < 4 for p in capped)  # the block cap ended these early
    for name in _LOOPS:
        loose = list(_RecursiveEnumeration(cfgs[name], PathBounds(call_depth=2)))
        tight = list(_RecursiveEnumeration(cfgs[name], PathBounds(call_depth=2, loop_bound=1)))
        assert len(tight) < len(loose)


def test_past_deadline_yields_a_prefix():
    cfg = get_cfg("toydao")
    bounds = PathBounds(call_depth=4)
    expected = list(_RecursiveEnumeration(cfg, bounds))
    got = enumerate_paths(cfg, bounds, deadline=time.monotonic() - 1)
    paths = list(got)
    assert got.timed_out
    assert len(paths) < len(expected)
    assert paths == expected[:len(paths)]
