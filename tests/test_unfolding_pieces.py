"""The piece-composed unfolding's count, max-gas path and money selection
against the recursive reference enumerator, and its deadline.

The reference builds every path; the enumeration under test counts them,
finds the max-gas path and selects the money paths from its one-call
pieces without building the paths it drops.
"""

import time
from itertools import chain, islice

import pytest

from evmscope.analyzers import GasEstimator, detect_payable_entries
from evmscope.cfg import build_cfg
from evmscope.disasm import ContractCode, disassemble, parse_hex
from evmscope.pathgen import (PathBounds, PathEnumeration, ProgramPath, enumerate_paths,
                              filter_money)
from evmscope.report import AnalysisConfig, analyze

from conftest import FIXTURES, REGISTRY_TXT, get_contract
from test_unfolding_reference import _DIAMOND_LOOP, _LOOPS, _NAMES, _RecursiveEnumeration


def _programs():
    """(name, cfg, payable entries) for every fixture and loop program."""
    codes = ([(name, get_contract(name).runtime_code) for name in _NAMES]
             + [(name, parse_hex(code)) for name, code in _LOOPS.items()])
    out = []
    for name, code in codes:
        instructions = disassemble(code)
        cfg = build_cfg(instructions)
        out.append((name, cfg, detect_payable_entries(cfg, instructions)[0]))
    return out


_PROGRAMS = _programs()


def _max_gas_scan(paths, estimator):
    """The running maximum the report kept before: strictly greater wins."""
    best, best_path = 0, None
    for path in paths:
        gas = estimator.path_gas(path)
        if gas > best:
            best, best_path = gas, path
    return best, best_path


def _money_paths(unfolding, payable=frozenset()):
    return unfolding.select(unfolding.money_marker(payable))


def _check(cfg, payable, bounds, reentrant, name):
    expected = list(_RecursiveEnumeration(cfg, bounds, reentrant))
    unfolding = enumerate_paths(cfg, bounds, include_reentrant=reentrant)
    assert unfolding.count() == len(expected), name
    estimator = GasEstimator(cfg)
    assert unfolding.max_gas_path(estimator.block_costs) == \
        _max_gas_scan(expected, estimator), name
    for entries in (payable, set()):
        kept = list(filter_money(iter(expected), cfg, entries))
        assert list(_money_paths(unfolding, entries)) == kept, name
    assert not unfolding.timed_out


def test_programs_cover_money_and_payable_selection():
    assert len(_PROGRAMS) == 52 + len(_LOOPS)
    assert any(not cfg.money_blocks and payable for _n, cfg, payable in _PROGRAMS)
    assert any(cfg.money_blocks for _n, cfg, _p in _PROGRAMS)


@pytest.mark.parametrize("call_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [{}, {"max_blocks": 12}, {"loop_bound": 1, "max_blocks": 7}],
                         ids=["default", "max_blocks_12", "loop_bound_1_max_blocks_7"])
@pytest.mark.parametrize("reentrant", [False, True], ids=["plain", "reentrant"])
def test_pieces_match_reference(call_depth, extra, reentrant):
    bounds = PathBounds(call_depth=call_depth, **extra)
    for name, cfg, payable in _PROGRAMS:
        _check(cfg, payable, bounds, reentrant, name)


@pytest.mark.parametrize("bounds", [
    PathBounds(call_depth=2), PathBounds(call_depth=3, loop_bound=2),
    PathBounds(call_depth=4, loop_bound=1), PathBounds(call_depth=4, max_blocks=12),
], ids=lambda b: f"{b.call_depth}-{b.loop_bound}-{b.max_blocks}")
@pytest.mark.parametrize("reentrant", [False, True], ids=["plain", "reentrant"])
def test_pieces_match_reference_on_a_looping_diamond(bounds, reentrant):
    cfg = build_cfg(disassemble(parse_hex(_DIAMOND_LOOP)))
    _check(cfg, {"<fallback>"}, bounds, reentrant, "diamond_loop")


@pytest.mark.parametrize("call_depth", [1, 2, 3])
def test_unfolded_paths_are_their_blocks_and_calls(call_depth):
    """A path carries its pieces, yet equals and hashes like the ProgramPath
    of its blocks and calls; its gas, added up per piece, is its blocks'."""
    for name, cfg, _payable in _PROGRAMS:
        unfolding = enumerate_paths(cfg, PathBounds(call_depth=call_depth))
        estimator = GasEstimator(cfg)
        _gas, heaviest = unfolding.max_gas_path(estimator.block_costs)
        assert heaviest is not None, name
        for path in chain(unfolding, [heaviest]):
            plain = ProgramPath(path.blocks, path.functions)
            assert path == plain and plain == path and hash(path) == hash(plain), name
            assert tuple(b for piece in path.pieces for b in piece.blocks) == path.blocks
            assert len(path.pieces) == path.call_count
            gas = sum(estimator.block_costs[b] for b in path.blocks)
            assert estimator.path_gas(path) == gas == estimator.path_gas(plain), name


def _common(a, b) -> int:
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


@pytest.mark.parametrize("reentrant", [False, True], ids=["plain", "reentrant"])
def test_the_unfolding_order_lets_a_piece_look_one_piece_ahead(reentrant):
    """What the trace walk's frames rest on.  Paths come in strictly
    increasing block order.  Each piece records the prefix it shares with
    the next piece of the list, and no later piece shares more with it, so
    the frames a piece saves inside that prefix serve every later sibling."""
    assert len(_NAMES) == 52
    for name, cfg, _payable in _PROGRAMS:
        for call_depth in (1, 2, 3, 4):
            paths = list(enumerate_paths(cfg, PathBounds(call_depth=call_depth),
                                         include_reentrant=reentrant))
            assert all(a.blocks < b.blocks for a, b in zip(paths, paths[1:])), name
        pieces = enumerate_paths(cfg, PathBounds(), include_reentrant=reentrant).pieces()
        assert [p.index for p in pieces] == list(range(len(pieces))), name
        assert pieces[-1].shared == 0, name
        for i, piece in enumerate(pieces[:-1]):
            assert piece.shared == _common(piece.blocks, pieces[i + 1].blocks), name
            assert all(_common(piece.blocks, later.blocks) <= piece.shared
                       for later in pieces[i + 2:]), name


def test_max_gas_ties_go_to_the_first_path():
    # two branches of equal cost: PUSH1 0; CALLDATALOAD; PUSH1 11; JUMPI;
    # 6: JUMPDEST; PUSH1 0; POP; STOP; 11: JUMPDEST; PUSH1 0; POP; STOP
    cfg = build_cfg(disassemble(parse_hex("600035600b57" "5b60005000" "5b60005000")))
    estimator = GasEstimator(cfg)
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=2)))
    gas = {estimator.path_gas(p) for p in paths}
    assert len(paths) == 4 and len(gas) == 1
    assert enumerate_paths(cfg, PathBounds(call_depth=2)).max_gas_path(
        estimator.block_costs) == (gas.pop(), paths[0])


def _diamonds(k: int) -> str:
    """k two-way branches in a row, then CALLER; SELFDESTRUCT: 2**k ways
    through one call, each of 2k + 1 blocks and each money-related.  Each
    branch is PUSH1 0; CALLDATALOAD; PUSH2 taken; JUMPI; PUSH2 join; JUMP;
    taken: JUMPDEST; join: JUMPDEST."""
    return "".join(f"60003561{13 * i + 11:04x}5761{13 * i + 12:04x}565b5b"
                   for i in range(k)) + "33ff"


def test_diamond_chain_has_two_to_the_k_pieces():
    cfg = build_cfg(disassemble(parse_hex(_diamonds(4))))
    assert cfg.money_blocks
    for depth in (1, 2, 3):
        unfolding = enumerate_paths(cfg, PathBounds(call_depth=depth))
        assert unfolding.count() == 16 ** depth
        assert len(list(_money_paths(unfolding))) == 16 ** depth


def test_a_past_deadline_stops_the_piece_search():
    cfg = build_cfg(disassemble(parse_hex(_diamonds(24))))
    started = time.monotonic()
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=2), deadline=started - 1)
    assert list(unfolding) == []
    assert unfolding.count() == 0 and unfolding.max_gas_path({}) == (0, None)
    assert unfolding.timed_out
    assert time.monotonic() - started < 1


def test_a_past_deadline_stops_the_kept_path_walk():
    cfg = build_cfg(disassemble(parse_hex(_diamonds(5))))
    bounds = PathBounds(call_depth=4)
    unfolding = enumerate_paths(cfg, bounds, deadline=time.monotonic() - 1)
    kept = list(_money_paths(unfolding))
    assert unfolding.timed_out
    assert 0 < len(kept) < 256
    assert unfolding.count() == 32 ** 4  # the pieces were all found: the count is exact
    assert kept == list(islice(_money_paths(enumerate_paths(cfg, bounds)), len(kept)))


@pytest.mark.parametrize("k, depth", [(32, 2), (5, 4)], ids=["piece_search", "kept_walk"])
def test_analysis_of_a_diamond_chain_stops_at_the_deadline(k, depth):
    """32 branches make more blocks than a path may hold, so the piece
    search runs into the deadline; 5 make 2**20 money paths at call bound 4,
    so the kept-path walk does."""
    contract = ContractCode(runtime_code=parse_hex(_diamonds(k)), name=f"diamonds_{k}")
    wall_time = 0.25
    started = time.monotonic()
    report = analyze(contract, AnalysisConfig(
        bounds=PathBounds(call_depth=depth, wall_time=wall_time), include_timing=False))
    assert time.monotonic() - started < wall_time + 1
    assert report.statistics["timed_out"] is True
    expected = 0 if k == 32 else 32 ** 4
    assert report.statistics["paths_enumerated"] == expected


def test_a_corpus_pass_folds_each_marker_once(monkeypatch):
    """A walk and the counts of its marker share one fold of the path
    counts: a corpus pass at call bound 4 folds at most 99 times, where
    folding the money marker once per use folded 137 times."""
    folds = []
    fold = PathEnumeration._fold
    monkeypatch.setattr(PathEnumeration, "_fold",
                        lambda self, *args: folds.append(1) or fold(self, *args))
    config = AnalysisConfig(bounds=PathBounds(call_depth=4), transfer_limit=30,
                            registry_fixture=str(REGISTRY_TXT), include_timing=False)
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        analyze(get_contract(name), config)
    assert 0 < len(folds) <= 99
