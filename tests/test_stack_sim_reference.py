"""The jump-target search of stack simulation against the path search it
replaced.

`_reference_paths_to_block` is the former path search, kept verbatim in
behaviour: it lists every acyclic root-to-jump path, entering every block,
also those that never reach the jump.  `_reference_targets` simulates the
stack along each listed path from the root.  The pruned depth-first search
of `cfg._jump_targets` must give the same set of targets, TOP included,
and hit the cap on the same programs.
"""

import pytest

from evmscope.cfg import (
    MAX_SIM_PATHS,
    TOP,
    Cfg,
    EdgeKind,
    _jump_targets,
    _simulate_block,
    build_blocks,
    build_cfg,
    connect_static,
)
from evmscope.disasm import disassemble, parse_hex

from conftest import FIXTURES, MICRO, get_contract
from test_hostile_input import diamonds_beside_a_dangling_jump, ladder_of_dangling_jumps


def _reference_paths_to_block(cfg: Cfg, target: int, cap: int) -> list[list[int]] | None:
    """All acyclic root-to-target block paths, or None when the cap is hit."""
    paths: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(cfg.root, [cfg.root])]
    while stack:
        node, path = stack.pop()
        if node == target:
            paths.append(path)
            if len(paths) > cap:
                return None
            continue
        for edge in cfg.successors(node):
            if edge.kind in (EdgeKind.NEW_TRANSACTION, EdgeKind.EXTERNAL_CALLBACK):
                continue
            if edge.dst in path:
                continue
            stack.append((edge.dst, path + [edge.dst]))
    return paths


def _reference_targets(cfg: Cfg, target: int, cap: int) -> set | None:
    """The jump target simulated along each reference path, or None."""
    paths = _reference_paths_to_block(cfg, target, cap)
    if paths is None:
        return None
    targets = set()
    for path in paths:
        stack: list = []
        for node in path:
            stack, top = _simulate_block(cfg.blocks[node], stack)
        targets.add(top)
    return targets


def _graphs(code: bytes) -> list[Cfg]:
    """The graph before stack simulation and after it."""
    instructions = disassemble(code)
    return [connect_static(build_blocks(instructions)), build_cfg(instructions)]


def _assert_same_searches(code: bytes, cap: int = MAX_SIM_PATHS) -> int:
    """Compare the searches to every jump dangling before simulation, on
    both graphs; returns the number of searches that found a path."""
    found = 0
    static, built = _graphs(code)
    for cfg in (static, built):
        for target in sorted(static.dangling):
            want = _reference_targets(cfg, target, cap)
            assert _jump_targets(cfg, target, cap, None) == want, target
            found += bool(want)
    return found


_CODES = [p.stem for p in sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json"))]


@pytest.mark.parametrize("name", _CODES)
def test_pruned_search_matches_the_reference_on_every_fixture(name):
    contract = get_contract(name)
    _assert_same_searches(contract.runtime_code)
    if contract.creation_code:
        _assert_same_searches(contract.creation_code)


def test_the_fixtures_have_dangling_jumps_to_search():
    searched = sum(_assert_same_searches(get_contract(name).runtime_code) for name in _CODES)
    assert searched > 0


@pytest.mark.parametrize("n", range(11))
def test_pruned_search_matches_the_reference_beside_diamonds(n):
    assert _assert_same_searches(parse_hex(diamonds_beside_a_dangling_jump(n))) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30])
def test_pruned_search_matches_the_reference_on_a_ladder(n):
    assert _assert_same_searches(parse_hex(ladder_of_dangling_jumps(n))) == 2 * n


def test_pruned_search_hits_the_cap_where_the_reference_does():
    # 14 diamonds in series before a JUMP on CALLDATASIZE: 2**14 paths reach it
    code = parse_hex("".join(f"5b3461{9 * i + 9:04x}57600050" for i in range(14))
                     + "5b3656")
    static, _built = _graphs(code)
    (target,) = static.dangling
    assert _reference_targets(static, target, MAX_SIM_PATHS) is None
    assert _jump_targets(static, target, MAX_SIM_PATHS, None) is None
    assert _jump_targets(static, target, 2 ** 14 - 1, None) is None
    assert _jump_targets(static, target, 2 ** 14, None) == \
        _reference_targets(static, target, 2 ** 14) == {TOP}
