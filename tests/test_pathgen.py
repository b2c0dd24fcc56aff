import time

import pytest

from evmscope.analyzers import PropertyId
from evmscope.cfg import build_cfg
from evmscope.disasm import ContractCode, disassemble, parse_hex
from evmscope.keccak import selector
from evmscope.pathgen import (
    PathBounds,
    enumerate_paths,
    filter_money,
)
from evmscope.ranker import RankConfig
from evmscope.report import AnalysisConfig, analyze

from conftest import get_cfg


def _paths(name, **bounds):
    cfg = get_cfg(name)
    return list(enumerate_paths(cfg, PathBounds(**bounds)))


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        PathBounds(call_depth=0)
    with pytest.raises(ValueError):
        PathBounds(loop_bound=-1)
    for wall_time in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PathBounds(wall_time=wall_time)


def test_toydao_six_paths_at_bound_one():
    paths = _paths("toydao", call_depth=1)
    assert len(paths) == 6
    assert all(p.call_count == 1 for p in paths)


def test_toydao_money_filter_bound_one():
    cfg = get_cfg("toydao")
    paths = _paths("toydao", call_depth=1)
    money = list(filter_money(iter(paths), cfg))
    assert len(money) == 2
    assert all(112 in p.blocks for p in money)


def test_toydao_1296_paths_at_bound_four():
    assert len(_paths("toydao", call_depth=4)) == 1296


def test_single_stop_one_path_any_bound():
    cfg = build_cfg(disassemble(bytes([0x00])))
    for depth in (1, 2, 5):
        paths = list(enumerate_paths(cfg, PathBounds(call_depth=depth)))
        assert len(paths) == 1
        assert paths[0].call_count == depth


def test_filter_output_is_subset_of_enumeration():
    cfg = get_cfg("toydao")
    paths = _paths("toydao", call_depth=2)
    kept = set(p.blocks for p in filter_money(iter(paths), cfg))
    everything = set(p.blocks for p in paths)
    assert kept <= everything


def test_money_filter_matches_block_contents():
    cfg = get_cfg("toydao")
    money_blocks = cfg.money_blocks
    paths = _paths("toydao", call_depth=2)
    assert list(filter_money(iter(paths), cfg)) == \
        [p for p in paths if any(b in money_blocks for b in p.blocks)]


def test_no_path_exceeds_bounds():
    bounds = PathBounds(call_depth=3, loop_bound=5, max_blocks=60)
    for name in ("toydao", "bitway", "enjinbuyer"):
        for p in enumerate_paths(get_cfg(name), bounds):
            assert p.call_count <= bounds.call_depth
            assert len(p.blocks) <= bounds.max_blocks


def test_prefix_extension_against_brute_force():
    """Every (k-1)-bound path extended by one transaction appears at bound k,
    and bound-k paths truncated at the last boundary are bound-(k-1) paths."""
    cfg = get_cfg("toydao")
    shorter = {p.blocks for p in enumerate_paths(cfg, PathBounds(call_depth=1))}
    longer = {p.blocks for p in enumerate_paths(cfg, PathBounds(call_depth=2))}
    one_txn = shorter  # brute-force oracle: all single-transaction walks
    for long_path in longer:
        boundary = max(i for i, b in enumerate(long_path) if b == cfg.root)
        prefix, suffix = long_path[:boundary], long_path[boundary:]
        assert prefix in shorter
        assert suffix in one_txn
    for p in shorter:
        extensions = {p + q for q in one_txn}
        assert extensions <= longer


def test_loop_bound_enforced():
    # 0: JUMPDEST; PUSH1 0; PUSH1 0; JUMPI(->0); STOP  -- self-loop via cond jump
    code = parse_hex("5b600160005700")
    # taken branch loops back to 0; fallthrough stops
    cfg = build_cfg(disassemble(code))
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=1, loop_bound=5)))
    # iterations 0..5 of the back-edge, each ending at STOP
    assert len(paths) == 6
    longest = max(paths, key=lambda p: len(p.blocks))
    back_edge_count = sum(1 for b in longest.blocks if b == 0) - 1
    assert back_edge_count == 5


def test_block_cap_truncates_path():
    code = parse_hex("5b600160005700")
    cfg = build_cfg(disassemble(code))
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=4, max_blocks=5)))
    assert paths
    for p in paths:
        assert len(p.blocks) <= 5
    assert any(p.call_count < 4 for p in paths)


def test_wall_time_truncation_sets_flag():
    cfg = get_cfg("toydao")
    enum = enumerate_paths(cfg, PathBounds(call_depth=4),
                           deadline=time.monotonic() - 1)
    paths = list(enum)
    assert enum.timed_out
    assert len(paths) < 1296


def test_functions_recorded_per_segment():
    cfg = get_cfg("toydao")
    wsel = selector("withdraw()")
    for p in enumerate_paths(cfg, PathBounds(call_depth=2)):
        assert len(p.functions) == p.call_count
    withdraw_paths = [p for p in enumerate_paths(cfg, PathBounds(call_depth=1))
                      if 112 in p.blocks]
    assert all(p.functions[0] == wsel for p in withdraw_paths)


def test_passthrough_for_moneyless_contract():
    cfg = get_cfg("bitway")
    assert not cfg.money_blocks
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=1)))
    ct = selector("createTokens()")
    kept = list(filter_money(iter(paths), cfg, payable_entries={ct, "<fallback>"}))
    assert kept
    assert all(any(sel in (ct, "<fallback>") for sel in p.functions) for p in kept)
    none_kept = list(filter_money(iter(paths), cfg, payable_entries=set()))
    assert none_kept == []


# -- control flow at the edges of the code ---------------------------------------

def _critical(code_hex, **config):
    """(paths enumerated, each critical path's feasibility and properties)
    at call bound 1 with every path past the gate."""
    report = analyze(ContractCode(runtime_code=parse_hex(code_hex), name="probe"),
                     AnalysisConfig(bounds=PathBounds(call_depth=1), include_timing=False,
                                    rank=RankConfig(threshold=0), **config))
    return report.statistics["paths_enumerated"], [
        (cp.feasibility, [v.property for v in cp.ranked.violations])
        for cp in report.critical_paths]


@pytest.mark.parametrize("condition", ["01", "00"])
def test_a_jumpi_to_its_own_fallthrough_is_one_path(condition):
    # JUMPI(5, condition); 5: JUMPDEST; CALLER; SELFDESTRUCT.  Both ways
    # reach the SELFDESTRUCT, so it is unguarded whatever the condition.
    assert _critical(f"60{condition}600557" "5b33ff") == (
        1, [("feasible", [PropertyId.GUARD_SUICIDE])])


def test_a_symbolic_jump_target_may_name_the_fallthrough():
    # JUMPI(CALLDATALOAD(0), 1); 6: JUMPDEST; CALLER; SELFDESTRUCT.  The
    # condition holds, so the path reaches 6 only by jumping there, with
    # calldata word 0 equal to 6
    assert _critical("6001600035575b33ff") == (
        1, [("feasible", [PropertyId.GUARD_SUICIDE])])


@pytest.mark.parametrize("tail", ["", "00"])
def test_a_call_that_runs_past_the_end_of_the_code_ends_there(tail):
    # CALL sending 5 wei to the caller, then POP; the code ends with or
    # without a STOP, and both end the call the same way
    assert _critical("6000600060006000600533" "5af150" + tail, transfer_limit=1) == (
        1, [("feasible", [PropertyId.TRANSFER_LIMIT])])
