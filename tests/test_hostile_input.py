"""analyze() stays bounded: bytecode-chosen memory sizes halt as out of gas,
and every stage, hashing included, stops at the deadline."""

import time

import pytest

import evmscope.report as report_module
import evmscope.symexec as symexec_module
from evmscope.analyzers import PropertyId, check_guard_suicide
from evmscope.cfg import build_cfg
from evmscope.disasm import ContractCode, disassemble, parse_hex
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.ranker import RankConfig
from evmscope.report import AnalysisConfig, analyze
from evmscope.solver import BoundedSolver, CheckResult
from evmscope.symexec import (
    BLOCK_GAS_LIMIT,
    MAX_DEPTH,
    MAX_SIZE,
    MEMORY_CAP,
    ZERO,
    ExternalRecord,
    FeasibilityStatus,
    OutOfGas,
    TermTooDeep,
    eval_word,
    execute_path,
    free_vars,
    mk,
    node,
    replay_blocks,
    run_constructor,
    var,
)

from conftest import REGISTRY_TXT, get_cfg, get_contract, symbolic_state

# PUSH3 MEMORY_CAP-32; PUSH1 0; SHA3; POP: hashes 3.9 MB of zero memory
_NEAR_CAP_SHA3 = f"62{MEMORY_CAP - 32:06x}60002050"
# x = CALLDATALOAD(0); MSTORE(0, x); JUMPI(17, SHA3(0, MEMORY_CAP-32)); STOP;
# 17: JUMPDEST; CALLER; SELFDESTRUCT.  The hash stays a term until solved.
_SYMBOLIC_NEAR_CAP_SHA3 = "600035600052" + _NEAR_CAP_SHA3[:-2] + "601157005b33ff"

_OUT_OF_GAS = "OutOfGas (memory up to byte 1099511627776 exceeds the block gas limit)"


def diamonds_beside_a_dangling_jump(n: int) -> str:
    """Block 0 branches to a JUMP on CALLDATASIZE at the end; the other way
    runs `n` diamonds in series to a STOP, so 2**n acyclic paths never
    reach that jump."""
    return (f"3461{9 * n + 6:04x}57"
            + "".join(f"3461{13 + 9 * i:04x}576000505b" for i in range(n))
            + "00" + "5b3656")


def ladder_of_dangling_jumps(n: int) -> str:
    """`n` JUMPIs in a row, rung i branching to its own JUMP on
    CALLDATASIZE: a path of i + 2 blocks reaches each."""
    return ("".join(f"3461{5 * n + 1 + 3 * i:04x}57" for i in range(n))
            + "00" + "5b3656" * n)


def _config(**kwargs) -> AnalysisConfig:
    return AnalysisConfig(registry_fixture=str(REGISTRY_TXT), include_timing=False,
                          transfer_limit=30, **kwargs)


def _expansion_gas(words: int) -> int:
    return 3 * words + words * words // 512


def test_memory_cap_is_where_expansion_gas_passes_the_block_limit():
    assert MEMORY_CAP % 32 == 0
    assert _expansion_gas(MEMORY_CAP // 32) <= BLOCK_GAS_LIMIT
    assert _expansion_gas(MEMORY_CAP // 32 + 1) > BLOCK_GAS_LIMIT


def test_hashing_2_pow_40_bytes_without_money_opcodes_is_not_traced():
    # PUSH6 2**40; PUSH1 0; SHA3; STOP: no money opcode, so nothing is traced
    contract = ContractCode(runtime_code=parse_hex("6501000000000060002000"), name="sha3")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert not [d for d in report.diagnostics if d.startswith("trace_abandoned")]


@pytest.mark.parametrize("runtime", [
    "65010000000000600020ff",      # PUSH6 2**40; PUSH1 0; SHA3; SELFDESTRUCT
    "650100000000006000600039" "33ff",  # CODECOPY(0, 0, 2**40); CALLER; SELFDESTRUCT
], ids=["sha3", "codecopy"])
def test_huge_memory_size_abandons_the_trace(runtime):
    contract = ContractCode(runtime_code=parse_hex(runtime), name="huge")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert [d for d in report.diagnostics if d.startswith("trace_abandoned")] == [
        f"trace_abandoned: {_OUT_OF_GAS}; 1 money path(s) not analyzed"]


_PUSH_2_POW_255 = "7f80" + "00" * 31


@pytest.mark.parametrize("runtime", [
    "6001" + _PUSH_2_POW_255 + "52" + "33ff",  # MSTORE(2**255, 1); CALLER; SELFDESTRUCT
    "6001" + _PUSH_2_POW_255 + "53" + "33ff",  # MSTORE8(2**255, 1); CALLER; SELFDESTRUCT
    _PUSH_2_POW_255 + "51" + "50" + "33ff",    # MLOAD(2**255); POP; CALLER; SELFDESTRUCT
], ids=["mstore", "mstore8", "mload"])
def test_a_word_past_the_memory_cap_halts_the_trace_and_the_replay(runtime):
    # no transaction pays for memory up to 2**255 bytes: the path runs out
    # of gas, and its unguarded SELFDESTRUCT is never reported feasible
    code = parse_hex(runtime)
    config = AnalysisConfig(bounds=PathBounds(call_depth=1), rank=RankConfig(threshold=0),
                            registry_mode="disabled", include_timing=False)
    report = analyze(ContractCode(runtime_code=code, name="huge"), config)
    assert report.critical_paths == []
    assert [d for d in report.diagnostics if d.startswith("trace_")] == [
        f"trace_abandoned: OutOfGas (memory up to byte {2 ** 255 + 32} exceeds the block "
        f"gas limit); 1 money path(s) not analyzed"]
    with pytest.raises(OutOfGas):
        replay_blocks(build_cfg(disassemble(code)), code, {}, {}, 1)


@pytest.mark.parametrize("runtime", [
    # LOG0(0, 2**255); CALLER; SELFDESTRUCT
    _PUSH_2_POW_255 + "6000a0" + "33ff",
    # RETURN(0, 2**255): no money opcode, and the path a black hole
    _PUSH_2_POW_255 + "6000f3",
    # CALL(0, CALLER, 0, 0, 2**255, 0, 0); POP; CALLER; SELFDESTRUCT
    "6000" * 2 + _PUSH_2_POW_255 + "6000" * 2 + "33" + "6000f1" + "50" + "33ff",
    # CALLDATACOPY(0, 0, 2**255); CALLER; SELFDESTRUCT
    _PUSH_2_POW_255 + "6000" * 2 + "37" + "33ff",
], ids=["log0", "return", "call-input", "calldatacopy"])
def test_an_area_past_the_memory_cap_halts_the_trace_and_the_replay(runtime):
    # an opcode that reads or writes a memory area pays for its expansion,
    # as MLOAD and MSTORE do: a path handing out 2**255 bytes runs out of
    # gas and is never reported feasible
    code = parse_hex(runtime)
    config = AnalysisConfig(bounds=PathBounds(call_depth=1), rank=RankConfig(threshold=0),
                            registry_mode="disabled", include_timing=False)
    report = analyze(ContractCode(runtime_code=code, name="huge"), config)
    assert [cp.feasibility for cp in report.critical_paths] == []
    with pytest.raises(OutOfGas):
        replay_blocks(build_cfg(disassemble(code)), code, {}, {}, 1)


@pytest.mark.parametrize("runtime", [
    # CODECOPY(0, CALLDATALOAD(0), 2**255); CALLER; SELFDESTRUCT
    _PUSH_2_POW_255 + "600035600039" + "33ff",
    # SHA3(CALLDATALOAD(0), 2**255); POP; CALLER; SELFDESTRUCT
    _PUSH_2_POW_255 + "600035205033ff",
], ids=["codecopy-symbolic-source", "sha3-symbolic-offset"])
def test_a_constant_length_past_the_memory_cap_halts_at_any_offset(runtime):
    # memory grows to at least the length, wherever the area starts: the
    # trace halts out of gas, and the path is not reported, as unknown or
    # otherwise
    code = parse_hex(runtime)
    config = AnalysisConfig(bounds=PathBounds(call_depth=1), rank=RankConfig(threshold=0),
                            registry_mode="disabled", include_timing=False)
    report = analyze(ContractCode(runtime_code=code, name="huge"), config)
    assert report.critical_paths == []
    assert [d for d in report.diagnostics if d.startswith("trace_")] == [
        f"trace_abandoned: OutOfGas (memory up to byte {2 ** 255} exceeds the block "
        f"gas limit); 1 money path(s) not analyzed"]


def test_a_call_failing_under_many_prefixes_is_abandoned_once_per_prefix():
    # JUMPI on calldata word 0 to 15 (JUMPDEST; CALL on an empty stack),
    # else JUMPI on word 32 to 13 (JUMPDEST; STOP), else STOP.  The failing
    # call starts from the same state after either stopping piece; it is
    # never reused, so each failing prefix keeps its own line
    contract = ContractCode(runtime_code=parse_hex("600035600f57" "602035600d57" "00"
                                                   "5b00" "5bf100"), name="fails")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=3)))
    line = "trace_abandoned: StackUnderflow (pop from empty stack); {} money path(s) not analyzed"
    assert [d for d in report.diagnostics if d.startswith("trace_")] == [
        line.format(n) for n in (1, 1, 3, 1, 1, 3, 9)]


def test_huge_memory_size_abandons_the_constructor_pre_run():
    contract = ContractCode(runtime_code=parse_hex("00"), name="ctor",
                            creation_code=parse_hex("6501000000000060002000"))
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert "constructor pre-run abandoned: memory up to byte 1099511627776 exceeds " \
           "the block gas limit" in report.diagnostics


def test_trace_stage_stops_at_the_deadline(monkeypatch):
    clock = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    shared_walk = report_module.execute_paths

    def walk_then_expire(*args, **kwargs):
        for n, outcome in enumerate(shared_walk(*args, **kwargs)):
            if n == 2:
                clock[0] += 10_000  # the wall time runs out while the third path is traced
            yield outcome

    config = _config(bounds=PathBounds(call_depth=3))
    whole = analyze(get_contract("toydao"), config)
    assert not whole.statistics["timed_out"]
    monkeypatch.setattr(report_module, "execute_paths", walk_then_expire)
    cut = analyze(get_contract("toydao"), config)
    money = cut.statistics["paths_money_related"]
    assert money == whole.statistics["paths_money_related"] > 3
    assert cut.statistics["timed_out"] is True
    assert [d for d in cut.diagnostics if d.startswith("trace_timed_out")] == [
        f"trace_timed_out: deadline passed; {money - 2} money path(s) not analyzed"]


def test_trace_walk_stops_inside_a_path(monkeypatch):
    clock = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    shared_walk, run_body = report_module.execute_paths, symexec_module._run_body
    runs: list[float] = []  # the clock at each block body the trace runs
    tracing = [False]

    def walk(*args, **kwargs):
        tracing[0] = True
        yield from shared_walk(*args, **kwargs)

    def run_then_expire(*args, **kwargs):
        if tracing[0]:
            runs.append(clock[0])
            if len(runs) == 3:
                clock[0] += 10_000  # the wall time runs out in the first path's third block
        return run_body(*args, **kwargs)

    monkeypatch.setattr(report_module, "execute_paths", walk)
    monkeypatch.setattr(symexec_module, "_run_body", run_then_expire)
    report = analyze(get_contract("toydao"), _config(bounds=PathBounds(call_depth=4)))
    money = report.statistics["paths_money_related"]
    cfg = get_cfg("toydao")
    first = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=4)), cfg))
    assert money > 1 and len(first.blocks) > 16
    # the clock is read every 16 blocks: the rest of the first path never runs
    assert runs[:3] == [1000.0] * 3 and len(runs) < 16
    assert report.statistics["timed_out"] is True
    assert [d for d in report.diagnostics if d.startswith(("trace_", "constructor"))] == [
        f"trace_timed_out: deadline passed; {money} money path(s) not analyzed"]


def test_a_passed_deadline_stops_the_walk(monkeypatch):
    runs = []
    run_body = symexec_module._run_body
    monkeypatch.setattr(symexec_module, "_run_body",
                        lambda *args: runs.append(1) or run_body(*args))
    cfg = get_cfg("toydao")
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=4)), cfg))
    assert len(path.blocks) > 16  # the walk reads the clock at its 16th block
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=4))
    outcomes = list(symexec_module.execute_paths(cfg, get_contract("toydao").runtime_code,
                                                 unfolding, unfolding.money_marker(set()), {},
                                                 time.monotonic() - 1, None))
    assert outcomes == [] and unfolding.count(unfolding.money_marker(set())) > 300
    assert len(runs) < 16


def test_diamonds_beside_a_dangling_jump_return_at_the_deadline():
    # the jump's path search enters only the block that branches to it
    code = diamonds_beside_a_dangling_jump(20)
    assert len(code) == 2 * 189
    contract = ContractCode(runtime_code=parse_hex(code), name="diamonds")
    started = time.monotonic()
    analyze(contract, _config(bounds=PathBounds(call_depth=1, wall_time=1)))
    assert time.monotonic() - started < 1 + 1


def test_a_ladder_of_dangling_jumps_returns_at_the_deadline():
    code = ladder_of_dangling_jumps(1000)
    assert len(code) == 2 * 8001
    contract = ContractCode(runtime_code=parse_hex(code), name="ladder")
    started = time.monotonic()
    report = analyze(contract, _config(bounds=PathBounds(call_depth=1, wall_time=1)))
    assert time.monotonic() - started < 1 + 2
    assert report.statistics["timed_out"] is True
    late = [d for d in report.diagnostics
            if d.endswith(": deadline passed during stack simulation; jump left unresolved")]
    assert late and all(d.startswith("unresolved_indirect_jump: Node_") for d in late)


def test_a_hostile_constructor_leaves_the_runtime_its_wall_time():
    # the pre-run reads the creation code's blocks alone, so a ladder whose
    # stack simulation would outlast the wall time costs it nothing
    creation = ladder_of_dangling_jumps(1500)
    assert len(creation) == 2 * 12001
    contract = ContractCode(runtime_code=parse_hex("33ff"), name="ctor",
                            creation_code=parse_hex(creation))
    config = AnalysisConfig(bounds=PathBounds(call_depth=2, wall_time=3),
                            registry_mode="disabled", include_timing=False)
    started = time.monotonic()
    report = analyze(contract, config)
    assert time.monotonic() - started < 1
    assert report.statistics["timed_out"] is False
    assert PropertyId.GUARD_SUICIDE.value in report.statistics["violation_counts"]


def test_near_cap_sha3_returns_at_the_deadline():
    assert _NEAR_CAP_SHA3 == "623c240060002050"
    contract = ContractCode(runtime_code=parse_hex(_NEAR_CAP_SHA3 + "33ff"), name="sha3")
    started = time.monotonic()
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=1)))
    assert time.monotonic() - started < 1 + 1
    assert report.statistics["timed_out"] is True
    assert "trace_timed_out: deadline passed; 1 money path(s) not analyzed" \
        in report.diagnostics


def test_near_cap_sha3_in_the_constructor_returns_at_the_deadline():
    creation = parse_hex(_NEAR_CAP_SHA3 + "00")
    started = time.monotonic()
    storage, diagnostics = run_constructor(build_cfg(disassemble(creation)), creation,
                                           deadline=time.monotonic() + 0.2)
    assert time.monotonic() - started < 1
    assert (storage, diagnostics) == ({}, ["constructor pre-run abandoned: deadline passed"])
    contract = ContractCode(runtime_code=parse_hex("00"), name="ctor", creation_code=creation)
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=1)))
    assert report.statistics["timed_out"] is True
    assert "constructor pre-run abandoned: deadline passed" in report.diagnostics


# 0: JUMPDEST; CODECOPY(0, 0, MEMORY_CAP-32); JUMPI(0, CALLDATALOAD(0)):
# every pass round the loop fills 3.9 MB of memory
_NEAR_CAP_CODECOPY_LOOP = f"5b62{MEMORY_CAP - 32:06x}6000600039600035600057"


def test_near_cap_codecopy_loop_returns_at_the_deadline():
    # the loop above, adding CALLER to slot 0 in each pass (SSTORE(0,
    # ADD(SLOAD(0), CALLER))), then CALLER; SELFDESTRUCT: each call reads
    # the slot its prefix wrote, so none is reused, and each pass fills
    # memory anew
    loop = _NEAR_CAP_CODECOPY_LOOP
    contract = ContractCode(name="codecopy", runtime_code=parse_hex(
        loop[:-12] + "6000543301600055" + loop[-12:] + "33ff"))
    started = time.monotonic()
    report = analyze(contract, _config(bounds=PathBounds(call_depth=3, wall_time=1)))
    assert time.monotonic() - started < 1 + 1
    assert report.statistics["timed_out"] is True


def test_near_cap_codecopy_loop_at_four_calls_finishes():
    # the loop above, then CALLER; SELFDESTRUCT.  Its memory ends with each
    # call, so the walk reuses each call without copying 3.9 MB per frame
    contract = ContractCode(name="codecopy", runtime_code=parse_hex(
        _NEAR_CAP_CODECOPY_LOOP + "33ff"))
    report = analyze(contract, _config(bounds=PathBounds(call_depth=4, wall_time=5)))
    assert report.statistics["timed_out"] is False
    assert len(report.critical_paths) == 1296


def test_the_call_memo_holds_at_most_a_full_memory(monkeypatch):
    # the CODECOPY loop above, each pass filling a third of memory: the
    # calls the memo holds together hold no more list entries than one full
    # memory has words, and, with room for fewer, the calls past it run again
    code = parse_hex(f"5b62{MEMORY_CAP // 3:06x}600060003960003560005733ff")
    cfg = build_cfg(disassemble(code))
    paths = list(filter_money(enumerate_paths(cfg, PathBounds(call_depth=2)), cfg, set()))
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=2))
    held, runs = [], []
    delta, run_body = symexec_module._CallDelta, symexec_module._run_body
    monkeypatch.setattr(symexec_module, "_CallDelta", lambda *args: held.append(
        sum(map(len, args[:3]))) or delta(*args))
    monkeypatch.setattr(symexec_module, "_run_body",
                        lambda *args: runs.append(args[2].id) or run_body(*args))

    def walk(entries):
        monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", entries)
        held.clear()
        runs.clear()
        walked = list(symexec_module.execute_paths(cfg, code, unfolding,
                                                   unfolding.money_marker(set()), {}, None, None))
        assert [p for p, _state in walked] == paths and len(paths) > 2
        assert sum(held) <= entries
        return len(held), len(runs)

    assert symexec_module.MEMO_ENTRIES == MEMORY_CAP // 32
    assert walk(MEMORY_CAP // 32) == (12, 24)
    assert walk(20) == (3, 69)


def _money_paths(cfg):
    return list(filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg, set()))


def test_a_passed_deadline_makes_a_verdict_unknown():
    code = parse_hex(_NEAR_CAP_SHA3 + "33ff")
    cfg = build_cfg(disassemble(code))
    (path,) = _money_paths(cfg)
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver(),
                               deadline=time.monotonic() + 0.2)
    assert state is None
    assert (feas.status, feas.reason) == (FeasibilityStatus.UNKNOWN, "deadline passed")

    # toydao's money paths hash no long preimage: only replay reads the clock
    toydao = get_contract("toydao")
    cfg = get_cfg("toydao")
    path = _money_paths(cfg)[0]
    state, feas = execute_path(cfg, toydao.runtime_code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.FEASIBLE
    state, feas = execute_path(cfg, toydao.runtime_code, path, {}, BoundedSolver(),
                               deadline=time.monotonic() - 1)
    assert state is not None
    assert (feas.status, feas.reason) == (FeasibilityStatus.UNKNOWN, "deadline passed")

    # a solver that answers at once leaves the witness re-check to hash 3.9 MB
    class InstantSolver:
        def check(self, conjuncts, timeout_ms):
            return CheckResult("sat", model={})

    code = parse_hex(_SYMBOLIC_NEAR_CAP_SHA3)
    cfg = build_cfg(disassemble(code))
    (path,) = _money_paths(cfg)
    started = time.monotonic()
    state, feas = execute_path(cfg, code, path, {}, InstantSolver(),
                               deadline=time.monotonic() + 0.2)
    assert time.monotonic() - started < 1
    assert state is not None
    assert (feas.status, feas.reason) == (FeasibilityStatus.UNKNOWN, "deadline passed")


@pytest.mark.parametrize("pinned", [False, True], ids=["search", "propagation"])
def test_solver_stops_hashing_at_its_timeout(pinned):
    # a 3.9 MB preimage whose first word is free: every evaluation hashes it,
    # in the search, or when equality propagation makes it concrete
    x = var("CALLDATA#1@0")
    digest = node("sha3", (x,) + (ZERO,) * (MEMORY_CAP // 32 - 2), MEMORY_CAP - 32)
    conjuncts = [digest] + ([mk("EQ", x, ZERO)] if pinned else [])
    started = time.monotonic()
    result = BoundedSolver().check(conjuncts, timeout_ms=100)
    assert time.monotonic() - started < 1
    assert (result.status, result.reason) == ("unknown", "solver timeout")


def test_symbolic_near_cap_sha3_is_decided_within_the_wall_time():
    contract = ContractCode(name="sha3", runtime_code=parse_hex(_SYMBOLIC_NEAR_CAP_SHA3))
    config = _config(bounds=PathBounds(call_depth=1, wall_time=2),
                     rank=RankConfig(threshold=0))
    started = time.monotonic()
    report = analyze(contract, config)
    assert time.monotonic() - started < 2 + 1
    assert report.statistics["paths_symbolically_executed"] == 1
    assert [cp.feasibility for cp in report.critical_paths] == ["unknown"]


# A term nested past MAX_DEPTH: CALLER, then 2,000 times CALLER ADD.
_DEEP_TERM = "33" + "3301" * 2000
_DEEP = "trace_abandoned: TermTooDeep (term nested too deep); 1 money path(s) not analyzed"
_LARGE = "trace_abandoned: TermTooDeep (term too large); 1 money path(s) not analyzed"


@pytest.mark.parametrize("code", [
    # SLOAD of the deep key hashes it in the trace; CALLER; SELFDESTRUCT
    _DEEP_TERM + "54" + "33ff",
    # CALL(GAS, CALLER, deep value, 0, 0, 0, 0); STOP: the trace stops
    # building the value the transfer-limit check would read
    "6000" * 4 + _DEEP_TERM + "33" + "5a" + "f1" + "00",
], ids=["trace", "analyzer"])
def test_a_term_nested_too_deep_abandons_its_path(code):
    contract = ContractCode(runtime_code=parse_hex(code), name="deep")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=1)))
    assert _DEEP in report.diagnostics


def test_a_term_nested_too_deep_abandons_the_constructor_pre_run():
    creation = parse_hex(_DEEP_TERM + "54" + "00")  # SLOAD of the deep key; STOP
    abandoned = "constructor pre-run abandoned: term nested too deep"
    assert run_constructor(build_cfg(disassemble(creation)), creation) == ({}, [abandoned])
    contract = ContractCode(runtime_code=parse_hex("00"), name="ctor", creation_code=creation)
    assert abandoned in analyze(contract, _config()).diagnostics


@pytest.mark.parametrize("code", [
    _DEEP_TERM + "54" + "33ff",
    # JUMPI(4006, deep); STOP; 4006: JUMPDEST; CALLER; SELFDESTRUCT: the
    # trace stops building the branch condition the solver would read
    _DEEP_TERM + "610fa6" + "57" + "00" + "5b33ff",
], ids=["trace", "solver"])
def test_a_term_nested_too_deep_makes_a_verdict_unknown(code):
    code = parse_hex(code)
    cfg = build_cfg(disassemble(code))
    (path,) = _money_paths(cfg)
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert state is None
    assert (feas.status, feas.reason) == (FeasibilityStatus.UNKNOWN, "term nested too deep")


def shared_term_ladder(n: int) -> str:
    """CALLER, `n` times DUP1 ADD, SLOAD, CALLER, SELFDESTRUCT: each rung
    adds one node to the term's DAG and doubles its tree."""
    return "33" + "8001" * n + "54" + "33ff"


@pytest.mark.parametrize("n", [21, 40])
def test_a_shared_term_past_max_size_abandons_its_path_at_once(n):
    contract = ContractCode(runtime_code=parse_hex(shared_term_ladder(n)), name="shared")
    config = _config(bounds=PathBounds(call_depth=1, wall_time=2), rank=RankConfig(threshold=0))
    started = time.monotonic()
    report = analyze(contract, config)
    assert time.monotonic() - started < 3
    assert _LARGE in report.diagnostics


def test_a_shared_term_within_max_size_is_analyzed():
    contract = ContractCode(runtime_code=parse_hex(shared_term_ladder(16)), name="shared")
    config = _config(bounds=PathBounds(call_depth=1, wall_time=2), rank=RankConfig(threshold=0))
    report = analyze(contract, config)
    (critical,) = report.critical_paths
    assert PropertyId.GUARD_SUICIDE in critical.ranked.property_set
    assert not any(d.startswith("trace_abandoned") for d in report.diagnostics)


def test_nested_comparisons_over_a_shared_term_are_walked_once():
    # CALLER, 15 times DUP1 ADD (65,535 tree nodes), 180 times CALLER EQ;
    # JUMPI to CALLER SELFDESTRUCT.  When the guard check and the solver's
    # candidate scan walked each comparison's sides again, this took 5.3 s
    code = "33" + "8001" * 15 + "3314" * 180
    code += f"61{len(code) // 2 + 5:04x}57" + "00" + "5b33ff"
    contract = ContractCode(runtime_code=parse_hex(code), name="comparisons")
    started = time.monotonic()
    report = analyze(contract, _config(bounds=PathBounds(call_depth=1, wall_time=2)))
    assert time.monotonic() - started < 2
    assert report.statistics["timed_out"] is False
    (critical,) = report.critical_paths
    assert PropertyId.GUARD_SUICIDE in critical.ranked.property_set
    assert critical.feasibility == "unknown"


def _deepest_term(levels: int):
    """A term `levels` deep under an ownership-guard comparison: CALLER
    and a storage read, then alternating operators over a calldata word."""
    x = var("CALLDATA#1@0")
    term = node("sload", (var("CALLER#1"),), "0x0")
    for i in range(levels - 3):
        term = mk(("ADD", "LT", "AND", "EQ")[i % 4], term, x)
    return mk("EQ", var("CALLER#1"), term)


def _largest_sha3(nodes: int):
    """A hash over `nodes - 1` words, the first of them free."""
    return node("sha3", (var("CALLDATA#1@0"),) + (ZERO,) * (nodes - 2), 32)


def _at_frame_depth(depth: int, fn):
    return _at_frame_depth(depth - 1, fn) if depth else fn()


@pytest.mark.parametrize("build, field, bound, past", [
    (_deepest_term, "depth", MAX_DEPTH, "term nested too deep"),
    (_largest_sha3, "size", MAX_SIZE, "term too large"),
], ids=["depth", "size"])
def test_every_walk_over_a_term_at_its_bound_stays_under_the_recursion_limit(build, field,
                                                                             bound, past):
    term, twin = build(bound), build(bound)
    assert getattr(term, field) == bound
    state = symbolic_state(path_condition=[term],
                           records=[ExternalRecord("SELFDESTRUCT", 0, 1, var("CALLER#1"), ZERO)])
    for walk in (lambda: str(term), lambda: hash(term), lambda: term == twin,
                 lambda: eval_word(term, {}), lambda: free_vars(term),
                 lambda: check_guard_suicide(state),
                 lambda: BoundedSolver().check([term], timeout_ms=100)):
        _at_frame_depth(150, walk)  # raises nothing, RecursionError least of all
    with pytest.raises(TermTooDeep, match=past):
        build(bound + 1)
