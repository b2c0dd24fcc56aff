import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import evmscope.symexec as symexec_module
from evmscope import isa
from evmscope.analyzers import detect_payable_entries
from evmscope.cfg import BasicBlock, Cfg, Terminator, build_cfg
from evmscope.disasm import Instruction, disassemble, parse_hex
from evmscope.keccak import keccak256, selector
from evmscope.pathgen import PathBounds, ProgramPath, enumerate_paths, filter_money
from evmscope.report import AnalysisConfig, analyze
from evmscope.solver import BoundedSolver
from evmscope.symexec import (
    DeadlinePassed,
    FeasibilityStatus,
    ONE,
    SOLVER_TIMEOUT_MS,
    StackUnderflow,
    SymExecError,
    WitnessState,
    Word,
    ZERO,
    _run_body,
    concrete_op,
    concretize,
    const,
    eval_word,
    execute_path,
    execute_paths,
    free_vars,
    mk,
    node,
    replay_blocks,
    run_constructor,
    trace_path,
    var,
)

from asmtool import Asm, scale_probe
from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_cfg, get_contract, symbolic_state

WORD = 1 << 256


# -- reference semantics (independent of the implementation under test) -------

def _signed(x):
    return x - WORD if x >= (1 << 255) else x


def _ref(name, a, b, c=0):
    if name == "ADD":
        return (a + b) % WORD
    if name == "MUL":
        return (a * b) % WORD
    if name == "SUB":
        return (a - b) % WORD
    if name == "DIV":
        return 0 if b == 0 else a // b
    if name == "SDIV":
        if b == 0:
            return 0
        sa, sb = _signed(a), _signed(b)
        return (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)) % WORD
    if name == "MOD":
        return 0 if b == 0 else a % b
    if name == "SMOD":
        if b == 0:
            return 0
        sa, sb = _signed(a), _signed(b)
        return ((-1 if sa < 0 else 1) * (abs(sa) % abs(sb))) % WORD
    if name == "ADDMOD":
        return 0 if c == 0 else (a + b) % c
    if name == "MULMOD":
        return 0 if c == 0 else (a * b) % c
    if name == "EXP":
        return pow(a, b, WORD)
    if name == "SIGNEXTEND":
        if a >= 32:
            return b
        bit = 8 * a + 7
        if b & (1 << bit):
            return (b | (WORD - (1 << (bit + 1)))) % WORD
        return b & ((1 << (bit + 1)) - 1)
    if name == "LT":
        return int(a < b)
    if name == "GT":
        return int(a > b)
    if name == "SLT":
        return int(_signed(a) < _signed(b))
    if name == "SGT":
        return int(_signed(a) > _signed(b))
    if name == "EQ":
        return int(a == b)
    if name == "ISZERO":
        return int(a == 0)
    if name == "AND":
        return a & b
    if name == "OR":
        return a | b
    if name == "XOR":
        return a ^ b
    if name == "NOT":
        return WORD - 1 - a
    if name == "BYTE":
        return 0 if a >= 32 else (b >> (8 * (31 - a))) & 0xFF
    if name == "SHL":
        return 0 if a >= 256 else (b << a) % WORD
    if name == "SHR":
        return 0 if a >= 256 else b >> a
    if name == "SAR":
        if a >= 256:
            return (WORD - 1) if _signed(b) < 0 else 0
        return (_signed(b) >> a) % WORD
    raise AssertionError(name)


_BINARY = ["ADD", "MUL", "SUB", "DIV", "SDIV", "MOD", "SMOD", "EXP",
           "SIGNEXTEND", "LT", "GT", "SLT", "SGT", "EQ", "AND", "OR",
           "XOR", "BYTE", "SHL", "SHR", "SAR"]
_TERNARY = ["ADDMOD", "MULMOD"]


def test_word_arithmetic_differential_100k():
    rng = random.Random(0xEC0)
    interesting = [0, 1, 2, 31, 32, 255, 256, (1 << 255) - 1, 1 << 255,
                   WORD - 1, WORD - 2]

    def sample():
        if rng.random() < 0.4:
            return rng.choice(interesting)
        return rng.getrandbits(rng.choice([8, 16, 64, 256]))

    checked = 0
    while checked < 100_000:
        name = rng.choice(_BINARY if rng.random() < 0.9 else _TERNARY)
        a, b, c = sample(), sample(), sample()
        if name == "EXP" and b > (1 << 16) and a > 1:
            b %= 1 << 16  # keep pow() affordable
        if name in _TERNARY:
            assert concrete_op(name, [a, b, c]) == _ref(name, a, b, c), (name, a, b, c)
        else:
            assert concrete_op(name, [a, b]) == _ref(name, a, b), (name, a, b)
        checked += 1


@given(st.sampled_from(_BINARY),
       st.integers(min_value=0, max_value=WORD - 1),
       st.integers(min_value=0, max_value=WORD - 1))
@settings(max_examples=300)
def test_word_arithmetic_differential_hypothesis(name, a, b):
    if name == "EXP":
        b %= 1 << 16
    assert concrete_op(name, [a, b]) == _ref(name, a, b)


def test_results_stay_in_word_range():
    rng = random.Random(7)
    for _ in range(2000):
        name = rng.choice(_BINARY)
        v = concrete_op(name, [rng.getrandbits(256), rng.getrandbits(256)])
        assert 0 <= v < WORD


# -- terms --------------------------------------------------------------------

def test_mk_folds_constants():
    assert mk("ADD", const(2), const(3)) == const(5)
    assert mk("SUB", const(0), const(1)) == const(WORD - 1)


def test_mk_identities():
    x = var("x")
    assert mk("SUB", x, x) == const(0)
    assert mk("EQ", x, x) == const(1)
    assert mk("ADD", x, const(0)) == x


def test_eval_word_defaults_unassigned_to_zero():
    w = mk("ADD", var("a"), const(5))
    assert eval_word(w, {}) == 5
    assert eval_word(w, {"a": 10}) == 15


def test_sha3_term_evaluates_with_real_hash():
    data = (7).to_bytes(32, "big") + (9).to_bytes(32, "big")
    expected = int.from_bytes(keccak256(data), "big")
    term = node("sha3", (const(7), const(9)), 64)
    assert eval_word(term, {}) == expected
    assert concretize(term) == expected


def test_free_vars_and_concretize():
    w = mk("ADD", var("a"), mk("MUL", var("b"), const(3)))
    assert free_vars(w) == {"a", "b"}
    assert concretize(w) is None
    closed = node("sload", (const(42),), "0x1")
    assert concretize(closed) == 42


# -- interpreter over block sequences ------------------------------------------

def _alone(cfg, code, blocks, storage):
    """The state of one block sequence walked by itself; raises the
    SymExecError that stops it."""
    return trace_path(cfg, code, ProgramPath(tuple(blocks), ()), storage)


def _run(code_hex, blocks=None, storage=None):
    code = parse_hex(code_hex)
    cfg = build_cfg(disassemble(code))
    if blocks is None:
        paths = list(enumerate_paths(cfg, PathBounds(call_depth=1)))
        assert len(paths) == 1
        blocks = paths[0].blocks
    return _alone(cfg, code, tuple(blocks), storage or {})


def test_straightline_stack_arithmetic():
    # PUSH1 1; PUSH1 2; MUL; PUSH1 0; SSTORE; STOP
    state = _run("60016002026000 5500".replace(" ", ""))
    stored = state.final_storage()
    assert stored[const(0)] == const(2)


def test_storage_read_over_write_same_key():
    # SSTORE(0, 7) then SLOAD(0)
    state = _run("600760005560005460015500")
    # second store writes the loaded value to slot 1
    stored = state.final_storage()
    assert concretize(stored[const(1)]) == 7


def test_storage_unknown_slot_reads_stable_var():
    state = _run("60005460005460015560025500")
    stored = state.final_storage()
    # both loads of the untouched slot 0 produced the same variable
    assert stored[const(1)] == stored[const(2)]
    assert free_vars(stored[const(1)])


def test_loads_of_one_key_render_the_key_once(monkeypatch):
    # CALLER, then 40 times DUP1 SLOAD POP: the storage variable is named
    # from the key once, and no load renders the key again
    renders = []
    render = Word.__str__
    monkeypatch.setattr(Word, "__str__", lambda w: renders.append(w) or render(w))
    _run("33" + "805450" * 40 + "00")
    assert [w for w in renders if w.op == "var" and w.name.startswith("CALLER")] == [
        var("CALLER#1")]


@pytest.mark.parametrize("runner", ["symbolic", "witness"])
def test_step_covers_every_opcode_byte(runner):
    # every byte as a one-instruction block through the block runner, over
    # a symbolic machine or over one in witness mode, as witness replay runs
    for info in isa.TABLE:
        ins = Instruction(64, info, 0x1234 if info.immediate_bytes else None)
        jump = info.mnemonic in ("JUMP", "JUMPI")
        terminator = {"JUMP": Terminator.JUMP, "JUMPI": Terminator.COND_JUMP
                      }.get(info.mnemonic, Terminator.TERMINAL if info.is_terminal
                            else Terminator.FALL_THROUGH)
        block = BasicBlock(64, 64, 64, [ins], terminator)
        cfg = Cfg(blocks={64: block}, root=64)
        if runner == "symbolic":
            state = symbolic_state(stack=[var(f"S{i}") for i in range(20)], code=bytes(100))
        else:
            state = WitnessState({}, bytes(100), None, {})
            state.stack = [const(i) for i in range(20)]
        operands = _run_body(state, cfg, block)
        stack = state.stack
        assert len(stack) - 20 == info.stack_pushes - info.stack_pops, info.mnemonic
        assert len(operands) == (info.stack_pops if jump else 0), info.mnemonic
        if runner == "witness":  # witness mode builds no term
            assert all(w.is_concrete for w in stack + list(operands)), info.mnemonic


def test_stack_underflow_raises():
    code = parse_hex("0100")  # ADD on an empty stack
    cfg = build_cfg(disassemble(code))
    with pytest.raises(StackUnderflow):
        _alone(cfg, code, (0,), {})


def test_a_block_entered_below_its_stack_need_halts_before_it_runs():
    # PUSH1 0x20; PUSH4 0xffffffff; SHA3 past MEMORY_CAP; POP; POP (one too
    # many); CALLER; SELFDESTRUCT.  The block needs one word at entry, so
    # it halts on the stack before the SHA3 can run out of gas.
    code = parse_hex("602063ffffffff20505033ff")
    cfg = build_cfg(disassemble(code))
    (path,) = enumerate_paths(cfg, PathBounds(call_depth=1))
    with pytest.raises(StackUnderflow, match="^pop from empty stack$"):
        trace_path(cfg, code, path, {})
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert (feas.status, feas.reason) == (FeasibilityStatus.INFEASIBLE,
                                          "malformed path: pop from empty stack")


@pytest.mark.parametrize("blocks", [(0, 6), (0, 4, 6), (0, 4, 0, 6)])
def test_a_path_steps_only_along_the_graph(blocks):
    # PUSH1 0; CALLDATALOAD; POP falls through to 4: JUMPDEST; STOP, and 6:
    # JUMPDEST; CALLER; SELFDESTRUCT follows no block.  A block without a
    # jump goes on to its next block alone, and a terminal block to the root
    code = parse_hex("600035505b005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath(blocks, (None,) * blocks.count(0))
    with pytest.raises(SymExecError, match="which is no edge of the graph$"):
        trace_path(cfg, code, path, {})
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.INFEASIBLE


def test_a_symbolic_jumpi_target_may_be_the_fallthrough():
    # JUMPI(CALLDATALOAD(0), 1); 6: JUMPDEST; CALLER; SELFDESTRUCT.  The
    # condition holds, so the path reaches 6 only by jumping there
    code = parse_hex("6001600035575b33ff")
    cfg = build_cfg(disassemble(code))
    (path,) = enumerate_paths(cfg, PathBounds(call_depth=1))
    assert path.blocks == (0, 6)
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert state.path_condition == [
        mk("OR", mk("ISZERO", ONE), mk("EQ", var("CALLDATA#1@0"), const(6)))]
    assert (feas.status, feas.witness) == (FeasibilityStatus.FEASIBLE, {"CALLDATA#1@0": 6})
    assert replay_blocks(cfg, code, feas.witness, {}, 1) == path.blocks


@pytest.mark.parametrize("code_hex, blocks", [
    # JUMPI(11, CALLDATALOAD(0)); 6: JUMP(18) with 20 below; 11: JUMP(18)
    # with CALLDATALOAD(32) below; 18: JUMP; 20: CALLER; SELFDESTRUCT
    ("600035600b57" "6014601256" "5b602035601256" "5b56" "5b33ff", (0, 11, 18, 20)),
    # as above, but 18 is JUMPI(target, CALLDATALOAD(64)); 24: STOP;
    # 25: CALLER; SELFDESTRUCT
    ("600035600b57" "6019601256" "5b602035601256" "5b6040359057" "00" "5b33ff",
     (0, 11, 18, 25)),
])
def test_a_jump_taken_to_a_symbolic_target(code_hex, blocks):
    # the stack simulation finds the target through block 6; through block
    # 11 it is calldata word 32, which must name it
    status, witness, replays = _verdict(code_hex, blocks)
    assert status is FeasibilityStatus.FEASIBLE and replays
    assert witness["CALLDATA#1@32"] == blocks[-1]


def test_mstore8_through_a_symbolic_offset_leaves_memory_unknown():
    # MSTORE(0, 1); MSTORE8(CALLDATALOAD(0), 0xff); JUMPI(22, EQ(1, MLOAD(0)));
    # 20: CALLER; SELFDESTRUCT; 22: JUMPDEST; STOP.  The byte may land in
    # word 0, as it does for empty calldata, so the SELFDESTRUCT is reachable
    code = parse_hex("6001600052" "60ff60003553" "600051600114601657" "33ff" "5b00")
    cfg = build_cfg(disassemble(code))
    (path,) = [p for p in enumerate_paths(cfg, PathBounds(call_depth=1)) if p.blocks == (0, 20)]
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert state.path_condition == [
        mk("ISZERO", mk("EQ", ONE, var("MEM#1.13")))]
    assert (feas.status, feas.witness) == (FeasibilityStatus.FEASIBLE, {"MEM#1.13": 0})
    assert replay_blocks(cfg, code, feas.witness, {}, 1) == path.blocks



@pytest.mark.parametrize("reads, stored", [
    ("600051", ZERO),                            # MLOAD(0) of clean memory
    ("60003551", ZERO),                          # MLOAD(CALLDATALOAD(0)) of it
    ("3360005260003551", var("MEM#1.7")),        # the same after MSTORE(0, CALLER)
    ("33600052602051", ZERO),                    # MSTORE(0, CALLER); MLOAD(32)
    ("33600152600051", var("MEM#1.6")),          # MSTORE(1, CALLER); MLOAD(0)
    ("336001526020600020", node("sha3", (var("MEM#1.8"),), 32)),  # ...; SHA3(0, 32)
], ids=["clean", "clean_symbolic_offset", "written_symbolic_offset", "beside_a_write",
        "overlapped_mload", "overlapped_sha3"])
def test_mload_and_sha3_read_an_unwritten_word_alike(reads, stored):
    # the word read is stored at slot 0: an unwritten word is zero unless
    # a written word overlaps it (memory is keyed by word offset)
    state = _run(reads + "600055" + "00")
    assert state.final_storage()[const(0)] == stored


def test_mload_of_never_written_memory_takes_no_branch_on_it():
    # JUMPI(7, MLOAD(0)); 6: STOP; 7: JUMPDEST; CALLER; SELFDESTRUCT.
    # Memory is zero at a call's start, so the code stops
    code = parse_hex("600051600757005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 7), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert (feas.status, feas.reason) == (FeasibilityStatus.INFEASIBLE,
                                          "condition folds to false")


def test_mload_through_a_symbolic_offset_of_unwritten_memory_draws_no_word():
    # MLOAD(CALLDATALOAD(0)); POP; JUMPI(10, GAS); 9: STOP; 10: JUMPDEST;
    # CALLER; SELFDESTRUCT.  Nothing is written, so the load is zero at any
    # offset in the trace, as at replay's constant one, and the trace's
    # GAS word is the one replay reads
    code = parse_hex("60003551505a600a57005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 10), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert (feas.status, feas.witness) == (FeasibilityStatus.FEASIBLE, {"GAS#1.5": 1})


def _verdict(code_hex, blocks):
    """The feasibility of the one-call path `blocks` of runtime `code_hex`,
    and whether its witness replays it."""
    code = parse_hex(code_hex)
    cfg = build_cfg(disassemble(code))
    (path,) = [p for p in enumerate_paths(cfg, PathBounds(call_depth=1)) if p.blocks == blocks]
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver(), solver_timeout_ms=2000)
    replays = feas.witness is not None and replay_blocks(cfg, code, feas.witness, {}, 1) == blocks
    return feas.status, feas.witness, replays


# MSTORE(0, 5); CALL(GAS, CALLER, 0, 0, 0, 0, <out size>); POP;
# JUMPI(30, EQ(5, MLOAD(0))); 28: CALLER; SELFDESTRUCT; 30: JUMPDEST; STOP
_CALL_OVER_MEMORY = "6005600052" "60{}600060006000600033" "5af1" "50" \
    "600051600514601e57" "33ff" "5b00"


def test_a_call_s_return_data_overwrites_its_output_area():
    # the callee may return any word into memory word 0, so the unguarded
    # SELFDESTRUCT is reachable
    assert _verdict(_CALL_OVER_MEMORY.format("20"), (0, 18, 28)) == (
        FeasibilityStatus.FEASIBLE, {"MEM#1.21": 0}, True)
    # with no output area the stored 5 is still there
    assert _verdict(_CALL_OVER_MEMORY.format("00"), (0, 18, 28))[0] \
        is FeasibilityStatus.INFEASIBLE


@pytest.mark.parametrize("op, witness", [("20", {"GAS#1.13": 1}), ("01", {"GAS#1.13": 1})])
def test_replay_hashes_the_fresh_words_the_trace_hashes(op, witness):
    # CALLDATACOPY(0, 0, 32); POP(SHA3(0, 32)), or ADD in its place;
    # JUMPI(19, GAS); STOP; STOP; 19: JUMPDEST; CALLER; SELFDESTRUCT.  The
    # SHA3 reads word 0 as a fresh word in both runners, and the GAS word
    # is named by its offset, 13, with or without it
    code = f"6020600060003760206000{op}505a6013570000" "5b33ff"
    assert _verdict(code, (0, 19)) == (FeasibilityStatus.FEASIBLE, witness, True)


@pytest.mark.parametrize("code_hex, blocks, witness", [
    # POP(CALLDATALOAD(CALLDATALOAD(0))); JUMPI(10, GAS); 9: STOP;
    # 10: JUMPDEST; CALLER; SELFDESTRUCT
    ("60003535505a600a57005b33ff", (0, 10), {"GAS#1.5": 1}),
    # MSTORE(0, CALLER); POP(MLOAD(ADD(CALLDATALOAD(0), 64))); JUMPI(17,
    # GAS); 16: STOP; 17: JUMPDEST; CALLER; SELFDESTRUCT
    ("3360005260406000350151505a601157005b33ff", (0, 17), {"GAS#1.12": 1}),
])
def test_a_word_drawn_only_in_the_trace_renames_no_later_word(code_hex, blocks, witness):
    # the read through a symbolic offset draws a word in the trace, where
    # replay reads at a constant offset and draws none; the GAS word is
    # named by its offset in both, so replay reads the trace's
    assert _verdict(code_hex, blocks) == (FeasibilityStatus.FEASIBLE, witness, True)


def _a_read(asm, read, offset, through):
    """One read, its word popped, or an MSTORE of CALLER: the offset pushed
    as is, or for CALLDATALOAD and MLOAD read from calldata word `offset`
    (`through`)."""
    if read == "MSTORE":
        asm.op("CALLER").push(offset).op("MSTORE")
        return
    if read == "SHA3":
        asm.push(32).push(offset).op("SHA3")
    elif read == "GAS":
        asm.op("GAS")
    else:
        asm.push(offset)
        if through:
            asm.op("CALLDATALOAD")
        asm.op(read)
    asm.op("POP")


@settings(max_examples=400, deadline=None)
@given(reads=st.lists(st.tuples(st.sampled_from(["MSTORE", "CALLDATALOAD", "MLOAD", "SHA3",
                                                 "GAS"]),
                                st.sampled_from([0, 16, 32, 64]), st.booleans()),
                      min_size=1, max_size=6))
def test_reads_before_a_branch_on_gas_never_shift_its_name(reads):
    # whatever the reads draw in the trace and not in replay, the branch on
    # GAS is decided on the word the trace named: the path is feasible
    asm = Asm()
    for read in reads:
        _a_read(asm, *read)
    asm.op("GAS").push_label("sink").op("JUMPI").op("STOP")
    asm.label("sink").op("JUMPDEST").op("CALLER").op("SELFDESTRUCT")
    code = asm.assemble()
    status, witness, replays = _verdict(code.hex(), (0, asm.offset_of("sink")))
    assert (status, replays) == (FeasibilityStatus.FEASIBLE, True), witness


def test_path_condition_accumulates_monotonically():
    contract = get_contract("toydao")
    cfg = get_cfg("toydao")
    paths = list(filter_money(enumerate_paths(cfg, PathBounds(call_depth=2)), cfg))
    state = trace_path(cfg, contract.runtime_code, paths[0], {})
    assert len(state.path_condition) >= 4  # dispatcher + preamble + branches
    # conditions only referencing the first transaction precede the second's
    assert state.txn == 2


def test_transaction_boundary_freshens_environment():
    contract = get_contract("toydao")
    cfg = get_cfg("toydao")
    path = next(p for p in filter_money(enumerate_paths(cfg, PathBounds(call_depth=2)), cfg)
                if p.blocks.count(112) == 2)
    state = trace_path(cfg, contract.runtime_code, path, {})
    names = set().union(*(free_vars(c) for c in state.path_condition))
    assert any(n.startswith("CALLVALUE#1") for n in names)
    assert any(n.startswith("CALLVALUE#2") for n in names)


def test_revert_rolls_back_segment_storage():
    # SSTORE(0, 5) then REVERT
    state = _run("600560005560006000fd")
    assert state.final_storage() == {}
    assert state.records == []


# -- constructor pre-run ---------------------------------------------------------

def test_toydao_constructor_stores_caller():
    contract = get_contract("toydao")
    creation_cfg = build_cfg(disassemble(contract.creation_code))
    storage, diags = run_constructor(creation_cfg, contract.creation_code)
    assert diags == []
    owner = storage[const(0)]
    assert owner.op == "var" and owner.name == "CALLER#c1"


def test_enjinbuyer_constructor_stores_both_addresses():
    contract = get_contract("enjinbuyer")
    creation_cfg = build_cfg(disassemble(contract.creation_code))
    storage, diags = run_constructor(creation_cfg, contract.creation_code)
    assert diags == []
    assert concretize(storage[const(0)]) == 0x0639C169D9265CA4B4DECE693764CDA8EA5F3882
    assert concretize(storage[const(1)]) == 0x0C4740F71323129669424D1AE06C42AEE99DA30E


def test_missing_constructor_gives_empty_storage():
    storage, diags = run_constructor(None, None)
    assert storage == {} and diags == []


def test_constructor_prefers_the_branch_that_does_not_revert():
    # a symbolic condition guards a REVERT; the fallthrough stores 7 at slot 0
    asm = Asm().op("CALLVALUE").push_label("revert").op("JUMPI")
    asm.push(7).push(0).op("SSTORE").op("STOP")
    asm.label("revert").op("JUMPDEST").push(0).op("DUP1").op("REVERT")
    code = asm.assemble()
    storage, diags = run_constructor(build_cfg(disassemble(code)), code)
    assert storage == {const(0): const(7)}
    assert diags == []


@pytest.mark.parametrize("code_hex", ["6001600957600080fd5b602a60005500",
                                      "34600857600080fd5b602a60005500"])
def test_constructor_takes_a_jumpi(code_hex):
    # JUMPI(9, 1) or JUMPI(8, CALLVALUE); PUSH1 0; DUP1; REVERT; JUMPDEST;
    # SSTORE(0, 42); STOP: a constant condition jumps, and a symbolic one
    # prefers the jump, since the fallthrough reverts
    code = parse_hex(code_hex)
    assert run_constructor(build_cfg(disassemble(code)), code) == ({const(0): const(42)}, [])


def test_constructor_return_on_short_stack_is_abandoned():
    # RETURN pops two words; on an empty stack the deployment halts
    code = parse_hex("f3")
    storage, diags = run_constructor(build_cfg(disassemble(code)), code)
    assert storage == {}
    assert diags == ["constructor pre-run abandoned: pop from empty stack"]


def test_diverging_constructor_falls_back_to_symbolic():
    # constructor that loops forever: JUMPDEST; PUSH1 0; JUMP
    code = parse_hex("5b600056")
    creation_cfg = build_cfg(disassemble(code))
    storage, diags = run_constructor(creation_cfg, code)
    assert storage == {}
    assert diags == ["constructor pre-run abandoned: constructor walk looped"]


def test_constructor_walk_stops_at_the_block_budget():
    # 65 blocks in a cycle: none is entered 64 times before the budget ends
    code = parse_hex("5b" * 64 + "5b600056")
    creation_cfg = build_cfg(disassemble(code))
    assert len(creation_cfg.blocks) == 65
    assert run_constructor(creation_cfg, code) == (
        {}, ["constructor pre-run abandoned: exceeded block budget"])


def test_constructor_jumping_outside_its_code_is_abandoned():
    code = parse_hex("600160005560ff56")  # SSTORE(0, 1); JUMP to 0xff, past the code
    assert run_constructor(build_cfg(disassemble(code)), code) == (
        {}, ["constructor pre-run abandoned: jumped to unknown offset 255"])


def test_replay_stops_at_the_block_budget(monkeypatch):
    # JUMPDEST; PUSH1 0; JUMP loops under any witness
    code = parse_hex("5b600056")
    runs = []
    monkeypatch.setattr(symexec_module, "_run_body",
                        lambda *args: runs.append(1) or _run_body(*args))
    with pytest.raises(SymExecError, match="^exceeded block budget$"):
        replay_blocks(build_cfg(disassemble(code)), code, {}, {}, 1)
    assert len(runs) == symexec_module.STEER_BLOCK_LIMIT == 4096


def test_trace_path_runs_a_path_past_the_steered_block_budget(monkeypatch):
    # JUMPDEST; PUSH1 0; JUMP loops at the root: a claimed path is traced
    # whole, whatever its length, in one call
    code = parse_hex("5b600056")
    cfg = build_cfg(disassemble(code))
    blocks = (0,) * (symexec_module.STEER_BLOCK_LIMIT + 10)
    runs = _counting_runs(monkeypatch)
    state = trace_path(cfg, code, ProgramPath(blocks, ()), {})
    assert (len(runs), state.txn) == (len(blocks), 1)


def test_a_reverted_write_is_gone_in_the_next_call_in_trace_and_replay():
    # call 1 (no value) stores 5 at slot 0, then reverts; call 2 (with
    # value) reads slot 0 and branches on whether it still holds the 7
    # the constructor left there
    asm = Asm().op("CALLVALUE").push_label("second").op("JUMPI")
    asm.label("revert").push(5).push(0).op("SSTORE").push(0).op("DUP1").op("REVERT")
    asm.label("second").op("JUMPDEST").push(0).op("SLOAD").push(7).op("EQ")
    asm.push_label("seven").op("JUMPI")
    asm.label("other").op("STOP")
    asm.label("seven").op("JUMPDEST").op("STOP")
    code = asm.assemble()
    cfg = build_cfg(disassemble(code))
    base = {const(0): const(7)}
    revert, second, other, seven = map(asm.offset_of, ("revert", "second", "other", "seven"))
    paths = {p.blocks[-1]: p for p in enumerate_paths(cfg, PathBounds(call_depth=2))
             if p.blocks[:4] == (0, revert, 0, second)}
    assert set(paths) == {seven, other}
    for end, reads_seven in ((seven, 1), (other, 0)):
        state = trace_path(cfg, code, paths[end], base)
        assert state.final_storage() == base
        assert [concretize(c) for c in state.path_condition if not free_vars(c)] \
            == [reads_seven]
    witness = {"CALLVALUE#1": 0, "CALLVALUE#2": 1}
    assert replay_blocks(cfg, code, witness, base, 2) == paths[seven].blocks
    _state, feas = execute_path(cfg, code, paths[seven], base, BoundedSolver())
    assert feas.status is FeasibilityStatus.FEASIBLE
    # the other way asserts ISZERO(EQ(sload(0x0), 0x7)), closed and false
    _state, feas = execute_path(cfg, code, paths[other], base, BoundedSolver())
    assert (feas.status, feas.reason) == (FeasibilityStatus.INFEASIBLE,
                                          "condition folds to false")


def _replay_reaches(asm: Asm, label: str, witness: dict[str, int]) -> bool:
    """Whether the one-call replay of `asm`'s code under `witness` ends at `label`."""
    code = asm.assemble()
    blocks = replay_blocks(build_cfg(disassemble(code)), code, witness, {}, 1)
    return blocks[-1] == asm.offset_of(label)


@pytest.mark.parametrize("moves, reads_balance", [
    (["DUP1", "SWAP1", "POP"], True),
    ([0, "MSTORE", 0, "MLOAD"], True),
    ([0, "ADD"], False),
    ([0, "SSTORE", 0, "SLOAD"], False),
])
def test_replay_reads_the_own_balance_only_for_the_address_word(moves, reads_balance):
    # ADDRESS, moved about or computed on, then BALANCE; JUMPI to `own` if
    # it read the contract's balance, 5 under the witness, where a fresh
    # EXTBAL word reads 0
    asm = Asm().op("ADDRESS")
    for move in moves:
        asm.push(move) if isinstance(move, int) else asm.op(move)
    asm.op("BALANCE").push(5).op("EQ").push_label("own").op("JUMPI")
    asm.op("STOP").label("own").op("JUMPDEST").op("STOP")
    assert _replay_reaches(asm, "own", {"ADDRESS": 0x1234, "BALANCE0": 5}) is reads_balance


def test_an_operator_that_gives_back_the_address_word_reads_a_fresh_balance():
    # BALANCE(ADD(ADDRESS, 0)); POP; JUMPI(11, GAS); 10: STOP; 11: JUMPDEST;
    # CALLER; SELFDESTRUCT.  The sum is a new word in the trace, as in
    # replay, so both draw an EXTBAL word and replay reads the trace's GAS
    code = parse_hex("6000300131505a600b57005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 11), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert (feas.status, feas.witness) == (FeasibilityStatus.FEASIBLE, {"GAS#1.6": 1})


@pytest.mark.parametrize("witness, kept", [({}, True), ({"ADDRESS": 1}, False)])
def test_replay_tests_a_call_output_size_by_its_value(witness, kept):
    # MSTORE(0, 7); a CALL whose output size is the ADDRESS word, 0 where
    # the witness leaves it out; JUMPI to `kept` if MLOAD(0) still gives 7,
    # where memory the return data cleared gives a fresh word, read as 0
    asm = Asm().push(7).push(0).op("MSTORE").op("ADDRESS")
    for _ in range(6):
        asm.push(0)
    asm.op("CALL").op("POP").push(0).op("MLOAD").push(7).op("EQ")
    asm.push_label("kept").op("JUMPI").op("STOP").label("kept").op("JUMPDEST").op("STOP")
    assert _replay_reaches(asm, "kept", witness) is kept


def test_an_mstore8_through_a_symbolic_offset_keeps_replay_on_the_path():
    # MSTORE8(CALLDATALOAD(0), 1); JUMPI on GAS to CALLER; SELFDESTRUCT.
    # The trace draws the byte's word at any offset, as replay does, so
    # the trace's GAS word is the one replay reads.
    code = parse_hex("6001600035535a600b57005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 11), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert (feas.status, feas.reason) == (FeasibilityStatus.FEASIBLE, "")


def test_a_replay_past_its_deadline_ends_unknown():
    # CALLVALUE; JUMPI to a SELFDESTRUCT: two blocks, too few for the trace
    # to read the clock, so the deadline is first seen by the replay
    code = parse_hex("34600557005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 5), (None,))
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.FEASIBLE
    state, feas = execute_path(cfg, code, path, {}, BoundedSolver(),
                               deadline=time.monotonic() - 1)
    assert state is not None  # the trace and the solver finished
    assert (feas.status, feas.reason) == (FeasibilityStatus.UNKNOWN, "deadline passed")
    with pytest.raises(DeadlinePassed):
        replay_blocks(cfg, code, {"CALLVALUE#1": 1}, {}, 1, time.monotonic() - 1)


# -- execute_path / feasibility ---------------------------------------------------

def test_contradictory_condition_infeasible():
    solver = BoundedSolver()
    # value > 0 and value == 0 cannot hold together
    x = var("CALLVALUE#1")
    result = solver.check([mk("GT", x, const(0)), mk("EQ", x, const(0))], SOLVER_TIMEOUT_MS)
    assert result.status == "unsat"


def test_bitway_create_tokens_witness():
    contract = get_contract("bitway")
    cfg = get_cfg("bitway")
    ct_sel = selector("createTokens()")
    path = next(p for p in enumerate_paths(cfg, PathBounds(call_depth=1))
                if p.functions[0] == ct_sel
                and cfg.blocks[p.blocks[-1]].last.mnemonic == "STOP")
    state, feas = execute_path(cfg, contract.runtime_code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.FEASIBLE
    assert feas.witness["CALLVALUE#1"] == 301
    # independent re-check: the witness replays along the claimed blocks
    assert replay_blocks(cfg, contract.runtime_code, feas.witness, {},
                         path.call_count) == path.blocks


def test_infeasible_branch_pair_detected():
    contract = get_contract("micro_window_empty")
    cfg = build_cfg(disassemble(contract.runtime_code))
    solver = BoundedSolver()
    statuses = {}
    for p in enumerate_paths(cfg, PathBounds(call_depth=1)):
        _state, feas = execute_path(cfg, contract.runtime_code, p, {}, solver)
        statuses[p.blocks] = feas.status
    assert FeasibilityStatus.INFEASIBLE in statuses.values()


def test_solver_unknown_on_hash_heavy_condition():
    solver = BoundedSolver()
    hashed = node("sha3", (var("x"),), 32)
    result = solver.check([mk("EQ", hashed, const(12345))], timeout_ms=50)
    assert result.status == "unknown"


def test_malformed_path_is_infeasible():
    contract = get_contract("toydao")
    cfg = get_cfg("toydao")
    real = next(iter(enumerate_paths(cfg, PathBounds(call_depth=1))))
    # claim a block order the bytecode cannot follow
    fake = real._replace(blocks=(0, 112), functions=real.functions[:1])
    _state, feas = execute_path(cfg, contract.runtime_code, fake, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.INFEASIBLE


# -- transfer refinement -----------------------------------------------------------

def test_toydao_withdraw_transfers_twenty():
    contract = get_contract("toydao")
    cfg = get_cfg("toydao")
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg))
    state = trace_path(cfg, contract.runtime_code, path, {})
    from evmscope.symexec import refine_transfer_values
    values = [v for rec, v in refine_transfer_values(state) if rec.kind == "CALL"]
    assert values == [20]


def test_transfer_of_callvalue_is_unknown():
    contract = get_contract("gigstoken")
    cfg = get_cfg("gigstoken")
    path = next(p for p in filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg)
                if cfg.blocks[p.blocks[-1]].last.mnemonic == "STOP")
    state = trace_path(cfg, contract.runtime_code, path, {})
    from evmscope.symexec import UNKNOWN_AMOUNT, refine_transfer_values
    values = [v for rec, v in refine_transfer_values(state) if rec.kind == "CALL"]
    assert values == [UNKNOWN_AMOUNT]


def test_transfer_of_constructor_constant_is_concrete():
    contract = get_contract("pay_const_0")
    cfg = build_cfg(disassemble(contract.runtime_code))
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg))
    state = trace_path(cfg, contract.runtime_code, path, {})
    from evmscope.symexec import refine_transfer_values
    values = [v for rec, v in refine_transfer_values(state) if rec.kind == "CALL"]
    assert values == [5]


# -- storage reads over symbolic keys ----------------------------------------------

def test_symbolic_key_read_sees_every_write():
    state = symbolic_state(storage_writes=[(const(slot), const(value))
                                           for slot, value in ((1, 10), (2, 20), (1, 10))])
    loaded = state.sload(var("K"))
    assert [eval_word(loaded, {"K": k}) for k in (1, 2, 3)] == [10, 20, 0]


# -- prefix-shared execution --------------------------------------------------------

def _observable(state):
    return (state.path_condition, state.storage_writes, state.sites,
            state.balance, state.records, state.txn, state.stack, state.memory,
            state.mem_unknown, state.call_start)


def _walk(cfg, code, bounds, storage=None, marked=None):
    """The trace walk over the unfolding: (path, outcome) pairs."""
    unfolding = enumerate_paths(cfg, bounds)
    return list(execute_paths(cfg, code, unfolding, marked or (lambda _piece: True),
                              storage or {}, None, None))


def _assert_shared_walk_matches_solo(name, call_depth, monkeypatch):
    contract = get_contract(name)
    code = contract.runtime_code
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    storage = {}
    if contract.creation_code:
        storage, _diags = run_constructor(build_cfg(disassemble(contract.creation_code)),
                                          contract.creation_code)
    payable, _details = detect_payable_entries(cfg, instructions)
    bounds = PathBounds(call_depth=call_depth)
    paths = list(filter_money(enumerate_paths(cfg, bounds), cfg, payable))
    alone = [_observable(_alone(cfg, code, p.blocks, storage)) for p in paths]
    unfolding = enumerate_paths(cfg, bounds)
    marked = unfolding.money_marker(payable)
    for entries in (symexec_module.MEMO_ENTRIES, 0):  # with the memo, then frames alone
        monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", entries)
        shared = list(execute_paths(cfg, code, unfolding, marked, storage, None, None))
        assert [p for p, _state in shared] == paths
        assert [_observable(state) for _p, state in shared] == alone


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shared_walk_matches_solo_execution(path, monkeypatch):
    _assert_shared_walk_matches_solo(path.stem, 3, monkeypatch)


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json"))
                         + sorted(p.stem for p in MICRO.glob("*.json")))
def test_shared_walk_matches_solo_execution_at_bound_four(name, monkeypatch):
    """At four calls most calls are reused from the memo: every leaf state
    still equals the state its blocks give alone, on every field."""
    _assert_shared_walk_matches_solo(name, 4, monkeypatch)


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json"))
                         + sorted(p.stem for p in MICRO.glob("*.json")))
def test_shared_walk_matches_solo_execution_on_every_path(name, monkeypatch):
    """Every path of the unfolding, not only the money paths: each outcome
    equals what its blocks give alone, the state on every field or the
    same failure."""
    contract = get_contract(name)
    code = contract.runtime_code
    cfg = build_cfg(disassemble(code))
    storage = {}
    if contract.creation_code:
        storage, _diags = run_constructor(build_cfg(disassemble(contract.creation_code)),
                                          contract.creation_code)
    bounds = PathBounds(call_depth=3)
    paths = list(enumerate_paths(cfg, bounds))
    alone = []
    for path in paths:
        try:
            alone.append(_observable(_alone(cfg, code, path.blocks, storage)))
        except SymExecError as exc:
            alone.append((type(exc), str(exc)))
    for entries in (symexec_module.MEMO_ENTRIES, 0):  # with the memo, then frames alone
        monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", entries)
        shared = _walk(cfg, code, bounds, storage)
        assert [p for p, _outcome in shared] == paths
        assert [(type(outcome), str(outcome)) if isinstance(outcome, SymExecError)
                else _observable(outcome) for _p, outcome in shared] == alone


# CALL (records a transfer), then branch on calldata to REVERT or to STOP
_CALL_THEN_BRANCH = "6000" * 7 + "f1" + "50" + "6000" + "35" + "601b" + "57" \
    + "6000" + "6000" + "fd" + "5b" + "00"


def test_revert_branch_leaves_sibling_records_live():
    code = parse_hex(_CALL_THEN_BRANCH)
    cfg = build_cfg(disassemble(code))
    outcomes = _walk(cfg, code, PathBounds(call_depth=2))
    assert len(outcomes) == 4
    for p, state in outcomes:
        blocks = p.blocks
        assert _observable(state) == _observable(_alone(cfg, code, blocks, {}))
        # one CALL record per call; a call that reverts keeps none
        kept = [txn for txn, seg in enumerate((blocks[:3], blocks[3:]), start=1)
                if cfg.blocks[seg[-1]].last.mnemonic != "REVERT"]
        assert [rec.txn for rec in state.records] == kept


# SSTORE(0, CALLER) and a CALL, then the branch of _CALL_THEN_BRANCH
_STORE_CALL_THEN_BRANCH = "33600055" + "6000" * 7 + "f1" + "50" + "6000" + "35" + "601f" \
    + "57" + "6000" + "6000" + "fd" + "5b" + "00"


def test_revert_resumed_from_a_saved_fork_drops_only_its_own_call(monkeypatch):
    code = parse_hex(_STORE_CALL_THEN_BRANCH)
    cfg = build_cfg(disassemble(code))
    runs = _counting_runs(monkeypatch)
    per_path = []
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=2))
    for _path, state in execute_paths(cfg, code, unfolding, lambda _piece: True, {}, None, None):
        per_path.append((runs.copy(), state))
        runs.clear()
    # each call reverts (26) or stops (31) after its JUMPI block (19); a
    # piece that parts from its sibling there resumes from the fork saved
    # at that JUMPI.  A call reads no slot, so the calls after a stopped
    # one are the calls already run after a reverted one, and are reused:
    # the writes and records each adds go on its own prefix's
    assert [r for r, _state in per_path] == [[0, 19, 26, 0, 19, 26], [31], [31], []]
    _, reverted = per_path[2]
    _, stopped = per_path[3]
    assert stopped.storage_writes == [(const(0), var("CALLER#1")), (const(0), var("CALLER#2"))]
    assert [(rec.kind, rec.txn) for rec in stopped.records] == [("CALL", 1), ("CALL", 2)]
    assert reverted.storage_writes == [(const(0), var("CALLER#1"))]
    assert [(rec.kind, rec.txn) for rec in reverted.records] == [("CALL", 1)]


def _counting_runs(monkeypatch) -> list[int]:
    """The id of each block body the walk runs, in order; witness replay
    runs the same runner, and is not counted."""
    runs: list[int] = []

    def counted(state, cfg, block):
        if type(state) is not WitnessState:
            runs.append(block.id)
        return _run_body(state, cfg, block)
    monkeypatch.setattr(symexec_module, "_run_body", counted)
    return runs


def test_unfolding_order_runs_each_shared_prefix_once(monkeypatch):
    """Each shared block prefix runs at most once, and a call whose reads
    give the words a call of the same piece read before runs not at all:
    over the corpus's money paths at call bound 3, 791 block bodies run
    where the prefix trie has 4,428 nodes."""
    runs = _counting_runs(monkeypatch)
    total_runs = total_nodes = 0
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        code, cfg = get_contract(name).runtime_code, get_cfg(name)
        paths = list(filter_money(enumerate_paths(cfg, PathBounds(call_depth=3)), cfg))
        runs.clear()
        unfolding = enumerate_paths(cfg, PathBounds(call_depth=3))
        walked = list(execute_paths(cfg, code, unfolding, unfolding.money_marker(set()), {},
                                    None, None))
        assert [p for p, _state in walked] == paths
        nodes = len({p.blocks[:n] for p in paths for n in range(1, len(p.blocks) + 1)})
        assert len(runs) <= nodes, name
        total_runs += len(runs)
        total_nodes += nodes
    assert (total_runs, total_nodes) == (791, 4428)


@pytest.mark.parametrize("call_bound, most", [(2, 503), (3, 822), (4, 1719)])
def test_a_corpus_pass_runs_no_more_block_bodies_than_a_walk_of_paths(monkeypatch, call_bound,
                                                                     most):
    """The piece tree keeps the sharing inside a call that a walk resuming
    each path along the one before had (557, 1,273 and 3,349 block bodies
    at call bounds 2, 3 and 4), and the call memo reuses a call wherever
    its reads agree: a corpus pass runs at most 503, 822 and 1,719."""
    runs = _counting_runs(monkeypatch)
    config = AnalysisConfig(bounds=PathBounds(call_depth=call_bound), transfer_limit=30,
                            registry_fixture=str(REGISTRY_TXT), include_timing=False)
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        analyze(get_contract(name), config)
    assert 0 < len(runs) <= most


@pytest.mark.parametrize("call_bound, most", [(3, 792), (4, 2145)])
def test_the_scale_probe_runs_each_call_once_per_footprint(monkeypatch, call_bound, most):
    """On the 16-function scale probe a call reads two slots at most, and
    each prefix writes others: the walk runs at most 792 and 2,145 block
    bodies at call bounds 3 and 4, where a memo keyed by every earlier
    write ran 4,748 and 235,233."""
    code = scale_probe(16)
    cfg = build_cfg(disassemble(code))
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=call_bound))
    assert (len(code), len(unfolding.pieces())) == (534, 34)
    runs = _counting_runs(monkeypatch)
    walked = sum(1 for _ in execute_paths(cfg, code, unfolding, unfolding.money_marker(set()),
                                          {}, None, None))
    assert walked == unfolding.count(unfolding.money_marker(set()))
    assert 0 < len(runs) <= most


@pytest.mark.parametrize("call_bound", [3, 4])
def test_a_corpus_pass_builds_a_reused_call_state_only_below_it(monkeypatch, call_bound):
    """A call the memo reuses builds its state only when a piece below it
    is entered, and then once, and a leaf's facts come from the call's
    delta: over a corpus pass, at most one state per reused call with a
    child, and fewer, since a call below a reused call is found from the
    head above it and the call that made it."""
    built, reused, parents = [], [], set()
    after_call, runner = symexec_module._after_call, symexec_module._piece_runner
    monkeypatch.setattr(symexec_module, "_after_call",
                        lambda *args: built.append(1) or after_call(*args))

    def noting_runner(*args):
        root, enter = runner(*args)

        def entering(node, piece):
            if type(node) is symexec_module._Node and node.delta is not None:
                parents.add(node)  # a reused call whose state is not built yet
            below = enter(node, piece)
            if type(below) is symexec_module._Node and below.delta is not None:
                reused.append(below)
            return below
        return root, entering

    monkeypatch.setattr(symexec_module, "_piece_runner", noting_runner)
    config = AnalysisConfig(bounds=PathBounds(call_depth=call_bound), transfer_limit=30,
                            registry_fixture=str(REGISTRY_TXT), include_timing=False)
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        analyze(get_contract(name), config)
    assert 0 < len(built) < len(parents) < len(reused)


# JUMPI on calldata word 0 to 7, else STOP; 7: JUMPDEST; CALLER; SELFDESTRUCT.
# Neither call writes storage, draws a fresh word or moves the balance, so
# each call after the first starts from the same state whichever came before.
_STOP_OR_DESTRUCT = "600035600757" + "00" + "5b33ff"


def test_a_call_started_from_the_same_state_runs_once(monkeypatch):
    code = parse_hex(_STOP_OR_DESTRUCT)
    cfg = build_cfg(disassemble(code))
    runs = _counting_runs(monkeypatch)
    walked = _walk(cfg, code, PathBounds(call_depth=2))
    assert [p.blocks for p, _state in walked] == [
        (0, 6, 0, 6), (0, 6, 0, 7), (0, 7, 0, 6), (0, 7, 0, 7)]
    # call 2 runs its blocks 0, 6 and 7 once, after the first call-1 piece
    assert runs == [0, 6, 0, 6, 7, 7]
    monkeypatch.setattr(symexec_module, "_run_body", _run_body)
    for p, state in walked:
        assert _observable(state) == _observable(_alone(cfg, code, p.blocks, {}))
    # a reused call still starts where its own prefix left the lists
    assert [state.call_start for _p, state in walked] == [(0, 0), (0, 0), (0, 1), (0, 1)]


def test_a_hand_built_path_that_ends_mid_call_keeps_its_stack():
    # PUSH1 1, then the branch of _STOP_OR_DESTRUCT to 9: a path cut off in
    # call 2's first block still has the 1 on the stack
    code = parse_hex("6001" "600035600957" "00" "5b33ff")
    cfg = build_cfg(disassemble(code))
    for blocks in ((0, 8, 0), (0, 9, 0)):
        assert _alone(cfg, code, blocks, {}).stack == [ONE]


def test_a_call_the_memo_cannot_hold_runs_again(monkeypatch):
    """With no room in the memo the walk runs every prefix-trie node once,
    as a walk without one would, and gives the same states."""
    monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", 0)
    code = parse_hex(_STOP_OR_DESTRUCT)
    cfg = build_cfg(disassemble(code))
    runs = _counting_runs(monkeypatch)
    walked = _walk(cfg, code, PathBounds(call_depth=3))
    paths = [p for p, _state in walked]
    assert paths == list(enumerate_paths(cfg, PathBounds(call_depth=3)))
    assert len(runs) == len({p.blocks[:n] for p in paths for n in range(1, len(p.blocks) + 1)})
    monkeypatch.setattr(symexec_module, "_run_body", _run_body)
    for p, state in walked:
        assert _observable(state) == _observable(_alone(cfg, code, p.blocks, {}))


def test_trace_path_runs_exactly_its_own_blocks(monkeypatch):
    code, cfg = get_contract("toydao").runtime_code, get_cfg("toydao")
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=3)), cfg))
    runs = _counting_runs(monkeypatch)
    trace_path(cfg, code, path, {})
    assert runs == list(path.blocks)
    runs.clear()
    _alone(cfg, code, path.blocks, {})  # a hand-built path, split at its call starts
    assert runs == list(path.blocks)


# JUMPI on calldata word 0 to 15 (JUMPDEST; CALL on an empty stack; STOP),
# else JUMPI on word 32 to 13 (JUMPDEST; STOP), else STOP: two call pieces
# that leave the state as they found it, and one that fails
_TWO_WAYS_OR_FAIL = "600035600f57" + "602035600d57" + "00" + "5b00" + "5bf100"


def test_a_failing_call_fails_anew_under_each_prefix():
    code = parse_hex(_TWO_WAYS_OR_FAIL)
    cfg = build_cfg(disassemble(code))
    walked = dict((p.blocks, outcome) for p, outcome in _walk(cfg, code, PathBounds(call_depth=2)))
    first, second = walked[0, 6, 12, 0, 15, 17], walked[0, 6, 13, 0, 15, 17]
    assert isinstance(first, StackUnderflow) and isinstance(second, StackUnderflow)
    assert first is not second and str(first) == str(second)
    # the same failing prefix: one error
    below = [outcome for blocks, outcome in walked.items() if blocks[:2] == (0, 15)]
    assert len(below) == 3 and isinstance(below[0], StackUnderflow)
    assert all(outcome is below[0] for outcome in below)


def test_a_deadline_mid_walk_stops_the_walk(monkeypatch):
    code, cfg = get_contract("toydao").runtime_code, get_cfg("toydao")
    paths = list(filter_money(enumerate_paths(cfg, PathBounds(call_depth=4)), cfg))
    reads = []
    check = symexec_module.check_deadline

    def expire_at_the_tenth_read(deadline):
        reads.append(deadline)
        check(deadline - 1e9 if len(reads) == 10 else deadline)

    monkeypatch.setattr(symexec_module, "check_deadline", expire_at_the_tenth_read)
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=4))
    walked = list(execute_paths(cfg, code, unfolding, unfolding.money_marker(set()), {},
                                time.monotonic() + 3600, None))
    # a prefix of the paths, each with its own outcome; none after the deadline
    assert 0 < len(walked) < len(paths) - 1 and len(reads) == 10
    assert [p for p, _outcome in walked] == paths[:len(walked)]
    assert not any(isinstance(outcome, SymExecError) for _p, outcome in walked)


def test_a_reused_call_is_a_step_of_the_clock(monkeypatch):
    """The clock is read every 16 steps, a step being a block run or a
    stored call reused, so a walk of reused calls reads it too."""
    code, cfg = get_contract("toydao").runtime_code, get_cfg("toydao")
    runs = _counting_runs(monkeypatch)
    reused, reads = [], []
    after_call = symexec_module._after_call
    monkeypatch.setattr(symexec_module, "_after_call",
                        lambda *args: reused.append(1) or after_call(*args))
    monkeypatch.setattr(symexec_module, "check_deadline", reads.append)
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=4))
    for _path, _outcome in execute_paths(cfg, code, unfolding, unfolding.money_marker(set()),
                                         {}, None, None):
        pass
    assert len(reused) > 100
    assert len(reads) == (len(runs) + len(reused)) // 16


def test_shared_walk_reports_failure_below_failing_block(monkeypatch):
    # CALL on an empty stack, then STOP: the first call's CALL block fails,
    # no call below it runs, and every node below holds the one error
    code = parse_hex("f100")
    cfg = build_cfg(disassemble(code))
    runs = _counting_runs(monkeypatch)
    outcomes = _walk(cfg, code, PathBounds(call_depth=3))
    assert [p.blocks for p, _exc in outcomes] == [(0, 1, 0, 1, 0, 1)]
    assert isinstance(outcomes[0][1], StackUnderflow)
    assert runs == [0]
    (piece,) = pieces = enumerate_paths(cfg, PathBounds()).pieces()
    root, enter = symexec_module._piece_runner(cfg, code, {}, None, pieces, None)
    error = enter(root, piece)
    assert isinstance(error, StackUnderflow)
    assert enter(enter(error, piece), piece) is error


def test_a_failure_is_the_outcome_of_every_later_sequence_below_the_failing_block():
    # JUMPI on calldata to 6: STOP, or to 7: JUMPDEST; CALL on an empty stack
    code = parse_hex("600035600757005bf100")
    cfg = build_cfg(disassemble(code))
    walked = _walk(cfg, code, PathBounds(call_depth=2))
    assert [p.blocks for p, _outcome in walked] == [
        (0, 6, 0, 6), (0, 6, 0, 7, 9), (0, 7, 9, 0, 6), (0, 7, 9, 0, 7, 9)]
    outcomes = [outcome for _path, outcome in walked]
    assert _observable(outcomes[0]) == _observable(_alone(cfg, code, walked[0][0].blocks, {}))
    assert isinstance(outcomes[1], StackUnderflow) and isinstance(outcomes[2], StackUnderflow)
    assert outcomes[3] is outcomes[2] and outcomes[1] is not outcomes[2]


@pytest.mark.parametrize("blocks", [(), (7,)])
def test_a_path_that_does_not_start_at_the_root_is_refused(blocks):
    # every call starts at the root
    code = parse_hex("600035600757005bf100")
    cfg = build_cfg(disassemble(code))
    with pytest.raises(ValueError, match="starts at the root"):
        trace_path(cfg, code, ProgramPath(blocks, ()), {})
