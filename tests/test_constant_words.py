"""Constant words on the fast path: the block runner folds an operator of
constant operands without `mk`, witness mode builds no compound term, and
a witness names each storage slot the way witness mode reads it."""

import pytest
from hypothesis import given, settings, strategies as st

import evmscope.symexec as symexec_module
from evmscope import isa
from evmscope.analyzers import detect_payable_entries
from evmscope.cfg import build_cfg
from evmscope.disasm import disassemble, parse_hex
from evmscope.pathgen import PathBounds, ProgramPath, enumerate_paths, filter_money
from evmscope.solver import BoundedSolver
from evmscope.symexec import (
    FeasibilityStatus,
    SymbolicState,
    WitnessState,
    Word,
    _run_body,
    concrete_op,
    const,
    eval_word,
    execute_path,
    mk,
    node,
    replay_blocks,
    run_constructor,
    var,
)

from asmtool import Asm, by_mnemonic
from conftest import FIXTURES, get_cfg, get_contract

OPERATORS = sorted(isa.OPERATORS)
EDGES = (0, 1, 2 ** 255, 2 ** 256 - 1)
operand = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 256 - 1))


def _result(state, name, args):
    """The word the runner leaves running operator `name` alone over
    `args`, top first."""
    cfg = build_cfg(disassemble(bytes([by_mnemonic(name).byte_value, 0x00])))  # it, STOP
    state.stack = list(reversed(args))
    _run_body(state, cfg, cfg.blocks[cfg.root])
    assert len(state.stack) == 1
    return state.stack[0]


@pytest.mark.parametrize("name", OPERATORS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_the_operator_fast_path_folds_as_concrete_op_does(name, data):
    """All-constant operands fold to `concrete_op`'s value, in the trace and
    in witness mode, and `eval_word` of the operator's term agrees; with one
    symbolic operand the trace's word is `mk`'s."""
    pops = by_mnemonic(name).stack_pops
    values = [data.draw(operand) for _ in range(pops)]
    want = concrete_op(name, values)
    args = tuple(map(const, values))
    for state in (SymbolicState({}, b"", None, ""), WitnessState({}, b"", None, {})):
        word = _result(state, name, args)
        assert type(word) is Word and word == const(want), (name, values, word)
    assert eval_word(node(name, args), {}) == want
    symbolic = data.draw(st.integers(0, pops - 1))
    mixed = args[:symbolic] + (var("X"),) + args[symbolic + 1:]
    assert _result(SymbolicState({}, b"", None, ""), name, mixed) == mk(name, *mixed)


# -- witness mode builds no term -----------------------------------------------

def _feasible_money_paths(call_bound):
    """(cfg, code, path, base storage, witness) of each feasible money path
    of the corpus at `call_bound`, solved as the feasibility benchmark does."""
    solver = BoundedSolver()
    for fixture in sorted(FIXTURES.glob("*.json")):
        contract, cfg = get_contract(fixture.stem), get_cfg(fixture.stem)
        code = contract.runtime_code
        payable, _details = detect_payable_entries(cfg, disassemble(code))
        base = {}
        if contract.creation_code:
            base, _diagnostics = run_constructor(
                build_cfg(disassemble(contract.creation_code)), contract.creation_code)
        paths = enumerate_paths(cfg, PathBounds(call_depth=call_bound))
        for path in filter_money(iter(paths), cfg, payable):
            _state, feas = execute_path(cfg, code, path, base, solver, solver_timeout_ms=2000)
            if feas.status is FeasibilityStatus.FEASIBLE:
                yield cfg, code, path, base, feas.witness


def test_witness_replay_builds_no_compound_term(monkeypatch):
    """Replaying each feasible witness of the corpus's money paths at call
    bound 2 runs on constants alone: `node`, the one builder of compound
    terms, is never called.  A change that brings term building back into
    witness mode fails here."""
    feasible = list(_feasible_money_paths(2))
    assert len(feasible) == 284
    built = []

    def counted(op, args, meta=None):
        built.append(op)
        return node(op, args, meta)
    monkeypatch.setattr(symexec_module, "node", counted)
    for cfg, code, path, base, witness in feasible:
        assert replay_blocks(cfg, code, witness, base, path.call_count) == path.blocks
    assert built == []


# -- storage slots under a key term ------------------------------------------------

def test_a_mapping_value_branch_is_decided():
    """MSTORE(0, CALLER); MSTORE(32, 0); JUMPI to 19 on SLOAD(SHA3(0, 64));
    18: STOP; 19: CALLER; SELFDESTRUCT.  The trace names the slot
    `STORAGE@sha3(CALLER#1, 0x0)`, witness mode by the hash's value; the
    witness names it both ways, and replays by itself."""
    code = parse_hex("336000526000602052604060002054601357005b33ff")
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, 19), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.FEASIBLE, feas.reason
    assert feas.witness["STORAGE@sha3(CALLER#1, 0x0)"] != 0
    assert replay_blocks(cfg, code, feas.witness, {}, 1) == path.blocks


def test_two_keys_at_one_slot_with_different_values_stay_unknown():
    """JUMPI on EQ(SLOAD(CALLER), 1), then JUMPI on ISZERO(SLOAD(0)): the
    solver leaves CALLER#1 out, so it reads 0 and both keys name slot 0,
    which the witness would give the values 1 and 0."""
    asm = Asm().op("CALLER").op("SLOAD").push(1).op("EQ").push_label("one").op("JUMPI")
    asm.op("STOP").label("one").op("JUMPDEST").push(0).op("SLOAD").op("ISZERO")
    asm.push_label("two").op("JUMPI").op("STOP").label("two").op("JUMPDEST")
    asm.op("CALLER").op("SELFDESTRUCT")
    code = asm.assemble()
    cfg = build_cfg(disassemble(code))
    path = ProgramPath((0, asm.offset_of("one"), asm.offset_of("two")), (None,))
    _state, feas = execute_path(cfg, code, path, {}, BoundedSolver())
    assert feas.status is FeasibilityStatus.UNKNOWN
    assert feas.reason == "witness gives one storage slot two values"
