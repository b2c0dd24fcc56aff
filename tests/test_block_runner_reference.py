"""The compiled block runner against the per-instruction interpreter.

`interp_reference.py` keeps the former `Interpreter.step` if-chain and its
block runner as the reference, in symbolic and in witness mode.  In the
symbolic lanes `_run_body` runs each block from a plan decoded once per
CFG, and must leave the identical observable state after every block:
stack, memory, storage writes, path condition, records, fresh counter and
balance.  In the witness lanes `_run_body` runs the same plans over the
machine in witness mode (`WitnessState`), whose every word is a constant,
and each word the reference leaves must have the runner's constant as its
value under the witness.  Where a block cannot run, both must raise the
same exception type with the same message, since those messages reach
reports (`trace_abandoned: ...`, `malformed path: ...`, `witness replay
failed: ...`).  The one difference by design in every lane: the runner
checks the stack once, at block entry, so a block entered outside its
stack bounds halts there with the stack error, where the reference may
first halt out of gas at an earlier instruction.  The EVM halts in that
block either way.

In witness mode the reference keeps a word derived from ADDRESS or BALANCE0
symbolic, where the runner holds its value.  One difference follows by
design, and the witness lanes note each such instruction on the reference
side and excuse a difference after it: such a word read as a memory
offset, a length, a calldata offset or a storage key (the reference clears
memory on an MSTORE through it, the runner writes the word there).  In
both, BALANCE reads the contract's own balance only for the word ADDRESS
pushed, an operator that folds a word back into it
(`AND(ADDRESS, 2**256 - 1)`) giving a new word, and a fresh word for any
other.  The fixture lanes excuse nothing.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from evmscope import isa
from evmscope.cfg import BasicBlock, Cfg, Terminator, build_cfg
from evmscope.disasm import Instruction, disassemble
from evmscope.pathgen import PathBounds, enumerate_paths
from evmscope.symexec import (
    STACK_LIMIT,
    OutOfGas,
    StackOverflow,
    StackUnderflow,
    SymbolicState,
    SymExecError,
    WitnessState,
    _copy_code,
    _run_body,
    _take_exit,
    compile_block,
    const,
    eval_word,
    run_constructor,
    var,
)

from conftest import FIXTURES, MICRO, get_contract, symbolic_state
from interp_reference import ReferenceInterpreter, reference_run_body, reference_take_exit

ALL_FIXTURES = sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json"))
_ADDRESS = SymbolicState.address  # the word the machine's ADDRESS pushes


class _Witness(dict):
    """A witness that gives every variable a value derived from its name:
    zero, one, a small number or the all-ones word, so that replay-mode
    branches go both ways across the corpus."""

    def get(self, name, default=0):
        h = zlib.crc32(name.encode())
        return (0, 1, h & 0xFF, isa.WORD_MAX)[h % 4]


MODES = {"symbolic": None, "witness": _Witness()}

# Operand positions, counted from the stack top, that the reference in
# witness mode reads as an address (memory offset, length, calldata
# offset, storage key) and treats differently when the word is symbolic.
_ADDRESS_OPERANDS = {"MLOAD": (0,), "MSTORE": (0,), "MSTORE8": (0,), "SHA3": (0, 1),
                     "CALLDATALOAD": (0,), "CODECOPY": (0, 1, 2), "SLOAD": (0,),
                     **dict.fromkeys(("LOG0", "LOG1", "LOG2", "LOG3", "LOG4", "RETURN",
                                      "REVERT"), (0, 1)),
                     "CALL": (3, 4, 5, 6), "CALLCODE": (3, 4, 5, 6),
                     "DELEGATECALL": (2, 3, 4, 5), "STATICCALL": (2, 3, 4, 5),
                     "CREATE": (1, 2), "CALLDATACOPY": (0, 2), "RETURNDATACOPY": (0, 2),
                     "EXTCODECOPY": (1, 3)}


class _NotingReference(ReferenceInterpreter):
    """The reference, noting (`differs`) each instruction after which the
    runner may differ from it by design: see the module docstring."""

    differs = False

    def step(self, ins):
        stack, name = self.state.stack, ins.info.mnemonic
        if any(i < len(stack) and not stack[-1 - i].is_concrete
               for i in _ADDRESS_OPERANDS.get(name, ())):
            self.differs = True
        super().step(ins)


def _observable(state, operands=()):
    return (state.stack, state.memory, state.mem_unknown, state.storage_writes,
            state.path_condition, state.records, state.fresh_counter, state.balance,
            state.txn, operands)


def _valued(state, operands, witness):
    """A machine's observable state as values under the witness: the
    reference's words may be symbolic, the runner's are constants."""
    if isinstance(state, WitnessState):
        assert all(w.is_concrete for w in [*state.stack, *state.memory.values(), *operands])

    def value(w):
        return eval_word(w, witness)
    return ([value(w) for w in state.stack], {k: value(w) for k, w in state.memory.items()},
            {value(k): value(w) for k, w in state.storage_writes}, value(state.balance),
            state.txn, state.fresh_counter, [value(w) for w in operands])


def _outcome(exc):
    return type(exc), str(exc)


# -- the symbolic lanes --------------------------------------------------------------

def _machine(code, state):
    """The symbolic machine under test: the state itself, reading `code`."""
    state.code = code
    return state


def _lanes(cfg):
    """(machine, block runner, exit) of the reference and of the plans; a
    machine is made from the code and a state."""
    return ((ReferenceInterpreter, reference_run_body, reference_take_exit),
            (_machine, lambda state, block, _mark: _run_body(state, cfg, block), _leave))


def _leave(state, block, operands, next_offset, root):
    """The walk's step between two blocks: a call start at the root after a
    terminal block, else `_take_exit`."""
    if next_offset == root and block.terminator is Terminator.TERMINAL:
        state.begin_transaction()
    else:
        _take_exit(state, block, operands, next_offset)


def _advance(lane, cfg, code, storage, parent, block_id):
    """Run `block_id` after the frame `parent` (None at the root); returns
    the new frame, or the SymExecError that stopped it.  The frame keeps the
    reference's mark: the storage writes made before the current call."""
    make, run, take_exit = lane
    try:
        if parent is None:
            state = SymbolicState(dict(storage), b"", None, "")
            machine = make(code, state)
            machine.begin_transaction()
            root, mark = block_id, len(state.storage_writes)
        else:
            parent_block, parent_state, operands, root, mark = parent
            state = parent_state.fork()
            machine = make(code, state)
            take_exit(machine, parent_block, operands, block_id, root)
            if state.txn != parent_state.txn:
                mark = len(state.storage_writes)
        block = cfg.blocks[block_id]
        return block, state, run(machine, block, mark), root, mark
    except SymExecError as exc:
        return exc


def _compare_symbolic(cfg, code, storage, trie) -> int:
    """Walk the prefix trie in both symbolic lanes; returns the number of
    trie nodes (blocks on distinct prefixes) compared."""
    lanes = _lanes(cfg)
    compared = 0
    todo = [(block_id, children, (None, None)) for block_id, children in trie.items()]
    while todo:
        block_id, children, parents = todo.pop()
        frames = [_advance(lane, cfg, code, storage, parent, block_id)
                  for lane, parent in zip(lanes, parents)]
        compared += 1
        ref, new = frames
        if isinstance(ref, SymExecError) or isinstance(new, SymExecError):
            assert isinstance(ref, SymExecError) and isinstance(new, SymExecError), \
                (block_id, ref, new)
            assert _outcome(new) == _outcome(ref), block_id
            continue
        assert _observable(new[1], new[2]) == _observable(ref[1], ref[2]), block_id
        todo.extend((child_id, grand, frames) for child_id, grand in children.items())
    return compared


# -- the witness lanes ---------------------------------------------------------------

def _advance_witness(cfg, code, storage, witness, parent, block_id):
    """Run `block_id` in both witness lanes after the frame pair `parent`
    (None at the root).  Returns None where the reference cannot leave the
    parent block for `block_id` (a constant jump elsewhere: the path is not
    one a replay takes), else ((reference frame or error), (runner frame or
    error), excused)."""
    if parent is None:
        state = SymbolicState(dict(storage), b"", None, "")
        interp = _NotingReference(code, state, witness=witness)
        interp.begin_transaction()
        root, mark = block_id, len(state.storage_writes)
        runner = WitnessState(storage, code, None, witness)
        runner.begin_transaction()
        differs = False
    else:
        (parent_block, parent_state, operands, root, mark), (runner, _ops), differs = parent
        state = parent_state.fork()
        interp = _NotingReference(code, state, witness=witness)
        try:
            reference_take_exit(interp, parent_block, operands, block_id, root)
        except SymExecError:
            return None
        if state.txn != parent_state.txn:
            mark = len(state.storage_writes)
        runner = runner.fork()
        if block_id == root and parent_block.terminator is Terminator.TERMINAL:
            runner.begin_transaction()
    interp.differs = differs
    block = cfg.blocks[block_id]
    try:
        ref = block, state, reference_run_body(interp, block, mark), root, mark
    except SymExecError as exc:
        ref = exc
    try:
        new = runner, _run_body(runner, cfg, block)
    except SymExecError as exc:
        new = exc
    return ref, new, interp.differs


def _compare_witness(cfg, code, storage, trie, witness) -> tuple[int, int]:
    """Walk the prefix trie in both witness lanes; returns the trie nodes
    compared and those excused (see the module docstring)."""
    compared = excused = 0
    todo = [(block_id, children, None) for block_id, children in trie.items()]
    while todo:
        block_id, children, parent = todo.pop()
        frames = _advance_witness(cfg, code, storage, witness, parent, block_id)
        if frames is None:
            continue
        ref, new, differs = frames
        compared += 1
        if isinstance(ref, SymExecError) or isinstance(new, SymExecError):
            same = isinstance(ref, SymExecError) and isinstance(new, SymExecError) \
                and _outcome(new) == _outcome(ref)
            assert same or differs, (block_id, ref, new)
            excused += not same
            continue
        if _valued(*new, witness) != _valued(ref[1], ref[2], witness):
            assert differs, block_id
            excused += 1
            continue
        todo.extend((child_id, grand, frames) for child_id, grand in children.items())
    return compared, excused


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_every_block_of_every_path_matches_the_reference(path, mode):
    contract = get_contract(path.stem)
    code = contract.runtime_code
    cfg = build_cfg(disassemble(code))
    storage = {}
    if contract.creation_code:
        storage, _diags = run_constructor(build_cfg(disassemble(contract.creation_code)),
                                          contract.creation_code)
    compared = 0
    for bound in (1, 2, 3):
        trie: dict = {}
        for p in enumerate_paths(cfg, PathBounds(call_depth=bound)):
            node = trie
            for block_id in p.blocks:
                node = node.setdefault(block_id, {})
        if mode == "symbolic":
            compared += _compare_symbolic(cfg, code, storage, trie)
        else:
            runs, excused = _compare_witness(cfg, code, storage, trie, MODES[mode])
            assert excused == 0
            compared += runs
    assert compared > 0


# -- random straight-line blocks ---------------------------------------------------

# Stack words: small offsets and lengths keep memory and hashing cheap; the
# huge ones run into the memory cap; variables keep terms symbolic.
_WORDS = st.one_of(st.sampled_from([0, 1, 2, 31, 32, 64, 1 << 255, isa.WORD_MAX]).map(const),
                   st.sampled_from([var("A"), var("B"), _ADDRESS]))


@st.composite
def _blocks(draw):
    """A block of random opcode bytes (JUMP/JUMPI only last, as in a CFG)."""
    body = [b for b in range(256) if isa.TABLE[b].mnemonic not in ("JUMP", "JUMPI")]
    ops = draw(st.lists(st.sampled_from(body), min_size=0, max_size=12))
    ops.append(draw(st.sampled_from(range(256))))
    instructions, offset = [], 0
    for byte in ops:
        info = isa.TABLE[byte]
        immediate = draw(st.integers(0, (1 << (8 * info.immediate_bytes)) - 1)) \
            if info.immediate_bytes else None
        instructions.append(Instruction(offset, info, immediate))
        offset += info.size
    last = instructions[-1].info
    terminator = (Terminator.TERMINAL if last.is_terminal else
                  Terminator.JUMP if last.mnemonic == "JUMP" else
                  Terminator.COND_JUMP if last.mnemonic == "JUMPI" else
                  Terminator.FALL_THROUGH)
    return BasicBlock(0, 0, instructions[-1].offset, instructions, terminator)


# Depths at the block's own stack bounds, from its plan: one short of what
# it needs, exactly that, the deepest stack it can start on without
# overflowing, and one more, but never past STACK_LIMIT: no block is
# entered on a deeper stack.  The runner checks the stack once, at block
# entry, against these bounds.
_OWN_BOUNDS = {
    "need - 1": lambda plan: plan.need - 1,
    "need": lambda plan: plan.need,
    "limit - grow": lambda plan: STACK_LIMIT - plan.grow,
    "limit - grow + 1": lambda plan: min(STACK_LIMIT - plan.grow + 1, STACK_LIMIT),
}


def _stack_fault(block, depth):
    """The outcome of the stack error `block` entered at `depth` halts
    with, from the ISA's pops and pushes instruction by instruction; None
    where the stack holds throughout."""
    for ins in block.instructions:
        if depth < ins.info.stack_pops:
            return StackUnderflow, "pop from empty stack"
        depth += ins.info.stack_pushes - ins.info.stack_pops
        if depth > STACK_LIMIT:
            return StackOverflow, "stack limit exceeded"
    return None


def _out_of_gas_first(ref, new, fault):
    """Whether the reference ran out of gas at an instruction before the
    stack fault that the runner, checking the stack at entry, halted with."""
    return fault is not None and new == fault and ref[0] is OutOfGas


def _symbolic_outcomes(cfg, block, code, words, storage_word):
    outcomes = []
    for make, run, _exit in _lanes(cfg):
        state = symbolic_state(stack=list(words), storage_writes=[(const(1), storage_word)])
        try:
            outcomes.append(_observable(state, run(make(code, state), block, 0)))
        except SymExecError as exc:
            outcomes.append(_outcome(exc))
    return outcomes


def _witness_outcomes(cfg, block, code, words, storage_word):
    """The reference's and the runner's outcome of `block` in the witness
    lanes, on a stack of `words` (a variable other than ADDRESS stands for
    its value under the witness, as the reference would read it), and
    whether the reference noted an instruction where they may differ."""
    witness = MODES["witness"]

    def value(w):
        return eval_word(w, witness)
    state = symbolic_state(stack=[w if w == _ADDRESS else const(value(w)) for w in words],
                           storage_writes=[(const(1), storage_word)])
    interp = _NotingReference(code, state, witness=witness)
    runner = WitnessState({}, code, None, witness)
    runner.stack = [runner.address if w == _ADDRESS else const(value(w)) for w in words]
    runner.storage_writes = [(const(1), const(value(storage_word)))]
    try:
        ref = _valued(state, reference_run_body(interp, block, 0), witness)
    except SymExecError as exc:
        ref = _outcome(exc)
    try:
        new = _valued(runner, _run_body(runner, cfg, block), witness)
    except SymExecError as exc:
        new = _outcome(exc)
    return ref, new, interp.differs


@settings(max_examples=400, deadline=None)
@given(block=_blocks(),
       depth=st.sampled_from([0, 1, 2, 3, 7, 17, STACK_LIMIT - 1, STACK_LIMIT, *_OWN_BOUNDS]),
       words=st.lists(_WORDS, min_size=1, max_size=8),
       mode=st.sampled_from(sorted(MODES)))
def test_random_blocks_match_the_reference(block, depth, words, mode):
    if depth in _OWN_BOUNDS:
        depth = max(_OWN_BOUNDS[depth](compile_block(block)), 0)
    cfg = Cfg(blocks={0: block}, root=0, edges=set())
    code = b"".join(ins.encode() for ins in block.instructions)
    stack = [words[i % len(words)] for i in range(depth)]
    fault = _stack_fault(block, depth)
    if mode == "symbolic":
        ref, new = _symbolic_outcomes(cfg, block, code, stack, var("V"))
        assert new == ref or _out_of_gas_first(ref, new, fault)
    else:
        ref, new, differs = _witness_outcomes(cfg, block, code, stack, var("V"))
        assert new == ref or differs or _out_of_gas_first(ref, new, fault)


@pytest.mark.parametrize("mode", MODES)
def test_every_opcode_at_its_stack_bounds_matches_the_reference(mode):
    # each byte as a one-instruction block, on a stack one short of its
    # operands, exactly its operands, and at the stack limit
    outcomes = _symbolic_outcomes if mode == "symbolic" else _witness_outcomes
    for info in isa.TABLE:
        ins = Instruction(0, info, 0x1234 if info.immediate_bytes else None)
        block = BasicBlock(0, 0, 0, [ins], Terminator.TERMINAL if info.is_terminal
                           else Terminator.FALL_THROUGH)
        cfg = Cfg(blocks={0: block}, root=0, edges=set())
        for depth in {max(info.stack_pops - 1, 0), info.stack_pops, STACK_LIMIT}:
            ref, new, *_ = outcomes(cfg, block, b"", [const(i % 3) for i in range(depth)],
                                    const(9))
            assert new == ref, (info.mnemonic, depth)


def test_codecopy_matches_the_reference():
    # copies inside the code, across its end and wholly past it, in whole
    # and partial words, into symbolic and into concrete memory
    code = bytes(range(1, 100))
    for dest in (0, 5):
        for src in (0, 3, 32, 90, 99, 150):
            for length in (0, 1, 31, 32, 33, 65, 200):
                interp = ReferenceInterpreter(code, SymbolicState({}, b"", None, ""))
                interp._copy_code(dest, src, length)
                words: dict = {}
                ints: dict = {}
                _copy_code(words, code, dest, src, length, const)
                _copy_code(ints, code, dest, src, length, int)
                assert words == interp.state.memory, (dest, src, length)
                assert ints == {k: w.value for k, w in words.items()}, (dest, src, length)


@pytest.mark.parametrize("offset", [0, 64, 5, 33])
def test_an_mload_reads_the_word_stored_at_its_offset(offset):
    # MSTORE(offset, CALLDATALOAD(0)); MLOAD(offset); STOP, aligned and not:
    # every runner gives back the stored word and draws no fresh one
    code = bytes([0x60, 0, 0x35, 0x60, offset, 0x52, 0x60, offset, 0x51, 0x00])
    cfg = build_cfg(disassemble(code))
    for make, run, _exit in _lanes(cfg):
        state = SymbolicState({}, b"", None, "")
        machine = make(code, state)
        machine.begin_transaction()
        run(machine, cfg.blocks[0], 0)
        assert (state.stack, state.fresh_counter) == ([var("CALLDATA#1@0")], 0)
    state = WitnessState({}, code, None, {"CALLDATA#1@0": 7})
    state.begin_transaction()
    _run_body(state, cfg, cfg.blocks[0])
    assert (state.stack, state.fresh_counter) == ([const(7)], 0)
