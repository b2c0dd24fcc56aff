"""The compiled block runner against the per-instruction interpreter.

`interp_reference.py` keeps the former `Interpreter.step` if-chain and its
block runner as the reference.  `_run_body` runs each block from a plan
decoded once per CFG, and must leave the identical observable state after
every block: stack, memory, storage writes, path condition, records, fresh
counter and balance.  Where a block cannot
run, both must raise the same exception type with the same message, since
those messages reach reports (`trace_abandoned: ...`, `malformed path: ...`).
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
    Interpreter,
    SymbolicState,
    SymExecError,
    _run_body,
    _take_exit,
    compile_block,
    const,
    run_constructor,
    var,
)

from conftest import FIXTURES, MICRO, get_contract
from interp_reference import ReferenceInterpreter, reference_run_body

ALL_FIXTURES = sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json"))


class _Witness(dict):
    """A witness that gives every variable a value derived from its name:
    zero, one, a small number or the all-ones word, so that replay-mode
    branches go both ways across the corpus."""

    def get(self, name, default=0):
        h = zlib.crc32(name.encode())
        return (0, 1, h & 0xFF, isa.WORD_MAX)[h % 4]


MODES = {"symbolic": None, "witness": _Witness()}


def _observable(state, operands=()):
    return (state.stack, state.memory, state.mem_unknown, state.storage_writes,
            state.path_condition, state.records, state.fresh_counter, state.balance,
            state.txn, operands)


def _outcome(exc):
    return type(exc), str(exc)


def _lanes(cfg):
    """(interpreter class, block runner) of the reference and of the plans."""
    return ((ReferenceInterpreter, reference_run_body),
            (Interpreter, lambda interp, block, _mark: _run_body(interp, cfg, block)))


def _advance(lane, cfg, code, storage, witness, parent, block_id):
    """Run `block_id` after the frame `parent` (None at the root); returns
    the new frame, or the SymExecError that stopped it.  The frame keeps the
    reference's mark: the storage writes made before the current call."""
    cls, run = lane
    try:
        if parent is None:
            state = SymbolicState(base_storage=dict(storage))
            interp = cls(code, state, witness=witness)
            interp.begin_transaction()
            root, mark = block_id, len(state.storage_writes)
        else:
            parent_block, parent_state, operands, root, mark = parent
            state = parent_state.fork()
            interp = cls(code, state, witness=witness)
            _take_exit(interp, parent_block, operands, block_id, root)
            if state.txn != parent_state.txn:
                mark = len(state.storage_writes)
        block = cfg.blocks[block_id]
        return block, state, run(interp, block, mark), root, mark
    except SymExecError as exc:
        return exc


def _compare_on_trie(cfg, code, storage, paths, witness) -> int:
    """Walk the prefix trie of `paths` in both lanes; returns the number of
    trie nodes (blocks on distinct prefixes) compared."""
    trie: dict = {}
    for blocks in paths:
        node = trie
        for block_id in blocks:
            node = node.setdefault(block_id, {})
    lanes = _lanes(cfg)
    compared = 0
    todo = [(block_id, children, (None, None)) for block_id, children in trie.items()]
    while todo:
        block_id, children, parents = todo.pop()
        frames = [_advance(lane, cfg, code, storage, witness, parent, block_id)
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
        paths = [p.blocks for p in enumerate_paths(cfg, PathBounds(call_depth=bound))]
        compared += _compare_on_trie(cfg, code, storage, paths, MODES[mode])
    assert compared > 0


# -- random straight-line blocks ---------------------------------------------------

# Stack words: small offsets and lengths keep memory and hashing cheap; the
# huge ones run into the memory cap; variables keep terms symbolic.
_WORDS = st.one_of(st.sampled_from([0, 1, 2, 31, 32, 64, 1 << 255, isa.WORD_MAX]).map(const),
                   st.sampled_from(["A", "B", "ADDRESS"]).map(var))


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
# its body needs, exactly that, the deepest stack it can start on without
# overflowing, and one more.  The runner checks the stack once per block
# against these bounds.
_OWN_BOUNDS = {
    "need - 1": lambda plan: plan.need - 1,
    "need": lambda plan: plan.need,
    "limit - grow": lambda plan: STACK_LIMIT - plan.grow,
    "limit - grow + 1": lambda plan: STACK_LIMIT - plan.grow + 1,
}


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
    outcomes = []
    for cls, run in _lanes(cfg):
        state = SymbolicState(stack=[words[i % len(words)] for i in range(depth)])
        state.sstore(const(1), var("V"))
        interp = cls(code, state, witness=MODES[mode])
        try:
            outcomes.append(_observable(state, run(interp, block, 0)))
        except SymExecError as exc:
            outcomes.append(_outcome(exc))
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("mode", MODES)
def test_every_opcode_at_its_stack_bounds_matches_the_reference(mode):
    # each byte as a one-instruction block, on a stack one short of its
    # operands, exactly its operands, and at the stack limit
    for info in isa.TABLE:
        ins = Instruction(0, info, 0x1234 if info.immediate_bytes else None)
        block = BasicBlock(0, 0, 0, [ins], Terminator.TERMINAL if info.is_terminal
                           else Terminator.FALL_THROUGH)
        cfg = Cfg(blocks={0: block}, root=0, edges=set())
        for depth in {max(info.stack_pops - 1, 0), info.stack_pops, STACK_LIMIT}:
            outcomes = []
            for cls, run in _lanes(cfg):
                state = SymbolicState(stack=[const(i % 3) for i in range(depth)])
                try:
                    outcomes.append(_observable(state, run(cls(b"", state, witness=MODES[mode]),
                                                           block, 0)))
                except SymExecError as exc:
                    outcomes.append(_outcome(exc))
            assert outcomes[1] == outcomes[0], (info.mnemonic, depth)


def test_codecopy_matches_the_reference():
    # copies inside the code, across its end and wholly past it, in whole
    # and partial words
    code = bytes(range(1, 100))
    for dest in (0, 5):
        for src in (0, 3, 32, 90, 99, 150):
            for length in (0, 1, 31, 32, 33, 65, 200):
                memories = []
                for cls in (ReferenceInterpreter, Interpreter):
                    interp = cls(code, SymbolicState())
                    interp._copy_code(dest, src, length)
                    memories.append(interp.state.memory)
                assert memories[1] == memories[0], (dest, src, length)
