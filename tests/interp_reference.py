"""The per-instruction interpreter that the compiled block runner replaced.

`ReferenceInterpreter` keeps the former `Interpreter` verbatim in behaviour:
one `step` per instruction through a chain of mnemonic tests, a fresh
constant word built for every PUSH.  It keeps the former witness mode too,
which evaluates every free value under a witness as it is read; that mode
is the oracle of witness replay, the block runner over the machine in
witness mode, `symexec.WitnessState`.  `reference_run_body` is the former
block runner over it.  An MSTORE8 draws the fresh word it writes over its
byte's word at any offset; through a symbolic offset it then clears
memory, as an MSTORE through one does, and so does a CALL whose output
size is not the constant 0, since the return data overwrites the output
area.  SHA3 and MLOAD at a constant offset read an unwritten word as zero
while memory is clean and no written word overlaps it, else as a fresh
one, in witness mode too; MLOAD through a symbolic offset reads zero
while nothing has been written, else a fresh word.  A fresh word is named
by where it is drawn: its tag, the call label and the drawing offset, with
a count after the first draw there in the call.  BALANCE reads the contract's own balance only
for the word ADDRESS pushed (`SymbolicState.address`): an operator that
folds a word back into it gives an equal new word.
MLOAD, MSTORE and MSTORE8 at a constant offset charge memory expansion
for the word they touch (MSTORE8 for its byte's word), as SHA3 and
CODECOPY charge theirs: past MEMORY_CAP they halt out of gas.  So do the
areas, of a constant length, that LOG0-LOG4, RETURN and REVERT hand out,
that a CALL-family opcode passes in and takes back, that CREATE runs as
init code, and that SHA3, CODECOPY, CALLDATACOPY, RETURNDATACOPY and
EXTCODECOPY read or copy into: at their offset if it is constant, else at
offset 0, where only a length past MEMORY_CAP halts.  On a REVERT it keeps a rule of its own: it drops the records
numbered with the current call, and the storage writes made since `mark`,
which its caller takes when the call begins; the runner under test
truncates both lists at the `call_start` that `begin_transaction` sets.
`reference_take_exit` is the former `_take_exit`, which also started the
next call, over this interpreter; where a path takes a JUMPI's fallthrough
and the target is symbolic, it asserts that the condition is zero or the
target is the fallthrough, as `_take_exit` does.  Its own checked `_push`
and `_pop` raise the stack errors with the two messages the block runners
give ("pop from empty stack", "stack limit exceeded"); a DUP or SWAP too
short of words gives the first.  The compiled plans must leave the identical
state after every block, and raise the identical exception where a block
cannot run.
"""

from __future__ import annotations

from evmscope import isa
from evmscope.cfg import Terminator
from evmscope.disasm import Instruction
from evmscope.symexec import (
    MEMORY_CAP,
    STACK_LIMIT,
    ZERO,
    ExternalRecord,
    OutOfGas,
    StackOverflow,
    StackUnderflow,
    SymbolicState,
    SymExecError,
    Word,
    const,
    eval_word,
    mk,
    node,
    var,
)

_POP_ONLY = frozenset({"POP", "STOP", "JUMPDEST", "INVALID"})
_OUTPUTS = frozenset({"LOG0", "LOG1", "LOG2", "LOG3", "LOG4", "RETURN", "REVERT"})
_OPAQUE_READS = frozenset({"EXTCODESIZE", "BLOCKHASH", "RETURNDATASIZE", "MSIZE", "GAS"})
_ENV_READS = frozenset({"ORIGIN", "CALLER", "CALLVALUE", "CALLDATASIZE", "GASPRICE",
                        "COINBASE", "TIMESTAMP", "NUMBER", "DIFFICULTY", "GASLIMIT"})


class ReferenceInterpreter:
    def __init__(self, code: bytes, state: SymbolicState,
                 witness: dict[str, int] | None = None):
        self.code = code
        self.state = state
        self.witness = witness

    def _push(self, w: Word) -> None:
        if len(self.state.stack) >= STACK_LIMIT:
            raise StackOverflow("stack limit exceeded")
        self.state.stack.append(w)

    def _pop(self) -> Word:
        if not self.state.stack:
            raise StackUnderflow("pop from empty stack")
        return self.state.stack.pop()

    def _env(self, tag: str, per_txn: bool = True) -> Word:
        name = f"{tag}#{self.state.txn_label}" if per_txn else tag
        w = var(name)
        if self.witness is not None:
            return const(self.witness.get(name, 0))
        return w

    def begin_transaction(self) -> None:
        self.state.txn += 1
        self.state.stack = []
        self.state.memory = {}
        self.state.mem_unknown = False
        self.state.sites = {}
        self.state.balance = mk("ADD", self.state.balance, self._env("CALLVALUE"))

    def _mstore(self, offset: Word, value: Word) -> None:
        if offset.is_concrete:
            self._expand_memory(offset.value or 0, 32)
            self.state.memory[offset.value or 0] = value
        else:
            self.state.memory.clear()
            self.state.mem_unknown = True

    def _mload(self, offset: Word, site: int) -> Word:
        if offset.is_concrete:
            return self._mem_words(offset.value or 0, 32, site)[0]
        if not self.state.memory and not self.state.mem_unknown:
            return ZERO  # nothing written: zero at any offset
        return self._fresh_or_zero("MEM", site)

    @staticmethod
    def _expand_memory(offset: int, length: int) -> None:
        if length > 0 and offset + length > MEMORY_CAP:
            raise OutOfGas(f"memory up to byte {offset + length} exceeds the block gas limit")

    def _charge(self, offset: Word, length: Word) -> None:
        if length.is_concrete:  # at any offset, a length past the cap
            self._expand_memory(offset.value or 0 if offset.is_concrete else 0,
                                length.value or 0)

    def _mem_words(self, offset: int, length: int, site: int) -> list[Word]:
        self._expand_memory(offset, length)
        words = []
        for i in range(0, max(length, 0), 32):
            at = offset + i
            word = self.state.memory.get(at)
            if word is None:
                # unwritten: zero unless memory was cleared or a written
                # word overlaps this one
                if self.state.mem_unknown or any(abs(k - at) < 32 for k in self.state.memory):
                    word = self._fresh_or_zero("MEM", site)
                else:
                    word = ZERO
            words.append(word)
        return words

    def step(self, ins: Instruction) -> None:
        state = self.state
        info = ins.info
        byte = info.byte_value
        name = info.mnemonic

        if 0x60 <= byte <= 0x7F:  # PUSHn
            self._push(const(ins.immediate or 0))
            return
        if 0x80 <= byte <= 0x8F:  # DUPn
            n = byte - 0x7F
            if len(state.stack) < n:
                raise StackUnderflow("pop from empty stack")
            self._push(state.stack[-n])
            return
        if 0x90 <= byte <= 0x9F:  # SWAPn
            n = byte - 0x8F
            stack = state.stack
            if len(stack) < n + 1:
                raise StackUnderflow("pop from empty stack")
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            return
        if name in isa.OPERATORS:
            args = [self._pop() for _ in range(info.stack_pops)]
            word = mk(name, *args)
            # only the word ADDRESS pushed is the own address to BALANCE
            self._push(Word._make(word) if word is SymbolicState.address else word)
            return
        if name in _POP_ONLY:
            for _ in range(info.stack_pops):
                self._pop()
            return
        if name in _OUTPUTS:
            args = [self._pop() for _ in range(info.stack_pops)]
            self._charge(args[0], args[1])
            return
        if name in _OPAQUE_READS:
            for _ in range(info.stack_pops):
                self._pop()
            self._push(self._fresh_or_zero(name, ins.offset))
            return
        if name in _ENV_READS:
            self._push(self._env(name))
            return
        if name == "SHA3":
            offset, length = self._pop(), self._pop()
            if offset.is_concrete and length.is_concrete:
                words = self._mem_words(offset.value or 0, length.value or 0, ins.offset)
                term = node("sha3", tuple(words), length.value or 0)
                if all(w.is_concrete for w in words):
                    self._push(const(eval_word(term, {})))
                else:
                    self._push(term)
            else:
                self._charge(offset, length)
                self._push(self._fresh_or_zero("SHA3", ins.offset))
            return
        if name == "ADDRESS":
            self._push(SymbolicState.address)
            return
        if name == "BALANCE":
            target = self._pop()
            if target is SymbolicState.address:
                self._push(state.balance)
            else:
                self._push(self._fresh_or_zero("EXTBAL", ins.offset))
            return
        if name == "CALLDATALOAD":
            offset = self._pop()
            if offset.is_concrete:
                word_name = f"CALLDATA#{state.txn_label}@{offset.value}"
                if self.witness is not None:
                    self._push(const(self.witness.get(word_name, 0)))
                else:
                    self._push(var(word_name))
            else:
                self._push(self._fresh_or_zero("CALLDATA", ins.offset))
            return
        if name == "CODESIZE":
            self._push(const(len(self.code)))
            return
        if name == "CODECOPY":
            dest, src, length = self._pop(), self._pop(), self._pop()
            if dest.is_concrete and src.is_concrete and length.is_concrete:
                self._copy_code(dest.value or 0, src.value or 0, length.value or 0)
            else:
                self._charge(dest, length)
                self.state.memory.clear()
                self.state.mem_unknown = True
            return
        if name in ("CALLDATACOPY", "RETURNDATACOPY", "EXTCODECOPY"):
            args = [self._pop() for _ in range(info.stack_pops)]
            self._charge(args[-3], args[-1])  # the destination and the length
            self.state.memory.clear()
            self.state.mem_unknown = True
            return
        if name == "PC":
            self._push(const(ins.offset))
            return
        if name == "MLOAD":
            self._push(self._mload(self._pop(), ins.offset))
            return
        if name == "MSTORE":
            offset, value = self._pop(), self._pop()
            self._mstore(offset, value)
            return
        if name == "MSTORE8":
            offset, value = self._pop(), self._pop()
            word = self._fresh_or_zero("MEM", ins.offset)
            if offset.is_concrete:
                aligned = (offset.value or 0) & ~31
                self._expand_memory(aligned, 32)
                self.state.memory[aligned] = word
            else:
                self.state.memory.clear()
                self.state.mem_unknown = True
            return
        if name == "SLOAD":
            key = self._pop()
            loaded = state.sload(key)
            if self.witness is not None:
                self._push(const(eval_word(loaded, self.witness)))
            else:
                self._push(loaded)
            return
        if name == "SSTORE":
            key, value = self._pop(), self._pop()
            state.storage_writes.append((key, value))
            return
        if name in ("CALL", "CALLCODE", "DELEGATECALL", "STATICCALL"):
            args = [self._pop() for _ in range(info.stack_pops)]
            self._charge(args[-4], args[-3])
            self._charge(args[-2], args[-1])
            value = args[2] if name in ("CALL", "CALLCODE") else None
            state.records.append(ExternalRecord(name, ins.offset, state.txn, args[1], value))
            if name == "CALL":
                state.balance = mk("SUB", state.balance, value)
            if not (args[-1].is_concrete and args[-1].value == 0):
                # the return data overwrites the output area
                state.memory.clear()
                state.mem_unknown = True
            self._push(self._fresh_or_zero("XRET", ins.offset))
            return
        if name == "CREATE":
            value, offset, length = self._pop(), self._pop(), self._pop()
            self._charge(offset, length)
            state.records.append(ExternalRecord(name, ins.offset, state.txn, None, value))
            self._push(self._fresh_or_zero("XADDR", ins.offset))
            return
        if name == "SELFDESTRUCT":
            target = self._pop()
            state.records.append(ExternalRecord(name, ins.offset, state.txn,
                                                target, state.balance))
            return
        raise SymExecError(f"unhandled opcode {name}")

    def _fresh_or_zero(self, tag: str, site: int) -> Word:
        """The word drawn at offset `site`, named by its call and the site,
        and by its count of earlier draws there in this call past the first."""
        n = self.state.sites.get(site, 0)
        self.state.sites[site] = n + 1
        name = f"{tag}#{self.state.txn_label}.{site}" + (f".{n}" if n else "")
        if self.witness is not None:
            return const(self.witness.get(name, 0))
        return var(name)

    def _copy_code(self, dest: int, src: int, length: int) -> None:
        self._expand_memory(dest, length)
        data = self.code[src:src + length]
        data = data + b"\x00" * (length - len(data))
        for i in range(0, length, 32):
            chunk = data[i:i + 32]
            chunk = chunk + b"\x00" * (32 - len(chunk))
            self.state.memory[dest + i] = const(int.from_bytes(chunk, "big"))


def reference_run_body(interp: ReferenceInterpreter, block, mark: int) -> tuple[Word, ...]:
    state = interp.state
    for ins in block.instructions[:-1]:
        interp.step(ins)
    last = block.instructions[-1]
    name = last.mnemonic
    if name == "JUMP":
        return (interp._pop(),)
    if name == "JUMPI":
        target = interp._pop()
        return (target, interp._pop())
    interp.step(last)
    if name == "REVERT" and block.terminator is Terminator.TERMINAL:
        # the call's own records carry its number; its writes follow `mark`
        del state.storage_writes[mark:]
        state.records = [rec for rec in state.records if rec.txn != state.txn]
    return ()


def reference_take_exit(interp: ReferenceInterpreter, block, operands: tuple[Word, ...],
                        next_offset: int, root: int) -> None:
    """The former `symexec._take_exit`, over the reference interpreter:
    leave `block` for `next_offset`, starting the next transaction or
    asserting the jump that gets there."""
    state = interp.state
    if next_offset == root and block.terminator is Terminator.TERMINAL:
        interp.begin_transaction()
    elif len(operands) == 1:  # JUMP
        target = operands[0]
        if target.is_concrete:
            if (target.value or 0) != next_offset:
                raise SymExecError(
                    f"path claims jump to {next_offset} but target is {target.value}")
        else:
            state.assert_cond(mk("EQ", target, const(next_offset)))
    elif operands:  # JUMPI
        target, cond = operands
        fallthrough = block.last_offset + 1
        taken = target.is_concrete and (target.value or 0) == next_offset
        if not taken and next_offset != fallthrough:
            if target.is_concrete:
                raise SymExecError(
                    f"path leaves JUMPI at {block.last_offset} for {next_offset}, "
                    f"which is neither the target nor the fallthrough")
            state.assert_cond(mk("EQ", target, const(next_offset)))
            taken = True
        if taken:
            state.assert_cond(cond)
        elif target.is_concrete:
            state.assert_cond(mk("ISZERO", cond))
        else:  # the fallthrough, reached too by a jump to a symbolic target equal to it
            state.assert_cond(mk("OR", mk("ISZERO", cond), mk("EQ", target, const(fallthrough))))
