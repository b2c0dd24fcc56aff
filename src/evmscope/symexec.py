"""Bounded symbolic execution of program paths.

Words are finite terms over per-transaction free variables (caller, call
value, calldata, timestamp, block number, balances, foreign-call returns,
unknown storage) and the EVM operator set, modular 2**256; each is a
tuple underneath, and `node` builds each compound one within MAX_DEPTH
and MAX_SIZE.  Executing a path walks its block sequence, asserting each
branch condition (or its negation) into the path condition; each call
starts at the CFG root in a fresh environment, while storage persists.
`SymbolicState` is the symbolic machine: it holds what a path has built
and runs the instructions.  One block runner, `_run_body`, executes each
block over it from a plan compiled once, checking the stack against the
plan's static bounds once, at block entry, and never per instruction.
The trace of an unfolding (`execute_paths`) drives the piece runner
(`_piece_runner`) down the piece tree the unfolding walks, so each piece
runs once per node it hangs from, siblings share the blocks their pieces
share, and a whole call runs once per set of words it reads from the
states it starts from; paths that share a call share its
`ExternalRecord`s, which resolve their own target and amount once.
`_steer` runs every single block sequence: a gated path's trace
(`trace_path`), the constructor pre-run and witness replay.  Feasibility
is decided by a pluggable constraint backend; a satisfying witness is
re-validated by replaying the path: the same machine in witness mode
(`WitnessState`), where every value the walk leaves free is the witness's
constant, steered from the jump operands as the trace was steered along
the path's blocks; it runs on constants alone and builds no term.
Memory is keyed by word offset, and a copy of
untracked data or a call's return data clears it.  Every memory area an
opcode reads, writes or hands out, of a constant length, is charged
against MEMORY_CAP, at offset 0 where its offset is not known; in witness
mode every area is constant.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, NamedTuple

from . import isa
from .cfg import Cfg, Terminator
from .disasm import Instruction
from .isa import WORD_MAX, WORD_MOD
from .keccak import keccak256
from .pathgen import PathEnumeration, ProgramPath

STACK_LIMIT = 1024
BLOCK_GAS_LIMIT = 30_000_000
# Memory-expansion gas for `a` words is 3*a + a*a // 512 (Yellow Paper).
# 123,169 words is the most whose gas fits in BLOCK_GAS_LIMIT, so no
# transaction touches memory past this byte (about 3.9 MB).
MEMORY_CAP = 123_169 * 32
SOLVER_TIMEOUT_MS = 100  # a solver query's time unless the caller sets one


class SymExecError(Exception):
    pass


class StackUnderflow(SymExecError):
    pass


class StackOverflow(SymExecError):
    pass


class ConstructorDiverged(SymExecError):
    pass


class OutOfGas(SymExecError):
    pass


class DeadlinePassed(SymExecError):
    """The analysis deadline passed mid-walk; says nothing about the path."""


class TermTooDeep(SymExecError):
    """`node` met a term past MAX_DEPTH or MAX_SIZE; says nothing of the path."""


MAX_DEPTH = 200  # `str` takes three interpreter frames per level
MAX_SIZE = 2 ** 17  # tree nodes: a hash over all of memory fits


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Word(NamedTuple):
    """A term.  A tuple underneath, so building, comparing and hashing one
    run in C; `depth` and `size` follow from `args`, set by `node`."""
    op: str                      # "const", "var", "sha3", "sload", "ite", or an operator
    args: tuple["Word", ...] = ()
    value: int | None = None     # const payload
    name: str | None = None      # var payload
    meta: int | None = None      # sha3 preimage length in bytes
    depth: int = 1               # nesting levels, a leaf being one
    size: int = 1                # nodes of the tree

    @property
    def is_concrete(self) -> bool:
        return self.op == "const"

    def __str__(self) -> str:
        if self.op == "const":
            return hex(self.value or 0)
        if self.op == "var":
            return self.name or "?"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}({inner})"


_new = tuple.__new__  # a Word from its seven fields, skipping NamedTuple's keywords


def node(op: str, args: tuple[Word, ...], meta: int | None = None) -> Word:
    """The one builder of compound terms.  Bounding each term here keeps
    every walk over one under the recursion limit and within MAX_SIZE
    nodes, however much the term shares."""
    depth = size = 0
    for a in args:
        if a.depth > depth:
            depth = a.depth
        size += a.size
    if depth >= MAX_DEPTH:
        raise TermTooDeep("term nested too deep")
    if size >= MAX_SIZE:
        raise TermTooDeep("term too large")
    return _new(Word, (op, args, None, None, meta, depth + 1, size + 1))


def const(value: int) -> Word:
    return _new(Word, ("const", (), value % WORD_MOD, None, None, 1, 1))


def var(name: str) -> Word:
    return _new(Word, ("var", (), None, name, None, 1, 1))


ZERO = const(0)
ONE = const(1)
_OPERATORS = isa.OPERATORS


def concrete_op(name: str, vals: list[int]) -> int:
    """Concrete semantics of one EVM operator, result reduced mod 2**256."""
    fn = _OPERATORS.get(name)
    if fn is None:
        raise SymExecError(f"no concrete semantics for {name}")
    return fn(*vals)


def mk(op: str, *args: Word) -> Word:
    """Build an operator term, folding constants and a few identities."""
    for a in args:
        if a.op != "const":
            break
    else:
        return const(concrete_op(op, [a.value or 0 for a in args]))
    if op in ("SUB", "XOR") and len(args) == 2 and args[0] == args[1]:
        return ZERO
    if op == "EQ" and args[0] == args[1]:
        return ONE
    if op == "ISZERO" and args[0].op == "ISZERO" and args[0].args[0].op == "ISZERO":
        return args[0].args[0]
    if op == "AND" and len(args) == 2:
        for i in (0, 1):
            if args[i].is_concrete and args[i].value == WORD_MAX:
                return args[1 - i]
    if op == "ADD" and len(args) == 2:
        for i in (0, 1):
            if args[i].is_concrete and args[i].value == 0:
                return args[1 - i]
    return node(op, args)


def _hash(values, length: int, deadline: float | None) -> int:
    """The keccak256 of the first `length` bytes of the 32-byte big-endian
    words `values`.  Hashing a long preimage raises TimeoutError once
    `deadline` has passed."""
    data = b"".join(value.to_bytes(32, "big") for value in values)
    return int.from_bytes(keccak256(data[:length], deadline), "big")


def eval_word(w: Word, env: dict[str, int], deadline: float | None = None) -> int:
    """Concrete evaluation; unassigned variables read as zero.  Hashing a
    long preimage raises TimeoutError once `deadline` has passed.  The
    solver's search, its candidate scan and the witness re-check all run
    here, so the leaves come first, then the operator table, and a binary
    operator's operands go to its function without a list."""
    op = w.op
    if op == "const":
        return w.value or 0
    if op == "var":
        return env.get(w.name or "", 0) % WORD_MOD
    fn = _OPERATORS.get(op)
    if fn is not None:
        args = w.args
        if len(args) == 2:
            return fn(eval_word(args[0], env, deadline), eval_word(args[1], env, deadline))
        return fn(*[eval_word(a, env, deadline) for a in args])
    if op == "sload":
        return eval_word(w.args[0], env, deadline)
    if op == "ite":
        cond = eval_word(w.args[0], env, deadline)
        return eval_word(w.args[1] if cond else w.args[2], env, deadline)
    if op == "sha3":
        return _hash([eval_word(a, env, deadline) for a in w.args], int(w.meta or 0), deadline)
    raise SymExecError(f"no concrete semantics for {op}")


# The term queries below recurse directly: a generator walk costs more than
# the few nodes a typical term has.

def free_vars(w: Word) -> set[str]:
    names: set[str] = set()
    _collect_vars(w, names)
    return names


def _collect_vars(w: Word, names: set[str]) -> None:
    if w.op == "var":
        if w.name:
            names.add(w.name)
        return
    for a in w.args:
        _collect_vars(a, names)


def concretize(w: Word | None) -> int | None:
    """The term's single possible value, or None if any free variable remains.

    Resolves storage-read wrappers and folds closed terms (including hashes
    of fully concrete data)."""
    if w is None:
        return None
    if w.is_concrete:
        return w.value or 0
    if free_vars(w):
        return None
    return eval_word(w, {})


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Feasibility:
    status: FeasibilityStatus
    witness: dict[str, int] | None = None
    reason: str = ""


UNKNOWN_AMOUNT = "unknown"


@dataclass(frozen=True)
class ExternalRecord:
    """One money/call event observed along a path, in a call that did not
    revert: a REVERT drops its call's records.  Frozen because forked
    states, and paths that share a call, share the record objects; each
    resolves its target and amount once, on first use."""
    kind: str            # CALL, CALLCODE, DELEGATECALL, STATICCALL, CREATE, SELFDESTRUCT
    offset: int
    txn: int
    target: Word | None
    value: Word | None

    @cached_property
    def concrete_target(self) -> int | None:
        """The target's one possible value, or None."""
        return concretize(self.target)

    @cached_property
    def amount(self) -> int | str:
        """What it sends: an int, or UNKNOWN_AMOUNT."""
        if self.kind in ("CALL", "CALLCODE", "CREATE"):
            amount = concretize(self.value)
            return UNKNOWN_AMOUNT if amount is None else amount
        if self.kind in ("DELEGATECALL", "SELFDESTRUCT"):
            return UNKNOWN_AMOUNT
        return 0  # STATICCALL cannot move value


class SymbolicState:
    """The symbolic machine: what a path has built, and a handler for each
    kind of instruction run over it.  Stack and memory belong to the current
    call; storage writes, balance, the call counter and the records carry
    across calls, and a REVERT truncates both lists at `call_start`.
    Environment reads give per-transaction variables and untracked reads
    fresh ones, each made by `word` from its name; `WitnessState` runs the
    same handlers with a witness's constant for each name."""

    word = staticmethod(var)  # the word a free value of this name reads as
    address = var("ADDRESS")  # the one word BALANCE reads the balance of

    def __init__(self, base_storage: dict[Word, Word], code: bytes,
                 deadline: float | None, txn_prefix: str) -> None:
        self.stack: list[Word] = []
        self.memory: dict[int, Word] = {}
        self.storage_writes: list[tuple[Word, Word]] = []
        self.base_storage = base_storage
        self.path_condition: list[Word] = []
        self.balance = self.word("BALANCE0")
        self.txn = 0
        self.txn_prefix = txn_prefix
        self.records: list[ExternalRecord] = []
        self.fresh_counter = 0
        self.storage_var_cache: dict[Word, Word] = {}  # what an unwritten key reads
        # the words `credited` and `debited` built, by the ids of their operands
        self.credits: dict[tuple[int, int], tuple[Word, Word]] = {}
        self.debits: dict[tuple[int, int], tuple[Word, Word, Word]] = {}
        # what this call did with the state it began in: the storage keys it
        # read, whether it read the balance, and what its CALLs sent
        self.reads: list[Word] = []
        self.balance_read = False
        self.sent: tuple[Word, ...] = ()
        self.mem_unknown = False  # memory was written through an unknown pointer
        self.call_start = (0, 0)  # (storage writes, records) before this call
        self.code = code  # what CODESIZE and CODECOPY read
        self.deadline = deadline  # time.monotonic() value; None: no limit

    def fork(self) -> SymbolicState:
        """An independent copy.  Words are immutable, so shallow copies of
        the containers suffice; base storage, the storage-variable and
        balance-word caches, the code and the deadline stay shared, since
        none of them changes what a read returns."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.stack = self.stack.copy()
        twin.memory = self.memory.copy()
        twin.storage_writes = self.storage_writes.copy()
        twin.path_condition = self.path_condition.copy()
        twin.records = self.records.copy()
        twin.reads = self.reads.copy()
        return twin

    @property
    def txn_label(self) -> str:
        return f"{self.txn_prefix}{self.txn}"

    def fresh(self, tag: str) -> Word:
        self.fresh_counter += 1
        return self.word(f"{tag}.{self.fresh_counter}")

    def assert_cond(self, w: Word) -> None:
        if w.is_concrete and w.value:
            return  # trivially true
        self.path_condition.append(w)

    def sload(self, key: Word) -> Word:
        # newest first: writes whose key cannot be separated from `key`
        # statically, down to an exact match or the base storage
        undecided: list[tuple[Word, Word]] = []
        value = None
        for wkey, wval in reversed(self.storage_writes):
            if wkey == key:
                value = wval
                break
            if not (wkey.is_concrete and key.is_concrete):
                undecided.append((wkey, wval))
        if value is None:
            value = self._base_read(key)
        for wkey, wval in reversed(undecided):
            value = node("ite", (mk("EQ", wkey, key), wval, value))
        return node("sload", (value,))

    def entry_read(self, key: Word) -> Word | None:
        """The word `sload(key)` finds in this state's writes or base
        storage, itself, or None if a write whose key cannot be told apart
        from `key` statically comes first."""
        for wkey, wval in reversed(self.storage_writes):
            if wkey == key:
                return wval
            if not (wkey.is_concrete and key.is_concrete):
                return None
        return self._base_read(key)

    def _base_read(self, key: Word) -> Word:
        word = self.storage_var_cache.get(key)
        if word is None:  # base storage's word, else one variable per key
            word = self.storage_var_cache[key] = (self.base_storage.get(key)
                                                  or var(f"STORAGE@{key}"))
        return word

    def final_storage(self) -> dict[Word, Word]:
        merged = dict(self.base_storage)
        for key, value in self.storage_writes:
            merged[key] = value
        return merged

    def end_call(self) -> None:
        """The call halts, and its stack and memory end with it."""
        self.stack = []
        self.memory = {}
        self.mem_unknown = False

    def begin_transaction(self) -> None:
        """Start the next call, its balance credited with its CALLVALUE."""
        self.end_call()
        self.txn += 1
        self.call_start = (len(self.storage_writes), len(self.records))
        self.reads, self.balance_read, self.sent = [], False, ()
        self.balance = self.credited(self.balance)

    def credited(self, balance: Word) -> Word:
        """`balance` plus this call's CALLVALUE: one word per (balance, call
        counter), as `debited` gives one per (balance, value), so equal
        moves of one balance word leave one balance word."""
        key = (id(balance), self.txn)
        found = self.credits.get(key)
        if found is None:
            found = self.credits[key] = (
                balance, mk("ADD", balance, self.word(f"CALLVALUE#{self.txn_label}")))
        return found[1]

    def debited(self, balance: Word, value: Word) -> Word:
        """`balance` less the `value` a CALL sends."""
        key = (id(balance), id(value))
        found = self.debits.get(key)
        if found is None:
            found = self.debits[key] = (balance, value, mk("SUB", balance, value))
        return found[2]

    def _mem_words(self, offset: int, length: int) -> list[Word]:
        """A memory area's words.  An unwritten word reads zero while memory
        is clean and no written word overlaps it, else a fresh `MEM#` word."""
        _expand_memory(offset, length)
        memory = self.memory
        words = [memory.get(at) for at in range(offset, offset + length, 32)]
        starts = sorted(memory) if None in words else []
        for i, word in enumerate(words):
            if word is None:  # a write that starts within 31 bytes overlaps it
                at = offset + 32 * i
                j = bisect_left(starts, at - 31)
                unknown = self.mem_unknown or j < len(starts) and starts[j] < at + 32
                words[i] = self.fresh(f"MEM#{self.txn_label}") if unknown else ZERO
        return words

    # -- instruction handlers ----------------------------------------------
    # `handler(state, ins, operand)`: the operand is decoded once per
    # instruction by `compile_instruction`.  The block runner has checked
    # the stack against the block's bounds, so no handler checks it.

    def _opaque_read(self, ins: Instruction, pops: int) -> None:
        del self.stack[len(self.stack) - pops:]
        self.stack.append(self.fresh(ins.info.mnemonic))

    def _env_read(self, ins: Instruction, tag: str) -> None:
        self.stack.append(self.word(f"{tag}#{self.txn_label}"))

    def _address(self, ins: Instruction, operand: None) -> None:
        self.stack.append(self.address)

    def _sha3(self, ins: Instruction, operand: None) -> None:
        stack = self.stack
        offset, length = stack.pop(), stack.pop()
        if offset.is_concrete and length.is_concrete:
            words = self._mem_words(offset.value or 0, length.value or 0)
            values = [w.value for w in words]  # None but for a constant
            if None in values:
                stack.append(node("sha3", tuple(words), length.value or 0))
                return
            try:
                stack.append(const(_hash(values, length.value or 0, self.deadline)))
            except TimeoutError as exc:
                raise DeadlinePassed(str(exc)) from None
        else:
            _charge(offset, length)
            stack.append(self.fresh(f"SHA3#{self.txn_label}"))

    def _balance(self, ins: Instruction, operand: None) -> None:
        target = self.stack.pop()
        if target is self.address:
            self.stack.append(self.balance)
            self.balance_read = True
        else:
            self.stack.append(self.fresh(f"EXTBAL#{self.txn_label}"))

    def _calldataload(self, ins: Instruction, operand: None) -> None:
        offset = self.stack.pop()
        if offset.is_concrete:
            self.stack.append(self.word(f"CALLDATA#{self.txn_label}@{offset.value}"))
        else:
            self.stack.append(self.fresh(f"CALLDATA#{self.txn_label}"))

    def _codesize(self, ins: Instruction, operand: None) -> None:
        self.stack.append(const(len(self.code)))

    def _codecopy(self, ins: Instruction, operand: None) -> None:
        stack = self.stack
        dest, src, length = stack.pop(), stack.pop(), stack.pop()
        if dest.is_concrete and src.is_concrete and length.is_concrete:
            _copy_code(self.memory, self.code, dest.value or 0, src.value or 0,
                       length.value or 0, const)
        else:
            _charge(dest, length)
            self.memory.clear()
            self.mem_unknown = True

    def _copy_unknown(self, ins: Instruction, pops: int) -> None:
        """CALLDATACOPY, RETURNDATACOPY, EXTCODECOPY: data the model does not
        track, into the area the destination and the length name."""
        stack = self.stack
        _charge(stack[2 - pops], stack[-pops])
        del stack[len(stack) - pops:]
        self.memory.clear()
        self.mem_unknown = True

    def _output(self, ins: Instruction, pops: int) -> None:
        """LOG0-LOG4, RETURN, REVERT: hand out the memory area the first two
        operands name."""
        stack = self.stack
        _charge(stack[-1], stack[-2])
        del stack[len(stack) - pops:]

    def _mload(self, ins: Instruction, operand: None) -> None:
        offset = self.stack.pop()
        if offset.is_concrete:
            word = self._mem_words(offset.value or 0, 32)[0]
        else:  # nothing written yet: zero at any offset, as in witness mode
            word = self.fresh(f"MEM#{self.txn_label}") if self.memory or self.mem_unknown else ZERO
        self.stack.append(word)

    def _mstore(self, ins: Instruction, operand: None) -> None:
        offset, value = self.stack.pop(), self.stack.pop()
        if offset.is_concrete:
            at = offset.value or 0
            if at + 32 > MEMORY_CAP:
                _expand_memory(at, 32)
            self.memory[at] = value
        else:
            # write through an unknown pointer: all recorded words are stale
            self.memory.clear()
            self.mem_unknown = True

    def _mstore8(self, ins: Instruction, operand: None) -> None:
        # an MSTORE of an unknown word, drawn at any offset, over the byte's word
        offset = self.stack[-1]
        self.stack[-2] = self.fresh(f"MEM#{self.txn_label}")
        if offset.is_concrete:
            self.stack[-1] = const((offset.value or 0) & ~31)
        self._mstore(ins, operand)

    def _sload(self, ins: Instruction, operand: None) -> None:
        key = self.stack.pop()
        self.reads.append(key)
        self.stack.append(self.sload(key))

    def _sstore(self, ins: Instruction, operand: None) -> None:
        key, value = self.stack.pop(), self.stack.pop()
        self.storage_writes.append((key, value))

    def _call(self, ins: Instruction, pops: int) -> None:
        """CALL, CALLCODE, DELEGATECALL, STATICCALL."""
        name = ins.info.mnemonic
        # gas, target, [value,] then the input and the output area
        args = [self.stack.pop() for _ in range(pops)]
        _charge(args[-4], args[-3])
        _charge(args[-2], args[-1])
        value = args[2] if name in ("CALL", "CALLCODE") else None
        self.records.append(ExternalRecord(name, ins.offset, self.txn, args[1], value))
        if name == "CALL":
            self.balance = self.debited(self.balance, value)
            self.sent += (value,)
        if args[-1] != ZERO:  # the return data overwrites the output area
            self.memory.clear()
            self.mem_unknown = True
        self.stack.append(self.fresh(f"XRET#{self.txn_label}"))

    def _create(self, ins: Instruction, operand: None) -> None:
        stack = self.stack
        value, offset, length = stack.pop(), stack.pop(), stack.pop()
        _charge(offset, length)  # the init code's area
        self.records.append(ExternalRecord("CREATE", ins.offset, self.txn, None, value))
        self.stack.append(self.fresh(f"XADDR#{self.txn_label}"))

    def _selfdestruct(self, ins: Instruction, operand: None) -> None:
        target = self.stack.pop()
        self.balance_read = True
        self.records.append(ExternalRecord("SELFDESTRUCT", ins.offset, self.txn,
                                           target, self.balance))


# ---------------------------------------------------------------------------
# Block plans
# ---------------------------------------------------------------------------

# Opcodes whose only effect on the modelled state is popping their operands.
_POP_ONLY = frozenset({"POP", "STOP", "JUMPDEST", "INVALID"})
# Reads of values the model does not track: every use is a fresh word.
_OPAQUE_READS = frozenset({"EXTCODESIZE", "BLOCKHASH", "RETURNDATASIZE", "MSIZE", "GAS"})
# Transaction environment: one variable per transaction.
_ENV_READS = frozenset({"ORIGIN", "CALLER", "CALLVALUE", "CALLDATASIZE", "GASPRICE",
                        "COINBASE", "TIMESTAMP", "NUMBER", "DIFFICULTY", "GASLIMIT"})


def check_deadline(deadline: float | None) -> None:
    """Raise DeadlinePassed once `deadline` (a time.monotonic() value) has
    passed; None sets no limit."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlinePassed("deadline passed")


def _expand_memory(offset: int, length: int) -> None:
    """Halt as out of gas if memory would grow past MEMORY_CAP."""
    if length > 0 and offset + length > MEMORY_CAP:
        raise OutOfGas(f"memory up to byte {offset + length} exceeds the block gas limit")


def _charge(offset: Word, length: Word) -> None:
    """`_expand_memory` for the area two symbolic operands name, if its
    length is a constant: at its offset if that is one too, else at any
    offset, so a length past MEMORY_CAP halts; an area of a length not
    known is not charged."""
    if length.op == "const":
        _expand_memory(offset.value or 0 if offset.op == "const" else 0, length.value or 0)


def _copy_code(memory: dict, code: bytes, dest: int, src: int, length: int,
               word: Callable[[int], Any]) -> None:
    """CODECOPY into word-keyed memory: `code` from `src`, zeros past its
    end; `word` turns each 32-byte big-endian value into a memory word."""
    _expand_memory(dest, length)
    data = code[src:src + length]
    for i in range(0, len(data), 32):
        memory[dest + i] = word(int.from_bytes(data[i:i + 32].ljust(32, b"\x00"), "big"))
    # past the end of the code: zero words, up to 3.9 MB of them
    tail = dest + -(-len(data) // 32) * 32
    memory.update(dict.fromkeys(range(tail, dest + length, 32), word(0)))


_NAMED_HANDLERS = {
    "SHA3": SymbolicState._sha3, "BALANCE": SymbolicState._balance,
    "CALLDATALOAD": SymbolicState._calldataload, "CODESIZE": SymbolicState._codesize,
    "CODECOPY": SymbolicState._codecopy, "CALLDATACOPY": SymbolicState._copy_unknown,
    "RETURNDATACOPY": SymbolicState._copy_unknown, "EXTCODECOPY": SymbolicState._copy_unknown,
    "MLOAD": SymbolicState._mload, "MSTORE": SymbolicState._mstore,
    "MSTORE8": SymbolicState._mstore8, "SLOAD": SymbolicState._sload,
    "SSTORE": SymbolicState._sstore, "CALL": SymbolicState._call,
    "CALLCODE": SymbolicState._call, "DELEGATECALL": SymbolicState._call,
    "STATICCALL": SymbolicState._call, "CREATE": SymbolicState._create,
    "SELFDESTRUCT": SymbolicState._selfdestruct,
    **dict.fromkeys(("LOG0", "LOG1", "LOG2", "LOG3", "LOG4", "RETURN", "REVERT"),
                    SymbolicState._output),
}

# The stack moves and operators a plan marks instead of naming a handler;
# the block runner makes them inline.  The operand of a PUSH is its word,
# of a DUP or SWAP its depth, of a POP the number of words popped, of an
# operator (name, concrete function, operands popped).
_PUSH, _DUP, _SWAP, _POP, _OPERATOR = "PUSH", "DUP", "SWAP", "POP", "OPERATOR"


def _handler_entry(info: isa.OpcodeInfo) -> tuple:
    """(handler, operand) of one opcode: a stack-move or operator mark, a
    SymbolicState handler, or None where the opcode leaves the modelled
    state as it is.  PUSHn and PC get their operand, the constant they push, per instruction."""
    name, byte = info.mnemonic, info.byte_value
    if info.is_push or name == "PC":
        return _PUSH, None
    if 0x80 <= byte <= 0x8F:
        return _DUP, byte - 0x7F
    if 0x90 <= byte <= 0x9F:
        return _SWAP, byte - 0x8F
    if name in isa.OPERATORS:
        return _OPERATOR, (name, isa.OPERATORS[name], info.stack_pops)
    if name in _ENV_READS:
        return SymbolicState._env_read, name
    if name in _OPAQUE_READS:
        return SymbolicState._opaque_read, info.stack_pops
    if name in _POP_ONLY:
        return (_POP, info.stack_pops) if info.stack_pops else (None, None)
    if name == "ADDRESS":
        return SymbolicState._address, None
    if name in ("JUMP", "JUMPI"):  # a block's exit: the runners pop its operands
        return None, None
    return _NAMED_HANDLERS[name], info.stack_pops


# Every opcode byte's handler and static operand, indexed by byte.
_HANDLERS: tuple[tuple, ...] = tuple(_handler_entry(info) for info in isa.TABLE)

# One decoded instruction: (handler or stack-move mark, instruction, operand).
Op = tuple[Callable[[SymbolicState, Instruction, Any], None] | str, Instruction, Any]


def compile_instruction(ins: Instruction) -> Op:
    handler, operand = _HANDLERS[ins.info.byte_value]
    if handler is _PUSH:
        operand = const(ins.offset if ins.info.mnemonic == "PC" else ins.immediate or 0)
    return handler, ins, operand


class BlockPlan(NamedTuple):
    """A basic block decoded once, to be run any number of times."""
    ops: tuple[Op, ...]     # the body; instructions with no effect are left out
    jump_pops: int          # operands the exit pops: 1 for JUMP, 2 for JUMPI, else 0
    reverts: bool           # ends in REVERT: the transaction is rolled back
    need: int               # stack depth the block, exit included, needs at entry
    grow: int               # the most the block raises the stack above its entry depth


def _stack_bounds(instructions: list[Instruction]) -> tuple[int, int]:
    """(need, grow) of a block, from the ISA's pops and pushes.  The table
    gives DUPn as n pops and n+1 pushes and SWAPn as n+1 of each, which is
    how deep they reach; every handler pops before it pushes."""
    need = grow = height = 0
    for ins in instructions:
        info = ins.info
        need = max(need, info.stack_pops - height)
        height += info.stack_pushes - info.stack_pops
        grow = max(grow, height)
    return need, grow


def compile_block(block) -> BlockPlan:
    last = block.last
    ops = tuple(op for op in map(compile_instruction, block.instructions)
                if op[0] is not None)
    reverts = last.mnemonic == "REVERT" and block.terminator is Terminator.TERMINAL
    return BlockPlan(ops, {"JUMP": 1, "JUMPI": 2}.get(last.mnemonic, 0), reverts,
                     *_stack_bounds(block.instructions))


# ---------------------------------------------------------------------------
# Path execution
# ---------------------------------------------------------------------------

def _plan(cfg: Cfg, block) -> BlockPlan:
    """The block's plan, compiled on first use and kept with `cfg`."""
    plan = cfg.plans.get(block.id)
    if plan is None:
        plan = cfg.plans[block.id] = compile_block(block)
    return plan


def _run_body(state: SymbolicState, cfg: Cfg, block) -> tuple[Word, ...]:
    """Execute a block up to its exit; returns the jump operands it popped.

    This is the one block runner: the unfolding's walk and `_steer`, with
    its trace, pre-run and replay, differ only in the machine they run it
    over and in how they choose the next block.  A REVERT rolls
    back the call here, whatever block follows: the storage writes and
    records made since the call's `call_start` are dropped.

    The stack is checked once, at entry, against the plan's bounds: a block
    entered below the depth it needs or too close to STACK_LIMIT halts
    there, as the EVM halts at one of its instructions.  Within the bounds
    no instruction can under- or overflow the stack, so PUSH, DUP, SWAP,
    the operators and the pop-only opcodes work on the list directly, the
    other opcodes go through their handlers, and the exit pops its operands
    unchecked.

    An operator whose operands are all constants folds through its
    concrete function into one constant and builds no term, as every
    operator does in witness mode; any other goes to `mk`.  BALANCE reads
    the own balance for ADDRESS's push alone, so an identity of `mk` that
    gives the ADDRESS word back gives a copy."""
    ops, jump_pops, reverts, need, grow = _plan(cfg, block)
    stack = state.stack
    if len(stack) < need:
        raise StackUnderflow("pop from empty stack")
    if len(stack) + grow > STACK_LIMIT:
        raise StackOverflow("stack limit exceeded")
    append, pop, address = stack.append, stack.pop, state.address
    for handler, ins, operand in ops:
        if handler is _PUSH:
            append(operand)
        elif handler is _OPERATOR:
            # the operands, top first; a constant's value is never None
            name, fn, pops = operand
            if pops == 2:
                a = pop()
                b = stack[-1]
                word = (mk(name, a, b) if a.value is None or b.value is None else
                        _new(Word, ("const", (), fn(a.value, b.value), None, None, 1, 1)))
            elif pops == 1:
                a = stack[-1]
                word = (mk(name, a) if a.value is None else
                        _new(Word, ("const", (), fn(a.value), None, None, 1, 1)))
            else:  # ADDMOD, MULMOD
                a, b, c = pop(), pop(), stack[-1]
                word = (mk(name, a, b, c) if None in (a.value, b.value, c.value) else
                        _new(Word, ("const", (), fn(a.value, b.value, c.value), None, None, 1, 1)))
            stack[-1] = Word._make(word) if word is address else word
        elif handler is _DUP:
            append(stack[-operand])
        elif handler is _SWAP:
            stack[-1], stack[-operand - 1] = stack[-operand - 1], stack[-1]
        elif handler is _POP:
            del stack[-operand:]
        else:
            handler(state, ins, operand)
    if jump_pops:
        return (pop(),) if jump_pops == 1 else (pop(), pop())
    if reverts:
        writes, records = state.call_start
        del state.storage_writes[writes:]
        del state.records[records:]
    return ()


def _take_exit(state: SymbolicState, block, operands: tuple[Word, ...],
               next_offset: int) -> None:
    """Leave `block` for `next_offset` within one call: assert the jump that
    gets there."""
    if len(operands) == 1:  # JUMP
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
        if target.is_concrete and (target.value or 0) == next_offset:
            if next_offset != fallthrough:  # else both ways lead there
                state.assert_cond(cond)
        elif next_offset == fallthrough:
            not_taken = mk("ISZERO", cond)
            # a symbolic target may name the fallthrough too
            state.assert_cond(not_taken if target.is_concrete else
                              mk("OR", not_taken, mk("EQ", target, const(fallthrough))))
        elif target.is_concrete:
            raise SymExecError(
                f"path leaves JUMPI at {block.last_offset} for {next_offset}, "
                f"which is neither the target nor the fallthrough")
        else:  # a symbolic target, and the path goes elsewhere: the jump is taken
            state.assert_cond(mk("EQ", target, const(next_offset)))
            state.assert_cond(cond)


# A cap on the entries the call memo of one walk holds: one per stored
# call, and one per condition, record and storage write the call added.  A
# call that would pass it is not stored, and runs again under each node
# that reaches it.
MEMO_ENTRIES = MEMORY_CAP // 32


class _CallDelta(NamedTuple):
    """A call summary: what one whole-call piece added to the state it
    started from, the same from any state its footprint (`held`) agrees
    with: the call starts there (`begin_transaction`), its lists go after
    that state's, and its balance is the one it starts with less what it sent."""
    conditions: list[Word]           # the path condition it added
    records: list[ExternalRecord]    # the records it left
    storage_writes: list[tuple[Word, Word]]  # the writes it added
    sent: tuple[Word, ...]           # the values its CALLs sent
    fresh_counter: int
    held: tuple[Word | None, ...]    # the words its reads gave, then the balance it read


def _after_call(entry: SymbolicState, delta: _CallDelta) -> SymbolicState:
    """The state the call stored as `delta` leaves, run from `entry`, a
    state between calls: the call starts as any call (`begin_transaction`),
    at `entry`'s own lists, since the memo key leaves out how many records
    came before (a SELFDESTRUCT adds one and changes nothing else)."""
    state = SymbolicState.__new__(SymbolicState)
    state.__dict__.update(entry.__dict__)
    state.begin_transaction()
    state.path_condition = entry.path_condition + delta.conditions
    state.records = entry.records + delta.records
    state.storage_writes = entry.storage_writes + delta.storage_writes
    for value in delta.sent:
        state.balance = state.debited(state.balance, value)
    state.fresh_counter = delta.fresh_counter
    return state


class _Node:
    """A piece boundary of a walk: the state the pieces above it leave, and
    what its child pieces share.  Its state is never run on: a child runs
    on a copy, or on a frame an earlier child saved.  A node a stored call
    made holds the node that call was entered from and the call's delta
    until its state is first asked for, so a leaf of a reused call builds
    none, and neither does a reused call whose children are reused too."""
    __slots__ = ("_state", "delta", "facts", "calls", "ran", "frames", "failed")

    def __init__(self, state, facts, delta: _CallDelta | None) -> None:
        self._state = state
        self.delta = delta
        # what the walk's fold made of the pieces above it
        self.facts = facts
        # the memo's stored pieces under its head, by index; found on first use
        self.calls: dict[int, _CallDelta] | None = None
        # the sibling scratch: the index of the last child piece it ran, that
        # piece's JUMPI frames (depth, state, operands) inside the prefix it
        # shares with the next piece of the list, and (depth, error) if it failed
        self.ran = -1
        self.frames: list[tuple[int, SymbolicState, tuple]] = []
        self.failed: tuple[int, SymExecError] | None = None

    @property
    def state(self) -> SymbolicState:
        if self.delta is not None:
            self._state, self.delta = _after_call(self._state.state, self.delta), None
        return self._state

    def conditions(self) -> list[Word]:
        """Its state's path condition, for a fold that asks for it."""
        return self.state.path_condition


def _footprint_match(stored: dict, entry: SymbolicState) -> _CallDelta | None:
    """The call in `stored` (see `_piece_runner`) whose every read gives,
    from `entry`, the word it read when it ran, or None."""
    for (keys, balance), calls in stored.items():
        ids = []
        for key in keys:
            word = entry.entry_read(key)
            if word is None:
                break
            ids.append(id(word))
        else:
            if balance:
                ids.append(id(entry.balance))
            delta = calls.get(tuple(ids))
            if delta is not None:
                return delta
    return None


def _piece_runner(cfg: Cfg, code: bytes, base_storage: dict[Word, Word],
                  deadline: float | None, pieces: list, facts,
                  ) -> tuple[_Node, Callable[[Any, Any], Any]]:
    """The root node of the unfolding's walk (`execute_paths`), and
    `enter(node, piece)`: it runs `piece` from `node` and gives the node
    below it, or the SymExecError that stops the piece (a DeadlinePassed it
    raises).  `pieces` is the unfolding's list, whose pieces a node enters
    in list order.  One block sequence alone is steered instead (`_steer`).

    Given `facts` (see `execute_paths`), each node's facts are its
    parent's extended by what its piece added: `facts.extend(parent's,
    before, conditions, records)`, `before()` giving the path condition
    the piece started from.  The root's are `facts.start`.

    A piece resumes from the deepest frame its node's last piece saved
    inside the prefix the two share, or from a copy of the node's state.
    Frames are saved at JUMPI blocks inside the prefix the piece shares
    with the next piece of the list, which is at least what it shares with
    any later one; the last piece to part at a frame takes the frame
    itself.  A piece below the block its node's last piece failed at gets
    that piece's error object.  Right after a terminal block the runner
    ends the call (`end_call`), as the EVM ends a call's frame there.

    Every piece is a whole call, from the root to a terminal block: it
    begins with `begin_transaction`, and is stored in a memo under the
    call counter, the fresh counter and its index, on which the names it
    draws depend, with its footprint: the word that the state it started
    from gives each key its SLOADs read (`entry_read`),
    and that state's balance if the call read it (BALANCE of its own
    address, SELFDESTRUCT).  That is all a call reads, since its stack and
    memory start empty, no handler reads the path condition or the
    records, base storage and the code are the walk's own, and an
    unwritten slot reads the same word in any state.  Entering a piece
    from a state that gives the same words, by identity, gives a node that
    builds its state from what the call added (`_CallDelta`) when the
    state is first asked for, instead of running it, so a call reached
    under many prefixes runs once per footprint.  The head of such a node
    follows from the head above it and the call, so the calls below it
    are found without its state once that pair has been seen; a fold asks
    for its path condition (`_Node.conditions`, which builds it) only at a
    path's first self-destruct.  A call with a key whose word a write of a
    key not told apart from it may hide has no footprint, and is found
    only under its whole head: the balance and the storage-write pairs, by
    identity.  The head is probed first, once per node, and a call found
    by its footprint is kept under the head too; a footprint costs a dict
    probe per distinct list of read keys.  The memo holds every object
    whose identity its keys use, and at most MEMO_ENTRIES entries; a
    piece that fails is not stored.  The clock is read every 16 steps, a
    step being a block run or a stored piece reused."""
    root = _Node(SymbolicState(dict(base_storage), code, deadline, ""),
                 None if facts is None else facts.start, None)
    fold = None if facts is None else facts.extend
    shared = [p.shared for p in pieces]
    # by whole head: its balance and storage writes, held, and the calls
    # found under it, by piece index
    memo: dict[tuple, tuple[Word, list, dict[int, _CallDelta]]] = {}
    # by (call counter, fresh counter, piece index), then (read keys, whether
    # the balance is read), then the ids of the words read
    prints: dict[tuple, dict[tuple, dict[tuple, _CallDelta]]] = {}
    # by (the calls dict a stored call was found in, the call): the calls
    # dict under the head of the state it leaves
    after: dict[tuple[int, int], dict[int, _CallDelta]] = {}
    held = steps = 0  # entries the memo holds; steps taken

    def head_calls(node):
        """The calls under the node's head, from the head above it and the
        call that made it if they were seen before, else from its state."""
        key = None if node.delta is None else (id(node._state.calls), id(node.delta))
        calls = after.get(key)
        if calls is None:
            entry = node.state
            head = (entry.txn, entry.fresh_counter, id(entry.balance),
                    tuple(map(id, entry.storage_writes)))
            found = memo.get(head)
            if found is None:
                found = memo[head] = (entry.balance, entry.storage_writes, {})
            calls = found[2]
            if key is not None:
                after[key] = calls
        return calls

    def enter(node, piece):
        nonlocal held, steps
        if type(node) is not _Node:
            return node  # below a failing block
        blocks, frames, index, ran = piece.blocks, node.frames, piece.index, node.ran
        calls = node.calls
        if calls is None:
            calls = node.calls = head_calls(node)
        # a piece below a failing block fails under any equal head, so it
        # is never stored
        delta = calls.get(index)
        if delta is None:
            entry = node.state
            stored = prints.get((entry.txn, entry.fresh_counter, index))
            if stored is not None:
                delta = _footprint_match(stored, entry)
                if delta is not None:
                    calls[index] = delta  # found by the head from now on
        if delta is not None:
            steps += 1
            if not steps & 0xF:
                check_deadline(deadline)
            return _Node(node, fold and fold(
                node.facts, node.conditions, delta.conditions, delta.records), delta)
        common = 0
        if ran >= 0:
            common = shared[ran] if index == ran + 1 else min(shared[ran:index])
            if node.failed is not None and node.failed[0] < common:
                return node.failed[1]
            while frames and frames[-1][0] >= common:
                frames.pop()  # it holds a block this piece does not
        node.ran, node.failed, keep = index, None, piece.shared
        entry = node.state
        if frames:
            depth, state, operands = frames[-1]
            if depth == common - 1:  # no later piece parts there
                frames.pop()
            else:
                state = state.fork()
            block = cfg.blocks[blocks[depth]]
            depth += 1
        else:
            depth, block, operands = 0, None, ()
            state = entry.fork()
        try:
            for depth in range(depth, len(blocks)):
                steps += 1
                if not steps & 0xF:
                    check_deadline(deadline)
                block_id = blocks[depth]
                if block is None:
                    state.begin_transaction()
                else:
                    _take_exit(state, block, operands, block_id)
                block = cfg.blocks[block_id]
                operands = _run_body(state, cfg, block)
                if depth < keep and len(operands) == 2:
                    frames.append((depth, state.fork(), operands))
        except DeadlinePassed:
            raise
        except SymExecError as error:
            node.failed = (depth, error)
            return error
        state.end_call()  # at its terminal block
        writes, records = state.call_start
        added = state.path_condition[len(entry.path_condition):]
        made, written = state.records[records:], state.storage_writes[writes:]
        below = None if fold is None else fold(node.facts, node.conditions, added, made)
        size = 1 + len(added) + len(made) + len(written)
        if held + size <= MEMO_ENTRIES:
            held += size
            keys, balance = tuple(state.reads), state.balance_read
            words = tuple(map(entry.entry_read, keys))
            delta = calls[index] = _CallDelta(
                added, made, written, state.sent, state.fresh_counter,
                words + ((entry.balance,) if balance else ()))
            if None not in words:
                prints.setdefault((entry.txn, entry.fresh_counter, index), {}).setdefault(
                    (keys, balance), {})[tuple(map(id, delta.held))] = delta
        return _Node(state, below, None)

    return root, enter


def execute_paths(cfg: Cfg, code: bytes, unfolding: PathEnumeration,
                  marked: Callable[[Any], bool], base_storage: dict[Word, Word],
                  deadline: float | None, facts,
                  ) -> Iterator[tuple[ProgramPath, Any]]:
    """Trace the unfolding's paths with a `marked` piece as its walk
    (`PathEnumeration.walk`) builds them; yields `(path, outcome)` for each
    in unfolding order.  The outcome is the state its blocks give when run
    alone, or the SymExecError that stopped them: a term past the bounds of
    `node` stops them with TermTooDeep.  Given `facts`, a fold over what
    each piece adds to a path (`analyzers.PathFacts`: its `start` and
    `extend`), it is instead the facts the fold made of the path's pieces
    (see `_piece_runner`), and no leaf that a reused call made builds its
    state.

    The walk threads a node (`_Node`) down the piece tree, and the piece
    runner (`_piece_runner`) makes each child node from its parent by
    running or reusing one whole call: so a path runs only its last call
    past the nodes above it, and the siblings below a node share the
    blocks their pieces share.  A failure
    is the outcome, as one object, of every path below the failing block.
    A passed deadline stops the walk: the paths not yielded are left to the
    caller to count from the unfolding's counts."""
    root, enter = _piece_runner(cfg, code, base_storage, deadline, unfolding.pieces(), facts)
    try:
        for path, node in unfolding.walk(marked, enter, root):
            if type(node) is not _Node:
                yield path, node
            else:
                yield path, node.state if facts is None else node.facts
    except DeadlinePassed:
        return


def trace_path(cfg: Cfg, code: bytes, path, base_storage: dict[Word, Word],
               deadline: float | None = None) -> SymbolicState:
    """The symbolic walk of one block sequence (`path.blocks`) alone,
    without any solving: `_steer` runs its blocks, asserting each exit
    (`_take_exit`); raises the SymExecError that stops it.  Every call
    starts at the root, so a path that is empty or starts elsewhere raises
    ValueError."""
    blocks = path.blocks
    if not blocks or blocks[0] != cfg.root:
        raise ValueError("a block sequence starts at the root")
    state = SymbolicState(dict(base_storage), code, deadline, "")
    ahead = iter(blocks[1:])

    def choose(block, operands: tuple[Word, ...]) -> int | None:
        block_id = next(ahead, None)
        if block_id is not None:
            _take_exit(state, block, operands, block_id)
        return block_id

    _steer(cfg, state, choose, deadline, len(blocks))
    return state


# Blocks witness replay or the constructor pre-run may run before it is
# abandoned.
STEER_BLOCK_LIMIT = 4096


def _steer(cfg: Cfg, state: SymbolicState,
           choose: Callable[[Any, tuple], int | None],
           deadline: float | None, budget: int) -> list[int]:
    """The one loop that runs a single block sequence: a path's trace, the
    constructor pre-run and witness replay.  Runs blocks from the root over
    `state` with `_run_body`, each next block the one `choose(block,
    operands)` names, until it names none; returns the blocks run.  A
    terminal block ends its call (`end_call`); the first block and the
    root after a terminal block start one (after a CALL block the root
    continues the call).  The clock is read every 16 blocks.  Raises
    SymExecError past `budget` blocks, or at an offset that starts no block."""
    state.begin_transaction()
    taken = [cfg.root]
    while True:
        block = cfg.blocks[taken[-1]]
        operands = _run_body(state, cfg, block)
        terminal = block.terminator is Terminator.TERMINAL
        if terminal:
            state.end_call()
        block_id = choose(block, operands)
        if block_id is None:
            return taken
        if block_id not in cfg.blocks:
            raise SymExecError(f"jumped to unknown offset {block_id}")
        if len(taken) == budget:
            raise SymExecError("exceeded block budget")
        if terminal and block_id == cfg.root:
            state.begin_transaction()
        taken.append(block_id)
        if not len(taken) & 0xF:
            check_deadline(deadline)


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

class WitnessState(SymbolicState):
    """The symbolic machine in witness mode, as concolic execution runs it
    (DART, CUTE): each word the trace leaves free is the witness's
    constant, read under the trace's own name for it, an absent name
    reading zero.  So every operand is a constant: the block runner folds
    each operator into one constant without `mk`, each JUMPI is decided by
    its value, and `_charge` charges every area; a SHA3 hashes its constant
    words directly, so no compound term is built.  A base-storage term
    is evaluated under the witness, and an SLOAD gives the constant the
    key holds.  The ADDRESS word is an object of its own, so BALANCE reads
    the contract's balance for it alone, as in the trace (where an SLOAD
    never gives it back), and a value test still compares it by value."""

    def __init__(self, base_storage: dict[Word, Word], code: bytes,
                 deadline: float | None, witness: dict[str, int]) -> None:
        self.witness = witness
        super().__init__(base_storage, code, deadline, "")
        self.address = self.word("ADDRESS")

    def word(self, name: str) -> Word:
        return const(self.witness.get(name, 0))

    def sload(self, key: Word) -> Word:
        word = self.entry_read(key)  # every key is a constant
        return Word._make(word) if word is self.address else word

    def _base_read(self, key: Word) -> Word:
        word = self.base_storage.get(key)
        if word is None:
            return self.word(f"STORAGE@{key}")
        return const(eval_word(word, self.witness, self.deadline))


def replay_blocks(cfg: Cfg, code: bytes, witness: dict[str, int],
                  base_storage: dict[Word, Word], call_count: int,
                  deadline: float | None = None) -> tuple[int, ...]:
    """Run `call_count` calls of the machine in witness mode (`WitnessState`,
    steered by `_steer`) and report the block sequence taken: every jump
    and branch goes where the witness sends it.  The clock is also read
    before the first block."""
    check_deadline(deadline)
    state = WitnessState(base_storage, code, deadline, witness)

    def choose(block, operands: tuple[Word, ...]) -> int | None:
        if block.terminator is Terminator.TERMINAL:
            return None if state.txn >= call_count else cfg.root
        if operands and (len(operands) == 1 or operands[1].value):
            return operands[0].value  # a JUMP, or a JUMPI taken
        return block.last.next_offset

    return tuple(_steer(cfg, state, choose, deadline, STEER_BLOCK_LIMIT))


def _slot_witness(state: SymbolicState, witness: dict[str, int],
                  deadline: float | None) -> dict[str, int] | None:
    """`witness` completed for witness mode's storage names.  The trace
    names an unwritten slot by its key's term (`STORAGE@sha3(CALLER#1,
    0x0)`), witness mode by the key's value (`STORAGE@0x…`), so each slot
    the trace read under a key that is not a constant gets that value's
    name too, with the value the witness gives the term's name if it is
    not the zero an absent name reads.  None if two of the trace's keys
    meet at one slot with different values."""
    slots: dict[str, int] = {}
    for key, word in state.storage_var_cache.items():
        if key in state.base_storage:
            continue  # the constructor's word, which witness mode evaluates
        value, name = witness.get(word.name, 0), word.name
        if not key.is_concrete:
            name = f"STORAGE@{const(eval_word(key, witness, deadline))}"
        if slots.setdefault(name, value) != value:
            return None
    return {**{name: value for name, value in slots.items() if value}, **witness}


def execute_path(cfg: Cfg, code: bytes, path,
                 base_storage: dict[Word, Word], solver,
                 solver_timeout_ms: int = SOLVER_TIMEOUT_MS,
                 deadline: float | None = None) -> tuple[SymbolicState | None, Feasibility]:
    """Execute one gated path and decide its feasibility.  A `deadline`
    passed while tracing, re-checking or replaying makes it unknown, and so
    does a term the trace cannot build within the bounds of `node`."""
    try:
        state = trace_path(cfg, code, path, base_storage, deadline)
    except (DeadlinePassed, TermTooDeep) as exc:  # neither says anything about the path
        return None, Feasibility(FeasibilityStatus.UNKNOWN, reason=str(exc))
    except (StackUnderflow, StackOverflow) as exc:
        return None, Feasibility(FeasibilityStatus.INFEASIBLE, reason=f"malformed path: {exc}")
    except SymExecError as exc:
        return None, Feasibility(FeasibilityStatus.INFEASIBLE, reason=str(exc))

    try:
        result = solver.check(state.path_condition, solver_timeout_ms)
        if result.status != "sat":
            status = FeasibilityStatus.INFEASIBLE if result.status == "unsat" \
                else FeasibilityStatus.UNKNOWN
            return state, Feasibility(status, reason=result.reason)
        witness = dict(result.model or {})
        for cond in state.path_condition:
            if eval_word(cond, witness, deadline) == 0:
                return state, Feasibility(FeasibilityStatus.UNKNOWN,
                                          reason="witness failed re-check")
        witness = _slot_witness(state, witness, deadline)
        if witness is None:
            return state, Feasibility(FeasibilityStatus.UNKNOWN,
                                      reason="witness gives one storage slot two values")
        taken = replay_blocks(cfg, code, witness, base_storage, path.call_count, deadline)
    except (DeadlinePassed, TimeoutError):
        return state, Feasibility(FeasibilityStatus.UNKNOWN, reason="deadline passed")
    except SymExecError as exc:
        return state, Feasibility(FeasibilityStatus.UNKNOWN,
                                  reason=f"witness replay failed: {exc}")
    if taken != path.blocks:
        return state, Feasibility(FeasibilityStatus.UNKNOWN,
                                  reason="witness replay diverged from path")
    return state, Feasibility(FeasibilityStatus.FEASIBLE, witness=witness)


# ---------------------------------------------------------------------------
# Constructor pre-run
# ---------------------------------------------------------------------------

def run_constructor(creation_cfg: Cfg | None, code: bytes | None,
                    deadline: float | None = None,
                    ) -> tuple[dict[Word, Word], list[str]]:
    """Execute the constructor's main path; returns (storage, diagnostics).

    Constructor arguments stay symbolic.  The walk is steered (`_steer`)
    like a replay, but chooses each next block itself: at a branch with a
    symbolic condition it prefers the branch that does not revert.  If the
    walk enters a block more than 64 times, runs past STEER_BLOCK_LIMIT
    blocks, `deadline` passes or a term passes the bounds of `node`, the
    result is empty (all-symbolic) storage.
    """
    if creation_cfg is None or code is None:
        return {}, []
    # constructor runs in its own deployment transaction, in its own namespace
    state = SymbolicState({}, code, deadline, "c")
    blocks = creation_cfg.blocks
    visits = {creation_cfg.root: 1}

    def choose(block, operands: tuple[Word, ...]) -> int | None:
        last = block.last
        if block.terminator is Terminator.TERMINAL:
            if last.mnemonic in ("RETURN", "STOP"):
                return None
            raise ConstructorDiverged(f"constructor main path ends in {last.mnemonic}")
        block_id = last.next_offset
        jump = bool(operands)
        if len(operands) == 2:  # JUMPI
            target, cond = operands
            if cond.is_concrete:
                jump = bool(cond.value)
            else:  # prefer the branch that does not revert
                taken = blocks.get(target.value or 0) if target.is_concrete else None
                fall = blocks.get(block_id)
                jump = (fall is None or fall.last.mnemonic == "REVERT") if taken is None \
                    else taken.last.mnemonic != "REVERT"
        if jump:
            if not operands[0].is_concrete:
                raise ConstructorDiverged("symbolic jump target in constructor")
            block_id = operands[0].value or 0
        visits[block_id] = visits.get(block_id, 0) + 1
        if visits[block_id] > 64:
            raise ConstructorDiverged("constructor walk looped")
        return block_id

    try:
        _steer(creation_cfg, state, choose, deadline, STEER_BLOCK_LIMIT)
    except SymExecError as exc:
        return {}, [f"constructor pre-run abandoned: {exc}"]
    return state.final_storage(), []


# ---------------------------------------------------------------------------
# Transfer-value refinement
# ---------------------------------------------------------------------------

def refine_transfer_values(state: SymbolicState) -> list[tuple[ExternalRecord, int | str]]:
    """Resolve each outgoing transfer to a concrete amount where possible."""
    return [(rec, rec.amount) for rec in state.records]
