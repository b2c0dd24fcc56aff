"""Bounded symbolic execution of program paths.

Words are finite terms over per-transaction free variables (caller, call
value, calldata, timestamp, block number, balances, foreign-call returns,
unknown storage) and the EVM operator set, modular 2**256; each is a
tuple underneath, and `node` builds each compound one within MAX_DEPTH
and MAX_SIZE.  Executing a path walks its block sequence, asserting each
branch condition (or its negation) into the path condition; each call
starts at the CFG root in a fresh environment, while storage persists.
One piece runner (`_piece_runner`) turns the state at a piece boundary
into the state after the piece.  The trace of an unfolding
(`execute_paths`) drives it down the piece tree the unfolding walks, so
each piece runs once per node it hangs from, siblings share the blocks
their pieces share, and a whole call runs once per state it starts from;
paths that share a call share its `ExternalRecord`s, which resolve their
own target and amount once.  `trace_path` folds the same runner over one
path.
`SymbolicState` is the symbolic machine: it holds what a path has built
and runs the instructions.  One block runner, `_run_body`, executes each
block over it from a plan compiled once, checking the stack against the
plan's static bounds once, at block entry, and never per instruction.
Feasibility is decided by a pluggable constraint backend; a satisfying
witness is re-validated by replaying the path on plain ints: `Replay` runs
the same compiled plans, reading every value the symbolic walk leaves free
from the witness, and `_steer`, the one steering loop, picks each next
block from the jump operands.  Memory is keyed by word offset in both
runners, and a copy of untracked data or a call's return data clears it.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
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
    return Word(op, args, None, None, meta, depth + 1, size + 1)


def const(value: int) -> Word:
    return Word("const", value=value % WORD_MOD)


def var(name: str) -> Word:
    return Word("var", name=name)


ZERO = const(0)
ONE = const(1)


def concrete_op(name: str, vals: list[int]) -> int:
    """Concrete semantics of one EVM operator, result reduced mod 2**256."""
    fn = isa.OPERATORS.get(name)
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


def eval_word(w: Word, env: dict[str, int], deadline: float | None = None) -> int:
    """Concrete evaluation; unassigned variables read as zero.  Hashing a
    long preimage raises TimeoutError once `deadline` has passed."""
    if w.op == "const":
        return w.value or 0
    if w.op == "var":
        return env.get(w.name or "", 0) % WORD_MOD
    if w.op == "sload":
        return eval_word(w.args[0], env, deadline)
    if w.op == "ite":
        cond = eval_word(w.args[0], env, deadline)
        return eval_word(w.args[1] if cond else w.args[2], env, deadline)
    if w.op == "sha3":
        length = int(w.meta or 0)
        data = b"".join(eval_word(a, env, deadline).to_bytes(32, "big") for a in w.args)
        return int.from_bytes(keccak256(data[:length], deadline), "big")
    return concrete_op(w.op, [eval_word(a, env, deadline) for a in w.args])


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


@dataclass
class SymbolicState:
    """The symbolic machine: what a path has built, and a handler for each
    kind of instruction run over it.  Stack and memory belong to the current
    call; storage writes, balance, the call counter and the records carry
    across calls, and a REVERT truncates both lists at `call_start`.
    Environment reads give per-transaction variables and untracked reads
    fresh ones; `Replay` is the concrete counterpart that reads them all
    from a witness."""
    stack: list[Word] = field(default_factory=list)
    memory: dict[int, Word] = field(default_factory=dict)
    storage_writes: list[tuple[Word, Word]] = field(default_factory=list)
    base_storage: dict[Word, Word] = field(default_factory=dict)
    path_condition: list[Word] = field(default_factory=list)
    balance: Word = field(default_factory=lambda: var("BALANCE0"))
    txn: int = 0
    txn_prefix: str = ""
    records: list[ExternalRecord] = field(default_factory=list)
    fresh_counter: int = 0
    storage_var_cache: dict[Word, Word] = field(default_factory=dict)
    mem_unknown: bool = False    # memory was written through an unknown pointer
    call_start: tuple[int, int] = (0, 0)  # (storage writes, records) before this call
    code: bytes = b""            # what CODESIZE and CODECOPY read
    deadline: float | None = None  # time.monotonic() value; None: no limit

    def fork(self) -> SymbolicState:
        """An independent copy.  Words are immutable, so shallow copies of
        the containers suffice; base storage, the storage-variable cache,
        the code and the deadline stay shared, since none of them changes
        what a read returns."""
        twin = SymbolicState.__new__(SymbolicState)
        twin.__dict__.update(self.__dict__)
        twin.stack = self.stack.copy()
        twin.memory = self.memory.copy()
        twin.storage_writes = self.storage_writes.copy()
        twin.path_condition = self.path_condition.copy()
        twin.records = self.records.copy()
        return twin

    @property
    def txn_label(self) -> str:
        return f"{self.txn_prefix}{self.txn}"

    def fresh(self, tag: str) -> Word:
        self.fresh_counter += 1
        return var(f"{tag}.{self.fresh_counter}")

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

    def _base_read(self, key: Word) -> Word:
        if key in self.base_storage:
            return self.base_storage[key]
        if key not in self.storage_var_cache:
            self.storage_var_cache[key] = var(f"STORAGE@{key}")
        return self.storage_var_cache[key]

    def final_storage(self) -> dict[Word, Word]:
        merged = dict(self.base_storage)
        for key, value in self.storage_writes:
            merged[key] = value
        return merged

    def begin_transaction(self) -> None:
        self.txn += 1
        self.stack = []
        self.memory = {}
        self.mem_unknown = False
        self.call_start = (len(self.storage_writes), len(self.records))
        self.balance = mk("ADD", self.balance, var(f"CALLVALUE#{self.txn_label}"))

    def _mem_words(self, offset: int, length: int) -> list[Word]:
        _expand_memory(offset, length)
        words = []
        for i in range(0, max(length, 0), 32):
            word = self.memory.get(offset + i)
            if word is None:
                word = self.fresh(f"MEM#{self.txn_label}") if self.mem_unknown else ZERO
            words.append(word)
        return words

    # -- instruction handlers ----------------------------------------------
    # `handler(state, ins, operand)`: the operand is decoded once per
    # instruction by `compile_instruction`.  The block runner has checked
    # the stack against the block's bounds, so no handler checks it.

    def _operator(self, ins: Instruction, operator: tuple) -> None:
        name, fn, pops = operator
        stack = self.stack
        args = [stack.pop() for _ in range(pops)]
        for a in args:  # closed arguments fold through `fn`, the rest go to `mk`
            if a.op != "const":
                stack.append(mk(name, *args))
                return
        stack.append(const(fn(*[a.value or 0 for a in args])))

    def _opaque_read(self, ins: Instruction, pops: int) -> None:
        del self.stack[len(self.stack) - pops:]
        self.stack.append(self.fresh(ins.info.mnemonic))

    def _env_read(self, ins: Instruction, tag: str) -> None:
        self.stack.append(var(f"{tag}#{self.txn_label}"))

    def _address(self, ins: Instruction, operand: None) -> None:
        self.stack.append(_ADDRESS)

    def _sha3(self, ins: Instruction, operand: None) -> None:
        stack = self.stack
        offset, length = stack.pop(), stack.pop()
        if offset.is_concrete and length.is_concrete:
            words = self._mem_words(offset.value or 0, length.value or 0)
            term = node("sha3", tuple(words), length.value or 0)
            if all(w.is_concrete for w in words):
                try:
                    term = const(eval_word(term, {}, self.deadline))
                except TimeoutError as exc:
                    raise DeadlinePassed(str(exc)) from None
            stack.append(term)
        else:
            stack.append(self.fresh(f"SHA3#{self.txn_label}"))

    def _balance(self, ins: Instruction, operand: None) -> None:
        target = self.stack.pop()
        if target.op == "var" and target.name == "ADDRESS":
            self.stack.append(self.balance)
        else:
            self.stack.append(self.fresh(f"EXTBAL#{self.txn_label}"))

    def _calldataload(self, ins: Instruction, operand: None) -> None:
        offset = self.stack.pop()
        if offset.is_concrete:
            self.stack.append(var(f"CALLDATA#{self.txn_label}@{offset.value}"))
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
            self.memory.clear()
            self.mem_unknown = True

    def _copy_unknown(self, ins: Instruction, pops: int) -> None:
        """CALLDATACOPY, RETURNDATACOPY, EXTCODECOPY: data the model does not track."""
        del self.stack[len(self.stack) - pops:]
        self.memory.clear()
        self.mem_unknown = True

    def _mload(self, ins: Instruction, operand: None) -> None:
        offset = self.stack.pop()
        if offset.is_concrete and (offset.value or 0) in self.memory:
            self.stack.append(self.memory[offset.value or 0])
        else:
            # fresh-counter use must match between symbolic and replay runs
            self.stack.append(self.fresh(f"MEM#{self.txn_label}"))

    def _mstore(self, ins: Instruction, operand: None) -> None:
        offset, value = self.stack.pop(), self.stack.pop()
        if offset.is_concrete:
            self.memory[offset.value or 0] = value
        else:
            # write through an unknown pointer: all recorded words are stale
            self.memory.clear()
            self.mem_unknown = True

    def _mstore8(self, ins: Instruction, operand: None) -> None:
        offset = self.stack[-1]  # an MSTORE of an unknown word over the byte's word
        if offset.is_concrete:
            self.stack[-2:] = (self.fresh(f"MEM#{self.txn_label}"),
                               const((offset.value or 0) & ~31))
        self._mstore(ins, operand)

    def _sload(self, ins: Instruction, operand: None) -> None:
        self.stack.append(self.sload(self.stack.pop()))

    def _sstore(self, ins: Instruction, operand: None) -> None:
        key, value = self.stack.pop(), self.stack.pop()
        self.storage_writes.append((key, value))

    def _call(self, ins: Instruction, pops: int) -> None:
        """CALL, CALLCODE, DELEGATECALL, STATICCALL."""
        name = ins.info.mnemonic
        # gas, target, [value,] then four memory operands
        args = [self.stack.pop() for _ in range(pops)]
        value = args[2] if name in ("CALL", "CALLCODE") else None
        self.records.append(ExternalRecord(name, ins.offset, self.txn, args[1], value))
        if name == "CALL":
            self.balance = mk("SUB", self.balance, value)
        if args[-1] != ZERO:  # the return data overwrites the output area
            self.memory.clear()
            self.mem_unknown = True
        self.stack.append(self.fresh(f"XRET#{self.txn_label}"))

    def _create(self, ins: Instruction, operand: None) -> None:
        value = self.stack.pop()
        del self.stack[-2:]
        self.records.append(ExternalRecord("CREATE", ins.offset, self.txn, None, value))
        self.stack.append(self.fresh(f"XADDR#{self.txn_label}"))

    def _selfdestruct(self, ins: Instruction, operand: None) -> None:
        target = self.stack.pop()
        self.records.append(ExternalRecord("SELFDESTRUCT", ins.offset, self.txn,
                                           target, self.balance))


# ---------------------------------------------------------------------------
# Block plans
# ---------------------------------------------------------------------------

# Opcodes whose only effect on the modelled state is popping their operands.
_POP_ONLY = frozenset({"POP", "LOG0", "LOG1", "LOG2", "LOG3", "LOG4",
                       "RETURN", "REVERT", "STOP", "JUMPDEST", "INVALID"})
# Reads of values the model does not track: every use is a fresh word.
_OPAQUE_READS = frozenset({"EXTCODESIZE", "BLOCKHASH", "RETURNDATASIZE", "MSIZE", "GAS"})
# Transaction environment: one variable per transaction.
_ENV_READS = frozenset({"ORIGIN", "CALLER", "CALLVALUE", "CALLDATASIZE", "GASPRICE",
                        "COINBASE", "TIMESTAMP", "NUMBER", "DIFFICULTY", "GASLIMIT"})
# The one symbolic constant for the contract's own address, so that BALANCE
# can tell it from every other word.
_ADDRESS = var("ADDRESS")


def check_deadline(deadline: float | None) -> None:
    """Raise DeadlinePassed once `deadline` (a time.monotonic() value) has
    passed; None sets no limit."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlinePassed("deadline passed")


def _expand_memory(offset: int, length: int) -> None:
    """Halt as out of gas if memory would grow past MEMORY_CAP."""
    if length > 0 and offset + length > MEMORY_CAP:
        raise OutOfGas(f"memory up to byte {offset + length} exceeds the block gas limit")


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
}

# The stack moves a plan marks instead of naming a handler; both block
# runners make them inline.  The operand of a PUSH is its word, of a DUP or
# SWAP its depth, of a POP the number of words popped.
_PUSH, _DUP, _SWAP, _POP = "PUSH", "DUP", "SWAP", "POP"
# The handler replay makes inline too.
_OPERATOR = SymbolicState._operator


def _handler_entry(info: isa.OpcodeInfo) -> tuple:
    """(handler, operand) of one opcode: a stack-move mark, a SymbolicState
    handler, or None where the opcode leaves the modelled state as it is.
    PUSHn and PC get their operand, the constant they push, per instruction."""
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

    This is the one symbolic block runner: the path walk and the constructor
    pre-run differ only in how they choose the next block from the
    operands; `_replay_body` runs the same plans on ints.  A REVERT rolls
    back the call here, whatever block follows: the storage writes and
    records made since the call's `call_start` are dropped.

    The stack is checked once, at entry, against the plan's bounds: a block
    entered below the depth it needs or too close to STACK_LIMIT halts
    there, as the EVM halts at one of its instructions.  Within the bounds
    no instruction can under- or overflow the stack, so PUSH, DUP, SWAP and
    the pop-only opcodes work on the list directly, the other opcodes go
    through their handlers, and the exit pops its operands unchecked."""
    ops, jump_pops, reverts, need, grow = _plan(cfg, block)
    stack = state.stack
    if len(stack) < need:
        raise StackUnderflow("pop from empty stack")
    if len(stack) + grow > STACK_LIMIT:
        raise StackOverflow("stack limit exceeded")
    append = stack.append
    for handler, ins, operand in ops:
        if handler is _PUSH:
            append(operand)
        elif handler is _DUP:
            append(stack[-operand])
        elif handler is _SWAP:
            stack[-1], stack[-operand - 1] = stack[-operand - 1], stack[-1]
        elif handler is _POP:
            del stack[-operand:]
        else:
            handler(state, ins, operand)
    if jump_pops:
        return (stack.pop(),) if jump_pops == 1 else (stack.pop(), stack.pop())
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


# A cap on the entries the call memo of one walk holds in its lists
# (conditions, records and storage writes): a call that would pass it is
# not stored, and runs again under each node that reaches it.
MEMO_ENTRIES = MEMORY_CAP // 32


class _CallDelta(NamedTuple):
    """A call summary: what one whole-call piece changed, stored under the
    state it started from."""
    conditions: list[Word]           # the path condition it added
    records: list[ExternalRecord]    # the records it left
    storage_writes: list[tuple[Word, Word]]  # the whole write list after it
    balance: Word
    fresh_counter: int
    entry_balance: Word              # held, so that no other word takes its id


def _after_call(entry: SymbolicState, delta: _CallDelta) -> SymbolicState:
    """The state the call stored as `delta` leaves, run from `entry`, a
    state at a call start: its stack and memory are empty.  The key leaves
    out how many records came before (a SELFDESTRUCT adds one and changes
    nothing else), so `call_start` is taken from `entry`'s own lists."""
    state = SymbolicState.__new__(SymbolicState)
    state.__dict__.update(entry.__dict__)
    state.stack, state.memory = [], {}
    state.call_start = (len(entry.storage_writes), len(entry.records))
    state.txn += 1
    state.path_condition = entry.path_condition + delta.conditions
    state.records = entry.records + delta.records
    state.storage_writes = delta.storage_writes.copy()
    state.balance = delta.balance
    state.fresh_counter = delta.fresh_counter
    return state


class _Node:
    """A piece boundary of a walk: the state the pieces above it leave, and
    what its child pieces share.  Its state is never run on: a child runs
    on a copy, or on a frame an earlier child saved.  A node a stored call
    made holds the state that call started from and the call's delta until
    its state is first asked for, so a leaf of a reused call builds none."""
    __slots__ = ("_state", "delta", "facts", "block", "operands", "calls", "ran", "frames",
                 "failed")

    def __init__(self, state: SymbolicState, block, operands: tuple, facts,
                 delta: _CallDelta | None) -> None:
        self._state = state
        self.delta = delta
        # what the walk's fold made of the pieces above it
        self.facts = facts
        # the block a callback piece leaves and its jump operands, which the
        # next piece continues from; None after a terminal block
        self.block = block
        self.operands = operands
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
            self._state, self.delta = _after_call(self._state, self.delta), None
        return self._state


class _Call(NamedTuple):
    """A call of a hand-built path, run as one piece."""
    blocks: tuple[int, ...]


def _calls(cfg: Cfg, blocks: tuple[int, ...]) -> list[_Call]:
    """A hand-built path split at each call start: the root entered from a
    terminal block.  A callback stays inside the call it interrupts."""
    calls, start = [], 0
    for i in range(1, len(blocks)):
        if blocks[i] == cfg.root and cfg.blocks[blocks[i - 1]].terminator is Terminator.TERMINAL:
            calls.append(_Call(blocks[start:i]))
            start = i
    calls.append(_Call(blocks[start:]))
    return calls


def _piece_runner(cfg: Cfg, code: bytes, base_storage: dict[Word, Word],
                  deadline: float | None, pieces: list | None, facts,
                  ) -> tuple[_Node, Callable[[Any, Any], Any]]:
    """The root node of a walk, and `enter(node, piece)`: it runs `piece`
    from `node` and gives the node below it, or the SymExecError that stops
    the piece (a DeadlinePassed it raises).  `pieces` is the unfolding's
    list, whose pieces a node enters in list order; None, for a walk of
    one path, keeps nothing for another piece.

    Given `facts` (see `execute_paths`), each node's facts are its
    parent's extended by what its piece added: `facts.extend(parent's,
    before, conditions, records)`, `before` being the path condition the
    piece started from.  The root's are `facts.start`.  A REVERT that
    drops records the parent holds (a callback's caller reverting) folds
    the node's whole lists from the start instead.

    A piece resumes from the deepest frame its node's last piece saved
    inside the prefix the two share, or from a copy of the node's state.
    Frames are saved at JUMPI blocks inside the prefix the piece shares
    with the next piece of the list, which is at least what it shares with
    any later one; the last piece to part at a frame takes the frame
    itself.  A piece below the block its node's last piece failed at gets
    that piece's error object.  Right after a terminal block the runner
    empties the stack and memory, as the EVM ends a call's frame there.

    A whole-call piece, from a call start to a terminal block, is stored
    in a memo under its node's head and its index: the call counter, the
    fresh counter, the balance and the storage-write pairs, the last two
    compared by identity, are all a call reads, since its stack and memory
    start empty, no handler reads the path condition or the records, base
    storage and the code are the walk's own, and an unwritten slot reads
    the same word in any state.  Entering a stored piece from an equal
    head gives a node that builds its state from what the piece changed
    (`_CallDelta`) when the state is first asked for, instead of running
    it, so a call reached under many prefixes runs once.  A callback
    piece, and the pieces after it up to the call's end, continue their
    caller's call and are not stored.  The memo holds every object whose identity its
    keys use, and at most MEMO_ENTRIES list entries; a piece that fails is
    not stored.  The clock is read every 16 steps, a step being a block run
    or a stored piece reused."""
    root = _Node(SymbolicState(base_storage=dict(base_storage), balance=var("BALANCE0"),
                               code=code, deadline=deadline), None, (),
                 None if facts is None else facts.start, None)
    fold = None if facts is None else facts.extend
    sharing = pieces is not None
    shared = [p.shared for p in pieces] if sharing else []
    memo: dict[tuple, dict[int, _CallDelta]] = {}  # by head, then piece index
    held = steps = 0  # list entries the memo holds; steps taken

    def enter(node, piece):
        nonlocal held, steps
        if type(node) is not _Node:
            return node  # below a failing block
        blocks, entry, frames = piece.blocks, node.state, node.frames
        whole, keep, common = False, 0, 0
        if sharing:
            index, ran = piece.index, node.ran
            whole = node.block is None and piece.callback is None
            if whole:
                calls = node.calls
                if calls is None:
                    head = (entry.txn, entry.fresh_counter, id(entry.balance),
                            tuple(map(id, entry.storage_writes)))
                    calls = node.calls = memo.get(head)
                    if calls is None:
                        calls = node.calls = memo[head] = {}
                # a piece below a failing block fails under any equal head,
                # so it is never stored
                delta = calls.get(index)
                if delta is not None:
                    steps += 1
                    if not steps & 0xF:
                        check_deadline(deadline)
                    return _Node(entry, None, (), fold and fold(
                        node.facts, entry.path_condition, delta.conditions, delta.records),
                        delta)
            if ran >= 0:
                common = shared[ran] if index == ran + 1 else min(shared[ran:index])
                if node.failed is not None and node.failed[0] < common:
                    return node.failed[1]
                while frames and frames[-1][0] >= common:
                    frames.pop()  # it holds a block this piece does not
            node.ran, node.failed, keep = index, None, piece.shared
        if frames:
            depth, state, operands = frames[-1]
            if depth == common - 1:  # no later piece parts there
                frames.pop()
            else:
                state = state.fork()
            block = cfg.blocks[blocks[depth]]
            depth += 1
        else:
            depth, block, operands = 0, node.block, node.operands
            state = entry.fork() if sharing else entry
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
                if block.terminator is Terminator.TERMINAL:
                    # the call halts, and with it its stack and memory
                    state.stack, state.memory, state.mem_unknown = [], {}, False
                elif depth < keep and len(operands) == 2:
                    frames.append((depth, state.fork(), operands))
        except DeadlinePassed:
            raise
        except SymExecError as error:
            node.failed = (depth, error)
            return error
        below = None
        if fold is not None:
            known, before = len(entry.records), entry.path_condition
            if len(state.records) < known:
                below = fold(root.facts, (), state.path_condition, state.records)
            else:
                below = fold(node.facts, before, state.path_condition[len(before):],
                             state.records[known:])
        if block.terminator is not Terminator.TERMINAL:
            return _Node(state, block, operands, below, None)
        if whole:
            conditions, records = len(entry.path_condition), state.call_start[1]
            size = (len(state.path_condition) - conditions + len(state.records) - records
                    + len(state.storage_writes))
            if held + size <= MEMO_ENTRIES:
                held += size
                calls[index] = _CallDelta(
                    state.path_condition[conditions:], state.records[records:],
                    state.storage_writes.copy(), state.balance, state.fresh_counter,
                    entry.balance)
        return _Node(state, None, (), below, None)

    return root, enter


def execute_paths(cfg: Cfg, code: bytes, unfolding: PathEnumeration,
                  marked: Callable[[Any], bool], base_storage: dict[Word, Word],
                  deadline: float | None = None, facts=None,
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
    runner (`_piece_runner`) makes each child node from its parent: so a
    path runs only its last piece past the nodes above it, and the
    siblings below a node share the blocks their pieces share.  A failure
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
    """The symbolic walk of one path alone, without any solving: the piece
    runner folded over the path's pieces, or over a hand-built path's calls
    (anything with a `blocks` sequence); raises the SymExecError that stops
    it.  Every call starts at the root, so a path that is empty or starts
    elsewhere raises ValueError."""
    blocks = path.blocks
    if not blocks or blocks[0] != cfg.root:
        raise ValueError("a block sequence starts at the root")
    node, enter = _piece_runner(cfg, code, base_storage, deadline, None, None)
    for piece in path.pieces or _calls(cfg, blocks):
        node = enter(node, piece)
        if not isinstance(node, _Node):
            raise node
    return node.state


# Blocks a steered walk (witness replay, constructor pre-run) may run
# before it is abandoned.
STEER_BLOCK_LIMIT = 4096


def _steer(cfg: Cfg, run: Callable[[Any], tuple],
           choose: Callable[[Any, tuple], int | None],
           deadline: float | None) -> list[int]:
    """The one steering loop.  Runs blocks from the root with the block
    runner `run(block)`, which returns the jump operands, each next block
    the one the block before names through `choose(block, operands)`,
    until it names none; returns the blocks run.  The constructor pre-run
    steers the symbolic runner, witness replay the concrete one.  The clock
    is read before every block.  Raises SymExecError past STEER_BLOCK_LIMIT
    blocks, or at an offset that starts no block."""
    taken = [cfg.root]
    while len(taken) <= STEER_BLOCK_LIMIT:
        check_deadline(deadline)
        block = cfg.blocks[taken[-1]]
        block_id = choose(block, run(block))
        if block_id is None:
            return taken
        if block_id not in cfg.blocks:
            raise SymExecError(f"jumped to unknown offset {block_id}")
        taken.append(block_id)
    raise SymExecError("exceeded block budget")


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

class _SelfAddress(int):
    """The contract's own address in a replay.  BALANCE reads the contract's
    balance only for this very word, moved about but not computed on, as
    the symbolic walk does only for its one ADDRESS variable."""


class Replay:
    """The concrete counterpart of `SymbolicState`: it runs the same
    compiled plans on plain ints under a witness.

    Every value the symbolic walk leaves free is read from the witness under
    the name the walk gives it, an absent name reading zero: the
    environment words (`CALLER#1`), calldata words at constant offsets
    (`CALLDATA#1@4`), storage the path never wrote and the constructor left
    unset (`STORAGE@0x0`), and the fresh reads (`MEM#1.2`, `XRET#2.5`,
    `GAS.3`), numbered in the order the walk numbers them.  Memory is keyed
    by word offset, as in the symbolic walk.  Storage writes, the balance
    and the call counter carry across calls; a REVERT returns storage to
    where its call began.  Each handler has the name of the symbolic
    handler it stands for, and like it leaves the stack check to the block
    runner."""

    def __init__(self, code: bytes, witness: dict[str, int],
                 base_storage: dict[Word, Word], deadline: float | None = None):
        self.code = code
        self.witness = witness
        self.base = {key.value: value for key, value in base_storage.items()
                     if key.is_concrete}  # terms, evaluated under the witness when read
        self.deadline = deadline
        self.stack: list[int] = []
        self.memory: dict[int, int] = {}
        self.mem_unknown = False  # an unwritten word reads as a fresh one
        self.storage: dict[int, int] = {}  # the writes of the calls so far
        self.committed: dict[int, int] = {}  # `storage` when this call began
        self.balance = self.read("BALANCE0")
        self.txn = 0
        self.fresh_counter = 0
        self.address = _SelfAddress(self.read("ADDRESS"))

    def begin_transaction(self) -> None:
        self.txn += 1
        self.stack = []
        self.memory = {}
        self.mem_unknown = False
        self.committed = self.storage.copy()
        self.balance = (self.balance + self.read(f"CALLVALUE#{self.txn}")) % WORD_MOD

    def read(self, name: str) -> int:
        return self.witness.get(name, 0) % WORD_MOD

    def fresh(self, tag: str) -> int:
        self.fresh_counter += 1
        return self.read(f"{tag}.{self.fresh_counter}")

    # -- instruction handlers, as in `SymbolicState` --------------------------

    def _opaque_read(self, ins: Instruction, pops: int) -> None:
        del self.stack[len(self.stack) - pops:]
        self.stack.append(self.fresh(ins.info.mnemonic))

    def _env_read(self, ins: Instruction, tag: str) -> None:
        self.stack.append(self.read(f"{tag}#{self.txn}"))

    def _address(self, ins: Instruction, operand: None) -> None:
        self.stack.append(self.address)

    def _sha3(self, ins: Instruction, operand: None) -> None:
        offset, length = self.stack.pop(), self.stack.pop()
        _expand_memory(offset, length)
        memory = self.memory
        if self.mem_unknown:  # as `_mem_words` reads it
            words = [memory[offset + i] if offset + i in memory
                     else self.fresh(f"MEM#{self.txn}") for i in range(0, length, 32)]
        else:
            words = [memory.get(offset + i, 0) for i in range(0, length, 32)]
        data = b"".join(word.to_bytes(32, "big") for word in words)
        try:
            self.stack.append(int.from_bytes(keccak256(data[:length], self.deadline), "big"))
        except TimeoutError as exc:
            raise DeadlinePassed(str(exc)) from None

    def _balance(self, ins: Instruction, operand: None) -> None:
        if type(self.stack.pop()) is _SelfAddress:
            self.stack.append(self.balance)
        else:
            self.stack.append(self.fresh(f"EXTBAL#{self.txn}"))

    def _calldataload(self, ins: Instruction, operand: None) -> None:
        self.stack.append(self.read(f"CALLDATA#{self.txn}@{self.stack.pop()}"))

    def _codesize(self, ins: Instruction, operand: None) -> None:
        self.stack.append(len(self.code))

    def _codecopy(self, ins: Instruction, operand: None) -> None:
        stack = self.stack
        dest, src, length = stack.pop(), stack.pop(), stack.pop()
        _copy_code(self.memory, self.code, dest, src, length, int)

    def _copy_unknown(self, ins: Instruction, pops: int) -> None:
        del self.stack[len(self.stack) - pops:]
        self.memory.clear()
        self.mem_unknown = True

    def _mload(self, ins: Instruction, operand: None) -> None:
        offset = self.stack.pop()
        if offset in self.memory:
            self.stack.append(self.memory[offset])
        else:
            self.stack.append(self.fresh(f"MEM#{self.txn}"))

    def _mstore(self, ins: Instruction, operand: None) -> None:
        offset, value = self.stack.pop(), self.stack.pop()
        self.memory[offset] = value

    def _mstore8(self, ins: Instruction, operand: None) -> None:
        offset, _value = self.stack.pop(), self.stack.pop()
        self.memory[offset & ~31] = self.fresh(f"MEM#{self.txn}")

    def _sload(self, ins: Instruction, operand: None) -> None:
        key = self.stack.pop()
        if key in self.storage:
            self.stack.append(self.storage[key])
        elif key in self.base:
            self.stack.append(eval_word(self.base[key], self.witness, self.deadline))
        else:
            self.stack.append(self.read(f"STORAGE@{hex(key)}"))

    def _sstore(self, ins: Instruction, operand: None) -> None:
        key, value = self.stack.pop(), self.stack.pop()
        self.storage[key] = int(value)  # a storage read is never the ADDRESS word

    def _call(self, ins: Instruction, pops: int) -> None:
        args = [self.stack.pop() for _ in range(pops)]
        if ins.info.mnemonic == "CALL":
            self.balance = (self.balance - args[2]) % WORD_MOD
        if args[-1]:
            self.memory.clear()
            self.mem_unknown = True
        self.stack.append(self.fresh(f"XRET#{self.txn}"))

    def _create(self, ins: Instruction, operand: None) -> None:
        del self.stack[-3:]
        self.stack.append(self.fresh(f"XADDR#{self.txn}"))

    def _selfdestruct(self, ins: Instruction, operand: None) -> None:
        self.stack.pop()


# Each symbolic handler's concrete counterpart, the method of the same name;
# `_replay_body` makes the stack moves and the operators inline.
_CONCRETE = {handler: getattr(Replay, handler.__name__) for handler, _operand in _HANDLERS
             if callable(handler) and handler is not _OPERATOR}


def _replay_body(replay: Replay, cfg: Cfg, block) -> tuple[int, ...]:
    """`_run_body` on ints: execute a block's plan up to its exit and
    return the jump operands it popped.  The stack is checked once, at
    entry, against the plan's bounds, as there; within them PUSH, DUP,
    SWAP, the operators and the pop-only opcodes work on the list directly."""
    ops, jump_pops, reverts, need, grow = _plan(cfg, block)
    stack = replay.stack
    if len(stack) < need:
        raise StackUnderflow("pop from empty stack")
    if len(stack) + grow > STACK_LIMIT:
        raise StackOverflow("stack limit exceeded")
    append, pop = stack.append, stack.pop
    for handler, ins, operand in ops:
        if handler is _PUSH:
            append(operand.value)
        elif handler is _DUP:
            append(stack[-operand])
        elif handler is _SWAP:
            stack[-1], stack[-operand - 1] = stack[-operand - 1], stack[-1]
        elif handler is _OPERATOR:
            fn, pops = operand[1], operand[2]
            if pops == 2:
                append(fn(pop(), pop()))
            elif pops == 1:
                append(fn(pop()))
            else:
                append(fn(pop(), pop(), pop()))
        elif handler is _POP:
            del stack[-operand:]
        else:
            _CONCRETE[handler](replay, ins, operand)
    if jump_pops:
        return (pop(),) if jump_pops == 1 else (pop(), pop())
    if reverts:
        replay.storage = replay.committed.copy()
    return ()


def replay_blocks(cfg: Cfg, code: bytes, witness: dict[str, int],
                  base_storage: dict[Word, Word], call_count: int,
                  deadline: float | None = None) -> tuple[int, ...]:
    """Run `call_count` calls on ints under a witness (`Replay` over the
    compiled plans, steered by `_steer`) and report the block sequence
    taken: every jump and branch goes where the witness sends it."""
    replay = Replay(code, witness, base_storage, deadline)
    replay.begin_transaction()

    def choose(block, operands: tuple[int, ...]) -> int | None:
        if block.terminator is Terminator.TERMINAL:
            if replay.txn >= call_count:
                return None
            replay.begin_transaction()
            return cfg.root
        if operands and (len(operands) == 1 or operands[1]):
            return operands[0]  # a JUMP, or a JUMPI taken
        return block.last.next_offset

    return tuple(_steer(cfg, partial(_replay_body, replay, cfg), choose, deadline))


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

    Constructor arguments stay symbolic.  The walk is steered like a replay,
    but chooses each next block itself: at a branch with a symbolic
    condition it prefers the branch that does not revert.  If the walk
    enters a block more than 64 times, exceeds the steered walks' block
    budget, `deadline` passes or a term passes the bounds of `node`, the
    result is empty (all-symbolic) storage.
    """
    if creation_cfg is None or code is None:
        return {}, []
    # constructor runs in its own deployment transaction, in its own namespace
    state = SymbolicState(txn_prefix="c", code=code, deadline=deadline)
    state.begin_transaction()
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
        _steer(creation_cfg, partial(_run_body, state, creation_cfg), choose, deadline)
    except SymExecError as exc:
        return {}, [f"constructor pre-run abandoned: {exc}"]
    return state.final_storage(), []


# ---------------------------------------------------------------------------
# Transfer-value refinement
# ---------------------------------------------------------------------------

def refine_transfer_values(state: SymbolicState) -> list[tuple[ExternalRecord, int | str]]:
    """Resolve each outgoing transfer to a concrete amount where possible."""
    return [(rec, rec.amount) for rec in state.records]
