"""Control-flow-graph recovery for EVM bytecode.

Construction runs in four stages: linear disassembly is split into basic
blocks; statically decidable edges are wired (constant jump targets, fall
throughs, the new-transaction edge from every terminating block back to the
root, and the callback edge from every external-call block back to the root);
indirect jumps are then resolved by simulating the operand stack along
root-to-block paths; resolution repeats to a fixpoint because each resolved
jump can make further dangling blocks reachable.  The simulation stops once
the analysis deadline passes, leaving the jumps not yet simulated unresolved.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cached_property

from . import isa
from .disasm import Instruction

# Guard against pathological dispatchers: stack simulation enumerates at most
# this many acyclic root-to-block paths per dangling block.
MAX_SIM_PATHS = 10_000

TOP = object()  # lattice top: statically unknown stack slot


class EdgeKind(enum.Enum):
    SEQUENTIAL = "sequential"
    DIRECT_JUMP = "direct_jump"
    INDIRECT_JUMP = "indirect_jump"
    COND_TAKEN = "cond_taken"
    COND_FALLTHROUGH = "cond_fallthrough"
    EXTERNAL_CALLBACK = "external_callback"
    NEW_TRANSACTION = "new_transaction"


# the edges that leave a call for the root, which no jump target survives; a
# tuple, since an enum member hashes in Python and a set test is slower
CALL_EXITS = (EdgeKind.NEW_TRANSACTION, EdgeKind.EXTERNAL_CALLBACK)


class Terminator(enum.Enum):
    FALL_THROUGH = "fall_through"
    JUMP = "jump"
    COND_JUMP = "cond_jump"
    CALL = "call"
    TERMINAL = "terminal"


FALLBACK = "<fallback>"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass
class BasicBlock:
    id: int  # first_offset doubles as the identifier
    first_offset: int
    last_offset: int
    instructions: list[Instruction]
    terminator: Terminator

    @property
    def label(self) -> str:
        return f"Node_{self.first_offset}_{self.last_offset}"

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]

    @property
    def is_money_related(self) -> bool:
        return any(ins.info.is_money_related for ins in self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label}>"


@dataclass
class Diagnostic:
    code: str
    message: str
    offset: int | None


class Cfg:
    def __init__(self, blocks: dict[int, BasicBlock], root: int, edges: set[Edge]) -> None:
        self.blocks = blocks
        self.root = root
        self.edges = edges
        self.function_entries: dict[int | str, int] = {}
        self.dangling: set[int] = set()
        self.diagnostics: list[Diagnostic] = []
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}
        # compiled block plans by block id, filled by symbolic execution on
        # first use; they live as long as the graph
        self.plans: dict = {}

    def successors(self, block_id: int) -> list[Edge]:
        return self._succ.get(block_id, [])

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        edge = Edge(src, dst, kind)
        if edge in self.edges:
            return False
        self.edges.add(edge)
        self._succ.setdefault(src, []).append(edge)
        self._pred.setdefault(dst, []).append(edge)
        return True

    def add_diagnostic(self, code: str, message: str, offset: int | None) -> None:
        diagnostic = Diagnostic(code, message, offset)
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def reachable_from_root(self) -> set[int]:
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            for e in self.successors(b):
                if e.dst not in seen:
                    stack.append(e.dst)
        return seen

    @cached_property
    def money_blocks(self) -> set[int]:
        """Found on first read: a graph's blocks are complete once built."""
        return {b.id for b in self.blocks.values() if b.is_money_related}


def build_blocks(instructions: list[Instruction]) -> dict[int, BasicBlock]:
    """Split the disassembly into basic blocks.

    Boundaries: JUMP/JUMPI and terminal instructions end a block; JUMPDEST
    starts one; the instruction after a call-class opcode starts one.  The
    entry block begins at offset 0 whether or not that is a JUMPDEST.
    Running past the end of the code is STOP (Yellow Paper): unless the last
    instruction is JUMP or terminal, a STOP follows it at its next offset.
    """
    if not instructions:
        raise ValueError("cannot build blocks from an empty instruction list")
    last = instructions[-1]
    if last.mnemonic != "JUMP" and not last.info.is_terminal:
        instructions = instructions + [Instruction(last.next_offset, isa.lookup(0x00))]
    blocks: dict[int, BasicBlock] = {}
    current: list[Instruction] = []

    def flush(terminator: Terminator) -> None:
        nonlocal current
        if not current:
            return
        first = current[0].offset
        blocks[first] = BasicBlock(
            id=first,
            first_offset=first,
            last_offset=current[-1].offset,
            instructions=current,
            terminator=terminator,
        )
        current = []

    for ins in instructions:
        info = ins.info
        if info.mnemonic == "JUMPDEST" and current:
            flush(Terminator.FALL_THROUGH)
        current.append(ins)
        if info.mnemonic == "JUMP":
            flush(Terminator.JUMP)
        elif info.mnemonic == "JUMPI":
            flush(Terminator.COND_JUMP)
        elif info.is_terminal:
            flush(Terminator.TERMINAL)
        elif info.is_call:
            flush(Terminator.CALL)
    flush(Terminator.FALL_THROUGH)
    return blocks


def connect_static(blocks: dict[int, BasicBlock]) -> Cfg:
    """Wire all edges that are decidable without simulating the stack."""
    root = min(blocks)
    cfg = Cfg(blocks, root, set())
    ordered = sorted(blocks)
    # every block that does not end in JUMP or a terminal instruction has
    # one: the code ends in one of those or in the implicit STOP
    follower = dict(zip(ordered, ordered[1:]))

    for block in blocks.values():
        if block.terminator is Terminator.TERMINAL:
            # A finished transaction can always be followed by a new one.
            cfg.add_edge(block.id, root, EdgeKind.NEW_TRANSACTION)
        elif block.terminator is Terminator.CALL:
            # The foreign callee may call back into any function of this
            # contract, so the call block targets the root as well.
            cfg.add_edge(block.id, root, EdgeKind.EXTERNAL_CALLBACK)
            cfg.add_edge(block.id, follower[block.id], EdgeKind.SEQUENTIAL)
        elif block.terminator is Terminator.FALL_THROUGH:
            cfg.add_edge(block.id, follower[block.id], EdgeKind.SEQUENTIAL)
        elif block.terminator in (Terminator.JUMP, Terminator.COND_JUMP):
            is_cond = block.terminator is Terminator.COND_JUMP
            if is_cond:
                cfg.add_edge(block.id, follower[block.id], EdgeKind.COND_FALLTHROUGH)
            target = _static_target(block)
            if target is None:
                cfg.dangling.add(block.id)
                continue
            kind = EdgeKind.COND_TAKEN if is_cond else EdgeKind.DIRECT_JUMP
            if not _is_jumpdest(blocks, target):
                cfg.add_diagnostic("malformed_target", f"{block.label} jumps to 0x{target:x} "
                                   "which is not a JUMPDEST", block.last_offset)
                cfg.add_edge(block.id, root, EdgeKind.NEW_TRANSACTION)
                continue
            cfg.add_edge(block.id, target, kind)
    return cfg


def _static_target(block: BasicBlock) -> int | None:
    """Constant jump target when the preceding instruction pushes it."""
    if len(block.instructions) < 2:
        return None
    prev = block.instructions[-2]
    if prev.info.is_push:
        return prev.immediate or 0
    return None


def _is_jumpdest(blocks: dict[int, BasicBlock], offset: int) -> bool:
    target = blocks.get(offset)
    return target is not None and target.instructions[0].mnemonic == "JUMPDEST"


def _simulate_block(block: BasicBlock, stack: list) -> tuple[list, object]:
    """Apply a block's stack effect in the {constant, TOP} lattice.

    A word operator (`isa.OPERATORS`) folds when all its arguments are
    constants; anything else the lattice cannot express becomes TOP.
    Underflow slots read as TOP: the initial stack of a path suffix is
    unknown.  Returns the resulting stack and the popped jump target when
    the block ends in JUMP/JUMPI.
    """
    stack = list(stack)
    target: object = None

    def pop() -> object:
        return stack.pop() if stack else TOP

    for ins in block.instructions:
        info = ins.info
        name = info.mnemonic
        if info.is_push:
            stack.append(ins.immediate or 0)
        elif name.startswith("DUP"):
            n = info.byte_value - 0x80 + 1
            stack.append(stack[-n] if len(stack) >= n else TOP)
        elif name.startswith("SWAP"):
            n = info.byte_value - 0x90 + 1
            if len(stack) >= n + 1:
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            else:
                # depth unknown below the modelled part: havoc what we have
                stack = [TOP] * len(stack)
        elif name == "JUMP":
            target = pop()
        elif name == "JUMPI":
            target = pop()
            pop()  # condition
        else:
            args = [pop() for _ in range(info.stack_pops)]
            if info.stack_pushes:  # never more than one word here
                op = isa.OPERATORS.get(name)
                stack.append(op(*args) if op is not None and TOP not in args else TOP)
    return stack, target


def _jump_targets(cfg: Cfg, target: int, cap: int, deadline: float | None) -> set | None:
    """The jump targets that simulating the stack along each acyclic
    root-to-target block path gives `target`, TOP among them when some path
    leaves it unknown; None once more than `cap` paths reach it.  Raises
    TimeoutError once `deadline` passes (read at the first entry and every
    256th).

    One depth-first search carries the simulated stack down, so a prefix
    shared by many paths is simulated once; the blocks on the path are a
    set, undone on leaving a block.  Only blocks that reach the target
    without a `CALL_EXITS` edge are entered: the paths run through them alone."""
    within = {target}
    todo = [target]
    while todo:
        for edge in cfg._pred.get(todo.pop(), ()):
            if edge.kind not in CALL_EXITS and edge.src not in within:
                within.add(edge.src)
                todo.append(edge.src)
    targets: set = set()
    found = entered = 0
    on_path: set[int] = set()
    # (block, stack at its entry) to enter; (block, None) leaves it
    entries: list[tuple[int, list | None]] = [(cfg.root, [])]
    while entries:
        node, stack = entries.pop()
        if stack is None:
            on_path.remove(node)
            continue
        if deadline is not None and not entered & 0xFF and time.monotonic() > deadline:
            raise TimeoutError
        entered += 1
        stack, top = _simulate_block(cfg.blocks[node], stack)
        if node == target:
            found += 1
            if found > cap:
                return None
            targets.add(top)
            continue
        on_path.add(node)
        entries.append((node, None))
        for edge in cfg.successors(node):
            if edge.kind not in CALL_EXITS and edge.dst in within and edge.dst not in on_path:
                entries.append((edge.dst, stack))
    return targets


def stack_simulate(cfg: Cfg, deadline: float | None) -> Cfg:
    """Resolve dangling indirect jumps by constant propagation along paths.

    Repeats until no further progress, because adding an indirect-jump edge
    can make new blocks (and new dangling blocks) reachable from the root.
    A block whose target is unknown on some path keeps any edges that were
    found, stays in the dangling set, and is reported once.  Once `deadline`
    passes, the blocks of the round not yet simulated are reported and left
    unresolved.
    """
    while True:
        reachable = cfg.reachable_from_root()
        progress = False
        order = [b for b in sorted(cfg.dangling) if b in reachable]
        for index, block_id in enumerate(order):
            block = cfg.blocks[block_id]
            try:
                targets = _jump_targets(cfg, block_id, MAX_SIM_PATHS, deadline)
            except TimeoutError:
                for late in order[index:]:
                    cfg.add_diagnostic(
                        "unresolved_indirect_jump",
                        f"{cfg.blocks[late].label}: deadline passed during stack "
                        f"simulation; jump left unresolved",
                        cfg.blocks[late].last_offset)
                return cfg
            if targets is None:
                cfg.add_diagnostic(
                    "unresolved_indirect_jump",
                    f"{block.label}: more than {MAX_SIM_PATHS} paths during stack "
                    f"simulation; jump left unresolved",
                    block.last_offset)
                continue
            unresolved = TOP in targets
            targets.discard(TOP)
            for target in sorted(targets):
                if _is_jumpdest(cfg.blocks, target):
                    if cfg.add_edge(block_id, target, EdgeKind.INDIRECT_JUMP):
                        progress = True
                else:
                    cfg.add_diagnostic(
                        "malformed_target",
                        f"{block.label}: simulated target 0x{target:x} is not a JUMPDEST",
                        block.last_offset)
            if unresolved:
                cfg.add_diagnostic(
                    "unresolved_indirect_jump",
                    f"{block.label}: jump target is statically unknown on some path",
                    block.last_offset)
            else:
                cfg.dangling.discard(block_id)
                progress = True
        if not progress:
            break
    return cfg


_SELECTOR_MASK = 0xFFFFFFFF


def _dispatch_selector(block: BasicBlock) -> int | None:
    """Selector compared in a dispatcher block (PUSH4 k ... EQ ... JUMPI)."""
    if block.terminator is not Terminator.COND_JUMP:
        return None
    push4 = None
    saw_eq = False
    for ins in block.instructions:
        if ins.mnemonic == "PUSH4" and ins.immediate != _SELECTOR_MASK:
            push4 = ins.immediate
        elif ins.mnemonic == "EQ" and push4 is not None:
            saw_eq = True
    return push4 if saw_eq else None


def discover_functions(cfg: Cfg) -> dict[int | str, int]:
    """Walk the compiler's dispatcher template from the root.

    Each block comparing the calldata selector against a PUSH4 constant maps
    that selector to its conditional-jump target; the chain's final fall
    through (or the short-calldata jump target) is the fallback entry.
    """
    entries: dict[int | str, int] = {}
    block_id = cfg.root
    fallback: int | None = None
    visited: set[int] = set()
    found_dispatch = False
    while block_id not in visited:
        visited.add(block_id)
        block = cfg.blocks[block_id]
        taken = next((e.dst for e in cfg.successors(block_id)
                      if e.kind in (EdgeKind.COND_TAKEN, EdgeKind.INDIRECT_JUMP)), None)
        fall = next((e.dst for e in cfg.successors(block_id)
                     if e.kind in (EdgeKind.COND_FALLTHROUGH, EdgeKind.SEQUENTIAL)), None)
        if block.terminator is Terminator.COND_JUMP:
            sel = _dispatch_selector(block)
            if sel is not None and taken is not None:
                entries[sel] = taken
                found_dispatch = True
            elif fallback is None and taken is not None:
                # calldatasize check: the taken branch is the fallback path
                fallback = taken
            if fall is None:
                break
            block_id = fall
            continue
        if block.terminator is Terminator.JUMP and not found_dispatch and taken is not None:
            block_id = taken
            continue
        # no further comparisons: this block starts the fallback body
        fallback = block_id if found_dispatch or fallback is None else fallback
        break
    if not found_dispatch:
        cfg.add_diagnostic("no_dispatcher", "no selector dispatch template found; "
                           "treating all code as fallback", None)
        entries = {FALLBACK: cfg.root}
    else:
        entries[FALLBACK] = fallback if fallback is not None else cfg.root
    cfg.function_entries = entries
    return entries


def build_cfg(instructions: list[Instruction], deadline: float | None = None) -> Cfg:
    """Full pipeline: blocks, static edges, stack simulation (until
    `deadline`), function map."""
    blocks = build_blocks(instructions)
    cfg = connect_static(blocks)
    stack_simulate(cfg, deadline)
    discover_functions(cfg)
    return cfg


def to_dot(cfg: Cfg) -> str:
    """DOT rendering; money-related nodes are filled black like the figures."""
    lines = ["digraph cfg {", '  node [shape=box, fontname="monospace"];']
    reachable = cfg.reachable_from_root()
    for block_id in sorted(cfg.blocks):
        if block_id not in reachable:
            continue
        block = cfg.blocks[block_id]
        style = ""
        if block.is_money_related:
            style = ', style=filled, fillcolor=black, fontcolor=white'
        elif block_id == cfg.root:
            style = ', shape=diamond, color=red'
        elif block_id in cfg.function_entries.values():
            style = ', color=blue'
        lines.append(f'  n{block_id} [label="{block.label}"{style}];')
    for edge in sorted(cfg.edges, key=lambda e: (e.src, e.dst, e.kind.value)):
        if edge.src not in reachable:
            continue
        attr = {
            EdgeKind.NEW_TRANSACTION: ' [style=dashed, color=red]',
            EdgeKind.EXTERNAL_CALLBACK: ' [style=dotted, color=red]',
        }.get(edge.kind, "")
        lines.append(f"  n{edge.src} -> n{edge.dst}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
