"""The front end as it stood before instructions became tuples: linear
disassembly into a frozen dataclass per instruction, and the whole CFG
recovery of `cfg.build_cfg` (blocks, static edges, stack simulation to a
fixpoint, the dispatcher walk).

`reference_disassemble` and `reference_build_cfg` keep the former code
verbatim in behaviour, over their own instruction, block, edge and graph
classes; only the opcode table (`isa`) and the two enumerations are
shared.  The front end under test must give the identical blocks, edges,
dangling jumps, diagnostics and function entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from evmscope import isa
from evmscope.cfg import FALLBACK, EdgeKind, Terminator

MAX_SIM_PATHS = 10_000

TOP = object()


@dataclass(frozen=True)
class RefInstruction:
    offset: int
    info: isa.OpcodeInfo
    immediate: int | None = None

    @property
    def next_offset(self) -> int:
        return self.offset + 1 + self.info.immediate_bytes

    @property
    def mnemonic(self) -> str:
        return self.info.mnemonic


def reference_disassemble(code: bytes) -> list[RefInstruction]:
    out: list[RefInstruction] = []
    offset = 0
    n = len(code)
    while offset < n:
        info = isa.TABLE[code[offset]]
        if info.immediate_bytes:
            raw = code[offset + 1:offset + 1 + info.immediate_bytes]
            if len(raw) < info.immediate_bytes:
                raw = raw + b"\x00" * (info.immediate_bytes - len(raw))
            out.append(RefInstruction(offset, info, int.from_bytes(raw, "big")))
        else:
            out.append(RefInstruction(offset, info))
        offset += 1 + info.immediate_bytes
    return out


@dataclass(frozen=True)
class RefEdge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass
class RefBlock:
    id: int
    first_offset: int
    last_offset: int
    instructions: list[RefInstruction]
    terminator: Terminator

    @property
    def label(self) -> str:
        return f"Node_{self.first_offset}_{self.last_offset}"

    @property
    def last(self) -> RefInstruction:
        return self.instructions[-1]


@dataclass
class RefDiagnostic:
    code: str
    message: str
    offset: int | None


class RefCfg:
    def __init__(self, blocks: dict[int, RefBlock], root: int) -> None:
        self.blocks = blocks
        self.root = root
        self.edges: set[RefEdge] = set()
        self.function_entries: dict[int | str, int] = {}
        self.dangling: set[int] = set()
        self.diagnostics: list[RefDiagnostic] = []
        self._succ: dict[int, list[RefEdge]] = {}
        self._pred: dict[int, list[RefEdge]] = {}

    def successors(self, block_id: int) -> list[RefEdge]:
        return self._succ.get(block_id, [])

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        edge = RefEdge(src, dst, kind)
        if edge in self.edges:
            return False
        self.edges.add(edge)
        self._succ.setdefault(src, []).append(edge)
        self._pred.setdefault(dst, []).append(edge)
        return True

    def add_diagnostic(self, code: str, message: str, offset: int | None) -> None:
        diagnostic = RefDiagnostic(code, message, offset)
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


def reference_build_blocks(instructions: list[RefInstruction]) -> dict[int, RefBlock]:
    last = instructions[-1]
    if last.mnemonic != "JUMP" and not last.info.is_terminal:
        instructions = instructions + [RefInstruction(last.next_offset, isa.TABLE[0x00])]
    blocks: dict[int, RefBlock] = {}
    current: list[RefInstruction] = []

    def flush(terminator: Terminator) -> None:
        nonlocal current
        if not current:
            return
        first = current[0].offset
        blocks[first] = RefBlock(first, first, current[-1].offset, current, terminator)
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
            flush(Terminator.FALL_THROUGH)
    flush(Terminator.FALL_THROUGH)
    return blocks


def _connect_static(blocks: dict[int, RefBlock]) -> RefCfg:
    cfg = RefCfg(blocks, min(blocks))
    ordered = sorted(blocks)
    follower = dict(zip(ordered, ordered[1:]))
    for block in blocks.values():
        if block.terminator is Terminator.FALL_THROUGH:
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
                continue
            cfg.add_edge(block.id, target, kind)
    return cfg


def _static_target(block: RefBlock) -> int | None:
    if len(block.instructions) < 2:
        return None
    prev = block.instructions[-2]
    if prev.info.is_push:
        return prev.immediate or 0
    return None


def _is_jumpdest(blocks: dict[int, RefBlock], offset: int) -> bool:
    target = blocks.get(offset)
    return target is not None and target.instructions[0].mnemonic == "JUMPDEST"


def _simulate_block(block: RefBlock, stack: list) -> tuple[list, object]:
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
                stack = [TOP] * len(stack)
        elif name == "JUMP":
            target = pop()
        elif name == "JUMPI":
            target = pop()
            pop()
        else:
            args = [pop() for _ in range(info.stack_pops)]
            if info.stack_pushes:
                op = isa.OPERATORS.get(name)
                stack.append(op(*args) if op is not None and TOP not in args else TOP)
    return stack, target


def _jump_targets(cfg: RefCfg, target: int, cap: int) -> set | None:
    within = {target}
    todo = [target]
    while todo:
        for edge in cfg._pred.get(todo.pop(), ()):
            if edge.src not in within:
                within.add(edge.src)
                todo.append(edge.src)
    targets: set = set()
    found = 0
    on_path: set[int] = set()
    entries: list[tuple[int, list | None]] = [(cfg.root, [])]
    while entries:
        node, stack = entries.pop()
        if stack is None:
            on_path.remove(node)
            continue
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
            if edge.dst in within and edge.dst not in on_path:
                entries.append((edge.dst, stack))
    return targets


def _stack_simulate(cfg: RefCfg) -> None:
    while True:
        reachable = cfg.reachable_from_root()
        progress = False
        for block_id in [b for b in sorted(cfg.dangling) if b in reachable]:
            block = cfg.blocks[block_id]
            targets = _jump_targets(cfg, block_id, MAX_SIM_PATHS)
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


def _dispatch_selector(block: RefBlock) -> int | None:
    if block.terminator is not Terminator.COND_JUMP:
        return None
    push4 = None
    saw_eq = False
    for ins in block.instructions:
        if ins.mnemonic == "PUSH4" and ins.immediate != 0xFFFFFFFF:
            push4 = ins.immediate
        elif ins.mnemonic == "EQ" and push4 is not None:
            saw_eq = True
    return push4 if saw_eq else None


def _discover_functions(cfg: RefCfg) -> None:
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
                fallback = taken
            if fall is None:
                break
            block_id = fall
            continue
        if block.terminator is Terminator.JUMP and not found_dispatch and taken is not None:
            block_id = taken
            continue
        fallback = block_id if found_dispatch or fallback is None else fallback
        break
    if not found_dispatch:
        cfg.add_diagnostic("no_dispatcher", "no selector dispatch template found; "
                           "treating all code as fallback", None)
        entries = {FALLBACK: cfg.root}
    else:
        entries[FALLBACK] = fallback if fallback is not None else cfg.root
    cfg.function_entries = entries


def reference_build_cfg(instructions: list[RefInstruction]) -> RefCfg:
    cfg = _connect_static(reference_build_blocks(instructions))
    _stack_simulate(cfg)
    _discover_functions(cfg)
    return cfg
