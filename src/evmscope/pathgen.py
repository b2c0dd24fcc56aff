"""Bounded unfolding of the CFG into concrete program paths.

A path is a walk from the root that crosses a new-transaction boundary each
time a terminating block finishes, until the call-depth budget is spent; the
walk then ends at its final terminating block.  Loop traversal is limited by
counting back-edges within each call segment, and the total block count per
path is capped.  Re-entrant callback edges exist in the CFG but are not
forked into separate paths by default: a re-entrant call sequence visits the
same blocks as the equivalent chain of whole transactions, which the
unfolding already covers (storage persists across segments downstream).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .cfg import Cfg, EdgeKind, Terminator

VIA_INITIAL = "initial"
VIA_NEW_TRANSACTION = "new_transaction"
VIA_EXTERNAL_CALLBACK = "external_callback"


@dataclass(frozen=True)
class PathBounds:
    call_depth: int = 3
    loop_bound: int = 5
    max_blocks: int = 60
    wall_time: float = 60.0

    def __post_init__(self) -> None:
        for name in ("call_depth", "loop_bound", "max_blocks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.wall_time <= 0:
            raise ValueError("wall_time must be positive")


@dataclass(frozen=True)
class ProgramPath:
    blocks: tuple[int, ...]
    call_count: int
    functions: tuple[tuple[int | str | None, str], ...]  # (selector/fallback/None, via)
    money_related: bool
    block_capped: bool = False  # ended early because max_blocks forbade another segment

    @property
    def length(self) -> int:
        """Ranking length: the number of function calls in the path."""
        return self.call_count

    def segments(self) -> list[tuple[int, ...]]:
        root = self.blocks[0]
        out: list[tuple[int, ...]] = []
        current: list[int] = []
        for b in self.blocks:
            if b == root and current:
                out.append(tuple(current))
                current = []
            current.append(b)
        if current:
            out.append(tuple(current))
        return out


class PathEnumeration:
    """Iterator over ProgramPath; inspect `timed_out` after exhaustion.

    The walk is one depth-first search with an explicit stack.  The path is
    a shared block list, appended to on entering a block and truncated on
    leaving it; the current call segment's visit and loop-edge counts are
    undone the same way, so each tree node costs O(1) plus its successors.
    """

    def __init__(self, cfg: Cfg, bounds: PathBounds,
                 include_reentrant: bool = False,
                 deadline: float | None = None):
        self.cfg = cfg
        self.bounds = bounds
        self.include_reentrant = include_reentrant
        self.deadline = deadline
        self.timed_out = False
        self.emitted = 0

    def _moves(self) -> dict[int, tuple[tuple[int, bool], ...] | None]:
        """Per block: None if it ends a transaction, else its successors in
        visiting order as (destination, is external callback), reversed for
        pushing onto the stack."""
        moves: dict[int, tuple[tuple[int, bool], ...] | None] = {}
        for block_id, block in self.cfg.blocks.items():
            if block.terminator is Terminator.TERMINAL:
                moves[block_id] = None
                continue
            edges = sorted(self.cfg.successors(block_id), key=lambda e: (e.dst, e.kind.value))
            moves[block_id] = tuple(
                (e.dst, e.kind is EdgeKind.EXTERNAL_CALLBACK) for e in reversed(edges)
                if e.kind is not EdgeKind.NEW_TRANSACTION
                and (self.include_reentrant or e.kind is not EdgeKind.EXTERNAL_CALLBACK))
        return moves

    def __iter__(self) -> Iterator[ProgramPath]:
        cfg, bounds, deadline = self.cfg, self.bounds, self.deadline
        root, call_depth = cfg.root, bounds.call_depth
        loop_bound, max_blocks = bounds.loop_bound, bounds.max_blocks
        entry_names = {block: name for name, block in cfg.function_entries.items()}
        money_blocks = cfg.money_blocks
        moves = self._moves()

        blocks: list[int] = []
        functions: list[tuple[int | str | None, str]] = []
        visits: dict[int, int] = {}  # blocks of the current call segment
        loops: dict[tuple[int, int], int] = {}  # its back-edges taken
        outer: list[tuple[dict, dict]] = []  # the same for the segments below it
        money = 0  # money blocks on the path
        # To enter: (block, via, back-edge); `via` opens a new call segment.
        # None leaves the block entered last, whose undo record is in `entered`.
        todo: list = [(root, VIA_INITIAL, None)]
        entered: list[tuple[str | None, tuple[int, int] | None, bool]] = []
        steps = 0
        while todo:
            item = todo.pop()
            if item is None:
                via, loop, named = entered.pop()
                block_id = blocks.pop()
                if block_id in money_blocks:
                    money -= 1
                if via is not None:
                    functions.pop()
                    visits, loops = outer.pop()
                    continue
                visits[block_id] -= 1
                if loop is not None:
                    loops[loop] -= 1
                if named:
                    functions[-1] = (None, functions[-1][1])
                continue

            steps += 1
            if deadline is not None and not steps & 0xFF and time.monotonic() > deadline:
                self.timed_out = True
                return
            block_id, via, loop = item
            if via is not None:
                outer.append((visits, loops))
                visits, loops = {}, {}
                functions.append((None, via))
            elif loop is not None:
                loops[loop] = loops.get(loop, 0) + 1
            blocks.append(block_id)
            visits[block_id] = visits.get(block_id, 0) + 1
            if block_id in money_blocks:
                money += 1
            named = functions[-1][0] is None and block_id in entry_names
            if named:
                functions[-1] = (entry_names[block_id], functions[-1][1])
            entered.append((via, loop, named))
            todo.append(None)

            successors = moves[block_id]
            call_count = len(functions)
            if successors is None:  # the transaction ends here
                if call_count >= call_depth or len(blocks) >= max_blocks:
                    self.emitted += 1
                    yield ProgramPath(blocks=tuple(blocks), call_count=call_count,
                                      functions=tuple(functions), money_related=money > 0,
                                      block_capped=call_count < call_depth)
                else:
                    todo.append((root, VIA_NEW_TRANSACTION, None))
                continue
            if len(blocks) >= max_blocks:
                continue
            # A child is checked when pushed: by the time it is popped, its
            # earlier siblings' subtrees are undone, so the state is the same.
            for dst, callback in successors:
                if callback:
                    if call_count < call_depth:
                        todo.append((dst, VIA_EXTERNAL_CALLBACK, None))
                elif visits.get(dst):
                    edge = (block_id, dst)
                    if loops.get(edge, 0) < loop_bound:
                        todo.append((dst, None, edge))
                else:
                    todo.append((dst, None, None))


def enumerate_paths(cfg: Cfg, bounds: PathBounds,
                    include_reentrant: bool = False,
                    deadline: float | None = None) -> PathEnumeration:
    return PathEnumeration(cfg, bounds, include_reentrant, deadline)


def filter_money(paths: Iterator[ProgramPath], cfg: Cfg,
                 payable_entries: set[int | str] | None = None) -> Iterator[ProgramPath]:
    """Keep money-related paths.

    When the contract contains no money-related opcode at all, the contract
    can never send Ether; paths reaching a payable entry are passed through
    instead so the black-hole analyzer can inspect them.
    """
    has_money = bool(cfg.money_blocks)
    payable = payable_entries or set()
    for path in paths:
        if has_money:
            if path.money_related:
                yield path
        else:
            if any(sel in payable for sel, _via in path.functions if sel is not None):
                yield path
