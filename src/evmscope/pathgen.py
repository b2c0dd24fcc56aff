"""Bounded unfolding of the CFG into concrete program paths.

A path is a sequence of whole calls, *pieces*, until the call-depth budget
is spent: each a walk from the root to the terminal block that ends it,
along no edge that leaves the call (`cfg.CALL_EXITS`), since a callee's call
back in visits the same blocks as the chain of whole calls the unfolding
already lists (storage persists across calls downstream).  Loop traversal
is limited by counting back-edges within each call, and the total block
count per path is capped.
The root's pieces are found once, by a depth-first search of one segment,
and paths are their concatenations in lexicographic piece order, which is
the order of a depth-first search over whole paths.  Whether a piece fits
depends only on its length and on the blocks and calls before it, so path
counts and the max-gas path are computed over (blocks so far, calls so
far) states, and a selection builds only the paths it keeps, one at a
time.

There is one depth-first search over the piece tree, `walk`, and it
threads a value down the tree as it goes: `select` threads none, and the
trace (`symexec.execute_paths`) threads the symbolic state, so a path runs
only its last piece past the state its prefix left.  The pieces come in
depth-first order, so each records the prefix it shares with the next
piece of the list, and no later piece shares more with it: a piece's
trace saves its branch states inside that prefix for the siblings after
it.

A `ProgramPath` is its blocks and its calls, one selector each (None for a
call that passes no function entry): its call count, the ranking length,
is the number of calls, and `filter_money` tests its blocks against
the CFG's money blocks.  A path the unfolding builds also carries the pieces
it is made of, so that what holds of a piece (its gas, its labels, whether
it takes Ether in) is found once per piece rather than once per path; it
still equals, and hashes like, the `ProgramPath` of its blocks and calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

from .cfg import CALL_EXITS, Cfg, Terminator


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
        if not 0 < self.wall_time < math.inf:  # NaN fails both comparisons
            raise ValueError("wall_time must be positive and finite")


class ProgramPath(NamedTuple):
    """Its blocks, and per call the selector or fallback it enters, or None."""
    blocks: tuple[int, ...]
    functions: tuple[int | str | None, ...]
    pieces = ()  # a hand-built path has none; see _Unfolded

    @property
    def call_count(self) -> int:
        return len(self.functions)


class _Piece(NamedTuple):
    """One whole call, from the root to a terminal block."""
    blocks: tuple[int, ...]
    selector: int | str | None  # the first function entry it passes
    money: bool  # it runs a money block
    length: int  # its blocks: all that decides where it fits
    shared: int  # the blocks it shares with the next piece of the list; 0 for the last
    index: int  # its place in the list


class _Unfolded(ProgramPath):
    """A path the unfolding built: its `pieces` sit in its instance dict, so
    equality and hashing stay those of its blocks and calls."""


def _unfolded(blocks: tuple[int, ...], functions: tuple, pieces: tuple[_Piece, ...],
              ) -> ProgramPath:
    # cheaper than the NamedTuple's own constructor, a Python function
    path = tuple.__new__(_Unfolded, (blocks, functions))
    path.pieces = pieces
    return path


# Where the next piece goes: (blocks so far, calls so far including the one
# it makes).
_State = tuple[int, int]
_FIRST: _State = (0, 1)


def _every(_piece: _Piece) -> bool:
    return True


def _runs_money(piece: _Piece) -> bool:
    return piece.money


class PathEnumeration:
    """Iterator over ProgramPath; inspect `timed_out` after exhaustion.

    The pieces are found on first use and kept, so iteration, `count`,
    `max_gas_path` and `select` share one segment search.  A search or
    a walk that passes `deadline` stops and sets `timed_out`; a walk has
    then yielded a prefix of the unfolding, and once the piece search was
    cut short nothing is built or counted.
    """

    def __init__(self, cfg: Cfg, bounds: PathBounds, deadline: float | None):
        self.cfg = cfg
        self.bounds = bounds
        self.deadline = deadline
        self.timed_out = False
        self._pieces: list[_Piece] | None = None
        # per reachable state, the state after each piece length that fits
        # there (None: the path ends with that piece); longest prefix first
        self._next: dict[_State, dict[int, _State | None]] = {}
        # per piece marker, by identity: (the marker, held so that its id is
        # not reused, its `_counts`)
        self._marked: dict[int, tuple[Callable, dict]] = {}

    def _moves(self) -> dict[int, tuple[int, ...] | None]:
        """Per block: None if it ends a transaction, else the destinations
        of its edges within the call in visiting order, reversed for
        pushing onto the stack.  A destination is one move however many
        edges reach it (a JUMPI whose target is its own fallthrough)."""
        moves: dict[int, tuple[int, ...] | None] = {}
        for block_id, block in self.cfg.blocks.items():
            if block.terminator is Terminator.TERMINAL:
                moves[block_id] = None
                continue
            moves[block_id] = tuple(sorted({e.dst for e in self.cfg.successors(block_id)
                                            if e.kind not in CALL_EXITS}, reverse=True))
        return moves

    def _tables(self) -> list[_Piece] | None:
        """The root's pieces in depth-first order, and the composition
        states; None once the deadline has cut the search short."""
        if self._pieces is None and not self.timed_out:
            self._pieces = self._segment(self._moves())
            if self._pieces is None:
                self.timed_out = True
                return None
            self._plan()
        return self._pieces

    def _segment(self, moves) -> list[_Piece] | None:
        """Depth-first search of one call segment from the root, with its
        own visit and loop-edge counts; a piece ends at each terminal block
        reached.  Blocks are capped as for a piece that starts the path.
        The block list and counts are undone on leaving a block, so each
        tree node costs O(1) plus its successors."""
        loop_bound, max_blocks = self.bounds.loop_bound, self.bounds.max_blocks
        deadline = self.deadline
        entry_names = {block: name for name, block in self.cfg.function_entries.items()}
        money_blocks = self.cfg.money_blocks

        found: list[tuple] = []  # each piece's fields up to its length
        shared: list[int] = []  # per piece, the blocks it shares with the one before
        low = 0  # the fewest blocks on `blocks` since the last piece was found
        blocks: list[int] = []
        visits: dict[int, int] = {}
        loops: dict[tuple[int, int], int] = {}  # back-edges taken
        entered: list[tuple[int, int] | None] = []  # the back-edge into each block on `blocks`
        # To enter: (block, back-edge); None leaves the block entered last.
        # A piece is found with its own blocks on `blocks`, so the fewest
        # blocks there since the piece before is the prefix the two share.
        todo: list = [(self.cfg.root, None)]
        steps = 0
        while todo:
            item = todo.pop()
            if item is None:
                visits[blocks.pop()] -= 1
                if len(blocks) < low:
                    low = len(blocks)
                loop = entered.pop()
                if loop is not None:
                    loops[loop] -= 1
                continue
            steps += 1
            if deadline is not None and not steps & 0xFF and time.monotonic() > deadline:
                return None
            block_id, loop = item
            if loop is not None:
                loops[loop] = loops.get(loop, 0) + 1
            blocks.append(block_id)
            visits[block_id] = visits.get(block_id, 0) + 1
            entered.append(loop)
            todo.append(None)

            successors = moves[block_id]
            if successors is None:  # the transaction ends here
                shared.append(low)
                found.append((tuple(blocks),
                              next((entry_names[b] for b in blocks if b in entry_names), None),
                              not money_blocks.isdisjoint(blocks), len(blocks)))
                low = len(blocks)
                continue
            if len(blocks) >= max_blocks:
                continue
            # A child is checked when pushed: by the time it is popped, its
            # earlier siblings' subtrees are undone, so the state is the same.
            for dst in successors:
                if visits.get(dst):
                    edge = (block_id, dst)
                    if loops.get(edge, 0) < loop_bound:
                        todo.append((dst, edge))
                else:
                    todo.append((dst, None))
        shared.append(0)
        return [_Piece(*fields, after, index)
                for index, (fields, after) in enumerate(zip(found, shared[1:]))]

    def _plan(self) -> None:
        """Fill `_next` from the first state: after L blocks and j calls, a
        piece of n blocks fits if L + n - 1 < max_blocks.  A path ends after
        it once the calls reach call_depth or the blocks reach max_blocks."""
        call_depth, max_blocks = self.bounds.call_depth, self.bounds.max_blocks
        lengths = dict.fromkeys(p.length for p in self._pieces)
        found: dict[_State, dict] = {}
        todo = [_FIRST]
        while todo:
            state = todo.pop()
            if state in found:
                continue
            length, calls = state
            here = found[state] = {}
            for n in lengths:
                end = length + n
                if end > max_blocks:
                    continue
                if calls >= call_depth or end >= max_blocks:
                    here[n] = None
                    continue
                here[n] = (end, calls + 1)
                todo.append(here[n])
        # a piece adds at least one block, so every state comes after the
        # states it leads to
        self._next = {state: found[state]
                      for state in sorted(found, key=lambda s: s[0], reverse=True)}

    def _fold(self, weigh: Callable, join: Callable, extend: Callable) -> dict:
        """Per state, the `join` of the values of the paths that complete it:
        `weigh(index, piece)` values a piece alone (`index`: its place among
        the pieces), and `extend(value, rest)` a piece followed by the rest
        of a path.  A dead state, where no piece fits, gets None and adds
        nothing to the states before it; a path end is no state."""
        weights: dict[int, object] = {}
        for index, p in enumerate(self._pieces):
            value = weigh(index, p)
            weights[p.length] = join(weights[p.length], value) if p.length in weights else value
        values: dict[_State, object] = {}
        for state, here in self._next.items():
            total = None
            for n, after in here.items():
                value = weights[n]
                if after is not None:
                    if values[after] is None:
                        continue
                    value = extend(value, values[after])
                total = value if total is None else join(total, value)
            values[state] = total
        return values

    def _counts(self, marked: Callable[[_Piece], bool]) -> dict[_State, tuple[int, int] | None]:
        """Per state: the paths that complete it, and how many of those
        have no marked piece; None where none does.  Folded once per
        marker: a walk and the counts of its marker share one fold."""
        found = self._marked.get(id(marked))
        if found is None:
            found = self._marked[id(marked)] = (marked, self._fold(
                lambda _index, p: (1, 0 if marked(p) else 1),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
                lambda w, rest: (w[0] * rest[0], w[1] * rest[1])))
        return found[1]

    def count(self, marked: Callable[[_Piece], bool] = _every) -> int:
        """The number of paths with a marked piece, by default every path,
        without building them; 0 once the piece search was cut short."""
        if self._tables() is None:
            return 0
        counts = self._counts(marked)[_FIRST]
        return 0 if counts is None else counts[0] - counts[1]

    def max_gas_path(self, block_costs: Mapping[int, int]) -> tuple[int, ProgramPath | None]:
        """The greatest path gas, the sum of its blocks' costs, and the first
        path in unfolding order that has it; (0, None) when no path costs
        more than 0.  No other path is built."""
        if self._tables() is None:
            return 0, None
        # (gas, -index of the first piece, the pieces): the rest of a path
        # depends only on its pieces' lengths, so per length only the first
        # piece of greatest gas can win
        best = self._fold(
            lambda index, p: (sum(map(block_costs.__getitem__, p.blocks)), -index, (p,)),
            max,
            lambda w, rest: (w[0] + rest[0], w[1], w[2] + rest[2]))
        choice = best[_FIRST]
        if choice is None or choice[0] <= 0:
            return 0, None
        return choice[0], self._path(choice[2])

    def _path(self, pieces: tuple[_Piece, ...]) -> ProgramPath:
        return _unfolded(tuple(b for p in pieces for b in p.blocks),
                         tuple(p.selector for p in pieces), pieces)

    def __iter__(self) -> Iterator[ProgramPath]:
        return self.select(_every)

    def money_marker(self, payable_entries: set[int | str]) -> Callable[[_Piece], bool]:
        """The piece test of `filter_money`: a piece runs a money block, or,
        in a contract without one, enters a payable entry."""
        if self.cfg.money_blocks:
            return _runs_money
        return lambda p: p.selector is not None and p.selector in payable_entries

    def pieces(self) -> list[_Piece]:
        """The root's pieces, in depth-first order; none once the piece
        search was cut short."""
        return self._tables() or []

    def select(self, marked: Callable[[_Piece], bool]) -> Iterator[ProgramPath]:
        """The paths with at least one `marked` piece, in unfolding order, each
        built when asked for."""
        return (path for path, _value in self.walk(marked, None, None))

    def walk(self, marked: Callable[[_Piece], bool], step: Callable | None,
             start: object) -> Iterator[tuple[ProgramPath, object]]:
        """The one depth-first search over the piece tree: yields `(path,
        value)` for each path with at least one `marked` piece, in unfolding
        order, each built when asked for.  The value is threaded down the
        tree: `start` at the root, then `step(value, piece)` for each piece
        entered, given the value of the pieces before it; without a step it
        stays `start`.  A node's children are entered in list order, each
        subtree whole before the next, and a subtree with no kept path is
        not entered."""
        pieces = self._tables()
        if pieces is None:
            return
        nexts, counts = self._next, self._counts(marked)
        deadline = self.deadline
        options: dict[_State, list[tuple]] = {}

        def fitting(state: _State) -> list[tuple]:
            """Per piece that fits at `state`, in list order: (the piece,
            whether it is marked, the state after it, the path counts there),
            the last two None where the path ends with it; a piece that
            leaves a dead state is left out."""
            here, found = nexts[state], []
            for p in pieces:
                after = here.get(p.length, False)
                if after is None:
                    found.append((p, marked(p), None, None))
                elif after is not False and counts[after] is not None:
                    found.append((p, marked(p), after, counts[after]))
            options[state] = found
            return found

        # (its pieces still to try, the path's blocks, functions and pieces
        # so far, whether it has a marked piece, the value threaded down)
        frames = [(iter(fitting(_FIRST)), (), (), (), False, start)]
        steps = 0
        while frames:
            choices, blocks, functions, done, kept, value = frames[-1]
            for p, mark, after, rest in choices:
                steps += 1
                if deadline is not None and not steps & 0xFF and time.monotonic() > deadline:
                    self.timed_out = True
                    return
                keep = kept or mark
                if after is None:
                    if keep:
                        yield (_unfolded(blocks + p.blocks, functions + (p.selector,),
                                         done + (p,)),
                               value if step is None else step(value, p))
                    continue
                if rest[0] > (0 if keep else rest[1]):
                    frames.append((iter(options.get(after) or fitting(after)),
                                   blocks + p.blocks, functions + (p.selector,),
                                   done + (p,), keep,
                                   value if step is None else step(value, p)))
                    break
            else:
                frames.pop()


def enumerate_paths(cfg: Cfg, bounds: PathBounds, *,
                    deadline: float | None = None) -> PathEnumeration:
    return PathEnumeration(cfg, bounds, deadline)


def filter_money(paths: Iterator[ProgramPath], cfg: Cfg,
                 payable_entries: set[int | str] | None = None) -> Iterator[ProgramPath]:
    """Keep money-related paths.

    When the contract contains no money-related opcode at all, the contract
    can never send Ether; paths reaching a payable entry are passed through
    instead so the black-hole analyzer can inspect them.
    """
    money_blocks = cfg.money_blocks
    payable = payable_entries or set()
    for path in paths:
        if money_blocks:
            if not money_blocks.isdisjoint(path.blocks):
                yield path
        elif not payable.isdisjoint(path.functions):
            yield path
