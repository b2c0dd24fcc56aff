"""Property rules: transfer limit, non-existing address, guarded suicide,
black hole, and static gas estimation.  Each rule is a fold over what a
path's pieces add and a verdict on the result, so the walk over the piece
tree applies it one piece or call at a time (`PathFacts`, `check_black_hole`
given the unfolding), and a path's violations follow from its leaf alone;
the per-path checkers fold one path's lists.  The paths of one analysis
share pieces, terms and records, so each fact is found once per object it
comes from: per piece, per record (`ExternalRecord` resolves its own target
and amount), or in the analysis's `AnalysisMemo`."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from . import isa
from .cfg import Cfg
from .disasm import Instruction
from .isa import estimate_gas
from .pathgen import ProgramPath, _Piece
from .registry import AddressRegistry, RegistryUnavailable
from .symexec import ExternalRecord, SymbolicState, UNKNOWN_AMOUNT, Word

ADDRESS_MASK = (1 << 160) - 1


class PropertyId(enum.Enum):
    TRANSFER_LIMIT = "transfer_limit"
    NON_EXISTING_ADDRESS = "non_existing_address"
    GUARD_SUICIDE = "guard_suicide"
    BLACK_HOLE = "black_hole"
    MAX_GAS = "max_gas"  # informational only, never a violation


@dataclass(frozen=True)
class PropertyViolation:
    property: PropertyId
    evidence: dict

    def as_dict(self) -> dict:
        ev = {}
        for key, value in sorted(self.evidence.items()):
            if isinstance(value, (set, frozenset)):
                ev[key] = sorted(value)
            else:
                ev[key] = value
        return {"property": self.property.value, "evidence": ev}


class AnalysisMemo:
    """What one analysis learns once for all its paths: each term's guards,
    each address's registry answer (a bool, or the message of the outage
    that kept it), and one violation per distinct evidence, so that a
    report can key violation texts by identity.  A memo serves one analysis
    only."""

    def __init__(self) -> None:
        # per path-condition term, by identity: (the term, held so that its
        # id is not reused, its guard bits: 4 ownership, 8 time)
        self.guards: dict[int, tuple[Word, int]] = {}
        self.addresses: dict[int, bool | str] = {}
        self.violations: dict[tuple, PropertyViolation] = {}

    def violation(self, key: tuple, prop: PropertyId, evidence: dict) -> PropertyViolation:
        """The violation kept under `key`, made from `prop` and `evidence`
        the first time."""
        found = self.violations.get(key)
        if found is None:
            found = self.violations[key] = PropertyViolation(prop, evidence)
        return found


def _spend(remaining: int, exact: bool, amount: int | str) -> tuple[int, bool]:
    """The transfer rule's step: the allowance left after `amount`, and
    whether it is known."""
    if amount == UNKNOWN_AMOUNT:
        # an amount we cannot bound may always break the limit
        return remaining, False
    assert isinstance(amount, int) and amount >= 0
    return remaining - amount, exact


@dataclass
class TransferLedger:
    """Remaining transfer allowance along one path; only ever decreases."""
    limit: int
    remaining: int | None = None  # the whole limit unless given
    exact: bool = True

    def __post_init__(self) -> None:
        if self.remaining is None:
            self.remaining = self.limit

    def spend(self, amount: int | str) -> None:
        self.remaining, self.exact = _spend(self.remaining, self.exact, amount)

    @property
    def violated(self) -> bool:
        return self.remaining < 0 or not self.exact

    def violation(self, memo: AnalysisMemo) -> PropertyViolation | None:
        if not self.violated:
            return None
        remaining = self.remaining if self.exact else UNKNOWN_AMOUNT
        return memo.violation(("transfer_limit", self.limit, remaining), PropertyId.TRANSFER_LIMIT,
                              {"limit": self.limit, "remaining": remaining})


def check_transfer_limit(limit: int, transfers: list[tuple[ExternalRecord, int | str]],
                         memo: AnalysisMemo) -> PropertyViolation | None:
    """Violation iff the summed outgoing amounts can exceed the limit."""
    ledger = TransferLedger(limit)
    for _rec, amount in transfers:
        ledger.spend(amount)
    return ledger.violation(memo)


def _guards(w: Word) -> int:
    """Bits of what `w` holds: 1 a CALLER variable, 2 a storage read, 4 a
    comparison of the two (an ownership guard), 8 a TIMESTAMP or NUMBER
    variable (a time guard), from one walk.  Once bit 4 is set the others
    are dropped: an ownership guard makes a path safe whatever else holds."""
    op = w.op
    if op == "var":
        name = w.name or ""
        return (name.startswith("CALLER") | name.startswith("STORAGE@") << 1
                | name.startswith(("TIMESTAMP", "NUMBER")) << 3)
    if op in ("EQ", "LT", "GT", "SLT", "SGT"):
        left, right = _guards(w.args[0]), _guards(w.args[1])
        return 4 if left & 1 and right & 2 or right & 1 and left & 2 else left | right
    bits = 2 if op == "sload" else 0
    for a in w.args:
        bits |= _guards(a)
        if bits & 4:
            return 4
    return bits


# A path's facts: (the transfer allowance left, whether it is exact, the
# first SELFDESTRUCT's offset or None, the guard bits of its path condition,
# the (offset, address) of each transfer to one constant address, in order)
Facts = tuple[int, bool, int | None, int, tuple[tuple[int, int], ...]]


class PathFacts:
    """The transfer-limit, non-existing-address and guarded-suicide rules,
    each a fold over a path's records and path condition and a verdict on
    what the fold made.  The trace walk folds them call by call
    (`symexec.execute_paths` given these facts): a node's facts are its
    parent's extended by what its last piece added, and a path's
    violations and registry warnings follow from its leaf's facts alone.
    The per-path checkers fold one state's lists in one step.  A rule not
    checked (a None `limit` or `registry`, a false `suicide`) leaves its
    facts as they start."""

    def __init__(self, limit: int | None, registry: AddressRegistry | None, suicide: bool,
                 memo: AnalysisMemo) -> None:
        self.limit = limit
        self.registry = registry
        self.suicide = suicide
        self.memo = memo
        self.start: Facts = (limit or 0, True, None, 0, ())
        self.verdicts: dict[Facts, tuple[list[PropertyViolation], list[str]]] = {}

    def extend(self, facts: Facts, before: list[Word], conditions: list[Word],
               records: list[ExternalRecord]) -> Facts:
        """`facts` and then a piece's: `before` is the path condition it
        started from, `conditions` and `records` what it added.  Guard bits
        are gathered from the first self-destruct on, over the whole path
        condition then, and up to the first ownership guard."""
        remaining, exact, destruct, bits, targets = facts
        if records:
            if self.limit is not None:
                for rec in records:
                    remaining, exact = _spend(remaining, exact, rec.amount)
            if self.registry is not None:
                for rec in records:  # a target that is not one constant is no evidence
                    if rec.kind in ("CALL", "CALLCODE", "SELFDESTRUCT") \
                            and rec.concrete_target is not None:
                        target = (rec.offset, rec.concrete_target & ADDRESS_MASK)
                        if target not in targets:
                            targets += (target,)
            if destruct is None and self.suicide:
                destruct = next((r.offset for r in records if r.kind == "SELFDESTRUCT"), None)
                if destruct is not None:
                    conditions = [*before, *conditions]
        elif destruct is None or bits & 4 or not conditions:
            return facts
        if destruct is not None:
            # paths traced together share terms: each is examined once
            guards = self.memo.guards
            for cond in conditions:
                if bits & 4:
                    break
                known = guards.get(id(cond))
                if known is None:
                    known = guards[id(cond)] = (cond, _guards(cond) & 12)
                bits |= known[1]
        return remaining, exact, destruct, bits, targets

    def verdict(self, facts: Facts) -> tuple[list[PropertyViolation], list[str]]:
        """The violations of a path with these facts, in the order the
        rules are listed, and its registry warnings, found once per facts.
        The registry is asked once per address per memo, an outage
        included, which degrades to a warning, never a violation."""
        found = self.verdicts.get(facts)
        if found is not None:
            return found
        remaining, exact, destruct, bits, targets = facts
        memo = self.memo
        violations: list[PropertyViolation] = []
        warnings: list[str] = []
        if self.limit is not None:
            violation = TransferLedger(self.limit, remaining, exact).violation(memo)
            if violation:
                violations.append(violation)
        for offset, address in targets:
            outcome = memo.addresses.get(address)
            if outcome is None:
                try:
                    outcome = self.registry.exists(address)
                except RegistryUnavailable as exc:
                    outcome = str(exc)
                memo.addresses[address] = outcome
            if isinstance(outcome, str):
                warnings.append(f"address registry unavailable for 0x{address:040x} at "
                                f"offset {offset}: {outcome}")
            elif not outcome:
                violations.append(memo.violation(
                    ("non_existing_address", address, offset),
                    PropertyId.NON_EXISTING_ADDRESS, {
                        "address": f"0x{address:040x}",
                        "instruction_offset": offset,
                        "note": ("sending to an unregistered address loses the funds; "
                                 "first use also costs at least 25,000 extra to create "
                                 "the account"),
                    }))
        # a date/height constraint is recorded but does not make the
        # destruction safe (anyone can wait)
        if destruct is not None and not bits & 4:
            has_time = bool(bits & 8)
            violations.append(memo.violation(
                ("guard_suicide", destruct, has_time), PropertyId.GUARD_SUICIDE, {
                    "selfdestruct_offset": destruct,
                    "missing_guards": ({"ownership"} if has_time
                                       else {"ownership", "time_or_height"}),
                    "present_guards": {"time_or_height"} if has_time else set(),
                }))
        found = self.verdicts[facts] = (violations, warnings)
        return found

    def of(self, conditions: list[Word], records: list[ExternalRecord],
           ) -> tuple[list[PropertyViolation], list[str]]:
        """The verdict on one path's whole lists."""
        return self.verdict(self.extend(self.start, [], conditions, records))


def check_address_existence(records: list[ExternalRecord],
                            registry: AddressRegistry, memo: AnalysisMemo,
                            ) -> tuple[list[PropertyViolation], list[str]]:
    """Flag transfers whose constant 160-bit target is not registered; each
    path that reaches an address the registry could not answer for gets its
    own warning."""
    return PathFacts(None, registry, False, memo).of([], records)


def check_guard_suicide(state: SymbolicState, memo: AnalysisMemo) -> PropertyViolation | None:
    """Violation when a self-destruct is reachable without an ownership guard."""
    found, _warnings = PathFacts(None, None, True, memo).of(state.path_condition, state.records)
    return found[0] if found else None


# The template the compiler inserts in front of a non-payable function body.
_PREAMBLE = ("CALLVALUE", "ISZERO", "PUSH", "JUMPI", "PUSH1", "DUP1", "REVERT")


def _matches_preamble(instructions: list[Instruction], start: int) -> bool:
    seq = instructions[start:start + len(_PREAMBLE)]
    if len(seq) < len(_PREAMBLE):
        return False
    for ins, expected in zip(seq, _PREAMBLE):
        name = ins.mnemonic
        if expected == "PUSH":
            if name not in ("PUSH1", "PUSH2"):  # jump-target width varies
                return False
        elif expected == "PUSH1":
            if name not in ("PUSH1", "PUSH2") or ins.immediate != 0:
                return False
        elif name != expected:
            return False
    return True


def _unconditional_revert(instructions: list[Instruction], start: int) -> bool:
    """A stub that rejects every call can never receive Ether."""
    for ins in instructions[start:start + 8]:
        name = ins.mnemonic
        if name == "REVERT":
            return True
        if name in ("JUMP", "JUMPI", "CALLVALUE", "STOP", "RETURN", "SELFDESTRUCT",
                    "CALL", "INVALID"):
            return False
    return False


def detect_payable_entries(cfg: Cfg, instructions: list[Instruction],
                           ) -> tuple[set[int | str], dict[int | str, dict]]:
    """Classify each function entry as payable or not.

    Non-payable entries carry the compiler's CALLVALUE-check template right
    after the entry JUMPDEST; an entry that unconditionally reverts cannot
    receive Ether either.  Everything else is treated as payable, the
    implicit STOP past the end of the code among it.
    """
    index_by_offset = {ins.offset: i for i, ins in enumerate(instructions)}
    payable: set[int | str] = set()
    details: dict[int | str, dict] = {}
    for name, entry_block in cfg.function_entries.items():
        block = cfg.blocks[entry_block]
        idx = index_by_offset.get(block.first_offset, len(instructions))
        if block.instructions[0].mnemonic == "JUMPDEST":
            idx += 1
        if _matches_preamble(instructions, idx):
            start = instructions[idx].offset
            end = instructions[idx + len(_PREAMBLE) - 1].offset
            details[name] = {"payable": False, "preamble_span": (start, end)}
        elif _unconditional_revert(instructions, idx):
            details[name] = {"payable": False, "preamble_span": None}
        else:
            payable.add(name)
            details[name] = {"payable": True, "preamble_span": None}
    return payable, details


def takes_ether(cfg: Cfg, payable_entries: set[int | str]) -> Callable[[_Piece], bool]:
    """The piece test of `check_black_hole`: the piece's call enters a
    payable entry and does not end in REVERT (a transaction that reverts
    returns the value).  A piece that a callback edge ends has not ended in
    REVERT; a terminal piece ends at its last block."""
    reverts = {b.id for b in cfg.blocks.values() if b.last.mnemonic == "REVERT"}
    return lambda p: p.selector in payable_entries and p.blocks[-1] not in reverts


def check_black_hole(cfg: Cfg, paths: Iterable[ProgramPath],
                     payable_entries: set[int | str],
                     ) -> list[tuple[ProgramPath, PropertyViolation]]:
    """For a contract that can never send Ether out, flag every path that
    can take Ether in: one of its pieces passes `takes_ether`, and the
    first that does names the entry.  Paths come from the unfolding, which
    hands each its pieces.  Given the unfolding itself, this walks it,
    threading the first such entry down the piece tree, and builds just the
    paths it flags."""
    if cfg.money_blocks:
        raise ValueError("black-hole analysis applies only to contracts "
                         "without money-related opcodes")
    if not payable_entries:
        return []
    takes = takes_ether(cfg, payable_entries)

    def first(entry, piece: _Piece):
        return piece.selector if entry is None and takes(piece) else entry

    walk = getattr(paths, "walk", None)
    walked = walk(takes, first, None) if walk else (
        (path, functools.reduce(first, path.pieces, None)) for path in paths)
    by_entry: dict[int | str, PropertyViolation] = {}  # one violation per entry
    out = []
    for path, entry in walked:
        if entry is None:
            continue
        violation = by_entry.get(entry)
        if violation is None:
            display = entry if isinstance(entry, str) else f"0x{entry:08x}"
            violation = by_entry[entry] = PropertyViolation(PropertyId.BLACK_HOLE, {
                "payable_entry": display,
            })
        out.append((path, violation))
    return out


class GasEstimator:
    """Static per-path gas: the sum of every instruction's scheduled cost,
    added up once per piece."""

    def __init__(self, cfg: Cfg, gas_table: isa.GasTable = isa.DEFAULT_GAS):
        self.block_costs = {block_id: estimate_gas(block.instructions, gas_table)
                            for block_id, block in cfg.blocks.items()}
        # per piece, by identity: (its gas, the piece, held so that its id
        # is not reused); a path without pieces counts as one
        self._gas: dict[int, tuple[int, object]] = {}

    def path_gas(self, path: ProgramPath) -> int:
        total = 0
        for piece in path.pieces or (path,):
            known = self._gas.get(id(piece))
            if known is None:
                known = self._gas[id(piece)] = (
                    sum(map(self.block_costs.__getitem__, piece.blocks)), piece)
            total += known[0]
        return total
