"""Per-path property checkers: transfer limit, non-existing address, guarded
suicide, black hole, and static gas estimation.  The paths of one analysis
share pieces, terms and records, so each fact is found once per object it
comes from: per piece, per record (`ExternalRecord` resolves its own target
and amount), or in the analysis's `AnalysisMemo`."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
        # id is not reused, is an ownership guard, is a time guard)
        self.guards: dict[int, tuple[Word, bool, bool]] = {}
        self.addresses: dict[int, bool | str] = {}
        self.violations: dict[tuple, PropertyViolation] = {}

    def violation(self, key: tuple, prop: PropertyId, evidence: dict) -> PropertyViolation:
        """The violation kept under `key`, made from `prop` and `evidence`
        the first time."""
        found = self.violations.get(key)
        if found is None:
            found = self.violations[key] = PropertyViolation(prop, evidence)
        return found


@dataclass
class TransferLedger:
    """Remaining transfer allowance along one path; only ever decreases."""
    limit: int
    remaining: int = field(init=False)
    exact: bool = field(init=False, default=True)

    def __post_init__(self) -> None:
        self.remaining = self.limit

    def spend(self, amount: int | str) -> None:
        if amount == UNKNOWN_AMOUNT:
            # an amount we cannot bound may always break the limit
            self.exact = False
            return
        assert isinstance(amount, int) and amount >= 0
        self.remaining -= amount

    @property
    def violated(self) -> bool:
        return self.remaining < 0 or not self.exact


def check_transfer_limit(limit: int, transfers: list[tuple[ExternalRecord, int | str]],
                         memo: AnalysisMemo) -> PropertyViolation | None:
    """Violation iff the summed outgoing amounts can exceed the limit."""
    ledger = TransferLedger(limit)
    for _rec, amount in transfers:
        if isinstance(amount, int) and amount == 0:
            continue
        ledger.spend(amount)
    if not ledger.violated:
        return None
    remaining = ledger.remaining if ledger.exact else UNKNOWN_AMOUNT
    return memo.violation(("transfer_limit", limit, remaining),
                          PropertyId.TRANSFER_LIMIT, {"limit": limit, "remaining": remaining})


def check_address_existence(records: list[ExternalRecord],
                            registry: AddressRegistry, memo: AnalysisMemo,
                            ) -> tuple[list[PropertyViolation], list[str]]:
    """Flag transfers whose constant 160-bit target is not registered.

    Non-constant targets are skipped: there is no evidence either way.  A
    registry outage degrades to a warning, never a violation.  The registry
    is asked once per address per memo, an outage included, and each path
    that reaches the address gets its own warning.
    """
    violations: list[PropertyViolation] = []
    warnings: list[str] = []
    seen: set[tuple[int, int]] = set()
    for rec in records:
        if rec.kind not in ("CALL", "CALLCODE", "SELFDESTRUCT"):
            continue
        resolved = rec.concrete_target
        if resolved is None:
            continue
        address = resolved & ADDRESS_MASK
        if (rec.offset, address) in seen:
            continue
        seen.add((rec.offset, address))
        outcome = memo.addresses.get(address)
        if outcome is None:
            try:
                outcome = registry.exists(address)
            except RegistryUnavailable as exc:
                outcome = str(exc)
            memo.addresses[address] = outcome
        if isinstance(outcome, str):
            warnings.append(
                f"address registry unavailable for 0x{address:040x} at offset "
                f"{rec.offset}: {outcome}")
        elif not outcome:
            violations.append(memo.violation(
                ("non_existing_address", address, rec.offset),
                PropertyId.NON_EXISTING_ADDRESS, {
                    "address": f"0x{address:040x}",
                    "instruction_offset": rec.offset,
                    "note": ("sending to an unregistered address loses the funds; "
                             "first use also costs at least 25,000 extra to create "
                             "the account"),
                }))
    return violations, warnings


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


def check_guard_suicide(state: SymbolicState, memo: AnalysisMemo) -> PropertyViolation | None:
    """Violation when a self-destruct is reachable without an ownership guard.

    A date/height constraint is recorded but does not make the destruction
    safe (anyone can wait).  Paths traced together share path-condition
    terms; one memo for all of them examines each term once.
    """
    destructs = [r for r in state.records if r.kind == "SELFDESTRUCT"]
    if not destructs:
        return None
    guard_facts = memo.guards
    has_ownership = has_time = False
    for cond in state.path_condition:
        facts = guard_facts.get(id(cond))
        if facts is None:
            bits = _guards(cond)
            facts = guard_facts[id(cond)] = (cond, bool(bits & 4), bool(bits & 8))
        has_ownership = has_ownership or facts[1]
        has_time = has_time or facts[2]
    if has_ownership:
        return None
    offset = destructs[0].offset
    return memo.violation(("guard_suicide", offset, has_time),
                          PropertyId.GUARD_SUICIDE, {
        "selfdestruct_offset": offset,
        "missing_guards": {"ownership"} if has_time else {"ownership", "time_or_height"},
        "present_guards": {"time_or_height"} if has_time else set(),
    })


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
    hands each its pieces; `select(takes_ether(...))` yields just the paths
    this flags."""
    if cfg.money_blocks:
        raise ValueError("black-hole analysis applies only to contracts "
                         "without money-related opcodes")
    if not payable_entries:
        return []
    takes = takes_ether(cfg, payable_entries)
    by_entry: dict[int | str, PropertyViolation] = {}  # one violation per entry
    out = []
    for path in paths:
        entry = next((p.selector for p in path.pieces if takes(p)), None)
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
