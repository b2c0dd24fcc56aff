"""Per-path property checkers: transfer limit, non-existing address, guarded
suicide, black hole, and static gas estimation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from . import isa
from .cfg import Cfg, Terminator
from .disasm import Instruction
from .isa import estimate_gas
from .pathgen import VIA_EXTERNAL_CALLBACK, ProgramPath
from .registry import AddressRegistry, RegistryUnavailable
from .symexec import (
    ExternalRecord,
    SymbolicState,
    UNKNOWN_AMOUNT,
    Word,
    concretize,
)

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
                         ) -> PropertyViolation | None:
    """Violation iff the summed outgoing amounts can exceed the limit."""
    ledger = TransferLedger(limit)
    for _rec, amount in transfers:
        if isinstance(amount, int) and amount == 0:
            continue
        ledger.spend(amount)
    if not ledger.violated:
        return None
    return PropertyViolation(PropertyId.TRANSFER_LIMIT, {
        "limit": limit,
        "remaining": ledger.remaining if ledger.exact else UNKNOWN_AMOUNT,
    })


def check_address_existence(records: list[ExternalRecord],
                            registry: AddressRegistry,
                            ) -> tuple[list[PropertyViolation], list[str]]:
    """Flag transfers whose constant 160-bit target is not registered.

    Non-constant targets are skipped: there is no evidence either way.  A
    registry outage degrades to a warning, never a violation.
    """
    violations: list[PropertyViolation] = []
    warnings: list[str] = []
    seen: set[tuple[int, int]] = set()
    for rec in records:
        if rec.kind not in ("CALL", "CALLCODE", "SELFDESTRUCT"):
            continue
        resolved = concretize(rec.target)
        if resolved is None:
            continue
        address = resolved & ADDRESS_MASK
        if (rec.offset, address) in seen:
            continue
        seen.add((rec.offset, address))
        try:
            if not registry.exists(address):
                violations.append(PropertyViolation(PropertyId.NON_EXISTING_ADDRESS, {
                    "address": f"0x{address:040x}",
                    "instruction_offset": rec.offset,
                    "note": ("sending to an unregistered address loses the funds; "
                             "first use also costs at least 25,000 extra to create "
                             "the account"),
                }))
        except RegistryUnavailable as exc:
            warnings.append(
                f"address registry unavailable for 0x{address:040x} at offset "
                f"{rec.offset}: {exc}")
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


# Per path-condition term, by identity: (the term, is an ownership guard,
# is a time guard).  Holding the term keeps its id from being reused.
GuardFacts = dict[int, tuple[Word, bool, bool]]


def check_guard_suicide(state: SymbolicState,
                        guard_facts: GuardFacts) -> PropertyViolation | None:
    """Violation when a self-destruct is reachable without an ownership guard.

    A date/height constraint is recorded but does not make the destruction
    safe (anyone can wait).  Paths traced together share path-condition
    terms; one `guard_facts` dict for all of them examines each term once.
    """
    destructs = [r for r in state.records if r.kind == "SELFDESTRUCT"]
    if not destructs:
        return None
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
    missing = {"ownership"}
    if not has_time:
        missing.add("time_or_height")
    return PropertyViolation(PropertyId.GUARD_SUICIDE, {
        "selfdestruct_offset": destructs[0].offset,
        "missing_guards": missing,
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


def check_black_hole(cfg: Cfg, paths: Iterable[ProgramPath],
                     payable_entries: set[int | str],
                     ) -> list[tuple[ProgramPath, PropertyViolation]]:
    """For a contract that can never send Ether out, flag every path that
    can take Ether in.

    A path takes Ether in when some call enters a payable entry and does not
    revert (a transaction that reverts returns the value).  A call ends at its
    first terminal block, unless a callback edge ends it first.
    """
    if cfg.money_blocks:
        raise ValueError("black-hole analysis applies only to contracts "
                         "without money-related opcodes")
    if not payable_entries:
        return []
    terminal = {b.id for b in cfg.blocks.values() if b.terminator is Terminator.TERMINAL}
    out = []
    for path in paths:
        entry = None
        ends = (b for b in path.blocks if b in terminal)
        vias = [via for _sel, via in path.functions[1:]] + [None]
        for (sel, _via), next_via in zip(path.functions, vias):
            end = None if next_via == VIA_EXTERNAL_CALLBACK else next(ends, None)
            if sel is None or sel not in payable_entries:
                continue
            if end is not None and cfg.blocks[end].last.mnemonic == "REVERT":
                continue
            entry = sel
            break
        if entry is None:
            continue
        display = entry if isinstance(entry, str) else f"0x{entry:08x}"
        out.append((path, PropertyViolation(PropertyId.BLACK_HOLE, {
            "payable_entry": display,
        })))
    return out


class GasEstimator:
    """Static per-path gas: the sum of every instruction's scheduled cost."""

    def __init__(self, cfg: Cfg, gas_table: isa.GasTable = isa.DEFAULT_GAS):
        self.block_costs = {block_id: estimate_gas(block.instructions, gas_table)
                            for block_id, block in cfg.blocks.items()}

    def path_gas(self, path: ProgramPath) -> int:
        return sum(map(self.block_costs.__getitem__, path.blocks))
