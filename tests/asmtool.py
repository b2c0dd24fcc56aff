"""Tiny two-pass EVM assembler for building the bundled bytecode fixtures."""

from __future__ import annotations

from dataclasses import dataclass

from evmscope import isa

_BY_NAME = {}
for _info in isa.TABLE:
    _BY_NAME.setdefault(_info.mnemonic, _info.byte_value)


def by_mnemonic(name: str) -> isa.OpcodeInfo:
    """The table entry of a mnemonic; INVALID names the first undefined byte."""
    return isa.lookup(_BY_NAME[name.upper()])


@dataclass
class _Item:
    kind: str                 # "op" | "push" | "pushl" | "label" | "pad"
    op: int = 0
    width: int = 0
    value: int = 0
    label: str = ""
    target: int = 0

    @property
    def size(self) -> int:
        if self.kind == "op":
            return 1
        if self.kind in ("push", "pushl"):
            return 1 + self.width
        return 0  # label / pad resolve later


class Asm:
    def __init__(self) -> None:
        self.items: list[_Item] = []
        self.labels: dict[str, int] = {}

    def op(self, mnemonic: str) -> "Asm":
        self.items.append(_Item("op", op=_BY_NAME[mnemonic.upper()]))
        return self

    def push(self, value: int, width: int | None = None) -> "Asm":
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        assert 1 <= width <= 32 and value < (1 << (8 * width))
        self.items.append(_Item("push", op=0x60 + width - 1, width=width, value=value))
        return self

    def push_label(self, label: str, width: int = 2) -> "Asm":
        self.items.append(_Item("pushl", op=0x60 + width - 1, width=width, label=label))
        return self

    def label(self, name: str) -> "Asm":
        self.items.append(_Item("label", label=name))
        return self

    def pad_to(self, offset: int) -> "Asm":
        """Fill with inert PUSH1/POP pairs (and STOPs for odd remainders)."""
        self.items.append(_Item("pad", target=offset))
        return self

    def raw(self, data: bytes) -> "Asm":
        for b in data:
            self.items.append(_Item("op", op=b))
        return self

    def _layout(self) -> list[tuple[_Item, int]]:
        placed: list[tuple[_Item, int]] = []
        offset = 0
        for item in self.items:
            if item.kind == "label":
                self.labels[item.label] = offset
                continue
            if item.kind == "pad":
                if item.target < offset:
                    raise ValueError(f"pad target {item.target} is behind offset {offset}")
                placed.append((item, offset))
                offset = item.target
                continue
            placed.append((item, offset))
            offset += item.size
        return placed

    def assemble(self) -> bytes:
        placed = self._layout()
        out = bytearray()
        for item, offset in placed:
            assert len(out) == offset, f"layout drift at {offset}"
            if item.kind == "op":
                out.append(item.op)
            elif item.kind == "push":
                out.append(item.op)
                out += item.value.to_bytes(item.width, "big")
            elif item.kind == "pushl":
                out.append(item.op)
                out += self.labels[item.label].to_bytes(item.width, "big")
            elif item.kind == "pad":
                gap = item.target - offset
                while gap >= 3:
                    out += bytes([0x60, 0x00, 0x50])  # PUSH1 0 / POP
                    gap -= 3
                out += b"\x00" * gap  # STOP filler
        return bytes(out)

    def offset_of(self, label: str) -> int:
        return self.labels[label]


def selector_dispatch(asm: Asm, entries: list[tuple[int, str]],
                      fallback_label: str) -> None:
    """Emit the compiler's dispatcher template.

    Root block: free-memory-pointer setup plus the short-calldata check
    (offsets 0..12); then one selector-comparison block per function.
    """
    asm.push(0x60, 1).push(0x40, 1).op("MSTORE")
    asm.push(0x04, 1).op("CALLDATASIZE").op("LT")
    asm.push_label(fallback_label).op("JUMPI")
    first = True
    for sel, entry_label in entries:
        if first:
            asm.push(0x00, 1).op("CALLDATALOAD")
            asm.push(1 << 224, 29).op("SWAP1").op("DIV")
            asm.push(0xFFFFFFFF, 4).op("AND")
            first = False
        asm.op("DUP1").push(sel, 4).op("EQ").push_label(entry_label).op("JUMPI")


def revert_block(asm: Asm) -> None:
    asm.push(0x00, 1).op("DUP1").op("REVERT")


def mapping_store(asm: Asm, slot: int) -> None:
    """mem[0] = <top-1>, mem[32] = slot, then push keccak(mem[0..64]).

    Expects the mapping key on top of the stack; consumes it.
    """
    asm.push(0x00, 1).op("MSTORE")
    asm.push(slot, 1).push(0x20, 1).op("MSTORE")
    asm.push(0x40, 1).push(0x00, 1).op("SHA3")


def creation_wrapper(runtime: bytes, ctor: Asm | None = None) -> bytes:
    """Constructor body (optional) then the standard copy-and-return tail."""
    asm = ctor if ctor is not None else Asm()
    asm.push(len(runtime), 2)
    asm.op("DUP1")
    asm.push_label("runtime_start", 2)
    asm.push(0x00, 1)
    asm.op("CODECOPY")
    asm.push(0x00, 1)
    asm.op("RETURN")
    asm.label("runtime_start")
    asm.raw(runtime)
    return asm.assemble()


def scale_probe(n: int) -> bytes:
    """A runtime of `n` functions behind `selector_dispatch`, as wide as
    the fixtures are not: each function requires `SLOAD(i + 1) != 0`, else
    it reverts; function 0 then CALLs CALLER with `SLOAD(0)` wei, and every
    other function stores CALLVALUE at slot `i + 1` and stops.  The
    fallback is a JUMPDEST and a REVERT."""
    asm = Asm()
    selector_dispatch(asm, [(0x10000000 + i, f"f{i}") for i in range(n)], "fallback")
    asm.label("fallback").op("JUMPDEST")
    revert_block(asm)
    for i in range(n):
        asm.label(f"f{i}").op("JUMPDEST")
        asm.push(i + 1, 1).op("SLOAD").push_label(f"ok{i}").op("JUMPI")
        revert_block(asm)
        asm.label(f"ok{i}").op("JUMPDEST")
        if i == 0:
            for _ in range(4):
                asm.push(0, 1)  # no input or output area
            asm.push(0, 1).op("SLOAD").op("CALLER").op("GAS").op("CALL").op("POP")
        else:
            asm.op("CALLVALUE").push(i + 1, 1).op("SSTORE")
        asm.op("STOP")
    return asm.assemble()
