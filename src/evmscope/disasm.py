"""Hex parsing and linear disassembly of EVM bytecode."""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path

from . import isa


class HexError(ValueError):
    """Base class for hex-input rejection."""


class OddLengthError(HexError):
    pass


class NonHexCharacterError(HexError):
    pass


@dataclass(frozen=True)
class Instruction:
    offset: int
    info: isa.OpcodeInfo
    immediate: int | None = None

    @property
    def next_offset(self) -> int:
        return self.offset + 1 + self.info.immediate_bytes

    @property
    def mnemonic(self) -> str:
        return self.info.mnemonic

    def encode(self) -> bytes:
        if self.info.immediate_bytes:
            return bytes([self.info.byte_value]) + (self.immediate or 0).to_bytes(
                self.info.immediate_bytes, "big")
        return bytes([self.info.byte_value])

    def __str__(self) -> str:
        if self.immediate is not None:
            return f"{self.offset} {self.mnemonic} 0x{self.immediate:x}"
        return f"{self.offset} {self.mnemonic}"


@dataclass
class ContractCode:
    runtime_code: bytes
    creation_code: bytes | None = None
    name: str = "<unnamed>"
    source: str | None = None
    source_map: dict[int, int] = field(default_factory=dict)
    functions: dict[int, dict] = field(default_factory=dict)  # selector -> {signature, payable}


_HEX_DIGITS = set(string.hexdigits)


def parse_hex(text: str) -> bytes:
    """Decode hex text with optional 0x prefix; whitespace is ignored."""
    stripped = "".join(text.split())
    if stripped.lower().startswith("0x"):
        stripped = stripped[2:]
    bad = next((ch for ch in stripped if ch not in _HEX_DIGITS), None)
    if bad is not None:
        raise NonHexCharacterError(f"not a hex digit: {bad!r}")
    if len(stripped) % 2:
        raise OddLengthError(f"odd number of hex digits ({len(stripped)})")
    return bytes.fromhex(stripped)


def disassemble(code: bytes) -> list[Instruction]:
    """Decode `code` into instructions covering it contiguously from offset 0.

    A PUSH whose immediate runs past the end of code is zero-padded on the
    right, matching chain-client behaviour for truncated deployments.
    """
    out: list[Instruction] = []
    offset = 0
    n = len(code)
    while offset < n:
        info = isa.lookup(code[offset])
        if info.immediate_bytes:
            raw = code[offset + 1:offset + 1 + info.immediate_bytes]
            if len(raw) < info.immediate_bytes:
                raw = raw + b"\x00" * (info.immediate_bytes - len(raw))
            out.append(Instruction(offset, info, int.from_bytes(raw, "big")))
        else:
            out.append(Instruction(offset, info))
        offset += info.size
    return out


def load_contract(path: str | Path) -> ContractCode:
    """Load a fixture file: either raw hex text or a JSON envelope.

    Envelope fields: runtime (hex, required), creation (hex), name, source,
    source_map ({offset: line}), functions ({selector_hex: {signature, payable}}).
    An optional field may be absent or null.  A field of the wrong type
    raises ValueError naming the field, and so does empty runtime code:
    there is nothing to analyze.
    """
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        contract = _load_envelope(json.loads(text), path)
    else:
        contract = ContractCode(runtime_code=parse_hex(text), name=path.stem)
    if not contract.runtime_code:
        raise ValueError("runtime code is empty")
    return contract


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _load_envelope(doc: dict, path: Path) -> ContractCode:
    def field_of(key: str, kind: type, expected: str, required: bool = False):
        value = doc.get(key)
        if (value is not None or required) and not isinstance(value, kind):
            raise ValueError(f"{path}: envelope field '{key}' must be {expected}, "
                             f"not {_JSON_TYPES.get(type(value), type(value).__name__)}")
        return value

    if "runtime" not in doc:
        raise ValueError(f"{path}: envelope missing 'runtime' field")
    runtime = field_of("runtime", str, "a hex string", required=True)
    creation = field_of("creation", str, "a hex string")
    name = field_of("name", str, "a string")
    source = field_of("source", str, "a string")
    try:
        source_map = {int(k): int(v)
                      for k, v in (field_of("source_map", dict, "an object") or {}).items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: envelope field 'source_map' must map code offsets "
                         f"to line numbers ({exc})") from None
    functions = {}
    for sel_hex, meta in (field_of("functions", dict, "an object") or {}).items():
        try:
            selector = int(sel_hex, 16)
        except ValueError:
            raise ValueError(f"{path}: envelope field 'functions' has a key that is "
                             f"not a hex selector: {sel_hex!r}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: envelope field 'functions' must map selectors to "
                             f"objects, not {_JSON_TYPES.get(type(meta), type(meta).__name__)}")
        functions[selector] = dict(meta)
    return ContractCode(
        runtime_code=parse_hex(runtime),
        creation_code=parse_hex(creation) if creation else None,
        name=path.stem if name is None else name,
        source=source,
        source_map=source_map,
        functions=functions,
    )
