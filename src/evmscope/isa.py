"""EVM instruction-set table: mnemonics, immediates, stack effects, gas,
the opcode classes (the byte sets below), and the concrete semantics of the
word operators.

The table is frozen at the Byzantium/Constantinople era (no PUSH0, no
SHL/SHR-free Constantinople subset removed): the bundled fixtures are
2017-2018 compiler output.  Gas values are the static per-opcode charges of
that fee schedule; memory expansion, cold/warm access and refunds are out of
scope, so every figure is a static lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


# The four opcodes through which Ether can leave an account.
MONEY_OPCODES = frozenset({0xF0, 0xF1, 0xF4, 0xFF})  # CREATE, CALL, DELEGATECALL, SELFDESTRUCT

# Opcodes that halt execution of the current code.
TERMINAL_OPCODES = frozenset({0x00, 0xF3, 0xFD, 0xFF, 0xFE})  # STOP, RETURN, REVERT, SELFDESTRUCT, INVALID

# Opcodes that invoke foreign code; the instruction after them starts a new
# basic block and the block gets a callback edge to the CFG root.
CALL_OPCODES = frozenset({0xF0, 0xF1, 0xF2, 0xF4, 0xFA})  # CREATE, CALL, CALLCODE, DELEGATECALL, STATICCALL


@dataclass(frozen=True)
class OpcodeInfo:
    byte_value: int
    mnemonic: str
    immediate_bytes: int
    stack_pops: int
    stack_pushes: int
    static_gas: int

    @property
    def is_money_related(self) -> bool:
        return self.byte_value in MONEY_OPCODES and self.mnemonic != "INVALID"

    @property
    def is_terminal(self) -> bool:
        return self.byte_value in TERMINAL_OPCODES or self.mnemonic == "INVALID"

    @property
    def is_call(self) -> bool:
        return self.byte_value in CALL_OPCODES and self.mnemonic != "INVALID"

    @property
    def is_push(self) -> bool:
        return 0x60 <= self.byte_value <= 0x7F and self.immediate_bytes > 0

    @property
    def size(self) -> int:
        return 1 + self.immediate_bytes


# Static gas tiers of the era fee schedule.
G_ZERO = 0
G_BASE = 2
G_VERYLOW = 3
G_LOW = 5
G_MID = 8
G_HIGH = 10
G_JUMPDEST = 1
G_SLOAD = 200
G_SSTORE = 5000      # reset charge; the 20000 set charge is value-dependent
G_BALANCE = 400
G_SHA3 = 30
G_CALL = 700
G_EXTCODE = 700
G_CREATE = 32000
G_SELFDESTRUCT = 5000
G_LOG = 375
G_EXP = 10
G_BLOCKHASH = 20

GAS_SCHEDULE_NAME = "byzantium-static"

# (byte, mnemonic, pops, pushes, gas)
_DEFS = [
    (0x00, "STOP", 0, 0, G_ZERO),
    (0x01, "ADD", 2, 1, G_VERYLOW),
    (0x02, "MUL", 2, 1, G_LOW),
    (0x03, "SUB", 2, 1, G_VERYLOW),
    (0x04, "DIV", 2, 1, G_LOW),
    (0x05, "SDIV", 2, 1, G_LOW),
    (0x06, "MOD", 2, 1, G_LOW),
    (0x07, "SMOD", 2, 1, G_LOW),
    (0x08, "ADDMOD", 3, 1, G_MID),
    (0x09, "MULMOD", 3, 1, G_MID),
    (0x0A, "EXP", 2, 1, G_EXP),
    (0x0B, "SIGNEXTEND", 2, 1, G_LOW),
    (0x10, "LT", 2, 1, G_VERYLOW),
    (0x11, "GT", 2, 1, G_VERYLOW),
    (0x12, "SLT", 2, 1, G_VERYLOW),
    (0x13, "SGT", 2, 1, G_VERYLOW),
    (0x14, "EQ", 2, 1, G_VERYLOW),
    (0x15, "ISZERO", 1, 1, G_VERYLOW),
    (0x16, "AND", 2, 1, G_VERYLOW),
    (0x17, "OR", 2, 1, G_VERYLOW),
    (0x18, "XOR", 2, 1, G_VERYLOW),
    (0x19, "NOT", 1, 1, G_VERYLOW),
    (0x1A, "BYTE", 2, 1, G_VERYLOW),
    (0x1B, "SHL", 2, 1, G_VERYLOW),
    (0x1C, "SHR", 2, 1, G_VERYLOW),
    (0x1D, "SAR", 2, 1, G_VERYLOW),
    (0x20, "SHA3", 2, 1, G_SHA3),
    (0x30, "ADDRESS", 0, 1, G_BASE),
    (0x31, "BALANCE", 1, 1, G_BALANCE),
    (0x32, "ORIGIN", 0, 1, G_BASE),
    (0x33, "CALLER", 0, 1, G_BASE),
    (0x34, "CALLVALUE", 0, 1, G_BASE),
    (0x35, "CALLDATALOAD", 1, 1, G_VERYLOW),
    (0x36, "CALLDATASIZE", 0, 1, G_BASE),
    (0x37, "CALLDATACOPY", 3, 0, G_VERYLOW),
    (0x38, "CODESIZE", 0, 1, G_BASE),
    (0x39, "CODECOPY", 3, 0, G_VERYLOW),
    (0x3A, "GASPRICE", 0, 1, G_BASE),
    (0x3B, "EXTCODESIZE", 1, 1, G_EXTCODE),
    (0x3C, "EXTCODECOPY", 4, 0, G_EXTCODE),
    (0x3D, "RETURNDATASIZE", 0, 1, G_BASE),
    (0x3E, "RETURNDATACOPY", 3, 0, G_VERYLOW),
    (0x40, "BLOCKHASH", 1, 1, G_BLOCKHASH),
    (0x41, "COINBASE", 0, 1, G_BASE),
    (0x42, "TIMESTAMP", 0, 1, G_BASE),
    (0x43, "NUMBER", 0, 1, G_BASE),
    (0x44, "DIFFICULTY", 0, 1, G_BASE),
    (0x45, "GASLIMIT", 0, 1, G_BASE),
    (0x50, "POP", 1, 0, G_BASE),
    (0x51, "MLOAD", 1, 1, G_VERYLOW),
    (0x52, "MSTORE", 2, 0, G_VERYLOW),
    (0x53, "MSTORE8", 2, 0, G_VERYLOW),
    (0x54, "SLOAD", 1, 1, G_SLOAD),
    (0x55, "SSTORE", 2, 0, G_SSTORE),
    (0x56, "JUMP", 1, 0, G_MID),
    (0x57, "JUMPI", 2, 0, G_HIGH),
    (0x58, "PC", 0, 1, G_BASE),
    (0x59, "MSIZE", 0, 1, G_BASE),
    (0x5A, "GAS", 0, 1, G_BASE),
    (0x5B, "JUMPDEST", 0, 0, G_JUMPDEST),
    (0xA0, "LOG0", 2, 0, G_LOG),
    (0xA1, "LOG1", 3, 0, G_LOG * 2),
    (0xA2, "LOG2", 4, 0, G_LOG * 3),
    (0xA3, "LOG3", 5, 0, G_LOG * 4),
    (0xA4, "LOG4", 6, 0, G_LOG * 5),
    (0xF0, "CREATE", 3, 1, G_CREATE),
    (0xF1, "CALL", 7, 1, G_CALL),
    (0xF2, "CALLCODE", 7, 1, G_CALL),
    (0xF3, "RETURN", 2, 0, G_ZERO),
    (0xF4, "DELEGATECALL", 6, 1, G_CALL),
    (0xFA, "STATICCALL", 6, 1, G_CALL),
    (0xFD, "REVERT", 2, 0, G_ZERO),
    (0xFE, "INVALID", 0, 0, G_ZERO),
    (0xFF, "SELFDESTRUCT", 1, 0, G_SELFDESTRUCT),
]


def _build_table() -> tuple[OpcodeInfo, ...]:
    table: list[OpcodeInfo | None] = [None] * 256
    for byte, name, pops, pushes, gas in _DEFS:
        table[byte] = OpcodeInfo(byte, name, 0, pops, pushes, gas)
    for i in range(32):
        byte = 0x60 + i
        table[byte] = OpcodeInfo(byte, f"PUSH{i + 1}", i + 1, 0, 1, G_VERYLOW)
    for i in range(16):
        byte = 0x80 + i
        table[byte] = OpcodeInfo(byte, f"DUP{i + 1}", 0, i + 1, i + 2, G_VERYLOW)
    for i in range(16):
        byte = 0x90 + i
        table[byte] = OpcodeInfo(byte, f"SWAP{i + 1}", 0, i + 2, i + 2, G_VERYLOW)
    for byte in range(256):
        if table[byte] is None:
            # Undefined bytes decode as INVALID: execution halts on them.
            table[byte] = OpcodeInfo(byte, "INVALID", 0, 0, 0, G_ZERO)
    return tuple(table)  # type: ignore[arg-type]


TABLE: tuple[OpcodeInfo, ...] = _build_table()


def lookup(byte_value: int) -> OpcodeInfo:
    """Total over 0x00-0xFF; undefined bytes return the INVALID entry."""
    return TABLE[byte_value & 0xFF]


WORD_MOD = 1 << 256
WORD_MAX = WORD_MOD - 1
SIGN_BIT = 1 << 255


def _signed(x: int) -> int:
    return x - WORD_MOD if x >= SIGN_BIT else x


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) % WORD_MOD


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) % WORD_MOD


def _signextend(a: int, b: int) -> int:
    if a >= 32:
        return b
    bit = 8 * a + 7
    mask = (1 << (bit + 1)) - 1
    return b | (WORD_MAX ^ mask) if b & (1 << bit) else b & mask


def _sar(a: int, b: int) -> int:
    sb = _signed(b)
    if a >= 256:
        return WORD_MAX if sb < 0 else 0
    return (sb >> a) % WORD_MOD


# The word operators: mnemonic -> concrete semantics over words.  Arguments
# come in pop order (the stack top first) and results are reduced mod 2**256.
# Symbolic terms, evaluation and the CFG's constant folding all use this table.
OPERATORS: dict[str, Callable[..., int]] = {
    "ADD": lambda a, b: (a + b) % WORD_MOD,
    "MUL": lambda a, b: (a * b) % WORD_MOD,
    "SUB": lambda a, b: (a - b) % WORD_MOD,
    "DIV": lambda a, b: a // b if b else 0,
    "SDIV": _sdiv,
    "MOD": lambda a, b: a % b if b else 0,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: (a + b) % n if n else 0,
    "MULMOD": lambda a, b, n: (a * b) % n if n else 0,
    "EXP": lambda a, b: pow(a, b, WORD_MOD),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(_signed(a) < _signed(b)),
    "SGT": lambda a, b: int(_signed(a) > _signed(b)),
    "EQ": lambda a, b: int(a == b),
    "ISZERO": lambda a: int(a == 0),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ WORD_MAX,
    "BYTE": lambda a, b: (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0,
    "SHL": lambda a, b: (b << a) % WORD_MOD if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "SAR": _sar,
}


def load_gas_overrides(text: str) -> dict[int, int]:
    """Parse a "MNEMONIC GAS" table; returns byte->gas overrides.

    Blank lines and '#' comments are skipped.  Unknown mnemonics raise
    ValueError so a typo cannot silently leave the default cost in place.
    """
    overrides: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"gas override line {lineno}: expected 'MNEMONIC GAS'")
        name, gas = parts[0].upper(), int(parts[1])
        if gas < 0:
            raise ValueError(f"gas override line {lineno}: negative gas")
        named = [info.byte_value for info in TABLE if info.mnemonic == name]
        if not named:
            raise ValueError(f"gas override line {lineno}: unknown mnemonic {name!r}")
        overrides.update(dict.fromkeys(named, gas))
    return overrides


class GasTable:
    """Per-opcode static gas, with the user's overrides (byte to gas) applied."""

    def __init__(self, overrides: dict[int, int]):
        self._costs = [info.static_gas for info in TABLE]
        for byte, gas in overrides.items():
            self._costs[byte & 0xFF] = gas

    def cost(self, byte_value: int) -> int:
        return self._costs[byte_value & 0xFF]


def estimate_gas(instructions: Iterable, gas_table: GasTable) -> int:
    """Static gas of an instruction sequence: the sum of its scheduled costs."""
    return sum(gas_table.cost(ins.info.byte_value) for ins in instructions)
