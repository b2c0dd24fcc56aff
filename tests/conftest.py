from __future__ import annotations

from pathlib import Path

import pytest

from evmscope.cfg import Cfg, build_cfg
from evmscope.disasm import ContractCode, disassemble, load_contract
from evmscope.symexec import SymbolicState

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
MICRO = FIXTURES / "micro"
REGISTRY_TXT = FIXTURES / "registry.txt"

_contract_cache: dict[str, ContractCode] = {}
_cfg_cache: dict[str, Cfg] = {}


def fixture_path(name: str) -> Path:
    direct = FIXTURES / f"{name}.json"
    if direct.exists():
        return direct
    return MICRO / f"{name}.json"


def get_contract(name: str) -> ContractCode:
    if name not in _contract_cache:
        _contract_cache[name] = load_contract(fixture_path(name))
    return _contract_cache[name]


def get_cfg(name: str) -> Cfg:
    if name not in _cfg_cache:
        _cfg_cache[name] = build_cfg(disassemble(get_contract(name).runtime_code))
    return _cfg_cache[name]


def symbolic_state(**fields) -> SymbolicState:
    """A machine as a walk starts one, over no base storage or code and with
    no deadline, then with each of `fields` set on it."""
    state = SymbolicState({}, b"", None, "")
    for name, value in fields.items():
        if not hasattr(state, name):
            raise AttributeError(f"SymbolicState has no field {name!r}")
        setattr(state, name, value)
    return state


@pytest.fixture
def toydao() -> ContractCode:
    return get_contract("toydao")


@pytest.fixture
def toydao_cfg() -> Cfg:
    return get_cfg("toydao")


@pytest.fixture
def registry_path() -> Path:
    return REGISTRY_TXT
