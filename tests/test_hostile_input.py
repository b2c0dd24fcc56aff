"""analyze() stays bounded: bytecode-chosen memory sizes halt as out of gas,
and the trace stage stops at the deadline."""

import time

import pytest

import evmscope.report as report_module
from evmscope.disasm import ContractCode, parse_hex
from evmscope.pathgen import PathBounds
from evmscope.report import AnalysisConfig, analyze
from evmscope.symexec import BLOCK_GAS_LIMIT, MEMORY_CAP

from conftest import REGISTRY_TXT, get_contract

_OUT_OF_GAS = "OutOfGas (memory up to byte 1099511627776 exceeds the block gas limit)"


def _config(**kwargs) -> AnalysisConfig:
    return AnalysisConfig(registry_fixture=str(REGISTRY_TXT), include_timing=False,
                          transfer_limit=30, **kwargs)


def _expansion_gas(words: int) -> int:
    return 3 * words + words * words // 512


def test_memory_cap_is_where_expansion_gas_passes_the_block_limit():
    assert MEMORY_CAP % 32 == 0
    assert _expansion_gas(MEMORY_CAP // 32) <= BLOCK_GAS_LIMIT
    assert _expansion_gas(MEMORY_CAP // 32 + 1) > BLOCK_GAS_LIMIT


def test_hashing_2_pow_40_bytes_without_money_opcodes_is_not_traced():
    # PUSH6 2**40; PUSH1 0; SHA3; STOP: no money opcode, so nothing is traced
    contract = ContractCode(runtime_code=parse_hex("6501000000000060002000"), name="sha3")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert not [d for d in report.diagnostics if d.startswith("trace_abandoned")]


@pytest.mark.parametrize("runtime", [
    "65010000000000600020ff",      # PUSH6 2**40; PUSH1 0; SHA3; SELFDESTRUCT
    "650100000000006000600039" "33ff",  # CODECOPY(0, 0, 2**40); CALLER; SELFDESTRUCT
], ids=["sha3", "codecopy"])
def test_huge_memory_size_abandons_the_trace(runtime):
    contract = ContractCode(runtime_code=parse_hex(runtime), name="huge")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert [d for d in report.diagnostics if d.startswith("trace_abandoned")] == [
        f"trace_abandoned: {_OUT_OF_GAS}; 1 money path(s) not analyzed"]


def test_huge_memory_size_abandons_the_constructor_pre_run():
    contract = ContractCode(runtime_code=parse_hex("00"), name="ctor",
                            creation_code=parse_hex("6501000000000060002000"))
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2, wall_time=2)))
    assert "constructor pre-run abandoned: memory up to byte 1099511627776 exceeds " \
           "the block gas limit" in report.diagnostics


def test_trace_stage_stops_at_the_deadline(monkeypatch):
    clock = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    shared_walk = report_module.execute_trie

    def walk_then_expire(*args, **kwargs):
        for n, outcome in enumerate(shared_walk(*args, **kwargs)):
            if n == 2:
                clock[0] += 10_000  # the wall time runs out while the third path is traced
            yield outcome

    config = _config(bounds=PathBounds(call_depth=3))
    whole = analyze(get_contract("toydao"), config)
    assert not whole.statistics["timed_out"]
    monkeypatch.setattr(report_module, "execute_trie", walk_then_expire)
    cut = analyze(get_contract("toydao"), config)
    money = cut.statistics["paths_money_related"]
    assert money == whole.statistics["paths_money_related"] > 3
    assert cut.statistics["timed_out"] is True
    assert [d for d in cut.diagnostics if d.startswith("trace_timed_out")] == [
        f"trace_timed_out: deadline passed; {money - 2} money path(s) not analyzed"]
