import pytest

from evmscope import isa

from asmtool import by_mnemonic


def test_table_total_over_all_bytes():
    assert len(isa.TABLE) == 256
    for byte in range(256):
        info = isa.lookup(byte)
        assert info.byte_value == byte


def test_lookup_examples():
    assert isa.lookup(0x00).mnemonic == "STOP"
    assert isa.lookup(0x00).is_terminal
    call = isa.lookup(0xF1)
    assert call.mnemonic == "CALL"
    assert call.is_money_related
    invalid = isa.lookup(0xFE)
    assert invalid.mnemonic == "INVALID"
    assert invalid.is_terminal
    # undefined byte values decode as INVALID and halt execution
    assert isa.lookup(0x0C).mnemonic == "INVALID"
    assert isa.lookup(0x0C).is_terminal


def test_push_immediate_sizes_sum_to_528():
    total = sum(info.immediate_bytes for info in isa.TABLE if info.is_push)
    assert total == 528
    for i in range(32):
        assert isa.lookup(0x60 + i).immediate_bytes == i + 1
    non_push = [info for info in isa.TABLE
                if not info.is_push and info.immediate_bytes != 0]
    assert non_push == []


def test_money_related_is_exactly_four_opcodes():
    money = {info.byte_value for info in isa.TABLE if info.is_money_related}
    assert money == {0xF0, 0xF1, 0xF4, 0xFF}
    assert by_mnemonic("CALL").is_money_related
    assert by_mnemonic("SELFDESTRUCT").is_money_related
    assert not by_mnemonic("ADD").is_money_related
    # call-classified but not money-related
    assert not by_mnemonic("STATICCALL").is_money_related
    assert not by_mnemonic("CALLCODE").is_money_related
    assert by_mnemonic("STATICCALL").is_call
    assert by_mnemonic("CALLCODE").is_call


def test_terminal_set():
    terminal = {info.mnemonic for info in isa.TABLE if info.is_terminal}
    assert terminal == {"STOP", "RETURN", "REVERT", "SELFDESTRUCT", "INVALID"}
    # self-destruct both terminates and moves money
    sd = by_mnemonic("SELFDESTRUCT")
    assert sd.is_terminal and sd.is_money_related


def test_stack_effects_spot_checks():
    assert (by_mnemonic("ADD").stack_pops, by_mnemonic("ADD").stack_pushes) == (2, 1)
    assert (by_mnemonic("CALL").stack_pops, by_mnemonic("CALL").stack_pushes) == (7, 1)
    assert (by_mnemonic("DUP5").stack_pops, by_mnemonic("DUP5").stack_pushes) == (5, 6)
    assert (by_mnemonic("SWAP1").stack_pops, by_mnemonic("SWAP1").stack_pushes) == (2, 2)
    assert by_mnemonic("JUMPI").stack_pops == 2


def test_gas_spot_checks():
    gas = isa.GasTable({})
    assert gas.cost(by_mnemonic("PUSH1").byte_value) == 3
    assert gas.cost(by_mnemonic("ADD").byte_value) == 3
    assert gas.cost(by_mnemonic("STOP").byte_value) == 0
    assert gas.cost(by_mnemonic("CALL").byte_value) == 700
    assert gas.cost(by_mnemonic("JUMPDEST").byte_value) == 1


def test_gas_override_loading():
    overrides = isa.load_gas_overrides("SLOAD 800\n# comment\nCALL 2600\n")
    table = isa.GasTable(overrides)
    assert table.cost(by_mnemonic("SLOAD").byte_value) == 800
    assert table.cost(by_mnemonic("CALL").byte_value) == 2600
    assert table.cost(by_mnemonic("ADD").byte_value) == 3


def test_gas_override_rejects_unknown_mnemonic():
    with pytest.raises(ValueError):
        isa.load_gas_overrides("NOTANOP 5\n")
    with pytest.raises(ValueError):
        isa.load_gas_overrides("ADD -1\n")
    with pytest.raises(ValueError):
        isa.load_gas_overrides("ADD\n")
