"""The front end against its frozen reference (`frontend_reference`).

Disassembly and CFG recovery give the identical blocks (offsets,
terminator, each instruction's offset, byte and immediate), edges,
dangling jumps, diagnostics and function entries on every fixture's
runtime and creation code, the micro programs, the hostile ladders and
random bytes.  The constructor pre-run over the creation code's blocks
alone gives what it gives over the whole graph, and a corpus pass
recovers one graph per contract: its runtime code's.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import evmscope.cfg as cfg_module
from evmscope.cfg import Cfg, build_blocks, build_cfg
from evmscope.disasm import disassemble, parse_hex
from evmscope.pathgen import PathBounds
from evmscope.report import AnalysisConfig, analyze
from evmscope.symexec import run_constructor

from conftest import FIXTURES, MICRO, get_contract
from frontend_reference import reference_build_cfg, reference_disassemble
from test_hostile_input import diamonds_beside_a_dangling_jump, ladder_of_dangling_jumps

_CORPUS = [p.stem for p in sorted(FIXTURES.glob("*.json"))]
_MICRO = [p.stem for p in sorted(MICRO.glob("*.json"))]


def _decoded(instructions) -> list[tuple]:
    return [(ins.offset, ins.info.byte_value, ins.immediate) for ins in instructions]


def _shape(cfg) -> tuple:
    return (
        [(block_id, block.first_offset, block.last_offset, block.terminator,
          _decoded(block.instructions)) for block_id, block in cfg.blocks.items()],
        sorted((edge.src, edge.dst, edge.kind.value) for edge in cfg.edges),
        sorted(cfg.dangling),
        [(d.code, d.message, d.offset) for d in cfg.diagnostics],
        list(cfg.function_entries.items()),
    )


def _assert_same_front_end(code: bytes) -> None:
    instructions = disassemble(code)
    reference = reference_disassemble(code)
    assert _decoded(instructions) == _decoded(reference)
    if code:
        assert _shape(build_cfg(instructions)) == _shape(reference_build_cfg(reference))


def test_the_corpus_has_31_contracts_each_with_creation_code():
    assert len(_CORPUS) == 31 and len(_MICRO) == 21
    assert all(get_contract(name).creation_code for name in _CORPUS)


@pytest.mark.parametrize("name", _CORPUS + _MICRO)
def test_front_end_matches_the_reference_on_every_fixture(name):
    contract = get_contract(name)
    _assert_same_front_end(contract.runtime_code)
    if contract.creation_code:
        _assert_same_front_end(contract.creation_code)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_front_end_matches_the_reference_beside_diamonds(n):
    _assert_same_front_end(parse_hex(diamonds_beside_a_dangling_jump(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30])
def test_front_end_matches_the_reference_on_a_ladder(n):
    _assert_same_front_end(parse_hex(ladder_of_dangling_jumps(n)))


# JUMPDESTs, pushed targets and the jumps that take them, among any bytes
_PIECES = st.one_of(
    st.just(b"\x5b"), st.sampled_from([b"\x56", b"\x57", b"\x80", b"\x90", b"\x00"]),
    st.integers(0, 300).map(lambda t: bytes([0x60, t]) if t < 256 else bytes([0x61, 0, t - 256])),
    st.binary(min_size=1, max_size=4))


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_PIECES, max_size=120).map(b"".join).map(lambda code: code[:300]))
def test_front_end_matches_the_reference_on_random_bytes(code):
    _assert_same_front_end(code)


@pytest.mark.parametrize("name", _CORPUS)
def test_the_pre_run_over_blocks_alone_matches_the_whole_graph(name):
    code = get_contract(name).creation_code
    instructions = disassemble(code)
    whole = run_constructor(build_cfg(instructions), code)
    assert run_constructor(Cfg(build_blocks(instructions), 0), code) == whole


def test_a_corpus_pass_simulates_the_stack_of_runtime_code_alone(monkeypatch):
    calls = []
    simulate = cfg_module.stack_simulate
    monkeypatch.setattr(cfg_module, "stack_simulate",
                        lambda *args: calls.append(1) or simulate(*args))
    config = AnalysisConfig(bounds=PathBounds(call_depth=1), registry_mode="disabled",
                            include_timing=False)
    for name in _CORPUS:
        analyze(get_contract(name), config)
    assert len(calls) == 31
