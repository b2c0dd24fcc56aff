"""analyze() is total: on arbitrary or byte-mutated bytecode it raises
nothing, returns within its wall time plus a margin, and its report
serializes."""

import dataclasses
import json
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from evmscope.disasm import ContractCode
from evmscope.pathgen import PathBounds
from evmscope.ranker import RankConfig
from evmscope.report import AnalysisConfig, analyze, to_json

from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_contract

WALL_TIME = 2
MARGIN = 1.0

_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) \
    + sorted(p.stem for p in MICRO.glob("*.json"))

# the default gate, and one that admits every path so the solver and replay run
_CONFIGS = st.sampled_from([
    AnalysisConfig(bounds=PathBounds(call_depth=2, wall_time=WALL_TIME),
                   rank=RankConfig(threshold=threshold), transfer_limit=30,
                   registry_fixture=str(REGISTRY_TXT), include_timing=False)
    for threshold in (Fraction(10), Fraction(0))])

_SETTINGS = settings(max_examples=120, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _assert_total(contract: ContractCode, config: AnalysisConfig) -> None:
    started = time.monotonic()
    report = analyze(contract, config)
    elapsed = time.monotonic() - started
    json.loads(to_json(report))
    assert elapsed < WALL_TIME + MARGIN, elapsed


@_SETTINGS
@given(runtime=st.binary(min_size=1, max_size=64), config=_CONFIGS)
def test_arbitrary_runtime_bytes(runtime, config):
    _assert_total(ContractCode(runtime_code=runtime, name="fuzz"), config)


@_SETTINGS
@given(runtime=st.binary(min_size=1, max_size=64), creation=st.binary(max_size=40),
       config=_CONFIGS)
def test_arbitrary_runtime_and_creation_bytes(runtime, creation, config):
    _assert_total(ContractCode(runtime_code=runtime, creation_code=creation or None,
                               name="fuzz"), config)


@st.composite
def _mutated_fixtures(draw) -> ContractCode:
    contract = get_contract(draw(st.sampled_from(_NAMES)))
    fields = ["runtime_code"] + (["creation_code"] if contract.creation_code else [])
    field = draw(st.sampled_from(fields))
    code = bytearray(getattr(contract, field))
    for _ in range(draw(st.integers(1, 4))):
        code[draw(st.integers(0, len(code) - 1))] = draw(st.integers(0, 255))
    return dataclasses.replace(contract, **{field: bytes(code)})


@_SETTINGS
@given(contract=_mutated_fixtures(), config=_CONFIGS)
def test_byte_mutated_fixtures(contract, config):
    _assert_total(contract, config)
