"""The template JSON writer against the report-as-dict reference.

`report_reference.py` keeps the former dict construction of a report.
`to_json` writes critical paths from a fixed template and must give exactly
`json.dumps(reference_dict(report), indent=2) + "\\n"`: for every fixture at
call bounds 1 to 4 (witness-bearing reports, witness arguments and values in
call sequences, two-violation paths, source lines) and for hand-built reports that no fixture produces.  Each path's
call sequence and source lines, made once per distinct input within an
analysis, must equal those made for the path alone.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from evmscope.analyzers import PropertyId, PropertyViolation
from evmscope.pathgen import PathBounds, ProgramPath
from evmscope.ranker import RankedPath
from evmscope.report import (
    AnalysisConfig,
    CriticalPath,
    Report,
    _config_echo,
    analyze,
    to_call_sequence,
    to_json,
)

from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_cfg, get_contract
from report_reference import reference_dict, reference_source_lines

NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) + \
    sorted(p.stem for p in MICRO.glob("*.json"))


def _config(call_bound: int) -> AnalysisConfig:
    return AnalysisConfig(bounds=PathBounds(call_depth=call_bound), transfer_limit=30,
                          registry_fixture=str(REGISTRY_TXT), include_timing=False,
                          solver_timeout_ms=2000)  # every query decides


def _assert_matches_reference(report: Report) -> str:
    text = to_json(report)
    assert text == json.dumps(reference_dict(report), indent=2) + "\n"
    return text


@pytest.mark.parametrize("call_bound", [1, 2, 3, 4])
def test_every_fixture_report_matches_reference(call_bound):
    config = _config(call_bound)
    kinds = set()
    for name in NAMES:
        contract, cfg = get_contract(name), get_cfg(name)
        report = analyze(contract, config)
        _assert_matches_reference(report)
        for cp in report.critical_paths:
            path = cp.ranked.path
            assert cp.call_sequence == to_call_sequence(path, contract, cp.witness)
            assert cp.source_lines == reference_source_lines(path, cfg, contract.source_map)
            kinds.add(("witness", cp.witness is not None))
            kinds.add(("violations", len(cp.ranked.violations)))
            kinds.add(("source_lines", bool(cp.source_lines)))
            kinds.add(("witness_shown", any(" args=" in s or "{value:" in s
                                            for s in cp.call_sequence)))
    # the corpus exercises each part of the template
    if call_bound == 1:
        assert ("witness_shown", True) in kinds
    else:
        assert {("violations", 2), ("source_lines", True)} <= kinds
    if call_bound <= 2:
        assert ("witness", True) in kinds


def test_report_with_no_critical_paths():
    report = analyze(get_contract("safe_token_0"), _config(2))
    assert report.critical_paths == []
    assert '"critical_paths": [],' in _assert_matches_reference(report)
    bare = Report(contract_name="", statistics={}, critical_paths=[], diagnostics=[],
                  config_echo={}, block_labels={})
    _assert_matches_reference(bare)


def test_non_ascii_name_signature_and_diagnostic():
    contract = get_contract("toydao")
    functions = {sel: {**meta, "signature": "wíthdraw€😀()"}
                 for sel, meta in contract.functions.items()}
    renamed = dataclasses.replace(contract, name="Tøy☃DAO ", functions=functions)
    report = analyze(renamed, _config(2))
    report.diagnostics.append("naïve: \"quoted\"\tand \x00 escaped")
    assert report.critical_paths
    assert any("€" in s for cp in report.critical_paths for s in cp.call_sequence)
    text = _assert_matches_reference(report)
    assert text.isascii()


def _hand_built_path(rank: int, score: Fraction, blocks: tuple[int, ...],
                     violations: tuple[PropertyViolation, ...],
                     witness: dict[str, int] | None) -> CriticalPath:
    path = ProgramPath(blocks=blocks, functions=((1, "initial"), (2, "initial")))
    return CriticalPath(
        rank=rank,
        ranked=RankedPath(path=path, violations=violations, score=score),
        call_sequence=["f(uint256) args=[1]", "↩g()"],
        feasibility="feasible" if witness else "not_checked",
        witness=witness,
        gas=2 ** 70,
        source_lines=[3, 9] if witness else [],
    )


def test_hand_built_paths_witness_scores_and_evidence():
    suicide = PropertyViolation(PropertyId.GUARD_SUICIDE, {
        "selfdestruct_offset": 7, "missing_guards": {"time_or_height", "ownership"},
        "present_guards": set()})
    limit = PropertyViolation(PropertyId.TRANSFER_LIMIT, {"limit": 30, "remaining": -1})
    # equal as dicts (1 == True) but written apart
    one = PropertyViolation(PropertyId.TRANSFER_LIMIT, {"limit": 1, "remaining": -1})
    flag = PropertyViolation(PropertyId.TRANSFER_LIMIT, {"limit": True, "remaining": -1})
    witness = {"CALLVALUE#1": 2 ** 53, "CALLDATA#1@4": 2 ** 53 - 1,
               "CALLER#2": 2 ** 160 - 1, "TIMESTAMP#1": 0}
    report = Report(
        contract_name="hand",
        statistics={"paths_enumerated": 3, "max_gas": {"gas": 1, "call_sequence": []}},
        critical_paths=[
            _hand_built_path(1, Fraction(11, 2), (0, 4, 99), (suicide, limit), witness),
            # an equal score in another object
            _hand_built_path(2, Fraction(11, 2), (0, 4), (suicide, limit), None),
            _hand_built_path(3, Fraction(1, 3), (4,), (one,), None),
            _hand_built_path(4, Fraction(1, 3), (4,), (flag,), None),
            _hand_built_path(5, Fraction(1, 3), (0,), (suicide,), None),  # a prefix
        ],
        diagnostics=["one", "two"],
        config_echo=_config_echo(AnalysisConfig()),
        block_labels={0: "entry", 4: "0x4:ret"},  # block 99 has no label
    )
    text = _assert_matches_reference(report)
    assert '"CALLVALUE#1": "0x20000000000000"' in text
    assert '"CALLDATA#1@4": "9007199254740991"' in text
    assert '"limit": 1,' in text and '"limit": true,' in text
    assert '"99"' in text
