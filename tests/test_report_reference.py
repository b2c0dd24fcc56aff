"""The template JSON writer against the report-as-dict reference.

`report_reference.py` keeps the former dict construction of a report.
`write_json` writes critical paths from a fixed template, one at a time,
and what it writes, into a string buffer, into a file, or joined by
`to_json`, must be exactly `json.dumps(reference_dict(report), indent=2) +
"\\n"`: for every fixture at call bounds 1 to 4 (witness-bearing reports,
witness arguments and values in call sequences, two-violation paths, source
lines) and for hand-built reports that no fixture produces.  Each path's
call sequence and source lines, made once per distinct input within an
analysis, must equal those made for the path alone, and the warning counts,
made once per distinct violations tuple, must equal a count over every path
and violation.  `write_html` writes a page, one critical path at a time,
that must equal the page the former `to_html` built whole.
"""

import dataclasses
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

import evmscope.report as report_module
from evmscope.analyzers import PropertyId, PropertyViolation
from evmscope.pathgen import PathBounds, ProgramPath, enumerate_paths
from evmscope.ranker import RankedPath
from evmscope.report import (
    AnalysisConfig,
    CriticalPath,
    Report,
    _config_echo,
    analyze,
    emit,
    to_call_sequence,
    to_json,
    write_html,
    write_json,
)

from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_cfg, get_contract
from report_reference import reference_dict, reference_html, reference_source_lines

NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) + \
    sorted(p.stem for p in MICRO.glob("*.json"))


def _config(call_bound: int) -> AnalysisConfig:
    return AnalysisConfig(bounds=PathBounds(call_depth=call_bound), transfer_limit=30,
                          registry_fixture=str(REGISTRY_TXT), include_timing=False,
                          solver_timeout_ms=2000)  # every query decides


def _assert_matches_reference(report: Report, tmp_path) -> str:
    """The report's text, checked against the reference, written into a
    string buffer one critical path per write and written into a file."""
    text = to_json(report)
    assert text == json.dumps(reference_dict(report), indent=2) + "\n"
    buffer, writes = io.StringIO(), []
    write_json(report, lambda chunk: writes.append(buffer.write(chunk)))
    assert buffer.getvalue() == text
    # the head, each path (or an empty list), then the list's end and the tail
    assert len(writes) == 3 + len(report.critical_paths)
    out = tmp_path / "report.json"
    with out.open("w") as fp:
        write_json(report, fp.write)
    assert out.read_text() == text
    return text


@pytest.mark.parametrize("call_bound", [1, 2, 3, 4])
def test_every_fixture_report_matches_reference(call_bound, tmp_path):
    config = _config(call_bound)
    kinds = set()
    for name in NAMES:
        contract, cfg = get_contract(name), get_cfg(name)
        report = analyze(contract, config)
        _assert_matches_reference(report, tmp_path)
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


@pytest.mark.parametrize("call_bound", [2, 3])
def test_every_fixture_html_page_streams_the_reference_page(call_bound, tmp_path):
    config = _config(call_bound)
    for name in NAMES:
        contract = get_contract(name)
        report = analyze(contract, config)
        page = reference_html(report, contract.source)
        writes: list[str] = []
        write_html(report, writes.append, contract.source)
        assert "".join(writes) == page, name
        # the head, each path, then the tail
        assert len(writes) == 2 + len(report.critical_paths), name
        emit(report, "both", tmp_path / name, contract.source)
        assert (tmp_path / f"{name}.html").read_text() == page, name
        assert (tmp_path / f"{name}.json").read_text() == to_json(report), name


def test_report_with_no_critical_paths(tmp_path):
    report = analyze(get_contract("safe_token_0"), _config(2))
    assert report.critical_paths == []
    assert '"critical_paths": [],' in _assert_matches_reference(report, tmp_path)
    bare = Report(contract_name="", statistics={}, critical_paths=[], diagnostics=[],
                  config_echo={}, block_labels={}, cfg=None)
    _assert_matches_reference(bare, tmp_path)


def test_non_ascii_name_signature_and_diagnostic(tmp_path):
    contract = get_contract("toydao")
    functions = {sel: {**meta, "signature": "wíthdraw€😀()"}
                 for sel, meta in contract.functions.items()}
    renamed = dataclasses.replace(contract, name="Tøy☃DAO ", functions=functions)
    report = analyze(renamed, _config(2))
    report.diagnostics.append("naïve: \"quoted\"\tand \x00 escaped")
    assert report.critical_paths
    assert any("€" in s for cp in report.critical_paths for s in cp.call_sequence)
    text = _assert_matches_reference(report, tmp_path)
    assert text.isascii()


def _hand_built_path(rank: int, score: Fraction, blocks: tuple[int, ...],
                     violations: tuple[PropertyViolation, ...],
                     witness: dict[str, int] | None) -> CriticalPath:
    path = ProgramPath(blocks=blocks, functions=(1, 2))
    return CriticalPath(
        rank=rank,
        ranked=RankedPath(path=path, violations=violations, score=score),
        call_sequence=["f(uint256) args=[1]", "↩g()"],
        feasibility="feasible" if witness else "not_checked",
        witness=witness,
        gas=2 ** 70,
        source_lines=[3, 9] if witness else [],
    )


def test_hand_built_paths_witness_scores_and_evidence(tmp_path):
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
        cfg=None,
    )
    text = _assert_matches_reference(report, tmp_path)
    assert '"CALLVALUE#1": "0x20000000000000"' in text
    assert '"CALLDATA#1@4": "9007199254740991"' in text
    assert '"limit": 1,' in text and '"limit": true,' in text
    assert '"99"' in text


def test_rows_that_share_their_objects_keep_their_own_witness_and_length(tmp_path):
    """Rows without a witness share the text from score to witness when
    they share the score object, the violations tuple, the call-sequence
    list and the feasibility; a row with a witness, or with another number
    of calls, writes its own.  Paths with one piece and with none."""
    cfg = get_cfg("toydao")
    single = next(iter(enumerate_paths(cfg, PathBounds(call_depth=1))))
    assert len(single.pieces) == 1
    two = next(p for p in enumerate_paths(cfg, PathBounds(call_depth=2))
               if p.call_count == 2)
    bare = ProgramPath(blocks=two.blocks, functions=two.functions)  # no pieces
    score = Fraction(7, 3)
    violations = (PropertyViolation(PropertyId.TRANSFER_LIMIT, {"limit": 30, "remaining": -1}),)
    calls = ["withdraw()", "donate() {value: 5}"]
    witness = {"CALLVALUE#2": 5, "CALLER#1": 2 ** 160 - 1}

    def row(rank, path, witness, gas, lines):
        return CriticalPath(rank, RankedPath(path, violations, score), calls,
                            "feasible", witness, gas, lines)

    report = Report(
        contract_name="shared",
        statistics={"violation_counts": {"transfer_limit": 5}},
        critical_paths=[row(1, single, None, 10, []), row(2, single, witness, 11, [2]),
                        row(3, bare, None, 12, [3, 5]), row(4, single, None, 13, []),
                        row(5, bare, witness, 14, [])],
        diagnostics=[],
        config_echo={},
        block_labels={b.id: b.label for b in cfg.blocks.values()},
        cfg=cfg,
    )
    text = _assert_matches_reference(report, tmp_path)
    assert text.count('"witness": null') == 3
    assert text.count('"CALLER#1": "0xffffffffffffffffffffffffffffffffffffffff"') == 2
    assert text.count('"length": 1,') == 3 and text.count('"length": 2,') == 2


@pytest.mark.parametrize("call_bound", [1, 2, 3, 4])
def test_warning_counts_count_every_path_and_violation(call_bound):
    config = _config(call_bound)
    shown = set()
    for name in NAMES:
        report = analyze(get_contract(name), config)
        counted = Counter(v.property.value for cp in report.critical_paths
                          for v in cp.ranked.violations)
        assert list(report.statistics["violation_counts"].items()) == \
            sorted(counted.items()), name
        shown |= set(counted)
    assert len(shown) >= 3


def test_a_corpus_pass_renders_each_shared_row_middle_once(monkeypatch):
    """A corpus pass at call bound 4 writes 10,324 critical paths and
    renders the text from score to witness at most 682 times: once per
    score object, violations tuple, call-sequence list and feasibility."""
    rendered = []
    row_middle = report_module._row_middle
    monkeypatch.setattr(report_module, "_row_middle",
                        lambda *args: rendered.append(1) or row_middle(*args))
    config = AnalysisConfig(bounds=PathBounds(call_depth=4), transfer_limit=30,
                            registry_fixture=str(REGISTRY_TXT), include_timing=False)
    rows = 0
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        report = analyze(get_contract(name), config)
        to_json(report)
        rows += len(report.critical_paths)
    assert rows == 10324
    assert 0 < len(rendered) <= 682
