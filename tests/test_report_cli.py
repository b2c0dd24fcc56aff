import json
import time
import weakref
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from evmscope.cli import main as cli_main
from evmscope.disasm import load_contract
from evmscope.keccak import selector
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.report import (
    AnalysisConfig,
    Report,
    _json_text,
    analyze,
    to_call_sequence,
    to_json,
    write_html,
)
from evmscope.symexec import const

from conftest import FIXTURES, REGISTRY_TXT, get_cfg, get_contract
from test_hostile_input import ladder_of_dangling_jumps

VOID_ELEMENTS = {"meta", "br", "img", "hr", "input", "link"}


class StrictHtmlChecker(HTMLParser):
    def __init__(self):
        super().__init__()
        self.stack = []
        self.errors = []
        self.saw_doctype = False

    def handle_decl(self, decl):
        if decl.lower().startswith("doctype html"):
            self.saw_doctype = True

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_ELEMENTS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}>")
        else:
            self.stack.pop()


def assert_valid_html(text: str) -> None:
    checker = StrictHtmlChecker()
    checker.feed(text)
    checker.close()
    assert checker.saw_doctype, "missing doctype"
    assert checker.errors == [], checker.errors
    assert checker.stack == [], f"unclosed tags: {checker.stack}"


def _config(**kwargs) -> AnalysisConfig:
    kwargs.setdefault("registry_fixture", str(REGISTRY_TXT))
    kwargs.setdefault("include_timing", False)
    return AnalysisConfig(**kwargs)


# -- end-to-end per fixture -----------------------------------------------------

def test_toydao_top_path_is_double_withdraw():
    report = analyze(get_contract("toydao"),
                     _config(bounds=PathBounds(call_depth=2), transfer_limit=30))
    assert report.statistics["violation_counts"] == {"transfer_limit": 4}
    top = report.critical_paths[0]
    assert top.call_sequence == ["withdraw()", "withdraw()"]
    assert top.ranked.violations[0].property.value == "transfer_limit"


def test_enjinbuyer_non_existing_address():
    report = analyze(get_contract("enjinbuyer"), _config())
    assert set(report.statistics["violation_counts"]) == {"non_existing_address"}
    assert all("purchase_tokens()" in cp.call_sequence for cp in report.critical_paths)


def test_bitway_black_hole_warning():
    report = analyze(get_contract("bitway"), _config())
    assert set(report.statistics["violation_counts"]) == {"black_hole"}


def test_statistics_consistency_chain():
    for name in ("toydao", "bitway", "enjinbuyer", "problematic", "micarstoken"):
        report = analyze(get_contract(name), _config(transfer_limit=30))
        s = report.statistics
        assert (s["paths_symbolically_executed"] <= s["paths_gated"]
                <= s["paths_money_related"] <= s["paths_enumerated"]), name


def test_no_infeasible_path_in_report():
    for name in ("bitway", "problematic"):
        report = analyze(get_contract(name), _config(bounds=PathBounds(call_depth=1)))
        assert all(cp.feasibility != "infeasible" for cp in report.critical_paths)


def test_violation_evidence_matches_property():
    expectations = {
        "transfer_limit": {"limit", "remaining"},
        "non_existing_address": {"address", "instruction_offset", "note"},
        "guard_suicide": {"selfdestruct_offset", "missing_guards", "present_guards"},
        "black_hole": {"payable_entry"},
    }
    for name in ("toydao", "enjinbuyer", "bitway", "problematic"):
        report = analyze(get_contract(name),
                         _config(bounds=PathBounds(call_depth=2), transfer_limit=30))
        for cp in report.critical_paths:
            for violation in cp.ranked.violations:
                assert set(violation.evidence) == expectations[violation.property.value]


def test_disable_flag_switches_off_analyzer():
    from evmscope.analyzers import PropertyId
    report = analyze(get_contract("enjinbuyer"),
                     _config(disabled={PropertyId.NON_EXISTING_ADDRESS}))
    assert report.statistics["violation_counts"] == {}


# -- call sequences ---------------------------------------------------------------

def test_call_sequence_fallback_rendering():
    contract = get_contract("fallback_only")
    cfg = get_cfg("fallback_only")
    path = next(iter(enumerate_paths(cfg, PathBounds(call_depth=1))))
    assert to_call_sequence(path, contract) == ["<fallback>"]


def test_call_sequence_with_witness_value():
    contract = get_contract("bitway")
    cfg = get_cfg("bitway")
    ct_sel = selector("createTokens()")
    path = next(p for p in enumerate_paths(cfg, PathBounds(call_depth=1))
                if p.functions[0] == ct_sel
                and cfg.blocks[p.blocks[-1]].last.mnemonic == "STOP")
    seq = to_call_sequence(path, contract, witness={"CALLVALUE#1": 301})
    assert seq == ["createTokens() {value: 301}"]


def test_call_sequence_decodes_calldata_arguments():
    contract = get_contract("problematic")
    cfg = get_cfg("problematic")
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg))
    seq = to_call_sequence(path, contract,
                           witness={"CALLDATA#1@4": 777, "CALLVALUE#1": 0})
    assert seq == ["destroycontract(address) args=[777]"]


def test_call_sequence_unknown_selector_rendered_as_hex():
    contract = get_contract("toydao")
    contract_stripped = type(contract)(
        runtime_code=contract.runtime_code, name="anon")
    cfg = get_cfg("toydao")
    path = next(filter_money(enumerate_paths(cfg, PathBounds(call_depth=1)), cfg))
    seq = to_call_sequence(path, contract_stripped)
    assert seq == [f"0x{selector('withdraw()'):08x}"]


# -- emission -----------------------------------------------------------------------

def test_json_matches_golden_byte_for_byte():
    config = _config(bounds=PathBounds(call_depth=2), transfer_limit=30)
    report = analyze(get_contract("toydao"), config)
    golden = (FIXTURES / "golden" / "toydao_report.json").read_text()
    assert to_json(report) == golden


def test_json_empty_report_is_valid():
    report = analyze(get_contract("safe_token_0"), _config())
    doc = json.loads(to_json(report))
    assert doc["schema"] == 1
    assert doc["critical_paths"] == []
    assert doc["statistics"]["violation_counts"] == {}


def _html(report, source):
    parts = []
    write_html(report, parts.append, source)
    return "".join(parts)


def test_html_well_formed_for_all_named_fixtures():
    for name in ("toydao", "bitway", "enjinbuyer", "problematic",
                 "micarstoken", "gigstoken", "safe_token_0"):
        contract = get_contract(name)
        report = analyze(contract, _config(bounds=PathBounds(call_depth=2),
                                           transfer_limit=30))
        assert_valid_html(_html(report, contract.source))


def test_html_highlights_source_lines():
    contract = get_contract("toydao")
    report = analyze(contract, _config(bounds=PathBounds(call_depth=2),
                                       transfer_limit=30))
    html_text = _html(report, contract.source)
    assert "<mark>" in html_text
    assert "msg.sender.call.value" in html_text


# -- CLI ----------------------------------------------------------------------------

def test_cli_exit_zero_without_violations(tmp_path, capsys):
    rc = cli_main(["analyze", str(FIXTURES / "safe_token_0.json"),
                   "--registry-fixture", str(REGISTRY_TXT), "--no-timing"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contract"] == "safe_token_0"


def test_cli_defaults_are_the_library_defaults(capsys):
    contract_file = FIXTURES / "toydao.json"
    cli_main(["analyze", str(contract_file), "--no-timing"])
    expected = to_json(analyze(load_contract(contract_file), AnalysisConfig(include_timing=False)))
    assert capsys.readouterr().out == expected


def test_cli_exit_two_with_violations(tmp_path):
    out = tmp_path / "report"
    rc = cli_main(["analyze", str(FIXTURES / "toydao.json"),
                   "--call-bound", "2", "--transfer-limit", "30",
                   "--registry-fixture", str(REGISTRY_TXT),
                   "--out", str(out), "--output", "both"])
    assert rc == 2
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.html").exists()
    assert_valid_html((tmp_path / "report.html").read_text())


def test_cli_exit_one_on_bad_input(tmp_path):
    bad = tmp_path / "bad.hex"
    bad.write_text("60 0g")
    assert cli_main(["analyze", str(bad)]) == 1


def test_cli_exit_one_on_bad_config(tmp_path):
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"),
                     "--call-bound", "0"]) == 1
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"),
                     "--alpha", "nosuch=3"]) == 1
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"),
                     "--epsilon", "0"]) == 1


@pytest.mark.parametrize("flags", [["--no-such-flag"], ["--call-bound", "x"],
                                   ["--reentrant-paths"]],
                         ids=["unknown_flag", "malformed_int", "retired_flag"])
def test_cli_usage_error_exits_one(capsys, flags):
    # 2 means violations found, so a usage error must not exit with argparse's 2
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage: evmscope" in err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        cli_main(["analyze", "--help"])
    assert exited.value.code == 0
    assert "--call-bound" in capsys.readouterr().out


def test_cli_dump_cfg(tmp_path):
    dot = tmp_path / "graph.dot"
    rc = cli_main(["analyze", str(FIXTURES / "toydao.json"),
                   "--registry-fixture", str(REGISTRY_TXT),
                   "--dump-cfg", str(dot), "--out", str(tmp_path / "r")])
    assert rc in (0, 2)
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "Node_112_162" in text


def test_cli_dump_cfg_and_analysis_share_the_wall_time(tmp_path):
    # without a deadline the CFG dump alone takes several times the bound
    code = tmp_path / "ladder.hex"
    code.write_text(ladder_of_dangling_jumps(1000))
    dot = tmp_path / "graph.dot"
    started = time.monotonic()
    rc = cli_main(["analyze", str(code), "--registry-fixture", str(REGISTRY_TXT),
                   "--wall-time", "1", "--dump-cfg", str(dot), "--out", str(tmp_path / "r")])
    assert time.monotonic() - started < 1 + 1
    assert rc in (0, 2)
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize("option, name", [("--dump-cfg", "x.dot"), ("--out", "report")])
def test_cli_unwritable_output_is_an_error(tmp_path, capsys, option, name):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the output's directory should be
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"),
                     "--registry-fixture", str(REGISTRY_TXT), option, str(blocker / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_wall_time_must_be_finite(capsys, value):
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"), "--wall-time", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wall_time") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--transfer-limit", "--solver-timeout"])
def test_cli_negative_limit_is_an_error(capsys, flag):
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"), "--call-bound", "2",
                     "--registry-fixture", str(REGISTRY_TXT), flag, "-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "Traceback" not in err


def test_cli_alpha_and_threshold_overrides(tmp_path, capsys):
    rc = cli_main(["analyze", str(FIXTURES / "problematic.json"),
                   "--call-bound", "1",
                   "--registry-fixture", str(REGISTRY_TXT),
                   "--alpha", "guard_suicide=27", "--threshold", "26",
                   "--no-timing"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["alpha"]["guard_suicide"] == 27.0
    assert doc["statistics"]["paths_gated"] >= 1


def test_cli_config_file_ranking_section(tmp_path, capsys):
    ini = tmp_path / "scope.ini"
    ini.write_text("[ranking]\nthreshold = 3\nepsilon = 2\nalpha.black_hole = 24\n")
    rc = cli_main(["analyze", str(FIXTURES / "bitway.json"),
                   "--registry-fixture", str(REGISTRY_TXT),
                   "--config", str(ini), "--call-bound", "1", "--no-timing"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["alpha"]["black_hole"] == 24.0
    assert doc["config"]["threshold"] == 3.0
    assert doc["config"]["epsilon"] == 2.0


def test_cli_gas_schedule_override(tmp_path, capsys):
    table = tmp_path / "gas.txt"
    table.write_text("CALL 40\n")
    # the transfer limit gives toydao critical paths, each with a gas figure
    args = ["analyze", str(FIXTURES / "toydao.json"), "--transfer-limit", "30",
            "--registry-fixture", str(REGISTRY_TXT), "--no-timing"]
    assert cli_main(args) == 2
    default = json.loads(capsys.readouterr().out)
    assert cli_main(args + ["--gas-schedule", str(table)]) == 2
    cheaper = json.loads(capsys.readouterr().out)
    # the max-gas path of toydao makes a CALL: 700 by default, 40 here
    assert 0 < cheaper["statistics"]["max_gas"]["gas"] < default["statistics"]["max_gas"]["gas"]
    assert [cp["gas"] for cp in cheaper["critical_paths"]] != \
        [cp["gas"] for cp in default["critical_paths"]]
    # the schedule changes the gas figures and nothing else
    for doc in (default, cheaper):
        doc["statistics"]["max_gas"]["gas"] = None
        for cp in doc["critical_paths"]:
            cp["gas"] = None
    assert cheaper == default


@pytest.mark.parametrize("flags, ini", [
    (["--threshold", "abc"], None),
    (["--epsilon", "1/0"], None),
    (["--alpha", "guard_suicide=1/0"], None),
    ([], "[ranking]\nthreshold = x\n"),
], ids=["threshold", "epsilon", "alpha", "ini_threshold"])
def test_cli_malformed_ranking_number_is_an_error(tmp_path, capsys, flags, ini):
    if ini is not None:
        (tmp_path / "scope.ini").write_text(ini)
        flags = ["--config", str(tmp_path / "scope.ini")]
    assert cli_main(["analyze", str(FIXTURES / "toydao.json"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_batch_mode_reports_and_summary(tmp_path):
    out = tmp_path / "reports"
    rc = cli_main(["batch", str(FIXTURES), "--registry-fixture", str(REGISTRY_TXT),
                   "--out", str(out), "--call-bound", "2"])
    assert rc == 2
    reports = sorted(p.name for p in out.glob("*.json"))
    assert "toydao.json" in reports
    assert "corpus_summary.json" in reports
    summary = json.loads((out / "corpus_summary.json").read_text())
    assert summary["totals"].get("black_hole", 0) > 0
    assert len(summary["contracts"]) == 31


def test_batch_gives_every_input_its_own_report(tmp_path):
    """Inputs that share a stem, and an input with the summary's own name,
    each keep a report: it is named by the stem where that is unique and
    not the summary's, else by the whole file name."""
    (tmp_path / "x.hex").write_text(json.loads((FIXTURES / "bitway.json").read_text())["runtime"])
    (tmp_path / "x.json").write_text((FIXTURES / "toydao.json").read_text())
    (tmp_path / "corpus_summary.json").write_text((FIXTURES / "sink_3.json").read_text())
    (tmp_path / "pay_const_0.json").write_text((FIXTURES / "pay_const_0.json").read_text())
    out = tmp_path / "reports"
    assert cli_main(["batch", str(tmp_path), "--out", str(out), "--call-bound", "1",
                     "--output", "both"]) in (0, 2)
    contracts = {"x.hex": "x", "x.json": "toydao", "corpus_summary.json": "sink_3",
                 "pay_const_0": "pay_const_0"}
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.json" for name in contracts] + [f"{name}.html" for name in contracts]
        + ["corpus_summary.json"])
    for name, contract in contracts.items():
        assert json.loads((out / f"{name}.json").read_text())["contract"] == contract
    summary = json.loads((out / "corpus_summary.json").read_text())
    assert [entry["contract"] for entry in summary["contracts"]] == [
        "sink_3", "pay_const_0", "x", "toydao"]


def test_unloadable_files_are_reported_and_skipped(tmp_path, capsys, monkeypatch):
    (tmp_path / "empty.hex").write_text("\n")
    (tmp_path / "gone.hex").write_text("00")
    (tmp_path / "sink_3.json").write_text((FIXTURES / "sink_3.json").read_text())
    assert cli_main(["analyze", str(tmp_path / "empty.hex")]) == 1
    assert capsys.readouterr().err == "error: runtime code is empty\n"

    def load(path):
        if path.name == "gone.hex":
            raise FileNotFoundError("vanished")
        return load_contract(path)

    monkeypatch.setattr("evmscope.cli.load_contract", load)
    out = tmp_path / "reports"
    assert cli_main(["batch", str(tmp_path), "--out", str(out)]) == 1
    assert (out / "sink_3.json").exists()
    contracts = json.loads((out / "corpus_summary.json").read_text())["contracts"]
    assert contracts[:2] == [{"file": "empty.hex", "error": "runtime code is empty"},
                             {"file": "gone.hex", "error": "vanished"}]
    assert [entry["file"] for entry in contracts] == ["empty.hex", "gone.hex", "sink_3.json"]


def test_batch_records_a_failed_analysis_and_goes_on(tmp_path, capsys, monkeypatch):
    for name in ("pay_const_0", "sink_3", "toydao"):
        (tmp_path / f"{name}.json").write_text((FIXTURES / f"{name}.json").read_text())
    real_analyze = analyze

    def analyze_or_fail(contract, config, **kwargs):
        if contract.name == "sink_3":
            raise RuntimeError("analysis blew up")
        return real_analyze(contract, config, **kwargs)

    monkeypatch.setattr("evmscope.cli.analyze", analyze_or_fail)
    out = tmp_path / "reports"
    assert cli_main(["batch", str(tmp_path), "--out", str(out)]) == 1
    assert f"error: {tmp_path / 'sink_3.json'}: RuntimeError: analysis blew up\n" \
        in capsys.readouterr().err
    assert (out / "pay_const_0.json").exists() and (out / "toydao.json").exists()
    assert not (out / "sink_3.json").exists()
    contracts = json.loads((out / "corpus_summary.json").read_text())["contracts"]
    assert [entry["file"] for entry in contracts] == ["pay_const_0.json", "sink_3.json",
                                                       "toydao.json"]
    assert contracts[1] == {"file": "sink_3.json", "error": "RuntimeError: analysis blew up"}


def test_batch_releases_each_report_before_the_next_analysis(tmp_path, monkeypatch):
    """Batch peak memory is one report's, not two neighbours': each report
    and its graph are gone before the next `analyze()` starts."""
    for name in ("pay_const_0", "sink_3", "toydao"):
        (tmp_path / f"{name}.json").write_text((FIXTURES / f"{name}.json").read_text())
    real_analyze = analyze
    previous: list[weakref.ref] = []
    alive_at_start = []

    def analyze_and_watch(contract, config, **kwargs):
        alive_at_start.append([ref() is not None for ref in previous])
        report = real_analyze(contract, config, **kwargs)
        previous[:] = [weakref.ref(report), weakref.ref(report.cfg)]
        return report

    monkeypatch.setattr("evmscope.cli.analyze", analyze_and_watch)
    out = tmp_path / "reports"
    assert cli_main(["batch", str(tmp_path), "--out", str(out), "--call-bound", "2",
                     "--transfer-limit", "30"]) == 2
    assert alive_at_start == [[], [False, False], [False, False]]
    for name in ("pay_const_0", "sink_3", "toydao"):
        assert (out / f"{name}.json").read_text() == to_json(real_analyze(
            load_contract(FIXTURES / f"{name}.json"),
            AnalysisConfig(bounds=PathBounds(call_depth=2), transfer_limit=30,
                           include_timing=False)))


@pytest.mark.parametrize("doc, message", [
    ('{"runtime": 5}', "envelope field 'runtime' must be a hex string, not a number"),
    ('{"runtime": "6000", "functions": {"0x12": 3}}',
     "envelope field 'functions' must map selectors to objects, not a number"),
], ids=["runtime", "functions"])
def test_mistyped_envelope_fields_are_input_errors(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    (tmp_path / "sink_3.json").write_text((FIXTURES / "sink_3.json").read_text())
    assert cli_main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    out = tmp_path / "reports"
    assert cli_main(["batch", str(tmp_path), "--out", str(out)]) == 1
    assert (out / "sink_3.json").exists()
    contracts = json.loads((out / "corpus_summary.json").read_text())["contracts"]
    assert contracts[0] == {"file": "bad.json", "error": f"{bad}: {message}"}
    assert [entry["file"] for entry in contracts] == ["bad.json", "sink_3.json"]


def test_malformed_trace_does_not_abort_analysis(tmp_path):
    # CALL on an empty stack, then STOP: every money path underflows
    (tmp_path / "underflow.hex").write_text("f100")
    report = analyze(load_contract(tmp_path / "underflow.hex"), _config(transfer_limit=30))
    abandoned = [d for d in report.diagnostics if d.startswith("trace_abandoned")]
    assert abandoned == ["trace_abandoned: StackUnderflow (pop from empty stack); "
                         "1 money path(s) not analyzed"]
    assert report.critical_paths == []
    rc = cli_main(["batch", str(tmp_path), "--transfer-limit", "30",
                   "--out", str(tmp_path / "reports")])
    assert rc == 0
    assert (tmp_path / "reports" / "underflow.json").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=40)


@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value, "") == json.dumps(value, indent=2)


def test_json_writer_edge_cases():
    value = {"big": [2 ** 64 + 1, -(2 ** 70)], "empty": [[], {}], "ü€😀": "ŝ\u2028\x00\"",
             "floats": [0.1, -0.0, 1e300, 5e-324], "flags": (True, False, None)}
    assert _json_text(value, "") == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text({1: 2}, "")
    with pytest.raises(TypeError):
        _json_text({"x": {1, 2}}, "")
    # a Word is a tuple underneath, yet no JSON value
    report = Report(contract_name="", statistics={"word": const(1)}, critical_paths=[],
                    diagnostics=[], config_echo={}, block_labels={}, cfg=None)
    with pytest.raises(TypeError):
        to_json(report)
