"""analyze() traces paths as the unfolding yields them.

The trace walk takes the selected paths one at a time, so a deadline leaves
all but a few of them unbuilt, the paths not analyzed are counted exactly,
and the paths traced for guard_suicide alone are the money paths that run a
SELFDESTRUCT block.
"""

import itertools
import time

import pytest

import evmscope.report as report_module
from evmscope.analyzers import detect_payable_entries
from evmscope.disasm import ContractCode, disassemble, parse_hex
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.report import AnalysisConfig, analyze

from conftest import FIXTURES, REGISTRY_TXT, get_cfg, get_contract
from test_unfolding_pieces import _diamonds

CORPUS = sorted(p.stem for p in FIXTURES.glob("*.json"))


def _trace_diagnostics(report) -> list[str]:
    return [d for d in report.diagnostics if d.startswith("trace_timed_out")]


def test_analyze_builds_paths_only_as_it_traces_them(monkeypatch):
    clock = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    built = []

    class Recorded(report_module.PathEnumeration):
        def walk(self, marked, step, start):
            for path, value in super().walk(marked, step, start):
                built.append(path)
                yield path, value

    shared_walk = report_module.execute_paths

    def walk_then_expire(*args, **kwargs):
        for n, outcome in enumerate(shared_walk(*args, **kwargs)):
            if n == 2:
                clock[0] += 10_000  # the wall time runs out while the third path is traced
            yield outcome

    monkeypatch.setattr(report_module, "PathEnumeration", Recorded)
    monkeypatch.setattr(report_module, "execute_paths", walk_then_expire)
    report = analyze(get_contract("toydao"), AnalysisConfig(
        bounds=PathBounds(call_depth=4), transfer_limit=30,
        registry_fixture=str(REGISTRY_TXT), include_timing=False))
    money = report.statistics["paths_money_related"]
    assert report.statistics["timed_out"] is True
    assert _trace_diagnostics(report) == [
        f"trace_timed_out: deadline passed; {money - 2} money path(s) not analyzed"]
    # the three paths traced: the walk looks no path ahead
    assert len(built) == 3 < money


def test_a_timed_out_report_counts_the_paths_not_analyzed(monkeypatch):
    # the clock runs out on its 40th reading, while the unfolding is still
    # selecting paths; each path analyzed asks for its facts' verdict once
    readings = itertools.count()
    monkeypatch.setattr(time, "monotonic",
                        lambda: 1000.0 if next(readings) < 40 else 1e9)
    checked = []

    class Counted(report_module.PathFacts):
        def verdict(self, facts):
            checked.append(1)
            return super().verdict(facts)

    monkeypatch.setattr(report_module, "PathFacts", Counted)
    contract = ContractCode(runtime_code=parse_hex(_diamonds(5)), name="diamonds_5")
    report = analyze(contract, AnalysisConfig(bounds=PathBounds(call_depth=3),
                                              include_timing=False))
    money = report.statistics["paths_money_related"]
    assert report.statistics["timed_out"] is True
    assert money == 32 ** 3  # exact, though most money paths were never built
    assert 0 < len(checked) < money
    assert _trace_diagnostics(report) == [
        f"trace_timed_out: deadline passed; {money - len(checked)} money path(s) "
        f"not analyzed"]


@pytest.mark.parametrize("call_bound", [2, 4])
def test_guard_suicide_alone_traces_the_money_paths_that_self_destruct(monkeypatch,
                                                                       call_bound):
    traced = []
    shared_walk = report_module.execute_paths

    def recording_walk(*args, **kwargs):
        for path, outcome in shared_walk(*args, **kwargs):
            traced.append(path)
            yield path, outcome

    monkeypatch.setattr(report_module, "execute_paths", recording_walk)
    bounds = PathBounds(call_depth=call_bound)
    config = AnalysisConfig(bounds=bounds, registry_mode="disabled", include_timing=False)
    some = fewer = 0
    for name in CORPUS:
        cfg = get_cfg(name)
        expected = []
        if cfg.money_blocks:
            payable, _details = detect_payable_entries(
                cfg, disassemble(get_contract(name).runtime_code))
            destructs = {b.id for b in cfg.blocks.values()
                         if any(i.mnemonic == "SELFDESTRUCT" for i in b.instructions)}
            money = list(filter_money(enumerate_paths(cfg, bounds), cfg, payable))
            expected = [p for p in money if any(b in destructs for b in p.blocks)]
            fewer += len(expected) < len(money)
        traced.clear()
        analyze(get_contract(name), config)
        assert traced == expected, name
        some += bool(expected)
    assert some and fewer
