"""The benchmark reaches evmscope from outside the package: `perfbench/run.py`
and `perfbench/pin.py` read `ev.<module>.<name>`, and the traced run patches
names.  Each of them must still exist, and take the keywords the benchmark
passes, or the benchmark fails where tier-1 would not."""

import ast
import importlib
import inspect
import re

import evmscope.report
import evmscope.symexec

from conftest import ROOT

_PERFBENCH = ROOT / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"


def _patched(module: str) -> set[str]:
    return set(re.findall(rf'\(\s*{module}\s*,\s*"(\w+)"', _TRACER.read_text()))


def _is_ev(expr: ast.expr) -> bool:
    """`ev` or `<anything>.ev`: the program namespace of `run.import_program`."""
    return (isinstance(expr, ast.Name) and expr.id == "ev") or \
        (isinstance(expr, ast.Attribute) and expr.attr == "ev")


def _ev_reads(*scripts: str) -> dict[tuple[str, str], set[str]]:
    """(module, name) of each `ev.<module>.<name>` the scripts read, with the
    keywords of every call made on it."""
    reads: dict[tuple[str, str], set[str]] = {}
    for script in scripts:
        for n in ast.walk(ast.parse((_PERFBENCH / script).read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute) \
                    and _is_ev(n.value.value):
                reads.setdefault((n.value.attr, n.attr), set())
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and isinstance(n.func.value, ast.Attribute) and _is_ev(n.func.value.value):
                reads.setdefault((n.func.value.attr, n.func.attr), set()).update(
                    k.arg for k in n.keywords if k.arg)
    return reads


def test_every_name_the_tracer_patches_exists():
    report_names, symexec_names = _patched("report"), _patched("symexec")
    assert {"analyze", "enumerate_paths", "filter_money", "trace_path"} <= report_names
    assert {"execute_path", "replay_blocks"} <= symexec_names
    assert [n for n in sorted(report_names) if not hasattr(evmscope.report, n)] == []
    assert [n for n in sorted(symexec_names) if not hasattr(evmscope.symexec, n)] == []


def test_every_name_the_benchmark_reads_exists():
    reads = _ev_reads("run.py", "pin.py")
    assert {("symexec", "replay_blocks"), ("symexec", "run_constructor"),
            ("solver", "default_solver"), ("pathgen", "filter_money")} <= set(reads)
    assert reads[("report", "AnalysisConfig")] >= {"bounds", "registry_fixture"}
    missing, refused = [], []
    for (module, name), keywords in sorted(reads.items()):
        found = getattr(importlib.import_module(f"evmscope.{module}"), name, None)
        if found is None:
            missing.append(f"{module}.{name}")
        elif keywords - set(inspect.signature(found).parameters):
            refused.append((f"{module}.{name}", sorted(keywords)))
    assert missing == []
    assert refused == []
