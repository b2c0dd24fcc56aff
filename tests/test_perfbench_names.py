"""The benchmark's traced run patches evmscope names from outside the
package; each name it patches must still exist, or `perfbench/run.py` with
tracing on fails."""

import re

import evmscope.report
import evmscope.symexec

from conftest import ROOT

_TRACER = ROOT / "perfbench" / "tracer.py"


def _patched(module: str) -> set[str]:
    return set(re.findall(rf'\(\s*{module}\s*,\s*"(\w+)"', _TRACER.read_text()))


def test_every_name_the_tracer_patches_exists():
    report_names, symexec_names = _patched("report"), _patched("symexec")
    assert {"analyze", "enumerate_paths", "filter_money", "trace_path"} <= report_names
    assert {"execute_path", "replay_blocks"} <= symexec_names
    assert [n for n in sorted(report_names) if not hasattr(evmscope.report, n)] == []
    assert [n for n in sorted(symexec_names) if not hasattr(evmscope.symexec, n)] == []
