"""The report-as-dict construction that the template writer replaced.

`reference_dict` keeps the former `Report.to_dict`, `Report._path_dict` and
`CriticalPath.as_dict` verbatim in behaviour: a report's JSON text must be
exactly `json.dumps(reference_dict(report), indent=2) + "\\n"`.
`reference_source_lines` is the former per-instruction scan of a path.
`reference_html` is the former `to_html`, which built the whole page as
one list of lines and joined it: `write_html` must write the same text.
"""

from __future__ import annotations

import html

from evmscope import isa
from evmscope.cfg import Cfg
from evmscope.pathgen import ProgramPath
from evmscope.report import _HTML_STYLE, SCHEMA_VERSION, CriticalPath, Report


def _witness_dict(witness: dict[str, int] | None) -> dict[str, str] | None:
    if witness is None:
        return None
    return {name: (str(v) if v < (1 << 53) else hex(v))
            for name, v in sorted(witness.items())}


def _path_dict(report: Report, cp: CriticalPath) -> dict:
    score = cp.ranked.score
    return {
        "rank": cp.rank,
        "score": float(score),
        "score_exact": f"{score.numerator}/{score.denominator}",
        "length": cp.ranked.path.call_count,
        "call_sequence": cp.call_sequence,
        "violations": [v.as_dict() for v in cp.ranked.violations],
        "feasibility": cp.feasibility,
        "witness": _witness_dict(cp.witness),
        "gas": cp.gas,
        "blocks": [report.block_labels.get(b, str(b)) for b in cp.ranked.path.blocks],
        "source_lines": cp.source_lines,
    }


def reference_dict(report: Report) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "contract": report.contract_name,
        "gas_schedule": isa.GAS_SCHEDULE_NAME,
        "config": report.config_echo,
        "statistics": report.statistics,
        "critical_paths": [_path_dict(report, cp) for cp in report.critical_paths],
        "diagnostics": report.diagnostics,
    }


def reference_source_lines(path: ProgramPath, cfg: Cfg,
                           source_map: dict[int, int]) -> list[int]:
    if not source_map:
        return []
    lines = set()
    for block_id in path.blocks:
        for ins in cfg.blocks[block_id].instructions:
            if ins.offset in source_map:
                lines.add(source_map[ins.offset])
    return sorted(lines)


def reference_html(report: Report, source: str | None) -> str:
    e = html.escape
    doc = ["<!DOCTYPE html>", "<html lang=\"en\">", "<head>",
           "<meta charset=\"utf-8\">",
           f"<title>evmscope report: {e(report.contract_name)}</title>",
           f"<style>{_HTML_STYLE}</style>", "</head>", "<body>"]
    doc.append(f"<h1>evmscope report: {e(report.contract_name)}</h1>")
    doc.append(f"<p>Gas schedule: {e(isa.GAS_SCHEDULE_NAME)} (static lower-bound estimate)</p>")

    doc.append("<h2>Statistics</h2><table>")
    stats = report.statistics
    rows = [
        ("Paths enumerated", stats["paths_enumerated"]),
        ("Money-related paths", stats["paths_money_related"]),
        ("Paths past the gate", stats["paths_gated"]),
        ("Paths symbolically executed", stats["paths_symbolically_executed"]),
        ("Timed out", stats["timed_out"]),
        ("Max gas", stats["max_gas"]["gas"]),
    ]
    if stats["total_time_ms"] is not None:
        rows.insert(0, ("Total time (ms)", stats["total_time_ms"]))
    for label, value in rows:
        doc.append(f"<tr><th>{e(str(label))}</th><td>{e(str(value))}</td></tr>")
    for prop, count in stats["violation_counts"].items():
        doc.append(f"<tr><th>Warnings: {e(prop)}</th><td>{e(str(count))}</td></tr>")
    doc.append("</table>")

    doc.append("<h2>Critical paths</h2>")
    if not report.critical_paths:
        doc.append("<p>No property-violating paths.</p>")
    source_lines = source.splitlines() if source else []
    for cp in report.critical_paths:
        doc.append('<div class="path">')
        seq = " &rarr; ".join(e(s) for s in cp.call_sequence)
        doc.append(f"<h3>#{cp.rank} (score {float(cp.ranked.score):g}): {seq}</h3>")
        for v in cp.ranked.violations:
            ev = ", ".join(f"{k}={v2}" for k, v2 in sorted(
                ((k, sorted(x) if isinstance(x, (set, frozenset)) else x)
                 for k, x in v.evidence.items())))
            doc.append(f'<p class="violation">{e(v.property.value)}: {e(ev)}</p>')
        doc.append(f"<p>Feasibility: {e(cp.feasibility)}; gas: {cp.gas}; "
                   f"length: {cp.ranked.path.call_count}</p>")
        labels = " ".join(e(report.block_labels.get(b, str(b)))
                          for b in cp.ranked.path.blocks)
        doc.append(f'<p class="blocks">{labels}</p>')
        if cp.source_lines and source_lines:
            doc.append('<pre class="source">')
            for n in cp.source_lines:
                if 1 <= n <= len(source_lines):
                    doc.append(f"<mark>{n:4}: {e(source_lines[n - 1])}</mark>")
            doc.append("</pre>")
        doc.append("</div>")
    doc.append("</body>")
    doc.append("</html>")
    return "\n".join(doc) + "\n"
