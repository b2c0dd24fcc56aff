"""The report-as-dict construction that the template writer replaced.

`reference_dict` keeps the former `Report.to_dict`, `Report._path_dict` and
`CriticalPath.as_dict` verbatim in behaviour: a report's JSON text must be
exactly `json.dumps(reference_dict(report), indent=2) + "\\n"`.
`reference_source_lines` is the former per-instruction scan of a path.
"""

from __future__ import annotations

from evmscope import isa
from evmscope.cfg import Cfg
from evmscope.pathgen import ProgramPath
from evmscope.report import SCHEMA_VERSION, CriticalPath, Report


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
