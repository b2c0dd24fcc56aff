"""Regenerate the bundled fixture files.

Usage: python tests/gen_fixtures.py
Writes JSON envelopes into fixtures/, the offline address table, the
micro programs used by the CFG and solver-soundness suites, the golden toydao
report and the sha256 of every fixture's report in each configuration of
`report_configs()`.  The outputs are deterministic; the checked-in copies are
the pinned versions the test suite runs against.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fixtures_src import (  # noqa: E402
    build_micro_dispatcher,
    corpus_variants,
    micro_programs,
    named_fixtures,
    registry_table,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def write_envelope(directory: Path, doc: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_golden() -> None:
    """Pinned end-to-end report for the reproducibility test."""
    from evmscope.disasm import load_contract
    from evmscope.pathgen import PathBounds
    from evmscope.report import AnalysisConfig, analyze, to_json

    config = AnalysisConfig(
        bounds=PathBounds(call_depth=2),
        transfer_limit=30,
        registry_fixture=str(FIXTURES / "registry.txt"),
        include_timing=False,
    )
    report = analyze(load_contract(FIXTURES / "toydao.json"), config)
    golden_dir = FIXTURES / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    (golden_dir / "toydao_report.json").write_text(to_json(report))


def report_configs():
    """(label, config) for each call bound 1-4, the default threshold and
    threshold 0; the solver's timeout is long enough that every query
    decides."""
    from fractions import Fraction

    from evmscope.pathgen import PathBounds
    from evmscope.ranker import RankConfig
    from evmscope.report import AnalysisConfig

    for call_bound in (1, 2, 3, 4):
        for threshold in (RankConfig().threshold, Fraction(0)):
            yield f"b{call_bound} threshold={threshold}", AnalysisConfig(
                bounds=PathBounds(call_depth=call_bound),
                rank=RankConfig(threshold=threshold), transfer_limit=30,
                registry_fixture=str(FIXTURES / "registry.txt"), include_timing=False,
                solver_timeout_ms=2000)


def report_hashes() -> list[str]:
    """One line per fixture and configuration: the fixture, the
    configuration and the sha256 of the report's `to_json` text."""
    from evmscope.disasm import load_contract
    from evmscope.report import analyze, to_json

    files = sorted(FIXTURES.glob("*.json")) + sorted((FIXTURES / "micro").glob("*.json"))
    contracts = [load_contract(f) for f in files]
    lines = []
    for label, config in report_configs():
        for contract in contracts:
            text = to_json(analyze(contract, config))
            lines.append(f"{contract.name} {label} "
                         f"{hashlib.sha256(text.encode()).hexdigest()}")
    return lines


REPORT_HASHES = FIXTURES / "golden" / "report_sha256.txt"


def main() -> None:
    for doc in named_fixtures() + corpus_variants():
        write_envelope(FIXTURES, doc)
    micro_dir = FIXTURES / "micro"
    write_envelope(micro_dir, build_micro_dispatcher())
    for doc in micro_programs():
        write_envelope(micro_dir, doc)
    lines = [f"0x{addr:040x},{1 if exists else 0}"
             for addr, exists in sorted(registry_table().items())]
    (FIXTURES / "registry.txt").write_text("\n".join(lines) + "\n")
    write_golden()
    REPORT_HASHES.write_text("\n".join(report_hashes()) + "\n")
    count = len(list(FIXTURES.glob("*.json")))
    print(f"wrote {count} contract fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
