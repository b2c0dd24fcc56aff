"""Pipeline orchestration and report generation.

Runs the six stages (disassemble, CFG recovery, bounded path enumeration
with money filtering, property analysis on the trace walk, criticalness
ranking with the threshold gate, symbolic-execution feasibility filtering)
and assembles machine-readable (JSON) and human-readable (HTML) reports.
`write_json` and `write_html` write a report's JSON and HTML text row by
row through the caller's `write`, so a file or stdout never waits for the
whole text; `to_json` joins the JSON rows for the callers that want a
string.
"""

from __future__ import annotations

import html
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import isa
# perfbench/tracer.py patches the per-path check_* here, which analyze()
# leaves to PathFacts
from .analyzers import (  # noqa: F401
    GasEstimator,
    PathFacts,
    PropertyId,
    check_address_existence,
    check_black_hole,
    check_guard_suicide,
    check_transfer_limit,
    detect_payable_entries,
)
from .cfg import Cfg, FALLBACK, build_cfg
from .disasm import ContractCode, disassemble
# perfbench/tracer.py patches enumerate_paths and filter_money here
from .pathgen import (  # noqa: F401
    PathBounds,
    PathEnumeration,
    ProgramPath,
    enumerate_paths,
    filter_money,
)
from .ranker import RankConfig, RankedPath, make_ranked, rank_and_gate
from .registry import AddressRegistry
from .solver import BoundedSolver, default_solver
from .symexec import (
    SOLVER_TIMEOUT_MS,
    Feasibility,
    FeasibilityStatus,
    SymExecError,
    Word,
    execute_path,
    execute_paths,
    refine_transfer_values,  # noqa: F401 -- perfbench/tracer.py patches this name
    run_constructor,
    trace_path,  # noqa: F401 -- re-exported; perfbench/tracer.py patches this name
)

SCHEMA_VERSION = 1

# the one verdict the report gives itself: a path the gate did not execute
FEAS_NOT_CHECKED = "not_checked"


@dataclass
class AnalysisConfig:
    bounds: PathBounds = field(default_factory=PathBounds)
    rank: RankConfig = field(default_factory=RankConfig)
    transfer_limit: int | None = None
    registry_mode: str = "offline"
    registry_fixture: str | None = None
    registry_cache: str | None = None
    solver_timeout_ms: int = SOLVER_TIMEOUT_MS
    disabled: set[PropertyId] = field(default_factory=set)
    include_timing: bool = True
    gas_overrides: dict[int, int] = field(default_factory=dict)


class CriticalPath(NamedTuple):
    """One row of the ranked list."""
    rank: int
    ranked: RankedPath
    call_sequence: list[str]
    feasibility: str
    witness: dict[str, int] | None
    gas: int
    source_lines: list[int]


def _witness_dict(witness: dict[str, int] | None) -> dict[str, str] | None:
    if witness is None:
        return None
    return {name: (str(v) if v < (1 << 53) else hex(v))
            for name, v in sorted(witness.items())}


@dataclass
class Report:
    contract_name: str
    statistics: dict
    critical_paths: list[CriticalPath]
    diagnostics: list[str]
    config_echo: dict
    block_labels: dict[int, str]
    cfg: Cfg  # the graph the analysis ran on, for --dump-cfg

    @property
    def has_violations(self) -> bool:
        return any(cp.ranked.violations for cp in self.critical_paths)


def _config_echo(config: AnalysisConfig) -> dict:
    return {
        "call_bound": config.bounds.call_depth,
        "loop_bound": config.bounds.loop_bound,
        "max_blocks": config.bounds.max_blocks,
        "wall_time_s": config.bounds.wall_time,
        "solver_timeout_ms": config.solver_timeout_ms,
        "transfer_limit": config.transfer_limit,
        "threshold": float(config.rank.threshold),
        "epsilon": float(config.rank.epsilon),
        "alpha": {p.value: float(a) for p, a in sorted(
            config.rank.alpha.items(), key=lambda kv: kv[0].value)},
        "registry_mode": config.registry_mode,
        "disabled": sorted(p.value for p in config.disabled),
        "reentrant_paths": False,  # schema 1 carries it; the unfolding has no such mode
    }


def _function_display(contract: ContractCode, sel) -> str:
    if sel is None:
        return "<unknown>"
    if sel == FALLBACK:
        return "<fallback>"
    meta = contract.functions.get(sel)
    if meta and meta.get("signature"):
        return meta["signature"]
    return f"0x{sel:08x}"


def to_call_sequence(path: ProgramPath, contract: ContractCode,
                     witness: dict[str, int] | None = None) -> list[str]:
    """Render the path as the function-call sequence it represents.

    With a witness, decoded calldata words become concrete arguments and a
    nonzero message value is shown.  Each selector is a call, a new transaction.
    """
    out: list[str] = []
    for txn, sel in enumerate(path.functions, start=1):
        name = _function_display(contract, sel)
        extras = ""
        if witness:
            args = [(int(k.split("@")[1]), v) for k, v in witness.items()
                    if k.startswith("CALLDATA#") and f"#{txn}@" in k
                    and int(k.split("@")[1]) >= 4]
            if args:
                rendered = ", ".join(str(v) for _off, v in sorted(args))
                extras += f" args=[{rendered}]"
            value = witness.get(f"CALLVALUE#{txn}", 0)
            if value:
                extras += f" {{value: {value}}}"
        out.append(f"{name}{extras}")
    return out


def _source_lines(path: ProgramPath, cfg: Cfg, source_map: dict[int, int],
                  piece_lines: dict[int, frozenset[int]]) -> list[int]:
    """The source lines of the path's instructions; `piece_lines` keeps each
    piece's line set, by identity, for the other paths of the same
    analysis, which hold the pieces while it runs."""
    if not source_map:
        return []
    lines: set[int] = set()
    for piece in path.pieces or (path,):  # a hand-built path: one piece
        found = piece_lines.get(id(piece))
        if found is None:
            found = piece_lines[id(piece)] = frozenset(
                source_map[ins.offset] for block_id in piece.blocks
                for ins in cfg.blocks[block_id].instructions if ins.offset in source_map)
        lines |= found
    return sorted(lines)


def build_registry(config: AnalysisConfig) -> AddressRegistry:
    fixture = {}
    if config.registry_fixture:
        from .registry import load_fixture_table
        fixture = load_fixture_table(config.registry_fixture)
    return AddressRegistry(
        mode=config.registry_mode,
        fixture=fixture,
        cache_path=config.registry_cache,
    )


def analyze(contract: ContractCode, config: AnalysisConfig,
            registry: AddressRegistry | None = None,
            solver: BoundedSolver | None = None) -> Report:
    """Run the whole pipeline on one contract.  The property checks ride on
    the unfolding's walk: the trace walk folds each call's facts
    (`PathFacts`) and the black-hole walk each piece's, so each path's
    violations, warnings and score are read from its leaf's facts."""
    started = time.monotonic()
    deadline = started + config.bounds.wall_time
    if registry is None:
        registry = build_registry(config)
    if solver is None:
        solver = default_solver()

    instructions = disassemble(contract.runtime_code)
    if not instructions:
        raise ValueError("runtime code is empty")
    cfg = build_cfg(instructions, deadline)
    diagnostics = [f"{d.code}: {d.message}" for d in cfg.diagnostics]

    base_storage: dict[Word, Word] = {}
    if contract.creation_code:
        creation_cfg = build_cfg(disassemble(contract.creation_code), deadline)
        base_storage, ctor_diags = run_constructor(creation_cfg, contract.creation_code,
                                                   deadline=deadline)
        diagnostics.extend(ctor_diags)

    payable, payable_details = detect_payable_entries(cfg, instructions)

    # the unfolding's pieces serve the counts, the max-gas path and the
    # traced paths, which are built one at a time as the trace asks for them
    unfolding = PathEnumeration(cfg, config.bounds, deadline)
    estimator = GasEstimator(cfg, isa.GasTable(config.gas_overrides))
    paths_enumerated = unfolding.count()
    max_gas, max_gas_path = unfolding.max_gas_path(estimator.block_costs)
    money = unfolding.money_marker(payable)

    ranked: list[RankedPath] = []
    # per (the evidence, call count): the first such path ranked, or None
    # if it violates nothing, and its registry warnings; the paths after it
    # share its violations and score
    firsts: dict[tuple, tuple[RankedPath | None, list[str]]] = {}

    def enabled(prop: PropertyId) -> bool:
        return prop not in config.disabled

    if not cfg.money_blocks:
        if enabled(PropertyId.BLACK_HOLE):
            # the walk builds only the paths with a piece that takes Ether in
            for path, violation in check_black_hole(cfg, unfolding, payable):
                key = (id(violation), len(path.functions))
                first = firsts.get(key)
                if first is None:
                    first = firsts[key] = (make_ranked(path, [violation], config.rank), [])
                ranked.append(RankedPath(path, first[0].violations, first[0].score))
    else:
        check_limit = config.transfer_limit is not None and enabled(PropertyId.TRANSFER_LIMIT)
        check_addr = registry.mode != "disabled" and enabled(PropertyId.NON_EXISTING_ADDRESS)
        check_suicide = enabled(PropertyId.GUARD_SUICIDE)
        # SELFDESTRUCT is a money opcode: guard_suicide alone needs only the
        # money paths that run one
        destructs = {b.id for b in cfg.blocks.values() if check_suicide
                     and any(i.mnemonic == "SELFDESTRUCT" for i in b.instructions)}
        traced = money if check_limit or check_addr else (
            lambda piece: not destructs.isdisjoint(piece.blocks))
        # the trace walks the piece tree, so each path runs only its last
        # piece, and folds each call's share of the facts the rules need as
        # it enters it; a path's violations follow from its leaf's facts.  A
        # piece that fails skips the paths below the failing block, reported once
        facts = PathFacts(config.transfer_limit if check_limit else None,
                          registry if check_addr else None, check_suicide)
        outcomes = execute_paths(cfg, contract.runtime_code, unfolding, traced,
                                 base_storage, deadline, facts)
        skipped: dict[SymExecError, int] = {}
        analyzed = 0
        for path, outcome in outcomes:
            if time.monotonic() > deadline:
                break
            analyzed += 1
            if isinstance(outcome, SymExecError):
                skipped[outcome] = skipped.get(outcome, 0) + 1
                continue
            key = (outcome, len(path.functions))
            first = firsts.get(key)
            if first is None:
                found, warnings = facts.verdict(outcome)
                first = firsts[key] = (
                    make_ranked(path, found, config.rank) if found else None, warnings)
            top, warnings = first
            diagnostics += warnings
            if top is not None:
                ranked.append(RankedPath(path, top.violations, top.score))
        left = unfolding.count(traced) - analyzed
        if left:
            diagnostics.append(f"trace_timed_out: deadline passed; "
                               f"{left} money path(s) not analyzed")
        for exc, count in skipped.items():
            diagnostics.append(f"trace_abandoned: {type(exc).__name__} ({exc}); "
                               f"{count} money path(s) not analyzed")

    plan = rank_and_gate(ranked, config.rank)

    feasibility: dict[tuple, Feasibility] = {}  # by the path's blocks
    executed = 0

    work = list(plan.queue)
    for rp in work:  # a promoted path is appended and visited in turn
        if time.monotonic() > deadline:
            break
        _state, feas = execute_path(cfg, contract.runtime_code, rp.path, base_storage,
                                    solver, config.solver_timeout_ms, deadline)
        executed += 1
        feasibility[rp.path.blocks] = feas
        if feas.status is FeasibilityStatus.INFEASIBLE:
            promoted = plan.promote(rp.property_set)
            if promoted is not None:
                work.append(promoted)
    # every stage that stops early (the constructor pre-run, the unfolding,
    # the trace, a feasibility check) does so only once the deadline passed
    timed_out = time.monotonic() > deadline

    # without a witness a call sequence depends only on the path's functions;
    # paths with equal functions share one (read-only) list
    call_sequences: dict[tuple, list[str]] = {}

    def call_sequence(path: ProgramPath, witness: dict[str, int] | None) -> list[str]:
        if witness:
            return to_call_sequence(path, contract, witness)
        seq = call_sequences.get(path.functions)
        if seq is None:
            seq = call_sequences[path.functions] = to_call_sequence(path, contract)
        return seq

    critical: list[CriticalPath] = []
    piece_lines: dict[int, frozenset[int]] = {}
    path_gas = estimator.path_gas
    for rp in plan.ordered:
        feas = feasibility.get(rp.path.blocks) if feasibility else None
        if feas is None:
            status, witness = FEAS_NOT_CHECKED, None
        elif feas.status is FeasibilityStatus.INFEASIBLE:
            continue  # proven-impossible paths never reach the report
        else:
            status, witness = feas.status.value, feas.witness
        critical.append(CriticalPath(
            len(critical) + 1, rp, call_sequence(rp.path, witness), status, witness,
            path_gas(rp.path), _source_lines(rp.path, cfg, contract.source_map, piece_lines)))

    elapsed_ms = int((time.monotonic() - started) * 1000)
    # the paths of one evidence and call count share their first's
    # violations tuple: each tuple counts once, weighted by its rows
    distinct = {id(top.violations): top.violations for top, _warnings in firsts.values() if top}
    violation_counts: Counter[str] = Counter()
    for held, rows in Counter([id(cp.ranked.violations) for cp in critical]).items():
        for v in distinct[held]:
            violation_counts[v.property.value] += rows

    statistics = {
        "total_time_ms": elapsed_ms if config.include_timing else None,
        "paths_enumerated": paths_enumerated,
        "paths_money_related": unfolding.count(money),
        "paths_gated": len(plan.admitted),
        "paths_symbolically_executed": executed,
        "timed_out": timed_out,
        "violation_counts": dict(sorted(violation_counts.items())),
        "max_gas": {
            "gas": max_gas,
            "call_sequence": call_sequence(max_gas_path, None) if max_gas_path else [],
        },
        "payable_entries": sorted(
            (_function_display(contract, name) for name in payable), key=str),
    }

    block_labels = {b.id: b.label for b in cfg.blocks.values()}
    return Report(
        contract_name=contract.name,
        statistics=statistics,
        critical_paths=critical,
        diagnostics=diagnostics,
        config_echo=_config_echo(config),
        block_labels=block_labels,
        cfg=cfg,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def write_json(report: Report, write: Callable[[str], object]) -> None:
    """Write the text of `json.dumps(report_dict, indent=2) + "\\n"` through
    `write`: the head, then one critical path at a time, then the tail."""
    write(f'{{\n  "schema": {SCHEMA_VERSION}'
          f',\n  "contract": {_json_str(report.contract_name)}'
          f',\n  "gas_schedule": {_json_str(isa.GAS_SCHEDULE_NAME)}'
          f',\n  "config": {_json_text(report.config_echo, "  ")}'
          f',\n  "statistics": {_json_text(report.statistics, "  ")}'
          ',\n  "critical_paths": ')
    if report.critical_paths:
        _write_paths(write, report)
    else:
        write("[]")
    write(f',\n  "diagnostics": {_json_text(report.diagnostics, "  ")}\n}}\n')


def to_json(report: Report) -> str:
    """The report's JSON text, as `write_json` writes it."""
    parts: list[str] = []
    write_json(report, parts.append)
    return "".join(parts)


# a critical path's keys sit at _KEY; its lists' items one level deeper
_KEY = ",\n      "
_ITEM = ",\n        "


def _write_paths(write: Callable[[str], object], report: Report) -> None:
    """Each critical path from a fixed template, as one string.  Texts are
    kept by the identity of what they render: the report holds every path,
    and so its pieces, scores, violations and call sequences, while this
    runs.  Paths of one score share the object (a Fraction's hash is
    slow), an analysis makes one violations tuple per evidence and call
    count, and paths of equal functions share a witness-free call
    sequence.  So the rows without a witness that also agree on
    feasibility and length share their text from score to witness, and a
    row adds only its rank, gas, blocks and source lines."""
    labels = {b: _json_str(label) for b, label in report.block_labels.items()}
    middles: dict[tuple, str] = {}
    violation_texts: dict[int, str] = {}
    piece_texts: dict[int, str] = {}  # a piece's block labels, joined
    opening = "[\n    {\n      "
    for cp in report.critical_paths:
        rank, (path, violations, score), calls, feasibility, witness, gas, lines = cp
        if witness is None:
            key = (id(score), id(violations), id(calls), feasibility, len(path.functions))
            middle = middles.get(key)
            if middle is None:
                middle = middles[key] = _row_middle(cp, violation_texts)
        else:
            middle = _row_middle(cp, violation_texts)
        pieces = path.pieces or (path,)  # a hand-built path: one piece
        try:
            blocks = _ITEM.join(map(piece_texts.__getitem__, map(id, pieces)))
        except KeyError:  # a piece not written before
            for piece in pieces:
                piece_texts[id(piece)] = _ITEM.join(
                    [labels.get(b) or _json_str(str(b)) for b in piece.blocks])
            blocks = _ITEM.join(map(piece_texts.__getitem__, map(id, pieces)))
        line_text = _str_list(_ITEM.join(map(str, lines))) if lines else "[]"
        write(f'{opening}"rank": {rank}{_KEY}{middle}{_KEY}"gas": {gas}'
              f'{_KEY}"blocks": {_str_list(blocks)}{_KEY}"source_lines": {line_text}\n    }}')
        opening = ",\n    {\n      "
    write("\n  ]")


def _row_middle(cp: CriticalPath, violation_texts: dict[int, str]) -> str:
    """A critical path's text from its score to its witness."""
    ranked = cp.ranked
    score = ranked.score
    violations = ranked.violations
    violation_text = violation_texts.get(id(violations))
    if violation_text is None:
        violation_text = violation_texts[id(violations)] = _json_text(
            [v.as_dict() for v in violations], "      ")
    return (f'"score": {float.__repr__(float(score))}'
            f'{_KEY}"score_exact": "{score.numerator}/{score.denominator}"'
            f'{_KEY}"length": {len(ranked.path.functions)}'
            f'{_KEY}"call_sequence": {_str_list(_ITEM.join(map(_json_str, cp.call_sequence)))}'
            f'{_KEY}"violations": {violation_text}'
            f'{_KEY}"feasibility": {_json_str(cp.feasibility)}'
            f'{_KEY}"witness": {_json_text(_witness_dict(cp.witness), "      ")}')


def _str_list(joined: str) -> str:
    """A list-valued field of a critical path, from its items' JSON texts
    joined by `_ITEM`."""
    return f"[\n        {joined}\n      ]" if joined else "[]"


_json_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str) -> str:
    """The text `json.dumps(value, indent=2)` gives for `value` nested at
    `indent`: str-keyed dicts, lists and tuples, str, int, finite float,
    bool and None.  Each container is one join over its items' texts, and strings go
    through the json module's C escaper."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if type(value) in (list, tuple):  # not a tuple subclass such as a Word
        if not value:
            return "[]"
        parts = [_json_str(v) if type(v) is str else _json_text(v, inner) for v in value]
        opening, closing = "[\n", "]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{_json_str(key)}: "
                         + (_json_str(v) if type(v) is str else _json_text(v, inner)))
        opening, closing = "{\n", "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    # the brackets ride on the first and last item, so the join is the only copy
    parts[0] = opening + inner + parts[0]
    parts[-1] = f"{parts[-1]}\n{indent}{closing}"
    return f",\n{inner}".join(parts)


_HTML_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #999; padding: 0.3em 0.8em; text-align: left; }
.violation { color: #a00; font-weight: bold; }
.path { border: 1px solid #ccc; margin: 1em 0; padding: 0.5em 1em; }
.blocks { color: #666; font-size: smaller; }
mark { background: #ffd; }
pre.source { background: #f6f6f6; padding: 0.5em; }
"""


def write_html(report: Report, write: Callable[[str], object], source: str | None) -> None:
    """Write one self-contained page through `write`: statistics, then each ranked path."""
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
    write("\n".join(doc) + "\n")
    source_lines = source.splitlines() if source else []
    for cp in report.critical_paths:
        doc = ['<div class="path">']
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
        write("\n".join(doc) + "\n")
    write("</body>\n</html>\n")


def emit(report: Report, fmt: str, out_base: str | Path,
         source: str | None) -> list[Path]:
    """Write the report in the requested format(s); returns written paths.
    Each text goes to its file one critical path at a time."""
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = out_base.with_suffix(".json")
        with path.open("w") as fp:
            write_json(report, fp.write)
        written.append(path)
    if fmt in ("html", "both"):
        path = out_base.with_suffix(".html")
        with path.open("w") as fp:
            write_html(report, fp.write, source)
        written.append(path)
    return written
