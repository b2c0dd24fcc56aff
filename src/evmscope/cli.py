"""Command-line interface.

    evmscope analyze FILE [options]    analyze one contract
    evmscope batch DIR [options]       analyze every fixture in a directory

Exit codes: 0 = analyzed, no violations; 2 = violations found;
1 = input, configuration or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .analyzers import PropertyId
from .cfg import to_dot
from .disasm import load_contract
from .isa import load_gas_overrides
from .pathgen import PathBounds
from .ranker import RankConfig
from .report import AnalysisConfig, analyze, build_registry, emit, write_json

_SUMMARY = "corpus_summary"  # the stem of a batch run's summary file
# each property by its value, and each violation also without underscores
_PROPERTY_NAMES = {p.value: p for p in PropertyId}
_PROPERTY_NAMES.update({p.value.replace("_", ""): p for p in PropertyId
                        if p is not PropertyId.MAX_GAS})


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are CliErrors, so they exit 1
    as a configuration error, not with argparse's 2, which here means
    violations found.  Subcommand parsers are of the same class."""

    def error(self, message: str):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def _parse_property(name: str) -> PropertyId:
    prop = _PROPERTY_NAMES.get(name.strip().lower())
    if prop is None:
        raise CliError(f"unknown property {name!r}")
    return prop


def _set_ranking(rank: RankConfig, key: str, value: str) -> None:
    """Apply one [ranking] setting, from the INI file or its flag; a
    malformed number or an out-of-range weight is a CliError."""
    if key not in ("threshold", "epsilon") and not key.startswith("alpha."):
        raise CliError(f"unknown [ranking] key {key!r}")
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{key}: not a number: {value!r}") from None
    if key == "threshold":
        rank.threshold = number
    elif key == "epsilon":
        if number <= 0:
            raise CliError("epsilon must be positive")
        rank.epsilon = number
    else:
        try:
            rank.override_alpha(_parse_property(key[len("alpha."):]), number)
        except ValueError as exc:
            raise CliError(str(exc)) from exc


def _apply_ranking_file(rank: RankConfig, path: str) -> None:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise CliError(f"cannot read config file {path}")
    if parser.has_section("ranking"):
        for key, value in parser["ranking"].items():
            _set_ranking(rank, key, value)


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    try:
        bounds = PathBounds(
            call_depth=args.call_bound,
            loop_bound=args.loop_bound,
            max_blocks=args.max_blocks,
            wall_time=args.wall_time,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for flag, value in (("--transfer-limit", args.transfer_limit),
                        ("--solver-timeout", args.solver_timeout)):
        if value is not None and value < 0:
            raise CliError(f"{flag} must not be negative, got {value}")
    rank = RankConfig()
    if args.config:
        _apply_ranking_file(rank, args.config)
    if args.threshold is not None:
        _set_ranking(rank, "threshold", args.threshold)
    if args.epsilon is not None:
        _set_ranking(rank, "epsilon", args.epsilon)
    for override in args.alpha or []:
        if "=" not in override:
            raise CliError(f"--alpha expects PROP=N, got {override!r}")
        name, _, value = override.partition("=")
        _set_ranking(rank, "alpha." + name, value)
    disabled = set()
    for chunk in (args.disable or "").split(","):
        if chunk.strip():
            disabled.add(_parse_property(chunk))
    gas_overrides = {}
    if args.gas_schedule:
        try:
            gas_overrides = load_gas_overrides(Path(args.gas_schedule).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"gas schedule: {exc}") from exc
    return AnalysisConfig(
        bounds=bounds,
        rank=rank,
        transfer_limit=args.transfer_limit,
        registry_mode=args.registry_mode,
        registry_fixture=args.registry_fixture,
        registry_cache=args.registry_cache,
        solver_timeout_ms=args.solver_timeout,
        disabled=disabled,
        include_timing=not args.no_timing,
        gas_overrides=gas_overrides,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    bounds, config, rank = PathBounds(), AnalysisConfig(), RankConfig()
    parser.add_argument("--call-bound", type=int, default=bounds.call_depth,
                        help="max function calls per path (default %(default)s)")
    parser.add_argument("--loop-bound", type=int, default=bounds.loop_bound,
                        help="max back-edge traversals per call segment (default %(default)s)")
    parser.add_argument("--max-blocks", type=int, default=bounds.max_blocks,
                        help="max blocks per path (default %(default)s)")
    parser.add_argument("--wall-time", type=float, default=bounds.wall_time,
                        help="global time budget in seconds (default %(default)s)")
    parser.add_argument("--solver-timeout", type=int, default=config.solver_timeout_ms,
                        help="per-query solver timeout in ms (default %(default)s)")
    parser.add_argument("--transfer-limit", type=int, default=None,
                        help="wei limit for the transfer-limit property "
                             "(absent = checker disabled)")
    parser.add_argument("--threshold", type=str, default=None,
                        help=f"criticalness gate threshold (default {rank.threshold})")
    parser.add_argument("--epsilon", type=str, default=None,
                        help=f"criticalness length scale (default {rank.epsilon})")
    parser.add_argument("--alpha", action="append", metavar="PROP=N",
                        help="override a property weight (repeatable)")
    parser.add_argument("--disable", default="",
                        help="comma-separated properties to switch off")
    parser.add_argument("--registry-mode", choices=["online", "offline", "disabled"],
                        default=config.registry_mode)
    parser.add_argument("--registry-fixture", default=None,
                        help="address table for offline mode")
    parser.add_argument("--registry-cache", default=None,
                        help="persistent cache file for address lookups")
    parser.add_argument("--config", default=None, help="INI file with a [ranking] section")
    parser.add_argument("--gas-schedule", default=None,
                        help="gas override table (MNEMONIC GAS per line)")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock timing from reports (reproducible output)")
    parser.add_argument("--output", choices=["json", "html", "both"], default="json")
    parser.add_argument("--out", default=None, help="output path base; .json or .html is appended")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evmscope")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a single contract")
    p_an.add_argument("file", help="hex file or JSON envelope")
    _add_common(p_an)
    p_an.add_argument("--dump-cfg", default=None, metavar="PATH",
                      help="write the CFG in DOT format and continue")

    p_batch = sub.add_parser("batch", help="analyze every contract in a directory")
    p_batch.add_argument("dir")
    _add_common(p_batch)
    return parser


def _run_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.out and Path(args.out).is_dir():  # a base each format's suffix is appended to
        print(f"error: --out {args.out} is a directory, not a file base", file=sys.stderr)
        return 1
    try:
        contract = load_contract(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = analyze(contract, config)
    if args.dump_cfg:
        Path(args.dump_cfg).write_text(to_dot(report.cfg))
    if args.out:
        written = emit(report, args.output, args.out, contract.source)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    else:
        write_json(report, sys.stdout.write)
    return 2 if report.has_violations else 0


def _run_batch(args: argparse.Namespace) -> int:
    config = _build_config(args)
    # batch reports must be byte-identical across runs
    config.include_timing = False
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else directory / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = build_registry(config)
    files = sorted(p for p in directory.iterdir()
                   if p.suffix in (".json", ".hex") and p.is_file())
    if not files:
        print("error: no contract fixtures found", file=sys.stderr)
        return 1
    # a report is named by its input's stem where no other input and not the
    # summary has that stem or name, else by the input's whole file name
    taken = Counter([_SUMMARY, *(p.stem for p in files), *(p.name for p in files)])
    summary = []
    any_violation = any_error = False
    for path in files:
        error = None
        try:
            contract = load_contract(path)
        except (OSError, ValueError) as exc:
            error = str(exc)
        else:
            try:
                report = analyze(contract, config, registry=registry)
            except Exception as exc:  # one failed analysis must not end the run
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            print(f"error: {path}: {error}", file=sys.stderr)
            summary.append({"file": path.name, "error": error})
            any_error = True
            continue
        name = path.stem if taken[path.stem] == 1 else path.name
        emit(report, args.output, out_dir / name, contract.source)
        any_violation = any_violation or report.has_violations
        stats = report.statistics
        # the next analysis must not run while this report is still held
        del report
        summary.append({
            "contract": contract.name,
            "file": path.name,
            "paths_enumerated": stats["paths_enumerated"],
            "paths_money_related": stats["paths_money_related"],
            "paths_symbolically_executed": stats["paths_symbolically_executed"],
            "violation_counts": stats["violation_counts"],
            "timed_out": stats["timed_out"],
        })
        print(f"{contract.name}: {sum(stats['violation_counts'].values())} warning(s)",
              file=sys.stderr)
    totals: dict[str, int] = {}
    for entry in summary:
        for prop, count in entry.get("violation_counts", {}).items():
            totals[prop] = totals.get(prop, 0) + count
    corpus = {
        "schema": 1,
        "contracts": summary,
        "totals": dict(sorted(totals.items())),
    }
    (out_dir / f"{_SUMMARY}.json").write_text(json.dumps(corpus, indent=2) + "\n")
    return 1 if any_error else 2 if any_violation else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_batch(args)
    except (CliError, OSError) as exc:  # OSError: a report or CFG file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
