#!/usr/bin/env python3
"""evmscope benchmark: time to report, time to verdict, and a traced run.

Workloads (each run in its own process, one operation at a time: a closed
loop with one client):

  corpus-b3       analyze() + to_json() on every fixture at call bound 3,
                  transfer limit 30, offline registry: what users run.
  corpus-b4       the same at call bound 4, where tracing, unfolding and
                  emission dominate.
  feasibility-b2  execute_path() on every money path of the corpus at call
                  bound 2: the only workload that reaches the solver and
                  witness replay.

Usage:

  python3 perfbench/run.py                     # every workload, untraced then traced
  python3 perfbench/run.py --workload corpus-b4 --seed 7 --seconds 25 --trace 0

A single-workload run sets up (imports, inputs, one warm-up pass), then runs
passes over the inputs, each in an order drawn from --seed, until --seconds
have passed; the first pass is always whole, the last may stop part-way.
Every output is checked against perfbench/expected.json and
perfbench/pins.json, and against the output of the same input in earlier
passes, which ran in other orders. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 1 the passes are whole and alternate untraced and traced (see
tracer.py), the metrics are per layer, and the spans go to perfbench/out/.

Times are normalized to the machine's speed. On a shared host the speed of a
core swings by up to 2.5x within a minute, and evmscope's time follows it.
So a short fixed loop of plain Python (the gauge) is timed before and after
every operation, and the operation's time is divided by the gauge's and
multiplied by GAUGE_NOMINAL_S: seconds as on an uncontended core. The wall
times are printed too.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # set-up time counts from before any import

import argparse  # noqa: E402
import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
REGISTRY_TXT = FIXTURES / "registry.txt"
GOLDEN = FIXTURES / "golden" / "toydao_report.json"
OUT = HERE / "out"

WORKLOADS = ("corpus-b3", "corpus-b4", "feasibility-b2")
TRANSFER_LIMIT = 30
PREPARE_REPEATS = 3  # set-up of the inputs is repeated and its median counted
MAX_REPORTED_ERRORS = 20


class ProgramMissing(Exception):
    pass


def import_program():
    """Import evmscope from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "evmscope" / "__init__.py").is_file() or not FIXTURES.is_dir():
        raise ProgramMissing(f"evmscope sources or fixtures missing under {ROOT}")
    sys.path.insert(0, str(src))
    import evmscope
    from evmscope import analyzers, cfg, disasm, pathgen, report, solver, symexec

    if Path(evmscope.__file__).resolve().parent != src / "evmscope":
        raise ProgramMissing(f"imported evmscope from {evmscope.__file__}, not {src}")
    return SimpleNamespace(analyzers=analyzers, cfg=cfg, disasm=disasm, pathgen=pathgen,
                           report=report, solver=solver, symexec=symexec)


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text())


def path_key(contract: str, path) -> str:
    return f"{contract}:{'.'.join(map(str, path.blocks))}"


def branch_decisions(cfg, path) -> str:
    """T/F per JUMPI the path leaves: taken, or fallen through."""
    out = []
    for block_id, nxt in zip(path.blocks, path.blocks[1:]):
        last = cfg.blocks[block_id].last
        if last.mnemonic == "JUMPI":
            out.append("F" if nxt == last.offset + 1 else "T")
    return ",".join(out)


class Corpus:
    """analyze() then to_json() on every fixture, with one registry shared by
    all calls, as `evmscope batch` does."""

    def __init__(self, ev, call_bound: int, expected: dict | None, pins: dict | None):
        self.ev = ev
        self.bound = str(call_bound)
        self.config = ev.report.AnalysisConfig(
            bounds=ev.pathgen.PathBounds(call_depth=call_bound),
            transfer_limit=TRANSFER_LIMIT,
            registry_fixture=str(REGISTRY_TXT),
            include_timing=False,
        )
        self.expected = expected
        self.pins = pins
        self.first: dict[str, str] = {}

    def prepare(self) -> list[str]:
        ev = self.ev
        self.contracts = {p.stem: ev.disasm.load_contract(p)
                          for p in sorted(FIXTURES.glob("*.json"))}
        self.registry = ev.report.build_registry(self.config)
        self.solver = ev.solver.default_solver()
        return sorted(self.contracts)

    def run(self, name: str) -> tuple[dict, str]:
        report = self.ev.report.analyze(self.contracts[name], self.config,
                                        registry=self.registry, solver=self.solver)
        text = self.ev.report.to_json(report)
        stats = report.statistics
        return {
            "timed_out": stats["timed_out"],
            "properties": sorted(stats["violation_counts"]),
            "paths_enumerated": stats["paths_enumerated"],
            "paths_money_related": stats["paths_money_related"],
            "critical_paths": len(report.critical_paths),
        }, text

    def check(self, name: str, out: tuple[dict, str]) -> list[str]:
        summary, text = out
        errors = []
        if summary["timed_out"]:
            errors.append("report timed out")
        want = self.expected["properties"][name][self.bound]
        if summary["properties"] != want:
            errors.append(f"violated properties {summary['properties']}, expected {want}")
        pinned = self.pins[name]
        got = {k: summary[k] for k in pinned}
        if got != pinned:
            errors.append(f"counts {got} differ from the regression pin {pinned}")
        if text != self.first.setdefault(name, text):
            errors.append("report differs from the one an earlier pass, in another order, gave")
        return errors

    def final_checks(self):
        """The toydao report at call bound 2 against the golden file."""
        ev = self.ev
        config = ev.report.AnalysisConfig(
            bounds=ev.pathgen.PathBounds(call_depth=2), transfer_limit=TRANSFER_LIMIT,
            registry_fixture=str(REGISTRY_TXT), include_timing=False)
        text = ev.report.to_json(ev.report.analyze(
            ev.disasm.load_contract(FIXTURES / "toydao.json"), config))
        yield "golden toydao report", ([] if text == GOLDEN.read_text() else
                                       ["differs from fixtures/golden/toydao_report.json"])


class Feasibility:
    """execute_path() on every money path of the corpus at call bound 2."""

    CALL_BOUND = 2

    def __init__(self, ev, timeout_ms: int, expected: dict | None, pins: dict | None):
        self.ev = ev
        self.timeout_ms = timeout_ms
        self.expected = expected
        self.pins = pins
        self.replay = ev.symexec.replay_blocks  # untraced, for the checks
        self.first: dict[str, str] = {}

    def prepare(self) -> list[str]:
        ev = self.ev
        bounds = ev.pathgen.PathBounds(call_depth=self.CALL_BOUND)
        self.items = {}
        for p in sorted(FIXTURES.glob("*.json")):
            contract = ev.disasm.load_contract(p)
            instructions = ev.disasm.disassemble(contract.runtime_code)
            cfg = ev.cfg.build_cfg(instructions)
            payable, _details = ev.analyzers.detect_payable_entries(cfg, instructions)
            base: dict = {}
            if contract.creation_code:
                creation_cfg = ev.cfg.build_cfg(ev.disasm.disassemble(contract.creation_code))
                base, _diagnostics = ev.symexec.run_constructor(creation_cfg,
                                                                contract.creation_code)
            paths = ev.pathgen.enumerate_paths(cfg, bounds)
            for path in ev.pathgen.filter_money(iter(paths), cfg, payable):
                self.items[path_key(p.stem, path)] = (cfg, contract.runtime_code, path, base)
        self.solver = ev.solver.default_solver()
        return sorted(self.items)

    def verdict(self, cfg, code, path, base):
        _state, feasibility = self.ev.symexec.execute_path(
            cfg, code, path, base, self.solver, solver_timeout_ms=self.timeout_ms)
        return feasibility

    def run(self, key: str):
        return self.verdict(*self.items[key])

    def _check_verdict(self, feasibility, want: str, cfg, code, path, base) -> list[str]:
        status = feasibility.status.value
        errors = []
        if status == "unknown":
            errors.append(f"unknown verdict: {feasibility.reason}")
        if status != want:
            errors.append(f"verdict {status}, expected {want}")
        if status == "feasible":
            replayed = self.replay(cfg, code, feasibility.witness, base, path.call_count)
            if replayed != path.blocks:
                errors.append("witness does not replay to the claimed blocks")
        return errors

    def check(self, key: str, feasibility) -> list[str]:
        errors = self._check_verdict(feasibility, self.pins["verdicts"].get(key, "missing"),
                                     *self.items[key])
        text = f"{feasibility.status.value} {sorted((feasibility.witness or {}).items())}"
        if text != self.first.setdefault(key, text):
            errors.append("verdict differs from the one an earlier pass, in another order, gave")
        return errors

    def final_checks(self):
        """Every micro program path against the verdict its construction implies."""
        ev = self.ev
        for name, verdicts in sorted(self.expected["micro"].items()):
            contract = ev.disasm.load_contract(FIXTURES / "micro" / f"{name}.json")
            code = contract.runtime_code
            cfg = ev.cfg.build_cfg(ev.disasm.disassemble(code))
            for path in ev.pathgen.enumerate_paths(cfg, ev.pathgen.PathBounds(call_depth=1)):
                decisions = branch_decisions(cfg, path)
                try:
                    errors = self._check_verdict(self.verdict(cfg, code, path, {}),
                                                 verdicts.get(decisions, "missing"),
                                                 cfg, code, path, {})
                except Exception as exc:  # a crash fails this check, not the run
                    errors = [f"raised {exc!r}"]
                yield f"{name} {decisions}", errors


def make_workload(ev, name: str, timeout_ms: int, expected: dict, pins: dict):
    if name == "feasibility-b2":
        return Feasibility(ev, timeout_ms, expected, pins[name])
    return Corpus(ev, {"corpus-b3": 3, "corpus-b4": 4}[name], expected, pins[name])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)


# The gauge: plain-Python work of fixed size. Each step does 256-bit
# integer arithmetic, as evmscope does, and reads one word at a pseudo-random
# place in a 4 MiB table, more than a core's own cache holds. So the gauge
# slows both when the core computes more slowly and when neighbours crowd the
# shared cache, and so does evmscope. Over the same ten corpus-b4 runs, a
# gauge of arithmetic alone left the spread of answer_norm_ms.p90 at 19 %,
# this one at 8 %. The walk goes on from call to
# call, so it does not reread what the last call left in the cache. It
# allocates nothing the garbage collector tracks, so its time does not depend
# on evmscope's heap. The table adds 4 MiB to peak_rss_mb.
_WORD = (1 << 256) - 1
_GAUGE_TABLE = tuple((i * 0x9E3779B97F4A7C15) & _WORD for i in range(64))
_GAUGE_MEMORY = array.array("I", [0]) * (1 << 20)
_GAUGE_MASK = (1 << 20) - 1
_gauge_at = 0
GAUGE_STEPS = 600
# About what gauge() reads on an uncontended core of the 2-vCPU x86-64 VM
# this benchmark was written on, under CPython 3.11. It only scales the
# normalized times to read as seconds.
GAUGE_NOMINAL_S = 240e-6


def gauge_work() -> int:
    global _gauge_at
    x, at, table, memory = 1, _gauge_at, _GAUGE_TABLE, _GAUGE_MEMORY
    for i in range(GAUGE_STEPS):
        x = ((x * 31 + table[i & 63]) & _WORD) ^ (x >> 7)
        at = (at * 1103515245 + 12345) & _GAUGE_MASK  # visits every slot in turn
        x ^= memory[at]
    _gauge_at = at
    return x


def gauge() -> float:
    """Seconds the gauge takes now: the best of three, so that one interrupt
    does not count."""
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        gauge_work()
        best = min(best, time.perf_counter() - began)
    return best


def run_pass(workload, keys: list[str], deadline: float | None = None):
    """One pass over `keys`, stopping early once `deadline` has passed.

    Returns (wall seconds, outputs, normalized seconds per operation). An
    operation's normalized time is its time divided by the mean of the
    gauges just before and just after it, times GAUGE_NOMINAL_S."""
    gc.collect()
    clock = time.perf_counter
    outs, normalized = [], []
    start = clock()
    before = gauge()
    for key in keys:
        if deadline is not None and clock() >= deadline:
            break
        began = clock()
        try:
            out = workload.run(key)
        except Exception as exc:  # counted as a failed operation; the run goes on
            out = exc
        took = clock() - began
        after = gauge()
        normalized.append(took / ((before + after) / 2) * GAUGE_NOMINAL_S)
        before = after
        outs.append(out)
    return clock() - start, outs, normalized


def check_pass(workload, keys, outs, tally: Tally) -> None:
    for key, out in zip(keys, outs):
        if isinstance(out, Exception):
            errors = ["raised " + "".join(traceback.format_exception_only(out)).strip()]
        else:
            try:
                errors = workload.check(key, out)
            except Exception as exc:  # e.g. a witness whose replay raises
                errors = [f"check raised {exc!r}"]
        tally.record(key, errors)


def run_workload(args) -> int:
    try:
        ev = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - SETUP_START
    setup_gauges = [gauge()]
    expected, pins = load_json("expected.json"), load_json("pins.json")
    if args.workload == "feasibility-b2" and \
            pins[args.workload]["solver_timeout_ms"] != args.solver_timeout_ms:
        print("error: the verdict pins were made with solver timeout "
              f"{pins[args.workload]['solver_timeout_ms']} ms", file=sys.stderr)
        return 2
    workload = make_workload(ev, args.workload, args.solver_timeout_ms, expected, pins)

    prepare_s = []
    for _ in range(PREPARE_REPEATS):
        began = time.perf_counter()
        keys = workload.prepare()
        prepare_s.append(time.perf_counter() - began)
        setup_gauges.append(gauge())
    rng = random.Random(args.seed)

    def order() -> list[str]:
        shuffled = list(keys)
        rng.shuffle(shuffled)
        return shuffled

    tally = Tally()
    warm_keys = order()
    warm_s, outs, warm_norm = run_pass(workload, warm_keys)
    load_s = import_s + statistics.median(prepare_s)
    setup_wall_s = load_s + warm_s
    setup_s = load_s / statistics.median(setup_gauges) * GAUGE_NOMINAL_S + sum(warm_norm)
    check_pass(workload, warm_keys, outs, tally)

    pass_s: list[float] = []  # wall seconds of whole untraced passes
    samples: dict[str, list[float]] = {}  # normalized seconds per input
    untraced_norm_s: list[float] = []  # normalized seconds of whole passes, traced runs
    traced_norm_s: list[float] = []
    layer_passes: list[dict] = []
    tracer = None
    if args.trace:
        from tracer import LAYER_METRICS, Tracer
        tracer = Tracer(ev)
    started = time.perf_counter()
    deadline = None  # the first pass is whole, so every input is timed
    while True:
        pass_keys = order()
        wall, outs, normalized = run_pass(workload, pass_keys, deadline)
        check_pass(workload, pass_keys, outs, tally)
        if len(outs) == len(pass_keys):
            pass_s.append(wall)
            untraced_norm_s.append(sum(normalized))
        for key, seconds in zip(pass_keys, normalized):
            samples.setdefault(key, []).append(seconds)
        if tracer is not None:
            pass_keys = order()
            with tracer.installed(workload):
                wall, outs, normalized = run_pass(workload, pass_keys)
            layer_passes.append(tracer.pass_metrics(wall))
            check_pass(workload, pass_keys, outs, tally)
            traced_norm_s.append(sum(normalized))
        if time.perf_counter() - started >= args.seconds:
            break
        if tracer is None:  # traced runs compare whole passes
            deadline = started + args.seconds

    for label, errors in workload.final_checks():
        tally.record(label, errors)

    digest = hashlib.sha256()
    for key, text in sorted(workload.first.items()):
        digest.update(f"{key}\n{text}\n".encode())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"outputs_sha256 {digest.hexdigest()}")
    print(f"failed_share {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")

    if tracer is None:
        per_op = "verdict_ms" if args.workload == "feasibility-b2" else "contract_ms"
        # One figure per input, the median of its timed operations, so that
        # every input weighs the same whatever the part-way last pass covered.
        medians = [statistics.median(times) for times in samples.values()]
        timed = sum(map(len, samples.values()))
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_norm_s": (sum(medians), "s"),
            "answer_norm_ms.p50": (statistics.median(medians) * 1000, "ms"),
            "answer_norm_ms.p90": (statistics.quantiles(medians, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"whole passes {len(pass_s)}, operations timed {timed}, inputs {len(medians)}; "
              f"answer_norm_ms is {per_op} on this workload; times normalized "
              f"to a gauge of {GAUGE_NOMINAL_S * 1e6:.0f} us")
        print(f"wall: set-up {setup_wall_s:.3f} s, whole passes "
              + " ".join(f"{s:.3f}" for s in pass_s) + " s")
        for name, (value, unit) in metrics.items():
            label = name.replace("answer", per_op.removesuffix("_ms"))
            print(f"  {label:28s} {value:14.4f} {unit}")
    else:
        metrics = {name: (statistics.median(p[name] for p in layer_passes),
                          LAYER_METRICS[name][0])
                   for name in layer_passes[0]}
        untraced = statistics.median(untraced_norm_s)
        traced = statistics.median(traced_norm_s)
        metrics["trace.untraced_pass_s"] = (untraced, "s")
        metrics["trace.traced_pass_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_file, {"workload": args.workload, "seed": args.seed,
                                  "traced_passes": len(traced_norm_s)})
        print(f"traced passes {len(traced_norm_s)}, untraced passes {len(pass_s)}; "
              f"spans in {spans_file.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            seconds = f"  ~{value * traced * 10:10.1f} ms" if unit == "%" else ""
            print(f"  {name:30s} {value:16.4f} {unit}{seconds}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, untraced and then traced.

    The traced run uses the next seed, so every workload is also checked for
    identical outputs under two seeds (two input orders)."""
    ok = True
    digests: dict[str, set[str]] = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            seed = args.seed + trace
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--solver-timeout-ms", str(args.solver_timeout_ms)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exited {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for line in lines:
                if line.startswith("outputs_sha256 "):
                    digests.setdefault(name, set()).add(line.split()[1])
            print()
    for name, seen in sorted(digests.items()):
        same = len(seen) == 1
        ok = ok and same
        print(f"{name}: outputs under seeds {args.seed} and {args.seed + 1} "
              f"{'identical' if same else 'DIFFER'}")
    print("all correct" if ok else "FAILURES: see above")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; without it, run all of them")
    parser.add_argument("--seed", type=int, default=1, help="seeds the input orders")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to run timed passes (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--solver-timeout-ms", type=int, default=2000,
                        help="feasibility-b2 solver timeout; pins.json records the one "
                             "its verdicts were made with")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
