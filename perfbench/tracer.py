"""Span tracing for the benchmark, installed from outside the package.

While installed, the tracer replaces evmscope's public functions with
wrappers that record one span per call: name, start, end, the span that was
open when it began (its parent) and the benchmark operation it belongs to.
The wrappers go into the module namespaces the pipeline looks names up in
(`evmscope.report` imports its stages by name, `execute_path` finds
`replay_blocks` in `evmscope.symexec`); the solver and the address registry
are wrapped as objects. Nothing inside `src/` changes, and uninstalling puts
every original back.

Spans stay in memory until the run ends. A layer's self time is its spans'
durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import Counter

# Per-layer metrics: name -> (unit, better). Every traced run reports all of
# them; a layer a workload does not reach reads 0. A layer's time is given as
# the share of the traced pass spent in its own code (self time), so that a
# layer a workload never reaches reads 0 % rather than a constant 0 ms;
# multiply by trace.traced_pass_s for seconds.
LAYER_METRICS = {
    "symexec.trace_share": ("%", "lower"),
    "symexec.trace_calls": ("count", "lower"),
    "symexec.trace_instructions": ("count", "lower"),
    "symexec.trace_instr_per_s": ("1/s", "higher"),
    "symexec.trace_blocks": ("count", "lower"),
    "pathgen.unfold_share": ("%", "lower"),
    "pathgen.filter_share": ("%", "lower"),
    "pathgen.paths": ("count", "lower"),
    "pathgen.money_paths": ("count", "lower"),
    "pathgen.money_ratio": ("ratio", "lower"),
    "pathgen.prefix_nodes": ("count", "lower"),
    "pathgen.prefix_share": ("ratio", "higher"),
    "solver.queries": ("count", "lower"),
    "solver.self_share": ("%", "lower"),
    "solver.queries_per_s": ("1/s", "higher"),
    "solver.sat": ("count", "higher"),
    "solver.unsat": ("count", "higher"),
    "solver.unknown": ("count", "lower"),
    "symexec.execute_share": ("%", "lower"),
    "symexec.replay_calls": ("count", "lower"),
    "symexec.replay_share": ("%", "lower"),
    "symexec.replay_divergences": ("count", "lower"),
    "symexec.constructor_share": ("%", "lower"),
    "disasm.self_share": ("%", "lower"),
    "disasm.instructions": ("count", "lower"),
    "cfg.self_share": ("%", "lower"),
    "cfg.blocks": ("count", "lower"),
    "analyzers.check_share": ("%", "lower"),
    "analyzers.suicide_share": ("%", "lower"),
    "analyzers.gas_calls": ("count", "lower"),
    "analyzers.gas_share": ("%", "lower"),
    "ranker.share": ("%", "lower"),
    "ranker.ranked": ("count", "lower"),
    "ranker.admitted": ("count", "lower"),
    "registry.lookups": ("count", "lower"),
    "registry.share": ("%", "lower"),
    "report.analyze_self_share": ("%", "lower"),
    "report.render_share": ("%", "lower"),
    "report.emit_share": ("%", "lower"),
    "report.json_bytes": ("bytes", "lower"),
    "report.critical_paths": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.traced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Property checks; their registry lookups are child spans, so the sum of
# their self times excludes the registry.
CHECK_SPANS = ("analyzers.payable", "analyzers.black_hole", "analyzers.transfer_limit",
               "analyzers.address", "analyzers.suicide")


class _Proxy:
    """Delegates to `target`, except for the attributes given."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _Paths(list):
    """An unfolded path list that keeps the enumeration's `timed_out` flag."""

    timed_out = False


class Tracer:
    def __init__(self, ev):
        self.ev = ev
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, operation]
        self._stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.traced: list[tuple] = []  # (operation, cfg, path blocks) per trace_path call
        self._pass_start = 0

    def wrap(self, name, fn, after=None):
        """`fn` recording a span per call; `after(result, args, kwargs)` runs
        once the span has ended, to count what the call produced."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _count(self, key, measure=len):
        counts = self.counts

        def after(result, _args, _kwargs):
            counts[key] += measure(result)
        return after

    @contextlib.contextmanager
    def installed(self, workload):
        """Wrap every layer for the duration of one pass of `workload`."""
        ev, tracer = self.ev, self
        report, symexec = ev.report, ev.symexec
        self._pass_start = len(self.spans)
        self.counts = Counter()
        self.traced = []

        enumerate_paths = report.enumerate_paths
        filter_money = report.filter_money

        def unfold(*args, **kwargs):
            enumeration = enumerate_paths(*args, **kwargs)
            paths = _Paths(enumeration)
            paths.timed_out = enumeration.timed_out
            return paths

        def note_trace(_result, args, kwargs):
            cfg = args[0] if args else kwargs["cfg"]
            path = args[2] if len(args) > 2 else kwargs["path"]
            tracer.traced.append((tracer.op, cfg, path.blocks))

        def note_verdict(result, _args, _kwargs):
            if result[1].reason.startswith("witness replay"):
                tracer.counts["symexec.replay_divergences"] += 1

        def note_query(result, _args, _kwargs):
            tracer.counts[f"solver.{result.status}"] += 1

        base_gas = report.GasEstimator

        class GasEstimator(base_gas):
            __init__ = self.wrap("analyzers.gas_setup", base_gas.__init__)
            path_gas = self.wrap("analyzers.gas", base_gas.path_gas)

        traced_execute = self.wrap("symexec.execute", symexec.execute_path, note_verdict)
        patches = [
            (report, "analyze", self.wrap("report.analyze", report.analyze,
                                          self._count("report.critical_paths",
                                                      lambda r: len(r.critical_paths)))),
            (report, "to_json", self.wrap("report.emit", report.to_json,
                                          self._count("report.json_bytes"))),
            (report, "to_call_sequence", self.wrap("report.render", report.to_call_sequence)),
            (report, "disassemble", self.wrap("disasm", report.disassemble,
                                              self._count("disasm.instructions"))),
            (report, "build_cfg", self.wrap("cfg", report.build_cfg,
                                            self._count("cfg.blocks", lambda c: len(c.blocks)))),
            (report, "run_constructor", self.wrap("symexec.constructor", report.run_constructor)),
            (report, "detect_payable_entries", self.wrap("analyzers.payable",
                                                         report.detect_payable_entries)),
            (report, "enumerate_paths", self.wrap("pathgen.unfold", unfold,
                                                  self._count("pathgen.paths"))),
            (report, "filter_money", self.wrap("pathgen.money_filter",
                                               lambda *a, **k: list(filter_money(*a, **k)),
                                               self._count("pathgen.money_paths"))),
            (report, "GasEstimator", GasEstimator),
            (report, "check_black_hole", self.wrap("analyzers.black_hole", report.check_black_hole)),
            (report, "trace_path", self.wrap("symexec.trace", report.trace_path, note_trace)),
            (report, "refine_transfer_values", self.wrap("analyzers.transfer_limit",
                                                         report.refine_transfer_values)),
            (report, "check_transfer_limit", self.wrap("analyzers.transfer_limit",
                                                       report.check_transfer_limit)),
            (report, "check_address_existence", self.wrap("analyzers.address",
                                                          report.check_address_existence)),
            (report, "check_guard_suicide", self.wrap("analyzers.suicide",
                                                      report.check_guard_suicide)),
            (report, "make_ranked", self.wrap("ranker.rank", report.make_ranked)),
            (report, "rank_and_gate", self.wrap("ranker.gate", report.rank_and_gate,
                                                self._count("ranker.admitted",
                                                            lambda plan: len(plan.admitted)))),
            (report, "execute_path", traced_execute),
            (symexec, "execute_path", traced_execute),
            (symexec, "replay_blocks", self.wrap("symexec.replay", symexec.replay_blocks)),
            (workload, "solver", _Proxy(workload.solver, check=self.wrap(
                "solver", workload.solver.check, note_query))),
        ]
        if getattr(workload, "registry", None) is not None:
            patches.append((workload, "registry", _Proxy(workload.registry, exists=self.wrap(
                "registry", workload.registry.exists))))
        run = self.wrap("operation", workload.run)

        def run_operation(key):
            tracer.op += 1
            return run(key)

        patches.append((workload, "run", run_operation))
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _new in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield
        finally:
            for obj, attr, old in originals:
                if obj is workload and attr == "run":
                    del workload.run  # back to the class's method
                else:
                    setattr(obj, attr, old)

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass, `wall_s` long, recorded since the
        last `installed`."""
        spans, start = self.spans, self._pass_start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(start, len(spans)):
            name, begin, end, parent, _op = spans[i]
            calls[name] += 1
            self_ns[name] += end - begin
            if parent >= start:
                self_ns[spans[parent][0]] -= end - begin

        blocks = instructions = nodes = 0
        tries: dict[int, dict] = {}
        for op, cfg, path in self.traced:
            node = tries.setdefault(op, {})
            blocks += len(path)
            for block in path:
                instructions += len(cfg.blocks[block].instructions)
                child = node.get(block)
                if child is None:
                    child = node[block] = {}
                    nodes += 1
                node = child

        def share(*names):
            return 100 * sum(self_ns[n] for n in names) / (wall_s * 1e9)

        def ratio(num, den):
            return num / den if den else 0.0

        counts = self.counts
        return {
            "symexec.trace_share": share("symexec.trace"),
            "symexec.trace_calls": calls["symexec.trace"],
            "symexec.trace_instructions": instructions,
            "symexec.trace_instr_per_s": ratio(instructions, self_ns["symexec.trace"] / 1e9),
            "symexec.trace_blocks": blocks,
            "pathgen.unfold_share": share("pathgen.unfold"),
            "pathgen.filter_share": share("pathgen.money_filter"),
            "pathgen.paths": counts["pathgen.paths"],
            "pathgen.money_paths": counts["pathgen.money_paths"],
            "pathgen.money_ratio": ratio(counts["pathgen.money_paths"], counts["pathgen.paths"]),
            "pathgen.prefix_nodes": nodes,
            "pathgen.prefix_share": 1.0 - ratio(nodes, blocks) if blocks else 0.0,
            "solver.queries": calls["solver"],
            "solver.self_share": share("solver"),
            "solver.queries_per_s": ratio(calls["solver"], self_ns["solver"] / 1e9),
            "solver.sat": counts["solver.sat"],
            "solver.unsat": counts["solver.unsat"],
            "solver.unknown": counts["solver.unknown"],
            "symexec.execute_share": share("symexec.execute"),
            "symexec.replay_calls": calls["symexec.replay"],
            "symexec.replay_share": share("symexec.replay"),
            "symexec.replay_divergences": counts["symexec.replay_divergences"],
            "symexec.constructor_share": share("symexec.constructor"),
            "disasm.self_share": share("disasm"),
            "disasm.instructions": counts["disasm.instructions"],
            "cfg.self_share": share("cfg"),
            "cfg.blocks": counts["cfg.blocks"],
            "analyzers.check_share": share(*CHECK_SPANS),
            "analyzers.suicide_share": share("analyzers.suicide"),
            "analyzers.gas_calls": calls["analyzers.gas"],
            "analyzers.gas_share": share("analyzers.gas", "analyzers.gas_setup"),
            "ranker.share": share("ranker.rank", "ranker.gate"),
            "ranker.ranked": calls["ranker.rank"],
            "ranker.admitted": counts["ranker.admitted"],
            "registry.lookups": calls["registry"],
            "registry.share": share("registry"),
            "report.analyze_self_share": share("report.analyze"),
            "report.render_share": share("report.render"),
            "report.emit_share": share("report.emit"),
            "report.json_bytes": counts["report.json_bytes"],
            "report.critical_paths": counts["report.critical_paths"],
            "trace.spans": len(spans) - start,
        }

    def write(self, path, header: dict) -> None:
        """Write every span, one JSON array per line after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({**header, "fields": ["name", "start_ns", "end_ns",
                                                      "parent", "operation"]}) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
