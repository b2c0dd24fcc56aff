#!/usr/bin/env python3
"""Rewrite perfbench/pins.json, the regression pins the benchmark checks.

The pins are the program's own output at the commit that writes them, not
ground truth (that is perfbench/expected.json): per-contract path counts and
critical-path counts for the corpus workloads, and the verdict of every
feasibility-b2 path at the solver timeout given. Rewrite them only in a
change that means to alter those outputs.

Usage: python3 perfbench/pin.py [--solver-timeout-ms 2000]
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, Corpus, Feasibility, import_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--solver-timeout-ms", type=int, default=2000)
    args = parser.parse_args()
    ev = import_program()
    pins: dict = {"about": "Regression pins: the program's own output when they were "
                           "written (python3 perfbench/pin.py), not ground truth."}
    for bound in (3, 4):
        workload = Corpus(ev, bound, None, None)
        counts = {}
        for name in workload.prepare():
            summary, _text = workload.run(name)
            if summary["timed_out"]:
                raise SystemExit(f"{name} timed out at call bound {bound}; nothing pinned")
            counts[name] = {k: summary[k] for k in
                            ("paths_enumerated", "paths_money_related", "critical_paths")}
        pins[f"corpus-b{bound}"] = counts
    workload = Feasibility(ev, args.solver_timeout_ms, None, None)
    verdicts = {}
    for key in workload.prepare():
        status = workload.run(key).status.value
        if status == "unknown":
            raise SystemExit(f"{key}: solver gave unknown; raise the timeout")
        verdicts[key] = status
    pins["feasibility-b2"] = {"solver_timeout_ms": args.solver_timeout_ms,
                              "verdicts": verdicts}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(verdicts)} verdicts and "
          f"{len(pins['corpus-b3'])} contracts at call bounds 3 and 4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
