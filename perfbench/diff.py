"""Compare two benchmark result files metric by metric, layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/diff.py BEFORE.json AFTER.json

Either file may come from ``suite.py --out`` or ``run.py --out``. For every
workload in both files and every metric, it prints each side's median with
its first and third quartile, and the change of the median. An end-to-end
metric whose median got worse by more than its bound in BENCHMARK.json is
marked WORSE and makes the exit code 1.
"""

from __future__ import annotations

import json
import os
import sys

from suite import ROOT, load_results, quartiles


def cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    before, after = (load_results(path) for path in argv)
    regressed = False
    for workload in sorted(set(before) & set(after)):
        print(f"{workload}")
        print(f"  {'metric':32} {'before: median [q1, q3]':>36}"
              f" {'after: median [q1, q3]':>36} {'change':>8}")
        for section in ("end_to_end", "per_layer"):
            names = [n for n in before[workload][section] if n in after[workload][section]]
            for name in names:
                unit = before[workload][section][name]["unit"]
                b = quartiles(before[workload][section][name]["samples"])
                a = quartiles(after[workload][section][name]["samples"])
                change = (a[1] - b[1]) / b[1] if b[1] else float("nan")
                mark = ""
                if name in declared:
                    worse = -change if declared[name]["better"] == "higher" else change
                    if worse > declared[name]["bound"]:
                        mark = "WORSE"
                        regressed = True
                print(f"  {name:32} {cell(b):>36} {cell(a):>36} {change:+8.1%} {unit} {mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
