"""Run every workload, untraced and traced, and collect the results.

Usage (from the root of a checkout):

    python3 perfbench/suite.py [--seeds 1,2,3,4,5] [--out FILE]

Each (seed, workload, trace) combination runs ``run.py`` in its own process,
for BENCHMARK.json's ``run_seconds``, so each run's peak RSS is its own.
Each call gives one sample per metric; the default of five seeds gives the
median and quartiles five samples. The suite prints every end-to-end metric
of every workload by name, with its unit, as the median and quartiles of all
runs' samples, and the tracing overhead. ``--out`` writes the pooled samples
in the form ``diff.py`` compares. The exit code is 1 when any run failed a
correctness check, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the samples."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def load_results(path: str) -> dict:
    """Workload name -> result, from a suite file or one ``run.py --out`` file."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def merge(into: dict, result: dict) -> None:
    """Pool one run's samples, counts and failures into a workload entry."""
    for key in ("attempted", "failed"):
        into[key] = into.get(key, 0) + result[key]
    into.setdefault("failures", []).extend(result["failures"])
    into["environment"] = result["environment"]
    for section in ("end_to_end", "per_layer"):
        pooled = into.setdefault(section, {})
        for name, entry in result[section].items():
            target = pooled.setdefault(name, {"unit": entry["unit"], "samples": []})
            target["samples"].extend(entry["samples"])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    parser.add_argument("--out", help="write the pooled samples to this JSON file")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    workloads: dict = {}
    ok = True
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="suite-", dir=scratch) as tmp:
        for seed in seeds:
            for workload in (w["name"] for w in bench["workloads"]):
                for trace in (0, 1):
                    out = os.path.join(tmp, f"{workload}-{seed}-{trace}.json")
                    command = [
                        sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
                        "--out", out,
                    ]
                    print(f"# {workload} seed={seed} trace={trace}", flush=True)
                    code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
                    if code != 0:
                        ok = False
                        print(f"# {workload} seed={seed} trace={trace}: exit {code}")
                    if os.path.exists(out):
                        merge(workloads.setdefault(workload, {}), load_results(out)[workload])
    with contextlib.suppress(OSError):
        os.rmdir(scratch)

    for workload, entry in workloads.items():
        print(f"\n{workload}: {entry['attempted']} runs, {entry['failed']} failed")
        print(f"  {'runs_failed_frac':20} {entry['failed'] / entry['attempted']:14.6g} ratio")
        for failure in entry["failures"]:
            print(f"  FAILED {failure}")
        shown = [m["name"] for m in bench["end_to_end"]] + ["trace.overhead_s"]
        for section in ("end_to_end", "per_layer"):
            for name in shown:
                if name in entry[section]:
                    samples = entry[section][name]["samples"]
                    q1, median, q3 = quartiles(samples)
                    print(f"  {name:20} {median:14.6g} {entry[section][name]['unit']:6}"
                          f" [{q1:.6g}, {q3:.6g}] n={len(samples)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seeds": seeds, "workloads": workloads}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
