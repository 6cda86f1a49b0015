"""Benchmark of one ``colanet-cl run`` workload on synthetic glyphs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload perm3-m45-train --seed 1 \\
        --seconds 50 --trace 0 [--out result.json]

The benchmark writes procedurally generated glyphs as the four MNIST IDX
files into a scratch directory of the checkout, then calls the command-line
entry point in this process, ``colanet_cl.cli.main(["run", ...])``, with the
``permuted`` scenario, a fixed number of times: ``--seconds`` divided by the
workload's nominal run time (see ``planned_runs``). The count does not depend
on how fast the runs go, so two commits compared at one ``--seconds`` get the
same number of runs. Each run is checked for correct output, and a failed run
does not stop the others. The last line of standard output is one JSON
object: with ``--trace 0`` it carries the end-to-end metrics of the untraced
runs; with ``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics of the traced runs. ``--out`` also writes the environment,
the per-run wall times and the failures to a file, which ``suite.py``
collects and ``diff.py`` compares.

Times are the fastest seen, not medians. On the 2-vCPU virtual machine the
bounds were set on, the speed of a core switches between two levels, for
seconds to minutes at a time: a fixed Python loop takes either ~30-50 ms or
~80-90 ms, and CPU time moves with wall time. Every run at one seed makes the
same stages in the same order, so each part of a run (the set-up, each
adapter stage, and the gap after it) is timed once per run. ``setup_s`` is
the fastest set-up; ``run_wall_s`` is the sum of each part's fastest time,
so it is a composite, not the wall time of one run; the train and eval rates
divide by the summed fastest train or evaluate stages. Short parts are more
likely than a whole run to fall inside one fast stretch. A slow level that
lasts a whole run still shows; WORKLOADS.md gives the spreads this leaves.

Exit codes: 0 all runs correct, 1 a correctness check failed (the JSON line
is still printed), 2 the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-work")


@dataclass(frozen=True)
class Workload:
    """One closed-loop ``colanet-cl run`` call.

    Attributes:
        config: Model keys of the CLI config file.
        n_tasks: Permuted tasks in the stream.
        train: Glyphs in the training split (every task permutes it).
        test: Glyphs in the test split.
        nominal_s: About one untraced run's wall time on the 2-vCPU machine
            the bounds were set on; it fixes the number of runs.
    """

    config: str
    n_tasks: int
    train: int
    test: int
    nominal_s: float


# Why each workload exists is recorded in WORKLOADS.md next to this file.
WORKLOADS = {
    "perm3-m45-train": Workload(
        "model = colanet\nmicrocolumns = 45\nalpha = 2.5\nns = 0\n", 3, 3000, 800, 6.5
    ),
    "perm10-mlp": Workload("model = mlp\n", 10, 2000, 500, 7.0),
}

#: Lowest accepted accuracy on a task right after training on it, five times
#: the chance level of 0.1. The lowest seen over eight seeds was 0.91; a
#: broken model scores near chance.
MIN_DIAGONAL = 0.5
#: Runs made however short ``--seconds`` is: untraced runs with
#: ``--trace 0``, pairs of an untraced and a traced run with ``--trace 1``.
MIN_REPS = 3
MIN_PAIRS = 2
#: No run starts after this many seconds of runs, so that a much slower
#: program still ends within the 180 s a benchmark call may take.
TIME_LIMIT_S = 140.0
#: Share of ``colanet.train_task`` time that the spans of ``present_full``
#: and ``train_sample`` may leave unexplained on a traced run.
MAX_UNACCOUNTED = 0.25

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "train_img_per_s": "img/s",
    "eval_img_per_s": "img/s",
    "peak_rss_mb": "MB",
    "final_aa_pct": "%",
}

PER_LAYER = {
    "dataset.load_idx_s": "s",
    "dataset.gen_permutation_s": "s",
    "dataset.permute_s": "s",
    "dataset.make_stream_s": "s",
    "dataset.stream_bytes": "bytes",
    "encoder.encode_batch_s": "s",
    "encoder.draws": "count",
    "colanet.train_task_s": "s",
    "colanet.train_sample_p50_us": "us",
    "colanet.train_sample_p99_us": "us",
    "colanet.present_s": "s",
    "colanet.plasticity_s": "s",
    "colanet.train_unaccounted_s": "s",
    "colanet.samples": "count",
    "colanet.raw_correct": "count",
    "colanet.teacher_forced": "count",
    "colanet.silent_train": "count",
    "colanet.updates": "count",
    "colanet.useful_ratio": "ratio",
    "colanet.drive_flop": "flop",
    "colanet.weight_bytes_read": "bytes",
    "colanet.evaluate_s": "s",
    "colanet.eval_race_s": "s",
    "colanet.eval_silent": "count",
    "colanet.evaluations": "count",
    "colanet.save_s": "s",
    "colanet.load_s": "s",
    "colanet.state_bytes": "bytes",
    "baseline.train_epoch_s": "s",
    "baseline.evaluate_s": "s",
    "baseline.save_s": "s",
    "baseline.load_s": "s",
    "baseline.state_bytes": "bytes",
    "baseline.flop": "flop",
    "clbench.run_sequence_self_s": "s",
    "clbench.compute_report_s": "s",
    "clbench.stages": "count",
    "clbench.final_fm_pct": "%",
    "cli.input_hashes_s": "s",
    "cli.build_adapter_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def environment() -> dict:
    """Interpreter, NumPy, BLAS and CPU facts that a result depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_once(cli, config_path: str, out_dir: str, traced: bool):
    """One ``colanet-cl run``; returns its recorder, exit code and output."""
    import spans

    rec = spans.Recorder()
    argv = ["run", "--config", config_path, "--out", out_dir]
    sink = io.StringIO()
    with spans.instrument(rec, traced):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = rec.wrap("cli.main", cli.main)(argv)
    return rec, code, sink.getvalue()


def planned_runs(spec: Workload, seconds: float, traced: bool) -> int:
    """Runs of one call: as many nominal runs as fit in ``seconds``.

    The count depends only on ``seconds`` and the workload, never on the
    measured speed, so each metric's fastest time is taken over the same
    number of runs on every commit.
    """
    if traced:
        return 2 * max(MIN_PAIRS, round(seconds / (2 * spec.nominal_s)))
    return max(MIN_REPS, round(seconds / spec.nominal_s))


def timeline(rec) -> tuple[list[str], np.ndarray]:
    """The consecutive parts of one run: their kinds and durations.

    The parts are the set-up (``main()`` call to the first stage), then each
    adapter stage of ``run_sequence`` followed by the gap to the next stage;
    the last gap ends when ``main()`` returns. They add up to the run's wall
    time.
    """
    ((_, start, end, _),) = [s for s in rec.spans if s[0] == "cli.main"]
    kinds, bounds = ["setup"], [start]
    for name, begin, finish, _ in rec.spans:
        if name.startswith("adapter."):
            kinds += [name, "gap"]
            bounds += [begin, finish]
    bounds.append(end)
    return kinds, np.diff(bounds)


def fastest_parts(timelines: list) -> tuple[np.ndarray, np.ndarray]:
    """Part kinds, and each part's fastest duration over the runs.

    Every run at a seed makes the same stages in the same order, so each part
    of the timeline has one duration per run.
    """
    kinds = np.array(timelines[0][0])
    return kinds, np.min([durations for _, durations in timelines], axis=0)


def end_to_end(timelines: list, counts, aa_fm) -> dict:
    """End-to-end metrics of the untraced runs at one seed.

    A time metric adds up the fastest duration seen for each part; the module
    docstring says why.
    """
    kinds, parts = fastest_parts(timelines)
    return {
        "setup_s": float(parts[0]),
        "run_wall_s": float(parts.sum()),
        "train_img_per_s": counts["train_images"]
        / float(parts[kinds == "adapter.train_task"].sum()),
        "eval_img_per_s": counts["eval_images"]
        / float(parts[kinds == "adapter.evaluate_task"].sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_aa_pct": aa_fm[0],
        "final_fm_pct": aa_fm[1],
    }


def final_aa_fm(profile_csv: str) -> tuple[float, float]:
    """AA and FM at k=n, in percent, from the profile CSV the CLI wrote."""
    from colanet_cl import clbench

    report = clbench.compute_report(clbench.read_profile_csv(profile_csv))
    return float(report.aa[-1] * 100.0), float(report.fm[-1] * 100.0)


def per_layer(rec, final_fm_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers it did not run read 0."""
    from colanet_cl import baseline, colanet
    from colanet_cl.snncore import N_INPUTS

    total, own, calls = rec.summary()
    counts = rec.counts
    samples = calls["colanet.train_sample"]
    sample_us = rec.durations("colanet.train_sample") * 1e6
    adapter = rec.captured["adapter"]
    drive_flop = weight_bytes = 0
    if isinstance(adapter, colanet.ColaNetAdapter):
        cfg = adapter.net.config
        drive_flop = 2 * cfg.steps_active * N_INPUTS * cfg.neuron_count
        weight_bytes = cfg.neuron_count * N_INPUTS * 8
    mlp_weights = baseline.N_IN * baseline.N_HIDDEN + baseline.N_HIDDEN * baseline.N_OUT
    return {
        "dataset.load_idx_s": total["dataset.load_idx"],
        "dataset.gen_permutation_s": total["dataset.gen_permutation"],
        "dataset.permute_s": total["dataset.apply_permutation"],
        "dataset.make_stream_s": total["dataset.make_permuted_stream"],
        "dataset.stream_bytes": counts["stream_bytes"],
        "encoder.encode_batch_s": total["encoder.encode_active_batch"],
        "encoder.draws": counts["draws"],
        "colanet.train_task_s": total["colanet.train_task"],
        "colanet.train_sample_p50_us": (
            float(np.percentile(sample_us, 50)) if samples else 0.0
        ),
        "colanet.train_sample_p99_us": (
            float(np.percentile(sample_us, 99)) if samples else 0.0
        ),
        "colanet.present_s": total["colanet.present_full"],
        "colanet.plasticity_s": own["colanet.train_sample"],
        "colanet.train_unaccounted_s": own["colanet.train_task"],
        "colanet.samples": samples,
        "colanet.raw_correct": counts["raw_correct"],
        "colanet.teacher_forced": counts["teacher_forced"],
        "colanet.silent_train": counts["silent_train"],
        "colanet.updates": counts["updates"],
        "colanet.useful_ratio": counts["raw_correct"] / samples if samples else 0.0,
        "colanet.drive_flop": drive_flop,
        "colanet.weight_bytes_read": weight_bytes,
        "colanet.evaluate_s": total["colanet.evaluate_task"],
        "colanet.eval_race_s": own["colanet.evaluate_task"],
        "colanet.eval_silent": counts["eval_silent"],
        "colanet.evaluations": calls["colanet.evaluate_task"],
        "colanet.save_s": total["colanet.save_state"],
        "colanet.load_s": total["colanet.load_state"],
        "colanet.state_bytes": counts["state_bytes"],
        "baseline.train_epoch_s": total["baseline.mlp_train_epoch"],
        "baseline.evaluate_s": total["baseline.mlp_evaluate"],
        "baseline.save_s": total["baseline.mlp_save"],
        "baseline.load_s": total["baseline.mlp_load"],
        "baseline.state_bytes": counts["mlp_state_bytes"],
        "baseline.flop": mlp_weights
        * (6 * counts["mlp_train_images"] + 2 * counts["mlp_eval_images"]),
        "clbench.run_sequence_self_s": own["clbench.run_sequence"],
        "clbench.compute_report_s": total["clbench.compute_report"],
        "clbench.stages": sum(v for k, v in calls.items() if k.startswith("adapter.")),
        "clbench.final_fm_pct": final_fm_pct,
        "cli.input_hashes_s": total["cli.input_hashes"],
        "cli.build_adapter_s": total["cli.build_adapter"],
        "cli.self_s": own["cli.main"],
        "trace.spans": len(rec.spans),
    }


def check(rec, code: int, log: str, out_dir: str, seed: int, n_tasks: int,
          traced: bool) -> list[str]:
    """Correctness checks of one run; returns the failures found."""
    from colanet_cl import baseline, clbench, colanet

    if code != 0:
        return [f"exit code {code}: {log.strip()[-300:]}"]
    failures = []
    profile = rec.captured["profile"]
    try:
        written = clbench.read_profile_csv(os.path.join(out_dir, f"profile_seed{seed}.csv"))
    except (clbench.ProfileFormatError, ValueError, OSError) as exc:
        return [f"profile CSV unreadable: {exc}"]
    lower = np.tril_indices(n_tasks)
    if written.k != n_tasks or not np.allclose(
        written.a[lower], profile.a[lower], rtol=0.0, atol=5e-5 + 1e-12
    ):
        failures.append("profile CSV differs from the returned profile")
    diagonal = np.diag(profile.a)
    if diagonal.min() < MIN_DIAGONAL:
        failures.append(f"diagonal accuracy {diagonal.min():.3f} < {MIN_DIAGONAL}")
    _, _, calls = rec.summary()
    expected = n_tasks * (n_tasks + 1) // 2
    if calls["adapter.evaluate_task"] != expected:
        failures.append(
            f"{calls['adapter.evaluate_task']} evaluations, expected {expected}"
        )
    last = os.path.join(out_dir, f"states_seed{seed}", f"state_{n_tasks:03d}.bin")
    first_task = rec.captured["tasks"][0]
    if isinstance(rec.captured["adapter"], colanet.ColaNetAdapter):
        again = colanet.evaluate_task(colanet.load_state(last), first_task)
    else:
        again = baseline.mlp_evaluate(baseline.mlp_load(last), first_task)
    if again != profile.a[n_tasks - 1, 0]:
        failures.append(
            f"reloaded checkpoint scores {again!r} on task 1, "
            f"profile has {profile.a[n_tasks - 1, 0]!r}"
        )
    if traced:
        total, own, _ = rec.summary()
        if own["colanet.train_task"] > MAX_UNACCOUNTED * total["colanet.train_task"]:
            failures.append(
                "present_full + train_sample spans leave "
                f"{own['colanet.train_task']:.3f} s of "
                f"{total['colanet.train_task']:.3f} s train_task unexplained"
            )
    return failures


def measure(name: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    """Generate the inputs, make the planned runs and check every one."""
    import glyphs
    from colanet_cl import cli

    spec = WORKLOADS[name]
    data_dir = os.path.join(work, "data")
    glyph_stats = glyphs.write_mnist_dir(data_dir, spec.train, spec.test, seed)
    config_path = os.path.join(work, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as f:
        f.write(
            f"{spec.config}scenario = permuted\nn_tasks = {spec.n_tasks}\n"
            f"seeds = {seed}\ndata_dir = {data_dir}\n"
        )

    planned = planned_runs(spec, seconds, traced)
    timelines = {"untraced": [], "traced": []}
    layers, failures = [], []
    attempted = failed = 0
    counts = reference = stages = aa_fm = None
    started = time.perf_counter()
    slowest = 0.0  # longest run so far
    while attempted < planned:
        if attempted and time.perf_counter() - started + slowest > TIME_LIMIT_S:
            break
        began = time.perf_counter()
        mode = traced and attempted % 2 == 1
        kind = "traced" if mode else "untraced"
        out_dir = os.path.join(work, f"out{attempted}")
        rec, code, log = run_once(cli, config_path, out_dir, mode)
        attempted += 1
        problems = check(rec, code, log, out_dir, seed, spec.n_tasks, mode)
        profile_csv = os.path.join(out_dir, f"profile_seed{seed}.csv")
        if not problems:
            with open(profile_csv, "rb") as f:
                written = f.read()
            reference = written if reference is None else reference
            if written != reference:
                problems.append("profile differs from the first good run's at this seed")
            kinds, durations = timeline(rec)
            stages = kinds if stages is None else stages
            if kinds != stages:
                problems.append("stages differ from the first good run's")
        if problems:
            failed += 1
            failures += [f"run {attempted} ({kind}): {p}" for p in problems]
        else:
            aa_fm = final_aa_fm(profile_csv)
            timelines[kind].append((kinds, durations))
            if mode:
                layers.append(per_layer(rec, aa_fm[1]))
            else:
                counts = rec.counts
        # Free this run's tasks and model before the next run starts, so
        # each run's peak RSS is its own.
        del rec
        shutil.rmtree(out_dir, ignore_errors=True)
        slowest = max(slowest, time.perf_counter() - began)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "glyphs": glyph_stats,
        "planned": planned,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "wall_s": {
            kind: [float(durations.sum()) for _, durations in runs]
            for kind, runs in timelines.items()
        },
        "setup_s": [float(durations[0]) for _, durations in timelines["untraced"]],
        "end_to_end": {},
        "per_layer": {},
    }
    units = {**END_TO_END, "final_fm_pct": "%", **PER_LAYER}
    if timelines["untraced"] and not traced:
        e2e = end_to_end(timelines["untraced"], counts, aa_fm)
        result["end_to_end"] = {
            k: {"unit": units[k], "samples": [v]} for k, v in e2e.items()
        }
    if layers and timelines["untraced"]:
        fastest = {k: min(layer[k] for layer in layers) for k in layers[0]}
        fastest["trace.overhead_s"] = float(
            fastest_parts(timelines["traced"])[1].sum()
            - fastest_parts(timelines["untraced"])[1].sum()
        )
        result["per_layer"] = {
            k: {"unit": units[k], "samples": [v]} for k, v in fastest.items()
        }
    return result


def report(result: dict, wanted: dict[str, str]) -> dict:
    """Print every metric with its unit; return the JSON result line.

    The line holds ``correct``, ``attempted``, ``failed`` and the ``wanted``
    metrics; the last line of standard output is this object.
    """
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"runs={result['attempted']} of {result['planned']} failed={result['failed']}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("# glyphs: " + ", ".join(f"{k}={v:.4f}" for k, v in result["glyphs"].items()))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for key, entry in result[section].items():
            (value,) = entry["samples"]
            print(f"{key:32} {value:16.6g} {entry['unit']}")
            if key in wanted:
                metrics[key] = {"value": value, "unit": entry["unit"]}
    runs_failed_frac = result["failed"] / result["attempted"]
    print(f"{'runs_failed_frac':32} {runs_failed_frac:16.6g} ratio")
    return {
        "correct": not result["failed"] and set(metrics) == set(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write every sample to this JSON file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "colanet_cl", "__init__.py")):
        print(f"error: the program is missing: no {SRC}/colanet_cl", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    line = report(result, PER_LAYER if args.trace else END_TO_END)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
