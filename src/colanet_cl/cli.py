"""Experiment runner: sequential-task runs, metrics, sweeps, heatmaps.

Subcommands
-----------
``run``
    Execute one experiment from a config file: train a model through a task
    stream, writing per-seed degradation-profile CSVs, metrics CSVs, summary
    text, per-iteration state files, and a provenance manifest.
``metrics``
    Recompute metrics from an existing profile CSV (optionally with a
    fresh-model baseline-accuracy CSV enabling forward transfer).
``sweep``
    Run the first seed once per point of an ``alpha`` and/or ``ns`` grid,
    each point writing the files of a ``run`` under ``point_NNN/``, and
    tabulate (alpha, ns, AA, FM) per point in ``sweep.csv``.
``heatmap``
    Render the receptive fields of a saved network state as a PPM image.
``baseline-acc``
    Train a fresh model per task (one epoch, that task only) and record the
    accuracy series used as the forward-transfer baseline.

Config files are flat ``key = value`` text; ``#`` starts a comment. Keys not
recognized are rejected so typos cannot silently change an experiment.
Every run writes ``manifest.json`` echoing the resolved configuration, the
seeds, and a content hash of each input data file (git blob SHA-1), so two
runs with identical manifests produce identical profile CSVs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dataset
from .baseline import MlpAdapter
from .clbench import (
    MetricsReport,
    ProfileFormatError,
    SequenceError,
    compute_report,
    read_baseline_csv,
    read_profile_csv,
    render_summary,
    run_sequence,
    write_metrics_csv,
    write_profile_csv,
)
from .colanet import (
    ColaNetAdapter,
    ColaNetConfig,
    StateFormatError,
    export_heatmaps,
    load_state,
)
from .dataset import (
    EMNIST_FILES,
    MNIST_FILES,
    DataError,
    IdxFormatError,
    make_emnist_letters,
    make_mnist_truncated,
    make_permuted_stream,
)
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

MODELS = ("colanet", "mlp")
SCENARIOS = ("permuted", "two-task-forward", "two-task-reverse")


class UsageError(Exception):
    """Bad arguments or config contents; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    """One experiment, fully resolved.

    Every field is echoed into the run manifest for provenance.
    """

    model: str = "colanet"
    scenario: str = "permuted"
    n_tasks: int = 3
    alpha: float = ColaNetConfig.alpha
    ns: float | None = None
    microcolumns: int = 15
    eta_plus: float = ColaNetConfig.eta_plus
    eta_minus: float = ColaNetConfig.eta_minus
    init_high: float = ColaNetConfig.init_high
    u_const: float = ColaNetConfig.u_const
    leak: float = ColaNetConfig.leak
    batch_size: int = 32
    train_count: int | None = None
    seeds: tuple[int, ...] = (1,)
    data_dir: str | None = None
    out_dir: str = "out"
    alpha_grid: tuple[float, ...] = ()
    ns_grid: tuple[float | None, ...] = ()

    def __post_init__(self):
        # ns = inf and ns = off both disable renormalization; keep one spelling.
        self.ns = None if self.ns == math.inf else self.ns
        self.ns_grid = tuple(None if ns == math.inf else ns for ns in self.ns_grid)
        if self.model not in MODELS:
            raise UsageError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.scenario not in SCENARIOS:
            raise UsageError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        if self.n_tasks < 1:
            raise UsageError("n_tasks must be >= 1")
        if not self.seeds:
            raise UsageError("seeds must list at least one seed")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.train_count is not None and self.train_count < 1:
            raise UsageError(f"train_count must be >= 1, got {self.train_count}")


# ---------------------------------------------------------------------------
# Config-file parsing
# ---------------------------------------------------------------------------


def _parse_bool_none(raw: str) -> float | None:
    if raw.lower() in ("none", "off"):
        return None
    return float(raw)


_KEY_PARSERS = {
    "model": str,
    "scenario": str,
    "n_tasks": int,
    "alpha": float,
    "ns": _parse_bool_none,
    "microcolumns": int,
    "eta_plus": float,
    "eta_minus": float,
    "init_high": float,
    "u_const": float,
    "leak": float,
    "batch_size": int,
    "train_count": lambda raw: None if raw.lower() == "none" else int(raw),
    "seeds": lambda raw: tuple(int(s.strip()) for s in raw.split(",") if s.strip()),
    "data_dir": str,
    "out_dir": str,
    "alpha_grid": lambda raw: tuple(
        float(s.strip()) for s in raw.split(",") if s.strip()
    ),
    "ns_grid": lambda raw: tuple(
        _parse_bool_none(s.strip()) for s in raw.split(",") if s.strip()
    ),
}


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parse flat ``key = value`` config text into typed values.

    ``#`` starts a comment (full-line or trailing); blank lines are ignored.

    Raises:
        UsageError: Unknown key, missing ``=``, or an unparsable value,
            with the offending line number.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](raw)
        except (ValueError, UsageError) as exc:
            raise UsageError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}"
            ) from None
    return values


def load_experiment_config(
    path: str,
    data_dir: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Read a config file and apply command-line overrides."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    values = parse_config_text(text, path)
    if data_dir is not None:
        values["data_dir"] = data_dir
    if out_dir is not None:
        values["out_dir"] = out_dir
    if seed is not None:
        values["seeds"] = (seed,)
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.model == "colanet":
        try:
            for point in grid_points(cfg):
                colanet_config(point, 0)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Task streams, adapters, manifests
# ---------------------------------------------------------------------------


def grid_points(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """One config per sweep point, in sweep order.

    The points are the cross product of ``alpha_grid`` and ``ns_grid``, alpha
    outermost; an empty grid stands for the single configured value.
    """
    return [
        dataclasses.replace(cfg, alpha=alpha, ns=ns, alpha_grid=(), ns_grid=())
        for alpha in cfg.alpha_grid or (cfg.alpha,)
        for ns in cfg.ns_grid or (cfg.ns,)
    ]


def build_tasks(cfg: ExperimentConfig, seed: int) -> list[dataset.TaskSpec]:
    """Construct the task stream for one run.

    ``permuted`` builds ``n_tasks`` pixel-permuted MNIST tasks (task 1
    unpermuted); the two-task scenarios pair truncated MNIST (24k/4k) with
    the EMNIST letters task in the stated order.
    """
    if cfg.data_dir is None:
        raise UsageError("data_dir is required (config key or --data-dir)")
    if cfg.scenario == "permuted":
        return make_permuted_stream(
            cfg.n_tasks, seed, cfg.data_dir, train_count=cfg.train_count
        )
    digits = make_mnist_truncated(cfg.data_dir)
    letters = make_emnist_letters(cfg.data_dir)
    if cfg.scenario == "two-task-forward":
        first, second = digits, letters
    else:
        first, second = letters, digits
    return [
        dataclasses.replace(first, task_id=1),
        dataclasses.replace(second, task_id=2),
    ]


def colanet_config(cfg: ExperimentConfig, seed: int) -> ColaNetConfig:
    """The network config of one colanet run; raises ValueError if invalid."""
    return ColaNetConfig(
        microcolumns=cfg.microcolumns,
        alpha=cfg.alpha,
        ns=cfg.ns,
        eta_plus=cfg.eta_plus,
        eta_minus=cfg.eta_minus,
        init_high=cfg.init_high,
        u_const=cfg.u_const,
        leak=cfg.leak,
        seed=seed,
    )


def build_adapter(cfg: ExperimentConfig, seed: int):
    """Construct the model adapter for one run."""
    if cfg.model == "mlp":
        return MlpAdapter(seed, batch_size=cfg.batch_size)
    return ColaNetAdapter(colanet_config(cfg, seed))


def _git_blob_sha1(path: str) -> str:
    """Content hash of a file, computed the way git hashes blobs."""
    with open(path, "rb") as f:
        payload = f.read()
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(payload))
    h.update(payload)
    return h.hexdigest()


def input_hashes(cfg: ExperimentConfig) -> dict[str, str]:
    """Hash every data file the scenario reads, keyed by resolved path."""
    names = list(MNIST_FILES.values())
    if cfg.scenario != "permuted":
        names += list(EMNIST_FILES.values())
    hashes = {}
    for name in names:
        path = dataset._resolve(cfg.data_dir, name)
        hashes[path] = _git_blob_sha1(path)
    return hashes


def write_manifest(cfg: ExperimentConfig, command: str) -> str:
    """Write ``cfg.out_dir``/manifest.json: config echo, seeds, input hashes."""
    manifest = {
        "command": command,
        "config": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in dataclasses.asdict(cfg).items()
        },
        "seeds": list(cfg.seeds),
        "input_hashes": input_hashes(cfg),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_unit(cfg: ExperimentConfig, seed: int, out_dir: str) -> MetricsReport:
    """Run the task sequence once for one seed; write its files to ``out_dir``.

    Writes ``profile_seed<S>.csv``, ``metrics_seed<S>.csv``,
    ``summary_seed<S>.txt`` and the per-task checkpoints in
    ``states_seed<S>/``. The seed's task stream lives only in this call, so
    a caller running several units holds one stream at a time.
    """
    tasks = build_tasks(cfg, seed)
    adapter = build_adapter(cfg, seed)
    state_dir = os.path.join(out_dir, f"states_seed{seed}")
    profile = run_sequence(adapter, tasks, state_dir=state_dir)
    write_profile_csv(profile, os.path.join(out_dir, f"profile_seed{seed}.csv"))
    report = compute_report(profile)
    write_metrics_csv(report, os.path.join(out_dir, f"metrics_seed{seed}.csv"))
    summary_path = os.path.join(out_dir, f"summary_seed{seed}.txt")
    with open(summary_path, "w", encoding="utf-8") as f:
        f.write(render_summary(report) + "\n")
    return report


def cmd_run(cfg: ExperimentConfig) -> int:
    """Run the experiment once per seed; print each seed's summary."""
    write_manifest(cfg, "run")
    for seed in cfg.seeds:
        report = run_unit(cfg, seed, cfg.out_dir)
        print(f"seed {seed}:")
        print(render_summary(report))
    return EXIT_OK


def cmd_metrics(
    profile_path: str, baseline_path: str | None, out_dir: str | None
) -> int:
    """Compute metrics for an existing profile CSV; print the summary."""
    profile = read_profile_csv(profile_path)
    baseline = read_baseline_csv(baseline_path) if baseline_path else None
    report = compute_report(profile, baseline_acc=baseline)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(report, os.path.join(out_dir, "metrics.csv"))
    print(render_summary(report))
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Run the first seed per grid point; tabulate final AA and FM.

    The points are ``grid_points(cfg)``; at least one of ``alpha_grid`` and
    ``ns_grid`` must be non-empty. Point NNN is one ``run_unit`` whose files
    land in ``point_NNN/`` under the output directory.
    """
    if not cfg.alpha_grid and not cfg.ns_grid:
        raise UsageError("sweep requires alpha_grid and/or ns_grid")
    if cfg.model != "colanet":
        raise UsageError("sweep grids apply to the colanet model only")
    seed = cfg.seeds[0]
    write_manifest(cfg, "sweep")
    rows = []
    for index, point in enumerate(grid_points(cfg)):
        point_dir = os.path.join(cfg.out_dir, f"point_{index:03d}")
        report = run_unit(point, seed, point_dir)
        rows.append(
            (
                point.alpha,
                point.ns,
                report.aa[-1] * 100.0,
                report.fm[-1] * 100.0 if report.n > 1 else float("nan"),
            )
        )
    sweep_path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as f:
        f.write("alpha,ns,AA,FM\n")
        for alpha, ns, aa, fm in rows:
            ns_cell = "" if ns is None else f"{ns:g}"
            fm_cell = "" if np.isnan(fm) else f"{fm:.2f}"
            f.write(f"{alpha:g},{ns_cell},{aa:.2f},{fm_cell}\n")
    print(f"{'alpha':>10} {'ns':>10} {'AA':>8} {'FM':>8}")
    for alpha, ns, aa, fm in rows:
        ns_cell = "off" if ns is None else f"{ns:g}"
        fm_cell = "-" if np.isnan(fm) else f"{fm:.2f}"
        print(f"{alpha:>10g} {ns_cell:>10} {aa:>8.2f} {fm_cell:>8}")
    return EXIT_OK


def cmd_heatmap(state_path: str, out_path: str) -> int:
    """Render a saved network state's receptive fields as a PPM file."""
    net = load_state(state_path)
    export_heatmaps(net, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_baseline_acc(cfg: ExperimentConfig) -> int:
    """Train a fresh model per task and record its single-task accuracy.

    Writes ``baseline_acc.csv`` (columns task, accuracy in percent): the
    ã_j series that ``metrics`` consumes for forward transfer. Fresh-model
    seeds derive from the first configured seed and the task index so no
    two tasks share initialization or noise streams.
    """
    seed = cfg.seeds[0]
    write_manifest(cfg, "baseline-acc")
    tasks = build_tasks(cfg, seed)
    accuracies = []
    for task in tasks:
        adapter = build_adapter(cfg, derive_seed(seed, "fwt-baseline", task.task_id))
        adapter.train_task(task)
        accuracies.append(adapter.evaluate_task(task))
    path = os.path.join(cfg.out_dir, "baseline_acc.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("task,accuracy\n")
        for task, acc in zip(tasks, accuracies):
            f.write(f"{task.task_id},{acc * 100.0:.2f}\n")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colanet-cl",
        description="Columnar spiking-network continual-learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--data-dir", help="override the config's data_dir")
        p.add_argument("--out", help="override the config's out_dir")
        p.add_argument("--seed", type=int, help="override the config's seeds")

    add_config_flags(sub.add_parser("run", help="run one experiment"))
    p_metrics = sub.add_parser("metrics", help="metrics from a profile CSV")
    p_metrics.add_argument("profile", help="degradation-profile CSV")
    p_metrics.add_argument(
        "baseline", nargs="?", help="optional baseline-accuracy CSV (for FWT)"
    )
    p_metrics.add_argument("--out", help="directory for metrics.csv")
    add_config_flags(sub.add_parser("sweep", help="grid sweep over alpha/ns"))
    p_heatmap = sub.add_parser("heatmap", help="render receptive fields")
    p_heatmap.add_argument("state", help="saved network state file")
    p_heatmap.add_argument("--out", required=True, help="output PPM path")
    add_config_flags(
        sub.add_parser("baseline-acc", help="fresh-model accuracy series")
    )
    return parser


_DATA_ERRORS = (
    DataError,
    IdxFormatError,
    ProfileFormatError,
    StateFormatError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        if args.command == "metrics":
            return cmd_metrics(args.profile, args.baseline, args.out)
        if args.command == "heatmap":
            return cmd_heatmap(args.state, args.out)
        cfg = load_experiment_config(
            args.config, data_dir=args.data_dir, out_dir=args.out, seed=args.seed
        )
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "baseline-acc":
            return cmd_baseline_acc(cfg)
        raise AssertionError(f"unreachable command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SequenceError as exc:
        # A data or I/O failure inside a run is still a data error.
        if isinstance(exc.__cause__, _DATA_ERRORS):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
