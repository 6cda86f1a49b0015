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
    tabulate (alpha, ns, AA, FM) per point in ``sweep.csv``, printing the same
    rows.
``heatmap``
    Render the receptive fields of a saved network state as a PPM image.
``baseline-acc``
    Train a fresh model per task (one epoch, that task only) and record the
    accuracy series used as the forward-transfer baseline.

Config files are flat ``key = value`` text; ``#`` starts a comment. Keys not
recognized are rejected so typos cannot silently change an experiment.
``data_dir`` is required, and ``alpha_grid``/``ns_grid`` are read by
``sweep`` only; every config rule is checked before anything is written.
Every run writes ``manifest.json`` echoing the resolved configuration, the
seeds, a content hash of each input data file (git blob SHA-1), and the
Python, NumPy and BLAS versions, so two runs with identical manifests
produce identical profile CSVs.

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
import platform
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
    metrics_table,
    read_baseline_csv,
    read_profile_csv,
    render_summary,
    run_sequence,
    write_baseline_csv,
    write_metrics_csv,
    write_profile_csv,
    write_table,
)
from .colanet import ColaNetAdapter, ColaNetConfig, export_heatmaps, load_state
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
from .statefile import StateFormatError, replacing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

MODELS = ("colanet", "mlp")
SCENARIOS = ("permuted", "two-task-forward", "two-task-reverse")


class UsageError(Exception):
    """Bad arguments or config contents; maps to exit code 1."""


def _finite_float(raw: str) -> float:
    """A float value; NaN and infinities would make the manifest invalid JSON."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


def _parse_bool_none(raw: str) -> float | None:
    """An ``ns`` value; ``none``, ``off`` and ``inf`` all mean off (None)."""
    if raw.lower() in ("none", "off") or float(raw) == math.inf:
        return None
    return _finite_float(raw)


def _listed(parse):
    """The parser of a comma-separated list of ``parse`` values."""
    return lambda raw: tuple(parse(s.strip()) for s in raw.split(",") if s.strip())


def _key(default, parse, network: bool = False):
    """A config key: its default, its text parser, and whether ColaNetConfig takes it."""
    return dataclasses.field(default=default, metadata={"parse": parse, "network": network})


@dataclass
class ExperimentConfig:
    """One experiment, fully resolved; each field declares one config key.

    Every field is echoed into the run manifest for provenance, so a field
    the chosen model does not read must keep its default: the colanet keys
    and grids for ``mlp``, ``batch_size`` for ``colanet``. The rules on
    ``data_dir`` and the grids are checked on loading and in ``main``.
    """

    model: str = _key("colanet", str)
    scenario: str = _key("permuted", str)
    n_tasks: int = _key(3, int)
    alpha: float = _key(ColaNetConfig.alpha, _finite_float, network=True)
    ns: float | None = _key(None, _parse_bool_none, network=True)
    microcolumns: int = _key(ColaNetConfig.microcolumns, int, network=True)
    eta_plus: float = _key(ColaNetConfig.eta_plus, _finite_float, network=True)
    eta_minus: float = _key(ColaNetConfig.eta_minus, _finite_float, network=True)
    init_high: float = _key(ColaNetConfig.init_high, _finite_float, network=True)
    u_const: float = _key(ColaNetConfig.u_const, _finite_float, network=True)
    leak: float = _key(ColaNetConfig.leak, _finite_float, network=True)
    batch_size: int = _key(32, int)
    train_count: int | None = _key(
        None, lambda raw: None if raw.lower() == "none" else int(raw))
    seeds: tuple[int, ...] = _key((1,), _listed(int))
    data_dir: str | None = _key(None, str)
    out_dir: str = _key("out", str)
    alpha_grid: tuple[float, ...] = _key((), _listed(_finite_float))
    ns_grid: tuple[float | None, ...] = _key((), _listed(_parse_bool_none))

    def __post_init__(self):
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
        if not all(0 <= seed < 2**64 for seed in self.seeds):
            raise UsageError(f"seeds must be in [0, 2**64), got {list(self.seeds)}")
        for key in ("seeds", "alpha_grid", "ns_grid"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise UsageError(f"{key} lists a value more than once: {list(values)}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.train_count is not None and self.train_count < 1:
            raise UsageError(f"train_count must be >= 1, got {self.train_count}")
        if self.train_count is not None and self.scenario != "permuted":
            raise UsageError("train_count applies to the permuted scenario only")
        if not self.out_dir:
            raise UsageError("out_dir must not be empty")
        other, unread = "mlp", ("batch_size",)
        if self.model == "mlp":
            other, unread = "colanet", NETWORK_KEYS + ("alpha_grid", "ns_grid")
        changed = [f.name for f in dataclasses.fields(self)
                   if f.name in unread and getattr(self, f.name) != f.default]
        if changed:
            raise UsageError(f"the {self.model} model does not read {', '.join(changed)}; "
                             f"leave these {other} keys at their defaults")


_KEY_PARSERS = {f.name: f.metadata["parse"] for f in dataclasses.fields(ExperimentConfig)}
#: The ExperimentConfig fields a colanet run copies into its ColaNetConfig.
NETWORK_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                     if f.metadata["network"])


# ---------------------------------------------------------------------------
# Config-file parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Parse flat ``key = value`` config text into typed values.

    ``#`` starts a comment (full-line or trailing); blank lines are ignored.

    Raises:
        UsageError: Unknown or repeated key, missing ``=``, or an
            unparsable value (NaN or an infinity among them), with the
            offending line number (a repeated key names both lines).
    """
    values: dict = {}
    set_on: dict[str, int] = {}
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
        if key in set_on:
            raise UsageError(
                f"{path}:{lineno}: config key {key!r} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
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
    """Read a config file and apply command-line overrides; ``data_dir`` is required."""
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
    cfg = ExperimentConfig(**values)
    if cfg.data_dir is None:
        raise UsageError("data_dir is required (config key or --data-dir)")
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
    if cfg.scenario == "permuted":
        return make_permuted_stream(
            cfg.n_tasks, seed, cfg.data_dir, train_count=cfg.train_count
        )
    pair = [make_mnist_truncated(cfg.data_dir), make_emnist_letters(cfg.data_dir)]
    if cfg.scenario == "two-task-reverse":
        pair.reverse()
    return [dataclasses.replace(task, task_id=t) for t, task in enumerate(pair, start=1)]


def colanet_config(cfg: ExperimentConfig, seed: int) -> ColaNetConfig:
    """The network config of one colanet run; raises ValueError if invalid."""
    return ColaNetConfig(**{key: getattr(cfg, key) for key in NETWORK_KEYS}, seed=seed)


def build_adapter(cfg: ExperimentConfig, seed: int):
    """Construct the model adapter for one run; UsageError if it cannot be
    allocated."""
    if cfg.model == "mlp":
        return MlpAdapter(seed, batch_size=cfg.batch_size)
    try:
        return ColaNetAdapter(colanet_config(cfg, seed))
    except MemoryError:
        raise UsageError(f"{cfg.microcolumns} microcolumns do not fit in memory") from None


def _git_blob_sha1(path: str) -> str:
    """Content hash of a file, computed the way git hashes blobs, 1 MiB at a time."""
    chunk = memoryview(bytearray(1 << 20))
    with open(path, "rb") as f:
        h = hashlib.sha1(b"blob %d\x00" % os.fstat(f.fileno()).st_size)
        while size := f.readinto(chunk):
            h.update(chunk[:size])
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


def runtime_versions() -> dict[str, str]:
    """The Python, NumPy and BLAS (as NumPy was built with) behind a run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def write_manifest(cfg: ExperimentConfig, command: str) -> None:
    """Write ``cfg.out_dir``/manifest.json: config echo, seeds, input hashes,
    runtime versions."""
    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "seeds": cfg.seeds,
        "input_hashes": input_hashes(cfg),
        "versions": runtime_versions(),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "manifest.json")
    with replacing(path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


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
    with replacing(summary_path) as f:
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

    The points are ``grid_points(cfg)``. Point NNN is one ``run_unit``
    whose files land in ``point_NNN/`` under the output directory. Each
    point's AA and FM cells are the last row of its metrics table;
    ``sweep.csv`` holds one row per point, and the same rows are printed.
    """
    seed = cfg.seeds[0]
    write_manifest(cfg, "sweep")
    rows = [["alpha", "ns", "AA", "FM"]]
    for index, point in enumerate(grid_points(cfg)):
        report = run_unit(point, seed, os.path.join(cfg.out_dir, f"point_{index:03d}"))
        header, *_, last = metrics_table(report)
        final = dict(zip(header, last))
        ns = None if point.ns is None else f"{point.ns:g}"
        rows.append([f"{point.alpha:g}", ns, final["AA"], final["FM"]])
    print(write_table(os.path.join(cfg.out_dir, "sweep.csv"), rows), end="")
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
    write_baseline_csv(accuracies, path)
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


_CONFIG_COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "baseline-acc": cmd_baseline_acc}

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
        if args.command in ("metrics", "heatmap") and args.out == "":
            raise UsageError("--out must not be empty")
        if args.command == "metrics":
            return cmd_metrics(args.profile, args.baseline, args.out)
        if args.command == "heatmap":
            return cmd_heatmap(args.state, args.out)
        cfg = load_experiment_config(
            args.config, data_dir=args.data_dir, out_dir=args.out, seed=args.seed
        )
        grids = [key for key in ("alpha_grid", "ns_grid") if getattr(cfg, key)]
        if args.command == "sweep" and not grids:
            raise UsageError("sweep requires alpha_grid and/or ns_grid")
        if args.command != "sweep" and grids:
            raise UsageError(f"{args.command} does not read {', '.join(grids)}; sweep does")
        return _CONFIG_COMMANDS[args.command](cfg)
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
