"""Sequential-task orchestration and continual-learning metrics.

A sequential run over tasks 1..n produces a *degradation profile*: a
lower-triangular matrix ``a[k][j]`` holding accuracy on task j's test set
after training through task k (j <= k). From a profile the standard
continual-learning metrics are computed:

* ``AA_k``   — average accuracy: mean of row k over tasks 1..k.
* ``AIA_k``  — average incremental accuracy: running mean of AA_1..AA_k.
* ``f_jk``   — per-task forgetting: best past accuracy on task j minus the
  current accuracy (not clamped, so a task that improved contributes a
  negative value).
* ``FM_k``   — forgetting measure: mean of f_jk over previous tasks.
* ``BWT_k``  — backward transfer: mean of (a[k][j] - a[j][j]); negative
  values indicate forgetting.
* ``FWT_k``  — forward transfer: mean of (a[j][j] - baseline_j) for
  j = 2..k, where baseline_j is a fresh model trained on task j alone.

Accuracies are stored as fractions in [0, 1] and rendered as percentages
with two decimals in CSV/text reports.

Aggregate summaries (the avg/max/std rows) follow the conventions of the
bundled reference summaries, which were verified cell-by-cell against the
reference degradation profiles:

* The k=1 entries of FM/BWT/FWT, where the metric is undefined, enter the
  aggregated series as zero.
* ``std`` is the population standard deviation.
* The ``max`` row reports the series extreme: the maximum for AA/AIA/FM/FWT
  and the minimum (strongest backward influence) for BWT.
* The summary's AIA row aggregates the *padded* variant
  (``MetricsReport.aia_padded``): the running mean of row-k sums divided
  by the task count n, so tasks not yet trained count as zero accuracy;
  the plain running-mean-of-AA variant is also computed and reported in
  the metrics CSV.
* Rendered values are truncated (not rounded) to two decimals.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import TaskSpec
from .statefile import replacing

# The metrics that compare row k with earlier rows (FWT: with the baseline)
# are undefined at k=1: reports store 0.0 there, the metrics CSV leaves the
# cell empty, and a one-task summary prints "undefined".
UNDEFINED_AT_K1 = ("FM", "BWT", "FWT")


class ProfileFormatError(Exception):
    """Raised when a profile or baseline CSV fails to parse (the message
    carries row/col), or when a baseline is shorter than its profile."""


class SequenceError(Exception):
    """Raised when a model adapter fails mid-sequence; the message names the
    1-based task index and the stage, the cause is chained."""


@dataclass(frozen=True)
class DegradationProfile:
    """Lower-triangular accuracy record of a sequential run.

    Attributes:
        a: float64 matrix of shape (k, k); ``a[i, j]`` (0-based) holds
            accuracy on task j+1 after training through task i+1, as a
            fraction in [0, 1]; the upper triangle is NaN.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("profile matrix must be square")
        lower = np.tril_indices(a.shape[0])
        vals = a[lower]
        if np.isnan(vals).any():
            raise ValueError("profile lower triangle must be fully populated")
        if (vals < 0).any() or (vals > 1).any():
            raise ValueError("accuracies must be fractions in [0, 1]")
        upper = np.triu_indices(a.shape[0], k=1)
        if a[upper].size and not np.isnan(a[upper]).all():
            raise ValueError("profile upper triangle must be absent (NaN)")
        object.__setattr__(self, "a", a)

    @property
    def k(self) -> int:
        """Number of tasks recorded."""
        return self.a.shape[0]


@dataclass(frozen=True)
class MetricsReport:
    """All metric series computed from one degradation profile.

    Series are indexed by k = 1..n (position 0 is k=1). The k=1 entries of
    the ``UNDEFINED_AT_K1`` series are stored as 0.0. ``fwt`` is None unless
    a baseline accuracy series was supplied.
    """

    n: int
    aa: np.ndarray
    aia: np.ndarray
    aia_padded: np.ndarray
    fm: np.ndarray
    bwt: np.ndarray
    fwt: np.ndarray | None = None


def compute_report(
    p: DegradationProfile, baseline_acc: np.ndarray | None = None
) -> MetricsReport:
    """Compute every metric series of a profile, as the module docstring
    defines them.

    Args:
        p: Degradation profile.
        baseline_acc: Optional fresh-model accuracy series enabling FWT;
            entry j-1 is the accuracy on task j.

    Returns:
        MetricsReport with series indexed k = 1..n.

    Raises:
        ProfileFormatError: ``baseline_acc`` covers fewer tasks than ``p``.
    """
    a, n = p.a, p.k
    diag = a.diagonal()
    # best[i, j]: best accuracy on task j+1 through row i+1; fmax skips the
    # NaN upper triangle.
    best = np.fmax.accumulate(a, axis=0)
    aa = np.array([a[i, : i + 1].mean() for i in range(n)])
    padded = np.array([a[i, : i + 1].sum() / n for i in range(n)])
    # The UNDEFINED_AT_K1 series start at k=2 and keep 0.0 at k=1.
    fm, bwt = np.zeros(n), np.zeros(n)
    for i in range(1, n):
        fm[i] = (best[i - 1, :i] - a[i, :i]).mean()
        bwt[i] = (a[i, :i] - diag[:i]).mean()
    fwt = None
    if baseline_acc is not None:
        baseline_acc = np.asarray(baseline_acc, dtype=np.float64)
        if len(baseline_acc) < n:
            raise ProfileFormatError(
                f"baseline accuracy series has {len(baseline_acc)} tasks, "
                f"the profile has {n}"
            )
        fwt = np.zeros(n)
        for i in range(1, n):
            fwt[i] = (diag[1 : i + 1] - baseline_acc[1 : i + 1]).mean()
    return MetricsReport(
        n=n,
        aa=aa,
        aia=np.array([aa[: i + 1].mean() for i in range(n)]),
        aia_padded=np.array([padded[: i + 1].mean() for i in range(n)]),
        fm=fm,
        bwt=bwt,
        fwt=fwt,
    )


def summarize(report: MetricsReport) -> dict[str, dict[str, float]]:
    """Aggregate each metric series into avg/max/std rows.

    Follows the reference-summary conventions documented in the module
    docstring: undefined k=1 entries count as zero, std is the population
    standard deviation, the AIA row aggregates the padded variant, and the
    BWT extreme is the series minimum.

    Args:
        report: Metric series from ``compute_report``.

    Returns:
        Mapping metric name -> {"avg", "max", "std"} in fractions. Includes
        an "FWT" entry when the report carries one.
    """

    def rows(series: np.ndarray, extreme=np.max) -> dict[str, float]:
        return {
            "avg": float(series.mean()),
            "max": float(extreme(series)),
            "std": float(series.std()),
        }

    summary = {
        "AA": rows(report.aa),
        "AIA": rows(report.aia_padded),
        "FM": rows(report.fm),
        "BWT": rows(report.bwt, extreme=np.min),
    }
    if report.fwt is not None:
        summary["FWT"] = rows(report.fwt)
    return summary


def truncate_percent(fraction: float) -> float:
    """Render a fraction as a percentage truncated to two decimals.

    Truncation is toward zero, matching the reference summaries (e.g. a
    computed -1.1897 renders as -1.18). Values within 1e-6 of an exact
    two-decimal boundary are snapped to it first so binary floating-point
    noise cannot flip the truncation.
    """
    scaled = fraction * 100.0 * 100.0
    snapped = round(scaled)
    if abs(scaled - snapped) < 1e-6:
        scaled = snapped
    return math.trunc(scaled) / 100.0


# ---------------------------------------------------------------------------
# Sequential orchestration
# ---------------------------------------------------------------------------


def stage_plan(n: int, by_task: bool = False) -> Iterator[tuple[int, str, int]]:
    """Yield an n-task run's stages in order as (task k, kind, j): for k = 1..n,
    ``load`` checkpoint k-1 (k > 1), ``train`` task k, ``save`` checkpoint k,
    then ``evaluate`` task j for j = 1..k. With ``by_task`` the evaluations
    follow the training, for j = n..1 from the checkpoint held, then loading
    the rest of [j, n] in ascending order: n(n-1)/2 evaluation loads."""
    for k in range(1, n + 1):
        yield from [(k, "load", k - 1)] if k > 1 else []
        yield from [(k, "train", k), (k, "save", k)]
        yield from ((k, "evaluate", j) for j in range(1, k + 1) if not by_task)
    held = n
    for j in range(n, 0, -1) if by_task else []:
        for k in [held, *(c for c in range(j, n + 1) if c != held)]:
            yield from [(k, "load", k)] * (k != held) + [(k, "evaluate", j)]
            held = k


def run_sequence(adapter, tasks: list[TaskSpec], state_dir: str) -> DegradationProfile:
    """Train sequentially and evaluate on every task seen so far.

    Runs ``stage_plan(n, by_task)`` in order, ``by_task`` if the adapter's
    class sets ``evaluates_by_task``. For k = 1..n: load checkpoint k-1
    (k > 1), train one epoch on task k, save checkpoint k, then evaluate
    tasks 1..k to fill profile row k: n(n+1)/2 evaluations in all, one
    per cell in both plan orders.

    Args:
        adapter: Model adapter exposing ``train_task(task)``,
            ``evaluate_task(task) -> float``, ``save(path)`` and
            ``load(path)``.
        tasks: The task stream (at least one task).
        state_dir: Directory for the per-iteration checkpoints, created if
            missing; they are left in it.

    Returns:
        DegradationProfile of shape n x n.

    Raises:
        SequenceError: A stage failed, or gave an accuracy outside [0, 1]; names the stage.
    """
    if not tasks:
        raise ValueError("run_sequence requires at least one task")
    os.makedirs(state_dir, exist_ok=True)
    n = len(tasks)
    a = np.full((n, n), np.nan)

    def state_path(iteration: int) -> str:
        return os.path.join(state_dir, f"state_{iteration:03d}.bin")

    for k, kind, j in stage_plan(n, getattr(adapter, "evaluates_by_task", False)):
        try:
            if kind in ("load", "save"):
                result = getattr(adapter, kind)(state_path(j))
            else:
                result = getattr(adapter, f"{kind}_task")(tasks[j - 1])
            if kind == "evaluate":
                a[k - 1, j - 1] = result
                if not 0.0 <= a[k - 1, j - 1] <= 1.0:
                    raise ValueError(f"accuracy {result!r} is not a fraction in [0, 1]")
        except Exception as exc:  # noqa: BLE001 - context is re-raised
            stage = {"evaluate": f"evaluate task {j}", "load": f"load checkpoint {j}"}
            raise SequenceError(f"task {k} ({stage.get(kind, kind)}): {exc}") from exc
    return DegradationProfile(a)


# ---------------------------------------------------------------------------
# CSV / text reports
# ---------------------------------------------------------------------------


def percent_cell(fraction: float) -> str:
    """A fraction as a table cell: percent with two decimals."""
    return f"{fraction * 100.0:.2f}"


def write_table(path: str, rows) -> str:
    """Write rows of cells, header first, as a UTF-8 comma-separated table
    through ``replacing``; a None cell is written empty. Returns the text."""
    text = "".join(
        ",".join("" if cell is None else str(cell) for cell in row) + "\n" for row in rows
    )
    with replacing(path) as f:
        f.write(text)
    return text


def read_table(path: str, header) -> list[list[str]]:
    """Read a table ``write_table`` wrote: its non-blank lines split into
    stripped cells, the header row first.

    Checks, in this order, that the file is UTF-8 text, that its first row
    equals ``header(width)`` for its own width, and that every row has that
    width. Blank lines are skipped and not counted as rows.

    Raises:
        ProfileFormatError: A failed check, naming the file and the row.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"{path}: not UTF-8 text: {exc}") from None
    table = [[cell.strip() for cell in line.split(",")] for line in lines or [""]]
    width = len(table[0])
    if table[0] != header(width):
        raise ProfileFormatError(
            f"{path}: row 1: header must be {','.join(header(width))}, got {table[0]}"
        )
    for row, cells in enumerate(table[1:], start=2):
        if len(cells) != width:
            raise ProfileFormatError(
                f"{path}: row {row}: expected {width} cells, got {len(cells)}"
            )
    return table


def write_profile_csv(p: DegradationProfile, path: str) -> None:
    """Write a profile as a table: header task_1..task_n, then row k's
    percentages through task k and empty cells above the diagonal."""
    n = p.k
    rows = [[percent_cell(p.a[i, j]) if j <= i else None for j in range(n)]
            for i in range(n)]
    write_table(path, [[f"task_{j}" for j in range(1, n + 1)], *rows])


def read_profile_csv(path: str) -> DegradationProfile:
    """Parse a profile CSV written by ``write_profile_csv``.

    Values are percentages; blank cells form the upper triangle.

    Returns:
        DegradationProfile with fractions.

    Raises:
        ProfileFormatError: Structural problems, with row/column context.
    """
    header, *rows = read_table(path, lambda n: [f"task_{j}" for j in range(1, n + 1)])
    n = len(header)
    if len(rows) != n:
        raise ProfileFormatError(
            f"{path}: expected {n} data rows to match {n} header columns, got {len(rows)}"
        )
    a = np.full((n, n), np.nan)
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            where = f"{path}: row {i + 2}, col {j + 1}"
            if j > i:
                if cell != "":
                    raise ProfileFormatError(f"{where}: upper-triangle cell must be empty")
            elif cell == "":
                raise ProfileFormatError(f"{where}: missing lower-triangle value")
            else:
                a[i, j] = _parse_accuracy(cell, where)
    return DegradationProfile(a)


def write_baseline_csv(accuracies: list[float], path: str) -> None:
    """Write a baseline-accuracy table: header task,accuracy, then one row
    per task from 1 with its accuracy in percent."""
    rows = [[task, percent_cell(acc)] for task, acc in enumerate(accuracies, start=1)]
    write_table(path, [["task", "accuracy"], *rows])


def read_baseline_csv(path: str) -> np.ndarray:
    """Parse a baseline-accuracy CSV (task, accuracy in percent) as fractions.

    This is the fresh-model series ``colanet-cl baseline-acc`` writes with
    ``write_baseline_csv`` and ``compute_report`` takes for forward transfer.

    Raises:
        ProfileFormatError: Malformed header or cells, tasks not consecutive
            from 1, or a bad accuracy cell, with row context.
    """
    _, *rows = read_table(path, lambda width: ["task", "accuracy"])
    values = []
    for row, (task, accuracy) in enumerate(rows, start=2):
        where = f"{path}: row {row}"
        try:
            task_id = int(task)
        except ValueError:
            raise ProfileFormatError(f"{where}: task not numeric: {task!r}") from None
        if task_id != row - 1:
            raise ProfileFormatError(f"{where}: tasks must be consecutive from 1")
        values.append(_parse_accuracy(accuracy, where))
    return np.asarray(values, dtype=np.float64)


def _parse_accuracy(cell: str, where: str) -> float:
    """One accuracy cell in percent as a fraction; ``where`` prefixes errors.

    Raises:
        ProfileFormatError: Not a number, NaN, or outside [0, 100].
    """
    try:
        value = float(cell)
    except ValueError:
        raise ProfileFormatError(f"{where}: not a number: {cell!r}") from None
    if not 0.0 <= value <= 100.0:
        raise ProfileFormatError(
            f"{where}: accuracy {cell!r} is not a percentage in [0, 100]"
        )
    return value / 100.0


def metrics_table(report: MetricsReport) -> list[list]:
    """The metric series as table rows, header first, in percent.

    Columns: k, AA, AIA, AIA_padded, FM, BWT and FWT when available. The
    k=1 cells of the ``UNDEFINED_AT_K1`` metrics are None (written empty).
    """
    series = {
        "AA": report.aa,
        "AIA": report.aia,
        "AIA_padded": report.aia_padded,
        "FM": report.fm,
        "BWT": report.bwt,
    }
    if report.fwt is not None:
        series["FWT"] = report.fwt
    return [["k", *series]] + [
        [k] + [None if k == 1 and name in UNDEFINED_AT_K1 else percent_cell(values[k - 1])
               for name, values in series.items()]
        for k in range(1, report.n + 1)
    ]


def write_metrics_csv(report: MetricsReport, path: str) -> None:
    """Write ``metrics_table(report)`` to ``path``."""
    write_table(path, metrics_table(report))


def render_summary(report: MetricsReport) -> str:
    """Render the avg/max/std summary as aligned plain text.

    Values are percentages truncated to two decimals. For a single-task
    profile the ``UNDEFINED_AT_K1`` rows read ``undefined``.
    """
    lines = [f"{'metric':<8}{'avg':>10}{'max':>10}{'std':>10}"]
    for name, row in summarize(report).items():
        if report.n == 1 and name in UNDEFINED_AT_K1:
            cells = f"{'undefined':>10}" * 3
        else:
            cells = "".join(
                f"{truncate_percent(row[stat]):>10.2f}" for stat in ("avg", "max", "std")
            )
        lines.append(f"{name:<8}{cells}")
    return "\n".join(lines) + "\n"
