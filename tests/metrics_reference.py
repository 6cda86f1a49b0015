"""Reference continual-learning metrics: the oracle for ``compute_report``.

Each metric is written as a scalar function of ``(profile, k)`` straight
from its definition in the ``clbench`` module docstring, and
``reference_report`` loops them over k = 1..n. ``clbench.compute_report``
derives every series in one pass and must match these byte for byte.
"""

from __future__ import annotations

import numpy as np

from colanet_cl.clbench import DegradationProfile, MetricsReport


def average_accuracy(p: DegradationProfile, k: int) -> float:
    """AA_k: mean of row k over tasks 1..k."""
    return float(p.a[k - 1, :k].mean())


def average_incremental_accuracy(p: DegradationProfile, k: int) -> float:
    """AIA_k: running mean of AA_1..AA_k."""
    return float(np.mean([average_accuracy(p, i) for i in range(1, k + 1)]))


def average_accuracy_padded(p: DegradationProfile, k: int) -> float:
    """Row-k accuracy summed and divided by the task count n, not by k, so
    tasks not yet trained count as zero accuracy."""
    return float(p.a[k - 1, :k].sum() / p.k)


def average_incremental_accuracy_padded(p: DegradationProfile, k: int) -> float:
    """Running mean of the padded average accuracy over iterations 1..k."""
    return float(np.mean([average_accuracy_padded(p, i) for i in range(1, k + 1)]))


def per_task_forgetting(p: DegradationProfile, k: int) -> np.ndarray:
    """f_jk = max_{i < k} a[i][j] - a[k][j] for j = 1..k-1 (empty at k=1).

    Not clamped at zero, so a task whose accuracy improved contributes a
    negative value.
    """
    if k == 1:
        return np.empty(0, dtype=np.float64)
    past = p.a[: k - 1, : k - 1]
    cols = np.arange(k - 1)
    best_past = np.array([np.nanmax(past[j:, j]) for j in cols])
    return best_past - p.a[k - 1, : k - 1]


def forgetting_measure(p: DegradationProfile, k: int) -> float:
    """FM_k: mean per-task forgetting over tasks < k; 0.0 at k=1."""
    values = per_task_forgetting(p, k)
    if values.size == 0:
        return 0.0
    return float(values.mean())


def backward_transfer(p: DegradationProfile, k: int) -> float:
    """BWT_k: mean of (a[k][j] - a[j][j]) over j < k; 0.0 at k=1."""
    if k == 1:
        return 0.0
    j = np.arange(k - 1)
    return float((p.a[k - 1, : k - 1] - p.a[j, j]).mean())


def forward_transfer(p: DegradationProfile, baseline_acc: np.ndarray, k: int) -> float:
    """FWT_k: mean over j = 2..k of (a[j][j] - baseline_j); 0.0 at k=1."""
    baseline_acc = np.asarray(baseline_acc, dtype=np.float64)
    if k == 1:
        return 0.0
    j = np.arange(1, k)
    return float((p.a[j, j] - baseline_acc[1:k]).mean())


def reference_report(
    p: DegradationProfile, baseline_acc: np.ndarray | None = None
) -> MetricsReport:
    """Every series, one scalar call per k; the baseline must cover p."""
    ks = range(1, p.k + 1)
    fwt = None
    if baseline_acc is not None:
        baseline_acc = np.asarray(baseline_acc, dtype=np.float64)
        assert len(baseline_acc) >= p.k
        fwt = np.array([forward_transfer(p, baseline_acc, k) for k in ks])
    return MetricsReport(
        n=p.k,
        aa=np.array([average_accuracy(p, k) for k in ks]),
        aia=np.array([average_incremental_accuracy(p, k) for k in ks]),
        aia_padded=np.array([average_incremental_accuracy_padded(p, k) for k in ks]),
        fm=np.array([forgetting_measure(p, k) for k in ks]),
        bwt=np.array([backward_transfer(p, k) for k in ks]),
        fwt=fwt,
    )
