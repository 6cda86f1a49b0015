"""Compute continual-learning metrics from a hand-written degradation profile.

Runs without any dataset. A degradation profile is a lower-triangular
matrix ``a[k][j]``: accuracy on task j measured after training through
task k. Everything else — average accuracy, average incremental accuracy,
forgetting, backward/forward transfer — is derived from it.

Run:
    python3 demos/quickstart_metrics.py
"""

from __future__ import annotations

import numpy as np

from colanet_cl.clbench import DegradationProfile, compute_report, render_summary

NAN = float("nan")


def main() -> None:
    # A fictional 4-task run: task 1 starts strong and erodes as tasks
    # 2-4 are learned, the classic catastrophic-forgetting shape.
    profile = DegradationProfile(
        a=np.array(
            [
                [0.96, NAN, NAN, NAN],
                [0.81, 0.94, NAN, NAN],
                [0.65, 0.80, 0.93, NAN],
                [0.52, 0.66, 0.79, 0.92],
            ]
        )
    )

    print("Degradation profile (rows: after task k; columns: on task j):")
    for row in profile.a:
        print("   ", "  ".join("  -  " if np.isnan(v) else f"{v:.3f}" for v in row))
    print()

    # Every metric series, indexed by k - 1.
    report = compute_report(profile)
    for k in range(1, report.n + 1):
        print(
            f"after task {k}:  AA={report.aa[k - 1] * 100:6.2f}%"
            f"  AIA={report.aia[k - 1] * 100:6.2f}%"
            f"  FM={report.fm[k - 1] * 100:6.2f}pt"
            f"  BWT={report.bwt[k - 1] * 100:+6.2f}pt"
        )
    print()

    # The aggregate summary used in reports: avg / max / std per metric.
    # Note the AIA row follows the reference-summary convention of padding
    # each row-mean with zeros for not-yet-seen tasks, so it reads much
    # lower than the per-k values above; see the clbench module docstring.
    print(render_summary(report))


if __name__ == "__main__":
    main()
