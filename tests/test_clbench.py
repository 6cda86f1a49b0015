"""Tests for the continual-learning benchmark harness and metrics."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colanet_cl.clbench import (
    DegradationProfile,
    ProfileFormatError,
    SequenceError,
    compute_report,
    read_baseline_csv,
    read_profile_csv,
    render_summary,
    run_sequence,
    stage_plan,
    summarize,
    truncate_percent,
    write_baseline_csv,
    write_metrics_csv,
    write_profile_csv,
)

import metrics_reference as ref
from conftest import FIXTURES_DIR

NAN = float("nan")

# Hand-computed oracle profile (fractions). Metrics below are worked out on
# paper from the definitions, not from the implementation.
ORACLE = [
    [0.90, NAN, NAN],
    [0.80, 0.85, NAN],
    [0.70, 0.75, 0.80],
]


def oracle_profile() -> DegradationProfile:
    return DegradationProfile(np.array(ORACLE))


# ------------------------------------------------------------- validation


def test_profile_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        DegradationProfile(np.zeros((2, 3)))


def test_profile_rejects_nan_in_lower_triangle():
    a = np.array([[NAN]])
    with pytest.raises(ValueError, match="lower triangle"):
        DegradationProfile(a)


def test_profile_rejects_out_of_range_values():
    a = np.array([[1.5]])
    with pytest.raises(ValueError, match="fractions"):
        DegradationProfile(a)


def test_profile_rejects_populated_upper_triangle():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="upper triangle"):
        DegradationProfile(a)


def test_profile_accessors():
    p = oracle_profile()
    assert p.k == 3
    assert p.a[2, 0] == pytest.approx(0.70)
    assert p.a[0, 0] == pytest.approx(0.90)


# ---------------------------------------------------------- metric formulas


def test_average_accuracy():
    aa = compute_report(oracle_profile()).aa
    assert aa[0] == pytest.approx(0.90)
    assert aa[1] == pytest.approx(0.825)
    assert aa[2] == pytest.approx(0.75)


def test_average_incremental_accuracy():
    aia = compute_report(oracle_profile()).aia
    assert aia[0] == pytest.approx(0.90)
    assert aia[1] == pytest.approx(0.8625)
    assert aia[2] == pytest.approx(0.825)


def test_padded_average_accuracy_divides_by_roster_size():
    padded = compute_report(oracle_profile()).aia_padded
    # Row k's padded accuracy is its sum over the roster size 3; the series
    # is the running mean of those, so k * padded[k-1] - (k-1) * padded[k-2]
    # recovers row k's value.
    assert padded[0] == pytest.approx(0.90 / 3)
    assert 2 * padded[1] - padded[0] == pytest.approx((0.80 + 0.85) / 3)
    assert 3 * padded[2] - 2 * padded[1] == pytest.approx(0.75)
    assert padded[1] == pytest.approx((0.30 + 0.55) / 2)
    assert padded[2] == pytest.approx((0.30 + 0.55 + 0.75) / 3)


def test_per_task_forgetting():
    # FM_k is the mean of the per-task forgetting values f_jk, j < k.
    fm = compute_report(oracle_profile()).fm
    assert fm[0] == 0.0  # no earlier task at k=1
    assert fm[1] == pytest.approx(0.10)  # f_12 alone
    assert fm[2] == pytest.approx(np.mean([0.20, 0.10]))  # f_13, f_23


def test_per_task_forgetting_can_be_negative():
    # Task 1 improves after task 2 training: forgetting is negative,
    # not clamped to zero.
    p = DegradationProfile(np.array([[0.5, NAN], [0.7, 0.8]]))
    assert compute_report(p).fm[1] == pytest.approx(-0.2)


def test_forgetting_measure():
    fm = compute_report(oracle_profile()).fm
    assert fm[0] == 0.0
    assert fm[1] == pytest.approx(0.10)
    assert fm[2] == pytest.approx(0.15)


def test_backward_transfer():
    bwt = compute_report(oracle_profile()).bwt
    assert bwt[0] == 0.0
    assert bwt[1] == pytest.approx(-0.10)
    assert bwt[2] == pytest.approx(-0.15)


def test_forward_transfer():
    fwt = compute_report(oracle_profile(), baseline_acc=[0.5, 0.6, 0.7]).fwt
    assert fwt[0] == 0.0
    assert fwt[1] == pytest.approx(0.25)
    assert fwt[2] == pytest.approx(0.175)
    with pytest.raises(ProfileFormatError, match="has 2 tasks, the profile has 3"):
        compute_report(oracle_profile(), baseline_acc=[0.5, 0.6])


def test_compute_report_series():
    report = compute_report(oracle_profile(), baseline_acc=[0.5, 0.6, 0.7])
    assert report.n == 3
    assert report.aa == pytest.approx([0.90, 0.825, 0.75])
    assert report.aia == pytest.approx([0.90, 0.8625, 0.825])
    assert report.aia_padded == pytest.approx([0.30, 0.425, 1.6 / 3])
    assert report.fm == pytest.approx([0.0, 0.10, 0.15])
    assert report.bwt == pytest.approx([0.0, -0.10, -0.15])
    assert report.fwt == pytest.approx([0.0, 0.25, 0.175])


def test_compute_report_without_baseline_has_no_fwt():
    report = compute_report(oracle_profile())
    assert report.fwt is None


SERIES = ("aa", "aia", "aia_padded", "fm", "bwt", "fwt")
# Accuracies as any fraction, or as a profile CSV stores them (two-decimal
# percentages).
ACCURACY = st.one_of(
    st.floats(0.0, 1.0), st.integers(0, 10000).map(lambda c: c / 10000)
)


@st.composite
def profiles_and_baselines(draw):
    n = draw(st.integers(1, 12))
    a = np.full((n, n), NAN)
    for i in range(n):
        a[i, : i + 1] = draw(st.lists(ACCURACY, min_size=i + 1, max_size=i + 1))
    baseline = draw(
        st.none() | st.lists(ACCURACY, min_size=n, max_size=n + 2)
    )
    return DegradationProfile(a), baseline


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profiles_and_baselines())
def test_compute_report_matches_reference_bytes(case):
    """Every series equals the per-k reference definitions byte for byte."""
    p, baseline = case
    got = compute_report(p, baseline_acc=baseline)
    want = ref.reference_report(p, baseline_acc=baseline)
    assert got.n == want.n == p.k
    for name in SERIES:
        got_series, want_series = getattr(got, name), getattr(want, name)
        if want_series is None:
            assert got_series is None, name
        else:
            assert got_series.dtype == want_series.dtype == np.float64, name
            assert got_series.tobytes() == want_series.tobytes(), name


# ------------------------------------------------------ summary conventions


def test_summarize_conventions():
    summary = summarize(compute_report(oracle_profile()))
    # AA aggregates the plain series.
    assert summary["AA"]["avg"] == pytest.approx(np.mean([0.90, 0.825, 0.75]))
    assert summary["AA"]["max"] == pytest.approx(0.90)
    assert summary["AA"]["std"] == pytest.approx(np.std([0.90, 0.825, 0.75]))
    # The AIA row aggregates the padded variant.
    padded = [0.30, 0.425, 1.6 / 3]
    assert summary["AIA"]["avg"] == pytest.approx(np.mean(padded))
    assert summary["AIA"]["max"] == pytest.approx(max(padded))
    # FM counts the undefined k=1 entry as zero.
    assert summary["FM"]["avg"] == pytest.approx(np.mean([0.0, 0.10, 0.15]))
    # The BWT extreme is the series minimum (worst value).
    assert summary["BWT"]["max"] == pytest.approx(-0.15)


def test_truncate_percent_truncates_toward_zero():
    assert truncate_percent(0.011897) == 1.18
    assert truncate_percent(-0.011897) == -1.18
    assert truncate_percent(0.89999) == 89.99


def test_truncate_percent_snaps_float_noise():
    # 0.031 * 10000 is 309.99999... in binary; the snap keeps it at 3.10.
    assert truncate_percent(0.031) == 3.10
    assert truncate_percent(0.9661) == 96.61


def test_reference_summary_mlp_profile():
    """The bundled 10-task reference profile reproduces its published
    summary cells exactly (this profile has no transcription defects)."""
    profile = read_profile_csv(os.path.join(FIXTURES_DIR, "profile_mlp_10task.csv"))
    with open(os.path.join(FIXTURES_DIR, "expected_summaries.json")) as fh:
        expected = json.load(fh)["profile_mlp_10task"]
    summary = summarize(compute_report(profile))
    for metric, stats in expected.items():
        for stat, cell in stats.items():
            got = summary[metric][stat] * 100.0
            assert got == pytest.approx(cell["derived"], abs=5e-5), (
                f"{metric} {stat}"
            )
            assert truncate_percent(summary[metric][stat]) == pytest.approx(
                cell["reference"]
            ), f"{metric} {stat} truncated"


# ------------------------------------------------------------ sequencing


class FakeAdapter:
    """Scripted adapter that records its call sequence."""

    def __init__(self, fail_on: tuple[str, int] | None = None):
        self.calls: list[tuple] = []
        self.fail_on = fail_on

    def _note(self, stage, detail):
        self.calls.append((stage, detail))
        if self.fail_on == (stage, detail):
            raise RuntimeError("scripted failure")

    def train_task(self, task):
        self._note("train", task.task_id)

    def evaluate_task(self, task):
        self._note("eval", task.task_id)
        return 0.5

    def save(self, path):
        self._note("save", os.path.basename(path))
        with open(path, "wb") as fh:
            fh.write(b"state")

    def load(self, path):
        self._note("load", os.path.basename(path))


def fake_tasks(n):
    from conftest import tiny_task
    import dataclasses

    base = tiny_task()
    return [dataclasses.replace(base, task_id=i) for i in range(1, n + 1)]


def test_run_sequence_call_order_and_eval_count(tmp_path):
    adapter = FakeAdapter()
    tasks = fake_tasks(3)
    profile = run_sequence(adapter, tasks, state_dir=str(tmp_path))
    assert profile.k == 3
    assert adapter.calls == [
        ("train", 1),
        ("save", "state_001.bin"),
        ("eval", 1),
        ("load", "state_001.bin"),
        ("train", 2),
        ("save", "state_002.bin"),
        ("eval", 1),
        ("eval", 2),
        ("load", "state_002.bin"),
        ("train", 3),
        ("save", "state_003.bin"),
        ("eval", 1),
        ("eval", 2),
        ("eval", 3),
    ]
    evals = [c for c in adapter.calls if c[0] == "eval"]
    assert len(evals) == 3 * 4 // 2
    for name in ("state_001.bin", "state_002.bin", "state_003.bin"):
        assert (tmp_path / name).exists()


def test_run_sequence_rejects_empty_stream(tmp_path):
    with pytest.raises(ValueError):
        run_sequence(FakeAdapter(), [], state_dir=str(tmp_path))


def test_run_sequence_wraps_adapter_failures(tmp_path):
    adapter = FakeAdapter(fail_on=("train", 2))
    with pytest.raises(SequenceError) as excinfo:
        run_sequence(adapter, fake_tasks(3), state_dir=str(tmp_path))
    assert str(excinfo.value) == "task 2 (train): scripted failure"
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_run_sequence_wraps_evaluation_failures(tmp_path):
    adapter = FakeAdapter(fail_on=("eval", 2))
    with pytest.raises(SequenceError) as excinfo:
        run_sequence(adapter, fake_tasks(3), state_dir=str(tmp_path))
    assert str(excinfo.value) == "task 2 (evaluate task 2): scripted failure"
    assert isinstance(excinfo.value.__cause__, RuntimeError)


@pytest.mark.parametrize(
    "fail_on, message",
    [
        (("load", "state_001.bin"), "task 2 (load checkpoint 1): scripted failure"),
        (("save", "state_002.bin"), "task 2 (save): scripted failure"),
    ],
)
def test_run_sequence_wraps_checkpoint_failures(tmp_path, fail_on, message):
    adapter = FakeAdapter(fail_on=fail_on)
    with pytest.raises(SequenceError) as excinfo:
        run_sequence(adapter, fake_tasks(3), state_dir=str(tmp_path))
    assert str(excinfo.value) == message
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert adapter.calls[-1] == fail_on


class ScoringAdapter(FakeAdapter):
    """A ``FakeAdapter`` whose second evaluation (task 2's of task 1)
    returns ``accuracy``."""

    def __init__(self, accuracy):
        super().__init__()
        self.accuracy = accuracy

    def evaluate_task(self, task):
        score = super().evaluate_task(task)
        evaluations = sum(stage == "eval" for stage, _ in self.calls)
        return self.accuracy if evaluations == 2 else score


@pytest.mark.parametrize("accuracy", [1.5, None, float("nan")])
def test_run_sequence_rejects_an_accuracy_outside_the_unit_interval(tmp_path, accuracy):
    """An evaluation whose result is not a fraction in [0, 1] fails in its
    own stage, as a ``SequenceError`` naming it, and the run stops there."""
    adapter = ScoringAdapter(accuracy)
    with pytest.raises(SequenceError) as excinfo:
        run_sequence(adapter, fake_tasks(3), state_dir=str(tmp_path))
    assert str(excinfo.value) == (
        f"task 2 (evaluate task 1): accuracy {accuracy!r} is not a fraction in [0, 1]"
    )
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert adapter.calls[-1] == ("eval", 1)
    assert len(adapter.calls) == 7


def nested_loop_order(n):
    """The stage order of a run written as the plain nested loop."""
    order = []
    for k in range(1, n + 1):
        if k > 1:
            order.append((k, "load", k - 1))
        order.append((k, "train", k))
        order.append((k, "save", k))
        for j in range(1, k + 1):
            order.append((k, "evaluate", j))
    return order


class TaskMajorAdapter(FakeAdapter):
    """A ``FakeAdapter`` that asks for the task-major plan and scores task j
    as (10 k + j) / 100, k being the checkpoint it last saved or loaded."""

    evaluates_by_task = True

    def evaluate_task(self, task):
        super().evaluate_task(task)
        held = [detail for stage, detail in self.calls if stage in ("load", "save")][-1]
        return (10 * int(held[len("state_"):-len(".bin")]) + task.task_id) / 100


@pytest.mark.parametrize(
    "n, by_task",
    [(n, False) for n in range(1, 5)] + [(n, True) for n in range(1, 5)],
    ids=[str(n) for n in range(1, 5)] + [f"by_task-{n}" for n in range(1, 5)],
)
def test_stage_plan_is_the_run_order(tmp_path, n, by_task):
    plan = list(stage_plan(n, by_task))
    evaluations = [(k, j) for k, kind, j in plan if kind == "evaluate"]
    assert sorted(evaluations) == [(k, j) for k in range(1, n + 1) for j in range(1, k + 1)]
    # Checkpoint k's evaluations run while k was the last checkpoint saved or loaded.
    held = None
    for k, kind, j in plan:
        held = j if kind in ("load", "save") else held
        assert kind != "evaluate" or held == k
    training = [stage for stage in nested_loop_order(n) if stage[1] != "evaluate"]
    if by_task:
        assert plan[: len(training)] == training
        rest = plan[len(training):]
        loads = [k for k, kind, j in rest if kind == "load"]
        assert len(loads) == n * (n - 1) // 2
        assert all(kind == "evaluate" or j == k for k, kind, j in rest)
        # Each task's evaluations are adjacent, tasks n..1, and a block loads
        # its other checkpoints in ascending order.
        assert [j for _, j in evaluations] == sorted((j for _, j in evaluations), reverse=True)
        for task in range(1, n + 1):
            block = [k for k, j in evaluations if j == task]
            assert block[1:] == sorted(block[1:])
    else:
        assert plan == nested_loop_order(n)
        assert evaluations == [(k, j) for k in range(1, n + 1) for j in range(1, k + 1)]
        for index, (k, kind, j) in enumerate(plan):
            if kind == "load":
                assert j == k - 1
                assert plan[index + 1] == (k, "train", k)
        assert [stage for stage in plan if stage[1] == "load"] == [
            (k, "load", k - 1) for k in range(2, n + 1)
        ]
    # The adapter sees exactly the plan's calls, in the plan's order, and its
    # scores land in the cells the plan names.
    adapter = TaskMajorAdapter() if by_task else FakeAdapter()
    profile = run_sequence(adapter, fake_tasks(n), state_dir=str(tmp_path))
    checkpoint = {"load", "save"}
    assert adapter.calls == [
        ("eval" if kind == "evaluate" else kind,
         f"state_{j:03d}.bin" if kind in checkpoint else j)
        for _, kind, j in plan
    ]
    if by_task:
        for k, j in evaluations:
            assert profile.a[k - 1, j - 1] == (10 * k + j) / 100


# ------------------------------------------------------------- CSV round trip


def test_profile_csv_roundtrip(tmp_path):
    path = str(tmp_path / "profile.csv")
    write_profile_csv(oracle_profile(), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "task_1,task_2,task_3"
    assert lines[1] == "90.00,,"
    assert lines[3] == "70.00,75.00,80.00"
    back = read_profile_csv(path)
    lower = np.tril_indices(3)
    assert back.a[lower] == pytest.approx(oracle_profile().a[lower])


def test_baseline_csv_roundtrip(tmp_path):
    path = tmp_path / "baseline_acc.csv"
    write_baseline_csv([0.9, 0.955, 1.0], str(path))
    assert path.read_text() == "task,accuracy\n1,90.00\n2,95.50\n3,100.00\n"
    assert read_baseline_csv(str(path)) == pytest.approx([0.9, 0.955, 1.0])


def test_read_profile_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("task_1,task_3\n90.00,\n80.00,85.00\n")
    with pytest.raises(ProfileFormatError, match="header"):
        read_profile_csv(str(path))


def test_read_profile_csv_rejects_row_count_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("task_1,task_2\n90.00,\n")
    with pytest.raises(ProfileFormatError, match="data rows"):
        read_profile_csv(str(path))


def test_read_profile_csv_rejects_missing_lower_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("task_1,task_2\n90.00,\n,85.00\n")
    with pytest.raises(ProfileFormatError, match="row 3, col 1"):
        read_profile_csv(str(path))


def test_read_profile_csv_rejects_filled_upper_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("task_1,task_2\n90.00,77.00\n80.00,85.00\n")
    with pytest.raises(ProfileFormatError, match="row 2, col 2"):
        read_profile_csv(str(path))


def test_read_profile_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("task_1,task_2\nninety,\n80.00,85.00\n")
    with pytest.raises(ProfileFormatError, match="not a number"):
        read_profile_csv(str(path))


def test_write_metrics_csv_formats(tmp_path):
    path = str(tmp_path / "metrics.csv")
    write_metrics_csv(compute_report(oracle_profile(), [0.5, 0.6, 0.7]), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "k,AA,AIA,AIA_padded,FM,BWT,FWT"
    # FM/BWT/FWT are undefined at k=1: empty cells, not zeros.
    assert lines[1] == "1,90.00,90.00,30.00,,,"
    assert lines[3].startswith("3,75.00,82.50,53.33,15.00,-15.00,17.50")


def test_write_metrics_csv_omits_fwt_without_baseline(tmp_path):
    path = str(tmp_path / "metrics.csv")
    write_metrics_csv(compute_report(oracle_profile()), path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "k,AA,AIA,AIA_padded,FM,BWT"


def test_render_summary_aligned_text():
    text = render_summary(compute_report(oracle_profile()))
    lines = text.splitlines()
    assert lines[0].split() == ["metric", "avg", "max", "std"]
    aa = next(line for line in lines if line.startswith("AA"))
    assert "82.50" in aa and "90.00" in aa


def test_render_summary_single_task_marks_undefined():
    report = compute_report(DegradationProfile(np.array([[0.9]])))
    text = render_summary(report)
    for name in ("FM", "BWT"):
        row = next(line for line in text.splitlines() if line.startswith(name))
        assert row.count("undefined") == 3


def test_read_profile_csv_rejects_accuracy_outside_percent_range(tmp_path):
    path = tmp_path / "p.csv"
    for bad in ("150.0", "-0.5", "nan", "inf"):
        path.write_text(f"task_1,task_2\n90.00,\n80.00,{bad}\n")
        with pytest.raises(ProfileFormatError, match="row 3, col 2"):
            read_profile_csv(str(path))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("ninety", "not a number"),
        ("nan", "not a percentage"),
        ("inf", "not a percentage"),
        ("-0.5", "not a percentage"),
        ("100.01", "not a percentage"),
    ],
)
def test_profile_and_baseline_readers_share_accuracy_rule(tmp_path, bad, message):
    """Both CSV readers reject the same accuracy cells, naming the row."""
    profile = tmp_path / "p.csv"
    profile.write_text(f"task_1,task_2\n90.00,\n80.00,{bad}\n")
    with pytest.raises(ProfileFormatError, match=f"row 3, col 2: .*{message}"):
        read_profile_csv(str(profile))
    baseline = tmp_path / "b.csv"
    baseline.write_text(f"task,accuracy\n1,90.00\n2,{bad}\n")
    with pytest.raises(ProfileFormatError, match=f"row 3: .*{message}"):
        read_baseline_csv(str(baseline))


@pytest.mark.parametrize("row", ["80.00", "80.00,85.00,1"], ids=["short", "long"])
def test_profile_and_baseline_readers_share_row_width_rule(tmp_path, row):
    """Both CSV readers reject a row with fewer or more cells than the
    header, naming the row."""
    cells = len(row.split(","))
    profile = tmp_path / "p.csv"
    profile.write_text(f"task_1,task_2\n90.00,\n{row}\n")
    with pytest.raises(ProfileFormatError, match=f"row 3: expected 2 cells, got {cells}"):
        read_profile_csv(str(profile))
    baseline = tmp_path / "b.csv"
    baseline.write_text(f"task,accuracy\n1,90.00\n{row.replace('80.00', '2', 1)}\n")
    with pytest.raises(ProfileFormatError, match=f"row 3: expected 2 cells, got {cells}"):
        read_baseline_csv(str(baseline))
