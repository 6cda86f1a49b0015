"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that the glyph generator is deterministic per seed and rejects
bad statistics, that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that a failed run is counted and does not stop the
others, that the number of runs depends only on ``--seconds``, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import glyphs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def test_generator_is_deterministic_per_seed(tmp_path):
    images, labels = glyphs.make_split(300, seed=7, stream=0)
    again, again_labels = glyphs.make_split(300, seed=7, stream=0)
    other, _ = glyphs.make_split(300, seed=8, stream=0)
    assert np.array_equal(images, again) and np.array_equal(labels, again_labels)
    assert not np.array_equal(images, other)
    stats = glyphs.check_glyphs(images, labels)
    assert glyphs.ACTIVE_BAND[0] <= stats["active_fraction"] <= glyphs.ACTIVE_BAND[1]

    glyphs.write_mnist_dir(str(tmp_path / "a"), 120, 40, seed=3)
    glyphs.write_mnist_dir(str(tmp_path / "b"), 120, 40, seed=3)
    names = list(glyphs.IDX_NAMES.values())
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False
    )
    assert sorted(match) == sorted(names) and not mismatch and not errors


def test_generator_check_rejects_bad_statistics():
    images, labels = glyphs.make_split(200, seed=1, stream=0)
    with pytest.raises(glyphs.GlyphError):
        glyphs.check_glyphs(np.zeros_like(images), labels)
    with pytest.raises(glyphs.GlyphError):
        glyphs.check_glyphs(images, np.zeros_like(labels))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS[workload], n_tasks=2, train=300, test=100)
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)
    code = run.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and line["correct"], line
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


def test_failed_runs_are_counted_and_do_not_stop_the_others(monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS["perm10-mlp"], n_tasks=2, train=300, test=100)
    monkeypatch.setitem(run.WORKLOADS, "perm10-mlp", tiny)
    calls = []
    real_check = run.check

    def check(*args):
        calls.append(1)
        return ["injected failure"] if len(calls) == 2 else real_check(*args)

    monkeypatch.setattr(run, "check", check)
    code = run.main(
        ["--workload", "perm10-mlp", "--seed", "1", "--seconds", "0", "--trace", "0"]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not line["correct"]
    assert line["attempted"] == run.MIN_REPS and line["failed"] == 1


def test_run_count_depends_only_on_seconds():
    spec = run.WORKLOADS["perm3-m45-train"]
    assert run.planned_runs(spec, 0, traced=False) == run.MIN_REPS
    assert run.planned_runs(spec, 0, traced=True) == 2 * run.MIN_PAIRS
    assert run.planned_runs(spec, 10 * spec.nominal_s, traced=False) == 10
    assert run.planned_runs(spec, 10 * spec.nominal_s, traced=True) == 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "perm10-mlp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
