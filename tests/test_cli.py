"""Tests for the experiment-runner command line."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings

from colanet_cl import cli
from colanet_cl.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    build_tasks,
    load_experiment_config,
    main,
    parse_config_text,
)
from colanet_cl.clbench import ProfileFormatError, read_baseline_csv, read_profile_csv
from colanet_cl.colanet import ColaNetConfig, Network, save_state
from colanet_cl.dataset import EMNIST_FILES, MNIST_FILES

from conftest import FIXTURES_DIR, bit_flips, flip

MLP_PROFILE = os.path.join(FIXTURES_DIR, "profile_mlp_10task.csv")


# ------------------------------------------------------------ config parsing


def test_parse_config_text_full():
    values = parse_config_text(
        """
        # experiment
        model = colanet
        scenario = permuted   # trailing comment
        n_tasks = 3
        alpha = 0.5
        ns = 0
        microcolumns = 45
        seeds = 1, 2, 3
        train_count = none
        alpha_grid = 0.1, 0.2
        ns_grid = none, 0, 100
        """
    )
    assert values["model"] == "colanet"
    assert values["scenario"] == "permuted"
    assert values["n_tasks"] == 3
    assert values["alpha"] == 0.5
    assert values["ns"] == 0.0
    assert values["microcolumns"] == 45
    assert values["seeds"] == (1, 2, 3)
    assert values["train_count"] is None
    assert values["alpha_grid"] == (0.1, 0.2)
    assert values["ns_grid"] == (None, 0.0, 100.0)


def test_parse_config_ns_off_means_disabled():
    assert parse_config_text("ns = off")["ns"] is None
    assert parse_config_text("ns = none")["ns"] is None


def test_parse_config_rejects_unknown_key_with_line():
    with pytest.raises(UsageError, match=r"<config>:2: unknown config key 'alhpa'"):
        parse_config_text("model = mlp\nalhpa = 0.5\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(UsageError, match=r":1: expected 'key = value'"):
        parse_config_text("just words\n")


def test_parse_config_rejects_bad_value_with_line():
    with pytest.raises(UsageError, match=r":3: bad value for 'n_tasks'"):
        parse_config_text("model = mlp\n\nn_tasks = many\n")


CONFIG_BYTES = b"""# experiment
model = colanet
scenario = permuted
n_tasks = 3
alpha = 0.5
ns = 0
microcolumns = 45
train_count = 200
seeds = 1, 2
alpha_grid = 0.1, 0.2
ns_grid = none, 0, 100
data_dir = data
"""


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bit_flips(len(CONFIG_BYTES), header_len=len(CONFIG_BYTES)))
@example(bits=[7])  # "#" becomes 0xA3, not UTF-8
def test_config_bit_flips_load_cleanly_or_fail_typed(tmp_path_factory, bits):
    """A damaged config file parses or exits 1; it never raises otherwise."""
    path = tmp_path_factory.getbasetemp() / "flipped.cfg"
    path.write_bytes(flip(CONFIG_BYTES, bits))
    try:
        load_experiment_config(str(path))
    except UsageError:
        pass


def test_experiment_config_validation():
    with pytest.raises(UsageError, match="model"):
        ExperimentConfig(model="transformer")
    with pytest.raises(UsageError, match="scenario"):
        ExperimentConfig(scenario="shuffled")
    with pytest.raises(UsageError, match="n_tasks"):
        ExperimentConfig(n_tasks=0)
    with pytest.raises(UsageError, match="seeds"):
        ExperimentConfig(seeds=())
    for batch_size in (0, -1):
        with pytest.raises(UsageError, match="batch_size"):
            ExperimentConfig(batch_size=batch_size)
    with pytest.raises(UsageError, match="train_count"):
        ExperimentConfig(train_count=0)


def test_load_experiment_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("model = mlp\nseeds = 1, 2\nout_dir = results\n")
    cfg = load_experiment_config(
        str(path), data_dir="/data", out_dir="elsewhere", seed=9
    )
    assert cfg.model == "mlp"
    assert cfg.data_dir == "/data"
    assert cfg.out_dir == "elsewhere"
    assert cfg.seeds == (9,)


def test_load_experiment_config_missing_file():
    with pytest.raises(UsageError, match="cannot read config file"):
        load_experiment_config("/nonexistent/exp.cfg")


def test_build_tasks_requires_data_dir():
    with pytest.raises(UsageError, match="data_dir"):
        build_tasks(ExperimentConfig(), seed=1)


# ------------------------------------------------------------- baseline CSV


def test_read_baseline_csv(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("task,accuracy\n1,90.00\n2,95.50\n")
    assert read_baseline_csv(str(path)) == pytest.approx([0.90, 0.955])


def test_read_baseline_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("task,acc\n1,90.00\n")
    with pytest.raises(ProfileFormatError, match="header"):
        read_baseline_csv(str(path))


def test_read_baseline_csv_rejects_gap_in_tasks(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("task,accuracy\n1,90.00\n3,95.50\n")
    with pytest.raises(ProfileFormatError, match="consecutive"):
        read_baseline_csv(str(path))


def test_read_baseline_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("task,accuracy\none,90.00\n")
    with pytest.raises(ProfileFormatError, match="not numeric"):
        read_baseline_csv(str(path))


# ----------------------------------------------------------- metrics command


def test_metrics_command_prints_summary(capsys):
    assert main(["metrics", MLP_PROFILE]) == EXIT_OK
    out = capsys.readouterr().out
    assert "metric" in out
    assert "88.80" in out  # AA avg of the reference profile
    assert "-9.17" in out  # BWT avg


def test_metrics_command_writes_csv(tmp_path, capsys):
    out_dir = str(tmp_path / "m")
    assert main(["metrics", MLP_PROFILE, "--out", out_dir]) == EXIT_OK
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        header = fh.readline().strip()
    assert header == "k,AA,AIA,AIA_padded,FM,BWT"


def test_metrics_command_with_baseline_prints_fwt(tmp_path, capsys):
    profile = tmp_path / "p.csv"
    profile.write_text("task_1,task_2\n90.00,\n80.00,85.00\n")
    base = tmp_path / "b.csv"
    base.write_text("task,accuracy\n1,88.00\n2,80.00\n")
    assert main(["metrics", str(profile), str(base)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FWT" in out


def test_metrics_single_task_profile_marks_undefined(tmp_path, capsys):
    profile = tmp_path / "p.csv"
    profile.write_text("task_1\n91.61\n")
    assert main(["metrics", str(profile)]) == EXIT_OK
    assert "undefined" in capsys.readouterr().out


def test_metrics_missing_profile_is_data_error(capsys):
    assert main(["metrics", "/nonexistent/profile.csv"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_metrics_malformed_profile_is_data_error(tmp_path, capsys):
    profile = tmp_path / "p.csv"
    profile.write_text("task_1,task_9\n90.00,\n80.00,85.00\n")
    assert main(["metrics", str(profile)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_metrics_out_of_range_profile_is_data_error(tmp_path, capsys):
    profile = tmp_path / "p.csv"
    profile.write_text("task_1,task_2\n90.00,\n150.0,85.00\n")
    assert main(["metrics", str(profile)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "row 3, col 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "rows", ["1,nan\n2,80.00\n", "1,88.00\n2,150\n"], ids=["nan", "150"]
)
def test_metrics_bad_baseline_accuracy_is_data_error(tmp_path, capsys, rows):
    profile = tmp_path / "p.csv"
    profile.write_text("task_1,task_2\n90.00,\n80.00,85.00\n")
    base = tmp_path / "b.csv"
    base.write_text("task,accuracy\n" + rows)
    assert main(["metrics", str(profile), str(base)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "not a percentage" in err
    assert "Traceback" not in err


# ------------------------------------------------------------ usage failures


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["run"]) == EXIT_USAGE


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("modle = mlp\n")
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_bad_network_setting_is_usage_error(tmp_path, capsys):
    """Settings that the experiment config or ColaNetConfig rejects exit 1
    before any run starts, including the sweep grid's points."""
    for command, text in (
        ("run", "ns = -784\n"),
        ("run", "eta_plus = 0\n"),
        ("run", "microcolumns = 0\n"),
        ("run", "train_count = -5\n"),
        ("sweep", "ns_grid = 0, -1\n"),
    ):
        path = tmp_path / "exp.cfg"
        path.write_text(f"model = colanet\ndata_dir = /tmp\n{text}")
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def test_sweep_without_grids_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = colanet\ndata_dir = /tmp\n")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    assert "alpha_grid" in capsys.readouterr().err


def test_sweep_rejects_mlp_grid(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = mlp\nalpha_grid = 0.1\ndata_dir = /tmp\n")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    assert "colanet" in capsys.readouterr().err


# ----------------------------------------------------------- heatmap command


def test_heatmap_command(tmp_path, capsys):
    state = str(tmp_path / "net.bin")
    save_state(Network(ColaNetConfig(class_count=2, microcolumns=2)), state)
    out = str(tmp_path / "fields.ppm")
    assert main(["heatmap", state, "--out", out]) == EXIT_OK
    with open(out, "rb") as fh:
        assert fh.readline() == b"P6\n"


def test_heatmap_bad_state_is_data_error(tmp_path, capsys):
    state = tmp_path / "corrupt.bin"
    state.write_bytes(b"not a state file")
    out = str(tmp_path / "fields.ppm")
    assert main(["heatmap", str(state), "--out", out]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


# ------------------------------------------------------- end-to-end commands


def run_config(tmp_path, mnist_dir, **overrides) -> str:
    values = dict(
        model="colanet",
        scenario="permuted",
        n_tasks=2,
        microcolumns=2,
        train_count=120,
        seeds="5",
        data_dir=mnist_dir,
    )
    values.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


@pytest.mark.parametrize("model", ["colanet", "mlp"])
def test_run_seeds_together_match_seeds_alone(tmp_path, synthetic_mnist_dir, capsys,
                                              model):
    """Each seed's stream is built inside the seed loop: a two-seed run
    writes, per seed, the same profile as running that seed alone."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, model=model, n_tasks=3,
                     microcolumns=3, train_count=150, seeds="1, 2")
    together = tmp_path / "together"
    assert main(["run", "--config", cfg, "--out", str(together)]) == EXIT_OK
    for seed in (1, 2):
        alone = tmp_path / f"alone{seed}"
        assert main(["run", "--config", cfg, "--out", str(alone),
                     "--seed", str(seed)]) == EXIT_OK
        name = f"profile_seed{seed}.csv"
        assert (together / name).read_bytes() == (alone / name).read_bytes()
        assert read_profile_csv(str(together / name)).k == 3


@pytest.mark.parametrize("command", ["run", "sweep", "baseline-acc"])
@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_run_with_bad_data_file_writes_no_profile(tmp_path, synthetic_mnist_dir,
                                                  capsys, damage, command):
    """Each config command writes its manifest before it reads any data, so
    a damaged data file leaves the manifest (when the file can be hashed)
    and no result file."""
    data_dir = tmp_path / "data"
    shutil.copytree(synthetic_mnist_dir, data_dir)
    target = data_dir / MNIST_FILES["test_images"]
    if damage == "missing":
        target.unlink()
    else:
        target.write_bytes(target.read_bytes()[:-100])
    cfg = run_config(tmp_path, str(data_dir), seeds="1, 2", alpha_grid="0.01, 0.02")
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert (out_dir / "manifest.json").exists() == (damage == "truncated")
    assert not list(out_dir.glob("**/profile_seed*.csv"))
    assert not list(out_dir.glob("**/states_seed*"))
    assert not list(out_dir.glob("**/baseline_acc.csv"))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_run_non_positive_batch_size_is_usage_error(tmp_path, synthetic_mnist_dir,
                                                    capsys, batch_size):
    cfg = run_config(tmp_path, synthetic_mnist_dir, model="mlp",
                     batch_size=batch_size)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_USAGE
    assert "batch_size" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_checkpoint_write_failure_is_data_error(tmp_path, synthetic_mnist_dir,
                                                    capsys):
    out_dir = tmp_path / "out"
    (out_dir / "states_seed5" / "state_001.bin").mkdir(parents=True)
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: task 1 (save)" in err
    assert not list(out_dir.glob("profile_seed*.csv"))


def test_run_adapter_bug_is_internal_error(tmp_path, synthetic_mnist_dir, capsys,
                                           monkeypatch):
    class BrokenAdapter:
        def train_task(self, task):
            raise RuntimeError("adapter bug")

    monkeypatch.setattr(cli, "build_adapter", lambda cfg, seed: BrokenAdapter())
    out_dir = tmp_path / "out"
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_INTERNAL
    assert "internal error: task 1 (train): adapter bug" in capsys.readouterr().err
    assert not list(out_dir.glob("profile_seed*.csv"))


def test_run_command_writes_all_artifacts(tmp_path, synthetic_mnist_dir, capsys):
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == EXIT_OK
    for name in (
        "manifest.json",
        "profile_seed5.csv",
        "metrics_seed5.csv",
        "summary_seed5.txt",
        os.path.join("states_seed5", "state_001.bin"),
        os.path.join("states_seed5", "state_002.bin"),
    ):
        assert os.path.exists(os.path.join(out_dir, name)), name
    profile = read_profile_csv(os.path.join(out_dir, "profile_seed5.csv"))
    assert profile.k == 2
    out = capsys.readouterr().out
    assert "seed 5:" in out
    assert "metric" in out

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "run"
    assert manifest["seeds"] == [5]
    assert manifest["config"]["n_tasks"] == 2
    assert manifest["config"]["train_count"] == 120
    assert len(manifest["input_hashes"]) == len(MNIST_FILES)
    for digest in manifest["input_hashes"].values():
        assert len(digest) == 40


def test_run_command_is_reproducible(tmp_path, synthetic_mnist_dir, monkeypatch):
    """Identical manifests imply identical profiles: rerunning the same
    config from a different working directory changes no output byte."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, train_count=60)
    outputs = {}
    for name in ("a", "b"):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", cfg, "--out", "out"]) == EXIT_OK
        outputs[name] = {
            fname: (cwd / "out" / fname).read_bytes()
            for fname in ("manifest.json", "profile_seed5.csv", "metrics_seed5.csv")
        }
    assert outputs["a"] == outputs["b"]


def test_run_command_mlp_model(tmp_path, synthetic_mnist_dir, capsys):
    cfg = run_config(tmp_path, synthetic_mnist_dir, model="mlp", n_tasks=1,
                     train_count=256)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "profile_seed5.csv"))
    assert "undefined" in capsys.readouterr().out  # single-task FM/BWT


def test_seed_flag_overrides_config(tmp_path, synthetic_mnist_dir, capsys):
    cfg = run_config(tmp_path, synthetic_mnist_dir, n_tasks=1, train_count=60)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir, "--seed", "7"]) == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "profile_seed7.csv"))
    assert not os.path.exists(os.path.join(out_dir, "profile_seed5.csv"))


def test_sweep_command(tmp_path, synthetic_mnist_dir, capsys):
    cfg = run_config(
        tmp_path, synthetic_mnist_dir, n_tasks=1, train_count=60,
        alpha_grid="0.01, 0.02",
    )
    out_dir = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out_dir]) == EXIT_OK
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "alpha,ns,AA,FM"
    assert len(lines) == 3
    # Single-task points have no forgetting value: the FM cell is empty.
    assert lines[1].startswith("0.01,,") and lines[1].endswith(",")
    assert lines[2].startswith("0.02,,")
    for point in ("point_000", "point_001"):
        assert os.path.exists(os.path.join(out_dir, point, "profile_seed5.csv"))
    out = capsys.readouterr().out
    assert "alpha" in out and "AA" in out


def test_ns_inf_is_ns_off(tmp_path, synthetic_mnist_dir, capsys):
    """``ns = inf`` is stored as ``ns = off``: the manifest stays RFC 8259
    JSON, the profile is the same, and an ``inf`` sweep point is ``off``."""

    def strict(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    profiles = []
    for ns in ("inf", "off"):
        out_dir = tmp_path / f"ns_{ns}"
        cfg = run_config(tmp_path, synthetic_mnist_dir, ns=ns, train_count=60)
        assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_OK
        manifest = (out_dir / "manifest.json").read_text()
        assert json.loads(manifest, parse_constant=strict)["config"]["ns"] is None
        profiles.append((out_dir / "profile_seed5.csv").read_bytes())
    assert profiles[0] == profiles[1]
    assert ExperimentConfig(ns_grid=(float("inf"), 0.0)).ns_grid == (None, 0.0)


def test_sweep_point_is_a_run(tmp_path, synthetic_mnist_dir, capsys):
    """A sweep point writes exactly the files ``run`` writes at its alpha."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, alpha_grid="0.01, 0.02")
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(sweep_dir)]) == EXIT_OK
    run_cfg = run_config(tmp_path, synthetic_mnist_dir, alpha="0.02")
    run_dir = tmp_path / "run"
    assert main(["run", "--config", run_cfg, "--out", str(run_dir)]) == EXIT_OK

    def files(root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"
        }

    point = files(sweep_dir / "point_001")
    assert sorted(point) == [
        "metrics_seed5.csv",
        "profile_seed5.csv",
        os.path.join("states_seed5", "state_001.bin"),
        os.path.join("states_seed5", "state_002.bin"),
        "summary_seed5.txt",
    ]
    assert point == files(run_dir)


def test_baseline_acc_feeds_forward_transfer(tmp_path, synthetic_mnist_dir, capsys):
    cfg = run_config(tmp_path, synthetic_mnist_dir, model="mlp", n_tasks=2,
                     train_count=256)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == EXIT_OK
    assert main(["baseline-acc", "--config", cfg, "--out", out_dir]) == EXIT_OK
    base_path = os.path.join(out_dir, "baseline_acc.csv")
    with open(base_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "task,accuracy"
    assert len(lines) == 3
    capsys.readouterr()
    assert (
        main(["metrics", os.path.join(out_dir, "profile_seed5.csv"), base_path])
        == EXIT_OK
    )
    assert "FWT" in capsys.readouterr().out


# -------------------------------------------------------- two-task scenarios


@pytest.fixture
def combined_data_dir(tmp_path, emnist_corpus):
    """Directory holding MNIST (symlinked) plus the synthetic EMNIST files."""
    data_dir = mnist_data_dir_or_skip()
    for name in MNIST_FILES.values():
        src = os.path.join(data_dir, name)
        if not os.path.exists(src):
            src += ".gz"
        os.symlink(src, tmp_path / os.path.basename(src))
    for name in EMNIST_FILES.values():
        os.symlink(
            os.path.join(emnist_corpus["dir"], name), tmp_path / name
        )
    return str(tmp_path)


def mnist_data_dir_or_skip() -> str:
    from conftest import mnist_data_dir

    data_dir = mnist_data_dir()
    if data_dir is None:
        pytest.skip("MNIST IDX files not found")
    return data_dir


def test_two_task_scenarios_order_tasks(combined_data_dir):
    cfg = ExperimentConfig(scenario="two-task-forward", data_dir=combined_data_dir)
    forward = build_tasks(cfg, seed=1)
    assert [t.task_id for t in forward] == [1, 2]
    assert forward[0].source == "mnist-truncated"
    assert forward[1].source == "emnist-letters"
    assert len(forward[0].train) == 24000

    reverse = build_tasks(
        ExperimentConfig(scenario="two-task-reverse", data_dir=combined_data_dir),
        seed=1,
    )
    assert reverse[0].source == "emnist-letters"
    assert reverse[1].source == "mnist-truncated"
    assert [t.task_id for t in reverse] == [1, 2]


def test_two_task_manifest_hashes_both_corpora(tmp_path, combined_data_dir):
    from colanet_cl.cli import input_hashes

    cfg = ExperimentConfig(scenario="two-task-forward", data_dir=combined_data_dir)
    hashes = input_hashes(cfg)
    assert len(hashes) == len(MNIST_FILES) + len(EMNIST_FILES)


# --------------------------------------------------------------- module entry


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "colanet_cl.cli", "metrics", MLP_PROFILE],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0
    assert "metric" in result.stdout
