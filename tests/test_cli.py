"""Tests for the experiment-runner command line."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
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
    build_adapter,
    build_tasks,
    load_experiment_config,
    main,
    parse_config_text,
)
from colanet_cl.clbench import ProfileFormatError, read_baseline_csv, read_profile_csv
from colanet_cl.colanet import ColaNetConfig, Network, save_state
from colanet_cl.dataset import (
    EMNIST_FILES,
    MNIST_FILES,
    load_idx,
    make_emnist_letters,
    make_mnist_truncated,
)

from conftest import FIXTURES_DIR, bit_flips, flip, python_env, traced_peak, write_idx

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


def test_parse_config_rejects_repeated_key_with_both_lines(tmp_path, capsys):
    """A key set twice is a usage error, not a silent last-one-wins."""
    with pytest.raises(
        UsageError, match=r"<config>:3: config key 'alpha' is already set on line 1"
    ):
        parse_config_text("alpha = 2.5\nmodel = colanet\nalpha = 0.1\n")
    path = tmp_path / "twice.cfg"
    path.write_text("ns = 0\n# ns again\nns = off\n")
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert f"error: {path}:3: config key 'ns' is already set on line 1" in (
        capsys.readouterr().err
    )


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


def test_keys_the_model_does_not_read_are_usage_errors(tmp_path, capsys):
    """The manifest echoes every field, so one the model never reads must
    keep its default: each that differs is named, and ``run`` exits 1."""
    with pytest.raises(UsageError, match="mlp model does not read alpha, microcolumns;"):
        ExperimentConfig(model="mlp", alpha=5.0, microcolumns=90)
    with pytest.raises(UsageError, match="mlp model does not read ns_grid; .* colanet"):
        ExperimentConfig(model="mlp", ns_grid=(0.0,))
    with pytest.raises(UsageError, match="colanet model does not read batch_size;"):
        ExperimentConfig(model="colanet", batch_size=7)
    # Defaults, spelled out or not, are accepted.
    ExperimentConfig(model="mlp", alpha=ColaNetConfig.alpha, ns=None)
    ExperimentConfig(model="colanet", batch_size=32)
    path = tmp_path / "exp.cfg"
    path.write_text("model = mlp\nleak = 0.1\ndata_dir = /tmp\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert "mlp model does not read leak" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["two-task-forward", "two-task-reverse"])
def test_train_count_is_permuted_only(tmp_path, capsys, scenario):
    """The two-task builders have fixed split sizes, so a train_count there
    would be ignored; it is a usage error instead. ``none`` stays valid."""
    with pytest.raises(UsageError, match="train_count applies to the permuted"):
        ExperimentConfig(scenario=scenario, train_count=100)
    assert ExperimentConfig(scenario=scenario, train_count=None).train_count is None
    path = tmp_path / "two.cfg"
    path.write_text(f"scenario = {scenario}\ntrain_count = 100\n")
    assert main(["baseline-acc", "--config", str(path)]) == EXIT_USAGE
    assert "train_count applies to the permuted" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["run", "sweep", "baseline-acc"])
def test_config_without_data_dir_is_usage_error(tmp_path, capsys, monkeypatch, command):
    """A config with no ``data_dir`` and no ``--data-dir`` exits 1 before
    anything is written, not with a traceback from hashing the inputs."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "exp.cfg"
    path.write_text("alpha_grid = 0.1, 0.2\n" if command == "sweep" else "n_tasks = 2\n")
    assert main([command, "--config", str(path), "--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: data_dir is required" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_every_network_key_reaches_the_network_config(tmp_path):
    """Each network key a config sets, at a valid value other than its
    default, reaches the ColaNetConfig that ``build_adapter`` builds."""
    settings = dict(microcolumns=3, alpha=1.5, ns=100.0, eta_plus=0.05, eta_minus=0.2,
                    init_high=0.002, u_const=2.0, leak=0.1)
    defaults = ColaNetConfig()
    assert all(value != getattr(defaults, key) for key, value in settings.items())
    path = tmp_path / "exp.cfg"
    lines = [f"{key} = {value}\n" for key, value in settings.items()]
    path.write_text("".join(lines) + "data_dir = d\n")
    config = build_adapter(load_experiment_config(str(path)), seed=7).net.config
    assert {key: getattr(config, key) for key in settings} == settings
    assert config.seed == 7


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


@pytest.mark.parametrize(
    "rows", ["1,88.00\n2,80.00\n", ""], ids=["2-rows", "header-only"]
)
def test_metrics_short_baseline_is_data_error(tmp_path, capsys, rows):
    """A baseline covering fewer tasks than the profile cannot give FWT."""
    profile = tmp_path / "p.csv"
    profile.write_text(
        "task_1,task_2,task_3\n90.00,,\n80.00,85.00,\n70.00,75.00,80.00\n"
    )
    base = tmp_path / "b.csv"
    base.write_text("task,accuracy\n" + rows)
    assert main(["metrics", str(profile), str(base)]) == EXIT_DATA
    err = capsys.readouterr().err
    tasks = rows.count("\n")
    assert (
        f"data error: baseline accuracy series has {tasks} tasks, "
        "the profile has 3" in err
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("damaged", ["profile", "baseline"])
def test_metrics_non_utf8_csv_is_data_error(tmp_path, capsys, damaged):
    """A profile or baseline CSV that is not UTF-8 text exits 2 and names
    the file, not a UnicodeDecodeError traceback."""
    paths = {"profile": tmp_path / "p.csv", "baseline": tmp_path / "b.csv"}
    paths["profile"].write_text("task_1,task_2\n90.00,\n80.00,85.00\n")
    paths["baseline"].write_text("task,accuracy\n1,88.00\n2,80.00\n")
    paths[damaged].write_bytes(paths[damaged].read_bytes() + b"\xff\n")
    argv = ["metrics", str(paths["profile"]), str(paths["baseline"])]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {paths[damaged]}: not UTF-8" in err
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
    before any run starts, including the sweep grid's points, and so does a
    value listed twice in ``seeds`` or a grid, compared after parsing."""
    repeated = "lists a value more than once"
    for command, text, message in (
        ("run", "ns = -784\n", "error:"),
        ("run", "eta_plus = 0\n", "error:"),
        ("run", "microcolumns = 0\n", "error:"),
        ("run", "microcolumns = 4294967296\n", "error:"),  # 2**32: beyond its uint32 slot
        ("run", "train_count = -5\n", "error:"),
        ("sweep", "ns_grid = 0, -1\n", "error:"),
        ("run", "seeds = 1, 1\n", f"seeds {repeated}"),
        ("run", "seeds = 3, 1, 03\n", f"seeds {repeated}"),
        ("sweep", "alpha_grid = 2.5, 1, 2.50\n", f"alpha_grid {repeated}"),
        ("sweep", "ns_grid = none, inf\n", f"ns_grid {repeated}"),
        ("sweep", "ns_grid = off, 0, none\n", f"ns_grid {repeated}"),
    ):
        path = tmp_path / "exp.cfg"
        path.write_text(f"model = colanet\ndata_dir = /tmp\n{text}")
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "baseline-acc"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_empty_out_dir_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                      monkeypatch, command, source):
    """An empty output directory, from the config or ``--out``, exits 1
    before anything is written."""
    monkeypatch.chdir(tmp_path)
    overrides = {"alpha_grid": "0.1, 0.2"} if command == "sweep" else {}
    if source == "config":
        overrides["out_dir"] = ""
    cfg = run_config(tmp_path, synthetic_mnist_dir, **overrides)
    argv = [command, "--config", cfg] + (["--out", ""] if source == "flag" else [])
    assert main(argv) == EXIT_USAGE
    assert "error: out_dir must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


@pytest.mark.parametrize("command", ["run", "baseline-acc"])
@pytest.mark.parametrize("key", ["alpha_grid", "ns_grid"])
def test_grid_outside_sweep_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                           command, key):
    """Only ``sweep`` reads the grids: ``run`` or ``baseline-acc`` given one
    exits 1 naming it before the manifest is written, rather than running
    the configured point alone."""
    grid = {"alpha_grid": "0.5, 1", "ns_grid": "0, 100"}[key]
    cfg = run_config(tmp_path, synthetic_mnist_dir, **{key: grid})
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_USAGE
    assert f"error: {command} does not read {key}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_without_grids_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = colanet\ndata_dir = /tmp\n")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    assert "sweep requires alpha_grid" in capsys.readouterr().err


def test_sweep_rejects_mlp_grid(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = mlp\nalpha_grid = 0.1\ndata_dir = /tmp\n")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    assert "colanet" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["metrics", "heatmap"])
def test_empty_out_path_is_usage_error(tmp_path, capsys, monkeypatch, command):
    """``--out ""`` exits 1 before the profile or state is read, and leaves
    no file (not even a temporary one) behind."""
    monkeypatch.chdir(tmp_path)
    if command == "metrics":
        source = os.path.join(FIXTURES_DIR, "profile_mlp_10task.csv")
    else:
        source = str(tmp_path / "net.bin")
        save_state(Network(ColaNetConfig(class_count=2, microcolumns=2)), source)
    before = sorted(os.listdir(tmp_path))
    assert main([command, source, "--out", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error: --out must not be empty" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


# ----------------------------------------------------------- heatmap command


def test_heatmap_command(tmp_path, capsys):
    state = str(tmp_path / "net.bin")
    save_state(Network(ColaNetConfig(class_count=2, microcolumns=2)), state)
    out = str(tmp_path / "fields.ppm")
    assert main(["heatmap", state, "--out", out]) == EXIT_OK
    with open(out, "rb") as fh:
        assert fh.readline() == b"P6\n"


def test_heatmap_write_failure_names_the_requested_path(tmp_path, capsys):
    """A heatmap that cannot be written exits 2 naming the ``--out`` path,
    not the temporary file it is written through."""
    state = str(tmp_path / "net.bin")
    save_state(Network(ColaNetConfig(class_count=2, microcolumns=2)), state)
    out = str(tmp_path / "nodir" / "x.ppm")
    assert main(["heatmap", state, "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: [Errno 2] No such file or directory: {out!r}" in err
    assert ".tmp" not in err


def test_heatmap_bad_state_is_data_error(tmp_path, capsys):
    state = tmp_path / "corrupt.bin"
    state.write_bytes(b"not a state file")
    out = str(tmp_path / "fields.ppm")
    assert main(["heatmap", str(state), "--out", out]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


# ------------------------------------------------------- end-to-end commands


def run_config(tmp_path, mnist_dir, **overrides) -> str:
    """A run config file; an mlp config leaves out ``microcolumns``, which
    only colanet reads."""
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
    if values["model"] == "mlp":
        del values["microcolumns"]
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
@pytest.mark.parametrize(
    "damage",
    ["missing", "truncated", "truncated-gz", "images-32x32", "images-28x27",
     "label-12", "empty"],
)
def test_run_with_bad_data_file_writes_no_profile(tmp_path, synthetic_mnist_dir,
                                                  capsys, damage, command):
    """Each config command writes its manifest before it reads any data, so
    a damaged data file leaves the manifest (when the file can be hashed)
    and no result file. Well-formed IDX files holding images that are not
    28x28, a label that is not a digit, or no images at all are damaged data
    too."""
    data_dir = tmp_path / "data"
    shutil.copytree(synthetic_mnist_dir, data_dir)
    target = data_dir / MNIST_FILES["test_images"]
    if damage == "missing":
        target.unlink()
    elif damage == "truncated":
        target.write_bytes(target.read_bytes()[:-100])
    elif damage == "truncated-gz":  # the label file gzipped, cut 10 bytes short
        labels = data_dir / MNIST_FILES["test_labels"]
        gz = data_dir / (labels.name + ".gz")
        gz.write_bytes(gzip.compress(labels.read_bytes())[:-10])
        labels.unlink()
    elif damage == "images-32x32":
        write_idx(str(target), np.pad(load_idx(str(target)), ((0, 0), (2, 2), (2, 2))))
    elif damage == "images-28x27":
        write_idx(str(target), load_idx(str(target))[:, :, :27])
    elif damage == "empty":  # a test split of 0 images and 0 labels
        labels = data_dir / MNIST_FILES["test_labels"]
        write_idx(str(target), load_idx(str(target))[:0])
        write_idx(str(labels), load_idx(str(labels))[:0])
    else:
        labels = data_dir / MNIST_FILES["train_labels"]
        values = load_idx(str(labels)).copy()
        values[5] = 12
        write_idx(str(labels), values)
    grid = {"alpha_grid": "0.01, 0.02"} if command == "sweep" else {}
    cfg = run_config(tmp_path, str(data_dir), seeds="1, 2", **grid)
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert (out_dir / "manifest.json").exists() == (damage != "missing")
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


@pytest.mark.parametrize("model", ["colanet", "mlp"])
@pytest.mark.parametrize(
    "key, value",
    [("alpha", "nan"), ("leak", "inf"), ("eta_plus", "-inf"), ("eta_minus", "nan"),
     ("init_high", "inf"), ("u_const", "-inf"), ("alpha_grid", "0.5, nan"),
     ("ns", "nan"), ("ns", "-inf"), ("ns_grid", "0, -inf")],
)
def test_run_non_finite_float_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                             model, key, value):
    """NaN and infinite floats exit 1 before the manifest is written, whatever
    the model, so manifest.json never holds NaN or Infinity (only ``ns`` and
    ``ns_grid`` take +inf, which means off)."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, model=model, **{key: value})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("model", ["colanet", "mlp"])
@pytest.mark.parametrize("seeds, flag", [("-3", None), ("1, 18446744073709551616", None),
                                         ("5", "-1")])
def test_run_seed_outside_uint64_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                                model, seeds, flag):
    """A seed must fit the checkpoint's uint64 slot: one outside [0, 2**64)
    exits 1 before the manifest is written, from the config or ``--seed``."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, model=model, seeds=seeds)
    out_dir = tmp_path / "out"
    argv = ["run", "--config", cfg, "--out", str(out_dir)]
    assert main(argv + (["--seed", flag] if flag else [])) == EXIT_USAGE
    assert "seeds must be in [0, 2**64)" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_train_count_beyond_the_split_is_data_error(tmp_path, synthetic_mnist_dir,
                                                       capsys):
    """The fixture holds 300 training images: a run capped at 301 exits 2
    before it trains, while a cap of 300 runs."""
    for train_count, code in ((301, EXIT_DATA), (300, EXIT_OK)):
        cfg = run_config(tmp_path, synthetic_mnist_dir, n_tasks=1, train_count=train_count)
        out_dir = tmp_path / f"out{train_count}"
        assert main(["run", "--config", cfg, "--out", str(out_dir)]) == code
        assert (out_dir / "profile_seed5.csv").exists() == (code == EXIT_OK)
    assert "insufficient source data: requested 301" in capsys.readouterr().err


def test_run_network_too_large_to_allocate_is_usage_error(tmp_path, synthetic_mnist_dir,
                                                          capsys):
    """The most microcolumns a checkpoint can hold, 2**32 - 1 per class, ask
    for 245 TiB of weights, more than a process can address: the allocation
    fails at once, and the run exits 1 with a message, not a traceback."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, microcolumns=2**32 - 1)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "do not fit in memory" in capsys.readouterr().err


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
    versions = manifest["versions"]
    assert versions["python"] == platform.python_version()
    assert versions["numpy"] == np.__version__
    assert versions["blas"]


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
    # Sweep prints the rows sweep.csv holds.
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


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
    assert parse_config_text("ns_grid = inf, 0")["ns_grid"] == (None, 0.0)


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
    # The point's AA and FM cells are the last row of its metrics table.
    metrics = point["metrics_seed5.csv"].decode().splitlines()
    final = dict(zip(metrics[0].split(","), metrics[-1].split(",")))
    sweep_rows = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert sweep_rows[2] == f"0.02,,{final['AA']},{final['FM']}"


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
    digits = make_mnist_truncated(combined_data_dir)
    letters = make_emnist_letters(combined_data_dir)
    for scenario, order in (
        ("two-task-forward", (digits, letters)),
        ("two-task-reverse", (letters, digits)),
    ):
        cfg = ExperimentConfig(scenario=scenario, data_dir=combined_data_dir)
        tasks = build_tasks(cfg, seed=1)
        assert [t.task_id for t in tasks] == [1, 2]
        for task, expected in zip(tasks, order, strict=True):
            assert np.array_equal(task.train.pixels, expected.train.pixels)
            assert np.array_equal(task.test.labels, expected.test.labels)
    assert len(digits.train) == 24000


def test_two_task_manifest_hashes_both_corpora(tmp_path, combined_data_dir):
    from colanet_cl.cli import input_hashes

    cfg = ExperimentConfig(scenario="two-task-forward", data_dir=combined_data_dir)
    hashes = input_hashes(cfg)
    assert len(hashes) == len(MNIST_FILES) + len(EMNIST_FILES)


def test_git_blob_sha1_is_gits_blob_hash(tmp_path):
    path = tmp_path / "hello.txt"
    path.write_bytes(b"hello\n")
    # What ``git hash-object hello.txt`` prints.
    assert cli._git_blob_sha1(str(path)) == "ce013625030ba8dba906f756967f9e9ca394464a"


def test_git_blob_sha1_streams_the_file(tmp_path):
    """A data file is hashed a chunk at a time: hashing 6 MiB peaks below
    2 MiB, with the digest of the whole blob."""
    payload = np.random.default_rng(0).bytes(6 * (1 << 20) + 5)
    path = tmp_path / "big.bin"
    path.write_bytes(payload)
    expected = hashlib.sha1(b"blob %d\x00" % len(payload) + payload).hexdigest()
    assert cli._git_blob_sha1(str(path)) == expected
    del payload
    assert traced_peak(cli._git_blob_sha1, str(path)) < 2 * (1 << 20)


# --------------------------------------------------------------- module entry


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "colanet_cl.cli", "metrics", MLP_PROFILE],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=python_env(),
    )
    assert result.returncode == 0
    assert "metric" in result.stdout
