"""Tests for the experiment-runner command line."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import re
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
        leak = 0.1, 0.2
        eta_plus = 0.05,
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
    assert values["leak"] == (0.1, 0.2)
    assert values["eta_plus"] == (0.05,)
    listed = parse_config_text("alpha = 0.1, 0.2\nns = none, 0, 100\nmicrocolumns = 3, 4")
    assert listed == {"alpha": (0.1, 0.2), "ns": (None, 0.0, 100.0), "microcolumns": (3, 4)}


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
alpha = 0.1, 0.2
ns = none, 0, 100
microcolumns = 45
train_count = 200
seeds = 1, 2
leak = 0.05
u_const = 2
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


@pytest.mark.parametrize("scenario", ["two-task-forward", "two-task-reverse"])
def test_two_task_scenarios_run_two_tasks(tmp_path, synthetic_mnist_dir, emnist_corpus,
                                          capsys, scenario):
    """``n_tasks`` left unset is the scenario's own count: 3 permuted tasks,
    2 in a two-task scenario, which is what its manifest records. A two-task
    config setting any other count exits 1 before anything is written."""
    assert ExperimentConfig().n_tasks == 3
    assert ExperimentConfig(scenario=scenario).n_tasks == 2
    assert ExperimentConfig(scenario=scenario, n_tasks=2).n_tasks == 2
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for source, names in ((synthetic_mnist_dir, MNIST_FILES),
                          (emnist_corpus["dir"], EMNIST_FILES)):
        for name in names.values():
            os.symlink(os.path.join(source, name), data_dir / name)
    path = tmp_path / "two.cfg"
    text = f"scenario = {scenario}\ndata_dir = {data_dir}\n"
    path.write_text(text)
    out_dir = tmp_path / "out"
    cli.write_manifest(load_experiment_config(str(path), out_dir=str(out_dir)), "run")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["n_tasks"] == 2
    assert len(manifest["input_hashes"]) == len(MNIST_FILES) + len(EMNIST_FILES)
    for n_tasks in (1, 3, 7):
        path.write_text(f"{text}n_tasks = {n_tasks}\n")
        out_dir = tmp_path / f"out{n_tasks}"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_USAGE
        assert f"n_tasks must be 2, got {n_tasks}" in capsys.readouterr().err
        assert not out_dir.exists()


def test_keys_the_model_does_not_read_are_usage_errors(tmp_path, capsys):
    """The manifest echoes every field, so one the model never reads must
    keep its default: each that differs is named, and ``run`` exits 1."""
    with pytest.raises(UsageError, match="mlp model does not read microcolumns, alpha;"):
        ExperimentConfig(model="mlp", alpha=5.0, microcolumns=90)
    with pytest.raises(UsageError, match="mlp model does not read ns; .* colanet"):
        ExperimentConfig(model="mlp", ns=(0.0,))
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
    path.write_text("alpha = 0.1, 0.2\n" if command == "sweep" else "n_tasks = 2\n")
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


#: Two valid values of each network key, as a config lists them.
LISTED_VALUES = dict(microcolumns=(3, 4), alpha=(1.5, 2.5), ns=(None, 100.0),
                     eta_plus=(0.05, 0.1), eta_minus=(0.2, 0.3), init_high=(0.002, 0.003),
                     u_const=(2.0, 3.0), leak=(0.0, 0.1))


@pytest.mark.parametrize("key", cli.NETWORK_KEYS)
def test_every_network_key_is_a_sweep_axis(tmp_path, key):
    """Any network key listing two values is a two-point sweep axis, and each
    point's value reaches the ColaNetConfig that ``build_adapter`` builds."""
    values = LISTED_VALUES[key]
    path = tmp_path / "exp.cfg"
    text = ", ".join("off" if value is None else repr(value) for value in values)
    small = "" if key == "microcolumns" else "microcolumns = 2\n"
    path.write_text(f"{key} = {text}\n{small}data_dir = d\n")
    cfg = load_experiment_config(str(path))
    assert getattr(cfg, key) == values and cli.listed_keys(cfg) == [key]
    points = cli.grid_points(cfg)
    assert [getattr(point, key) for point in points] == list(values)
    for point, value in zip(points, values):
        assert cli.listed_keys(point) == []
        assert getattr(build_adapter(point, seed=7).net.config, key) == value


def test_hyperparameter_grid_runs_in_key_order(tmp_path):
    """The stability-plasticity grid (M x alpha x ns x leak) is one sweep
    config of 64 points: the cross product in NETWORK_KEYS order, microcolumns
    outermost and leak innermost. Every point is validated on loading; none
    is trained."""
    path = tmp_path / "grid.cfg"
    path.write_text("n_tasks = 10\nseeds = 1, 2, 3\nmicrocolumns = 15, 30, 45, 90\n"
                    "alpha = 0.5, 1, 2.5, 5\nns = 0, off\nleak = 0, 0.05\ndata_dir = d\n")
    cfg = load_experiment_config(str(path))
    keys = cli.listed_keys(cfg)
    assert keys == ["microcolumns", "alpha", "ns", "leak"]
    points = [tuple(getattr(point, key) for key in keys) for point in cli.grid_points(cfg)]
    assert len(points) == 64
    assert points[0] == (15, 0.5, 0.0, 0.0)
    assert points[-1] == (90, 5.0, None, 0.05)
    assert [point[0] for point in points] == [m for m in (15, 30, 45, 90) for _ in range(16)]
    assert points == [(m, a, ns, leak) for m in (15, 30, 45, 90) for a in (0.5, 1.0, 2.5, 5.0)
                      for ns in (0.0, None) for leak in (0.0, 0.05)]


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


def test_one_parser_serves_every_call(tmp_path, synthetic_mnist_dir, capsys):
    """``main`` builds its parser once: a usage error, then a valid run, in
    one process exit and print as they do with a freshly built parser."""
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    calls = [["run", "--seed", "x"], ["run", "--config", cfg, "--out", str(tmp_path)]]
    results = {}
    for fresh in (False, True):
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            results.setdefault(fresh, []).append((main(argv), *capsys.readouterr()))
    assert [code for code, _, _ in results[False]] == [EXIT_USAGE, EXIT_OK]
    assert "invalid int value: 'x'" in results[False][0][2]
    assert results[False] == results[True]


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("modle = mlp\n")
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_bad_network_setting_is_usage_error(tmp_path, capsys):
    """Settings that the experiment config or ColaNetConfig rejects exit 1
    before any run starts, including every sweep point, and so does a value
    listed twice in ``seeds`` or a network key, compared after parsing."""
    repeated = "lists a value more than once"
    for command, text, message in (
        ("run", "ns = -784\n", "error:"),
        ("run", "eta_plus = 0\n", "error:"),
        ("run", "microcolumns = 0\n", "error:"),
        ("run", "microcolumns = 4294967296\n", "error:"),  # 2**32: beyond its uint32 slot
        ("run", "train_count = -5\n", "error:"),
        ("sweep", "ns = 0, -1\n", "error:"),
        ("sweep", "microcolumns = 3, 0\n", "error:"),
        ("run", "seeds = 1, 1\n", f"seeds {repeated}"),
        ("run", "seeds = 3, 1, 03\n", f"seeds {repeated}"),
        ("sweep", "alpha = 2.5, 1, 2.50\n", f"alpha {repeated}"),
        ("sweep", "alpha = 2.5, 2.50\n", f"alpha {repeated}"),
        ("sweep", "ns = none, inf\n", f"ns {repeated}"),
        ("sweep", "ns = off, 0, none\n", f"ns {repeated}"),
        ("sweep", "ns = off, none\n", f"ns {repeated}"),
        ("sweep", "microcolumns = 15, 015\n", f"microcolumns {repeated}"),
        ("sweep", "leak = 0, 0.0\n", f"leak {repeated}"),
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
    overrides = {"alpha": "0.1, 0.2"} if command == "sweep" else {}
    if source == "config":
        overrides["out_dir"] = ""
    cfg = run_config(tmp_path, synthetic_mnist_dir, **overrides)
    argv = [command, "--config", cfg] + (["--out", ""] if source == "flag" else [])
    assert main(argv) == EXIT_USAGE
    assert "error: out_dir must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


@pytest.mark.parametrize("command", ["run", "baseline-acc"])
@pytest.mark.parametrize("key", ["alpha", "ns", "microcolumns", "leak"])
def test_grid_outside_sweep_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                           command, key):
    """Only ``sweep`` reads listed values: ``run`` or ``baseline-acc`` given
    a listed key exits 1 naming it before the manifest is written, rather
    than running one of its values alone."""
    grid = {"alpha": "0.5, 1", "ns": "0, 100", "microcolumns": "2, 3", "leak": "0,"}[key]
    cfg = run_config(tmp_path, synthetic_mnist_dir, **{key: grid})
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: only sweep reads listed values, and sweep needs one; the config lists {key}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "baseline-acc"])
@pytest.mark.parametrize("key", ["alpha", "seeds"])
def test_empty_list_is_usage_error(tmp_path, synthetic_mnist_dir, capsys, command, key):
    """A key listing no value (``alpha = ,``) exits 1 naming it before the
    manifest is written, rather than sweeping no point."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, **{key: ","})
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_USAGE
    assert f"error: {key} must list at least one value" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_without_grids_is_usage_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = colanet\ndata_dir = /tmp\n")
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    assert "sweep needs one; the config lists none" in capsys.readouterr().err


def test_sweep_rejects_mlp_grid(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model = mlp\nalpha = 0.1, 0.2\ndata_dir = /tmp\n")
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
    # Each unit prints its seed, then the summary it wrote, in seed order.
    assert capsys.readouterr().out == "".join(
        f"seed {seed}:\n" + (together / f"summary_seed{seed}.txt").read_text()
        for seed in (1, 2))
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
    grid = {"alpha": "0.01, 0.02"} if command == "sweep" else {}
    cfg = run_config(tmp_path, str(data_dir), seeds="1, 2", **grid)
    out_dir = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out_dir)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert (out_dir / "manifest.json").exists() == (damage != "missing")
    assert not list(out_dir.glob("**/profile_seed*.csv"))
    assert not list(out_dir.glob("**/states_seed*"))
    assert not list(out_dir.glob("**/baseline_acc*.csv"))


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
     ("init_high", "inf"), ("u_const", "-inf"), ("alpha", "0.5, nan"),
     ("ns", "nan"), ("ns", "-inf"), ("ns", "0, -inf")],
)
def test_run_non_finite_float_is_usage_error(tmp_path, synthetic_mnist_dir, capsys,
                                             model, key, value):
    """NaN and infinite floats exit 1 before the manifest is written, whatever
    the model, so manifest.json never holds NaN or Infinity (only ``ns``,
    listed or not, takes +inf, which means off)."""
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


def test_run_missing_adapter_method_is_internal_error(tmp_path, synthetic_mnist_dir, capsys,
                                                      monkeypatch):
    class IncompleteAdapter:
        def train_task(self, task):
            pass

    monkeypatch.setattr(cli, "build_adapter", lambda cfg, seed: IncompleteAdapter())
    out_dir = tmp_path / "out"
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: task 1 (save): " in err
    assert "has no attribute 'save'" in err
    assert "Traceback" not in err
    assert not list(out_dir.glob("profile_seed*.csv"))


@pytest.mark.parametrize("accuracy", [1.5, None, float("nan")])
def test_run_accuracy_outside_the_unit_interval_is_internal_error(
    tmp_path, synthetic_mnist_dir, capsys, monkeypatch, accuracy
):
    class MisscoringAdapter:
        def train_task(self, task):
            pass

        def save(self, path):
            open(path, "wb").close()

        def evaluate_task(self, task):
            return accuracy

    monkeypatch.setattr(cli, "build_adapter", lambda cfg, seed: MisscoringAdapter())
    out_dir = tmp_path / "out"
    cfg = run_config(tmp_path, synthetic_mnist_dir)
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: task 1 (evaluate task 1): accuracy " in err
    assert "is not a fraction in [0, 1]" in err
    assert "Traceback" not in err
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
    """Each row labels its point exactly: alpha values that agree to six
    digits still read back as the values the grid lists."""
    for grid in (("0.01", "0.02"), ("2.5000001", "2.5000002")):
        cfg = run_config(
            tmp_path, synthetic_mnist_dir, n_tasks=1, train_count=60,
            alpha=", ".join(grid),
        )
        out_dir = str(tmp_path / f"sweep{grid[0]}")
        assert main(["sweep", "--config", cfg, "--out", out_dir]) == EXIT_OK
        with open(os.path.join(out_dir, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "alpha,seed,AA,FM"
        assert len(lines) == 3
        # Single-task points have no forgetting value: the FM cell is empty.
        assert lines[1].startswith(f"{grid[0]},5,") and lines[1].endswith(",")
        assert lines[2].startswith(f"{grid[1]},5,")
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
    assert parse_config_text("ns = inf, 0")["ns"] == (None, 0.0)


def files(root) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_sweep_point_is_a_run(tmp_path, synthetic_mnist_dir, capsys):
    """A sweep point writes exactly the files ``run`` writes at its value,
    on the alpha axis and on the microcolumns axis alike."""
    for key, listed, value in (("alpha", "0.01, 0.02", "0.02"),
                               ("microcolumns", "2, 3", "3")):
        cfg = run_config(tmp_path, synthetic_mnist_dir, **{key: listed})
        sweep_dir = tmp_path / f"sweep_{key}"
        assert main(["sweep", "--config", cfg, "--out", str(sweep_dir)]) == EXIT_OK
        run_cfg = run_config(tmp_path, synthetic_mnist_dir, **{key: value})
        run_dir = tmp_path / f"run_{key}"
        assert main(["run", "--config", run_cfg, "--out", str(run_dir)]) == EXIT_OK
        point = files(sweep_dir / "point_001")
        assert sorted(point) == [
            "metrics_seed5.csv",
            "profile_seed5.csv",
            os.path.join("states_seed5", "state_001.bin"),
            os.path.join("states_seed5", "state_002.bin"),
            "summary_seed5.txt",
        ]
        ran = files(run_dir)
        del ran["manifest.json"]
        assert point == ran
        # The point's AA and FM cells are the last row of its metrics table.
        metrics = point["metrics_seed5.csv"].decode().splitlines()
        final = dict(zip(metrics[0].split(","), metrics[-1].split(",")))
        sweep_rows = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert sweep_rows[0] == f"{key},seed,AA,FM"
        assert sweep_rows[2] == f"{value},5,{final['AA']},{final['FM']}"


def test_sweep_runs_every_seed_at_every_point(tmp_path, synthetic_mnist_dir, capsys):
    """A 2x2 grid at three seeds is twelve units, grid point outermost: each
    point's directory holds every seed's files, and a unit's files are those
    ``run --seed S`` writes at its point."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, train_count=60, seeds="1, 2, 3",
                     alpha="0.01, 2.5", ns="off, 0")
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(sweep_dir)]) == EXIT_OK
    assert json.loads((sweep_dir / "manifest.json").read_text())["seeds"] == [1, 2, 3]
    rows = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert capsys.readouterr().out == "".join(row + "\n" for row in rows)
    points = [("0.01", ""), ("0.01", "0.0"), ("2.5", ""), ("2.5", "0.0")]
    assert rows[0] == "alpha,ns,seed,AA,FM"
    assert [row.split(",")[:3] for row in rows[1:]] == [
        [alpha, ns, seed] for alpha, ns in points for seed in ("1", "2", "3")]
    assert sorted(path.name for path in sweep_dir.iterdir()) == [
        "manifest.json", "point_000", "point_001", "point_002", "point_003", "sweep.csv"]
    for index in range(4):
        point = sweep_dir / f"point_{index:03d}"
        assert sorted(path.name for path in point.iterdir()) == sorted(
            f"{kind}_seed{seed}{ext}" for seed in (1, 2, 3)
            for kind, ext in (("metrics", ".csv"), ("profile", ".csv"),
                              ("summary", ".txt"), ("states", "")))
    for index, seed in ((1, 1), (2, 3)):
        alpha, ns = points[index]
        run_cfg = run_config(tmp_path, synthetic_mnist_dir, train_count=60,
                             seeds="1, 2, 3", alpha=alpha, ns=ns or "off")
        run_dir = tmp_path / f"run{index}"
        assert main(["run", "--config", run_cfg, "--out", str(run_dir),
                     "--seed", str(seed)]) == EXIT_OK
        point = files(sweep_dir / f"point_{index:03d}")
        unit = {name: data for name, data in point.items() if f"_seed{seed}" in name}
        ran = files(run_dir)
        del ran["manifest.json"]
        assert len(unit) == 5 and unit == ran


def test_baseline_acc_feeds_forward_transfer(tmp_path, synthetic_mnist_dir, capsys):
    """``baseline-acc`` writes one series per configured seed, each the same
    as running that seed alone, and ``metrics`` reads it for FWT."""
    cfg = run_config(tmp_path, synthetic_mnist_dir, model="mlp", n_tasks=2,
                     train_count=256, seeds="5, 6")
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == EXIT_OK
    capsys.readouterr()
    assert main(["baseline-acc", "--config", cfg, "--out", out_dir]) == EXIT_OK
    paths = [os.path.join(out_dir, f"baseline_acc_seed{seed}.csv") for seed in (5, 6)]
    assert capsys.readouterr().out == "".join(f"wrote {path}\n" for path in paths)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        assert json.load(fh)["seeds"] == [5, 6]
    alone = tmp_path / "alone"
    assert main(["baseline-acc", "--config", cfg, "--out", str(alone),
                 "--seed", "6"]) == EXIT_OK
    with open(paths[1], "rb") as fh:
        assert fh.read() == (alone / "baseline_acc_seed6.csv").read_bytes()
    with open(paths[0]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "task,accuracy"
    assert len(lines) == 3
    assert (
        main(["metrics", os.path.join(out_dir, "profile_seed5.csv"), paths[0]])
        == EXIT_OK
    )
    assert "FWT" in capsys.readouterr().out


# ------------------------------------------------------------------- demos

DEMOS_DIR = os.path.join(os.path.dirname(os.path.dirname(FIXTURES_DIR)), "demos")

#: Each demo config and the values it sets.
DEMO_CONFIGS = {
    "columnar_2task.cfg": dict(model="colanet", n_tasks=2, microcolumns=45, alpha=2.5,
                               ns=0.0, seeds=(1,), train_count=20000),
    "mlp_forgetting.cfg": dict(model="mlp", n_tasks=4, seeds=(1,), train_count=10000),
    "stability_sweep.cfg": dict(model="colanet", n_tasks=3, microcolumns=(15, 45),
                                alpha=(0.023817, 2.5), ns=(None, 0.0), seeds=(1,),
                                train_count=10000),
}

#: ``colanet-cl metrics demos/quickstart_profile.csv``: the summary it prints
#: and the metrics.csv it writes. The AA, AIA, FM and BWT columns are the
#: per-task values of the hand-written 4-task profile.
QUICKSTART_SUMMARY = """\
metric         avg       max       std
AA           83.77     96.00      8.88
AIA          37.54     49.87      9.65
FM           16.54     28.66     10.70
BWT         -16.54    -28.66     10.70

"""
QUICKSTART_METRICS = """\
k,AA,AIA,AIA_padded,FM,BWT
1,96.00,96.00,24.00,,
2,87.50,91.75,33.88,15.00,-15.00
3,79.33,87.61,42.42,22.50,-22.50
4,72.25,83.77,49.88,28.67,-28.67
"""


def test_demos_are_configs_and_a_profile():
    expected = [*DEMO_CONFIGS, "quickstart_profile.csv"]
    assert sorted(os.listdir(DEMOS_DIR)) == sorted(expected)


@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_config_loads(tmp_path, name):
    cfg = load_experiment_config(os.path.join(DEMOS_DIR, name), data_dir=str(tmp_path))
    assert cfg.scenario == "permuted" and cfg.data_dir == str(tmp_path)
    assert {key: getattr(cfg, key) for key in DEMO_CONFIGS[name]} == DEMO_CONFIGS[name]


@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_config_runs(tmp_path, synthetic_mnist_dir, capsys, name):
    """Each demo config, cut to 60 training images per task, runs end to end,
    through ``sweep`` if it lists a key; a colanet demo's last checkpoint
    (the first point's, in a sweep) renders as a heatmap."""
    with open(os.path.join(DEMOS_DIR, name), encoding="utf-8") as fh:
        text, cuts = re.subn(r"(?m)^train_count\s*=.*$", "train_count = 60", fh.read())
    assert cuts == 1
    cfg = tmp_path / name
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    swept = cli.listed_keys(load_experiment_config(str(cfg), data_dir=synthetic_mnist_dir))
    assert main(["sweep" if swept else "run", "--config", str(cfg), "--data-dir",
                 synthetic_mnist_dir, "--out", str(out_dir)]) == EXIT_OK
    unit_dir = out_dir / "point_000" if swept else out_dir
    n_tasks = DEMO_CONFIGS[name]["n_tasks"]
    assert read_profile_csv(str(unit_dir / "profile_seed1.csv")).k == n_tasks
    if DEMO_CONFIGS[name]["model"] == "colanet":
        state = unit_dir / "states_seed1" / f"state_{n_tasks:03d}.bin"
        heatmap = tmp_path / "receptive_fields.ppm"
        assert main(["heatmap", str(state), "--out", str(heatmap)]) == EXIT_OK
        assert heatmap.read_bytes().startswith(b"P6\n")


def test_quickstart_profile_metrics(tmp_path, capsys):
    """``metrics`` on the data-free demo profile prints its summary and
    writes its metric series exactly."""
    profile = os.path.join(DEMOS_DIR, "quickstart_profile.csv")
    assert main(["metrics", profile, "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == QUICKSTART_SUMMARY
    assert (tmp_path / "metrics.csv").read_text() == QUICKSTART_METRICS


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
