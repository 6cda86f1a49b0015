"""Tests for the atomic replacement that every output file is written through."""

from __future__ import annotations

import os

import pytest

from colanet_cl.colanet import ColaNetConfig, Network, save_state
from colanet_cl.statefile import replacing


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_write_keeps_previous_bytes_and_leaves_no_temporary(tmp_path, error):
    path = tmp_path / "out.csv"
    with replacing(str(path)) as f:
        f.write("old\n")
    with pytest.raises(error):
        with replacing(str(path)) as f:
            f.write("partial")
            raise error
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with replacing(str(tmp_path / "state.bin"), "wb") as f:
            f.write(b"\x00" * 10)
            raise RuntimeError
    assert os.listdir(tmp_path) == []


def test_save_state_failing_part_way_keeps_previous_checkpoint(tmp_path):
    """A state write that raises after the weights were written leaves the
    previous checkpoint's bytes in place."""
    path = tmp_path / "state_001.bin"
    net = Network(ColaNetConfig(class_count=2, microcolumns=2))
    save_state(net, str(path))
    before = path.read_bytes()
    net.weights += 0.5
    net.rng = None  # the generator state is written after the weights
    with pytest.raises(AttributeError):
        save_state(net, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state_001.bin"]
