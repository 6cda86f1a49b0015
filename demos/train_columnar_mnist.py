"""Train the columnar spiking network on a 2-task permuted-MNIST stream.

Demonstrates the plasticity regime that resists forgetting: 45
microcolumns per class column, a strong adaptive threshold (alpha=2.5),
and synaptic-resource renormalization (ns=0, strict conservation). After
both tasks, accuracy on task 1 should sit within a couple of points of
where it started, and the learned receptive fields are exported as a
red-positive / blue-negative heatmap grid.

Needs the MNIST IDX files (see README). Runs in well under a minute;
training is truncated to 20000 images per task.

Run:
    python3 demos/train_columnar_mnist.py [data_dir]
"""

from __future__ import annotations

import os
import sys

from colanet_cl.clbench import compute_report, run_sequence
from colanet_cl.colanet import ColaNetAdapter, ColaNetConfig, export_heatmaps
from colanet_cl.dataset import make_permuted_stream


def main() -> None:
    data_dir = (
        sys.argv[1]
        if len(sys.argv) > 1
        else os.environ.get("COLANET_DATA_DIR", "/root/data/mnist")
    )
    print(f"Loading MNIST from {data_dir} and building 2 permuted tasks ...")
    tasks = make_permuted_stream(
        2, base_seed=1, data_dir=data_dir, train_count=20000
    )

    config = ColaNetConfig(microcolumns=45, alpha=2.5, ns=0, seed=1)
    adapter = ColaNetAdapter(config)
    print(
        f"Training {config.class_count}x{config.microcolumns} grid "
        f"(alpha={config.alpha}, ns={config.ns}) ..."
    )
    profile = run_sequence(adapter, tasks)

    a = profile.a * 100.0
    print()
    print(f"task 1 right after training:  {a[0, 0]:.2f}%")
    print(f"task 1 after learning task 2: {a[1, 0]:.2f}%")
    print(f"task 2 after training:        {a[1, 1]:.2f}%")
    print(f"forgetting measure FM_2:      {compute_report(profile).fm[1] * 100:.2f}pt")

    out = "receptive_fields.ppm"
    export_heatmaps(adapter.net, out)
    print(f"\nReceptive-field heatmap written to {out}")
    print("(rows = class columns 0-9, tiles = microcolumns; red pixels are")
    print("excitatory weight, blue inhibitory — open with any PPM viewer)")


if __name__ == "__main__":
    main()
