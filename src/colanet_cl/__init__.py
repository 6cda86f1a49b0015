"""Columnar spiking networks with a continual-learning benchmark harness.

The package splits into data handling (``dataset``, ``encoder``), the
spiking model (``snncore``, ``colanet``), a dense reference model
(``baseline``), the state-file framing both models share (``statefile``),
the benchmark machinery (``clbench``), and a command-line front end
(``cli``).
"""

from .colanet import (
    ColaNetAdapter,
    ColaNetConfig,
    Network,
    evaluate_task,
    export_heatmaps,
    load_state,
    predict,
    present,
    save_state,
    train_sample,
    train_task,
)
from .dataset import (
    LabeledDataset,
    PixelPermutation,
    TaskSpec,
    apply_permutation,
    gen_permutation,
    load_mnist,
    make_emnist_letters,
    make_mnist_truncated,
    make_permuted_stream,
)
from .encoder import SpikeTrain, encode

__all__ = [
    "ColaNetAdapter",
    "ColaNetConfig",
    "LabeledDataset",
    "Network",
    "PixelPermutation",
    "SpikeTrain",
    "TaskSpec",
    "apply_permutation",
    "encode",
    "evaluate_task",
    "export_heatmaps",
    "gen_permutation",
    "load_mnist",
    "load_state",
    "make_emnist_letters",
    "make_mnist_truncated",
    "make_permuted_stream",
    "predict",
    "present",
    "save_state",
    "train_sample",
    "train_task",
]

__version__ = "0.1.0"
