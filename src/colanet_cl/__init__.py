"""Columnar spiking networks with a continual-learning benchmark harness.

The package splits into data handling (``dataset``, ``encoder``), the
spiking model (``snncore``, ``colanet``), a dense reference model
(``baseline``), the state-file framing both models share (``statefile``),
the benchmark machinery (``clbench``), and a command-line front end
(``cli``). The network's race has two callers: ``train_sample`` for one
labeled image, and ``evaluate_task`` for a task's test split.
"""

from .colanet import (
    ColaNetAdapter,
    ColaNetConfig,
    Network,
    evaluate_task,
    export_heatmaps,
    load_state,
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

__all__ = [
    "ColaNetAdapter",
    "ColaNetConfig",
    "LabeledDataset",
    "Network",
    "PixelPermutation",
    "TaskSpec",
    "apply_permutation",
    "evaluate_task",
    "export_heatmaps",
    "gen_permutation",
    "load_mnist",
    "load_state",
    "make_emnist_letters",
    "make_mnist_truncated",
    "make_permuted_stream",
    "save_state",
    "train_sample",
    "train_task",
]

__version__ = "0.1.0"
