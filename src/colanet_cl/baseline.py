"""Fully connected 784-512-10 reference network trained with AdaDelta.

The baseline for the continual-learning comparisons: one hidden layer of 512
ReLU units, a 10-way softmax output, cross-entropy loss, and the AdaDelta
per-parameter adaptive step (rho=0.95, eps=1e-6, no global learning rate).
Inputs are intensities scaled to [0, 1]. One epoch per task, mini-batches of
32, samples taken in dataset order so a run is fully deterministic given the
initialization seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .dataset import TaskSpec
from .seeding import generator_from
from .statefile import StateFormatError, StateReader, write_header  # noqa: F401 (re-export)

N_IN = 784
N_HIDDEN = 512
N_OUT = 10

ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-6
#: Elements per AdaDelta chunk (256 KiB of float64). One chunk's six operands
#: stay in L2 across the update's passes; on a 2-vCPU Xeon, chunks of 16384
#: and 32768 trained fastest, smaller ones pay NumPy's per-call overhead and
#: larger ones spill out of L2.
_CHUNK = 32768

MLP_MAGIC = b"MLPB"
MLP_FORMAT_VERSION = 1

_PARAM_ORDER = ("W1", "b1", "W2", "b2")
_SHAPES = {
    "W1": (N_IN, N_HIDDEN),
    "b1": (N_HIDDEN,),
    "W2": (N_HIDDEN, N_OUT),
    "b2": (N_OUT,),
}


@dataclass
class MlpParams:
    """Network parameters plus AdaDelta accumulators.

    Attributes:
        W1: (784, 512) input-to-hidden weights.
        b1: (512,) hidden biases.
        W2: (512, 10) hidden-to-output weights.
        b2: (10,) output biases.
        grad_sq: Per-parameter exponential average of squared gradients.
        update_sq: Per-parameter exponential average of squared updates.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    grad_sq: dict = field(default_factory=dict)
    update_sq: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _PARAM_ORDER:
            self.grad_sq.setdefault(name, np.zeros_like(getattr(self, name)))
            self.update_sq.setdefault(name, np.zeros_like(getattr(self, name)))


def mlp_init(seed: int) -> MlpParams:
    """Initialize parameters with He-style uniform weights and zero biases.

    Weight entries are drawn from U(-limit, limit) with
    ``limit = sqrt(6 / fan_in)``; accumulators start at zero.

    Args:
        seed: Root seed; the init stream is derived from it.

    Returns:
        Freshly initialized MlpParams.
    """
    rng = generator_from(seed, "mlp-init")
    limit1 = np.sqrt(6.0 / N_IN)
    limit2 = np.sqrt(6.0 / N_HIDDEN)
    return MlpParams(
        W1=rng.uniform(-limit1, limit1, size=(N_IN, N_HIDDEN)),
        b1=np.zeros(N_HIDDEN),
        W2=rng.uniform(-limit2, limit2, size=(N_HIDDEN, N_OUT)),
        b2=np.zeros(N_OUT),
    )


def _forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden ReLU activations, class probabilities) for a (B, 784) batch."""
    # One hidden array, updated in place: spare split-sized temporaries would
    # be fresh, page-faulting memory on every evaluation.
    hidden = x @ p.W1
    hidden += p.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ p.W2 + p.b2
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return hidden, exp / exp.sum(axis=1, keepdims=True)


def mlp_forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Compute class probabilities for normalized inputs.

    Args:
        p: Network parameters.
        x: Float array of shape (784,) or (B, 784) with values in [0, 1].

    Returns:
        Probabilities of shape (10,) or (B, 10), each row summing to 1.
    """
    squeeze = x.ndim == 1
    _, probs = _forward(p, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return probs[0] if squeeze else probs


def mlp_loss_and_grads(
    p: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, dict]:
    """Mean cross-entropy loss and its gradients for one mini-batch.

    Args:
        p: Network parameters.
        x: (B, 784) normalized inputs.
        y: (B,) integer labels.

    Returns:
        (loss, grads) where grads maps parameter name to an array of the
        parameter's shape.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    batch = len(x)
    hidden, probs = _forward(p, x)
    loss = float(-np.log(probs[np.arange(batch), y] + 1e-300).mean())

    dlogits = probs.copy()
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch
    dW2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ p.W2.T
    # ReLU's gradient mask; hidden <= 0 exactly where its input was <= 0.
    dhidden[hidden <= 0.0] = 0.0
    dW1 = x.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def adadelta_step(p: MlpParams, grads: dict) -> None:
    """Apply one AdaDelta update to every parameter in place.

    For each parameter: the squared-gradient average is updated, the step is
    ``-sqrt(update_avg + eps) / sqrt(grad_avg + eps) * grad``, and the
    squared-update average is updated with the step just taken.

    The update runs over each parameter's flat view in cache-sized chunks of
    ``_CHUNK`` elements through two scratch buffers, so it allocates nothing
    of parameter size. Every element goes through the operations of the
    whole-array formula in the same order, except that the weight subtracts
    ``q = sqrt(..) / sqrt(..) * grad`` where the formula adds ``-q``; IEEE
    negation is exact, so the bytes are the same.

    Args:
        p: Parameters (mutated); arrays and accumulators are C-contiguous.
        grads: Gradients keyed by parameter name.
    """
    tmp_buf = np.empty(_CHUNK)
    q_buf = np.empty(_CHUNK)
    for name in _PARAM_ORDER:
        w = _flat_view(getattr(p, name))
        eg = _flat_view(p.grad_sq[name])
        ex = _flat_view(p.update_sq[name])
        g = grads[name].reshape(-1)
        for start in range(0, w.size, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            g_c, eg_c, ex_c = g[chunk], eg[chunk], ex[chunk]
            tmp, q = tmp_buf[: len(g_c)], q_buf[: len(g_c)]
            eg_c *= ADADELTA_RHO
            np.multiply(g_c, 1.0 - ADADELTA_RHO, out=tmp)
            tmp *= g_c
            eg_c += tmp
            np.add(ex_c, ADADELTA_EPS, out=q)
            np.sqrt(q, out=q)
            np.add(eg_c, ADADELTA_EPS, out=tmp)
            np.sqrt(tmp, out=tmp)
            q /= tmp
            q *= g_c
            ex_c *= ADADELTA_RHO
            np.multiply(q, 1.0 - ADADELTA_RHO, out=tmp)
            tmp *= q
            ex_c += tmp
            w[chunk] -= q


def _flat_view(a: np.ndarray) -> np.ndarray:
    """The 1-D view of a C-contiguous array; writes go through to ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError("AdaDelta needs C-contiguous parameter arrays")
    return a.reshape(-1)


def mlp_train_epoch(p: MlpParams, task: TaskSpec, batch_size: int = 32) -> None:
    """Train one full epoch on a task's training split.

    Samples are consumed in dataset order in mini-batches (the final batch
    may be smaller), each scaled to [0, 1] as it is used. Mutates parameters
    and accumulators.

    Args:
        p: Parameters to train.
        task: The task providing the training split.
        batch_size: Mini-batch size (>= 1).

    Raises:
        ValueError: ``batch_size`` is below 1.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    images = task.train.images
    labels = task.train.labels
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size].astype(np.float64) / 255.0
        y = labels[start : start + batch_size]
        _, grads = mlp_loss_and_grads(p, x, y)
        adadelta_step(p, grads)


def mlp_evaluate(p: MlpParams, task: TaskSpec, batch_size: int = 1024) -> float:
    """Classification accuracy on a task's test split.

    Args:
        p: Network parameters.
        task: The task providing the test split.
        batch_size: Evaluation batch size (affects speed only).

    Returns:
        Fraction of correctly classified test images.
    """
    images = task.test.images.astype(np.float64)
    images /= 255.0
    labels = task.test.labels
    correct = 0
    for start in range(0, len(images), batch_size):
        probs = mlp_forward(p, images[start : start + batch_size])
        correct += int((probs.argmax(axis=1) == labels[start : start + batch_size]).sum())
    return correct / len(labels) if len(labels) else 0.0


def mlp_save(p: MlpParams, path: str) -> None:
    """Serialize parameters and accumulators to a binary file.

    Layout: magic ``MLPB``, uint32 format version, three uint32 layer sizes,
    then the little-endian float64 arrays W1, b1, W2, b2 followed by the
    grad_sq and update_sq accumulators in the same parameter order.
    """
    with open(path, "wb") as f:
        write_header(f, MLP_MAGIC, MLP_FORMAT_VERSION)
        f.write(struct.pack("<3I", N_IN, N_HIDDEN, N_OUT))
        for group in (
            {name: getattr(p, name) for name in _PARAM_ORDER},
            p.grad_sq,
            p.update_sq,
        ):
            for name in _PARAM_ORDER:
                f.write(np.ascontiguousarray(group[name], dtype="<f8").tobytes())


def mlp_load(path: str) -> MlpParams:
    """Load parameters saved by ``mlp_save``.

    Round-trips bit-exactly: predictions before save equal predictions
    after load on every input.

    Raises:
        StateFormatError: Bad magic, unsupported version, architecture
            mismatch, or truncated or oversized data.
    """
    with open(path, "rb") as f:
        reader = StateReader(f, path, MLP_MAGIC, MLP_FORMAT_VERSION)
        sizes = reader.unpack("<3I", "layer sizes")
        if sizes != (N_IN, N_HIDDEN, N_OUT):
            raise reader.error(f"architecture mismatch {sizes}")
        params, grad_sq, update_sq = (
            {name: reader.array(_SHAPES[name], name) for name in _PARAM_ORDER}
            for _ in range(3)
        )
        reader.finish()
    return MlpParams(**params, grad_sq=grad_sq, update_sq=update_sq)


class MlpAdapter:
    """Model adapter wiring the baseline into ``clbench.run_sequence``."""

    def __init__(self, seed: int, batch_size: int = 32):
        self.params = mlp_init(seed)
        self.batch_size = batch_size

    def train_task(self, task: TaskSpec) -> None:
        mlp_train_epoch(self.params, task, self.batch_size)

    def evaluate_task(self, task: TaskSpec) -> float:
        return mlp_evaluate(self.params, task)

    def save(self, path: str) -> None:
        mlp_save(self.params, path)

    def load(self, path: str) -> None:
        self.params = mlp_load(path)
