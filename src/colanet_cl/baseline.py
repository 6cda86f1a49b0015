"""Fully connected 784-512-10 reference network trained with AdaDelta.

The baseline for the continual-learning comparisons: one hidden layer of 512
ReLU units, a 10-way softmax output, cross-entropy loss, and the AdaDelta
per-parameter adaptive step (rho=0.95, eps=1e-6, no global learning rate).
Inputs are intensities scaled to [0, 1]. One epoch per task, mini-batches of
32, samples taken in dataset order so a run is fully deterministic given the
initialization seed.

The first MLP product in a process pins NumPy's bundled OpenBLAS to one
thread, so the weights do not depend on the thread count, and starts a worker
thread that shares AdaDelta's chunks and evaluation's row slices with the
caller, bit-identically. The pin is never undone: after a multi-threaded
product, OpenBLAS's threads spin for 10 to 50 ms, and slow the Python work that
follows ~1.76x. Without a bundled OpenBLAS nothing is pinned; no worker starts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dataset import TaskSpec
from .seeding import generator_from
from .statefile import StateReader, replacing, write_header

N_IN = 784
N_HIDDEN = 512
N_OUT = 10

ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-6
#: Elements per AdaDelta chunk (224 KiB of float64). Caller and worker hold two
#: chunks of scratch each, over 1 MiB at 32768; on a 2-vCPU Xeon 28672 trains
#: as fast, 16384 ~18% slower (GIL hand-offs); larger chunks spill out of L2.
_CHUNK = 28672
#: Test images per batch of ``mlp_evaluate`` (affects speed only).
_EVAL_BATCH = 1024

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
    grad_sq: dict
    update_sq: dict


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
    params = dict(
        W1=rng.uniform(-limit1, limit1, size=(N_IN, N_HIDDEN)),
        b1=np.zeros(N_HIDDEN),
        W2=rng.uniform(-limit2, limit2, size=(N_HIDDEN, N_OUT)),
        b2=np.zeros(N_OUT),
    )
    grad_sq = {name: np.zeros_like(a) for name, a in params.items()}
    update_sq = {name: np.zeros_like(a) for name, a in params.items()}
    return MlpParams(**params, grad_sq=grad_sq, update_sq=update_sq)


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden ReLU activations, class probabilities) for a (B, 784) batch.

    ``x`` is float64 with values in [0, 1]; each row of probabilities sums to 1.
    """
    _pinned_worker()  # before the process's first product
    # One hidden array, updated in place: spare split-sized temporaries would
    # be fresh, page-faulting memory on every evaluation.
    hidden = x @ p.W1
    hidden += p.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ p.W2 + p.b2
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return hidden, exp / exp.sum(axis=1, keepdims=True)


def mlp_grads(p: MlpParams, x: np.ndarray, y: np.ndarray) -> dict:
    """Gradients of the mean cross-entropy loss for one mini-batch.

    Args:
        p: Network parameters.
        x: (B, 784) float64 inputs with values in [0, 1].
        y: (B,) integer labels.

    Returns:
        The gradients, keyed by parameter name, each an array of the
        parameter's shape.
    """
    batch = len(x)
    hidden, probs = mlp_forward(p, x)
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
    return {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def adadelta_step(p: MlpParams, grads: dict) -> None:
    """Apply one AdaDelta update to every parameter in place.

    For each parameter: the squared-gradient average is updated, the step is
    ``-sqrt(update_avg + eps) / sqrt(grad_avg + eps) * grad``, and the
    squared-update average is updated with the step just taken.

    The update runs over each parameter's flat view in cache-sized chunks of
    ``_CHUNK`` elements, shared by the caller and the worker, each through
    its own scratch, so it allocates nothing of parameter size. Every element
    goes through the operations of the whole-array formula in the same order,
    except that the weight subtracts ``q = sqrt(..) / sqrt(..) * grad`` where
    the formula adds ``-q``; IEEE negation is exact, so the bytes are the same.

    Args:
        p: Parameters (mutated); arrays and accumulators are C-contiguous.
        grads: Gradients keyed by parameter name.
    """
    jobs = []
    for name in _PARAM_ORDER:
        w, eg, ex = map(_flat_view, (getattr(p, name), p.grad_sq[name], p.update_sq[name]))
        flat = (w, eg, ex, grads[name].reshape(-1))
        jobs += [[a[i : i + _CHUNK] for a in flat] for i in range(0, w.size, _CHUNK)]
    _shared(_adadelta_chunks, jobs)


def _adadelta_chunks(jobs) -> None:
    """Update each (w, eg, ex, g) chunk of ``jobs`` through own scratch."""
    tmp_buf, q_buf = np.empty((2, _CHUNK))
    for w_c, eg_c, ex_c, g_c in jobs:
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
        w_c -= q


def _flat_view(a: np.ndarray) -> np.ndarray:
    """The 1-D view of a C-contiguous array; writes go through to ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError("AdaDelta needs C-contiguous parameter arrays")
    return a.reshape(-1)


@cache
def _pinned_worker():
    """The worker, once NumPy's bundled OpenBLAS is pinned to one thread, or None."""
    import ctypes
    import glob
    import os
    from concurrent.futures import ThreadPoolExecutor

    libs = glob.glob(os.path.dirname(np.__file__) + "/../numpy.libs/*openblas*")
    names = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
    setters = [getattr(c, s) for c in map(ctypes.CDLL, libs) for s in names if hasattr(c, s)]
    if not setters:
        return None
    setters[0].argtypes, setters[0].restype = [ctypes.c_int], None
    setters[0](1)
    os.register_at_fork(after_in_child=_pinned_worker.cache_clear)  # thread is lost
    return ThreadPoolExecutor(1)


def _shared(drain, jobs: list) -> None:
    """``drain(jobs)`` on the caller and the worker over one shared iterator;
    returns when both are done, re-raising an exception of either."""
    jobs, worker = iter(jobs), _pinned_worker()
    ahead = worker.submit(drain, jobs) if worker else None
    drain(jobs)
    if ahead is not None:
        ahead.result()


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
    for images, labels in task.train.batches(batch_size):
        adadelta_step(p, mlp_grads(p, images / 255.0, labels))


def mlp_evaluate(p: MlpParams, task: TaskSpec) -> float:
    """Classification accuracy on a task's test split.

    The split is read ``_EVAL_BATCH`` images at a time, each batch scaled to
    [0, 1] into one reused buffer, so no copy of the whole split is made, and
    classified in two row slices, which the caller and the worker share.

    Args:
        p: Network parameters.
        task: The task providing the test split.

    Returns:
        Fraction of correctly classified test images.
    """
    buffer = np.empty((min(len(task.test), _EVAL_BATCH), N_IN))
    correct = []

    def classify(slices) -> None:
        for images, labels, out in slices:
            probs = mlp_forward(p, np.divide(images, 255.0, out=out))[1]
            correct.append(int((probs.argmax(axis=1) == labels).sum()))

    for images, labels in task.test.batches(_EVAL_BATCH):
        half = (len(labels) + 1) // 2
        rows = (slice(0, half), slice(half, len(labels)))
        _shared(classify, [(images[r], labels[r], buffer[r]) for r in rows])
    return sum(correct) / len(task.test) if len(task.test) else 0.0


def mlp_save(p: MlpParams, path: str) -> None:
    """Serialize parameters and accumulators to a binary file.

    Layout: magic ``MLPB``, uint32 format version, three uint32 layer sizes,
    then the little-endian float64 arrays W1, b1, W2, b2 followed by the
    grad_sq and update_sq accumulators in the same parameter order.
    """
    with replacing(path, "wb") as f:
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
