"""The columnar spiking network: competition, teacher routing, readout, IO.

One column per class, M microcolumns per column, each microcolumn holding a
single neuron with 784 plastic input weights. A presentation encodes the
image as a spike train and races all C*M neurons through the active window:
the first neuron to reach its adaptive threshold wins and laterally inhibits
every other neuron for the rest of the presentation (global winner-take-all;
ties at the same step go to the lowest column index, then the lowest
microcolumn index). Lateral inhibition gates spike emission only — membrane
integration and eligibility accumulation continue — so the eligibility trace
at the end of a presentation equals the per-pixel input spike counts.

Training routes plasticity by reward: a winner in the labeled column is
potentiated; a winner in a wrong column is depressed and the teacher then
rewards the labeled column's least-committed microcolumn (the one with the
smallest positive weight sum), which recruits fresh capacity early on and
for novel tasks. Evaluation reads out the race winner's column (class 0
when nothing fires).

The race integrates each weight rounded to the grid 2^-k through a
pixel-major view kept beside the stored weights, and gathers only the pixels
that spiked. k = 52 - ceil(log2(steps_active * 784 * max|w|)), where max|w|
is the largest of |w_min|, |w_max| and init_high; k is 39 at the defaults,
and configs that would give k < 30 are rejected. No potential exceeds
steps_active * 784 * max|w| <= 2^(52-k) in magnitude, so every partial sum
is a multiple of 2^-k with at most 53 significant bits, exact in float64:
winners do not depend on summation order, BLAS threads, batch size or which
pixels were gathered. The stored weights, plasticity and thresholds stay
unrounded; each race weight differs from its stored weight by at most
2^-(k+1).

The network state (config, weights, training RNG) serializes to a binary
file that round-trips bit-exactly, so sequential-task checkpointing
reproduces identical evaluation and identical continued training.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .encoder import encode_active_batch
from .seeding import generator_from
from .snncore import N_INPUTS, depress, potentiate
from .statefile import StateFormatError, StateReader, write_header  # noqa: F401 (re-export)

STATE_MAGIC = b"CLNT"
STATE_FORMAT_VERSION = 1

#: Float fields that must be finite (``ns`` may be None).
_FINITE_FIELDS = (
    "alpha", "u_const", "eta_plus", "eta_minus", "leak", "w_min", "w_max", "init_high"
)


@dataclass(frozen=True)
class ColaNetConfig:
    """Hyperparameters of one columnar network.

    Attributes:
        class_count: Number of columns (one per class).
        microcolumns: Microcolumns per column (M); 15 and 45 are the
            reference configurations, any positive value is allowed.
        alpha: Adaptive-threshold coefficient (>= 0).
        ns: Virtual synapse count enabling potentiation renormalization:
            a number >= 0, or ``None`` to disable it (default). ``math.inf``
            means the same and is stored as ``None``.
        u_const: Fixed threshold component (> 0).
        eta_plus: Potentiation rate. The default 0.07 makes a single
            rewarded presentation write a usable template (one-shot
            imprinting), which calibration showed both classifies best and
            protects old tasks (strong templates raise their own adaptive
            thresholds out of reach of unrelated inputs).
        eta_minus: Depression rate; the calibrated ~4:1 ratio to eta_plus
            carves away systematic confusions in a few corrections.
        steps_active: Active window length of a presentation.
        steps_silent: Silent tail length. Nothing integrates silent steps,
            so it changes no result; it stays a field of the state format.
        seed: Root seed; initialization, training noise and evaluation
            noise streams all derive from it.
        leak: Per-step membrane decay fraction in [0, 1); 0 integrates
            without decay over the short window.
        w_min: Lower weight clamp.
        w_max: Upper weight clamp.
        init_high: Initial weights are drawn uniformly from [0, init_high].
            The default keeps initial mass negligible next to one imprint
            (~7 units), so templates start clean and, with ns=0
            renormalization, stay zero-mean; large values (e.g. 0.1) bury
            templates in noise mass and push the renormalization
            subtraction into the w_min clamp, breaking conservation.
    """

    class_count: int = 10
    microcolumns: int = 15
    alpha: float = 0.023817
    ns: float | int | None = None
    u_const: float = 1.0
    eta_plus: float = 0.07
    eta_minus: float = 0.3
    steps_active: int = 10
    steps_silent: int = 10
    seed: int = 0
    leak: float = 0.0
    w_min: float = -1.0
    w_max: float = 1.0
    init_high: float = 0.001

    def __post_init__(self):
        if self.ns == math.inf:
            object.__setattr__(self, "ns", None)
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.class_count < 1 or self.microcolumns < 1:
            raise ValueError("class_count and microcolumns must be >= 1")
        if not 0.0 <= self.leak < 1.0:
            raise ValueError("leak must be in [0, 1)")
        if self.u_const <= 0 or self.alpha < 0:
            raise ValueError("u_const must be > 0 and alpha >= 0")
        if self.eta_plus <= 0 or self.eta_minus <= 0:
            raise ValueError("plasticity rates must be positive")
        if self.ns is not None and not self.ns >= 0:
            raise ValueError("ns must be >= 0 (or None to disable)")
        if self.w_min > self.w_max:
            raise ValueError("w_min must be <= w_max")
        if self.init_high < 0:
            raise ValueError("init_high must be >= 0")
        if self.steps_active < 1 or self.steps_silent < 0:
            raise ValueError("steps_active must be >= 1 and steps_silent >= 0")
        if self.race_grid_bits < 30:
            raise ValueError("steps_active * 784 * max|w| must be <= 2**22")

    @property
    def renormalization_active(self) -> bool:
        """True when potentiation renormalization applies (ns set)."""
        return self.ns is not None

    @property
    def neuron_count(self) -> int:
        return self.class_count * self.microcolumns

    @property
    def weight_bound(self) -> float:
        """max|w|: no initial or trained weight exceeds it in magnitude."""
        return max(abs(self.w_min), abs(self.w_max), self.init_high)

    @property
    def race_grid_bits(self) -> int:
        """k of the race's weight grid 2^-k, from the largest potential.

        k is the largest integer with
        steps_active * 784 * weight_bound * 2^k <= 2^52.
        """
        peak = self.steps_active * N_INPUTS * self.weight_bound
        mantissa, exponent = math.frexp(peak)
        return 52 - (exponent - 1 if mantissa == 0.5 else exponent)


@dataclass
class PresentationOutcome:
    """Record of one training presentation.

    Attributes:
        raw_winner: The (column, microcolumn) that actually won the race,
            or None if nothing fired.
        effective_winner: The microcolumn that received reward routing: the
            raw winner when it sits in the labeled column, otherwise the
            teacher-designated least-committed microcolumn of that column.
    """

    raw_winner: tuple[int, int] | None
    effective_winner: tuple[int, int] | None


class Network:
    """A columnar network with a C x M grid of learning neurons.

    Attributes:
        config: The ColaNetConfig the network was built with.
        weights: float64 array of shape (C*M, 784); neuron (c, m) lives at
            flat row c*M + m, so flat order equals tie-break order.
        rng: Training-noise generator (serialized with the state).
    """

    def __init__(
        self,
        config: ColaNetConfig,
        weights: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config
        if weights is None:
            init_rng = generator_from(config.seed, "colanet-init")
            weights = init_rng.uniform(
                0.0, config.init_high, size=(config.neuron_count, N_INPUTS)
            )
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (config.neuron_count, N_INPUTS):
            raise ValueError("weights shape does not match config grid")
        self.rng = rng if rng is not None else generator_from(config.seed, "colanet-train")
        self._grid_bits = config.race_grid_bits
        # The race's view: pixel-major, each weight rounded to the grid.
        # Allocated before the positive-mass temporary: in the other order
        # glibc trimmed ~9 MB off the heap at the end of each run, and the
        # next run in the same process page-faulted it back during set-up.
        self._drive_w = _to_grid(
            self.weights.T, self._grid_bits,
            out=np.empty((N_INPUTS, config.neuron_count)),
        )
        self._pos_sum = np.maximum(self.weights, 0.0).sum(axis=1)

    # -- bookkeeping -------------------------------------------------------

    def _flat(self, column: int, micro: int) -> int:
        return column * self.config.microcolumns + micro

    def thresholds(self) -> np.ndarray:
        """Per-neuron adaptive thresholds u_const + alpha * positive mass."""
        return self.config.u_const + self.config.alpha * self._pos_sum

    def _refresh_neuron(self, flat: int) -> None:
        self._pos_sum[flat] = np.maximum(self.weights[flat], 0.0).sum()
        self._drive_w[:, flat] = _to_grid(self.weights[flat], self._grid_bits)

    # -- dynamics ----------------------------------------------------------

    def race(self, spikes: np.ndarray) -> np.ndarray:
        """Run the winner-take-all race for a batch of presentations.

        Each neuron integrates its summed synaptic drive step by step (with
        the configured leak); the first neuron to reach its adaptive
        threshold wins, ties at the same step going to the lowest flat
        index. Only first crossings matter, so neither inhibition nor the
        winner's own reset is simulated.

        Drives use the weights rounded to the grid 2^-k
        (``config.race_grid_bits``) and only the pixels that spiked
        somewhere in the batch. Without leak the potentials are one product
        of cumulative spike counts and those weight rows. |potential| never
        exceeds steps_active * 784 * max|w| <= 2^(52-k), so every sum of
        grid weights is exact: the winners are the same for any batching,
        pixel order or BLAS. With leak the decay products are rounded as
        usual, but the drives are still exact.

        Args:
            spikes: (B, T, 784) boolean active-window rasters.

        Returns:
            (B,) int64 flat index of each presentation's winner, or -1 when
            no neuron fired within the active window.
        """
        crossed = self._potentials(spikes) >= self.thresholds()
        fired = crossed.any(axis=2)
        # The earliest step at which any neuron crossed, then the lowest
        # flat index among the neurons crossing at that step.
        step = fired.argmax(axis=1)
        rows = np.arange(len(spikes))
        return np.where(fired[rows, step], crossed[rows, step].argmax(axis=1), -1)

    def _potentials(self, spikes: np.ndarray) -> np.ndarray:
        """(B, T, C*M) membrane potentials of a batch, from the race view."""
        batch, steps, _ = spikes.shape
        lit = np.flatnonzero(spikes.any(axis=(0, 1)))
        inputs = spikes[:, :, lit]
        leak = self.config.leak
        if leak == 0.0:
            counts = np.cumsum(inputs, axis=1, dtype=np.float64)
        else:
            counts = inputs.astype(np.float64)
        potential = (
            counts.reshape(batch * steps, lit.size) @ self._drive_w[lit]
        ).reshape(batch, steps, -1)
        if leak != 0.0:
            u = np.zeros_like(potential[:, 0, :])
            for t in range(steps):
                u = (1.0 - leak) * u + potential[:, t, :]
                potential[:, t, :] = u
        return potential

    def designated_microcolumn(self, column: int) -> int:
        """The column's least-committed microcolumn (smallest positive mass).

        Ties go to the lowest microcolumn index.

        Args:
            column: Column (class) index.

        Returns:
            Microcolumn index within the column.
        """
        m = self.config.microcolumns
        sums = self._pos_sum[column * m : (column + 1) * m]
        return int(sums.argmin())

    def present_full(
        self, img: np.ndarray, label: int
    ) -> tuple[PresentationOutcome, np.ndarray]:
        """Race one training image and pick the microcolumn to reward.

        The spikes are drawn from the network's training stream.

        Args:
            img: uint8 image of shape (784,).
            label: The true class.

        Returns:
            (outcome, eligibility) where eligibility is the per-pixel input
            spike count over the active window.
        """
        spikes = encode_active_batch(
            np.asarray(img)[None], self.config.steps_active, self.rng
        )
        winner = int(self.race(spikes)[0])
        raw = divmod(winner, self.config.microcolumns) if winner >= 0 else None
        effective = raw
        if raw is None or raw[0] != label:
            effective = (label, self.designated_microcolumn(label))
        eligibility = spikes[0].sum(axis=0, dtype=np.float64)
        return PresentationOutcome(raw, effective), eligibility

    # -- plasticity --------------------------------------------------------

    def _learn(self, rule, flat: int, eligibility: np.ndarray) -> None:
        """Apply a plasticity rule to one neuron's row, then re-cache its mass."""
        rule(self.weights[flat], eligibility, self.config)
        self._refresh_neuron(flat)


def _to_grid(w: np.ndarray, bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Round weights to the nearest multiple of 2^-bits (ties to even)."""
    out = np.ldexp(w, bits, out=out)
    np.rint(out, out=out)
    return np.ldexp(out, -bits, out=out)


def train_sample(net: Network, img: np.ndarray, label: int) -> PresentationOutcome:
    """Train on one labeled image: race, then reward/punish once.

    A correct raw winner is potentiated (with renormalization when enabled).
    A wrong raw winner is depressed and the teacher-designated microcolumn
    of the labeled column is potentiated instead. When nothing fires, only
    the designated microcolumn is potentiated. At most two neurons change.

    Args:
        net: The network (mutated).
        img: uint8 image of shape (784,).
        label: True class in [0, class_count).

    Returns:
        The presentation outcome record.
    """
    if not 0 <= label < net.config.class_count:
        raise ValueError(f"label {label} outside class range")
    outcome, eligibility = net.present_full(img, label)
    raw = outcome.raw_winner
    if raw is not None and raw[0] == label:
        net._learn(potentiate, net._flat(*raw), eligibility)
    else:
        if raw is not None:
            net._learn(depress, net._flat(*raw), eligibility)
        net._learn(potentiate, net._flat(*outcome.effective_winner), eligibility)
    return outcome


def train_task(net: Network, task) -> None:
    """Train one epoch: a single online pass over the task's training split.

    Args:
        net: The network (mutated).
        task: TaskSpec whose train split is streamed in order.
    """
    images = task.train.images
    labels = task.train.labels
    for i in range(len(images)):
        train_sample(net, images[i], int(labels[i]))


def evaluate_task(
    net: Network,
    task,
    seed: int | None = None,
    batch_size: int = 64,
    diagnostics: dict | None = None,
) -> float:
    """Accuracy on a task's test split (batched, no mutation).

    Each image is raced without plasticity and the race winner's column is
    its prediction; a presentation in which nothing fires predicts class 0
    and counts as silent. Encoding noise comes from a generator derived from
    ``(seed or config.seed, "eval", task_id)``, so evaluating the same
    network on the same task twice yields identical accuracy.

    Args:
        net: The network (not mutated).
        task: TaskSpec whose test split is evaluated.
        seed: Optional root seed override for the evaluation noise.
        batch_size: Number of images encoded and raced per batch.
        diagnostics: Optional dict collecting the "silent" counter.

    Returns:
        Fraction of correctly classified test images.
    """
    root = net.config.seed if seed is None else seed
    rng = generator_from(root, "eval", task.task_id)
    images = task.test.images
    labels = task.test.labels
    if len(images) == 0:
        return 0.0
    correct = 0
    silent = 0
    for start in range(0, len(images), batch_size):
        batch = slice(start, start + batch_size)
        spikes = encode_active_batch(images[batch], net.config.steps_active, rng)
        winners = net.race(spikes)
        quiet = winners < 0
        predicted = np.where(quiet, 0, winners // net.config.microcolumns)
        silent += int(quiet.sum())
        correct += int((predicted == labels[batch]).sum())
    if diagnostics is not None:
        diagnostics["silent"] = diagnostics.get("silent", 0) + silent
    return correct / len(labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: The config block packs every ColaNetConfig field in declaration order.
_CONFIG_PACK = "<II d d d d d II Q d d d d"
_CONFIG_FIELDS = tuple(f.name for f in fields(ColaNetConfig))


def save_state(net: Network, path: str) -> None:
    """Serialize the network to a binary state file.

    Layout: magic ``CLNT``, uint32 format version, packed config block
    (``ns`` None stored as infinity, ``seed`` as uint64), little-endian
    float64 weight array (C*M x 784, row-major), then the training
    generator's state. Reloading reproduces identical race winners and
    bit-identical continued training.
    """
    values = {name: getattr(net.config, name) for name in _CONFIG_FIELDS}
    values["ns"] = math.inf if values["ns"] is None else float(values["ns"])
    values["seed"] &= 0xFFFFFFFFFFFFFFFF
    with open(path, "wb") as f:
        write_header(f, STATE_MAGIC, STATE_FORMAT_VERSION)
        f.write(struct.pack(_CONFIG_PACK, *values.values()))
        f.write(np.ascontiguousarray(net.weights, dtype="<f8").tobytes())
        state = net.rng.bit_generator.state
        f.write(state["state"]["state"].to_bytes(16, "little"))
        f.write(state["state"]["inc"].to_bytes(16, "little"))
        f.write(struct.pack("<II", state["has_uint32"], state["uinteger"]))


def load_state(path: str) -> Network:
    """Load a network saved by ``save_state``.

    Raises:
        StateFormatError: Bad magic, unsupported version, an invalid config
            block, weights beyond the config's ``weight_bound`` (which the
            race's exactness rests on), an invalid generator state, or a
            truncated or oversized payload.
    """
    with open(path, "rb") as f:
        reader = StateReader(f, path, STATE_MAGIC, STATE_FORMAT_VERSION)
        values = dict(
            zip(_CONFIG_FIELDS, reader.unpack(_CONFIG_PACK, "config block"))
        )
        try:
            config = ColaNetConfig(**values)
        except ValueError as exc:
            raise reader.error(f"invalid config block: {exc}") from None
        weights = reader.array((config.neuron_count, N_INPUTS), "weight payload")
        if np.abs(weights).max() > config.weight_bound:
            raise reader.error("weight payload exceeds the config's weight bound")
        rng_bytes = reader.take(16 + 16 + 8, "rng state")
        reader.finish()
        has_uint32, uinteger = struct.unpack("<II", rng_bytes[32:40])
        if has_uint32 > 1 or not rng_bytes[16] & 1:
            raise reader.error("invalid rng state")
    bit_gen = np.random.PCG64()
    bit_gen.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(rng_bytes[:16], "little"),
            "inc": int.from_bytes(rng_bytes[16:32], "little"),
        },
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return Network(config, weights=weights, rng=np.random.Generator(bit_gen))


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------


def export_heatmaps(net: Network, path: str) -> None:
    """Export every receptive field as one tiled PPM image.

    The image is a class_count x microcolumns grid of 28x28 tiles separated
    by 1-pixel black lines. Weights map through a diverging colormap
    centered at zero: white for 0, pure red at the most positive magnitude,
    pure blue at the most negative, normalized by the largest absolute
    weight in the whole grid (an all-zero network renders uniform white).

    Args:
        net: The network to visualize.
        path: Output file; written as binary PPM (P6).
    """
    cfg = net.config
    c, m = cfg.class_count, cfg.microcolumns
    height = c * 28 + (c - 1)
    width = m * 28 + (m - 1)
    canvas = np.zeros((height, width, 3), dtype=np.uint8)
    vmax = np.abs(net.weights).max()
    for col in range(c):
        for micro in range(m):
            tile = net.weights[col * m + micro].reshape(28, 28)
            rgb = np.full((28, 28, 3), 255, dtype=np.uint8)
            if vmax > 0:
                scaled = np.clip(tile / vmax, -1.0, 1.0)
                fade = np.round(255 * np.abs(scaled)).astype(np.uint8)
                pos = scaled > 0
                neg = scaled < 0
                rgb[pos, 1] = 255 - fade[pos]
                rgb[pos, 2] = 255 - fade[pos]
                rgb[neg, 0] = 255 - fade[neg]
                rgb[neg, 1] = 255 - fade[neg]
            top = col * 29
            left = micro * 29
            canvas[top : top + 28, left : left + 28] = rgb
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(canvas.tobytes())


class ColaNetAdapter:
    """Model adapter wiring the columnar network into ``run_sequence``."""

    def __init__(self, config: ColaNetConfig):
        self.net = Network(config)

    def train_task(self, task) -> None:
        train_task(self.net, task)

    def evaluate_task(self, task) -> float:
        return evaluate_task(self.net, task)

    def save(self, path: str) -> None:
        save_state(self.net, path)

    def load(self, path: str) -> None:
        self.net = load_state(path)
