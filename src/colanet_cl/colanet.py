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

The race's winners are those of an exact race on the weights rounded to the
grid 2^-k, k = 52 - ceil(log2(steps_active * 784 * max|w|)), max|w| being
the largest of |w_min|, |w_max| and init_high (k = 39 at the defaults; k < 30
is rejected). Every partial sum of a potential is then a multiple of 2^-k
below 2^(52-k), exact in float64: winners do not depend on summation order,
BLAS, batch size or gathered pixels. Stored weights, plasticity and
thresholds stay unrounded. Both race shapes take float32 spike counts
cumulated from step 0 (``_spike_counts``) and race the windows ``_windows``
picks: one image at a time in training (``_race_image``, on blocks drawn by
``presentations``), ``_EVAL_BATCH`` at a time in evaluation (``race``).

The race sums in float32, over a pixel-major float32 copy of the grid
weights, and settles exactly only what those sums cannot decide. Let
T = steps_active, u = 2^-24 and A_n the sum of |grid weight| of neuron n
(2 * positive grid mass - signed grid sum, both exact). Without leak a
potential sums U <= 784 products of a count 0 <= c <= T and a float32
weight; conversion, product and U - 1 additions, in any order, fused or not,
give each term a relative error of at most (1 + u)^(U+1) - 1 <= (U + 2) u:
(U + 2) u T A_n in all. Below float32's normal range each conversion (times
c) and product errs by at most 2^-150 instead, and additions are exact:
(T + 1) U 2^-150 < 2^-124 more. With leak each step's drive (counts 0 or 1)
errs by (U + 2) u A_n + 2^-139 at most, the float64 recursion decays errors
by 1 - leak <= 1, and its roundings in the screen and the exact race add at
most 2^-34 T A_n (T <= 2^16, |potential| <= 1.01 T A_n): 786 u T A_n +
2^-123 + 2^-34 T A_n in all. So m_n = 2^-14 T A_n + 2^-120 bounds the error.
Each neuron keeps lo <= theta - m_n and hi >= theta + m_n, rounded outward,
and the race compares in float64. The earliest candidate (>= lo; lowest
index at its step) wins if it reaches hi, as no earlier one crossed; with
none, nothing crossed; else each neuron with a candidate below hi is raced
on its exact float64 sums.

The network state (config, weights, training RNG) serializes to a binary
file that round-trips bit-exactly, so sequential-task checkpointing
reproduces identical evaluation and identical continued training.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoder import encode_active_batch
from .seeding import generator_from
from .snncore import N_INPUTS, depress, potentiate
from .statefile import StateReader, replacing, write_header

STATE_MAGIC = b"CLNT"
STATE_FORMAT_VERSION = 1

#: Training draws blocks of at most this many images and 2^20 uniforms, but of
#: one image at least: a block's arrays stay small at any ``steps_active``.
_TRAIN_BATCH = 64

#: Evaluation draws and races a test split this many images at a time.
_EVAL_BATCH = 64

#: ``Network._refresh`` derives the race state of this many rows per pass.
_REFRESH_ROWS = 64

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
            reference configurations. Both counts must be in [1, 2^32):
            each fills a uint32 slot of the state file.
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
        steps_active: Active window length of a presentation (1 to 65535).
        seed: Root seed in [0, 2^64); initialization, training noise and
            evaluation noise streams all derive from it.
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
        if not (1 <= self.class_count < 2**32 and 1 <= self.microcolumns < 2**32):
            raise ValueError("class_count and microcolumns must be in [1, 2**32)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
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
        if not 1 <= self.steps_active <= 65535:
            raise ValueError("steps_active must be in [1, 65535]")
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


class Presentation(NamedTuple):
    """One drawn training image, as ``presentations`` yields it."""

    pixels: np.ndarray
    counts: np.ndarray
    eligibility: np.ndarray


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
        # The race's screen: pixel-major grid weights in float32.
        self._drive_w = np.empty((N_INPUTS, config.neuron_count), dtype=np.float32)
        self._pos_sum = np.empty(config.neuron_count)
        self._thresholds = np.empty(config.neuron_count)
        self._lows = np.empty(config.neuron_count)
        self._highs = np.empty(config.neuron_count)
        self._first_steps = np.empty(config.neuron_count, dtype=np.int64)
        self._refresh()

    # -- bookkeeping -------------------------------------------------------

    def _flat(self, column: int, micro: int) -> int:
        return column * self.config.microcolumns + micro

    def _refresh(self, first: int = 0, stop: int | None = None) -> None:
        """Derive the race's cached state of rows [first, stop) (every row by
        default) from their weights: float32 grid weights, positive mass,
        adaptive threshold u_const + alpha * positive mass, earliest step
        that can cross (``_first_step``) and screen bounds. Construction (and
        so ``load_state``) derives every row, ``_learn`` the row it changed.
        Each pass of up to ``_REFRESH_ROWS`` rows fills one scratch array and
        sums it with one reduction; the rest is scalar arithmetic per row, so
        a one-row call does its per-row work in Python floats."""
        cfg = self.config
        u_const, alpha, steps = cfg.u_const, cfg.alpha, cfg.steps_active
        nextafter, inf = math.nextafter, math.inf
        stop = len(self.weights) if stop is None else stop
        scratch = np.empty((3, min(_REFRESH_ROWS, stop - first), N_INPUTS))
        for start in range(first, stop, _REFRESH_ROWS):
            end = min(start + _REFRESH_ROWS, stop)
            rows = scratch[:, : end - start]
            weights = self.weights[start:end]
            np.maximum(weights, 0.0, out=rows[0])
            grid = _snap(weights, self._grid_bits, out=rows[1])
            np.maximum(grid, 0.0, out=rows[2])
            self._drive_w[:, start:end] = grid.T
            # Positive mass, signed grid sum and grid peak of each row; the
            # axis goes by position, as the keyword costs ~1 us more a call.
            sums = np.add.reduce(rows, 2).tolist()
            for flat, mass, signed, peak in zip(range(start, end), *sums):
                threshold = u_const + alpha * mass
                margin = math.ldexp(steps * (2.0 * peak - signed), -14)
                margin = nextafter(margin + 2.0**-120, inf)
                self._pos_sum[flat] = mass
                self._thresholds[flat] = threshold
                self._first_steps[flat] = _first_step(threshold, peak, steps)
                self._lows[flat] = nextafter(threshold - margin, -inf)
                self._highs[flat] = nextafter(threshold + margin, inf)

    # -- dynamics ----------------------------------------------------------

    def race(self, counts: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """Run the winner-take-all race for a batch of presentations.

        Each neuron integrates its summed synaptic drive step by step (with
        the configured leak); the first neuron to reach its adaptive
        threshold wins, ties at the same step going to the lowest flat
        index. Only first crossings matter, so neither inhibition nor the
        winner's own reset is simulated.

        Winners are those of the exact race on the grid weights
        (``config.race_grid_bits``) of the given pixels only; a pixel that
        never spikes adds exact zeros. The first of ``_windows`` is raced
        for the whole batch and the second only for rows with no crossing
        yet; with none, nothing is multiplied and every row is -1. Each
        window's potentials are one float32 product of its counts and the
        pixels' weight rows (``_potentials``); a row whose first candidate
        lies within its margin is settled on exact sums.

        Args:
            counts: (T, B, U) float32 spike counts over ``pixels``, cumulated
                from step 0 (step-major).
            pixels: (U,) indices of the input pixels the counts cover; they
                must include every pixel that spikes.

        Returns:
            (B,) int64 flat index of each presentation's winner, or -1 when
            no neuron fired within the active window.
        """
        winners = np.full(counts.shape[1], -1, dtype=np.int64)
        weights = self._drive_w[pixels]
        rows = slice(None)
        for start, stop in self._windows(len(counts)):
            window = counts[start:stop, rows]
            winners[rows] = self._screen(self._potentials(window, weights), window, pixels)
            rows = np.flatnonzero(winners < 0)
            if not rows.size:
                break
        return winners

    def _windows(self, steps: int) -> list[tuple[int, int]]:
        """The steps [start, stop) both races multiply, the second window only
        where the first has no crossing; none if t0, the least ``_first_step``,
        is past the window. Without leak no neuron crosses before t0: the
        halves of [t0, T), the first rounded up. With leak the first half of
        [0, T), then [0, T) again: a leaky potential needs every step's drive."""
        first = int(self._first_steps.min())
        if first >= steps:
            return []
        leak = self.config.leak != 0.0
        start = 0 if leak else first
        split = (start + steps + 1) // 2
        second = [(start if leak else split, steps)] if split < steps else []
        return [(start, split)] + second

    def _potentials(self, counts, weights) -> np.ndarray:
        """(t, b, C*M) potentials of a window's (t, b, U) counts, cumulated
        from step 0, and the (U, C*M) weight rows of the race's pixels; with
        leak each step's drive decays in float64 (``_decay``)."""
        leak = self.config.leak
        if leak != 0.0:
            counts = np.diff(counts, axis=0, prepend=np.float32(0.0))
        steps, rows, width = counts.shape
        out = (counts.reshape(steps * rows, width) @ weights).reshape(steps, rows, -1)
        return out if leak == 0.0 else _decay(out.astype(np.float64), leak)

    def _screen(self, u, counts, pixels) -> np.ndarray:
        """``race``'s winners of a window's (t, b, C*M) screened potentials,
        read as ``_first_crossing`` reads one: one argmax over a row's (step,
        neuron) crossings gives both, or -1 if it has none; a row whose first
        candidate is below its upper bound goes to ``_first_crossing`` with
        its (t, U) ``counts``."""
        batch, width = u.shape[1:]
        crossed = (u >= self._lows).transpose(1, 0, 2).reshape(batch, -1)
        first = crossed.argmax(axis=1)
        rows = np.arange(batch)
        hit = crossed[rows, first]
        step, winners = np.divmod(first, width)
        near = hit & (u[step, rows, winners] < self._highs[winners])
        winners[~hit] = -1
        for row in np.flatnonzero(near):
            winners[row] = self._first_crossing(u[:, row], counts[:, row], pixels)
        return winners

    def _exact(self, counts, pixels, neurons) -> np.ndarray:
        """Exact float64 potentials of ``neurons`` from a window of one
        presentation's ``counts``, on weights rounded as the grid; with leak
        the exact sums' steps differ by exactly each step's drive."""
        grid = _snap(self.weights[np.ix_(neurons, pixels)], self._grid_bits)
        exact = counts.astype(np.float64) @ grid.T
        leak = self.config.leak
        return exact if leak == 0.0 else _decay(np.diff(exact, axis=0, prepend=0.0), leak)

    def designated_microcolumn(self, column: int) -> int:
        """The index within ``column`` of its least-committed microcolumn
        (smallest positive mass; ties go to the lowest index)."""
        m = self.config.microcolumns
        sums = self._pos_sum[column * m : (column + 1) * m]
        return int(sums.argmin())

    def present_full(self, drawn: Presentation, label: int) -> PresentationOutcome:
        """Race one drawn training image (``_race_image``) and pick the
        microcolumn to reward."""
        winner = self._race_image(drawn.counts, drawn.pixels)
        raw = divmod(winner, self.config.microcolumns) if winner >= 0 else None
        effective = raw
        if raw is None or raw[0] != label:
            effective = (label, self.designated_microcolumn(label))
        return PresentationOutcome(raw, effective)

    def _race_image(self, counts: np.ndarray, pixels: np.ndarray) -> int:
        """``race``'s winner for one presentation, from its (T, U) spike
        counts over ``pixels`` cumulated from step 0, on the same ``_windows``;
        without leak each window is one 2-D product."""
        weights = self._drive_w[pixels]
        for start, stop in self._windows(len(counts)):
            window = counts[start:stop]
            if self.config.leak == 0.0:
                u = window @ weights
            else:
                u = self._potentials(window[:, None], weights)[:, 0]
            winner = self._first_crossing(u, window, pixels)
            if winner >= 0:
                return winner
        return -1

    def _first_crossing(self, u, counts, pixels) -> int:
        """The first crossing among one presentation's (t, C*M) screened
        potentials of a window (earliest step, lowest index), or -1. If the
        first candidate is below its upper bound, each neuron with a
        candidate below it is raced on ``_exact`` sums of the window."""
        crossed = u >= self._lows
        first = int(crossed.argmax())
        if not crossed.flat[first]:
            return -1
        if u.flat[first] >= self._highs[first % len(self._lows)]:
            return first % len(self._lows)
        neurons = (crossed & (u < self._highs)).any(axis=0).nonzero()[0]
        exact = self._exact(counts, pixels, neurons)
        crossed[:, neurons] = exact >= self._thresholds[neurons]
        first = int(crossed.argmax())
        return first % len(self._lows) if crossed.flat[first] else -1

    # -- plasticity --------------------------------------------------------

    def _learn(self, rule, flat: int, eligibility: np.ndarray) -> None:
        """Apply a plasticity rule to one neuron's row, then re-derive that
        row's race state (``_refresh``)."""
        rule(self.weights[flat], eligibility, self.config)
        self._refresh(flat, flat + 1)


def _snap(weights: np.ndarray, bits: int, out: np.ndarray | None = None) -> np.ndarray:
    """``weights`` rounded to the nearest multiple of 2^-bits (ties to even)."""
    grid = np.ldexp(weights, bits, out=out)
    np.rint(grid, out=grid)
    return np.ldexp(grid, -bits, out=grid)


def _decay(drives: np.ndarray, leak: float) -> np.ndarray:
    """Leaky potentials of float64 drives whose axis 0 runs from step 0, in
    place: u_t = d_t + (1 - leak) * u_(t-1)."""
    for t in range(1, len(drives)):
        drives[t] += (1.0 - leak) * drives[t - 1]
    return drives


def _first_step(threshold: float, peak: float, steps: int) -> int:
    """The earliest 0-based step s at which a neuron can reach ``threshold``,
    or ``steps`` when it cannot within the window.

    After step s every pixel has spiked at most s + 1 times, so no potential
    exceeds (s + 1) * ``peak``, the positive mass of the neuron's race row;
    leak only lowers it. The answer is the least s with
    (s + 1) * peak >= threshold. peak is a sum of grid weights, so each
    multiple m * peak with m <= steps is exact on the race's grid; the
    correctly rounded quotient threshold / peak then lies on the same side
    of every such m as the exact one, and its ceiling is exact.
    """
    if steps * peak < threshold:
        return steps
    return max(math.ceil(threshold / peak) - 1, 0)


def train_sample(net: Network, drawn: Presentation, label: int) -> PresentationOutcome:
    """Train on one labeled image: race, then reward/punish once.

    ``present_full`` picks the effective winner: the raw winner when it sits
    in the labeled column, else the teacher-designated microcolumn of that
    column. A raw winner that differs from it (a wrong column) is depressed
    first; then the effective winner is potentiated (with renormalization
    when enabled). At most two neurons change.

    Args:
        net: The network (mutated).
        drawn: The image, drawn by ``presentations``.
        label: True class in [0, class_count).

    Returns:
        The presentation outcome record.
    """
    if not 0 <= label < net.config.class_count:
        raise ValueError(f"label {label} outside class range")
    outcome = net.present_full(drawn, label)
    raw, effective = outcome.raw_winner, outcome.effective_winner
    if raw is not None and raw != effective:
        net._learn(depress, net._flat(*raw), drawn.eligibility)
    net._learn(potentiate, net._flat(*effective), drawn.eligibility)
    return outcome


def _spike_counts(spikes: np.ndarray) -> np.ndarray:
    """``encode_active_batch``'s (T, nnz) draw as the races' input: float32
    spike counts cumulated from step 0 with T - 1 row adds."""
    counts = spikes.astype(np.float32)
    for t in range(1, len(counts)):
        counts[t] += counts[t - 1]
    return counts


def presentations(images: np.ndarray, steps_active: int, rng: np.random.Generator):
    """Yield each of a (B, 784) block's images, from one draw: its nonzero
    ``pixels`` (ascending), a (T, n) view of the block's ``_spike_counts``,
    and its row of the block's float64 per-pixel counts, the ``eligibility``."""
    rows, pixels = np.divmod(np.flatnonzero(images != 0), N_INPUTS)
    counts = _spike_counts(encode_active_batch(images, steps_active, rng))
    eligibility = np.zeros(images.shape)
    eligibility[rows, pixels] = counts[-1]
    ends = np.cumsum(np.bincount(rows, minlength=len(images))).tolist()
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        yield Presentation(pixels[start:end], counts[:, start:end], eligibility[i])


def train_task(net: Network, task) -> None:
    """Train one epoch: a single online pass over the task's training split.

    Args:
        net: The network (mutated).
        task: TaskSpec whose train split is streamed in order.
    """
    steps = net.config.steps_active
    block = max(1, min(_TRAIN_BATCH, 2**20 // (steps * N_INPUTS)))
    for images, labels in task.train.batches(block):
        for drawn, label in zip(presentations(images, steps, net.rng), labels.tolist()):
            train_sample(net, drawn, label)


def evaluate_task(net: Network, task) -> float:
    """Accuracy of ``net`` (not mutated) on a task's test split: ``score``
    on its ``race_input``."""
    return score(net, race_input(net, task))


def race_input(net: Network, task) -> list:
    """A task's test split drawn for ``score``, per batch of ``_EVAL_BATCH``
    images: the (T, nnz) bool draw over its lit ``pixels``, its places in the
    batch, the labels. The noise comes from ``(config.seed, "eval",
    task_id)``, so a network draws the same input for a task every time."""
    rng = generator_from(net.config.seed, "eval", task.task_id)
    batches = []
    for images, labels in task.test.batches(_EVAL_BATCH):
        pixels = np.flatnonzero(images.any(axis=0))
        images = images[:, pixels]
        drawn = encode_active_batch(images, net.config.steps_active, rng)
        batches.append((drawn, pixels, np.flatnonzero(images), labels))
    return batches


def score(net: Network, batches: list) -> float:
    """Fraction of a ``race_input``'s images that ``net`` classifies right.

    Each batch's ``_spike_counts``, placed in one step-major (T, B, U)
    raster over its lit pixels, are raced without plasticity; an image's
    prediction is its winner's column (class 0 when nothing fires).
    """
    correct = images = 0
    for drawn, pixels, places, labels in batches:
        counts = np.zeros((len(drawn), len(labels), len(pixels)), dtype=np.float32)
        counts.reshape(len(drawn), -1)[:, places] = _spike_counts(drawn)
        winners = net.race(counts, pixels)
        predicted = np.where(winners < 0, 0, winners // net.config.microcolumns)
        correct += int((predicted == labels).sum())
        images += len(labels)
    return correct / images if images else 0.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: The config block of state format 1: the ColaNetConfig field each slot of
#: ``_CONFIG_PACK`` holds, in file order. Slot "reserved" held a silent-tail
#: length that nothing read; it is written as 10 and ignored on load.
_CONFIG_FIELDS = (
    "class_count", "microcolumns", "alpha", "ns", "u_const", "eta_plus",
    "eta_minus", "steps_active", "reserved", "seed", "leak", "w_min", "w_max",
    "init_high",
)
_CONFIG_PACK = "<II d d d d d II Q d d d d"


def save_state(net: Network, path: str) -> None:
    """Serialize the network to a binary state file.

    Layout: magic ``CLNT``, uint32 format version, packed config block
    (``_CONFIG_FIELDS``; ``ns`` None stored as infinity), little-endian
    float64 weight array (C*M x 784, row-major), then the training
    generator's state. Reloading reproduces identical race winners and
    bit-identical continued training.
    """
    values = dict(vars(net.config), reserved=10)
    values["ns"] = math.inf if values["ns"] is None else float(values["ns"])
    with replacing(path, "wb") as f:
        write_header(f, STATE_MAGIC, STATE_FORMAT_VERSION)
        f.write(struct.pack(_CONFIG_PACK, *(values[name] for name in _CONFIG_FIELDS)))
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
        del values["reserved"]
        try:
            config = ColaNetConfig(**values)
        except ValueError as exc:
            raise reader.error(f"invalid config block: {exc}") from None
        weights = reader.array((config.neuron_count, N_INPUTS), "weight payload")
        if max(-weights.min(), weights.max()) > config.weight_bound:
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
    # An all-zero grid (vmax 0) is divided by 1 instead and stays white.
    scaled = np.clip(net.weights / (np.abs(net.weights).max() or 1.0), -1.0, 1.0)
    fade = 255 - np.round(255 * np.abs(scaled)).astype(np.uint8)
    # Red keeps full strength on positive weights, blue on negative ones.
    faded = np.stack([scaled < 0, scaled != 0, scaled > 0], axis=-1)
    rgb = np.where(faded, fade[..., None], np.uint8(255))
    canvas = np.zeros((c, 29, m, 29, 3), dtype=np.uint8)
    canvas[:, :28, :, :28] = rgb.reshape(c, m, 28, 28, 3).transpose(0, 2, 1, 3, 4)
    canvas = canvas.reshape(c * 29, m * 29, 3)[:-1, :-1]
    height, width = canvas.shape[:2]
    with replacing(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(canvas.tobytes())


class ColaNetAdapter:
    """Model adapter wiring the columnar network into ``run_sequence``, which
    evaluates it task by task: it races each checkpoint on one ``race_input``."""

    evaluates_by_task = True

    def __init__(self, config: ColaNetConfig):
        self.net = Network(config)
        self.drawn_for, self.drawn = (None,), None

    def train_task(self, task) -> None:
        train_task(self.net, task)

    def evaluate_task(self, task) -> float:
        drawn_for = (task, self.net.config.seed, self.net.config.steps_active)
        if self.drawn_for[0] is not task or self.drawn_for[1:] != drawn_for[1:]:
            self.drawn = None  # drop the last draw before making the next
            self.drawn, self.drawn_for = race_input(self.net, task), drawn_for
        return score(self.net, self.drawn)

    def save(self, path: str) -> None:
        save_state(self.net, path)

    def load(self, path: str) -> None:
        self.net = load_state(path)
