"""Spans around calls into the program, recorded from the benchmark's side.

The program is not edited: a call is timed by replacing the name where its
caller looks it up (a module global or a class attribute) with a wrapper for
the duration of one run, then putting the original back. Spans are kept in
memory as ``(name, start, end, parent)``; a span's self time is its duration
minus the durations of its direct children.

Two sets of names are wrapped. ``STAGES`` (the adapter calls ``run_sequence``
makes, plus the capture of its arguments and result) is wrapped on every
run: it is a few dozen calls per run and yields the end-to-end metrics.
``LAYERS`` adds the per-module calls, down to one span per training sample,
and is wrapped only on traced runs.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

from colanet_cl import baseline, cli, colanet, dataset


class Recorder:
    """Spans, counters and captured values of one run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.captured: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped to record a span; ``hook`` sees each call.

        ``hook(recorder, args, kwargs, result)`` runs after the span closed,
        so its own cost falls in the parent's self time.
        """

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def durations(self, name: str) -> np.ndarray:
        return np.array([end - start for n, start, end, _ in self.spans if n == name])

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Per name: total time, self time and call count."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        children: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[index]
            calls[name] += 1
        return total, own, calls


# -- hooks: counts taken where the work happens ------------------------------


def _capture_sequence(rec, args, kwargs, profile):
    rec.captured["adapter"] = args[0]
    rec.captured["tasks"] = args[1]
    rec.captured["profile"] = profile


def _count_split(split: str, key: str):
    def hook(rec, args, kwargs, result):
        rec.counts[key] += len(getattr(args[1], split))

    return hook


def _count_stream(rec, args, kwargs, tasks):
    rec.counts["stream_bytes"] += sum(
        split.images.nbytes + split.labels.nbytes
        for task in tasks
        for split in (task.train, task.test)
    )


def _count_outcome(rec, args, kwargs, outcome):
    label = args[2]
    raw = outcome.raw_winner
    if raw is None:
        rec.counts["silent_train"] += 1
    if raw is not None and raw[0] == label:
        rec.counts["raw_correct"] += 1
        rec.counts["updates"] += 1
    else:
        rec.counts["teacher_forced"] += 1
        rec.counts["updates"] += 1 if raw is None else 2


def _count_draws(rec, args, kwargs, spikes):
    rec.counts["draws"] += spikes.size


def _count_file(key):
    def hook(rec, args, kwargs, result):
        rec.counts[key] += os.path.getsize(args[1])

    return hook


def _with_diagnostics(evaluate, rec: Recorder):
    """``evaluate_task`` that always collects its silent-presentation count.

    The adapter passes no diagnostics dict; supplying one changes no result.
    """

    def evaluate_task(net, task, seed=None, batch_size=256, diagnostics=None):
        counters = {} if diagnostics is None else diagnostics
        accuracy = evaluate(net, task, seed, batch_size, counters)
        if diagnostics is None:
            rec.counts["eval_silent"] += counters.get("silent", 0)
        return accuracy

    return evaluate_task


# (owner, attribute, span name, hook); the owner is where the caller looks
# the name up.
STAGES = [
    (cli, "run_sequence", "clbench.run_sequence", _capture_sequence),
]
for _adapter in (colanet.ColaNetAdapter, baseline.MlpAdapter):
    STAGES += [
        (_adapter, "train_task", "adapter.train_task",
         _count_split("train", "train_images")),
        (_adapter, "evaluate_task", "adapter.evaluate_task",
         _count_split("test", "eval_images")),
        (_adapter, "save", "adapter.save", None),
        (_adapter, "load", "adapter.load", None),
    ]

LAYERS = [
    (cli, "make_permuted_stream", "dataset.make_permuted_stream", _count_stream),
    (dataset, "load_idx", "dataset.load_idx", None),
    (dataset, "gen_permutation", "dataset.gen_permutation", None),
    (dataset, "apply_permutation", "dataset.apply_permutation", None),
    (cli, "input_hashes", "cli.input_hashes", None),
    (cli, "build_adapter", "cli.build_adapter", None),
    (cli, "compute_report", "clbench.compute_report", None),
    (colanet, "train_task", "colanet.train_task", None),
    (colanet, "train_sample", "colanet.train_sample", _count_outcome),
    (colanet.Network, "present_full", "colanet.present_full", None),
    (colanet, "evaluate_task", "colanet.evaluate_task", None),
    (colanet, "encode_active_batch", "encoder.encode_active_batch", _count_draws),
    (colanet, "save_state", "colanet.save_state", _count_file("state_bytes")),
    (colanet, "load_state", "colanet.load_state", None),
    (baseline, "mlp_train_epoch", "baseline.mlp_train_epoch",
     _count_split("train", "mlp_train_images")),
    (baseline, "mlp_evaluate", "baseline.mlp_evaluate",
     _count_split("test", "mlp_eval_images")),
    (baseline, "mlp_save", "baseline.mlp_save", _count_file("mlp_state_bytes")),
    (baseline, "mlp_load", "baseline.mlp_load", None),
]


@contextlib.contextmanager
def instrument(rec: Recorder, traced: bool):
    """Wrap the stage names, and the layer names when ``traced``, for one run."""
    saved = []
    try:
        for owner, attr, name, hook in STAGES + (LAYERS if traced else []):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            fn = original
            if name == "colanet.evaluate_task":
                fn = _with_diagnostics(original, rec)
            setattr(owner, attr, rec.wrap(name, fn, hook))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
