"""Per-layer tracing of kaarbench from the outside.

While installed, the tracer replaces public functions and methods of the
kaarbench modules with wrappers that time and count each call; removing it
restores the originals, so untraced runs execute the program unchanged.  A
layer is a module, and each wrapped function belongs to one layer span.  A
span's self time is its duration minus the durations of the spans opened
inside it.  Spans are aggregated in memory as they close: self time, calls,
and work counts taken at the same boundary (elements, pairs, experts,
rounds).

Modules bind each other's functions by name (`from .kernel import gram`),
so a wrapper is installed on every module attribute that holds the
original, not only on the defining module.  The binding `kaarbench.kaar.gram`
gets its own wrapper, because a call through it is a refactorization.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from kaarbench import adversary, cli, configio, effdim, ewa, harness, kaar, kernel, special

# every per-layer metric the traced run reports, with its unit; the
# BENCHMARK.json per_layer list names the same metrics plus trace.overhead_s
LAYER_METRICS = (
    ("special.bessel_k.self_s", "s"),
    ("special.bessel_k.calls", "count"),
    ("special.bessel_k.elements", "count"),
    ("special.gamma.self_s", "s"),
    ("special.gamma.calls", "count"),
    ("kernel.kernel_of_dist.self_s", "s"),
    ("kernel.kernel_of_dist.elements", "count"),
    ("kernel.gram.self_s", "s"),
    ("kernel.gram.pairs", "count"),
    ("kaar.predict.self_s", "s"),
    ("kaar.predict.calls", "count"),
    ("kaar.update.self_s", "s"),
    ("kaar.update.calls", "count"),
    ("kaar.refactorizations", "count"),
    ("effdim.effective_dimension.self_s", "s"),
    ("effdim.effective_dimension.calls", "count"),
    ("ewa.build_net.self_s", "s"),
    ("ewa.experts", "count"),
    ("ewa.ewa_predict.self_s", "s"),
    ("ewa.ewa_update.self_s", "s"),
    ("ewa.rounds", "count"),
    ("adversary.mollifier_norm.self_s", "s"),
    ("adversary.stream.self_s", "s"),
    ("adversary.comparator_evaluate.self_s", "s"),
    ("harness.run_game.self_s", "s"),
    ("harness.kahan_cumsum.self_s", "s"),
    ("harness.games", "count"),
    ("harness.rounds", "count"),
    ("harness.rounds_unplayed", "count"),
    ("harness.write.self_s", "s"),
    ("configio.parse.self_s", "s"),
    ("cli.self_s", "s"),
)


def _size(args, _kwargs, _result):
    return float(np.size(args[1]))


def _pairs(args, _kwargs, _result):
    n = len(np.asarray(args[1]))
    return n * (n - 1) / 2.0


def _rounds_played(_args, _kwargs, trace):
    return float(trace.n)


def _rounds_unplayed(args, _kwargs, trace):
    return float(args[0].horizon - trace.n)


def _experts(_args, _kwargs, net):
    return float(net.n_experts)


def _one(_args, _kwargs, _result):
    return 1.0


# (layer span, owner, attribute, {count metric: counter})
_FUNCTIONS = (
    ("special.bessel_k", special, "bessel_k",
     {"special.bessel_k.calls": _one, "special.bessel_k.elements": _size}),
    ("special.gamma", special, "gamma", {"special.gamma.calls": _one}),
    ("kernel.kernel_of_dist", kernel, "kernel_of_dist", {"kernel.kernel_of_dist.elements": _size}),
    ("kernel.gram", kernel, "gram", {"kernel.gram.pairs": _pairs}),
    ("effdim.effective_dimension", effdim, "effective_dimension",
     {"effdim.effective_dimension.calls": _one}),
    ("ewa.build_net", ewa, "build_net", {"ewa.experts": _experts}),
    ("ewa.ewa_predict", ewa, "ewa_predict", {}),
    ("ewa.ewa_update", ewa, "ewa_update", {"ewa.rounds": _one}),
    ("adversary.mollifier_norm", adversary, "mollifier_norm", {}),
    ("adversary.stream", adversary, "iid_stream", {}),
    ("adversary.stream", adversary, "shattering_stream", {}),
    ("harness.run_game", harness, "run_game",
     {"harness.games": _one, "harness.rounds": _rounds_played,
      "harness.rounds_unplayed": _rounds_unplayed}),
    ("harness.kahan_cumsum", harness, "kahan_cumsum", {}),
    ("harness.write", harness, "write_trace_csv", {}),
    ("harness.write", harness, "write_summary_csv", {}),
    ("harness.write", harness, "write_plot_data", {}),
    ("harness.write", harness, "write_gram_csv", {}),
    ("harness.write", harness, "write_stream_csv", {}),
    ("harness.write", harness, "write_effdim_csv", {}),
    ("configio.parse", configio, "parse_config", {}),
    ("configio.parse", configio, "parse_config_text", {}),
    ("configio.parse", configio, "apply_overrides", {}),
    ("configio.parse", configio, "write_config", {}),
    ("cli", cli, "main", {}),
)

_METHODS = (
    ("kaar.predict", kaar.KaarForecaster, "predict", {"kaar.predict.calls": _one}),
    ("kaar.update", kaar.KaarForecaster, "update", {"kaar.update.calls": _one}),
    ("adversary.comparator_evaluate", adversary.RepresenterComparator, "evaluate", {}),
    ("adversary.comparator_evaluate", adversary.BumpComparator, "evaluate", {}),
    ("adversary.comparator_evaluate", adversary.ZeroComparator, "evaluate", {}),
)


class Tracer:
    """Aggregated span self times and counts for the kaarbench layers."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span, innermost last
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counters: dict):
        totals = self.totals
        open_spans = self._open
        clock = time.perf_counter
        self_key = layer + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[self_key] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            for key, counter in counters.items():
                totals[key] += counter(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "kaarbench" or name.startswith("kaarbench."))]
        wrappers = {}
        for layer, owner, attr, counters in _FUNCTIONS:
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(layer, original, counters)
        gram = kernel.gram
        refactor = self._wrap("kernel.gram", gram,
                              {"kernel.gram.pairs": _pairs, "kaar.refactorizations": _one})
        for module in modules:
            for attr, value in list(vars(module).items()):
                if module is kaar and value is gram:
                    self._patch(module, attr, refactor)
                elif id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for layer, cls, attr, counters in _METHODS:
            self._patch(cls, attr, self._wrap(layer, cls.__dict__[attr], counters))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def snapshot(self) -> dict[str, float]:
        """Current totals of every reported layer metric."""
        return {name: self.totals.get(name, 0.0) for name, _ in LAYER_METRICS}
