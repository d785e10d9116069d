"""Spans around the public functions of the contactmodes layers.

:class:`Tracer` replaces every public function of the traced modules with
a wrapper that records one span per call (name, parent span, start, end,
RSS high-water at the end, and a few counters read from the result), in
every module of the package that holds a reference to it, the way
``tests/conftest.py`` patches ``joint_diagonalise``.  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

LAYERS = ("generators", "network", "sampling", "jointdiag", "modes", "clustering", "epidemic", "cli")


def rss_high_water_mb() -> float:
    """Resident-set high-water of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# counters read from a call's arguments and result
_HOOKS = {
    "jointdiag.joint_diagonalise": lambda args, kwargs, res: {"sweeps": len(res.off2_history) - 1},
    "sampling.sample_batch": lambda args, kwargs, res: {
        "trees": len(res.samples),
        "partial": sum(1 for s in res.samples if s.partial),
    },
    "modes.select_modes": lambda args, kwargs, res: {"k": res.k, "fit": res.n_samples},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "rss_mb", "info")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.rss_mb = 0.0
        self.info = None


class Tracer:
    """Install with :meth:`install`, undo with :meth:`restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span.info = hook(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()
                span.rss_mb = rss_high_water_mb()

        return traced

    def install(self, package: str = "contactmodes") -> None:
        layers = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        modules = [sys.modules[package]] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith(package + ".")
        ]
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                            self._undo.append((holder, key, fn))

    def restore(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], pass_start: float, wall_s: float) -> dict:
    """Per-layer figures of one pass.

    Spans that started before ``pass_start`` belong to the set-up (the
    trace generator of the `switching` and `wide` workloads) and count
    only towards ``generators.gen_s``.  Durations include child spans;
    ``*_self_s``, ``cli.self_s`` and ``epidemic.bootstrap_s`` are self
    times.
    """
    selfs = _self_times(spans)
    names = [s.name for s in spans]

    def dur(i):
        return spans[i].end - spans[i].start

    def parent_name(i):
        p = spans[i].parent
        return names[p] if p >= 0 else ""

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield names[p]
            p = spans[p].parent

    def where(name, pred=lambda i: True):
        return [i for i, n in enumerate(names) if n == name and pred(i)]

    def info_sum(idx, key):
        return sum(spans[i].info[key] for i in idx)

    def rss(idx):
        return max((spans[i].rss_mb for i in idx), default=0.0)

    in_pass = [i for i, s in enumerate(spans) if s.start >= pass_start]
    sample = where("sampling.sample_batch")
    jd_mode = where("jointdiag.joint_diagonalise", lambda i: parent_name(i) == "modes.per_mode_reconstruction")
    jd_all = where("jointdiag.joint_diagonalise", lambda i: parent_name(i) != "modes.per_mode_reconstruction")
    warm = where("jointdiag.eig_sym", lambda i: parent_name(i) == "jointdiag.joint_diagonalise")
    clus_eig = where("jointdiag.eig_sym", lambda i: any(a.startswith("clustering.") for a in ancestors(i)))
    select = where("modes.select_modes")
    per_mode = where("modes.per_mode_reconstruction")
    gen = [i for i, n in enumerate(names) if n.startswith("generators.") and not parent_name(i).startswith("generators.")]
    sir = where("epidemic.sir_experiment")
    run_sir = where("epidemic.run_sir")
    return {
        "sampling.sample_batch_s": sum(map(dur, sample)),
        "sampling.trees": info_sum(sample, "trees"),
        "sampling.partial_trees": info_sum(sample, "partial"),
        "sampling.rss_mb": rss(sample),
        "sampling.write_batch_s": sum(map(dur, where("sampling.write_batch"))),
        "network.write_trace_s": sum(map(dur, where("network.write_trace"))),
        "modes.write_report_s": sum(map(dur, where("modes.write_report"))),
        "cli.self_s": sum(selfs[i] for i, n in enumerate(names) if n.startswith("cli.")),
        "generators.gen_s": sum(map(dur, gen)),
        "jointdiag.overall_s": sum(map(dur, jd_all)),
        "jointdiag.overall_sweeps": info_sum(jd_all, "sweeps"),
        "jointdiag.rss_mb": rss(jd_all),
        "jointdiag.per_mode_s": sum(map(dur, jd_mode)),
        "jointdiag.per_mode_calls": len(jd_mode),
        "jointdiag.per_mode_sweeps": info_sum(jd_mode, "sweeps"),
        "jointdiag.warm_start_s": sum(map(dur, warm)),
        "jointdiag.eig_sym_calls": len(warm),
        "modes.select_modes_s": sum(map(dur, select)),
        "modes.k": spans[select[-1]].info["k"] if select else 0,
        "modes.fit_trees": info_sum(select, "fit"),
        "modes.per_mode_self_s": sum(selfs[i] for i in per_mode),
        "modes.rss_mb": rss(per_mode),
        "clustering.fiedler_dendrogram_s": sum(map(dur, where("clustering.fiedler_dendrogram"))),
        "clustering.eig_sym_calls": len(clus_eig),
        "clustering.shortest_path_graph_s": sum(map(dur, where("clustering.shortest_path_graph"))),
        "epidemic.sir_experiment_s": sum(map(dur, sir)),
        "epidemic.run_sir_s": sum(map(dur, run_sir)),
        "epidemic.run_sir_calls": len(run_sir),
        "epidemic.bootstrap_s": sum(selfs[i] for i in sir),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(selfs[i] for i in in_pass),
        "trace.spans": len(in_pass),
    }
