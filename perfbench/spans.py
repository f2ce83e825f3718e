"""Spans around graphmend's module boundaries, recorded from outside.

Nothing under src/ changes: `Hooks` swaps public functions for
wrappers that record a span (name, start, end, parent) and, where
useful, a count.  pipeline imports its helpers with `from ... import`,
so they are wrapped as bound in `graphmend.pipeline`'s namespace;
patching the module of origin would miss them.  `accel`'s two kernels
are called by module attribute, so they are wrapped in `accel`.

A span's name is the per-module metric it feeds: its self time (its
duration minus what its child spans cover) is summed into `<name>_s`.
Counting done after a call is itself a `trace.count` span, so every
second of a traced run lands in exactly one named bucket.

A hooked function that no longer exists is skipped; the metrics that
depend on it are reported absent, never as 0.
"""

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, end=None, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class Tracer:
    """In-memory span and count recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(list)
        self._open = []

    def _enter(self, name):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append(Span(name, self.clock(), parent=parent))

    def _exit(self):
        self.spans[self._open.pop()].end = self.clock()

    def count(self, name, value):
        self.counts[name].append(value)

    def wrap(self, name, fn, after=None):
        """fn inside a span `name`; after(tracer, args, result) runs once
        the span is closed, inside a `trace.count` span."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                self._enter("trace.count")
                try:
                    after(self, args, result)
                finally:
                    self._exit()
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Self time per span name: duration minus the union of the parts of
    that interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(spans[i])
    out = defaultdict(float)
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo = max(c.start, edge)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


# ------------------------------------------------------------ counts


def _count_packages(t, args, result):
    t.count("splitter.packages", len(result.packages))


def _count_knn(t, args, result):
    features = args[0]
    t.count("graph.knn_gflop", 2.0 * features.n_samples ** 2 * features.dim / 1e9)


def _count_graph(t, args, result):
    t.count("graph.nnz", result.nnz)
    t.count("graph.isolated", int((np.diff(result.indptr) == 0).sum()))


def _count_rhs(t, args, result):
    Y = args[1]
    t.count("propagate.rhs_columns", int(np.prod(Y.shape[1:])))


def _count_vote(t, args, result):
    winners, _, _, ties = result
    t.count("correct.ties", int(np.sum(ties)))
    t.count("correct.abstain", int(np.sum(winners < 0)))


def _count_changed(t, args, result):
    t.count("correct.changed", int((result.corrected != args[0].corrected).sum()))


def _count_bytes(t, args, result):
    t.count("core.bytes_written", os.path.getsize(args[0]))


# (module, attribute, span name, count hook)
HOOKS = [
    ("pipeline", "main", "pipeline.self", None),
    ("pipeline", "run_correction", "pipeline.self", None),
    ("pipeline", "split_dataset", "splitter.split", _count_packages),
    ("pipeline", "mix_parameters", "splitter.mix", None),
    ("pipeline", "train_epoch", "branches.train", None),
    ("pipeline", "forward", "branches.embed", None),
    ("pipeline", "build_adjacency", "graph.knn", _count_knn),
    ("pipeline", "normalize_graph", "graph.normalize", _count_graph),
    ("pipeline", "solve_propagation", "propagate.solve", _count_rhs),
    ("pipeline", "build_partial_labels", "propagate.suggest", None),
    ("pipeline", "suggest_labels", "propagate.suggest", None),
    ("pipeline", "certainty_weights", "propagate.suggest", None),
    ("pipeline", "decide_all", "correct.vote", _count_vote),
    ("pipeline", "normalize_confidence", "correct.vote", None),
    ("pipeline", "apply_correction", "correct.vote", _count_changed),
    ("pipeline", "load_features", "core.load", None),
    ("pipeline", "load_label_columns", "core.load", None),
    ("pipeline", "save_report", "core.write", _count_bytes),
    ("pipeline", "save_model", "core.write", _count_bytes),
    ("pipeline", "save_labels", "core.write", _count_bytes),
    ("pipeline", "save_suggestions", "pipeline.dump", None),
    ("accel", "nearest_remaining", "accel.nearest", None),
]


def _trace_matvec_factory(tracer, make):
    """make_csr_matvec returns a bound matvec; wrap that, counting the
    nnz * columns each call multiplies."""

    def make_traced(indptr, indices, data):
        nnz = len(data)

        def work(t, args, result):
            t.count("accel.matvec_work", nnz * args[0].shape[1])

        return tracer.wrap("accel.matvec", make(indptr, indices, data), work)

    return make_traced


class Hooks:
    """The wrappers installed for one traced run; `restore` undoes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.installed = set()
        self._saved = []
        for mod_name, attr, name, after in HOOKS:
            self._patch(mod_name, attr, name, functools.partial(tracer.wrap, name, after=after))
        self._patch("accel", "make_csr_matvec", "accel.matvec",
                    lambda fn: _trace_matvec_factory(tracer, fn))

    def _patch(self, mod_name, attr, name, make_wrapper):
        try:
            module = importlib.import_module("graphmend." + mod_name)
        except ImportError:
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make_wrapper(fn))
        self.installed.add(name)

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []


# ------------------------------------------------------------ metrics

# every per-module metric, in report order, with its unit
LAYER_UNITS = {
    "accel.matvec_s": "s",
    "accel.matvec_calls": "count",
    "accel.matvec_rate": "nnz-col/s",
    "accel.nearest_s": "s",
    "accel.nearest_calls": "count",
    "propagate.solve_s": "s",
    "propagate.solves": "count",
    "propagate.rhs_columns": "count",
    "propagate.cg_iters_mean": "count",
    "propagate.cg_iters_max": "count",
    "propagate.suggest_s": "s",
    "graph.knn_s": "s",
    "graph.normalize_s": "s",
    "graph.knn_gflop": "GFLOP",
    "graph.knn_gflops_per_s": "GFLOP/s",
    "graph.nnz": "count",
    "graph.isolated": "count",
    "branches.train_s": "s",
    "branches.embed_s": "s",
    "splitter.split_s": "s",
    "splitter.packages": "count",
    "splitter.mix_s": "s",
    "correct.vote_s": "s",
    "correct.ties": "count",
    "correct.abstain": "count",
    "correct.changed": "count",
    "core.load_s": "s",
    "core.write_s": "s",
    "core.bytes_written": "B",
    "pipeline.dump_s": "s",
    "pipeline.self_s": "s",
    "trace.count_s": "s",
}


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer, installed):
    """Per-module metrics of one traced run.

    Times are self times.  Counts that are per call (packages per split,
    columns per solve, nnz per graph, ties per vote, changed labels per
    epoch) are means over the calls.  A metric whose hook is not
    installed is left out.
    """
    own = self_times(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    counts = tracer.counts
    out = {}
    for name in installed | {"trace.count"}:
        out[name + "_s"] = own.get(name, 0.0)
    if "accel.matvec" in installed:
        out["accel.matvec_calls"] = calls["accel.matvec"]
        if out["accel.matvec_s"] > 0:
            out["accel.matvec_rate"] = sum(counts["accel.matvec_work"]) / out["accel.matvec_s"]
    if "accel.nearest" in installed:
        out["accel.nearest_calls"] = calls["accel.nearest"]
    if "propagate.solve" in installed:
        out["propagate.solves"] = calls["propagate.solve"]
        out["propagate.rhs_columns"] = _mean(counts["propagate.rhs_columns"])
        if "accel.matvec" in installed:
            iters = Counter(
                s.parent for s in tracer.spans
                if s.name == "accel.matvec" and s.parent is not None
                and tracer.spans[s.parent].name == "propagate.solve"
            )
            per_solve = [iters[i] for i, s in enumerate(tracer.spans)
                         if s.name == "propagate.solve"]
            out["propagate.cg_iters_mean"] = _mean(per_solve)
            out["propagate.cg_iters_max"] = max(per_solve, default=0)
    if "graph.knn" in installed:
        out["graph.knn_gflop"] = _mean(counts["graph.knn_gflop"])
        if out["graph.knn_s"] > 0:
            out["graph.knn_gflops_per_s"] = sum(counts["graph.knn_gflop"]) / out["graph.knn_s"]
    if "graph.normalize" in installed:
        out["graph.nnz"] = _mean(counts["graph.nnz"])
        out["graph.isolated"] = _mean(counts["graph.isolated"])
    if "splitter.split" in installed:
        out["splitter.packages"] = _mean(counts["splitter.packages"])
    if "correct.vote" in installed:
        for key in ("correct.ties", "correct.abstain", "correct.changed"):
            out[key] = _mean(counts[key])
    if "core.write" in installed:
        out["core.bytes_written"] = sum(counts["core.bytes_written"])
    return {k: out[k] for k in LAYER_UNITS if k in out}


def call_times(spans, name):
    """Durations of every span called `name`, in seconds."""
    return [s.end - s.start for s in spans if s.name == name]
