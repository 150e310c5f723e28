"""Spans around heavylab's public entry points, installed from outside.

`Tracer.install` replaces each entry point with a wrapper that records a
span (name, start, end, parent, attributes) in memory.  Functions are
replaced under every name a heavylab module binds them to, so a module
that did ``from .specmeasures import freeconv_transform`` is traced too.
An entry point that no longer exists is reported as absent and skipped.
`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); the span name is the layer plus the
# entry point, so "rng.exponentials" belongs to the rng layer.
ENTRY_POINTS = (
    ("rng.exponentials", "heavylab.rng", "exponentials"),
    ("rng.laplaces", "heavylab.rng", "laplaces"),
    ("measures.sample", "heavylab.measures", "sample"),
    ("measures.rearrangement_map", "heavylab.measures", "rearrangement_map"),
    ("lpp.last_passage_batch_2d", "heavylab.lpp", "last_passage_batch_2d"),
    ("matrixlab.sample_wigner", "heavylab.matrixlab", "sample_wigner"),
    ("matrixlab.assemble", "heavylab.matrixlab", "HermitianMatrix.__init__"),
    ("matrixlab.eig", "heavylab.matrixlab", "HermitianMatrix.spectrum"),
    ("specmeasures.stieltjes", "heavylab.specmeasures", "stieltjes"),
    ("specmeasures.freeconv", "heavylab.specmeasures", "freeconv_transform"),
    ("specmeasures.distance_dp", "heavylab.specmeasures", "distance_dp"),
    ("weights.tau_product", "heavylab.weights", "tau_product"),
    ("weights.inf_convolution", "heavylab.weights", "inf_convolution"),
    ("ratefuncs.rate_I_variational", "heavylab.ratefuncs", "rate_I_variational"),
    ("freeprob.eval_trace", "heavylab.freeprob", "eval_trace"),
    ("experiments.run_preset", "heavylab.experiments", "run_preset"),
    ("experiments.concentration_audit", "heavylab.experiments", "concentration_audit"),
    ("experiments.equivalent_error_curve", "heavylab.experiments", "equivalent_error_curve"),
)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count(args, kwargs):
    return {"count": int(_arg(args, kwargs, 2, "count"))}


def _sample_count(args, kwargs):
    return {"count": int(_arg(args, kwargs, 1, "count"))}


def _dp_shape(args, kwargs):
    r, rows, cols = _arg(args, kwargs, 0, "fields").shape
    return {"n": rows - 1, "cells": int(r * rows * cols), "replicas": int(r)}


def _matrix_n(args, kwargs):
    return {"n": int(args[0].n)}


def _freeconv_eta(args, kwargs):
    import numpy as np

    z = np.asarray(_arg(args, kwargs, 1, "z_nodes"), dtype=complex)
    return {"eta": float(z.imag.min()), "nodes": int(z.size)}


CLI_SUBCOMMANDS = ("sample", "lpp", "net", "freeconv", "spectrum", "rate")

# every per-layer metric a traced run reports: name -> (unit, better)
PER_LAYER = {
    "rng.calls": ("count", "lower"),
    "rng.self_s": ("s", "lower"),
    "rng.draws_per_s": ("1/s", "higher"),
    "measures.sample.calls": ("count", "lower"),
    "measures.sample.draws": ("count", "lower"),
    "measures.sample.self_s": ("s", "lower"),
    "measures.draws_per_s": ("1/s", "higher"),
    "measures.map_build_s": ("s", "lower"),
    "measures.map_builds": ("count", "lower"),
    "measures.map_hit_ratio": ("ratio", "higher"),
    "lpp.dp.calls": ("count", "lower"),
    "lpp.dp.cells": ("count", "lower"),
    "lpp.dp.self_s": ("s", "lower"),
    "lpp.dp_cells_per_s.n40": ("1/s", "higher"),
    "lpp.dp_cells_per_s.n160": ("1/s", "higher"),
    "matrixlab.eig.calls": ("count", "lower"),
    "matrixlab.eig_s.n200": ("s", "lower"),
    "matrixlab.eig_s.n1000": ("s", "lower"),
    "matrixlab.assemble.self_s": ("s", "lower"),
    "matrixlab.sample_wigner.self_s": ("s", "lower"),
    "specmeasures.stieltjes.calls": ("count", "lower"),
    "specmeasures.stieltjes.self_s": ("s", "lower"),
    "specmeasures.freeconv.solves": ("count", "lower"),
    "specmeasures.freeconv.self_s": ("s", "lower"),
    "specmeasures.freeconv.iters_per_solve.eta2": ("count", "lower"),
    "specmeasures.freeconv.iters_per_solve.eta0_01": ("count", "lower"),
    "specmeasures.distance_dp.self_s": ("s", "lower"),
    "weights.tau_product.calls": ("count", "lower"),
    "weights.tau_product.self_s": ("s", "lower"),
    "weights.inf_convolution.self_s": ("s", "lower"),
    "ratefuncs.rate_I_variational.self_s": ("s", "lower"),
    "ratefuncs.solves_per_search": ("count", "lower"),
    "freeprob.eval_trace.calls": ("count", "lower"),
    "freeprob.eval_trace.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.replicas": ("count", "higher"),
    "cli.invocations": ("count", "higher"),
    "cli.exit_nonzero": ("count", "lower"),
    **{f"cli.wall_s.{sub}": ("s", "lower") for sub in CLI_SUBCOMMANDS},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
    "trace.sampler_share": ("ratio", "lower"),
}

DESCRIBE = {
    "rng.exponentials": _count,
    "rng.laplaces": _count,
    "measures.sample": _sample_count,
    "lpp.last_passage_batch_2d": _dp_shape,
    "matrixlab.eig": _matrix_n,
    "specmeasures.freeconv": _freeconv_eta,
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._map_objects: list = []  # keeps returned maps alive so ids stay unique
        self._map_ids: set[int] = set()

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn):
        describe = DESCRIBE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                attrs = describe(args, kwargs) if describe is not None else {}
            except Exception:  # a changed signature costs attributes, not the run
                attrs = {}
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, attrs]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                attrs["error"] = True
                tracer._stack.pop()
                raise
            span[2] = time.perf_counter()
            tracer._stack.pop()
            if name == "measures.rearrangement_map":
                attrs["build"] = tracer._first_sight(result)
            return result

        return traced

    def _first_sight(self, obj) -> bool:
        if id(obj) in self._map_ids:
            return False
        self._map_ids.add(id(obj))
        self._map_objects.append(obj)
        return True

    def add_span(self, name, start, end, attrs=None, children=()):
        """Record a span timed elsewhere, with the spans a child process
        recorded inside it (perf_counter is one system-wide clock)."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, start, end, parent, attrs or {}])
        offset = index + 1
        for child in children:
            cname, cstart, cend, cparent, cattrs = child
            self.spans.append([cname, cstart, cend, cparent + offset if cparent >= 0 else index, cattrs])

    # ------------------------------------------------------------- patching

    def install(self):
        """Wrap every entry point that exists; remember the absent ones."""
        self.absent = []
        heavylab_modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "heavylab" or key.startswith("heavylab.")
        ]
        for name, module_name, path in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in heavylab_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ------------------------------------------------------------------ metrics


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, first, traced_wall_s):
    """Per-layer metrics from the spans of one pass (spans[first:]).

    Map builds are counted over every span, set-up included, since set-up
    is where a warm process builds its tables.
    """
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i in range(first, len(spans)):
        self_s[spans[i][0]] += own[i]
        calls[spans[i][0]] += 1

    def inside(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return p
            p = spans[p][3]
        return -1

    pass_spans = range(first, len(spans))
    m = {}

    rng_names = ("rng.exponentials", "rng.laplaces")
    rng_draws = sum(spans[i][4].get("count", 0) for i in pass_spans if spans[i][0] in rng_names)
    m["rng.calls"] = sum(calls[n] for n in rng_names)
    m["rng.self_s"] = sum(self_s[n] for n in rng_names)
    m["rng.draws_per_s"] = _ratio(rng_draws, m["rng.self_s"])

    sample = [i for i in pass_spans if spans[i][0] == "measures.sample"]
    sample_s = sum(spans[i][2] - spans[i][1] for i in sample)  # map lookups included
    m["measures.sample.calls"] = len(sample)
    m["measures.sample.draws"] = sum(spans[i][4].get("count", 0) for i in sample)
    m["measures.sample.self_s"] = self_s["measures.sample"]
    m["measures.draws_per_s"] = _ratio(m["measures.sample.draws"], sample_s)
    maps = [s for s in spans if s[0] == "measures.rearrangement_map"]
    builds = [s for s in maps if s[4].get("build") or s[4].get("error")]
    m["measures.map_build_s"] = sum(s[2] - s[1] for s in builds)
    m["measures.map_builds"] = len(builds)
    m["measures.map_hit_ratio"] = _ratio(len(maps) - len(builds), len(maps))

    dp = [i for i in pass_spans if spans[i][0] == "lpp.last_passage_batch_2d"]
    m["lpp.dp.calls"] = calls["lpp.last_passage_batch_2d"]
    m["lpp.dp.cells"] = sum(spans[i][4].get("cells", 0) for i in dp)
    m["lpp.dp.self_s"] = self_s["lpp.last_passage_batch_2d"]
    for n in (40, 160):
        at_n = [i for i in dp if spans[i][4].get("n") == n]
        m[f"lpp.dp_cells_per_s.n{n}"] = _ratio(
            sum(spans[i][4].get("cells", 0) for i in at_n), sum(own[i] for i in at_n)
        )

    eig = [i for i in pass_spans if spans[i][0] == "matrixlab.eig"]
    m["matrixlab.eig.calls"] = calls["matrixlab.eig"]
    for n in (200, 1000):
        at_n = [own[i] for i in eig if spans[i][4].get("n") == n]
        m[f"matrixlab.eig_s.n{n}"] = statistics.median(at_n) if at_n else 0.0
    m["matrixlab.assemble.self_s"] = self_s["matrixlab.assemble"]
    m["matrixlab.sample_wigner.self_s"] = self_s["matrixlab.sample_wigner"]

    m["specmeasures.stieltjes.calls"] = calls["specmeasures.stieltjes"]
    m["specmeasures.stieltjes.self_s"] = self_s["specmeasures.stieltjes"]
    m["specmeasures.freeconv.solves"] = calls["specmeasures.freeconv"]
    m["specmeasures.freeconv.self_s"] = self_s["specmeasures.freeconv"]
    iters = defaultdict(int)
    for i in pass_spans:
        if spans[i][0] == "specmeasures.stieltjes":
            solve = inside(i, "specmeasures.freeconv")
            if solve >= 0:
                iters[solve] += 1
    for label, lo, hi in (("eta2", 1.5, 2.5), ("eta0_01", 0.005, 0.02)):
        solves = [i for i in pass_spans if spans[i][0] == "specmeasures.freeconv"
                  and lo <= spans[i][4].get("eta", -1.0) <= hi]
        m[f"specmeasures.freeconv.iters_per_solve.{label}"] = _ratio(
            sum(iters[i] for i in solves), len(solves)
        )
    m["specmeasures.distance_dp.self_s"] = self_s["specmeasures.distance_dp"]

    m["weights.tau_product.calls"] = calls["weights.tau_product"]
    m["weights.tau_product.self_s"] = self_s["weights.tau_product"]
    m["weights.inf_convolution.self_s"] = self_s["weights.inf_convolution"]

    searches = calls["ratefuncs.rate_I_variational"]
    nested = sum(1 for i in pass_spans if spans[i][0] == "specmeasures.freeconv"
                 and inside(i, "ratefuncs.rate_I_variational") >= 0)
    m["ratefuncs.rate_I_variational.self_s"] = self_s["ratefuncs.rate_I_variational"]
    m["ratefuncs.solves_per_search"] = _ratio(nested, searches)

    m["freeprob.eval_trace.calls"] = calls["freeprob.eval_trace"]
    m["freeprob.eval_trace.self_s"] = self_s["freeprob.eval_trace"]

    m["experiments.self_s"] = sum(v for k, v in self_s.items() if k.startswith("experiments."))
    # replicas actually run: lattices through the DP plus sampled matrices
    m["experiments.replicas"] = (sum(spans[i][4].get("replicas", 0) for i in dp)
                                 + calls["matrixlab.sample_wigner"])

    cli = [i for i in pass_spans if spans[i][0].startswith("cli.")]
    m["cli.invocations"] = len(cli)
    m["cli.exit_nonzero"] = sum(1 for i in cli if spans[i][4]["exit"] != 0)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.wall_s.{sub}"] = sum(spans[i][2] - spans[i][1] for i in cli
                                     if spans[i][0] == f"cli.{sub}")

    # every span's self time lands in exactly one layer; what is left of
    # the pass is time outside all traced entry points
    accounted = sum(own[i] for i in pass_spans)
    m["trace.traced_wall_s"] = traced_wall_s
    m["trace.unaccounted_s"] = traced_wall_s - accounted
    m["trace.sampler_share"] = _ratio(sample_s, traced_wall_s)
    return m


def layer_self_times(spans, first):
    """Self time per layer (the span-name prefix) over spans[first:]."""
    own = self_times(spans)
    out = defaultdict(float)
    for i in range(first, len(spans)):
        out[spans[i][0].split(".")[0]] += own[i]
    return dict(out)
