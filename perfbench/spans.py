"""Span recording for the traced benchmark run, and the per-layer metrics.

The tracer replaces the module attributes of rfid_doppler's public functions
with timing wrappers.  Callers inside the package look these names up at call
time (``baseband.synthesize_reply`` from the runners, the module-global
``add_awgn`` call inside frame assembly), so the wrappers see internal calls
as well as calls from the CLI.  Spans live in flat arrays in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# The package modules; configfile is counted with cli (its functions are not wrapped).
LAYERS = ("cli", "experiments", "baseband", "estimator", "bounds", "protocol")

_BASEBAND = ("encode_fm0", "encode_miller", "add_awgn", "synthesize_reply", "synthesize_burst")
_ENCODE = ("baseband.encode_fm0", "baseband.encode_miller")
_SYNTH = ("baseband.synthesize_reply", "baseband.synthesize_burst")
_ESTIMATOR = ("wipe_modulation", "estimate_doppler")

# Layers whose functions call each other: only their outermost call is a span.
OUTERMOST_ONLY = ("bounds", "protocol")

# An estimate this close to the search window's edge hit the edge.
EDGE_TOL_HZ = 1e-3
# An estimate off by more than this many standard deviations of its row's
# closed-form variance is an outlier.
OUTLIER_SIGMAS = 5.0


def _public_functions(module) -> list:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def traced_targets(modules: dict) -> list:
    """(layer, module, attribute) for every wrapped function."""
    experiments = modules["experiments"]
    targets = [("cli", modules["cli"], "main")]
    targets += [("experiments", experiments, name) for name in _public_functions(experiments)
                if name.startswith("run_") or name in ("figure_dataset", "write_csv")]
    targets += [("baseband", modules["baseband"], name) for name in _BASEBAND]
    targets += [("estimator", modules["estimator"], name) for name in _ESTIMATOR]
    for layer in ("bounds", "protocol"):
        targets += [(layer, modules[layer], name) for name in _public_functions(modules[layer])]
    return targets


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self, modules: dict):
        self.span_names: list = []      # name id -> "layer.function"
        self.span_layers: list = []     # name id -> index into LAYERS
        self.name = array("i")
        self.parent = array("i")        # span index of the enclosing span, -1 at the top
        self.job = array("i")
        self.start = array("q")         # perf_counter_ns
        self.end = array("q")
        self.extra: dict = {}           # span index -> captured result data
        self.job_index = -1
        self._stack: list = []
        self._inside: dict = {}         # layer -> [1 while inside an outermost-only layer]
        self._wiped: dict = {}          # id(WipedSignal) -> (signal, true Doppler shift)
        self._patches = []
        for layer, module, attr in traced_targets(modules):
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(layer, attr, original)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, layer: str, attr: str, fn):
        name_id = len(self.span_names)
        self.span_names.append(f"{layer}.{attr}")
        self.span_layers.append(LAYERS.index(layer))
        capture = self._capture_for(f"{layer}.{attr}", fn)
        # bounds and protocol functions call each other; only a layer's
        # outermost call gets a span, nested ones run unrecorded
        inside = self._inside.setdefault(layer, [0])
        step = 1 if layer in OUTERMOST_ONLY else 0
        add_name, add_parent, add_job = self.name.append, self.parent.append, self.job.append
        add_start, add_end, ends = self.start.append, self.end.append, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inside[0]:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_job(tracer.job_index)
            add_end(0)
            stack.append(idx)
            inside[0] += step
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                inside[0] -= step
                stack.pop()
            if capture is not None:
                capture(idx, args, kwargs, result)
            return result

        return traced

    def _capture_for(self, name: str, fn):
        if name in _SYNTH:
            def capture(idx, args, kwargs, frame):
                self.extra[idx] = frame.n_samples
            return capture
        if name == "estimator.wipe_modulation":
            signature = inspect.signature(fn)

            def capture(idx, args, kwargs, wiped):
                frame = signature.bind(*args, **kwargs).arguments["frame"]
                self._wiped[id(wiped)] = (wiped, frame.truth.f_d_hz)
            return capture
        if name == "estimator.estimate_doppler":
            signature = inspect.signature(fn)

            def capture(idx, args, kwargs, report):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                _, f_true = self._wiped.pop(id(bound.arguments["w"]), (None, math.nan))
                self.extra[idx] = (report.f_hat_hz, report.refinement_iterations,
                                   bound.arguments["search_halfwidth_hz"], f_true)
            return capture
        return None

    def save(self, path: Path, environment: dict) -> None:
        """Write every span (times in ns) and the run's environment as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 span_names=np.array(self.span_names),
                 environment=np.array(json.dumps(environment)))


def layer_metrics(tracer: Tracer, jobs: int, trials: int, row_variances: dict) -> dict:
    """Per-layer metrics from the recorded spans.

    ``jobs`` and ``trials`` count the traced jobs and their Monte Carlo
    trials; ``row_variances`` maps a traced job index to the closed-form
    variance of each of its CSV rows, in row order.  Bounds and protocol
    spans are outermost calls only, so their counts and busy times are taken
    there; self time is a span's duration minus that of its direct child spans.
    """
    n = len(tracer.start)
    names, parents, layer_of = tracer.name, tracer.parent, tracer.span_layers
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_ns = [0] * n
    layer_calls = [0] * len(LAYERS)
    layer_ns = [0] * len(LAYERS)
    total_ns: dict = defaultdict(int)
    for i in range(n):
        layer = layer_of[names[i]]
        if parents[i] >= 0:
            child_ns[parents[i]] += dur[i]
        layer_calls[layer] += 1
        layer_ns[layer] += dur[i]
        total_ns[tracer.span_names[names[i]]] += dur[i]
    self_ns: dict = defaultdict(int)
    for i in range(n):
        self_ns[tracer.span_names[names[i]]] += dur[i] - child_ns[i]

    def per(value, count):
        return value / count if count else 0.0

    synth = [i for i in range(n) if tracer.span_names[names[i]] in _SYNTH]
    frames = len(synth)
    synth_ms = sum(total_ns[name] for name in _SYNTH) / 1e6
    encode_ms = sum(total_ns[name] for name in _ENCODE) / 1e6
    awgn_ms = total_ns["baseband.add_awgn"] / 1e6

    estimates: dict = defaultdict(list)
    for i in range(n):
        if tracer.span_names[names[i]] == "estimator.estimate_doppler":
            estimates[tracer.job[i]].append(tracer.extra[i])
    n_est = sum(len(found) for found in estimates.values())
    iterations = edge_hits = outliers = 0
    for job, found in estimates.items():
        variances = row_variances[job]
        per_row = max(1, len(found) // len(variances))
        for k, (f_hat, iters, halfwidth, f_true) in enumerate(found):
            iterations += iters
            edge_hits += halfwidth - abs(f_hat) <= EDGE_TOL_HZ
            sd = math.sqrt(variances[min(k // per_row, len(variances) - 1)])
            outliers += not abs(f_hat - f_true) <= OUTLIER_SIGMAS * sd

    runner_self_ms = sum(ns for name, ns in self_ns.items()
                         if name.startswith("experiments.run_")) / 1e6
    bounds, protocol = LAYERS.index("bounds"), LAYERS.index("protocol")
    return {
        "baseband.awgn_ms_per_frame": per(awgn_ms, frames),
        "baseband.samples_per_frame": per(sum(tracer.extra[i] for i in synth), frames),
        "baseband.encode_ms_per_frame": per(encode_ms, frames),
        "baseband.synth_ms_per_frame": per(synth_ms, frames),
        "baseband.assembly_self_ms_per_frame": per(synth_ms - encode_ms - awgn_ms, frames),
        "estimator.estimate_ms_per_frame": per(total_ns["estimator.estimate_doppler"] / 1e6, n_est),
        "estimator.refine_iters_per_frame": per(iterations, n_est),
        "estimator.wipe_ms_per_frame": per(total_ns["estimator.wipe_modulation"] / 1e6, n_est),
        "estimator.edge_hit_share": per(edge_hits, n_est),
        "estimator.outlier_share": per(outliers, n_est),
        "experiments.self_ms_per_trial": per(runner_self_ms, trials),
        "experiments.write_csv_ms_per_job": per(total_ns["experiments.write_csv"] / 1e6, jobs),
        "cli.self_ms_per_job": per(self_ns["cli.main"] / 1e6, jobs),
        "bounds.calls_per_job": per(layer_calls[bounds], jobs),
        "bounds.us_per_call": per(layer_ns[bounds] / 1e3, layer_calls[bounds]),
        "bounds.busy_ms_per_job": per(layer_ns[bounds] / 1e6, jobs),
        "protocol.calls_per_job": per(layer_calls[protocol], jobs),
        "protocol.busy_ms_per_job": per(layer_ns[protocol] / 1e6, jobs),
    }
