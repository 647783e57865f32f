"""Spans around binorm_gs's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each name in TARGETS, in the module where
the calling code looks it up, by a wrapper that records a span (name,
layer, start, end, parent span, pass id) and puts the original back when
the block ends.  Wrappers record only between ``begin_pass`` and
``end_pass``; pass 0 is the workload's set-up.  Spans stay in memory and
``write`` dumps them when the run ends.

Layers: solver, fft, energy, model, grid.io, analysis, inequalities, cli.
A layer's busy time counts only its outermost spans; its self time is the
part of its spans not covered by their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import os
import statistics
import time
from pathlib import Path

import numpy.fft

# Modules come from importlib because the package rebinds the name `energy`
# to the function of that name.
analysis = importlib.import_module("binorm_gs.analysis")
cli = importlib.import_module("binorm_gs.cli")
energy = importlib.import_module("binorm_gs.energy")
model = importlib.import_module("binorm_gs.model")
solver = importlib.import_module("binorm_gs.solver")

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def _fft_bytes(args, kwargs, result):
    return args[0].nbytes + result.nbytes


def _path_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _solve_info(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {
        "iterations": result.iterations,
        "starts": result.diagnostics.get("starts", 0),
        "converged": result.converged,
        "class": problem_class(spec),
    }


def _scan_info(args, kwargs, result):
    return {"points": len(result.points), "trusted": len(result.points) - sum(result.untrusted)}


def _report_points(args, kwargs, result):
    return getattr(result, "points", 0)


def _artifacts(args, kwargs, result):
    out_dir = Path(kwargs["out_dir"])
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def problem_class(spec) -> str:
    """pinned: a component with mass sits in a potential; scalar: one mass;
    free: two masses, no potential; empty: no mass at all."""
    active = [(a, v) for a, v in ((spec.alpha1, spec.v1), (spec.alpha2, spec.v2)) if a > 0]
    if not active:
        return "empty"
    if any(v.kind != "zero" for _, v in active):
        return "pinned"
    return "scalar" if len(active) == 1 else "free"


# (module, attribute, layer, measure) for every wrapped lookup site.
TARGETS = (
    *((numpy.fft, name, "fft", _fft_bytes) for name in FFT_NAMES),
    (solver, "minimize", "solver", _solve_info),
    (solver, "minimize_scalar", "solver", None),
    (solver, "scan_subadditivity", "solver", _scan_info),
    (solver, "energy", "energy", None),
    (solver, "multipliers", "energy", None),
    (solver, "gradient", "energy", None),
    (solver, "validate", "model", None),
    (solver, "sample_potential", "model", None),
    (energy, "sample_potential", "model", None),
    (model, "validate", "model", None),
    (model, "sample_potential", "model", None),
    (model, "read_field_csv", "grid.io", None),
    (analysis, "energy", "energy", None),
    (cli, "run", "cli", _artifacts),
    (cli, "minimize", "solver", _solve_info),
    (cli, "minimize_scalar", "solver", None),
    (cli, "scan_subadditivity", "solver", _scan_info),
    (cli, "validate", "model", None),
    (cli, "write_field_csv", "grid.io", _path_bytes),
    *((cli, name, "analysis", None) for name in (
        "classify_decay_regime", "convolution_limit_check", "decay_fit",
        "glue_energy_gap", "pohozaev_check")),
    *((cli, name, "inequalities", _report_points) for name in (
        "check_elementary_p3", "check_lemma34i", "check_lemma34ii",
        "min_constant_34i", "min_constant_34ii", "sufficient_constant_34ii")),
)

# Span record fields, in the order they are stored and written.
FIELDS = ("id", "name", "layer", "start", "end", "parent", "pass_id", "attrs")


def installed_wrappers() -> list[str]:
    """Names in TARGETS that currently hold a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in TARGETS
        if hasattr(getattr(module, attr), "__bench_span__")
    ]


def assert_uninstalled() -> None:
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {', '.join(left)}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pass_id: int | None = None

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id

    def end_pass(self) -> None:
        self._pass_id = None

    def _wrap(self, fn, name: str, layer: str, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self._pass_id is None:
                return fn(*args, **kwargs)
            span = [len(spans), name, layer, 0.0, 0.0,
                    stack[-1] if stack else -1, self._pass_id, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if measure is not None:
                span[7] = measure(args, kwargs, result)
            return result

        wrapper.__bench_span__ = name
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        originals = []
        try:
            for module, attr, layer, measure in TARGETS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer, measure))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            writer.writerows(self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: the (low) median over traced passes of each
        pass's figure.  model.s also adds the model time of the set-up
        (pass 0).  fft.bytes is computed from array sizes (input plus
        output), not measured memory traffic.
        """
        spans = self.spans
        ancestors: list[frozenset] = []  # layers above each span; parents come first
        interned: dict[frozenset, frozenset] = {}
        child_time = [0.0] * len(spans)
        for s in spans:
            parent = s[5]
            if parent < 0:
                ancestors.append(frozenset())
            else:
                layers = ancestors[parent] | {spans[parent][2]}
                ancestors.append(interned.setdefault(layers, layers))
                child_time[parent] += s[4] - s[3]
        by_pass: dict[int, list] = {}
        for s in spans:
            by_pass.setdefault(s[6], []).append(s)
        setup = by_pass.pop(0, [])
        per_pass = [_pass_metrics(group, ancestors, child_time) for group in by_pass.values()]
        if not per_pass:
            return {}
        out = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        out["model.s"] += _pass_metrics(setup, ancestors, child_time)["model.s"]
        return out


def _pass_metrics(spans: list[list], ancestors: list[frozenset], child_time: list[float]) -> dict:
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    outer: dict[str, int] = {}
    for s in spans:
        layer, d = s[2], s[4] - s[3]
        self_time[layer] = self_time.get(layer, 0.0) + d - child_time[s[0]]
        if layer not in ancestors[s[0]]:
            busy[layer] = busy.get(layer, 0.0) + d
            outer[layer] = outer.get(layer, 0) + 1

    def attrs(*names):
        return [s[7] for s in spans if s[1] in names]

    solves = [(s[7], s[4] - s[3]) for s in spans if s[1] == "solver.minimize"]
    iterations = sum(info["iterations"] for info, _ in solves)
    by_class = {"free": 0, "pinned": 0, "scalar": 0}
    for info, _ in solves:
        if info["class"] in by_class:
            by_class[info["class"]] += info["iterations"]
    scans = attrs("solver.scan_subadditivity")
    points = sum(a["points"] for a in scans)
    ffts = [s for s in spans if s[2] == "fft"]
    fft_in_solver = sum(1 for s in ffts if "solver" in ancestors[s[0]])
    fft_s = sum(s[4] - s[3] for s in ffts)
    runs = attrs("cli.run")
    return {
        "solver.calls": len(solves),
        "solver.s": busy.get("solver", 0.0),
        "solver.self_s": self_time.get("solver", 0.0),
        "solver.iterations": iterations,
        "solver.flows": sum(info["starts"] for info, _ in solves),
        "solver.us_per_iter": 1e6 * sum(d for _, d in solves) / iterations if iterations else 0.0,
        "solver.unconverged": sum(1 for info, _ in solves if not info["converged"]),
        **{f"solver.iterations.{k}": v for k, v in by_class.items()},
        "solver.scan.trusted_frac": sum(a["trusted"] for a in scans) / points if points else 0.0,
        "fft.calls": len(ffts),
        "fft.s": fft_s,
        "fft.us_per_call": 1e6 * fft_s / len(ffts) if ffts else 0.0,
        "fft.calls_per_iter": fft_in_solver / iterations if iterations else 0.0,
        "fft.bytes": sum(s[7] for s in ffts),
        "energy.calls": outer.get("energy", 0),
        "energy.s": busy.get("energy", 0.0),
        "model.s": busy.get("model", 0.0),
        "grid.io_s": busy.get("grid.io", 0.0),
        "grid.io_bytes": sum(attrs("grid.io.write_field_csv")),
        "analysis.calls": outer.get("analysis", 0),
        "analysis.s": busy.get("analysis", 0.0),
        "inequalities.s": busy.get("inequalities", 0.0),
        "inequalities.points": sum(s[7] for s in spans if s[2] == "inequalities"),
        "cli.s": busy.get("cli", 0.0),
        "cli.self_s": self_time.get("cli", 0.0),
        "cli.files": sum(a["files"] for a in runs),
        "cli.artifact_bytes": sum(a["bytes"] for a in runs),
    }
