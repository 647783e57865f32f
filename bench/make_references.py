"""Regenerate references.json: converged answers the accuracy metrics compare to.

    python3 bench/make_references.py            # every workload, both sizes
    python3 bench/make_references.py subadd_scan

Each reference is the constrained minimizer on the benchmark's own grid,
not the continuum answer: on the 4096-node, L=64 line the discrete
soliton minimum already lies 2.7e-6 (relative) below -1/96, which is
larger than the flow's own error.  A reference is found by running the
workload's protocol solve and then polishing its state with a projected,
preconditioned gradient iteration whose fixed points satisfy the
Euler-Lagrange system G_i = -lambda_i u_i exactly (no step bias):

    u_i <- N_i[ u_i - tau (a_i - Laplacian)^-1 (G_i(u) + lambda_i(u) u_i) ],

with lambda_i(u) = -<G_i, u_i> / |u_i|^2 and N_i the rescaling to mass
alpha_i.  Polishing stops once max_i |G_i + lambda_i u_i|_inf / |G_i|_inf
is below POLISH_TOL; that residual is stored next to each reference.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import run_bench

run_bench.bootstrap()

import numpy as np  # noqa: E402

# Modules come from importlib because the package rebinds the name `energy`
# to the function of that name.
energy = importlib.import_module("binorm_gs.energy")  # noqa: E402
gridmod = importlib.import_module("binorm_gs.grid")  # noqa: E402
model = importlib.import_module("binorm_gs.model")  # noqa: E402
solver = importlib.import_module("binorm_gs.solver")  # noqa: E402

import workloads  # noqa: E402

POLISH_TOL = 1e-10
POLISH_TAU = 0.5
POLISH_MAX_ITERS = 200000


def polish(state: gridmod.State, spec: model.ProblemSpec) -> tuple[gridmod.State, dict]:
    """Drive a near-minimizer to the exact Euler-Lagrange fixed point."""
    grid = state.grid
    pots = (model.sample_potential(spec.v1, grid), model.sample_potential(spec.v2, grid))
    alpha = (spec.alpha1, spec.alpha2)
    u = [np.real(state.u1.values).copy(), np.real(state.u2.values).copy()]
    for it in range(1, POLISH_MAX_ITERS + 1):
        cur = gridmod.State(gridmod.Field(grid, u[0]), gridmod.Field(grid, u[1]))
        grad = energy.gradient(cur, spec, pots)
        res = 0.0
        for i, gi in enumerate((grad.u1.values, grad.u2.values)):
            if alpha[i] == 0.0:
                continue
            lam = -float(np.sum(gi * u[i])) / float(np.sum(u[i] ** 2))
            r = gi + lam * u[i]
            res = max(res, float(np.max(np.abs(r))) / float(np.max(np.abs(gi))))
            step = np.real(np.fft.ifftn(np.fft.fftn(r) / (max(lam, 0.05) + grid.k2)))
            v = u[i] - POLISH_TAU * step
            u[i] = v * math.sqrt(alpha[i] / (grid.cell_volume * float(np.sum(v * v))))
        if res < POLISH_TOL:
            break
    else:
        raise RuntimeError(f"polish stalled at residual {res:.3g}")
    out = gridmod.State(gridmod.Field(grid, u[0]), gridmod.Field(grid, u[1]))
    grad = energy.gradient(out, spec, pots)
    lams = [
        -float(np.sum(gi * ui)) / float(np.sum(ui**2)) if a > 0.0 else None
        for gi, ui, a in ((grad.u1.values, u[0], alpha[0]), (grad.u2.values, u[1], alpha[1]))
    ]
    return out, {
        "energy": energy.energy(out, spec, pots).total,
        "lambda1": lams[0],
        "lambda2": lams[1],
        "el_residual": res,
        "polish_iterations": it,
    }


def reference_solve(spec, config, grid) -> dict:
    if spec.alpha1 == 0.0 and spec.alpha2 == 0.0:
        return {"energy": 0.0}
    start = solver.minimize(spec, config=config, grid=grid)
    _, ref = polish(start.state, spec)
    return ref


def soliton_refs(size: str) -> dict:
    ctx = workloads.soliton_setup(size, 0, None)
    return reference_solve(workloads.soliton_spec(), ctx["config"], ctx["grid"])


def scan_refs(size: str) -> dict:
    ctx = workloads.scan_setup(size, 0, None)
    spec, grid, config = ctx["spec"], ctx["grid"], ctx["config"]
    thetas = [t for t in workloads.SCAN_THETAS if t != (1.0, 1.0)]
    problems = [spec]
    problems += [spec.with_masses(t1 * spec.alpha1, t2 * spec.alpha2) for t1, t2 in thetas]
    problems += [
        spec.without_potentials().with_masses((1 - t1) * spec.alpha1, (1 - t2) * spec.alpha2)
        for t1, t2 in thetas
    ]
    solves = [reference_solve(p, config, grid) for p in problems]
    return {
        "energies": [s["energy"] for s in solves],
        "el_residuals": [s.get("el_residual", 0.0) for s in solves],
    }


def pipeline_refs(size: str, scratch) -> dict:
    ctx = workloads.pipeline_setup(size, 0, scratch)
    cfg = ctx["cfg"]
    return reference_solve(cfg.problem, cfg.solver, ctx["grid"])


def main(argv: list[str]) -> int:
    path = run_bench.REFERENCES_PATH
    refs = json.loads(path.read_text()) if path.exists() else {}
    chosen = argv or list(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory() as scratch:
        makers = {
            "soliton_1d": soliton_refs,
            "subadd_scan": scan_refs,
            "pipeline_2d": lambda size: pipeline_refs(size, Path(scratch)),
        }
        for name in chosen:
            for size in workloads.SIZES:
                t0 = time.perf_counter()
                refs.setdefault(name, {})[size] = makers[name](size)
                print(f"{name} {size}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
                path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
