"""The three benchmark workloads: inputs, one timed pass, output checks.

Each workload is reached only through binorm_gs's public functions.  Calls
go through module attributes (``solver.minimize_scalar``, ``cli.run``)
rather than from-imports on purpose: the traced run swaps those attributes
for span-recording wrappers, and the calls must see the swap.

A workload is three functions:

``setup(size, seed, scratch)``
    everything built before the first pass (config load and validation,
    grid construction, potential sampling); its cost is ``setup_s``.
``run(ctx, out_dir)``
    one pass, the only timed part; ``out_dir`` is a fresh empty directory.
``judge(ctx, out_dir, raw, wall, refs)``
    the output checks (failures feed ``failed``) and the accuracy
    figures, computed after timing.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Modules come from importlib because the package rebinds the name `energy`
# to the function of that name.
cli = importlib.import_module("binorm_gs.cli")
energy = importlib.import_module("binorm_gs.energy")
gridmod = importlib.import_module("binorm_gs.grid")
model = importlib.import_module("binorm_gs.model")
solver = importlib.import_module("binorm_gs.solver")

BENCH_DIR = Path(__file__).resolve().parent
PIPELINE_CONFIG = BENCH_DIR / "pipeline_2d.cfg"

# Relative energy accuracy that defines time to accuracy on soliton_1d.
TTA_ENERGY_RELERR = 1e-5

# Closed-form mu = p = gamma = 1 sech soliton.
SOLITON_EXACT_ENERGY = -1.0 / 96.0
SOLITON_EXACT_LAMBDA = 1.0 / 16.0

SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int, Path], dict]
    run: Callable[[dict, Path], Any]
    judge: Callable[[dict, Path, Any, float, dict], tuple[list[str], dict[str, float]]]


def relerr(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def el_residual(state: gridmod.State, spec: model.ProblemSpec, lams: tuple[float, float]) -> float:
    """max_i |G_i + lambda_i u_i|_inf / |G_i|_inf over the components with mass."""
    grad = energy.gradient(state, spec)
    worst = 0.0
    for gi, ui, lam in ((grad.u1, state.u1, lams[0]), (grad.u2, state.u2, lams[1])):
        if not math.isfinite(lam):
            continue
        scale = float(np.max(np.abs(gi.values)))
        worst = max(worst, float(np.max(np.abs(gi.values + lam * ui.values))) / scale)
    return worst


# ---------------------------------------------------------------------------
# soliton_1d: one scalar REFERENCE-protocol solve with a closed-form answer

SOLITON_SIZES = {
    "full": dict(n=4096, length=64.0, dt=0.1, tol_residual=1e-9),
    "smoke": dict(n=512, length=64.0, dt=0.1, tol_residual=1e-7),
}


def soliton_spec() -> model.ProblemSpec:
    """The problem minimize_scalar(mu=1, p=1, gamma=1) solves."""
    return model.ProblemSpec(
        dim=1, p1=1.0, p2=1.0, p3=1.0, mu1=1.0, mu2=1.0, beta=1.0,
        alpha1=1.0, alpha2=0.0,
    )


def soliton_setup(size: str, seed: int, scratch: Path) -> dict:
    p = SOLITON_SIZES[size]
    grid = gridmod.make_grid(1, p["n"], p["length"])
    config = solver.SolverConfig(
        dt=p["dt"], tol_residual=p["tol_residual"], multi_start=1, rng_seed=seed
    )
    return {"grid": grid, "config": config}


def soliton_run(ctx: dict, out_dir: Path) -> solver.SolveResult:
    return solver.minimize_scalar(1.0, 1.0, 1.0, config=ctx["config"], grid=ctx["grid"])


def soliton_judge(ctx, out_dir, res, wall, refs):
    e_exact = relerr(res.report.total, SOLITON_EXACT_ENERGY)
    lam_exact = relerr(res.multipliers.lambda1, SOLITON_EXACT_LAMBDA)
    failures = []
    if not res.converged:
        failures.append(f"solve did not converge in {res.iterations} iterations")
    if not e_exact <= 5e-3:
        failures.append(f"energy error {e_exact:.3g} > 5e-3")
    if not lam_exact <= 1e-2:
        failures.append(f"multiplier error {lam_exact:.3g} > 1e-2")
    first = next(
        (it for it, e, _ in res.trajectory_energies
         if relerr(e, SOLITON_EXACT_ENERGY) <= TTA_ENERGY_RELERR),
        None,
    )
    if first is None:
        failures.append(f"energy never came within {TTA_ENERGY_RELERR} of -1/96")
    lams = res.multipliers.as_tuple()
    acc = {
        "energy_relerr": relerr(res.report.total, refs["energy"]),
        "multiplier_relerr": relerr(lams[0], refs["lambda1"]),
        "el_residual": el_residual(res.state, soliton_spec(), lams),
        "energy_relerr_exact": e_exact,
        "multiplier_relerr_exact": lam_exact,
        "tta_s": wall * (res.iterations if first is None else first) / res.iterations,
    }
    return failures, acc


# ---------------------------------------------------------------------------
# subadd_scan: the 8-split SCAN-protocol subadditivity scan of the wells problem

SCAN_SIZES = {
    "full": dict(n=1024, length=64.0, tol_residual=1e-8),
    "smoke": dict(n=256, length=64.0, tol_residual=1e-6),
}
SCAN_THETAS = [(t1, t2) for t1 in (0.0, 0.5, 1.0) for t2 in (0.0, 0.5, 1.0)]


def wells_spec() -> model.ProblemSpec:
    """Cubic system with two shallow wells, the acceptance gate's scan problem."""
    return model.ProblemSpec(
        dim=1, p1=1.0, p2=1.0, p3=1.0, mu1=1.0, mu2=1.0, beta=0.5,
        alpha1=1.0, alpha2=1.0,
        v1=model.PotentialSpec.gaussian_well(depth=0.5, width=2.0),
        v2=model.PotentialSpec.gaussian_well(depth=0.3, width=3.0),
    )


def scan_energies(report: solver.SubaddReport) -> list[float]:
    """The 17 solve energies of a scan: full problem, then inner, then outer."""
    return [report.e_total, *report.e_inner, *report.e_outer]


def scan_setup(size: str, seed: int, scratch: Path) -> dict:
    p = SCAN_SIZES[size]
    spec = wells_spec()
    violations = model.validate(spec)
    if violations:
        raise ValueError("; ".join(violations))
    grid = gridmod.make_grid(1, p["n"], p["length"])
    pots = (model.sample_potential(spec.v1, grid), model.sample_potential(spec.v2, grid))
    config = solver.SolverConfig(
        dt=0.25, tol_residual=p["tol_residual"], multi_start=2, rng_seed=seed
    )
    return {"spec": spec, "grid": grid, "config": config, "potentials": pots}


def scan_run(ctx: dict, out_dir: Path) -> solver.SubaddReport:
    return solver.scan_subadditivity(
        ctx["spec"], SCAN_THETAS, config=ctx["config"], grid=ctx["grid"]
    )


def scan_judge(ctx, out_dir, report, wall, refs):
    failures = []
    if len(report.points) != 8:
        failures.append(f"expected 8 splits, got {len(report.points)}")
    untrusted = sum(report.untrusted)
    if untrusted:
        failures.append(f"{untrusted} of {len(report.points)} splits untrusted")
    worst = max(report.gaps)
    if not worst < -1e-6:
        failures.append(f"worst gap {worst:.3g} not below -1e-6")
    errs = []
    for value, ref in zip(scan_energies(report), refs["energies"]):
        if ref == 0.0:
            if value != 0.0:
                failures.append(f"zero-mass split has energy {value!r}")
            continue
        errs.append(relerr(value, ref))
    return failures, {"energy_relerr": max(errs)}


# ---------------------------------------------------------------------------
# pipeline_2d: binorm_gs.cli.run on the checked-in 2D config

PIPELINE_SMOKE = dict(n=64, tol_residual=1e-7)


def canonical_text(cfg: cli.ExperimentConfig) -> str:
    return cli.format_flat(cli.config_to_dict(cfg))


def pipeline_setup(size: str, seed: int, scratch: Path) -> dict:
    cfg = cli.load_config(PIPELINE_CONFIG)
    text = canonical_text(cfg)
    if text != PIPELINE_CONFIG.read_text():
        raise ValueError(f"{PIPELINE_CONFIG.name} is not in canonical flat form")
    if canonical_text(cli.config_from_dict(cli.parse_flat(text))) != text:
        raise ValueError(f"{PIPELINE_CONFIG.name} does not round-trip through format_flat")
    path = PIPELINE_CONFIG
    if size == "smoke":
        cfg = replace(
            cfg,
            grid_n=PIPELINE_SMOKE["n"],
            solver=replace(cfg.solver, tol_residual=PIPELINE_SMOKE["tol_residual"]),
        )
        path = scratch / "pipeline_2d_smoke.cfg"
        cli.save_config(cfg, path)
    violations = model.validate(cfg.problem)
    if violations:
        raise ValueError("; ".join(violations))
    grid = cfg.grid()
    pots = (
        model.sample_potential(cfg.problem.v1, grid),
        model.sample_potential(cfg.problem.v2, grid),
    )
    return {"cfg": cfg, "path": path, "grid": grid, "potentials": pots, "seed": seed}


def pipeline_run(ctx: dict, out_dir: Path) -> int:
    return cli.run(ctx["path"], out_dir=out_dir, seed=ctx["seed"])


def _manifest_failures(out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = []
    for name, digest in manifest["files"].items():
        path = out_dir / name
        if not path.is_file():
            failures.append(f"manifest lists missing file {name}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            failures.append(f"sha256 of {name} does not match the manifest")
    return failures


def pipeline_judge(ctx, out_dir, code, wall, refs):
    if code != 0:
        return [f"cli.run exited with code {code}"], {}
    load = lambda name: json.loads((out_dir / name).read_text())  # noqa: E731
    solve, decay, pohozaev = load("solve.json"), load("decay_fit.json"), load("pohozaev.json")
    failures = _manifest_failures(out_dir)
    if not pohozaev["converged"]:
        failures.append("pohozaev solve did not converge")
    for rep in load("check_inequalities.json")["reports"]:
        if not rep["holds"]:
            failures.append(f"inequality {rep['which']} does not hold")
    cfg = ctx["cfg"]
    state = gridmod.State(
        gridmod.read_field_csv(str(out_dir / "solve_u1.csv")),
        gridmod.read_field_csv(str(out_dir / "solve_u2.csv")),
    )
    lams = (solve["lambda1"], solve["lambda2"])
    acc = {
        "energy_relerr": relerr(solve["total"], refs["energy"]),
        "multiplier_relerr": max(
            relerr(lams[0], refs["lambda1"]), relerr(lams[1], refs["lambda2"])
        ),
        "el_residual": el_residual(state, cfg.problem, lams),
        "virial_residual": abs(pohozaev["residual"]),
        "decay_relerr": max(
            abs(f["rate"] - f["expected"]) / f["expected"] for f in decay["fits"]
        ),
    }
    return failures, acc


WORKLOADS = {
    w.name: w
    for w in (
        Workload("soliton_1d", soliton_setup, soliton_run, soliton_judge),
        Workload("subadd_scan", scan_setup, scan_run, scan_judge),
        Workload("pipeline_2d", pipeline_setup, pipeline_run, pipeline_judge),
    )
}
