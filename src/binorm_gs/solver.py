"""Constrained ground-state solver: projected, preconditioned nonlinear CG.

The minimizer of the energy over the two-mass constraint set is found by
a projected, preconditioned nonlinear CG method (after
Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017, and Danaila and
Protas, SIAM J. Sci. Comput. 39, 2017).  Each component has the
preconditioned, projected gradient

    d = P G - (<u, P G> / <u, P u>) P u,    P = S (a - lap)^-1 S,

where G = -lap u + V u - f(u) is the L2 gradient of the energy,
S = (1 + max(V, 0))^(-1/2) and the shift a is the larger of 1 and the
current multiplier estimate.  E and V u - f(u) come from ``energy._Kernel``,
and every transform, L2 product, kinetic term and mass from the grid's
half-spectrum layout (``grid._HalfSpectrum``); ``energy()``, ``gradient()``
and ``multipliers()`` apply both to a single state, so a start's energy in
the flow is the one ``energy()`` gives for its fields.  d is orthogonal to
u and vanishes exactly when G = -lambda u, so a converged state solves the
Euler-Lagrange system itself, whatever the step size.

The search direction is s = d + beta s_prev, with s_prev projected onto
the tangent space at the current u and one Polak-Ribiere+ coefficient
for both components,

    beta = max(0, <r - r_prev, d> / <r_prev, d_prev>),    r = G + lambda u.

It restarts as s = d when <G, s> <= 0.  Each component then moves to
u - tau s and is rescaled exactly back to its target mass.

The step tau comes from a quadratic model of the energy along s: one
trial at the last accepted step (dt on the first iteration), and, when
the parabola through E(0), E'(0) = -<G, s> and E(trial) curves upward
and its predicted decrease is above the energy's rounding, one more
evaluation at its minimizer, clamped to [0.1, 5] times the trial.  The
lower of the two energies is kept.  A step that would still raise the
energy is halved, down to a floor of 1e-12 where it is taken as it is, so
short of that floor the accepted energy sequence is nonincreasing up to
roundoff.  A run halts when both the update residual
|u_new - u_old|_inf / tau and the energy decrement fall below their
tolerances.  Where the potential is bounded above by 0, S = 1 and the
whole step is done on the real-FFT half spectrum: one forward transform
of the potential and interaction force and one inverse transform per
energy evaluation.

Several starts with randomized bump initializations are run and the
lowest final energy wins; ties go to the earliest start.

All starts of a solve step together as one batch: their fields are
stacked along a leading axis, and each FFT, reduction and BLAS dot product
acts on every row at once.  Each member keeps its own masses, step, CG
state, step cuts, trajectory and stopping test, and its scalars stay
Python floats, so it does exactly the arithmetic of a solve on its own
and the results do not depend on what else is in the batch.  Every
line-search round evaluates the whole batch, and a member's candidate
replaces its accepted step only while that member is still searching.  A
member that converges leaves the batch.  Every member of a batch shares
the potentials and carries the same components (u1 only, both, or u2
only), so each component's stack has one row per member;
``scan_subadditivity`` batches its subproblems likewise.

Since a member's results do not depend on its batch, independent batches
run at the same time, on up to one process per usable core (``_run_shares``,
which also runs the independent task computations of ``binorm-gs run``):
the calling process steps one share of them and forked workers step the
others and send their results back through pipes.  On a single core, with
other Python threads alive, or inside another such run, the batches run
one after another in the calling process.  Either way every result is
bit-identical.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .energy import EnergyReport, Multipliers, _Kernel, _non_finite, _OneState
from .energy import energy, gradient, multipliers  # noqa: F401  bench/tracing.py wraps them
from .grid import Field, Grid, State, _HalfSpectrum, _squared_distance, make_grid
from .model import ProblemSpec, PotentialSpec, sample_potential, validate

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SubaddPoint",
    "SubaddReport",
    "default_grid",
    "minimize",
    "minimize_scalar",
    "scan_subadditivity",
]

TRAJECTORY_CAP = 2000

# Smallest shift a of the preconditioner P = S (a - lap)^-1 S; it also sets
# S = (a / (a + max(V, 0)))^(1/2).
_PRECOND_SHIFT = 1.0
# Range, as multiples of the trial step, of the second step tried at the
# minimizer of the quadratic energy model along the search direction.
_QUAD_CLAMP = (0.1, 5.0)
# Relative size of the energy's rounding noise.  When the decrease predicted
# along the search direction is below it, the quadratic model would be fitted
# to roundoff and the trial step is kept: otherwise noise drives the step
# toward 0, where the update, and so the residual test, is lost to rounding.
_ENERGY_RESOLUTION = 1e-14
# Largest number of grid nodes, summed over members, that one flow batch
# steps; larger sets of starts run as several batches.  On criterion 5's
# scan (two groups of 48 starts at n = 4096, batches forked on 2 cores; median
# of 10 runs): 2^16 nodes (16 members) took 1.41 s and one batch per group
# 1.88 s; 2^14, 2^15 and 2^17 took 1.27, 1.34 and 1.50 s, within the 0.2 s
# quartile spread of 2^16.
_NODE_BUDGET = 2**16


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the projected, preconditioned nonlinear CG descent.

    dt is the first trial step; later steps come from the quadratic
    energy model along the search direction, and the fixed point does not
    depend on dt.  Convergence requires the update residual below
    tol_residual and the per-step energy decrement below tol_energy on
    the same step.

    dt, tol_residual and tol_energy must be finite and > 0, max_iters and
    multi_start integers >= 1 and rng_seed an integer >= 0; otherwise
    ValueError names the field and its value.
    """

    dt: float = 0.01
    tol_residual: float = 1e-8
    tol_energy: float = 1e-12
    max_iters: int = 200000
    multi_start: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dt", "tol_residual", "tol_energy"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                math.isfinite(value) and value > 0
            ):
                raise ValueError(f"SolverConfig.{name} must be finite and > 0, got {value!r}")
        for name, least in (("max_iters", 1), ("multi_start", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(
                    f"SolverConfig.{name} must be an integer >= {least}, got {value!r}"
                )


@dataclass
class SolveResult:
    """Outcome of one constrained minimization.

    trajectory_energies holds (iteration, energy, residual) rows of the
    winning run, decimated to at most TRAJECTORY_CAP entries.
    diagnostics["per_start"] lists the iterations, final energy,
    convergence flag and step cuts of every start, in start order: the flow's
    own energies.  report is energy() of the final state, which transforms
    the fields afresh, so the two may differ in the last bits.
    """

    state: State
    report: EnergyReport
    multipliers: Multipliers
    iterations: int
    final_residual: float
    converged: bool
    trajectory_energies: list[tuple[int, float, float]]
    diagnostics: dict


@dataclass(frozen=True)
class SubaddPoint:
    """One mass split theta of the subadditivity scan."""

    theta1: float
    theta2: float
    e_inner: float
    e_outer: float
    gap: float
    trusted: bool


@dataclass
class SubaddReport:
    """Scan of e(alpha) against split upper bounds e(theta alpha) + e_inf((1-theta) alpha)."""

    e_total: float
    points: list[SubaddPoint]

    @property
    def e_inner(self) -> list[float]:
        return [p.e_inner for p in self.points]

    @property
    def e_outer(self) -> list[float]:
        return [p.e_outer for p in self.points]

    @property
    def gaps(self) -> list[float]:
        return [p.gap for p in self.points]

    @property
    def untrusted(self) -> list[bool]:
        return [not p.trusted for p in self.points]


_DEFAULT_GRIDS = {1: (4096, 64.0), 2: (256, 32.0)}  # dim: (n, L)


def default_grid(dim: int) -> Grid:
    """Desk-scale grid: resolves benchmark tails without heroic sizes."""
    if dim not in _DEFAULT_GRIDS:
        raise ValueError(f"no default grid for dim = {dim}")
    return make_grid(dim, *_DEFAULT_GRIDS[dim])


def _bump(grid: Grid, width: float, center_cells: tuple[int, ...]) -> np.ndarray:
    center = [c * grid.h for c in center_cells] + [0.0] * (grid.dim - len(center_cells))
    return np.exp(-_squared_distance(grid, center) / (2.0 * width**2))


# The flow's helper records are plain classes: a dataclass costs about a
# millisecond of import time each, which every run of the package pays.
class _Member:
    """One start of a flow batch: its masses, its start pair and its name in errors."""

    __slots__ = ("masses", "init", "name")

    def __init__(
        self, masses: tuple[float, float], init: tuple[np.ndarray, np.ndarray], name: str
    ) -> None:
        self.masses, self.init, self.name = masses, init, name


class _Run:
    """Scalar state of one member of a flow batch while it steps, and its
    outcome once it leaves the batch.

    masses and kin0 (the start's kinetic energies) are per carried component.
    rd_prev is <r, d> of the previous step; None after a vanishing
    direction, when there is no previous CG direction to continue.  On
    leaving, the member's final fields go to pair and its trajectory is
    decimated to at most TRAJECTORY_CAP rows.
    """

    __slots__ = (
        "member", "masses", "energy", "kin0", "tau", "trajectory",
        "rd_prev", "cuts", "max_inc", "max_mass_err", "max_grad_ratio",
        "pair", "iterations", "residual", "converged",
    )

    def __init__(
        self, member: int, masses: list[float], energy: float, kin0: list[float], tau: float,
    ) -> None:
        self.member, self.masses, self.energy, self.kin0, self.tau = (
            member, masses, energy, kin0, tau
        )
        self.trajectory = [(0, energy, math.inf)]
        self.rd_prev: float | None = None
        self.cuts = 0
        self.max_inc = 0.0
        self.max_mass_err = 0.0
        self.max_grad_ratio = 1.0


class _Step:
    """Energies and rescaled fields of a candidate step of every member."""

    __slots__ = ("energy", "fields", "spectra", "kinetic", "mass_error")

    def __init__(
        self, energy: list[float], fields: list, spectra: list,
        kinetic: list[list[float]], mass_error: list[float],
    ) -> None:
        self.energy, self.fields, self.spectra, self.kinetic, self.mass_error = (
            energy, fields, spectra, kinetic, mass_error
        )

    def overwrite(self, other: "_Step", picks: list[int]) -> None:
        """Take other's candidates of the members picks."""
        for m in picks:
            self.energy[m] = other.energy[m]
            self.mass_error[m] = other.mass_error[m]
            for mine, theirs in zip(self.kinetic, other.kinetic):
                mine[m] = theirs[m]
        for mine, theirs in zip(self.fields + self.spectra, other.fields + other.spectra):
            mine[picks] = theirs[picks]


def _decimate(rows: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    if len(rows) <= TRAJECTORY_CAP:
        return rows
    stride = math.ceil(len(rows) / TRAJECTORY_CAP)
    out = rows[::stride]
    if out[-1] != rows[-1]:
        out.append(rows[-1])
    return out


def _flow(
    grid: Grid, spec: ProblemSpec, pots: tuple[np.ndarray, np.ndarray], members: list[_Member],
    config: SolverConfig,
) -> list[_Run]:
    """Run the projected, preconditioned nonlinear CG descent on a batch of starts.

    Every member has its own masses and start and shares the exponents and
    couplings of spec and the sampled potentials pots.  Every member must
    carry the components of the first, those with positive mass.  Every
    per-component list holds one stack per carried component, one row per
    member; the module docstring says how each member still does the
    arithmetic of a batch of one.  Their _Runs come back, in member order.
    grid is read only to build its half-spectrum layout: every mass, the
    column shape and the shape of the final pairs come from the layout.
    """
    comps = [c for c in (0, 1) if members[0].masses[c] > 0.0]
    half = _HalfSpectrum(grid)
    kern = _Kernel(half, spec, pots, comps)
    carried = range(len(comps))
    col = (slice(None),) + (None,) * len(half.axes)
    # S, or None where V <= 0, so that S == 1 and the whole step stays in the
    # half spectrum.
    sandwich = [
        np.sqrt(_PRECOND_SHIFT / (_PRECOND_SHIFT + np.maximum(v, 0.0)))
        if float(np.max(v)) > 0.0 else None for v in kern.v
    ]

    def column(values: list[float]) -> np.ndarray | float:
        """Per-member factors shaped to scale stacked rows; one member's is a
        float, which saves 3.3% of an n = 4096 soliton solve's CPU time."""
        return values[0] if len(values) == 1 else np.array(values)[col]

    def direction(i: int, force: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectra of G, of the residual G + lambda u and of the direction d.

        d = P G - (<u, P G> / <u, P u>) P u with P = S (a - lap)^-1 S.  The
        shift a is raised to the current multiplier estimate
        lambda = -<G, u> / |u|^2 when that exceeds 1: in the tails, where
        the energy Hessian is -lap + V + lambda, this keeps the eigenvalues
        of P times the Hessian at most 1 for components with lambda > 1.
        """
        u_hat = spectra[i]
        g_hat = half.gradient(u_hat, force)
        lam = [-x / run.masses[i] for run, x in zip(runs, half.dot(u_hat, g_hat))]
        resolvent = 1.0 / (column([max(_PRECOND_SHIFT, x) for x in lam]) + half.k2)
        sg_hat, su_hat, s_i = g_hat, u_hat, sandwich[i]
        if s_i is not None:
            sg_hat = half.forward(s_i * half.inverse(g_hat))
            su_hat = half.forward(s_i * fields[i])
        coef = half.ratio(resolvent, su_hat, sg_hat, su_hat)
        # complex once here, rather than cast in the product
        d_hat = resolvent.astype(complex) * (sg_hat - column(coef) * su_hat)
        if s_i is not None:
            d_hat = half.forward(s_i * half.inverse(d_hat))
        return g_hat, g_hat + column(lam) * u_hat, d_hat

    def candidates(steps: list[float], s_hat: list) -> _Step:
        """Energies and fields of N[u - step s], rescaled to the masses, one step per member."""
        steps_c = column(steps)
        cand_hat = [u_hat - steps_c * x for u_hat, x in zip(spectra, s_hat)]
        cand = [half.inverse(x) for x in cand_hat]
        m_star = [half.integral(x**2) for x in cand]
        if not all(all(map(math.isfinite, m)) for m in m_star):
            j, i, m = min(
                (runs[m].member, i, m)
                for i in carried for m, mass in enumerate(m_star[i]) if not math.isfinite(mass)
            )
            raise ValueError(
                f"solver: {members[j].name}: {_non_finite(cand[i][m], comps[i])}, iteration {it}"
            )
        new, new_hat, sq, kin = ([None] * len(comps) for _ in range(4))
        mass_err = [0.0] * len(runs)
        for i in carried:
            alphas = [run.masses[i] for run in runs]
            scale = [math.sqrt(a / m) for a, m in zip(alphas, m_star[i])]
            scale_c = column(scale)
            new[i] = cand[i] * scale_c
            new_hat[i] = cand_hat[i] * scale_c
            sq[i] = new[i] ** 2
            kin[i] = half.kinetic(cand_hat[i])
            for m, (a, sc, ms) in enumerate(zip(alphas, scale, half.integral(sq[i]))):
                kin[i][m] *= sc**2
                mass_err[m] = max(mass_err[m], abs(ms - a) / a)
        return _Step(kern.energies(new, sq, kin), new, new_hat, kin, mass_err)

    rows: list[list[np.ndarray]] = [[] for _ in comps]
    for member in members:
        for i, c in enumerate(comps):
            mass = member.masses[c]
            values = member.init[c]
            if not np.all(np.isfinite(values)):
                raise ValueError(f"solver: {member.name}: {_non_finite(values, c)}, iteration 0")
            start_mass = half.integral(values[None] ** 2)[0]
            if start_mass == 0.0:
                raise ValueError(
                    f"solver: {member.name}: u{c + 1} has zero mass and cannot be "
                    f"rescaled to mass {mass}"
                )
            rows[i].append(values * math.sqrt(mass / start_mass))
    fields = [np.array(x) for x in rows]
    spectra = [half.forward(x) for x in fields]
    kin0 = [half.kinetic(x) for x in spectra]
    energy0 = kern.energies(fields, [x**2 for x in fields], kin0)
    runs = [
        _Run(j, [member.masses[c] for c in comps], e, [k[j] for k in kin0], config.dt)
        for j, (member, e) in enumerate(zip(members, energy0))
    ]
    r_prev, s_prev = [], []
    out: list[_Run] = [None] * len(members)

    it = 0
    while it < config.max_iters:
        it += 1
        g_hat, r_hat, d_hat = zip(*map(direction, carried, kern.forces(fields)))

        # Polak-Ribiere+ with one beta for both components; the previous
        # search direction is projected onto the tangent space at u.
        # Since <u, d> = 0, <G, d> = <r, d>: the slope along d.
        rd = half.dots(r_hat, d_hat)
        s_hat, slope = d_hat, rd
        if any(run.rd_prev is not None for run in runs):
            rd_mixed = half.dots(r_prev, d_hat)
            beta = [
                0.0 if run.rd_prev is None else (x - y) / run.rd_prev
                for run, x, y in zip(runs, rd, rd_mixed)
            ]
            if any(b > 0.0 for b in beta):
                cg_hat = list(d_hat)
                for i in carried:
                    along = [
                        x / run.masses[i] for run, x in zip(runs, half.dot(spectra[i], s_prev[i]))
                    ]
                    cg_hat[i] = d_hat[i] + column(beta) * (s_prev[i] - column(along) * spectra[i])
                cg_slope = half.dots(g_hat, cg_hat)
                on_cg = [b > 0.0 and x > 0.0 for b, x in zip(beta, cg_slope)]
                if all(on_cg):  # no np.where copy: 3.6% of a soliton solve's CPU time
                    s_hat, slope = cg_hat, cg_slope
                elif any(on_cg):
                    s_hat = [np.where(column(on_cg), cg, d) for cg, d in zip(cg_hat, d_hat)]
                    slope = [x if cg else y for cg, x, y in zip(on_cg, cg_slope, rd)]

        # One trial at the last accepted step, then the minimizer of the
        # parabola through E(0), E'(0) = -slope and E(trial); halve on a rise.
        # Every round evaluates the whole batch, but only the rows of members
        # still searching replace their accepted step.  A member that stopped
        # searching is evaluated again at a trial it already took, so its rows
        # are finite and are discarded.
        trial = [run.tau for run in runs]
        searching = list(range(len(runs)))
        while searching:
            for m in searching:
                runs[m].tau = trial[m]
            best = candidates(trial, s_hat)
            t_quad = list(trial)
            quad = []
            for m in searching:
                e_old = runs[m].energy
                curvature = (best.energy[m] - e_old + slope[m] * trial[m]) / trial[m] ** 2
                if curvature > 0.0 and slope[m] * trial[m] > _ENERGY_RESOLUTION * abs(e_old):
                    quad.append(m)
                    t_quad[m] = min(
                        max(slope[m] / (2.0 * curvature), _QUAD_CLAMP[0] * trial[m]),
                        _QUAD_CLAMP[1] * trial[m],
                    )
            if quad:
                other = candidates(t_quad, s_hat)
                lower = [m for m in quad if other.energy[m] < best.energy[m]]
                if len(lower) == len(searching):  # no row copy: 6.8% of a soliton solve's CPU time
                    best = other
                elif lower:
                    best.overwrite(other, lower)
                for m in lower:
                    runs[m].tau = t_quad[m]
            if len(searching) == len(runs):
                step = best
            else:
                step.overwrite(best, searching)
            retry = []
            for m in searching:
                run = runs[m]
                if run.tau > 1e-12 and best.energy[m] > run.energy + 1e-13 * max(
                    1.0, abs(run.energy)
                ):
                    trial[m] = 0.5 * run.tau
                    run.cuts += 1
                    retry.append(m)
            searching = retry

        residual = [0.0] * len(runs)
        for new, old in zip(step.fields, fields):
            moved = np.maximum.reduce(np.abs(new - old), axis=half.axes).tolist()
            for m, (run, x) in enumerate(zip(runs, moved)):
                residual[m] = max(residual[m], x / run.tau)
        done = []
        for m, run in enumerate(runs):
            e_new = step.energy[m]
            run.max_inc = max(run.max_inc, e_new - run.energy)
            run.max_mass_err = max(run.max_mass_err, step.mass_error[m])
            for k0, k in zip(run.kin0, step.kinetic):
                if k0 > 0.0:
                    run.max_grad_ratio = max(run.max_grad_ratio, math.sqrt(k[m] / k0))
            delta_e = abs(e_new - run.energy)
            run.energy = e_new
            run.trajectory.append((it, e_new, residual[m]))
            run.rd_prev = rd[m] if rd[m] > 0.0 else None
            if residual[m] < config.tol_residual and delta_e < config.tol_energy:
                done.append(m)
        fields, spectra = step.fields, step.spectra
        r_prev, s_prev = r_hat, s_hat

        leaving = range(len(runs)) if it == config.max_iters else done
        for m in leaving:
            run = runs[m]
            run.pair = [np.zeros(half.shape), np.zeros(half.shape)]
            for c, x in zip(comps, fields):
                run.pair[c] = x[m].copy()
            run.iterations, run.residual, run.converged = it, residual[m], m in done
            run.trajectory = _decimate(run.trajectory)
            out[run.member] = run
        if len(leaving) == len(runs):
            break
        if done:
            keep = [m for m in range(len(runs)) if m not in done]
            fields, spectra, r_prev, s_prev = (
                [x[keep] for x in arrays]
                for arrays in (fields, spectra, r_prev, s_prev)
            )
            runs = [runs[m] for m in keep]
    return out


def _initializations(
    grid: Grid,
    config: SolverConfig,
    init: State | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic list of starting pairs; start 0 is canonical."""
    rng = np.random.default_rng(config.rng_seed)
    base_width = min(grid.length / 16.0, 4.0)
    if init is not None:
        if init.grid != grid:
            raise ValueError("init state grid does not match solve grid")
        starts = [(init.u1.values, init.u2.values)]
    else:
        starts = [(_bump(grid, base_width, (0,)), _bump(grid, 0.75 * base_width, (0,)))]
    max_off = max(1, grid.n // 16)
    for _ in range(config.multi_start - 1):
        w1 = base_width * rng.uniform(0.5, 2.0)
        w2 = base_width * rng.uniform(0.5, 2.0)
        off1 = tuple(int(rng.integers(-max_off, max_off + 1)) for _ in range(grid.dim))
        off2 = tuple(int(rng.integers(-max_off, max_off + 1)) for _ in range(grid.dim))
        noise = 1.0 + 0.05 * rng.standard_normal(grid.shape)
        starts.append((_bump(grid, w1, off1) * np.abs(noise), _bump(grid, w2, off2)))
    return starts


def _check(spec: ProblemSpec) -> None:
    violations = validate(spec)
    if violations:
        raise ValueError("; ".join(violations))


def _solve_all(
    grid: Grid,
    groups: list[list[ProblemSpec]],
    config: SolverConfig,
    init: State | None = None,
) -> list[list[SolveResult]]:
    """Minimize every spec of every group, each the best of multi_start flow runs.

    A group is a list of specs that differ only in their masses; its
    potentials are sampled once, from its first spec.  The starts of a
    group's specs that carry the same components (u1 only, both, or u2
    only) run as flow batches of at most _NODE_BUDGET grid nodes; groups
    and component sets never share a batch.  All batches of all groups run
    in one _run_shares call.  A spec with both masses zero is returned
    immediately with zero energy.  Returns each group's results in spec
    order.
    """
    potentials = [
        (sample_potential(specs[0].v1, grid), sample_potential(specs[0].v2, grid))
        if specs else None
        for specs in groups
    ]
    per_flow = max(1, _NODE_BUDGET // grid.n**grid.dim)
    starts = None
    # The members of each (group, component set), and the spec each serves.
    keyed: dict[tuple, list[tuple[int, _Member]]] = {}
    for g, specs in enumerate(groups):
        for j, spec in enumerate(specs):
            if spec.alpha1 == 0.0 and spec.alpha2 == 0.0:
                continue
            if starts is None:
                starts = _initializations(grid, config, init)
            solve = "" if len(specs) == 1 else (
                f" of the solve at masses ({spec.alpha1}, {spec.alpha2})"
            )
            keyed.setdefault((g, tuple(a > 0.0 for a in spec.masses)), []).extend(
                (j, _Member(spec.masses, start, f"start {k}{solve}"))
                for k, start in enumerate(starts)
            )
    batches = []
    owners: list[tuple[int, list[int]]] = []
    for (g, _), entries in keyed.items():
        pots = (potentials[g][0].values, potentials[g][1].values)
        for lo in range(0, len(entries), per_flow):
            chunk = entries[lo : lo + per_flow]
            batches.append(functools.partial(
                _flow, grid, groups[g][0], pots, [member for _, member in chunk], config
            ))
            owners.append((g, [j for j, _ in chunk]))
    runs: list[list[list[_Run]]] = [[[] for _ in specs] for specs in groups]
    for (g, spec_of), out in zip(owners, _run_shares(batches, "flow batch")):
        for j, run in zip(spec_of, out):
            runs[g][j].append(run)
    return [
        [_result(grid, spec, potentials[g], config, runs[g][j]) for j, spec in enumerate(specs)]
        for g, specs in enumerate(groups)
    ]


# Set while a _run_shares call's workers run, and so in every worker: a
# call made meanwhile runs serially, so forking never nests.
_forked = False


def _run_share(
    items: list[Callable[[], object]], share: range
) -> tuple[dict[int, object], tuple[int, Exception] | None]:
    """Results of the items share, by index; stops at the first that raises
    and returns it with its error."""
    out: dict[int, object] = {}
    for i in share:
        try:
            out[i] = items[i]()
        except Exception as exc:
            return out, (i, exc)
    return out, None


def _work_and_exit(
    items: list[Callable[[], object]], share: range, write_end: int, read_ends: list[int]
) -> None:
    """Body of a forked worker: pickle _run_share's result into write_end and
    leave through os._exit, with status 0 only once all of it is written.

    The inherited read_ends are closed first, so that no worker's writes
    block, rather than fail, once the parent is gone.
    """
    status = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        payload = pickle.dumps(_run_share(items, share), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _run_shares(items: list[Callable[[], object]], what: str) -> list:
    """Results of the zero-argument callables items, in order.

    The items are flow batches or the task computations of a binorm-gs
    run; `what` names one in error messages.  With
    at least two items and two usable cores, os.fork available, no
    other Python thread alive (forking a process with threads can deadlock
    the child) and no other call's workers running, here or as this
    process, the items are dealt round-robin to up to one share per core.
    This process runs share 0, which holds item 0;
    every other share runs in a forked child that pickles its results, or
    its first error, into a pipe and always leaves through os._exit.
    Otherwise the items run in turn in this process.

    An item that raises is re-raised here with its type and message; of
    several, the earliest item wins.  A child that dies without sending its
    results raises RuntimeError naming `what`, its first item and its exit
    status.  Every child is reaped on every path, and killed first when its
    results are not needed or this process is unwinding.
    """
    global _forked
    count = len(items)
    shares = 1
    if (
        count > 1
        and not _forked
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
    ):
        shares = min(count, len(os.sched_getaffinity(0)))
    if shares == 1:
        results, error = _run_share(items, range(count))
    else:
        deal = [range(s, count, shares) for s in range(shares)]
        pids: dict[int, int] = {}  # children not yet reaped, by share
        pipes: dict[int, int] = {}  # read ends not yet closed, by share
        _forked = True
        try:
            for share in range(1, shares):
                pipes[share], write_end = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _work_and_exit(items, deal[share], write_end, list(pipes.values()))
                finally:
                    os.close(write_end)  # the child never gets here
                pids[share] = pid
            results, error = _run_share(items, deal[0])
            for share in range(1, shares):
                first = deal[share][0]
                if error is not None and error[0] < first:
                    break  # this and later shares hold only later items
                chunks = []
                while chunk := os.read(pipes[share], 1 << 20):
                    chunks.append(chunk)
                os.close(pipes.pop(share))
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(share), 0)[1])
                if status == 0:
                    part, failed = pickle.loads(b"".join(chunks))
                    results.update(part)
                else:
                    failed = (first, RuntimeError(
                        f"the worker process running {what} {first} exited with status {status}"
                    ))
                if failed is not None and (error is None or failed[0] < error[0]):
                    error = failed
        finally:
            _forked = False
            for read_end in pipes.values():
                os.close(read_end)
            if pids:
                import signal

                for pid in pids.values():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    os.waitpid(pid, 0)
    if error is not None:
        raise error[1]
    return [results[i] for i in range(count)]


def _result(
    grid: Grid, spec: ProblemSpec, pot_fields: tuple[Field, Field], config: SolverConfig,
    runs: list[_Run],
) -> SolveResult:
    """The solve record of a spec from its starts' runs, in start order; with
    no runs (both masses zero), the zero state's.  The final state is
    evaluated once for its report and multipliers."""
    if not runs:
        zero = Field(grid, np.zeros(grid.shape))
        state = State(zero, zero)
        record = dict(
            iterations=0, final_residual=0.0, converged=True, trajectory_energies=[(0, 0.0, 0.0)],
            diagnostics={"starts": 0, "best_start": 0, "final_dt": None, "step_cuts": 0,
                         "per_start": []},
        )
    else:
        best_idx = 0
        for idx, run in enumerate(runs):
            if run.energy < runs[best_idx].energy - 1e-12:
                best_idx = idx
        best = runs[best_idx]
        state = State(Field(grid, best.pair[0]), Field(grid, best.pair[1]))
        record = dict(
            iterations=best.iterations,
            final_residual=best.residual,
            converged=best.converged,
            trajectory_energies=best.trajectory,
            diagnostics={
                "starts": config.multi_start,
                "best_start": best_idx,
                "max_energy_increase": best.max_inc,
                "max_mass_error": best.max_mass_err,
                "max_grad_ratio": best.max_grad_ratio,
                "final_dt": float(best.tau),
                "step_cuts": best.cuts,
                "per_start": [
                    {"iterations": run.iterations, "energy": run.energy,
                     "converged": run.converged, "step_cuts": run.cuts}
                    for run in runs
                ],
            },
        )
    final = _OneState(state, spec, pot_fields)
    return SolveResult(
        state=state, report=final.report(), multipliers=final.multipliers(), **record
    )


def minimize(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    grid: Grid | None = None,
    init: State | None = None,
) -> SolveResult:
    """Minimize the constrained energy; best of multi_start flow runs.

    The starts carry the same components, so they run as one flow batch,
    or, past _NODE_BUDGET grid nodes, as several, on up to one process per
    usable core (serially on a single core).  Raises ValueError when the problem violates the standing
    hypotheses.  A state with both masses zero is returned immediately with
    zero energy.
    """
    _check(spec)
    config = config or SolverConfig()
    grid = grid or default_grid(spec.dim)
    return _solve_all(grid, [[spec]], config, init)[0][0]


def minimize_scalar(
    mu: float,
    p: float,
    gamma: float,
    potential: PotentialSpec | None = None,
    dim: int = 1,
    config: SolverConfig | None = None,
    grid: Grid | None = None,
) -> SolveResult:
    """Single-component ground state at mass gamma.

    Wraps the two-component solver with the second mass set to zero, so
    the interaction terms vanish identically and the result is the
    scalar minimizer.
    """
    spec = ProblemSpec(
        dim=dim,
        p1=p,
        p2=p,
        p3=p,
        mu1=mu,
        mu2=mu,
        beta=1.0,
        alpha1=gamma,
        alpha2=0.0,
        v1=potential or PotentialSpec.zero(),
        v2=PotentialSpec.zero(),
    )
    return minimize(spec, config=config, grid=grid)


def scan_subadditivity(
    spec: ProblemSpec,
    theta_grid: list[tuple[float, float]],
    config: SolverConfig | None = None,
    grid: Grid | None = None,
) -> SubaddReport:
    """Compare e(alpha) with every split e(theta alpha) + e_inf((1-theta) alpha).

    The full split theta = (1, 1) is skipped: its gap is zero by
    definition.  Strict subadditivity predicts a negative gap at every
    other point.  Points whose solves (or the full solve) did not
    converge are marked untrusted.  Every theta must lie in [0, 1]^2, with
    theta2 = 1 in the trapping regime (the paper's case (ii): the trapped u2
    loses no mass to infinity, so e_inf is +inf for theta2 < 1); all are
    checked before any solve runs.  The full problem and the inner splits
    e(theta alpha) run as one flow batch per component set they carry (u1
    only, both, or u2 only), and the potential-free outer splits likewise:
    up to six batches, each split further past _NODE_BUDGET grid nodes.
    The batches run at the same time on up to one process per usable core,
    and one after another on a single core; the results are the same
    either way.
    """
    _check(spec)
    config = config or SolverConfig()
    grid = grid or default_grid(spec.dim)
    free = spec.without_potentials()
    thetas, inner, outer = [], [], []
    for t1, t2 in theta_grid:
        theta = (float(t1), float(t2))
        if theta == (1.0, 1.0):
            continue
        if not all(0.0 <= t <= 1.0 for t in theta):
            raise ValueError(
                f"scan_subadditivity: theta {theta} must be finite and lie in [0, 1]^2"
            )
        if spec.regime == "trapping" and theta[1] != 1.0:
            raise ValueError(
                f"scan_subadditivity: theta {theta}: in the trapping regime the "
                f"trapped u2 keeps its whole mass, so theta2 must be 1"
            )
        thetas.append(theta)
        inner.append(spec.with_masses(theta[0] * spec.alpha1, theta[1] * spec.alpha2))
        outer.append(
            free.with_masses((1.0 - theta[0]) * spec.alpha1, (1.0 - theta[1]) * spec.alpha2)
        )

    (full, *res_in), res_out = _solve_all(grid, [[spec, *inner], outer], config)
    e_total = full.report.total
    points = [
        SubaddPoint(
            theta1=t1,
            theta2=t2,
            e_inner=r_in.report.total,
            e_outer=r_out.report.total,
            gap=e_total - r_in.report.total - r_out.report.total,
            trusted=full.converged and r_in.converged and r_out.converged,
        )
        for (t1, t2), r_in, r_out in zip(thetas, res_in, res_out)
    ]
    return SubaddReport(e_total=e_total, points=points)
