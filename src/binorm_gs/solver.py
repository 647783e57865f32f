"""Constrained ground-state solver: projected, preconditioned nonlinear CG.

The minimizer of the energy over the two-mass constraint set is found by
a projected, preconditioned nonlinear conjugate-gradient method (after
Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017, and Danaila and
Protas, SIAM J. Sci. Comput. 39, 2017).  Each component has the
preconditioned, projected gradient

    d = P G - (<u, P G> / <u, P u>) P u,    P = S (a - lap)^-1 S,

where G is the L2 gradient of the energy (see ``energy.gradient``),
S = (1 + max(V, 0))^(-1/2) and the shift a is the larger of 1 and the
current multiplier estimate.  d is orthogonal to u and vanishes exactly
when G = -lambda u, so a converged state solves the Euler-Lagrange system
itself, whatever the step size.

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
member that converges leaves the batch.  ``scan_subadditivity`` batches the
starts of all its subproblems that share a potential: the full problem
with every inner split, and every potential-free outer split.

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

import bisect
import functools
import math
import numbers
import os
import pickle
import threading
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import (
    EnergyReport,
    Multipliers,
    _signed_power,
    energy,
    gradient,  # noqa: F401  unused here; bench/tracing.py wraps solver.gradient
    multipliers,
)
from .grid import Field, Grid, State, _rfft_k2, make_grid
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
    convergence flag and step cuts of every start, in start order.
    """

    state: State
    report: EnergyReport
    multipliers: Multipliers
    iterations: int
    final_residual: float
    converged: bool
    trajectory_energies: list[tuple[int, float, float]] = dc_field(
        default_factory=list
    )
    diagnostics: dict = dc_field(default_factory=dict)


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
    def thetas(self) -> list[tuple[float, float]]:
        return [(p.theta1, p.theta2) for p in self.points]

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


def default_grid(dim: int) -> Grid:
    """Desk-scale grid: resolves benchmark tails without heroic sizes."""
    if dim == 1:
        return make_grid(1, 4096, 64.0)
    return make_grid(2, 256, 32.0)


def _rfft_weights(grid: Grid) -> np.ndarray:
    """Multiplicities of the half-spectrum bins in full-spectrum sums."""
    w_last = np.full(grid.n // 2 + 1, 2.0)
    w_last[0] = 1.0
    w_last[-1] = 1.0
    if grid.dim == 1:
        return w_last
    return np.broadcast_to(w_last, (grid.n, grid.n // 2 + 1)).copy()


def _bump(grid: Grid, width: float, center_cells: tuple[int, ...]) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for axis, x in enumerate(grid.meshes()):
        c = center_cells[axis] * grid.h if axis < len(center_cells) else 0.0
        r2 = r2 + (x - c) ** 2
    return np.exp(-r2 / (2.0 * width**2))


@dataclass
class _FlowInfo:
    iterations: int
    final_residual: float
    converged: bool
    energy: float
    trajectory: list[tuple[int, float, float]]
    max_energy_increase: float
    max_mass_error: float
    max_grad_ratio: float
    final_dt: float
    step_cuts: int


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
    """Scalar state of one member of a flow batch while it steps.

    rd_prev is <r, d> of the previous step; None after a vanishing
    direction, when there is no previous CG direction to continue.
    """

    __slots__ = (
        "member", "masses", "energy", "kin0", "tau", "trajectory",
        "rd_prev", "cuts", "max_inc", "max_mass_err", "max_grad_ratio",
    )

    def __init__(
        self, member: int, masses: tuple[float, float], energy: float,
        kin0: tuple[float, float], tau: float,
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


class _Layout:
    """Batch members ordered so that each component's members are contiguous.

    Members [0, end0) carry u1 and members [start1, size) carry u2, so
    members [start1, end0) carry both.  A component's stacked fields hold
    one row per member that carries it, in member order: row r of
    component c is member parts[c][r].
    """

    __slots__ = ("size", "end0", "start1", "parts", "comps")

    def __init__(self, size: int, end0: int, start1: int) -> None:
        self.size, self.end0, self.start1 = size, end0, start1
        self.parts = (range(0, end0), range(start1, size))
        self.comps = [c for c in (0, 1) if self.parts[c]]

    def take(self, idx: list[int]) -> tuple["_Layout", tuple[list[int], list[int]]]:
        """Layout of the members idx (increasing) and their rows in each component."""
        end0 = bisect.bisect_left(idx, self.end0)
        start1 = bisect.bisect_left(idx, self.start1)
        rows1 = [m - self.start1 for m in idx[start1:]]
        return _Layout(len(idx), end0, start1), (idx[:end0], rows1)


class _Step:
    """Energies and rescaled fields of a candidate step of every member."""

    __slots__ = ("layout", "energy", "fields", "spectra", "kinetic", "mass_error")

    def __init__(
        self, layout: _Layout, energy: list[float], fields: list, spectra: list,
        kinetic: list[list[float]], mass_error: list[float],
    ) -> None:
        self.layout, self.energy = layout, energy
        self.fields, self.spectra, self.kinetic, self.mass_error = (
            fields, spectra, kinetic, mass_error
        )

    def overwrite(self, other: "_Step", picks: list[int]) -> None:
        """Take other's candidates of the members picks (increasing)."""
        _, rows = self.layout.take(picks)
        for m in picks:
            self.energy[m] = other.energy[m]
            self.kinetic[m] = other.kinetic[m]
            self.mass_error[m] = other.mass_error[m]
        for c in (0, 1):
            if rows[c]:
                self.fields[c][rows[c]] = other.fields[c][rows[c]]
                self.spectra[c][rows[c]] = other.spectra[c][rows[c]]


def _decimate(rows: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    if len(rows) <= TRAJECTORY_CAP:
        return rows
    stride = math.ceil(len(rows) / TRAJECTORY_CAP)
    out = rows[::stride]
    if out[-1] != rows[-1]:
        out.append(rows[-1])
    return out


def _non_finite(values: np.ndarray, component: int, iteration: int, name: str) -> ValueError:
    """Error naming the start and the first node where a flow iterate is not finite.

    Finite values whose squared sum overflows are located at their largest
    magnitude.
    """
    flat = np.flatnonzero(~np.isfinite(values))
    index = int(flat[0]) if flat.size else int(np.argmax(np.abs(values)))
    node = tuple(int(j) for j in np.unravel_index(index, values.shape))
    return ValueError(
        f"solver: {name}: non-finite value in u{component + 1} at node {node}, "
        f"iteration {iteration}"
    )


def _rowdot(a: np.ndarray, b: np.ndarray, scale: float = 1.0) -> list[float]:
    """scale * Re np.vdot(a[j], b[j]) for every row j of two stacks.

    np.vecdot makes the same BLAS call for each row as np.vdot; one row
    goes to np.vdot directly, which costs less per call.
    """
    if len(a) == 1:
        return [scale * float(np.vdot(a, b).real)]
    if a.ndim > 2:
        a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    return [scale * z.real for z in np.vecdot(a, b).tolist()]


def _flow(
    grid: Grid,
    spec: ProblemSpec,
    pots: tuple[np.ndarray, np.ndarray],
    members: list[_Member],
    config: SolverConfig,
) -> list[tuple[tuple[np.ndarray, np.ndarray], _FlowInfo]]:
    """Run the projected, preconditioned nonlinear CG descent on a batch of starts.

    Every member has its own masses (at least one positive) and start and
    shares the exponents and couplings of spec and the sampled potentials
    pots.  The fields of all members are stacked, one row per member that
    carries a component, and every FFT, reduction and BLAS dot product
    acts row by row; each member's scalars stay Python floats.  So each
    member keeps its own step, CG state, step cuts, trajectory and
    stopping test, and does exactly the arithmetic of a batch of one.  A
    line-search round evaluates every member; only the rows of members
    still searching replace their accepted step.  A converged member
    leaves the batch.  Results come back in member order.
    """
    cell = grid.cell_volume
    shape = grid.shape
    axes = tuple(range(1, grid.dim + 1))
    col = (slice(None),) + (None,) * grid.dim
    # Per-grid arrays carry a leading axis of length 1, so that with one
    # member every operation meets arrays of equal shape.
    k2 = _rfft_k2(grid)[None]
    wgt = _rfft_weights(grid)[None]
    wk2 = wgt * k2
    # Complex copies scale complex spectra without a cast on every call; the
    # products are the same, as numpy casts a real factor to complex anyway.
    k2_c = k2.astype(complex)
    wgt_c = wgt.astype(complex)
    spectral_scale = cell / grid.n**grid.dim

    v = (pots[0][None], pots[1][None])
    mu = (spec.mu1, spec.mu2)
    pw = (2.0 * spec.p1, 2.0 * spec.p2)
    q3 = spec.p3 + 1.0
    s3 = spec.p3 - 1.0
    # S, or None where V <= 0, so that S == 1 and the whole step stays in the
    # half spectrum.
    sandwich = [
        np.sqrt(_PRECOND_SHIFT / (_PRECOND_SHIFT + np.maximum(v[c], 0.0)))
        if float(np.max(v[c])) > 0.0
        else None
        for c in (0, 1)
    ]

    # Where a potential is 0 everywhere its energy term is an exact +0.0,
    # and adding it would change no sum but -0.0, so it is skipped.
    has_potential = [bool(np.any(v[c])) for c in (0, 1)]
    add_reduce = np.add.reduce

    def total(x: np.ndarray) -> list[float]:
        return add_reduce(x, axis=axes).tolist()

    def kinetic_of(spectra: np.ndarray) -> list[float]:
        return [0.5 * spectral_scale * s for s in total(wk2 * np.abs(spectra) ** 2)]

    def column(values: list[float]) -> np.ndarray | float:
        """Per-member factors shaped to scale stacked rows; one member's is a float."""
        return values[0] if len(values) == 1 else np.array(values)[col]

    def member_dots(a_hat: list, b_hat: list, weighted: bool = False) -> list:
        """Per member, the sum over its components of the L2 products <a, b>
        of real fields given by their half spectra.

        weighted says that b_hat already carries the half-spectrum weights.
        """
        out = [0] * lay.size
        for c in lay.comps:
            b_c = b_hat[c] if weighted else wgt_c * b_hat[c]
            for m, x in zip(lay.parts[c], _rowdot(a_hat[c], b_c, spectral_scale)):
                out[m] += x
        return out

    def terms(lay: _Layout, ua: list, sq: list, kin: list[list[float]]) -> list[float]:
        """Energies of the members' fields ua, given their squares sq."""
        e = [k[0] + k[1] for k in kin]
        mag = [None, None]
        for c in lay.comps:
            mag[c] = np.abs(ua[c])
            if has_potential[c]:
                for m, p in zip(lay.parts[c], total(v[c] * sq[c])):
                    e[m] += 0.5 * cell * p
            own = total(mag[c] ** (pw[c] + 2.0))
            for m, s in zip(lay.parts[c], own):
                e[m] -= mu[c] / (pw[c] + 2.0) * cell * s
        lo, hi = lay.start1, lay.end0
        if lo < hi:
            cross = total(mag[0][lo:] ** q3 * mag[1][: hi - lo] ** q3)
            for m, s in zip(range(lo, hi), cross):
                e[m] -= spec.beta / q3 * cell * s
        return e

    def forces(lay: _Layout, ua: list) -> list:
        """V u minus the nonlinear force, for each component."""
        mag = [None, None]
        f = [None, None]
        for c in lay.comps:
            mag[c] = np.abs(ua[c])
            f[c] = mu[c] * mag[c] ** pw[c] * ua[c]
        lo, hi = lay.start1, lay.end0
        if lo < hi:
            f[0][lo:] += spec.beta * mag[1][: hi - lo] ** q3 * _signed_power(
                ua[0][lo:], mag[0][lo:], s3
            )
            f[1][: hi - lo] += spec.beta * mag[0][lo:] ** q3 * _signed_power(
                ua[1][: hi - lo], mag[1][: hi - lo], s3
            )
        return [None if f[c] is None else v[c] * ua[c] - f[c] for c in (0, 1)]

    def direction(c: int, force: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectra of G, of the residual G + lambda u and of the direction d.

        d = P G - (<u, P G> / <u, P u>) P u with P = S (a - lap)^-1 S.  The
        shift a is raised to the current multiplier estimate
        lambda = -<G, u> / |u|^2 when that exceeds 1: in the tails, where
        the energy Hessian is -lap + V + lambda, this keeps the eigenvalues
        of P times the Hessian at most 1 for components with lambda > 1.
        """
        u_hat = spectra[c]
        g_hat = k2_c * u_hat + np.fft.rfftn(force, s=shape, axes=axes)
        g_dot_u = _rowdot(u_hat, wgt_c * g_hat, spectral_scale)
        lam = [-x / runs[m].masses[c] for m, x in zip(lay.parts[c], g_dot_u)]
        resolvent = 1.0 / (column([max(_PRECOND_SHIFT, x) for x in lam]) + k2)
        # complex once here, rather than cast in each product below
        w_resolvent = (wgt * resolvent).astype(complex)
        resolvent = resolvent.astype(complex)
        sg_hat = g_hat
        su_hat = u_hat
        s_c = sandwich[c]
        if s_c is not None:
            sg_hat = np.fft.rfftn(
                s_c * np.fft.irfftn(g_hat, s=shape, axes=axes), s=shape, axes=axes
            )
            su_hat = np.fft.rfftn(s_c * fields[c], s=shape, axes=axes)
        coef = [
            x / y
            for x, y in zip(
                _rowdot(su_hat, w_resolvent * sg_hat), _rowdot(su_hat, w_resolvent * su_hat)
            )
        ]
        d_hat = resolvent * (sg_hat - column(coef) * su_hat)
        if s_c is not None:
            d_hat = np.fft.rfftn(
                s_c * np.fft.irfftn(d_hat, s=shape, axes=axes), s=shape, axes=axes
            )
        return g_hat, g_hat + column(lam) * u_hat, d_hat

    def candidates(steps: list[float], s_hat: list) -> _Step:
        """Energies and fields of N[u - step s], rescaled to the masses, one step per member."""
        cand_hat, cand, m_star = [None, None], [None, None], [None, None]
        for c in lay.comps:
            part = lay.parts[c]
            cand_hat[c] = spectra[c] - column(steps[part.start : part.stop]) * s_hat[c]
            cand[c] = np.fft.irfftn(cand_hat[c], s=shape, axes=axes)
            m_star[c] = [cell * s for s in total(cand[c] ** 2)]
        if not all(all(map(math.isfinite, m_star[c])) for c in lay.comps):
            j, c, r = min(
                (runs[m].member, c, r)
                for c in lay.comps
                for r, m in enumerate(lay.parts[c])
                if not math.isfinite(m_star[c][r])
            )
            raise _non_finite(cand[c][r], c, it, members[j].name)
        new, new_hat, sq = [None, None], [None, None], [None, None]
        kin = [[0.0, 0.0] for _ in range(lay.size)]
        mass_err = [0.0] * lay.size
        for c in lay.comps:
            part = lay.parts[c]
            alphas = [runs[m].masses[c] for m in part]
            scale = [math.sqrt(a / m) for a, m in zip(alphas, m_star[c])]
            scale_c = column(scale)
            new[c] = cand[c] * scale_c
            new_hat[c] = cand_hat[c] * scale_c
            sq[c] = new[c] ** 2
            mass = total(sq[c])
            for m, a, sc, k, ms in zip(part, alphas, scale, kinetic_of(cand_hat[c]), mass):
                kin[m][c] = sc**2 * k
                mass_err[m] = max(mass_err[m], abs(cell * ms - a) / a)
        return _Step(lay, terms(lay, new, sq, kin), new, new_hat, kin, mass_err)

    # Members are ordered u1-only, both, u2-only, so that each component's
    # members form one contiguous block of rows.
    rank = {(True, False): 0, (True, True): 1, (False, True): 2}
    order = sorted(
        range(len(members)), key=lambda j: rank[tuple(a > 0.0 for a in members[j].masses)]
    )
    start: dict[tuple[int, int], np.ndarray] = {}
    for j, member in enumerate(members):
        for c in (0, 1):
            mass = member.masses[c]
            if mass > 0.0:
                if np.any(np.imag(member.init[c])):
                    raise ValueError(f"solver: {member.name}: u{c + 1} is not real")
                values = np.array(np.real(member.init[c]), dtype=np.float64)
                if not np.all(np.isfinite(values)):
                    raise _non_finite(values, c, 0, member.name)
                start_mass = cell * float(np.sum(values**2))
                if start_mass == 0.0:
                    raise ValueError(
                        f"solver: {member.name}: u{c + 1} has zero mass and cannot be "
                        f"rescaled to mass {mass}"
                    )
                start[j, c] = values * math.sqrt(mass / start_mass)
    lay = _Layout(
        len(members),
        sum(1 for member in members if member.masses[0] > 0.0),
        sum(1 for member in members if member.masses[1] == 0.0),
    )
    fields = [
        np.array([start[j, c] for j in order if (j, c) in start]) if lay.parts[c] else None
        for c in (0, 1)
    ]
    spectra = [None if x is None else np.fft.rfftn(x, s=shape, axes=axes) for x in fields]
    kin0 = [[0.0, 0.0] for _ in order]
    for c in lay.comps:
        for m, k in zip(lay.parts[c], kinetic_of(spectra[c])):
            kin0[m][c] = k
    energy0 = terms(lay, fields, [None if x is None else x**2 for x in fields], kin0)
    runs = [
        _Run(j, members[j].masses, e, tuple(k), config.dt)
        for j, e, k in zip(order, energy0, kin0)
    ]
    r_prev: list = [None, None]
    s_prev: list = [None, None]
    out: list = [None] * len(members)

    it = 0
    while it < config.max_iters:
        it += 1
        comps = lay.comps
        force = forces(lay, fields)
        g_hat: list = [None, None]
        r_hat: list = [None, None]
        d_hat: list = [None, None]
        for c in comps:
            g_hat[c], r_hat[c], d_hat[c] = direction(c, force[c])

        # Polak-Ribiere+ with one beta for both components; the previous
        # search direction is projected onto the tangent space at u.
        # Since <u, d> = 0, <G, d> = <r, d>: the slope along d.
        wd_hat = [None if d is None else wgt_c * d for d in d_hat]
        rd = member_dots(r_hat, wd_hat, weighted=True)
        s_hat, slope = d_hat, rd
        if any(run.rd_prev is not None for run in runs):
            rd_mixed = member_dots(r_prev, wd_hat, weighted=True)
            beta = [
                0.0 if run.rd_prev is None else (x - y) / run.rd_prev
                for run, x, y in zip(runs, rd, rd_mixed)
            ]
            if any(b > 0.0 for b in beta):
                cg_hat: list = [None, None]
                for c in comps:
                    part = lay.parts[c]
                    along = [
                        x / runs[m].masses[c]
                        for m, x in zip(
                            part, _rowdot(spectra[c], wgt_c * s_prev[c], spectral_scale)
                        )
                    ]
                    cg_hat[c] = d_hat[c] + column(beta[part.start:part.stop]) * (
                        s_prev[c] - column(along) * spectra[c]
                    )
                cg_slope = member_dots(g_hat, cg_hat)
                on_cg = [b > 0.0 and x > 0.0 for b, x in zip(beta, cg_slope)]
                if all(on_cg):
                    s_hat, slope = cg_hat, cg_slope
                elif any(on_cg):
                    s_hat = [
                        None if c not in comps else np.where(
                            column([on_cg[m] for m in lay.parts[c]]), cg_hat[c], d_hat[c]
                        )
                        for c in (0, 1)
                    ]
                    slope = [x if cg else y for cg, x, y in zip(on_cg, cg_slope, rd)]

        # One trial at the last accepted step, then the minimizer of the
        # parabola through E(0), E'(0) = -slope and E(trial); halve on a rise.
        # Every round evaluates the whole batch, but only the rows of members
        # still searching replace their accepted step.  A member that stopped
        # searching is evaluated again at a trial it already took, so its rows
        # are finite and are discarded.
        trial = [run.tau for run in runs]
        searching = list(range(lay.size))
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
                if len(lower) == len(searching):
                    best = other
                elif lower:
                    best.overwrite(other, lower)
                for m in lower:
                    runs[m].tau = t_quad[m]
            if len(searching) == lay.size:
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

        moved = [None, None]
        for c in comps:
            moved[c] = np.maximum.reduce(np.abs(step.fields[c] - fields[c]), axis=axes).tolist()
        residual = [0.0] * lay.size
        for c in comps:
            for m, x in zip(lay.parts[c], moved[c]):
                residual[m] = max(residual[m], x / runs[m].tau)
        done = []
        for m, run in enumerate(runs):
            e_new = step.energy[m]
            run.max_inc = max(run.max_inc, e_new - run.energy)
            run.max_mass_err = max(run.max_mass_err, step.mass_error[m])
            for c in comps:
                if run.kin0[c] > 0.0:
                    run.max_grad_ratio = max(
                        run.max_grad_ratio, math.sqrt(step.kinetic[m][c] / run.kin0[c])
                    )
            delta_e = abs(e_new - run.energy)
            run.energy = e_new
            run.trajectory.append((it, e_new, residual[m]))
            run.rd_prev = rd[m] if rd[m] > 0.0 else None
            if residual[m] < config.tol_residual and delta_e < config.tol_energy:
                done.append(m)
        fields, spectra = step.fields, step.spectra
        r_prev, s_prev = r_hat, s_hat

        leaving = range(lay.size) if it == config.max_iters else done
        for m in leaving:
            run = runs[m]
            pair = tuple(
                fields[c][m - lay.parts[c].start].copy() if m in lay.parts[c] else np.zeros(shape)
                for c in (0, 1)
            )
            out[run.member] = (
                pair,
                _FlowInfo(
                    iterations=it,
                    final_residual=residual[m],
                    converged=m in done,
                    energy=run.energy,
                    trajectory=_decimate(run.trajectory),
                    max_energy_increase=run.max_inc,
                    max_mass_error=run.max_mass_err,
                    max_grad_ratio=run.max_grad_ratio,
                    final_dt=float(run.tau),
                    step_cuts=run.cuts,
                ),
            )
        if len(leaving) == lay.size:
            break
        if done:
            keep = [m for m in range(lay.size) if m not in done]
            new_lay, rows = lay.take(keep)
            fields, spectra, r_prev, s_prev = (
                [None if x is None else x[rows[c]] for c, x in enumerate(arrays)]
                for arrays in (fields, spectra, r_prev, s_prev)
            )
            runs = [runs[m] for m in keep]
            lay = new_lay
    return out


def _initializations(
    grid: Grid,
    config: SolverConfig,
    init: State | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic list of starting pairs; start 0 is canonical."""
    rng = np.random.default_rng(config.rng_seed)
    base_width = min(grid.length / 16.0, 4.0)
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    if init is not None:
        if init.grid != grid:
            raise ValueError("init state grid does not match solve grid")
        base = (init.u1.values, init.u2.values)
    else:
        base = (
            _bump(grid, base_width, (0,)),
            _bump(grid, 0.75 * base_width, (0,)),
        )
    starts.append(base)
    max_off = max(1, grid.n // 16)
    for _ in range(config.multi_start - 1):
        w1 = base_width * rng.uniform(0.5, 2.0)
        w2 = base_width * rng.uniform(0.5, 2.0)
        off1 = tuple(int(rng.integers(-max_off, max_off + 1)) for _ in range(grid.dim))
        off2 = tuple(int(rng.integers(-max_off, max_off + 1)) for _ in range(grid.dim))
        noise = 1.0 + 0.05 * rng.standard_normal(grid.shape)
        starts.append(
            (
                _bump(grid, w1, off1) * np.abs(noise),
                _bump(grid, w2, off2),
            )
        )
    return starts


def _check(spec: ProblemSpec) -> None:
    violations = validate(spec)
    if violations:
        raise ValueError("; ".join(violations))


_Job = tuple[ProblemSpec, tuple[np.ndarray, np.ndarray], list[_Member]]
_FlowOut = list[tuple[tuple[np.ndarray, np.ndarray], _FlowInfo]]


def _solve_all(
    grid: Grid,
    groups: list[tuple[list[ProblemSpec], tuple[np.ndarray, np.ndarray]]],
    config: SolverConfig,
    init: State | None = None,
) -> list[list[SolveResult]]:
    """Minimize every spec of every group, each the best of multi_start flow runs.

    A group is a list of specs that differ only in their masses, with
    their sampled potentials.  The starts of a group's specs run as flow
    batches of at most _NODE_BUDGET grid nodes; groups never share a
    batch.  All batches of all groups run in _run_batches.  A spec with
    both masses zero is returned immediately with zero energy.  Returns
    each group's results in spec order.
    """
    per_flow = max(1, _NODE_BUDGET // grid.n**grid.dim)
    starts = None
    jobs: list[_Job] = []
    job_groups: list[int] = []
    owners: list[list[int]] = []
    for g, (specs, pots) in enumerate(groups):
        members: list[_Member] = []
        owners.append([])
        for j, spec in enumerate(specs):
            if spec.alpha1 == 0.0 and spec.alpha2 == 0.0:
                continue
            if starts is None:
                starts = _initializations(grid, config, init)
            solve = "" if len(specs) == 1 else (
                f" of the solve at masses ({spec.alpha1}, {spec.alpha2})"
            )
            for k, start in enumerate(starts):
                members.append(_Member(spec.masses, start, f"start {k}{solve}"))
                owners[g].append(j)
        for lo in range(0, len(members), per_flow):
            jobs.append((specs[0], pots, members[lo : lo + per_flow]))
            job_groups.append(g)
    runs: list[_FlowOut] = [[] for _ in groups]
    for g, out in zip(job_groups, _run_batches(grid, config, jobs)):
        runs[g] += out
    results = []
    for g, (specs, pots) in enumerate(groups):
        pot_fields = (Field(grid, pots[0]), Field(grid, pots[1]))
        results.append([
            _result(grid, spec, pot_fields, config,
                    [r for r, o in zip(runs[g], owners[g]) if o == j])
            for j, spec in enumerate(specs)
        ])
    return results


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


def _run_shares(items: list[Callable[[], object]], what: str, alone: bool = False) -> list:
    """Results of the zero-argument callables items, in order.

    With at least two items and two usable cores, os.fork available, no
    other Python thread alive (forking a process with threads can deadlock
    the child) and no other call's workers running, here or as this
    process, the items are dealt round-robin to up to one share per core;
    with alone, item 0 has share 0 to itself.  This process runs share 0;
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
        if alone:
            deal = [range(1), *(range(s, count, shares - 1) for s in range(1, shares))]
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


def _run_batches(grid: Grid, config: SolverConfig, jobs: list[_Job]) -> list[_FlowOut]:
    """Flow outputs of every batch (spec, pots, members) in jobs, in order;
    see _run_shares for where they run."""
    return _run_shares(
        [functools.partial(_flow, grid, *job, config) for job in jobs], "flow batch"
    )


def _result(
    grid: Grid,
    spec: ProblemSpec,
    pot_fields: tuple[Field, Field],
    config: SolverConfig,
    runs: list[tuple[tuple[np.ndarray, np.ndarray], _FlowInfo]],
) -> SolveResult:
    """The solve record of a spec from its starts' runs, in start order."""
    if not runs:
        zero = Field(grid, np.zeros(grid.shape))
        state = State(zero, zero)
        return SolveResult(
            state=state,
            report=energy(state, spec, pot_fields),
            multipliers=Multipliers(float("nan"), float("nan")),
            iterations=0,
            final_residual=0.0,
            converged=True,
            trajectory_energies=[(0, 0.0, 0.0)],
            diagnostics={
                "starts": 0,
                "best_start": 0,
                "final_dt": None,
                "step_cuts": 0,
                "per_start": [],
            },
        )
    best_idx = 0
    for idx, (_, info) in enumerate(runs):
        if info.energy < runs[best_idx][1].energy - 1e-12:
            best_idx = idx
    pair, info = runs[best_idx]
    state = State(Field(grid, pair[0]), Field(grid, pair[1]))
    return SolveResult(
        state=state,
        report=energy(state, spec, pot_fields),
        multipliers=multipliers(state, spec, pot_fields),
        iterations=info.iterations,
        final_residual=info.final_residual,
        converged=info.converged,
        trajectory_energies=info.trajectory,
        diagnostics={
            "starts": config.multi_start,
            "best_start": best_idx,
            "max_energy_increase": info.max_energy_increase,
            "max_mass_error": info.max_mass_error,
            "max_grad_ratio": info.max_grad_ratio,
            "final_dt": info.final_dt,
            "step_cuts": info.step_cuts,
            "per_start": [
                {
                    "iterations": run.iterations,
                    "energy": run.energy,
                    "converged": run.converged,
                    "step_cuts": run.step_cuts,
                }
                for _, run in runs
            ],
        },
    )


def minimize(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    grid: Grid | None = None,
    init: State | None = None,
) -> SolveResult:
    """Minimize the constrained energy; best of multi_start flow runs.

    The starts run as one flow batch, or, past _NODE_BUDGET grid nodes, as
    several, on up to one process per usable core (serially on a single
    core).  Raises ValueError when the problem violates the standing
    hypotheses.  A state with both masses zero is
    returned immediately with zero energy.
    """
    _check(spec)
    config = config or SolverConfig()
    grid = grid or default_grid(spec.dim)
    pots = (
        sample_potential(spec.v1, grid).values,
        sample_potential(spec.v2, grid).values,
    )
    return _solve_all(grid, [([spec], pots)], config, init)[0][0]


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
    converge are marked untrusted.  Every theta must lie in [0, 1]^2;
    all are checked, with their subproblems, before any solve runs.  The
    full problem and every inner split e(theta alpha) run as one flow
    batch, and every potential-free outer split as a second one (each
    split further past _NODE_BUDGET grid nodes).  The batches run at the
    same time on up to one process per usable core, and one after another
    on a single core; the results are the same either way.
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
        split = (
            spec.with_masses(theta[0] * spec.alpha1, theta[1] * spec.alpha2),
            free.with_masses((1.0 - theta[0]) * spec.alpha1, (1.0 - theta[1]) * spec.alpha2),
        )
        for sub in split:
            violations = validate(sub)
            if violations:
                raise ValueError(f"scan_subadditivity: theta {theta}: " + "; ".join(violations))
        thetas.append(theta)
        inner.append(split[0])
        outer.append(split[1])

    def pots_of(s: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
        return (sample_potential(s.v1, grid).values, sample_potential(s.v2, grid).values)

    (full, *res_in), res_out = _solve_all(
        grid, [([spec, *inner], pots_of(spec)), (outer, pots_of(free))], config
    )
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
