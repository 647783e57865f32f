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

It restarts as s = d when <G, s> <= 0, after a recentering, and when
backtracking along s reaches the step floor.  Each component then moves
to u - tau s and is rescaled exactly back to its target mass.

The step tau comes from a quadratic model of the energy along s: one
trial at the last accepted step (dt on the first iteration), and, when
the parabola through E(0), E'(0) = -<G, s> and E(trial) curves upward
and its predicted decrease is above the energy's rounding, one more
evaluation at its minimizer, clamped to [0.1, 5] times the trial.  The
lower of the two energies is kept.  A step that would still raise the
energy is halved, so the accepted energy sequence is nonincreasing up to
roundoff.  A run halts when both the update residual
|u_new - u_old|_inf / tau and the energy decrement fall below their
tolerances.  Where the potential is bounded above by 0, S = 1 and the
whole step is done on the real-FFT half spectrum: one forward transform
of the potential and interaction force and one inverse transform per
energy evaluation.

Several starts with randomized bump initializations are run and the
lowest final energy wins; ties go to the earliest start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .energy import (
    EnergyReport,
    Multipliers,
    _component_multiplier,
    _signed_power,
    energy,
    gradient,
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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the projected, preconditioned nonlinear CG descent.

    dt is the first trial step; later steps come from the quadratic
    energy model along the search direction, and the fixed point does not
    depend on dt.  Convergence requires the update residual below
    tol_residual and the per-step energy decrement below tol_energy on
    the same step.  When symmetrize_every is a positive integer, the
    density centroid is re-centered to the origin every that many
    accepted steps (whole-cell shifts only), which pins down
    translation-invariant problems.
    """

    dt: float = 0.01
    tol_residual: float = 1e-8
    tol_energy: float = 1e-12
    max_iters: int = 200000
    multi_start: int = 3
    symmetrize_every: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.multi_start < 1:
            raise ValueError("multi_start must be at least 1")
        if self.symmetrize_every is not None and self.symmetrize_every < 0:
            raise ValueError("symmetrize_every must be nonnegative or None")


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


def _scaled_to_mass(values: np.ndarray, mass: float, cell: float) -> np.ndarray:
    cur = cell * float(np.sum(values**2))
    if cur <= 0.0:
        raise ValueError("cannot rescale a zero field to positive mass")
    return values * math.sqrt(mass / cur)


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


def _decimate(rows: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    if len(rows) <= TRAJECTORY_CAP:
        return rows
    stride = math.ceil(len(rows) / TRAJECTORY_CAP)
    out = rows[::stride]
    if out[-1] != rows[-1]:
        out.append(rows[-1])
    return out


def _non_finite(values: np.ndarray, component: int, iteration: int) -> ValueError:
    """Error naming the first node where a flow iterate is not finite.

    Finite values whose squared sum overflows are located at their largest
    magnitude.
    """
    flat = np.flatnonzero(~np.isfinite(values))
    index = int(flat[0]) if flat.size else int(np.argmax(np.abs(values)))
    node = tuple(int(j) for j in np.unravel_index(index, values.shape))
    return ValueError(
        f"solver: non-finite value in u{component + 1} at node {node}, "
        f"iteration {iteration}"
    )


def _flow(
    grid: Grid,
    spec: ProblemSpec,
    pots: tuple[np.ndarray, np.ndarray],
    init: tuple[np.ndarray, np.ndarray],
    config: SolverConfig,
) -> tuple[tuple[np.ndarray, np.ndarray], _FlowInfo]:
    """Run the projected, preconditioned nonlinear CG descent from one start."""
    cell = grid.cell_volume
    npts = grid.n**grid.dim
    axes = tuple(range(grid.dim))
    k2 = _rfft_k2(grid)
    wgt = _rfft_weights(grid)
    spectral_scale = cell / npts

    v = pots
    mu = (spec.mu1, spec.mu2)
    pw = (2.0 * spec.p1, 2.0 * spec.p2)
    q3 = spec.p3 + 1.0
    s3 = spec.p3 - 1.0
    alpha = (spec.alpha1, spec.alpha2)
    active = tuple(a > 0.0 for a in alpha)
    comps = [i for i in (0, 1) if active[i]]
    # S, or None where V <= 0, so that S == 1 and the whole step stays in the
    # half spectrum.
    sandwich = [
        np.sqrt(_PRECOND_SHIFT / (_PRECOND_SHIFT + np.maximum(v[i], 0.0)))
        if active[i] and float(np.max(v[i])) > 0.0
        else None
        for i in (0, 1)
    ]

    u = [np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64)]
    for i in (0, 1):
        if not active[i]:
            u[i] = np.zeros(grid.shape)
            continue
        if not np.all(np.isfinite(u[i])):
            raise _non_finite(u[i], i, 0)
        u[i] = _scaled_to_mass(u[i], alpha[i], cell)
    u_hat = [np.fft.rfftn(u[i]) if active[i] else None for i in (0, 1)]

    def terms(ua: list[np.ndarray], kin: tuple[float, float]) -> float:
        m0, m1 = np.abs(ua[0]), np.abs(ua[1])
        e = kin[0] + kin[1]
        if active[0]:
            e += 0.5 * cell * float(np.sum(v[0] * ua[0] ** 2))
            e -= mu[0] / (pw[0] + 2.0) * cell * float(np.sum(m0 ** (pw[0] + 2.0)))
        if active[1]:
            e += 0.5 * cell * float(np.sum(v[1] * ua[1] ** 2))
            e -= mu[1] / (pw[1] + 2.0) * cell * float(np.sum(m1 ** (pw[1] + 2.0)))
        if active[0] and active[1]:
            e -= spec.beta / q3 * cell * float(np.sum(m0**q3 * m1**q3))
        return e

    def dot(a_hat: np.ndarray, b_hat: np.ndarray) -> float:
        """L2 inner product of two real fields given by their half spectra."""
        return spectral_scale * float(np.vdot(a_hat, wgt * b_hat).real)

    def kinetic_of(spectrum: np.ndarray) -> float:
        return 0.5 * spectral_scale * float(np.sum(wgt * k2 * np.abs(spectrum) ** 2))

    def direction(
        i: int, force_i: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectra of G, of the residual G + lambda u and of the direction d.

        d = P G - (<u, P G> / <u, P u>) P u with P = S (a - lap)^-1 S.  The
        shift a is raised to the current multiplier estimate
        lambda = -<G, u> / |u|^2 when that exceeds 1: in the tails, where
        the energy Hessian is -lap + V + lambda, this keeps the eigenvalues
        of P times the Hessian at most 1 for components with lambda > 1.
        """
        g_hat = k2 * u_hat[i] + np.fft.rfftn(force_i)
        lam = -dot(u_hat[i], g_hat) / alpha[i]
        resolvent = 1.0 / (max(_PRECOND_SHIFT, lam) + k2)
        w_resolvent = wgt * resolvent
        sg_hat = g_hat
        su_hat = u_hat[i]
        s_i = sandwich[i]
        if s_i is not None:
            sg_hat = np.fft.rfftn(s_i * np.fft.irfftn(g_hat, s=grid.shape, axes=axes))
            su_hat = np.fft.rfftn(s_i * u[i])
        coef = (
            np.vdot(su_hat, w_resolvent * sg_hat).real
            / np.vdot(su_hat, w_resolvent * su_hat).real
        )
        d_hat = resolvent * (sg_hat - coef * su_hat)
        if s_i is not None:
            d_hat = np.fft.rfftn(s_i * np.fft.irfftn(d_hat, s=grid.shape, axes=axes))
        return g_hat, g_hat + lam * u_hat[i], d_hat

    def candidate(step_size: float, s_hat: list) -> tuple:
        """Energy and fields of N[u - step_size * s], rescaled to the masses."""
        new = [u[0], u[1]]
        new_hat = [u_hat[0], u_hat[1]]
        kin_new = [0.0, 0.0]
        mass_err = 0.0
        for i in comps:
            cand_hat = u_hat[i] - step_size * s_hat[i]
            cand = np.fft.irfftn(cand_hat, s=grid.shape, axes=axes)
            m_star = cell * float(np.sum(cand**2))
            if not math.isfinite(m_star):
                raise _non_finite(cand, i, it)
            scale = math.sqrt(alpha[i] / m_star)
            new[i] = cand * scale
            new_hat[i] = cand_hat * scale
            kin_new[i] = scale**2 * kinetic_of(cand_hat)
            mass_err = max(
                mass_err,
                abs(cell * float(np.sum(new[i] ** 2)) - alpha[i]) / alpha[i],
            )
        return terms(new, (kin_new[0], kin_new[1])), new, new_hat, kin_new, mass_err

    kin0 = tuple(kinetic_of(u_hat[i]) if active[i] else 0.0 for i in (0, 1))
    e_old = terms(u, kin0)

    tau = config.dt
    cuts = 0
    residual = math.inf
    converged = False
    it = 0
    max_inc = 0.0
    max_mass_err = 0.0
    max_grad_ratio = 1.0
    rows: list[tuple[int, float, float]] = [(0, e_old, math.inf)]
    # (residual, <residual, direction>, search direction) of the previous
    # step, or None after a recentering or a vanishing direction.
    prev = None

    while it < config.max_iters:
        it += 1
        m0, m1 = np.abs(u[0]), np.abs(u[1])
        g_hat: list = [None, None]
        r_hat: list = [None, None]
        d_hat: list = [None, None]
        if active[0]:
            f = mu[0] * m0 ** pw[0] * u[0]
            if active[1]:
                f = f + spec.beta * m1**q3 * _signed_power(u[0], m0, s3)
            g_hat[0], r_hat[0], d_hat[0] = direction(0, v[0] * u[0] - f)
        if active[1]:
            f = mu[1] * m1 ** pw[1] * u[1]
            if active[0]:
                f = f + spec.beta * m0**q3 * _signed_power(u[1], m1, s3)
            g_hat[1], r_hat[1], d_hat[1] = direction(1, v[1] * u[1] - f)

        # Polak-Ribiere+ with one beta for both components; the previous
        # search direction is projected onto the tangent space at u.
        # Since <u, d> = 0, <G, d> = <r, d>: the slope along d.
        rd = sum(dot(r_hat[i], d_hat[i]) for i in comps)
        s_hat, slope = d_hat, rd
        if prev is not None:
            r_prev, rd_prev, s_prev = prev
            beta = (rd - sum(dot(r_prev[i], d_hat[i]) for i in comps)) / rd_prev
            if beta > 0.0:
                cg_hat: list = [None, None]
                for i in comps:
                    along = dot(u_hat[i], s_prev[i]) / alpha[i]
                    cg_hat[i] = d_hat[i] + beta * (s_prev[i] - along * u_hat[i])
                cg_slope = sum(dot(g_hat[i], cg_hat[i]) for i in comps)
                if cg_slope > 0.0:
                    s_hat, slope = cg_hat, cg_slope

        # One trial at the last accepted step, then the minimizer of the
        # parabola through E(0), E'(0) = -slope and E(trial); halve on a rise.
        first_trial = trial = tau
        slack = 1e-13 * max(1.0, abs(e_old))
        resolution = _ENERGY_RESOLUTION * abs(e_old)
        while True:
            tau = trial
            best = candidate(trial, s_hat)
            curvature = (best[0] - e_old + slope * trial) / trial**2
            if curvature > 0.0 and slope * trial > resolution:
                t_quad = min(
                    max(slope / (2.0 * curvature), _QUAD_CLAMP[0] * trial),
                    _QUAD_CLAMP[1] * trial,
                )
                other = candidate(t_quad, s_hat)
                if other[0] < best[0]:
                    tau, best = t_quad, other
            if best[0] <= e_old + slack:
                break
            if tau <= 1e-12:
                if s_hat is d_hat:
                    break
                # a stale CG direction: restart along d from the same trial
                s_hat, slope = d_hat, rd
                trial = first_trial
                continue
            trial = 0.5 * tau
            cuts += 1
        e_new, new, new_hat, kin_new, mass_err = best

        residual = 0.0
        for i in comps:
            residual = max(residual, float(np.max(np.abs(new[i] - u[i]))) / tau)
        max_inc = max(max_inc, e_new - e_old)
        max_mass_err = max(max_mass_err, mass_err)
        for i in comps:
            if kin0[i] > 0.0:
                max_grad_ratio = max(max_grad_ratio, math.sqrt(kin_new[i] / kin0[i]))
        delta_e = abs(e_new - e_old)
        u, u_hat = new, new_hat
        e_old = e_new
        rows.append((it, e_new, residual))
        prev = (r_hat, rd, s_hat) if rd > 0.0 else None

        if config.symmetrize_every and it % config.symmetrize_every == 0:
            shifted = _recenter(grid, u[0], u[1], active)
            if shifted[0] is not u[0]:
                u = list(shifted)
                u_hat = [np.fft.rfftn(u[i]) if active[i] else None for i in (0, 1)]
                prev = None

        if residual < config.tol_residual and delta_e < config.tol_energy:
            converged = True
            break

    info = _FlowInfo(
        iterations=it,
        final_residual=residual,
        converged=converged,
        energy=e_old,
        trajectory=_decimate(rows),
        max_energy_increase=max_inc,
        max_mass_error=max_mass_err,
        max_grad_ratio=max_grad_ratio,
        final_dt=float(tau),
        step_cuts=cuts,
    )
    return (u[0], u[1]), info


def _recenter(
    grid: Grid,
    u1: np.ndarray,
    u2: np.ndarray,
    active: tuple[bool, bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Shift the combined density centroid to the origin by whole cells."""
    rho = np.zeros(grid.shape)
    if active[0]:
        rho = rho + u1**2
    if active[1]:
        rho = rho + u2**2
    total = float(np.sum(rho))
    if total <= 0.0:
        return u1, u2
    shift = []
    for axis, x in enumerate(grid.meshes()):
        centroid = float(np.sum(x * rho)) / total
        shift.append(-int(round(centroid / grid.h)))
    if all(s == 0 for s in shift):
        return u1, u2
    axes = tuple(range(grid.dim))
    return np.roll(u1, shift, axis=axes), np.roll(u2, shift, axis=axes)


def _multipliers_of(
    state: State,
    spec: ProblemSpec,
    pot_fields: tuple[Field, Field],
) -> Multipliers:
    """Multipliers with nan for absent (zero-mass) components."""
    m1, m2 = state.masses()
    if m1 > 0.0 and m2 > 0.0:
        return multipliers(state, spec, pot_fields)
    grad = gradient(state, spec, pot_fields)
    lam = [float("nan"), float("nan")]
    for i, (gi, ui) in enumerate(((grad.u1, state.u1), (grad.u2, state.u2))):
        if (m1, m2)[i] > 0.0:
            lam[i] = _component_multiplier(gi, ui)
    return Multipliers(lambda1=lam[0], lambda2=lam[1])


def _initializations(
    grid: Grid,
    spec: ProblemSpec,
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
        base = (np.real(init.u1.values).copy(), np.real(init.u2.values).copy())
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


def minimize(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    grid: Grid | None = None,
    init: State | None = None,
) -> SolveResult:
    """Minimize the constrained energy; best of multi_start flow runs.

    Raises ValueError when the problem violates the standing hypotheses.
    A state with both masses zero is returned immediately with zero
    energy.
    """
    violations = validate(spec)
    if violations:
        raise ValueError("; ".join(violations))
    config = config or SolverConfig()
    grid = grid or default_grid(spec.dim)
    pots = (
        sample_potential(spec.v1, grid).values,
        sample_potential(spec.v2, grid).values,
    )

    if spec.alpha1 == 0.0 and spec.alpha2 == 0.0:
        zero = Field(grid, np.zeros(grid.shape))
        state = State(zero, zero)
        report = energy(state, spec, (Field(grid, pots[0]), Field(grid, pots[1])))
        return SolveResult(
            state=state,
            report=report,
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

    best: tuple[float, int, tuple[np.ndarray, np.ndarray], _FlowInfo] | None = None
    per_start = []
    for idx, start in enumerate(_initializations(grid, spec, config, init)):
        pair, info = _flow(grid, spec, pots, start, config)
        per_start.append(
            {
                "iterations": info.iterations,
                "energy": info.energy,
                "converged": info.converged,
                "step_cuts": info.step_cuts,
            }
        )
        if best is None or info.energy < best[0] - 1e-12:
            best = (info.energy, idx, pair, info)
    assert best is not None
    _, best_idx, pair, info = best

    state = State(Field(grid, pair[0]), Field(grid, pair[1]))
    pot_fields = (Field(grid, pots[0]), Field(grid, pots[1]))
    report = energy(state, spec, pot_fields)
    return SolveResult(
        state=state,
        report=report,
        multipliers=_multipliers_of(state, spec, pot_fields),
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
            "per_start": per_start,
        },
    )


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


def _scan_point(
    spec: ProblemSpec,
    theta: tuple[float, float],
    e_total: float,
    config: SolverConfig,
    grid: Grid,
) -> SubaddPoint:
    t1, t2 = theta
    inner_spec = spec.with_masses(t1 * spec.alpha1, t2 * spec.alpha2)
    outer_spec = spec.without_potentials().with_masses(
        (1.0 - t1) * spec.alpha1, (1.0 - t2) * spec.alpha2
    )
    res_in = minimize(inner_spec, config=config, grid=grid)
    res_out = minimize(outer_spec, config=config, grid=grid)
    gap = e_total - res_in.report.total - res_out.report.total
    return SubaddPoint(
        theta1=t1,
        theta2=t2,
        e_inner=res_in.report.total,
        e_outer=res_out.report.total,
        gap=gap,
        trusted=res_in.converged and res_out.converged,
    )


def scan_subadditivity(
    spec: ProblemSpec,
    theta_grid: list[tuple[float, float]],
    config: SolverConfig | None = None,
    grid: Grid | None = None,
) -> SubaddReport:
    """Compare e(alpha) with every split e(theta alpha) + e_inf((1-theta) alpha).

    The full split theta = (1, 1) is skipped: its gap is zero by
    definition.  Strict subadditivity predicts a negative gap at every
    other point.  Points whose subproblem solves did not converge are
    marked untrusted.
    """
    config = config or SolverConfig()
    grid = grid or default_grid(spec.dim)
    full = minimize(spec, config=config, grid=grid)
    e_total = full.report.total
    todo = [
        (float(t1), float(t2))
        for (t1, t2) in theta_grid
        if not (t1 == 1.0 and t2 == 1.0)
    ]
    points = [_scan_point(spec, th, e_total, config, grid) for th in todo]
    if not full.converged:
        points = [replace(p, trusted=False) for p in points]
    return SubaddReport(e_total=e_total, points=points)
