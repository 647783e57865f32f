"""Structural verification tools for computed ground states.

This module checks the qualitative predictions that accompany the
minimization problem: exponential decay rates of the two components
(including the anomalous slow regime forced through the interaction
term), the virial identity satisfied by scalar minimizers, the scaled
convolution limits that drive overlap asymptotics, and the gluing
construction that bounds the energy of a combined state strictly below
the sum of its separated pieces.

Closed-form one-dimensional soliton references are provided for the
cubic case (p = 1), where mass, multiplier and energy have elementary
expressions; these anchor the numerical tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .energy import energy
from .grid import Field, Grid, State, inner, integrate, norm_sq, radial_profile, translate
from .grid import grad_norm_sq
from .model import ProblemSpec, sample_potential
from .solver import SolveResult

__all__ = [
    "DecayRegime",
    "DecayFit",
    "PohozaevCheck",
    "ConvLimitRow",
    "OverlapSeries",
    "GlueLedger",
    "classify_decay_regime",
    "decay_fit",
    "pohozaev_check",
    "convolution_limit_check",
    "overlap_series",
    "glue_states",
    "glue_energy_gap",
    "soliton_1d",
    "soliton_mass_p1",
    "soliton_multiplier_p1",
    "soliton_energy_p1",
]

PROFILE_FLOOR = 1e-14
WINDOW_FRACTION = 0.4


# ---------------------------------------------------------------------------
# closed-form 1D references


def soliton_1d(
    grid: Grid, mu: float, p: float, lam: float, center: float = 0.0
) -> Field:
    """Exact 1D scalar soliton: -w'' + lam w = mu w^(2p+1), w > 0, even.

    w(x) = ((p+1) lam / mu)^(1/(2p)) sech(p sqrt(lam) x)^(1/p).
    """
    if grid.dim != 1:
        raise ValueError("closed-form soliton is one-dimensional")
    x = grid.axes[0] - center
    amp = ((p + 1.0) * lam / mu) ** (1.0 / (2.0 * p))
    return Field(grid, amp * np.cosh(p * math.sqrt(lam) * x) ** (-1.0 / p))


def soliton_mass_p1(mu: float, lam: float) -> float:
    """Squared L2 mass of the p = 1 soliton at multiplier lam."""
    return 4.0 * math.sqrt(lam) / mu


def soliton_multiplier_p1(mu: float, gamma: float) -> float:
    """Multiplier of the p = 1 soliton with squared mass gamma."""
    return (mu * gamma / 4.0) ** 2


def soliton_energy_p1(mu: float, gamma: float) -> float:
    """Scalar ground-state energy at squared mass gamma for p = 1, V = 0."""
    return -(mu**2) * gamma**3 / 96.0


# ---------------------------------------------------------------------------
# decay regimes


@dataclass(frozen=True)
class DecayRegime:
    """Predicted far-field behaviour of one component.

    expected_rate is the exponential decay rate of the amplitude; the
    full model is c (1 + r)^(-(N-1)/2) exp(-expected_rate r).  lambda3
    is the effective squared-rate (1 + p3)^2 lambda1 / (1 - p3)^2 of the
    interaction-forced tail; it is None when p3 >= 1 where that
    mechanism cannot act.
    """

    expected_rate: float
    tag: str
    lambda3: float | None


def classify_decay_regime(
    p3: float,
    lam1: float,
    lam2: float,
    component: int,
) -> DecayRegime:
    """Predict the decay rate of one component from the multipliers.

    Requires 0 < lam1 <= lam2 (order the multipliers before calling).
    The first component always decays at sqrt(lam1).  The second decays
    at sqrt(lam2) when it lives alone, when p3 >= 1, or when the forced
    rate sqrt(lambda3) exceeds sqrt(lam2); otherwise its tail is forced
    by the first component and decays anomalously at sqrt(lambda3).
    """
    if not (0.0 < lam1 <= lam2):
        raise ValueError(f"need 0 < lam1 <= lam2, got ({lam1}, {lam2})")
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    lambda3 = None
    if p3 < 1.0:
        lambda3 = (1.0 + p3) ** 2 * lam1 / (1.0 - p3) ** 2
    if component == 1:
        return DecayRegime(math.sqrt(lam1), "component1", lambda3)
    if p3 >= 1.0 or (lambda3 is not None and lambda3 > lam2):
        return DecayRegime(math.sqrt(lam2), "component2_standard", lambda3)
    return DecayRegime(math.sqrt(lambda3), "component2_anomalous", lambda3)


# ---------------------------------------------------------------------------
# radial decay fitting


@dataclass(frozen=True)
class DecayFit:
    """Fit of log(shell max) = const - rate * r + poly_exponent * log(1 + r)
    over the shells at radii, whose log maxima are log_values."""

    window: tuple[float, float]
    rate: float
    poly_exponent: float
    const: float
    r_squared: float
    n_shells: int
    radii: tuple[float, ...]
    log_values: tuple[float, ...]


def decay_fit(field: Field, window: tuple[float, float]) -> DecayFit:
    """Fit the far-field decay of |field| over a radial window.

    The window upper edge must stay within 0.4 L to avoid periodic
    wrap-around contamination; shells below the floor 1e-14 are ignored.
    At least eight usable shells are required.
    """
    r1, r2 = window
    if not (0.0 <= r1 < r2):
        raise ValueError(f"bad window {window}")
    if r2 > WINDOW_FRACTION * field.grid.length:
        raise ValueError(
            f"window edge {r2} exceeds {WINDOW_FRACTION} L = "
            f"{WINDOW_FRACTION * field.grid.length}; wrap-around would bias the fit"
        )
    radii, maxima = radial_profile(field)
    keep = (radii >= r1) & (radii <= r2) & (maxima > PROFILE_FLOOR)
    r = radii[keep]
    y = np.log(maxima[keep])
    if r.size < 8:
        raise ValueError(f"only {r.size} usable shells in window {window}")
    design = np.column_stack([np.ones_like(r), -r, np.log1p(r)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        window=(r1, r2),
        rate=float(coef[1]),
        poly_exponent=float(coef[2]),
        const=float(coef[0]),
        r_squared=r_sq,
        n_shells=int(r.size),
        radii=tuple(r.tolist()),
        log_values=tuple(y.tolist()),
    )


# ---------------------------------------------------------------------------
# virial identity


@dataclass(frozen=True)
class PohozaevCheck:
    """Normalized virial defect of a scalar ground-state candidate.

    residual = |t_kin + t_mass - t_focus| / max(|t_kin|, |t_mass|, |t_focus|)
    with t_kin = (N-2)/(2N) |grad w|^2, t_mass = (lam/2) |w|^2 and
    t_focus = mu/(2p+2) |w|_(2p+2)^(2p+2).  A zero field is degenerate
    and reports residual 0.
    """

    residual: float
    kinetic_term: float
    mass_term: float
    focusing_term: float
    degenerate: bool


def pohozaev_check(field: Field, lam: float, mu: float, p: float) -> PohozaevCheck:
    """Check the virial identity satisfied by decaying scalar solutions of
    -lap w + lam w = mu |w|^(2p) w on R^N."""
    n = field.grid.dim
    t_kin = (n - 2.0) / (2.0 * n) * grad_norm_sq(field)
    t_mass = 0.5 * lam * norm_sq(field)
    t_focus = mu / (2.0 * p + 2.0) * float(
        integrate(np.abs(field.values) ** (2.0 * p + 2.0), field.grid)
    )
    scale = max(abs(t_kin), abs(t_mass), abs(t_focus))
    if scale == 0.0:
        return PohozaevCheck(0.0, 0.0, 0.0, 0.0, degenerate=True)
    return PohozaevCheck(
        residual=abs(t_kin + t_mass - t_focus) / scale,
        kinetic_term=t_kin,
        mass_term=t_mass,
        focusing_term=t_focus,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# scaled convolution limits


@dataclass(frozen=True)
class ConvLimitRow:
    """One (radius, direction) sample of the scaled convolution."""

    r: float
    omega: tuple[float, ...]
    scaled: float
    limit: float
    ratio: float


def convolution_limit_check(
    f_rate: float,
    g_rate: float,
    poly_power: float,
    grid: Grid,
    r_values: Sequence[float],
) -> list[ConvLimitRow]:
    """Tabulate (1+r)^a e^(r b) int g(r w - y) f(y) dy against its limit, for
    f(y) = e^(-f_rate |y|) and g(x) = (1+|x|)^(-a) e^(-b |x|), with
    a = poly_power and b = g_rate.

    (1+|x|)^a e^(b|x|) g(x) is 1, and f decays strictly faster than
    e^(-b|y|), so the scaled convolution tends to int f(y) e^(b w.y) dy,
    uniformly in the direction w.  Rows cover every r in r_values along each
    direction w = +-e_i of the grid axes.  The integrals are plain node sums
    over the box, so r must stay within 0.4 L to keep truncation negligible.
    The divergent case f_rate <= g_rate is rejected.
    """
    if f_rate <= g_rate:
        raise ValueError(
            f"f decays at rate {f_rate} <= {g_rate}; the limit integral diverges"
        )
    # + 0.0 turns the -0.0 entries of -e_i into 0.0
    omegas = [sign * e + 0.0 for e in np.eye(grid.dim) for sign in (1.0, -1.0)]
    mesh = grid.meshes()
    fy = np.exp(-f_rate * np.sqrt(sum(c**2 for c in mesh)))
    rows = []
    for w in omegas:
        dot = sum(wi * yi for wi, yi in zip(w, mesh))
        limit = integrate(fy * np.exp(g_rate * dot), grid)
        for r in r_values:
            if r > WINDOW_FRACTION * grid.length:
                raise ValueError(
                    f"radius {r} exceeds {WINDOW_FRACTION} L; truncation would bias"
                )
            dist = np.sqrt(sum((r * wi - yi) ** 2 for wi, yi in zip(w, mesh)))
            gx = (1.0 + dist) ** (-poly_power) * np.exp(-g_rate * dist)
            scaled = (1.0 + r) ** poly_power * math.exp(g_rate * r) * integrate(gx * fy, grid)
            rows.append(
                ConvLimitRow(
                    r=float(r),
                    omega=tuple(w),
                    scaled=scaled,
                    limit=limit,
                    ratio=scaled / limit if limit != 0.0 else math.inf,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# overlap series and gluing


@dataclass(frozen=True)
class OverlapSeries:
    """Overlaps kappa_n = <u0, w0(. - n h e1)> and their fitted decay.

    The fit model is log kappa + ((N-1)/2) log(1+d) ~ const - rate d
    + poly log(1+d) in the shift distance d = n h; poly absorbs any
    residual polynomial factor (it is near 1 when both factors decay at
    exactly the same rate, near 0 when the rates are separated).
    """

    n_cells: tuple[int, ...]
    distances: tuple[float, ...]
    kappas: tuple[float, ...]
    rate: float
    poly: float


def overlap_series(
    u0: Field, w0: Field, n_cells: Sequence[int]
) -> OverlapSeries:
    """Translate w0 along e1 by each cell count and fit the overlap decay."""
    if u0.grid != w0.grid:
        raise ValueError("fields live on different grids")
    g = u0.grid
    kappas = []
    for n in n_cells:
        kappas.append(inner(u0, translate(w0, int(n))))
    d = np.array([n * g.h for n in n_cells])
    k = np.array(kappas)
    usable = k > PROFILE_FLOOR
    if usable.sum() < 3:
        raise ValueError("need at least three overlaps above 1e-14 to fit a rate")
    du, ku = d[usable], k[usable]
    y = np.log(ku) + 0.5 * (g.dim - 1.0) * np.log1p(du)
    design = np.column_stack([np.ones_like(du), -du, np.log1p(du)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return OverlapSeries(
        n_cells=tuple(int(n) for n in n_cells),
        distances=tuple(float(x) for x in d),
        kappas=tuple(float(x) for x in k),
        rate=float(coef[1]),
        poly=float(coef[2]),
    )


@dataclass(frozen=True)
class GlueLedger:
    """Bookkeeping of one glued state at shift n (cells along e1).

    kappa_i are component overlaps, tau_i the mass-restoring scalings of
    the raw sums u0_i + w_(n,i).  gap = e_glued - e_reference, with the
    reference the sum of the separated energies (potentials only on the
    u0 piece); nan until energies are evaluated.
    """

    n_cells: int
    separation: float
    kappa1: float
    kappa2: float
    tau1: float
    tau2: float
    e_glued: float = math.nan
    e_reference: float = math.nan
    gap: float = math.nan


def glue_states(
    u0: State, w0: State, n_cells: int, alpha: tuple[float, float]
) -> tuple[State, GlueLedger]:
    """Glue a pinned state with a far translate of a free state.

    Each component of w0 is shifted by n_cells along e1, added to the
    matching component of u0, and the sum is rescaled exactly onto the
    target masses alpha.  Requires gamma_i + delta_i = alpha_i for the
    component masses (so tau_i -> 1 as the overlap vanishes).
    """
    if u0.grid != w0.grid:
        raise ValueError("states live on different grids")
    g = u0.grid
    gam = u0.masses()
    dlt = w0.masses()
    comps = []
    kappas = []
    taus = []
    for i, (uc, wc) in enumerate(((u0.u1, w0.u1), (u0.u2, w0.u2))):
        if abs(gam[i] + dlt[i] - alpha[i]) > 1e-8 * max(1.0, alpha[i]):
            raise ValueError(
                f"component {i + 1}: masses {gam[i]} + {dlt[i]} do not add up "
                f"to the target {alpha[i]}"
            )
        wn = translate(wc, int(n_cells))
        kappa = inner(uc, wn)
        summed = uc.values + wn.values
        norm2 = alpha[i] + 2.0 * kappa
        if alpha[i] == 0.0:
            comps.append(Field(g, np.zeros(g.shape)))
            kappas.append(kappa)
            taus.append(1.0)
            continue
        if norm2 <= 0.0:
            raise ValueError(f"component {i + 1}: glued sum has no mass")
        tau = math.sqrt(alpha[i] / norm2)
        comps.append(Field(g, tau * summed))
        kappas.append(kappa)
        taus.append(tau)
    ledger = GlueLedger(
        n_cells=int(n_cells),
        separation=n_cells * g.h,
        kappa1=kappas[0],
        kappa2=kappas[1],
        tau1=taus[0],
        tau2=taus[1],
    )
    return State(comps[0], comps[1]), ledger


def glue_energy_gap(
    spec: ProblemSpec,
    u0_result: SolveResult,
    w0_result: SolveResult,
    n_cells_list: Sequence[int],
) -> list[GlueLedger]:
    """Energy gap of glued states against the separated reference.

    u0_result must minimize the pinned problem at masses gamma and
    w0_result the potential-free problem at masses delta, with
    gamma + delta equal to spec's masses.  The reference energy is the
    sum of the two converged energies; a negative gap at large shifts
    witnesses the strict inequality behind the gluing construction.  The
    potentials are sampled once, for every shift.
    """
    reference = u0_result.report.total + w0_result.report.total
    alpha = (spec.alpha1, spec.alpha2)
    potentials = tuple(sample_potential(v, u0_result.state.grid) for v in (spec.v1, spec.v2))
    out = []
    for n in n_cells_list:
        glued, ledger = glue_states(u0_result.state, w0_result.state, int(n), alpha)
        e_glued = energy(glued, spec, potentials).total
        out.append(
            replace(
                ledger,
                e_glued=e_glued,
                e_reference=reference,
                gap=e_glued - reference,
            )
        )
    return out
