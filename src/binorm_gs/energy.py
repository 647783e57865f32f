"""Energy functional, its L2 gradient, and constraint multipliers.

The total energy of a state (u1, u2) splits into kinetic, potential,
self-interaction and cross-interaction pieces:

    E = sum_i [ 1/2 |grad u_i|^2 + 1/2 int V_i |u_i|^2 ]
        - sum_i mu_i / (2 p_i + 2) int |u_i|^(2 p_i + 2)
        - beta / (p3 + 1) int |u1|^(p3+1) |u2|^(p3+1)

The gradient pair (G1, G2) collects the first variations, so that a
constrained critical point satisfies G_i(u) = -lambda_i u_i; the
multiplier of a component with mass m_i is recovered as
lambda_i = -<G_i(u), u_i> / m_i.  At a ground state with both potentials
bounded (case (i)) both multipliers are positive.  In the trapping regime
(case (ii)) only lambda1 must be: lambda2 carries -int V2 |u2|^2 / m2 <= -1
from the trap, so it is negative unless the interactions outweigh the trap
(1D, V2 = 1 + |x|^2, beta = 0.5, masses (1, 0.01): lambda2 = -1.86).

E and the force V u - f(u) of G = -lap u + V u - f(u) are written once, in
_Kernel, for stacks of states: the solver's flow steps its batches with it,
and energy(), gradient() and multipliers() apply it to one state.  The
kinetic term, -lap u and every transform come from grid._HalfSpectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, State, _HalfSpectrum, integrate, norm_sq
from .model import ProblemSpec, sample_potential

__all__ = [
    "EnergyReport",
    "Multipliers",
    "energy",
    "gradient",
    "multipliers",
]


@dataclass(frozen=True)
class EnergyReport:
    """Itemized energy of a two-component state.

    total = kinetic1 + kinetic2 + potential1 - self1 + potential2 - self2 - cross,
    summed in that order (the flow's); it is stored for readability of dumps.
    """

    kinetic1: float
    kinetic2: float
    potential1: float
    potential2: float
    self1: float
    self2: float
    cross: float
    total: float


@dataclass(frozen=True)
class Multipliers:
    """Constraint multipliers (lambda1, lambda2) of a two-component state.

    Components that are absent from a degenerate problem (mass fixed at
    zero) carry nan; for a genuine two-component minimizer both entries
    are finite.  Both are positive with bounded potentials; in the trapping
    regime lambda2 may be negative (see the module docstring).
    """

    lambda1: float
    lambda2: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.lambda1, self.lambda2)


def _signed_power(values: np.ndarray, magnitude: np.ndarray, q: float) -> np.ndarray:
    """|u|^q u with the q < 0 singularity at u = 0 removed (limit value 0)."""
    if q == 0:
        return values  # |u|^0 u is u exactly
    if q >= 0:
        return magnitude**q * values
    out = np.zeros_like(values)
    mask = magnitude > 0
    np.divide(values, magnitude**(-q), out=out, where=mask)
    return out


def _non_finite(values: np.ndarray, component: int) -> str:
    """Message naming the first node where a component's values are not
    finite; if all are finite (a squared sum overflowed), the largest one's."""
    flat = np.flatnonzero(~np.isfinite(values))
    index = int(flat[0]) if flat.size else int(np.argmax(np.abs(values)))
    node = tuple(int(j) for j in np.unravel_index(index, values.shape))
    return f"non-finite value in u{component + 1} at node {node}"


class _Kernel:
    """E's local terms and the force V u - f(u) of stacked states, built from
    a grid's half-spectrum layout (which gives the kinetic terms and the row
    sums), a problem, its two sampled potentials as arrays and comps, the
    components the states carry.  Every per-component list holds one stack
    per carried component, one row per state.
    """

    def __init__(
        self, half: _HalfSpectrum, spec: ProblemSpec, pots: tuple[np.ndarray, np.ndarray],
        comps: list[int],
    ) -> None:
        self.comps, self.pair, self.total = comps, len(comps) == 2, half.total
        self.v = [pots[c][None] for c in comps]
        # Where a potential is 0 everywhere its energy term is an exact +0.0,
        # and adding it would change no sum but -0.0, so it is skipped: that
        # saves 3.6% of an n = 4096 soliton solve's CPU time.
        self.has_potential = [bool(np.any(v)) for v in self.v]
        self.mu = [(spec.mu1, spec.mu2)[c] for c in comps]
        self.pw = [(2.0 * spec.p1, 2.0 * spec.p2)[c] for c in comps]
        self.beta, self.q3, self.s3 = spec.beta, spec.p3 + 1.0, spec.p3 - 1.0
        # E's factors of the row sums of V u^2, |u|^(2 p + 2) and |u1 u2|^(p3+1)
        self.pot_coef = 0.5 * half.cell
        self.self_coef = [m / (p + 2.0) * half.cell for m, p in zip(self.mu, self.pw)]
        self.cross_coef = spec.beta / self.q3 * half.cell

    def energies(
        self, u: list, sq: list, kin: list[list[float]], parts: dict | None = None
    ) -> list[float]:
        """Per-row energies of the fields u, given their squares sq and their
        per-row kinetic energies kin: each row sums its kinetic energies, each
        component's potential and self terms, then the cross term.  parts, if
        given, receives row 0's terms under EnergyReport's field names."""
        total = self.total
        e = [a + b for a, b in zip(*kin)] if self.pair else list(kin[0])
        mag = list(map(np.abs, u))
        for i, c in enumerate(self.comps):
            if self.has_potential[i]:
                pot = total(self.v[i] * sq[i])
                for m, s in enumerate(pot):
                    e[m] += self.pot_coef * s
                if parts is not None:
                    parts[f"potential{c + 1}"] = self.pot_coef * pot[0]
            coef = self.self_coef[i]
            own = total(mag[i] ** (self.pw[i] + 2.0))
            for m, s in enumerate(own):
                e[m] -= coef * s
            if parts is not None:
                parts[f"kinetic{c + 1}"], parts[f"self{c + 1}"] = kin[i][0], coef * own[0]
        if self.pair:
            cross = total(mag[0] ** self.q3 * mag[1] ** self.q3)
            for m, s in enumerate(cross):
                e[m] -= self.cross_coef * s
            if parts is not None:
                parts["cross"] = self.cross_coef * cross[0]
        return e

    def forces(self, u: list) -> list:
        """V u - f(u) per carried component, with the nonlinear force
        f_i = mu_i |u_i|^(2 p_i) u_i + beta |u_j|^(p3+1) |u_i|^(p3-1) u_i."""
        mag = list(map(np.abs, u))
        f = [mu * m**pw * x for mu, pw, m, x in zip(self.mu, self.pw, mag, u)]
        if self.pair:
            f[0] += self.beta * mag[1] ** self.q3 * _signed_power(u[0], mag[0], self.s3)
            f[1] += self.beta * mag[0] ** self.q3 * _signed_power(u[1], mag[1], self.s3)
        return [v * x - y for v, x, y in zip(self.v, u, f)]


class _OneState:
    """One state's kernel, carrying its nonzero components, and their fields
    and half spectra as stacks of one row, transformed once for the energy,
    the gradient and the multipliers alike.  A non-finite value raises
    ValueError naming the component and the node, before any arithmetic."""

    def __init__(
        self, state: State, spec: ProblemSpec, potentials: tuple[Field, Field] | None
    ) -> None:
        g, fields = state.grid, (state.u1.values, state.u2.values)
        for c, values in enumerate(fields):
            if not np.isfinite(values).all():
                raise ValueError(_non_finite(values, c))
        comps = [c for c in (0, 1) if fields[c].any()]
        if potentials is None:
            potentials = (sample_potential(spec.v1, g), sample_potential(spec.v2, g))
        self.state, self.half = state, _HalfSpectrum(g)
        self.kern = _Kernel(self.half, spec, (potentials[0].values, potentials[1].values), comps)
        self.u = [fields[c][None] for c in comps]
        self.u_hat = [self.half.forward(x) for x in self.u]

    def report(self) -> EnergyReport:
        """energy()'s itemized energy; an overflowing total raises ValueError."""
        u = self.u
        kin = [self.half.kinetic(x) for x in self.u_hat]
        parts = dict.fromkeys(EnergyReport.__dataclass_fields__, 0.0)
        parts["total"] = self.kern.energies(u, [x**2 for x in u], kin, parts)[0] if u else 0.0
        if not np.isfinite(parts["total"]):
            raise ValueError(
                f"energy: the total {parts['total']} is not finite (the state overflows)"
            )
        return EnergyReport(**parts)

    def gradient(self) -> list[np.ndarray]:
        """The arrays of gradient()'s pair (G1, G2)."""
        g = [np.zeros(self.half.shape), np.zeros(self.half.shape)]
        for c, force, x_hat in zip(self.kern.comps, self.kern.forces(self.u), self.u_hat):
            g[c] = force[0] - self.half.laplacian(x_hat)[0]
        return g

    def multipliers(self) -> Multipliers:
        """multipliers()'s pair; nan for a component without mass."""
        out = []
        for gi, ui in zip(self.gradient(), (self.state.u1, self.state.u2)):
            mass = norm_sq(ui)
            out.append(-integrate(gi * ui.values, ui.grid) / mass if mass > 0.0 else float("nan"))
        return Multipliers(lambda1=out[0], lambda2=out[1])


def energy(
    state: State, spec: ProblemSpec, potentials: tuple[Field, Field] | None = None
) -> EnergyReport:
    """Itemized energy of a state under a problem specification.

    potentials, if given, must be the two sampled potential fields on the
    state's grid; otherwise they are sampled from ``spec``.  A non-finite
    value in the state, or a total that overflows, raises ValueError.
    """
    return _OneState(state, spec, potentials).report()


def gradient(
    state: State, spec: ProblemSpec, potentials: tuple[Field, Field] | None = None
) -> State:
    """L2 gradient pair (G1, G2) of the energy at a state.

    G1 = -lap u1 + V1 u1 - mu1 |u1|^(2 p1) u1 - beta |u1|^(p3-1) |u2|^(p3+1) u1
    and symmetrically for G2.  For any perturbation (v1, v2),
    (d/dt) E(u + t v) at t = 0 equals sum_i <G_i, v_i>.  A non-finite value
    raises ValueError.
    """
    g1, g2 = _OneState(state, spec, potentials).gradient()
    return State(Field(state.grid, g1), Field(state.grid, g2))


def multipliers(
    state: State, spec: ProblemSpec, potentials: tuple[Field, Field] | None = None
) -> Multipliers:
    """Constraint multipliers lambda_i = -<G_i(u), u_i> / mass_i.

    At a constrained minimizer lambda1 is positive, and so is lambda2 with
    bounded potentials; a trapped lambda2 may be negative.
    A component with zero mass has no multiplier: its entry is nan.  A
    non-finite value raises ValueError.
    """
    return _OneState(state, spec, potentials).multipliers()
