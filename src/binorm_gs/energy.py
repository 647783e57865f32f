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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, State, grad_norm_sq, inner, integrate, laplacian, norm_sq
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

    total always equals kinetic1 + kinetic2 + potential1 + potential2
    - self1 - self2 - cross; it is stored for readability of dumps.
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


def _abs_power_integral(f: Field, exponent: float) -> float:
    return float(integrate(np.abs(f.values) ** exponent, f.grid))


def energy(
    state: State,
    spec: ProblemSpec,
    potentials: tuple[Field, Field] | None = None,
) -> EnergyReport:
    """Itemized energy of a state under a problem specification.

    potentials, if given, must be the two sampled potential fields on the
    state's grid; otherwise they are sampled from ``spec``.
    """
    g = state.grid
    if potentials is None:
        potentials = (sample_potential(spec.v1, g), sample_potential(spec.v2, g))
    v1, v2 = potentials
    kin1 = 0.5 * grad_norm_sq(state.u1)
    kin2 = 0.5 * grad_norm_sq(state.u2)
    pot1 = 0.5 * float(integrate(v1.values * np.abs(state.u1.values) ** 2, g))
    pot2 = 0.5 * float(integrate(v2.values * np.abs(state.u2.values) ** 2, g))
    self1 = spec.mu1 / (2.0 * spec.p1 + 2.0) * _abs_power_integral(
        state.u1, 2.0 * spec.p1 + 2.0
    )
    self2 = spec.mu2 / (2.0 * spec.p2 + 2.0) * _abs_power_integral(
        state.u2, 2.0 * spec.p2 + 2.0
    )
    cross = spec.beta / (spec.p3 + 1.0) * float(integrate(
        np.abs(state.u1.values) ** (spec.p3 + 1.0)
        * np.abs(state.u2.values) ** (spec.p3 + 1.0), g
    ))
    total = kin1 + kin2 + pot1 + pot2 - self1 - self2 - cross
    return EnergyReport(kin1, kin2, pot1, pot2, self1, self2, cross, total)


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


def gradient(
    state: State,
    spec: ProblemSpec,
    potentials: tuple[Field, Field] | None = None,
) -> State:
    """L2 gradient pair (G1, G2) of the energy at a state.

    G1 = -lap u1 + V1 u1 - mu1 |u1|^(2 p1) u1 - beta |u1|^(p3-1) |u2|^(p3+1) u1
    and symmetrically for G2.  For any perturbation (v1, v2),
    (d/dt) E(u + t v) at t = 0 equals sum_i <G_i, v_i>.
    """
    g = state.grid
    if potentials is None:
        potentials = (sample_potential(spec.v1, g), sample_potential(spec.v2, g))
    v1, v2 = potentials
    u1, u2 = state.u1.values, state.u2.values
    for label, values in (("u1", u1), ("u2", u2)):
        bad = ~np.isfinite(values)
        if bad.any():
            node = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), values.shape)
            raise ValueError(
                f"gradient: non-finite value in {label} at node {tuple(node)}"
            )
    m1, m2 = np.abs(u1), np.abs(u2)
    g1 = (
        -laplacian(state.u1).values
        + v1.values * u1
        - spec.mu1 * m1 ** (2.0 * spec.p1) * u1
        - spec.beta * m2 ** (spec.p3 + 1.0) * _signed_power(u1, m1, spec.p3 - 1.0)
    )
    g2 = (
        -laplacian(state.u2).values
        + v2.values * u2
        - spec.mu2 * m2 ** (2.0 * spec.p2) * u2
        - spec.beta * m1 ** (spec.p3 + 1.0) * _signed_power(u2, m2, spec.p3 - 1.0)
    )
    return State(Field(g, g1), Field(g, g2))


def multipliers(
    state: State,
    spec: ProblemSpec,
    potentials: tuple[Field, Field] | None = None,
) -> Multipliers:
    """Constraint multipliers lambda_i = -<G_i(u), u_i> / mass_i.

    At a constrained minimizer lambda1 is positive, and so is lambda2 with
    bounded potentials; a trapped lambda2 may be negative.
    A component with zero mass has no multiplier: its entry is nan.
    """
    grad = gradient(state, spec, potentials)
    out = []
    for gi, ui in ((grad.u1, state.u1), (grad.u2, state.u2)):
        mass = norm_sq(ui)
        out.append(-inner(gi, ui) / mass if mass > 0.0 else float("nan"))
    return Multipliers(lambda1=out[0], lambda2=out[1])
