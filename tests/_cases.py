"""Shared benchmark problems and solver protocols used across the tests.

Each constructor returns a fresh frozen spec, so tests may pass them
around or `replace` fields without coupling to each other.  The solver's
fixed point does not depend on its step size, so the protocols differ
only in tolerance and start count: structural checks (signs, orderings)
use the loose ones and quantitative targets the tight one.
"""

from __future__ import annotations

import numpy as np

from binorm_gs.grid import Field, Grid, State
from binorm_gs.model import PotentialSpec, ProblemSpec
from binorm_gs.solver import SolverConfig

# Fast protocol: structural facts only (signs, orderings, negativity).
SCAN = SolverConfig(dt=0.25, tol_residual=1e-8, multi_start=2)
QUICK = SolverConfig(dt=0.25, tol_residual=1e-8, multi_start=1)
# Reference protocol: quantitative targets (energies, multipliers, tails).
REFERENCE = SolverConfig(dt=0.1, tol_residual=1e-9, multi_start=1)


def wells_spec() -> ProblemSpec:
    """Cubic system with two shallow wells; the workhorse bounded case."""
    return ProblemSpec(
        dim=1,
        p1=1.0,
        p2=1.0,
        p3=1.0,
        mu1=1.0,
        mu2=1.0,
        beta=0.5,
        alpha1=1.0,
        alpha2=1.0,
        v1=PotentialSpec.gaussian_well(depth=0.5, width=2.0),
        v2=PotentialSpec.gaussian_well(depth=0.3, width=3.0),
    )


def scalar_spec(mu: float, p: float, dim: int = 1) -> ProblemSpec:
    """The problem minimize_scalar(mu, p, 1.0, dim=dim) solves: u2 carries no mass."""
    return ProblemSpec(dim=dim, p1=p, p2=p, p3=p, mu1=mu, mu2=mu, beta=1.0,
                       alpha1=1.0, alpha2=0.0)


def symmetric_cubic(beta: float = 0.5) -> ProblemSpec:
    """Potential-free cubic system, identical components."""
    return ProblemSpec(
        dim=1,
        p1=1.0,
        p2=1.0,
        p3=1.0,
        mu1=1.0,
        mu2=1.0,
        beta=beta,
        alpha1=1.0,
        alpha2=1.0,
    )


def standard_decay_spec() -> ProblemSpec:
    """Both tails fall at their own multiplier rates (p3 > 1)."""
    return ProblemSpec(
        dim=1,
        p1=0.8,
        p2=0.8,
        p3=1.2,
        mu1=1.0,
        mu2=2.0,
        beta=0.3,
        alpha1=1.0,
        alpha2=1.0,
    )


def anomalous_decay_spec() -> ProblemSpec:
    """Second tail forced by the first through the p3 < 1 interaction.

    The multipliers come out near (0.16, 2.25), so the forced squared
    rate (1 + p3)^2 lambda1 / (1 - p3)^2 ~ 1.46 undercuts lambda2 and the
    second component decays slower than its own multiplier suggests.
    """
    return ProblemSpec(
        dim=1,
        p1=1.0,
        p2=1.0,
        p3=0.5,
        mu1=1.0,
        mu2=6.0,
        beta=0.2,
        alpha1=1.0,
        alpha2=1.0,
    )


def gluing_spec() -> ProblemSpec:
    """Strongly focusing wells problem used for the splice construction.

    The pinned piece at small mass keeps small multipliers while the
    free piece at the complementary mass sits near 1.06, which separates
    the overlap decay rate cleanly from the pinned one.
    """
    return ProblemSpec(
        dim=1,
        p1=1.0,
        p2=1.0,
        p3=1.0,
        mu1=4.0,
        mu2=4.0,
        beta=1.0,
        alpha1=1.0,
        alpha2=1.0,
        v1=PotentialSpec.gaussian_well(depth=0.2, width=2.0),
        v2=PotentialSpec.gaussian_well(depth=0.3, width=2.0),
    )


def bounded_matrix() -> dict[str, ProblemSpec]:
    """Bounded-potential regime coverage for the multiplier-sign check."""
    return {
        "wells-cubic": wells_spec(),
        "deep-wells-strong": gluing_spec(),
        "symmetric-free": symmetric_cubic(0.5),
        "asymmetric-soft": ProblemSpec(
            dim=1,
            p1=0.8,
            p2=0.6,
            p3=0.7,
            mu1=1.0,
            mu2=2.0,
            beta=0.4,
            alpha1=1.0,
            alpha2=0.5,
            v1=PotentialSpec.gaussian_well(depth=0.4, width=2.0),
        ),
        "near-decoupled": symmetric_cubic(1e-6),
        "anomalous-tail": anomalous_decay_spec(),
    }


def trapping_matrix() -> dict[str, ProblemSpec]:
    """Trapped-second-component coverage for the multiplier-sign check.

    All four sit in the strongly focusing window where the trapped
    component's multiplier is positive; weakly focusing traps can push
    it negative without breaking any structural requirement.
    """
    return {
        "trap-plain": ProblemSpec(
            dim=1,
            p1=1.0,
            p2=1.0,
            p3=1.0,
            mu1=1.0,
            mu2=2.0,
            beta=0.5,
            alpha1=1.0,
            alpha2=3.0,
            v2=PotentialSpec.harmonic_trap(stiffness=0.05),
            regime="trapping",
        ),
        "trap-with-well": ProblemSpec(
            dim=1,
            p1=1.0,
            p2=1.0,
            p3=1.0,
            mu1=1.0,
            mu2=4.0,
            beta=0.3,
            alpha1=1.0,
            alpha2=2.0,
            v1=PotentialSpec.gaussian_well(depth=0.3, width=2.0),
            v2=PotentialSpec.harmonic_trap(stiffness=0.1),
            regime="trapping",
        ),
        "trap-soft-exponents": ProblemSpec(
            dim=1,
            p1=0.8,
            p2=1.0,
            p3=0.9,
            mu1=2.0,
            mu2=3.0,
            beta=0.6,
            alpha1=1.0,
            alpha2=2.0,
            v2=PotentialSpec.harmonic_trap(stiffness=0.02),
            regime="trapping",
        ),
        "trap-heavy-masses": ProblemSpec(
            dim=1,
            p1=1.0,
            p2=1.0,
            p3=1.0,
            mu1=3.0,
            mu2=3.0,
            beta=1.0,
            alpha1=1.5,
            alpha2=1.5,
            v1=PotentialSpec.gaussian_well(depth=0.2, width=3.0),
            v2=PotentialSpec.harmonic_trap(stiffness=0.05),
            regime="trapping",
        ),
    }


def random_state(
    grid: Grid,
    rng: np.random.Generator,
    width: float = 4.0,
) -> State:
    """Smooth random two-component state, localized away from the boundary."""
    envelope = np.exp(-grid.radius() ** 2 / (2.0 * width**2))

    def field() -> Field:
        return Field(grid, rng.standard_normal(grid.shape) * envelope)

    return State(field(), field())
