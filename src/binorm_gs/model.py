"""Problem specifications for the two-component constrained minimization.

A problem is the energy

    E(u1, u2) = sum_i [ 1/2 |grad u_i|^2 + 1/2 V_i |u_i|^2
                        - mu_i / (2 p_i + 2) |u_i|^(2 p_i + 2) ]
                - beta / (p3 + 1) |u1|^(p3+1) |u2|^(p3+1)

minimized over states with fixed squared masses (alpha1, alpha2).  Two
regimes are supported: both potentials bounded, nonpositive and vanishing
at infinity ("both_bounded"), or a bounded first potential together with
a confining second potential with infimum one ("trapping").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
from typing import Any

import numpy as np

from .grid import DIMS, Field, Grid, _squared_distance, read_field_csv

__all__ = [
    "PotentialSpec",
    "ProblemSpec",
    "validate",
    "sample_potential",
]

POTENTIAL_KINDS = ("zero", "gaussian_well", "harmonic_trap", "tabulated")
REGIMES = ("both_bounded", "trapping")


@dataclass(frozen=True)
class PotentialSpec:
    """Tagged description of one external potential.

    kind "zero":          V = 0
    kind "gaussian_well": V = -depth * exp(-|x - center|^2 / width^2)
    kind "harmonic_trap": V = offset + stiffness * |x - center|^2
    kind "tabulated":     V read from a field CSV at samples_path

    ``shift`` must be 0, so that a bounded potential vanishes at infinity
    and a trap's infimum is offset: validate rejects any other value, and
    sample_potential raises on it.
    """

    kind: str
    depth: float = 0.0
    width: float = 1.0
    offset: float = 0.0
    stiffness: float = 0.0
    center: tuple[float, ...] = ()
    shift: float = 0.0
    samples_path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def gaussian_well(
        cls, depth: float, width: float, center: tuple[float, ...] = ()
    ) -> "PotentialSpec":
        return cls(kind="gaussian_well", depth=depth, width=width, center=center)

    @classmethod
    def harmonic_trap(
        cls, stiffness: float, offset: float = 1.0, center: tuple[float, ...] = ()
    ) -> "PotentialSpec":
        return cls(
            kind="harmonic_trap", stiffness=stiffness, offset=offset, center=center
        )

    @classmethod
    def tabulated(cls, samples_path: str) -> "PotentialSpec":
        return cls(kind="tabulated", samples_path=samples_path)

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["center"] = list(self.center)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PotentialSpec":
        """Inverse of to_dict; center may also be missing, None or one number."""
        d = dict(d)
        center = d.get("center", ())
        if not isinstance(center, (list, tuple)):
            center = () if center is None else (center,)
        d["center"] = tuple(center)
        return cls(**d)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data: dimension, exponents, couplings, masses, potentials."""

    dim: int
    p1: float
    p2: float
    p3: float
    mu1: float
    mu2: float
    beta: float
    alpha1: float
    alpha2: float
    v1: PotentialSpec = PotentialSpec.zero()
    v2: PotentialSpec = PotentialSpec.zero()
    regime: str = "both_bounded"

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")

    @property
    def masses(self) -> tuple[float, float]:
        return (self.alpha1, self.alpha2)

    def with_masses(self, alpha1: float, alpha2: float) -> "ProblemSpec":
        return replace(self, alpha1=alpha1, alpha2=alpha2)

    def without_potentials(self) -> "ProblemSpec":
        """The translation-invariant comparison problem (potentials dropped)."""
        return replace(
            self,
            v1=PotentialSpec.zero(),
            v2=PotentialSpec.zero(),
            regime="both_bounded",
        )

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["v1"] = self.v1.to_dict()
        d["v2"] = self.v2.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ProblemSpec":
        d = dict(d)
        d["v1"] = PotentialSpec.from_dict(d["v1"])
        d["v2"] = PotentialSpec.from_dict(d["v2"])
        return cls(**d)


def _check_bounded(tag: str, name: str, pot: PotentialSpec) -> list[str]:
    """Structural checks for a bounded, nonpositive, vanishing potential."""
    out = []
    if pot.kind == "harmonic_trap":
        out.append(f"{tag}: {name} must be bounded and vanish at infinity; "
                   f"got a confining trap")
        return out
    if pot.kind == "gaussian_well":
        if not (0 < pot.depth < math.inf):
            out.append(f"{tag}: {name}.depth must be positive and finite; got {pot.depth}")
        if not (0 < pot.width < math.inf):
            out.append(f"{tag}: {name}.width must be positive and finite; got {pot.width}")
    return out


def validate(spec: ProblemSpec) -> list[str]:
    """Check the standing hypotheses; empty list means admissible.

    Each message names the violated hypothesis: (p1) for the subcritical
    exponent window, (V1)/(V2) for the potential regimes, and coupling or
    mass positivity for the remaining structural requirements.  Every mass,
    coupling and potential parameter must also be finite.
    """
    out: list[str] = []
    if spec.dim not in DIMS:
        out.append(f"dim: supported dimensions are {DIMS}; got {spec.dim}")
        return out
    pmax = 2.0 / spec.dim
    for name, p in (("p1", spec.p1), ("p2", spec.p2), ("p3", spec.p3)):
        if not (0.0 < p < pmax):
            out.append(f"(p1): {name} must lie in (0, 2/N) = (0, {pmax}); got {p}")
    for name, mu in (("mu1", spec.mu1), ("mu2", spec.mu2), ("beta", spec.beta)):
        if not (0 < mu < math.inf):
            out.append(f"coupling: {name} > 0 and finite required; got {mu}")
    # alpha_i = 0 is admitted: scans and scalar reductions pin one
    # component at zero mass and solve the degenerate problem.
    for name, a in (("alpha1", spec.alpha1), ("alpha2", spec.alpha2)):
        if not (0 <= a < math.inf):
            out.append(f"mass: {name} >= 0 and finite required; got {a}")
    v2_tag = "(V2)" if spec.regime == "trapping" else "(V1)"
    for tag, name, pot in (("(V1)", "v1", spec.v1), (v2_tag, "v2", spec.v2)):
        if pot.shift != 0.0:
            out.append(f"{tag}: {name}.shift must be 0 (a constant potential only adds "
                       f"shift * mass / 2 to the energy); got {pot.shift}")
        if not all(math.isfinite(c) for c in pot.center):
            out.append(f"{tag}: {name}.center must be finite; got {pot.center}")
        if len(pot.center) not in (0, spec.dim):
            out.append(f"{tag}: {name}.center must have 0 or dim = {spec.dim} "
                       f"components; got {pot.center}")
    out.extend(_check_bounded("(V1)", "v1", spec.v1))
    if spec.regime == "both_bounded":
        out.extend(_check_bounded("(V1)", "v2", spec.v2))
    else:
        if spec.v2.kind != "harmonic_trap":
            out.append(f"(V2): v2 must be confining in the trapping regime; "
                       f"got kind {spec.v2.kind!r}")
        else:
            if spec.v2.offset != 1.0:
                out.append(f"(V2): trap infimum must equal 1; got {spec.v2.offset}")
            if not (0 < spec.v2.stiffness < math.inf):
                out.append(f"(V2): v2.stiffness must be positive and finite; "
                           f"got {spec.v2.stiffness}")
    return out


def sample_potential(pot: PotentialSpec, grid: Grid) -> Field:
    """Evaluate a potential on the grid nodes; always a real field.

    A nonzero shift, which validate rejects, raises ValueError rather than
    being dropped.
    """
    if pot.shift != 0.0:
        raise ValueError(f"potential shift must be 0; got {pot.shift}")
    center = pot.center if pot.center else (0.0,) * grid.dim
    if len(center) != grid.dim:
        raise ValueError(
            f"potential center has {len(center)} components, grid dim is {grid.dim}"
        )
    if pot.kind == "tabulated":
        f = read_field_csv(pot.samples_path)
        if f.grid != grid:
            raise ValueError(
                f"tabulated potential grid {(f.grid.dim, f.grid.n, f.grid.length)} "
                f"does not match solve grid {(grid.dim, grid.n, grid.length)}"
            )
        return f
    if pot.kind == "zero":
        return Field(grid, np.zeros(grid.shape))
    r2 = _squared_distance(grid, center)
    if pot.kind == "gaussian_well":
        values = -pot.depth * np.exp(-r2 / pot.width**2)
    else:
        values = pot.offset + pot.stiffness * r2
    return Field(grid, values)

