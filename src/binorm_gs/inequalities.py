"""Pointwise interaction inequalities used by the splitting arguments.

Three families are checked numerically on dense scans:

  * a two-variable expansion lower bound for (a+b)^(2p+2) with a
    correction constant C multiplying (ab)^(p+1); the defect is
    homogeneous of degree 2p+2, so the slice b = 1 over a wide ratio
    range is exhaustive,
  * a four-variable product expansion bound whose correction terms
    admit an explicit sufficient constant built from elementary
    envelope estimates; the defect is bihomogeneous of degree p+1 in
    each variable pair, so the slice b1 = b2 = 1 is exhaustive,
  * the elementary convexity bounds
    a^(p+1) + (p+1) a^p b <= (a+b)^(p+1) <= a^(p+1) + (p+1) (a+b)^p b.

A scan point is a violation only when the defect drops below
-1e-12 max(1, leading term), which absorbs cancellation roundoff at
large arguments.

The four-variable scan never forms the full 2D grid: on its slice the
defect is evaluated from broadcast x-row and y-column views, a block of
rows at a time, and gives exactly the results of a whole-grid scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InequalityReport",
    "defect_34i",
    "defect_34ii",
    "check_lemma34i",
    "min_constant_34i",
    "check_lemma34ii",
    "min_constant_34ii",
    "sufficient_constant_34ii",
    "check_elementary_p3",
]

SLACK = 1e-12
MAX_RECORDED = 50
# 32 rows of a 1001-point axis make 256 KB float64 temporaries, which
# stay in cache across the dozen passes the defect makes over a block.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality scan.

    violations holds at most 50 offending points as tuples ending in
    the defect value; it is empty exactly when the inequality held with
    constant_tested at every scanned point.  worst_defect is the most
    negative normalized defect seen (nonnegative scans report their
    smallest margin).  min_constant_estimate is nan unless a threshold
    search filled it in.
    """

    which: str
    params: dict
    constant_tested: float
    points: int
    worst_defect: float
    violations: tuple
    min_constant_estimate: float = math.nan

    @property
    def holds(self) -> bool:
        return not self.violations


def _axis(max_value: float, samples: int) -> np.ndarray:
    """Zero plus a log-spaced sweep up to max_value."""
    return np.concatenate(([0.0], np.logspace(-6.0, math.log10(max_value), samples)))


def defect_34i(
    p: float, constant: float, a: np.ndarray | float, b: np.ndarray | float
) -> np.ndarray | float:
    """Defect of the degree-(2p+2) expansion bound; nonnegative iff it holds."""
    q = 2.0 * p + 2.0
    return (
        (a + b) ** q
        - a**q
        - b**q
        - q * (a ** (q - 1.0) * b + a * b ** (q - 1.0))
        + constant * (a * b) ** (p + 1.0)
    )


def check_lemma34i(
    p: float,
    constant: float,
    a_max: float = 1e2,
    samples: int = 4000,
) -> InequalityReport:
    """Scan the expansion bound on the slice b = 1 (exhaustive by
    homogeneity and symmetry of the defect)."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    a = _axis(a_max, samples)
    d = defect_34i(p, constant, a, 1.0)
    lead = (a + 1.0) ** (2.0 * p + 2.0)
    tol = SLACK * np.maximum(1.0, lead)
    bad = d < -tol
    worst = float(np.min(d / np.maximum(1.0, lead)))
    viol = tuple(
        (float(a[i]), 1.0, float(d[i])) for i in np.flatnonzero(bad)[:MAX_RECORDED]
    )
    return InequalityReport(
        which="L34i",
        params={"p": p, "a_max": a_max},
        constant_tested=constant,
        points=int(a.size),
        worst_defect=worst,
        violations=viol,
    )


def _bisect_constant(holds, resolution: float, floor: float | None = None) -> float:
    """Smallest holding constant to resolution; holds must be monotone.

    With a floor, the search is restricted to constants >= floor and
    returns the floor itself when it already holds.  Without one, the
    lower bracket is pushed negative until the bound fails.
    """
    hi = 1.0
    for _ in range(80):
        if holds(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("no holding constant found")
    if floor is not None:
        if holds(floor):
            return floor
        lo = floor
    else:
        lo = min(hi - 1.0, -1.0)
        for _ in range(80):
            if not holds(lo):
                break
            hi = lo
            lo *= 2.0
        else:
            raise RuntimeError("no failing constant found; bound may hold vacuously")
    while hi - lo > resolution:
        mid = 0.5 * (hi + lo)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_constant_34i(
    p: float,
    resolution: float = 1e-3,
    a_max: float = 1e2,
    samples: int = 4000,
) -> float:
    """Smallest correction constant (to resolution) making the bound hold.

    The defect is increasing in the constant, so plain bisection applies
    once a failing and a holding constant bracket the threshold.
    """
    return _bisect_constant(
        lambda c: check_lemma34i(p, c, a_max=a_max, samples=samples).holds,
        resolution,
    )


def defect_34ii(
    p: float,
    eta: float,
    constant: float,
    a1: np.ndarray | float,
    a2: np.ndarray | float,
    b1: np.ndarray | float = 1.0,
    b2: np.ndarray | float = 1.0,
) -> np.ndarray | float:
    """Defect of the corrected product expansion; nonnegative iff it holds.

    Bihomogeneous: degree p+1 in (a1, b1) and in (a2, b2), so scans may
    fix b1 = b2 = 1 (the default) without loss.
    """
    q = p + 1.0
    return (
        (a1 + b1) ** q * (a2 + b2) ** q
        - a1**q * a2**q
        - b1**q * b2**q
        - q * (a1**p * a2**q * b1 + a1**q * a2**p * b2 + a2 * b1**q * b2**p)
        + constant
        * (a1 ** (p - eta) * a2**q * b1 ** (1.0 + eta)
           + a1 ** (1.0 + eta) * b2**q * b1 ** (p - eta))
    )


def check_lemma34ii(
    p: float,
    eta: float,
    constant: float,
    x_max: float = 1e2,
    samples: int = 1000,
) -> InequalityReport:
    """Scan the corrected product expansion on a 2D log grid plus axes,
    over the slice b1 = b2 = 1 (exhaustive by bihomogeneity).

    On that slice every term of the defect and of its normalizer is a
    product of a function of x and one of y, so the grid is evaluated
    from broadcast row and column views, _ROW_BLOCK rows at a time.
    Each point goes through the same operations as on the full grid, so
    the report equals a whole-grid scan's exactly: the worst defect is a
    min over blocks, and violations are collected in row-major order.
    """
    if not (0.0 < eta < p):
        raise ValueError(f"need 0 < eta < p, got eta={eta}, p={p}")
    ax = _axis(x_max, samples)
    y = ax[None, :]
    worst = math.inf
    viol: list[tuple[float, float, float]] = []
    for start in range(0, ax.size, _ROW_BLOCK):
        x = ax[start:start + _ROW_BLOCK, None]
        d = defect_34ii(p, eta, constant, x, y)
        lead = (x + 1.0) ** (p + 1.0) * (y + 1.0) ** (p + 1.0)
        norm = np.maximum(1.0, lead)
        worst = np.minimum(worst, np.min(d / norm))
        if len(viol) < MAX_RECORDED:
            idx = np.argwhere(d < -SLACK * norm)[: MAX_RECORDED - len(viol)]
            viol.extend(
                (float(ax[start + i]), float(ax[j]), float(d[i, j])) for i, j in idx
            )
    return InequalityReport(
        which="L34ii",
        params={"p": p, "eta": eta, "x_max": x_max},
        constant_tested=constant,
        points=int(ax.size**2),
        worst_defect=float(worst),
        violations=tuple(viol),
    )


def min_constant_34ii(
    p: float,
    eta: float,
    resolution: float = 1e-2,
    x_max: float = 1e2,
    samples: int = 400,
) -> float:
    """Smallest nonnegative correction constant (to resolution) making the
    product expansion hold on the scan; always at most
    sufficient_constant_34ii.

    The search stops at zero: below it the finite-domain threshold is set
    by the scan cap alone (the defect-to-correction ratio tends to zero
    from above along the domain boundary), so unclamped estimates drift
    with x_max instead of converging.
    """
    return _bisect_constant(
        lambda c: check_lemma34ii(p, eta, c, x_max=x_max, samples=samples).holds,
        resolution,
        floor=0.0,
    )


def sufficient_constant_34ii(p: float, eta: float) -> float:
    """Explicit constant under which the corrected expansion provably holds.

    Built from envelope thresholds: x1 marks where the pure-x terms
    dominate, c_x1 the margin of (x+1)^(p+1) over 1 past x1, and y1 the
    matching y threshold; the constant then covers the three compact
    corner regions left over.
    """
    if not (0.0 < eta < p):
        raise ValueError(f"need 0 < eta < p, got eta={eta}, p={p}")
    q = p + 1.0
    x1 = min(
        (1.0 / (2.0 * q)) ** (1.0 / p),
        ((p - eta) / (p * q)) ** (1.0 / eta),
    )
    c_x1 = 1.0 - (x1 + 1.0) ** (-q)
    y1 = min(
        (c_x1 / q) ** (1.0 / p),
        (q / (p + 2.0)) ** (1.0 / p),
        x1 ** (1.0 + eta) / q,
    )
    return max(
        1.0,
        2.0 / (x1 ** (p - eta) * y1**q),
        2.0 * q / (x1 ** (p - eta) * y1**p),
    )


def check_elementary_p3(
    p: float,
    a_max: float = 1e2,
    samples: int = 4000,
) -> InequalityReport:
    """Scan both convexity bounds around (a+b)^(p+1) on the slice b = 1.

    Violations are tagged 'lower' or 'upper' by which bound failed.
    """
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    q = p + 1.0
    a = _axis(a_max, samples)
    lower = (a + 1.0) ** q - a**q - q * a**p
    upper = a**q + q * (a + 1.0) ** p - (a + 1.0) ** q
    lead = (a + 1.0) ** q
    tol = SLACK * np.maximum(1.0, lead)
    worst = float(min(np.min(lower / np.maximum(1.0, lead)),
                      np.min(upper / np.maximum(1.0, lead))))
    viol = []
    for i in np.flatnonzero(lower < -tol)[:MAX_RECORDED]:
        viol.append(("lower", float(a[i]), float(lower[i])))
    for i in np.flatnonzero(upper < -tol)[: MAX_RECORDED - len(viol)]:
        viol.append(("upper", float(a[i]), float(upper[i])))
    return InequalityReport(
        which="elementary",
        params={"p": p, "a_max": a_max},
        constant_tested=0.0,
        points=int(2 * a.size),
        worst_defect=worst,
        violations=tuple(viol),
    )
