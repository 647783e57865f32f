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
from itertools import repeat

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


def _report(which, params, constant, points, blocks) -> InequalityReport:
    """Report of a scan given as blocks of (defect, normalizer, coords).

    coords give the violations' leading entries: each array is indexed by
    the next axis of the block's defect, anything else (a tag, a fixed
    coordinate) is repeated.  Violations, defect < -SLACK * normalizer, are
    kept in block order, row-major within a block, up to MAX_RECORDED.
    """
    worst, viol = math.inf, []
    for d, norm, coords in blocks:
        worst = np.minimum(worst, np.min(d / norm))
        if len(viol) < MAX_RECORDED:
            idx = tuple(i[: MAX_RECORDED - len(viol)] for i in np.nonzero(d < -SLACK * norm))
            axes = iter(idx)
            cols = [c[next(axes)].tolist() if isinstance(c, np.ndarray) else repeat(c)
                    for c in coords]
            viol.extend(zip(*cols, d[idx].tolist()))
    return InequalityReport(which, params, constant, int(points), float(worst), tuple(viol))


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
    d, norm = defect_34i(p, constant, a, 1.0), np.maximum(1.0, (a + 1.0) ** (2.0 * p + 2.0))
    return _report("L34i", {"p": p, "a_max": a_max}, constant, a.size, [(d, norm, (a, 1.0))])


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
    the report equals a whole-grid scan's exactly.
    """
    if not (0.0 < eta < p):
        raise ValueError(f"need 0 < eta < p, got eta={eta}, p={p}")
    ax = _axis(x_max, samples)
    y_lead = (ax + 1.0) ** (p + 1.0)
    rows = (ax[start:start + _ROW_BLOCK, None] for start in range(0, ax.size, _ROW_BLOCK))
    blocks = (
        (defect_34ii(p, eta, constant, x, ax),
         np.maximum(1.0, (x + 1.0) ** (p + 1.0) * y_lead), (x[:, 0], ax))
        for x in rows
    )
    return _report(
        "L34ii", {"p": p, "eta": eta, "x_max": x_max}, constant, ax.size**2, blocks
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
    norm = np.maximum(1.0, (a + 1.0) ** q)
    lower = (a + 1.0) ** q - a**q - q * a**p
    upper = a**q + q * (a + 1.0) ** p - (a + 1.0) ** q
    blocks = [(lower, norm, ("lower", a)), (upper, norm, ("upper", a))]
    return _report("elementary", {"p": p, "a_max": a_max}, 0.0, 2 * a.size, blocks)
