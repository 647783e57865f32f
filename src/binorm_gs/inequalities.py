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
large arguments, or when it is not finite: a term that overflowed
leaves nothing to certify.

Every scan takes p in (0, 2), the widest subcritical window (N = 1), and
raises ValueError naming p outside it.  Far outside it the powers overflow
and an overflowed point certifies nothing: at p = 45 the four-variable scan
at its sufficient constant would report 36 violations of a bound that holds.

Both interaction defects are affine in their correction constant C,
base + C weight with weight >= 0, so the smallest C under which a scan
holds is exact, from one pass over it: the largest (-s SLACK norm - base)
/ weight over the points with weight > 0, with s just below 1 so that the
scan at that C holds despite rounding.  A point with weight = 0 holds for
every C.

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
# s: the share of SLACK a minimal constant uses at its binding point.  The
# rest absorbs the rounding of base + C weight; at s = 1 the L34i scan at
# its minimal constant fails by rounding at p = 0.9 and 0.95.
_THRESHOLD_SLACK = 1.0 - 1e-3
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
    smallest margin).
    """

    which: str
    params: dict
    constant_tested: float
    points: int
    worst_defect: float
    violations: tuple

    @property
    def holds(self) -> bool:
        return not self.violations


def _check_p(p: float, eta: float | None = None) -> None:
    if not 0.0 < p < 2.0:
        raise ValueError(f"p must lie in (0, 2), the subcritical window for N = 1; got {p}")
    if eta is not None and not 0.0 < eta < p:
        raise ValueError(f"need 0 < eta < p, got eta={eta}, p={p}")


def _axis(max_value: float, samples: int) -> np.ndarray:
    """Zero plus a log-spaced sweep up to max_value."""
    return np.concatenate(([0.0], np.logspace(-6.0, math.log10(max_value), samples)))


def _report(which, params, constant, points, blocks) -> InequalityReport:
    """Report of a scan given as blocks of (defect, normalizer, coords).

    coords give the violations' leading entries: each array is indexed by
    the next axis of the block's defect, anything else (a tag, a fixed
    coordinate) is repeated.  Violations, defect < -SLACK * normalizer or a
    non-finite defect, are kept in block order, row-major within a block,
    up to MAX_RECORDED.
    """
    worst, viol = math.inf, []
    for d, norm, coords in blocks:
        worst = np.minimum(worst, np.min(d / norm))
        if len(viol) < MAX_RECORDED:
            bad = ~np.isfinite(d) | (d < -SLACK * norm)
            idx = tuple(i[: MAX_RECORDED - len(viol)] for i in np.nonzero(bad))
            axes = iter(idx)
            cols = [c[next(axes)].tolist() if isinstance(c, np.ndarray) else repeat(c)
                    for c in coords]
            viol.extend(zip(*cols, d[idx].tolist()))
    return InequalityReport(which, params, constant, int(points), float(worst), tuple(viol))


def _at(constant, blocks):
    """A scan's blocks of (base, weight, normalizer, coords) as _report's
    blocks of (defect, normalizer, coords) at the given constant."""
    return ((base + constant * weight, norm, coords) for base, weight, norm, coords in blocks)


def _min_constant(blocks, floor: float) -> float:
    """Smallest constant C >= floor with base + C weight >= -s SLACK norm
    wherever weight > 0, over a scan's blocks (see the module docstring);
    nan when a point is not finite, as no constant makes it hold."""
    least = floor
    for base, weight, norm, _ in blocks:
        on = weight > 0.0
        bound = (-_THRESHOLD_SLACK * SLACK * norm[on] - base[on]) / weight[on]
        least = np.maximum(least, np.max(bound, initial=floor))
    return float(least) + 0.0  # +0.0, never -0.0


def _terms_34i(p, a, b):
    """(base, weight) of the degree-(2p+2) expansion defect base + C weight."""
    q = 2.0 * p + 2.0
    base = (a + b) ** q - a**q - b**q - q * (a ** (q - 1.0) * b + a * b ** (q - 1.0))
    return base, (a * b) ** (p + 1.0)


def defect_34i(
    p: float, constant: float, a: np.ndarray | float, b: np.ndarray | float
) -> np.ndarray | float:
    """Defect of the degree-(2p+2) expansion bound; nonnegative iff it holds."""
    base, weight = _terms_34i(p, a, b)
    return base + constant * weight


def _scan_34i(p, a_max, samples):
    """The slice b = 1 (exhaustive by homogeneity and symmetry of the
    defect) as one block: its point count and blocks."""
    _check_p(p)
    a = _axis(a_max, samples)
    norm = np.maximum(1.0, (a + 1.0) ** (2.0 * p + 2.0))
    return a.size, [(*_terms_34i(p, a, 1.0), norm, (a, 1.0))]


def check_lemma34i(
    p: float,
    constant: float,
    a_max: float = 1e2,
    samples: int = 4000,
) -> InequalityReport:
    """Scan the expansion bound on the slice b = 1."""
    points, blocks = _scan_34i(p, a_max, samples)
    return _report("L34i", {"p": p, "a_max": a_max}, constant, points, _at(constant, blocks))


def min_constant_34i(p: float, a_max: float = 1e2, samples: int = 4000) -> float:
    """Smallest correction constant making the bound hold on check_lemma34i's
    scan, from one pass over it; at a = 0 the defect is 0 for every one."""
    return _min_constant(_scan_34i(p, a_max, samples)[1], -math.inf)


def _terms_34ii(p, eta, a1, a2, b1, b2):
    """(base, weight) of the corrected product expansion defect base + C weight."""
    q = p + 1.0
    base = (
        (a1 + b1) ** q * (a2 + b2) ** q
        - a1**q * a2**q
        - b1**q * b2**q
        - q * (a1**p * a2**q * b1 + a1**q * a2**p * b2 + a2 * b1**q * b2**p)
    )
    weight = (a1 ** (p - eta) * a2**q * b1 ** (1.0 + eta)
              + a1 ** (1.0 + eta) * b2**q * b1 ** (p - eta))
    return base, weight


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
    base, weight = _terms_34ii(p, eta, a1, a2, b1, b2)
    return base + constant * weight


def _scan_34ii(p, eta, x_max, samples):
    """The 2D log grid plus axes over the slice b1 = b2 = 1 (exhaustive by
    bihomogeneity): its point count and blocks of _ROW_BLOCK rows.

    On that slice every term of the defect and of its normalizer is a
    product of a function of x and one of y, so the grid is evaluated from
    broadcast row and column views.  Each point goes through the same
    operations as on the full grid, so a scan equals a whole-grid scan's
    exactly.
    """
    _check_p(p, eta)
    ax = _axis(x_max, samples)
    y_lead = (ax + 1.0) ** (p + 1.0)
    rows = (ax[start:start + _ROW_BLOCK, None] for start in range(0, ax.size, _ROW_BLOCK))
    return ax.size**2, (
        (*_terms_34ii(p, eta, x, ax, 1.0, 1.0),
         np.maximum(1.0, (x + 1.0) ** (p + 1.0) * y_lead), (x[:, 0], ax))
        for x in rows
    )


def check_lemma34ii(
    p: float,
    eta: float,
    constant: float,
    x_max: float = 1e2,
    samples: int = 1000,
) -> InequalityReport:
    """Scan the corrected product expansion on the slice b1 = b2 = 1."""
    points, blocks = _scan_34ii(p, eta, x_max, samples)
    params = {"p": p, "eta": eta, "x_max": x_max}
    return _report("L34ii", params, constant, points, _at(constant, blocks))


def min_constant_34ii(
    p: float,
    eta: float,
    x_max: float = 1e2,
    samples: int = 400,
) -> float:
    """Smallest nonnegative correction constant making the product expansion
    hold on check_lemma34ii's scan, from one pass over its row blocks;
    always at most sufficient_constant_34ii.  At x = 0 the defect is
    (1+y)^q - 1 - qy >= 0 for every constant.

    The constant is floored at zero: below it the finite-domain threshold is
    set by the scan cap alone (the defect-to-correction ratio tends to zero
    from above along the domain boundary), so unclamped estimates drift
    with x_max instead of converging.
    """
    return _min_constant(_scan_34ii(p, eta, x_max, samples)[1], 0.0)


def sufficient_constant_34ii(p: float, eta: float) -> float:
    """Explicit constant under which the corrected expansion provably holds.

    Built from envelope thresholds: x1 marks where the pure-x terms
    dominate, c_x1 the margin of (x+1)^(p+1) over 1 past x1, and y1 the
    matching y threshold; the constant then covers the three compact
    corner regions left over.
    """
    _check_p(p, eta)
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
    _check_p(p)
    q = p + 1.0
    a = _axis(a_max, samples)
    norm = np.maximum(1.0, (a + 1.0) ** q)
    lower = (a + 1.0) ** q - a**q - q * a**p
    upper = a**q + q * (a + 1.0) ** p - (a + 1.0) ** q
    blocks = [(lower, norm, ("lower", a)), (upper, norm, ("upper", a))]
    return _report("elementary", {"p": p, "a_max": a_max}, 0.0, 2 * a.size, blocks)
