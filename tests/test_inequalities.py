"""Interaction inequalities: scans, minimal and explicit constants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs.inequalities import (
    MAX_RECORDED,
    SLACK,
    check_elementary_p3,
    check_lemma34i,
    check_lemma34ii,
    defect_34i,
    defect_34ii,
    _min_constant,
    _scan_34i,
    min_constant_34i,
    min_constant_34ii,
    sufficient_constant_34ii,
)

PAIRS = ((0.8, 0.4), (0.5, 0.25), (1.5, 0.75))


# ---------------------------------------------------------------------------
# two-variable expansion bound


def test_cubic_defect_closed_form():
    # p = 1: the defect collapses to (6 + C) (a b)^2
    a, b, c = 1.7, 0.4, -2.0
    expected = (6.0 + c) * (a * b) ** 2
    assert defect_34i(1.0, c, a, b) == pytest.approx(expected, rel=1e-12)


def test_expansion_bound_holds_at_zero_and_fails_below_threshold():
    assert check_lemma34i(1.0, 0.0).holds
    assert check_lemma34i(1.0, -6.0).holds
    report = check_lemma34i(1.0, -6.1)
    assert not report.holds
    assert report.worst_defect < 0.0
    assert len(report.violations) > 0
    a, b, defect = report.violations[0]
    assert b == 1.0
    assert defect_34i(1.0, -6.1, a, b) == pytest.approx(defect, rel=1e-12)


def test_expansion_report_bookkeeping():
    report = check_lemma34i(0.7, 0.0, samples=500)
    assert report.which == "L34i"
    assert report.points == 501  # zero plus the log sweep up to a = 1
    assert report.params == {"p": 0.7}


def _scan_threshold(p: float) -> float:
    """The smallest constant under which check_lemma34i's default scan holds."""
    return _min_constant(_scan_34i(p, 4000)[1], -math.inf)


def test_expansion_threshold_cubic():
    # the defect is (6 + C) (a b)^2: the threshold is -6, and the scan
    # reads it less its slack at the binding point
    assert min_constant_34i(1.0) == -6.0
    assert _scan_threshold(1.0) == pytest.approx(-6.0, abs=1e-9)


def test_expansion_threshold_at_three_halves():
    # AM-GM bound -20, at a = b
    assert min_constant_34i(1.5) == -20.0


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 1.2, 1.5, 1.9])
def test_expansion_threshold_holds_at_a_equal_b(p):
    # below 1/2 and above 1 the threshold binds at a = b, which a scan
    # sampled off it misses
    assert defect_34i(p, min_constant_34i(p), 1.0, 1.0) >= 0.0


@pytest.mark.parametrize("p", [0.25, 1.5, 1.9])
def test_expansion_scan_fails_just_below_the_threshold(p):
    # the half-slice ends at the binding point a = b = 1, so it tells the
    # threshold 2 + 2q - 2^q from a constant just below it
    q = 2.0 * p + 2.0
    c = 2.0 + 2.0 * q - 2.0**q
    assert check_lemma34i(p, c).holds
    assert not check_lemma34i(p, c - 1e-9 * max(1.0, abs(c))).holds


def test_expansion_threshold_half():
    # p = 1/2 turns the expansion into the exact cube identity, so the
    # correction threshold sits at zero, the limit of -base/weight as a -> 0
    assert min_constant_34i(0.5) == 0.0
    assert check_lemma34i(0.5, 0.0).holds


@pytest.mark.parametrize("p, exact, scan, tol", [
    (0.5, 0.0, -8.0e-12, 1e-13),
    (0.6, 0.0, -0.0171, 1e-4),
    (0.9, 0.0, -1.499, 1e-3),
    (1.0, -6.0, -6.0, 1e-9),
])
def test_expansion_threshold_is_the_small_a_limit(p, exact, scan, tol):
    # for 1/2 <= p <= 1 the ratio -base/weight climbs to its limit as a -> 0,
    # which the scan's smallest a = 1e-6 does not reach: there the slack binds
    # and the scan alone reads the smaller constant scan, minimal on its points
    assert min_constant_34i(p) == exact
    assert check_lemma34i(p, exact).holds
    c = _scan_threshold(p)
    assert c == pytest.approx(scan, abs=tol) and c < exact
    assert check_lemma34i(p, c).holds
    assert not check_lemma34i(p, c - 1e-3).holds


def test_expansion_threshold_holds_across_the_window():
    for p in np.linspace(0.05, 1.95, 44).tolist():
        c = min_constant_34i(p)
        assert check_lemma34i(p, c).holds, p
    # below 1/2 and above 1 the threshold is -base/weight at a = b
    assert min_constant_34i(0.3) == pytest.approx(1.1371, abs=1e-4)
    assert min_constant_34i(0.25) == 2.0 + 5.0 - 2.0**2.5
    assert min_constant_34i(1.5) == -20.0


@pytest.mark.parametrize("p", [0.3, 0.5, 0.55, 0.7, 0.9, 0.95, 1.0, 1.5, 1.9])
def test_expansion_threshold_brackets(p):
    # on [1/2, 1] the threshold is the small-a limit of -base/weight, elsewhere
    # its value at a = b; both scans hold at it
    c = min_constant_34i(p)
    assert math.isfinite(c)
    for samples in (4000, 1000):
        assert check_lemma34i(p, c, samples).holds
        if abs(c) > 1e-3:  # away from the a -> 0 limit 0: stepping below must fail
            assert not check_lemma34i(p, c - 2e-3, samples).holds


def test_defects_keep_their_written_formulas_to_the_bit():
    # defect = base + C weight evaluates the same operations in the same
    # order as the formulas written out in one expression
    rng = np.random.default_rng(7)
    a, b, a1, a2, b1, b2 = 10.0 ** rng.uniform(-6.0, 3.0, (6, 200))
    for p, eta, c in ((0.6, 0.3, -0.4), (1.0, 0.2, -6.0), (1.7, 1.1, 12.5)):
        q = 2.0 * p + 2.0
        written_i = ((a + b) ** q - a**q - b**q - q * (a ** (q - 1.0) * b + a * b ** (q - 1.0))
                     + c * (a * b) ** (p + 1.0))
        assert defect_34i(p, c, a, b).tobytes() == written_i.tobytes()
        q = p + 1.0
        written_ii = (
            (a1 + b1) ** q * (a2 + b2) ** q - a1**q * a2**q - b1**q * b2**q
            - q * (a1**p * a2**q * b1 + a1**q * a2**p * b2 + a2 * b1**q * b2**p)
            + c * (a1 ** (p - eta) * a2**q * b1 ** (1.0 + eta)
                   + a1 ** (1.0 + eta) * b2**q * b1 ** (p - eta))
        )
        assert defect_34ii(p, eta, c, a1, a2, b1, b2).tobytes() == written_ii.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.2, max_value=2.0),
    s=st.floats(min_value=1e-3, max_value=1e3),
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=1e-3, max_value=1e3),
)
def test_expansion_defect_homogeneity(p, s, a, b):
    base = defect_34i(p, 0.0, a, b)
    scaled = defect_34i(p, 0.0, s * a, s * b)
    # the defect can cancel exactly (p = 1/2), so allow a roundoff floor
    # proportional to the leading term of the expansion
    lead = (s * (a + b)) ** (2.0 * p + 2.0)
    assert scaled == pytest.approx(
        s ** (2.0 * p + 2.0) * base, rel=1e-10, abs=1e-12 * lead
    )


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=0.2, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=1e3),
    b=st.floats(min_value=0.0, max_value=1e3),
    c=st.floats(min_value=-5.0, max_value=5.0),
)
def test_expansion_defect_symmetric(p, a, b, c):
    lead = (a + b) ** (2.0 * p + 2.0) + 1.0
    assert defect_34i(p, c, a, b) == pytest.approx(
        defect_34i(p, c, b, a), rel=1e-10, abs=1e-12 * lead
    )


# ---------------------------------------------------------------------------
# four-variable product bound


def test_product_defect_zero_on_x_axis():
    # a1 = 0 reduces the bound to single-variable convexity: never negative
    y = np.concatenate(([0.0], np.logspace(-6, 3, 200)))
    for p, eta in PAIRS:
        d = defect_34ii(p, eta, 0.0, 0.0, y)
        assert np.all(np.asarray(d) >= -1e-12)


@pytest.mark.parametrize("p,eta", PAIRS)
def test_product_bound_holds_with_zero_constant(p, eta):
    report = check_lemma34ii(p, eta, 0.0, samples=300)
    assert report.which == "L34ii"
    assert report.holds
    assert report.points == 301**2


@pytest.mark.parametrize("p,eta", PAIRS)
def test_product_bound_holds_with_sufficient_constant(p, eta):
    c = sufficient_constant_34ii(p, eta)
    assert c >= 1.0
    report = check_lemma34ii(p, eta, c, samples=300)
    assert report.holds


@pytest.mark.parametrize("p,eta", PAIRS)
def test_product_threshold_is_the_floor(p, eta):
    for samples in (200, 400):
        c = min_constant_34ii(p, eta, samples=samples)
        assert c == 0.0 and math.copysign(1.0, c) == 1.0  # +0.0, not -0.0
        assert check_lemma34ii(p, eta, c, samples=samples).holds
    assert c <= sufficient_constant_34ii(p, eta)


def test_product_threshold_stable_under_wider_scans():
    a = min_constant_34ii(0.8, 0.4, x_max=1e2, samples=200)
    b = min_constant_34ii(0.8, 0.4, x_max=2e2, samples=200)
    assert abs(b - a) <= 0.02 * max(1.0, abs(a))


def test_product_constant_monotonicity_probe():
    # smaller eta weakens the correction terms; the explicit constant
    # grows accordingly (reported here, not asserted as a guarantee)
    c_small = sufficient_constant_34ii(0.8, 0.2)
    c_large = sufficient_constant_34ii(0.8, 0.6)
    assert math.isfinite(c_small) and math.isfinite(c_large)
    assert c_small > 0.0 and c_large > 0.0


def test_product_bound_fails_with_negative_constant():
    report = check_lemma34ii(0.8, 0.4, -0.5, samples=300)
    assert not report.holds
    x, y, defect = report.violations[0]
    assert defect < 0.0
    assert defect_34ii(0.8, 0.4, -0.5, x, y) == pytest.approx(defect, rel=1e-10)


def _whole_grid_34ii(p, eta, constant, samples, x_max=1e2):
    """Reference scan: the defect on full meshgrid arrays in one pass."""
    ax = np.concatenate(([0.0], np.logspace(-6.0, math.log10(x_max), samples)))
    x, y = np.meshgrid(ax, ax, indexing="ij")
    d = defect_34ii(p, eta, constant, x, y)
    lead = (x + 1.0) ** (p + 1.0) * (y + 1.0) ** (p + 1.0)
    tol = SLACK * np.maximum(1.0, lead)
    worst = float(np.min(d / np.maximum(1.0, lead)))
    idx = np.argwhere(d < -tol)[:MAX_RECORDED]
    viol = tuple((float(x[i, j]), float(y[i, j]), float(d[i, j])) for i, j in idx)
    return int(x.size), worst, viol


@pytest.mark.parametrize(
    "samples,recorded",
    [
        (300, MAX_RECORDED),  # 301 rows: not a multiple of the row block
        (20, 8),  # fewer rows than one block
    ],
)
def test_blocked_product_scan_equals_whole_grid(samples, recorded):
    report = check_lemma34ii(0.8, 0.4, -0.5, samples=samples)
    points, worst, viol = _whole_grid_34ii(0.8, 0.4, -0.5, samples)
    assert len(viol) == recorded
    assert report.points == points
    assert report.worst_defect == worst
    assert report.violations == viol


def test_product_scan_rejects_bad_eta():
    with pytest.raises(ValueError):
        check_lemma34ii(0.8, 0.9, 0.0)
    with pytest.raises(ValueError):
        sufficient_constant_34ii(0.5, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=1e-2, max_value=1e2),
    t=st.floats(min_value=1e-2, max_value=1e2),
    a1=st.floats(min_value=1e-2, max_value=1e2),
    a2=st.floats(min_value=1e-2, max_value=1e2),
    c=st.floats(min_value=0.0, max_value=10.0),
)
def test_product_defect_bihomogeneity(s, t, a1, a2, c):
    p, eta = 0.8, 0.4
    q = p + 1.0
    base = defect_34ii(p, eta, c, a1, a2, 1.0, 1.0)
    scaled = defect_34ii(p, eta, c, s * a1, t * a2, s * 1.0, t * 1.0)
    assert scaled == pytest.approx(s**q * t**q * base, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# elementary convexity bounds


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8, 1.0, 1.7])
def test_elementary_bounds_hold(p):
    report = check_elementary_p3(p)
    assert report.holds
    assert report.worst_defect >= -1e-12
    assert report.points == 2 * 4001


def test_elementary_bounds_reject_bad_exponent():
    with pytest.raises(ValueError):
        check_elementary_p3(0.0)


@pytest.mark.parametrize(
    "scan", [lambda: check_elementary_p3(1.0, a_max=1e200)], ids=["elementary"],
)
def test_overflowing_scan_does_not_hold(scan):
    # Past a ~ 1e154 the leading power overflows: the defect is nan and
    # certifies nothing.  Every finite point holds.  (The L34i scan ends at
    # a = 1 and cannot overflow for p < 2.)
    with np.errstate(over="ignore", invalid="ignore"):
        report = scan()
    assert not report.holds
    assert math.isnan(report.worst_defect)
    assert len(report.violations) == MAX_RECORDED
    assert not any(math.isfinite(v[-1]) for v in report.violations)


@pytest.mark.parametrize("p", [0.0, -1.0, 2.0, 45.0, math.nan])
@pytest.mark.parametrize(
    "scan",
    [
        lambda p: check_lemma34i(p, 0.0),
        lambda p: min_constant_34i(p),
        lambda p: check_lemma34ii(p, 0.5 * p, 1.0),
        lambda p: min_constant_34ii(p, 0.5 * p),
        lambda p: sufficient_constant_34ii(p, 0.5 * p),
        lambda p: check_elementary_p3(p),
    ],
    ids=["L34i", "min-L34i", "L34ii", "min-L34ii", "sufficient-L34ii", "elementary"],
)
def test_scans_refuse_p_outside_the_subcritical_window(scan, p):
    # from p = 45 the L34ii scan at its sufficient constant overflowed into
    # 36 false violations; (0, 2) is the subcritical window for N = 1
    with pytest.raises(ValueError, match=r"^p must lie in \(0, 2\).*; got "):
        scan(p)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(min_value=0.1, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=1e4),
    b=st.floats(min_value=1e-6, max_value=1e4),
)
def test_elementary_bounds_pointwise(p, a, b):
    q = p + 1.0
    lhs = (a + b) ** q
    lower = a**q + q * a**p * b
    upper = a**q + q * (a + b) ** p * b
    slack = 1e-12 * max(1.0, lhs)
    assert lower <= lhs + slack
    assert lhs <= upper + slack
