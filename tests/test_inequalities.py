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
    assert report.points == 501  # zero plus the log sweep
    assert report.params["p"] == 0.7


def test_expansion_threshold_cubic():
    # the defect is (6 + C) (a b)^2: the threshold is -6, less the scan's
    # slack at its binding point
    assert min_constant_34i(1.0) == pytest.approx(-6.0, abs=1e-9)


def test_expansion_threshold_at_three_halves():
    # AM-GM bound -20, sampled off a = 1
    assert min_constant_34i(1.5) == pytest.approx(-20.0, rel=1e-5)


def test_expansion_threshold_half():
    # p = 1/2 turns the expansion into the exact cube identity, so the
    # correction threshold sits at zero, less what the scan's slack admits
    # (about 8e-12 at its binding point)
    c = min_constant_34i(0.5)
    assert -1e-11 <= c <= 0.0
    again = min_constant_34i(0.5, a_max=2e3)
    assert abs(again - c) <= 1e-11


@pytest.mark.parametrize("p", [0.3, 0.5, 0.55, 0.7, 0.9, 0.95, 1.0, 1.5, 1.9])
def test_expansion_threshold_brackets(p):
    # on (1/2, 1) the binding point is the axis's smallest a, where the
    # slack dominates; at 0.9 and 0.95 the rounding of the defect is what
    # the threshold's margin below the full slack absorbs
    for scan in ({}, {"a_max": 2e3, "samples": 1000}):
        c = min_constant_34i(p, **scan)
        assert math.isfinite(c)
        assert check_lemma34i(p, c, **scan).holds
        if abs(c) > 1e-3:  # interior threshold: stepping below must fail
            assert not check_lemma34i(p, c - 2e-3, **scan).holds


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


def test_expansion_threshold_stable_under_wider_scans():
    base = min_constant_34i(1.0, a_max=1e3)
    wide = min_constant_34i(1.0, a_max=2e3)
    assert abs(wide - base) < 2e-2 * max(1.0, abs(base))


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
    "scan",
    [lambda: check_lemma34i(1.0, 0.0, a_max=1e200),
     lambda: check_elementary_p3(1.0, a_max=1e200)],
    ids=["L34i", "elementary"],
)
def test_overflowing_scan_does_not_hold(scan):
    # Past a ~ 1e77 (L34i) or 1e154 (elementary) the leading power
    # overflows: the defect is nan and certifies nothing.  Every finite
    # point holds.
    with np.errstate(over="ignore", invalid="ignore"):
        report = scan()
    assert not report.holds
    assert math.isnan(report.worst_defect)
    assert len(report.violations) == MAX_RECORDED
    assert not any(math.isfinite(v[-1]) for v in report.violations)


def test_minimal_constant_of_an_overflowing_scan_is_nan():
    # no constant makes a non-finite point hold
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(min_constant_34i(1.0, a_max=1e200))


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
