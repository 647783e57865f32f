"""Structural diagnostics: decay fits, virial identity, overlaps, gluing."""

from __future__ import annotations

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs.analysis import (
    classify_decay_regime,
    convolution_limit_check,
    decay_fit,
    glue_energy_gap,
    glue_states,
    overlap_series,
    pohozaev_check,
    soliton_1d,
    soliton_energy_p1,
    soliton_mass_p1,
    soliton_multiplier_p1,
)
from binorm_gs.energy import energy
from binorm_gs.grid import Field, State, laplacian, make_grid, norm_sq
from binorm_gs.model import ProblemSpec, sample_potential

from _cases import wells_spec

# Modules come from importlib because the package rebinds the name `energy`
# to the function of that name.
analysis_module = importlib.import_module("binorm_gs.analysis")
energy_module = importlib.import_module("binorm_gs.energy")


# ---------------------------------------------------------------------------
# closed-form references


def test_soliton_solves_its_equation(grid_1d):
    # lam large enough that the tail is ~1e-15 at the box edge; wider
    # solitons leave a seam kink that dominates the spectral residual
    mu, p, lam = 1.5, 0.8, 1.1
    w = soliton_1d(grid_1d, mu, p, lam)
    resid = -laplacian(w).values + lam * w.values - mu * w.values ** (2 * p + 1)
    assert np.max(np.abs(resid)) < 1e-7


def test_soliton_closed_forms_are_consistent(grid_1d):
    mu, gamma = 2.0, 1.3
    lam = soliton_multiplier_p1(mu, gamma)
    w = soliton_1d(grid_1d, mu, 1.0, lam)
    assert norm_sq(w) == pytest.approx(gamma, rel=1e-8)
    assert soliton_mass_p1(mu, lam) == pytest.approx(gamma, rel=1e-14)
    # the scalar problem is the system with the second mass set to zero
    spec = ProblemSpec(
        dim=1, p1=1.0, p2=1.0, p3=1.0, mu1=mu, mu2=mu, beta=1.0, alpha1=gamma, alpha2=0.0
    )
    zero = Field(grid_1d, np.zeros(grid_1d.shape))
    assert energy(State(w, zero), spec).total == pytest.approx(
        soliton_energy_p1(mu, gamma), abs=1e-8
    )


def test_soliton_requires_one_dimension(grid_2d_small):
    with pytest.raises(ValueError):
        soliton_1d(grid_2d_small, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# decay regime classification


def test_component_one_always_uses_its_own_multiplier():
    regime = classify_decay_regime(0.5, 0.16, 2.25, component=1)
    assert regime.tag == "component1"
    assert regime.expected_rate == pytest.approx(math.sqrt(0.16))


def test_second_component_standard_when_p3_large():
    regime = classify_decay_regime(1.2, 0.3, 1.0, component=2)
    assert regime.tag == "component2_standard"
    assert regime.expected_rate == pytest.approx(1.0)
    assert regime.lambda3 is None


def test_second_component_anomalous_when_forced_rate_undercuts():
    lam1, lam2, p3 = 0.16, 2.25, 0.5
    lam3 = (1 + p3) ** 2 * lam1 / (1 - p3) ** 2
    regime = classify_decay_regime(p3, lam1, lam2, component=2)
    assert lam3 < lam2
    assert regime.tag == "component2_anomalous"
    assert regime.expected_rate == pytest.approx(math.sqrt(lam3))
    assert regime.lambda3 == pytest.approx(lam3)


def test_second_component_standard_when_forced_rate_exceeds():
    # same p3 < 1 but multipliers close: the forced rate overshoots lam2
    regime = classify_decay_regime(0.5, 1.0, 1.1, component=2)
    assert regime.tag == "component2_standard"
    assert regime.expected_rate == pytest.approx(math.sqrt(1.1))


def test_classifier_input_validation():
    with pytest.raises(ValueError):
        classify_decay_regime(0.5, -0.1, 1.0, component=2)
    with pytest.raises(ValueError):
        classify_decay_regime(0.5, 2.0, 1.0, component=2)  # lam1 > lam2
    with pytest.raises(ValueError):
        classify_decay_regime(0.5, 0.1, 1.0, component=3)


@settings(max_examples=40, deadline=None)
@given(
    p3=st.floats(min_value=0.99, max_value=1.99),
    lam1=st.floats(min_value=0.01, max_value=1.0),
    spread=st.floats(min_value=1.0, max_value=100.0),
)
def test_no_anomaly_at_or_above_unit_p3(p3, lam1, spread):
    regime = classify_decay_regime(p3, lam1, lam1 * spread, component=2)
    if p3 >= 1.0:
        assert regime.tag == "component2_standard"
    else:
        assert regime.tag in ("component2_standard", "component2_anomalous")


# ---------------------------------------------------------------------------
# decay fitting


def synth_profile(grid, rate: float, poly: float, amp: float = 1.0) -> Field:
    r = grid.radius()
    return Field(grid, amp * (1.0 + r) ** poly * np.exp(-rate * r))


def test_decay_fit_recovers_pure_exponential(grid_1d):
    f = synth_profile(grid_1d, 0.45, 0.0)
    fit = decay_fit(f, (4.0, 20.0))
    assert fit.rate == pytest.approx(0.45, rel=1e-6)
    assert abs(fit.poly_exponent) < 1e-4
    assert fit.r_squared > 0.999999
    assert fit.n_shells >= 8


@settings(max_examples=20, deadline=None)
@given(
    rate=st.floats(min_value=0.2, max_value=1.5),
    poly=st.floats(min_value=-1.5, max_value=1.5),
)
def test_decay_fit_recovers_synthetic_models(rate, poly):
    g = make_grid(1, 4096, 64.0)
    fit = decay_fit(synth_profile(g, rate, poly, amp=0.7), (4.0, 22.0))
    assert fit.rate == pytest.approx(rate, rel=1e-2)
    assert abs(fit.poly_exponent - poly) < 0.1


def test_decay_fit_2d_shell_model():
    g = make_grid(2, 256, 32.0)
    r = g.radius()
    f = Field(g, (1.0 + r) ** (-0.5) * np.exp(-0.8 * r))
    fit = decay_fit(f, (2.0, 10.0))
    assert fit.rate == pytest.approx(0.8, rel=2e-2)


def test_decay_fit_window_validation(grid_1d):
    f = synth_profile(grid_1d, 0.5, 0.0)
    with pytest.raises(ValueError, match="wrap-around"):
        decay_fit(f, (4.0, 30.0))  # beyond 0.4 L = 25.6
    with pytest.raises(ValueError):
        decay_fit(f, (8.0, 8.0))


def test_decay_fit_needs_enough_live_shells(grid_1d):
    # a profile that dies below the floor well inside the window
    f = synth_profile(grid_1d, 5.0, 0.0)
    with pytest.raises(ValueError, match="usable shells"):
        decay_fit(f, (18.0, 25.0))


# ---------------------------------------------------------------------------
# virial identity


def test_exact_soliton_satisfies_virial(grid_1d):
    for mu, p, lam in ((1.0, 1.0, 0.25), (2.0, 0.6, 0.5)):
        w = soliton_1d(grid_1d, mu, p, lam)
        check = pohozaev_check(w, lam, mu, p)
        assert not check.degenerate
        assert check.residual < 1e-8
        # terms have the stated signs in 1D: kinetic enters negatively
        assert check.kinetic_term < 0.0 < check.focusing_term


def test_virial_flags_wrong_multiplier(grid_1d):
    w = soliton_1d(grid_1d, 1.0, 1.0, 0.25)
    assert pohozaev_check(w, 0.5, 1.0, 1.0).residual > 1e-2


def test_virial_degenerate_on_zero_field(grid_1d):
    z = Field(grid_1d, np.zeros(grid_1d.shape))
    check = pohozaev_check(z, 0.3, 1.0, 1.0)
    assert check.degenerate
    assert check.residual == 0.0


# ---------------------------------------------------------------------------
# scaled convolution limits


def test_convolution_limit_reproduces_two_sided_exponential(grid_1d):
    rows = convolution_limit_check(
        f=lambda x: np.exp(-2.0 * np.abs(x)),
        g=lambda x: np.exp(-np.abs(x)),
        poly_power=0.0,
        rate=1.0,
        gamma=1.0,
        grid=grid_1d,
        r_values=[10.0, 20.0],
        f_rate=2.0,
    )
    assert len(rows) == 4  # two radii, two directions
    for row in rows:
        # quadrature of the kinked integrand e^(-2|y|) e^(omega y) carries
        # an O(h^2) error at the kink, ~8e-5 on this grid
        assert row.limit == pytest.approx(4.0 / 3.0, rel=2e-4)
    far = [row for row in rows if row.r == 20.0]
    assert {row.omega for row in far} == {(1.0,), (-1.0,)}
    for row in far:
        assert abs(row.scaled - 4.0 / 3.0) / (4.0 / 3.0) < 1e-2


@pytest.mark.parametrize("dim", [1, 2])
def test_convolution_limit_directions_are_the_signed_axes(dim):
    rows = convolution_limit_check(
        f=lambda *y: np.exp(-2.0 * np.sqrt(sum(c * c for c in y))),
        g=lambda *y: np.exp(-np.sqrt(sum(c * c for c in y))),
        poly_power=0.0,
        rate=1.0,
        gamma=1.0,
        grid=make_grid(dim, 32, 16.0),
        r_values=[4.0],
        f_rate=2.0,
    )
    axes = [tuple(s * e) for e in np.eye(dim) for s in (1.0, -1.0)]
    assert [row.omega for row in rows] == axes
    # no -0.0 entry, which would write as "-0.0" in conv_limit.json
    assert not any(np.signbit(c) for row in rows for c in row.omega if c == 0.0)


def test_convolution_limit_rejects_divergent_pairs(grid_1d):
    with pytest.raises(ValueError, match="diverges"):
        convolution_limit_check(
            f=lambda x: np.exp(-np.abs(x)),
            g=lambda x: np.exp(-np.abs(x)),
            poly_power=0.0,
            rate=1.0,
            gamma=1.0,
            grid=grid_1d,
            r_values=[5.0],
            f_rate=1.0,
        )


def test_convolution_limit_rejects_far_radii(grid_1d):
    with pytest.raises(ValueError, match="truncation"):
        convolution_limit_check(
            f=lambda x: np.exp(-2.0 * np.abs(x)),
            g=lambda x: np.exp(-np.abs(x)),
            poly_power=0.0,
            rate=1.0,
            gamma=1.0,
            grid=grid_1d,
            r_values=[30.0],
            f_rate=2.0,
        )


# ---------------------------------------------------------------------------
# overlaps and gluing


def test_overlap_series_rate_tracks_slower_factor(grid_1d):
    # <e^{-a|x|}, e^{-b|x-d|}> decays like e^{-a d} when a < b
    a, b = 0.45, 1.1
    u = Field(grid_1d, np.exp(-a * np.abs(grid_1d.axes[0])))
    w = Field(grid_1d, np.exp(-b * np.abs(grid_1d.axes[0])))
    ns = [512, 640, 768, 896, 1024, 1152, 1280]
    series = overlap_series(u, w, ns)
    assert series.rate == pytest.approx(a, rel=2e-2)
    assert len(series.kappas) == len(ns)
    assert all(k > 0 for k in series.kappas)
    assert all(
        k2 < k1 for k1, k2 in zip(series.kappas, series.kappas[1:])
    )


def test_overlap_series_equal_rates_polynomial_factor(grid_1d):
    # equal decay rates: kappa ~ d e^{-a d}, so poly comes out near 1
    a = 0.5
    u = Field(grid_1d, np.exp(-a * np.abs(grid_1d.axes[0])))
    series = overlap_series(u, u, [512, 640, 768, 896, 1024, 1152, 1280])
    assert series.rate == pytest.approx(a, rel=2e-2)
    assert series.poly == pytest.approx(1.0, abs=0.25)


def test_overlap_series_needs_live_overlaps(grid_1d):
    u = Field(grid_1d, np.exp(-5.0 * np.abs(grid_1d.axes[0])))
    with pytest.raises(ValueError, match="at least three"):
        overlap_series(u, u, [512, 640, 768])


def test_glue_states_preserves_masses(grid_1d):
    x = grid_1d.axes[0]
    u0 = State(
        Field(grid_1d, np.exp(-0.5 * np.abs(x))),
        Field(grid_1d, np.exp(-0.6 * np.abs(x))),
    )
    w0 = State(
        Field(grid_1d, 0.8 * np.exp(-1.0 * np.abs(x))),
        Field(grid_1d, 0.7 * np.exp(-0.9 * np.abs(x))),
    )
    alpha = (
        norm_sq(u0.u1) + norm_sq(w0.u1),
        norm_sq(u0.u2) + norm_sq(w0.u2),
    )
    glued, ledger = glue_states(u0, w0, 640, alpha)
    m1, m2 = glued.masses()
    assert m1 == pytest.approx(alpha[0], rel=1e-12)
    assert m2 == pytest.approx(alpha[1], rel=1e-12)
    assert ledger.kappa1 > 0 and ledger.kappa2 > 0
    # overlaps shrink the rescaling below one
    assert 0.0 < ledger.tau1 < 1.0
    assert ledger.separation == 640 * grid_1d.h


def test_glue_states_checks_mass_budget(grid_1d):
    x = grid_1d.axes[0]
    f = Field(grid_1d, np.exp(-np.abs(x)))
    state = State(f, f)
    with pytest.raises(ValueError, match="mass"):
        glue_states(state, state, 640, (1.0, 1.0))


def test_glue_states_zero_component_passthrough(grid_1d):
    x = grid_1d.axes[0]
    f = Field(grid_1d, np.exp(-np.abs(x)))
    z = Field(grid_1d, np.zeros(grid_1d.shape))
    u0 = State(f, z)
    w0 = State(z, f)
    alpha = (norm_sq(f), norm_sq(f))
    glued, ledger = glue_states(u0, w0, 512, alpha)
    assert ledger.kappa1 == 0.0 and ledger.kappa2 == 0.0
    assert ledger.tau1 == 1.0 and ledger.tau2 == 1.0
    m1, m2 = glued.masses()
    assert m1 == pytest.approx(alpha[0], rel=1e-12)
    assert m2 == pytest.approx(alpha[1], rel=1e-12)


def test_glue_energy_gap_samples_the_potentials_once(grid_1d, monkeypatch):
    # one sampling of V1 and V2 serves every shift, and each gap is the one
    # energy() gives when it samples the potentials itself
    spec = wells_spec()
    x = grid_1d.axes[0]
    u0 = State(Field(grid_1d, 0.6 * np.exp(-0.5 * np.abs(x))),
               Field(grid_1d, 0.5 * np.exp(-0.6 * np.abs(x))))
    w0 = State(Field(grid_1d, 0.4 * np.exp(-1.0 * np.abs(x))),
               Field(grid_1d, 0.3 * np.exp(-0.9 * np.abs(x))))
    spec = spec.with_masses(*(a + b for a, b in zip(u0.masses(), w0.masses())))
    free = spec.without_potentials()
    u0_res = SimpleNamespace(state=u0, report=energy(u0, spec))
    w0_res = SimpleNamespace(state=w0, report=energy(w0, free))
    calls = []

    def counted(pot, grid):
        calls.append(pot)
        return sample_potential(pot, grid)

    for module in (analysis_module, energy_module):
        monkeypatch.setattr(module, "sample_potential", counted, raising=False)
    shifts = [512, 640, 768]
    ledgers = glue_energy_gap(spec, u0_res, w0_res, shifts)
    assert calls == [spec.v1, spec.v2]
    monkeypatch.undo()
    reference = u0_res.report.total + w0_res.report.total
    for n, ledger in zip(shifts, ledgers):
        glued, _ = glue_states(u0, w0, n, spec.masses)
        assert ledger.gap == energy(glued, spec).total - reference
