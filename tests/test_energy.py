"""Energy functional: closed-form anchors, gradient consistency, invariances."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs.analysis import soliton_1d, soliton_energy_p1, soliton_multiplier_p1
from binorm_gs.energy import energy, gradient, multipliers, scalar_energy
from binorm_gs.grid import Field, State, inner, laplacian, make_grid, norm_sq, translate
from binorm_gs.model import PotentialSpec, ProblemSpec, sample_potential

from _cases import random_state, symmetric_cubic, wells_spec


def zero_state(grid) -> State:
    z = Field(grid, np.zeros(grid.shape))
    return State(z, z)


def sech_state(grid, lam: float = 1.0 / 16.0) -> State:
    w = soliton_1d(grid, 1.0, 1.0, lam)
    return State(w, Field(grid, np.zeros(grid.shape)))


def decoupled_cubic(beta: float = 1.0) -> ProblemSpec:
    return symmetric_cubic(beta)


def test_zero_state_has_zero_energy(grid_1d):
    rep = energy(zero_state(grid_1d), wells_spec())
    assert rep.total == 0.0
    assert rep.kinetic1 == rep.cross == rep.self2 == 0.0


def test_energy_invariant_under_global_phase(grid_small, rng):
    state = random_state(grid_small, rng, complex_valued=True)
    spec = replace(wells_spec(), p1=0.7, p2=0.9, p3=0.8, mu2=2.0)
    base = energy(state, spec).total
    rotated = State(
        state.u1.with_values(np.exp(1j * 0.73) * state.u1.values),
        state.u2.with_values(np.exp(1j * 2.11) * state.u2.values),
    )
    assert energy(rotated, spec).total == pytest.approx(base, rel=1e-12)


def test_scalar_energy_of_sech_soliton(grid_1d):
    w = soliton_1d(grid_1d, 1.0, 1.0, 1.0 / 16.0)
    # mass 1 cubic soliton: e = -1/96
    assert abs(scalar_energy(w, 1.0, 1.0) - (-1.0 / 96.0)) < 1e-6
    assert soliton_energy_p1(1.0, 1.0) == -1.0 / 96.0


def test_scalar_energy_scaling_split(grid_1d):
    w = soliton_1d(grid_1d, 1.3, 0.8, 0.5)
    c = 1.7
    kin = scalar_energy(w, 0.0, 0.8)
    foc = kin - scalar_energy(w, 1.3, 0.8)
    scaled = scalar_energy(w.with_values(c * w.values), 1.3, 0.8)
    # kinetic part is quadratic, focusing part degree 2p+2
    expected = c**2 * kin - c ** (2 * 0.8 + 2) * foc
    assert scaled == pytest.approx(expected, rel=1e-12)


def test_system_energy_of_soliton_component(grid_1d):
    lam = 0.5
    w = soliton_1d(grid_1d, 1.3, 1.0, lam)
    state = State(w, Field(grid_1d, np.zeros(grid_1d.shape)))
    spec = ProblemSpec(
        dim=1, p1=1, p2=1, p3=1, mu1=1.3, mu2=1.0, beta=1.0,
        alpha1=norm_sq(w), alpha2=0.0,
    )
    expected = -2.0 * lam**1.5 / (3.0 * 1.3)
    assert abs(energy(state, spec).total - expected) < 1e-6


def test_energy_report_decomposition_on_random_states():
    g = make_grid(1, 256, 32.0)
    spec = replace(wells_spec(), p1=0.9, p3=0.8, mu2=2.0)
    v1 = sample_potential(spec.v1, g)
    v2 = sample_potential(spec.v2, g)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        state = random_state(g, rng, complex_valued=True)
        rep = energy(state, spec, potentials=(v1, v2))
        parts = (
            rep.kinetic1 + rep.kinetic2 + rep.potential1 + rep.potential2
            - rep.self1 - rep.self2 - rep.cross
        )
        assert rep.total == pytest.approx(parts, rel=1e-12, abs=1e-12)
        # independent recomputation of the local terms
        pot1 = 0.5 * float(np.sum(v1.values * np.abs(state.u1.values) ** 2)) * g.cell_volume
        self1 = spec.mu1 / (2 * spec.p1 + 2) * float(
            np.sum(np.abs(state.u1.values) ** (2 * spec.p1 + 2))
        ) * g.cell_volume
        cross = spec.beta / (spec.p3 + 1) * float(
            np.sum(
                np.abs(state.u1.values) ** (spec.p3 + 1)
                * np.abs(state.u2.values) ** (spec.p3 + 1)
            )
        ) * g.cell_volume
        assert rep.potential1 == pytest.approx(pot1, rel=1e-12, abs=1e-15)
        assert rep.self1 == pytest.approx(self1, rel=1e-12, abs=1e-15)
        assert rep.cross == pytest.approx(cross, rel=1e-12, abs=1e-15)


def test_modulus_never_increases_energy(grid_small, rng):
    spec = replace(wells_spec(), p3=0.8)
    for _ in range(25):
        state = random_state(grid_small, rng, complex_valued=True)
        rectified = State(
            state.u1.with_values(np.abs(state.u1.values)),
            state.u2.with_values(np.abs(state.u2.values)),
        )
        assert energy(rectified, spec).total <= energy(state, spec).total + 1e-12


def test_energy_infinity_drops_the_wells(grid_small, rng):
    # the energy at infinity is the energy under the spec without potentials
    state = random_state(grid_small, rng)
    spec = wells_spec()
    e_inf = energy(state, spec.without_potentials())
    assert e_inf.potential1 == 0.0 and e_inf.potential2 == 0.0
    # wells are strictly negative on the support, so they lower the energy
    assert energy(state, spec).total < e_inf.total


def test_energy_infinity_translation_invariant(grid_small, rng):
    state = random_state(grid_small, rng)
    free = wells_spec().without_potentials()
    moved = State(translate(state.u1, 37), translate(state.u2, 37))
    assert energy(moved, free).total == pytest.approx(energy(state, free).total, rel=1e-13)


def test_gradient_of_exact_soliton_is_multiplier_eigenpair(grid_1d):
    # lam = 1 keeps the sech tail below 1e-13 at the box edge, so the
    # periodic seam does not pollute the spectral Laplacian
    lam = 1.0
    state = sech_state(grid_1d, lam)
    spec = decoupled_cubic()
    g1 = gradient(state, spec).u1
    resid = g1.values + lam * state.u1.values
    assert np.max(np.abs(resid)) < 1e-6


def test_gradient_matches_finite_differences(grid_small, rng):
    spec = replace(wells_spec(), p1=0.9, p2=1.1, p3=0.8, mu2=2.0)
    state = random_state(grid_small, rng)
    # keep amplitudes O(1) so the p < 1 terms stay smooth at this scale
    grad = gradient(state, spec)
    eps = 1e-5
    for _ in range(50):
        direction = random_state(grid_small, rng)
        predicted = float(
            np.real(inner(grad.u1, direction.u1) + inner(grad.u2, direction.u2))
        )
        plus = State(
            state.u1.with_values(state.u1.values + eps * direction.u1.values),
            state.u2.with_values(state.u2.values + eps * direction.u2.values),
        )
        minus = State(
            state.u1.with_values(state.u1.values - eps * direction.u1.values),
            state.u2.with_values(state.u2.values - eps * direction.u2.values),
        )
        fd = (energy(plus, spec).total - energy(minus, spec).total) / (2 * eps)
        assert fd == pytest.approx(predicted, rel=1e-5)


def test_gradient_decouples_at_zero_coupling(grid_small, rng):
    state = random_state(grid_small, rng)
    spec = wells_spec()
    free = replace(spec, beta=0.0)
    g_free = gradient(state, free)
    # component 1 must not see u2 at all
    other = State(state.u1, state.u2.with_values(2.0 * state.u2.values))
    g_other = gradient(other, free)
    assert np.array_equal(g_free.u1.values, g_other.u1.values)
    # and matches the beta-independent part of the coupled gradient
    kin = laplacian(state.u1)
    v1 = sample_potential(spec.v1, grid_small)
    expected = (
        -kin.values
        + v1.values * state.u1.values
        - spec.mu1 * np.abs(state.u1.values) ** 2 * state.u1.values
    )
    assert np.max(np.abs(g_free.u1.values - expected)) < 1e-12


def test_constraint_values_track_masses(grid_small, rng):
    state = random_state(grid_small, rng, complex_valued=True)
    q1, q2 = state.masses()
    assert q1 == pytest.approx(norm_sq(state.u1), abs=1e-13)
    assert q2 == pytest.approx(norm_sq(state.u2), abs=1e-13)
    moved = State(translate(state.u1, 11), translate(state.u2, 11))
    m1, m2 = moved.masses()
    assert m1 == pytest.approx(q1, rel=1e-13)
    zeroed = State(state.u1, state.u2.with_values(np.zeros(grid_small.shape)))
    assert zeroed.masses()[1] == 0.0


def test_multipliers_of_twin_solitons(grid_1d):
    # two decoupled mass-1 cubic solitons: both multipliers equal 1/16
    w = soliton_1d(grid_1d, 1.0, 1.0, 1.0 / 16.0)
    state = State(w, w)
    spec = replace(symmetric_cubic(), beta=0.0)
    m = multipliers(state, spec)
    target = soliton_multiplier_p1(1.0, 1.0)
    assert target == 1.0 / 16.0
    assert abs(m.lambda1 - target) < 1e-4
    assert abs(m.lambda2 - target) < 1e-4


def test_multipliers_phase_invariant(grid_1d):
    w = soliton_1d(grid_1d, 1.0, 1.0, 1.0 / 16.0)
    state = State(w, w)
    spec = replace(symmetric_cubic(), beta=0.0)
    base = multipliers(state, spec)
    rotated = State(
        w.with_values(np.exp(1j * 0.4) * w.values),
        w.with_values(np.exp(1j * 1.9) * w.values),
    )
    rot = multipliers(rotated, spec)
    assert rot.lambda1 == pytest.approx(base.lambda1, rel=1e-12)
    assert rot.lambda2 == pytest.approx(base.lambda2, rel=1e-12)


def test_multipliers_nan_for_zero_mass(grid_1d):
    state = sech_state(grid_1d)
    spec = decoupled_cubic()
    lam = multipliers(state, spec)
    assert math.isnan(lam.lambda2)
    # the present component's multiplier is the one it has on its own
    g1 = gradient(state, spec).u1
    assert lam.lambda1 == -float(np.real(inner(g1, state.u1))) / norm_sq(state.u1)
    assert abs(lam.lambda1 - soliton_multiplier_p1(1.0, 1.0)) < 1e-4
    swapped = multipliers(State(state.u2, state.u1), spec)
    assert math.isnan(swapped.lambda1)
    assert swapped.lambda2 == lam.lambda1


def test_gradient_rejects_non_finite(grid_small):
    vals = np.zeros(grid_small.shape)
    vals[5] = np.inf
    state = State(Field(grid_small, vals), Field(grid_small, np.zeros(grid_small.shape)))
    with pytest.raises(ValueError):
        gradient(state, wells_spec())


@settings(max_examples=20, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_self_interaction_homogeneity(scale, seed):
    # the self term of component 1 has degree 2 p1 + 2
    g = make_grid(1, 256, 32.0)
    spec = replace(symmetric_cubic(), p1=0.7, p2=0.7, p3=0.7)
    state = random_state(g, np.random.default_rng(seed))
    rep = energy(state, spec)
    scaled = State(
        state.u1.with_values(scale * state.u1.values),
        state.u2,
    )
    rep_s = energy(scaled, spec)
    expected = scale ** (2 * spec.p1 + 2) * rep.self1
    assert rep_s.self1 == pytest.approx(expected, rel=1e-10)
    assert rep_s.kinetic1 == pytest.approx(scale**2 * rep.kinetic1, rel=1e-10)
    assert rep_s.self2 == rep.self2


def test_cross_term_vanishes_when_component_dies(grid_small, rng):
    state = random_state(grid_small, rng)
    dead = State(state.u1, state.u2.with_values(np.zeros(grid_small.shape)))
    spec = replace(wells_spec(), p3=0.5)
    rep = energy(dead, spec)
    assert rep.cross == 0.0
    grad = gradient(dead, spec)
    # the p3 < 1 cross gradient is extended by zero where a factor dies
    assert np.all(np.isfinite(grad.u1.values))
    assert np.all(np.isfinite(grad.u2.values))


def test_report_total_is_finite_math(grid_small, rng):
    state = random_state(grid_small, rng)
    rep = energy(state, wells_spec())
    assert math.isfinite(rep.total)
