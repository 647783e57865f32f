"""Problem data: hypothesis checks, potential sampling, constant shifts."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs.energy import energy
from binorm_gs.grid import Field, make_grid, norm_sq, write_field_csv
from binorm_gs.model import (
    PotentialSpec,
    ProblemSpec,
    sample_potential,
    validate,
)

from _cases import random_state, trapping_matrix, wells_spec


def test_benchmarks_are_admissible():
    assert validate(wells_spec()) == []
    for spec in trapping_matrix().values():
        assert validate(spec) == []


def test_supercritical_exponent_rejected():
    msgs = validate(replace(wells_spec(), p1=2.5))
    assert len(msgs) == 1
    assert "(p1)" in msgs[0] and "p1" in msgs[0]


def test_mass_critical_exponent_rejected_in_2d():
    spec = replace(wells_spec(), dim=2, v1=PotentialSpec.zero())
    msgs = validate(spec)
    # p = 1 hits the 2/N threshold in 2D for all three exponents
    assert len(msgs) == 3
    assert all("(p1)" in m for m in msgs)


def test_nonpositive_couplings_rejected():
    msgs = validate(replace(wells_spec(), beta=0.0, mu2=-1.0))
    assert any("beta" in m for m in msgs)
    assert any("mu2" in m for m in msgs)


def test_zero_mass_admitted_negative_rejected():
    assert validate(replace(wells_spec(), alpha2=0.0)) == []
    msgs = validate(replace(wells_spec(), alpha1=-0.5))
    assert any("alpha1" in m for m in msgs)


def test_trap_rejected_in_bounded_regime():
    spec = replace(wells_spec(), v2=PotentialSpec.harmonic_trap(0.1))
    msgs = validate(spec)
    assert any("(V1)" in m and "confining" in m for m in msgs)


def test_trapping_regime_requires_confining_v2():
    spec = replace(wells_spec(), regime="trapping")
    msgs = validate(spec)
    assert any("(V2)" in m and "confining" in m for m in msgs)


def test_trap_infimum_convention_enforced():
    trap = PotentialSpec.harmonic_trap(0.1, offset=2.0)
    spec = replace(wells_spec(), v2=trap, regime="trapping")
    assert any("infimum" in m for m in validate(spec))
    flat = PotentialSpec.harmonic_trap(0.0)
    spec = replace(wells_spec(), v2=flat, regime="trapping")
    assert any("stiffness" in m for m in validate(spec))


def test_unnormalized_shift_rejected():
    spec = replace(wells_spec(), v1=PotentialSpec.gaussian_well(0.5, 2.0, shift=1.0))
    assert any(m.startswith("(V1): v1.shift must be 0") for m in validate(spec))


@pytest.mark.parametrize(
    "regime, pot",
    [
        ("trapping", PotentialSpec(kind="harmonic_trap", stiffness=0.1, offset=1.0, shift=5.0)),
        ("both_bounded", PotentialSpec(kind="tabulated", samples_path="v.csv", shift=5.0)),
    ],
)
def test_shift_rejected_on_kinds_that_ignore_it(regime, pot):
    # sample_potential drops the shift of these kinds, so a solve would run
    # a different potential than the spec names
    spec = replace(wells_spec(), v2=pot, regime=regime)
    assert [m for m in validate(spec) if "shift" in m] == [
        f"{'(V2)' if regime == 'trapping' else '(V1)'}: v2.shift must be 0 (a constant "
        f"potential only adds shift * mass / 2 to the energy); got 5.0"
    ]


def test_unknown_regime_and_kind_rejected_at_construction():
    with pytest.raises(ValueError):
        replace(wells_spec(), regime="free")
    with pytest.raises(ValueError):
        PotentialSpec(kind="coulomb")


def test_spec_dict_round_trip():
    spec = wells_spec()
    assert ProblemSpec.from_dict(spec.to_dict()) == spec
    trap = trapping_matrix()["trap-plain"]
    assert ProblemSpec.from_dict(trap.to_dict()) == trap


def test_sample_gaussian_well_values(grid_1d):
    pot = PotentialSpec.gaussian_well(depth=0.5, width=2.0)
    v = sample_potential(pot, grid_1d)
    origin = grid_1d.n // 2
    assert v.values[origin] == -0.5  # deepest point sits on the origin node
    assert np.all(v.values <= 0.0)
    assert abs(v.values[0]) < 1e-10  # vanishes at the box corner


def test_sample_trap_values(grid_1d):
    v = sample_potential(PotentialSpec.harmonic_trap(0.05), grid_1d)
    assert np.min(v.values) == 1.0
    assert np.all(v.values >= 1.0)
    x = grid_1d.axes[0]
    assert np.allclose(v.values, 1.0 + 0.05 * x**2)


def test_sample_off_center_well():
    g = make_grid(2, 64, 16.0)
    pot = PotentialSpec.gaussian_well(depth=1.0, width=1.5, center=(2.0, -1.0))
    v = sample_potential(pot, g)
    ix = int(np.argmin(np.abs(g.axes[0] - 2.0)))
    iy = int(np.argmin(np.abs(g.axes[1] + 1.0)))
    assert v.values[ix, iy] == -1.0


def test_sample_center_dim_mismatch(grid_1d):
    pot = PotentialSpec.gaussian_well(depth=1.0, width=1.0, center=(0.0, 0.0))
    with pytest.raises(ValueError):
        sample_potential(pot, grid_1d)


def test_tabulated_potential_round_trip(tmp_path, grid_small):
    vals = -np.exp(-grid_small.radius() ** 2)
    path = tmp_path / "vtab.csv"
    write_field_csv(Field(grid_small, vals), str(path))
    v = sample_potential(PotentialSpec.tabulated(str(path)), grid_small)
    assert np.array_equal(v.values, vals)
    other = make_grid(1, 128, 32.0)
    with pytest.raises(ValueError):
        sample_potential(PotentialSpec.tabulated(str(path)), other)


@settings(max_examples=20, deadline=None)
@given(
    b1=st.floats(min_value=-3.0, max_value=3.0),
    b2=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_constant_shift_moves_energy_by_half_mass(b1, b2, seed):
    # E with shifted potentials = E normalized + sum_i (b_i / 2) ||u_i||^2
    g = make_grid(1, 256, 32.0)
    state = random_state(g, np.random.default_rng(seed))
    base = wells_spec()
    shifted = replace(
        base,
        v1=replace(base.v1, shift=b1),
        v2=replace(base.v2, shift=b2),
    )
    expected = (
        energy(state, base).total
        + 0.5 * b1 * norm_sq(state.u1)
        + 0.5 * b2 * norm_sq(state.u2)
    )
    got = energy(state, shifted).total
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_state_masses_match_norms(grid_small, rng):
    st_ = random_state(grid_small, rng, complex_valued=True)
    m1, m2 = st_.masses()
    assert m1 == pytest.approx(norm_sq(st_.u1), abs=0.0)
    assert m2 == pytest.approx(norm_sq(st_.u2), abs=0.0)
