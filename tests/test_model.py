"""Problem data: hypothesis checks, potential sampling, the refused shift."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from binorm_gs.cli import ExperimentConfig, config_from_dict, config_to_dict
from binorm_gs.energy import energy
from binorm_gs.grid import Field, make_grid, norm_sq, write_field_csv
from binorm_gs.model import PotentialSpec, sample_potential, validate

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


@pytest.mark.parametrize(
    "regime, slot, pot",
    [
        ("trapping", "v2",
         PotentialSpec(kind="harmonic_trap", stiffness=0.1, offset=1.0, shift=5.0)),
        ("both_bounded", "v2",
         PotentialSpec(kind="tabulated", samples_path="v.csv", shift=5.0)),
        ("both_bounded", "v1", replace(PotentialSpec.gaussian_well(0.5, 2.0), shift=5.0)),
    ],
    ids=["trap", "tabulated", "well"],
)
def test_nonzero_shift_rejected(regime, slot, pot):
    # no kind honours a shift: sample_potential refuses one, so a solve
    # cannot run a different potential than the spec names
    spec = replace(wells_spec(), **{slot: pot}, regime=regime)
    tag = "(V2)" if slot == "v2" and regime == "trapping" else "(V1)"
    assert [m for m in validate(spec) if "shift" in m] == [
        f"{tag}: {slot}.shift must be 0 (a constant "
        f"potential only adds shift * mass / 2 to the energy); got 5.0"
    ]


NON_FINITE = [
    ("alpha1", math.inf), ("alpha2", math.inf), ("mu1", math.inf), ("mu2", math.inf),
    ("beta", math.inf), ("v1.depth", math.inf), ("v1.width", math.inf),
    ("v1.center", (math.inf,)), ("v2.stiffness", math.inf), ("v2.center", (math.nan,)),
]


@pytest.mark.parametrize("field, value", NON_FINITE, ids=[f for f, _ in NON_FINITE])
def test_non_finite_parameters_rejected(field, value):
    spec = trapping_matrix()["trap-with-well"]
    if "." in field:
        slot, key = field.split(".")
        spec = replace(spec, **{slot: replace(getattr(spec, slot), **{key: value})})
    else:
        spec = replace(spec, **{field: value})
    msgs = validate(spec)
    assert len(msgs) == 1
    assert field in msgs[0] and msgs[0].endswith(f"; got {value}")


@pytest.mark.parametrize(
    "dim, slot, center", [(1, "v1", (0.0, 0.0)), (2, "v2", (1.0,))], ids=["1d", "2d"]
)
def test_center_length_must_match_dim(dim, slot, center):
    # sample_potential needs one coordinate per axis, or none for the origin
    spec = replace(wells_spec(), dim=dim, p1=0.5, p2=0.5, p3=0.5)
    assert validate(spec) == []
    spec = replace(spec, **{slot: replace(getattr(spec, slot), center=center)})
    assert validate(spec) == [
        f"(V1): {slot}.center must have 0 or dim = {dim} components; got {center}"
    ]


def test_unknown_regime_and_kind_rejected_at_construction():
    with pytest.raises(ValueError):
        replace(wells_spec(), regime="free")
    with pytest.raises(ValueError):
        PotentialSpec(kind="coulomb")


def test_spec_dict_round_trip():
    # a spec's dict form reads back through the config, which builds the records
    for spec in (wells_spec(), trapping_matrix()["trap-plain"]):
        assert config_from_dict(config_to_dict(ExperimentConfig(problem=spec))).problem == spec


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


def test_energy_refuses_a_shifted_potential(grid_small, rng):
    base = wells_spec()
    spec = replace(base, v2=replace(base.v2, shift=0.5))
    with pytest.raises(ValueError, match="shift must be 0; got 0.5"):
        energy(random_state(grid_small, rng), spec)


def test_state_masses_match_norms(grid_small, rng):
    st_ = random_state(grid_small, rng)
    m1, m2 = st_.masses()
    assert m1 == pytest.approx(norm_sq(st_.u1), abs=0.0)
    assert m2 == pytest.approx(norm_sq(st_.u2), abs=0.0)
