"""Constrained gradient descent: convergence anchors and conservation accounting."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binorm_gs import solver
from binorm_gs.analysis import soliton_energy_p1
from binorm_gs.energy import energy
from binorm_gs.grid import Field, State, make_grid, norm_sq
from binorm_gs.model import PotentialSpec, ProblemSpec, sample_potential
from binorm_gs.solver import (
    SolverConfig,
    default_grid,
    minimize,
    minimize_scalar,
    scan_subadditivity,
)

from _cases import (
    QUICK,
    REFERENCE,
    SCAN,
    anomalous_decay_spec,
    bounded_matrix,
    standard_decay_spec,
    symmetric_cubic,
    trapping_matrix,
    wells_spec,
)


@pytest.fixture(scope="module")
def wells_result():
    return minimize(wells_spec(), config=QUICK)


@pytest.fixture(scope="module")
def near_decoupled_result():
    return minimize(symmetric_cubic(1e-6), config=REFERENCE)


def test_default_grids():
    g1 = default_grid(1)
    assert (g1.dim, g1.n, g1.length) == (1, 4096, 64.0)
    g2 = default_grid(2)
    assert (g2.dim, g2.n, g2.length) == (2, 256, 32.0)


@pytest.mark.parametrize("dim", [0, 3])
def test_default_grid_rejects_unsupported_dims(dim):
    with pytest.raises(ValueError, match=f"dim = {dim}"):
        default_grid(dim)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dt", 0.0), ("dt", -1.0), ("dt", math.nan), ("dt", math.inf), ("dt", True),
        ("tol_residual", math.nan), ("tol_residual", -1.0), ("tol_residual", math.inf),
        ("tol_energy", 0.0), ("tol_energy", math.nan),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True),
        ("multi_start", 0), ("multi_start", 2.0), ("multi_start", False),
        ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", True),
    ],
)
def test_config_validation(field, value):
    # the error names the field and its value, which is all `binorm-gs run` prints
    message = rf"SolverConfig\.{field} .*got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})


def test_minimize_rejects_inadmissible_spec():
    bad = replace(wells_spec(), p1=5.0, beta=-1.0)
    with pytest.raises(ValueError) as exc:
        minimize(bad, config=QUICK)
    assert "(p1)" in str(exc.value) and "beta" in str(exc.value)


def test_minimize_rejects_init_on_other_grid():
    g = make_grid(1, 128, 64.0)
    z = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        minimize(wells_spec(), config=QUICK, init=State(z, z))


def test_near_decoupled_energy_doubles_the_scalar(near_decoupled_result):
    # beta -> 0 limit: two independent mass-1 cubic solitons
    target = 2.0 * soliton_energy_p1(1.0, 1.0)
    res = near_decoupled_result
    assert res.converged
    assert abs(res.report.total - target) / abs(target) < 5e-3


def test_masses_exact_and_energy_monotone(near_decoupled_result):
    res = near_decoupled_result
    assert res.diagnostics["max_mass_error"] < 1e-12
    assert res.diagnostics["max_energy_increase"] <= 1e-13
    # trajectory rows are subsampled: the roundoff slack between two logged
    # energies scales with the number of steps in between
    rows = res.trajectory_energies
    for (it_a, e_a, _), (it_b, e_b, _) in zip(rows, rows[1:]):
        assert e_b <= e_a + 1.1e-13 * (it_b - it_a)


def test_gradient_norms_stay_bounded(wells_result, near_decoupled_result):
    # coercivity witness: the flow never blows past its initial slope
    for res in (wells_result, near_decoupled_result):
        assert res.diagnostics["max_grad_ratio"] <= 10.0


def test_trajectory_is_capped(wells_result):
    assert len(wells_result.trajectory_energies) <= 2000
    iters = [row[0] for row in wells_result.trajectory_energies]
    assert iters == sorted(iters)


def test_long_trajectory_is_decimated_to_the_cap():
    # 2002 rows (iterations 0..2001) exceed TRAJECTORY_CAP: every second row
    # is kept, and the last row is appended
    spec = wells_spec()
    grid = make_grid(1, 32, 32.0)
    config = replace(QUICK, tol_residual=1e-300, tol_energy=1e-300, max_iters=2001)
    res = minimize(spec, config=config, grid=grid)
    assert not res.converged
    rows = res.trajectory_energies
    assert len(rows) == 1002
    assert [row[0] for row in rows] == [*range(0, 2001, 2), 2001]
    start = [
        Field(grid, u * math.sqrt(mass / norm_sq(Field(grid, u))))
        for u, mass in zip(solver._initializations(grid, config, None)[0], spec.masses)
    ]
    assert rows[0][0] == 0 and rows[0][2] == math.inf
    assert rows[0][1] == pytest.approx(energy(State(*start), spec).total, rel=1e-12)


@pytest.mark.parametrize(
    "spec, grid",
    [
        (wells_spec(), make_grid(1, 1024, 64.0)),
        (replace(wells_spec(), alpha2=0.0), make_grid(1, 1024, 64.0)),
        (replace(wells_spec(), alpha1=0.0), make_grid(1, 1024, 64.0)),
        (anomalous_decay_spec(), make_grid(1, 1024, 64.0)),
        (standard_decay_spec(), make_grid(1, 1024, 64.0)),
        (
            replace(wells_spec(), v2=PotentialSpec.harmonic_trap(stiffness=1.0),
                    regime="trapping"),
            make_grid(1, 512, 32.0),
        ),
        (
            ProblemSpec(dim=2, p1=0.6, p2=0.6, p3=0.6, mu1=4.0, mu2=4.0, beta=0.5,
                        alpha1=1.0, alpha2=1.0,
                        v1=PotentialSpec.gaussian_well(depth=0.5, width=2.0)),
            make_grid(2, 64, 32.0),
        ),
    ],
    ids=["wells", "wells-u1-only", "wells-u2-only", "anomalous", "standard", "trapped",
         "pipeline-2d"],
)
def test_flow_and_energy_share_one_kernel(spec, grid):
    # the flow's energy of a start is energy() of that start, bit for bit
    config = replace(QUICK, max_iters=1)
    res = minimize(spec, config=config, grid=grid)
    start = [
        Field(grid, u * math.sqrt(mass / norm_sq(Field(grid, u))))
        for u, mass in zip(solver._initializations(grid, config, None)[0], spec.masses)
    ]
    assert res.trajectory_energies[0][1] == energy(State(*start), spec).total


def test_a_later_start_can_win():
    # from a narrow spike far off the wells, start 0 stalls above the
    # randomized starts, and start 1 ends lowest
    grid = make_grid(1, 64, 32.0)
    spike = Field(grid, np.exp(-((grid.axes[0] - 12.0) ** 2) / 0.5))
    config = replace(SCAN, multi_start=3, max_iters=5)
    res = minimize(wells_spec(), config=config, grid=grid, init=State(spike, spike))
    per_start = res.diagnostics["per_start"]
    assert [p["energy"] for p in per_start] == pytest.approx(
        [-0.04695, -0.33343, -0.33335], abs=1e-5
    )
    assert res.diagnostics["best_start"] == 1
    assert res.iterations == per_start[1]["iterations"]
    assert res.converged == per_start[1]["converged"]
    assert res.diagnostics["step_cuts"] == per_start[1]["step_cuts"]
    assert res.report.total == pytest.approx(per_start[1]["energy"], rel=1e-12)
    # start 1 run on its own: a member's run does not depend on its batch
    start1 = solver._initializations(grid, config, None)[1]
    alone = minimize(
        wells_spec(), config=replace(config, multi_start=1), grid=grid,
        init=State(Field(grid, start1[0]), Field(grid, start1[1])),
    )
    assert res.diagnostics["final_dt"] == alone.diagnostics["final_dt"]
    assert res.state.u1.values.tobytes() == alone.state.u1.values.tobytes()


def test_wells_ground_state_is_negative_and_converged(wells_result):
    assert wells_result.converged
    assert wells_result.report.total < -1e-6
    # ground states are positive up to phase: the solver returns the
    # nonnegative representative (roundoff-scale tail dips aside)
    assert wells_result.state.u1.values.min() > -1e-12
    assert wells_result.state.u2.values.min() > -1e-12


def test_symmetric_problem_keeps_components_equal():
    spec = symmetric_cubic(0.5)
    grid = default_grid(1)
    bump = np.exp(-grid.radius() ** 2 / 8.0)
    vals = bump * math.sqrt(1.0 / (float(np.sum(bump**2)) * grid.cell_volume))
    f = Field(grid, vals)
    res = minimize(spec, config=QUICK, init=State(f, f))
    diff = np.max(np.abs(res.state.u1.values - res.state.u2.values))
    assert diff < 1e-10


def test_scalar_mass_scaling_law():
    # for p = 1, V = 0: e(2 gamma) = 8 e(gamma)
    cfg = REFERENCE
    e1 = minimize_scalar(1.0, 1.0, 1.0, config=cfg).report.total
    e2 = minimize_scalar(1.0, 1.0, 2.0, config=cfg).report.total
    assert abs(e2 - 8.0 * e1) / abs(8.0 * e1) < 1e-2


def test_well_strictly_lowers_scalar_energy():
    free = minimize_scalar(1.0, 1.0, 1.0, config=QUICK).report.total
    well = PotentialSpec.gaussian_well(depth=0.5, width=2.0)
    pinned = minimize_scalar(1.0, 1.0, 1.0, potential=well, config=QUICK).report.total
    assert pinned < free - 1e-4


def test_both_masses_zero_short_circuits():
    spec = wells_spec().with_masses(0.0, 0.0)
    res = minimize(spec, config=QUICK)
    assert res.converged
    assert res.report.total == 0.0
    assert math.isnan(res.multipliers.lambda1)
    assert res.diagnostics["starts"] == 0


def test_single_mass_zero_reduces_to_scalar():
    spec = symmetric_cubic(0.5).with_masses(1.0, 0.0)
    res = minimize(spec, config=REFERENCE)
    assert res.converged
    assert norm_sq(res.state.u2) == 0.0
    target = soliton_energy_p1(1.0, 1.0)
    assert abs(res.report.total - target) / abs(target) < 5e-3
    assert res.multipliers.lambda1 > 0.0
    assert math.isnan(res.multipliers.lambda2)


def test_same_seed_reproduces_bitwise():
    cfg = replace(QUICK, multi_start=2)
    a = minimize(wells_spec(), config=cfg)
    b = minimize(wells_spec(), config=cfg)
    assert a.report.total == b.report.total
    assert np.array_equal(a.state.u1.values, b.state.u1.values)
    assert a.iterations == b.iterations


def test_multi_start_picks_the_best():
    res = minimize(wells_spec(), config=replace(QUICK, multi_start=3))
    assert res.diagnostics["starts"] == 3
    assert 0 <= res.diagnostics["best_start"] < 3


def test_split_never_beats_joint_minimum(wells_result):
    # e(alpha) <= e(gamma) + e_inf(alpha - gamma) for any interior split
    spec = wells_spec()
    inner_spec = spec.with_masses(0.5, 0.5)
    outer_spec = spec.without_potentials().with_masses(0.5, 0.5)
    e_in = minimize(inner_spec, config=QUICK).report.total
    e_out = minimize(outer_spec, config=QUICK).report.total
    assert wells_result.report.total <= e_in + e_out + 1e-6


def test_scan_subadd_origin_point(wells_result):
    report = scan_subadditivity(
        wells_spec(), [(0.0, 0.0)], config=QUICK
    )
    (point,) = report.points
    assert point.e_inner == 0.0
    assert point.trusted
    assert point.gap < 0.0
    assert report.e_total == pytest.approx(wells_result.report.total, rel=1e-6)


def test_scan_subadd_rejects_bad_theta():
    with pytest.raises(ValueError):
        scan_subadditivity(wells_spec(), [(0.0, 1.5)], config=QUICK)


@pytest.mark.parametrize(
    "bad", [(0.5, 1.5), (-0.25, 0.0), (math.nan, 0.5), (0.5, math.inf)]
)
def test_scan_subadd_checks_every_theta_before_any_flow(monkeypatch, bad):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before every theta was checked")

    monkeypatch.setattr(solver, "_flow", no_flow)
    thetas = [(0.0, 0.5), (0.5, 0.5), bad]
    with pytest.raises(ValueError, match=rf"theta \({re.escape(repr(bad[0]))}, "):
        scan_subadditivity(wells_spec(), thetas, config=QUICK, grid=make_grid(1, 128, 32.0))


def test_scan_subadd_trapping_regime_rejects_theta2_below_one(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before every theta was checked")

    monkeypatch.setattr(solver, "_flow", no_flow)
    with pytest.raises(ValueError, match=r"theta \(0\.5, 0\.5\): in the trapping regime"):
        scan_subadditivity(
            trapping_matrix()["trap-plain"], [(0.5, 1.0), (0.5, 0.5)], config=QUICK,
            grid=make_grid(1, 128, 32.0),
        )


def test_trapped_regime_converges_with_positive_multipliers():
    spec = ProblemSpec(
        dim=1, p1=1.0, p2=1.0, p3=1.0, mu1=1.0, mu2=2.0, beta=0.5,
        alpha1=1.0, alpha2=3.0,
        v2=PotentialSpec.harmonic_trap(stiffness=0.05), regime="trapping",
    )
    res = minimize(spec, config=QUICK)
    assert res.converged
    assert res.multipliers.lambda1 > 0.0
    assert res.multipliers.lambda2 > 0.0


def test_trapped_multiplier_is_negative_when_the_trap_dominates():
    # a small trapped mass feels the trap V2 >= 1 more than the coupling:
    # lambda2 reads -1.861 (lambda1 0.442), so only lambda1 must be positive
    spec = replace(
        wells_spec(), alpha2=0.01, v2=PotentialSpec.harmonic_trap(stiffness=1.0),
        regime="trapping",
    )
    cfg = SolverConfig(multi_start=2, tol_residual=1e-10)
    res = minimize(spec, config=cfg, grid=make_grid(1, 512, 32.0))
    assert res.converged
    assert res.multipliers.lambda2 < 0.0 < res.multipliers.lambda1


@pytest.mark.parametrize(
    "name, spec",
    [*bounded_matrix().items(), *trapping_matrix().items()],
)
def test_matrix_problems_converge_within_500_iterations(name, spec):
    res = minimize(spec, config=QUICK)
    assert res.converged, name
    assert res.iterations <= 500, (name, res.iterations)


def test_nan_in_start_raises_at_its_node():
    grid = make_grid(1, 512, 32.0)
    bump = np.exp(-grid.radius() ** 2 / 8.0)
    bad = bump.copy()
    bad[100] = np.nan
    init = State(Field(grid, bad), Field(grid, bump))
    cfg = SolverConfig(multi_start=1, max_iters=5)
    with pytest.raises(ValueError, match=r"u1 at node \(100,\), iteration 0"):
        minimize(wells_spec(), config=cfg, grid=grid, init=init)


def test_nan_in_a_batched_start_names_the_start():
    grid = make_grid(1, 512, 32.0)
    bump = np.exp(-grid.radius() ** 2 / 8.0)
    bad = bump.copy()
    bad[100] = np.nan
    init = State(Field(grid, bad), Field(grid, bump))
    cfg = SolverConfig(multi_start=2, max_iters=5)
    with pytest.raises(
        ValueError, match=r"start 0: non-finite value in u1 at node \(100,\), iteration 0"
    ):
        minimize(wells_spec(), config=cfg, grid=grid, init=init)


@pytest.mark.parametrize(
    "component, make, message",
    [
        (0, lambda b: (1.0 + 0.5j) * b, r"^field values must be real, got dtype complex128$"),
        (0, lambda b: 1j * b, r"^field values must be real, got dtype complex128$"),
        (1, np.zeros_like, r"start 0: u2 has zero mass and cannot be rescaled to mass 1\.0$"),
    ],
    ids=["complex", "imaginary", "zero"],
)
def test_bad_init_component_fails_fast(component, make, message):
    # fields are real, so a complex start is refused when its Field is made
    # rather than cut to its real part
    grid = make_grid(1, 512, 32.0)
    bump = np.exp(-grid.radius() ** 2 / 8.0)
    pair = [bump, bump]
    pair[component] = make(bump)
    with pytest.raises(ValueError, match=message):
        init = State(Field(grid, pair[0]), Field(grid, pair[1]))
        minimize(wells_spec(), config=QUICK, grid=grid, init=init)


def test_overflowing_candidate_raises_at_first_iteration():
    spec = replace(symmetric_cubic(0.5), alpha1=1e200, alpha2=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"non-finite value in u1 .* iteration 1$"):
            minimize(spec, config=SolverConfig(multi_start=1, max_iters=5))


def test_reference_soliton_converges_in_60_iterations():
    # lambda = 1/16 sits far below the preconditioner shift of 1; plain
    # preconditioned descent needed 298 iterations here
    res = minimize_scalar(1.0, 1.0, 1.0, config=REFERENCE, grid=default_grid(1))
    assert res.converged
    assert res.iterations <= 60, res.iterations
    assert type(res.diagnostics["final_dt"]) is float


def test_potential_free_half_mass_scalar_converges_in_150_iterations():
    # the scan's scalar outer solve: lambda = 1/64
    res = minimize_scalar(1.0, 1.0, 0.5, config=SCAN, grid=make_grid(1, 1024, 64.0))
    starts = res.diagnostics["per_start"]
    assert len(starts) == SCAN.multi_start
    for start in starts:
        assert start["converged"]
        assert start["iterations"] <= 150, starts


@pytest.mark.parametrize("name, spec", trapping_matrix().items())
def test_every_trapped_start_converges_within_300_iterations(name, spec):
    # start 1 is moved off center, across the trap's weak slope
    res = minimize(spec, config=SCAN)
    starts = res.diagnostics["per_start"]
    assert len(starts) == SCAN.multi_start
    for start in starts:
        assert start["converged"], (name, starts)
        assert start["iterations"] <= 300, (name, starts)
    best = starts[res.diagnostics["best_start"]]
    assert best["iterations"] == res.iterations
    assert best["energy"] == min(start["energy"] for start in starts)


@st.composite
def admissible_1d_specs(draw):
    def well():
        if not draw(st.booleans()):
            return PotentialSpec.zero()
        return PotentialSpec.gaussian_well(
            depth=draw(st.floats(0.1, 0.5)), width=draw(st.floats(1.0, 3.0))
        )

    spec = ProblemSpec(
        dim=1,
        p1=draw(st.floats(0.5, 1.5)),
        p2=draw(st.floats(0.5, 1.5)),
        p3=draw(st.floats(0.5, 1.5)),
        mu1=draw(st.floats(1.0, 3.0)),
        mu2=draw(st.floats(1.0, 3.0)),
        beta=draw(st.floats(0.1, 2.0)),
        alpha1=draw(st.floats(0.5, 1.5)),
        alpha2=draw(st.floats(0.5, 1.5)),
        v1=well(),
        v2=well(),
    )
    if draw(st.booleans()):
        trap = PotentialSpec.harmonic_trap(stiffness=draw(st.floats(0.02, 0.1)))
        spec = replace(spec, v2=trap, regime="trapping")
    return spec


@settings(max_examples=15, deadline=None)
@given(spec=admissible_1d_specs())
def test_flow_invariants_on_admissible_specs(spec):
    cfg = SolverConfig(dt=0.25, tol_residual=1e-7, max_iters=2000, multi_start=1)
    res = minimize(spec, config=cfg, grid=make_grid(1, 256, 32.0))
    assert res.diagnostics["max_mass_error"] <= 1e-12
    assert res.diagnostics["max_energy_increase"] <= 1e-13
    rows = res.trajectory_energies
    for (it_a, e_a, _), (it_b, e_b, _) in zip(rows, rows[1:]):
        assert e_b <= e_a + 1.1e-13 * max(1.0, abs(e_a)) * (it_b - it_a)
    assert np.all(np.isfinite(res.state.u1.values))
    assert np.all(np.isfinite(res.state.u2.values))
    if spec.v1.kind == "zero" and spec.v2.kind == "zero":
        assert res.multipliers.lambda1 > 0.0
        assert res.multipliers.lambda2 > 0.0


def test_step_survives_the_energy_rounding_floor():
    # near convergence the decrease along the search direction falls below
    # the energy's rounding; a quadratic fitted to that noise shrinks the
    # step until the update is lost to rounding and the residual reads 0
    res = minimize(symmetric_cubic(2.0), config=REFERENCE)
    assert res.converged
    assert res.final_residual > 0.0
    assert res.diagnostics["final_dt"] >= 0.1


def _batch_and_singles(spec, masses, config, grid):
    """Runs of one _flow batch per component set over every start at each
    mass pair with those components, and of batches of one on the same
    members, both in member order."""
    config = replace(config, max_iters=2000)  # a broken batch fails fast
    pots = (sample_potential(spec.v1, grid).values, sample_potential(spec.v2, grid).values)
    starts = solver._initializations(grid, config, None)
    members = [
        solver._Member(m, start, f"start {k}") for m in masses for k, start in enumerate(starts)
    ]
    sets = {}
    for member in members:
        sets.setdefault(tuple(a > 0.0 for a in member.masses), []).append(member)
    assert all(len(batch) >= 2 for batch in sets.values())
    runs = {}
    for batch in sets.values():
        runs.update(zip(map(id, batch), solver._flow(grid, spec, pots, batch, config)))
    singles = [solver._flow(grid, spec, pots, [member], config)[0] for member in members]
    return [runs[id(member)] for member in members], singles


def _assert_bit_identical(batch, singles):
    for run, run1 in zip(batch, singles, strict=True):
        assert run.pair[0].tobytes() == run1.pair[0].tobytes()
        assert run.pair[1].tobytes() == run1.pair[1].tobytes()
        # energy, iterations, step cuts, step, trajectory and the rest; member
        # is the position in the batch
        for name in solver._Run.__slots__:
            if name not in ("member", "pair"):
                assert getattr(run, name) == getattr(run1, name), name


def test_batch_members_match_batches_of_one_wells():
    # mixed masses, including a member with a zero-mass component of each
    # kind; dt = 50 overshoots, so steps are cut
    cfg = replace(SCAN, dt=50.0)
    masses = [(1.0, 1.0), (0.5, 0.25), (0.7, 0.0), (0.0, 0.3)]
    batch, singles = _batch_and_singles(wells_spec(), masses, cfg, make_grid(1, 256, 64.0))
    _assert_bit_identical(batch, singles)
    assert any(run.cuts > 0 for run in batch)
    assert len({run.iterations for run in batch}) > 1


def test_batch_members_match_batches_of_one_trapped():
    # the trap makes S != 1: the sandwiched preconditioner path
    spec = trapping_matrix()["trap-plain"]
    masses = [(1.0, 3.0), (0.5, 1.5), (0.0, 2.0)]
    batch, singles = _batch_and_singles(spec, masses, SCAN, make_grid(1, 256, 64.0))
    _assert_bit_identical(batch, singles)


def test_batch_members_match_batches_of_one_2d():
    spec = ProblemSpec(
        dim=2, p1=0.6, p2=0.5, p3=0.4, mu1=4.0, mu2=3.0, beta=0.5,
        alpha1=1.0, alpha2=0.8,
        v1=PotentialSpec.gaussian_well(depth=0.5, width=2.0),
    )
    masses = [(1.0, 0.8), (0.6, 0.0), (0.4, 0.5)]
    batch, singles = _batch_and_singles(spec, masses, SCAN, make_grid(2, 32, 16.0))
    _assert_bit_identical(batch, singles)


def test_scan_matches_separate_minimize_calls():
    spec = wells_spec()
    grid = make_grid(1, 256, 64.0)
    thetas = [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    config = replace(SCAN, max_iters=2000)  # a broken batch fails fast
    report = scan_subadditivity(spec, thetas, config=config, grid=grid)
    full = minimize(spec, config=config, grid=grid)
    assert report.e_total == full.report.total
    assert [(pt.theta1, pt.theta2) for pt in report.points] == [
        th for th in thetas if th != (1.0, 1.0)
    ]
    for point in report.points:
        t1, t2 = point.theta1, point.theta2
        inner_res = minimize(spec.with_masses(t1, t2), config=config, grid=grid)
        outer_res = minimize(
            spec.without_potentials().with_masses(1.0 - t1, 1.0 - t2), config=config, grid=grid
        )
        assert point.e_inner == inner_res.report.total
        assert point.e_outer == outer_res.report.total
        assert point.gap == full.report.total - inner_res.report.total - outer_res.report.total
        assert point.trusted == (full.converged and inner_res.converged and outer_res.converged)


def test_scan_gap_follows_the_multiplier_identity():
    # de/d alpha_i = -lambda_i / 2, so near theta = 1 the gap is
    # -1/2 sum_i lambda_i (1 - theta_i) alpha_i; the three outer problems
    # carry both components, u1 only and u2 only
    spec = wells_spec()
    grid = make_grid(1, 512, 128.0)
    config = replace(SCAN, tol_residual=1e-10)
    eps = 1e-3
    thetas = [(1.0 - eps, 1.0 - eps), (1.0 - eps, 1.0), (1.0, 1.0 - eps)]
    report = scan_subadditivity(spec, thetas, config=config, grid=grid)
    lam = minimize(spec, config=config, grid=grid).multipliers
    for point in report.points:
        predicted = -0.5 * (
            lam.lambda1 * (1.0 - point.theta1) * spec.alpha1
            + lam.lambda2 * (1.0 - point.theta2) * spec.alpha2
        )
        assert point.trusted
        assert abs(point.gap / predicted - 1.0) <= 5e-4
