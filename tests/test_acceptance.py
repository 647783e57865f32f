"""Acceptance gate: one labelled pass/fail line per headline numerical claim.

Each test prints "[acceptance] criterion N: PASS/FAIL -- detail" on the real
stdout (capture is suspended for the line) and then asserts, so a plain
``pytest`` run doubles as the sign-off checklist.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from binorm_gs.analysis import (
    classify_decay_regime,
    convolution_limit_check,
    decay_fit,
    glue_energy_gap,
    overlap_series,
    pohozaev_check,
)
from binorm_gs.energy import energy, gradient
from binorm_gs.grid import Field, State, inner, make_grid
from binorm_gs.inequalities import (
    check_lemma34ii,
    min_constant_34i,
    sufficient_constant_34ii,
)
from binorm_gs.model import ProblemSpec
from binorm_gs.solver import minimize, minimize_scalar, scan_subadditivity

from _cases import (
    REFERENCE,
    SCAN,
    anomalous_decay_spec,
    bounded_matrix,
    gluing_spec,
    random_state,
    standard_decay_spec,
    symmetric_cubic,
    trapping_matrix,
    wells_spec,
)

# sech-soliton ground truth for mu = p = gamma = 1
E_SOLITON = -1.0 / 96.0
LAM_SOLITON = 1.0 / 16.0

SHIFT_CELLS = [512, 640, 768, 896, 1024, 1152, 1280]


@pytest.fixture
def report(capsys):
    def _report(num: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num}: {status} -- {detail}", flush=True)
        assert passed, f"criterion {num}: {detail}"

    return _report


# ---------------------------------------------------------------------------
# shared expensive solves


@pytest.fixture(scope="module")
def crit1(grid_1d):
    return minimize_scalar(1.0, 1.0, 1.0, config=REFERENCE, grid=grid_1d)


@pytest.fixture(scope="module")
def bounded_results():
    return {name: minimize(spec, config=SCAN) for name, spec in bounded_matrix().items()}


@pytest.fixture(scope="module")
def trapping_results():
    return {name: minimize(spec, config=SCAN) for name, spec in trapping_matrix().items()}


@pytest.fixture(scope="module")
def decay_results():
    out = {}
    for label, spec in (
        ("standard", standard_decay_spec()),
        ("anomalous", anomalous_decay_spec()),
    ):
        out[label] = (spec, minimize(spec, config=REFERENCE))
    return out


@pytest.fixture(scope="module")
def glue_pack():
    spec = gluing_spec()
    u0 = minimize(spec.with_masses(0.15, 0.15), config=REFERENCE)
    w0 = minimize(spec.without_potentials().with_masses(0.85, 0.85), config=REFERENCE)
    return spec, u0, w0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_scalar_soliton_benchmark(crit1, report):
    e_err = abs(crit1.report.total - E_SOLITON) / abs(E_SOLITON)
    lam_err = abs(crit1.multipliers.lambda1 - LAM_SOLITON) / LAM_SOLITON
    report(
        1,
        crit1.converged and e_err <= 5e-3 and lam_err <= 1e-2,
        f"energy rel err {e_err:.2e} (<= 5e-3), "
        f"multiplier rel err {lam_err:.2e} (<= 1e-2)",
    )


def test_criterion_02_coupling_lowers_energy(report):
    betas = [1e-6, 0.5, 1.0, 2.0]
    totals = [
        minimize(symmetric_cubic(beta), config=REFERENCE).report.total
        for beta in betas
    ]
    rel0 = abs(totals[0] - 2.0 * E_SOLITON) / abs(2.0 * E_SOLITON)
    decreasing = all(b < a for a, b in zip(totals, totals[1:]))
    report(
        2,
        rel0 <= 1e-2 and decreasing,
        f"beta->0 rel err {rel0:.2e} (<= 1e-2), "
        f"ladder {[f'{t:.6f}' for t in totals]} strictly decreasing={decreasing}",
    )


def test_criterion_03_bounded_ground_energies_negative(bounded_results, report):
    converged = {k: r for k, r in bounded_results.items() if r.converged}
    worst = max(r.report.total for r in converged.values())
    report(
        3,
        len(converged) == len(bounded_results) and worst < -1e-6,
        f"{len(converged)}/{len(bounded_results)} converged, "
        f"max total {worst:.3e} (< -1e-6)",
    )


def test_criterion_04_multipliers_positive(bounded_results, trapping_results, report):
    results = {**bounded_results, **trapping_results}
    all_converged = all(r.converged for r in results.values())
    lams = [
        lam
        for r in results.values()
        for lam in (r.multipliers.lambda1, r.multipliers.lambda2)
    ]
    report(
        4,
        all_converged and min(lams) > 0.0,
        f"{len(results)} specs, min multiplier {min(lams):.3e} (> 0), "
        f"all converged={all_converged}",
    )


def test_criterion_05_strict_subadditivity_scan(report):
    thetas = [(i / 4.0, j / 4.0) for i in range(5) for j in range(5)]
    rep = scan_subadditivity(wells_spec(), thetas, config=SCAN)
    trusted = [pt for pt in rep.points if pt.trusted]
    worst = max(pt.gap for pt in rep.points)
    report(
        5,
        len(rep.points) == 24 and len(trusted) == 24 and worst < -1e-6,
        f"{len(trusted)}/{len(rep.points)} trusted splits, "
        f"worst gap {worst:.3e} (< -1e-6)",
    )


def test_criterion_14_trapped_subadditivity_scan(report):
    # The paper's case (ii): u2 is trapped and cannot lose mass to infinity,
    # so only splits with theta2 = 1 test the strict inequality.
    thetas = [(i / 4.0, 1.0) for i in range(4)]
    grid = make_grid(1, 1024, 64.0)
    points = [
        pt
        for spec in trapping_matrix().values()
        for pt in scan_subadditivity(spec, thetas, config=SCAN, grid=grid).points
    ]
    trusted = [pt for pt in points if pt.trusted]
    worst = max(pt.gap for pt in points)
    report(
        14,
        len(points) == 16 and len(trusted) == 16 and worst < -1e-6,
        f"{len(trusted)}/{len(points)} trusted theta2 = 1 splits of "
        f"{len(trapping_matrix())} trapped specs, worst gap {worst:.3e} (< -1e-6)",
    )


def _role_fit(spec, res, role):
    lam = (res.multipliers.lambda1, res.multipliers.lambda2)
    order = (0, 1) if lam[0] <= lam[1] else (1, 0)
    idx = order[role - 1]
    comp = (res.state.u1, res.state.u2)[idx]
    fit = decay_fit(comp, (8.0, 20.0))
    regime = classify_decay_regime(spec.p3, lam[order[0]], lam[order[1]], role)
    rel = abs(fit.rate - regime.expected_rate) / regime.expected_rate
    return fit, regime, rel


def test_criterion_06_decay_rates_match_multipliers(decay_results, report):
    spec_s, res_s = decay_results["standard"]
    _, reg1, rel1 = _role_fit(spec_s, res_s, 1)
    _, reg2, rel2 = _role_fit(spec_s, res_s, 2)
    spec_a, res_a = decay_results["anomalous"]
    _, reg_a, rel_a = _role_fit(spec_a, res_a, 2)
    tags_ok = (
        reg1.tag == "component1"
        and reg2.tag == "component2_standard"
        and reg_a.tag == "component2_anomalous"
    )
    report(
        6,
        rel1 <= 0.05 and rel2 <= 0.05 and rel_a <= 0.07 and tags_ok,
        f"standard rel errs {rel1:.2%}/{rel2:.2%} (<= 5%), "
        f"anomalous role-2 rel err {rel_a:.2%} (<= 7%, tag {reg_a.tag})",
    )


def test_criterion_07_overlap_decay_rate(glue_pack, report):
    _, u0, w0 = glue_pack
    series = overlap_series(u0.state.u1, w0.state.u1, SHIFT_CELLS)
    expected = math.sqrt(u0.multipliers.lambda1)
    rel = abs(series.rate - expected) / expected
    report(
        7,
        rel <= 0.05,
        f"overlap rate {series.rate:.4f} vs sqrt(lambda1) {expected:.4f}, "
        f"rel err {rel:.2%} (<= 5%)",
    )


def test_criterion_08_glued_states_beat_split_energy(glue_pack, report):
    spec, u0, w0 = glue_pack
    ledgers = glue_energy_gap(spec, u0, w0, SHIFT_CELLS)
    gaps = [lg.gap for lg in ledgers]
    negative = all(g < 0.0 for g in gaps)
    shrinking = all(abs(b) < abs(a) for a, b in zip(gaps, gaps[1:]))
    report(
        8,
        negative and shrinking,
        f"gaps {gaps[0]:.2e} .. {gaps[-1]:.2e} over separations "
        f"{SHIFT_CELLS[0]}-{SHIFT_CELLS[-1]} cells, all negative={negative}, "
        f"|gap| strictly decreasing={shrinking}",
    )


def test_criterion_09_virial_identity(crit1, grid_1d, report):
    cases = {
        "1d cubic": (crit1, 1.0, 1.0),
        "1d p=0.6": (
            minimize_scalar(1.0, 0.6, 1.0, config=REFERENCE, grid=grid_1d),
            1.0,
            0.6,
        ),
        "2d p=0.6": (
            minimize_scalar(
                4.0, 0.6, 1.0, dim=2, config=REFERENCE, grid=make_grid(2, 128, 32.0)
            ),
            4.0,
            0.6,
        ),
    }
    residuals = {}
    for label, (res, mu, p) in cases.items():
        check = pohozaev_check(res.state.u1, res.multipliers.lambda1, mu, p)
        residuals[label] = abs(check.residual)
    report(
        9,
        max(residuals.values()) < 1e-3,
        ", ".join(f"{k}: {v:.2e}" for k, v in residuals.items()) + " (all < 1e-3)",
    )


def test_criterion_10_interaction_inequalities(report):
    c_min = min_constant_34i(1.0)
    ok = abs(c_min + 6.0) <= 1e-9
    details = [f"cubic min constant {c_min:.12f} (-6 +/- 1e-9)"]
    for p, eta in ((0.8, 0.4), (0.5, 0.25), (1.5, 0.75)):
        c = sufficient_constant_34ii(p, eta)
        rep = check_lemma34ii(p, eta, c, samples=1000)
        ok = ok and rep.holds and rep.points == 1001 * 1001
        details.append(
            f"p={p}, eta={eta}: c={c:.4g} holds on {rep.points} pts={rep.holds}"
        )
    report(10, ok, "; ".join(details))


def test_criterion_11_translated_convolution_limit(grid_1d, report):
    rows = convolution_limit_check(
        f_rate=2.0, g_rate=1.0, poly_power=0.0, grid=grid_1d, r_values=[20.0]
    )
    limit = 4.0 / 3.0
    rels = {
        tuple(float(w) for w in row.omega): abs(row.scaled - limit) / limit
        for row in rows
    }
    report(
        11,
        set(rels) == {(1.0,), (-1.0,)} and max(rels.values()) <= 1e-2,
        ", ".join(f"omega {k}: rel err {v:.2e}" for k, v in rels.items())
        + " vs 4/3 (<= 1e-2)",
    )


def test_criterion_12_solver_trust_checks(crit1, grid_small, report):
    rng = np.random.default_rng(7)
    spec = wells_spec()
    state = random_state(grid_small, rng)
    grad = gradient(state, spec)
    eps = 1e-5
    worst_fd = 0.0
    for _ in range(20):
        direction = random_state(grid_small, rng)
        predicted = float(
            inner(grad.u1, direction.u1) + inner(grad.u2, direction.u2)
        )
        plus = State(
            Field(grid_small, state.u1.values + eps * direction.u1.values),
            Field(grid_small, state.u2.values + eps * direction.u2.values),
        )
        minus = State(
            Field(grid_small, state.u1.values - eps * direction.u1.values),
            Field(grid_small, state.u2.values - eps * direction.u2.values),
        )
        fd = (energy(plus, spec).total - energy(minus, spec).total) / (2 * eps)
        worst_fd = max(worst_fd, abs(fd - predicted) / abs(predicted))
    diag = crit1.diagnostics
    refined = minimize_scalar(
        1.0, 1.0, 1.0, config=REFERENCE, grid=make_grid(1, 8192, 64.0)
    )
    drift = abs(refined.report.total - crit1.report.total) / abs(crit1.report.total)
    report(
        12,
        worst_fd < 1e-5
        and diag["max_mass_error"] <= 1e-12
        and diag["max_energy_increase"] <= 1e-13
        and drift < 1e-6,
        f"FD gradient rel err {worst_fd:.2e} (< 1e-5), "
        f"mass error {diag['max_mass_error']:.1e} (<= 1e-12), "
        f"energy increase {diag['max_energy_increase']:.1e} (<= 1e-13), "
        f"grid-refinement drift {drift:.2e} (< 1e-6)",
    )


def test_criterion_13_euler_lagrange_residual(crit1, grid_1d, report):
    # the problem minimize_scalar(mu=1, p=1, gamma=1) solves
    spec = ProblemSpec(
        dim=1, p1=1.0, p2=1.0, p3=1.0, mu1=1.0, mu2=1.0, beta=1.0,
        alpha1=1.0, alpha2=0.0,
    )
    g1 = gradient(crit1.state, spec).u1.values
    u1 = crit1.state.u1.values
    lam = crit1.multipliers.lambda1
    el = float(np.max(np.abs(g1 + lam * u1)) / np.max(np.abs(g1)))
    totals = {REFERENCE.dt: crit1.report.total}
    for dt in (0.02, 0.25):
        res = minimize_scalar(
            1.0, 1.0, 1.0, config=replace(REFERENCE, dt=dt), grid=grid_1d
        )
        totals[dt] = res.report.total
    spread = (max(totals.values()) - min(totals.values())) / abs(crit1.report.total)
    report(
        13,
        el <= 1e-6 and spread <= 1e-10,
        f"EL residual |G+lambda u|/|G| {el:.2e} (<= 1e-6), energy spread over "
        f"dt {sorted(totals)} {spread:.1e} (<= 1e-10)",
    )
