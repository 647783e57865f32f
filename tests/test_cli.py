"""Experiment runner: config formats, artifact contracts, exit codes.

Runs fork a worker for their task computations on two or more cores, so
every test fails on any warning, a warning about forking with threads
included.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import binorm_gs
from binorm_gs import cli
from binorm_gs.cli import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    format_flat,
    load_config,
    main,
    parse_flat,
    run,
    save_config,
)
from binorm_gs.grid import read_field_csv
from binorm_gs.inequalities import InequalityReport, check_lemma34i, check_lemma34ii

SOLVE_KEYS = {
    "total", "kinetic1", "kinetic2", "potential1", "potential2",
    "self1", "self2", "cross", "lambda1", "lambda2",
    "converged", "iterations", "final_residual", "final_dt", "step_cuts",
    "starts",
}

FAST_LINES = """
# quick desk-scale setup
problem.dim = 1
problem.beta = 0.5
potential1.kind = gaussian_well
potential1.depth = 0.5
potential1.width = 2.0
solver.dt = 0.25
solver.tol_residual = 1e-6
solver.tol_energy = 1e-10
solver.multi_start = 1
grid.n = 256
grid.length = 32.0
"""


def write_config(tmp_path, tasks: str, extra: str = "", name: str = "cfg.txt"):
    path = tmp_path / name
    path.write_text(FAST_LINES + f"run.tasks = {tasks}\n" + extra)
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_flat_types_and_comments():
    nested = parse_flat(
        "# comment\n"
        "\n"
        "problem.p1 = 0.8\n"
        "grid.n = 512\n"
        "run.tasks = solve, conv_limit\n"
        "solver.multi_start = 5\n"
        "task.decay_fit.r1 = 4.5\n"
        "run.output_dir = results\n"
    )
    assert nested["problem"]["p1"] == 0.8
    assert nested["grid"]["n"] == 512
    assert nested["run"]["tasks"] == ["solve", "conv_limit"]
    assert nested["solver"]["multi_start"] == 5
    assert nested["task"]["decay_fit"]["r1"] == 4.5
    assert nested["run"]["output_dir"] == "results"


def test_parse_flat_rejects_malformed_lines():
    with pytest.raises(ValueError, match="expected"):
        parse_flat("problem.p1: 0.8\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_flat("problem. = 3\n")
    with pytest.raises(ValueError, match="nests under a scalar"):
        parse_flat("a.b = 1\na.b.c = 2\n")


def test_flat_format_round_trip():
    cfg = config_from_dict(parse_flat(FAST_LINES + "run.tasks = solve\n"))
    text = format_flat(config_to_dict(cfg))
    again = config_from_dict(parse_flat(text))
    assert again == cfg


def test_save_load_round_trip(tmp_path):
    cfg = config_from_dict(parse_flat(FAST_LINES + "run.tasks = solve\n"))
    flat = tmp_path / "cfg.txt"
    as_json = tmp_path / "cfg.json"
    save_config(cfg, flat)
    save_config(cfg, as_json)
    assert load_config(flat) == cfg
    assert load_config(as_json) == cfg
    assert as_json.read_text().lstrip().startswith("{")


def test_default_config_is_near_decoupled():
    cfg = config_from_dict({"run": {"tasks": ["solve"]}})
    assert cfg.problem.beta == 1e-6
    assert cfg.problem.p1 == 1.0
    assert cfg.tasks == ["solve"]
    assert cfg.required_tasks() == {"solve"}


def test_config_rejects_empty_or_unknown_tasks():
    with pytest.raises(ValueError, match="at least one task"):
        config_from_dict({"run": {"tasks": []}})
    with pytest.raises(ValueError, match="unknown task 'sovle'"):
        config_from_dict({"run": {"tasks": ["sovle"]}})


GRIDLESS_LINES = "".join(
    line + "\n" for line in FAST_LINES.splitlines() if not line.startswith("grid.")
)


@pytest.mark.parametrize(
    "extra, named",
    [
        ("grid.nn = 64\ngrid.n = 256\ngrid.length = 32.0\n", "grid.nn"),
        ("run.taks = scan_subadd\n", "run.taks"),
        ("slover.dt = 0.5\n", "'slover'"),
        ("task.scan_subad.steps = 2\n", "task.scan_subad"),
        ("grid.length = 20.0\n", "grid.n "),
        ("grid.n = 64\n", "grid.length"),
        ("grid.n = 64\ngrid.length = -1.0\n", "grid.length = -1.0"),
        ("grid.n = 100\ngrid.length = 32.0\n", "grid.n = 100"),
        ("task.scan_subadd.stpes = 2\n", "task.scan_subadd.stpes"),
        ("task.solve.steps = 2\n", "task.solve.steps"),
        ("task.pohozaev = 2\n", "'task.pohozaev'"),
        ("problem.bta = 0.5\n", "problem.bta"),
        ("problem.v1 = 3\n", "problem.v1"),
        ("problem.v1.kind = harmonic_trap\n", "problem.v1"),
        ("run.required = solv\n", "unknown task 'solv'"),
        ("task.scan_subadd.steps = 2.5\n", "task.scan_subadd.steps = 2.5"),
        ("task.scan_subadd.steps = 0\n", "task.scan_subadd.steps = 0"),
        ("task.scan_subadd.steps = -1\n", "task.scan_subadd.steps = -1"),
        # the minimal constants are exact on their scan: no resolution to set
        ("task.check_inequalities.resolution = 0.001\n", "task.check_inequalities.resolution"),
        ("task.check_inequalities.p = -1\n", "task.check_inequalities.p = -1"),
        ("task.check_inequalities.p = nan\n", "task.check_inequalities.p = nan"),
        ("task.check_inequalities.p = one\n", "task.check_inequalities.p = one"),
        ("task.check_inequalities.p = 1\ntask.check_inequalities.eta = 5.0\n",
         "task.check_inequalities.eta = 5.0"),
        ("task.check_inequalities.eta = 0\n", "task.check_inequalities.eta = 0"),
        ("task.pohozaev.mu = 0\n", "task.pohozaev.mu = 0"),
        ("task.pohozaev.mu = nan\n", "task.pohozaev.mu = nan"),
        ("task.pohozaev.mu = true\n", "task.pohozaev.mu = True"),
        ("task.pohozaev.p = 3\n", "task.pohozaev.p = 3"),
        ("task.pohozaev.p = 0.0\n", "task.pohozaev.p = 0.0"),
        ("task.pohozaev.gamma = -1\n", "task.pohozaev.gamma = -1"),
        ("task.pohozaev.gamma = inf\n", "task.pohozaev.gamma = inf"),
        ("task.decay_fit.r1 = abc\n", "task.decay_fit.r1 = abc"),
        ("task.decay_fit.r2 = -inf\n", "task.decay_fit.r2 = -inf"),
        ("task.decay_fit.r2 = false\n", "task.decay_fit.r2 = False"),
        ("grid.n = 256\ngrid.length = 32.0\ntask.decay_fit.r1 = 20\n", "task.decay_fit.r1 = 20"),
        ("task.decay_fit.r1 = 8.0\ntask.decay_fit.r2 = 8.0\n", "task.decay_fit.r1 = 8.0"),
        ("task.decay_fit.r2 = 30.0\n", "task.decay_fit.r2 = 30.0"),
        ("task.conv_limit.g_rate = 3\n", "task.conv_limit.g_rate = 3"),
        ("task.conv_limit.f_rate = 1.0\n", "task.conv_limit.f_rate = 1.0"),
        ("task.conv_limit.poly_power = nan\n", "task.conv_limit.poly_power = nan"),
        ("grid.n = 256\ngrid.length = 32.0\ntask.conv_limit.r_values = 100\n",
         "task.conv_limit.r_values = 100"),
        ("task.glue_test.n_cells = abc\n", "task.glue_test.n_cells = abc"),
        ("task.glue_test.gamma1 = true\n", "task.glue_test.gamma1 = True"),
        ("task.check_inequalities.p = 45\n", "task.check_inequalities.p = 45"),
        ("problem.p1 = abc\n", "problem.p1 = abc must be a number"),
        ("problem.mu1 = abc\n", "problem.mu1 = abc must be a number"),
        ("potential1.depth = abc\n", "potential1.depth = abc must be a number"),
        ("problem.alpha1 = true\n", "problem.alpha1 = True must be a number"),
        ("potential1.center = 0.0, abc\n",
         "potential1.center = [0.0, 'abc'] must be a number or a list of them"),
        # a number is not a path: 0 would open stdin; ./2024 names a file 2024
        ("potential1.kind = tabulated\npotential1.samples_path = 0\n",
         "potential1.samples_path = 0 must be a string"),
        ("grid.n = 128.7\ngrid.length = 32.0\n", "grid.n = 128.7 must be an integer"),
        ("grid.n = 64.0\ngrid.length = 32.0\n", "grid.n = 64.0 must be an integer"),
        ("grid.n = 64\ngrid.length = true\n", "grid.length = True must be a number"),
        ("grid.n = 64, 128\ngrid.length = 32.0\n", "grid.n = [64, 128] must be an integer"),
        ("run.output_dir = 1, 2\n", "run.output_dir = [1, 2] must be a string"),
        ("potential1.kind = 7\n", "potential1.kind = 7 must be a string"),
        ("solver.foo = 1\n", "unknown config key solver.foo; known: solver.dt, "),
        ("potential1.foo = 1\n", "unknown config key potential1.foo; known: potential1.kind, "),
        # a value of the right kind that its record refuses is named by its key
        ("solver.dt = 0\n", "solver.dt must be finite and > 0, got 0"),
        ("potential1.kind = well\n", "potential1.kind must be one of zero, gaussian_well, "),
        ("problem.regime = trap\n", "problem.regime must be one of both_bounded, trapping; "),
        ("potential2.depth = 0.5\n", "potential2.kind is missing"),
    ],
    ids=["grid-key", "run-key", "section", "task-name", "length-only", "n-only",
         "bad-length", "bad-n", "task-key", "task-without-keys", "task-scalar",
         "problem-key", "problem-v1", "problem-v1-kind", "required-name",
         "steps-fraction", "steps-zero", "steps-negative", "resolution-unknown",
         "p-negative", "p-nan", "p-text", "eta-above-p", "eta-zero",
         "mu-zero", "mu-nan", "mu-bool", "pohozaev-p-above", "pohozaev-p-zero",
         "gamma-negative", "gamma-inf", "r1-text", "r2-inf", "r2-bool", "r1-above-r2-default",
         "r1-not-below-r2", "r2-past-window", "g-rate-above-f", "f-rate-at-g",
         "poly-power-nan", "r-values-past-window", "n-cells-text", "gamma1-bool",
         "p-above-window", "problem-p1-text", "problem-mu1-text", "potential-depth-text",
         "problem-alpha1-bool", "potential-center-text", "samples-path-number",
         "grid-n-fraction", "grid-n-float", "grid-length-bool", "grid-n-list",
         "output-dir-list", "potential-kind-number", "solver-key", "potential-key",
         "solver-dt-zero", "potential-kind-unknown", "regime-unknown", "potential-kind-missing"],
)
def test_config_rejects_ignored_or_incomplete_keys(tmp_path, capsys, extra, named):
    text = GRIDLESS_LINES + "run.tasks = solve\n" + extra
    with pytest.raises(ValueError) as info:
        config_from_dict(parse_flat(text))
    assert named in str(info.value)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]
    assert not out.exists()


def test_config_values_reach_the_records_as_their_kind(tmp_path):
    # an integer given for a float key is stored, and so recorded, as a float
    nested = {"problem": {"mu1": 3}, "solver": {"dt": 1}, "grid": {"n": 256, "length": 32}}
    cfg = config_from_dict(nested)
    assert (cfg.problem.mu1, cfg.solver.dt, cfg.grid_n, cfg.grid_length) == (3.0, 1.0, 256, 32.0)
    assert [type(v) for v in (cfg.problem.mu1, cfg.solver.dt, cfg.grid_length)] == [float] * 3
    cfg_path = tmp_path / "cfg.json"
    nested["solver"].update(tol_residual=1e-6, multi_start=1)
    cfg_path.write_text(json.dumps(nested))
    assert run(cfg_path, out_dir=tmp_path / "out") == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert "problem.mu1 = 3.0\n" in config and "solver.dt = 1.0\n" in config
    assert "grid.length = 32.0\n" in config


def test_config_rejects_glue_masses_outside_split():
    nested = {
        "run": {"tasks": ["glue_test"]},
        "task": {"glue_test": {"gamma1": 1.5}},
    }
    with pytest.raises(ValueError, match="componentwise split"):
        config_from_dict(nested)


def test_task_values_default_from_the_problem_and_grid_and_keep_their_kinds():
    cfg = config_from_dict({
        "problem": {"mu1": 3, "p1": 0.5, "alpha1": 2},
        "grid": {"n": 256, "length": 32.0},
        "task": {"pohozaev": {"mu": 2}, "glue_test": {"n_cells": 5, "gamma2": 1},
                 "conv_limit": {"r_values": [4, 8.5], "f_rate": []}},
    })
    values = cfg.task_values()
    assert values["pohozaev"] == {"mu": 2.0, "p": 0.5, "gamma": 2.0}
    assert type(values["pohozaev"]["mu"]) is float and type(values["pohozaev"]["gamma"]) is float
    assert values["glue_test"] == {"gamma1": 1.0, "gamma2": 1.0, "n_cells": [5]}
    assert values["decay_fit"] == {"r1": 0.15 * 32.0, "r2": 0.35 * 32.0}
    assert values["check_inequalities"] == {"p": 0.5, "eta": 0.25}
    # an empty list counts as not given, as the flat format cannot hold it
    assert values["conv_limit"] == {
        "f_rate": 2.0, "g_rate": 1.0, "poly_power": 0.0, "r_values": [4.0, 8.5]
    }
    assert values["scan_subadd"] == {"steps": 5}
    assert config_from_dict({}).task_values()["glue_test"]["n_cells"] == [512, 768, 1024]


def test_required_tasks_default_excludes_pure_checks():
    cfg = config_from_dict(
        {"run": {"tasks": ["solve", "conv_limit", "check_inequalities"]}}
    )
    assert cfg.required_tasks() == {"solve"}
    explicit = config_from_dict(
        {"run": {"tasks": ["solve"], "required": []}}
    )
    assert explicit.required_tasks() == set()


def test_config_grid_override():
    cfg = config_from_dict(
        {"run": {"tasks": ["solve"]}, "grid": {"n": 512, "length": 40.0}}
    )
    g = cfg.grid()
    assert (g.n, g.length) == (512, 40.0)
    default = config_from_dict({"run": {"tasks": ["solve"]}}).grid()
    assert (default.n, default.length) == (4096, 64.0)


# ---------------------------------------------------------------------------
# end-to-end runs


def test_solve_run_writes_contracted_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out, seed=3) == 0

    payload = json.loads((out / "solve.json").read_text())
    assert set(payload) == SOLVE_KEYS
    assert payload["total"] < 0.0
    assert payload["lambda1"] > 0.0
    assert payload["converged"] is True
    assert payload["final_residual"] < 1e-6
    assert math.isfinite(payload["final_dt"]) and payload["final_dt"] > 0.0
    assert payload["step_cuts"] >= 0
    (start,) = payload["starts"]
    assert set(start) == {"iterations", "energy", "converged", "step_cuts"}
    assert start["iterations"] == payload["iterations"]
    assert start["energy"] == pytest.approx(payload["total"], rel=1e-12)
    assert start["converged"] is True
    assert start["step_cuts"] == payload["step_cuts"]

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "iter,energy,residual"
    assert 2 <= len(lines) <= 2001
    assert int(lines[-1].split(",")[0]) == payload["iterations"]
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    u1 = read_field_csv(str(out / "solve_u1.csv"))
    assert u1.grid.n == 256
    assert float(np.sum(np.abs(u1.values) ** 2) * u1.grid.cell_volume) == pytest.approx(
        1.0, abs=1e-9
    )

    summary = (out / "summary.txt").read_text()
    assert "solve: energy" in summary

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert set(manifest) == {"seed", "config", "versions", "files", "timestamp"}
    assert set(manifest["files"]) == {
        "solve.json", "trajectory.csv", "solve_u1.csv", "solve_u2.csv",
        "summary.txt",
    }
    digest = hashlib.sha256((out / "solve.json").read_bytes()).hexdigest()
    assert manifest["files"]["solve.json"] == digest


def test_manifest_records_the_config_and_versions(tmp_path):
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out, seed=3) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the seed override is part of the recorded config
    cfg = load_config(cfg_path)
    cfg.solver = replace(cfg.solver, rng_seed=3)
    assert manifest["config"] == format_flat(config_to_dict(cfg))
    assert "solver.rng_seed = 3\n" in manifest["config"]
    assert config_from_dict(parse_flat(manifest["config"])) == cfg
    assert manifest["versions"] == {
        "binorm_gs": binorm_gs.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def test_same_seed_runs_are_identical_modulo_timestamp(tmp_path):
    cfg_path = write_config(tmp_path, "solve")
    manifests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(cfg_path, out_dir=out, seed=11) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for m in manifests:
        m.pop("timestamp")
    assert manifests[0] == manifests[1]


def test_run_refuses_inadmissible_problem(tmp_path, capsys):
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text("problem.p1 = 3.0\nrun.tasks = solve\n")
    rc = run(cfg_path, out_dir=tmp_path / "out")
    captured = capsys.readouterr()
    assert rc == 1
    assert "hypothesis violation:" in captured.err
    assert "(p1)" in captured.err
    assert not (tmp_path / "out").exists()


def test_run_refuses_non_finite_mass(tmp_path, capsys):
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text("problem.alpha1 = inf\nrun.tasks = solve, scan_subadd\n")
    rc = run(cfg_path, out_dir=tmp_path / "out")
    violations = [
        ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("hypothesis violation:")
    ]
    assert rc == 1
    assert violations == [
        "hypothesis violation: mass: alpha1 >= 0 and finite required; got inf"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            "potential1.center = 0.0, 0.0\n",
            "hypothesis violation: (V1): v1.center must have 0 or dim = 1 components; "
            "got (0.0, 0.0)",
        ),
        (
            "potential2.kind = tabulated\npotential2.samples_path = nope.csv\n",
            "error: [Errno 2] No such file or directory: 'nope.csv'",
        ),
        (
            "potential2.kind = tabulated\npotential2.samples_path = v2.csv\n",
            "error: v2.csv, line 2: last column is 1.0, not 0: fields are real",
        ),
    ],
    ids=["center-length", "missing-table", "nonzero-last-column"],
)
def test_run_refuses_unsampleable_potential(tmp_path, capsys, monkeypatch, extra, message):
    monkeypatch.chdir(tmp_path)
    # a table on the run grid whose first row has a nonzero last column
    rows = [f"{i},0.0,{1.0 if i == 0 else 0.0}\n" for i in range(256)]
    (tmp_path / "v2.csv").write_text("# 1,256,32.0\n" + "".join(rows))
    cfg_path = write_config(tmp_path, "solve, scan_subadd", extra=extra)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize(
    "tasks, message",
    [(["solv"], "unknown task 'solv'; known: solve, scan_subadd, "),
     ([], "config must list at least one task")],
    ids=["unknown", "empty"],
)
def test_run_checks_its_task_override_before_touching_the_output(tmp_path, tasks, message):
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out, seed=3) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with pytest.raises(ValueError, match=re.escape(message)):
        run(cfg_path, tasks=tasks, out_dir=out)
    # the earlier run's files are all still there, unchanged
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_failed_required_task_sets_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, "solve", extra="solver.max_iters = 3\n")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 2
    # artifacts still land for post-mortem inspection
    assert (out / "solve.json").exists()


def test_unrequired_failure_keeps_exit_zero(tmp_path):
    nested = {
        "problem": {"dim": 1, "beta": 0.5},
        "solver": {"dt": 0.25, "tol_residual": 1e-6, "max_iters": 3,
                   "multi_start": 1},
        "grid": {"n": 256, "length": 32.0},
        "run": {"tasks": ["solve"], "required": []},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(nested))
    assert run(cfg_path, out_dir=tmp_path / "out") == 0


def _diverging_conv_limit(monkeypatch):
    """Make the conv_limit task raise: its check runs with f_rate = 1.0, the
    default g_rate, which config_from_dict refuses."""
    check = cli.convolution_limit_check
    monkeypatch.setattr(cli, "convolution_limit_check",
                        lambda *args, **kwargs: check(*args, **{**kwargs, "f_rate": 1.0}))


def test_raising_task_leaves_summary_and_manifest(tmp_path, capsys, monkeypatch):
    _diverging_conv_limit(monkeypatch)
    cfg_path = write_config(tmp_path, "solve, conv_limit")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="the limit integral diverges"):
        run(cfg_path, out_dir=out, seed=2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert manifest["error"].startswith("conv_limit: f decays at rate 1.0")
    assert set(manifest["files"]) == {
        "solve.json", "trajectory.csv", "solve_u1.csv", "solve_u2.csv",
        "summary.txt",
    }
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0].startswith("solve: energy")
    assert summary[1].startswith("conv_limit: error: f decays at rate 1.0")
    assert not (out / "conv_limit.json").exists()
    # the command line still reports the error with exit code 1
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: f decays at rate 1.0" in capsys.readouterr().err


def test_scan_subadd_artifacts(tmp_path):
    cfg_path = write_config(
        tmp_path, "scan_subadd", extra="task.scan_subadd.steps = 2\n"
    )
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    payload = json.loads((out / "scan_subadd.json").read_text())
    assert set(payload) == {"regime", "split_rule", "e_total", "points"}
    assert (payload["regime"], payload["split_rule"]) == ("both_bounded", "theta in [0, 1]^2")
    assert len(payload["points"]) == 3  # 2x2 grid minus the full split
    for pt in payload["points"]:
        assert set(pt) == {"theta1", "theta2", "e_inner", "e_outer", "gap", "trusted"}
        if pt["trusted"]:
            assert pt["gap"] < 0.0


def test_scan_subadd_keeps_the_trapped_mass(tmp_path):
    # the paper's case (ii): in the trapping regime only theta2 = 1 is scanned
    extra = (
        "problem.regime = trapping\npotential2.kind = harmonic_trap\n"
        "potential2.offset = 1.0\npotential2.stiffness = 0.05\ntask.scan_subadd.steps = 3\n"
    )
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "scan_subadd", extra=extra), out_dir=out) == 0
    payload = json.loads((out / "scan_subadd.json").read_text())
    assert (payload["regime"], payload["split_rule"]) == ("trapping", "theta2 = 1")
    points = payload["points"]
    assert [(pt["theta1"], pt["theta2"]) for pt in points] == [(0.0, 1.0), (0.5, 1.0)]
    assert all(pt["trusted"] and pt["gap"] < 0.0 for pt in points)


def test_decay_fit_artifacts(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "decay_fit",
        extra="task.decay_fit.r1 = 4.0\ntask.decay_fit.r2 = 11.0\n",
    )
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    payload = json.loads((out / "decay_fit.json").read_text())
    assert set(payload) == {"lambda1", "lambda2", "fits"}
    assert payload["lambda1"] > 0.0 and payload["lambda2"] > 0.0
    assert len(payload["fits"]) == 2
    for fit in payload["fits"]:
        assert fit["window"] == [4.0, 11.0]
        assert fit["tag"] in (
            "component1", "component2_standard", "component2_anomalous"
        )
        prof = fit["profile"]
        assert len(prof["r"]) == len(prof["log_value"]) == len(prof["fit_value"])
        assert fit["n_shells"] >= 8


def test_glue_test_with_a_zero_second_mass(tmp_path):
    # the zero-mass branch of glue_states: u2 is glued to 0 with kappa2 = 0, tau2 = 1
    extra = "problem.alpha2 = 0.0\ntask.glue_test.n_cells = 48, 64\n"
    cfg_path = write_config(tmp_path, "glue_test", extra=extra)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    rows = json.loads((out / "glue_test.json").read_text())
    assert [(row["n"], row["kappa2"], row["tau2"]) for row in rows] == [
        (48, 0.0, 1.0), (64, 0.0, 1.0)
    ]


def test_glue_test_artifacts(tmp_path):
    extra = (
        "task.glue_test.gamma1 = 0.3\n"
        "task.glue_test.gamma2 = 0.3\n"
        "task.glue_test.n_cells = 48, 64, 80\n"
    )
    cfg_path = write_config(tmp_path, "glue_test", extra=extra)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    rows = json.loads((out / "glue_test.json").read_text())
    assert [row["n"] for row in rows] == [48, 64, 80]
    for row in rows:
        assert set(row) == {"n", "kappa1", "kappa2", "tau1", "tau2", "gap"}
        assert 0.0 < row["tau1"] <= 1.0
        assert math.isfinite(row["gap"])


def test_pohozaev_artifacts(tmp_path):
    extra = "task.pohozaev.mu = 1.0\ntask.pohozaev.p = 1.0\ntask.pohozaev.gamma = 1.0\n"
    cfg_path = write_config(tmp_path, "pohozaev", extra=extra)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    payload = json.loads((out / "pohozaev.json").read_text())
    assert set(payload) == {
        "mu", "p", "gamma", "lambda", "residual", "kinetic_term",
        "mass_term", "focusing_term", "degenerate", "converged",
    }
    assert payload["converged"] is True
    assert payload["lambda"] > 0.0
    assert not payload["degenerate"]


def test_check_inequalities_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, "check_inequalities")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    payload = json.loads((out / "check_inequalities.json").read_text())
    reports = payload["reports"]
    assert [rep["which"] for rep in reports] == ["L34i", "L34ii", "elementary"]
    for rep in reports:
        assert rep["holds"] is True
        assert rep["violations"] == 0
    assert reports[0]["min_constant_estimate"] == pytest.approx(-6.0, abs=1e-9)
    assert reports[1]["min_constant_estimate"] == 0.0
    assert not (out / "violations.csv").exists()


def test_check_inequalities_p_outside_the_window_exits_with_one_error(tmp_path, capsys):
    # at p = 100 the L34i scan would overflow and find no bracket
    # (tests/test_inequalities.py); the run refuses p before anything is written
    cfg_path = write_config(tmp_path, "check_inequalities",
                            extra="task.check_inequalities.p = 100\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert errors == ["error: task.check_inequalities.p = 100 must lie in (0, 2/N) with N = 1"]
    assert not out.exists()


def test_violations_csv_lists_every_recorded_violation(tmp_path, monkeypatch):
    elementary = InequalityReport(
        "elementary", {"p": 1.0, "a_max": 100.0}, 0.0, 8002, -0.25,
        (("lower", 0.5, -0.25), ("upper", 2.0, -1e-3)),
    )
    monkeypatch.setattr(cli, "min_constant_34i", lambda *args, **kwargs: -50.0)
    monkeypatch.setattr(cli, "sufficient_constant_34ii", lambda *args: -0.5)
    monkeypatch.setattr(cli, "check_elementary_p3", lambda *args: elementary)
    cfg_path = write_config(tmp_path, "check_inequalities")
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    viol_i = check_lemma34i(1.0, -50.0).violations
    viol_ii = check_lemma34ii(1.0, 0.5, -0.5).violations
    assert viol_i and viol_ii
    text = (out / "violations.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == "which,x,y,defect"
    a, b, d = viol_i[0]
    assert rows[1] == f"L34i,{a!r},{b!r},{d!r}" and b == 1.0
    x, y, d = viol_ii[0]
    assert rows[1 + len(viol_i)] == f"L34ii,{x!r},{y!r},{d!r}"
    assert rows[-2:] == ["elementary:lower,0.5,1.0,-0.25", "elementary:upper,2.0,1.0,-0.001"]
    assert len(rows) == 1 + len(viol_i) + len(viol_ii) + 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]["violations.csv"] == hashlib.sha256(text.encode()).hexdigest()
    reports = json.loads((out / "check_inequalities.json").read_text())["reports"]
    assert [rep["violations"] for rep in reports] == [len(viol_i), len(viol_ii), 2]
    assert [rep["holds"] for rep in reports] == [False, False, False]


def test_conv_limit_artifacts(tmp_path):
    extra = "task.conv_limit.r_values = 4.0, 8.0\n"
    cfg_path = write_config(tmp_path, "conv_limit", extra=extra)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    payload = json.loads((out / "conv_limit.json").read_text())
    assert set(payload) == {"rows", "max_ratio_error"}
    assert len(payload["rows"]) == 4  # two radii x two 1D directions
    assert payload["max_ratio_error"] < 0.2
    for row in payload["rows"]:
        assert set(row) == {"r", "omega", "scaled", "limit", "ratio"}


def test_emit_plots_derives_csvs(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "solve, decay_fit, scan_subadd, emit_plots",
        extra="task.scan_subadd.steps = 2\n",
    )
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    heat = (out / "subadd_heatmap.csv").read_text().splitlines()
    assert heat[0] == "theta1,theta2,e_inner,e_outer,gap"
    assert len(heat) == 4
    fits = (out / "decay_fits.csv").read_text().splitlines()
    assert fits[0] == "component,r1,r2,rate,poly,expected,r2"
    assert (out / "decay_profile_c1.csv").exists()
    assert (out / "decay_profile_c2.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "subadd_heatmap.csv" in manifest["files"]


def test_emit_plots_task_reads_only_its_own_run(tmp_path):
    out = tmp_path / "out"
    first = write_config(tmp_path, "solve, scan_subadd, emit_plots",
                         extra="task.scan_subadd.steps = 2\n")
    assert run(first, out_dir=out) == 0
    second = write_config(tmp_path, "solve, emit_plots", name="second.txt")
    assert run(second, out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "subadd_heatmap.csv" not in manifest["files"]
    assert "emit_plots: wrote nothing" in (out / "summary.txt").read_text().splitlines()


def test_rerun_removes_the_earlier_runs_files(tmp_path):
    out = tmp_path / "out"
    first = write_config(tmp_path, "solve, scan_subadd, emit_plots",
                         extra="task.scan_subadd.steps = 2\n")
    assert run(first, out_dir=out) == 0
    assert (out / "subadd_heatmap.csv").exists()
    (out / "notes.txt").write_text("not listed, so kept\n")
    second = write_config(tmp_path, "solve, emit_plots", name="second.txt")
    assert run(second, out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*manifest["files"], "manifest.json", "notes.txt"]
    )
    assert not (out / "scan_subadd.json").exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"files": {"../cfg.txt": "0"}}, "lists '../cfg.txt', which is not a plain file name"),
        ({"files": {"sub/x.json": "0"}}, "lists 'sub/x.json', which is not a plain file name"),
        ({"files": {"..": "0"}}, "lists '..', which is not a plain file name"),
        ({"files": {"solve.json": "0", "": "0"}}, "lists '', which is not a plain file name"),
        ({"seed": 1}, "not a run manifest"),
        ({"files": "solve.json"}, "not a run manifest"),
        ([], "not a run manifest"),
    ],
)
def test_rerun_refuses_a_manifest_naming_other_paths(tmp_path, capsys, manifest, message):
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "solve.json").write_text("{}\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    # nothing was removed or written
    assert cfg_path.exists()
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "solve.json"]


def test_main_subcommands(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "solve.json").exists()
    # plots come from the emit_plots task of a run, not a subcommand
    with pytest.raises(SystemExit) as info:
        main(["emit-plots", "--config", str(cfg_path), "--out", str(out)])
    assert info.value.code == 2
    assert "invalid choice: 'emit-plots'" in capsys.readouterr().err


def test_main_reports_readable_errors(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "missing.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_rejects_a_removed_solver_key(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "solve", extra="solver.symmetrize_every = 7\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "symmetrize_every" in errors[0]
    assert not out.exists()


def test_main_run_uses_config_task_list(tmp_path):
    cfg_path = write_config(tmp_path, "solve, conv_limit")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "solve.json").exists()
    assert (out / "conv_limit.json").exists()


def test_experiment_config_is_plain_data():
    cfg = ExperimentConfig(problem=config_from_dict({}).problem)
    assert cfg.tasks == ["solve"]
    assert cfg.output_dir == "out"


@pytest.mark.parametrize("command", ["run", "decay-fit"])
def test_decay_fit_refused_in_the_trapping_regime(tmp_path, capsys, command):
    # a trapped tail is Gaussian and lambda2 may be negative: decay_fit is
    # refused before any directory is made, from run.tasks and the subcommand
    extra = (
        "problem.regime = trapping\nproblem.alpha2 = 0.01\npotential2.kind = harmonic_trap\n"
        "potential2.offset = 1.0\npotential2.stiffness = 1.0\n"
    )
    cfg_path = write_config(tmp_path, "solve, decay_fit", extra=extra)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert errors == [
        "error: decay_fit is not available in the trapping regime (problem.regime = trapping): "
        "the trapped u2 has a Gaussian tail, not exp(-sqrt(lambda2) r), "
        "and lambda2 may be negative"
    ]
    assert not out.exists()


@pytest.mark.parametrize("component", [1, 2])
@pytest.mark.parametrize("command", ["run", "decay-fit"])
def test_decay_fit_refused_with_a_zero_mass(tmp_path, capsys, command, component):
    # a vanishing component has no tail and a nan multiplier, which decay_fit
    # used to report, after the solve's files, as swapped multipliers
    masses = {1: "1.0", 2: "1.0", component: "0.0"}
    extra = f"problem.alpha1 = {masses[1]}\nproblem.alpha2 = {masses[2]}\n"
    cfg_path = write_config(tmp_path, "solve, decay_fit", extra=extra)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert errors == [
        f"error: decay_fit is not available with a zero mass (problem.alpha1 = {masses[1]}, "
        f"problem.alpha2 = {masses[2]}): a vanishing component has no tail to fit, "
        "and its multiplier is undefined"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", ["problem.alpha1 = 0.0\n", "task.pohozaev.gamma = 0\n"], ids=["default", "given"]
)
@pytest.mark.parametrize("command", ["run", "pohozaev"])
def test_pohozaev_refused_with_a_zero_mass(tmp_path, capsys, command, extra):
    # the zero state has residual 0 and read as a converged, passing check
    cfg_path = write_config(tmp_path, "pohozaev", extra=extra)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert errors == [
        "error: pohozaev is not available with a zero mass (task.pohozaev.gamma = 0.0, which "
        "defaults to problem.alpha1): the zero state satisfies the Pohozaev identity trivially, "
        "so its residual tests nothing"
    ]
    assert not out.exists()


def test_seed_refused_by_its_option(tmp_path, capsys):
    # the override is named as the --seed option, not as the record field it fills
    cfg_path = write_config(tmp_path, "solve")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert errors == ["error: --seed must be an integer >= 0, got -1"]
    with pytest.raises(ValueError, match=r"^--seed must be an integer >= 0, got True$"):
        run(cfg_path, out_dir=out, seed=True)
    assert not out.exists()


def test_readme_task_key_table_lists_every_task_key():
    # rows read `task.key`, `key2`, ...: the later keys belong to the first's task
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | rule |\n| --- | --- | --- |\n", 1)[1]
    listed = []
    for row in table.split("\n\n", 1)[0].splitlines():
        first, *rest = re.findall(r"`([^`]+)`", row.split("|")[1])
        task, key = first.split(".")
        listed += [(task, key), *((task, k) for k in rest)]
    known = [(task, key) for task, keys in cli.TASK_KEYS.items() for key in keys]
    assert sorted(listed) == sorted(known)
