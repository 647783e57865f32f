"""The package names and config form the benchmark under bench/ relies on.

bench/tracing.py wraps (module, name) pairs and bench/workloads.py reads
record fields and properties and calls config functions by name and needs
bench/pipeline_2d.cfg in canonical flat form; a rename or deletion in the
package would otherwise first show in the slower benchmark suite.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from binorm_gs import cli, solver
from binorm_gs.energy import Multipliers
from binorm_gs.grid import make_grid

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tracing):
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.TARGETS
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_workload_lookups_resolve():
    for name in ("e_total", "points"):
        assert name in solver.SubaddReport.__dataclass_fields__
    for name in ("e_inner", "e_outer", "gaps", "untrusted"):
        assert isinstance(getattr(solver.SubaddReport, name), property)
    assert callable(Multipliers.as_tuple)
    for name in ("ExperimentConfig", "config_from_dict", "config_to_dict", "format_flat",
                 "load_config", "parse_flat", "run", "save_config"):
        assert callable(getattr(cli, name))
    for name in ("grid_n", "solver", "problem"):
        assert name in cli.ExperimentConfig.__dataclass_fields__
    assert callable(cli.ExperimentConfig.grid)
    # bench/make_references.py reads the full-spectrum Grid.k2 and Grid.cell_volume
    grid = make_grid(2, 8, 4.0)
    assert grid.k2.shape == grid.shape
    assert grid.cell_volume == 0.25
    # bench/tracing.py reads diagnostics["starts"]
    for name in ("state", "report", "multipliers", "iterations", "converged",
                 "trajectory_energies", "diagnostics"):
        assert name in solver.SolveResult.__dataclass_fields__


def test_pipeline_config_is_canonical():
    # the pipeline_2d workload refuses a config that format_flat would
    # rewrite, so a renamed or deleted config field fails it at set-up
    path = BENCH / "pipeline_2d.cfg"
    assert cli.format_flat(cli.config_to_dict(cli.load_config(path))) == path.read_text()


def test_cli_run_writes_each_field_through_the_traced_name(monkeypatch, tmp_path):
    # bench/tracing.py's grid.io span wraps cli.write_field_csv and reads the
    # path from args[1]; on two cores too, both field files go through it here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    written = []
    write = cli.write_field_csv

    def traced(*args):
        written.append(Path(args[1]).name)
        return write(*args)

    monkeypatch.setattr(cli, "write_field_csv", traced)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("problem.dim = 1\nsolver.multi_start = 1\ngrid.n = 128\ngrid.length = 32.0\n")
    assert cli.run(cfg, out_dir=tmp_path / "out", seed=1) == 0
    assert written == ["solve_u1.csv", "solve_u2.csv"]
