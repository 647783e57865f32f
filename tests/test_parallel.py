"""Flow batches and task computations on separate processes: same results,
files and errors as a serial run, and no leftover children.

Every test fails on any warning, so that a warning about forking a process
with threads fails them too.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import shutil
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from binorm_gs import cli, solver
from binorm_gs.grid import make_grid
from binorm_gs.solver import scan_subadditivity

from _cases import SCAN, wells_spec

THETAS = [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 0.0), (0.5, 0.5)]


def _cores(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recorded_scan(monkeypatch, cores: int):
    """The scan's report and every solve record it built, on `cores` cores."""
    _cores(monkeypatch, cores)
    results = []
    result = solver._result

    def recorded(*args):
        results.append(result(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_result", recorded)
    config = replace(SCAN, max_iters=2000)
    report = scan_subadditivity(wells_spec(), THETAS, config=config, grid=make_grid(1, 256, 64.0))
    return report, [
        (
            r.state.u1.values.tobytes(),
            r.state.u2.values.tobytes(),
            repr(r.multipliers),
            repr(r.diagnostics["per_start"]),
            r.iterations,
            repr(r.trajectory_energies),
        )
        for r in results
    ]


def test_parallel_scan_equals_serial(monkeypatch):
    forks = _count_forks(monkeypatch)
    report, records = _recorded_scan(monkeypatch, 2)
    assert len(forks) == 1  # flow batches 1, 3 and 5 of 6 ran in a child
    _assert_no_children()
    serial_report, serial_records = _recorded_scan(monkeypatch, 1)
    assert len(forks) == 1
    assert repr(report.e_total) == repr(serial_report.e_total)
    assert repr(report.points) == repr(serial_report.points)
    assert len(records) == 1 + 2 * len(THETAS)
    assert records == serial_records


def test_flow_batches_share_one_component_set(monkeypatch):
    # _flow steps only the components of its first member, so a u1-only
    # member followed by a two-component one would lose u2
    _cores(monkeypatch, 1)  # every batch runs, and is recorded, in this process
    batches = []
    flow = solver._flow

    def recorded(grid, spec, pots, members, config):
        batches.append([tuple(a > 0.0 for a in m.masses) for m in members])
        return flow(grid, spec, pots, members, config)

    monkeypatch.setattr(solver, "_flow", recorded)
    config = replace(SCAN, max_iters=2000)
    grid = make_grid(1, 256, 64.0)
    scan_subadditivity(wells_spec(), THETAS, config=config, grid=grid)
    # the wells group and the potential-free group each hold splits that
    # carry both components, u1 only and u2 only
    both, u1, u2 = (True, True), (True, False), (False, True)
    assert sorted(kinds[0] for kinds in batches) == sorted([both, u1, u2] * 2)
    solver.minimize_scalar(1.0, 1.0, 1.0, config=config, grid=grid)
    assert batches[6:] == [[u1] * SCAN.multi_start]
    assert all(len(set(kinds)) == 1 for kinds in batches)


def _scan_error(monkeypatch, cores: int) -> str:
    """Message of a scan whose potential-free batch raises, on `cores` cores."""
    _cores(monkeypatch, cores)
    flow = solver._flow

    def failing(grid, spec, pots, members, config):
        if not (np.any(pots[0]) or np.any(pots[1])):
            raise ValueError(f"solver: {members[-1].name}: injected in process {os.getpid()}")
        return flow(grid, spec, pots, members, config)

    monkeypatch.setattr(solver, "_flow", failing)
    with pytest.raises(ValueError) as info:
        scan_subadditivity(wells_spec(), THETAS, config=SCAN, grid=make_grid(1, 256, 64.0))
    _assert_no_children()
    return str(info.value)


def test_worker_error_matches_serial(monkeypatch):
    forks = _count_forks(monkeypatch)
    parallel = _scan_error(monkeypatch, 2)
    assert len(forks) == 1
    serial = _scan_error(monkeypatch, 1)
    # the same batch and member, but raised in the child
    assert parallel.replace(f"process {forks[0]}", "") == serial.replace(
        f"process {os.getpid()}", ""
    )
    assert serial.startswith("solver: start 1 of the solve at masses (0.5, 0.5): injected")


def _fake_flows(monkeypatch, actions: dict[int, str]):
    """Replace _flow by one that returns its batch index or does actions[index]."""

    def fake(grid, spec, pots, members, config):
        index = members[0]
        action = actions.get(index)
        if action == "raise":
            raise ValueError(f"batch {index} failed")
        if action == "die":
            os._exit(7)
        if action == "hang":
            time.sleep(60.0)
        return [index]

    monkeypatch.setattr(solver, "_flow", fake)
    return [(None, None, [i]) for i in range(4)]


def _run_batches(jobs):
    """The flow batches (spec, pots, members) in jobs, run as solver._solve_all runs them."""
    batches = [functools.partial(solver._flow, None, *job, None) for job in jobs]
    return solver._run_shares(batches, "flow batch")


@pytest.mark.parametrize(
    "actions, message",
    [
        ({1: "raise", 2: "raise"}, "batch 1 failed"),  # child's batch before the parent's
        ({2: "raise", 3: "raise"}, "batch 2 failed"),  # parent's batch before the child's
        ({0: "raise", 1: "hang"}, "batch 0 failed"),  # the child is killed, not awaited
        ({3: "raise"}, "batch 3 failed"),
    ],
)
def test_earliest_failing_batch_wins(monkeypatch, actions, message):
    jobs = _fake_flows(monkeypatch, actions)
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{message}$"):
            _run_batches(jobs)
        assert time.perf_counter() - t0 < 30.0
        _assert_no_children()


def test_batches_come_back_in_order(monkeypatch):
    jobs = _fake_flows(monkeypatch, {})
    for cores in (3, 2, 1):
        _cores(monkeypatch, cores)
        assert _run_batches(jobs) == [[0], [1], [2], [3]]
    _assert_no_children()


def test_dead_worker_raises_runtime_error(monkeypatch):
    jobs = _fake_flows(monkeypatch, {1: "die"})
    _cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="flow batch 1 exited with status 7"):
        _run_batches(jobs)
    _assert_no_children()


def test_no_fork_while_another_thread_runs(monkeypatch):
    def no_fork():
        raise AssertionError("forked with a second thread alive")

    jobs = _fake_flows(monkeypatch, {})
    _cores(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert _run_batches(jobs) == [[0], [1], [2], [3]]
    finally:
        stop.set()
        waiter.join(timeout=10.0)
    assert not waiter.is_alive()


# ---------------------------------------------------------------------------
# binorm-gs run: task computations in a worker, files written in task order

CONFIG = """
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


def _cli_run(monkeypatch, tmp_path, cores: int, tasks: str, extra: str = "", out=None) -> dict:
    """Files (bytes; None for a directory), summary lines, manifest and raised
    error of a run on `cores` cores into out (default tmp_path/out<cores>)."""
    _cores(monkeypatch, cores)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG + f"run.tasks = {tasks}\n" + extra)
    out = out or tmp_path / f"out{cores}"
    try:
        cli.run(cfg, out_dir=out, seed=3)
        error = None
    except Exception as exc:  # compared with the other run's
        error = f"{type(exc).__name__}: {exc}"
    _assert_no_children()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.pop("timestamp")
    return {
        "files": {
            p.name: p.read_bytes() if p.is_file() else None
            for p in sorted(out.iterdir()) if p.name != "manifest.json"
        },
        "summary": (out / "summary.txt").read_text().splitlines(),
        "manifest": manifest,
        "error": error,
    }


def test_cli_run_on_two_cores_writes_the_serial_files(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch)
    calls = []
    run_shares = solver._run_shares

    def spy(items, what):
        calls.append((what, [item.args[0].__name__ for item in items]))
        return run_shares(items, what)

    monkeypatch.setattr(cli, "_run_shares", spy)
    tasks = ", ".join(cli.TASK_NAMES)
    extra = "task.scan_subadd.steps = 2\n"
    parallel = _cli_run(monkeypatch, tmp_path, 2, tasks, extra)
    assert len(forks) == 2  # the task computations' worker and the scan's
    # dealt round-robin, the main solve first, in this process
    assert calls == [
        ("task computation", [f"calc_{name}" for name in (
            "solve", "glue_inner", "glue_outer", "check_inequalities", "conv_limit"
        )]),
    ]
    serial = _cli_run(monkeypatch, tmp_path, 1, tasks, extra)
    assert len(forks) == 2
    assert parallel == serial
    assert serial["error"] is None and len(serial["files"]) == 16


def test_cli_side_error_matches_serial(monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch)
    # conv_limit's check, in the forked worker too, runs with f_rate = 1.0, the
    # default g_rate, which config_from_dict refuses
    check = cli.convolution_limit_check
    monkeypatch.setattr(cli, "convolution_limit_check",
                        lambda *args, **kwargs: check(*args, **{**kwargs, "f_rate": 1.0}))
    # decay_fit, after the failing task, is neither written nor summarized
    tasks = "solve, check_inequalities, conv_limit, decay_fit"
    parallel = _cli_run(monkeypatch, tmp_path, 2, tasks)
    assert len(forks) == 1  # the task computations' worker
    serial = _cli_run(monkeypatch, tmp_path, 1, tasks)
    assert parallel == serial
    assert serial["error"].startswith("ValueError: f decays at rate 1.0")
    assert serial["manifest"]["error"].startswith("conv_limit: f decays at rate 1.0")
    assert set(serial["files"]) == {
        "solve.json", "trajectory.csv", "solve_u1.csv", "solve_u2.csv",
        "check_inequalities.json", "summary.txt",
    }
    assert [line.split(":")[0] for line in serial["summary"]] == [
        "solve", *["check_inequalities"] * 3, "conv_limit"
    ]


def test_cli_solve_run_on_two_cores_forks_nothing(monkeypatch, tmp_path):
    # one computation and both field files: all in this process
    forks = _count_forks(monkeypatch)
    parallel = _cli_run(monkeypatch, tmp_path, 2, "solve")
    assert forks == []
    assert parallel == _cli_run(monkeypatch, tmp_path, 1, "solve")
    assert parallel["error"] is None
    assert set(parallel["files"]) == {
        "solve.json", "trajectory.csv", "solve_u1.csv", "solve_u2.csv", "summary.txt"
    }


def test_cli_field_write_error_matches_serial(monkeypatch, tmp_path):
    """A u1 write that raises leaves the serial run's directory: no solve_u2.csv."""
    forks = _count_forks(monkeypatch)
    out = tmp_path / "out"  # both runs, as the error message names the path
    runs = {}
    for cores in (2, 1):
        shutil.rmtree(out, ignore_errors=True)
        (out / "solve_u1.csv").mkdir(parents=True)
        runs[cores] = _cli_run(monkeypatch, tmp_path, cores, "solve, check_inequalities", out=out)
    assert len(forks) == 1  # the task computations' worker
    assert runs[2] == runs[1]
    message = f"[Errno 21] Is a directory: '{out / 'solve_u1.csv'}'"
    assert runs[1]["error"] == f"IsADirectoryError: {message}"
    assert runs[1]["summary"] == [f"solve: error: {message}"]
    assert runs[1]["manifest"]["error"] == f"solve: {message}"
    assert set(runs[1]["files"]) == {"solve.json", "trajectory.csv", "summary.txt", "solve_u1.csv"}
    assert runs[1]["files"]["solve_u1.csv"] is None  # the directory
    assert set(runs[1]["manifest"]["files"]) == {"solve.json", "trajectory.csv", "summary.txt"}


def test_cli_dead_worker_leaves_summary_and_manifest(monkeypatch, tmp_path):
    def dies(*args, **kwargs):
        os._exit(7)

    monkeypatch.setattr(cli, "min_constant_34i", dies)
    result = _cli_run(monkeypatch, tmp_path, 2, "solve, check_inequalities")
    message = "the worker process running task computation 1 exited with status 7"
    assert result["error"] == f"RuntimeError: {message}"
    assert result["manifest"]["error"] == f"compute: {message}"
    assert set(result["files"]) == {"summary.txt"}


def test_runner_inside_a_runner_forks_nothing(monkeypatch):
    """Scans that fork on their own run serially as items of a forked run,
    both in this process and in the worker, with the serial results."""
    forks = _count_forks(monkeypatch)

    def scan(thetas):
        before = len(forks)
        report = scan_subadditivity(wells_spec(), thetas, config=SCAN, grid=make_grid(1, 256, 64.0))
        return repr(report), len(forks) - before

    items = [lambda: scan(THETAS[:3]), lambda: scan(THETAS[3:])]
    _cores(monkeypatch, 2)
    parallel = solver._run_shares(items, "scan")
    assert len(forks) == 1
    _assert_no_children()
    assert [nested for _, nested in parallel] == [0, 0]
    serial = [scan(THETAS[:3]), scan(THETAS[3:])]
    assert len(forks) == 3  # each scan forks on its own
    _assert_no_children()
    assert [r for r, _ in parallel] == [r for r, _ in serial]


def test_items_are_dealt_round_robin_from_this_process(monkeypatch):
    pids = [lambda: os.getpid()] * 5
    _cores(monkeypatch, 2)
    here, a, b, c, d = solver._run_shares(pids, "item")
    assert here == b == d == os.getpid() and a == c != here
    _assert_no_children()


def _calls(node: ast.AST, scope: str):
    """(qualified scope, called name) of every call under node, the name
    being a called attribute's or a called plain name's."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            yield inner, getattr(func, "attr", getattr(func, "id", None))
        yield from _calls(child, inner)


def test_only_the_solver_forks_for_two_callers():
    # every forked process comes from solver._run_shares, and only the flow
    # batches and a run's task computations go through it
    src = Path(__file__).resolve().parents[1] / "src" / "binorm_gs"
    calls = [call for path in sorted(src.glob("*.py"))
             for call in _calls(ast.parse(path.read_text()), path.stem)]
    assert sorted({scope.split(".")[0] for scope, name in calls if name == "fork"}) == ["solver"]
    assert sorted(scope for scope, name in calls if name == "_run_shares") == [
        "cli._Runner.compute", "solver._solve_all"
    ]
