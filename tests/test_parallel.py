"""Flow batches on separate processes: same results, errors and no leftover children."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from binorm_gs import solver
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
    assert len(forks) == 1  # the outer batch ran in a child
    _assert_no_children()
    serial_report, serial_records = _recorded_scan(monkeypatch, 1)
    assert len(forks) == 1
    assert repr(report.e_total) == repr(serial_report.e_total)
    assert repr(report.points) == repr(serial_report.points)
    assert len(records) == 1 + 2 * len(THETAS)
    assert records == serial_records


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
            solver._run_batches(None, None, jobs)
        assert time.perf_counter() - t0 < 30.0
        _assert_no_children()


def test_batches_come_back_in_order(monkeypatch):
    jobs = _fake_flows(monkeypatch, {})
    for cores in (3, 2, 1):
        _cores(monkeypatch, cores)
        assert solver._run_batches(None, None, jobs) == [[0], [1], [2], [3]]
    _assert_no_children()


def test_dead_worker_raises_runtime_error(monkeypatch):
    jobs = _fake_flows(monkeypatch, {1: "die"})
    _cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="flow batch 1 exited with status 7"):
        solver._run_batches(None, None, jobs)
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
        assert solver._run_batches(None, None, jobs) == [[0], [1], [2], [3]]
    finally:
        stop.set()
        waiter.join(timeout=10.0)
    assert not waiter.is_alive()
