"""The benchmark's own tests: smoke runs of every workload, traced and untraced.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 2

# Layers the two workloads that never reach cli/analysis must read zero on.
PIPELINE_ONLY = (
    "grid.io_s", "grid.io_bytes", "analysis.calls", "analysis.s",
    "inequalities.s", "inequalities.points", "cli.s", "cli.self_s",
    "cli.files", "cli.artifact_bytes",
)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run_bench.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def smoke(trace: int) -> dict:
    proc = run_bench("--workload", "all", "--smoke", "--seed", str(SEED), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return smoke(0)


@pytest.fixture(scope="module")
def traced() -> dict:
    return smoke(1)


def test_spec_is_within_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_smoke_reports_every_end_to_end_metric(untraced):
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            value = untraced["metrics"][f"{workload}/{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0


def test_traced_smoke_reports_every_layer_metric(traced):
    assert traced["correct"] and traced["failed"] == 0
    m = traced["metrics"]
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert f"{workload}/{metric['name']}" in m
        assert m[f"{workload}/solver.calls"]["value"] > 0
        assert m[f"{workload}/fft.calls"]["value"] > 0
    for workload in ("soliton_1d", "subadd_scan"):
        for name in PIPELINE_ONLY:
            assert m[f"{workload}/{name}"]["value"] == 0, (workload, name)
    for name in PIPELINE_ONLY:
        assert m[f"pipeline_2d/{name}"]["value"] > 0, name
    assert m["subadd_scan/solver.scan.trusted_frac"]["value"] == 1.0
    assert m["subadd_scan/solver.calls"]["value"] == 17


def test_cli_self_time_plus_children_is_cli_time(traced):
    path = ROOT / ".bench_out" / f"spans_pipeline_2d_smoke_seed{SEED}.csv.gz"
    with gzip.open(path, "rt", newline="") as fh:
        spans = list(csv.DictReader(fh))
    (run,) = [s for s in spans if s["name"] == "cli.run"]  # smoke: one traced pass
    children = [s for s in spans if s["parent"] == run["id"]]
    assert {s["layer"] for s in children} >= {"solver", "analysis", "inequalities", "grid.io"}
    covered = sum(float(s["end"]) - float(s["start"]) for s in children)
    m = traced["metrics"]
    cli_s, cli_self_s = m["pipeline_2d/cli.s"]["value"], m["pipeline_2d/cli.self_s"]["value"]
    assert cli_s == pytest.approx(float(run["end"]) - float(run["start"]), abs=1e-9)
    assert covered + cli_self_s == pytest.approx(cli_s, abs=1e-9)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
