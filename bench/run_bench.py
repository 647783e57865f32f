"""binorm-gs benchmark: time per pass and accuracy on three workloads.

    python3 bench/run_bench.py --workload soliton_1d --seed 1 --seconds 35 --trace 0
    python3 bench/run_bench.py --workload all --smoke

Each run builds its inputs from ``--seed`` (passed on as
``SolverConfig.rng_seed``, or ``--seed`` of the CLI), then runs passes of
one workload as a closed loop with a single client: a pass starts only
after the previous one ended.  Every pass's outputs are checked; a pass
that raises or fails a check counts in ``failed``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics named in
BENCHMARK.json, measured with no wrapper installed.  With ``--trace 1``
one untraced pass is followed by traced passes; the per-layer metrics come
from spans recorded around the library's public functions (see
tracing.py), and the spans are written to ``.bench_out/``.

``--smoke`` runs the workloads at reduced size, one pass each, in seconds.
The package under test is always the ``src/`` tree of the checkout that
holds this file; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCES_PATH = BENCH_DIR / "references.json"

# setup_s is the median of this many set-ups, each in a fresh interpreter.
SETUP_REPEATS = 5


def bootstrap() -> None:
    """Pin BLAS/OpenMP to one thread and import binorm_gs from this checkout.

    Must run before numpy is imported: the thread variables are read once,
    when the libraries load.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread variables were set")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "binorm_gs" / "__init__.py").is_file():
        print(f"error: no binorm_gs package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import binorm_gs

    if not Path(binorm_gs.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: binorm_gs imported from {binorm_gs.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    """Cores, CPU, caches, versions, commit and thread variables of this run."""
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model_name = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    head = _read(str(ROOT / ".git" / "HEAD"))
    commit = None
    if head and head.startswith("ref:"):
        commit = _read(str(ROOT / ".git" / head[4:].strip()))
    elif head:
        commit = head
    return {
        "cores": sorted(os.sched_getaffinity(0)),
        "cpu_model": model_name,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit.strip() if commit else None,
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workload: str, size: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (imports included)."""
    times = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, __file__, "--setup-only", "--workload", workload,
                 "--size", size, "--seed", str(seed), "--scratch", scratch],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_only(workload: str, size: str, seed: int, scratch: Path) -> float:
    """Time imports plus the workload's set-up in this (fresh) interpreter."""
    t0 = time.perf_counter()
    bootstrap()
    import workloads

    workloads.WORKLOADS[workload].setup(size, seed, scratch)
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload and judges each one."""

    def __init__(self, workload: str, size: str, seed: int, scratch: Path) -> None:
        import workloads

        self.w = workloads.WORKLOADS[workload]
        self.refs = json.loads(REFERENCES_PATH.read_text())[workload][size]
        self.scratch = scratch
        self.ctx = self.w.setup(size, seed, scratch)
        self.walls: list[float] = []
        self.accuracy: list[dict[str, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> None:
        """Run, time and judge one pass; a raise or a failed check fails it."""
        self.attempted += 1
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            if tracer is not None:
                tracer.begin_pass(self.attempted)
            t0 = time.perf_counter()
            try:
                raw = self.w.run(self.ctx, out)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_pass()
            failures, acc = self.w.judge(self.ctx, out, raw, wall, self.refs)
        except Exception as exc:  # a pass that raises is a failed pass
            failures, acc, wall = [f"{type(exc).__name__}: {exc}"], {}, math.nan
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if failures:
            self.failed += 1
            self.failures.extend(f"pass {self.attempted}: {f}" for f in failures)
            return
        self.walls.append(wall)
        self.accuracy.append(acc)

    def loop(self, seconds: float, tracer=None) -> None:
        """Closed loop: start another pass while it is expected to end in time."""
        t0 = time.perf_counter()
        while True:
            self.one_pass(tracer)
            elapsed = time.perf_counter() - t0
            typical = statistics.median(self.walls) if self.walls else elapsed
            if elapsed + 0.5 * typical >= seconds:
                return

    def median_accuracy(self) -> dict[str, float]:
        names = self.accuracy[0] if self.accuracy else {}
        return {k: statistics.median(a[k] for a in self.accuracy) for k in names}


def warm_up(workload: str, seed: int, scratch: Path) -> None:
    """One untimed reduced-size pass before timing starts, so one-off costs of
    the process (allocator growth, FFT plan caches) fall on no timed pass."""
    Runner(workload, "smoke", seed, scratch).one_pass()


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    out = {"wall_s": statistics.median(runner.walls), "setup_s": setup_s}
    out.update(runner.median_accuracy())
    return out


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record for the results file)."""
    import tracing

    size = "smoke" if args.smoke else "full"
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        setup_s = untraced = None
        if not args.trace:
            setup_s = measure_setup(args.workload, size, args.seed)
        tracing.assert_uninstalled()
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                tracer.begin_pass(0)
                runner = Runner(args.workload, size, args.seed, scratch)
                tracer.end_pass()
            if not args.smoke:
                warm_up(args.workload, args.seed, scratch)
            t0 = time.perf_counter()
            runner.one_pass()
            untraced = runner.walls[-1] if runner.walls else math.nan
            with tracer.installed():
                runner.walls.clear()
                runner.loop(seconds - (time.perf_counter() - t0), tracer)
            tracing.assert_uninstalled()
            spans_path = OUT_DIR / f"spans_{args.workload}_{size}_seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            values = tracer.layer_metrics()
            if runner.walls and math.isfinite(untraced):
                values["trace.overhead_s"] = statistics.median(runner.walls) - untraced
            names = [m["name"] for m in spec["per_layer"]]
        else:
            runner = Runner(args.workload, size, args.seed, scratch)
            if not args.smoke:
                warm_up(args.workload, args.seed, scratch)
            runner.loop(seconds)
            tracing.assert_uninstalled()
            values = end_to_end(runner, setup_s) if runner.walls else {}
            names = [m["name"] for m in spec["end_to_end"]]
        accuracy = runner.median_accuracy()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in names if name in values
    }
    failed = runner.failed
    correct = failed == 0 and len(metrics) == len(names)
    line = {"correct": correct, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}
    record = {
        "workload": args.workload, "size": size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "result": line,
        "pass_walls_s": runner.walls, "untraced_wall_s": untraced, "accuracy": accuracy,
        "failed_frac": failed / runner.attempted, "failures": runner.failures,
        "environment": environment(),
    }
    return line, record


def print_table(record: dict) -> None:
    print(f"== {record['workload']} ({record['size']}, seed {record['seed']}, "
          f"trace {record['trace']}): {len(record['pass_walls_s'])} passes ok of "
          f"{record['result']['attempted']}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    print(f"   {'failed_frac':<28} {record['failed_frac']:<14.6g} 1")
    for name, m in record["result"]["metrics"].items():
        print(f"   {name:<28} {m['value']:<14.6g} {m['unit']}")
    for name, value in record["accuracy"].items():
        if name not in record["result"]["metrics"]:
            unit = "s (derived: wall x first_iter / iterations)" if name == "tta_s" else "1"
            print(f"   {name:<28} {value:<14.6g} {unit}, reported only")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one pass per workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(repr(setup_only(args.workload, args.size, args.seed, Path(args.scratch))))
        return 0
    bootstrap()
    import workloads

    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"error: BENCHMARK.json workloads {names} do not match "
                         f"{sorted(workloads.WORKLOADS)}")
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        parser.error(f"--workload must be one of {names} or all")
    lines = {}
    for name in chosen:
        args.workload = name
        line, record = run_workload(args, spec)
        print_table(record)
        results = OUT_DIR / f"result_{name}_{record['size']}_seed{args.seed}_trace{args.trace}.json"
        results.write_text(json.dumps(record, indent=2) + "\n")
        lines[name] = line
    if len(chosen) == 1:
        final = lines[chosen[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}/{metric}": value for name, line in lines.items()
                        for metric, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
