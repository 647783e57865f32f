"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 bench/campaign.py --runs 10
    python3 bench/campaign.py --runs 5 --workloads subadd_scan --first-seed 101
    python3 bench/campaign.py --runs 10 --trace-runs 1 --out bench/baseline.json

Each run is one ``run_bench.py`` invocation with the run length of
BENCHMARK.json and its own seed; runs cycle through the workloads so a
change in machine load falls on all of them.  For every end-to-end metric
the summary gives the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the quartile distance as a share of the median,
next to the metric's bound.  ``--trace-runs`` adds traced runs for the
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT_DIR / f"result_{workload}_full_seed{seed}_trace{trace}.json").read_text()
    )
    return line, record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    lines: dict[str, list[dict]] = {w: [] for w in args.workloads}
    records: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for w in args.workloads:
            line, record = one_run(w, seed, spec["run_seconds"], 0)
            lines[w].append(line)
            records[w].append(record)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)

    summary: dict = {
        "settings": {"run_seconds": spec["run_seconds"], "seeds": list(seeds)},
        "environment": records[args.workloads[0]][0]["environment"],
        "workloads": {},
    }
    ok = True
    for w in args.workloads:
        entry = {
            "attempted": sum(l["attempted"] for l in lines[w]),
            "failed": sum(l["failed"] for l in lines[w]),
            "end_to_end": {},
            "accuracy": {k: summarise([r["accuracy"][k] for r in records[w]])["median"]
                         for k in records[w][0]["accuracy"]},
            "passes_per_run": [len(r["pass_walls_s"]) for r in records[w]],
        }
        print(f"== {w}: {entry['failed']} of {entry['attempted']} passes failed")
        for metric, bound in bounds.items():
            s = summarise([l["metrics"][metric]["value"] for l in lines[w]])
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            ok &= bool(flag == "")
            print(f"   {metric:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
        traced = [one_run(w, seed, spec["run_seconds"], 1)[0]
                  for seed in list(seeds)[:args.trace_runs]]
        if traced:
            entry["per_layer"] = {
                m["name"]: statistics.median(t["metrics"][m["name"]]["value"] for t in traced)
                for m in spec["per_layer"]
            }
        summary["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
