#!/usr/bin/env python3
"""Run the benchmark once per seed for each workload and summarise every
end-to-end metric by its median, quartiles and spread (quartile distance
over median), as the regression rule in BENCHMARK.json reads them; then one
traced run per workload, at the first seed, for the per-layer metrics.

    python3 benchmarks/sweep.py --seeds 1-10 --out benchmarks/baseline.json

Run from the repository root.  The workloads and the run length are those
of BENCHMARK.json.  Exits non-zero if any run fails or reports an incorrect
result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    """One run; the result line gains ``wall_s``, the run's wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, {**json.loads(lines[-1]), "wall_s": time.perf_counter() - t0}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="a range, e.g. 1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    summary = {"run_seconds": seconds, "seeds": seeds, "env": None, "workloads": {}}
    bad = False
    for w in [x["name"] for x in spec["workloads"]]:
        results = []
        for seed in seeds:
            env, res = run_once(w, seed, seconds)
            summary["env"] = summary["env"] or env
            results.append(res)
            print(f"{w} seed {seed}: wall {res['wall_s']:.1f} s, " + ", ".join(
                f"{k} {m['value']:.6g}" for k, m in res["metrics"].items()), flush=True)
        _, traced = run_once(w, seeds[0], seconds, trace=1)
        results_ok = [r["correct"] for r in results] + [traced["correct"]]
        bad |= not all(results_ok)
        metrics = {k: {"unit": m["unit"],
                       **summarise([r["metrics"][k]["value"] for r in results])}
                   for k, m in results[0]["metrics"].items()}
        summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(results_ok),
            "wall_s": [r["wall_s"] for r in results] + [traced["wall_s"]],
            "metrics": metrics,
            "per_layer": {k: {"unit": m["unit"], "value": m["value"]}
                          for k, m in traced["metrics"].items()}}
        for k, m in metrics.items():
            print(f"  {w:18s} {k:14s} median {m['median']:.6g} {m['unit']:3s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}", flush=True)
    summary["env"].pop("seed", None)
    summary["env"].pop("workload", None)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
