#!/usr/bin/env python3
"""solvcirc benchmark: one workload per process.

    python3 benchmarks/run.py --workload evolve_saturation --seed 11 --seconds 30 --trace 0

Run from the repository root.  The workload's config is generated from the
seed; the run alternates set-up and run phases for about ``--seconds``,
checks every output row, and prints the environment, one line per
metric, and as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
with nothing wrapped; ``--trace 1`` alternates untraced passes with passes
that have spans around the library's public functions, and reports the
per-layer metrics.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_SHARE = 0.05
# evolve_wide's pass takes most of a run: on a slow host it must not drop to one
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "period_s_p50": "s",
    "period_s_p75": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span or count it is read from, kind)
PER_LAYER = {
    "evolve.config_s": ("s", "evolve.config", "self"),
    "evolve.brickwork_unitary_s": ("s", "evolve.brickwork_unitary", "self"),
    "evolve.step_s": ("s", "evolve.step", "self"),
    "evolve.step_calls": ("count", "evolve.step", "calls"),
    "evolve.invariant_residuals_s": ("s", "evolve.invariant_residuals", "self"),
    "evolve.entanglement_entropy_s": ("s", "evolve.entanglement_entropy", "self"),
    "evolve.local_expectation_s": ("s", "evolve.local_expectation", "self"),
    "channel.kraus_build_s": ("s", "channel.kraus_build", "self"),
    "channel.kraus_ops": ("count", "channel.kraus_ops", "count"),
    "channel.apply_s": ("s", "channel.apply", "self"),
    "channel.apply_calls": ("count", "channel.apply", "calls"),
    "solvable.check_left_s": ("s", "solvable.check_left", "self"),
    "solvable.check_calls": ("count", "solvable.check_left", "calls"),
    "gates.build_s": ("s", "gates.build", "self"),
    "mps.build_s": ("s", "mps.build", "self"),
    "cli.config_s": ("s", "cli.config", "self"),
    "linalg.von_neumann_entropy_s": ("s", "linalg.von_neumann_entropy", "self"),
    "linalg.trace_distance_s": ("s", "linalg.trace_distance", "self"),
    "oracle.initial_chain_s": ("s", "oracle.initial_chain", "self"),
    "oracle.evolve_chain_s": ("s", "oracle.evolve_chain", "self"),
    "oracle.gate_applications": ("count", "oracle.gate_applications", "count"),
    "oracle.amplitudes": ("count", "oracle.amplitudes", "count"),
    "oracle.bytes_moved_computed": ("B", "oracle.bytes_moved_computed", "count"),
    "renyi.transfer_build_s": ("s", "renyi.transfer_build", "self"),
    "renyi.transfer_build_calls": ("count", "renyi.transfer_build", "calls"),
    "renyi.transfer_dim_max": ("count", "renyi.transfer_dim_max", "count"),
    "renyi.dominant_eig_s": ("s", "renyi.dominant_eig", "self"),
    "renyi.trace_via_transfer_s": ("s", "renyi.trace_via_transfer", "self"),
    "renyi.temporal_s": ("s", "renyi.temporal", "self"),
}


def load_library():
    """Import solvcirc from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import solvcirc
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import solvcirc from {src}: {exc}")
    if Path(solvcirc.__file__).resolve().parent != (src / "solvcirc").resolve():
        raise SystemExit(f"benchmark: solvcirc was imported from {solvcirc.__file__}, "
                         f"not from {src}")


def measure(w, cfg: dict, seconds: float, check, tracer=None):
    """Set up and run repeatedly, at least MIN_PASSES times, and stop when
    one more repetition would end farther from ``seconds`` than stopping
    now, so that a run lasts ``seconds`` give or take half a repetition.

    Without a tracer, every pass is followed by further set-ups until the
    time of those and of the set-up before the pass reaches SETUP_SHARE of
    the pass's ``run_s``, so the set-up samples are spread over the whole
    run like the passes.  With a tracer, passes alternate untraced and
    traced, the wrappers installed only for the traced ones.  Each pass is
    checked as soon as it ends, outside the timed segments and with nothing
    wrapped.

    Returns the repetitions as (traced, Pass, failed rows) and the set-up
    times."""
    reps, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t_rep = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.rep = len(reps) // 2
            tracer.install()
        try:
            with tracer.span("bench.setup") if traced else nullcontext():
                t0 = time.perf_counter()
                objs = w.setup(cfg)
                setups.append(time.perf_counter() - t0)
            with tracer.span("bench.run") if traced else nullcontext():
                p = w.run(objs, tracer.paused if traced else nullcontext)
        finally:
            if traced:
                tracer.uninstall()
        del objs
        reps.append((traced, p, check(p)))
        if tracer is None:
            spent = setups[-1]
            while spent < SETUP_SHARE * p.run_s:
                t0 = time.perf_counter()
                objs = w.setup(cfg)
                setups.append(time.perf_counter() - t0)
                spent += setups[-1]
                del objs
        now = time.perf_counter()
        if len(reps) >= MIN_PASSES and now + (now - t_rep) / 2 >= deadline:
            return reps, setups


def end_to_end(reps, setups: list[float]) -> dict:
    periods = [x for _, p, _ in reps for x in p.periods]
    q = statistics.quantiles(periods, n=4, method="inclusive") if len(periods) > 1 \
        else [periods[0]] * 3
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for _, p, _ in reps),
        "period_s_p50": q[1],
        "period_s_p75": q[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, n_reps: int) -> tuple[dict, list[str]]:
    """Medians over traced repetitions of each span's self time; counts from
    the first traced repetition, which every other one must repeat."""
    sources = {"self": tracer.self_times(), "calls": tracer.calls(), "count": tracer.counts}
    problems = []
    out = {}
    for metric, (unit, key, kind) in PER_LAYER.items():
        src = sources[kind]
        per_rep = [src[rep].get(key, 0) if rep in src else 0 for rep in range(n_reps)]
        if kind == "self":
            value = statistics.median(per_rep)
        else:
            value = per_rep[0]
            if any(v != value for v in per_rep):
                problems.append(f"{metric} differs between repetitions: {per_rep}")
        out[metric] = {"value": value, "unit": unit}
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_library()
    import workloads
    from envrecord import environment
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    cfg = w.config(seed)
    env = environment(ROOT, w.name, seed)
    print(f"workload {w.name} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    ref = w.reference(cfg)  # untimed

    def check(p):
        return workloads.failed_rows(w, cfg, p, ref)

    problems = []
    if args.trace:
        tracer = Tracer(f"{w.name}-seed{seed}")
        reps, _ = measure(w, cfg, args.seconds, check, tracer)
        untraced = [p.run_s for traced, p, _ in reps if not traced]
        traced = [p.run_s for traced, p, _ in reps if traced]
        metrics, problems = per_layer(tracer, len(traced))
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        samples = f"{len(untraced)} untraced and {len(traced)} traced passes, alternating"
    else:
        reps, setups = measure(w, cfg, args.seconds, check)
        metrics = end_to_end(reps, setups)
        samples = (f"setup_s over {len(setups)} set-ups, run_s over {len(reps)} passes, "
                   f"period_s_* over {sum(len(p.periods) for _, p, _ in reps)} periods")

    attempted = sum(p.expected_rows for _, p, _ in reps)
    failed = sum(f for _, _, f in reps)
    problems += [e for _, p, _ in reps for e in p.errors]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({"env": env, "config": cfg, "repetitions": len(reps),
                   "problems": problems, **result}, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'samples':32s} {samples}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} ({failed} of {attempted} rows)")
    for msg in problems:
        print(f"problem: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
