"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks/tests -q

They take one to two minutes: the call-count test runs every workload at
full size, twice.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from solvcirc import cli  # noqa: E402
from solvcirc import evolve as ev  # noqa: E402
from spans import Tracer  # noqa: E402


def _reduced(name: str) -> dict:
    cfg = wl.WORKLOADS[name].config(wl.WORKLOADS[name].default_seed)
    if name == "evolve_saturation":
        cfg["tmax"] = 3
    elif name == "evolve_wide":
        cfg.update(l_r=4, right_state={"product": [0] * 4},
                   observables=[{"site": 0, "op": "pauli:3"}, {"site": 3, "op": "pauli:1"}])
    elif name == "oracle_chain":
        cfg.update(l_left=6, tmax=3)
    else:
        cfg.update(n_list=[2, 3], t_list=[1, 2], temporal_t=[1])
    return cfg


def _cli_csv(tmp_path: Path, command: str, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return out.read_text()


def _csv(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@pytest.mark.parametrize("name,command", [("evolve_saturation", "evolve"),
                                          ("evolve_wide", "evolve"),
                                          ("oracle_chain", "oracle"),
                                          ("renyi_replica", "renyi")])
def test_rows_equal_cli_csv(tmp_path, name, command):
    w = wl.WORKLOADS[name]
    cfg = _reduced(name)
    p = w.run(w.setup(cfg))
    assert not p.errors
    header = {"evolve": wl.evolve_header(cfg), "oracle": wl.ORACLE_HEADER,
              "renyi": wl.RENYI_HEADER}[command]
    rows = p.rows[:len(cfg["n_list"]) * len(cfg["t_list"])] if command == "renyi" else p.rows
    assert _csv(header, rows) == _cli_csv(tmp_path, command, cfg)
    assert wl.failed_rows(w, cfg, p, w.reference(cfg)) == 0


def test_default_seeds_reproduce_shipped_configs():
    shipped = json.loads((ROOT / "configs" / "entropy_saturation.json").read_text())
    assert wl.config_evolve_saturation(11) == shipped
    shipped = json.loads((ROOT / "configs" / "renyi_cluster.json").read_text())
    generated = wl.config_renyi_replica(7)
    drop = ("n_list", "temporal_t")
    assert {k: v for k, v in generated.items() if k not in drop} == \
        {k: v for k, v in shipped.items() if k not in drop}


def test_same_seed_same_config():
    for w in wl.WORKLOADS.values():
        assert w.config(5) == w.config(5)


def test_span_file_nests_and_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle_chain",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER) | {"trace_overhead"}
    spans = [json.loads(line) for line in
             (BENCH / "out" / "spans-oracle_chain-seed3-trace1.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans) > 0
    names = {s["name"] for s in spans}
    assert {"bench.setup", "bench.run", "oracle.evolve_chain",
            "oracle.initial_chain", "evolve.step"} <= names
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["rep"] == s["rep"]


def _traced_counts(name: str, seed: int) -> tuple[dict, int]:
    """One untraced and one traced pass, as the traced mode makes them."""
    w = wl.WORKLOADS[name]
    cfg = w.config(seed)
    tracer = Tracer(f"{name}-{seed}")
    originals = (ev.step, ev.JointState.invariant_residuals)
    ref = w.reference(cfg)
    reps, _ = run.measure(w, cfg, 0, lambda p: wl.failed_rows(w, cfg, p, ref), tracer)
    assert (ev.step, ev.JointState.invariant_residuals) == originals
    assert [traced for traced, _, _ in reps] == [False, True]
    metrics, problems = run.per_layer(tracer, 1)
    assert not problems
    failed = sum(f for _, _, f in reps)
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")}
    return counts, failed


@pytest.mark.parametrize("name,expected", [
    ("evolve_saturation", {"evolve.step_calls": 40, "channel.apply_calls": 40,
                           "solvable.check_calls": 1, "channel.kraus_ops": 16}),
    ("evolve_wide", {"evolve.step_calls": 2, "channel.apply_calls": 2,
                     "oracle.gate_applications": 0}),
    ("oracle_chain", {"oracle.gate_applications": 144, "oracle.amplitudes": 2 ** 20,
                      "oracle.bytes_moved_computed": 144 * 2 ** 20 * 32,
                      "evolve.step_calls": 8}),
    ("renyi_replica", {"renyi.transfer_build_calls": 20, "renyi.transfer_dim_max": 1024,
                       "evolve.step_calls": 0}),
])
def test_counts_repeat_and_second_seed_passes(name, expected):
    """Counts are the same for the default seed and for seed 22, and seed 22
    passes every correctness check."""
    first, failed_default = _traced_counts(name, wl.WORKLOADS[name].default_seed)
    second, failed_22 = _traced_counts(name, 22)
    assert first == second
    assert {k: first[k] for k in expected} == expected
    assert failed_default == 0 and failed_22 == 0


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result line."""
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "oracle_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
