"""Batch front-end: configuration parsing, subcommand dispatch, deterministic
experiment runs, CSV/JSON emission.

Exit codes: 0 success, 1 quantitative failure, 2 configuration error,
3 capacity error.  All randomness flows from one config-level seed: the
gate's generator is child 0 of numpy's SeedSequence(seed) unless the gate
carries its own seed.  The SOLVCIRC_CAP environment variable overrides the
capacity caps: the chain oracle's amplitudes and the engine's joint
density-matrix entries.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import evolve as ev
from . import oracle as orc
from . import renyi as ry
from . import serialize as ser
from .errors import CapacityError, DominanceError, NumericalDriftError, PositivityError
from .gates import EXPLICIT_FAMILIES, TwoSiteGate, random_gate
from .linalg import PAULI, make_rng, renyi_trace, trace_distance, von_neumann_entropy
from .mps import MpsTensor, ghz_cluster_family, product_state_mps
from .serialize import json_float, json_int
from .solvable import check_solvable_left, solvability_report, verify_im_fixed_point

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

# Checked in order, so the numerical ValueError subclasses come before the
# configuration errors.
EXIT_TABLE = (
    ((NumericalDriftError, DominanceError, PositivityError, np.linalg.LinAlgError),
     EXIT_FAIL, "numerical error"),
    ((CapacityError,), EXIT_CAPACITY, "capacity error"),
    ((ValueError, KeyError, TypeError, OSError), EXIT_CONFIG, "configuration error"),
)

SCHEMA_VERSIONS = ("1",)

# The keys a config may hold in each object; any other key is a
# configuration error, so a misspelt optional key is not silently ignored.
# A gate's explicit ``params`` may hold its family's parameter names.
# ``temporal_t`` (the temporal-state t list) is read by the benchmark's renyi
# workload, whose config runs through `solvcirc renyi` in its tests; the
# CLI only checks that it lists integers.
CONFIG_KEYS = {
    "config": {"version", "seed", "gate", "mps", "right_state", "l_r", "tmax", "l_left",
               "n_list", "t_list", "temporal_t", "observables", "layer_order", "purify"},
    "gate": {"family", "q", "qt", "seed", "params", "file"},
    "mps": {"family", "q", "theta", "ket", "file"},
    "right_state": {"product", "kets", "mps_continuation"},
    "observable": {"site", "op"},
}


def _json_int_list(value, name: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of integers, got {json.dumps(value)}")
    return [json_int(v, f"{name} entry") for v in value]


def _json_bool(value, name: str) -> bool:
    """A config field that must be JSON true or false, not any truthy value."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {json.dumps(value)}")
    return value


def _json_ket(value, name: str) -> np.ndarray:
    """A ket written as a list of [re, im] pairs of JSON numbers."""
    entry = f"{name} entry"
    return np.array([complex(json_float(re, entry), json_float(im, entry))
                     for re, im in value])


def _section(cfg: dict, key: str) -> dict:
    """A config section that must be a JSON object."""
    value = cfg[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {json.dumps(value)}")
    return value


def _capacity_cap(default: int) -> int:
    env = os.environ.get("SOLVCIRC_CAP")
    return int(env) if env else default


def _check_keys(node, allowed, where: str):
    """ValueError naming the keys of ``node`` outside ``allowed``; a node
    that is not an object is left to the field's own check."""
    unknown = sorted(set(node) - allowed) if isinstance(node, dict) else []
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")


def load_config(path: str, seed_override: int | None = None) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}")
    version = str(cfg.get("version", ""))
    if version not in SCHEMA_VERSIONS:
        raise ValueError(f"unrecognized config schema version {version!r}")
    _check_keys(cfg, CONFIG_KEYS["config"], "config")
    _json_int_list(cfg.get("temporal_t", []), "temporal_t")
    for key in ("gate", "mps", "right_state"):
        _check_keys(cfg.get(key), CONFIG_KEYS[key], key)
    gate = cfg.get("gate")
    if isinstance(gate, dict) and gate.get("family") in EXPLICIT_FAMILIES:
        _check_keys(gate.get("params"), set(EXPLICIT_FAMILIES[gate["family"]][1]), "gate params")
    observables = cfg.get("observables")
    for o in observables if isinstance(observables, list) else []:
        _check_keys(o, CONFIG_KEYS["observable"], "observable")
    if seed_override is not None:
        cfg["seed"] = seed_override
        if "gate" in cfg and "seed" in cfg["gate"]:
            cfg["gate"]["seed"] = seed_override
    return cfg


def _gate_rng(cfg: dict, gate_spec: dict) -> np.random.Generator:
    if gate_spec.get("seed") is not None:
        return make_rng(json_int(gate_spec["seed"], "gate seed"))
    base = json_int(cfg.get("seed", 0), "seed")
    child = np.random.SeedSequence(base).spawn(1)[0]
    return np.random.default_rng(child)


def build_gate(cfg: dict) -> TwoSiteGate:
    spec = _section(cfg, "gate")
    if "file" in spec:
        with open(spec["file"]) as fh:
            return ser.gate_from_json(json.load(fh))
    family = spec["family"]
    if "params" in spec:
        if family not in EXPLICIT_FAMILIES:
            raise ValueError(f"family {family!r} does not accept explicit params")
        builder, names = EXPLICIT_FAMILIES[family]
        # a scalar must be a finite number; a matrix is checked as it is decoded
        p = {k: ser.param_from_json(v) if isinstance(v, (dict, list))
             else json_float(v, f"gate param {k}") for k, v in _section(spec, "params").items()}
        return builder(*[json_int(spec[n], f"gate {n}") if n in ("q", "qt") else p[n]
                         for n in names])
    rng = _gate_rng(cfg, spec)
    return random_gate(family, rng, q=json_int(spec.get("q", 2), "gate q"),
                       qt=json_int(spec.get("qt", 2), "gate qt"), seed=spec.get("seed"))


def build_mps(cfg: dict):
    spec = _section(cfg, "mps")
    if "file" in spec:
        with open(spec["file"]) as fh:
            return ser.left_state_from_json(json.load(fh))
    family = spec["family"]
    if family == "ghz_cluster":
        return ghz_cluster_family(json_float(spec["theta"], "mps theta"),
                                  json_int(spec["q"], "mps q"))
    if family == "product":
        return product_state_mps(_json_ket(spec["ket"], "mps ket"))
    raise ValueError(f"unknown mps family {family!r}")


def build_right_kets(cfg: dict, mps, l_r: int) -> np.ndarray:
    spec = _section(cfg, "right_state")
    q, chi = mps.q, mps.chi
    if "product" in spec:
        levels = _json_int_list(spec["product"], "right_state product")
        if len(levels) != l_r:
            raise ValueError(f"product right state must list {l_r} levels")
        ket = np.zeros(q ** l_r, dtype=complex)
        idx = 0
        for lv in levels:
            if not 0 <= lv < q:
                raise ValueError(f"level {lv} out of range for q={q}")
            idx = idx * q + lv
        ket[idx] = 1.0
        return np.tile(ket, (chi, 1))
    if "kets" in spec:
        kets = np.stack([_json_ket(k, "right_state ket") for k in spec["kets"]])
        if kets.shape != (chi, q ** l_r):
            raise ValueError(f"kets must have shape ({chi}, {q ** l_r})")
        return kets
    if _json_bool(spec.get("mps_continuation", False), "right_state mps_continuation"):
        if not isinstance(mps, MpsTensor):
            raise ValueError("mps_continuation requires a one-site MPS left state")
        return ev.mps_continuation_kets(mps, l_r)
    raise ValueError("right_state needs 'product', 'kets' or 'mps_continuation'")


def build_engine(cfg: dict, gate: TwoSiteGate, mps) -> ev.EvolutionConfig:
    """The engine config, its size checked against the capacity cap before
    the q^l_r right kets are built."""
    l_r = json_int(cfg["l_r"], "l_r")
    tmax = json_int(cfg["tmax"], "tmax")
    cap = _capacity_cap(ev.DENSITY_ENTRY_CAP)
    ev.joint_dimension(mps.chi, mps.q, l_r, cap)
    kets = build_right_kets(cfg, mps, l_r)
    return ev.EvolutionConfig(gate, mps, kets, l_r, tmax, cap=cap)


def build_observables(cfg: dict, q: int) -> list[tuple[int, str, np.ndarray]]:
    """(site, tag, matrix) per configured observable, sites checked against
    l_r before any engine is built."""
    l_r = json_int(cfg["l_r"], "l_r")
    obs = []
    for o in cfg.get("observables", []):
        site, tag = json_int(o["site"], "observable site"), o["op"]
        if not 0 <= site < l_r:
            raise ValueError(f"observable site {site} out of range for l_r={l_r}")
        if not isinstance(tag, str):
            raise ValueError(f"observable op must be a string, got {json.dumps(tag)}")
        obs.append((site, tag, parse_observable(tag, q)))
    return obs


def parse_observable(tag: str, q: int) -> np.ndarray:
    kind, _, arg = tag.partition(":")
    if kind == "proj":
        k = int(arg)
        if not 0 <= k < q:
            raise ValueError(f"proj level {k} out of range for q={q}")
        m = np.zeros((q, q), dtype=complex)
        m[k, k] = 1.0
        return m
    if kind == "pauli":
        if q != 2:
            raise ValueError("pauli observables require q=2")
        i = int(arg)
        if i not in (1, 2, 3):
            raise ValueError("pauli index must be 1, 2 or 3")
        return PAULI[i]
    if kind == "diag":
        vals = [float(x) for x in arg.split(",")]
        if len(vals) != q:
            raise ValueError(f"diag needs {q} entries")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"diag entries must be finite, got {arg!r}")
        return np.diag(vals).astype(complex)
    raise ValueError(f"unknown observable {tag!r}")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]):
    """Minimal quoting: only a field holding a comma (a ``diag:v0,v1`` tag)
    is quoted."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config, args.seed)
    gate = build_gate(cfg)
    mps = build_mps(cfg)
    report = solvability_report(gate, mps)
    print(json.dumps(report.to_dict(), indent=2))
    required = args.require.split(",")
    values = {
        "left": report.left_residual,
        "right": report.right_residual,
        "dual": report.dual_unitarity_residual,
        "soliton": report.soliton_residual,
    }
    for key in required:
        if key not in values:
            raise ValueError(f"unknown residual {key!r} in --require")
        val = values[key]
        if val is None:
            raise ValueError(f"residual {key!r} undefined for q={gate.q}")
        if not val < args.tol:
            return EXIT_FAIL
    return EXIT_OK


def cmd_gen_gate(args) -> int:
    rng = make_rng(args.seed)
    gate = random_gate(args.family, rng, q=args.q, qt=args.qt, seed=args.seed)
    payload = ser.gate_to_json(gate)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg = load_config(args.config, args.seed)
    gate = build_gate(cfg)
    mps = build_mps(cfg)
    obs = build_observables(cfg, gate.q)
    econf = build_engine(cfg, gate, mps)
    header = ["t", "S_ent", "trace_residual", "min_eig"] + \
             [f"site{site}:{tag}" for site, tag, _ in obs]
    rows = []
    try:
        for state in ev.states(econf):
            res = state.invariant_residuals()
            row = [str(state.t), _fmt(ev.entanglement_entropy(state)),
                   _fmt(res["trace"]), _fmt(res["min_eig"])]
            row += [_fmt(ev.local_expectation(state, site, op)) for site, _, op in obs]
            rows.append(row)
    except NumericalDriftError as exc:
        print(f"numerical drift: {exc}", file=sys.stderr)
        _write_csv(args.out, header, rows)
        return EXIT_FAIL
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = load_config(args.config, args.seed)
    gate = build_gate(cfg)
    mps = build_mps(cfg)
    if not isinstance(mps, MpsTensor):
        raise ValueError("the chain oracle supports one-site MPS left states")
    econf = build_engine(cfg, gate, mps)
    layer_order = args.layer_order or cfg.get("layer_order", "even_first")
    l_left = json_int(cfg["l_left"], "l_left")
    spec = orc.ChainSpec(gate, mps, econf.right_kets, l_left, econf.l_r,
                         econf.tmax, layer_order=layer_order,
                         purify=_json_bool(cfg.get("purify", True), "purify"),
                         cap=_capacity_cap(orc.DEFAULT_AMPLITUDE_CAP))
    chain = orc.evolve_chain(spec)
    header = ["t", "trace_distance", "oracle_entropy", "engine_entropy"]
    rows = []
    worst = 0.0
    for state, oracle_rho in zip(ev.states(econf), chain):
        engine_rho = ev.subsystem_density(state)
        dist = trace_distance(oracle_rho, engine_rho)
        worst = max(worst, dist)
        rows.append([str(state.t), _fmt(dist), _fmt(von_neumann_entropy(oracle_rho)),
                     _fmt(von_neumann_entropy(engine_rho))])
    _write_csv(args.out, header, rows)
    return EXIT_OK if worst < args.tol else EXIT_FAIL


def cmd_renyi(args) -> int:
    cfg = load_config(args.config, args.seed)
    mps = build_mps(cfg)
    if not isinstance(mps, MpsTensor):
        raise ValueError("renyi machinery requires a one-site MPS")
    n_list = _json_int_list(cfg.get("n_list", [2]), "n_list")
    t_list = _json_int_list(cfg.get("t_list", [1, 2]), "t_list")
    if args.oracle and "gate" not in cfg:
        raise ValueError("--oracle requires a gate in the config")
    gate = build_gate(cfg) if "gate" in cfg else None
    header = ["n", "t", "trace_via_transfer", "trace_via_oracle", "lambda_n", "v_E"]
    rows = []
    failed = False
    cap = _capacity_cap(orc.DEFAULT_AMPLITUDE_CAP)
    rhos = {}  # the oracle's rho_R(t), evolved once per t for every n
    for n in n_list:
        try:
            lam = ry.dominant_eigenvalue(ry.transfer_matrix(mps, n))
            lam_s, v_s = _fmt(lam), _fmt(ry.velocity_from_eigenvalue(lam, n, mps.q))
        except DominanceError as exc:
            print(f"dominance error at n={n}: {_one_line(exc)}", file=sys.stderr)
            lam_s, v_s = "nan", "nan"
            failed = True
        for t in t_list:
            try:
                tv = _fmt(ry.renyi_trace_via_transfer(mps, n, t))
            except DominanceError as exc:
                print(f"dominance error at n={n}, t={t}: {_one_line(exc)}",
                      file=sys.stderr)
                tv = "nan"
                failed = True
            if args.oracle and t not in rhos:
                rhos[t] = orc.renyi_chain_density(gate, mps, t, cap=cap)
            ov = _fmt(renyi_trace(rhos[t], n)) if args.oracle else ""
            rows.append([str(n), str(t), tv, ov, lam_s, v_s])
    _write_csv(args.out, header, rows)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_fixed_point(args) -> int:
    cfg = load_config(args.config, args.seed)
    gate = build_gate(cfg)
    mps = build_mps(cfg)
    if not isinstance(mps, MpsTensor):
        raise ValueError("fixed-point check requires a one-site MPS")
    tsteps = args.tsteps if args.tsteps is not None else json_int(cfg.get("tmax", 2), "tmax")
    solv = check_solvable_left(gate, mps)
    resid = verify_im_fixed_point(gate, mps, tsteps)
    print(json.dumps({"tsteps": tsteps, "solvable_left_residual": solv,
                      "fixed_point_residual": resid}, indent=2))
    return EXIT_OK if resid < args.tol else EXIT_FAIL


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="solvcirc",
                                description="solvable brickwork circuit toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    config.add_argument("--seed", type=int,
                        help="override the config-level seed")

    c = sub.add_parser("check", parents=[config],
                       help="solvability report for a gate/MPS pair")
    c.add_argument("--tol", type=float, default=1e-8)
    c.add_argument("--require", default="left",
                   help="comma list among left,right,soliton,dual")
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gen-gate", help="sample a gate family member to JSON")
    g.add_argument("--family", required=True)
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--qt", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_gate)

    e = sub.add_parser("evolve", parents=[config], help="hidden-Markov evolution to CSV")
    e.add_argument("--out")
    e.set_defaults(func=cmd_evolve)

    o = sub.add_parser("oracle", parents=[config], help="engine vs full-chain cross validation")
    o.add_argument("--tol", type=float, default=1e-9)
    o.add_argument("--layer-order", choices=["even_first", "odd_first"])
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)

    r = sub.add_parser("renyi", parents=[config], help="replica transfer-matrix quantities to CSV")
    r.add_argument("--oracle", action="store_true",
                   help="add brute-force chain cross-check column")
    r.add_argument("--out")
    r.set_defaults(func=cmd_renyi)

    f = sub.add_parser("fixed-point", parents=[config],
                       help="influence-matrix fixed-point residual")
    f.add_argument("--tol", type=float, default=1e-8)
    f.add_argument("--tsteps", type=int)
    f.set_defaults(func=cmd_fixed_point)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # check, oracle and fixed-point fail a residual >= --tol: a NaN
        # tolerance would pass every residual
        if not 0 < getattr(args, "tol", 1.0) <= sys.float_info.max:
            raise ValueError(f"--tol must be a finite number > 0, got {args.tol}")
        return args.func(args)
    except tuple(c for classes, _, _ in EXIT_TABLE for c in classes) as exc:
        code, label = next((code, label) for classes, code, label in EXIT_TABLE
                           if isinstance(exc, classes))
        print(f"{label}: {_one_line(exc)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
