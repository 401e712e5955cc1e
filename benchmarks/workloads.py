"""The benchmark's four workloads.

Each workload turns a seed into a config dict in the CLI schema (the same
keys as the files under ``configs/``), builds the library objects from it
(the set-up phase), and runs the per-row sequence of one ``solvcirc``
subcommand (the run phase).  Rows are formatted exactly as the CLI formats
its CSV, so a pass can be compared with the subcommand's output.  The checks
that decide whether a row is correct run outside the timed phases.

Every library call goes through a module attribute (``ev.step``,
``ry.transfer_matrix``, ...), so the traced mode can wrap those attributes.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from solvcirc import cli
from solvcirc import evolve as ev
from solvcirc import linalg as la
from solvcirc import oracle as orc
from solvcirc import renyi as ry
from solvcirc.errors import DominanceError

QUARTER_PI = math.pi / 4
FOUR_LN2 = 4 * math.log(2)

TRACE_RESIDUAL_MAX = 1e-8
MIN_EIG_MIN = -1e-10
SATURATION_TOL = 1e-3
ORACLE_DISTANCE_MAX = 1e-10
RENYI_REL_TOL = 1e-8
VELOCITY_RANGE = (-1e-8, 2 + 1e-8)


def fmt(x: float) -> str:
    """The CLI's CSV number format."""
    return f"{x:.12e}"


@dataclass
class Pass:
    """One run phase: formatted rows (None for a row that raised), the
    errors raised, and what the checks need (``extra``).  ``run_s`` is every
    timed segment of the pass summed.  ``periods`` holds the samples of the
    workload's repeating unit: one engine period (a row that steps the
    state) for evolve; the whole pass for oracle and renyi, whose
    subcommands emit their table only once every row is done."""

    rows: list[list[str] | None] = field(default_factory=list)
    periods: list[float] = field(default_factory=list)
    run_s: float = 0.0
    expected_rows: int = 0
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# evolve: the `solvcirc evolve` per-period sequence
# ---------------------------------------------------------------------------

@dataclass
class EvolveSetup:
    econf: ev.EvolutionConfig
    obs: list
    state: ev.JointState


def evolve_setup(cfg: dict) -> EvolveSetup:
    gate = cli.build_gate(cfg)
    mps = cli.build_mps(cfg)
    l_r = int(cfg["l_r"])
    kets = cli.build_right_kets(cfg, mps, l_r)
    econf = ev.EvolutionConfig(gate, mps, kets, l_r, int(cfg["tmax"]))
    obs = [(int(o["site"]), o["op"], cli.parse_observable(o["op"], gate.q))
           for o in cfg.get("observables", [])]
    return EvolveSetup(econf, obs, ev.initial_joint_state(econf))


def evolve_header(cfg: dict) -> list[str]:
    return (["t", "S_ent", "trace_residual", "min_eig"]
            + [f"site{o['site']}:{o['op']}" for o in cfg.get("observables", [])])


def evolve_pass(s: EvolveSetup, untimed=nullcontext, probe=None) -> Pass:
    """Rows t = 0..tmax; row t reports the state at t and then steps it.

    ``probe(econf, t, state)``, when given, runs at the start of each row,
    before its timed segment and inside ``untimed()``; it returns a float for
    the check, so no matrix outlives its row.
    """
    tmax = s.econf.tmax
    out = Pass(expected_rows=tmax + 1, extra={"probe": []})
    state = s.state
    try:
        for t in range(tmax + 1):
            if probe is not None:
                with untimed():
                    out.extra["probe"].append(probe(s.econf, t, state))
            t0 = time.perf_counter()
            res = state.invariant_residuals()
            row = [str(t), fmt(ev.entanglement_entropy(state)),
                   fmt(res["trace"]), fmt(res["min_eig"])]
            row += [fmt(ev.local_expectation(state, site, op)) for site, _, op in s.obs]
            nxt = ev.step(state, s.econf) if t < tmax else None
            dt = time.perf_counter() - t0
            out.rows.append(row)
            out.run_s += dt
            if t < tmax:
                out.periods.append(dt)
            state = nxt
    except Exception as exc:  # a failed row is counted, not fatal
        out.errors.append(f"t={len(out.rows)}: {type(exc).__name__}: {exc}")
    return out


def _evolve_row_ok(row: list[str]) -> bool:
    return float(row[2]) <= TRACE_RESIDUAL_MAX and float(row[3]) >= MIN_EIG_MIN


def check_evolve_saturation(cfg: dict, p: Pass, ref) -> list[bool]:
    ok = [_evolve_row_ok(r) for r in p.rows]
    late = range(20, 41)
    if len(p.rows) > 40:
        mean = float(np.mean([float(p.rows[t][1]) for t in late]))
        if abs(mean - FOUR_LN2) > SATURATION_TOL:
            for t in late:
                ok[t] = False
    return ok


def oracle_distance(econf: ev.EvolutionConfig, t: int, state: ev.JointState) -> float:
    """Trace distance between the engine's rho_R(t) and that of an exact
    chain evolved t periods, at the smallest margin the lightcone of the
    whole run allows, l_left = 2 tmax (4 on evolve_wide: 2^15 amplitudes).
    The chain is rebuilt for each t, so it never lives during a step."""
    spec = orc.ChainSpec(econf.gate, econf.mps, econf.right_kets,
                         2 * econf.tmax, econf.l_r, t)
    return la.trace_distance(orc.evolve_chain(spec)[t], ev.subsystem_density(state))


def check_evolve_wide(cfg: dict, p: Pass, ref) -> list[bool]:
    ok = [_evolve_row_ok(r) for r in p.rows]
    for t, dist in enumerate(p.extra["probe"]):
        if not dist < ORACLE_DISTANCE_MAX:
            ok[t] = False
    return ok


# ---------------------------------------------------------------------------
# oracle: the `solvcirc oracle` sequence
# ---------------------------------------------------------------------------

@dataclass
class OracleSetup:
    spec: orc.ChainSpec
    econf: ev.EvolutionConfig
    state: ev.JointState


def oracle_setup(cfg: dict) -> OracleSetup:
    gate = cli.build_gate(cfg)
    mps = cli.build_mps(cfg)
    l_r, tmax = int(cfg["l_r"]), int(cfg["tmax"])
    kets = cli.build_right_kets(cfg, mps, l_r)
    spec = orc.ChainSpec(gate, mps, kets, int(cfg["l_left"]), l_r, tmax)
    econf = ev.EvolutionConfig(gate, mps, kets, l_r, tmax)
    return OracleSetup(spec, econf, ev.initial_joint_state(econf))


ORACLE_HEADER = ["t", "trace_distance", "oracle_entropy", "engine_entropy"]


def oracle_pass(s: OracleSetup, untimed=nullcontext) -> Pass:
    """The chain evolution (timed as one segment), then one row per t."""
    tmax = s.spec.tmax
    out = Pass(expected_rows=tmax + 1)
    state = s.state
    try:
        t0 = time.perf_counter()
        chain = orc.evolve_chain(s.spec)
        out.run_s = time.perf_counter() - t0
        for t in range(tmax + 1):
            t0 = time.perf_counter()
            engine_rho = ev.subsystem_density(state)
            dist = la.trace_distance(chain[t], engine_rho)
            row = [str(t), fmt(dist), fmt(la.von_neumann_entropy(chain[t])),
                   fmt(la.von_neumann_entropy(engine_rho))]
            if t < tmax:
                state = ev.step(state, s.econf)
            out.run_s += time.perf_counter() - t0
            out.rows.append(row)
    except Exception as exc:  # a failed row is counted, not fatal
        out.errors.append(f"t={len(out.rows)}: {type(exc).__name__}: {exc}")
    out.periods.append(out.run_s)
    return out


def check_oracle(cfg: dict, p: Pass, ref) -> list[bool]:
    return [float(r[1]) < ORACLE_DISTANCE_MAX for r in p.rows]


# ---------------------------------------------------------------------------
# renyi: `solvcirc renyi` without --oracle, then the temporal state
# ---------------------------------------------------------------------------

@dataclass
class RenyiSetup:
    mps: object
    n_list: list[int]
    t_list: list[int]
    temporal_t: list[int]


RENYI_HEADER = ["n", "t", "trace_via_transfer", "trace_via_oracle", "lambda_n", "v_E"]


def renyi_setup(cfg: dict) -> RenyiSetup:
    mps = cli.build_mps(cfg)
    if "gate" in cfg:
        cli.build_gate(cfg)  # the CLI builds the gate whenever the config has one
    return RenyiSetup(mps, [int(n) for n in cfg["n_list"]],
                      [int(t) for t in cfg["t_list"]],
                      [int(t) for t in cfg["temporal_t"]])


def renyi_pass(s: RenyiSetup, untimed=nullcontext) -> Pass:
    """Rows (n, t) as `solvcirc renyi` tabulates them (lambda_n and v_E are
    computed in the first row of each n), then one row per temporal t with
    the temporal-state entropy and its Renyi traces for every n."""
    out = Pass(expected_rows=len(s.n_list) * len(s.t_list) + len(s.temporal_t))
    for n in s.n_list:
        spectral = None
        for t in s.t_list:
            t0 = time.perf_counter()
            try:
                if spectral is None:
                    try:
                        lam = ry.dominant_eigenvalue(ry.transfer_matrix(s.mps, n))
                        v = ry.entanglement_velocity(s.mps, n)
                        spectral = (fmt(lam), fmt(v))
                    except DominanceError as exc:
                        out.errors.append(f"n={n}: {exc}")
                        spectral = ("nan", "nan")
                tv = ry.renyi_trace_via_transfer(s.mps, n, t)
                row = [str(n), str(t), fmt(tv), "", *spectral]
            except Exception as exc:  # a failed row is counted, not fatal
                out.errors.append(f"n={n} t={t}: {type(exc).__name__}: {exc}")
                row = None
            out.run_s += time.perf_counter() - t0
            out.rows.append(row)
    for t in s.temporal_t:
        t0 = time.perf_counter()
        try:
            row = [str(t), fmt(ry.temporal_state_entropy(s.mps, t))]
            row += [fmt(ry.temporal_renyi_trace(s.mps, n, t)) for n in s.n_list]
        except Exception as exc:  # a failed row is counted, not fatal
            out.errors.append(f"temporal t={t}: {type(exc).__name__}: {exc}")
            row = None
        out.run_s += time.perf_counter() - t0
        out.rows.append(row)
    out.periods.append(out.run_s)
    return out


def renyi_reference(cfg: dict) -> dict:
    """Transfer-matrix traces for the temporal t that the (n, t) table does
    not cover, so every temporal row has a transfer value to agree with."""
    mps = cli.build_mps(cfg)
    return {(int(n), int(t)): ry.renyi_trace_via_transfer(mps, int(n), int(t))
            for n in cfg["n_list"] for t in cfg["temporal_t"]
            if int(t) not in cfg["t_list"]}


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= RENYI_REL_TOL * max(abs(a), abs(b))


def check_renyi(cfg: dict, p: Pass, ref: dict) -> list[bool]:
    n_list = [int(n) for n in cfg["n_list"]]
    t_list = [int(t) for t in cfg["t_list"]]
    temporal_t = [int(t) for t in cfg["temporal_t"]]
    n_rows = len(n_list) * len(t_list)
    table, temporal = p.rows[:n_rows], p.rows[n_rows:]
    transfer = dict(ref)
    for row in table:
        if row is not None:
            transfer[(int(row[0]), int(row[1]))] = float(row[2])
    temporal_traces = {}
    ok = []
    for t, row in zip(temporal_t, temporal):
        good = row is not None
        if good:
            dim = int(cfg["mps"]["q"]) ** (2 * t) * 2  # odd half; GHZ-cluster chi = 2
            s_t = float(row[1])
            good = -1e-12 <= s_t <= math.log(dim) + 1e-12
            for n, cell in zip(n_list, row[2:]):
                temporal_traces[(n, t)] = float(cell)
                good &= (n, t) in transfer and _rel_close(float(cell), transfer[(n, t)])
        ok.append(good)
    table_ok = []
    for row in table:
        good = row is not None and "nan" not in row[4:]
        if good:
            n, t = int(row[0]), int(row[1])
            v = float(row[5])
            good = VELOCITY_RANGE[0] <= v <= VELOCITY_RANGE[1]
            if (n, t) in temporal_traces:
                good &= _rel_close(float(row[2]), temporal_traces[(n, t)])
        table_ok.append(good)
    return table_ok + ok


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

def _ghz(q: int) -> dict:
    return {"family": "ghz_cluster", "q": q, "theta": QUARTER_PI}


def config_evolve_saturation(seed: int) -> dict:
    """configs/entropy_saturation.json at seed 11."""
    return {"version": "1", "seed": seed,
            "gate": {"family": "general", "q": 4, "qt": 2, "seed": seed},
            "mps": _ghz(4),
            "right_state": {"product": [2, 2, 2, 2]},
            "l_r": 4, "tmax": 40,
            "observables": [{"site": 0, "op": "proj:2"}, {"site": 3, "op": "proj:2"}]}


def config_evolve_wide(seed: int) -> dict:
    return {"version": "1", "seed": seed,
            "gate": {"family": "q2_qt2", "seed": seed},
            "mps": _ghz(2),
            "right_state": {"product": [0] * 10},
            "l_r": 10, "tmax": 2,
            "observables": [{"site": 0, "op": "pauli:3"}, {"site": 9, "op": "pauli:3"}]}


def config_oracle_chain(seed: int) -> dict:
    return {"version": "1", "seed": seed,
            "gate": {"family": "q2_qt2", "seed": seed},
            "mps": _ghz(2),
            "right_state": {"product": [0, 0, 0]},
            "l_r": 3, "tmax": 8, "l_left": 16}


def config_renyi_replica(seed: int) -> dict:
    """configs/renyi_cluster.json at seed 7, with n = 2..5 and the temporal
    t list added.  The transfer quantities do not depend on the gate, so
    every seed computes the same numbers."""
    return {"version": "1", "seed": seed,
            "gate": {"family": "swap", "q": 2},
            "mps": _ghz(2),
            "right_state": {"mps_continuation": True},
            "l_r": 4, "tmax": 2, "l_left": 8,
            "n_list": [2, 3, 4, 5], "t_list": [1, 2, 3],
            "temporal_t": [1, 2, 3, 4]}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    config: object      # seed -> config dict
    setup: object       # config -> set-up objects
    run: object         # (set-up objects, untimed context) -> Pass
    reference: object   # config -> untimed reference data for the check
    check: object       # (config, Pass, reference) -> per-row ok flags


WORKLOADS = {
    w.name: w for w in (
        Workload("evolve_saturation", 11, config_evolve_saturation, evolve_setup,
                 evolve_pass, lambda cfg: None, check_evolve_saturation),
        Workload("evolve_wide", 101, config_evolve_wide, evolve_setup,
                 lambda s, untimed=nullcontext: evolve_pass(s, untimed, oracle_distance),
                 lambda cfg: None, check_evolve_wide),
        Workload("oracle_chain", 101, config_oracle_chain, oracle_setup,
                 oracle_pass, lambda cfg: None, check_oracle),
        Workload("renyi_replica", 7, config_renyi_replica, renyi_setup,
                 renyi_pass, renyi_reference, check_renyi),
    )
}


def failed_rows(w: Workload, cfg: dict, p: Pass, ref) -> int:
    """Rows whose check failed, plus rows never produced because a call raised."""
    return sum(not ok for ok in w.check(cfg, p, ref)) + p.expected_rows - len(p.rows)
