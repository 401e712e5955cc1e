"""One engine row: the fused brickwork period, the range sketch shared by
min_eig and S_ent, the one-site observables and the saturated-rank config."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc import evolve
from solvcirc.cli import build_engine, build_gate, build_mps, main
from solvcirc.evolve import (BLOCK_LEVEL_CAP, EvolutionConfig, JointState,
                             _brickwork_blocks, conjugate_brickwork,
                             entanglement_entropy, local_expectation, states,
                             subsystem_density)
from solvcirc.gates import random_gate
from solvcirc.linalg import (PROBE_RESIDUAL_TOL, dagger, hermiticity_residual,
                             make_rng, max_abs, min_eig_lower_bound,
                             partial_trace, range_sketch, von_neumann_entropy)
from solvcirc.mps import ghz_cluster_family, product_state_mps, random_lpdo
from test_evolve import GATE_FAMILIES, random_hermitian

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "rank_saturation_q2.json"


def reference_conjugation(rho, gate, l_r):
    """The period one two-site gate at a time: even bonds, then odd bonds,
    each a batched matmul on the (chi q^x, q^2, rest) view, on the row legs
    and then on the row legs of the conjugate transpose."""
    q2 = gate.q ** 2
    d = rho.shape[0]
    m = rho
    for _ in range(2):
        for x in [*range(0, l_r - 1, 2), *range(1, l_r - 1, 2)]:
            before = d // gate.q ** (l_r - x)
            ub = np.broadcast_to(gate.matrix, (before, q2, q2)).copy()
            m = np.matmul(ub, m.reshape(before, q2, -1)).reshape(d, d)
        m = np.ascontiguousarray(dagger(m))
    return m


def random_state(d, rank, rng):
    """A density matrix of the given rank with distinct eigenvalues."""
    v, _ = np.linalg.qr(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
    w = rng.uniform(0.5, 1.5, rank)
    return (v * (w / w.sum())) @ dagger(v)


def dense_min_eig(rho):
    return np.linalg.eigvalsh((rho + dagger(rho)) / 2).min()


def dense_entropy(s):
    return von_neumann_entropy(subsystem_density(s))


def reference_expectation(s, site, op):
    rho_site = partial_trace(subsystem_density(s), [s.q] * s.l_r, [site])
    return float(np.trace(rho_site @ op).real)


class TestFusedPeriod:
    def test_plan_at_q2_l10(self):
        spans = [(lo, hi - 1) for lo, hi, _ in _brickwork_blocks(2, 10)]
        assert spans == [(0, 3), (4, 7), (7, 9), (3, 4)]

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("l_r", range(2, 12))
    def test_plan_covers_the_period_within_the_cap(self, q, l_r):
        blocks = _brickwork_blocks(q, l_r)
        gates = [x for _, _, xs in blocks for x in xs]
        assert sorted(gates) == list(range(l_r - 1))
        for lo, hi, xs in blocks:
            assert q ** (hi - lo) <= BLOCK_LEVEL_CAP
            assert lo == min(xs) and hi == max(xs) + 2
        if q >= 3:  # no two gates fit one block
            assert all(len(xs) == 1 for _, _, xs in blocks)

    @settings(max_examples=40, deadline=None)
    @given(family_q=st.sampled_from(sorted(GATE_FAMILIES)).flatmap(
               lambda f: st.tuples(st.just(f), st.sampled_from(GATE_FAMILIES[f]))),
           seed=st.integers(0, 2 ** 31 - 1), chi=st.sampled_from([1, 2]),
           l_r=st.integers(2, 8))
    def test_matches_the_gate_by_gate_period(self, family_q, seed, chi, l_r):
        family, q = family_q
        l_r = min(l_r, {2: 8, 3: 5, 4: 4}[q])
        rng = make_rng(seed)
        gate = random_gate(family, rng, q=q, qt=2)
        rho = random_hermitian(chi * q ** l_r, rng)
        fused, ref = conjugate_brickwork(rho, gate, l_r), reference_conjugation(rho, gate, l_r)
        if q >= 3:
            assert np.array_equal(fused, ref)
        else:
            assert max_abs(fused - ref) < 1e-13

    def test_wide_period(self):
        rng = make_rng(40)
        gate = random_gate("general", rng, q=2, qt=2)
        rho = random_hermitian(2 ** 10, rng)
        assert max_abs(conjugate_brickwork(rho, gate, 10)
                       - reference_conjugation(rho, gate, 10)) < 1e-13


def engine_case(family, q, left, chi, seed):
    """An engine at D >= 256 (where the range sketch runs) and its states."""
    rng = make_rng(seed)
    gate = random_gate(family, rng, q=q, qt=2)
    if left == "ghz_cluster":
        mps = ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q)
    elif left == "product":
        mps = product_state_mps(np.eye(q)[rng.integers(2)])
    else:
        mps = random_lpdo(q, chi, 2, rng)
    chi = mps.chi
    l_r = min(l for l in range(2, 12) if chi * q ** l >= 256)
    kets = rng.standard_normal((chi, q ** l_r)) + 1j * rng.standard_normal((chi, q ** l_r))
    return EvolutionConfig(gate, mps, kets, l_r, 2)


# gate family -> the (q, left state) pairs it is solvable with
SOLVABLE = {
    "swap": [(q, left) for q in (2, 3, 4) for left in ("ghz_cluster", "product", "lpdo")],
    "general": [(q, left) for q in (2, 3, 4) for left in ("ghz_cluster", "product")]
               + [(2, "lpdo")],
    "q2_qt2": [(2, left) for left in ("ghz_cluster", "product", "lpdo")],
    "q2_qt1": [(2, "product")],
    "both_chirality_q4plus": [(4, "ghz_cluster"), (4, "product")],
}


class TestSharedSketch:
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(sorted(SOLVABLE)), seed=st.integers(0, 2 ** 31 - 1),
           chi=st.sampled_from([1, 2]), data=st.data())
    def test_entropy_and_min_eig_match_the_dense_path(self, family, seed, chi, data):
        q, left = data.draw(st.sampled_from(SOLVABLE[family]), label="q, left")
        cfg = engine_case(family, q, left, chi, seed)
        for s in states(cfg):
            # a range state (q = 4) reads sigma; a dense one its range sketch
            approx = s._w is not None or s.range_sketch()[2] <= PROBE_RESIDUAL_TOL
            res = s.invariant_residuals()
            got, want = entanglement_entropy(s), dense_entropy(s)
            exact = dense_min_eig(s.rho)
            if approx:
                assert abs(got - want) <= 1e-12
                assert exact - 1e-12 <= res["min_eig"] <= exact + 1e-14
            else:
                assert got == want and res["min_eig"] == exact

    @pytest.mark.parametrize("chi", [1, 2])
    def test_rank_40_takes_the_dense_path_bit_for_bit(self, chi):
        rng = make_rng(41)
        rho = random_state(512, 40, rng)
        s = JointState(chi, 2, {1: 9, 2: 8}[chi], rho)
        assert s.range_sketch()[2] > PROBE_RESIDUAL_TOL
        assert entanglement_entropy(s) == dense_entropy(s)
        assert s.invariant_residuals()["min_eig"] == dense_min_eig(rho)

    def test_uncertified_ritz_values_are_refused(self):
        # a basis holding 32 of the 40 eigenvectors: Ritz values would drop 8
        rng = make_rng(42)
        rho = random_state(256, 40, rng)
        v = np.linalg.eigh(rho)[1]
        basis = v[:, -32:]
        assert von_neumann_entropy(rho, basis=basis) == von_neumann_entropy(rho)
        full = v[:, -40:]
        assert abs(von_neumann_entropy(rho, basis=full) - von_neumann_entropy(rho)) < 1e-12

    def test_ritz_path_keeps_the_dense_checks(self):
        rng = make_rng(43)
        rho = random_state(256, 4, rng)
        basis = np.linalg.eigh(rho)[1][:, -4:]
        with pytest.raises(ValueError, match="trace"):
            von_neumann_entropy(2 * rho, basis=basis)
        with pytest.raises(ValueError, match="Hermitian"):
            von_neumann_entropy(rho + 1e-6j * np.triu(np.ones_like(rho), 1), basis=basis)

    def test_sketch_is_computed_once_per_rho(self, monkeypatch):
        cfg = engine_case("general", 2, "ghz_cluster", 2, 44)
        s = list(states(cfg))[1]
        calls = []
        real = evolve.range_sketch
        monkeypatch.setattr(evolve, "range_sketch", lambda h, work=None: calls.append(1) or real(h, work))
        s.invariant_residuals()
        entanglement_entropy(s)
        assert calls == [1]
        assert s.range_sketch() is s.range_sketch()

    def test_replacing_rho_drops_the_cached_sketch(self):
        cfg = engine_case("general", 2, "ghz_cluster", 2, 45)
        s = list(states(cfg))[2]
        s.invariant_residuals()
        entanglement_entropy(s)
        rho = random_state(s.rho.shape[0], 3, make_rng(46))
        s.rho = rho
        res = s.invariant_residuals()
        assert res["min_eig"] == min_eig_lower_bound(rho)
        assert res["hermiticity"] == hermiticity_residual(rho)
        assert abs(entanglement_entropy(s) - dense_entropy(s)) <= 1e-12

    def test_small_joint_state_has_no_sketch(self):
        s = JointState(2, 2, 6, random_state(128, 3, make_rng(47)))
        assert s.range_sketch() is None and range_sketch(s.rho) is None
        assert entanglement_entropy(s) == dense_entropy(s)


class TestObservables:
    @pytest.mark.parametrize("chi,q,l_r", [(1, 2, 5), (2, 2, 4), (2, 3, 3), (2, 4, 3)])
    def test_matches_the_partial_trace(self, chi, q, l_r):
        rng = make_rng(48)
        s = JointState(chi, q, l_r, random_state(chi * q ** l_r, 5, rng))
        op = random_hermitian(q, rng)
        for site in range(l_r):
            assert abs(local_expectation(s, site, op) - reference_expectation(s, site, op)) < 1e-14


class TestRankSaturationConfig:
    """configs/rank_saturation_q2.json: q=2, chi=2, D=512, the rank doubles
    each period up to D/chi = 256."""

    def test_rows_equal_the_dense_path(self, tmp_path):
        out = tmp_path / "rank.csv"
        assert main(["evolve", "--config", str(CONFIG), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        cfg = json.loads(CONFIG.read_text())
        econf = build_engine(cfg, build_gate(cfg), build_mps(cfg))
        obs = [(o["site"], np.diag([1.0, -1.0])) for o in cfg["observables"]]
        saturated = 0
        assert len(rows) == cfg["tmax"] + 1
        for row, s in zip(rows, states(econf)):
            assert row[0] == str(s.t)
            certified = s.range_sketch()[2] <= PROBE_RESIDUAL_TOL
            s_dense, m_dense = dense_entropy(s), dense_min_eig(s.rho)
            if certified:
                assert abs(float(row[1]) - s_dense) <= 1e-12
                assert m_dense - 1e-12 <= float(row[3]) <= m_dense + 1e-14
            else:
                assert row[1] == f"{s_dense:.12e}" and row[3] == f"{m_dense:.12e}"
                saturated += np.linalg.matrix_rank(subsystem_density(s), 1e-10) == 256
            for cell, (site, op) in zip(row[4:], obs):
                assert abs(float(cell) - reference_expectation(s, site, op)) <= 1e-12
        assert saturated >= 4
