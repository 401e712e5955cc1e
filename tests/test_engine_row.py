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
from solvcirc.evolve import (BLOCK_LEVEL_CAP, EvolutionConfig, _brickwork_blocks,
                             _period_bonds, brickwork_unitary, entanglement_entropy,
                             local_expectation, states, subsystem_density)
from solvcirc.gates import random_gate
from solvcirc.linalg import (PROBE_RESIDUAL_TOL, dagger, hermiticity_residual, kron,
                             make_rng, max_abs, min_eig_lower_bound, range_sketch,
                             von_neumann_entropy)
from solvcirc.errors import PositivityError
from solvcirc.mps import (ghz_cluster_family, product_state_mps, random_lpdo,
                          two_site_from_pair)
from test_evolve import (GATE_FAMILIES, dense_state, fused_conjugation, random_hermitian,
                         reference_step_rho)
from test_linalg import partial_trace

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


def range_min_eig(rho):
    """What a state holding rho (W = I) reports on the dense path: the
    range bound min(lambda_min, 0) - delta ||rho||_F with delta = 0."""
    return min(dense_min_eig(rho), 0.0)


def dense_entropy(s):
    return von_neumann_entropy(subsystem_density(s))


def factor_certified(s):
    """Whether ``entanglement_entropy`` reads s from its sketch's factor
    (a range state) or Gram matrix (a ket state) rather than the dense
    eigensolve of rho_R."""
    if s._w is None:
        return True
    sketch = s.range_sketch()
    return sketch is not None and \
        np.sqrt(s.chi) * (1 + s.isometry_defect()) * sketch[2] <= PROBE_RESIDUAL_TOL


def reference_expectation(s, site, op):
    rho_site = partial_trace(subsystem_density(s), [s.q] * s.l_r, [site])
    return float(np.trace(rho_site @ op).real)


class TestFusedPeriod:
    def test_plan_at_q2_l10(self):
        spans = [(lo, hi - 1) for lo, hi, _ in _brickwork_blocks(2, _period_bonds(10))]
        assert spans == [(0, 3), (4, 7), (7, 9), (3, 4)]

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("l_r", range(2, 12))
    def test_plan_covers_the_period_within_the_cap(self, q, l_r):
        # the period's bonds, and V's: the gates off site 0 on sites 1..,
        # (2,3),(4,5),... then (1,2),(3,4),..., relabelled from 0 (none at
        # l_r = 2)
        bonds = _period_bonds(l_r)
        v_bonds = [x - 1 for x in bonds[1:]]
        assert bonds[0] == 0 and (v_bonds == []) == (l_r == 2)
        for xs, sites in ((bonds, l_r), (v_bonds, l_r - 1)):
            blocks = _brickwork_blocks(q, xs)
            gates = [x for _, _, bxs in blocks for x in bxs]
            assert sorted(gates) == list(range(sites - 1))
            for lo, hi, bxs in blocks:
                assert q ** (hi - lo) <= BLOCK_LEVEL_CAP
                assert lo == min(bxs) and hi == max(bxs) + 2 <= sites
            if q >= 3:  # no two gates fit one block
                assert all(len(bxs) == 1 for _, _, bxs in blocks)

    @pytest.mark.parametrize("q,l_r", [(2, 2), (2, 3), (2, 7), (3, 4), (4, 3)])
    def test_v_after_the_site0_gate_is_the_period(self, q, l_r):
        # U_R = V (g (x) I): V's plan, on sites 1.. below ancilla (x) site 0,
        # applied after the gate g on bond (0, 1) is the whole period
        rng = make_rng(49)
        gate = random_gate("haar", rng, q=q)
        chi, m = 2, q ** (l_r - 1)
        x = rng.standard_normal((chi * q * m, 3)) + 1j * rng.standard_normal((chi * q * m, 3))
        gx = kron(np.eye(chi), gate.matrix, np.eye(m // q)) @ x
        plan = evolve._brickwork_plan(gate, [b - 1 for b in _period_bonds(l_r)[1:]], chi * q)
        got = evolve._brickwork_rows(gx, plan, (np.empty_like(x), np.empty_like(x)))
        want = kron(np.eye(chi), brickwork_unitary(gate, l_r)) @ x
        assert max_abs(got - want) < 1e-13

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
        fused, ref = fused_conjugation(rho, gate, l_r), reference_conjugation(rho, gate, l_r)
        if q >= 3:
            assert np.array_equal(fused, ref)
        else:
            assert max_abs(fused - ref) < 1e-13

    def test_wide_period(self):
        rng = make_rng(40)
        gate = random_gate("general", rng, q=2, qt=2)
        rho = random_hermitian(2 ** 10, rng)
        assert max_abs(fused_conjugation(rho, gate, 10)
                       - reference_conjugation(rho, gate, 10)) < 1e-13


def engine_case(family, q, left, chi, seed):
    """An engine at D >= 256 (where the range sketch runs) and its states."""
    rng = make_rng(seed)
    gate = random_gate(family, rng, q=q, qt=2)
    if left == "ghz_cluster":
        mps = ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q)
    elif left == "two_site":
        mps = two_site_from_pair(ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q),
                                 ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q))
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
    "swap": [(q, left) for q in (2, 3, 4)
             for left in ("ghz_cluster", "two_site", "product", "lpdo")],
    "general": [(q, left) for q in (2, 3, 4) for left in ("ghz_cluster", "two_site", "product")]
               + [(2, "lpdo")],
    "q2_qt2": [(2, left) for left in ("ghz_cluster", "two_site", "product", "lpdo")],
    "q2_qt1": [(2, "product")],
    "both_chirality_q4plus": [(4, "ghz_cluster"), (4, "two_site"), (4, "product")],
}


class TestSharedSketch:
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(sorted(SOLVABLE)), seed=st.integers(0, 2 ** 31 - 1),
           chi=st.sampled_from([1, 2]), data=st.data())
    def test_entropy_and_min_eig_match_the_dense_path(self, family, seed, chi, data):
        q, left = data.draw(st.sampled_from(SOLVABLE[family]), label="q, left")
        cfg = engine_case(family, q, left, chi, seed)
        if left == "lpdo":
            # d = 2: the channel's output range is wider than the bond
            assert cfg.channel.range_basis().shape[1] > cfg.chi
        for s in states(cfg):
            # min_eig: a range state reads sigma, a ket state its exact sketch
            res = s.invariant_residuals()
            exact = dense_min_eig(s.rho)
            assert exact - 1e-12 <= res["min_eig"] <= exact + 1e-14
            # S_ent: a certified factor within 1e-12, else the dense path
            got, want = entanglement_entropy(s), dense_entropy(s)
            if factor_certified(s):
                assert abs(got - want) <= 1e-12
            else:
                assert got == want

    @pytest.mark.parametrize("chi", [1, 2])
    def test_rank_40_takes_the_dense_path_bit_for_bit(self, chi):
        # D = 128: the sketch widens to D / 4 = 32 columns and no further
        rng = make_rng(41)
        rho = random_state(128, 40, rng)
        s = dense_state(chi, 2, {1: 7, 2: 6}[chi], rho)
        assert s.range_sketch()[2] > PROBE_RESIDUAL_TOL
        assert entanglement_entropy(s) == dense_entropy(s)
        assert s.invariant_residuals()["min_eig"] == range_min_eig(rho)

    @pytest.mark.parametrize("chi", [1, 2])
    def test_rank_40_widens_the_sketch(self, chi):
        # D = 512: the sketch doubles to 64 columns and certifies rank 40
        rng = make_rng(41)
        rho = random_state(512, 40, rng)
        s = dense_state(chi, 2, {1: 9, 2: 8}[chi], rho)
        assert s.range_sketch()[0].shape[1] == 64 and factor_certified(s)
        assert abs(entanglement_entropy(s) - dense_entropy(s)) <= 1e-12
        exact = dense_min_eig(rho)
        assert exact - 1e-12 <= s.invariant_residuals()["min_eig"] <= exact + 1e-14

    def test_uncertified_sketch_takes_the_dense_path(self, monkeypatch):
        # the certificate is sqrt(chi) (1 + delta) resid: a sketch residual
        # within PROBE_RESIDUAL_TOL but not within it over sqrt(2) is refused
        rng = make_rng(42)
        s = dense_state(2, 2, 7, random_state(256, 4, rng))
        q, a, resid = s.range_sketch()
        assert resid <= PROBE_RESIDUAL_TOL and factor_certified(s)
        s._sketch = (q, a, 0.9 * PROBE_RESIDUAL_TOL)
        assert not factor_certified(s)
        assert entanglement_entropy(s) == dense_entropy(s)
        # a non-finite sigma fails the certificate and the dense path refuses it
        sigma = random_state(256, 4, rng)
        sigma[3, 5] = np.nan
        bad = dense_state(2, 2, 7, sigma)
        calls = []
        real = evolve.subsystem_density
        monkeypatch.setattr(evolve, "subsystem_density", lambda st: calls.append(1) or real(st))
        assert not factor_certified(bad)
        with pytest.raises(ValueError, match="non-finite"):
            entanglement_entropy(bad)
        assert calls == [1]

    def test_factor_route_keeps_the_dense_checks(self):
        rng = make_rng(43)
        rho = random_state(256, 4, rng)
        # a certified sketch of 2 rho: B has trace 2
        s = dense_state(2, 2, 7, 2 * rho)
        assert factor_certified(s)
        with pytest.raises(ValueError, match="trace"):
            entanglement_entropy(s)
        # a planted -1e-5 eigenvalue of sigma, traced onto rho_R
        v, _ = np.linalg.qr(rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4)))
        lam = np.array([-1e-5, 0.3, 0.3, 0.4 + 1e-5])
        s = dense_state(1, 2, 8, (v * lam) @ dagger(v))
        assert factor_certified(s)
        with pytest.raises(PositivityError):
            entanglement_entropy(s)
        # a non-Hermitian sigma fails the certificate; the dense check refuses it
        s = dense_state(2, 2, 7, rho + 1e-6j * np.triu(np.ones_like(rho), 1))
        assert not factor_certified(s)
        with pytest.raises(ValueError, match="Hermitian"):
            entanglement_entropy(s)

    def test_sketch_is_computed_once_per_rho(self, monkeypatch):
        cfg = engine_case("general", 2, "ghz_cluster", 2, 44)
        s = list(states(cfg))[1]
        calls = []
        real = evolve.range_sketch
        monkeypatch.setattr(evolve, "range_sketch", lambda h: calls.append(1) or real(h))
        s.invariant_residuals()
        entanglement_entropy(s)
        assert calls == [1]
        assert s.range_sketch() is s.range_sketch()

    def test_replacing_rho_drops_the_cached_sketch(self):
        # rho cannot be replaced, so no cached sketch outlives what it sketches
        cfg = engine_case("general", 2, "ghz_cluster", 2, 45)
        s = list(states(cfg))[2]
        s.invariant_residuals()
        sketch = s.range_sketch()
        with pytest.raises(AttributeError):
            s.rho = random_state(s.rho.shape[0], 3, make_rng(46))
        assert s.range_sketch() is sketch
        rho = random_state(s.rho.shape[0], 3, make_rng(46))
        fresh = dense_state(s.chi, s.q, s.l_r, rho, s.t)
        res = fresh.invariant_residuals()
        assert res["min_eig"] == min(min_eig_lower_bound(rho), 0.0)
        assert res["hermiticity"] == hermiticity_residual(rho)
        assert abs(entanglement_entropy(fresh) - dense_entropy(fresh)) <= 1e-12

    def test_small_joint_state_has_no_sketch(self):
        # the probe floor is D = 128: below it min_eig and S_ent are the
        # dense eigensolves bit for bit, from it the sketch serves both
        small = dense_state(2, 2, 5, random_state(64, 3, make_rng(47)))
        assert small.range_sketch() is None and range_sketch(small.rho) is None
        assert entanglement_entropy(small) == dense_entropy(small)
        assert small.invariant_residuals()["min_eig"] == range_min_eig(small.rho)
        s = dense_state(2, 2, 6, random_state(128, 3, make_rng(47)))
        assert s.range_sketch()[2] <= PROBE_RESIDUAL_TOL
        assert abs(entanglement_entropy(s) - dense_entropy(s)) <= 1e-12
        exact = dense_min_eig(s.rho)
        assert exact - 1e-12 <= s.invariant_residuals()["min_eig"] <= exact + 1e-14


class TestObservables:
    @pytest.mark.parametrize("chi,q,l_r", [(1, 2, 5), (2, 2, 4), (2, 3, 3), (2, 4, 3)])
    def test_matches_the_partial_trace(self, chi, q, l_r):
        rng = make_rng(48)
        s = dense_state(chi, q, l_r, random_state(chi * q ** l_r, 5, rng))
        op = random_hermitian(q, rng)
        for site in range(l_r):
            assert abs(local_expectation(s, site, op) - reference_expectation(s, site, op)) < 1e-14


class TestRankSaturationConfig:
    """configs/rank_saturation_q2.json: q=2, chi=2, D=512, the rank doubles
    each period up to D/chi = 256."""

    def test_rows_equal_the_dense_path(self, tmp_path):
        # every row against the D x D period, never projected, within the
        # tolerances of the range sketch: rows t >= 1 are range states, held
        # as sigma, and the sketch certifies rho(0) (rank 1)
        out = tmp_path / "rank.csv"
        assert main(["evolve", "--config", str(CONFIG), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        cfg = json.loads(CONFIG.read_text())
        econf = build_engine(cfg, build_gate(cfg), build_mps(cfg))
        obs = [(o["site"], np.diag([1.0, -1.0])) for o in cfg["observables"]]
        saturated = 0
        assert len(rows) == cfg["tmax"] + 1
        rho = None
        for row, s in zip(rows, states(econf)):
            rho = s.rho if rho is None else reference_step_rho(rho, econf)
            assert row[0] == str(s.t) and (s._w is not None) == (s.t >= 1)
            dense = dense_state(s.chi, s.q, s.l_r, rho, s.t)
            assert s._w is not None or s.range_sketch()[2] <= PROBE_RESIDUAL_TOL
            s_dense, m_dense = dense_entropy(dense), dense_min_eig(rho)
            assert abs(float(row[1]) - s_dense) <= 1e-12
            assert m_dense - 1e-12 <= float(row[3]) <= m_dense + 1e-14
            saturated += np.linalg.matrix_rank(subsystem_density(dense), 1e-10) == 256
            for cell, (site, op) in zip(row[4:], obs):
                assert abs(float(cell) - reference_expectation(dense, site, op)) <= 1e-12
        assert saturated >= 4
