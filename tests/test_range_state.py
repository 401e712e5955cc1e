"""Range states: every stepped joint state is held as sigma in the boundary
channel's output range, rho = (W (x) I) sigma (W (x) I)^dag.  A period of
a range state forms Z = Tr_0(Y sigma Y^dag), Y = (I_chi (x) U_R)(W (x) I),
by one route whatever the shape: the site-0 step of the gate on bond
(0, 1), then the rest of the brickwork, which never touches site 0."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvcirc import evolve
from solvcirc.evolve import (SOLVABLE_GATE_TOL, EvolutionConfig, JointState,
                             entanglement_entropy, initial_joint_state,
                             local_expectation, states, step, subsystem_density)
from solvcirc.gates import random_gate
from solvcirc.linalg import (_PROBE_START, PROBE_RESIDUAL_TOL, dagger, make_rng, max_abs,
                             trace_distance, von_neumann_entropy)
from solvcirc.mps import (MpsTensor, ghz_cluster_family, product_state_mps,
                          random_lpdo, two_site_from_pair)
from solvcirc.oracle import ChainSpec, evolve_chain
from solvcirc.solvable import check_solvable_left
from test_evolve import dense_state, reference_period, reference_step_rho
from test_linalg import widest_probe

# gate family -> the local dimensions it is drawn at
FAMILIES = {"swap": (2, 3, 4), "general": (2, 3, 4), "q2_qt2": (2,),
            "both_chirality_q4plus": (4,)}


def left_state(kind, q, chi, rng):
    """A one-site MPS, an alternating cell or an LPDO (d = 1 or 2) of bond
    chi; the MPS and cell use product tensors at chi = 1, GHZ-cluster ones
    at chi = 2."""
    def one_site():
        if chi == 1:
            return product_state_mps(np.eye(q)[rng.integers(q)])
        return ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q)
    if kind == "mps":
        return one_site()
    if kind == "two_site":
        return two_site_from_pair(one_site(), one_site())
    return random_lpdo(q, chi, int(rng.integers(1, 3)), rng)


def _engine_parts(family, q, kind, chi, seed, l_r):
    rng = make_rng(seed)
    gate = random_gate(family, rng, q=q, qt=2)
    left = left_state(kind, q, chi, rng)
    kets = rng.standard_normal((left.chi, q ** l_r)) + 1j * rng.standard_normal((left.chi, q ** l_r))
    return gate, left, kets


def fixed_case(family, q, kind, chi, seed, l_r=3, tmax=3):
    """An engine with generic complex right kets for fixed arguments; the
    config refuses an unsolvable pair."""
    return EvolutionConfig(*_engine_parts(family, q, kind, chi, seed, l_r), l_r, tmax)


def case(family, q, kind, chi, seed, l_r=3, tmax=3):
    """``fixed_case`` for arguments drawn by hypothesis, so for ``@given``
    tests only: an unsolvable draw is rejected by ``assume``."""
    gate, left, kets = _engine_parts(family, q, kind, chi, seed, l_r)
    assume(check_solvable_left(gate, left) <= SOLVABLE_GATE_TOL)
    return EvolutionConfig(gate, left, kets, l_r, tmax)


def dense_rhos(cfg):
    """rho(0..tmax) by the D x D period alone, never projected."""
    rho = initial_joint_state(cfg).rho
    out = [rho]
    for _ in range(cfg.tmax):
        rho = reference_step_rho(rho, cfg)
        out.append(rho)
    return out


def traced_states(cfg, monkeypatch):
    """The states of ``cfg`` and how many periods formed Z by
    ``evolve._traced_brickwork``."""
    calls = []
    real = evolve._traced_brickwork
    monkeypatch.setattr(evolve, "_traced_brickwork", lambda *a: calls.append(1) or real(*a))
    return list(states(cfg)), len(calls)


def outside_range(w, rho):
    """||((I - W W^dag) (x) I) rho||_F."""
    p_out = np.eye(w.shape[0]) - w @ dagger(w)
    return float(np.linalg.norm(p_out @ rho.reshape(w.shape[0], -1)))


draws = dict(family_q=st.sampled_from(sorted(FAMILIES)).flatmap(
                 lambda f: st.tuples(st.just(f), st.sampled_from(FAMILIES[f]))),
             kind=st.sampled_from(["mps", "two_site", "lpdo"]),
             chi=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 31 - 1))


class TestRangeRoute:
    @settings(max_examples=60, deadline=None)
    @given(**draws)
    def test_states_lie_in_the_range_and_follow_the_dense_period(self, family_q, kind, chi, seed):
        family, q = family_q
        cfg = case(family, q, kind, chi, seed)
        w = cfg.channel.range_basis()
        held = list(states(cfg))
        for s, ref in zip(held, dense_rhos(cfg)):
            if s.t >= 1:
                assert outside_range(w, ref) <= 1e-13
                assert outside_range(w, dagger(ref)) <= 1e-13
                assert s._w is w and s._held.shape[0] == w.shape[1] * q ** (cfg.l_r - 1)
            else:
                assert s._w is None
            assert max_abs(s.rho - ref) <= 1e-13
            dense = dense_state(s.chi, s.q, s.l_r, ref, s.t)
            assert abs(entanglement_entropy(s) - entanglement_entropy(dense)) <= 1e-12
            res, want = s.invariant_residuals(), dense.invariant_residuals()
            assert abs(res["trace"] - want["trace"]) <= 1e-13
            assert res["min_eig"] <= np.linalg.eigvalsh((ref + dagger(ref)) / 2).min() + 1e-14
            assert res["min_eig"] >= -1e-12
            op = np.diag(np.arange(q, dtype=float))
            for site in range(cfg.l_r):
                assert abs(local_expectation(s, site, op) - local_expectation(dense, site, op)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(family=st.sampled_from(["swap", "general", "both_chirality_q4plus"]),
           kind=st.sampled_from(["mps", "two_site", "lpdo"]), seed=st.integers(0, 2 ** 31 - 1))
    def test_rows_at_the_probe_floor_match_the_dense_state(self, family, kind, seed):
        # q = 4, chi = 2, l_r = 4: sigma has n = 128, so its range sketch
        # (or, uncertified, the dense fallback) serves min_eig and S_ent
        cfg = case(family, 4, kind, 2, seed, l_r=4, tmax=3)
        assume(cfg.channel.range_basis().shape[1] == 2)  # an LPDO with d = 2 has n = 256
        for s in states(cfg):
            if s.t == 0:
                continue
            assert s._held.shape == (128, 128)
            rho = s.rho
            dense = dense_state(s.chi, s.q, s.l_r, rho, s.t)
            assert abs(entanglement_entropy(s) - entanglement_entropy(dense)) <= 1e-12
            exact = exact_min_eig(rho)
            assert exact - 1e-12 <= s.invariant_residuals()["min_eig"] <= exact + 1e-14

    @settings(max_examples=30, deadline=None)
    @given(family_q=draws["family_q"], chi=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 31 - 1))
    def test_engine_equals_the_chain_oracle(self, family_q, chi, seed):
        family, q = family_q
        cfg = case(family, q, "mps", chi, seed, l_r=2, tmax=3)
        assert isinstance(cfg.mps, MpsTensor)
        spec = ChainSpec(cfg.gate, cfg.mps, cfg.right_kets, 2 * cfg.tmax, cfg.l_r, cfg.tmax)
        for s, oracle_rho in zip(states(cfg), evolve_chain(spec)):
            assert (s._w is not None) == (s.t >= 1)
            assert trace_distance(oracle_rho, subsystem_density(s)) < 1e-10

    @pytest.mark.parametrize("kind,q,chi,compressing", [
        ("mps", 4, 2, True), ("mps", 4, 1, True), ("two_site", 4, 2, True),
        ("mps", 3, 2, False), ("mps", 2, 2, False), ("two_site", 2, 2, False)])
    def test_route_rule(self, kind, q, chi, compressing, monkeypatch):
        # one route whatever the shape: a channel that compresses ancilla
        # (x) site 0 at least 4-fold (chi q >= 4 r) once took a cached gemm
        # of Y instead, and now steps every range state as any other does
        rng = make_rng(60)
        left = left_state(kind, q, chi, rng)
        kets = np.ones((left.chi, q ** 2))
        cfg = EvolutionConfig(random_gate("swap", rng, q=q), left, kets, 2, 2)
        w = cfg.channel.range_basis()
        assert (cfg.chi * q >= 4 * w.shape[1]) == compressing
        held, traced = traced_states(cfg, monkeypatch)
        assert traced == cfg.tmax - 1  # every period after the ket of rho(0)
        assert all(s._w is w for s in held[1:])
        for s, ref in zip(held[1:], dense_rhos(cfg)[1:]):
            assert max_abs(s.rho - ref) <= 1e-13

    def test_full_rank_lpdo_steps_at_n_equal_d(self, monkeypatch):
        # r = chi q: sigma has n = D, and the site-0 step lifts it by a
        # square W
        rng = make_rng(61)
        for q in (2, 3, 4):
            lpdo = random_lpdo(q, 2, q, rng)
            kets = rng.standard_normal((2, q ** 2)) + 1j * rng.standard_normal((2, q ** 2))
            cfg = EvolutionConfig(random_gate("swap", rng, q=q), lpdo, kets, 2, 3)
            w = cfg.channel.range_basis()
            assert w.shape == (2 * q, 2 * q)
            held, traced = traced_states(cfg, monkeypatch)
            assert traced == cfg.tmax - 1
            for s, ref in zip(held[1:], dense_rhos(cfg)[1:]):
                assert s._w is w and s._held.shape == ref.shape
                assert max_abs(s.rho - ref) <= 1e-13

    @pytest.mark.parametrize("l_r", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mps", "two_site", "lpdo"])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_every_shape_matches_the_reference_period(self, q, kind, l_r):
        # the dense period (D x D Y X Y^dag, channel and projection) is the
        # arbiter for every q, left state and parity of l_r; a general gate
        # where the pair is solvable, else SWAP
        family = "general" if kind != "lpdo" or q == 2 else "swap"
        cfg = fixed_case(family, q, kind, 2, 62 + q, l_r=l_r, tmax=3)
        prev = None
        for s in states(cfg):
            if prev is not None:
                assert max_abs(s._held - reference_period(prev, cfg)) < 1e-14
            prev = s

    def test_range_basis_is_shared_and_read_only(self):
        cfg = EvolutionConfig(random_gate("general", make_rng(69), q=4, qt=2),
                              ghz_cluster_family(0.6, 4), np.ones((2, 16)), 2, 2)
        w = cfg.channel.range_basis()
        assert w is cfg.channel.range_basis() and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        held = list(states(cfg))
        assert held[1]._w is held[2]._w is w

    def test_range_basis_keeps_the_exact_zero_rows(self):
        # GHZ cluster at q = 4: site 0 in {2, 3} is never written, so the
        # pinned site0:proj:2 column reads an exact zero
        cfg = EvolutionConfig(random_gate("general", make_rng(11), q=4, qt=2),
                              ghz_cluster_family(np.pi / 4, 4),
                              np.ones((2, 16)), 2, 1)
        w = cfg.channel.range_basis().reshape(2, 4, -1)
        assert not np.any(w[:, 2:, :])
        s = step(initial_joint_state(cfg), cfg)
        proj2 = np.diag([0.0, 0.0, 1.0, 0.0])
        assert local_expectation(s, 0, proj2) == 0.0


def range_state(sigma, w=None, l_r=2):
    """A range state on the q = 4 GHZ-cluster channel's basis (or ``w``)."""
    cfg = EvolutionConfig(random_gate("general", make_rng(62), q=4, qt=2),
                          ghz_cluster_family(0.6, 4), np.ones((2, 4 ** l_r)), l_r, 1)
    w = cfg.channel.range_basis() if w is None else w
    return JointState(2, 4, l_r, sigma, 1, w=w)


def planted_sigma(lam, rng, n=None):
    """A Hermitian n x n sigma with eigenvalues ``lam`` and n - len(lam)
    zeros (n = len(lam) by default)."""
    n = len(lam) if n is None else n
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = v[:, :len(lam)]
    return (v * lam) @ dagger(v)


def exact_min_eig(rho):
    return np.linalg.eigvalsh((rho + dagger(rho)) / 2).min()


class TestRangeDiagnostics:
    def test_planted_negative_eigenvalue_is_reported(self):
        # n = 8 takes the dense eigensolve of sigma, n = 128 its range sketch
        for l_r, n in [(2, 8), (4, 128)]:
            rng = make_rng(63)
            lam = np.concatenate([[-1e-9], rng.uniform(0.5, 1.5, 7)])
            lam[1:] *= (1 + 1e-9) / lam[1:].sum()
            s = range_state(planted_sigma(lam, rng, n), l_r=l_r)
            sketch = s.range_sketch()
            assert (sketch is not None and sketch[2] <= PROBE_RESIDUAL_TOL) == (n == 128)
            res = s.invariant_residuals()
            assert res["min_eig"] <= -1e-9
            assert res["trace"] <= 1e-14
            assert abs(exact_min_eig(s.rho) + 1e-9) <= 1e-14

    def test_min_eig_accounts_for_a_non_isometric_basis(self):
        # W^dag W = (1 + 1e-3)^2 I: rho's eigenvalues are sigma's times
        # (1 + 1e-3)^2, so a negative one lies below lambda_min(sigma), on
        # the dense eigensolve of sigma (n = 8) and on its sketch (n = 128)
        for l_r, n in [(2, 8), (4, 128)]:
            rng = make_rng(64)
            lam = np.concatenate([[-0.1], rng.uniform(0.5, 1.5, 7)])
            base = range_state(np.eye(n) / n, l_r=l_r)
            s = range_state(planted_sigma(lam, rng, n), w=base._w * (1 + 1e-3), l_r=l_r)
            exact = exact_min_eig(s.rho)
            assert exact < -0.1 - 1e-4
            assert s.invariant_residuals()["min_eig"] <= exact

    def test_one_sketch_per_row(self, monkeypatch):
        # n = 128: min_eig and S_ent share one range sketch of sigma, and
        # neither runs an eigh
        rng = make_rng(65)
        s = range_state(planted_sigma(np.full(8, 1 / 8), rng, 128), l_r=4)
        sketches, eighs = [], []
        real_sketch, real_eigh = evolve.range_sketch, np.linalg.eigh
        monkeypatch.setattr(evolve, "range_sketch",
                            lambda h: sketches.append(h.shape) or real_sketch(h))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: eighs.append(1) or real_eigh(*a, **k))
        s.invariant_residuals()
        entanglement_entropy(s)
        assert sketches == [(128, 128)] and eighs == []

    def test_rank_40_sigma_takes_the_dense_fallback(self, monkeypatch):
        # n = 128: the sketch widens to n / 4 = 32 columns and no further, so
        # rank 40 leaves it uncertified: min_eig is the dense eigensolve of
        # herm(sigma) less delta ||sigma||_F, and S_ent the dense eigensolve
        # of rho_R (256 x 256), bit for bit
        rng = make_rng(68)
        lam = rng.uniform(0.5, 1.5, 40)
        s = range_state(planted_sigma(lam / lam.sum(), rng, 128), l_r=4)
        assert s.range_sketch()[2] > PROBE_RESIDUAL_TOL
        w, sigma = s._w, s._held
        delta = np.linalg.norm(dagger(w) @ w - np.eye(w.shape[1]), 2)
        want = min(exact_min_eig(sigma), 0.0) - delta * np.linalg.norm(sigma)
        assert s.invariant_residuals()["min_eig"] == want
        shapes = []
        monkeypatch.setattr(evolve, "von_neumann_entropy",
                            lambda rho: shapes.append(rho.shape) or von_neumann_entropy(rho))
        assert entanglement_entropy(s) == von_neumann_entropy(subsystem_density(s))
        assert shapes == [(256, 256)]

    def test_low_rank_row_takes_the_sketch_factor(self, monkeypatch):
        # l_r = 4 (rho_R is 256 x 256), sigma of rank 3: the sketch keeps its
        # first width k, so no eigensolve larger than chi k = 16 and no rho_R
        rng = make_rng(66)
        n = 2 * 4 ** 3
        v, _ = np.linalg.qr(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
        s = range_state((v * np.array([0.5, 0.3, 0.2])) @ dagger(v), l_r=4)
        want = von_neumann_entropy(subsystem_density(s))
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(h.shape[0]) or real(h))
        monkeypatch.setattr(evolve, "subsystem_density", None)
        assert abs(entanglement_entropy(s) - want) <= 1e-12
        assert 0 < max(sizes) <= 2 * s.range_sketch()[0].shape[1] == 2 * _PROBE_START

    def test_rank_40_sigma_widens_the_sketch(self, monkeypatch):
        # n = 512 (l_r = 5): the sketch doubles to 64 columns and certifies
        # rank 40, so S_ent reads the factor (chi k = 128) and forms no rho_R
        rng = make_rng(68)
        lam = rng.uniform(0.5, 1.5, 40)
        s = range_state(planted_sigma(lam / lam.sum(), rng, 512), l_r=5)
        q, _, resid = s.range_sketch()
        assert resid <= PROBE_RESIDUAL_TOL and q.shape[1] == 64
        want = von_neumann_entropy(subsystem_density(s))
        exact = exact_min_eig(s.rho)
        assert exact - 1e-12 <= s.invariant_residuals()["min_eig"] <= exact + 1e-14
        monkeypatch.setattr(evolve, "subsystem_density", None)
        assert abs(entanglement_entropy(s) - want) <= 1e-12

    def test_certified_rank_128_row_forms_no_rho_r(self):
        # q = 4, chi = 2, l_r = 5: D = 2048, rho_R would be 1024 x 1024
        # (16 MiB); a rank-128 sigma (n = 512) is certified at the widest
        # probe, and both diagnostics together peak below one such array
        rng = make_rng(72)
        lam = rng.uniform(0.5, 1.5, 128)
        s = range_state(planted_sigma(lam / lam.sum(), rng, 512), l_r=5)
        rho_r_bytes = (s.q ** s.l_r) ** 2 * 16
        tracemalloc.start()
        try:
            s.invariant_residuals()
            entanglement_entropy(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.range_sketch()[2] <= PROBE_RESIDUAL_TOL
        assert s.range_sketch()[0].shape[1] == 128
        assert peak < rho_r_bytes

    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([128, 256, 512]), data=st.data(), seed=st.integers(0, 2 ** 31 - 1))
    def test_planted_rank_sweep(self, n, data, seed):
        # sigma of rank 1 to past the widest probe (n / 4): certified exactly
        # when the rank fits, and above it min_eig and S_ent are the dense
        # paths bit for bit
        widest = widest_probe(n)
        rank = data.draw(st.integers(1, widest + 8), label="rank")
        rng = make_rng(seed)
        r, l_r = {128: (2, 4), 256: (4, 4), 512: (2, 5)}[n]
        w, _ = np.linalg.qr(rng.standard_normal((8, r)) + 1j * rng.standard_normal((8, r)))
        lam = rng.uniform(0.5, 1.5, rank)
        s = range_state(planted_sigma(lam / lam.sum(), rng, n), w=w, l_r=l_r)
        q, _, resid = s.range_sketch()
        assert (resid <= PROBE_RESIDUAL_TOL) == (rank <= widest)
        if rank <= widest:
            assert q.shape[1] < 2 * max(rank, _PROBE_START)
            return
        sigma = s._held
        delta = np.linalg.norm(dagger(w) @ w - np.eye(r), 2)
        want = min(exact_min_eig(sigma), 0.0) - delta * np.linalg.norm(sigma)
        assert s.invariant_residuals()["min_eig"] == want
        assert entanglement_entropy(s) == von_neumann_entropy(subsystem_density(s))
