"""The range route: a joint state held as sigma in the boundary channel's
output range, rho = (W (x) I) sigma (W (x) I)^dag, when the channel
compresses ancilla (x) site 0 at least 4-fold (q = 4 at r = chi)."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvcirc.channel import apply_channel
from solvcirc.evolve import (SOLVABLE_GATE_TOL, EvolutionConfig, JointState,
                             conjugate_brickwork, entanglement_entropy,
                             initial_joint_state, local_expectation, states,
                             step, subsystem_density)
from solvcirc.gates import random_gate
from solvcirc.linalg import dagger, make_rng, max_abs, trace_distance
from solvcirc.mps import (MpsTensor, ghz_cluster_family, product_state_mps,
                          random_lpdo, two_site_from_pair)
from solvcirc.oracle import ChainSpec, evolve_chain
from solvcirc.solvable import check_solvable_left

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


def case(family, q, kind, chi, seed, l_r=3, tmax=3):
    rng = make_rng(seed)
    gate = random_gate(family, rng, q=q, qt=2)
    left = left_state(kind, q, chi, rng)
    assume(check_solvable_left(gate, left) <= SOLVABLE_GATE_TOL)
    kets = rng.standard_normal((left.chi, q ** l_r)) + 1j * rng.standard_normal((left.chi, q ** l_r))
    return EvolutionConfig(gate, left, kets, l_r, tmax)


def dense_rhos(cfg):
    """rho(0..tmax) by the D x D period alone, never projected."""
    rho = initial_joint_state(cfg).rho
    out = [rho]
    for _ in range(cfg.tmax):
        rho = apply_channel(cfg.channel, conjugate_brickwork(rho, cfg.gate, cfg.l_r))
        out.append(rho)
    return out


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
        route = cfg.range_basis() is not None
        assert route == (cfg.chi * cfg.q >= 4 * w.shape[1])
        if q == 2 or w.shape[1] == cfg.chi * cfg.q:
            assert not route
        for s, ref in zip(states(cfg), dense_rhos(cfg)):
            if s.t >= 1:
                assert outside_range(w, ref) <= 1e-13
                assert outside_range(w, dagger(ref)) <= 1e-13
            assert (s._w is not None) == (route and s.t >= 1)
            assert max_abs(s.rho - ref) <= 1e-13
            dense = JointState(s.chi, s.q, s.l_r, ref, s.t)
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
           chi=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 31 - 1))
    def test_engine_equals_the_chain_oracle(self, family, chi, seed):
        cfg = case(family, 4, "mps", chi, seed, l_r=2, tmax=3)
        assert isinstance(cfg.mps, MpsTensor) and cfg.range_basis() is not None
        spec = ChainSpec(cfg.gate, cfg.mps, cfg.right_kets, 2 * cfg.tmax, cfg.l_r, cfg.tmax)
        for s, oracle_rho in zip(states(cfg), evolve_chain(spec)):
            assert trace_distance(oracle_rho, subsystem_density(s)) < 1e-10

    @pytest.mark.parametrize("kind,q,chi,route", [
        ("mps", 4, 2, True), ("mps", 4, 1, True), ("two_site", 4, 2, True),
        ("mps", 3, 2, False), ("mps", 2, 2, False), ("two_site", 2, 2, False)])
    def test_route_rule(self, kind, q, chi, route):
        rng = make_rng(60)
        left = left_state(kind, q, chi, rng)
        kets = np.ones((left.chi, q ** 2))
        cfg = EvolutionConfig(random_gate("swap", rng, q=q), left, kets, 2, 1)
        assert (cfg.range_basis() is not None) == route

    def test_full_rank_lpdo_never_takes_the_route(self):
        rng = make_rng(61)
        for q in (2, 3, 4):
            lpdo = random_lpdo(q, 2, q, rng)  # r = chi q
            cfg = EvolutionConfig(random_gate("swap", rng, q=q), lpdo, np.ones((2, q ** 2)), 2, 1)
            assert cfg.channel.range_basis().shape[1] == 2 * q
            assert cfg.range_basis() is None

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
    w = cfg.range_basis() if w is None else w
    return JointState._in_range(2, 4, l_r, sigma, w, 1)


def planted_sigma(lam, rng):
    n = len(lam)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (v * lam) @ dagger(v)


class TestRangeDiagnostics:
    def test_planted_negative_eigenvalue_is_reported(self):
        rng = make_rng(63)
        lam = np.concatenate([[-1e-9], rng.uniform(0.5, 1.5, 7)])
        lam[1:] *= (1 + 1e-9) / lam[1:].sum()
        s = range_state(planted_sigma(lam, rng))
        res = s.invariant_residuals()
        assert res["min_eig"] <= -1e-9
        assert res["trace"] <= 1e-14
        rho = s.rho
        assert abs(np.linalg.eigvalsh((rho + dagger(rho)) / 2).min() + 1e-9) <= 1e-14

    def test_min_eig_accounts_for_a_non_isometric_basis(self):
        # W^dag W = (1 + 1e-3)^2 I: rho's eigenvalues are sigma's times
        # (1 + 1e-3)^2, so a negative one lies below lambda_min(sigma)
        rng = make_rng(64)
        lam = np.concatenate([[-0.1], rng.uniform(0.5, 1.5, 7)])
        base = range_state(np.eye(8) / 8)
        s = range_state(planted_sigma(lam, rng), w=base._w * (1 + 1e-3))
        rho = s.rho
        exact = np.linalg.eigvalsh((rho + dagger(rho)) / 2).min()
        assert exact < -0.1 - 1e-4
        assert s.invariant_residuals()["min_eig"] <= exact

    def test_one_eigh_per_row(self, monkeypatch):
        rng = make_rng(65)
        s = range_state(planted_sigma(np.full(8, 1 / 8), rng))
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or real(h))
        s.invariant_residuals()
        entanglement_entropy(s)
        assert calls == [(8, 8)]

    def test_low_rank_row_takes_the_ritz_values(self, monkeypatch):
        # l_r = 4 (rho_R is 256 x 256), sigma of rank 3: no dense eigensolve
        rng = make_rng(66)
        n = 2 * 4 ** 3
        v, _ = np.linalg.qr(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
        s = range_state((v * np.array([0.5, 0.3, 0.2])) @ dagger(v), l_r=4)
        dense = JointState(2, 4, 4, s.rho, 1)
        want = entanglement_entropy(dense)
        sizes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(h.shape[0]) or real(h))
        assert abs(entanglement_entropy(s) - want) <= 1e-12
        assert max(sizes) < 256

    def test_assigning_rho_makes_the_state_dense(self):
        rng = make_rng(67)
        s = range_state(planted_sigma(np.full(8, 1 / 8), rng))
        rho = s.rho
        s.invariant_residuals()
        s.rho = rho
        assert s._w is None and s._eig is None
        assert np.array_equal(s.rho, rho)
