import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvcirc import evolve
from solvcirc.channel import apply_channel
from solvcirc.errors import CapacityError
from solvcirc.evolve import (DENSITY_ENTRY_CAP, EvolutionConfig, JointState,
                             brickwork_unitary, conjugate_brickwork, entanglement_entropy,
                             initial_joint_state, joint_dimension,
                             local_expectation, mps_continuation_kets, states,
                             step, subsystem_density)
from solvcirc.gates import TwoSiteGate, random_gate, swap_matrix
from solvcirc.linalg import (dagger, hermiticity_residual, kron, make_rng, max_abs,
                             min_eig_lower_bound)
from solvcirc.mps import ghz_cluster_family, product_state_mps


def product_right_kets(chi, q, l_r, level):
    ket = np.zeros(q ** l_r, dtype=complex)
    idx = 0
    for _ in range(l_r):
        idx = idx * q + level
    ket[idx] = 1.0
    return np.tile(ket, (chi, 1))


def saturation_config(theta=np.pi / 4, l_r=4, tmax=5, seed=0):
    rng = make_rng(seed)
    gate = random_gate("general", rng, q=4, qt=2)
    mps = ghz_cluster_family(theta, 4)
    kets = product_right_kets(2, 4, l_r, 2)
    return EvolutionConfig(gate, mps, kets, l_r, tmax)


class TestConfig:
    def test_rejects_unsolvable_pair(self):
        rng = make_rng(1)
        gate = random_gate("haar", rng)
        kets = product_right_kets(1, 2, 2, 0)
        with pytest.raises(ValueError, match="solvable"):
            EvolutionConfig(gate, product_state_mps([1, 0]), kets, 2, 3)

    def test_rejects_negative_tmax(self):
        rng = make_rng(2)
        gate = random_gate("q2_qt1", rng)
        with pytest.raises(ValueError, match="tmax"):
            EvolutionConfig(gate, product_state_mps([1, 0]),
                            product_right_kets(1, 2, 2, 0), 2, -3)

    def test_capacity_checked_before_right_kets(self):
        # q=4, l_r=8, chi=2: D = 131072.  The kets have the wrong shape, so a
        # config that skipped the cap would stop at the shape check instead.
        gate = random_gate("general", make_rng(3), q=4, qt=2)
        with pytest.raises(CapacityError, match="entries"):
            EvolutionConfig(gate, ghz_cluster_family(np.pi / 4, 4),
                            np.zeros((2, 4)), 8, 1)

    def test_capacity_bound_is_inclusive(self):
        cfg = saturation_config(tmax=0)
        d = cfg.chi * cfg.q ** cfg.l_r
        EvolutionConfig(cfg.gate, cfg.mps, cfg.right_kets, cfg.l_r, 0, cap=d * d)
        with pytest.raises(CapacityError):
            EvolutionConfig(cfg.gate, cfg.mps, cfg.right_kets, cfg.l_r, 0,
                            cap=d * d - 1)

    def test_joint_dimension(self):
        assert joint_dimension(2, 2, 11) == 4096
        assert 4096 ** 2 == DENSITY_ENTRY_CAP
        with pytest.raises(CapacityError):
            joint_dimension(2, 2, 12)
        with pytest.raises(ValueError):
            joint_dimension(2, 2, 1)

    def test_holds_no_density_sized_array(self):
        cfg = saturation_config(tmax=1)
        step(initial_joint_state(cfg), cfg)  # caches the channel superoperator
        d = cfg.chi * cfg.q ** cfg.l_r
        assert max(_array_sizes(cfg)) < d * d

    def test_rejects_short_subsystem(self):
        rng = make_rng(2)
        gate = random_gate("q2_qt1", rng)
        with pytest.raises(ValueError):
            EvolutionConfig(gate, product_state_mps([1, 0]),
                            product_right_kets(1, 2, 1, 0), 1, 3)


class TestInitialState:
    def test_two_block_product_state(self):
        cfg = saturation_config()
        s = initial_joint_state(cfg)
        # (|0) + |1))/sqrt(2) (x) |2222>
        psi = np.zeros(2 * 4 ** 4, dtype=complex)
        idx = int("2222", 4)
        psi[idx] = psi[4 ** 4 + idx] = 1 / np.sqrt(2)
        assert max_abs(s.rho - np.outer(psi, psi.conj())) < 1e-14

    def test_single_ket(self):
        rng = make_rng(3)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = np.zeros((2, 4), dtype=complex)
        kets[0, 1] = 1.0
        cfg = EvolutionConfig(gate, mps, kets, 2, 1)
        s = initial_joint_state(cfg)
        expect = np.zeros(8, dtype=complex)
        expect[1] = 1.0
        assert max_abs(s.rho - np.outer(expect, expect.conj())) < 1e-14

    def test_unit_trace(self):
        s = initial_joint_state(saturation_config())
        assert abs(np.trace(s.rho) - 1) < 1e-14

    def test_all_zero_kets(self):
        rng = make_rng(4)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        cfg = EvolutionConfig(gate, mps, np.ones((2, 4), dtype=complex), 2, 1)
        cfg.right_kets = np.zeros((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            initial_joint_state(cfg)


class TestBrickwork:
    def test_l2_single_even_gate(self):
        rng = make_rng(5)
        g = random_gate("haar", rng)
        assert max_abs(brickwork_unitary(g, 2) - g.matrix) == 0

    def test_l4_unitary(self):
        rng = make_rng(6)
        g = random_gate("haar", rng, q=2)
        u = brickwork_unitary(g, 4)
        assert max_abs(dagger(u) @ u - np.eye(16)) < 1e-12

    def test_swap_l3_pattern(self):
        g = TwoSiteGate(2, swap_matrix(2), "swap")
        u = brickwork_unitary(g, 3)
        # even layer swaps (0,1); odd layer swaps (1,2): |abc> -> |b,c,a>
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    ket = np.zeros(8)
                    ket[(a * 2 + b) * 2 + c] = 1
                    out = u @ ket
                    assert out[(b * 2 + c) * 2 + a] == 1

    def test_l1_rejected(self):
        rng = make_rng(7)
        with pytest.raises(ValueError):
            brickwork_unitary(random_gate("haar", rng), 1)


def _array_sizes(obj, depth=0):
    """Sizes of the numpy arrays reachable from ``obj`` through attributes,
    lists and tuples (a few levels deep)."""
    if isinstance(obj, np.ndarray):
        yield obj.size
    elif depth < 4:
        if isinstance(obj, (list, tuple)):
            items = obj
        else:
            items = vars(obj).values() if hasattr(obj, "__dict__") else ()
        for v in items:
            yield from _array_sizes(v, depth + 1)


# gate family -> the local dimensions it is drawn at
GATE_FAMILIES = {
    "haar": (2, 3, 4), "swap": (2, 3, 4), "general": (2, 3, 4),
    "q2_qt1": (2,), "q2_qt2": (2,), "both_chirality_q2": (2,),
    "both_chirality_q4plus": (4,),
}


def dense_conjugation(rho, gate, chi, l_r):
    u = kron(np.eye(chi), brickwork_unitary(gate, l_r))
    return u @ rho @ dagger(u)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + dagger(a)
    return h / np.linalg.norm(h)


class TestMatrixFreePeriod:
    @settings(max_examples=40, deadline=None)
    @given(family_q=st.sampled_from(sorted(GATE_FAMILIES)).flatmap(
               lambda f: st.tuples(st.just(f), st.sampled_from(GATE_FAMILIES[f]))),
           seed=st.integers(0, 2 ** 31 - 1), chi=st.sampled_from([1, 2]),
           l_r=st.integers(2, 5))
    def test_matches_dense_brickwork(self, family_q, seed, chi, l_r):
        family, q = family_q
        d = chi * q ** l_r
        assume(d <= 512)
        rng = make_rng(seed)
        gate = random_gate(family, rng, q=q, qt=2)
        rho = random_hermitian(d, rng)
        expect = dense_conjugation(rho, gate, chi, l_r)
        assert max_abs(conjugate_brickwork(rho, gate, l_r) - expect) < 1e-12

    def test_input_untouched_and_any_memory_order(self):
        rng = make_rng(30)
        gate = random_gate("haar", rng, q=3)
        rho = random_hermitian(2 * 27, rng)
        before = rho.copy()
        out = conjugate_brickwork(rho, gate, 3)
        assert np.array_equal(rho, before)
        assert out.flags.c_contiguous
        f_out = conjugate_brickwork(np.asfortranarray(rho), gate, 3)
        assert np.array_equal(f_out, out)
        assert max_abs(out - dense_conjugation(rho, gate, 2, 3)) < 1e-12


class TestStep:
    def test_trace_preserved_long_run(self):
        cfg = saturation_config(tmax=0)
        s = initial_joint_state(cfg)
        for _ in range(100):
            s = step(s, cfg)
            res = s.invariant_residuals()
            assert res["trace"] < 1e-12
            assert res["hermiticity"] < 1e-12
            assert res["min_eig"] > -1e-8
        assert s.t == 100

    def test_min_eig_bounds_the_dense_value(self):
        # D = 512 and rank far below it: the low-rank probe certifies min_eig
        cfg = saturation_config(tmax=4)
        for s in states(cfg):
            exact = np.linalg.eigvalsh((s.rho + dagger(s.rho)) / 2).min()
            assert exact - 1e-12 <= s.invariant_residuals()["min_eig"] <= exact + 1e-14

    def test_reset_boundary_site(self):
        # product |0> left state: site 0 is |0><0| after every step
        rng = make_rng(8)
        gate = random_gate("q2_qt1", rng)
        mps = product_state_mps([1, 0])
        kets = np.zeros((1, 8), dtype=complex)
        v = make_rng(9).standard_normal(8) + 1j * make_rng(10).standard_normal(8)
        kets[0] = v / np.linalg.norm(v)
        cfg = EvolutionConfig(gate, mps, kets, 3, 4)
        s = initial_joint_state(cfg)
        from solvcirc.linalg import partial_trace
        for _ in range(4):
            s = step(s, cfg)
            site0 = partial_trace(subsystem_density(s), [2, 2, 2], [0])
            assert abs(site0[0, 0] - 1) < 1e-12
            assert abs(site0[1, 1]) < 1e-12


def _arrays(obj):
    """The numpy arrays held in the attributes of ``obj``, private ones too."""
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


def wide_config(tmax=2):
    """q=2, chi=2, L_R=9: D = 1024."""
    gate = random_gate("general", make_rng(3), q=2, qt=2)
    return EvolutionConfig(gate, ghz_cluster_family(0.6, 2),
                           product_right_kets(2, 2, 9, 0), 9, tmax)


def q3_config(tmax=2):
    """q=3, chi=2, L_R=5: D = 486.  The channel compresses ancilla (x) site 0
    only 3-fold (chi q / r = 6 / 2), so the engine steps D x D."""
    gate = random_gate("general", make_rng(4), q=3, qt=2)
    return EvolutionConfig(gate, ghz_cluster_family(0.6, 3),
                           product_right_kets(2, 3, 5, 1), 5, tmax)


def reference_step_rho(rho, cfg):
    return apply_channel(cfg.channel, conjugate_brickwork(rho, cfg.gate, cfg.l_r))


class TestEngineBuffers:
    """A period of the D x D route runs in its input plus two D x D arrays,
    with the arithmetic of the copying path: every result is bit-identical
    to it."""

    def test_conjugate_brickwork_lands_in_the_second_buffer(self):
        rng = make_rng(50)
        gate = random_gate("haar", rng, q=3)
        rho = random_hermitian(2 * 27, rng)
        work = (np.empty_like(rho), np.empty_like(rho))
        assert conjugate_brickwork(rho, gate, 3, work=work) is work[1]
        assert np.array_equal(work[1], conjugate_brickwork(rho, gate, 3))

    def test_conjugate_brickwork_rejects_aliased_work(self):
        rng = make_rng(51)
        gate = random_gate("haar", rng, q=2)
        rho = random_hermitian(8, rng)
        buf = np.empty_like(rho)
        for work in ((buf, buf), (rho, buf), (buf, rho), (buf, np.empty((8, 8)))):
            with pytest.raises(ValueError):
                conjugate_brickwork(rho, gate, 3, work=work)

    @pytest.mark.parametrize("make_cfg", [q3_config, wide_config])
    def test_step_with_and_without_scratch(self, make_cfg):
        cfg = make_cfg(tmax=3)
        s = list(states(cfg))[-1]
        assert s._scratch is not None
        bare = JointState(s.chi, s.q, s.l_r, s.rho.copy(), s.t)
        with_scratch, without = step(s, cfg), step(bare, cfg)
        assert np.array_equal(with_scratch.rho, without.rho)
        assert np.array_equal(with_scratch.rho, reference_step_rho(s.rho, cfg))
        assert with_scratch._herm == without._herm == hermiticity_residual(without.rho)

    def test_scratch_is_taken_from_the_input(self):
        cfg = q3_config(tmax=1)
        s0, s1 = states(cfg)
        assert s0._scratch is None and s1._scratch is not None
        scratch = s1._scratch
        s2 = step(s1, cfg)
        assert s1._scratch is None and s2._scratch is scratch

    def test_two_steps_of_one_state_share_no_memory(self):
        cfg = q3_config(tmax=2)
        s = list(states(cfg))[1]
        first, second = step(s, cfg), step(s, cfg)
        assert np.array_equal(first.rho, second.rho)
        for a in _arrays(first) + _arrays(s):
            for b in _arrays(second):
                assert not np.shares_memory(a, b)

    def test_stream_shares_no_memory(self):
        held = [a for s in list(states(q3_config(tmax=4))) for a in _arrays(s)]
        assert len(held) == 6  # five rho and the last state's scratch
        for i, a in enumerate(held):
            for b in held[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_min_eig_work_buffer(self):
        cfg = q3_config(tmax=4)
        for s in states(cfg):
            lent = s.invariant_residuals()["min_eig"]
            assert lent == min_eig_lower_bound(s.rho)
        rng = make_rng(52)
        for h in (random_hermitian(512, rng), s.rho):  # dense and probe paths
            work = np.empty_like(h)
            assert min_eig_lower_bound(h, work=work) == min_eig_lower_bound(h)
        with pytest.raises(ValueError, match="shares memory"):
            min_eig_lower_bound(h, work=h)

    def test_hermiticity_scanned_once_per_row(self, monkeypatch):
        cfg = q3_config(tmax=2)
        s1 = list(states(cfg))[1]
        calls = []
        real = evolve.hermiticity_residual
        monkeypatch.setattr(evolve, "hermiticity_residual", lambda m: calls.append(1) or real(m))
        res = s1.invariant_residuals()
        assert calls == [] and res["hermiticity"] == real(s1.rho)
        step(s1, cfg)
        assert calls == [1]
        bare = JointState(s1.chi, s1.q, s1.l_r, s1.rho, s1.t)
        assert bare.invariant_residuals()["hermiticity"] == res["hermiticity"]
        assert calls == [1, 1]

    def test_memory_budget_at_d1024(self):
        cfg = wide_config()
        s = initial_joint_state(cfg)
        d2 = s.rho.size * 16
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(3):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                s = step(s, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 2 * d2 + 2 ** 21
        assert max(peaks[1:]) <= d2 + 2 ** 21


class TestObservables:
    def test_subsystem_density_basic(self):
        s = initial_joint_state(saturation_config())
        rho = subsystem_density(s)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert max_abs(rho - dagger(rho)) < 1e-12
        expect = np.zeros(4 ** 4)
        expect[int("2222", 4)] = 1
        assert max_abs(rho - np.diag(expect)) < 1e-12

    def test_entropy_initial_zero(self):
        assert entanglement_entropy(initial_joint_state(saturation_config())) < 1e-12

    def test_entropy_dimension_bound(self):
        cfg = saturation_config(tmax=6)
        for s in states(cfg):
            assert entanglement_entropy(s) <= 4 * np.log(4) + 1e-9

    def test_local_expectation_identity(self):
        s = initial_joint_state(saturation_config())
        assert abs(local_expectation(s, 2, np.eye(4)) - 1) < 1e-12

    def test_local_expectation_initial_projector(self):
        s = initial_joint_state(saturation_config())
        proj2 = np.zeros((4, 4), dtype=complex)
        proj2[2, 2] = 1
        for site in range(4):
            assert abs(local_expectation(s, site, proj2) - 1) < 1e-12

    def test_local_expectation_via_joint_state(self):
        cfg = saturation_config(tmax=3)
        s = list(states(cfg))[-1]
        proj = np.zeros((4, 4), dtype=complex)
        proj[1, 1] = 1
        direct = local_expectation(s, 1, proj)
        from solvcirc.linalg import partial_trace
        joint = partial_trace(s.rho, [2, 4, 4, 4, 4], [2])
        assert abs(direct - np.trace(joint @ proj).real) < 1e-12

    def test_site_out_of_range(self):
        s = initial_joint_state(saturation_config())
        with pytest.raises(ValueError):
            local_expectation(s, 4, np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_refused(self, bad):
        s = initial_joint_state(saturation_config())
        with pytest.raises(ValueError, match="operator must be Hermitian"):
            local_expectation(s, 0, np.diag([bad, 1.0, 1.0, 1.0]))

    def test_states_steps_on_demand(self, monkeypatch):
        cfg = saturation_config(tmax=3)
        calls = []
        real_step = evolve.step
        monkeypatch.setattr(evolve, "step", lambda s, c: calls.append(s.t) or real_step(s, c))
        stream = states(cfg)
        assert next(stream).t == 0 and calls == []
        assert next(stream).t == 1 and calls == [0]
        assert [s.t for s in stream] == [2, 3] and calls == [0, 1, 2]


class TestLeftStateVariants:
    def test_two_site_cell_engine_runs(self):
        rng = make_rng(20)
        t = ghz_cluster_family(np.pi / 4, 2)
        from solvcirc.mps import two_site_from_pair
        cell = two_site_from_pair(t, t)
        gate = random_gate("q2_qt2", rng)
        cfg = EvolutionConfig(gate, cell, product_right_kets(2, 2, 3, 0), 3, 5)
        for s in states(cfg):
            assert s.invariant_residuals()["trace"] < 1e-12

    def test_lpdo_engine_runs(self):
        rng = make_rng(21)
        from solvcirc.mps import random_lpdo
        lpdo = random_lpdo(2, 2, 2, rng)
        gate = random_gate("q2_qt2", rng)  # dressed SWAP solves any q=2 span
        cfg = EvolutionConfig(gate, lpdo, product_right_kets(2, 2, 3, 1), 3, 5)
        for s in states(cfg):
            res = s.invariant_residuals()
            assert res["trace"] < 1e-12 and res["min_eig"] > -1e-10


class TestContinuationKets:
    def test_norm_and_gram(self):
        t = ghz_cluster_family(np.pi / 4, 2)
        kets = mps_continuation_kets(t, 5)
        gram = kets @ dagger(kets)
        assert max_abs(gram - np.eye(2)) < 1e-12

    def test_requires_bond_fit(self):
        rng = make_rng(11)
        from solvcirc.mps import random_left_canonical
        t = random_left_canonical(2, 3, rng)
        with pytest.raises(ValueError):
            mps_continuation_kets(t, 4)
