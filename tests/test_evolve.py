import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvcirc import evolve
from solvcirc.errors import CapacityError, NumericalDriftError
from solvcirc.evolve import (DENSITY_ENTRY_CAP, EvolutionConfig, JointState,
                             brickwork_unitary, entanglement_entropy,
                             initial_joint_state, joint_dimension,
                             local_expectation, mps_continuation_kets, states,
                             step, subsystem_density)
from solvcirc.gates import TwoSiteGate, random_gate, swap_matrix
from solvcirc.linalg import (PROBE_RESIDUAL_TOL, dagger, hermiticity_residual, kron,
                             make_rng, max_abs, sandwich, von_neumann_entropy)
from solvcirc.mps import (ghz_cluster_family, product_state_mps, random_left_canonical,
                          random_lpdo)
from test_channel import reference_apply_channel, trace_site0
from test_linalg import partial_trace
from test_oracle import traced_peak


def product_right_kets(chi, q, l_r, level):
    ket = np.zeros(q ** l_r, dtype=complex)
    idx = 0
    for _ in range(l_r):
        idx = idx * q + level
    ket[idx] = 1.0
    return np.tile(ket, (chi, 1))


def dense_state(chi, q, l_r, rho, t=0):
    """A joint state holding a D x D rho as it is: a range state with
    W = I_{chi q}, so n = D and sigma = rho."""
    return JointState(chi, q, l_r, np.asarray(rho, dtype=complex), t, w=np.eye(chi * q))


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

    def test_rejects_a_nan_solvability_residual(self):
        gate = random_gate("q2_qt1", make_rng(1))
        gate.matrix = np.full_like(gate.matrix, np.nan)  # past the gate's own check
        with pytest.raises(ValueError, match="residual nan"):
            EvolutionConfig(gate, product_state_mps([1, 0]), product_right_kets(1, 2, 2, 0), 2, 1)

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
        cfg = saturation_config(tmax=2)
        step(step(initial_joint_state(cfg), cfg), cfg)  # caches W
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


def fused_conjugation(rho, gate, l_r):
    """U rho U^dag, U = I_chi (x) U_R, by the engine's local-gate kernel: U
    on the row legs twice, (U (U rho)^dag)^dag, through
    ``evolve._brickwork_rows`` on the plan of the period's bonds."""
    plan = evolve._brickwork_plan(gate, evolve._period_bonds(l_r), rho.shape[0] // gate.q ** l_r)
    m = np.ascontiguousarray(rho)
    for _ in range(2):
        m = evolve._brickwork_rows(m, plan, (np.empty_like(m), np.empty_like(m)))
        m = np.ascontiguousarray(dagger(m))
    return m


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
        assert max_abs(fused_conjugation(rho, gate, l_r) - expect) < 1e-12

    def test_input_untouched_and_any_memory_order(self):
        rng = make_rng(30)
        gate = random_gate("haar", rng, q=3)
        rho = random_hermitian(2 * 27, rng)
        before = rho.copy()
        out = fused_conjugation(rho, gate, 3)
        assert np.array_equal(rho, before)
        assert out.flags.c_contiguous
        f_out = fused_conjugation(np.asfortranarray(rho), gate, 3)
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

    def test_nan_state_drifts(self):
        cfg = saturation_config(tmax=0)
        s = dense_state(2, 4, 4, np.full((512, 512), np.nan))
        with pytest.raises(NumericalDriftError, match="trace nan"):
            step(s, cfg)

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
        for _ in range(4):
            s = step(s, cfg)
            site0 = partial_trace(subsystem_density(s), [2, 2, 2], [0])
            assert abs(site0[0, 0] - 1) < 1e-12
            assert abs(site0[1, 1]) < 1e-12


def _arrays(obj):
    """The writable numpy arrays held in the attributes of ``obj``, private
    ones too (the read-only W is the channel's, shared by every state)."""
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray) and v.flags.writeable]


def wide_config(tmax=2):
    """q=2, chi=2, L_R=9: D = 1024, sigma on n = 512."""
    gate = random_gate("general", make_rng(3), q=2, qt=2)
    return EvolutionConfig(gate, ghz_cluster_family(0.6, 2),
                           product_right_kets(2, 2, 9, 0), 9, tmax)


def q4_wide_config(tmax=2):
    """q=4, chi=4, L_R=4: D = 1024, sigma on n = 256."""
    rng = make_rng(7)
    kets = rng.standard_normal((4, 4 ** 4)) + 1j * rng.standard_normal((4, 4 ** 4))
    return EvolutionConfig(random_gate("swap", rng, q=4), random_left_canonical(4, 4, rng),
                           kets, 4, tmax)


def q3_config(tmax=2):
    """q=3, chi=2, L_R=5: D = 486, sigma on n = 162."""
    gate = random_gate("general", make_rng(4), q=3, qt=2)
    return EvolutionConfig(gate, ghz_cluster_family(0.6, 3),
                           product_right_kets(2, 3, 5, 1), 5, tmax)


def lpdo_config(tmax=2):
    """q=2, chi=2, L_R=6 with an LPDO: r = chi q, so n = D = 256."""
    return EvolutionConfig(random_gate("q2_qt2", make_rng(5)), random_lpdo(2, 2, 2, make_rng(6)),
                           product_right_kets(2, 2, 6, 1), 6, tmax)


def reference_step_rho(rho, cfg):
    """One period on a D x D rho, never projected."""
    return reference_apply_channel(cfg.channel,
                                   dense_conjugation(rho, cfg.gate, cfg.chi, cfg.l_r))


def reference_period(s, cfg):
    """The period as it was before the channel read Tr_0: Y X Y^dag formed
    as a D x D array (dense Y = (I_chi (x) U_R)(W_s (x) I), or phi phi^dag
    with phi = (I_chi (x) U_R) psi on a ket state), the D x D channel and
    the projection (W^dag (x) I) . (W (x) I)."""
    u = kron(np.eye(cfg.chi), brickwork_unitary(cfg.gate, cfg.l_r))
    if s._w is None:
        phi = u @ s._held
        x = np.outer(phi, phi.conj())
    else:
        y = u @ kron(s._w, np.eye(cfg.q ** (cfg.l_r - 1)))
        x = y @ s._held @ dagger(y)
    return sandwich(dagger(cfg.channel.range_basis()), reference_apply_channel(cfg.channel, x))


class TestTracedPeriod:
    """The period applies the channel to Z = Tr_0(Y X Y^dag), formed on
    (D/q)^2 entries: from the ket on row t=0, then with Tr_0 pushed through
    the brickwork."""

    @pytest.mark.parametrize("make_cfg", [saturation_config, q3_config, wide_config,
                                          lpdo_config, q4_wide_config])
    def test_matches_the_reference_period(self, make_cfg, monkeypatch):
        cfg = make_cfg(tmax=3)
        traced = []
        real = evolve._traced_brickwork
        monkeypatch.setattr(evolve, "_traced_brickwork",
                            lambda *a: traced.append(a[0].shape) or real(*a))
        prev = None
        for s in states(cfg):
            if prev is not None:
                assert max_abs(s._held - reference_period(prev, cfg)) < 1e-14
            prev = s
        # one ket period, then the range route on sigma
        n = cfg.channel.range_basis().shape[1] * cfg.q ** (cfg.l_r - 1)
        assert traced == [(n, n)] * 2


class TestEngineBuffers:
    """A period holds no D x D array, and a stepped state holds sigma alone."""

    def test_conjugation_runs_in_its_two_buffers(self, monkeypatch):
        # Tr_0(Y m Y^dag), lifted by a non-isometric w, on a non-Hermitian
        # input (q=3, chi=2); V (the gates off site 0) runs twice on T's row
        # legs, in T and one more array, and at l_r = 2 V is empty and Z = T
        calls = []
        real = evolve._brickwork_rows
        monkeypatch.setattr(evolve, "_brickwork_rows",
                            lambda a, plan, bufs: calls.append((a, bufs)) or real(a, plan, bufs))
        for l_r in (2, 3, 4):
            rng = make_rng(50 + l_r)
            gate = random_gate("haar", rng, q=3)
            w = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            n = 2 * 3 ** (l_r - 1)
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            before = m.copy()
            y = kron(np.eye(2), brickwork_unitary(gate, l_r)) @ kron(w, np.eye(n // 2))
            calls.clear()
            z = evolve._traced_brickwork(m, w, gate, l_r)
            assert max_abs(z - trace_site0(y @ m @ dagger(y), 2, 3)) < 1e-12
            assert np.array_equal(m, before)
            bufs = {id(b): b for _, pair in calls for b in pair}
            assert len(calls) == len(bufs) == (0 if l_r == 2 else 2)
            assert all(id(a) in bufs for a, _ in calls)
            assert l_r == 2 or any(z is b for b in bufs.values())

    def test_two_steps_of_one_state_share_no_memory(self):
        cfg = q3_config(tmax=2)
        s = list(states(cfg))[1]
        first, second = step(s, cfg), step(s, cfg)
        assert np.array_equal(first._held, second._held)
        assert first._w is second._w is s._w
        for a in _arrays(first) + _arrays(s):
            for b in _arrays(second):
                assert not np.shares_memory(a, b)

    def test_stream_shares_no_memory(self):
        held = [a for s in list(states(q3_config(tmax=4))) for a in _arrays(s)]
        assert len(held) == 5  # rho(0) and four sigma
        for i, a in enumerate(held):
            for b in held[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_min_eig_of_a_rebuilt_state(self):
        cfg = q3_config(tmax=4)
        for s in states(cfg):
            got = s.invariant_residuals()["min_eig"]
            bare = JointState(s.chi, s.q, s.l_r, s._held, s.t, w=s._w)
            assert got == bare.invariant_residuals()["min_eig"]

    def test_hermiticity_scanned_once_per_row(self, monkeypatch):
        cfg = q3_config(tmax=2)
        s1 = list(states(cfg))[1]
        calls = []
        real = evolve.hermiticity_residual
        monkeypatch.setattr(evolve, "hermiticity_residual", lambda m: calls.append(1) or real(m))
        res = s1.invariant_residuals()
        assert calls == [] and res["hermiticity"] == real(s1._held)
        step(s1, cfg)
        assert calls == [1]
        bare = JointState(s1.chi, s1.q, s1.l_r, s1._held, s1.t, w=s1._w)
        assert bare.invariant_residuals()["hermiticity"] == res["hermiticity"]
        assert calls == [1, 1]

    def test_initial_state_holds_its_ket_alone(self):
        # rho(0) is held as its ket: D complex entries, where the dense
        # rho(0) held 16 D^2 bytes (16 MiB here)
        cfg = wide_config()
        d = cfg.chi * cfg.q ** cfg.l_r
        assert d == 1024
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = initial_joint_state(cfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in _arrays(s)) <= 16 * d
        # the ket, plus the few hundred bytes of the object and array headers
        assert held <= 16 * d + 2 ** 10

    def test_memory_budget_at_d1024(self):
        # D = 1024: q=2 (n = D/2) and q=4 (n = D/4), no cache filled before
        # tracing.  Neither a step nor the diagnostics of the state it
        # returns allocate D^2 entries in all, and a stepped state holds
        # sigma alone.
        for make_cfg in (wide_config, q4_wide_config):
            cfg = make_cfg(tmax=3)
            s = initial_joint_state(cfg)
            d = s._held.shape[0]
            assert d == 1024
            peaks, carried = [], []
            tracemalloc.start()
            try:
                for _ in range(3):
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    s = step(s, cfg)
                    s.invariant_residuals()
                    entanglement_entropy(s)
                    local_expectation(s, 0, np.eye(cfg.q))
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                    carried.append(sum(a.nbytes for a in _arrays(s)))
            finally:
                tracemalloc.stop()
            n = s._held.shape[0]
            assert n == d // cfg.q
            assert max(peaks) < 16 * d * d
            assert max(carried) == 16 * n * n

    @pytest.mark.parametrize("chi,l_r", [(8, 2), (8, 3), (16, 2), (16, 3)])
    def test_period_peak_at_a_wide_bond(self, chi, l_r):
        # q=4 and a random MPS of bond chi (r = chi): one period of a range
        # state, on a config with no cache filled (W is built inside), peaks
        # within 3 (n^2 + (D/q)^2) entries plus 2 MiB.  A site-0 step by the
        # local analogue of apply_channel's S, (chi q)^2 (r q)^2 entries, or
        # with H_s^* copied for every row, (D/q)(chi q)(r q), exceeds it
        def config():
            rng = make_rng(70)
            kets = rng.standard_normal((chi, 4 ** l_r)) + 1j * rng.standard_normal((chi, 4 ** l_r))
            return EvolutionConfig(random_gate("swap", rng, q=4),
                                   random_left_canonical(4, chi, rng), kets, l_r, 1)
        stepped = config()
        s = step(initial_joint_state(stepped), stepped)
        cfg = config()
        d, n = chi * 4 ** l_r, s._held.shape[0]
        assert n == chi * 4 ** (l_r - 1) and cfg.channel._range is None
        got = []
        peak = traced_peak(lambda: got.append(evolve._period(s, cfg)))
        bound = 16 * 3 * (n * n + (d // 4) ** 2) + 2 * 2 ** 20
        assert peak < bound
        assert 16 * (chi * 4) ** 2 * (chi * 4) ** 2 > bound
        if chi == 16:
            assert 16 * (d // 4) * (chi * 4) ** 2 > bound
        assert np.array_equal(got[0], evolve._period(s, stepped))

    def test_chi1_entropy_forms_no_rho_r(self):
        # chi = 1: rho_R is the D x D joint state, but S_ent of a certified
        # row reads the sketch's factor (the sketch itself formed inside the
        # call, its residual on n^2 = D^2 / 16 entries)
        rng = make_rng(8)
        kets = rng.standard_normal((1, 4 ** 5)) + 1j * rng.standard_normal((1, 4 ** 5))
        cfg = EvolutionConfig(random_gate("general", rng, q=4, qt=2),
                              product_state_mps(np.eye(4)[0]), kets, 5, 1)
        s = step(initial_joint_state(cfg), cfg)
        d = s.chi * s.q ** s.l_r
        assert (s.chi, d, s._held.shape[0]) == (1, 1024, 256) and s._sketch is None
        tracemalloc.start()
        try:
            got = entanglement_entropy(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.range_sketch()[2] * (1 + s.isometry_defect()) <= PROBE_RESIDUAL_TOL
        assert peak < 16 * d * d // 4
        assert abs(got - von_neumann_entropy(subsystem_density(s))) <= 1e-12


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
