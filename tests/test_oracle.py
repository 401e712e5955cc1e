import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.errors import CapacityError
from solvcirc.evolve import EvolutionConfig, states, subsystem_density
from solvcirc.gates import TwoSiteGate, random_gate, swap_matrix
from solvcirc.linalg import (_ROW_BLOCK, haar_unitary, make_rng, max_abs, reduced_density,
                             renyi_trace, trace_distance)
from solvcirc.mps import (ghz_cluster_family, left_block, product_state_mps,
                          random_left_canonical)
from solvcirc import oracle
from solvcirc.oracle import (DEFAULT_AMPLITUDE_CAP, ChainSpec, build_initial_chain,
                             evolve_chain, influence_matrix_bruteforce,
                             renyi_chain_density, renyi_trace_chain)
from solvcirc.solvable import build_influence_matrix_open
from test_linalg import reference_apply_pair


def random_right_kets(chi, dim, rng):
    kets = rng.standard_normal((chi, dim)) + 1j * rng.standard_normal((chi, dim))
    return kets / np.linalg.norm(kets)


class TestBuildChain:
    def test_product_left(self):
        rng = make_rng(0)
        gate = random_gate("q2_qt1", rng)
        mps = product_state_mps([1, 0])
        kets = random_right_kets(1, 8, rng)
        spec = ChainSpec(gate, mps, kets, 6, 3, 2)
        psi = build_initial_chain(spec)
        # left block is |000000>, right part proportional to the ket
        psi = psi.reshape(2 ** 6, 8)
        assert max_abs(psi[1:]) < 1e-14
        assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_norm_and_gram(self):
        rng = make_rng(1)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = random_right_kets(2, 4, rng)
        spec = ChainSpec(gate, mps, kets, 6, 2, 2)
        psi = build_initial_chain(spec)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        # Gram of the chi left-block states is the identity (telescoping)
        block = left_block(mps, 6).reshape(-1, 2)
        gram = block.conj().T @ block
        assert max_abs(gram - np.eye(2)) < 1e-12

    def test_capacity(self):
        rng = make_rng(2)
        gate = random_gate("general", rng, q=4, qt=2)
        mps = ghz_cluster_family(0.5, 4)
        kets = random_right_kets(2, 4 ** 4, rng)
        with pytest.raises(CapacityError):
            ChainSpec(gate, mps, kets, 8, 4, 2)

    def test_lightcone_margin_enforced(self):
        rng = make_rng(3)
        gate = random_gate("q2_qt1", rng)
        mps = product_state_mps([1, 0])
        kets = random_right_kets(1, 4, rng)
        with pytest.raises(ValueError):
            ChainSpec(gate, mps, kets, 4, 2, 4)  # l_left < 2*tmax
        with pytest.raises(ValueError):
            ChainSpec(gate, mps, kets, 9, 2, 4, purify=False)  # needs 2t+2

    def test_rejects_negative_tmax(self):
        rng = make_rng(3)
        gate = random_gate("q2_qt1", rng)
        kets = random_right_kets(1, 4, rng)
        with pytest.raises(ValueError, match="tmax"):
            ChainSpec(gate, product_state_mps([1, 0]), kets, 4, 2, -3)


class TestEngineEquivalence:
    def test_q2_dressed_swap_cluster(self):
        rng = make_rng(4)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = random_right_kets(2, 8, rng)
        spec = ChainSpec(gate, mps, kets, 10, 3, 4)
        chain = evolve_chain(spec)
        engine = list(states(EvolutionConfig(gate, mps, kets, 3, 4)))
        for t in range(5):
            assert trace_distance(chain[t], subsystem_density(engine[t])) < 1e-10

    def test_q4_general_ghz_cluster(self):
        rng = make_rng(5)
        gate = random_gate("general", rng, q=4, qt=2)
        mps = ghz_cluster_family(0.5, 4)
        kets = random_right_kets(2, 16, rng)
        spec = ChainSpec(gate, mps, kets, 6, 2, 2)
        chain = evolve_chain(spec)
        engine = list(states(EvolutionConfig(gate, mps, kets, 2, 2)))
        for t in range(3):
            assert trace_distance(chain[t], subsystem_density(engine[t])) < 1e-10

    def test_wrong_layer_order_breaks_agreement(self):
        rng = make_rng(6)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = random_right_kets(2, 8, rng)
        spec = ChainSpec(gate, mps, kets, 10, 3, 3, layer_order="odd_first")
        chain = evolve_chain(spec)
        engine = list(states(EvolutionConfig(gate, mps, kets, 3, 3)))
        worst = max(trace_distance(chain[t], subsystem_density(engine[t]))
                    for t in range(4))
        assert worst > 1e-3

    def test_t0_matches_exactly(self):
        rng = make_rng(7)
        gate = random_gate("q2_qt1", rng)
        mps = product_state_mps([0, 1])
        kets = random_right_kets(1, 8, rng)
        spec = ChainSpec(gate, mps, kets, 6, 3, 2)
        chain = evolve_chain(spec)
        engine = list(states(EvolutionConfig(gate, mps, kets, 3, 2)))
        assert trace_distance(chain[0], subsystem_density(engine[0])) < 1e-14


# solvable gate family -> (local dimensions, left MPS kinds it is solvable on)
SOLVABLE_PAIRS = {
    "swap": ((2, 3, 4), ("ghz_cluster", "product")),
    "general": ((2, 3, 4), ("ghz_cluster", "product")),
    "q2_qt2": ((2,), ("ghz_cluster", "product")),
    "q2_qt1": ((2,), ("product",)),
    "both_chirality_q2": ((2,), ("product",)),
    "both_chirality_q4plus": ((4,), ("ghz_cluster", "product")),
}


class TestEngineOracleProperty:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(SOLVABLE_PAIRS)),
           seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_engine_equals_chain(self, family, seed, data):
        qs, kinds = SOLVABLE_PAIRS[family]
        q = data.draw(st.sampled_from(qs), label="q")
        kind = data.draw(st.sampled_from(kinds), label="mps")
        rng = make_rng(seed)
        gate = random_gate(family, rng, q=q, qt=2)
        if kind == "ghz_cluster":
            mps = ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q)
        else:
            mps = product_state_mps(np.eye(q)[rng.integers(2)])
        # the largest l_r with an engine dimension D = chi q^l_r <= 2^10
        l_r_max = max(l for l in range(2, 11) if mps.chi * q ** l <= 2 ** 10)
        l_r = data.draw(st.integers(2, l_r_max), label="l_r")
        tmax = data.draw(st.integers(1, 2), label="tmax")
        l_left = data.draw(st.integers(2 * tmax, 2 * tmax + 1), label="l_left")
        kets = random_right_kets(mps.chi, q ** l_r, rng)
        chain = evolve_chain(ChainSpec(gate, mps, kets, l_left, l_r, tmax))
        engine = list(states(EvolutionConfig(gate, mps, kets, l_r, tmax)))
        for t in range(tmax + 1):
            assert trace_distance(chain[t], subsystem_density(engine[t])) < 1e-10


class TestLightconeInvariance:
    def test_left_size_independence(self):
        rng = make_rng(8)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = random_right_kets(2, 4, rng)
        outs = []
        for l_left in (6, 8):
            spec = ChainSpec(gate, mps, kets, l_left, 2, 2)
            outs.append(evolve_chain(spec))
        for a, b in zip(*outs):
            assert trace_distance(a, b) < 1e-12

    def test_closure_independence(self):
        # dangling-bond purification vs fixed unit bond vector at safe margin
        rng = make_rng(9)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        kets = random_right_kets(2, 4, rng)
        a = evolve_chain(ChainSpec(gate, mps, kets, 8, 2, 2, purify=True))
        b = evolve_chain(ChainSpec(gate, mps, kets, 8, 2, 2, purify=False))
        for x, y in zip(a, b):
            assert trace_distance(x, y) < 1e-12


class TestSwapPermutation:
    def test_swap_chain_is_a_permutation(self):
        """Independent oracle: under SWAP gates the brickwork is pure index
        bookkeeping (even sublattice shifts +2, odd shifts -2 per period)."""
        gate = TwoSiteGate(2, swap_matrix(2), "swap")
        mps = ghz_cluster_family(np.pi / 4, 2)
        rng = make_rng(10)
        kets = random_right_kets(2, 8, rng)
        spec = ChainSpec(gate, mps, kets, 8, 3, 1)
        psi0 = build_initial_chain(spec)
        chain = evolve_chain(spec)

        n_sites = 8 + 3
        dims = [2] + [2] * n_sites

        def site_axis(x):
            return 1 + x + 8

        moved = psi0.reshape(dims)
        # one period: swap even bonds then odd bonds (global coordinates)
        for x in [x for x in range(-8, 2) if x % 2 == 0]:
            moved = np.swapaxes(moved, site_axis(x), site_axis(x + 1))
        for x in [x for x in range(-8, 2) if x % 2 != 0]:
            moved = np.swapaxes(moved, site_axis(x), site_axis(x + 1))
        m = moved.reshape(-1, 8)
        rho = np.einsum('lr,ls->rs', m, m.conj())
        assert trace_distance(rho, chain[1]) < 1e-12


class TestRenyiChain:
    def test_product_state_all_one(self):
        rng = make_rng(11)
        gate = random_gate("both_chirality_q2", rng)
        mps = product_state_mps([1, 0])
        for t in (0, 1, 2):
            for n in (2, 3):
                assert abs(renyi_trace_chain(gate, mps, n, t) - 1.0) < 1e-10

    def test_t0_cluster_counts_bond(self):
        gate = TwoSiteGate(2, swap_matrix(2), "swap")
        mps = ghz_cluster_family(np.pi / 4, 2)
        assert abs(renyi_trace_chain(gate, mps, 2, 0) - 2.0) < 1e-10

    def test_monotone_decay_logged(self):
        gate = TwoSiteGate(2, swap_matrix(2), "swap")
        mps = ghz_cluster_family(np.pi / 4, 2)
        vals = [renyi_trace_chain(gate, mps, 2, t) for t in (0, 1, 2)]
        # observation only: non-increasing in the tested configs
        assert vals[0] >= vals[1] >= vals[2]

    def test_margin_enforced(self):
        gate = TwoSiteGate(2, swap_matrix(2), "swap")
        mps = ghz_cluster_family(np.pi / 4, 2)
        with pytest.raises(ValueError):
            renyi_trace_chain(gate, mps, 2, 2, l_left=4)

    @pytest.mark.parametrize("gate_q,mps_q", [(3, 2), (2, 4)])
    def test_gate_and_tensor_q_must_agree(self, gate_q, mps_q, monkeypatch):
        # a q = 2 gate on q = 4 legs acted on one leg as if it were two, and
        # the trace read 0.799 against the transfer matrix's 0.774
        monkeypatch.setattr(oracle, "left_block", lambda *a: pytest.fail("chain built"))
        gate = random_gate("haar", make_rng(1), q=gate_q)
        with pytest.raises(ValueError, match="does not match tensor q"):
            renyi_trace_chain(gate, ghz_cluster_family(0.5, mps_q), 2, 1, l_left=4, l_r=4)


def reference_periods(psi, u, dims, l_left, l_r, t, dr, layer_order="even_first"):
    """rho_R after 0..t periods of the brickwork on legs 1.. (leg 0 is the
    far bond), each gate applied by ``reference_apply_pair`` in canonical
    leg order.  rho_R is ``reduced_density`` without a buffer, whose
    summation order the frame does not change: an einsum sums the rows in
    another order and differed from it by 1.5e-14 on one q = 4, chi = 1
    state of 4^7 amplitudes."""
    bonds = [1 + x + l_left for x in range(-l_left, l_r - 1)]
    evens = [p for p in bonds if (p - 1 - l_left) % 2 == 0]
    odds = [p for p in bonds if (p - 1 - l_left) % 2 != 0]
    sites = evens + odds if layer_order == "even_first" else odds + evens
    out = [reduced_density(psi, dr)]
    for _ in range(t):
        for p in sites:
            psi = reference_apply_pair(psi, u, dims, p, p + 1)
        out.append(reduced_density(psi, dr))
    return out


# the sweep's chains hold at most this many amplitudes
SWEEP_CAP = 2 ** 15


def chain_tensor(q, chi, rng):
    return (random_left_canonical(q, chi, rng) if chi > 1
            else product_state_mps(haar_unitary(q, rng)[0]))


class TestCyclicFrame:
    """evolve_chain and renyi_trace_chain hold the chain in a rotated leg
    frame; a per-gate loop in canonical order is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from([2, 3, 4]), chi=st.sampled_from([1, 2]),
           purify=st.booleans(), layer_order=st.sampled_from(["even_first", "odd_first"]),
           odd_left=st.booleans(), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_evolve_chain_matches_the_gate_loop(self, q, chi, purify, layer_order,
                                                odd_left, seed, data):
        bond = chi if purify else 1

        def left(t):  # the smallest l_left the lightcone admits, of the drawn parity
            return 2 * t + (0 if purify else 2) + odd_left

        tmax = data.draw(st.sampled_from(
            [t for t in range(4) if bond * q ** (left(t) + 1) <= SWEEP_CAP]), label="tmax")
        l_left = left(tmax)
        l_r = data.draw(st.sampled_from(
            [l for l in range(1, 5) if bond * q ** (l_left + l) <= SWEEP_CAP]), label="l_r")
        rng = make_rng(seed)
        gate = TwoSiteGate(q, haar_unitary(q * q, rng))
        spec = ChainSpec(gate, chain_tensor(q, chi, rng),
                         random_right_kets(chi, q ** l_r, rng), l_left, l_r, tmax,
                         layer_order=layer_order, purify=purify)
        dims = [bond] + [q] * (l_left + l_r)
        ref = reference_periods(build_initial_chain(spec), gate.matrix, dims, l_left, l_r,
                                tmax, q ** l_r, layer_order)
        got = evolve_chain(spec)
        assert len(got) == tmax + 1
        for a, b in zip(got, ref):
            assert max_abs(a - b) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(q=st.sampled_from([2, 3, 4]), chi=st.sampled_from([1, 2]),
           n=st.integers(2, 4), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_renyi_trace_chain_matches_the_gate_loop(self, q, chi, n, seed, data):
        t = data.draw(st.sampled_from(
            [t for t in range(3) if chi * chi * q ** (4 * t + 4) <= SWEEP_CAP]), label="t")
        sizes = [2 * t + 2, 2 * t + 3]
        l_left = data.draw(st.sampled_from(
            [l for l in sizes if chi * chi * q ** (l + 2 * t + 2) <= SWEEP_CAP]), label="l_left")
        l_r = data.draw(st.sampled_from(
            [l for l in sizes if chi * chi * q ** (l_left + l) <= SWEEP_CAP]), label="l_r")
        rng = make_rng(seed)
        gate = TwoSiteGate(q, haar_unitary(q * q, rng))
        mps = chain_tensor(q, chi, rng)
        dims = [chi] + [q] * (l_left + l_r) + [chi]
        ref = reference_periods(left_block(mps, l_left + l_r).reshape(-1), gate.matrix, dims,
                                l_left, l_r, t, chi * q ** l_r)[-1]
        assert max_abs(renyi_chain_density(gate, mps, t, l_left, l_r) - ref) < 1e-14
        assert abs(renyi_trace_chain(gate, mps, n, t, l_left, l_r)
                   - renyi_trace(ref, n)) < 1e-14


def reference_influence_matrix(u, a, tsteps, l_left):
    """The brute-force IM by a per-gate loop: each period the even bonds,
    then a probe pair sum_s |ss> appended after the cut bond and the
    crossing gate on site -1 and the pair's second leg (``reference_apply_pair``
    on non-adjacent legs), then the other odd bonds; the IM is the reduced
    density of the cut bond and the probes, ket and bra legs interleaved."""
    q, chi = a.q, a.chi
    psi = left_block(a, l_left).reshape(-1)
    dims = [chi] + [q] * l_left + [chi]
    pos = lambda x: 1 + x + l_left
    pair = np.eye(q, dtype=complex).reshape(-1)
    for _ in range(tsteps):
        for x in range(-l_left, -1):
            if x % 2 == 0:
                psi = reference_apply_pair(psi, u.matrix, dims, pos(x), pos(x) + 1)
        psi, dims = np.kron(psi, pair), dims + [q, q]
        psi = reference_apply_pair(psi, u.matrix, dims, pos(-1), len(dims) - 1)
        for x in range(-l_left, -2):
            if x % 2 != 0:
                psi = reference_apply_pair(psi, u.matrix, dims, pos(x), pos(x) + 1)
    nleg = 1 + 2 * tsteps
    shape = [chi] + [q] * (2 * tsteps)
    rho = reduced_density(psi, chi * q ** (2 * tsteps)).reshape(shape + shape)
    rho = rho.transpose([j for i in range(nleg) for j in (i, nleg + i)])
    return rho.reshape((chi * chi,) + (q * q,) * (2 * tsteps))


class TestInfluenceMatrixBruteforce:
    """The brute-force IM runs the oracle's period loop on the left region
    with probe pairs; the per-gate loop is its reference."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["q2_qt2", "swap", "haar"]), q=st.sampled_from([2, 3]),
           chi=st.sampled_from([1, 2, 3]), tsteps=st.sampled_from([1, 2]),
           extra=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_the_gate_loop(self, family, q, chi, tsteps, extra, seed):
        rng = make_rng(seed)
        q = 2 if family == "q2_qt2" else q
        gate = (TwoSiteGate(q, swap_matrix(q), "swap") if family == "swap"
                else random_gate(family, rng, q=q))
        mps, l_left = chain_tensor(q, chi, rng), 2 * tsteps + extra
        if chi * chi * q ** (l_left + 2 * tsteps) > DEFAULT_AMPLITUDE_CAP:
            with pytest.raises(CapacityError):
                influence_matrix_bruteforce(gate, mps, tsteps, l_left)
            return
        got = influence_matrix_bruteforce(gate, mps, tsteps, l_left)
        ref = reference_influence_matrix(gate, mps, tsteps, l_left)
        assert got.shape == ref.shape == (chi * chi,) + (q * q,) * (2 * tsteps)
        assert max_abs(got - ref) <= 1e-13

    @pytest.mark.parametrize("family,l_left", [("haar", 2), ("haar", 3), ("q2_qt2", 1),
                                               ("q2_qt2", 2)])
    def test_light_cone_refused(self, family, l_left):
        # inside the light cone the far boundary reaches the crossing legs:
        # unchecked, these T = 2 IMs were 0.22-0.28 (Haar) away from the
        # l_left = 8 one and 0.38-0.46 (q2_qt2) from the closed form
        gate, mps = random_gate(family, make_rng(30)), ghz_cluster_family(np.pi / 4, 2)
        with pytest.raises(ValueError, match="inside the lightcone"):
            influence_matrix_bruteforce(gate, mps, 2, l_left)
        closed = build_influence_matrix_open(mps, 2)
        far = influence_matrix_bruteforce(gate, mps, 2, 8)
        assert max_abs(influence_matrix_bruteforce(gate, mps, 2, 4) - far) < 1e-14
        if family == "q2_qt2":
            assert max_abs(far - closed) < 1e-12
        else:
            assert max_abs(far - closed) > 1e-3

    @pytest.mark.parametrize("gate_q,mps_q", [(3, 2), (2, 4)])
    def test_gate_and_tensor_q_must_agree(self, gate_q, mps_q):
        # a q = 2 gate on q = 4 legs would act on one leg as if it were two
        gate = random_gate("haar", make_rng(32), q=gate_q)
        with pytest.raises(ValueError, match="does not match tensor q"):
            influence_matrix_bruteforce(gate, ghz_cluster_family(0.5, mps_q), 1)

    def test_capacity_before_the_chain(self, monkeypatch):
        # T = 5 at q = chi = 2 passes the IM cap (2^22 entries) but its
        # chain holds 2^24 amplitudes (256 MiB)
        def unreachable(a, n):
            raise AssertionError("left block built past the cap")
        monkeypatch.setattr(oracle, "left_block", unreachable)
        gate, mps = random_gate("q2_qt2", make_rng(31)), ghz_cluster_family(np.pi / 4, 2)
        with pytest.raises(CapacityError, match="16777216 amplitudes"):
            influence_matrix_bruteforce(gate, mps, 5)


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate during ``fn()``, above what
    was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestChainMemory:
    """On a 2^18-amplitude chain (4 MiB, larger than a 1 MiB row block of
    ``reduced_density``) each loop holds at most two states, the state and
    the idle buffer a gate writes into, plus one row block."""

    STATE = 16 * 2 ** 18
    BUDGET = 2 * STATE + 16 * _ROW_BLOCK

    def test_evolve_chain(self):
        rng = make_rng(40)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        spec = ChainSpec(gate, mps, random_right_kets(2, 2 ** 4, rng), 13, 4, 2)
        assert spec.chi * 2 ** (spec.l_left + spec.l_r) * 16 == self.STATE
        assert traced_peak(lambda: evolve_chain(spec)) <= self.BUDGET

    def test_build_initial_chain(self):
        # the left block and the state, divided in place: no more than one
        # gate of the loop holds
        rng = make_rng(42)
        spec = ChainSpec(random_gate("q2_qt2", rng), ghz_cluster_family(np.pi / 4, 2),
                         random_right_kets(2, 2 ** 4, rng), 13, 4, 2)
        assert traced_peak(lambda: build_initial_chain(spec)) <= 2 * self.STATE

    def test_renyi_trace_chain(self):
        gate = random_gate("q2_qt2", make_rng(41))
        mps = ghz_cluster_family(np.pi / 4, 2)
        # 2 bond legs x 2^16 sites = 2^18 amplitudes
        assert traced_peak(lambda: renyi_trace_chain(gate, mps, 2, 1, l_left=12, l_r=4)) \
            <= self.BUDGET

    def test_evolve_chain_q4(self):
        # gates of d^2 = 16 on a closed chain of 4^9 amplitudes.  (A q = 4
        # Renyi chain has rho_R of chi^2 q^8 >= 2^18 entries from t = 1 on,
        # a state's size, so it cannot fit this budget.)
        rng = make_rng(43)
        spec = ChainSpec(random_gate("general", rng, q=4, qt=2), ghz_cluster_family(0.5, 4),
                         random_right_kets(2, 4 ** 3, rng), 6, 3, 2, purify=False)
        assert 4 ** (spec.l_left + spec.l_r) * 16 == self.STATE
        assert traced_peak(lambda: evolve_chain(spec)) <= self.BUDGET
