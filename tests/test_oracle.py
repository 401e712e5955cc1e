import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.errors import CapacityError
from solvcirc.evolve import EvolutionConfig, states, subsystem_density
from solvcirc.gates import TwoSiteGate, random_gate, swap_matrix
from solvcirc.linalg import make_rng, max_abs, trace_distance
from solvcirc.mps import ghz_cluster_family, left_block, product_state_mps
from solvcirc.oracle import (ChainSpec, build_initial_chain, evolve_chain,
                             renyi_trace_chain)


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
