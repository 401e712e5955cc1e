import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.errors import CapacityError
from solvcirc.gates import TwoSiteGate, random_gate, swap_conjugate, swap_matrix
from solvcirc.linalg import make_rng, max_abs
from solvcirc.mps import ghz_cluster_family, product_state_mps, MpsTensor
from solvcirc.solvable import (build_influence_matrix_dense,
                               build_influence_matrix_open,
                               check_solvable_left, check_solvable_right,
                               check_soliton, influence_matrix_bruteforce,
                               solvability_report, spatial_transfer_apply,
                               verify_im_fixed_point)


def swap_gate(q=2):
    return TwoSiteGate(q, swap_matrix(q), "swap")


class TestSolvableLeft:
    def test_swap_vs_cluster(self):
        assert check_solvable_left(swap_gate(), ghz_cluster_family(np.pi / 4, 2)) < 1e-12

    def test_q2_qt1_vs_products(self):
        rng = make_rng(0)
        for ket in ([1, 0], [0, 1]):
            g = random_gate("q2_qt1", rng)
            assert check_solvable_left(g, product_state_mps(ket)) < 1e-10

    def test_haar_fails_statistically(self):
        rng = make_rng(1)
        prod = product_state_mps([1, 0])
        fails = sum(check_solvable_left(random_gate("haar", rng), prod) > 1e-3
                    for _ in range(100))
        assert fails >= 99

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_solvable_left(swap_gate(2), ghz_cluster_family(0.5, 4))

    def test_span_invariance(self):
        # residual depends on the tensor only through span{|A_jk>}: rotate the
        # bond space of an exactly solvable pair
        rng = make_rng(2)
        t = ghz_cluster_family(0.6, 2)
        from solvcirc.linalg import haar_unitary
        w = haar_unitary(2, rng)
        rotated = MpsTensor(2, 2, np.einsum('ij,ajk,kl->ail', w, t.mats, w.conj().T))
        g = random_gate("q2_qt2", rng)
        r1 = check_solvable_left(g, t)
        r2 = check_solvable_left(g, rotated)
        assert r1 < 1e-10 and r2 < 1e-10


class TestSolvableRight:
    def test_swap_any_mps(self):
        assert check_solvable_right(swap_gate(), ghz_cluster_family(0.5, 2)) < 1e-12

    def test_both_chirality_family(self):
        rng = make_rng(3)
        prod = product_state_mps([1, 0])
        for _ in range(10):
            g = random_gate("both_chirality_q2", rng)
            assert check_solvable_left(g, prod) < 1e-10
            assert check_solvable_right(g, prod) < 1e-10

    def test_generic_qt1_gate_fails_right(self):
        rng = make_rng(4)
        prod = product_state_mps([1, 0])
        fails = sum(check_solvable_right(random_gate("q2_qt1", rng), prod) > 1e-3
                    for _ in range(20))
        assert fails >= 18

    def test_chirality_duality_exact(self):
        from solvcirc.gates import swap_conjugate
        rng = make_rng(5)
        g = random_gate("haar", rng)
        t = ghz_cluster_family(0.7, 2)
        assert check_solvable_right(g, t) == check_solvable_left(swap_conjugate(g), t)

    def test_left_solution_maps_to_right_solution(self):
        from solvcirc.gates import swap_conjugate
        rng = make_rng(50)
        prod = product_state_mps([1, 0])
        for _ in range(5):
            g = random_gate("q2_qt1", rng)
            assert check_solvable_right(swap_conjugate(g), prod) < 1e-10


# (family, q, qt, chi, solvable in both chiralities): chi=1 pairs take the
# product state |0>, chi=2 pairs the GHZ-cluster tensor on q levels.
CHIRAL_CASES = [
    ("q2_qt1", 2, 2, 1, False), ("both_chirality_q2", 2, 2, 1, True),
    ("general", 2, 1, 1, False), ("general", 3, 1, 1, False), ("general", 4, 1, 1, False),
    ("both_chirality_q4plus", 4, 2, 1, True),
    ("q2_qt2", 2, 2, 2, False), ("general", 2, 2, 2, False), ("general", 3, 2, 2, False),
    ("general", 4, 2, 2, False), ("both_chirality_q4plus", 4, 2, 2, True),
]


class TestChiralityProperty:
    """swap_conjugate exchanges the two chiralities of a solvable pair."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(CHIRAL_CASES), seed=st.integers(0, 2 ** 31 - 1),
           theta=st.floats(0.05, np.pi / 4))
    def test_swap_conjugate_swaps_chirality(self, case, seed, theta):
        family, q, qt, chi, both = case
        g = random_gate(family, make_rng(seed), q=q, qt=qt)
        t = product_state_mps(np.eye(q)[0]) if chi == 1 else ghz_cluster_family(theta, q)
        s = swap_conjugate(g)
        left, right = check_solvable_left(g, t), check_solvable_right(g, t)
        assert left < 1e-10
        assert abs(check_solvable_right(s, t) - left) < 1e-12
        assert abs(check_solvable_left(s, t) - right) < 1e-12
        if both:
            assert right < 1e-10


class TestSoliton:
    def test_swap(self):
        assert check_soliton(swap_gate()) == 0

    def test_q2_qt1_family(self):
        rng = make_rng(6)
        for _ in range(20):
            assert check_soliton(random_gate("q2_qt1", rng)) < 1e-10

    def test_haar_fails(self):
        rng = make_rng(7)
        vals = [check_soliton(random_gate("haar", rng)) for _ in range(20)]
        assert np.median(vals) > 1e-2

    def test_q_restriction(self):
        with pytest.raises(ValueError):
            check_soliton(swap_gate(3))


class TestReport:
    def test_fields(self):
        rng = make_rng(8)
        rep = solvability_report(random_gate("q2_qt1", rng), product_state_mps([1, 0]))
        assert rep.left_residual < 1e-10
        assert rep.right_residual > 1e-3
        assert rep.soliton_residual < 1e-10
        assert rep.dual_unitarity_residual < 1e-10
        assert rep.left_frobenius >= rep.left_residual
        d = rep.to_dict()
        assert set(d) == {"left_residual", "right_residual", "dual_unitarity_residual",
                          "soliton_residual", "worst_pair", "left_frobenius",
                          "right_frobenius"}

    def test_q4_report_has_no_soliton(self):
        rng = make_rng(9)
        rep = solvability_report(random_gate("general", rng, q=4, qt=2),
                                 ghz_cluster_family(0.5, 4))
        assert rep.soliton_residual is None
        assert rep.left_residual < 1e-10


class TestInfluenceMatrix:
    def test_t0_scalar(self):
        im = build_influence_matrix_dense(ghz_cluster_family(np.pi / 4, 2), 0)
        assert im.shape == ()
        assert abs(complex(im) - 1.0) < 1e-14

    def test_reset_product_structure(self):
        # product |0> left state: per period |0><0| on the out leg, trace on the in leg
        prod = product_state_mps([1, 0])
        t = 2
        im = build_influence_matrix_dense(prod, t)
        proj0 = np.zeros(4)
        proj0[0] = 1.0  # vec(|0><0|)
        tr = np.eye(2).reshape(-1)  # vec(trace)
        expect = np.array(1.0 + 0j)
        for _ in range(t):
            expect = np.multiply.outer(np.multiply.outer(expect, tr), proj0)
        assert max_abs(im - expect) < 1e-14

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_influence_matrix_open(ghz_cluster_family(0.5, 4), 4)

    def test_brute_force_agreement_solvable(self):
        rng = make_rng(10)
        cases = [
            (random_gate("q2_qt1", rng), product_state_mps([1, 0])),
            (random_gate("q2_qt2", rng), ghz_cluster_family(np.pi / 4, 2)),
        ]
        for gate, mps in cases:
            closed = build_influence_matrix_open(mps, 2)
            brute = influence_matrix_bruteforce(gate, mps, 2)
            assert max_abs(closed - brute) < 1e-12

    def test_brute_force_disagreement_haar(self):
        rng = make_rng(11)
        mps = ghz_cluster_family(np.pi / 4, 2)
        closed = build_influence_matrix_open(mps, 2)
        brute = influence_matrix_bruteforce(random_gate("haar", rng), mps, 2)
        assert max_abs(closed - brute) > 1e-3

    def test_norm_finite(self):
        im = build_influence_matrix_dense(ghz_cluster_family(np.pi / 4, 2), 2)
        assert np.isfinite(np.linalg.norm(im))


class TestFixedPoint:
    def test_solvable_configs(self):
        rng = make_rng(12)
        assert verify_im_fixed_point(random_gate("q2_qt2", rng),
                                     ghz_cluster_family(np.pi / 4, 2), 2) < 1e-10
        assert verify_im_fixed_point(random_gate("q2_qt1", rng),
                                     product_state_mps([1, 0]), 2) < 1e-10

    def test_haar_control(self):
        rng = make_rng(13)
        assert verify_im_fixed_point(random_gate("haar", rng),
                                     product_state_mps([1, 0]), 2) > 1e-3

    def test_t3(self):
        rng = make_rng(14)
        assert verify_im_fixed_point(random_gate("q2_qt2", rng),
                                     ghz_cluster_family(np.pi / 4, 2), 3) < 1e-10

    def test_slab_matches_brute_shift(self):
        # applying the slab to the brute-force IM reproduces it as well
        rng = make_rng(15)
        gate = random_gate("q2_qt2", rng)
        mps = ghz_cluster_family(np.pi / 4, 2)
        brute = influence_matrix_bruteforce(gate, mps, 2)
        out = spatial_transfer_apply(brute, gate, mps, 2)
        assert max_abs(out - brute) < 1e-12
