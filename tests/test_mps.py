import numpy as np
import pytest

from solvcirc.linalg import haar_unitary, make_rng, max_abs
from solvcirc.mps import (Lpdo, MpsTensor, check_left_canonical,
                          check_right_canonical, check_two_site_canonical,
                          ghz_cluster_family, left_block, lpdo_check_canonical,
                          product_state_mps, random_left_canonical,
                          random_lpdo, subspace_dimension, two_site_from_pair,
                          TwoSiteMps)


def cluster_q2():
    return ghz_cluster_family(np.pi / 4, 2)


class TestCanonicalChecks:
    def test_product_zero(self):
        t = product_state_mps([1, 0])
        assert check_left_canonical(t) == 0
        assert check_right_canonical(t) == 0

    def test_ghz_cluster_left_canonical_any_theta(self):
        for theta in np.linspace(0.05, np.pi / 4, 9):
            for q in (2, 4):
                assert check_left_canonical(ghz_cluster_family(theta, q)) < 1e-12

    def test_ghz_cluster_right_canonical_any_theta(self):
        # direct arithmetic: sum_a A A^dag telescopes to I for every theta
        for theta in (np.pi / 16, np.pi / 8, 0.5, np.pi / 4):
            assert check_right_canonical(ghz_cluster_family(theta, 4)) < 1e-12

    def test_cluster_tensor_right_canonical(self):
        assert check_right_canonical(cluster_q2()) < 1e-12

    def test_scaled_tensor_residual(self):
        t = product_state_mps([1, 0])
        scaled = MpsTensor(2, 1, 2 * t.mats)
        assert abs(check_left_canonical(scaled) - 3.0) < 1e-14

    def test_random_left_canonical(self):
        t = random_left_canonical(3, 4, make_rng(0))
        assert check_left_canonical(t) < 1e-12


class TestSubspaceDimension:
    def test_product(self):
        assert subspace_dimension(product_state_mps([1, 0])) == 1
        plus = product_state_mps(np.array([1, 1]) / np.sqrt(2))
        assert subspace_dimension(plus) == 1

    def test_ghz_cluster_q4(self):
        for theta in np.linspace(0.05, np.pi / 4, 7):
            assert subspace_dimension(ghz_cluster_family(theta, 4)) == 2

    def test_full_rank(self):
        rng = make_rng(1)
        t = random_left_canonical(2, 2, rng)
        assert subspace_dimension(t) == 2

    def test_zero_tensor_error(self):
        t = MpsTensor(2, 2, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            subspace_dimension(t)

    def test_invariant_under_physical_rotation(self):
        rng = make_rng(2)
        t = ghz_cluster_family(0.4, 4)
        u = haar_unitary(4, rng)
        rotated = MpsTensor(4, 2, np.einsum('ab,bjk->ajk', u, t.mats))
        assert subspace_dimension(rotated) == subspace_dimension(t)


class TestFamilies:
    def test_ghz_cluster_matrices(self):
        t = ghz_cluster_family(np.pi / 4, 4)
        s = np.sqrt(2) / 2
        assert max_abs(t.mats[0] - np.array([[s, s], [0, 0]])) < 1e-15
        assert max_abs(t.mats[1] - np.array([[0, 0], [-s, s]])) < 1e-15
        assert max_abs(t.mats[2]) == 0 and max_abs(t.mats[3]) == 0

    def test_ghz_cluster_range(self):
        with pytest.raises(ValueError):
            ghz_cluster_family(0.0, 4)
        with pytest.raises(ValueError):
            ghz_cluster_family(np.pi / 4 + 0.01, 4)

    def test_product_states(self):
        t0 = product_state_mps([1, 0])
        assert t0.mats[0, 0, 0] == 1 and t0.mats[1, 0, 0] == 0
        t1 = product_state_mps([0, 1])
        assert t1.mats[0, 0, 0] == 0 and t1.mats[1, 0, 0] == 1

    def test_product_rejects_bad_kets(self):
        with pytest.raises(ValueError):
            product_state_mps([0, 0])
        with pytest.raises(ValueError):
            product_state_mps([1, 1])


def reference_left_block(a, n):
    """[A^(a_1) ... A^(a_n)]_{m j}, one matrix product per level tuple."""
    out = np.zeros((a.chi, a.q ** n, a.chi), dtype=complex)
    for k, levels in enumerate(np.ndindex(*(a.q,) * n)):
        m = np.eye(a.chi, dtype=complex)
        for x in levels:
            m = m @ a.mats[x]
        out[:, k] = m
    return out


class TestLeftBlock:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_matches_reference(self, n):
        tensors = [cluster_q2(), ghz_cluster_family(0.4, 3),
                   random_left_canonical(3, 4, make_rng(6))]
        for a in tensors:
            got = left_block(a, n)
            ref = reference_left_block(a, n)
            assert got.shape == ref.shape == (a.chi, a.q ** n, a.chi)
            assert max_abs(got - ref) <= 1e-14

    def test_ghz_exact(self):
        # sparse 2 x 2 factors: every entry is one product, so the gemm
        # gives the reference bit for bit
        a = cluster_q2()
        assert np.array_equal(left_block(a, 8), reference_left_block(a, 8))


class TestTwoSite:
    def test_pair_of_canonical_square_tensors(self):
        rng = make_rng(3)
        a = random_left_canonical(2, 3, rng)
        b = random_left_canonical(2, 3, rng)
        cell = two_site_from_pair(a, b)
        assert check_two_site_canonical(cell) < 1e-10

    def test_mismatched_pair(self):
        rng = make_rng(4)
        with pytest.raises(ValueError):
            two_site_from_pair(random_left_canonical(2, 2, rng),
                               random_left_canonical(2, 3, rng))

    @pytest.mark.parametrize("part", ["mats_a", "mats_b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_refused(self, part, value):
        # a NaN passed the channel's canonical check (resid > CANONICAL_ATOL)
        cell = two_site_from_pair(cluster_q2(), cluster_q2())
        mats = {"mats_a": cell.mats_a, "mats_b": cell.mats_b}
        mats[part][1, 0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            TwoSiteMps(2, 2, 2, **mats)


class TestLpdo:
    def test_d1_matches_pure(self):
        t = cluster_q2()
        l = Lpdo(2, 2, 1, t.mats[:, None])
        assert abs(lpdo_check_canonical(l) - check_left_canonical(t)) < 1e-15

    def test_two_copies(self):
        t = cluster_q2()
        mats = np.stack([np.stack([t.mats[a] / np.sqrt(2)] * 2) for a in range(2)])
        l = Lpdo(2, 2, 2, mats)
        assert lpdo_check_canonical(l) < 1e-12

    def test_scaled_copy_fails(self):
        t = cluster_q2()
        l = Lpdo(2, 2, 1, 1.5 * t.mats[:, None])
        assert lpdo_check_canonical(l) > 0.1

    def test_random_lpdo_canonical(self):
        l = random_lpdo(2, 3, 2, make_rng(5))
        assert lpdo_check_canonical(l) < 1e-12

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_entries_refused(self, value):
        mats = random_lpdo(2, 3, 2, make_rng(6)).mats
        mats[0, 1, 2, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            Lpdo(2, 3, 2, mats)
        with pytest.raises(ValueError, match="non-finite"):
            Lpdo(2, 3, 2, np.full_like(mats, value))
