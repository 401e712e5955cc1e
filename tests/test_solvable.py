import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvcirc.channel import kraus_from_mps
from solvcirc.errors import CapacityError
from solvcirc.gates import TwoSiteGate, random_gate, swap_conjugate, swap_matrix
from solvcirc.linalg import dagger, haar_unitary, make_rng, max_abs, reshuffle
from solvcirc.mps import (folded_period, folded_tensor, ghz_cluster_family,
                          physical_matrices, product_state_mps, random_left_canonical,
                          random_lpdo, two_site_from_pair, MpsTensor)
from solvcirc.oracle import influence_matrix_bruteforce
from solvcirc.solvable import (_folded_gate, _spatial_transfer,
                               build_influence_matrix_open, check_solvable_left,
                               check_solvable_right, check_soliton,
                               solvability_report, verify_im_fixed_point)
from test_channel import superoperator
from test_oracle import traced_peak


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
        w = haar_unitary(2, rng)
        rotated = MpsTensor(2, 2, np.einsum('ij,ajk,kl->ail', w, t.mats, w.conj().T))
        g = random_gate("q2_qt2", rng)
        r1 = check_solvable_left(g, t)
        r2 = check_solvable_left(g, rotated)
        assert r1 < 1e-10 and r2 < 1e-10


def loop_left_detail(gate, state):
    """The left condition on every bond-index pair (m, n), a row m at a
    time, with no use of the span: (largest max-abs residual, root-sum-square
    of the Frobenius norms), the reference for ``check_solvable_left``."""
    q, stack = gate.q, physical_matrices(state)
    ur, iq = reshuffle(gate.matrix, q), np.eye(q)
    kets = stack.reshape(q, -1).T  # row j chip + k is |A_jk>
    worst, total = 0.0, 0.0
    for ket in kets:
        x = ket[None, :, None] * kets.conj()[:, None, :]  # |A_m><A_n| for every n
        diff = ur @ np.kron(x, iq) @ dagger(ur) - np.kron(iq, x)
        worst = max(worst, max_abs(diff))
        total += float(np.linalg.norm(diff)) ** 2
    return worst, float(np.sqrt(total))


def assert_matches_the_loop(got, want):
    worst, rss = want
    tol = 1e-12 * rss if rss >= 1e-6 else 1e-14
    assert abs(got - rss) <= tol
    # the sum over pairs bounds every pair's max-abs residual
    assert got >= worst - tol


class TestBatchedLeftCheck:
    @settings(max_examples=40, deadline=None)
    @given(family_q=st.sampled_from([("swap", 2), ("swap", 3), ("general", 4), ("haar", 2),
                                     ("haar", 3), ("q2_qt1", 2), ("q2_qt2", 2),
                                     ("both_chirality_q4plus", 4)]),
           kind=st.sampled_from(["mps", "two_site", "lpdo"]), chi=st.integers(1, 4),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_the_pair_loop(self, family_q, kind, chi, seed):
        # chi = 2 takes the GHZ-cluster tensor, which the q2_qt2, general and
        # both-chirality gates solve; other chi a random canonical tensor
        family, q = family_q
        rng = make_rng(seed)
        gate = random_gate(family, rng, q=q, qt=2)
        one = lambda: (ghz_cluster_family(rng.uniform(0.1, np.pi / 4), q) if chi == 2
                       else random_left_canonical(q, chi, rng))
        state = {"mps": one, "two_site": lambda: two_site_from_pair(one(), one()),
                 "lpdo": lambda: random_lpdo(q, chi, 2, rng)}[kind]()
        assert_matches_the_loop(check_solvable_left(gate, state), loop_left_detail(gate, state))

    def test_wide_bond_is_cheap(self):
        # q = 4, chi = 16: 65536 bond-index pairs, of which the check forms
        # at most q^2 = 16 products of q^2 x q^2 matrices
        rng = make_rng(12)
        gate = random_gate("general", rng, q=4, qt=2)
        state = random_left_canonical(4, 16, rng)
        got = []
        peak = traced_peak(lambda: got.append(check_solvable_left(gate, state)))
        assert peak < 2 ** 20
        want = loop_left_detail(gate, state)
        assert want[0] > 0.1
        assert_matches_the_loop(got[0], want)

    def test_nan_propagates(self):
        gate = swap_gate(2)
        gate.matrix = gate.matrix.copy()
        gate.matrix[3, 3] = np.nan  # past the gate's own check
        assert np.isnan(check_solvable_left(gate, ghz_cluster_family(0.5, 2)))
        mps = ghz_cluster_family(0.5, 2)
        mps.mats[0, 0, 0] = np.nan  # past the tensor's own check
        assert np.isnan(check_solvable_left(swap_gate(2), mps))


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
        d = rep.to_dict()
        assert set(d) == {"left_residual", "right_residual", "dual_unitarity_residual",
                          "soliton_residual"}

    def test_q4_report_has_no_soliton(self):
        rng = make_rng(9)
        rep = solvability_report(random_gate("general", rng, q=4, qt=2),
                                 ghz_cluster_family(0.5, 4))
        assert rep.soliton_residual is None
        assert rep.left_residual < 1e-10


class TestInfluenceMatrix:
    def test_t0_scalar(self):
        # the t=0 bond closed with the joint-state convention's maximally
        # correlated ancilla pair: weight 1/chi on every doubled bond index
        im = np.tensordot(np.full(4, 0.5), build_influence_matrix_open(
            ghz_cluster_family(np.pi / 4, 2), 0), axes=([0], [0]))
        assert im.shape == ()
        assert abs(complex(im) - 1.0) < 1e-14

    def test_reset_product_structure(self):
        # product |0> left state: per period |0><0| on the out leg, trace on the in leg
        prod = product_state_mps([1, 0])
        t = 2
        im = np.tensordot(np.ones(1), build_influence_matrix_open(prod, t), axes=([0], [0]))
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

    def test_negative_horizon_refused(self):
        # T = 0 is the open bond alone; T < 0 has no meaning, where it used
        # to give the T = 0 matrix and a fixed-point residual of 0.0
        gate, mps = random_gate("q2_qt2", make_rng(12)), ghz_cluster_family(np.pi / 4, 2)
        assert verify_im_fixed_point(gate, mps, 0) < 1e-14
        for call in (lambda: build_influence_matrix_open(mps, -1),
                     lambda: influence_matrix_bruteforce(gate, mps, -1),
                     lambda: verify_im_fixed_point(gate, mps, -1)):
            with pytest.raises(ValueError, match="tsteps must be >= 0"):
                call()

    def test_brute_force_agreement_solvable(self):
        rng = make_rng(10)
        cases = [
            (random_gate("q2_qt1", rng), product_state_mps([1, 0])),
            (random_gate("q2_qt2", rng), ghz_cluster_family(np.pi / 4, 2)),
            # SWAP satisfies the left condition for every tensor
            (swap_gate(2), random_left_canonical(2, 3, rng)),
            (swap_gate(3), random_left_canonical(3, 3, rng)),
        ]
        for gate, mps in cases:
            assert check_solvable_left(gate, mps) < 1e-10
            closed = build_influence_matrix_open(mps, 2)
            brute = influence_matrix_bruteforce(gate, mps, 2)
            assert max_abs(closed - brute) < 1e-12

    def test_brute_force_disagreement_haar(self):
        rng = make_rng(11)
        mps = ghz_cluster_family(np.pi / 4, 2)
        closed = build_influence_matrix_open(mps, 2)
        brute = influence_matrix_bruteforce(random_gate("haar", rng), mps, 2)
        assert max_abs(closed - brute) > 1e-3

    @pytest.mark.parametrize("family,q,chi,tsteps,ranks", [
        ("q2_qt2", 2, 2, 3, [2, 2]), ("q2_qt2", 2, 3, 2, [4]), ("general", 3, 2, 2, [2]),
        ("haar", 2, 2, 3, [16, 4]), ("haar", 3, 2, 2, [9])])
    def test_time_cut_rank_is_at_most_chi_squared(self, family, q, chi, tsteps, ranks):
        # the paper's bond: for a solvable pair the IM is an MPS in time of
        # bond chi^2, so the brute-force IM, which knows nothing of it, has
        # Schmidt rank <= chi^2 across every cut between periods t and t + 1
        # (bond and periods 1..t on one side); Haar controls exceed it
        rng = make_rng(20)
        gate = random_gate(family, rng, q=q, qt=2)
        mps = ghz_cluster_family(0.5, q) if chi == 2 else random_left_canonical(q, chi, rng)
        assert (check_solvable_left(gate, mps) < 1e-10) == (family != "haar")
        im = influence_matrix_bruteforce(gate, mps, tsteps)
        got = []
        for t in range(1, tsteps):
            sv = np.linalg.svd(im.reshape(chi * chi * q ** (4 * t), -1), compute_uv=False)
            got.append(int(np.sum(sv > 1e-10 * sv[0])))
        assert got == ranks
        assert (max(got) <= chi ** 2) == (family != "haar")

    def test_norm_finite(self):
        im = np.tensordot(np.full(4, 0.5), build_influence_matrix_open(
            ghz_cluster_family(np.pi / 4, 2), 2), axes=([0], [0]))
        assert np.isfinite(np.linalg.norm(im))

    @settings(max_examples=30, deadline=None)
    @given(q=st.sampled_from([2, 3, 4]), chi=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_period_tensor_is_the_channel(self, q, chi, seed):
        # N (x) vec(I_q) is the boundary channel's sum_mu K_mu (x) K_mu^*,
        # regrouped to [B_out, S_out, B_in, S_in]
        mps = random_left_canonical(q, chi, make_rng(seed))
        sup = superoperator(kraus_from_mps(mps)).reshape((chi, q) * 4)
        sup = sup.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(chi * chi, q * q, chi * chi, q * q)
        n = folded_period(mps.mats)
        assert max_abs(np.multiply.outer(n, np.eye(q).reshape(-1)) - sup) < 1e-14

    @pytest.mark.parametrize("q,chi,tsteps", [(2, 2, 4), (2, 4, 3), (4, 2, 2)])
    def test_build_holds_at_most_twice_the_result(self, q, chi, tsteps):
        # the period MPS is contracted from the closed end, so no array
        # exceeds the influence matrix (4, 1 and 4 MiB here)
        mps = random_left_canonical(q, chi, make_rng(17))
        nbytes = 16 * chi ** 2 * q ** (4 * tsteps)
        assert traced_peak(lambda: build_influence_matrix_open(mps, tsteps)) <= 2 * nbytes + 2 ** 20


def reference_spatial_transfer(im: np.ndarray, u: TwoSiteGate, a: MpsTensor,
                               tsteps: int) -> np.ndarray:
    """Apply the two-column spatial transfer slab to an open-bond IM.

    The slab absorbs one two-site period of the left region: two folded MPS
    tensors, a column of T folded even-bond gates, a column of T folded
    odd-bond (boundary-crossing) gates, and the two top traces.  For an
    exactly solvable pair the open-bond IM is its fixed point.
    """
    q, chi = a.q, a.chi
    g4 = _folded_gate(u.matrix, q)
    f = folded_tensor(a.mats)
    trq = np.eye(q, dtype=complex).reshape(-1)
    x = im.reshape((chi * chi,) + (q * q,) * (2 * tsteps))
    x = np.tensordot(f, x, axes=([0], [0]))   # site 0 tensor: [bR, p0, old...]
    x = np.tensordot(f, x, axes=([0], [0]))   # site 1 tensor: [b_new, p1, p0, old...]
    for _ in range(tsteps):
        # canonical axes: [b, w1, w0, o_in, o_out, rest_old..., new...]
        x = np.tensordot(x, g4, axes=([2, 1], [2, 3]))      # even gate eats (w0, w1)
        x = np.trace(x, axis1=1, axis2=x.ndim - 2)          # E site-0 out -> old in-leg
        x = np.tensordot(x, g4, axes=([x.ndim - 1], [2]))   # crossing gate eats E site-1 out
        n = x.ndim
        # appended [O_s1out, O_s2out, O_s2in]; exposed legs in (in, out) order
        x = np.moveaxis(x, [n - 1, n - 2], [n - 2, n - 1])
        n = x.ndim
        # next period wires: w1 = O_s1out, w0 = old out-leg (axis 1)
        x = np.moveaxis(x, [n - 3, 1], [1, 2])
    x = np.tensordot(x, trq, axes=([1], [0]))
    x = np.tensordot(x, trq, axes=([1], [0]))
    return x


def chi2_solved_by(family, rng):
    """A chi=2 left-canonical tensor that the q=2 family solves: span{|0>}
    (A^(0) unitary, A^(1) = 0) for q2_qt1, else the GHZ-cluster tensor."""
    if family == "q2_qt1":
        return MpsTensor(2, 2, np.stack([haar_unitary(2, rng), np.zeros((2, 2))]))
    return ghz_cluster_family(np.pi / 4, 2)


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
        out = reference_spatial_transfer(brute, gate, mps, 2)
        assert max_abs(out - brute) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(family_q=st.sampled_from([("swap", 2), ("swap", 3), ("q2_qt1", 2), ("q2_qt2", 2),
                                     ("general", 2), ("general", 3), ("general", 4),
                                     ("both_chirality_q2", 2), ("both_chirality_q4plus", 4),
                                     ("haar", 2), ("haar", 3), ("haar", 4)]),
           chi=st.integers(1, 3), tsteps=st.integers(0, 3), seed=st.integers(0, 2 ** 31 - 1))
    @example(family_q=("haar", 2), chi=16, tsteps=0, seed=20)
    @example(family_q=("haar", 2), chi=16, tsteps=1, seed=20)
    @example(family_q=("q2_qt2", 2), chi=8, tsteps=2, seed=20)
    def test_matches_the_dense_slab(self, family_q, chi, tsteps, seed):
        # on the closed-form IM, for any gate, and at a wide bond; the
        # reference holds about 3 q^4 x the IM, so q = 3 stops at T = 2 and
        # q = 4 at T = 1
        family, q = family_q
        tsteps = min(tsteps, {2: 3, 3: 2, 4: 1}[q])
        rng = make_rng(seed)
        gate = random_gate(family, rng, q=q, qt=2)
        mps = random_left_canonical(q, chi, rng)
        ref = reference_spatial_transfer(build_influence_matrix_open(mps, tsteps), gate, mps, tsteps)
        got = _spatial_transfer(gate, mps, tsteps)
        assert got.shape == ref.shape
        assert max_abs(got - ref) <= 1e-13 * max(1.0, max_abs(ref))

    @pytest.mark.parametrize("tsteps", [1, 2, 3, 4, 5])
    def test_haar_control_fails_at_every_depth(self, tsteps):
        rng = make_rng(30 + tsteps)
        for family in ("q2_qt1", "q2_qt2", "swap"):
            gate, mps = random_gate(family, rng), chi2_solved_by(family, rng)
            assert check_solvable_left(gate, mps) < 1e-10
            assert verify_im_fixed_point(gate, mps, tsteps) < 1e-10
        haar = random_gate("haar", rng)
        assert verify_im_fixed_point(haar, ghz_cluster_family(np.pi / 4, 2), tsteps) > 1e-3

    @pytest.mark.parametrize("q,chi,tsteps", [(2, 2, 4), (3, 2, 2), (2, 4, 3), (4, 2, 2),
                                              (2, 16, 1), (2, 16, 2)])
    def test_peak_within_the_docstring_formula(self, q, chi, tsteps):
        # 4.5 chi^2 q^(4T) + 3.25 (q^8 + chi^4 q^2) complex entries: 18.0,
        # 2.1, 4.6, 21.3, 13.3 and 17.5 MiB here; the dense slab peaked at
        # 196, 98, 49, 3077, 13.0 and 53 MiB (at chi = 16, T = 1 in the
        # IM's own folded period, which both build alike)
        rng = make_rng(18)
        gate, mps = random_gate("haar", rng, q=q), random_left_canonical(q, chi, rng)
        bound = 16 * (4.5 * chi ** 2 * q ** (4 * tsteps) + 3.25 * (q ** 8 + chi ** 4 * q ** 2))
        assert traced_peak(lambda: verify_im_fixed_point(gate, mps, tsteps)) <= bound + 2 ** 20

    def test_gate_tensor_q_mismatch_refused(self):
        # refused before the IM (4 MiB here) or the folded gate is formed
        gate, mps = random_gate("haar", make_rng(19), q=2), ghz_cluster_family(0.5, 4)

        def call():
            with pytest.raises(ValueError, match="gate q=2 does not match tensor q=4"):
                verify_im_fixed_point(gate, mps, 2)
        assert traced_peak(call) < 2 ** 16
