import numpy as np
import pytest

from solvcirc.gates import (TwoSiteGate, cartan_gate, gate_both_chirality_q2,
                            gate_both_chirality_q4plus, gate_general,
                            gate_q2_qt1, gate_q2_qt2, is_dual_unitary,
                            pauli_coefficients, random_gate, swap_conjugate,
                            swap_matrix)
from solvcirc.linalg import PAULI, dagger, haar_unitary, kron, make_rng, max_abs, reshuffle

ALL_FAMILIES = ["q2_qt1", "q2_qt2", "both_chirality_q2"]


def test_swap_matrix_action():
    s = swap_matrix(3)
    for c in range(3):
        for d in range(3):
            ket = np.zeros(9)
            ket[c * 3 + d] = 1
            out = s @ ket
            assert out[d * 3 + c] == 1


class TestCartan:
    def test_identity(self):
        assert max_abs(cartan_gate(0, 0, 0).matrix - np.eye(4)) < 1e-14

    def test_swap_anchor(self):
        g = cartan_gate(np.pi / 4, np.pi / 4, np.pi / 4)
        assert max_abs(g.matrix - np.exp(-1j * np.pi / 4) * swap_matrix(2)) < 1e-12

    def test_matches_pauli_expansion(self):
        j = (0.3, 0.7, 1.1)
        g = cartan_gate(*j)
        v = pauli_coefficients(*j)
        recon = sum(c * kron(PAULI[a], PAULI[a])
                    for a, c in enumerate(v.as_array()))
        assert max_abs(g.matrix - recon) < 1e-12

    def test_trace_inner_products(self):
        # V_a = Tr[(sigma^a x sigma^a)^dag V] / 4
        j = (0.3, 0.7, 1.1)
        g = cartan_gate(*j)
        v = pauli_coefficients(*j)
        for a in range(4):
            proj = np.trace(dagger(kron(PAULI[a], PAULI[a])) @ g.matrix) / 4
            assert abs(proj - v.as_array()[a]) < 1e-12


class TestPauliCoefficients:
    def test_identity_point(self):
        v = pauli_coefficients(0, 0, 0)
        assert max_abs(v.as_array() - np.array([1, 0, 0, 0])) < 1e-14

    def test_swap_point(self):
        v = pauli_coefficients(np.pi / 4, np.pi / 4, np.pi / 4)
        expect = (1 - 1j) / (2 * np.sqrt(2))
        assert max_abs(v.as_array() - expect) < 1e-12

    def test_normalization_grid(self):
        rng = make_rng(0)
        for _ in range(100):
            j = rng.uniform(0, np.pi / 2, size=3)
            v = pauli_coefficients(*j)
            assert abs(np.sum(np.abs(v.as_array()) ** 2) - 1) < 1e-12


class TestFamilies:
    def test_q2_qt1_degenerate_params(self):
        g = gate_q2_qt1(0, 0, 0, 0, np.eye(2), np.eye(2))
        assert max_abs(g.matrix - cartan_gate(np.pi / 4, np.pi / 4, 0).matrix) < 1e-12

    def test_q2_qt2_swap_point(self):
        g = gate_q2_qt2(0, np.eye(2))
        assert max_abs(g.matrix - swap_matrix(2)) < 1e-14

    def test_q2_qt2_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            gate_q2_qt2(0.1, np.array([[1, 1], [0, 1]], dtype=complex))

    def test_nan_is_not_unitary(self):
        # a NaN residual fails the tolerance test instead of passing it
        with pytest.raises(ValueError, match="gate is not unitary"):
            gate_q2_qt2(np.nan, np.eye(2))
        with pytest.raises(ValueError, match="u is not unitary"):
            gate_q2_qt2(0.1, np.full((2, 2), np.nan))

    def test_general_swap_point(self):
        q = 4
        g = gate_general(q, 2, 0.0, np.eye(q), [np.eye(2)] * q, [np.eye(q)] * q)
        assert max_abs(g.matrix - swap_matrix(q)) < 1e-14

    def test_general_rejects_mismatched_span_blocks(self):
        rng = make_rng(1)
        f2 = [haar_unitary(4, rng) for _ in range(4)]
        with pytest.raises(ValueError, match="f2 blocks"):
            gate_general(4, 2, 0.0, np.eye(4), [np.eye(2)] * 4, f2)

    def test_general_qt_equals_q_is_dual_unitary(self):
        rng = make_rng(2)
        g = random_gate("general", rng, q=3, qt=3)
        assert is_dual_unitary(g) < 1e-10

    def test_both_chirality_q2_reduces_to_qt1(self):
        # eps' = eta' = 0 lands in the one-sided family with diagonal dressings
        g = gate_both_chirality_q2(0.2, 0.5, 0.0, 0.7, 0.0, 0.9)
        ref = gate_q2_qt1(0.2, 0.5, 0.7, 0.9, np.eye(2), np.eye(2))
        assert max_abs(g.matrix - ref.matrix) < 1e-12

    def test_q4plus_swap_point(self):
        g = gate_both_chirality_q4plus(4, 0.0, np.eye(4), np.eye(4),
                                       np.eye(4), np.eye(4), np.zeros((4, 4)))
        assert max_abs(g.matrix - swap_matrix(4)) < 1e-14

    def test_q4plus_rejects_bad_h(self):
        rng = make_rng(3)
        blocks = [haar_unitary(2, rng) for _ in range(4)]
        h = np.zeros((4, 4))
        h[0, 2] = h[2, 0] = 1.0
        with pytest.raises(ValueError):
            gate_both_chirality_q4plus(4, 0.0, *blocks, h)
        h2 = np.zeros((4, 4))
        h2[2, 3] = 1.0  # asymmetric
        with pytest.raises(ValueError):
            gate_both_chirality_q4plus(4, 0.0, *blocks, h2)

    def test_q4plus_coupling_unitary(self):
        rng = make_rng(4)
        g = random_gate("both_chirality_q4plus", rng, q=4)
        h = g.params["h"]
        coupling = np.diag(np.exp(-1j * h.reshape(-1)))
        assert max_abs(dagger(coupling) @ coupling - np.eye(16)) < 1e-12

    @pytest.mark.parametrize("family", ALL_FAMILIES + ["general", "both_chirality_q4plus"])
    def test_constructors_unitary(self, family):
        rng = make_rng(5)
        q = 4 if family in ("general", "both_chirality_q4plus") else 2
        for _ in range(10):
            g = random_gate(family, rng, q=q, qt=2)
            assert max_abs(dagger(g.matrix) @ g.matrix - np.eye(q * q)) < 1e-10


class TestSwapConjugate:
    def test_swap_invariant(self):
        s = TwoSiteGate(2, swap_matrix(2), "swap")
        assert max_abs(swap_conjugate(s).matrix - s.matrix) == 0

    def test_involution(self):
        rng = make_rng(6)
        g = random_gate("haar", rng, q=3)
        assert max_abs(swap_conjugate(swap_conjugate(g)).matrix - g.matrix) < 1e-14

    def test_reshuffle_transpose_identity(self):
        # (S U S)^R = (U^R)^T
        rng = make_rng(7)
        for q in (2, 3):
            g = random_gate("haar", rng, q=q)
            lhs = reshuffle(swap_conjugate(g).matrix, q).T
            rhs = reshuffle(g.matrix, q)
            assert max_abs(lhs - rhs) < 1e-12


class TestDualUnitary:
    def test_swap(self):
        assert is_dual_unitary(TwoSiteGate(2, swap_matrix(2), "swap")) < 1e-12

    def test_identity_fails(self):
        assert is_dual_unitary(TwoSiteGate(2, np.eye(4, dtype=complex))) >= 1.0

    def test_q2_qt1_family_is_dual_unitary(self):
        rng = make_rng(8)
        for _ in range(20):
            assert is_dual_unitary(random_gate("q2_qt1", rng)) < 1e-10


def test_gate_validation_rejects_non_unitary():
    with pytest.raises(ValueError):
        TwoSiteGate(2, np.ones((4, 4)))


@pytest.mark.parametrize("q", [-1, 0, 1, 2.0, True, "2"])
def test_gate_validation_rejects_a_nonsense_local_dimension(q):
    # q = -1 and q = 1 with a 1 x 1 matrix used to pass the shape check
    with pytest.raises(ValueError, match="integer >= 2"):
        TwoSiteGate(q, np.eye(1))
