"""Ket states: rho(0) = |Psi~><Psi~| is held as the length-D ket |Psi~>, and
its first period applies the brickwork to the vector, phi = (I_chi (x) U_R)
psi, before one outer product phi phi^dag."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc import evolve
from solvcirc.evolve import (JointState, entanglement_entropy, initial_joint_state,
                             local_expectation, states, step, subsystem_density)
from solvcirc.linalg import (dagger, hermiticity_residual, make_rng, max_abs,
                             trace_distance, unit_vector, von_neumann_entropy)
from solvcirc.mps import MpsTensor
from solvcirc.oracle import ChainSpec, evolve_chain
from test_evolve import dense_state, random_hermitian
from test_linalg import partial_trace
from test_range_state import case, draws, fixed_case


def dense_twin(s):
    """The dense state holding psi psi^dag of the ket state ``s``."""
    psi = s._held
    return dense_state(s.chi, s.q, s.l_r, np.outer(psi, psi.conj()), s.t)


class TestKetState:
    def test_initial_state_is_held_as_its_ket(self):
        cfg = fixed_case("general", 3, "mps", 2, 7, tmax=1)
        s = initial_joint_state(cfg)
        psi = cfg.right_kets.reshape(-1) / np.linalg.norm(cfg.right_kets)
        assert s._held.shape == psi.shape and s._w is None
        assert max_abs(s._held - psi) < 1e-15

    def test_rho_is_the_projector_on_the_ket(self):
        # complex kets: psi psi^T (no conjugate) would be neither Hermitian
        # nor fix psi
        s = initial_joint_state(fixed_case("general", 2, "mps", 2, 8, tmax=1))
        rho, psi = s.rho, s._held
        assert hermiticity_residual(rho) < 1e-16
        assert max_abs(rho @ psi - psi) < 1e-14
        assert abs(np.trace(rho) - 1) < 1e-14

    def test_residuals_of_row_zero(self):
        # psi psi^dag is Hermitian and PSD by construction: min_eig is an exact
        # 0.0 (not psi^dag psi), and the trace residual comes from psi^dag psi
        s = initial_joint_state(fixed_case("swap", 4, "mps", 2, 9, tmax=1))
        res = s.invariant_residuals()
        assert res["min_eig"] == 0.0 and res["hermiticity"] == 0.0
        assert res["trace"] == abs(float(np.vdot(s._held, s._held).real) - 1.0) < 1e-15
        half = JointState(s.chi, s.q, s.l_r, s._held / np.sqrt(2))
        assert abs(half.invariant_residuals()["trace"] - 0.5) < 1e-15
        assert half.invariant_residuals()["min_eig"] == 0.0

    @pytest.mark.parametrize("l_r", [2, 5])  # D = 32 (below the probe floor) and 2048
    def test_range_sketch_is_exact(self, l_r):
        cfg = fixed_case("general", 4 if l_r == 2 else 2, "mps", 2, 10, l_r=l_r, tmax=1)
        s = initial_joint_state(cfg)
        q, a, resid = s.range_sketch()
        psi = s._held
        assert q.shape == (psi.size, 1) and resid == 0.0
        assert a.shape == (1, 1) and abs(a[0, 0] - np.vdot(psi, psi)) < 1e-15
        assert max_abs(q @ a @ dagger(q) - s.rho) < 1e-15
        assert s.range_sketch() is s.range_sketch()

    @pytest.mark.parametrize("family,q,kind", [("general", 2, "mps"), ("swap", 3, "two_site"),
                                               ("general", 4, "mps"), ("q2_qt2", 2, "lpdo")])
    def test_diagnostics_match_the_dense_state(self, family, q, kind):
        s = initial_joint_state(fixed_case(family, q, kind, 2, 11, l_r=4, tmax=1))
        dense = dense_twin(s)
        assert max_abs(subsystem_density(s) - subsystem_density(dense)) < 1e-15
        assert abs(entanglement_entropy(s) - von_neumann_entropy(subsystem_density(dense))) < 1e-12
        op = random_hermitian(q, make_rng(12))
        for site in range(s.l_r):
            assert abs(local_expectation(s, site, op) - local_expectation(dense, site, op)) < 1e-15

    def test_entropy_of_an_entangled_ket(self):
        # chi = 2 kets |0..0> and |1..1>: rho_R has two equal eigenvalues
        cfg = fixed_case("general", 2, "mps", 2, 13, l_r=3, tmax=1)
        cfg.right_kets = np.zeros_like(cfg.right_kets)
        cfg.right_kets[0, 0] = cfg.right_kets[1, -1] = 1.0
        assert abs(entanglement_entropy(initial_joint_state(cfg)) - np.log(2)) < 1e-14

    def test_row_zero_entropy_from_the_gram_matrix(self, monkeypatch):
        # rho_R = M^T M^* for psi as M (chi x D/chi) has the nonzero spectrum
        # of the chi x chi Gram matrix M M^dag: rho_R is never formed
        cfg = fixed_case("general", 2, "mps", 2, 16, l_r=9, tmax=1)
        s = initial_joint_state(cfg)
        want = von_neumann_entropy(subsystem_density(s))
        monkeypatch.setattr(evolve, "subsystem_density", None)
        m = s._held.reshape(2, -1)
        got = entanglement_entropy(s)
        assert got == von_neumann_entropy(m @ dagger(m))
        assert abs(got - want) < 1e-12

    def test_ket_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="ket shape"):
            JointState(2, 2, 3, np.ones(15))

    def test_first_period_leaves_the_ket_alone(self):
        # the ket is stepped as a vector, into sigma(1) on n = r q^(L_R-1)
        cfg = fixed_case("general", 2, "mps", 2, 14, l_r=6, tmax=1)
        s = initial_joint_state(cfg)
        before = s._held.copy()
        s1 = step(s, cfg)
        assert np.array_equal(s._held, before)
        assert s1._w is cfg.channel.range_basis() and s1._held.shape == (64, 64)

    @settings(max_examples=40, deadline=None)
    @given(**draws)
    def test_step_equals_the_dense_step(self, family_q, kind, chi, seed):
        family, q = family_q
        cfg = case(family, q, kind, chi, seed, l_r=3, tmax=1)
        s = initial_joint_state(cfg)
        ket, dense = step(s, cfg), step(dense_twin(s), cfg)
        assert ket._w is dense._w
        assert max_abs(ket._held - dense._held) < 1e-13
        assert abs(ket._herm - dense._herm) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(q=st.sampled_from([2, 3, 4]), chi=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_engine_equals_the_chain_oracle(self, q, chi, seed):
        # generic complex kets, not a product: row 0 and both stepped rows
        cfg = case("general", q, "mps", chi, seed, l_r=2, tmax=2)
        assert isinstance(cfg.mps, MpsTensor)
        spec = ChainSpec(cfg.gate, cfg.mps, cfg.right_kets, 2 * cfg.tmax, cfg.l_r, cfg.tmax)
        got = list(states(cfg))
        assert got[0]._held.ndim == 1
        for s, oracle_rho in zip(got, evolve_chain(spec)):
            assert trace_distance(oracle_rho, subsystem_density(s)) < 1e-10
        op = random_hermitian(q, make_rng(seed))
        rho0 = evolve_chain(spec)[0]
        for site in range(cfg.l_r):
            want = np.trace(partial_trace(rho0, [q] * cfg.l_r, [site]) @ op).real
            assert abs(local_expectation(got[0], site, op) - want) < 1e-10


class TestUnitVector:
    @pytest.mark.parametrize("exp", [-700, -60, 0, 60, 700])
    def test_power_of_two_scale_keeps_the_bits(self, exp):
        rng = make_rng(15)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.array_equal(unit_vector(np.ldexp(v.real, exp) + 1j * np.ldexp(v.imag, exp)),
                              v / np.linalg.norm(v))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0 ** 1000])
    def test_huge_and_tiny_kets_normalise(self, scale):
        v = np.array([3.0, 4.0j, 0.0]) * scale
        assert max_abs(unit_vector(v) - np.array([0.6, 0.8j, 0.0])) < 1e-15

    def test_in_place(self):
        v = np.array([2.0 ** 600, 0.0, 1j * 2.0 ** 600])
        assert unit_vector(v, out=v) is v and abs(np.linalg.norm(v) - 1) < 1e-15

    @pytest.mark.parametrize("v,match", [(np.zeros(4), "all entries are zero"),
                                         (np.array([1.0, np.nan]), "non-finite"),
                                         (np.array([1.0, 1j * np.inf]), "non-finite")])
    def test_zero_and_non_finite_refused(self, v, match):
        with pytest.raises(ValueError, match=match):
            unit_vector(v, "ket")
