import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.errors import CapacityError, DominanceError
from solvcirc.evolve import EvolutionConfig, entanglement_entropy, mps_continuation_kets, states
from solvcirc.gates import TwoSiteGate, random_gate, swap_matrix
from solvcirc.linalg import haar_unitary, make_rng, max_abs
from solvcirc import renyi
from solvcirc.mps import MpsTensor, folded_site, ghz_cluster_family, product_state_mps
from solvcirc.oracle import renyi_trace_chain
from solvcirc.solvable import build_influence_matrix_open
from solvcirc.renyi import (DOMINANCE_RTOL, TEMPORAL_AMPLITUDE_CAP, TRANSFER_DIM_CAP,
                            _live_block, _temporal_rho_odd, dominant_eigenvalue,
                            entanglement_velocity, pairing_vector,
                            renyi_trace_via_transfer, temporal_renyi_trace,
                            temporal_state_entropy, transfer_matrix,
                            velocity_from_eigenvalue)


def swap_gate():
    return TwoSiteGate(2, swap_matrix(2), "swap")


def cluster():
    return ghz_cluster_family(np.pi / 4, 2)


def haar_site(chi, q, seed):
    """A^(a) = U_a / sqrt(q) with Haar U_a: left- and right-canonical."""
    rng = make_rng(seed)
    return MpsTensor(q, chi, np.stack([haar_unitary(chi, rng) for _ in range(q)])
                     / np.sqrt(q))


def gauge_phased(a, phi):
    """A'^(a) = D A^(a) D^dag with D = diag(1, e^{i phi}, ...): the same state
    in another bond gauge, with complex entries."""
    d = np.exp(1j * phi * (np.arange(a.chi) > 0))
    return MpsTensor(a.q, a.chi, d[:, None] * a.mats * d.conj()[None, :])


def field_dtype(a):
    """float64 for a tensor with no imaginary part, complex128 otherwise."""
    return np.dtype(complex if a.mats.imag.any() else float)


def reference_pairing_vector(kind, n, q):
    v = np.zeros((q,) * (2 * n))
    for idx in np.ndindex(*(q,) * (2 * n)):
        a, ap = idx[0::2], idx[1::2]
        if kind == "dot":
            ok = all(ap[m] == a[m] for m in range(n))
        else:
            ok = all(ap[m] == a[(m + 1) % n] for m in range(n))
        if ok:
            v[idx] = 1.0
    return v.reshape(-1)


def reference_dressed_site(a, n, kind):
    """One folded site with its physical replica legs closed by a pairing,
    summed term by term over the physical replica indices.  Levels with
    A^(a) = 0 contribute zero terms and are skipped."""
    levels = [x for x in range(a.q) if a.mats[x].any()]
    dim = a.chi ** (2 * n)
    out = np.zeros((dim, dim), dtype=complex)
    for tup in np.ndindex(*(len(levels),) * n):
        factors = []
        for m in range(n):
            ai = levels[tup[m]]
            api = ai if kind == "dot" else levels[tup[(m + 1) % n]]
            factors.append(a.mats[ai])
            factors.append(a.mats[api].conj())
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        out += term
    return out


def termwise_transfer_matrix(a, n):
    return reference_dressed_site(a, n, "diamond") @ reference_dressed_site(a, n, "dot")


def reference_transfer_matrix(a, n):
    """The factorised build with T written as the broadcast product of F and
    the middle factor, then one new T per batched G matmul: the same
    arithmetic as ``transfer_matrix``, so the two agree bit for bit."""
    chi, dim = a.chi, a.chi ** (2 * n)
    d2 = chi * chi
    e = folded_site(a.mats if a.mats.imag.any() else a.mats.real)
    g = e.conj()
    edge = reduce(np.kron, [e] * min(n, 2)).reshape(chi, -1, chi, d2 ** min(n, 2))
    f = np.einsum('pqrs,smrc->qmpc', g.reshape((chi,) * 4), edge)
    rim, side = d2 ** (min(n, 2) - 1), chi ** max(2 * n - 4, 0)
    mid = reduce(np.kron, [e] * (n - 2), np.ones((1, 1), dtype=e.dtype))
    for k in range(n - 3):
        mid = np.matmul(g, mid.reshape(chi ** (2 * k + 1), d2, -1))
    x = f.reshape(d2, 1, rim, d2, 1, rim) * mid.reshape(1, side, 1, 1, side, 1)
    for m in range(1, n, max(n - 2, 1)):
        x = np.matmul(g, x.reshape(chi ** (2 * m - 1), d2, -1))
    return x.reshape(dim, dim)


def dense_dominant_eigenvalue(m):
    """dominant_eigenvalue with the eigensolve on the whole of m."""
    w = np.linalg.eigvals(m)
    radius = float(np.abs(w).max())
    if radius == 0.0:
        raise DominanceError("transfer matrix is nilpotent; no dominant eigenvalue")
    top = w[np.abs(w) >= radius * (1 - DOMINANCE_RTOL)]
    lam = top[np.argmax(np.abs(top))]
    if abs(lam.imag) > DOMINANCE_RTOL * radius or lam.real <= 0:
        raise DominanceError(f"dominant eigenvalue {lam:.6g} is not real-positive")
    if max_abs(top - lam) > DOMINANCE_RTOL * radius:
        raise DominanceError(f"dominant modulus is shared by distinct eigenvalues {top}")
    return float(lam.real)


def assert_matches_reference(a, n):
    ref = termwise_transfer_matrix(a, n)
    got = transfer_matrix(a, n).matrix
    assert got.shape == ref.shape
    assert got.dtype == field_dtype(a)
    assert max_abs(got - ref) <= 1e-12 * max_abs(ref)


def reference_temporal_rho_odd(a, t):
    """rho_O from the full 4t-site temporal state: build phi, move the even
    legs (left bond, even sites) to the front and contract them."""
    q, chi = a.q, a.chi
    sites = 4 * t
    block = np.eye(chi, dtype=complex).reshape(chi, 1, chi)
    for _ in range(sites):
        block = np.einsum('jxi,aik->jxak', block, a.mats).reshape(chi, -1, chi)
    phi = block.reshape((chi,) + (q,) * sites + (chi,))
    odd_axes = [i for i in range(1, sites + 1) if i % 2 == 1] + [sites + 1]
    even_axes = [0] + [i for i in range(1, sites + 1) if i % 2 == 0]
    phi = np.transpose(phi, even_axes + odd_axes)
    de = int(np.prod([chi] + [q] * (sites // 2)))
    m = phi.reshape(de, -1)
    return np.einsum('eo,ep->op', m, m.conj(), optimize=True)


def temporal_t_max(q, chi):
    t = 0
    while chi * chi * q ** (4 * (t + 1)) <= TEMPORAL_AMPLITUDE_CAP:
        t += 1
    return t


class TestPairingVector:
    def test_n1_dot_equals_diamond(self):
        for q in (2, 3):
            d = pairing_vector("dot", 1, q)
            dd = pairing_vector("diamond", 1, q)
            assert np.array_equal(d.vector, dd.vector)

    def test_diamond_count_n2(self):
        v = pairing_vector("diamond", 2, 2)
        assert int(v.vector.sum()) == 4  # q^2 free choices

    def test_dot_count(self):
        for n in (1, 2, 3):
            v = pairing_vector("dot", n, 2)
            assert int(v.vector.sum()) == 2 ** n  # q^n

    def test_entries_binary(self):
        v = pairing_vector("diamond", 3, 2)
        assert set(np.unique(v.vector)) <= {0.0, 1.0}

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            pairing_vector("star", 2, 2)

    @pytest.mark.parametrize("kind", ["dot", "diamond"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop_reference(self, kind, q, n):
        v = pairing_vector(kind, n, q).vector
        ref = reference_pairing_vector(kind, n, q)
        assert v.dtype == ref.dtype
        assert np.array_equal(v, ref)


class TestTransferMatrix:
    def test_product_state_trivial(self):
        t = product_state_mps([1, 0])
        for n in (1, 2, 3):
            tm = transfer_matrix(t, n)
            assert tm.matrix.shape == (1, 1)
            assert abs(tm.matrix[0, 0] - 1) < 1e-14

    def test_n1_is_squared_folded_map(self):
        t = cluster()
        e = sum(np.kron(t.mats[a], t.mats[a].conj()) for a in range(2))
        tm = transfer_matrix(t, 1)
        assert max_abs(tm.matrix - e @ e) < 1e-12
        w = np.abs(np.linalg.eigvals(tm.matrix))
        assert abs(w.max() - 1) < 1e-10

    def test_cluster_n2_spectral_radius(self):
        tm = transfer_matrix(cluster(), 2)
        assert tm.matrix.shape == (16, 16)
        assert np.abs(np.linalg.eigvals(tm.matrix)).max() <= 1 + 1e-10

    def test_spectral_radius_bounded_for_canonical_inputs(self):
        for theta in (0.2, 0.5, np.pi / 4):
            for q in (2, 4):
                for n in (2, 3):
                    tm = transfer_matrix(ghz_cluster_family(theta, q), n)
                    assert np.abs(np.linalg.eigvals(tm.matrix)).max() <= 1 + 1e-8

    def test_requires_both_canonical(self):
        rng = make_rng(0)
        from solvcirc.mps import random_left_canonical
        t = random_left_canonical(2, 2, rng)  # generically not right-canonical
        if np.abs(sum(m @ m.conj().T for m in t.mats) - np.eye(2)).max() > 1e-8:
            with pytest.raises(ValueError):
                transfer_matrix(t, 2)

    def test_capacity(self):
        mats = np.zeros((2, 9, 9), dtype=complex)
        mats[0] = np.eye(9)
        with pytest.raises(CapacityError):
            transfer_matrix(MpsTensor(2, 9, mats), 2)


class TestFactorisedBuild:
    """The E / G = E* factorised build against the term-by-term sum, for
    every n with chi^(2n) <= 1024."""

    @pytest.mark.parametrize("theta", [0.3, 0.6, np.pi / 4])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_ghz_cluster(self, theta, q):
        for n in range(1, 5):
            assert_matches_reference(ghz_cluster_family(theta, q), n)

    @pytest.mark.parametrize("theta,q", [(0.3, 2), (0.6, 3), (np.pi / 4, 4)])
    def test_ghz_cluster_n5(self, theta, q):
        assert_matches_reference(ghz_cluster_family(theta, q), 5)

    @pytest.mark.parametrize("chi,q,n_max", [(2, 2, 5), (3, 2, 3), (3, 3, 3)])
    def test_haar_sites(self, chi, q, n_max):
        mps = haar_site(chi, q, seed=10 * chi + q)
        for n in range(1, n_max + 1):
            assert_matches_reference(mps, n)

    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(0.05, np.pi / 4), q=st.sampled_from([2, 3, 4]),
           seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 3),
           phi=st.floats(0.1, 2 * np.pi - 0.1))
    def test_property_sweep(self, theta, q, seed, n, phi):
        # a real tensor, its gauge-phased complex copy and a complex Haar site
        mps = ghz_cluster_family(theta, q)
        assert_matches_reference(mps, n)
        assert_matches_reference(gauge_phased(mps, phi), n)
        assert_matches_reference(haar_site(2, q, seed), n)

    @pytest.mark.parametrize("mps", [cluster(), gauge_phased(cluster(), 0.9),
                                     ghz_cluster_family(0.6, 3)],
                             ids=["real_q2", "phased_q2", "real_q3"])
    def test_bit_identical_to_broadcast_build(self, mps):
        for n in range(1, 6):
            got = transfer_matrix(mps, n).matrix
            ref = reference_transfer_matrix(mps, n)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("phi", [0.0, 0.9])
    def test_peak_memory(self, phi):
        # T is the outer product of F and the middle factor, copied once
        # into its layout, and the two G matmuls on the first and last
        # adjacent pairs write into those two buffers in turn: the peak is
        # two T-sized arrays, for a real (float64) and a complex T
        mps = gauge_phased(cluster(), phi)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tm = transfer_matrix(mps, 5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tm.matrix.dtype == field_dtype(mps)
        assert peak <= 2 * 4 ** 10 * field_dtype(mps).itemsize + 2 ** 20

    def test_at_the_cap(self):
        # chi = 2, n = 6: the largest size TRANSFER_DIM_CAP admits
        mps = cluster()
        tm = transfer_matrix(mps, 6)
        assert tm.matrix.shape == (TRANSFER_DIM_CAP, TRANSFER_DIM_CAP)
        assert abs(dominant_eigenvalue(tm) - 2.0 ** -5) < 1e-12
        transfer = renyi_trace_via_transfer(mps, 6, 1)
        temporal = temporal_renyi_trace(mps, 6, 1)
        assert abs(transfer - temporal) <= 1e-10 * temporal


class TestTraceViaTransfer:
    def test_product_all_one(self):
        t = product_state_mps([1, 0])
        for n in (2, 3):
            for tt in (0, 1, 2, 5):
                assert abs(renyi_trace_via_transfer(t, n, tt) - 1) < 1e-12

    def test_t0_counts_chi(self):
        assert abs(renyi_trace_via_transfer(cluster(), 2, 0) - 2.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_chain_oracle(self, n, t):
        mps = cluster()
        chain = renyi_trace_chain(swap_gate(), mps, n, t)
        transfer = renyi_trace_via_transfer(mps, n, t)
        assert abs(chain - transfer) < 1e-8

    def test_values_in_unit_interval(self):
        mps = cluster()
        for n in (2, 3):
            for t in (1, 2, 3):
                v = renyi_trace_via_transfer(mps, n, t)
                assert 0 < v <= 1

    def test_gate_independence_in_chain(self):
        # the transfer matrix knows nothing of the gate; two different
        # both-chirality gates give identical chain traces
        mps = cluster()
        g1 = TwoSiteGate(2, swap_matrix(2), "swap")
        g2 = TwoSiteGate(2, np.exp(1j * 0.7) * swap_matrix(2), "swap")
        for t in (1, 2):
            a = renyi_trace_chain(g1, mps, 2, t)
            b = renyi_trace_chain(g2, mps, 2, t)
            assert abs(a - b) < 1e-8


class TestVelocity:
    def test_product_zero(self):
        assert entanglement_velocity(product_state_mps([1, 0]), 2) == 0

    def test_cluster_maximal(self):
        v = entanglement_velocity(cluster(), 2)
        assert abs(v - 2.0) < 1e-10

    def test_bound(self):
        for theta in (0.3, 0.5, np.pi / 4):
            for n in (2, 3):
                v = entanglement_velocity(ghz_cluster_family(theta, 4), n)
                assert -1e-8 <= v <= 2 + 1e-8

    def test_slope_cross_check(self):
        # finite-t slope of -ln Tr[rho^2(t)] / ln q from the chain oracle
        mps = cluster()
        v = entanglement_velocity(mps, 2)
        tr2 = renyi_trace_chain(swap_gate(), mps, 2, 2)
        tr3 = renyi_trace_chain(swap_gate(), mps, 2, 3)
        slope = (np.log(tr2) - np.log(tr3)) / np.log(2)
        assert abs(v - slope) < 0.05

    def test_n_restriction(self):
        with pytest.raises(ValueError):
            entanglement_velocity(cluster(), 1)
        with pytest.raises(ValueError):
            velocity_from_eigenvalue(0.5, 1, 2)

    def test_from_eigenvalue(self):
        mps = ghz_cluster_family(0.5, 4)
        for n in (2, 3):
            lam = dominant_eigenvalue(transfer_matrix(mps, n))
            assert velocity_from_eigenvalue(lam, n, 4) == entanglement_velocity(mps, n)
        assert abs(velocity_from_eigenvalue(0.5, 2, 2) - 2.0) < 1e-15

    def test_dominance_error_on_sign_split(self):
        tm = transfer_matrix(cluster(), 2)
        tm.matrix = np.diag([1.0, -1.0] + [0.0] * 14).astype(complex)
        with pytest.raises(DominanceError):
            dominant_eigenvalue(tm)

    def test_dominance_error_on_sign_split_float64(self):
        tm = transfer_matrix(cluster(), 2)
        tm.matrix = np.diag([1.0, -1.0] + [0.0] * 14)
        with pytest.raises(DominanceError, match="distinct eigenvalues"):
            dominant_eigenvalue(tm)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dominance_error_on_complex_pair(self, dtype):
        # a real rotation block: the dominant pair +-i is not real-positive
        tm = transfer_matrix(cluster(), 2)
        m = np.zeros((16, 16), dtype=dtype)
        m[0, 1], m[1, 0], m[2, 2] = 1.0, -1.0, 0.5
        tm.matrix = m
        with pytest.raises(DominanceError, match="not real-positive"):
            dominant_eigenvalue(tm)

    def test_repeated_dominant_value_accepted(self):
        # the cluster n=2 transfer matrix has a doubly degenerate dominant
        # eigenvalue 1/2 with a single value; that is well defined
        lam = dominant_eigenvalue(transfer_matrix(cluster(), 2))
        assert abs(lam - 0.5) < 1e-10


def planted_block(rng, core, dtype, positive):
    """A matrix whose live block is a dense core x core block, under a random
    permutation.  Ordered as (C, core, R): the C columns are zero on all
    rows and the R rows on all columns, except strictly upper-triangular
    chains inside C and inside R, so most of C and R is found zero only
    after an earlier pass has dropped its partner.  One core row holds only
    its diagonal entry.  Returns the matrix and the core's indices in it.
    With ``positive`` the core is a positive matrix (a Perron root) in a
    diagonal phase gauge when complex; else it is Gaussian."""
    nc, nr = rng.integers(0, 5, size=2)
    dim = nc + core + nr

    def draw(shape):
        x = rng.standard_normal(shape)
        if dtype == complex:
            x = x + 1j * rng.standard_normal(shape)
        return x

    m = draw((dim, dim))
    m[:, :nc] = 0.0
    m[nc + core:, :] = 0.0
    m[:nc, :nc] = np.triu(draw((nc, nc)), 1)
    m[nc + core:, nc + core:] = np.triu(draw((nr, nr)), 1)
    mid = slice(nc, nc + core)
    if positive:
        block = rng.uniform(0.1, 1.0, (core, core))
        if dtype == complex:
            d = np.exp(1j * rng.uniform(0, 2 * np.pi, core))
            block = d[:, None] * block * d.conj()
        m[mid, mid] = block
    only = nc + rng.integers(core)
    m[only, nc:] = 0.0
    m[only, only] = rng.uniform(0.1, 1.0)
    perm = rng.permutation(dim)
    inverse = np.argsort(perm)
    return m[np.ix_(perm, perm)], np.sort(inverse[nc:nc + core])


def match_spectra(a, b):
    """Largest distance between the members of two spectra paired by
    nearest neighbour."""
    b = list(b)
    worst = 0.0
    for x in a:
        k = int(np.argmin(np.abs(np.array(b) - x)))
        worst = max(worst, abs(b.pop(k) - x))
    assert not b
    return worst


def dominance_outcome(f, m):
    """The value f(m), or which DominanceError it raised."""
    try:
        return f(m)
    except DominanceError as e:
        return next(kind for kind in ("nilpotent", "not real-positive", "distinct")
                    if kind in str(e))


class TestLiveBlock:
    """The eigensolve of dominant_eigenvalue runs on T's live block: every
    index with a zero row or column on the indices kept is dropped, again
    and again, which removes only zero eigenvalues."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), core=st.integers(1, 6),
           dtype=st.sampled_from([float, complex]), positive=st.booleans())
    def test_planted_zero_rows_and_columns(self, seed, core, dtype, positive):
        m, kept = planted_block(make_rng(seed), core, dtype, positive)
        live = _live_block(m)
        assert live.dtype == m.dtype
        assert np.array_equal(live, m[np.ix_(kept, kept)])
        w_live = np.linalg.eigvals(live)
        w_dense = np.linalg.eigvals(m)
        nonzero = w_dense[np.argsort(np.abs(w_dense))[len(w_dense) - core:]]
        assert match_spectra(w_live, nonzero) <= 1e-12 * max(1.0, np.abs(w_live).max())
        assert max_abs(np.sort(np.abs(w_dense))[:len(w_dense) - core]) <= 1e-12
        tm = transfer_matrix(cluster(), 1)
        tm.matrix = m
        got = dominance_outcome(lambda x: dominant_eigenvalue(tm), m)
        want = dominance_outcome(dense_dominant_eigenvalue, m)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str)
            assert abs(got - want) <= 1e-12 * want
        if positive:
            assert not isinstance(got, str)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_matrix_passes_uncopied(self, dtype):
        m = make_rng(3).standard_normal((8, 8)).astype(dtype)
        assert _live_block(m) is m

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_only_exact_zeros_count(self, dtype):
        # the smallest subnormal is a live entry: no tolerance
        m = np.diag([1.0, 5e-324, 0.0]).astype(dtype)
        m[1, 2] = 5e-324
        live = _live_block(m)
        assert np.array_equal(live, m[:2, :2])

    def test_either_part_keeps_an_entry(self):
        # index 0 lives on an imaginary part alone, 1 and 3 on real parts
        m = np.diag([1j, 2.0, 0.0, 3.0])
        assert np.array_equal(_live_block(m), m[np.ix_([0, 1, 3], [0, 1, 3])])

    @pytest.mark.parametrize("mps", [haar_site(2, 2, seed=3), cluster()],
                             ids=["haar", "cluster"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transfer_eigenvalue_matches_dense_path(self, mps, n):
        tm = transfer_matrix(mps, n)
        want = dense_dominant_eigenvalue(tm.matrix)
        got = dominant_eigenvalue(tm)
        if _live_block(tm.matrix) is tm.matrix:
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("kind", ["strictly_upper", "zero"])
    def test_nilpotent(self, dtype, kind):
        m = np.zeros((16, 16), dtype=dtype)
        if kind == "strictly_upper":
            m = np.triu(make_rng(5).standard_normal((16, 16)), 1).astype(dtype)
        tm = transfer_matrix(cluster(), 2)
        tm.matrix = m
        assert _live_block(m).size == 0
        with pytest.raises(DominanceError, match="nilpotent"):
            dominant_eigenvalue(tm)


class TestTemporalState:
    def test_t0(self):
        assert temporal_state_entropy(cluster(), 0) == 0.0

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_bad_n_rejected_at_t0(self, n):
        with pytest.raises(ValueError, match="n must be >= 2"):
            temporal_state_entropy(cluster(), 0, n)

    @pytest.mark.parametrize("n", [1, 0])
    @pytest.mark.parametrize("t", [1, 2])
    def test_bad_n_rejected_before_the_state_is_built(self, monkeypatch, n, t):
        def unreachable(a, t):
            raise AssertionError("rho_O built for an invalid n")
        monkeypatch.setattr(renyi, "_temporal_rho_odd", unreachable)
        with pytest.raises(ValueError, match="n must be >= 2"):
            temporal_state_entropy(cluster(), t, n)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_von_neumann_matches_engine(self, t):
        mps = cluster()
        l_r = 2 * t + 2
        kets = mps_continuation_kets(mps, l_r)
        cfg = EvolutionConfig(swap_gate(), mps, kets, l_r, t)
        s_engine = entanglement_entropy(list(states(cfg))[-1])
        s_temporal = temporal_state_entropy(mps, t)
        assert abs(s_engine - s_temporal) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [1, 2])
    def test_raw_trace_matches_transfer(self, n, t):
        mps = cluster()
        lhs = np.log(temporal_renyi_trace(mps, n, t)) / (1 - n)
        rhs = -np.log(renyi_trace_via_transfer(mps, n, t)) / (n - 1)
        assert abs(lhs - rhs) < 1e-8

    def test_renyi_entropy_of_normalized_state(self):
        # S^(n) of the normalized temporal state differs from the raw-trace
        # functional by the replica-count bookkeeping n ln(chi) / (n - 1)
        mps = cluster()
        n, t = 2, 2
        s_norm = temporal_state_entropy(mps, t, n)
        raw = temporal_renyi_trace(mps, n, t)
        expect = (np.log(raw) - n * np.log(2)) / (1 - n)
        assert abs(s_norm - expect) < 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            temporal_renyi_trace(ghz_cluster_family(np.pi / 4, 4), 2, 4)

    @pytest.mark.parametrize("t", [-1, -3])
    def test_negative_t_rejected(self, t):
        mps = cluster()
        with pytest.raises(ValueError, match="t must be >= 0"):
            temporal_renyi_trace(mps, 2, t)
        for n in (None, 2):
            with pytest.raises(ValueError, match="t must be >= 0"):
                temporal_state_entropy(mps, t, n)


class TestTemporalBuilder:
    """The site-by-site rho_O against the full-state reference, for every t
    that TEMPORAL_AMPLITUDE_CAP admits."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("chi", [1, 2])
    def test_matches_full_state_reference(self, q, chi):
        tensors = [haar_site(chi, q, seed=7 * q + chi)]
        if chi == 2:
            tensors.append(ghz_cluster_family(0.6, q))
        t_max = temporal_t_max(q, chi)
        assert t_max >= 2
        for mps in tensors:
            for t in range(1, t_max + 1):
                got = _temporal_rho_odd(mps, t)
                ref = reference_temporal_rho_odd(mps, t)
                assert got.shape == ref.shape == (chi * q ** (2 * t),) * 2
                assert max_abs(got - ref) <= 1e-14

    # every (q, chi, t) whose IM, chi^2 q^(8t) entries, IM_ENTRY_CAP admits,
    # but q = 2, chi = 1, t = 3, whose IM of 2^24 entries takes 256 MiB
    @pytest.mark.parametrize("q,chi,t", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
                                         (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2, 1)])
    def test_is_the_influence_matrix(self, q, chi, t):
        # the temporal-state duality: rho_O is the IM at T = 2t with each in
        # leg closed by vec(I_q)/q, its out legs the odd sites right to left
        # and its open bond the right bond
        ket = np.linspace(1.0, 2.0, q) / np.linalg.norm(np.linspace(1.0, 2.0, q))
        tensors = ([product_state_mps(ket), haar_site(1, q, seed=q)] if chi == 1 else
                   [ghz_cluster_family(0.6, q), gauge_phased(ghz_cluster_family(0.6, q), 0.9),
                    haar_site(2, q, seed=q)])
        for mps in tensors:
            im = build_influence_matrix_open(mps, 2 * t)
            for _ in range(2 * t):  # close the leading in leg; the out leg moves last
                im = np.moveaxis(np.tensordot(im, np.eye(q).reshape(-1) / q, axes=([1], [0])),
                                 1, -1)
            sites = 2 * t  # labels: ket of odd site s is s, its bra sites + 1 + s
            in_sub = [0, sites + 1]
            for s in range(sites, 0, -1):
                in_sub += [s, sites + 1 + s]
            out_sub = list(range(1, sites + 1)) + [0] + list(range(sites + 2, 2 * sites + 2)) \
                + [sites + 1]
            x = im.reshape((chi, chi) + (q, q) * sites)
            ref = np.einsum(x, in_sub, out_sub).reshape(chi * q ** sites, -1)
            got = _temporal_rho_odd(mps, t)
            assert got.dtype == field_dtype(mps)
            assert max_abs(got - ref) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.05, np.pi / 4), q=st.sampled_from([2, 3, 4]),
           seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 5), t=st.integers(1, 3))
    def test_duality_sweep(self, theta, q, seed, n, t):
        for mps in (ghz_cluster_family(theta, q), haar_site(2, q, seed)):
            if t > temporal_t_max(q, mps.chi):
                with pytest.raises(CapacityError):
                    temporal_renyi_trace(mps, n, t)
                continue
            transfer = renyi_trace_via_transfer(mps, n, t)
            temporal = temporal_renyi_trace(mps, n, t)
            assert abs(temporal - transfer) <= 1e-10 * abs(transfer)


class TestField:
    """The replica layer computes in the tensor's field: a real tensor gives
    a float64 T and rho_O, a complex one complex128, and a bond-gauge phase,
    which makes the entries complex, leaves every replica quantity as it is."""

    @pytest.mark.parametrize("phi", [0.0, 0.4, 2.5])
    def test_dtypes(self, phi):
        mps = gauge_phased(cluster(), phi)
        want = np.dtype(float if phi == 0.0 else complex)
        assert field_dtype(mps) == want
        for n in (1, 2, 3):
            assert transfer_matrix(mps, n).matrix.dtype == want
        for t in (1, 2):
            assert _temporal_rho_odd(mps, t).dtype == want

    @pytest.mark.parametrize("theta", [0.3, 0.6, np.pi / 4])
    @pytest.mark.parametrize("phi", [0.4, 1.7, 3.0])
    def test_gauge_phase_changes_nothing(self, theta, phi):
        real = ghz_cluster_family(theta, 2)
        phased = gauge_phased(real, phi)
        assert field_dtype(real) == float and field_dtype(phased) == complex
        for n in range(1, 6):
            for t in (1, 2):
                assert abs(renyi_trace_via_transfer(phased, n, t)
                           - renyi_trace_via_transfer(real, n, t)) <= 1e-12
            assert abs(dominant_eigenvalue(transfer_matrix(phased, n))
                       - dominant_eigenvalue(transfer_matrix(real, n))) <= 1e-12
            if n >= 2:
                assert abs(entanglement_velocity(phased, n)
                           - entanglement_velocity(real, n)) <= 1e-12
        for t in (1, 2):
            assert abs(temporal_state_entropy(phased, t)
                       - temporal_state_entropy(real, t)) <= 1e-12
            for n in range(2, 6):
                assert abs(temporal_renyi_trace(phased, n, t)
                           - temporal_renyi_trace(real, n, t)) <= 1e-12
                assert abs(temporal_state_entropy(phased, t, n)
                           - temporal_state_entropy(real, t, n)) <= 1e-12
