import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.errors import CapacityError, PositivityError
from solvcirc.linalg import (_PROBE_WIDTH, PAULI, apply_two_site, dagger,
                             expm_hermitian_generator, haar_unitary,
                             hermiticity_residual, isometry_residual, kron,
                             make_rng, max_abs, min_eig_lower_bound, partial_trace,
                             reduced_density, renyi_trace, reshuffle,
                             trace_distance, unitarity_residual, von_neumann_entropy)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def random_density(dim, rng):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ dagger(x)
    return rho / np.trace(rho).real


class TestKron:
    def test_identity(self):
        assert max_abs(kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0

    def test_pauli_entries(self):
        xx = kron(PAULI[1], PAULI[1])
        assert xx[0, 3] == 1
        assert xx[0, 0] == 0

    def test_shape_rule(self):
        out = kron(np.ones((2, 2)), np.ones((3, 3)))
        assert out.shape == (6, 6)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            kron(np.eye(2 ** 10), np.eye(2 ** 10))


class TestPartialTrace:
    def test_factorized(self):
        rng = make_rng(0)
        r1 = random_density(2, rng)
        r2 = random_density(3, rng)
        out = partial_trace(kron(r1, r2), [2, 3], [0])
        assert max_abs(out - r1) < 1e-12

    def test_bell(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = partial_trace(rho, [2, 2], [1])
        assert max_abs(out - np.eye(2) / 2) < 1e-12

    def test_trace_preserved_three_factors(self):
        rng = make_rng(1)
        rho = random_density(2 * 3 * 2, rng)
        out = partial_trace(rho, [2, 3, 2], [1])
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12

    def test_hermiticity_preserved(self):
        rng = make_rng(2)
        rho = random_density(8, rng)
        out = partial_trace(rho, [2, 2, 2], [0, 2])
        assert max_abs(out - dagger(out)) < 1e-12

    def test_bad_keep_index(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 2], [2])


class TestReshuffle:
    def test_involution(self):
        rng = make_rng(3)
        u = haar_unitary(9, rng)
        assert max_abs(reshuffle(reshuffle(u, 3), 3) - u) == 0

    def test_swap_fixed_point(self):
        assert max_abs(reshuffle(SWAP, 2) - SWAP) == 0

    def test_identity_rank_one(self):
        r = reshuffle(np.eye(4, dtype=complex), 2)
        # entry 1 exactly at rows (a,a), cols (c,c)
        expect = np.zeros((4, 4))
        for a in range(2):
            for c in range(2):
                expect[a * 2 + a, c * 2 + c] = 1
        assert max_abs(r - expect) == 0
        assert np.linalg.matrix_rank(r) == 1

    def test_shape_error(self):
        with pytest.raises(ValueError):
            reshuffle(np.eye(6), 2)


class TestExpm:
    def test_zero(self):
        assert max_abs(expm_hermitian_generator(np.zeros((3, 3))) - np.eye(3)) == 0

    def test_half_pi_pauli_x(self):
        out = expm_hermitian_generator((np.pi / 2) * PAULI[1])
        assert max_abs(out - (-1j) * PAULI[1]) < 1e-12

    def test_unitary_output(self):
        rng = make_rng(4)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (h + dagger(h)) / 2
        u = expm_hermitian_generator(h)
        assert max_abs(dagger(u) @ u - np.eye(6)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian_generator(np.array([[0, 1], [0, 0]], dtype=complex))


class TestEntropies:
    def test_pure_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1
        assert von_neumann_entropy(rho) == 0

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert abs(von_neumann_entropy(np.eye(d) / d) - np.log(d)) < 1e-12

    def test_bell_reduced(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - np.log(2)) < 1e-12

    def test_positivity_error(self):
        rho = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(rho)

    def test_renyi_pure(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1
        for n in (2, 3, 4):
            assert abs(renyi_trace(rho, n) - 1) < 1e-14

    def test_renyi_mixed_qubit(self):
        assert abs(renyi_trace(np.eye(2) / 2, 2) - 0.5) < 1e-14

    def test_renyi_matches_eigenvalues(self):
        rng = make_rng(5)
        rho = random_density(6, rng)
        w = np.linalg.eigvalsh(rho)
        for n in (2, 3):
            assert abs(renyi_trace(rho, n) - np.sum(w ** n)) < 1e-10

    def test_renyi_rejects_small_n(self):
        with pytest.raises(ValueError):
            renyi_trace(np.eye(2) / 2, 1)


def random_psd(dim, rank, rng):
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return x @ dagger(x)


class TestRenyiTrace:
    """Tr[rho^n] from Hermitian powers against the eigenvalue sum."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), dim=st.integers(1, 48),
           rank_frac=st.sampled_from([0.25, 0.5, 1.0]), scale=st.floats(1e-3, 1e3))
    def test_matches_eigenvalue_sum(self, seed, dim, rank_frac, scale):
        rng = make_rng(seed)
        rho = scale * random_psd(dim, max(1, int(rank_frac * dim)), rng)
        w = np.linalg.eigvalsh(rho)
        for n in range(2, 9):
            ref = np.sum(w ** n)
            assert abs(renyi_trace(rho, n) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("dim,rank", [(16, 16), (16, 3), (64, 64), (64, 1)])
    def test_each_n_on_fixed_states(self, dim, rank):
        rho = random_psd(dim, rank, make_rng(dim + rank))
        rho /= np.trace(rho).real
        w = np.linalg.eigvalsh(rho)
        for n in range(2, 9):
            ref = np.sum(w ** n)
            assert abs(renyi_trace(rho, n) - ref) <= 1e-12 * ref

    def test_rejects_non_hermitian(self):
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            renyi_trace(rho, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        rho = np.eye(3, dtype=complex) / 3
        rho[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            renyi_trace(rho, 3)


class TestHaar:
    def test_unitary(self):
        u = haar_unitary(7, make_rng(6))
        assert max_abs(dagger(u) @ u - np.eye(7)) < 1e-12

    def test_deterministic(self):
        u1 = haar_unitary(4, make_rng(42))
        u2 = haar_unitary(4, make_rng(42))
        assert np.array_equal(u1, u2)

    def test_special_unitary(self):
        u = haar_unitary(3, make_rng(7), special=True)
        assert abs(np.linalg.det(u) - 1) < 1e-12

    def test_first_entry_moment(self):
        # E[|U_00|^2] = 1/dim for Haar measure
        rng = make_rng(8)
        vals = [abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(vals) - 0.5) < 0.02


class TestTraceDistance:
    def test_identical(self):
        assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == 0

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1) < 1e-14

    def test_symmetric(self):
        rng = make_rng(9)
        a, b = random_density(4, rng), random_density(4, rng)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(3))


def reference_apply_pair(psi, u, dims, p1, p2):
    """The moveaxis kernel: move legs p1, p2 to the end (a copy), multiply,
    move them back (a second copy)."""
    n = len(dims)
    t = np.moveaxis(psi.reshape(dims), [p1, p2], [n - 2, n - 1])
    lead = t.shape[:-2]
    t = (t.reshape(-1, dims[p1] * dims[p2]) @ u.T).reshape(*lead, dims[p1], dims[p2])
    return np.moveaxis(t, [n - 2, n - 1], [p1, p2]).reshape(-1)


# site legs per q: enough that the first site pair has rows of >= 128
# amplitudes (the matmul layout) while the last pairs have short rows (the
# kron gemm, and u^T at after == 1)
SITES = {2: 8, 3: 5, 4: 4}


class TestApplyTwoSite:
    @settings(max_examples=40, deadline=None)
    @given(q=st.sampled_from(sorted(SITES)), lead=st.integers(1, 3),
           trail=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_matches_moveaxis_reference(self, q, lead, trail, seed, data):
        dims = [lead] + [q] * SITES[q] + [trail]
        rng = make_rng(seed)
        n = int(np.prod(dims))
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        before = psi.copy()
        p1 = data.draw(st.integers(0, len(dims) - 3), label="p1")
        p2 = data.draw(st.integers(p1 + 2, len(dims) - 1), label="p2")
        pairs = [(p, p + 1) for p in range(len(dims) - 1)] + [(p1, p2)]
        for a, b in pairs:
            u = haar_unitary(dims[a] * dims[b], rng)
            out = apply_two_site(psi, u, dims, a, b)
            assert out.shape == (n,)
            assert max_abs(out - reference_apply_pair(psi, u, dims, a, b)) < 1e-14
            assert np.array_equal(psi, before)

    def test_state_of_several_gemm_blocks(self):
        # 9 * 2^16 amplitudes: the kron gemm of the short-row pairs runs over
        # several row blocks, the last of them partial
        dims = [3] + [2] * 16 + [3]
        rng = make_rng(40)
        n = int(np.prod(dims))
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for p in range(len(dims) - 1):
            u = haar_unitary(dims[p] * dims[p + 1], rng)
            out = apply_two_site(psi, u, dims, p, p + 1)
            assert max_abs(out - reference_apply_pair(psi, u, dims, p, p + 1)) < 1e-14

    @pytest.mark.parametrize("p1,p2", [(1, 1), (2, 1), (-1, 1), (0, 3)])
    def test_rejects_bad_positions(self, p1, p2):
        with pytest.raises(ValueError):
            apply_two_site(np.zeros(8, dtype=complex), np.eye(4), [2, 2, 2], p1, p2)


def hermitian(m):
    """The Hermitian part of m, exactly Hermitian in floating point."""
    return (m + dagger(m)) / 2


def spectral_state(d, eigs, rng):
    """V diag(eigs) V^dag for a random d x len(eigs) isometry V."""
    x = rng.standard_normal((d, len(eigs))) + 1j * rng.standard_normal((d, len(eigs)))
    v, _ = np.linalg.qr(x)
    return hermitian((v * np.asarray(eigs)) @ dagger(v))


def noise_floor(d, norm, rng):
    """A full-rank Hermitian matrix of Frobenius norm ``norm``: below the
    probe's residual tolerance, the bound must charge it."""
    g = hermitian(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return norm * g / np.linalg.norm(g)


def sweep_state(kind, d, rank, rng):
    if kind in ("low_rank", "low_rank_noisy"):
        w = rng.uniform(0.1, 1.0, min(rank, d))
        h = spectral_state(d, w / w.sum(), rng)
        if kind == "low_rank_noisy":
            h = h + noise_floor(d, 5e-13, rng)
        return h
    if kind == "full_rank":
        return hermitian(random_density(d, rng))
    g = hermitian(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return g / np.linalg.norm(g)


class TestMinEigLowerBound:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["low_rank", "low_rank_noisy", "full_rank", "indefinite"]),
           d=st.integers(16, 512), rank=st.integers(1, 16),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_bounds_the_dense_minimum(self, kind, d, rank, seed):
        h = sweep_state(kind, d, rank, make_rng(seed))
        exact = np.linalg.eigvalsh(h).min()
        bound = min_eig_lower_bound(h)
        assert bound <= exact + 1e-14
        if kind.startswith("low_rank"):
            assert bound >= exact - 1e-12

    @pytest.mark.parametrize("d", [512, 2048])
    def test_planted_negative_eigenvalue(self, d):
        rng = make_rng(d)
        w = rng.uniform(0.1, 1.0, 8)
        h = spectral_state(d, [*(w / w.sum()), -1e-9], rng)
        bound = min_eig_lower_bound(h)
        assert -1e-9 - 1e-12 <= bound <= -1e-9 * (1 - 1e-6)

    def test_noise_floor_is_charged(self):
        # the floor's most negative directions lie outside the probed range,
        # so only ||E||_F takes the bound under the dense minimum (by 4e-14)
        rng = make_rng(7)
        h = spectral_state(256, [0.5, 0.3, 0.2], rng) + noise_floor(256, 8e-13, rng)
        exact = np.linalg.eigvalsh(h).min()
        bound = min_eig_lower_bound(h)
        assert exact - 1e-12 <= bound <= exact + 1e-14

    @pytest.mark.parametrize("rank", [_PROBE_WIDTH - 1, _PROBE_WIDTH, _PROBE_WIDTH + 1])
    def test_rank_at_the_probe_width(self, rank):
        # at rank = probe width, A is positive definite while rho is singular:
        # the bound must still report the zero eigenvalues
        rng = make_rng(rank)
        h = spectral_state(512, rng.uniform(1e-3, 1.0, rank), rng)
        exact = np.linalg.eigvalsh(h).min()
        bound = min_eig_lower_bound(h)
        assert exact - 1e-12 <= bound <= exact + 1e-14

    @pytest.mark.parametrize("d", [64, 256, 512])
    def test_full_rank_falls_back_to_dense(self, d):
        rng = make_rng(d)
        h = hermitian(random_density(d, rng))
        assert min_eig_lower_bound(h) == np.linalg.eigvalsh(h).min()
        # not quite Hermitian: the dense value of the Hermitian part, bit for bit
        m = h + 1e-13 * rng.standard_normal((d, d))
        assert min_eig_lower_bound(m) == np.linalg.eigvalsh((m + dagger(m)) / 2).min()

    def test_deterministic_and_input_untouched(self):
        rng = make_rng(12)
        h = spectral_state(512, rng.uniform(0.1, 1.0, 10) / 5, rng)
        before = h.copy()
        first = min_eig_lower_bound(h)
        make_rng(0).standard_normal(100)
        second = min_eig_lower_bound(h)
        assert np.float64(first).tobytes() == np.float64(second).tobytes()
        assert np.array_equal(h, before)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 3), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            min_eig_lower_bound(np.zeros(shape, dtype=complex))


class TestHermiticityResidual:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(0, 1100), scale=st.sampled_from([0.0, 1e-13, 1.0]),
           transpose=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_dense_expression(self, d, scale, transpose, seed):
        rng = make_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = hermitian(g) + scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        if transpose:
            m = m.T
        assert hermiticity_residual(m) == max_abs(m - dagger(m))

    @pytest.mark.parametrize("i,j", [(0, 1099), (1099, 0), (1099, 1099), (500, 499)])
    def test_finds_a_single_defect_in_any_block(self, i, j):
        # 1100 rows span five row blocks, the last one partial
        rng = make_rng(1)
        m = hermitian(rng.standard_normal((1100, 1100)) + 1j * rng.standard_normal((1100, 1100)))
        m[i, j] += 1e-3j
        assert hermiticity_residual(m) == max_abs(m - dagger(m)) >= 1e-3

    @pytest.mark.parametrize("shape", [(3, 4), (1, 3), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            hermiticity_residual(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("d,i", [(2, 0), (2, 1), (1100, 1099)])
    def test_nan_propagates(self, d, i):
        # a NaN in any row block must not be dropped by the running maximum
        m = np.eye(d, dtype=complex)
        m[i, i] = np.nan
        assert np.isnan(hermiticity_residual(m))


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestIsometryResidual:
    """One gemm on the (-1, cols) view against the sum over the stack."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
           rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_matches_the_per_matrix_sum(self, seed, lead, rows, cols):
        shape = (*lead, rows, cols)
        stack = random_complex(shape, make_rng(seed)) / np.sqrt(np.prod(shape[:-1]))
        mats = stack.reshape(-1, rows, cols)
        acc = sum(dagger(m) @ m for m in mats)
        ref = max_abs(acc - np.eye(cols))
        assert abs(isometry_residual(stack) - ref) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), rows=st.integers(1, 9),
           cols=st.integers(1, 9), unitary=st.booleans())
    def test_one_matrix_bit_for_bit(self, seed, rows, cols, unitary):
        rng = make_rng(seed)
        u = haar_unitary(rows, rng) if unitary else random_complex((rows, cols), rng)
        ref = max_abs(dagger(u) @ u - np.eye(u.shape[1]))
        assert isometry_residual(u) == ref
        if unitary:
            assert unitarity_residual(u) == ref

    def test_isometries_and_empty_stack(self):
        rng = make_rng(11)
        v, _ = np.linalg.qr(random_complex((12, 3), rng))
        assert isometry_residual(v.reshape(4, 3, 3)) < 1e-14
        assert isometry_residual(np.zeros((0, 3))) == 1.0


class TestReshuffleProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), q=st.sampled_from([2, 3, 4]))
    def test_involution(self, seed, q):
        u = random_complex((q * q, q * q), make_rng(seed))
        assert np.array_equal(reshuffle(reshuffle(u, q), q), u)


class TestReducedDensity:
    @pytest.mark.parametrize("dims", [[2, 3], [3, 2, 4], [2, 2, 2, 2, 2]])
    def test_matches_the_partial_trace(self, dims):
        psi = random_complex(int(np.prod(dims)), make_rng(len(dims)))
        rho = np.outer(psi, psi.conj())
        ref = partial_trace(rho, dims, [len(dims) - 1])
        assert max_abs(reduced_density(psi, dims[-1]) - ref) < 1e-12

    def test_blocks_sum_to_one_gemm(self, monkeypatch):
        import solvcirc.linalg as la
        psi = random_complex(2 ** 12, make_rng(3))
        whole = reduced_density(psi, 8)
        monkeypatch.setattr(la, "_ROW_BLOCK", 64)  # 8 rows a block, 64 blocks
        assert max_abs(reduced_density(psi, 8) - whole) < 1e-11
