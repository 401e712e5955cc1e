import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcirc.channel import (BoundaryChannel, apply_channel, check_cptp,
                              kraus_from_lpdo, kraus_from_mps,
                              kraus_from_two_site)
from solvcirc.linalg import dagger, kron, make_rng, max_abs, sandwich
from solvcirc.mps import (Lpdo, MpsTensor, TwoSiteMps, ghz_cluster_family,
                          product_state_mps, random_left_canonical,
                          random_lpdo, two_site_from_pair)
from test_linalg import partial_trace
from test_oracle import traced_peak


def random_joint_density(chi, q, l_r, rng):
    d = chi * q ** l_r
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ dagger(x)
    return rho / np.trace(rho).real


def trace_site0(rho, chi, q):
    """Tr_0 of a joint density matrix on ancilla (x) site 0 (x) the rest."""
    r = rho.reshape(chi, q, -1, chi, q, rho.shape[0] // (chi * q))
    m = r.shape[2]
    return np.einsum('asxbsy->axby', r).reshape(chi * m, chi * m)


def factored_channel(c, rho):
    """M(rho) through ``apply_channel``: (W (x) I) apply_channel(c, Tr_0 rho)
    (W (x) I)^dag with W = ``range_basis()``."""
    return sandwich(c.range_basis(), apply_channel(c, trace_site0(rho, c.chi, c.q)))


def _site_unit(q, b, ap):
    m = np.zeros((q, q), dtype=complex)
    m[b, ap] = 1.0
    return m


# Term-by-term references for the three Kraus builders:
# K_{(a,g),(a',g')} = sum_b A^(b,g') B^(a,g) (x) |b><a'|, one kron per term.

def reference_kraus_from_mps(a):
    ks = []
    for ai in range(a.q):
        for ap in range(a.q):
            k = np.zeros((a.chi * a.q, a.chi * a.q), dtype=complex)
            for b in range(a.q):
                k += kron(a.mats[b] @ a.mats[ai], _site_unit(a.q, b, ap))
            ks.append(k)
    return ks


def reference_kraus_from_two_site(t):
    ks = []
    for ai in range(t.q):
        for ap in range(t.q):
            k = np.zeros((t.chi * t.q, t.chi * t.q), dtype=complex)
            for b in range(t.q):
                k += kron(t.mats_a[b] @ t.mats_b[ai], _site_unit(t.q, b, ap))
            ks.append(k)
    return ks


def reference_kraus_from_lpdo(l):
    ks = []
    for ai in range(l.q):
        for g in range(l.d):
            for ap in range(l.q):
                for gp in range(l.d):
                    k = np.zeros((l.chi * l.q, l.chi * l.q), dtype=complex)
                    for b in range(l.q):
                        k += kron(l.mats[b, gp] @ l.mats[ai, g], _site_unit(l.q, b, ap))
                    ks.append(k)
    return ks


def haar_isometry(rows, cols, rng):
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


def assert_same_bits(kraus, ref):
    assert len(kraus) == len(ref)
    for k, r in zip(kraus, ref):
        assert k.shape == r.shape and k.tobytes() == r.tobytes()


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("chi", [1, 2, 3])
class TestKrausMatchesReference:
    """The batched builder against the term-by-term sums, bit for bit
    (signed zeros included)."""

    def test_mps(self, q, chi):
        rng = make_rng(10 * q + chi)
        for a in (random_left_canonical(q, chi, rng), ghz_cluster_family(0.6, q),
                  product_state_mps(np.eye(q)[q - 1])):
            if a.chi == chi:
                assert_same_bits(kraus_from_mps(a).kraus, reference_kraus_from_mps(a))

    def test_two_site_unequal_tensors(self, q, chi):
        rng = make_rng(20 * q + chi)
        chip = chi + 1
        # sum_a A^a+ A^a = I_chip and sum_b B^b+ B^b = I_chi make the cell canonical
        a = haar_isometry(q * chi, chip, rng).reshape(q, chi, chip)
        b = haar_isometry(q * chip, chi, rng).reshape(q, chip, chi)
        cell = TwoSiteMps(q, chi, chip, a, b)
        assert_same_bits(kraus_from_two_site(cell).kraus, reference_kraus_from_two_site(cell))

    def test_lpdo(self, q, chi):
        l = random_lpdo(q, chi, 3, make_rng(30 * q + chi))
        assert_same_bits(kraus_from_lpdo(l).kraus, reference_kraus_from_lpdo(l))


class TestKrausFromMps:
    def test_reset_channel(self):
        ch = kraus_from_mps(product_state_mps([1, 0]))
        rng = make_rng(0)
        rho = random_joint_density(1, 2, 2, rng)
        out = factored_channel(ch, rho)
        # boundary site becomes |0><0|, remainder is the traced input
        rest = partial_trace(rho, [2, 2], [1])
        proj0 = np.zeros((2, 2), dtype=complex)
        proj0[0, 0] = 1
        assert max_abs(out - kron(proj0, rest)) < 1e-12

    def test_ghz_cluster_q4_shapes(self):
        ch = kraus_from_mps(ghz_cluster_family(0.5, 4))
        assert len(ch.kraus) == 16
        assert all(k.shape == (8, 8) for k in ch.kraus)

    def test_cptp(self):
        rng = make_rng(1)
        for mps in (product_state_mps([1, 0]),
                    ghz_cluster_family(np.pi / 8, 4),
                    random_left_canonical(3, 2, rng)):
            ch = kraus_from_mps(mps)
            assert len(ch.kraus) == mps.q * mps.q
            assert check_cptp(ch) < 1e-12

    def test_rejects_non_canonical(self):
        bad = MpsTensor(2, 1, np.array([[[2.0]], [[0.0]]]))
        with pytest.raises(ValueError):
            kraus_from_mps(bad)

    def test_reduced_superoperator_is_cached_and_read_only(self):
        ch = kraus_from_mps(ghz_cluster_family(0.5, 2))
        sup = ch.reduced_superoperator()
        assert sup is ch.reduced_superoperator() and not sup.flags.writeable
        assert sup.shape == (ch.chi, ch.chi, ch.chi, ch.chi)  # r = chi
        before = sup.copy()
        with pytest.raises(ValueError):
            sup[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            sup.reshape(-1)[:] = 0.0
        assert np.array_equal(ch.reduced_superoperator(), before)


class TestKrausFromTwoSite:
    def test_cptp(self):
        rng = make_rng(2)
        cell = two_site_from_pair(random_left_canonical(2, 3, rng),
                                  random_left_canonical(2, 3, rng))
        assert check_cptp(kraus_from_two_site(cell)) < 1e-12

    def test_equal_tensors_reduce_to_pair_products(self):
        t = ghz_cluster_family(np.pi / 4, 2)
        cell = two_site_from_pair(t, t)
        ch_cell = kraus_from_two_site(cell)
        ch_pure = kraus_from_mps(t)
        for a, b in zip(ch_cell.kraus, ch_pure.kraus):
            assert max_abs(a - b) < 1e-14

    def test_kraus_shape(self):
        rng = make_rng(3)
        cell = two_site_from_pair(random_left_canonical(2, 2, rng),
                                  random_left_canonical(2, 2, rng))
        ch = kraus_from_two_site(cell)
        assert all(k.shape == (4, 4) for k in ch.kraus)


class TestKrausFromLpdo:
    def test_d1_reduces_to_pure(self):
        t = ghz_cluster_family(np.pi / 4, 2)
        l = Lpdo(2, 2, 1, t.mats[:, None])
        ch_l = kraus_from_lpdo(l)
        ch_p = kraus_from_mps(t)
        assert len(ch_l.kraus) == len(ch_p.kraus)
        for a, b in zip(ch_l.kraus, ch_p.kraus):
            assert max_abs(a - b) < 1e-14

    def test_counts_and_cptp(self):
        l = random_lpdo(2, 2, 2, make_rng(4))
        ch = kraus_from_lpdo(l)
        assert len(ch.kraus) == 16
        assert all(k.shape == (4, 4) for k in ch.kraus)
        assert check_cptp(ch) < 1e-12


def built_channel(kind, q, chi, seed):
    """A channel from a random canonical left state of the given kind; the
    two-site cell has chip = 3 - chi != chi."""
    rng = make_rng(seed)
    if kind == "mps":
        return kraus_from_mps(random_left_canonical(q, chi, rng))
    if kind == "lpdo":
        return kraus_from_lpdo(random_lpdo(q, chi, 2, rng))
    chip = 3 - chi
    a = haar_isometry(q * chi, chip, rng).reshape(q, chi, chip)
    b = haar_isometry(q * chip, chi, rng).reshape(q, chip, chi)
    return kraus_from_two_site(TwoSiteMps(q, chi, chip, a, b))


class TestCptpProperty:
    """Every built channel is CPTP, and ``check_cptp`` (one gemm over the
    stacked Kraus list) agrees with the operator-by-operator sum."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["mps", "two_site", "lpdo"]), q=st.sampled_from([2, 3, 4]),
           chi=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 31 - 1))
    def test_built_channels_are_cptp(self, kind, q, chi, seed):
        ch = built_channel(kind, q, chi, seed)
        ref = max_abs(sum(dagger(k) @ k for k in ch.kraus) - np.eye(chi * q))
        assert check_cptp(ch) < 1e-12
        assert abs(check_cptp(ch) - ref) <= 1e-14


class TestCheckCptp:
    def test_scaled_kraus(self):
        ch = kraus_from_mps(product_state_mps([1, 0]))
        scaled = BoundaryChannel(ch.chi, ch.q, [2 * k for k in ch.kraus])
        assert abs(check_cptp(scaled) - 3.0) < 1e-12

    def test_empty_list(self):
        assert check_cptp(BoundaryChannel(1, 2, [])) == 1.0


class TestApplyChannel:
    def test_trace_preserved(self):
        rng = make_rng(5)
        ch = kraus_from_mps(ghz_cluster_family(0.4, 2))
        rho = random_joint_density(2, 2, 3, rng)
        out = apply_channel(ch, trace_site0(rho, 2, 2))
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12

    def test_positivity_preserved(self):
        rng = make_rng(6)
        ch = kraus_from_mps(ghz_cluster_family(0.3, 4))
        rho = random_joint_density(2, 4, 2, rng)
        out = apply_channel(ch, trace_site0(rho, 2, 4))
        assert np.linalg.eigvalsh((out + dagger(out)) / 2).min() > -1e-10

    def test_matches_dense_embedding(self):
        rng = make_rng(7)
        ch = kraus_from_mps(ghz_cluster_family(np.pi / 4, 2))
        rho = random_joint_density(2, 2, 3, rng)
        out = factored_channel(ch, rho)
        dense = sum(kron(k, np.eye(4)) @ rho @ dagger(kron(k, np.eye(4)))
                    for k in ch.kraus)
        assert max_abs(out - dense) < 1e-13

    def test_commutes_with_disjoint_unitary(self):
        from solvcirc.linalg import haar_unitary
        rng = make_rng(8)
        ch = kraus_from_mps(ghz_cluster_family(np.pi / 4, 2))
        rho = random_joint_density(2, 2, 4, rng)
        for pad_left in (1, 2):  # unitary on site 1 and on site 2
            v = haar_unitary(2, rng)
            emb = kron(np.eye(2 * 2 ** pad_left), v, np.eye(2 ** (3 - pad_left)))
            a = factored_channel(ch, emb @ rho @ dagger(emb))
            b = emb @ factored_channel(ch, rho) @ dagger(emb)
            assert max_abs(a - b) < 1e-12

    def test_dimension_mismatch(self):
        ch = kraus_from_mps(ghz_cluster_family(0.4, 2))
        for z in (np.eye(3), np.ones((4, 2)), np.ones(4)):
            with pytest.raises(ValueError, match="incompatible"):
                apply_channel(ch, z)


def superoperator(c):
    """sum_mu K_mu (x) K_mu^* on the doubled boundary space, (chi q)^4
    entries: the dense reference form of the channel."""
    return sum(np.kron(k, k.conj()) for k in c.kraus)


def reference_apply_channel(c, rho):
    """M(rho) on a full D x D joint density matrix: the superoperator gemm
    on the (b,e | x,y) transposed state, each permutation a fresh copy.  The
    D x D reference for ``apply_channel``, which takes Tr_0 rho."""
    d = c.chi * c.q
    rest = rho.shape[0] // d
    r = rho.reshape(d, rest, d, rest).transpose(0, 2, 1, 3).reshape(d * d, rest * rest)
    out = superoperator(c) @ r
    return out.reshape(d, d, rest, rest).transpose(0, 2, 1, 3).reshape(rho.shape)


def random_left_state(kind, q, chi, rng):
    if kind == "mps":
        return kraus_from_mps(random_left_canonical(q, chi, rng))
    if kind == "two_site":
        return kraus_from_two_site(two_site_from_pair(random_left_canonical(q, chi, rng),
                                                      random_left_canonical(q, chi, rng)))
    return kraus_from_lpdo(random_lpdo(q, chi, 2, rng))


class TestApplyChannelBuffers:
    """``apply_channel`` on Tr_0 rho against the D x D reference channel, and
    what one call holds."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["mps", "two_site", "lpdo"]), q=st.sampled_from([2, 3, 4]),
           chi=st.sampled_from([1, 2]), extra=st.integers(0, 2),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_factored_channel_matches_the_reference(self, kind, q, chi, extra, seed):
        # M(X) = (W (x) I) apply_channel(c, Tr_0 X) (W (x) I)^dag
        rng = make_rng(seed)
        ch = random_left_state(kind, q, chi, rng)
        rho = random_joint_density(chi, q, 1 + extra, rng)
        before = rho.copy()
        expect = reference_apply_channel(ch, rho)
        assert max_abs(factored_channel(ch, rho) - expect) < 1e-14
        assert np.array_equal(rho, before)

    def test_any_memory_order_without_out(self):
        rng = make_rng(41)
        ch = kraus_from_mps(ghz_cluster_family(0.4, 2))
        z = trace_site0(random_joint_density(2, 2, 3, rng), 2, 2)
        assert np.array_equal(apply_channel(ch, np.asfortranarray(z)), apply_channel(ch, z))

    @pytest.mark.parametrize("kind", ["mps", "mps_chi8", "lpdo"])
    def test_call_holds_a_copy_of_z_and_the_result(self, kind):
        # D = 1024: a q=2, chi=2 GHZ-cluster MPS and a q=4, chi=8 random MPS
        # (r = chi), and a q=2, chi=1 LPDO with r = chi q.  No cache is
        # filled before the call, which allocates at most (chi m)^2 + (r m)^2
        # entries plus 1 MiB with W and S; at chi=8 the dense superoperator
        # alone would hold 16 MiB
        ch = {"mps": lambda: kraus_from_mps(ghz_cluster_family(0.6, 2)),
              "mps_chi8": lambda: kraus_from_mps(random_left_canonical(4, 8, make_rng(46))),
              "lpdo": lambda: kraus_from_lpdo(random_lpdo(2, 1, 2, make_rng(44)))}[kind]()
        chi, q = ch.chi, ch.q
        m = 1024 // (chi * q)
        rng = make_rng(45)
        z = rng.standard_normal((chi * m, chi * m)) + 1j * rng.standard_normal((chi * m, chi * m))
        peak = traced_peak(lambda: apply_channel(ch, z))
        r = ch.range_basis().shape[1]
        assert r == (chi * q if kind == "lpdo" else chi)
        assert peak <= 16 * ((chi * m) ** 2 + (r * m) ** 2) + 2 ** 20
