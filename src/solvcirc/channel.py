"""The exact boundary quantum channel in Kraus form.

Tracing out the semi-infinite left region leaves, per Floquet period, one
CPTP map acting on the ancilla (the MPS bond space at the cut) together with
the leftmost subsystem site x=0.  Tensor-factor order everywhere is
ancilla (x) site0 (x) site1 (x) ...

Every left state fills in one formula,

    K_{(a,g),(a',g')} = sum_b A^(b,g') B^(a,g) (x) |b><a'|,

with Kraus operators listed in (a, g, a', g') row-major order.  A carries
the left factor of each product and B the right one: for a pure MPS both
are the one-site tensor, for the alternating cell they are its A and B
tensors, and only an LPDO has a purification index g (of size 1 otherwise).

The input site-0 index a' enters only through <a'|, so the channel reads its
input X only through the trace over site 0: M(X) = N(Tr_0 X) with
N(Z) = M(Z (x) |0><0|), |0> inserted as site 0.  ``apply_channel`` takes
Z = Tr_0 X and returns M(X) in the coordinates of the output range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, isometry_residual
from .mps import (CANONICAL_ATOL, Lpdo, MpsTensor, TwoSiteMps, check_left_canonical,
                  check_two_site_canonical, lpdo_check_canonical)


@dataclass
class BoundaryChannel:
    """Kraus operators on the (chi * q)-dimensional ancilla+boundary space."""

    chi: int
    q: int
    kraus: list[np.ndarray]

    def __post_init__(self):
        d = self.chi * self.q
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in self.kraus:
            if k.shape != (d, d):
                raise ValueError(f"Kraus operator shape {k.shape} != ({d},{d})")
        self._range: np.ndarray | None = None
        self._reduced: np.ndarray | None = None

    def range_basis(self) -> np.ndarray:
        """An orthonormal basis W (chi*q x r) of the range of
        sum_mu K_mu K_mu^dag, where every output of the channel lies (cached).

        W holds the eigenvectors whose eigenvalues exceed numpy's
        ``matrix_rank`` tolerance (largest eigenvalue x chi*q x machine
        epsilon).  r is chi for a pure MPS and at most d*chi for an LPDO.
        Every state the engine steps holds this one array, so it is read-only.
        """
        if self._range is None:
            d = self.chi * self.q
            cat = np.concatenate(self.kraus, axis=1)
            lam, vecs = np.linalg.eigh(cat @ dagger(cat))
            self._range = vecs[:, lam > lam.max() * d * np.finfo(float).eps]
            self._range.flags.writeable = False
        return self._range

    def reduced_superoperator(self) -> np.ndarray:
        """S[i,j,b,c] = sum_mu P_mu[i,b] P_mu^*[j,c] (r x r x chi x chi), with
        P_mu = W^dag K_mu (I_chi (x) |0>) and W = ``range_basis()``: the one
        other array the channel caches (read-only), formed by one batched
        matmul over (i, j) in O(k r^2 chi^2) for k operators."""
        if self._reduced is None:
            chi, w = self.chi, self.range_basis()
            p = dagger(w) @ np.reshape(self.kraus, (-1, chi * self.q, chi, self.q))[..., 0]
            s = np.matmul(p.transpose(1, 2, 0)[:, None], p.conj().transpose(1, 0, 2)[None])
            s.flags.writeable = False
            self._reduced = s
        return self._reduced


def _kraus(left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
    """The Kraus list of the module formula from stacks A = ``left``
    (q, d, chi, chip) and B = ``right`` (q, d, chip, chi)."""
    q, d, chi = left.shape[0], left.shape[1], left.shape[2]
    prod = np.matmul(left[:, :, None, None], right[None, None])  # [b, g', a, g]
    ks = np.zeros((q, d, q, d, chi, q, chi, q), dtype=complex)
    for ap in range(q):
        # += rather than = turns a -0.0 product entry into +0.0
        ks[:, :, ap, :, :, :, :, ap] += prod.transpose(2, 3, 1, 4, 0, 5)
    return list(ks.reshape(-1, chi * q, chi * q))


def kraus_from_mps(a: MpsTensor) -> BoundaryChannel:
    """K_{a,a'} = sum_b A^(b) A^(a) (x) |b><a'|, indexed (a, a') row-major.

    Requires the tensor in left-canonical form; the two A factors reflect the
    two left-region sites absorbed per period.
    """
    resid = check_left_canonical(a)
    if resid > CANONICAL_ATOL:
        raise ValueError(f"tensor is not left-canonical (residual {resid:.2e})")
    return BoundaryChannel(a.chi, a.q, _kraus(a.mats[:, None], a.mats[:, None]))


def kraus_from_two_site(t: TwoSiteMps) -> BoundaryChannel:
    """Alternating-cell variant: K_{a,a'} = sum_b A^(b) B^(a) (x) |b><a'|."""
    resid = check_two_site_canonical(t)
    if resid > CANONICAL_ATOL:
        raise ValueError(f"unit cell is not canonical (residual {resid:.2e})")
    return BoundaryChannel(t.chi, t.q, _kraus(t.mats_a[:, None], t.mats_b[:, None]))


def kraus_from_lpdo(l: Lpdo) -> BoundaryChannel:
    """Mixed-state variant: K_{(a g, a' g')} = sum_b A^(b,g') A^(a,g) (x) |b><a'|.

    Index order (a, gamma, a', gamma') row-major, so D=1 reduces to the pure
    MPS channel operator-by-operator.
    """
    resid = lpdo_check_canonical(l)
    if resid > CANONICAL_ATOL:
        raise ValueError(f"LPDO is not canonical (residual {resid:.2e})")
    return BoundaryChannel(l.chi, l.q, _kraus(l.mats, l.mats))


def check_cptp(c: BoundaryChannel) -> float:
    """Residual ||sum K^dag K - I||_max (1.0 for an empty Kraus list)."""
    return isometry_residual(np.reshape(c.kraus, (-1, c.chi * c.q)))


def apply_channel(c: BoundaryChannel, z: np.ndarray) -> np.ndarray:
    """sigma'[i x, j y] = sum_{b,c} S[i,j,b,c] z[b x, c y], with the cached
    S = ``c.reduced_superoperator()`` (r x r x chi x chi).

    ``z`` is Tr_0 X for a state X on chi * q^{L_R}: the trace over site 0,
    on ancilla (x) sites 1.. (chi m x chi m, m = q^{L_R-1}).  The result is
    (W^dag (x) I) M(X) (W (x) I) on r m dimensions, and M(X) = (W (x) I)
    sigma' (W (x) I)^dag, since M(X) = N(Tr_0 X) (module docstring) and every
    output of M lies in range(W (x) I).  One batched matmul, S as
    r x (chi chi) against z's (b c) x y block at each x, writes sigma' in its
    final layout, so besides z and S the call holds a transposed copy of z
    and sigma': a peak of (D/q)^2 + n^2 entries.
    """
    shape = np.shape(z)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % c.chi != 0:
        raise ValueError(f"input dimension {shape} incompatible with ancilla of {c.chi}")
    chi, s = c.chi, c.reduced_superoperator()
    r, m = s.shape[0], shape[0] // chi
    zt = np.asarray(z, dtype=complex).reshape(chi, m, chi, m).transpose(1, 0, 2, 3)
    out = np.matmul(s.reshape(r, 1, r, chi * chi), zt.reshape(m, chi * chi, m))
    return out.reshape(r * m, r * m)
