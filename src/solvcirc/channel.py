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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, isometry_residual, require_buffer
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
        self._super: np.ndarray | None = None
        self._range: np.ndarray | None = None

    def superoperator(self) -> np.ndarray:
        """sum_mu K_mu (x) K_mu^* on the doubled boundary space (cached)."""
        if self._super is None:
            d = self.chi * self.q
            acc = np.zeros((d * d, d * d), dtype=complex)
            for k in self.kraus:
                acc += np.kron(k, k.conj())
            self._super = acc
        return self._super

    def range_basis(self) -> np.ndarray:
        """An orthonormal basis W (chi*q x r) of the range of
        sum_mu K_mu K_mu^dag, where every output of the channel lies (cached).

        W holds the eigenvectors whose eigenvalues exceed numpy's
        ``matrix_rank`` tolerance (largest eigenvalue x chi*q x machine
        epsilon).  r is chi for a pure MPS and at most d*chi for an LPDO.
        """
        if self._range is None:
            d = self.chi * self.q
            cat = np.concatenate(self.kraus, axis=1)
            lam, vecs = np.linalg.eigh(cat @ dagger(cat))
            self._range = vecs[:, lam > lam.max() * d * np.finfo(float).eps]
        return self._range


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


def apply_channel(c: BoundaryChannel, rho: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Apply the channel on ancilla (x) site0, identity on remaining factors.

    ``rho`` is a density matrix on chi * q^{L_R}; the embedded Kraus action is
    one superoperator gemm on the reshaped state, never materialized at full
    dimension.  With ``out`` (a C-contiguous complex128 array of rho's shape
    that shares no memory with it) the result is written there and ``rho``,
    which must be C-contiguous complex128 too, is overwritten as the gemm's
    product buffer: the call then holds no array beyond the two.  Without
    ``out``, ``rho`` is left as it is and the same path runs on a copy.
    """
    d = c.chi * c.q
    shape = np.shape(rho)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % d != 0:
        raise ValueError(f"state dimension {shape} incompatible with channel on {d}")
    total = shape[0]
    if out is None:
        rho = np.array(rho, dtype=complex, order="C")
        out = np.empty_like(rho)
    else:
        require_buffer(rho, (total, total), "rho")
        require_buffer(out, (total, total), "out", rho)
    rest = total // d
    # out[(a,c) | x,y] = Super[(a,c),(b,e)] rho[(b,e) | x,y]
    r = out.reshape(d * d, rest * rest)
    np.copyto(r.reshape(d, d, rest, rest), rho.reshape(d, rest, d, rest).transpose(0, 2, 1, 3))
    prod = rho.reshape(d * d, rest * rest)
    np.matmul(c.superoperator(), r, out=prod)
    np.copyto(out.reshape(d, rest, d, rest), prod.reshape(d, d, rest, rest).transpose(0, 2, 1, 3))
    return out
