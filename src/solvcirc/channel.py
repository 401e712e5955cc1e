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

from .linalg import dagger, max_abs
from .mps import (Lpdo, MpsTensor, TwoSiteMps, check_left_canonical,
                  check_two_site_canonical, lpdo_check_canonical)

CANONICAL_ATOL = 1e-10


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

    def superoperator(self) -> np.ndarray:
        """sum_mu K_mu (x) K_mu^* on the doubled boundary space (cached)."""
        if self._super is None:
            d = self.chi * self.q
            acc = np.zeros((d * d, d * d), dtype=complex)
            for k in self.kraus:
                acc += np.kron(k, k.conj())
            self._super = acc
        return self._super


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
    d = c.chi * c.q
    acc = np.zeros((d, d), dtype=complex)
    for k in c.kraus:
        acc += dagger(k) @ k
    return max_abs(acc - np.eye(d))


def apply_channel(c: BoundaryChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel on ancilla (x) site0, identity on remaining factors.

    ``rho`` is a density matrix on chi * q^{L_R}; the embedded Kraus action is
    evaluated on the reshaped state, never materialized at full dimension.
    """
    rho = np.asarray(rho, dtype=complex)
    d = c.chi * c.q
    total = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (total, total) or total % d != 0:
        raise ValueError(f"state dimension {rho.shape} incompatible with channel on {d}")
    rest = total // d
    # out[(a,c) | x,y] = Super[(a,c),(b,e)] rho[(b,e) | x,y]
    r = rho.reshape(d, rest, d, rest).transpose(0, 2, 1, 3).reshape(d * d, rest * rest)
    out = c.superoperator() @ r
    out = out.reshape(d, d, rest, rest).transpose(0, 2, 1, 3)
    return out.reshape(total, total)
