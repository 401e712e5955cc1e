"""Initial-state tensors for the left region: one-site MPS, the named
families, two-site alternating MPS and LPDO mixed states, with canonical-form
and subspace-dimension diagnostics.

Tensors are stored as stacked arrays: ``mats[a]`` is the chi x chi matrix
A^(a).  Inputs are required canonical where stated; residuals are reported,
never repaired.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import isometry_residual

RANK_RTOL = 1e-10
# Largest canonical-form residual a channel or transfer-matrix builder takes.
CANONICAL_ATOL = 1e-10


@dataclass
class MpsTensor:
    """One-site tensor collection {A^(a)}, a = 0..q-1, each chi x chi."""

    q: int
    chi: int
    mats: np.ndarray  # (q, chi, chi)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=complex)
        if self.mats.shape != (self.q, self.chi, self.chi):
            raise ValueError(f"mats shape {self.mats.shape} != ({self.q},{self.chi},{self.chi})")
        if not np.all(np.isfinite(self.mats)):
            raise ValueError("tensor has non-finite entries")


@dataclass
class TwoSiteMps:
    """Alternating two-site unit cell: A^(a) of shape chi x chip on even
    sites, B^(b) of shape chip x chi on odd sites."""

    q: int
    chi: int
    chip: int
    mats_a: np.ndarray  # (q, chi, chip)
    mats_b: np.ndarray  # (q, chip, chi)

    def __post_init__(self):
        self.mats_a = np.asarray(self.mats_a, dtype=complex)
        self.mats_b = np.asarray(self.mats_b, dtype=complex)
        if self.mats_a.shape != (self.q, self.chi, self.chip):
            raise ValueError("mats_a shape mismatch")
        if self.mats_b.shape != (self.q, self.chip, self.chi):
            raise ValueError("mats_b shape mismatch")


@dataclass
class Lpdo:
    """Locally purified density operator tensor A^(a,gamma), gamma < D."""

    q: int
    chi: int
    d: int
    mats: np.ndarray  # (q, d, chi, chi)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=complex)
        if self.mats.shape != (self.q, self.d, self.chi, self.chi):
            raise ValueError(f"mats shape {self.mats.shape} != ({self.q},{self.d},{self.chi},{self.chi})")


def check_left_canonical(t: MpsTensor) -> float:
    """Residual ||sum_a A^(a)dag A^(a) - I||_max."""
    return isometry_residual(t.mats)


def check_right_canonical(t: MpsTensor) -> float:
    """Residual ||sum_a A^(a) A^(a)dag - I||_max."""
    return isometry_residual(t.mats.conj().transpose(0, 2, 1))


def check_two_site_canonical(t: TwoSiteMps) -> float:
    """Residual of sum_{a,b} (A^(a) B^(b))dag A^(a) B^(b) = I_chi."""
    return isometry_residual(np.matmul(t.mats_a[:, None], t.mats_b[None]))


def lpdo_check_canonical(l: Lpdo) -> float:
    """Residual of sum_{gamma,a} A^(a,gamma)dag A^(a,gamma) = I_chi."""
    return isometry_residual(l.mats)


def subspace_dimension(t: MpsTensor) -> int:
    """dim span{|A_jk>}: numerical rank of the q x chi^2 coefficient matrix.

    The one-site kets |A_jk> = sum_a A^(a)_jk |a> span the subspace that
    classifies which gates satisfy the solvable condition.
    """
    m = t.mats.reshape(t.q, t.chi * t.chi)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        raise ValueError("all-zero tensor has no defined subspace dimension")
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def left_block(a: MpsTensor, n: int) -> np.ndarray:
    """[A^(a_1) ... A^(a_n)]_{m j} stacked as (chi, q^n, chi)."""
    block = np.eye(a.chi, dtype=complex).reshape(a.chi, 1, a.chi)
    for _ in range(n):
        block = np.einsum('mxi,aij->mxaj', block, a.mats).reshape(a.chi, -1, a.chi)
    return block


def ghz_cluster_family(theta: float, q: int) -> MpsTensor:
    """chi=2 family interpolating between the GHZ and cluster states on the
    first two levels; A^(a) = 0 for a >= 2.

    A^(0) = [[cos t, sin t], [0, 0]],  A^(1) = [[0, 0], [-sin t, cos t]],
    theta in (0, pi/4].  theta = 0 is rejected (non-injective GHZ point).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0.0 < theta <= np.pi / 4:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    c, s = np.cos(theta), np.sin(theta)
    mats = np.zeros((q, 2, 2), dtype=complex)
    mats[0] = [[c, s], [0, 0]]
    mats[1] = [[0, 0], [-s, c]]
    return MpsTensor(q, 2, mats)


def product_state_mps(ket: np.ndarray) -> MpsTensor:
    """chi=1 tensor for a one-site product state (ket need not be phased)."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(ket)
    if nrm == 0:
        raise ValueError("zero ket")
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("ket must be normalized")
    return MpsTensor(len(ket), 1, ket.reshape(len(ket), 1, 1))


def random_left_canonical(q: int, chi: int, rng: np.random.Generator) -> MpsTensor:
    """Random left-canonical tensor from a Haar isometry chi -> q*chi."""
    z = (rng.standard_normal((q * chi, chi)) + 1j * rng.standard_normal((q * chi, chi)))
    v, _ = np.linalg.qr(z)
    return MpsTensor(q, chi, v.reshape(q, chi, chi))


def random_lpdo(q: int, chi: int, d: int, rng: np.random.Generator) -> Lpdo:
    """Random canonical LPDO from a Haar isometry chi -> q*d*chi."""
    z = (rng.standard_normal((q * d * chi, chi)) + 1j * rng.standard_normal((q * d * chi, chi)))
    v, _ = np.linalg.qr(z)
    return Lpdo(q, chi, d, v.reshape(q, d, chi, chi))


def two_site_from_pair(a: MpsTensor, b: MpsTensor) -> TwoSiteMps:
    """Assemble an alternating unit cell from two square one-site tensors."""
    if a.q != b.q or a.chi != b.chi:
        raise ValueError("tensors must share q and chi")
    return TwoSiteMps(a.q, a.chi, a.chi, a.mats.copy(), b.mats.copy())


def physical_matrices(state: MpsTensor | TwoSiteMps | Lpdo) -> np.ndarray:
    """The (q, chi, chip) stack of per-level matrices whose kets span H_A,
    for solvability checks.

    The solvable condition involves only the tensor carrying even (A) sites;
    for an LPDO the purification index is flattened into the column space,
    leaving the spanned ket set unchanged.
    """
    if isinstance(state, MpsTensor):
        return state.mats
    if isinstance(state, TwoSiteMps):
        return state.mats_a
    if isinstance(state, Lpdo):
        return state.mats.transpose(0, 2, 1, 3).reshape(state.q, state.chi, -1)
    raise TypeError(f"unsupported state type {type(state).__name__}")
