"""Numerical verification of the solvable condition (both chiralities), the
soliton condition, and the influence-matrix fixed-point property.

The left condition states that the reshuffled gate transports the one-site
kets |A_jk> = sum_a A^(a)_jk |a> like a spatial SWAP:

    L(X) = U^R (X (x) I_q) (U^R)^dag - I_q (x) X = 0,   X = |A_jk><A_j'k'|,

for every bond index pair.  L is linear, so the condition depends on the
tensor only through span{|A_jk>}: the residual over all pairs is computed
exactly on at most q principal kets (``check_solvable_left``), with no rank
decision.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import CapacityError
from .gates import TwoSiteGate, is_dual_unitary, swap_conjugate
from .linalg import PAULI, dagger, kron, max_abs, reshuffle
from .mps import (Lpdo, MpsTensor, TwoSiteMps, folded_chain, folded_tensor,
                  physical_matrices)

IM_ENTRY_CAP = 2 ** 24


@dataclass
class SolvabilityReport:
    """Residuals of all structural conditions for one gate/tensor pair."""

    left_residual: float
    right_residual: float
    dual_unitarity_residual: float
    soliton_residual: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def check_solvable_left(u: TwoSiteGate, a: MpsTensor | TwoSiteMps | Lpdo) -> float:
    """Residual of the left-chirality solvable condition: the root-sum-square
    over all bond-index pairs (m, n) of ||L(|A_m><A_n|)||_F, which bounds
    every pair's Frobenius and max-norm residual.  NaN propagates.

    With the kets as columns of K (q x chi chip) and K^T = Q R (Q's columns
    orthonormal), |A_m> = sum_i Q_mi p_i over the rows p_i of R, so by
    linearity and Q^dag Q = I the sum over pairs equals
    sum_{i,j} ||L(p_i p_j^dag)||_F^2: at most q^2 products, whatever chi.
    """
    q = u.q
    stack = physical_matrices(a)  # (q, chi, chip)
    if stack.shape[0] != q:
        raise ValueError(f"gate q={q} does not match tensor q={stack.shape[0]}")
    ur, iq = reshuffle(u.matrix, q), np.eye(q)
    p = np.linalg.qr(stack.reshape(q, -1).T, mode="r")  # rows p_i, at most q
    # x[i, j, a, c] = <a|p_i><p_j|c>, and the krons as broadcast products
    x = p[:, None, :, None] * p.conj()[None, :, None, :]
    x_i = (x[:, :, :, None, :, None] * iq[:, None, :]).reshape(-1, q * q, q * q)
    i_x = (iq[:, None, :, None] * x[:, :, None, :, None, :]).reshape(x_i.shape)
    return float(np.linalg.norm(ur @ x_i @ dagger(ur) - i_x))


def check_solvable_right(u: TwoSiteGate, a: MpsTensor | TwoSiteMps | Lpdo) -> float:
    """Opposite chirality, via the correspondence U_S = S U S."""
    return check_solvable_left(swap_conjugate(u), a)


def check_soliton(u: TwoSiteGate) -> float:
    """Residual of the q=2 soliton condition ||U (Z (x) I) U^dag - I (x) Z||_max.

    A Z operator on the left site hops to the right site under one gate
    application; this orientation matches the left-chirality families.
    """
    if u.q != 2:
        raise ValueError("soliton condition is defined for q = 2")
    z = PAULI[3]
    lhs = u.matrix @ kron(z, np.eye(2)) @ dagger(u.matrix)
    return max_abs(lhs - kron(np.eye(2), z))


def solvability_report(u: TwoSiteGate, a: MpsTensor | TwoSiteMps | Lpdo) -> SolvabilityReport:
    return SolvabilityReport(
        left_residual=check_solvable_left(u, a),
        right_residual=check_solvable_right(u, a),
        dual_unitarity_residual=is_dual_unitary(u),
        soliton_residual=check_soliton(u) if u.q == 2 else None,
    )


# ---------------------------------------------------------------------------
# influence matrix
# ---------------------------------------------------------------------------

def build_influence_matrix_open(a: MpsTensor, tsteps: int) -> np.ndarray:
    """Influence matrix with the t=0 bond left open.

    Axes: [bond(chi^2), s_1_in, s_1_out, ..., s_T_in, s_T_out] with q^2 legs;
    s_t_in enters the boundary channel at period t, s_t_out returns to the
    subsystem.  It is the folded MPS X of ``mps.folded_chain`` with vec(I_q)
    broadcast on each in leg, as every gate cancels for a solvable pair.
    """
    if tsteps < 0:
        raise ValueError(f"tsteps must be >= 0, got {tsteps}")
    entries = (a.chi ** 2) * (a.q ** (4 * tsteps))
    if entries > IM_ENTRY_CAP:
        raise CapacityError(f"influence matrix would hold {entries} entries (cap {IM_ENTRY_CAP})")
    qq, trq = a.q * a.q, np.eye(a.q).reshape(-1)
    x = folded_chain(a.mats, tsteps).reshape((a.chi ** 2,) + (1, qq) * tsteps)
    for t in range(tsteps):
        x = x * trq.reshape((qq,) + (1,) * (2 * (tsteps - t) - 1))
    return x


def build_influence_matrix_dense(a: MpsTensor, tsteps: int) -> np.ndarray:
    """Dense vectorized influence matrix over the 2T doubled multitime legs.

    The t=0 bond is contracted with the maximally correlated ancilla pair of
    the joint-state convention (weight 1/chi on every doubled bond index);
    T=0 yields the scalar 1.
    """
    im = build_influence_matrix_open(a, tsteps)
    boundary = np.full(a.chi * a.chi, 1.0 / a.chi, dtype=complex)
    return np.tensordot(boundary, im, axes=([0], [0]))


def _folded_gate(u: np.ndarray, q: int) -> np.ndarray:
    """G4[s0_out, s1_out, s0_in, s1_in] with doubled q^2 legs."""
    g = np.kron(u, u.conj()).reshape(q, q, q, q, q, q, q, q)
    g = g.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return g.reshape(q * q, q * q, q * q, q * q)


def spatial_transfer_apply(im: np.ndarray, u: TwoSiteGate, a: MpsTensor,
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


def verify_im_fixed_point(u: TwoSiteGate, a: MpsTensor, tsteps: int) -> float:
    """Residual ||T_spatial(IM) - IM||_max on the open-bond influence matrix.

    Runs for any gate so that non-solvable controls report a large residual;
    callers wanting a hard precondition should gate on check_solvable_left
    first.
    """
    im = build_influence_matrix_open(a, tsteps)
    out = spatial_transfer_apply(im, u, a, tsteps)
    return max_abs(out - im)
