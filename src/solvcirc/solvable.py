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
from .mps import (Lpdo, MpsTensor, TwoSiteMps, folded_chain, folded_site,
                  folded_tensor, physical_matrices)

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


def _folded_gate(u: np.ndarray, q: int) -> np.ndarray:
    """G4[s0_out, s1_out, s0_in, s1_in] with doubled q^2 legs."""
    g = np.kron(u, u.conj()).reshape(q, q, q, q, q, q, q, q)
    g = g.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return g.reshape(q * q, q * q, q * q, q * q)


def _spatial_transfer(u: TwoSiteGate, a: MpsTensor, tsteps: int) -> np.ndarray:
    """The spatial transfer slab applied to the closed-form open-bond IM, in
    its axes: two folded MPS tensors, then per period a folded even gate
    whose site-0 output meets the IM's in leg, vec(I_q), and a folded
    crossing gate.  Contracted like ``mps.folded_chain``, a period at a time
    from the closed end over x[B, w0, w1, later] (w0, w1: the even gate's
    inputs), each period the IM's F and E on (B, w0), then the two gates.
    Period 1 takes the slab's tensors onto B one value of w0 at a time, so
    no array of the chain exceeds the IM.
    """
    q, chi = a.q, a.chi
    qq, bb = q * q, chi * chi
    g = _folded_gate(u.matrix, q)
    trq = np.eye(q, dtype=complex).reshape(-1)
    top = np.kron(trq, trq)
    ge = np.tensordot(trq, g, axes=([0], [0]))  # [e, w0, w1]
    cross = g.transpose(2, 3, 1, 0).reshape(-1, qq)  # [(e, in, out), w1]
    f = folded_tensor(a.mats)  # [left, right, phys]
    fin = f.transpose(1, 0, 2).reshape(bb, -1)  # [right, (left, phys)]
    f = f.transpose(1, 2, 0).reshape(-1, bb)  # [(right, phys), left]
    e = folded_site(a.mats).T  # [right, left]
    x = np.kron(np.eye(chi, dtype=complex).reshape(-1), top if tsteps else 1)  # top traces
    for t in range(tsteps, 0, -1):
        x = e @ (fin @ x.reshape(bb * qq, -1))  # [B_in, w1, later]
        if t > 1:
            x = cross @ x.reshape(bb, qq, -1)  # [B_in, e, in, out, later]
            x = ge.reshape(qq, -1).T @ x.reshape(bb, qq, -1)  # [B_in, w0, w1, in, out, later]
    # the two sites onto x[B, w1, later] (x[B] at T=0), site 0's leg = k
    close = ge if tsteps else top.reshape(1, qq, qq)  # [e, w0, w1]
    acc = 0
    for k in range(qq):
        z = f @ (f.reshape(bb, qq, bb)[:, k] @ x.reshape(bb, -1))  # [b_new, s1, w1, later]
        acc += close[:, k] @ z.reshape(bb, qq, -1)  # [b_new, e, w1, later]
    if not tsteps:
        return acc.reshape(bb)
    x = g.transpose(3, 1, 2, 0).reshape(qq * qq, -1) @ acc.reshape(bb, qq * qq, -1)
    return x.reshape((bb,) + (qq,) * (2 * tsteps))


def verify_im_fixed_point(u: TwoSiteGate, a: MpsTensor, tsteps: int) -> float:
    """Residual ||T_spatial(IM) - IM||_max on the open-bond influence matrix.

    Runs for any gate so that non-solvable controls report a large residual;
    callers wanting a hard precondition should gate on check_solvable_left
    first.  Peak: at most 4.5 chi^2 q^(4T) + 3.25 (q^8 + chi^4 q^2) complex
    entries: the IM, and in period 1 a slice, its product with the even
    gate's slice and their sum; three copies of the folded gate; the folded
    MPS tensors (3 chi^4 q^2 + chi^4 while the IM's period is formed).
    """
    if u.q != a.q:
        raise ValueError(f"gate q={u.q} does not match tensor q={a.q}")
    im = build_influence_matrix_open(a, tsteps)
    out = _spatial_transfer(u, a, tsteps)
    return max_abs(np.subtract(out, im, out=out))
