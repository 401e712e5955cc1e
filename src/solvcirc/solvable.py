"""Numerical verification of the solvable condition (both chiralities), the
soliton condition, and the influence-matrix fixed-point property.

The left condition states that the reshuffled gate transports the one-site
kets |A_jk> = sum_a A^(a)_jk |a> like a spatial SWAP:

    U^R (|A_jk><A_j'k'| (x) I_q) (U^R)^dag = I_q (x) |A_jk><A_j'k'|

for every bond index pair.  It is checked over all chi^4 pairs directly;
O(chi^4) small-matrix comparisons are cheap at desk scale and avoid rank
decisions.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .channel import kraus_from_mps
from .errors import CapacityError
from .gates import TwoSiteGate, is_dual_unitary, swap_conjugate
from .linalg import (PAULI, apply_two_site, dagger, kron, max_abs, reduced_density,
                     reshuffle)
from .mps import Lpdo, MpsTensor, TwoSiteMps, left_block, physical_matrices

IM_ENTRY_CAP = 2 ** 24


@dataclass
class SolvabilityReport:
    """Residuals of all structural conditions for one gate/tensor pair."""

    left_residual: float
    right_residual: float
    dual_unitarity_residual: float
    soliton_residual: float | None
    worst_pair: tuple[int, int, int, int]
    left_frobenius: float
    right_frobenius: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["worst_pair"] = list(self.worst_pair)
        return d


def _solvable_left_detail(gate: TwoSiteGate, state: MpsTensor | TwoSiteMps | Lpdo):
    q = gate.q
    stack = physical_matrices(state)  # (q, chi, chip)
    if stack.shape[0] != q:
        raise ValueError(f"gate q={q} does not match tensor q={stack.shape[0]}")
    ur = reshuffle(gate.matrix, q)
    urd = dagger(ur)
    iq = np.eye(q)
    chi, chip = stack.shape[1], stack.shape[2]
    worst = 0.0
    worst_fro = 0.0
    worst_pair = (0, 0, 0, 0)
    for j in range(chi):
        for k in range(chip):
            ket = stack[:, j, k]
            for jp in range(chi):
                for kp in range(chip):
                    x = np.outer(ket, stack[:, jp, kp].conj())
                    diff = ur @ kron(x, iq) @ urd - kron(iq, x)
                    r = max_abs(diff)
                    if r > worst:
                        worst = r
                        worst_pair = (j, jp, k, kp)
                    worst_fro = max(worst_fro, float(np.linalg.norm(diff)))
    return worst, worst_pair, worst_fro


def check_solvable_left(u: TwoSiteGate, a: MpsTensor | TwoSiteMps | Lpdo) -> float:
    """Max-norm residual of the left-chirality solvable condition."""
    return _solvable_left_detail(u, a)[0]


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
    left, pair, left_fro = _solvable_left_detail(u, a)
    right, _, right_fro = _solvable_left_detail(swap_conjugate(u), a)
    return SolvabilityReport(
        left_residual=left,
        right_residual=right,
        dual_unitarity_residual=is_dual_unitary(u),
        soliton_residual=check_soliton(u) if u.q == 2 else None,
        worst_pair=pair,
        left_frobenius=left_fro,
        right_frobenius=right_fro,
    )


# ---------------------------------------------------------------------------
# influence matrix
# ---------------------------------------------------------------------------

def _channel_supertensor(a: MpsTensor) -> np.ndarray:
    """The folded channel tensor M4[B_out, S_out, B_in, S_in].

    B legs are doubled bond pairs (chi^2), S legs doubled site pairs (q^2);
    M4 is the Kraus superoperator sum_mu K_mu (x) K_mu^* regrouped.
    """
    chi, q = a.chi, a.q
    sup = kraus_from_mps(a).superoperator().reshape(chi, q, chi, q, chi, q, chi, q)
    sup = sup.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return sup.reshape(chi * chi, q * q, chi * chi, q * q)


def _im_capacity_check(a: MpsTensor, tsteps: int, cap: int):
    entries = (a.chi ** 2) * (a.q ** (4 * tsteps))
    if entries > cap:
        raise CapacityError(f"influence matrix would hold {entries} entries (cap {cap})")


def build_influence_matrix_open(a: MpsTensor, tsteps: int,
                                cap: int = IM_ENTRY_CAP) -> np.ndarray:
    """Influence matrix with the t=0 bond left open.

    Axes: [bond(chi^2), s_1_in, s_1_out, ..., s_T_in, s_T_out] with q^2 legs;
    s_t_in enters the boundary channel at period t, s_t_out returns to the
    subsystem.  The t=T end is closed with the bond trace.
    """
    _im_capacity_check(a, tsteps, cap)
    chi, q = a.chi, a.q
    if tsteps == 0:
        # open bond, trace closure only
        return np.eye(chi, dtype=complex).reshape(-1)
    m4 = _channel_supertensor(a)
    x = np.eye(chi * chi, dtype=complex)  # [bond_open, B_cur]
    for _ in range(tsteps):
        x = np.tensordot(x, m4, axes=([x.ndim - 1], [2]))
        # appended axes: [B_out, S_out, S_in] -> want [..., S_in, S_out, B_out]
        n = x.ndim
        x = np.moveaxis(x, [n - 3, n - 2, n - 1], [n - 1, n - 2, n - 3])
    tr = np.eye(chi, dtype=complex).reshape(-1)
    return np.tensordot(x, tr, axes=([x.ndim - 1], [0]))


def build_influence_matrix_dense(a: MpsTensor, tsteps: int,
                                 cap: int = IM_ENTRY_CAP) -> np.ndarray:
    """Dense vectorized influence matrix over the 2T doubled multitime legs.

    The t=0 bond is contracted with the maximally correlated ancilla pair of
    the joint-state convention (weight 1/chi on every doubled bond index);
    T=0 yields the scalar 1.
    """
    im = build_influence_matrix_open(a, tsteps, cap)
    boundary = np.full(a.chi * a.chi, 1.0 / a.chi, dtype=complex)
    return np.tensordot(boundary, im, axes=([0], [0]))


def _folded_gate(u: np.ndarray, q: int) -> np.ndarray:
    """G4[s0_out, s1_out, s0_in, s1_in] with doubled q^2 legs."""
    g = np.kron(u, u.conj()).reshape(q, q, q, q, q, q, q, q)
    g = g.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return g.reshape(q * q, q * q, q * q, q * q)


def _folded_mps(a: MpsTensor) -> np.ndarray:
    """F[(jj'), (kk'), (aa')] = A^(a)_jk A^(a')*_j'k'."""
    f = np.einsum('ajk,bmn->jmknab', a.mats, a.mats.conj())
    return f.reshape(a.chi ** 2, a.chi ** 2, a.q ** 2)


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
    f = _folded_mps(a)
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


def verify_im_fixed_point(u: TwoSiteGate, a: MpsTensor, tsteps: int,
                          cap: int = IM_ENTRY_CAP) -> float:
    """Residual ||T_spatial(IM) - IM||_max on the open-bond influence matrix.

    Runs for any gate so that non-solvable controls report a large residual;
    callers wanting a hard precondition should gate on check_solvable_left
    first.
    """
    im = build_influence_matrix_open(a, tsteps, cap)
    out = spatial_transfer_apply(im, u, a, tsteps)
    return max_abs(out - im)


def influence_matrix_bruteforce(u: TwoSiteGate, a: MpsTensor, tsteps: int,
                                l_left: int | None = None,
                                cap: int = IM_ENTRY_CAP) -> np.ndarray:
    """Open-bond influence matrix contracted directly from a finite left chain.

    Materializes l_left sites of the left region (far bond purified), applies
    the left-region brickwork including the boundary-crossing gates with
    maximally entangled probe pairs on the crossing legs, and traces the far
    region.  Independent of the closed-form construction; agreement validates
    the channel tensor.
    """
    q, chi = a.q, a.chi
    if l_left is None:
        l_left = 2 * tsteps + 2
    _im_capacity_check(a, tsteps, cap)
    # state factors: [far(chi)] [sites -L..-1] [cut(chi)]; probes appended per period
    psi = left_block(a, l_left).reshape(-1)
    dims = [chi] + [q] * l_left + [chi]
    pos = lambda x: 1 + x + l_left
    even_bonds = [x for x in range(-l_left, -1) if x % 2 == 0]
    odd_bonds = [x for x in range(-l_left, -2) if x % 2 != 0]
    pair = np.eye(q, dtype=complex).reshape(-1)  # unnormalized sum_s |ss>
    for _ in range(tsteps):
        for x in even_bonds:
            psi = apply_two_site(psi, u.matrix, dims, pos(x), pos(x) + 1)
        psi = np.kron(psi, pair)
        dims += [q, q]
        psi = apply_two_site(psi, u.matrix, dims, pos(-1), len(dims) - 1)
        for x in odd_bonds:
            psi = apply_two_site(psi, u.matrix, dims, pos(x), pos(x) + 1)
    # the cut bond and the probes are the last factors
    rho = reduced_density(psi, chi * q ** (2 * tsteps))
    nleg = 1 + 2 * tsteps
    shape = [chi] + [q] * (2 * tsteps)
    r = rho.reshape(*shape, *shape)
    perm: list[int] = []
    for i in range(nleg):
        perm += [i, nleg + i]
    r = np.transpose(r, perm)
    return r.reshape((chi * chi,) + (q * q,) * (2 * tsteps))
