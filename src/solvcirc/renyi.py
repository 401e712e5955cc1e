"""Replica transfer-matrix machinery for Renyi dynamics, entanglement
velocity, and the temporal-state duality.

For a left- and right-canonical tensor and gates solvable in both
chiralities, Tr[rho_R^n(t)] = <dot| T^{2t} |diamond>: all gates cancel and
only the initial tensor survives, dressed alternately with the within-replica
trace pairing (dot) and the cyclic-permutation pairing (diamond).  The
boundary vectors are the unnormalized pairing indicators lifted to the bond
replica space; the matching chain quantity uses the unnormalized dangling-
bond chain (squared norm chi).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError, DominanceError
from .linalg import max_abs, renyi_trace, von_neumann_entropy
from .mps import CANONICAL_ATOL, MpsTensor, check_left_canonical, check_right_canonical

TRANSFER_DIM_CAP = 4096
TEMPORAL_AMPLITUDE_CAP = 2 ** 20
DOMINANCE_RTOL = 1e-8


@dataclass(frozen=True)
class PairingVector:
    """Indicator vector of a replica pairing over (a_1, a'_1, ..., a_n, a'_n)."""

    kind: str
    n: int
    q: int
    vector: np.ndarray


@dataclass
class ReplicaTransferMatrix:
    """The chi^{2n} x chi^{2n} two-site map T = M_diamond @ M_dot."""

    n: int
    chi: int
    q: int
    matrix: np.ndarray


def pairing_vector(kind: str, n: int, q: int) -> PairingVector:
    """dot: delta_{a_m, a'_m} for every replica; diamond: delta_{a'_m, a_{m+1}}
    cyclically.  Entries are 0/1; for n=1 the two coincide."""
    if kind not in ("dot", "diamond"):
        raise ValueError("kind must be 'dot' or 'diamond'")
    if n < 1:
        raise ValueError("n must be >= 1")
    legs = np.indices((q,) * (2 * n))
    a, ap = legs[0::2], legs[1::2]
    partner = a if kind == "dot" else np.roll(a, -1, axis=0)
    v = np.all(ap == partner, axis=0).astype(float)
    return PairingVector(kind, n, q, v.reshape(-1))


def _require_both_canonical(a: MpsTensor):
    lres = check_left_canonical(a)
    rres = check_right_canonical(a)
    if lres > CANONICAL_ATOL or rres > CANONICAL_ATOL:
        raise ValueError(
            f"tensor must be left- and right-canonical (residuals {lres:.2e}, {rres:.2e})")


def transfer_matrix(a: MpsTensor, n: int) -> ReplicaTransferMatrix:
    """Two-site replica transfer matrix T = M_diamond @ M_dot.

    M_P carries one folded tensor with physical legs closed by the pairing P;
    the diamond-dressed site precedes (left factor), matching the boundary
    contraction <dot| T^{2t} |diamond> pinned by the chain oracle.  Both
    factors are built from E = sum_a A^(a) (x) A^(a)*: M_dot = E^(x)n, and
    M_diamond is G = E* on each leg pair (a'_m, a_{m+1}), i.e. G^(x)n after
    shifting the 2n row legs cyclically by one place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_both_canonical(a)
    chi, dim = a.chi, a.chi ** (2 * n)
    if dim > TRANSFER_DIM_CAP:
        raise CapacityError(f"transfer dimension chi^(2n) = {dim} "
                            f"exceeds cap {TRANSFER_DIM_CAP}")
    d2 = chi * chi
    e = np.einsum('aij,akl->ikjl', a.mats, a.mats.conj()).reshape(d2, d2)
    # M_dot = E^(x)n, its row legs (a_1, a'_1, ..., a'_n) moved to
    # (a'_1, a_2, ..., a'_n, a_1) so that G acts on adjacent pairs
    x = reduce(np.kron, [e] * n).reshape(chi, -1, dim)
    x = np.ascontiguousarray(x.swapaxes(0, 1))
    g = e.conj()
    for k in range(n):
        x = np.matmul(g, x.reshape(d2 ** k, d2, -1))
    x = x.reshape(-1, chi, dim).swapaxes(0, 1).reshape(dim, dim)
    return ReplicaTransferMatrix(n, chi, a.q, x)


def _bond_pairings(a: MpsTensor, n: int) -> tuple[np.ndarray, np.ndarray]:
    dot = pairing_vector("dot", n, a.chi).vector.astype(complex)
    dia = pairing_vector("diamond", n, a.chi).vector.astype(complex)
    return dot, dia


def renyi_trace_via_transfer(a: MpsTensor, n: int, t: int) -> float:
    """<dot| T^{2t} |diamond>, equal to the unnormalized-chain Tr[rho_R^n(t)]
    for both-chirality solvable dynamics.  At t=0 the overlap counts the
    tuples satisfying both pairings, i.e. chi."""
    if t < 0:
        raise ValueError("t must be >= 0")
    tm = transfer_matrix(a, n)
    dot, dia = _bond_pairings(a, n)
    v = dia
    for _ in range(2 * t):
        v = tm.matrix @ v
    val = complex(dot @ v)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise DominanceError(f"transfer overlap has imaginary part {val.imag:.2e}")
    return float(val.real)


def dominant_eigenvalue(tm: ReplicaTransferMatrix) -> float:
    """Largest-modulus eigenvalue of T, required real-positive.

    Eigenvalues tied in modulus with distinct values (complex pairs, sign
    splits) make the asymptotics ambiguous and raise DominanceError;
    a repeated real-positive eigenvalue is fine.
    """
    w = np.linalg.eigvals(tm.matrix)
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


def velocity_from_eigenvalue(lam: float, n: int, q: int) -> float:
    """v_E^(n) = 2 ln(lambda_n) / ((1 - n) ln q)."""
    if n < 2:
        raise ValueError("entanglement velocity requires n >= 2")
    return 2.0 * np.log(lam) / ((1 - n) * np.log(q))


def entanglement_velocity(a: MpsTensor, n: int) -> float:
    """v_E^(n) from the dominant eigenvalue of the replica transfer matrix."""
    return velocity_from_eigenvalue(dominant_eigenvalue(transfer_matrix(a, n)), n, a.q)


# ---------------------------------------------------------------------------
# temporal state
# ---------------------------------------------------------------------------

def _temporal_rho_odd(a: MpsTensor, t: int) -> np.ndarray:
    """Reduced density matrix of the 4t-site temporal chain on the odd part.

    |phi> carries 4t physical legs plus bond legs at both ends; the left bond
    joins the even (traced) part E, the right bond the odd part O.  Built
    unnormalized: <phi|phi> = chi, so Tr[rho_O] = chi.  Contracted site by
    site on x[(ket odd legs), (bra odd legs), (b, b')] from the traced left
    bond x = I: each odd site appends A to the ket and A* to the bra, and the
    even site after it is traced by E = sum_a A^(a) (x) A^(a)*, one matmul by
    f for the pair.  Neither phi nor any 4t-leg transpose is formed.
    """
    q, chi = a.q, a.chi
    amps = chi * chi * q ** (4 * t)
    if amps > TEMPORAL_AMPLITUDE_CAP:
        raise CapacityError(f"temporal state would hold {amps} amplitudes")
    e = np.einsum('aij,akl->ikjl', a.mats, a.mats.conj()).reshape(chi, chi, -1)
    f = np.einsum('aij,bkl,jlm->ikabm', a.mats, a.mats.conj(), e).reshape(chi * chi, -1)
    x, o = np.eye(chi, dtype=complex).reshape(1, -1), 1
    for _ in range(2 * t):
        x = (x @ f).reshape(o, o, q, q, -1).transpose(0, 2, 1, 3, 4).reshape(-1, chi * chi)
        o *= q
    return x.reshape(o, o, chi, chi).transpose(0, 2, 1, 3).reshape(o * chi, o * chi)


def temporal_renyi_trace(a: MpsTensor, n: int, t: int) -> float:
    """Tr[rho_O^n] of the unnormalized temporal state; equals
    renyi_trace_via_transfer(a, n, t) by the space-time duality."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n < 2:
        raise ValueError("n must be >= 2")
    if t == 0:
        return float(a.chi)
    _require_both_canonical(a)
    return renyi_trace(_temporal_rho_odd(a, t), n)


def temporal_state_entropy(a: MpsTensor, t: int, n: int | None = None) -> float:
    """Entropy of the normalized temporal state across the even/odd split.

    With n=None the von Neumann entropy is returned; it equals the engine's
    half-chain S_ent(t) for matching both-chirality dynamics.  For integer
    n >= 2 the Renyi entropy ln(Tr[rho_O^n])/(1-n) of the normalized state is
    returned.  t=0 is the empty chain (entropy 0).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    _require_both_canonical(a)
    rho = _temporal_rho_odd(a, t)
    rho = rho / np.trace(rho).real
    if n is None:
        return von_neumann_entropy(rho)
    if n < 2:
        raise ValueError("n must be >= 2 (or None for von Neumann)")
    return float(np.log(renyi_trace(rho, n)) / (1 - n))
