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
from .mps import (CANONICAL_ATOL, MpsTensor, check_left_canonical, check_right_canonical,
                  folded_chain, folded_site)

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
    """The chi^{2n} x chi^{2n} two-site map T = M_diamond @ M_dot; ``matrix``
    is float64 for a real tensor and complex128 otherwise."""

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


def _field_mats(a: MpsTensor) -> np.ndarray:
    """The tensor's (q, chi, chi) stack in its own field: float64 when every
    imaginary part is zero, complex128 otherwise."""
    return a.mats if a.mats.imag.any() else a.mats.real


def transfer_matrix(a: MpsTensor, n: int) -> ReplicaTransferMatrix:
    """Two-site replica transfer matrix T = M_diamond @ M_dot.

    M_P carries one folded tensor with physical legs closed by the pairing P;
    the diamond-dressed site precedes (left factor), matching the boundary
    contraction <dot| T^{2t} |diamond> pinned by the chain oracle.  Both
    factors are built from E = sum_a A^(a) (x) A^(a)*: M_dot = E^(x)n, and
    M_diamond is G = E* on each leg pair (a'_m, a_{m+1}), cyclically.  G on
    the wrap pair (a'_n, a_1) folds into F = G_wrap (E_1 (x) E_n), rows
    (a_1 a'_1 a_n a'_n), columns (c_1, c_n) (G_wrap E at n = 1), and G on the
    pairs inside replicas 2..n-1 into the middle E^(x)(n-2).  T is their
    outer product, moved into its final layout by one transposing copy, and
    G on the first and last adjacent pairs is one batched matmul each,
    written with ``out=`` into the two buffers in turn, so no third T-sized
    array is made.  ``matrix`` is float64 for a real tensor and complex128
    otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_both_canonical(a)
    chi, dim = a.chi, a.chi ** (2 * n)
    if dim > TRANSFER_DIM_CAP:
        raise CapacityError(f"transfer dimension chi^(2n) = {dim} "
                            f"exceeds cap {TRANSFER_DIM_CAP}")
    d2 = chi * chi
    e = folded_site(_field_mats(a))
    g = e.conj()
    edge = reduce(np.kron, [e] * min(n, 2)).reshape(chi, -1, chi, d2 ** min(n, 2))
    f = np.einsum('pqrs,smrc->qmpc', g.reshape((chi,) * 4), edge)
    rim, side = d2 ** (min(n, 2) - 1), chi ** max(2 * n - 4, 0)
    mid = reduce(np.kron, [e] * (n - 2), np.ones((1, 1), dtype=e.dtype))
    for k in range(n - 3):
        mid = np.matmul(g, mid.reshape(chi ** (2 * k + 1), d2, -1))
    spare = np.multiply.outer(f.reshape(d2, rim, d2, rim), mid.reshape(side, side))
    x = np.empty_like(spare)
    x.reshape(d2, side, rim, d2, side, rim)[...] = spare.transpose(0, 4, 1, 2, 5, 3)
    for m in range(1, n, max(n - 2, 1)):  # m = 1 and m = n - 1
        batch = chi ** (2 * m - 1)
        np.matmul(g, x.reshape(batch, d2, -1), out=spare.reshape(batch, d2, -1))
        x, spare = spare, x
    return ReplicaTransferMatrix(n, chi, a.q, x.reshape(dim, dim))


def renyi_trace_via_transfer(a: MpsTensor, n: int, t: int) -> float:
    """<dot| T^{2t} |diamond>, equal to the unnormalized-chain Tr[rho_R^n(t)]
    for both-chirality solvable dynamics.  At t=0 the overlap counts the
    tuples satisfying both pairings, i.e. chi."""
    if t < 0:
        raise ValueError("t must be >= 0")
    tm = transfer_matrix(a, n)
    v = pairing_vector("diamond", n, a.chi).vector
    for _ in range(2 * t):
        v = tm.matrix @ v
    val = complex(pairing_vector("dot", n, a.chi).vector @ v)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise DominanceError(f"transfer overlap has imaginary part {val.imag:.2e}")
    return float(val.real)


def _live_block(m: np.ndarray) -> np.ndarray:
    """The principal submatrix of m left after repeatedly dropping every
    index whose row or column is zero on the indices still kept.

    Each pass drops only zero eigenvalues.  With C the kept indices whose
    columns are zero and R the others whose rows are zero, order the kept
    set as (C, rest, R): the C columns and the R rows vanish, so the matrix
    is block upper triangular with diagonal blocks 0, the rest, 0, and its
    spectrum is the rest's plus zeros.  Only exact zeros count.  A matrix
    with no zero row or column is returned as it is, uncopied.  m is
    scanned on its real view (a complex column as its two parts, reduced
    after the scan): an entry is nonzero when either part is.
    """
    while m.size:
        nonzero = np.ascontiguousarray(m).view(m.real.dtype) != 0
        cols = nonzero.any(axis=0).reshape(m.shape[1], -1).any(axis=1)
        live = cols & nonzero.any(axis=1)
        if live.all():
            break
        m = m[np.ix_(live, live)]
    return m


def dominant_eigenvalue(tm: ReplicaTransferMatrix) -> float:
    """Largest-modulus eigenvalue of T, required real-positive.

    Eigenvalues tied in modulus with distinct values (complex pairs, sign
    splits) make the asymptotics ambiguous and raise DominanceError;
    a repeated real-positive eigenvalue is fine.  The eigensolve runs on
    T's live block (``_live_block``), which drops only zero eigenvalues:
    at chi=2 the GHZ-cluster T keeps 2^n of its 4^n indices.
    """
    w = np.linalg.eigvals(_live_block(tm.matrix))
    radius = float(np.abs(w).max(initial=0.0))
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
    unnormalized, in the tensor's field (float64 for a real tensor):
    <phi|phi> = chi, so Tr[rho_O] = chi.  By the temporal-state duality
    rho_O is the influence matrix's MPS, ``mps.folded_chain`` at T = 2t:
    each period keeps an odd site folded and traces the even site after it,
    the traced left bond is its closed end and the right bond its open one.
    One transpose takes X's legs (the right bond, then the odd sites right
    to left) to ket and bra legs, odd sites left to right, then the bond.
    Neither phi nor its 4t-site legs are formed.
    """
    q, chi = a.q, a.chi
    amps = chi * chi * q ** (4 * t)
    if amps > TEMPORAL_AMPLITUDE_CAP:
        raise CapacityError(f"temporal state would hold {amps} amplitudes")
    x = folded_chain(_field_mats(a), 2 * t).reshape((chi, chi) + (q, q) * (2 * t))
    x = x.transpose(list(range(4 * t, -1, -2)) + list(range(4 * t + 1, 0, -2)))
    return x.reshape(chi * q ** (2 * t), -1)


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
    if n is not None and n < 2:
        raise ValueError("n must be >= 2 (or None for von Neumann)")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    _require_both_canonical(a)
    rho = _temporal_rho_odd(a, t)
    rho = rho / np.trace(rho).real
    if n is None:
        return von_neumann_entropy(rho)
    return float(np.log(renyi_trace(rho, n)) / (1 - n))
