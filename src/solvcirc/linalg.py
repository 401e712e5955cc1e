"""Dense complex linear algebra and sampling primitives.

Everything here is plain numpy at double precision, sized for desk-scale
Hilbert spaces (dimensions up to ~2^17).  All functions are pure; random
sampling takes an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, PositivityError

# per-axis cap for kron results (entries per axis)
DEFAULT_DIM_CAP = 2 ** 18

# Rows of d1 d2 after amplitudes shorter than this turn the batched matmul of
# apply_two_site into a loop of tiny gemms, slower than a gemm against
# kron(u, I_after)^T despite its after-fold flops (measured at 2^20
# amplitudes for q = 2, 3, 4).
_KRON_ROW_LIMIT = 128
# The kron gemm runs over blocks of rows holding this many amplitudes (4 MiB):
# one gemm over a whole 2^20-amplitude state has multithreaded OpenBLAS pack
# panels that stay resident (+16 MB peak RSS at 64-amplitude rows), and the
# blocks take the same time.
_GEMM_BLOCK = 2 ** 18
# Entries per row block of hermiticity_residual (512 KiB of complex128).
# With 4 MiB blocks the allocator hands the freed temporaries back to the OS,
# and a D=512 evolve row took about 1000 minor page faults (median); at this
# size the median row takes none (BENCH_engine_buffers.json).
_HERM_BLOCK = 2 ** 15
# reduced_density sums its gemm over row blocks of this many amplitudes
# (1 MiB of complex128), in place of one conjugate copy of the whole state.
_ROW_BLOCK = 2 ** 16
# range_sketch: width of the Gaussian range probe and the smallest dimension
# that takes it (8 probe widths).  PROBE_RESIDUAL_TOL is the residual norm
# below which a sketch certifies the range (well under the 1e-10 positivity
# check): min_eig_lower_bound then returns the probe's bound, and
# von_neumann_entropy the entropy of its Ritz values.
_PROBE_WIDTH = 32
_PROBE_MIN_DIM = 8 * _PROBE_WIDTH
PROBE_RESIDUAL_TOL = 1e-12

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def make_rng(seed: int | None) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    """Max-norm of an array (0.0 for empty input)."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def isometry_residual(stack: np.ndarray) -> float:
    """||sum_k M_k^dag M_k - I||_max over the matrices M_k on the last two
    axes of ``stack``, as one gemm on the (-1, cols) view; on one matrix it is
    ``max_abs(dagger(u) @ u - I)`` bit for bit, on an empty stack 1.0."""
    m = np.asarray(stack)
    m = m.reshape(-1, m.shape[-1])
    return max_abs(dagger(m) @ m - np.eye(m.shape[1]))


def unitarity_residual(u: np.ndarray) -> float:
    return isometry_residual(u)


def hermiticity_residual(m: np.ndarray) -> float:
    """max |m - m^dag| over the entries of a square matrix.

    |m_ij - conj(m_ji)| is symmetric in (i, j), so only the upper triangle
    is scanned, one block of rows at a time: no D x D temporary, and the
    same value as ``max_abs(m - dagger(m))`` bit for bit (NaN included).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hermiticity_residual needs a square matrix, got {m.shape}")
    d = m.shape[0]
    step = max(1, _HERM_BLOCK // max(d, 1))
    worst = 0.0
    for s in range(0, d, step):
        e = min(s + step, d)
        worst = np.maximum(worst, max_abs(m[s:e, s:] - dagger(m[s:, s:e])))
    return float(worst)


def require_buffer(buf: np.ndarray, shape: tuple, name: str, *avoid: np.ndarray) -> np.ndarray:
    """``buf`` as an output buffer: a C-contiguous complex128 array of
    ``shape`` that shares no memory with any array in ``avoid`` (ValueError
    otherwise)."""
    if not (isinstance(buf, np.ndarray) and buf.dtype == complex
            and buf.shape == shape and buf.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous complex128 array of shape {shape}")
    if any(np.shares_memory(buf, a) for a in avoid):
        raise ValueError(f"{name} shares memory with an input")
    return buf


def range_sketch(h: np.ndarray, work: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Randomized range sketch (Q, A, resid) of a square matrix h.

    Randomized range finder (Halko, Martinsson and Tropp, SIAM Rev. 53, 217
    (2011)): Q is an orthonormal basis of h Omega for a fixed-seed D x k
    Gaussian probe Omega (k = ``_PROBE_WIDTH``), A = herm(Q^dag h Q) and
    resid = ||h - Q A Q^dag||_F, the residual formed in one D x D buffer
    (``work`` when given, its contents overwritten; otherwise a fresh one).
    A residual at round-off certifies that h has numerical rank <= k and
    that Q spans its range.  None when D < ``_PROBE_MIN_DIM``, where a dense
    eigensolve costs less than the probe.  Deterministic: the same h gives
    the same bytes.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"range_sketch needs a square matrix, got {h.shape}")
    d = h.shape[0]
    if d < _PROBE_MIN_DIM:
        return None
    buf = np.empty((d, d), dtype=complex) if work is None else \
        require_buffer(work, (d, d), "work", h)
    omega = make_rng(0).standard_normal((d, _PROBE_WIDTH))
    q, _ = np.linalg.qr(h @ omega)
    a = dagger(q) @ (h @ q)
    a = (a + dagger(a)) / 2
    np.matmul(q @ a, dagger(q), out=buf)
    np.subtract(h, buf, out=buf)
    return q, a, float(np.linalg.norm(buf))


def min_eig_lower_bound(h: np.ndarray, work: np.ndarray | None = None,
                        sketch: tuple[np.ndarray, np.ndarray, float] | None = None) -> float:
    """A certified lower bound on the smallest eigenvalue of (h + h^dag)/2.

    With the ``range_sketch`` (Q, A, resid) of h, Q A Q^dag has the
    eigenvalues of A and D - k zeros, so Weyl's inequality gives
    lambda_min >= min(lambda_min(A), 0) - resid whatever Q is; the probe
    sets only how tight the bound is.  On a state of rank below k this costs
    O(D^2 k) instead of O(D^3).  When resid exceeds ``PROBE_RESIDUAL_TOL``
    (rank near or above k) or D < ``_PROBE_MIN_DIM``, the result is the dense
    ``eigvalsh((h + h^dag)/2).min()``, bit for bit.  ``sketch``, when given,
    must be ``range_sketch(h)``; it is computed here otherwise.  Uses one
    D x D buffer: ``work`` when given (its contents are overwritten),
    otherwise a fresh one.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"min_eig_lower_bound needs a square matrix, got {h.shape}")
    d = h.shape[0]
    buf = np.empty((d, d), dtype=complex) if work is None else \
        require_buffer(work, (d, d), "work", h)
    if sketch is None:
        sketch = range_sketch(h, buf)
    if sketch is not None and sketch[2] <= PROBE_RESIDUAL_TOL:
        _, a, resid = sketch
        return min(float(np.linalg.eigvalsh(a).min()), 0.0) - resid
    np.conjugate(h.T, out=buf)
    buf += h
    buf /= 2
    return float(np.linalg.eigvalsh(buf).min())


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def kron(*mats: np.ndarray, cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Kronecker product of one or more matrices, with a result-size cap."""
    if not mats:
        raise ValueError("kron needs at least one factor")
    rows = cols = 1
    for m in mats:
        r, c = np.asarray(m).shape
        rows *= r
        cols *= c
    if rows > cap or cols > cap:
        raise CapacityError(f"kron result {rows}x{cols} exceeds cap {cap} per axis")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def apply_two_site(psi: np.ndarray, u: np.ndarray, dims: Sequence[int],
                   p1: int, p2: int) -> np.ndarray:
    """Apply the two-site gate ``u`` to tensor factors p1 < p2 of ``psi``.

    ``psi`` is a statevector whose C-order factors have dimensions ``dims``;
    ``u`` is (d1 d2) x (d1 d2) with factor p1 as its slower index.  The gate
    works on a no-copy view of ``psi`` and returns a new flat array, leaving
    ``psi`` as it is.  Adjacent factors with rows of d1 d2 after >=
    ``_KRON_ROW_LIMIT`` amplitudes are one batched matmul on the
    (before, d1 d2, after) view; shorter rows are a gemm of the
    (before, d1 d2 after) view against kron(u, I_after)^T, taken
    ``_GEMM_BLOCK`` amplitudes at a time, or one gemm against u^T when
    after == 1.  Non-adjacent factors are an einsum on the
    (before, d1, mid, d2, after) view.
    """
    if not 0 <= p1 < p2 < len(dims):
        raise ValueError(f"need 0 <= p1 < p2 < {len(dims)}, got p1={p1}, p2={p2}")
    d1, d2 = dims[p1], dims[p2]
    before, mid, after = prod(dims[:p1]), prod(dims[p1 + 1:p2]), prod(dims[p2 + 1:])
    row = d1 * d2 * after
    if mid > 1:
        view = psi.reshape(before, d1, mid, d2, after)
        out = np.einsum('ijkl,akmlc->aimjc', u.reshape(d1, d2, d1, d2), view)
    elif after == 1:
        out = psi.reshape(before, row) @ u.T
    elif row < _KRON_ROW_LIMIT:
        k = np.kron(u, np.eye(after)).T
        rows = psi.reshape(before, row)
        out = np.empty_like(rows, dtype=np.result_type(psi, u))
        step = _GEMM_BLOCK // row
        for s in range(0, before, step):
            np.matmul(rows[s:s + step], k, out=out[s:s + step])
    else:
        out = np.matmul(u, psi.reshape(before, d1 * d2, after))
    return out.reshape(-1)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors except those in ``keep``.

    ``dims`` lists the factor dimensions of the square matrix ``rho`` in
    order; the kept factors appear in the result in their original order.
    The trace is preserved exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    d = int(np.prod(dims))
    if rho.shape != (d, d):
        raise ValueError(f"rho shape {rho.shape} does not match dims product {d}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    traced = [i for i in range(n) if i not in keep]
    t = rho.reshape(dims + dims)
    for i in reversed(traced):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(dk, dk)


def reduced_density(psi: np.ndarray, dr: int) -> np.ndarray:
    """Tr_left |psi><psi| for a pure state ``psi`` whose last factor has
    dimension ``dr``: sum over rows l of m[l]^T conj(m[l]) for m = psi as
    (rest, dr), one gemm per block of ``_ROW_BLOCK`` amplitudes, so only a
    block is ever conjugated."""
    m = psi.reshape(-1, dr)
    out = np.zeros((dr, dr), dtype=complex)
    step = max(1, _ROW_BLOCK // dr)
    for s in range(0, m.shape[0], step):
        b = m[s:s + step]
        out += b.T @ b.conj()
    return out


def reshuffle(u: np.ndarray, q: int) -> np.ndarray:
    """Spatial reshuffle of a two-site operator: (U^R)[(ab),(cd)] = U[(ac),(bd)].

    Reads the gate along the space direction; an involution on q^2 x q^2
    matrices.  SWAP is a fixed point.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (q * q, q * q):
        raise ValueError(f"expected {q * q}x{q * q} matrix, got {u.shape}")
    return u.reshape(q, q, q, q).transpose(0, 2, 1, 3).reshape(q * q, q * q)


def expm_hermitian_generator(h: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """exp(-i h) for Hermitian h, via eigendecomposition."""
    h = require_finite(h, "generator")
    if hermiticity_residual(h) > atol:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ dagger(v)


def _ritz_values(rho: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of B = herm(W^dag rho W) for W = ``basis`` (orthonormal
    columns), or None unless 2 ||rho (I - W W^dag)||_F <= ``PROBE_RESIDUAL_TOL``.

    For Hermitian rho, rho - P rho P = rho (I - P) + (I - P) rho P has
    Frobenius norm at most twice ||rho (I - P)||_F, so by Weyl's inequality
    every eigenvalue of rho is within the certificate of the eigenvalues of
    B padded with zeros.  Cost O(n^2 m) for an n x m basis.
    """
    y = rho @ basis
    b = dagger(basis) @ y
    resid = y @ dagger(basis)
    np.subtract(rho, resid, out=resid)
    if not 2 * float(np.linalg.norm(resid)) <= PROBE_RESIDUAL_TOL:
        return None
    return np.linalg.eigvalsh((b + dagger(b)) / 2)


def _density_eigvals(rho: np.ndarray, trace_atol: float = 1e-8,
                     basis: np.ndarray | None = None) -> np.ndarray:
    rho = require_finite(rho, "rho")
    if hermiticity_residual(rho) > 1e-8:
        raise ValueError("rho is not Hermitian within tolerance")
    w = None if basis is None else _ritz_values(rho, basis)
    if w is None:
        w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-6:
        raise PositivityError(f"rho has eigenvalue {w.min():.3e} < -1e-6")
    if abs(w.sum() - 1.0) > trace_atol:
        raise ValueError(f"rho trace {w.sum():.6f} deviates from 1")
    return np.clip(w, 0.0, 1.0)


def von_neumann_entropy(rho: np.ndarray, basis: np.ndarray | None = None) -> float:
    """-Tr[rho ln rho] in nats; eigenvalues clamped to [0, 1], 0 ln 0 := 0.

    ``basis``, when given, is an orthonormal basis W believed to hold the
    range of rho: the entropy then comes from the Ritz values of rho on W
    if 2 ||rho (I - W W^dag)||_F <= ``PROBE_RESIDUAL_TOL`` certifies them
    (the dense eigensolve otherwise), and it leaves out the -e ln e of the
    round-off eigenvalues outside W.
    """
    w = _density_eigvals(rho, basis=basis)
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def renyi_trace(rho: np.ndarray, n: int) -> float:
    """Tr[rho^n] for Hermitian rho, n >= 2, without an eigensolve: with
    p = rho^(n//2) it is vdot(p, p) for even n and vdot(p, rho @ p) for odd n."""
    if n < 2:
        raise ValueError("renyi_trace requires n >= 2")
    rho = require_finite(rho, "rho")
    if hermiticity_residual(rho) > 1e-8:
        raise ValueError("rho is not Hermitian within tolerance")
    p = np.linalg.matrix_power(rho, n // 2)
    return float(np.vdot(p, p if n % 2 == 0 else rho @ p).real)


def haar_unitary(dim: int, rng: np.random.Generator, special: bool = False) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix.

    With ``special=True`` the determinant is normalized to 1.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    u = q * ph
    if special:
        u = u * np.linalg.det(u) ** (-1.0 / dim)
    return u


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """(1/2)||r1 - r2||_1 via eigenvalues of the (Hermitian) difference."""
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    if r1.shape != r2.shape:
        raise ValueError(f"shape mismatch {r1.shape} vs {r2.shape}")
    w = np.linalg.eigvalsh(r1 - r2)
    return 0.5 * float(np.abs(w).sum())
