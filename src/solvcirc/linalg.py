"""Dense complex linear algebra and sampling primitives.

Everything here is plain numpy at double precision, sized for desk-scale
Hilbert spaces (dimensions up to ~2^17).  All functions are pure; random
sampling takes an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, PositivityError

# per-axis cap for kron results (entries per axis)
DEFAULT_DIM_CAP = 2 ** 18

# Entries per row block of hermiticity_residual (512 KiB of complex128).
# With 4 MiB blocks the allocator hands the freed temporaries back to the OS,
# and a D=512 evolve row took about 1000 minor page faults (median); at this
# size the median row takes none (BENCH_engine_buffers.json).
_HERM_BLOCK = 2 ** 15
# reduced_density sums its gemm over row blocks of this many amplitudes
# (1 MiB of complex128), in place of one conjugate copy of the whole state.
_ROW_BLOCK = 2 ** 16
# range_sketch: the probe's first width, the divisor of the dimension n
# that bounds its widest width (the largest _PROBE_START * 2^j not above
# n / _PROBE_CUTOFF_DIV), and the smallest n that takes a probe.  On a
# 2-core host (BENCH_rank_sketch.json) a start of 8 certified the benchmark's
# rows (rank 1-2 at n = 1024, 8-16 at n = 128) for less than a start of 4
# or 16 did on one of the two; a widest width of n/4 kept a full-rank row's
# failed sweep at 0.4-0.6 of the eigvalsh of sigma that follows it
# (n = 128..1024), where n/2 cost as much as that eigvalsh; and at n = 128
# eigvalsh of a rank-16 matrix took 2.1 ms, a 32-wide probe 0.7 ms.
# PROBE_RESIDUAL_TOL is the residual norm below which a sketch certifies the
# range (well under the 1e-10 positivity check): min_eig_lower_bound then
# returns the probe's bound, and evolve.entanglement_entropy reads the
# spectrum of rho_R from the sketch's factor when sqrt(chi) (1 + delta) resid
# is within it.
_PROBE_START = 8
_PROBE_CUTOFF_DIV = 4
_PROBE_MIN_DIM = 128
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


def sandwich(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(w (x) I) m (w (x) I)^dag for a square m whose legs are w's columns
    (x) the rest: one gemm on the row legs, then one batched matmul by w^*
    on the column legs."""
    half = (w @ m.reshape(w.shape[1], -1)).reshape(-1, w.shape[1], m.shape[1] // w.shape[1])
    return np.matmul(w.conj(), half).reshape(half.shape[0], -1)


def range_sketch(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Randomized range sketch (Q, A, resid) of a square matrix h, widened
    until it certifies h's range.

    Randomized range finder (Halko, Martinsson and Tropp, SIAM Rev. 53, 217
    (2011)): Q (D x k) is an orthonormal basis of h [Omega_1 ... Omega_m]
    for fixed-seed real Gaussian blocks Omega_i, A = herm(Q^dag h Q) and
    resid = ||h - Q A Q^dag||_F, formed in one D x D array.  A residual
    within ``PROBE_RESIDUAL_TOL`` certifies that h has numerical rank <= k
    and that Q spans its range.

    The width starts at ``_PROBE_START`` and doubles while the sketch is
    uncertified, up to the widest width: the largest ``_PROBE_START`` 2^j
    not above D / ``_PROBE_CUTOFF_DIV`` (D/4 when D is a power of two; 32
    at D = 162, where D/4 is 40).  Each doubling draws the next block
    Omega' (D x k) from the same stream and extends Q by block Gram-Schmidt:
    h Omega' is projected off Q and orthonormalised, then projected and
    orthonormalised again, which restores the orthogonality that a
    rank-deficient block loses.

    Two lower bounds reject a width without the D x D residual.  With
    P = I - Q Q^dag, P Q = 0 gives resid >= ||P (h - Q A Q^dag)||_F =
    ||P h||_F, and ||P h X||_F <= ||P h||_F ||X||_2 for any X.  So resid
    exceeds the tolerance when ||P h Omega'||_F > tol ||Omega'||_2 (the
    next block, formed anyway to widen) or when ||P h Q||_F > tol (h Q is
    formed anyway for A), and an uncertified sketch may carry that bound as
    its resid.  At the widest width the sketch is returned as it stands, so
    an uncertified one sends the callers to their dense paths.  None when
    D < ``_PROBE_MIN_DIM``, where a dense eigensolve costs less than the
    probe.  Deterministic: the same h gives the same bytes.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"range_sketch needs a square matrix, got {h.shape}")
    d = h.shape[0]
    if d < _PROBE_MIN_DIM:
        return None
    rng = make_rng(0)
    q, _ = np.linalg.qr(h @ rng.standard_normal((d, _PROBE_START)))
    while True:
        grow = 2 * q.shape[1] <= d // _PROBE_CUTOFF_DIV
        if grow:
            omega = rng.standard_normal((d, q.shape[1]))
            y = h @ omega
            y -= q @ (dagger(q) @ y)
            omega_norm = np.sqrt(np.linalg.eigvalsh(omega.T @ omega)[-1])  # ||Omega'||_2
            if np.linalg.norm(y) > PROBE_RESIDUAL_TOL * omega_norm:
                q = _extend_basis(q, y)
                continue
        hq = h @ q
        a = dagger(q) @ hq
        hq -= q @ a
        resid = float(np.linalg.norm(hq))  # ||P h Q||_F, a lower bound
        a = (a + dagger(a)) / 2
        if resid <= PROBE_RESIDUAL_TOL:
            buf = (q @ a) @ dagger(q)
            np.subtract(h, buf, out=buf)
            resid = float(np.linalg.norm(buf))
        if resid <= PROBE_RESIDUAL_TOL or not grow:
            return q, a, resid
        q = _extend_basis(q, y)


def _extend_basis(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[Q, Q'] for y already projected once off the orthonormal Q: Q' is
    y orthonormalised, projected off Q again and orthonormalised again."""
    y, _ = np.linalg.qr(y)
    y -= q @ (dagger(q) @ y)
    return np.hstack([q, np.linalg.qr(y)[0]])


def min_eig_lower_bound(h: np.ndarray,
                        sketch: tuple[np.ndarray, np.ndarray, float] | None = None) -> float:
    """A certified lower bound on the smallest eigenvalue of (h + h^dag)/2.

    With the ``range_sketch`` (Q, A, resid) of h, Q A Q^dag has the
    eigenvalues of A and D - k zeros, so Weyl's inequality gives
    lambda_min >= min(lambda_min(A), 0) - resid whatever Q is; the probe
    sets only how tight the bound is.  On a state of rank r within the
    widest probe this costs O(D^2 r) instead of O(D^3).  When resid exceeds
    ``PROBE_RESIDUAL_TOL`` (rank above ``range_sketch``'s widest width) or
    D < ``_PROBE_MIN_DIM``, the result is the dense
    ``eigvalsh((h + h^dag)/2).min()``, bit for bit.  ``sketch``, when given,
    must be ``range_sketch(h)``; it is computed here otherwise.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"min_eig_lower_bound needs a square matrix, got {h.shape}")
    if sketch is None:
        sketch = range_sketch(h)
    if sketch is not None and sketch[2] <= PROBE_RESIDUAL_TOL:
        _, a, resid = sketch
        return min(float(np.linalg.eigvalsh(a).min()), 0.0) - resid
    buf = np.conjugate(h.T)
    buf += h
    buf /= 2
    return float(np.linalg.eigvalsh(buf).min())


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """m as float64 if it is float64, else as complex128; ValueError if an
    entry is not finite."""
    m = np.asarray(m)
    m = np.asarray(m, dtype=float if m.dtype == np.float64 else complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def unit_vector(v: np.ndarray, name: str = "vector", out: np.ndarray | None = None) -> np.ndarray:
    """v / ||v||_2 as a complex array, for any finite nonzero v: written
    into ``out`` when given (a C-contiguous complex128 array of v's shape,
    which may be v itself), else into a new array.

    A ket is defined only up to scale, so v is first scaled by 2^-e, with e
    the binary exponent (``np.frexp``) of its largest real or imaginary
    part.  That scaling is exact, so the norm neither overflows nor
    underflows, and wherever ``v / np.linalg.norm(v)`` does neither the
    result is the same bit for bit.  ValueError for a zero or non-finite v.
    """
    v = np.ascontiguousarray(v, dtype=complex)
    parts = v.reshape(-1).view(float)
    hi, lo = float(parts.max(initial=0.0)), float(parts.min(initial=0.0))  # NaN propagates
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"{name} contains non-finite entries")
    peak = max(hi, -lo)
    if peak == 0:
        raise ValueError(f"{name}: all entries are zero")
    out = np.empty_like(v) if out is None else require_buffer(out, v.shape, "out")
    np.ldexp(parts, -int(np.frexp(peak)[1]), out=out.reshape(-1).view(float))
    out /= np.linalg.norm(out)
    return out


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, with a result-size cap
    (``DEFAULT_DIM_CAP`` entries per axis)."""
    if not mats:
        raise ValueError("kron needs at least one factor")
    rows = cols = 1
    for m in mats:
        r, c = np.asarray(m).shape
        rows *= r
        cols *= c
    if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:
        raise CapacityError(f"kron result {rows}x{cols} exceeds cap {DEFAULT_DIM_CAP} per axis")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def reduced_density(psi: np.ndarray, dr: int, work: np.ndarray | None = None) -> np.ndarray:
    """Tr_left |psi><psi| for a pure state ``psi`` whose last factor has
    dimension ``dr``: sum over rows l of m[l]^T conj(m[l]) for m = psi as
    (rest, dr), one gemm per block of ``_ROW_BLOCK`` amplitudes, each block
    conjugated into the head of ``work`` (a C-contiguous complex128 array of
    at least one block, apart from psi) when given, else into a new array."""
    m = psi.reshape(-1, dr)
    out = np.zeros((dr, dr), dtype=complex)
    step = max(1, _ROW_BLOCK // dr)
    for s in range(0, m.shape[0], step):
        b = m[s:s + step]
        c = None if work is None else work.reshape(-1)[:b.size].reshape(b.shape)
        out += b.T @ np.conjugate(b, out=c)
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


def expm_hermitian_generator(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for h Hermitian within 1e-10, via eigendecomposition."""
    h = require_finite(h, "generator")
    if hermiticity_residual(h) > 1e-10:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ dagger(v)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr[rho ln rho] in nats; eigenvalues clamped to [0, 1], 0 ln 0 := 0.

    rho must be finite and Hermitian within 1e-8 (ValueError), have no
    eigenvalue below -1e-6 (PositivityError) and unit trace within 1e-8
    (ValueError).
    """
    rho = require_finite(rho, "rho")
    if hermiticity_residual(rho) > 1e-8:
        raise ValueError("rho is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-6:
        raise PositivityError(f"rho has eigenvalue {w.min():.3e} < -1e-6")
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValueError(f"rho trace {w.sum():.6f} deviates from 1")
    w = np.clip(w, 0.0, 1.0)
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


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """(1/2)||r1 - r2||_1 via eigenvalues of the (Hermitian) difference."""
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    if r1.shape != r2.shape:
        raise ValueError(f"shape mismatch {r1.shape} vs {r2.shape}")
    w = np.linalg.eigvalsh(r1 - r2)
    return 0.5 * float(np.abs(w).sum())
