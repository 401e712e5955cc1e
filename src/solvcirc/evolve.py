"""Hidden-Markov joint evolution of ancilla + finite right subsystem.

One Floquet period acts as rho(t+1) = M[U_R rho(t) U_R^dag]: the even-bond
sublayer then the odd-bond sublayer of the brickwork restricted to the
subsystem, followed by the exact boundary channel on ancilla (x) site 0.  The
boundary-crossing gate and the whole left region are contained in M.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .channel import (BoundaryChannel, apply_channel, kraus_from_lpdo,
                      kraus_from_mps, kraus_from_two_site)
from .errors import CapacityError, NumericalDriftError
from .linalg import (PROBE_RESIDUAL_TOL, dagger, hermiticity_residual, kron,
                     min_eig_lower_bound, range_sketch, require_buffer,
                     von_neumann_entropy)
from .mps import Lpdo, MpsTensor, TwoSiteMps, left_block
from .gates import TwoSiteGate
from .solvable import check_solvable_left

SOLVABLE_GATE_TOL = 1e-8
DRIFT_TOL = 1e-8
# Entries of the D x D joint density matrix (D = chi q^L_R) an engine may
# hold; 2^24 is D = 4096.
DENSITY_ENTRY_CAP = 2 ** 24
# conjugate_brickwork fuses gates into blocks on w adjacent sites with
# q^w <= BLOCK_LEVEL_CAP: four blocks for a q=2, L_R=10 period, and one gate
# per block at q >= 3.  A cap of 64 conjugated no faster at q = 2.
BLOCK_LEVEL_CAP = 16
# A config takes the range route (see EvolutionConfig.range_basis) when its
# channel compresses ancilla (x) site 0 at least this much, chi q / r >= 4.
# One period's D x n gemms with Y against the fused brickwork: q=4 3.6 vs
# 8.3 ms at D=512 and 202 vs 287 ms at D=2048; q=3 108 vs 92 ms at D=1458;
# q=2 451 vs 235 ms at D=2048.
_RANGE_MIN_COMPRESSION = 4


class JointState:
    """Density matrix on ancilla (x) q^{L_R} at integer time t.

    A state holds rho itself (a dense state) or, once ``step`` takes the
    range route (``EvolutionConfig.range_basis``), sigma on n = r q^{L_R-1}
    dimensions and W, with rho = (W (x) I) sigma (W (x) I)^dag; ``rho`` is
    then expanded on each read.  Assigning ``rho`` makes the state dense.
    Privately it caches, for the matrix it holds, the Hermiticity residual
    of ``step``'s drift check and the spectral data of the diagnostics (the
    range sketch of a dense rho, the eigh of herm(sigma)), and carries the
    scratch of the next ``step``: one D x D buffer, which
    ``invariant_residuals`` borrows too, or the range period's two, in which
    ``entanglement_entropy`` forms rho_R.
    """

    def __init__(self, chi: int, q: int, l_r: int, rho: np.ndarray, t: int = 0):
        self.chi, self.q, self.l_r, self.t = chi, q, l_r, t
        self._scratch = None
        self.rho = rho

    @classmethod
    def _in_range(cls, chi: int, q: int, l_r: int, sigma: np.ndarray, w: np.ndarray,
                  t: int = 0) -> JointState:
        s = cls.__new__(cls)
        s.chi, s.q, s.l_r, s.t, s._scratch = chi, q, l_r, t, None
        s._held, s._w, s._herm, s._sketch, s._eig = sigma, w, None, None, None
        return s

    @property
    def rho(self) -> np.ndarray:
        return self._held if self._w is None else _sandwich(self._w, self._held)

    @rho.setter
    def rho(self, value: np.ndarray):
        d = self.chi * self.q ** self.l_r
        value = np.asarray(value, dtype=complex)
        if value.shape != (d, d):
            raise ValueError(f"rho shape {value.shape} != ({d},{d})")
        # what was computed from the old state is stale
        self._held, self._w, self._herm, self._sketch, self._eig = value, None, None, None, None

    def invariant_residuals(self) -> dict:
        """Trace and Hermiticity residuals of the held matrix, and a
        certified lower bound on the smallest eigenvalue of the Hermitian
        part of rho.

        On a dense state the bound is ``min_eig_lower_bound`` (equal to the
        dense eigensolve unless rho has low rank).  On a range state rho's
        nonzero eigenvalues are those of G^(1/2) herm(sigma) G^(1/2), with
        G = W^dag W (x) I, so by Ostrowski's theorem lambda_min >=
        min(lambda_min(herm sigma), 0) - delta ||herm sigma||_2 with
        delta = ||W^dag W - I||_2 (round-off for W from ``eigh``).
        """
        m = self._held
        tr = float(np.trace(m).real)
        herm = self._herm if self._herm is not None else hermiticity_residual(m)
        if self._w is None:
            min_eig = min_eig_lower_bound(m, work=self._scratch, sketch=self.range_sketch())
        else:
            lam, w = self._spectrum()[0], self._w
            delta = float(np.linalg.norm(dagger(w) @ w - np.eye(w.shape[1]), 2))
            min_eig = min(float(lam[0]), 0.0) - delta * max(-float(lam[0]), float(lam[-1]))
        return {"trace": abs(tr - 1.0), "hermiticity": herm, "min_eig": min_eig}

    def range_sketch(self) -> tuple | None:
        """``linalg.range_sketch`` of rho, formed once per rho (in the
        scratch buffer of a dense state) and shared by the dense state's
        ``invariant_residuals`` and ``entanglement_entropy``."""
        if self._sketch is None:
            self._sketch = range_sketch(self.rho, work=self._scratch if self._w is None else None)
        return self._sketch

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of herm(sigma), once per range state."""
        if self._eig is None:
            h = self._held + dagger(self._held)
            h /= 2
            self._eig = np.linalg.eigh(h)
        return self._eig


def _sandwich(w: np.ndarray, m: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """(w (x) I) m (w (x) I)^dag for a square m whose legs are w's columns
    (x) the rest: one gemm on the row legs, then one batched matmul by w^*
    on the column legs.  The intermediate (w (x) I) m is formed in the head
    of ``work`` when given (a complex128 array sharing no memory with m)."""
    shape = (w.shape[0], m.size // w.shape[1])
    half = np.empty(shape, dtype=complex) if work is None else \
        work.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
    np.matmul(w, m.reshape(w.shape[1], -1), out=half)
    half = half.reshape(-1, w.shape[1], m.shape[1] // w.shape[1])
    return np.matmul(w.conj(), half).reshape(half.shape[0], -1)


def build_channel(state: MpsTensor | TwoSiteMps | Lpdo) -> BoundaryChannel:
    if isinstance(state, MpsTensor):
        return kraus_from_mps(state)
    if isinstance(state, TwoSiteMps):
        return kraus_from_two_site(state)
    if isinstance(state, Lpdo):
        return kraus_from_lpdo(state)
    raise TypeError(f"unsupported left-state type {type(state).__name__}")


@dataclass
class EvolutionConfig:
    """Validated configuration for a hidden-Markov run.

    ``right_kets`` holds the chi kets |Psi_R^j> as rows (dimension q^{L_R});
    the gate/left-state pair must satisfy the left solvable condition, which
    is a hard gate on configuration load.  ``cap`` bounds the entries of the
    joint density matrix (see ``joint_dimension``).
    """

    gate: TwoSiteGate
    mps: MpsTensor | TwoSiteMps | Lpdo
    right_kets: np.ndarray
    l_r: int
    tmax: int
    cap: int = DENSITY_ENTRY_CAP
    channel: BoundaryChannel = field(init=False)
    _y: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tmax < 0:
            raise ValueError(f"tmax must be >= 0, got {self.tmax}")
        self.channel = build_channel(self.mps)
        q, chi = self.channel.q, self.channel.chi
        joint_dimension(chi, q, self.l_r, self.cap)
        if q != self.gate.q:
            raise ValueError(f"gate q={self.gate.q} does not match left state q={q}")
        self.right_kets = np.asarray(self.right_kets, dtype=complex)
        if self.right_kets.shape != (chi, q ** self.l_r):
            raise ValueError(f"right_kets must have shape ({chi}, {q ** self.l_r})")
        resid = check_solvable_left(self.gate, self.mps)
        if resid > SOLVABLE_GATE_TOL:
            raise ValueError(
                f"gate/left-state pair violates the solvable condition "
                f"(residual {resid:.2e}); the Markov embedding would be unsound")

    @property
    def chi(self) -> int:
        return self.channel.chi

    @property
    def q(self) -> int:
        return self.channel.q

    def range_basis(self) -> np.ndarray | None:
        """W = ``channel.range_basis()`` (chi q x r) when the config takes
        the range route, chi q >= ``_RANGE_MIN_COMPRESSION`` r; else None.

        Every output of the channel lies in range(W (x) I), so on this route
        a stepped state is held as sigma on n = r q^{L_R - 1} dimensions.
        """
        w = self.channel.range_basis()
        return w if self.chi * self.q >= _RANGE_MIN_COMPRESSION * w.shape[1] else None

    def range_rows(self) -> np.ndarray:
        """Y = (I_chi (x) U_R)(W (x) I), D x n, built on first use by
        ``_brickwork_rows`` and cached (range route only)."""
        if self._y is None:
            wi = np.kron(self.range_basis(), np.eye(self.q ** (self.l_r - 1)))
            # wi is free after the first block, so it serves as the second buffer
            self._y = _brickwork_rows(wi, self.gate, self.l_r, (np.empty_like(wi), wi))
        return self._y


def joint_dimension(chi: int, q: int, l_r: int, cap: int = DENSITY_ENTRY_CAP) -> int:
    """D = chi q^{L_R}, after checking L_R >= 2 and that the D^2 entries of
    the joint density matrix fit ``cap`` (CapacityError otherwise)."""
    if l_r < 2:
        raise ValueError("l_r must be >= 2")
    d = chi * q ** l_r
    if d * d > cap:
        raise CapacityError(
            f"joint density matrix would hold {d}^2 = {d * d} entries (cap {cap})")
    return d


def brickwork_unitary(gate: TwoSiteGate, l_r: int) -> np.ndarray:
    """One period of the brickwork restricted to the subsystem, open right
    boundary: odd-bond gates (1,2),(3,4),... composed after even-bond gates
    (0,1),(2,3),...

    Dense q^{L_R} x q^{L_R} reference for ``conjugate_brickwork``; the engine
    never builds it.
    """
    if l_r < 2:
        raise ValueError("l_r must be >= 2")
    return _gates_unitary(gate.matrix, gate.q, l_r, _period_bonds(l_r))


def _period_bonds(l_r: int) -> list[int]:
    """Left sites x of the bonds (x, x+1) of one period, as applied: even
    bonds, then odd bonds."""
    return [*range(0, l_r - 1, 2), *range(1, l_r - 1, 2)]


def _gates_unitary(u: np.ndarray, q: int, n: int, xs: list[int]) -> np.ndarray:
    """The q^n x q^n unitary of the gate ``u`` on bonds (x, x+1) of n sites,
    for x in ``xs``, applied in that order."""
    out = np.eye(q ** n, dtype=complex)
    for x in xs:
        out = kron(np.eye(q ** x), u, np.eye(q ** (n - x - 2))) @ out
    return out


def _brickwork_blocks(q: int, l_r: int) -> list[tuple[int, int, list[int]]]:
    """One period's gates merged into blocks (lo, hi, xs): the gates on
    (x, x+1) for x in xs, applied in that order, act on sites lo..hi-1,
    with q^(hi - lo) <= ``BLOCK_LEVEL_CAP``.

    The gates are taken as applied, even bonds then odd bonds.  Each joins
    the earliest block it reaches by passing only blocks on sites disjoint
    from its own (those commute with it) and that stays within the cap;
    otherwise it opens a new block.  Applying the blocks in order is the
    period gate by gate.
    """
    blocks: list[tuple[int, int, list[int]]] = []
    for x in _period_bonds(l_r):
        target = None
        for i in range(len(blocks) - 1, -1, -1):
            lo, hi, _ = blocks[i]
            if q ** (max(hi, x + 2) - min(lo, x)) <= BLOCK_LEVEL_CAP:
                target = i
            if lo < x + 2 and x < hi:
                break
        if target is None:
            blocks.append((x, x + 2, [x]))
        else:
            lo, hi, xs = blocks[target]
            blocks[target] = (min(lo, x), max(hi, x + 2), xs + [x])
    return blocks


def _brickwork_rows(m: np.ndarray, gate: TwoSiteGate, l_r: int,
                    bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(I_chi (x) U_R) m for a C-ordered m with chi q^{L_R} rows, one fused
    block at a time: the local-gate kernel of the engine.

    The period's gates are merged by ``_brickwork_blocks``.  A block on
    sites lo..hi-1 is one batched matmul of its q^w x q^w unitary
    (w = hi - lo; the gate itself when w = 2) on the no-copy
    (chi q^lo, q^w, rest) view, at a cost of O(q^w rows cols).  The
    products alternate between the two arrays ``bufs`` (of m's shape),
    starting with ``bufs[0]``; the one holding the result is returned.
    """
    q = gate.q
    a, b = bufs
    for lo, hi, xs in _brickwork_blocks(q, l_r):
        u = gate.matrix if hi - lo == 2 else \
            _gates_unitary(gate.matrix, q, hi - lo, [x - lo for x in xs])
        # A stride-0 broadcast of the block drops numpy's matmul off BLAS.
        ub = np.broadcast_to(u, (m.shape[0] // q ** (l_r - lo),) + u.shape).copy()
        shape = (ub.shape[0], ub.shape[1], -1)
        np.matmul(ub, m.reshape(shape), out=a.reshape(shape))
        m, a, b = a, b, a
    return m


def conjugate_brickwork(rho: np.ndarray, gate: TwoSiteGate, l_r: int,
                        work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(I_chi (x) U_R) rho (I_chi (x) U_R)^dag by ``_brickwork_rows``.

    The column legs are the row legs of the conjugate transpose, so the
    result is (U (U rho)^dag)^dag.  Cost O(sum_blocks q^w D^2) with two
    D x D buffers, the pair ``work`` when given (C-contiguous complex128,
    sharing no memory with ``rho`` or each other) and fresh ones otherwise.
    The buffers are written an even number of times, so the result is
    ``work[1]``; ``rho`` is left as it is.
    """
    d = rho.shape[0]
    if work is None:
        bufs = [np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)]
    else:
        bufs = [require_buffer(work[0], (d, d), "work[0]", rho),
                require_buffer(work[1], (d, d), "work[1]", rho, work[0])]
    m = rho
    for _ in range(2):
        m = _brickwork_rows(m, gate, l_r, bufs)
        spare = bufs[1] if m is bufs[0] else bufs[0]
        np.conjugate(m.T, out=spare)
        m, bufs = spare, [m, spare]
    return m


def initial_joint_state(cfg: EvolutionConfig) -> JointState:
    """rho(0) = |Psi~><Psi~| with |Psi~> = sum_j |j) (x) |Psi_R^j>, unit trace."""
    psi = cfg.right_kets.reshape(-1)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("all right kets are zero")
    psi = psi / nrm
    return JointState(cfg.chi, cfg.q, cfg.l_r, np.outer(psi, psi.conj()), 0)


def _range_period(sigma: np.ndarray, y: np.ndarray, channel: BoundaryChannel,
                  bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """M[Y sigma Y^dag]: Y sigma and Y^* (D x n each, n <= D/4) are formed
    in the head of ``bufs[1]``, Y sigma Y^dag in ``bufs[0]``, which the
    channel clobbers, and the result in ``bufs[1]``."""
    head = bufs[1].reshape(-1)
    y_sigma = head[:y.size].reshape(y.shape)
    y_conj = head[y.size:2 * y.size].reshape(y.shape)
    np.matmul(y, sigma, out=y_sigma)
    np.conjugate(y, out=y_conj)
    np.matmul(y_sigma, y_conj.T, out=bufs[0])
    return apply_channel(channel, bufs[0], out=bufs[1])


def _dense_period(s: JointState, cfg: EvolutionConfig) -> tuple[np.ndarray, np.ndarray]:
    """M[U_R rho U_R^dag] and the scratch buffer, which is taken off ``s``
    (allocated when ``s`` has none)."""
    scratch, s._scratch = s._scratch, None
    s._sketch = None  # its Q would outlive the diagnostics of s, held through the period
    rho = s.rho
    if scratch is None:
        scratch = np.empty(rho.shape, dtype=complex)
    new = np.empty(rho.shape, dtype=complex)
    conjugate_brickwork(rho, cfg.gate, cfg.l_r, work=(new, scratch))
    return apply_channel(cfg.channel, scratch, out=new), scratch


def step(s: JointState, cfg: EvolutionConfig) -> JointState:
    """One Floquet period: subsystem brickwork, then the boundary channel.

    Trace and Hermiticity are monitored every step (the quantities that can
    drift under repeated products); the spectral positivity residual is
    available through ``invariant_residuals``.

    A dense state runs the period in two D x D arrays besides ``s.rho``:
    one fresh array for the result and the scratch buffer taken from ``s``
    (allocated when it has none).  On the range route that result is
    projected to sigma; a range state instead steps as
    sigma' = (W^dag (x) I) M[Y sigma Y^dag] (W (x) I) in the two D x D
    arrays it carries, and a range result carries both arrays on.  The
    scratch is cleared on ``s``, so stepping ``s`` again never shares memory
    with either result.  The drift checks run on the held matrix.
    """
    w = cfg.range_basis()
    if w is not None and s._w is w:
        scratch, s._scratch = s._scratch, None
        if scratch is None:
            d = s.chi * s.q ** s.l_r
            scratch = (np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex))
        rho = _range_period(s._held, cfg.range_rows(), cfg.channel, scratch)
    else:
        rho, scratch = _dense_period(s, cfg)
        if w is not None:
            scratch = (scratch, rho)  # both free once rho is projected
    if w is not None:
        rho = _sandwich(dagger(w), rho, work=scratch[0])
    tr_drift = abs(float(np.trace(rho).real) - 1.0)
    herm_drift = hermiticity_residual(rho)
    if tr_drift > DRIFT_TOL or herm_drift > DRIFT_TOL:
        raise NumericalDriftError(
            f"state invariants drifted: trace {tr_drift:.2e}, hermiticity {herm_drift:.2e}")
    if w is not None:
        out = JointState._in_range(s.chi, s.q, s.l_r, rho, w, s.t + 1)
    else:
        out = JointState(s.chi, s.q, s.l_r, rho, s.t + 1)
    out._scratch, out._herm = scratch, herm_drift
    return out


def states(cfg: EvolutionConfig) -> Iterator[JointState]:
    """rho(0), ..., rho(tmax); each period is stepped only when the next
    state is asked for, so a caller's diagnostics of rho(t) run before the
    step to t+1 and only the current state is kept."""
    s = initial_joint_state(cfg)
    yield s
    for _ in range(cfg.tmax):
        s = step(s, cfg)
        yield s


def subsystem_density(s: JointState) -> np.ndarray:
    """rho_R(t): the ancilla traced out, unit trace."""
    d = s.q ** s.l_r
    if s._w is None:
        r = s.rho.reshape(s.chi, d, s.chi, d)
        return np.einsum('ajak->jk', r)
    return _range_density(s, np.empty((d, d), dtype=complex))


def _range_density(s: JointState, out: np.ndarray) -> np.ndarray:
    """rho_R of a range state, written into ``out`` (q^{L_R} x q^{L_R}):
    rho_R[b x, c y] = sum Z[b i, c j] sigma[i x, j y] with
    Z[b i, c j] = sum_a W[a b, i] W[a c, j]^*, one gemm per level b of site 0."""
    w, n = s._w.reshape(s.chi, s.q, -1), out.shape[0] // s.q
    z = np.einsum('abi,acj->bicj', w, w.conj())
    sigma = s._held.reshape(w.shape[2], n, w.shape[2], n)
    rho_r = out.reshape(s.q, n, s.q, n)
    for b in range(s.q):
        rho_r[b] = np.tensordot(z[b], sigma, axes=([0, 2], [0, 2])).transpose(1, 0, 2)
    return out


def _ancilla_span(range_q: np.ndarray, chi: int) -> np.ndarray:
    """An orthonormal basis ((D/chi) x chi k) of the span of the ancilla
    blocks of a D x k ``range_q``."""
    blocks = range_q.reshape(chi, -1, range_q.shape[1]).transpose(1, 0, 2)
    basis, _ = np.linalg.qr(blocks.reshape(blocks.shape[0], -1))
    return basis


def entanglement_entropy(s: JointState) -> float:
    """Von Neumann entropy (nats) of the subsystem density matrix.

    Given a basis Q (D x k) of rho's range, rho_R = sum_a rho[a, :, a, :]
    has its range in the span of the ancilla blocks Q_a: the entropy comes
    from the Ritz values of rho_R on that span, which ``von_neumann_entropy``
    certifies in turn.  Q is the range sketch of a dense state when its
    residual is at most ``PROBE_RESIDUAL_TOL``, and (W (x) I) V on a range
    state when chi k <= D / (2 chi), V being the eigenvectors of herm(sigma)
    above numpy's ``matrix_rank`` tolerance.  Otherwise it is the dense
    eigensolve.
    """
    basis = None
    if s._w is None:
        sketch = s.range_sketch()
        if sketch is not None and sketch[2] <= PROBE_RESIDUAL_TOL:
            basis = _ancilla_span(sketch[0], s.chi)
        return von_neumann_entropy(subsystem_density(s), basis=basis)
    lam, vecs = s._spectrum()
    mag = np.abs(lam)
    keep = mag > mag.max() * lam.size * np.finfo(float).eps
    d = s.q ** s.l_r
    if 2 * s.chi * np.count_nonzero(keep) <= d:
        v = vecs[:, keep]
        range_q = (s._w @ v.reshape(s._w.shape[1], -1)).reshape(-1, v.shape[1])
        basis = _ancilla_span(range_q, s.chi)
    # rho_R is formed in the idle period buffers of a stepped state
    out = np.empty((d, d), dtype=complex) if s._scratch is None else \
        s._scratch[0].reshape(-1)[:d * d].reshape(d, d)
    return von_neumann_entropy(_range_density(s, out), basis=basis)


def local_expectation(s: JointState, site: int, op: np.ndarray) -> float:
    """Tr[rho_R (I (x) ... op ... (x) I)] for a Hermitian one-site operator.

    The one-site matrix is one einsum: over the joint rho on a dense
    state, over W, sigma and W^* on a range state."""
    if not 0 <= site < s.l_r:
        raise ValueError(f"site {site} out of range for l_r={s.l_r}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (s.q, s.q):
        raise ValueError(f"operator must be {s.q}x{s.q}")
    if not (np.all(np.isfinite(op)) and hermiticity_residual(op) <= 1e-10):  # non-finite: no scan
        raise ValueError("operator must be Hermitian")
    if s._w is None:
        r = s.rho.reshape(s.chi, s.q ** site, s.q, s.q ** (s.l_r - site - 1),
                          s.chi, s.q ** site, s.q, s.q ** (s.l_r - site - 1))
        rho_site = np.einsum('aibjaicj->bc', r)
    else:
        w = s._w.reshape(s.chi, s.q, -1)
        if site == 0:
            sigma = s._held.reshape(w.shape[2], -1, w.shape[2], s.q ** (s.l_r - 1))
            rho_site = np.einsum('abi,ixjx,acj->bc', w, sigma, w.conj())
        else:
            sigma = s._held.reshape(w.shape[2], s.q ** (site - 1), s.q, s.q ** (s.l_r - site - 1),
                                     w.shape[2], s.q ** (site - 1), s.q, s.q ** (s.l_r - site - 1))
            rho_site = np.einsum('asi,ixbyjxcy,asj->bc', w, sigma, w.conj())
    val = complex(np.trace(rho_site @ op))
    if abs(val.imag) > 1e-10:
        raise NumericalDriftError(f"expectation has imaginary part {val.imag:.2e}")
    return float(val.real)


def mps_continuation_kets(a: MpsTensor, l_r: int) -> np.ndarray:
    """Right kets continuing the left MPS across the cut, with the terminal
    bond index stored in the last site (requires chi <= q).

    |Psi_R^j> = sum [A^(a_0) ... A^(a_{L_R-2})]_{j k} |a_0 ... a_{L_R-2}> |k>.
    Within the lightcone this reproduces the homogeneous infinite chain, so
    the engine entropy equals the half-chain entanglement of that chain.
    """
    if a.chi > a.q:
        raise ValueError("bond leg does not fit a physical site (chi > q)")
    kets = np.zeros((a.chi, a.q ** (l_r - 1), a.q), dtype=complex)
    kets[:, :, :a.chi] = left_block(a, l_r - 1)
    return kets.reshape(a.chi, a.q ** l_r)
