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
from .linalg import (PROBE_RESIDUAL_TOL, hermiticity_residual, kron,
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


@dataclass
class JointState:
    """Density matrix on ancilla (x) q^{L_R} at integer time t.

    A state made by ``step`` also carries, privately, the D x D scratch
    buffer that the next ``step`` and ``invariant_residuals`` work in, and
    the Hermiticity residual that ``step`` computed for its drift check.
    Assigning a new ``rho`` drops that residual and the cached range sketch.
    """

    chi: int
    q: int
    l_r: int
    rho: np.ndarray
    t: int = 0
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _herm: float | None = field(default=None, init=False, repr=False, compare=False)
    _sketch: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name == "rho":  # what was computed from the old rho is stale
            object.__setattr__(self, "_herm", None)
            object.__setattr__(self, "_sketch", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        d = self.chi * self.q ** self.l_r
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (d, d):
            raise ValueError(f"rho shape {self.rho.shape} != ({d},{d})")

    def invariant_residuals(self) -> dict:
        """Trace and Hermiticity residuals, and a certified lower bound on
        the smallest eigenvalue of the Hermitian part of rho (equal to the
        dense eigensolve unless rho has low rank)."""
        tr = float(np.trace(self.rho).real)
        herm = self._herm if self._herm is not None else hermiticity_residual(self.rho)
        min_eig = min_eig_lower_bound(self.rho, work=self._scratch, sketch=self.range_sketch())
        return {"trace": abs(tr - 1.0), "hermiticity": herm, "min_eig": min_eig}

    def range_sketch(self) -> tuple | None:
        """``linalg.range_sketch`` of rho, formed in the scratch buffer once
        per rho and shared by ``invariant_residuals`` and
        ``entanglement_entropy``."""
        if self._sketch is None:
            self._sketch = range_sketch(self.rho, work=self._scratch)
        return self._sketch


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


def conjugate_brickwork(rho: np.ndarray, gate: TwoSiteGate, l_r: int,
                        work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(I_chi (x) U_R) rho (I_chi (x) U_R)^dag, one fused block at a time.

    The period's gates are merged by ``_brickwork_blocks``.  A block on
    sites lo..hi-1 acts on the row legs as one batched matmul of its
    q^w x q^w unitary (w = hi - lo; the gate itself when w = 2) on the
    no-copy (chi q^lo, q^w, rest) view of a C-ordered array; the column
    legs are the row legs of the conjugate transpose, so the result is
    (U (U rho)^dag)^dag.  Cost O(q^w D^2) per block with two D x D buffers,
    the pair ``work`` when given (C-contiguous complex128, sharing no memory
    with ``rho`` or each other) and fresh ones otherwise.  The buffers are
    written an even number of times, so the result is ``work[1]``; ``rho``
    is left as it is.
    """
    q = gate.q
    d = rho.shape[0]
    batches = []
    for lo, hi, xs in _brickwork_blocks(q, l_r):
        u = gate.matrix if hi - lo == 2 else \
            _gates_unitary(gate.matrix, q, hi - lo, [x - lo for x in xs])
        # A stride-0 broadcast of the block drops numpy's matmul off BLAS.
        batches.append(np.broadcast_to(u, (d // q ** (l_r - lo),) + u.shape).copy())
    if work is None:
        bufs = [np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)]
    else:
        bufs = [require_buffer(work[0], (d, d), "work[0]", rho),
                require_buffer(work[1], (d, d), "work[1]", rho, work[0])]
    m, k = rho, 0
    for _ in range(2):
        for ub in batches:
            shape = (ub.shape[0], ub.shape[1], -1)
            np.matmul(ub, m.reshape(shape), out=bufs[k].reshape(shape))
            m, k = bufs[k], 1 - k
        np.conjugate(m.T, out=bufs[k])
        m, k = bufs[k], 1 - k
    return m


def initial_joint_state(cfg: EvolutionConfig) -> JointState:
    """rho(0) = |Psi~><Psi~| with |Psi~> = sum_j |j) (x) |Psi_R^j>, unit trace."""
    psi = cfg.right_kets.reshape(-1)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("all right kets are zero")
    psi = psi / nrm
    return JointState(cfg.chi, cfg.q, cfg.l_r, np.outer(psi, psi.conj()), 0)


def step(s: JointState, cfg: EvolutionConfig) -> JointState:
    """One Floquet period: subsystem brickwork, then the boundary channel.

    Trace and Hermiticity are monitored every step (the quantities that can
    drift under repeated products); the spectral positivity residual is
    available through ``invariant_residuals``.

    The period runs in two D x D arrays besides ``s.rho``: one fresh array
    for the result and the scratch buffer taken from ``s`` (allocated on a
    state that has none).  The scratch is cleared on ``s`` and handed on to
    the result, so stepping ``s`` again never shares memory with either
    result.
    """
    scratch, s._scratch = s._scratch, None
    s._sketch = None  # its Q would outlive the diagnostics of s, held through the period
    if scratch is None:
        scratch = np.empty(s.rho.shape, dtype=complex)
    new = np.empty(s.rho.shape, dtype=complex)
    conjugate_brickwork(s.rho, cfg.gate, cfg.l_r, work=(new, scratch))
    rho = apply_channel(cfg.channel, scratch, out=new)
    tr_drift = abs(float(np.trace(rho).real) - 1.0)
    herm_drift = hermiticity_residual(rho)
    if tr_drift > DRIFT_TOL or herm_drift > DRIFT_TOL:
        raise NumericalDriftError(
            f"state invariants drifted: trace {tr_drift:.2e}, hermiticity {herm_drift:.2e}")
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
    r = s.rho.reshape(s.chi, d, s.chi, d)
    return np.einsum('ajak->jk', r)


def entanglement_entropy(s: JointState) -> float:
    """Von Neumann entropy (nats) of the subsystem density matrix.

    When the state's range sketch certifies rank <= k (residual at most
    ``PROBE_RESIDUAL_TOL``), rho ~ Q A Q^dag, so rho_R = sum_a rho[a, :, a, :]
    has its range in the span of the ancilla blocks Q_a of Q: the entropy
    comes from the Ritz values of rho_R on an orthonormal basis W of
    [Q_0, ..., Q_{chi-1}] ((D/chi) x chi k), which ``von_neumann_entropy``
    certifies in turn.  Otherwise it is the dense eigensolve.
    """
    sketch = s.range_sketch()
    basis = None
    if sketch is not None and sketch[2] <= PROBE_RESIDUAL_TOL:
        range_q = sketch[0]
        blocks = range_q.reshape(s.chi, -1, range_q.shape[1]).transpose(1, 0, 2)
        basis, _ = np.linalg.qr(blocks.reshape(blocks.shape[0], -1))
    return von_neumann_entropy(subsystem_density(s), basis=basis)


def local_expectation(s: JointState, site: int, op: np.ndarray) -> float:
    """Tr[rho_R (I (x) ... op ... (x) I)] for a Hermitian one-site operator."""
    if not 0 <= site < s.l_r:
        raise ValueError(f"site {site} out of range for l_r={s.l_r}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (s.q, s.q):
        raise ValueError(f"operator must be {s.q}x{s.q}")
    if not (np.all(np.isfinite(op)) and hermiticity_residual(op) <= 1e-10):  # non-finite: no scan
        raise ValueError("operator must be Hermitian")
    r = s.rho.reshape(s.chi, s.q ** site, s.q, s.q ** (s.l_r - site - 1),
                      s.chi, s.q ** site, s.q, s.q ** (s.l_r - site - 1))
    rho_site = np.einsum('aibjaicj->bc', r)
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
