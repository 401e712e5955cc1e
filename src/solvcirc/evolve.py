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
from .linalg import (hermiticity_residual, kron, min_eig_lower_bound,
                     partial_trace, von_neumann_entropy)
from .mps import Lpdo, MpsTensor, TwoSiteMps, left_block
from .gates import TwoSiteGate
from .solvable import check_solvable_left

SOLVABLE_GATE_TOL = 1e-8
DRIFT_TOL = 1e-8
# Entries of the D x D joint density matrix (D = chi q^L_R) an engine may
# hold; 2^24 is D = 4096.
DENSITY_ENTRY_CAP = 2 ** 24


@dataclass
class JointState:
    """Density matrix on ancilla (x) q^{L_R} at integer time t."""

    chi: int
    q: int
    l_r: int
    rho: np.ndarray
    t: int = 0

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
        herm = hermiticity_residual(self.rho)
        min_eig = min_eig_lower_bound(self.rho)
        return {"trace": abs(tr - 1.0), "hermiticity": herm, "min_eig": min_eig}


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
    q = gate.q
    dim = q ** l_r
    even = np.eye(dim, dtype=complex)
    for x in range(0, l_r - 1, 2):
        even = _embed(gate.matrix, q, l_r, x) @ even
    odd = np.eye(dim, dtype=complex)
    for x in range(1, l_r - 1, 2):
        odd = _embed(gate.matrix, q, l_r, x) @ odd
    return odd @ even


def _embed(u: np.ndarray, q: int, n: int, x: int) -> np.ndarray:
    left = np.eye(q ** x) if x else np.eye(1)
    right = np.eye(q ** (n - x - 2)) if n - x - 2 else np.eye(1)
    return kron(left, u, right)


def conjugate_brickwork(rho: np.ndarray, gate: TwoSiteGate, l_r: int) -> np.ndarray:
    """(I_chi (x) U_R) rho (I_chi (x) U_R)^dag, one two-site gate at a time.

    A gate on sites (x, x+1) acts on the row legs as one batched matmul on
    the no-copy (chi q^x, q^2, rest) view of a C-ordered array; the column
    legs are the row legs of the conjugate transpose, so the result is
    (U (U rho)^dag)^dag.  Cost O(L_R q^2 D^2) with two D x D buffers; ``rho``
    is left as it is.
    """
    q2 = gate.q ** 2
    d = rho.shape[0]
    batches = []
    for x in [*range(0, l_r - 1, 2), *range(1, l_r - 1, 2)]:
        before = d // gate.q ** (l_r - x)
        # A stride-0 broadcast of the gate drops numpy's matmul off BLAS.
        batches.append(np.broadcast_to(gate.matrix, (before, q2, q2)).copy())
    bufs = [np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)]
    m, k = rho, 0
    for _ in range(2):
        for ub in batches:
            shape = (ub.shape[0], q2, -1)
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
    """
    rho = conjugate_brickwork(s.rho, cfg.gate, cfg.l_r)
    rho = apply_channel(cfg.channel, rho)
    out = JointState(s.chi, s.q, s.l_r, rho, s.t + 1)
    tr_drift = abs(float(np.trace(rho).real) - 1.0)
    herm_drift = hermiticity_residual(rho)
    if tr_drift > DRIFT_TOL or herm_drift > DRIFT_TOL:
        raise NumericalDriftError(
            f"state invariants drifted: trace {tr_drift:.2e}, hermiticity {herm_drift:.2e}")
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
    """Von Neumann entropy (nats) of the subsystem density matrix."""
    return von_neumann_entropy(subsystem_density(s))


def local_expectation(s: JointState, site: int, op: np.ndarray) -> float:
    """Tr[rho_R (I (x) ... op ... (x) I)] for a Hermitian one-site operator."""
    if not 0 <= site < s.l_r:
        raise ValueError(f"site {site} out of range for l_r={s.l_r}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (s.q, s.q):
        raise ValueError(f"operator must be {s.q}x{s.q}")
    if not hermiticity_residual(op) <= 1e-10:  # NaN fails too
        raise ValueError("operator must be Hermitian")
    rho_site = partial_trace(subsystem_density(s), [s.q] * s.l_r, [site])
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
