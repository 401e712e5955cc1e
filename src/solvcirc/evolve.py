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
                     min_eig_lower_bound, range_sketch, sandwich, unit_vector,
                     von_neumann_entropy)
from .mps import Lpdo, MpsTensor, TwoSiteMps, left_block
from .gates import TwoSiteGate
from .solvable import check_solvable_left

SOLVABLE_GATE_TOL = 1e-8
DRIFT_TOL = 1e-8
# Entries of the D x D joint density matrix (D = chi q^L_R) an engine may
# hold; 2^24 is D = 4096.
DENSITY_ENTRY_CAP = 2 ** 24
# _brickwork_rows fuses gates into blocks on w adjacent sites with
# q^w <= BLOCK_LEVEL_CAP: four blocks for a q=2, L_R=10 period, and one gate
# per block at q >= 3.  A cap of 64 conjugated no faster at q = 2.
BLOCK_LEVEL_CAP = 16
# A range state whose channel compresses ancilla (x) site 0 at least this
# much, chi q / r >= 4, applies Y = (I_chi (x) U_R)(W (x) I) as the cached
# D x n gemm (``EvolutionConfig.range_rows``); any other state applies it
# matrix-free (``_traced_conjugation``).  A period by the gemm against
# matrix-free (GHZ cluster, general gate, medians, 2-core Xeon, OpenBLAS): q=4
# 2.3 vs 6.1 ms at D=512 and 65-69 vs 92-102 ms at D=2048; q=3 59-62 vs 64-76
# ms at D=1458; q=2 47-54 vs 34-36 ms at D=1024 and 250-292 vs 147-156 ms at
# D=2048.
_RANGE_MIN_COMPRESSION = 4
# ``_traced_conjugation`` applies Y to blocks of at most D / _PASS_SHARE
# columns, so its two pass arrays hold D^2 / 8 entries together.
_PASS_SHARE = 16


class JointState:
    """Density matrix on ancilla (x) q^{L_R} at integer time t.

    It holds one of two forms, and ``rho`` expands either on each read.  A
    length-D vector psi (no ``w``) is a ket state, rho = psi psi^dag: rho(0)
    is held so (``initial_joint_state``).  With ``w`` (chi q x r) it holds
    sigma on n = r q^{L_R-1} dimensions, rho = (W (x) I) sigma (W (x) I)^dag:
    every state ``step`` returns is held so, in the boundary channel's
    output range.  Privately it caches, for what it holds, the Hermiticity
    residual of ``step``'s drift check, and for the diagnostics the range
    sketch of sigma and W's isometry defect delta: ``invariant_residuals``
    and ``entanglement_entropy`` read both, and S_ent reads rho_R's spectrum
    from the sketch's factor.
    """

    def __init__(self, chi: int, q: int, l_r: int, held: np.ndarray, t: int = 0,
                 w: np.ndarray | None = None):
        self.chi, self.q, self.l_r, self.t = chi, q, l_r, t
        if w is None:
            held = np.asarray(held, dtype=complex)
            if held.shape != (chi * q ** l_r,):
                raise ValueError(f"ket shape {held.shape} != ({chi * q ** l_r},)")
        self._held, self._w, self._herm, self._sketch, self._delta = held, w, None, None, None

    @property
    def rho(self) -> np.ndarray:
        m = self._held
        return np.outer(m, m.conj()) if self._w is None else sandwich(self._w, m)

    def invariant_residuals(self) -> dict:
        """Trace and Hermiticity residuals of the held matrix, and a
        certified lower bound on the smallest eigenvalue of the Hermitian
        part of rho: ``min_eig_lower_bound`` of sigma, with its range sketch,
        less delta ||sigma||_F.

        There rho = S sigma S^dag with S = W (x) I (D x n, D >= n): rho has
        D - n zero eigenvalues, and the others are those of G^(1/2)
        herm(sigma) G^(1/2), G = S^dag S.  By Ostrowski's theorem the k-th is
        theta_k lambda_k(herm sigma), |theta_k - 1| <= delta =
        ||W^dag W - I||_2, and |lambda_k| <= ||sigma||_F, so lambda_min >=
        min(lambda_min(herm sigma), 0) - delta ||sigma||_F.

        A ket state's rho = psi psi^dag is Hermitian and positive
        semidefinite by construction: its residuals are |psi^dag psi - 1|,
        0.0 and 0.0, what the bound gives with its exact sketch.
        """
        m = self._held
        if self._w is None:
            return {"trace": abs(float(np.vdot(m, m).real) - 1.0), "hermiticity": 0.0,
                    "min_eig": 0.0}
        tr = float(np.trace(m).real)
        herm = self._herm if self._herm is not None else hermiticity_residual(m)
        min_eig = min_eig_lower_bound(m, sketch=self.range_sketch())
        min_eig = min(min_eig, 0.0) - self.isometry_defect() * float(np.linalg.norm(m))
        return {"trace": abs(tr - 1.0), "hermiticity": herm, "min_eig": min_eig}

    def isometry_defect(self) -> float:
        """delta = ||W^dag W - I||_2 of a range state's W (0.0 on a ket
        state), formed once per state and shared by ``invariant_residuals``
        and ``entanglement_entropy``."""
        if self._delta is None:
            w = self._w
            self._delta = 0.0 if w is None else \
                float(np.linalg.norm(dagger(w) @ w - np.eye(w.shape[1]), 2))
        return self._delta

    def range_sketch(self) -> tuple | None:
        """``linalg.range_sketch`` of sigma, formed once per state and shared
        by ``invariant_residuals`` and ``entanglement_entropy``.  On a ket
        state it is exact at any D and needs no probe:
        (psi / ||psi|| as D x 1, [[psi^dag psi]], 0.0)."""
        if self._sketch is None:
            m = self._held
            if self._w is None:
                nrm2 = float(np.vdot(m, m).real)
                self._sketch = ((m / np.sqrt(nrm2)).reshape(-1, 1),
                                np.array([[nrm2]], dtype=complex), 0.0)
            else:
                self._sketch = range_sketch(m)
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
        if not resid <= SOLVABLE_GATE_TOL:
            raise ValueError(
                f"gate/left-state pair violates the solvable condition "
                f"(residual {resid:.2e}); the Markov embedding would be unsound")

    @property
    def chi(self) -> int:
        return self.channel.chi

    @property
    def q(self) -> int:
        return self.channel.q

    def range_rows(self) -> np.ndarray:
        """Y'^*, the conjugate of Y = (I_chi (x) U_R)(W (x) I) (D x n,
        W = ``channel.range_basis()``) with its rows grouped by the level s
        of site 0: Y'[(a, x), (s, i)] = Y[(a, s, x), i], (chi m) x (q n) with
        m = q^{L_R-1}.  Built on first use by ``_brickwork_rows`` and cached."""
        if self._y is None:
            chi, q, m = self.chi, self.q, self.q ** (self.l_r - 1)
            wi = np.kron(self.channel.range_basis(), np.eye(m))
            # wi is free after the first block, so it serves as the second buffer
            plan = _brickwork_plan(self.gate, self.l_r, wi.shape[0])
            y = _brickwork_rows(wi, plan, (np.empty_like(wi), wi))
            self._y = np.empty((chi, m, q, y.shape[1]), dtype=complex)
            np.conjugate(y.reshape(chi, q, m, -1).transpose(0, 2, 1, 3), out=self._y)
            self._y = self._y.reshape(chi * m, -1)
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

    Dense q^{L_R} x q^{L_R} reference for ``_brickwork_rows``; the engine
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


def _brickwork_plan(gate: TwoSiteGate, l_r: int, rows: int) -> list[np.ndarray]:
    """The blocks of ``_brickwork_blocks`` as ``_brickwork_rows`` applies them
    to arrays of ``rows`` = chi q^{L_R} rows: each block's q^w x q^w unitary
    (w = hi - lo; the gate itself when w = 2), once for each of the chi q^lo
    row groups above it."""
    q, plan = gate.q, []
    for lo, hi, xs in _brickwork_blocks(q, l_r):
        u = gate.matrix if hi - lo == 2 else \
            _gates_unitary(gate.matrix, q, hi - lo, [x - lo for x in xs])
        # A stride-0 broadcast of the block drops numpy's matmul off BLAS.
        plan.append(np.broadcast_to(u, (rows // q ** (l_r - lo),) + u.shape).copy())
    return plan


def _brickwork_rows(m: np.ndarray, plan: list[np.ndarray],
                    bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(I_chi (x) U_R) m for a C-ordered m with chi q^{L_R} rows, one fused
    block of ``plan`` (``_brickwork_plan``) at a time: the local-gate kernel
    of the engine.

    A block on sites lo..hi-1 is one batched matmul of its q^w x q^w
    unitary on the no-copy (chi q^lo, q^w, rest) view, at a cost of
    O(q^w rows cols).  The products alternate between the two arrays
    ``bufs`` (of m's shape), starting with ``bufs[0]``; the one holding the
    result is returned.
    """
    a, b = bufs
    for ub in plan:
        shape = (ub.shape[0], ub.shape[1], -1)
        np.matmul(ub, m.reshape(shape), out=a.reshape(shape))
        m, a, b = a, b, a
    return m


def initial_joint_state(cfg: EvolutionConfig) -> JointState:
    """rho(0) = |Psi~><Psi~| with |Psi~> = sum_j |j) (x) |Psi_R^j>, unit
    trace, held as the ket |Psi~> (D entries, no D x D array)."""
    psi = unit_vector(cfg.right_kets.reshape(-1), "right kets")
    return JointState(cfg.chi, cfg.q, cfg.l_r, psi, 0)


def _apply_y(cols: np.ndarray, w: np.ndarray, plan: list[np.ndarray],
             bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Y cols for Y = (I_chi (x) U_R)(w (x) I) and an n x c ``cols``: the lift
    by w (one gemm) and ``_brickwork_rows``, in the heads of the two flat
    arrays ``bufs``; the result is a view of one of them."""
    d = w.shape[0] * cols.shape[0] // w.shape[1]
    lifted = bufs[0][:d * cols.shape[1]].reshape(d, cols.shape[1])
    np.matmul(w, cols.reshape(w.shape[1], -1), out=lifted.reshape(w.shape[0], -1))
    return _brickwork_rows(lifted, plan, (bufs[1][:lifted.size].reshape(lifted.shape), lifted))


def _traced_conjugation(held: np.ndarray, w: np.ndarray, gate: TwoSiteGate,
                        l_r: int) -> np.ndarray:
    """Z = Tr_0(Y held Y^dag), Y = (I_chi (x) U_R)(w (x) I), matrix-free.

    A = Y held is kept with its rows regrouped by the level s of site 0, as
    A_s (chi m x n, m = q^{L_R-1}).  Then Z = sum_s A_s Y_s^dag, and the
    rows at level s of Y A_s^dag are Y_s A_s^dag = (A_s Y_s^dag)^dag.  Y is
    applied to blocks of at most D / ``_PASS_SHARE`` columns, so besides A
    and Z the passes hold two arrays of D^2 / ``_PASS_SHARE`` entries.
    """
    q, n, m = gate.q, held.shape[0], gate.q ** (l_r - 1)
    chi = w.shape[0] // q
    d = chi * q * m
    width, plan = max(1, d // _PASS_SHARE), _brickwork_plan(gate, l_r, d)
    bufs = (np.empty(d * width, dtype=complex), np.empty(d * width, dtype=complex))
    a = np.empty((q, chi, m, n), dtype=complex)
    for c0 in range(0, n, width):
        y = _apply_y(np.ascontiguousarray(held[:, c0:c0 + width]), w, plan, bufs)
        a[..., c0:c0 + width] = y.reshape(chi, q, m, -1).transpose(1, 0, 2, 3)
    a = a.reshape(q, chi * m, n)
    z = np.zeros((chi * m, chi * m), dtype=complex)
    for s in range(q):
        for c0 in range(0, chi * m, width):
            y = _apply_y(dagger(a[s, c0:c0 + width]), w, plan, bufs)
            rows = z[c0:c0 + width].reshape(-1, chi, m)
            rows += y.reshape(chi, q, m, -1)[:, s].transpose(2, 0, 1).conj()
    return z


def _period(s: JointState, cfg: EvolutionConfig) -> np.ndarray:
    """sigma' = (W^dag (x) I) M[Y X Y^dag] (W (x) I) for the held X, as one
    ``apply_channel`` of Z = Tr_0(Y X Y^dag) ((D/q) x (D/q)), with
    Y = (I_chi (x) U_R)(W_s (x) I) for the state's W_s.  No D x D array is
    formed unless sigma itself has n = D (an LPDO with r = chi q).

    On a ket state the brickwork runs on the vector, phi = (I_chi (x) U_R)
    psi by ``_brickwork_rows`` on one column, and Z = F F^dag with F = phi
    as (chi m) x q.  Otherwise Y is applied by the cached gemm
    (``range_rows``) when ``s`` holds the config's W and the channel
    compresses ancilla (x) site 0 at least ``_RANGE_MIN_COMPRESSION``-fold:
    A' = Y' X, taken as the conjugate of Y'^* X^*, and Z = A' Y'^dag with
    the rows of Y' grouped by the level of site 0.  Else by
    ``_traced_conjugation``.
    """
    chi, q, m = cfg.chi, cfg.q, cfg.q ** (cfg.l_r - 1)
    w = cfg.channel.range_basis()
    if s._w is None:
        col = s._held.reshape(-1, 1)
        plan = _brickwork_plan(cfg.gate, cfg.l_r, col.shape[0])
        phi = _brickwork_rows(col, plan, (np.empty_like(col), np.empty_like(col)))
        f = phi.reshape(chi, q, m).transpose(0, 2, 1).reshape(chi * m, q)
        z = f @ dagger(f)
    elif s._w is w and chi * q >= _RANGE_MIN_COMPRESSION * w.shape[1]:
        yc = cfg.range_rows()
        a = yc.reshape(-1, s._held.shape[0]) @ s._held.conj()
        np.conjugate(a, out=a)
        z = a.reshape(yc.shape) @ yc.T
    else:
        z = _traced_conjugation(s._held, s._w, cfg.gate, cfg.l_r)
    return apply_channel(cfg.channel, z)


def step(s: JointState, cfg: EvolutionConfig) -> JointState:
    """One Floquet period: subsystem brickwork, then the boundary channel.

    Trace and Hermiticity are monitored every step (the quantities that can
    drift under repeated products); the spectral positivity residual is
    available through ``invariant_residuals``.

    The result is a range state, sigma' with W = ``channel.range_basis()``,
    whatever ``s`` holds; ``s`` is left as it is.  The drift checks run on
    sigma'.
    """
    sigma = _period(s, cfg)
    tr_drift = abs(float(np.trace(sigma).real) - 1.0)
    herm_drift = hermiticity_residual(sigma)
    if not (tr_drift <= DRIFT_TOL and herm_drift <= DRIFT_TOL):
        raise NumericalDriftError(
            f"state invariants drifted: trace {tr_drift:.2e}, hermiticity {herm_drift:.2e}")
    out = JointState(s.chi, s.q, s.l_r, sigma, s.t + 1, w=cfg.channel.range_basis())
    out._herm = herm_drift
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
    """rho_R(t): the ancilla traced out, unit trace.

    On a ket state one einsum over psi and psi^*.  On a range state
    rho_R[b x, c y] = sum Z[b i, c j] sigma[i x, j y] with
    Z[b i, c j] = sum_a W[a b, i] W[a c, j]^*, one gemm per level b of site 0."""
    d = s.q ** s.l_r
    if s._w is None:
        psi = s._held.reshape(s.chi, d)
        return np.einsum('aj,ak->jk', psi, psi.conj())
    w, n = s._w.reshape(s.chi, s.q, -1), d // s.q
    z = np.einsum('abi,acj->bicj', w, w.conj())
    sigma = s._held.reshape(w.shape[2], n, w.shape[2], n)
    rho_r = np.empty((s.q, n, s.q, n), dtype=complex)
    for b in range(s.q):
        rho_r[b] = np.tensordot(z[b], sigma, axes=([0, 2], [0, 2])).transpose(1, 0, 2)
    return rho_r.reshape(d, d)


def entanglement_entropy(s: JointState) -> float:
    """Von Neumann entropy (nats) of the subsystem density matrix.

    On a ket state, psi as M (chi x D/chi) gives rho_R = M^T M^*, whose
    nonzero spectrum is that of the chi x chi Gram matrix M M^dag: the
    entropy is that of the Gram matrix.

    On a range state it is read from the range sketch (Q, A, resid) of
    sigma, sigma ~ Q A Q^dag (Q n x k), when that sketch certifies it.  With
    S = W (x) I, rho' = R A R^dag for R = S Q (D x k), whose ancilla blocks
    R_a ((D/chi) x k) give rho_R' = sum_a R_a A R_a^dag.  One QR of
    [R_1 ... R_chi] = U T ((D/chi) x chi k) makes rho_R' = U B U^dag with
    B = T (I_chi (x) A) T^dag, so rho_R' has B's nonzero spectrum, and the
    entropy is ``von_neumann_entropy(B)`` (chi k x chi k), with its checks.
    The certificate: rho - rho' = S E S^dag with ||E||_F = resid and
    ||S||_2^2 = ||W^dag W||_2 <= 1 + delta (``isometry_defect``), and
    tracing out the ancilla sums chi diagonal blocks, which by
    Cauchy-Schwarz costs at most a factor sqrt(chi) in Frobenius norm.  So
    ||rho_R - rho_R'||_F <= sqrt(chi) (1 + delta) resid, and by Weyl's
    inequality every eigenvalue of rho_R lies that close to one of B padded
    with zeros.  The route is taken when that bound is within
    ``PROBE_RESIDUAL_TOL``; no (D/chi) x (D/chi) array is formed.
    Otherwise (no sketch, or an uncertified one) the entropy is the dense
    eigensolve of ``subsystem_density``.
    """
    if s._w is None:
        m = s._held.reshape(s.chi, -1)
        return von_neumann_entropy(m @ dagger(m))
    sketch = s.range_sketch()
    if sketch is None or not \
            np.sqrt(s.chi) * (1 + s.isometry_defect()) * sketch[2] <= PROBE_RESIDUAL_TOL:
        return von_neumann_entropy(subsystem_density(s))
    q, a, _ = sketch
    k = q.shape[1]
    r = (s._w @ q.reshape(s._w.shape[1], -1)).reshape(s.chi, -1, k)
    t = np.linalg.qr(r.transpose(1, 0, 2).reshape(-1, s.chi * k), mode="r")
    ta = (t.reshape(-1, k) @ a).reshape(t.shape)
    return von_neumann_entropy(ta @ dagger(t))


def local_expectation(s: JointState, site: int, op: np.ndarray) -> float:
    """Tr[rho_R (I (x) ... op ... (x) I)] for a Hermitian one-site operator.

    The one-site matrix is one einsum: over psi and psi^* on a ket state,
    over W, sigma and W^* on a range state."""
    if not 0 <= site < s.l_r:
        raise ValueError(f"site {site} out of range for l_r={s.l_r}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (s.q, s.q):
        raise ValueError(f"operator must be {s.q}x{s.q}")
    if not (np.all(np.isfinite(op)) and hermiticity_residual(op) <= 1e-10):  # non-finite: no scan
        raise ValueError("operator must be Hermitian")
    if s._w is None:
        psi = s._held.reshape(s.chi, s.q ** site, s.q, s.q ** (s.l_r - site - 1))
        rho_site = np.einsum('aibj,aicj->bc', psi, psi.conj())
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
