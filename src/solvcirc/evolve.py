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


def _brickwork_blocks(q: int, xs: list[int]) -> list[tuple[int, int, list[int]]]:
    """The gates on bonds (x, x+1) for x in ``xs``, applied in that order,
    merged into blocks (lo, hi, bxs): the gates on (x, x+1) for x in bxs,
    applied in that order, act on sites lo..hi-1, with
    q^(hi - lo) <= ``BLOCK_LEVEL_CAP``.

    Each gate joins the earliest block it reaches by passing only blocks on
    sites disjoint from its own (those commute with it) and that stays
    within the cap; otherwise it opens a new block.  Applying the blocks in
    order is the gates one by one.
    """
    blocks: list[tuple[int, int, list[int]]] = []
    for x in xs:
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
            lo, hi, bxs = blocks[target]
            blocks[target] = (min(lo, x), max(hi, x + 2), bxs + [x])
    return blocks


def _brickwork_plan(gate: TwoSiteGate, xs: list[int], lead: int) -> list[np.ndarray]:
    """The blocks of ``_brickwork_blocks(q, xs)`` as ``_brickwork_rows``
    applies them to arrays whose rows are ``lead`` (x) the sites: each
    block's q^w x q^w unitary (w = hi - lo; the gate itself when w = 2),
    once for each of the lead q^lo row groups above it."""
    q, plan = gate.q, []
    for lo, hi, bxs in _brickwork_blocks(q, xs):
        u = gate.matrix if hi - lo == 2 else \
            _gates_unitary(gate.matrix, q, hi - lo, [x - lo for x in bxs])
        # A stride-0 broadcast of the block drops numpy's matmul off BLAS.
        plan.append(np.broadcast_to(u, (lead * q ** lo,) + u.shape).copy())
    return plan


def _brickwork_rows(m: np.ndarray, plan: list[np.ndarray],
                    bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(I_lead (x) U) m for a C-ordered m and the gates U of ``plan``
    (``_brickwork_plan``), one fused block at a time: the local-gate kernel
    of the engine.

    A block on sites lo..hi-1 is one batched matmul of its q^w x q^w
    unitary on the no-copy (lead q^lo, q^w, rest) view, at a cost of
    O(q^w rows cols).  The products alternate between the two arrays
    ``bufs`` (of m's shape), starting with ``bufs[0]``; the one holding the
    result is returned (m itself for an empty plan).
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


def _site0_step(x: np.ndarray, w: np.ndarray, gate: TwoSiteGate) -> np.ndarray:
    """T = Tr_0(G X G^dag), G = (I_chi (x) g (x) I)(w (x) I) with g the gate
    on bond (0, 1), for an n x n X: T = sum_s (H_s (x) I) X (H_s (x) I)^dag
    with H_s = <s|_0 (I_chi (x) g)(w (x) I_q) ((chi q) x (r q)), so
    (D/q) x (D/q), one ``sandwich`` per level s of site 0."""
    q, c, p = gate.q, w.shape[0], w.shape[1] * gate.q
    h = gate.matrix @ np.kron(w, np.eye(q)).reshape(c // q, q * q, p)
    h = h.reshape(c // q, q, q, p).transpose(1, 0, 2, 3).reshape(q, c, p)
    t = sandwich(h[0], x)
    for hs in h[1:]:
        t += sandwich(hs, x)
    return t


def _traced_brickwork(x: np.ndarray, w: np.ndarray, gate: TwoSiteGate,
                      l_r: int) -> np.ndarray:
    """Z = Tr_0(Y X Y^dag) for Y = (I_chi (x) U_R)(w (x) I) and an n x n X,
    as V T V^dag (``_period``): T by ``_site0_step``, then V by two
    ``_brickwork_rows`` passes on row legs, V (V T)^dag and the conjugate
    transpose of that, in T and one more (D/q) x (D/q) array."""
    z = _site0_step(x, w, gate)
    plan = _brickwork_plan(gate, [b - 1 for b in _period_bonds(l_r)[1:]], w.shape[0] // gate.q)
    if plan:
        free = np.empty_like(z)
        for _ in range(2):
            vz = _brickwork_rows(z, plan, (free, z))
            z, free = (free if vz is z else z), vz
            np.conjugate(vz.T, out=z)
        del free, vz
    return z


def _period(s: JointState, cfg: EvolutionConfig) -> np.ndarray:
    """sigma' = (W^dag (x) I) M[Y X Y^dag] (W (x) I) for the held X, as one
    ``apply_channel`` of Z = Tr_0(Y X Y^dag) ((D/q) x (D/q)), with
    Y = (I_chi (x) U_R)(W_s (x) I) for the state's W_s.  No D x D array is
    formed unless sigma itself has n = D (an LPDO with r = chi q).

    On a ket state the brickwork runs on the vector, phi = (I_chi (x) U_R)
    psi by ``_brickwork_rows`` on one column, and Z = F F^dag with F = phi
    as (chi m) x q.  On a range state Tr_0 is pushed through the brickwork
    (``_traced_brickwork``): only the gate g on bond (0, 1) touches site 0,
    so U_R = V g with V the other gates, (2,3),(4,5),... then
    (1,2),(3,4),..., on ancilla (x) sites 1.., and Z = V T V^dag with the
    site-0 step T = Tr_0((I_chi (x) g (x) I)(W_s (x) I) X (...)^dag).
    """
    chi, q, m = cfg.chi, cfg.q, cfg.q ** (cfg.l_r - 1)
    if s._w is None:
        col = s._held.reshape(-1, 1)
        plan = _brickwork_plan(cfg.gate, _period_bonds(cfg.l_r), chi)
        phi = _brickwork_rows(col, plan, (np.empty_like(col), np.empty_like(col)))
        f = phi.reshape(chi, q, m).transpose(0, 2, 1).reshape(chi * m, q)
        z = f @ dagger(f)
    else:
        z = _traced_brickwork(s._held, s._w, cfg.gate, cfg.l_r)
    return apply_channel(cfg.channel, z)


def step(s: JointState, cfg: EvolutionConfig) -> JointState:
    """One Floquet period: subsystem brickwork, then the boundary channel.

    The channel reads its input only through Tr_0, and of the brickwork
    U_R = V g only the gate g on bond (0, 1) touches site 0, so the period
    is M[U_R X U_R^dag] = N(V Tr_0(g X g^dag) V^dag) (``_period``).

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
