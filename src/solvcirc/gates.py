"""Two-site gate constructors: Cartan form, the solvable families, chirality
transforms and structural checkers.

Basis convention: the two-site basis index is a*q + b for |a> (x) |b>, the
first factor being the left site.  SWAP acts as S|c,d> = |d,c>.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (PAULI, expm_hermitian_generator, haar_unitary,
                     isometry_residual, kron, max_abs, reshuffle, unitarity_residual)

UNITARY_ATOL = 1e-10


@dataclass
class TwoSiteGate:
    """A q^2 x q^2 unitary with construction metadata."""

    q: int
    matrix: np.ndarray
    family: str = "custom"
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.q * self.q, self.q * self.q):
            raise ValueError(f"gate matrix shape {self.matrix.shape} does not match q={self.q}")
        resid = unitarity_residual(self.matrix)
        if resid > UNITARY_ATOL:
            raise ValueError(f"gate is not unitary (residual {resid:.2e})")


@dataclass(frozen=True)
class PauliCoefficients:
    """Coefficients of V[J1,J2,J3] on the basis sigma^a (x) sigma^a."""

    v0: complex
    v1: complex
    v2: complex
    v3: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.v0, self.v1, self.v2, self.v3])


def swap_matrix(q: int) -> np.ndarray:
    s = np.zeros((q * q, q * q), dtype=complex)
    for a in range(q):
        for b in range(q):
            s[b * q + a, a * q + b] = 1.0
    return s


def pauli_coefficients(j1: float, j2: float, j3: float) -> PauliCoefficients:
    """Closed-form Pauli-basis coefficients of the Cartan kernel.

    V[J1,J2,J3] = sum_a V_a sigma^a (x) sigma^a with
    V_0 = c1 c2 c3 - i s1 s2 s3 and cyclic cos/sin mixtures for V_1..V_3.
    """
    c = np.cos([j1, j2, j3])
    s = np.sin([j1, j2, j3])
    return PauliCoefficients(
        v0=c[0] * c[1] * c[2] - 1j * s[0] * s[1] * s[2],
        v1=c[0] * s[1] * s[2] - 1j * s[0] * c[1] * c[2],
        v2=s[0] * c[1] * s[2] - 1j * c[0] * s[1] * c[2],
        v3=s[0] * s[1] * c[2] - 1j * c[0] * c[1] * s[2],
    )


def cartan_gate(j1: float, j2: float, j3: float) -> TwoSiteGate:
    """V[J1,J2,J3] = exp[-i (J1 XX + J2 YY + J3 ZZ)] on two qubits."""
    h = (j1 * kron(PAULI[1], PAULI[1]) + j2 * kron(PAULI[2], PAULI[2])
         + j3 * kron(PAULI[3], PAULI[3]))
    m = expm_hermitian_generator(h)
    return TwoSiteGate(2, m, "cartan", {"j1": j1, "j2": j2, "j3": j3})


def _check_unitary_arg(u: np.ndarray, dim: int, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {u.shape}")
    if unitarity_residual(u) > UNITARY_ATOL:
        raise ValueError(f"{name} is not unitary")
    return u


def gate_q2_qt1(phi: float, eps: float, eta: float, j: float,
                u: np.ndarray, v: np.ndarray, seed: int | None = None) -> TwoSiteGate:
    """The q=2 family solvable against a one-site product state.

    U = e^{i phi} (u (x) e^{-i eps Z}) V[pi/4, pi/4, J] (e^{-i eta Z} (x) v).
    These gates are dual unitary and carry a right-moving Z soliton.
    """
    u = _check_unitary_arg(u, 2, "u")
    v = _check_unitary_arg(v, 2, "v")
    core = cartan_gate(np.pi / 4, np.pi / 4, j).matrix
    zrot = lambda a: expm_hermitian_generator(a * PAULI[3])
    m = np.exp(1j * phi) * kron(u, zrot(eps)) @ core @ kron(zrot(eta), v)
    return TwoSiteGate(2, m, "q2_qt1",
                       {"phi": phi, "eps": eps, "eta": eta, "j": j, "u": u, "v": v}, seed)


def gate_q2_qt2(phi: float, u: np.ndarray, seed: int | None = None) -> TwoSiteGate:
    """Dressed SWAP, solvable against any q=2 left tensor: e^{i phi}(u (x) I) S."""
    u = _check_unitary_arg(u, 2, "u")
    m = np.exp(1j * phi) * kron(u, np.eye(2)) @ swap_matrix(2)
    return TwoSiteGate(2, m, "q2_qt2", {"phi": phi, "u": u}, seed)


def gate_general(q: int, qt: int, phi: float, v: np.ndarray,
                 g: Sequence[np.ndarray], f2: Sequence[np.ndarray],
                 seed: int | None = None) -> TwoSiteGate:
    """Controlled-SWAP family solvable against a left tensor spanning the
    first ``qt`` levels:  U = e^{i phi} W2 S W1 (I (x) v).

    W_k = sum_a f_k^(a) (x) |a><a| with f1^(a) = I_qt (+) g^(a).  The W2
    blocks must coincide on the control values below ``qt`` (the control wire
    carries the protected subspace there); we require f2[a] == f2[0] for
    a < qt and reject inputs violating this.
    """
    if not 1 <= qt <= q:
        raise ValueError(f"need 1 <= qt <= q, got qt={qt}, q={q}")
    v = _check_unitary_arg(v, q, "v")
    g = [np.asarray(m, dtype=complex) for m in g]
    f2 = [np.asarray(m, dtype=complex) for m in f2]
    if len(g) != q or len(f2) != q:
        raise ValueError("g and f2 must each provide one block per control value")
    w1 = np.zeros((q * q, q * q), dtype=complex)
    w2 = np.zeros((q * q, q * q), dtype=complex)
    for a in range(q):
        f1a = np.eye(q, dtype=complex)
        if qt < q:
            f1a[qt:, qt:] = _check_unitary_arg(g[a], q - qt, f"g[{a}]")
        f2a = _check_unitary_arg(f2[a], q, f"f2[{a}]")
        if a < qt and max_abs(f2a - f2[0]) > 1e-12:
            raise ValueError("f2 blocks must agree on control values a < qt")
        proj = np.zeros((q, q), dtype=complex)
        proj[a, a] = 1.0
        w1 += kron(f1a, proj)
        w2 += kron(f2a, proj)
    m = np.exp(1j * phi) * w2 @ swap_matrix(q) @ w1 @ kron(np.eye(q), v)
    return TwoSiteGate(q, m, "general",
                       {"qt": qt, "phi": phi, "v": v, "g": g, "f2": f2}, seed)


def gate_both_chirality_q2(phi: float, eps: float, epsp: float, eta: float,
                           etap: float, j3: float, seed: int | None = None) -> TwoSiteGate:
    """q=2 gates satisfying the solvable condition in both chiralities
    against one-site product tensors:

    U = e^{i phi} (e^{-i eps' Z} (x) e^{-i eps Z}) V[pi/4, pi/4, J3]
        (e^{-i eta Z} (x) e^{-i eta' Z}).
    """
    zrot = lambda a: expm_hermitian_generator(a * PAULI[3])
    core = cartan_gate(np.pi / 4, np.pi / 4, j3).matrix
    m = np.exp(1j * phi) * kron(zrot(epsp), zrot(eps)) @ core @ kron(zrot(eta), zrot(etap))
    return TwoSiteGate(2, m, "both_chirality_q2",
                       {"phi": phi, "eps": eps, "epsp": epsp, "eta": eta,
                        "etap": etap, "j3": j3}, seed)


def _check_block_i2(w: np.ndarray, q: int, name: str) -> np.ndarray:
    """Validate an I_2 (+) w block unitary of total size q."""
    m = np.asarray(w, dtype=complex)
    if m.shape == (q, q):
        if max_abs(m[:2, :2] - np.eye(2)) > 1e-12 or max_abs(m[:2, 2:]) > 1e-12 \
                or max_abs(m[2:, :2]) > 1e-12:
            raise ValueError(f"{name} must have the form I_2 (+) w")
        _check_unitary_arg(m[2:, 2:], q - 2, name)
        return m
    w = _check_unitary_arg(m, q - 2, name)
    full = np.eye(q, dtype=complex)
    full[2:, 2:] = w
    return full


def gate_both_chirality_q4plus(q: int, phi: float, uplus: np.ndarray, uminus: np.ndarray,
                               vplus: np.ndarray, vminus: np.ndarray, h: np.ndarray,
                               seed: int | None = None) -> TwoSiteGate:
    """Gates solvable in both chiralities against a left tensor spanning
    levels {0, 1}, for q >= 3:

    U = e^{i phi} (u+ (x) u-) S exp(-i H) (v- (x) v+),

    where u/v are I_2 (+) w block unitaries and H is a real symmetric q x q
    coupling table, zero whenever either index is 0 or 1.  exp(-i H) acts on
    the two-site space as the diagonal phase gate
    sum_{a,b} e^{-i H_ab} |a,b><a,b| (this embedding is verified numerically
    to satisfy both chirality conditions).
    """
    if q < 3:
        raise ValueError("family defined for q >= 3")
    h = np.asarray(h)
    if np.iscomplexobj(h):
        if np.any(h.imag != 0):  # NaN fails too
            raise ValueError("h must be real")
        h = h.real
    h = np.asarray(h, dtype=float)
    if h.shape != (q, q):
        raise ValueError(f"h must be {q}x{q}")
    if max_abs(h - h.T) > 1e-12:
        raise ValueError("h must be symmetric")
    if max_abs(h[:2, :]) > 0 or max_abs(h[:, :2]) > 0:
        raise ValueError("h rows/columns 0 and 1 must vanish")
    up = _check_block_i2(uplus, q, "uplus")
    um = _check_block_i2(uminus, q, "uminus")
    vp = _check_block_i2(vplus, q, "vplus")
    vm = _check_block_i2(vminus, q, "vminus")
    coupling = np.diag(np.exp(-1j * h.reshape(-1)))
    m = np.exp(1j * phi) * kron(up, um) @ swap_matrix(q) @ coupling @ kron(vm, vp)
    return TwoSiteGate(q, m, "both_chirality_q4plus",
                       {"phi": phi, "uplus": up, "uminus": um, "vplus": vp,
                        "vminus": vm, "h": h}, seed)


def swap_conjugate(gate: TwoSiteGate) -> TwoSiteGate:
    """S U S: maps solutions of one chirality onto the other."""
    s = swap_matrix(gate.q)
    return TwoSiteGate(gate.q, s @ gate.matrix @ s, f"swap_conj({gate.family})",
                       dict(gate.params), gate.seed)


def is_dual_unitary(gate: TwoSiteGate) -> float:
    """Residual ||(U^R)^dag U^R - I||_max; ~0 declares the gate dual unitary."""
    return isometry_residual(reshuffle(gate.matrix, gate.q))


# Families a config may give by explicit parameters: the builder and the
# names of its positional arguments.  "q" and "qt" are integers of the gate
# spec itself; every other name is a key of its params.
EXPLICIT_FAMILIES = {
    "cartan": (cartan_gate, ("j1", "j2", "j3")),
    "q2_qt1": (gate_q2_qt1, ("phi", "eps", "eta", "j", "u", "v")),
    "q2_qt2": (gate_q2_qt2, ("phi", "u")),
    "general": (gate_general, ("q", "qt", "phi", "v", "g", "f2")),
    "both_chirality_q2": (gate_both_chirality_q2,
                          ("phi", "eps", "epsp", "eta", "etap", "j3")),
    "both_chirality_q4plus": (gate_both_chirality_q4plus,
                              ("q", "phi", "uplus", "uminus", "vplus", "vminus", "h")),
}


def random_gate(family: str, rng: np.random.Generator, q: int = 2, qt: int = 2,
                seed: int | None = None) -> TwoSiteGate:
    """Draw a random member of a named family (Haar blocks, uniform angles)."""
    two_pi = 2 * np.pi
    if family == "q2_qt1":
        return gate_q2_qt1(rng.uniform(0, two_pi), rng.uniform(0, two_pi),
                           rng.uniform(0, two_pi), rng.uniform(0, np.pi / 2),
                           haar_unitary(2, rng), haar_unitary(2, rng), seed)
    if family == "q2_qt2":
        return gate_q2_qt2(rng.uniform(0, two_pi), haar_unitary(2, rng), seed)
    if family == "general":
        g = [haar_unitary(q - qt, rng) if qt < q else np.eye(0) for _ in range(q)]
        shared = haar_unitary(q, rng)
        f2 = [shared if a < qt else haar_unitary(q, rng) for a in range(q)]
        return gate_general(q, qt, rng.uniform(0, two_pi), haar_unitary(q, rng), g, f2, seed)
    if family == "both_chirality_q2":
        ang = rng.uniform(0, two_pi, size=5)
        return gate_both_chirality_q2(ang[0], ang[1], ang[2], ang[3], ang[4],
                                      rng.uniform(0, np.pi / 2), seed)
    if family == "both_chirality_q4plus":
        h = np.zeros((q, q))
        sub = rng.standard_normal((q - 2, q - 2))
        h[2:, 2:] = (sub + sub.T) / 2
        blocks = [haar_unitary(q - 2, rng) for _ in range(4)]
        return gate_both_chirality_q4plus(q, rng.uniform(0, two_pi), *blocks, h, seed)
    if family == "haar":
        return TwoSiteGate(q, haar_unitary(q * q, rng), "haar", {}, seed)
    if family == "swap":
        return TwoSiteGate(q, swap_matrix(q), "swap", {}, seed)
    raise ValueError(f"unknown gate family '{family}'")
