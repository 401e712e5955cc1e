"""Brute-force full-chain simulation: materialize a finite left region plus
the right subsystem, evolve the global brickwork exactly, trace the left, and
certify the hidden-Markov engine.

Global coordinates put the leftmost right-region site at x = 0; bond (0,1) is
even and the boundary-crossing bond (-1,0) is odd, so the crossing gate sits
in the second sublayer of each period.  The left MPS is materialized with its
far bond kept as an explicit chi-dimensional leg (purification), which makes
the chi left-block states exactly orthonormal via the left-canonical identity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .gates import TwoSiteGate
# Gates go through the module-level name _apply_pair: benchmarks/spans.py
# counts oracle gate applications by wrapping it.
from .linalg import apply_two_site as _apply_pair
from .linalg import reduced_density, renyi_trace
from .mps import MpsTensor, left_block

DEFAULT_AMPLITUDE_CAP = 2 ** 20


@dataclass
class ChainSpec:
    """A finite chain: l_left sites of left MPS + l_r right sites.

    ``layer_order`` selects which sublayer acts first within a period
    ("even_first" is the convention pinned by engine agreement); ``purify``
    keeps the far-left bond dangling, otherwise it is closed with the first
    bond basis vector and the strict lightcone margin is enforced.
    """

    gate: TwoSiteGate
    mps: MpsTensor
    right_kets: np.ndarray
    l_left: int
    l_r: int
    tmax: int
    layer_order: str = "even_first"
    purify: bool = True
    cap: int = DEFAULT_AMPLITUDE_CAP
    chi: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        self.q = self.mps.q
        self.chi = self.mps.chi
        if self.gate.q != self.q:
            raise ValueError("gate and MPS disagree on q")
        self.right_kets = np.asarray(self.right_kets, dtype=complex)
        if self.right_kets.shape != (self.chi, self.q ** self.l_r):
            raise ValueError(f"right_kets must have shape ({self.chi}, {self.q ** self.l_r})")
        if self.tmax < 0:
            raise ValueError(f"tmax must be >= 0, got {self.tmax}")
        if self.layer_order not in ("even_first", "odd_first"):
            raise ValueError("layer_order must be 'even_first' or 'odd_first'")
        if self.l_left < 2 * self.tmax:
            raise ValueError(
                f"l_left={self.l_left} is inside the lightcone of {self.tmax} steps")
        if not self.purify and self.l_left < 2 * self.tmax + 2:
            raise ValueError("closed left boundary requires l_left >= 2*tmax + 2")
        amps = (self.chi if self.purify else 1) * self.q ** (self.l_left + self.l_r)
        if amps > self.cap:
            raise CapacityError(f"chain would hold {amps} amplitudes (cap {self.cap})")


def build_initial_chain(spec: ChainSpec) -> np.ndarray:
    """Normalized pure state on (bond leg) (x) q^{l_left} (x) q^{l_r}."""
    block = left_block(spec.mps, spec.l_left)
    if not spec.purify:
        block = block[:1]  # close the far end with the first bond vector
    psi = (block.reshape(-1, spec.chi) @ spec.right_kets).reshape(-1)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("initial chain has zero norm")
    psi /= nrm
    return psi


def _period_sites(l_left: int, l_r: int, layer_order: str = "even_first") -> list[int]:
    """Chain position of the left leg of each gate of one period, in the
    order applied: bonds (x, x+1) for x = -l_left .. l_r - 2, even x and odd
    x as two sublayers; position 0 holds the far bond leg."""
    evens = [x for x in range(-l_left, l_r - 1) if x % 2 == 0]
    odds = [x for x in range(-l_left, l_r - 1) if x % 2 != 0]
    first, second = (evens, odds) if layer_order == "even_first" else (odds, evens)
    return [1 + x + l_left for x in first + second]


def _chain_dims(spec: ChainSpec) -> list[int]:
    bond = spec.chi if spec.purify else 1
    return [bond] + [spec.q] * (spec.l_left + spec.l_r)


def evolve_chain(spec: ChainSpec) -> list[np.ndarray]:
    """rho_R(t) for t = 0..tmax from exact statevector evolution."""
    psi = build_initial_chain(spec)
    dims = _chain_dims(spec)
    sites = _period_sites(spec.l_left, spec.l_r, spec.layer_order)
    dr = spec.q ** spec.l_r
    out = [reduced_density(psi, dr)]
    for _ in range(spec.tmax):
        for p in sites:  # one reference, rebound: a gate holds its input and output
            psi = _apply_pair(psi, spec.gate.matrix, dims, p, p + 1)
        out.append(reduced_density(psi, dr))
    return out


def renyi_trace_chain(gate: TwoSiteGate, mps: MpsTensor, n: int, t: int,
                      l_left: int | None = None, l_r: int | None = None,
                      cap: int = DEFAULT_AMPLITUDE_CAP) -> float:
    """Tr[rho_R(t)^n] on the homogeneous chain with both bonds dangling.

    The chain state is used unnormalized (squared norm chi, the Gram-
    orthonormal block convention), matching the replica transfer-matrix
    boundary pairing normalization.  Both regions need a margin of at least
    2t + 2 sites.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    q, chi = mps.q, mps.chi
    l_left = 2 * t + 2 if l_left is None else l_left
    l_r = 2 * t + 2 if l_r is None else l_r
    if l_left < 2 * t + 2 or l_r < 2 * t + 2:
        raise ValueError("both regions need at least 2t + 2 sites")
    amps = chi * chi * q ** (l_left + l_r)
    if amps > cap:
        raise CapacityError(f"chain would hold {amps} amplitudes (cap {cap})")
    psi = left_block(mps, l_left + l_r).reshape(-1)  # both bond legs dangle
    dims = [chi] + [q] * (l_left + l_r) + [chi]
    sites = _period_sites(l_left, l_r)
    for _ in range(t):
        for p in sites:
            psi = _apply_pair(psi, gate.matrix, dims, p, p + 1)
    return renyi_trace(reduced_density(psi, q ** l_r * chi), n)
