"""Brute-force full-chain simulation: materialize a finite left region plus
the right subsystem, evolve the global brickwork exactly, trace the left, and
certify the hidden-Markov engine; the same period loop on the left region
alone, with probe pairs on the crossing legs, gives the influence matrix.

Global coordinates put the leftmost right-region site at x = 0; bond (0,1) is
even and the boundary-crossing bond (-1,0) is odd, so the crossing gate sits
in the second sublayer of each period.  The left MPS is materialized with its
far bond kept as an explicit chi-dimensional leg (purification), which makes
the chi left-block states exactly orthonormal via the left-canonical identity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .gates import TwoSiteGate
from .linalg import reduced_density, renyi_trace, unit_vector
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
    return unit_vector(psi, "initial chain", out=psi)


def _period_sites(l_left: int, l_r: int, layer_order: str = "even_first") -> list[int]:
    """Chain position of the left leg of each gate of one period, in the
    order applied: bonds (x, x+1) for x = -l_left .. l_r - 2, even x and odd
    x as two sublayers; position 0 holds the far bond leg."""
    evens = [x for x in range(-l_left, l_r - 1) if x % 2 == 0]
    odds = [x for x in range(-l_left, l_r - 1) if x % 2 != 0]
    first, second = (evens, odds) if layer_order == "even_first" else (odds, evens)
    return [1 + x + l_left for x in first + second]


# Gates go through the module-level name _apply_pair, the whole state first:
# benchmarks/spans.py counts oracle gate applications by wrapping it.
def _apply_pair(psi: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The gate u on the two leading legs of psi (their dimensions multiply
    to u's order) as one gemm into ``out``, the pair as its trailing legs."""
    d2 = u.shape[0]
    np.matmul(psi.reshape(d2, -1).T, u.T, out=out.reshape(-1, d2))
    return out


def _periods(psi: np.ndarray, u: np.ndarray, dims: list[int], sites: list[int],
             t: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """t brickwork periods of the gate u on legs (p, p + 1), p in ``sites``
    in order, on psi with legs ``dims``: yields (state, idle) before the
    first period and after each.

    The state is held in a cyclic leg frame, the canonical legs rotated left
    by an offset r, so the gate on legs (r, r + 1) is one gemm that writes
    the pair to the back (r -> r + 2).  A sublayer of consecutive pairs costs
    one rotation (a 2-D transposing copy) and a gemm a gate; a period ends
    rotated back to offset 0.  psi (overwritten) and one idle buffer swap
    roles at each step, so the loop holds two states.
    """
    n, idle = len(dims), np.empty_like(psi)
    yield psi, idle
    for _ in range(t):
        r = 0
        for p in sites + [n]:  # offset n = 0 ends the period
            lead = prod((dims + dims)[r:r + (p - r) % n])  # legs r .. p - 1, cyclically
            if lead > 1:
                np.copyto(idle.reshape(-1, lead), psi.reshape(lead, -1).T)
                psi, idle = idle, psi
            if p < n:
                psi, idle = _apply_pair(psi, u, idle), psi
                r = (p + 2) % n
        yield psi, idle


def evolve_chain(spec: ChainSpec) -> list[np.ndarray]:
    """rho_R(t) for t = 0..tmax from exact statevector evolution."""
    psi = build_initial_chain(spec)
    dims = [spec.chi if spec.purify else 1] + [spec.q] * (spec.l_left + spec.l_r)
    sites = _period_sites(spec.l_left, spec.l_r, spec.layer_order)
    dr = spec.q ** spec.l_r
    return [reduced_density(state, dr, work=idle)
            for state, idle in _periods(psi, spec.gate.matrix, dims, sites, spec.tmax)]


def renyi_chain_density(gate: TwoSiteGate, mps: MpsTensor, t: int,
                        l_left: int | None = None, l_r: int | None = None,
                        cap: int = DEFAULT_AMPLITUDE_CAP) -> np.ndarray:
    """rho_R(t) (R with its far bond leg) on the homogeneous chain with both
    bonds dangling, its state unnormalized (squared norm chi, the Gram-
    orthonormal block convention) to match the replica transfer matrix's
    boundary pairing.  Both regions need a margin of at least 2t + 2 sites.
    """
    q, chi = mps.q, mps.chi
    if gate.q != q:
        raise ValueError(f"gate q={gate.q} does not match tensor q={q}")
    l_left = 2 * t + 2 if l_left is None else l_left
    l_r = 2 * t + 2 if l_r is None else l_r
    if l_left < 2 * t + 2 or l_r < 2 * t + 2:
        raise ValueError("both regions need at least 2t + 2 sites")
    amps = chi * chi * q ** (l_left + l_r)
    if amps > cap:
        raise CapacityError(f"chain would hold {amps} amplitudes (cap {cap})")
    psi = left_block(mps, l_left + l_r).reshape(-1)  # both bond legs dangle
    dims = [chi] + [q] * (l_left + l_r) + [chi]
    *_, (psi, idle) = _periods(psi, gate.matrix, dims, _period_sites(l_left, l_r), t)
    return reduced_density(psi, q ** l_r * chi, work=idle)


def renyi_trace_chain(gate: TwoSiteGate, mps: MpsTensor, n: int, t: int,
                      l_left: int | None = None, l_r: int | None = None,
                      cap: int = DEFAULT_AMPLITUDE_CAP) -> float:
    """Tr[rho_R(t)^n] of ``renyi_chain_density``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return renyi_trace(renyi_chain_density(gate, mps, t, l_left, l_r, cap), n)


def influence_matrix_bruteforce(u: TwoSiteGate, a: MpsTensor, tsteps: int,
                                l_left: int | None = None) -> np.ndarray:
    """The open-bond influence matrix (axes of
    ``solvable.build_influence_matrix_open``) from a finite left chain, with
    no use of the closed form.  The chain [far, sites -l_left..-1, cut] runs
    ``_periods`` a period at a time, each after inserting an unnormalized
    probe pair sum_s |ss> right after site -1, whose first leg the crossing
    gate takes as site 0; the IM is the reduced density of the probes and
    the cut bond, legs reversed.  l_left (default 2 tsteps + 2) must cover
    the light cone, 2 tsteps, and the chain's chi^2 q^(l_left + 2 tsteps)
    amplitudes (no fewer than the IM's entries) fit DEFAULT_AMPLITUDE_CAP."""
    q, chi = a.q, a.chi
    if u.q != q:
        raise ValueError(f"gate q={u.q} does not match tensor q={q}")
    if tsteps < 0:
        raise ValueError(f"tsteps must be >= 0, got {tsteps}")
    l_left = 2 * tsteps + 2 if l_left is None else l_left
    if l_left < 2 * tsteps:
        raise ValueError(f"l_left={l_left} is inside the lightcone of {tsteps} steps")
    amps = chi * chi * q ** (l_left + 2 * tsteps)
    if amps > DEFAULT_AMPLITUDE_CAP:
        raise CapacityError(f"chain would hold {amps} amplitudes (cap {DEFAULT_AMPLITUDE_CAP})")
    psi, pair = left_block(a, l_left), np.eye(q).reshape(1, -1, 1)
    sites = _period_sites(l_left, 1)
    for k in range(tsteps):
        psi = psi.reshape(chi * q ** l_left, 1, -1) * pair
        dims = [chi] + [q] * (l_left + 2 * k + 2) + [chi]
        *_, (psi, _) = _periods(psi.reshape(-1), u.matrix, dims, sites, 1)
    # legs [period T's pair (site 0, partner), ..., period 1's pair, cut]
    nleg = 2 * tsteps + 1
    rho = reduced_density(psi, chi * q ** (2 * tsteps)).reshape(([q] * (nleg - 1) + [chi]) * 2)
    rho = rho.transpose([j for i in reversed(range(nleg)) for j in (i, nleg + i)])
    return rho.reshape((chi * chi,) + (q * q,) * (2 * tsteps))
