"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see the lines on success)."""
import time

import numpy as np
import pytest

import solvcirc as sc

FOUR_LN2 = 4 * np.log(2)
FOUR_LN4 = 4 * np.log(4)


def announce(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def product_kets(chi, q, l_r, level):
    ket = np.zeros(q ** l_r, dtype=complex)
    idx = 0
    for _ in range(l_r):
        idx = idx * q + level
    ket[idx] = 1.0
    return np.tile(ket, (chi, 1))


def random_kets(chi, dim, rng):
    kets = rng.standard_normal((chi, dim)) + 1j * rng.standard_normal((chi, dim))
    return kets / np.linalg.norm(kets)


def test_criterion_1_gate_family_soundness():
    t0 = time.perf_counter()
    rng = sc.make_rng(20240101)
    worst = {}

    prod0 = sc.product_state_mps([1, 0])
    worst["q2_qt1"] = max(
        sc.check_solvable_left(sc.random_gate("q2_qt1", rng), prod0)
        for _ in range(100))
    worst["q2_qt2"] = max(
        sc.check_solvable_left(sc.random_gate("q2_qt2", rng),
                               sc.ghz_cluster_family(rng.uniform(0.05, np.pi / 4), 2))
        for _ in range(100))
    worst["general"] = max(
        sc.check_solvable_left(sc.random_gate("general", rng, q=4, qt=2),
                               sc.ghz_cluster_family(rng.uniform(0.05, np.pi / 4), 4))
        for _ in range(100))
    worst["both_chirality_q2"] = max(
        max(sc.check_solvable_left(g, prod0), sc.check_solvable_right(g, prod0))
        for g in (sc.random_gate("both_chirality_q2", rng) for _ in range(100)))
    worst["both_chirality_q4plus"] = max(
        max(sc.check_solvable_left(g, m), sc.check_solvable_right(g, m))
        for g, m in ((sc.random_gate("both_chirality_q4plus", rng, q=4),
                      sc.ghz_cluster_family(rng.uniform(0.05, np.pi / 4), 4))
                     for _ in range(100)))

    haar_fail = sum(sc.check_solvable_left(sc.random_gate("haar", rng), prod0) > 1e-3
                    for _ in range(100))
    elapsed = time.perf_counter() - t0

    ok = all(v < 1e-10 for v in worst.values()) and haar_fail >= 99 and elapsed < 10.0
    detail = (f"worst family residual {max(worst.values()):.2e}, "
              f"{haar_fail}/100 Haar controls rejected, {elapsed:.1f} s")
    announce(1, "gate-family soundness", ok, detail)


def test_criterion_2_cptp():
    rng = sc.make_rng(20240102)
    residuals = []
    for mps in (sc.product_state_mps([1, 0]),
                sc.product_state_mps([0, 1]),
                sc.ghz_cluster_family(np.pi / 16, 4),
                sc.ghz_cluster_family(np.pi / 8, 4),
                sc.ghz_cluster_family(np.pi / 4, 2),
                sc.random_left_canonical(3, 2, rng)):
        residuals.append(sc.check_cptp(sc.kraus_from_mps(mps)))
    for _ in range(3):
        cell = sc.two_site_from_pair(sc.random_left_canonical(2, 2, rng),
                                     sc.random_left_canonical(2, 2, rng))
        residuals.append(sc.check_cptp(sc.kraus_from_two_site(cell)))
    for _ in range(3):
        residuals.append(sc.check_cptp(sc.kraus_from_lpdo(sc.random_lpdo(2, 2, 2, rng))))

    t = sc.ghz_cluster_family(np.pi / 4, 2)
    lp = sc.Lpdo(2, 2, 1, t.mats[:, None])
    pure = sc.kraus_from_mps(t)
    reduced = sc.kraus_from_lpdo(lp)
    d1_match = max(float(np.max(np.abs(a - b)))
                   for a, b in zip(reduced.kraus, pure.kraus))

    ok = max(residuals) < 1e-12 and d1_match < 1e-14
    announce(2, "CPTP", ok,
             f"worst CPTP residual {max(residuals):.2e}, D=1 reduction {d1_match:.2e}")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = sc.make_rng(20240103)

    gate_a = sc.random_gate("q2_qt2", rng)
    mps_a = sc.ghz_cluster_family(np.pi / 4, 2)
    kets_a = random_kets(2, 2 ** 3, rng)
    chain_a = sc.evolve_chain(sc.ChainSpec(gate_a, mps_a, kets_a, 10, 3, 4))
    engine_a = list(sc.states(sc.EvolutionConfig(gate_a, mps_a, kets_a, 3, 4)))
    worst_a = max(sc.trace_distance(c, sc.subsystem_density(s))
                  for c, s in zip(chain_a, engine_a))

    gate_b = sc.random_gate("general", rng, q=4, qt=2)
    mps_b = sc.ghz_cluster_family(0.5, 4)
    kets_b = random_kets(2, 4 ** 2, rng)
    chain_b = sc.evolve_chain(sc.ChainSpec(gate_b, mps_b, kets_b, 6, 2, 2))
    engine_b = list(sc.states(sc.EvolutionConfig(gate_b, mps_b, kets_b, 2, 2)))
    worst_b = max(sc.trace_distance(c, sc.subsystem_density(s))
                  for c, s in zip(chain_b, engine_b))

    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-10 and worst_b < 1e-10 and elapsed < 60.0
    announce(3, "oracle equivalence", ok,
             f"(a) q=2 dressed-SWAP max distance {worst_a:.2e}, "
             f"(b) q=4 general max distance {worst_b:.2e}, {elapsed:.1f} s")


def _saturation_entropies(theta: float, seed: int, tmax: int = 40):
    rng = sc.make_rng(seed)
    gate = sc.random_gate("general", rng, q=4, qt=2)
    mps = sc.ghz_cluster_family(theta, 4)
    cfg = sc.EvolutionConfig(gate, mps, product_kets(2, 4, 4, 2), 4, tmax)
    return [sc.entanglement_entropy(s) for s in sc.states(cfg)]


def test_criterion_4_entropy_saturation():
    thetas = [np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4]
    seeds = [11, 22, 33]

    # theta = pi/4 across three gate seeds: late-time average hits 4 ln 2
    quarter_avgs = []
    for seed in seeds:
        ents = _saturation_entropies(np.pi / 4, seed)
        quarter_avgs.append(float(np.mean(ents[20:41])))
    quarter_ok = all(abs(v - FOUR_LN2) < 1e-3 for v in quarter_avgs)

    # every theta saturates at or below 4 ln 2 and strictly below 4 ln 4,
    # with distinct plateaus below the maximum (qualitative, seed 11)
    plateaus = []
    for theta in thetas:
        ents = _saturation_entropies(theta, seeds[0])
        plateaus.append(float(np.mean(ents[20:41])))
    bounded_ok = all(p <= FOUR_LN2 + 1e-3 and p < FOUR_LN4 for p in plateaus)
    below = plateaus[:-1]
    distinct_ok = (all(p < FOUR_LN2 - 1e-2 for p in below)
                   and all(b - a > 1e-2 for a, b in zip(below, below[1:])))

    ok = quarter_ok and bounded_ok and distinct_ok
    announce(4, "entropy saturation at 4 ln 2", ok,
             f"theta=pi/4 averages {[f'{v:.6f}' for v in quarter_avgs]} "
             f"(target {FOUR_LN2:.6f}), plateaus {[f'{v:.4f}' for v in plateaus]}")


def test_criterion_5_renyi_machinery():
    rng = sc.make_rng(20240105)

    # q=2 both-chirality configs: transfer formula vs brute force, t=1..3
    worst_match = 0.0
    cluster = sc.ghz_cluster_family(np.pi / 4, 2)
    swap = sc.random_gate("swap", rng)
    assert sc.check_solvable_left(swap, cluster) < 1e-12
    assert sc.check_solvable_right(swap, cluster) < 1e-12
    for n in (2, 3):
        for t in (1, 2, 3):
            chain = sc.renyi_trace_chain(swap, cluster, n, t)
            transfer = sc.renyi_trace_via_transfer(cluster, n, t)
            worst_match = max(worst_match, abs(chain - transfer))
    prod0 = sc.product_state_mps([1, 0])
    bc = sc.random_gate("both_chirality_q2", rng)
    for n in (2, 3):
        for t in (1, 2, 3):
            chain = sc.renyi_trace_chain(bc, prod0, n, t)
            transfer = sc.renyi_trace_via_transfer(prod0, n, t)
            worst_match = max(worst_match, abs(chain - transfer))

    # velocities stay inside the lightcone bound
    vs = [sc.entanglement_velocity(m, n)
          for m in (cluster, prod0, sc.ghz_cluster_family(0.5, 4))
          for n in (2, 3)]
    v_ok = all(-1e-8 <= v <= 2 + 1e-8 for v in vs)

    # gate independence: two different both-chirality gates, same tensor
    gi = 0.0
    g1 = sc.random_gate("both_chirality_q2", rng)
    g2 = sc.random_gate("both_chirality_q2", rng)
    assert float(np.max(np.abs(g1.matrix - g2.matrix))) > 1e-3
    for t in (1, 2):
        gi = max(gi, abs(sc.renyi_trace_chain(g1, prod0, 2, t)
                         - sc.renyi_trace_chain(g2, prod0, 2, t)))
    mps4 = sc.ghz_cluster_family(0.5, 4)
    h1 = sc.random_gate("both_chirality_q4plus", rng, q=4)
    h2 = sc.random_gate("both_chirality_q4plus", rng, q=4)
    a = sc.renyi_trace_chain(h1, mps4, 2, 1)
    b = sc.renyi_trace_chain(h2, mps4, 2, 1)
    gi = max(gi, abs(a - b))
    gi = max(gi, abs(a - sc.renyi_trace_via_transfer(mps4, 2, 1)))

    ok = worst_match < 1e-8 and v_ok and gi < 1e-8
    announce(5, "Renyi machinery", ok,
             f"transfer-vs-chain {worst_match:.2e}, v_E range "
             f"[{min(vs):.3f}, {max(vs):.3f}], gate independence {gi:.2e}")


def test_criterion_6_temporal_duality():
    cluster = sc.ghz_cluster_family(np.pi / 4, 2)
    swap = sc.random_gate("swap", sc.make_rng(20240106))
    worst = 0.0
    for t in (1, 2, 3):
        l_r = 2 * t + 2
        kets = sc.mps_continuation_kets(cluster, l_r)
        cfg = sc.EvolutionConfig(swap, cluster, kets, l_r, t)
        s_engine = sc.entanglement_entropy(list(sc.states(cfg))[-1])
        s_temporal = sc.temporal_state_entropy(cluster, t)
        worst = max(worst, abs(s_engine - s_temporal))
    announce(6, "temporal duality", worst < 1e-8,
             f"max |engine - temporal| = {worst:.2e} over t=1..3")


def test_criterion_7_fixed_point():
    rng = sc.make_rng(20240107)
    r1 = sc.verify_im_fixed_point(sc.random_gate("q2_qt2", rng),
                                  sc.ghz_cluster_family(np.pi / 4, 2), 2)
    r2 = sc.verify_im_fixed_point(sc.random_gate("q2_qt1", rng),
                                  sc.product_state_mps([1, 0]), 2)
    r_haar = sc.verify_im_fixed_point(sc.random_gate("haar", rng),
                                      sc.product_state_mps([1, 0]), 2)
    ok = r1 < 1e-10 and r2 < 1e-10 and r_haar > 1e-3
    announce(7, "influence-matrix fixed point", ok,
             f"solvable residuals {r1:.2e}, {r2:.2e}; Haar control {r_haar:.2e}")


def test_criterion_8_cartan_anchor():
    anchor = np.max(np.abs(sc.cartan_gate(np.pi / 4, np.pi / 4, np.pi / 4).matrix
                           - np.exp(-1j * np.pi / 4) * sc.swap_matrix(2)))

    rng = sc.make_rng(20240108)
    norm_dev = 0.0
    for _ in range(100):
        j = rng.uniform(0, np.pi / 2, size=3)
        v = sc.pauli_coefficients(*j).as_array()
        norm_dev = max(norm_dev, abs(float(np.sum(np.abs(v) ** 2)) - 1.0))

    soliton = max(sc.check_soliton(sc.random_gate("q2_qt1", rng))
                  for _ in range(100))

    ok = anchor < 1e-12 and norm_dev < 1e-12 and soliton < 1e-10
    announce(8, "Cartan anchor", ok,
             f"SWAP anchor {anchor:.2e}, coefficient norm dev {norm_dev:.2e}, "
             f"worst soliton residual {soliton:.2e}")
