"""solvcirc: solvable brickwork quantum circuits with exact boundary channels.

Builds the gate families satisfying the solvable (spatial-SWAP) condition,
verifies solvability/chirality/soliton structure, constructs the exact
boundary Kraus channel from left initial-state tensors, evolves ancilla +
subsystem in hidden-Markov form, cross-validates against a brute-force chain
oracle, and computes Renyi growth rates through the replica transfer matrix
and the temporal-state duality.
"""
from .channel import (BoundaryChannel, apply_channel, check_cptp,
                      kraus_from_lpdo, kraus_from_mps, kraus_from_two_site)
from .errors import (CapacityError, DominanceError, NumericalDriftError,
                     PositivityError)
from .evolve import (EvolutionConfig, JointState, brickwork_unitary,
                     entanglement_entropy, initial_joint_state, local_expectation,
                     mps_continuation_kets, states, step, subsystem_density)
from .gates import (PauliCoefficients, TwoSiteGate, cartan_gate,
                    gate_both_chirality_q2, gate_both_chirality_q4plus,
                    gate_general, gate_q2_qt1, gate_q2_qt2, is_dual_unitary,
                    pauli_coefficients, random_gate, swap_conjugate, swap_matrix)
from .linalg import (expm_hermitian_generator, haar_unitary, kron, make_rng,
                     renyi_trace, reshuffle, trace_distance, von_neumann_entropy)
from .mps import (Lpdo, MpsTensor, TwoSiteMps, check_left_canonical,
                  check_right_canonical, check_two_site_canonical,
                  ghz_cluster_family, left_block, lpdo_check_canonical,
                  product_state_mps, random_left_canonical, random_lpdo,
                  subspace_dimension, two_site_from_pair)
from .oracle import (ChainSpec, build_initial_chain, evolve_chain,
                     influence_matrix_bruteforce, renyi_trace_chain)
from .renyi import (PairingVector, ReplicaTransferMatrix, entanglement_velocity,
                    pairing_vector, renyi_trace_via_transfer, temporal_renyi_trace,
                    temporal_state_entropy, transfer_matrix)
from .solvable import (SolvabilityReport, build_influence_matrix_open,
                       check_solvable_left, check_solvable_right, check_soliton,
                       solvability_report, verify_im_fixed_point)

__version__ = "0.1.0"
