"""Multi-level amplitude damping channels: algebra, classification, capacity."""

from .channel import (TransitionMatrix, apply, channel_map, compose,
                      conjugate_by_swap, decompose_by_level,
                      decompose_single_decays, has_ladder_structure,
                      isolate_decay, kraus_from_gamma,
                      random_transition_matrix)
from .complementary import (complementary_apply, complementary_map,
                            complementary_superops, env_basis, env_dim,
                            env_index)
from .inverse import (adc_inverse, inverse_superops, mad_inverse,
                      single_decay_inverse)
from .maps import LinearMap
from .structure import (ClassificationResult, build_two_extension,
                        capacity_positive_witness, connecting_choi,
                        degrading_map, is_antidegradable, is_degradable,
                        mad_choi_state, mad_choi_states,
                        monotonicity_certificate, two_extension_taus)
from .capacity import (CapacityCertificate, adc_capacity, certify_capacity,
                       coherent_information, diagonal_coherent_information,
                       mad3_acge_verification, max_diagonal_coherent_info,
                       reduce_complete_damping, verify_cd_decomposition)
from .linalg import (hermitian_eigenvalues, is_psd, partial_trace,
                     von_neumann_entropy)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
