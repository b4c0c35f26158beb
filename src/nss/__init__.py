"""Non-semisimple Ising-type anyon model: categorical data, indefinite
fusion-tree spaces, pseudo-unitary braid representations, and iterative
low-leakage entangling-gate construction."""

from .errors import (EmptyBasis, IntegerAlpha, LeakyPermutation, ModelError,
                     NotBlockDiagonal, PrecisionExhausted, SingularParameter,
                     UnsupportedFamily, UnsupportedPair, UnsupportedTriple)
from .labels import (ALPHA, P2, PSI, S32, SIGMA, VACUUM, ModelParams, QLabel,
                     alpha_label, parse_label, parse_leaves)
from .anyon import (bubble_pop, f_matrix, fuse, model_dump,
                    modified_dimension, pentagon_sweep, q_power, r_symbol,
                    s_sign, t_sign)
from .spaces import (ControlBasis, FusionTree, IndefSpace, QubitCode,
                     control_basis_transform, enumerate_basis, qubit_space,
                     tree_norm_sign)
from .braids import (BraidMatrix, BraidWord, block_decompose, evaluate_word,
                     generator_matrix, matrix_order, pseudo_unitarity_defect,
                     wrap_closed_form, exchange_closed_form, SPECIAL_UNITARY_PHASES)
from .gates import (LOW_LEAKAGE_WORD, W_WORD, D_WORD, LeakageReport,
                    SearchHit, build_D, build_W, controlled_gate,
                    leakage_norms, operator_schmidt_rank, psi_sector,
                    reichardt_iterate, reichardt_step, search_low_leakage,
                    vacuum_sector_matrix)
from .verify import CheckResult, failures, run_all

__version__ = "0.1.0"
