"""Ortho-symplectic tableaux of type D and their crystal combinatorics."""

from .alphabet import (Alphabet, Letter, RootIndex, Weight, make_alphabet,
                       parse_root_index, simple_root_delta,
                       simple_root_indices)
from .character import (CharPoly, k_coefficients, s_character, super_schur,
                        verify_pieri, weyl_dim_D)
from .crystal import (CrystalGraph, check_axioms, e_osp, e_pair_bar, explore,
                      f_osp, graph_to_dot, graph_to_json, plan_weight)
from .osptab import (BarPair, OspPair, OspTableauD, RejectError, ShapePlan,
                     SpinColumn, classify_pair, enumerate_tableaux,
                     highest_weight_tuple, is_admissible, lr_split,
                     make_bar_pair, shape_plan, star_split, validate)
from .signature import Signature, sigma_pair
from .tableau import BiwordMatrix, insert_letter, inverse_rsk, make_matrix, rsk

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
