"""Exact irreducible characters of semisimple alternating Hecke algebras.

The package computes, in exact arithmetic over the rational function field
Q(sqrt(-1))(q) extended by the square roots of the q-integers, the
irreducible characters of the fixed-point subalgebra of the Iwahori-Hecke
algebra of type A under the sign-twisted (Goldman) involution.
"""

from .scalars import (
    GaussianRational,
    LaurentPoly,
    RatFunc,
    TowerElem,
    alpha_coeff,
    bar_map,
    p_poly,
    qint,
    specialize_numeric,
)
from .symgroup import Permutation, alt_classes, split_class_reps, w_of_composition
from .combinat import StdTableau, diagonal_hooks, partitions_of, std_tableaux
from .hecke import HeckeElem, a_elem, b_elem, e_elem, hash_inv
from .specht import build_rep, char_T, char_alt, char_split, twisted_trace
from .chars import (
    alt_class_polys,
    char_table,
    class_polys,
    cute_identity,
    equiv_class_check,
    gamma_of_tableau,
    greene_identity,
    split_char_values,
    twisted_char,
    twisted_char_by_tableaux,
    twisted_char_closed,
)

__all__ = [
    "GaussianRational",
    "LaurentPoly",
    "RatFunc",
    "TowerElem",
    "alpha_coeff",
    "bar_map",
    "p_poly",
    "qint",
    "specialize_numeric",
    "Permutation",
    "alt_classes",
    "split_class_reps",
    "w_of_composition",
    "StdTableau",
    "diagonal_hooks",
    "partitions_of",
    "std_tableaux",
    "HeckeElem",
    "a_elem",
    "b_elem",
    "e_elem",
    "hash_inv",
    "build_rep",
    "char_T",
    "char_alt",
    "char_split",
    "twisted_trace",
    "alt_class_polys",
    "char_table",
    "class_polys",
    "cute_identity",
    "equiv_class_check",
    "gamma_of_tableau",
    "greene_identity",
    "split_char_values",
    "twisted_char",
    "twisted_char_by_tableaux",
    "twisted_char_closed",
]

__version__ = "0.1.0"
