"""Exact computations in determinantal rings through their rank factorization.

The quotient by the ideal of (r+1)-minors of a generic m x n matrix embeds
into a polynomial ring by substituting a product of an m x r and an r x n
matrix of fresh variables.  Everything here runs through that substitution:
straightening to standard bitableaux, the cone description of the initial
algebra, counting formulas, and the Cohen-Macaulay/Ulrich classification of
symbolic powers of the two distinguished divisor classes.
"""

from .classify import CertifiedVerdict, Verdict, certify, classify, rank1_mcm_classes
from .cone import (
    ConeSystem,
    build_system,
    conic_equality_check,
    generators_semigroup,
    lattice_points,
    semigroup_points,
    semigroup_vs_cone,
    witness_vector,
)
from .counting import (
    binomial,
    hilbert_function,
    hodge_dim,
    multiplicity,
    mu_power,
    mu_power_direct,
)
from .errors import (
    DetringError,
    InternalCheckError,
    NotInSemigroupError,
    NotStandardError,
    ParameterError,
    ParseError,
    SpaceMismatchError,
)
from .generic_point import (
    SubstitutionMap,
    decode_standard,
    eval_bitableau,
    initial_monomial_closed_form,
    minor_polynomial,
    phi,
)
from .invariants import (
    generators_R_tilde,
    ladder_variable_set,
    verify_D_tilde,
    verify_ladder,
)
from .poly import (
    Poly,
    XSpace,
    YZSpace,
    format_monomial,
    format_poly,
    parse_polynomial,
)
from .straighten import StandardCombination, is_in_ideal, straighten
from .tableaux import (
    Bitableau,
    Minor,
    Parameters,
    all_minors,
    enumerate_standard,
    generators_gamma,
    is_standard,
    minor_leq,
    parse_bitableau,
    parse_minor,
)

__version__ = "0.1.0"
