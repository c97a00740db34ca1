"""Exact continued fractions of hyperquadratic power series over F_p(T)."""

from .cf import (
    ContinuedFraction,
    ScalarCFUndefined,
    matrix_product,
    rational_to_cf,
    running_scalar_cf,
)
from .fields import GF, PrimeField, is_prime
from .laurent import Laurent, rational_series
from .perfect import (
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    FamilyConstants,
    FrobeniusRelation,
    a_sequence,
    expand_from_relation,
    generate_perfect_p11,
    family_constants,
    pq_polynomials,
    power_p_family,
    relation_residual,
    generate_perfect_expansion,
    verify_prop1,
    verify_prop2,
)
from .polynomials import Polynomial, formal_integral
from .quartic import (
    DerivationError,
    ExponentReport,
    PowerVec,
    RelationVerdict,
    alpha_series,
    approximation_exponent,
    beta_quotient_to_alpha,
    derive_frobenius_relation,
    normalize_to_beta,
    power_vectors,
    quartic_index,
    quartic_state,
    series_root_quartic,
    verify_conjecture1,
    verify_conjecture2,
)
from .rootcf import (
    DominanceBroken,
    RootState,
    cf_from_series,
    dominance_holds,
    expand_root,
    step,
)

__version__ = "0.1.0"
