"""Exact continued fractions of hyperquadratic power series over F_p(T)."""

from .cf import ContinuedFraction, ScalarCFUndefined, eval_scalar_cf, rational_to_cf
from .fields import GF, ExtElement, PrimeField, is_prime
from .laurent import Laurent, rational_series
from .perfect import (
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    FamilyConstants,
    FrobeniusRelation,
    a_sequence,
    generate_perfect_p11,
    family_constants,
    index_table,
    pq_polynomials,
    power_p_family,
    quartic_index,
    relation_residual,
    generate_perfect_expansion,
    verify_prop1,
    verify_prop2,
)
from .polynomials import (
    NEG_INF,
    Polynomial,
    content,
    formal_derivative,
    formal_integral,
    gcd_monic,
    is_even_polynomial,
    is_odd_polynomial,
    taylor_shift,
)
from .quartic import (
    Conj1Verdict,
    Conj2Verdict,
    DerivationError,
    ExponentReport,
    FrobeniusTrace,
    NormalizedRelation,
    PowerVec,
    approximation_exponent,
    beta_quotient_to_alpha,
    derive_frobenius_relation,
    normalize_to_beta,
    power_vectors,
    verify_conjecture1,
    verify_conjecture2,
)
from .rootcf import (
    DominanceBroken,
    RootState,
    alpha_series,
    cf_from_series,
    dominance_holds,
    expand_quartic_fixed,
    expand_root,
    quartic_state,
    series_root_quartic,
    step,
)

__version__ = "0.1.0"
