"""Analysis of the quartic x^4 + x^2 - T*x - 1/12 over F_p.

alpha denotes the reciprocal of the quartic's unique large-root power
series; it satisfies alpha^4 = -12(T*alpha^3 - alpha^2 - 1), so every
power alpha^n has an exact representation in the basis (alpha^3, alpha^2,
alpha, 1) with polynomial coordinates.  This module is all the library
knows of the quartic: alpha's root state for the generic engine expand_root,
its series for the generic oracle cf_from_series, the index formula of its
perfect expansion, and the routes by which it is expanded (alpha_expansion:
past l quotients, from the derived relation) and its exponent measured.

derive_frobenius_relation extracts, purely by exact arithmetic, the relation

    alpha^r = eps1 * (T^2+a)^k' * alpha_{l+1} + eps2 * Q_{k,a}(T^(r/p)),

with r = p and (l, k', k) = ((p-1)/2, (p-1)/3, (p-1)/3) for p = 1 mod 3,
and r = p^2 and (l, k', k) = ((p+1)^2/3, (p^2-1)/3, (p+1)/3) for
p = 2 mod 3, from the basis coordinates of alpha^r and alpha^(r+1) that
frobenius_vectors reaches by Frobenius powering, its l quotients included.
Its result and both conjecture verdicts are one record, RelationVerdict.
For p = 1 mod 3, normalize_to_beta rescales by v = sqrt(-a) to the
normalized family, after which the expansion is a perfect expansion and
its generator can be cross-checked against the direct root expansion.
Every quotient rescaled is odd, so only even powers of v occur: the
rescaling is arithmetic in F_p on s = v^2 = -a alone.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from .cf import ContinuedFraction
from .fields import GF, PrimeField
from .laurent import Laurent, divide
from .perfect import (
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    FrobeniusRelation,
    InsufficientExpansion,
    expand_from_relation,
    pq_polynomials,
    power_p_family,
    relation_residual,
    generate_perfect_expansion,
)
from .polynomials import Polynomial
from .rootcf import RootState, expand_root


def quartic_state(field: PrimeField) -> RootState:
    """State for -X^4/12 - T*X^3 + X^2 + 1, the inverse-root form of the
    quartic x^4 + x^2 - T*x - 1/12; its unique large root is alpha = 1/u."""
    if field.p < 5:
        raise ValueError("the quartic needs p >= 5")
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    u = Polynomial.constant(field, field.embed_rational(-1, 12))
    return RootState((one, zero, one, -Polynomial.x(field), u))  # ascending in X


def series_root_quartic(field: PrimeField, terms: int) -> Laurent:
    """Power series of the small root u = -1/(12T) + ... of the quartic.

    Coefficients follow from u = (u^4 + u^2 - 1/12)/T: with u = sum c_k T^-k,
    c_1 = -1/12 and c_{m+1} = [T^-m](u^2 + u^4) for m >= 1.  Only odd
    indices are ever nonzero (the root is an odd function of T).
    """
    if field.p < 5:
        raise ValueError("the quartic needs p >= 5")
    if terms < 1:
        raise ValueError("need at least one series term")
    p = field.p
    c = [0] * (terms + 1)  # c[k] is the coefficient of T^-k
    c[1] = field.embed_rational(-1, 12)
    u2 = [0] * (terms + 1)  # u2[m] = [T^-m] u^2
    u4 = [0] * (terms + 1)
    for m in range(1, terms):
        s2 = 0
        for i in range(1, m):
            s2 += c[i] * c[m - i]
        u2[m] = s2 % p
        s4 = 0
        for r in range(2, m - 1):
            s4 += u2[r] * u2[m - r]
        u4[m] = s4 % p
        c[m + 1] = (u2[m] + u4[m]) % p
    # ascending from T^-terms up to T^-1
    return Laurent(Polynomial(field, c[:0:-1]), -terms, -terms - 1)


def alpha_series(field: PrimeField, floor: int) -> Laurent:
    """Series of alpha = 1/u down to the floor."""
    terms = max(2, 1 - (floor - 2) - 1)  # u needs floor - 2 per division error bound
    u = series_root_quartic(field, terms)
    one = Laurent.from_polynomial(Polynomial.one(field))
    return divide(one, u).truncate(floor)


def relation_k(p: int) -> Optional[int]:
    """k = (p-1)/3 of the degree-p relation's P = (T^2+a)^k for p = 1 mod 3;
    None for any other p, which has no such relation."""
    return (p - 1) // 3 if p % 3 == 1 else None


def quartic_index(p: int, n: int) -> int:
    """i(n) for the quartic's expansion at p = 1 mod 3: the exact power of
    (2p+1)/3 dividing (p-1)(4n-1)/6."""
    if p % 3 != 1:
        raise ValueError(f"index formula needs p = 1 mod 3, got p = {p}")
    if n < 1:
        raise ValueError("index is defined for n >= 1")
    m = (2 * p + 1) // 3
    val = (p - 1) * (4 * n - 1) // 6
    count = 0
    while val % m == 0:
        val //= m
        count += 1
    return count


class PowerVec(NamedTuple):
    """alpha^n = a*alpha^3 + b*alpha^2 + c*alpha + d."""

    a: Polynomial
    b: Polynomial
    c: Polynomial
    d: Polynomial


def _alpha_step(field: PrimeField, vec: PowerVec) -> PowerVec:
    # alpha * (a A^3 + b A^2 + c A + d) with A^4 = -12T A^3 + 12 A^2 + 12
    mT = Polynomial(field, [0, -12])  # -12T
    return PowerVec(
        vec.b + mT * vec.a,
        vec.c + vec.a.scaled(12),
        vec.d,
        vec.a.scaled(12),
    )


def power_vectors(field: PrimeField, n: int) -> list:
    """Basis coordinates of alpha^0 .. alpha^n."""
    if field.p < 5:
        raise ValueError("the quartic needs p >= 5")
    zero, one = Polynomial.zero(field), Polynomial.one(field)
    vecs = [PowerVec(zero, zero, zero, one), PowerVec(zero, zero, one, zero)][: n + 1]
    while len(vecs) <= n:
        vecs.append(_alpha_step(field, vecs[-1]))
    return vecs


def frobenius_vectors(field: PrimeField, e: int) -> tuple:
    """Basis coordinates of (alpha^r, alpha^(r+1)), r = p^e, e >= 1.

    alpha^p takes p - 1 steps from alpha.  Raising to the p-th power is a
    ring endomorphism in characteristic p, so alpha^r = a alpha^3 + b alpha^2
    + c alpha + d gives alpha^(pr) = a(T^p) alpha^(3p) + b(T^p) alpha^(2p)
    + c(T^p) alpha^p + d(T^p): for e > 1, 2p more steps reach alpha^(2p) and
    alpha^(3p), and each further power of p is one pow_frobenius per
    coordinate, in place of the pr - r steps of power_vectors.
    """
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    p, zero = field.p, Polynomial.zero(field)
    vecs = power_vectors(field, 3 * p if e > 1 else p)
    vec = vecs[p]
    for _ in range(e - 1):
        out = [zero] * 4
        for coef, w in zip(vec, vecs[::-p]):  # alpha^(3p), alpha^(2p), alpha^p, 1
            coef = coef.pow_frobenius()
            out = [o + coef * x for o, x in zip(out, w)]
        vec = PowerVec(*out)
    return vec, _alpha_step(field, vec)


class DerivationError(ValueError):
    """The Frobenius-relation derivation does not go through for this prime;
    carries the stage at which it failed (a reportable finding, not a bug)."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class RelationVerdict:
    """The verdict on alpha's Frobenius relation at p: the derivation's
    result and both conjectures' verdicts on it.

    A failing verdict names its stage and message.  relation, a and prefix
    (the l quotients of a_(r+1)/a_r, read off the power basis) are set once
    the derivation passes, and kept by a later conj1 or conj2 failure;
    eps1, eps2, a == 8/27, k' and k are read from them and from the
    relation's shape, never copied.
    """

    p: int
    passed: bool
    stage: str = ""
    detail: str = ""
    l: Optional[int] = None
    # alpha^r = eps1 (T^2+a)^k' alpha_{l+1} + eps2 Q_{k,a}(T^(r/p))
    relation: Optional[FrobeniusRelation] = None
    a: Optional[int] = None
    prefix: Optional[ContinuedFraction] = None  # a_1 .. a_l
    compared_terms: int = 0
    spec: Optional[ExpansionSpec] = None  # beta's validated spec, on a conj1 pass

    @property
    def eps1(self) -> Optional[int]:
        return None if self.relation is None else self.relation.eps1

    @property
    def eps2(self) -> Optional[int]:
        return None if self.relation is None else self.relation.eps2

    @property
    def a_equals_8_27(self) -> Optional[bool]:
        return None if self.a is None else (27 * self.a - 8) % self.p == 0

    @property
    def k_prime(self) -> int:
        return _relation_shape(self.p)[2]

    @property
    def k(self) -> int:
        return _relation_shape(self.p)[3]


def _relation_shape(p: int) -> tuple:
    """(e, l, k', k) of the relation with r = p^e: (1, (p-1)/2, (p-1)/3,
    (p-1)/3) for p = 1 mod 3, (2, (p+1)^2/3, (p^2-1)/3, (p+1)/3) for
    p = 2 mod 3."""
    if p % 3 == 1:
        k = relation_k(p)
        return 1, (p - 1) // 2, k, k
    if p % 3 == 2:
        return 2, (p + 1) ** 2 // 3, (p * p - 1) // 3, (p + 1) // 3
    raise ValueError(f"the quartic's Frobenius relation needs p = 1 or 2 mod 3, got {p}")


def derive_frobenius_relation(p: int, l: Optional[int] = None) -> RelationVerdict:
    """Extract the Frobenius relation of alpha,

        alpha^r = eps1 * (T^2+a)^k' * alpha_{l+1} + eps2 * Q_{k,a}(T^(r/p)),

    with r = p^e and (e, l, k', k) from _relation_shape; l, when given,
    replaces the stated tail index (a diagnostic).

    With (x_l, x_{l-1}, y_l, y_{l-1}) the convergents of the first l
    quotients, U = eps1 * P and V = eps2 * Q, removing alpha_{l+1} turns the
    relation into an identity in the basis 1, alpha, alpha^2, alpha^3:

        y_l alpha^(r+1) - x_l alpha^r = -c alpha + d,
        c = U y_{l-1} - V y_l,   d = U x_{l-1} - V x_l.

    Stages (each failure raises DerivationError with the stage name):
      prefix       the alpha^3 part y_l a_(r+1) = x_l a_r reduces a_(r+1)/a_r
                   to x_l/y_l: deg a_(r+1) > deg a_r >= 0, and expand_root
                   on a_r X - a_(r+1) (Euclid) ends after exactly l quotients
      b-compat     the alpha^2 parts cancel: y_l b_(r+1) = x_l b_r
      W-shape      U, read off exactly (the 2x2 system in U, V has
                   determinant (-1)^(l+1)), is eps1 * (T^2+a)^k'
      Q-shape      V is eps2 * Q_{k,a}(T^(r/p))
      degree       y_l alpha^r + c = U (y_l alpha_{l+1} + y_{l-1}) has a term
                   above T^(deg y_l + deg U): alpha_{l+1} has degree >= 1, so
                   x_l/y_l is a convergent of alpha.  Only alpha's part above
                   T^-1 reaches those degrees.
    """
    field = GF(p)
    e, l_stated, k_P, k_Q = _relation_shape(p)
    l = l_stated if l is None else l
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    v0, v1 = frobenius_vectors(field, e)
    if not v1.a.degree > v0.a.degree >= 0:  # the zero polynomial has degree -1
        raise DerivationError("prefix", f"need deg a_(r+1) > deg a_r >= 0, got {v1.a.degree} and {v0.a.degree}")
    prefix = expand_root(RootState((-v1.a, v0.a)), l + 1)
    if len(prefix) != l:
        raise DerivationError("prefix", f"a_(r+1)/a_r has {len(prefix)} quotients, not l = {l}" if len(prefix) < l
                              else f"a_(r+1)/a_r does not end after l = {l} quotients")
    xl, xl1, yl, yl1 = prefix.matrix()
    if yl * v1.b != xl * v0.b:
        raise DerivationError("b-compat", "(b_(r+1), b_r) is not proportional to (x_l, y_l)")

    c = xl * v0.c - yl * v1.c
    d = yl * v1.d - xl * v0.d
    sign = 1 if l % 2 == 0 else -1
    U = (xl * c - yl * d).scaled(sign)
    V = (xl1 * c - yl1 * d).scaled(sign)

    if U.degree != 2 * k_P:
        raise DerivationError("W-shape", f"eps1*P has degree {U.degree}, expected 2k = {2 * k_P}")
    eps1 = U.leading_coefficient()
    a = U.coeffs[2 * k_P - 2] * field.inv(k_P * eps1 % p) % p
    if a == 0:
        raise DerivationError("W-shape", "eps1*P has no T^(2k-2) term, so a = 0")
    P = power_p_family(field, k_P, a)
    if U != P.scaled(eps1):
        raise DerivationError("W-shape", "eps1*P is not of the form eps1*(T^2+a)^k")

    Q = pq_polynomials(field, k_Q, a)[1].pow_frobenius(p ** (e - 1))
    if V.degree != Q.degree:
        raise DerivationError("Q-shape", f"eps2*Q has degree {V.degree}, expected {Q.degree}")
    eps2 = V.leading_coefficient() * field.inv(Q.leading_coefficient()) % p
    if V != Q.scaled(eps2):
        raise DerivationError("Q-shape", "residual part is not proportional to Q_(k,a)")

    alpha_r = alpha_series(field, -1).frobenius(p**e)
    top = yl.degree + U.degree
    lhs = Laurent.from_polynomial(yl) * alpha_r + Laurent.from_polynomial(c)
    if lhs.truncate(top).degree() is None:
        raise DerivationError(
            "degree", f"y_l alpha^r + c has no term above T^{top}, so deg alpha_(l+1) < 1"
        )
    return RelationVerdict(p, True, l=l, relation=FrobeniusRelation(l, eps1, eps2, P, Q, p**e),
                           a=a, prefix=prefix)


def normalize_to_beta(verdict: RelationVerdict) -> ExpansionSpec:
    """The relation in beta(T) = v*alpha(v*T) coordinates, v^2 = s = -a, as
    the spec of beta's perfect expansion.

    The prefix quotient a_i = lambda_i*T becomes b_i(T) = v^((-1)^(i+1)) a_i(v*T)
    = lambda_i' T, with lambda_i' = lambda_i*s for odd i and lambda_i for
    even i (ValueError for a quotient not of the form lambda*T), and
      eps1' = s^(k + (p - (-1)^l)/2) eps1
      eps2' = s^(k + (p - 1)/2)     eps2,
    for a relation of degree r = p (ValueError for conj2's r = p^2).
    """
    rel = verdict.relation
    field = verdict.prefix.field
    p = field.p
    if rel.r != p:
        raise ValueError(f"the beta normalization needs r = p = {p}, got r = {rel.r}")
    k = rel.P.degree // 2
    s = -verdict.a % p
    lambdas = []
    for i, q in enumerate(verdict.prefix.quotients, start=1):
        if q.degree != 1 or q.constant_coefficient():
            raise ValueError(f"prefix quotient a_{i} = {q} is not lambda*T")
        lambdas.append(q.leading_coefficient() * (s if i % 2 else 1) % p)
    sign_l = 1 if rel.l % 2 == 0 else -1
    e1 = pow(s, k + (p - sign_l) // 2, p) * rel.eps1 % p
    e2 = pow(s, k + (p - 1) // 2, p) * rel.eps2 % p
    return ExpansionSpec(field, rel.l, k, e1, e2, tuple(lambdas))


def beta_quotient_to_alpha(field: PrimeField, b: Polynomial, n: int, s: int) -> Polynomial:
    """Map the n-th beta quotient back: a_n(T) = v^((-1)^n) * b_n(T/v), where
    v^2 = s, computed in F_p.

    The T^j coefficient c becomes c * v^m = c * s^(m/2), m = (-1)^n - j.
    The quartic's quotients are odd, so every such m is even; a nonzero
    coefficient with odd m raises ValueError, whether or not s is a square.
    """
    p = field.p
    if not s % p:
        raise ValueError("degenerate scaling by v = 0")
    outer = 1 if n % 2 == 0 else -1
    out = []
    for j, c in enumerate(b.coeffs):
        m = outer - j
        if c and m % 2:
            raise ValueError(
                f"coefficient of T^{j} needs an odd power of v, where v^2 = {s % p}"
            )
        out.append(c * pow(s, m // 2, p) % p if c else 0)
    return Polynomial(field, out)


# -- conjecture verdicts ------------------------------------------------------------


# The relation is re-checked as a series identity down to T^-RESIDUAL_PRECISION.
RESIDUAL_PRECISION = 100


def verify_conjecture1(p: int, n: int) -> RelationVerdict:
    """Full check of the conjectured degree-p pattern for one prime.

    Derives the relation (a DerivationError names the stage), normalizes
    (stage prefix-form when a prefix quotient is not lambda*T), validates
    the perfect-expansion conditions, and compares n generated quotients,
    mapped back through T -> T/v, with the root expansion's first n, which
    is expanded for this comparison alone; finally the relation is
    re-checked as a series identity on as many generated quotients as that
    takes.  Any stage failure is reported as a finding, not raised; one
    past the derivation keeps the derived relation.
    """
    field = GF(p)
    if p % 3 != 1:
        raise ValueError(f"the degree-p relation needs p = 1 mod 3, got {p}")
    try:
        derived = derive_frobenius_relation(p)
    except DerivationError as exc:
        return RelationVerdict(p, False, exc.stage, str(exc), _relation_shape(p)[1])

    def failed(stage: str, detail: str, **fields) -> RelationVerdict:
        return replace(derived, passed=False, stage=stage, detail=detail, **fields)

    try:
        spec = normalize_to_beta(derived)
    except ValueError as exc:
        return failed("prefix-form", str(exc))
    try:
        cf = generate_perfect_expansion(spec, n)
    except (DeltaUndefinedError, DeltaMismatchError) as exc:
        return failed("perfect-conditions", str(exc))
    direct = expand_root(quartic_state(field), n)
    compared, s = len(direct), -derived.a % p
    mapped = [beta_quotient_to_alpha(field, cf[j], j + 1, s) for j in range(compared)]
    bad = next((j for j, (a, b) in enumerate(zip(mapped, direct), start=1) if a != b), None)
    if bad:
        return failed("comparison", f"generated and direct expansions differ at index {bad}",
                      compared_terms=compared)

    while True:
        try:
            residual = relation_residual(cf, spec.relation(), RESIDUAL_PRECISION)
            break
        except InsufficientExpansion:  # the generator is cheap: regenerate a longer one
            cf = generate_perfect_expansion(spec, 2 * max(len(cf), derived.l))
    if residual != float("-inf"):
        return failed("residual", f"series residual at T^{residual}", compared_terms=compared)
    return replace(derived, compared_terms=compared, spec=spec)


def verify_conjecture2(p: int, *, l_override: Optional[int] = None) -> RelationVerdict:
    """Check alpha^(p^2) = eps1 * P_{k',a} * alpha_{l+1} + eps2 * Q_{k,a}^p
    for p = 2 mod 3 with (l, k', k) = ((p+1)^2/3, (p^2-1)/3, (p+1)/3), l
    replaced by l_override when given: derive_frobenius_relation's verdict (a
    DerivationError names its stage), then its prefix against the root
    expansion's first min(l, _direct_terms(p)) quotients (stage comparison).
    """
    field = GF(p)  # the modulus is checked before its residue class
    if p % 3 != 2:
        raise ValueError(f"this relation shape needs p = 2 mod 3, got {p}")
    l = _relation_shape(p)[1] if l_override is None else l_override
    try:
        derived = derive_frobenius_relation(p, l)
    except DerivationError as exc:
        return RelationVerdict(p, False, exc.stage, str(exc), l)
    direct = expand_root(quartic_state(field), min(l, _direct_terms(p)))
    bad = next((j for j, (a, b) in enumerate(zip(derived.prefix, direct), start=1) if a != b), None)
    if bad:
        return replace(derived, passed=False, stage="comparison", compared_terms=len(direct),
                       detail=f"derived and direct prefixes differ at index {bad}")
    return replace(derived, compared_terms=len(direct))


def _direct_terms(p: int) -> int:
    """How many of the root expansion's quotients a verdict compares unless told: max(50, 2p)."""
    return max(50, 2 * p)


# -- approximation exponent ------------------------------------------------------------


def alpha_expansion(p: int, n: int) -> tuple:
    """(cf, source): alpha's first n quotients and their route's label: past l, from the
    relation derive_frobenius_relation certified, by expand_from_relation; for n <= l,
    or when the derivation fails, from the direct root expansion."""
    state = quartic_state(GF(p))
    if n <= _relation_shape(p)[1]:
        return expand_root(state, n), "direct root expansion"
    try:
        derived = derive_frobenius_relation(p)
    except DerivationError:
        return expand_root(state, n), "direct root expansion"
    rel = derived.relation
    source = f"Frobenius relation of degree r = {rel.r} past its prefix, the {rel.l} quotients of a_(r+1)/a_r"
    return expand_from_relation(derived.prefix, rel, n), source


def quartic_expansion(p: int, n: int) -> tuple:
    """(cf, source): the first n quotients of alpha and the route's label.  For
    p = 1 mod 3, the generator behind a passing conj1 verdict that compared
    _direct_terms(p) of its quotients with the direct expansion (ValueError
    if it fails); else alpha_expansion."""
    if p % 3 != 1:
        return alpha_expansion(p, n)
    verdict = verify_conjecture1(p, _direct_terms(p))
    if not verdict.passed:
        raise ValueError(f"perfect pattern not confirmed for p={p}: {verdict.detail}")
    cf = generate_perfect_expansion(verdict.spec, n)
    return cf, "perfect-expansion generator (degrees match the direct expansion)"


@dataclass
class ExponentReport:
    """Empirical and closed-form rational approximation exponents.

    nu0_empirical is the maximum over the window of
    deg(a_{n+1}) / sum_{1<=j<=n} deg(a_j); the limsup of that ratio is
    nu0 and nu = 2 + nu0.  The closed form is only available when the
    expansion was generated as a perfect expansion, and the two are
    reported separately (a finite window maximum is not the limsup).
    """

    window: int
    nu0_empirical: Fraction
    argmax_index: int
    ratios_tail: Fraction
    nu0_closed: Optional[Fraction]

    @property
    def nu_empirical(self) -> Fraction:
        return 2 + self.nu0_empirical

    @property
    def nu_closed(self) -> Optional[Fraction]:
        return None if self.nu0_closed is None else 2 + self.nu0_closed


def approximation_exponent(cf: ContinuedFraction, window: int) -> ExponentReport:
    if window < 1:
        raise ValueError("window must be at least 1")
    if len(cf) < window + 1:
        raise ValueError(
            f"need window+1 = {window + 1} partial quotients, have {len(cf)}"
        )
    degs = cf.degrees()[: window + 1]
    if min(degs) < 0:
        raise ValueError("partial quotients must have degree >= 0")
    if degs[0] < 1:
        raise ValueError("the first partial quotient must have degree >= 1")
    totals = list(accumulate(degs))  # totals[n] = deg a_1 + ... + deg a_(n+1)
    # r_n = degs[n] / totals[n - 1] > best_num / best_den, by cross-multiplication, only at
    # the first n of each degree: a later one has no smaller total, so it cannot win the >
    first = dict(zip(degs[:0:-1], range(window, 0, -1)))  # degree -> its first n >= 1
    best_num, best_den, arg = 0, 1, 0
    for n in sorted(first.values()):
        d, total = degs[n], totals[n - 1]
        if d * best_den > best_num * total:
            best_num, best_den, arg = d, total, n
    best = Fraction(best_num, best_den)
    last = Fraction(degs[window], totals[window - 1])
    closed = None
    if cf.perfect_type is not None:
        p, l, k, initial = cf.perfect_type
        if all(i == 0 for i in initial):
            closed = Fraction(p - 2 * k - 1, l)
        elif l == 1 and k == 1:
            i = initial[0]
            closed = Fraction(
                (p - 1) * (p ** (i + 1) - 3 * p**i), p ** (i + 1) - 3 * p**i + 2
            )
    return ExponentReport(window, best, arg, last, closed)
