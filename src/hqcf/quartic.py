"""Analysis of the quartic x^4 + x^2 - T*x - 1/12 over F_p.

alpha denotes the reciprocal of the quartic's unique large-root power
series; it satisfies alpha^4 = -12(T*alpha^3 - alpha^2 - 1), so every
power alpha^n has an exact representation in the basis (alpha^3, alpha^2,
alpha, 1) with polynomial coordinates.

For p = 1 mod 3 the pipeline derive_frobenius_relation extracts, purely by
exact arithmetic, the relation

    alpha^p = eps1 * (T^2+a)^k * alpha_{l+1} + eps2 * Q_{k,a},

with (l, k) = ((p-1)/2, (p-1)/3), from the basis coordinates of alpha^p
and alpha^(p+1).  normalize_to_beta rescales by v = sqrt(-a) to the
normalized family, after which the expansion is a perfect expansion and
its generator can be cross-checked against the direct root expansion.

For p = 2 mod 3 the analogous relation uses alpha^(p^2); verify_conjecture2
solves for the scalars exactly instead of deriving them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .cf import ContinuedFraction
from .fields import GF, ExtElement, PrimeField
from .laurent import Laurent
from .perfect import (
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    FrobeniusRelation,
    pq_polynomials,
    power_p_family,
    relation_residual,
    generate_perfect_expansion,
)
from .polynomials import NEG_INF, Polynomial, formal_integral, gcd_monic
from .rootcf import alpha_series, expand_root, quartic_state


class PowerVec(NamedTuple):
    """alpha^n = a*alpha^3 + b*alpha^2 + c*alpha + d."""

    a: Polynomial
    b: Polynomial
    c: Polynomial
    d: Polynomial


def _alpha_step(field: PrimeField, vec: PowerVec) -> PowerVec:
    # alpha * (a A^3 + b A^2 + c A + d) with A^4 = -12T A^3 + 12 A^2 + 12
    twelve = field(12)
    mT = Polynomial(field, [0, field(-12)])  # -12T
    return PowerVec(
        vec.b + mT * vec.a,
        vec.c + vec.a.scaled(twelve),
        vec.d,
        vec.a.scaled(twelve),
    )


def power_vectors(field: PrimeField, n: int) -> list:
    """Basis coordinates of alpha^0 .. alpha^n."""
    if field.p < 5:
        raise ValueError("the quartic needs p >= 5")
    zero, one = Polynomial.zero(field), Polynomial.one(field)
    vecs = [PowerVec(zero, zero, zero, one)]
    cur = PowerVec(zero, zero, one, zero)
    if n >= 1:
        vecs.append(cur)
    for _ in range(2, n + 1):
        cur = _alpha_step(field, cur)
        vecs.append(cur)
    return vecs


class DerivationError(ValueError):
    """The Frobenius-relation derivation does not go through for this prime;
    carries the stage at which it failed (a reportable finding, not a bug)."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class FrobeniusTrace:
    """Every intermediate of the relation derivation for one prime."""

    p: int
    l: int
    k: int
    a: int
    eps1: int
    eps2: int
    delta: Polynomial
    a_star_p: Polynomial
    a_star_p1: Polynomial
    U_star: Polynomial
    V_star: Polynomial
    W: Polynomial
    P: Polynomial  # (T^2 + a)^k
    Q: Polynomial  # integral of (T^2 + a)^(k-1)
    prefix: ContinuedFraction
    lambda_prefix: tuple
    degree_check: bool
    convergent_check: bool

    def relation(self) -> FrobeniusRelation:
        return FrobeniusRelation(self.l, self.eps1, self.eps2, self.P, self.Q)


def derive_frobenius_relation(p: int) -> FrobeniusTrace:
    """Extract the degree-p Frobenius relation of alpha for p = 1 mod 3.

    Stages (each failure raises DerivationError with the stage name):
      b-compat     a_p b_{p+1} - a_{p+1} b_p = 0 in F_p[T]
      convergent   the reduced pair (a*_{p+1}, a*_p) is (x_l, y_l) of the
                   root expansion, l = (p-1)/2, up to one constant
      prefix-form  the first l quotients are lambda_j * T
      W-shape      (-1)^l W = eps1 * (T^2+a)^k for a single a, k = (p-1)/3
      Q-shape      the residual part matches eps2 * Q_{k,a}
    """
    if p % 3 != 1:
        raise ValueError(f"derivation requires p = 1 mod 3, got {p}")
    field = GF(p)
    l = (p - 1) // 2
    k_target = (p - 1) // 3
    vecs = power_vectors(field, p + 1)
    vp, vp1 = vecs[p], vecs[p + 1]

    if vp.a * vp1.b != vp1.a * vp.b:
        raise DerivationError("b-compat", f"a_p*b_(p+1) != a_(p+1)*b_p for p = {p}")

    delta = gcd_monic(vp.a, vp1.a)
    a_star_p = vp.a // delta
    a_star_p1 = vp1.a // delta

    prefix = expand_root(quartic_state(field), l)
    if len(prefix) < l:
        raise DerivationError("prefix-form", "root expansion terminated early")
    xs, ys = prefix.continuants()
    xl, yl = xs[l], ys[l]
    if a_star_p1.degree != xl.degree or xl.is_zero():
        raise DerivationError(
            "convergent", f"deg a*_(p+1) = {a_star_p1.degree} != deg x_l = {xl.degree}"
        )
    c = field.div(a_star_p1.leading_coefficient(), xl.leading_coefficient())
    if a_star_p1 != xl.scaled(c) or a_star_p != yl.scaled(c):
        raise DerivationError(
            "convergent", "(a*_(p+1), a*_p) is not proportional to (x_l, y_l)"
        )
    delta = delta.scaled(c)
    a_star_p, a_star_p1 = yl, xl

    lambdas = []
    for j, q in enumerate(prefix.quotients, start=1):
        if q.degree != 1 or not field.is_zero(q.constant_coefficient()):
            raise DerivationError("prefix-form", f"quotient a_{j} = {q} is not lambda*T")
        lambdas.append(q.leading_coefficient())

    U_star = a_star_p * vp1.d - a_star_p1 * vp.d
    V_star = a_star_p1 * vp.c - a_star_p * vp1.c
    W = a_star_p1 * V_star - a_star_p * U_star

    sign = field(1) if l % 2 == 0 else field(-1)
    W_signed = W.scaled(sign)
    G_signed = (xs[l - 1] * V_star - ys[l - 1] * U_star).scaled(sign)

    if W_signed.is_zero() or W_signed.degree % 2 != 0:
        raise DerivationError("W-shape", f"W has degree {W_signed.degree}")
    k = W_signed.degree // 2
    eps1 = W_signed.leading_coefficient()
    monic_w = W_signed.scaled(field.inv(eps1))
    if k == 0:
        raise DerivationError("W-shape", "W is constant")
    a = field.div(monic_w.coeffs[2 * k - 2], field(k))
    if a == 0 or monic_w != Polynomial(field, [a, 0, 1]) ** k:
        raise DerivationError("W-shape", "W/lc is not of the form (T^2+a)^k")
    if k != k_target:
        raise DerivationError("W-shape", f"extracted k = {k}, expected (p-1)/3 = {k_target}")

    P = monic_w
    Q = formal_integral(Polynomial(field, [a, 0, 1]) ** (k - 1))
    if G_signed.is_zero() or Q.is_zero():
        raise DerivationError("Q-shape", "degenerate Q part")
    eps2 = field.div(G_signed.leading_coefficient(), Q.leading_coefficient())
    if G_signed != Q.scaled(eps2):
        raise DerivationError("Q-shape", "residual part is not proportional to Q_(k,a)")

    # |a*_p alpha^p + V*_p| > |a*_p W| via exact series degrees; this also
    # gives |alpha - a*_(p+1)/a*_p| < |a*_p|^(-2), the convergent property.
    floor = -(2 * p + 2 * l + 4)
    aser = alpha_series(field, -(2 + (2 * p + 2 * l + 4) // p + 2))
    lhs = (
        Laurent.from_polynomial(a_star_p) * aser.frobenius()
        + Laurent.from_polynomial(V_star)
    ).truncate(floor)
    big = lhs.degree()
    degree_check = big is not NEG_INF and big > a_star_p.degree + W.degree
    convergent_check = (
        big is not NEG_INF and W.degree - a_star_p.degree - big < -2 * a_star_p.degree
    )

    return FrobeniusTrace(
        p=p,
        l=l,
        k=k,
        a=a,
        eps1=eps1,
        eps2=eps2,
        delta=delta,
        a_star_p=a_star_p,
        a_star_p1=a_star_p1,
        U_star=U_star,
        V_star=V_star,
        W=W,
        P=P,
        Q=Q,
        prefix=prefix,
        lambda_prefix=tuple(lambdas),
        degree_check=degree_check,
        convergent_check=convergent_check,
    )


@dataclass
class NormalizedRelation:
    """The relation rescaled by v = sqrt(-a) into the a = -1 family."""

    p: int
    l: int
    k: int
    a: int
    v: ExtElement
    eps1: int
    eps2: int
    b_prefix: tuple  # polynomials over F_p
    lambda_prefix: tuple

    def spec(self) -> ExpansionSpec:
        return ExpansionSpec(
            GF(self.p), self.l, self.k, self.eps1, self.eps2, self.lambda_prefix
        )


def normalize_to_beta(trace: FrobeniusTrace) -> NormalizedRelation:
    """Transform alpha's relation to beta(T) = v*alpha(v*T) coordinates.

    b_i(T) = v^((-1)^(i+1)) a_i(v*T) must land in F_p[T] (ValueError
    otherwise; odd a_i always do), and
      eps1' = (-a)^(k + (p - (-1)^l)/2) eps1
      eps2' = (-a)^(k + (p - 1)/2)     eps2.
    """
    field = GF(trace.p)
    neg_a = field.neg(trace.a)
    v = field.sqrt_in_ext(neg_a)
    sign_l = 1 if trace.l % 2 == 0 else -1
    e1 = field.mul(field.pow(neg_a, trace.k + (trace.p - sign_l) // 2), trace.eps1)
    e2 = field.mul(field.pow(neg_a, trace.k + (trace.p - 1) // 2), trace.eps2)
    b_prefix = [
        _rescale(field, q, v, 1 if i % 2 == 1 else -1, 1)
        for i, q in enumerate(trace.prefix.quotients, start=1)
    ]
    lambdas = tuple(b.leading_coefficient() for b in b_prefix)
    return NormalizedRelation(
        trace.p, trace.l, trace.k, trace.a, v, e1, e2, tuple(b_prefix), lambdas
    )


def beta_quotient_to_alpha(field: PrimeField, b: Polynomial, n: int, v: ExtElement) -> Polynomial:
    """Map the n-th beta quotient back: a_n(T) = v^((-1)^n) * b_n(T/v)."""
    return _rescale(field, b, v, 1 if n % 2 == 0 else -1, -1)


def _rescale(field: PrimeField, f: Polynomial, v: ExtElement, outer: int, inner: int) -> Polynomial:
    """v^outer * f(v^inner * T), computed in F_p: the T^j coefficient c_j
    becomes c_j * v^m with m = outer + inner*j.

    v is a square root record from sqrt_in_ext, so s = v^2 = a0^2 + d*a1^2
    lies in F_p.  An even m gives v^m = s^(m/2); an odd m needs v itself in
    F_p (a1 = 0).  A nonzero coefficient that would leave F_p raises
    ValueError; for the odd quotients of the quartic every m is even.
    """
    p = field.p
    if v.a0 % p and v.a1 % p:
        raise ValueError(f"v = {v.a0} + {v.a1}*w is not a square root of an element of GF({p})")
    d = field.smallest_nonresidue()
    s = (v.a0 * v.a0 + d * v.a1 * v.a1) % p
    if not s:
        raise ValueError("degenerate scaling by v = 0")
    out = []
    for j, c in enumerate(f.coeffs):
        m = outer + inner * j
        if c and m % 2:
            if v.a1 % p:
                # v^m = a1^m * d^((m-1)/2) * w
                w_part = c * field.pow(v.a1, m) * field.pow(d, (m - 1) // 2) % p
                raise ValueError(f"coefficient of T^{j} is 0 + {w_part}*w, not in GF({p})")
            c = c * field.pow(v.a0, m) % p
        elif c:
            c = c * field.pow(s, m // 2) % p
        out.append(c)
    return Polynomial(field, out)


# -- conjecture verdicts ------------------------------------------------------------


@dataclass
class Conj1Verdict:
    p: int
    passed: bool
    stage: str = ""
    detail: str = ""
    eps1: Optional[int] = None
    eps2: Optional[int] = None
    a: Optional[int] = None
    a_equals_8_27: Optional[bool] = None
    compared_terms: int = 0
    residual: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "pass": self.passed,
            "epsilon1": self.eps1,
            "epsilon2": self.eps2,
            "a": self.a,
            "a_equals_8_27": self.a_equals_8_27,
            "compared_terms": self.compared_terms,
            "stage": self.stage,
            "detail": self.detail,
        }


def verify_conjecture1(p: int, n: int, *, residual_precision: int = 100) -> Conj1Verdict:
    """Full check of the conjectured degree-p pattern for one prime.

    Runs the derivation, normalizes, validates the perfect-expansion
    conditions, generates n quotients, and compares them (mapped back
    through T -> T/v) with the direct root expansion; finally the relation
    itself is re-checked as a series identity.  Any stage failure is
    reported as a finding, not raised.
    """
    field = GF(p)
    try:
        trace = derive_frobenius_relation(p)
    except DerivationError as exc:
        return Conj1Verdict(p, False, stage=exc.stage, detail=str(exc))

    a_827 = field.embed_rational(8, 27)
    norm = normalize_to_beta(trace)
    try:
        spec = norm.spec()
        spec.validate()
    except (DeltaUndefinedError, DeltaMismatchError) as exc:
        return Conj1Verdict(
            p,
            False,
            stage="perfect-conditions",
            detail=str(exc),
            eps1=trace.eps1,
            eps2=trace.eps2,
            a=trace.a,
            a_equals_8_27=trace.a == a_827,
        )

    gen = generate_perfect_expansion(spec, n)
    direct = expand_root(quartic_state(field), n)
    compared = min(len(direct), n)
    mapped = [
        beta_quotient_to_alpha(field, gen.cf[j], j + 1, norm.v) for j in range(compared)
    ]
    if mapped != list(direct.quotients[:compared]):
        first_bad = next(
            j + 1 for j in range(compared) if mapped[j] != direct.quotients[j]
        )
        return Conj1Verdict(
            p,
            False,
            stage="comparison",
            detail=f"generated and direct expansions differ at index {first_bad}",
            eps1=trace.eps1,
            eps2=trace.eps2,
            a=trace.a,
            a_equals_8_27=trace.a == a_827,
            compared_terms=compared,
        )

    try:
        residual = relation_residual(gen.cf, spec.relation(), residual_precision)
    except ValueError:
        raise ValueError(
            f"n = {n} leaves too few tail quotients to certify the relation to "
            f"T^-{residual_precision} for p = {p}; increase n"
        )
    ok = residual is NEG_INF and trace.degree_check and trace.convergent_check
    return Conj1Verdict(
        p,
        ok,
        stage="" if ok else "residual",
        detail="" if ok else f"series residual at T^{residual}",
        eps1=trace.eps1,
        eps2=trace.eps2,
        a=trace.a,
        a_equals_8_27=trace.a == a_827,
        compared_terms=compared,
        residual=residual,
    )


@dataclass
class Conj2Verdict:
    p: int
    passed: bool
    l: int
    k_prime: int
    k: int
    eps1: Optional[int] = None
    eps2: Optional[int] = None
    a: Optional[int] = None
    a_equals_8_27: Optional[bool] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "pass": self.passed,
            "l": self.l,
            "k_prime": self.k_prime,
            "k": self.k,
            "epsilon1": self.eps1,
            "epsilon2": self.eps2,
            "a": self.a,
            "a_equals_8_27": self.a_equals_8_27,
            "detail": self.detail,
        }


def verify_conjecture2(p: int, n: Optional[int] = None, *, l_override: Optional[int] = None) -> Conj2Verdict:
    """Check alpha^(p^2) = eps1 * P_{k',a} * alpha_{l+1} + eps2 * Q_{k,a}^p
    for p = 2 mod 3 with (l, k', k) = ((p+1)^2/3, (p^2-1)/3, (p+1)/3).

    The tail alpha_{l+1} is eliminated through the continuants of the root
    expansion, turning the relation into four exact polynomial identities
    in the power basis; the two nontrivial ones are solved for (eps1, eps2)
    by exact linear algebra, sweeping a over F_p^* with 8/27 tried first.
    """
    if p % 3 != 2:
        raise ValueError(f"this relation shape needs p = 2 mod 3, got {p}")
    field = GF(p)
    l_stated = (p + 1) ** 2 // 3
    k_prime = (p * p - 1) // 3
    k = (p + 1) // 3
    l = l_stated if l_override is None else l_override
    if n is None:
        n = l + 1
    if n < l + 1:
        raise ValueError(f"insufficient expansion: need at least l+1 = {l + 1} quotients")

    direct = expand_root(quartic_state(field), n)
    if len(direct) < l:
        return Conj2Verdict(p, False, l, k_prime, k, detail="expansion terminated early")
    xs, ys = direct.continuants()
    xl, yl = xs[l], ys[l]
    xl1, yl1 = xs[l - 1], ys[l - 1]

    vecs = power_vectors(field, p * p + 1)
    v0, v1 = vecs[p * p], vecs[p * p + 1]
    lhs3 = yl * v1.a - xl * v0.a
    lhs2 = yl * v1.b - xl * v0.b
    if not lhs3.is_zero() or not lhs2.is_zero():
        return Conj2Verdict(
            p, False, l, k_prime, k,
            detail="alpha^3/alpha^2 components do not cancel; no relation of this shape",
        )
    lhs1 = yl * v1.c - xl * v0.c
    lhs0 = yl * v1.d - xl * v0.d

    a_827 = field.embed_rational(8, 27)
    candidates = [a_827] + [x for x in range(1, p) if x != a_827]
    for a in candidates:
        P = power_p_family(field, k_prime, a)
        _, Q = pq_polynomials(field, k, a)
        Qp = Q.pow_frobenius()
        # eps1 * A1 + eps2 * A2 = lhs1   and   eps1 * B1 + eps2 * B2 = lhs0
        A1, A2 = -(P * yl1), Qp * yl
        B1, B2 = P * xl1, -(Qp * xl)
        sol = _solve_two_unknowns(field, [(A1, A2, lhs1), (B1, B2, lhs0)])
        if sol is not None:
            e1, e2 = sol
            if e1 != 0 and e2 != 0:
                return Conj2Verdict(
                    p, True, l, k_prime, k,
                    eps1=e1, eps2=e2, a=a, a_equals_8_27=a == a_827,
                )
    return Conj2Verdict(p, False, l, k_prime, k, detail="no (eps1, eps2, a) satisfies the relation")


def _solve_two_unknowns(field: PrimeField, equations):
    """Solve eps1*A + eps2*B = C over F_p given polynomial identities; each
    T-coefficient is one linear equation.  Returns (eps1, eps2) or None."""
    rows = []
    for A, B, C in equations:
        top = max(A.degree, B.degree, C.degree)
        if top is NEG_INF:
            continue
        for j in range(int(top) + 1):
            a = A.coeffs[j] if j < len(A.coeffs) else 0
            b = B.coeffs[j] if j < len(B.coeffs) else 0
            c = C.coeffs[j] if j < len(C.coeffs) else 0
            if a or b or c:
                rows.append((a, b, c))
    pivot = None
    for r1 in rows:
        for r2 in rows:
            det = field.sub(field.mul(r1[0], r2[1]), field.mul(r1[1], r2[0]))
            if det != 0:
                pivot = (r1, r2, det)
                break
        if pivot:
            break
    if pivot is None:
        return None
    r1, r2, det = pivot
    inv = field.inv(det)
    e1 = field.mul(field.sub(field.mul(r1[2], r2[1]), field.mul(r1[1], r2[2])), inv)
    e2 = field.mul(field.sub(field.mul(r1[0], r2[2]), field.mul(r1[2], r2[0])), inv)
    for a, b, c in rows:
        if field.add(field.mul(e1, a), field.mul(e2, b)) != c:
            return None
    return e1, e2


# -- approximation exponent ------------------------------------------------------------


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
    degs = [int(q.degree) for q in cf.quotients[: window + 1]]
    if any(d < 0 for d in degs):
        raise ValueError("partial quotients must have degree >= 0")
    best = Fraction(0)
    arg = 0
    total = degs[0]
    last = Fraction(0)
    for n in range(1, window + 1):
        r = Fraction(degs[n], total)
        if r > best:
            best, arg = r, n
        total += degs[n]
        last = r
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
