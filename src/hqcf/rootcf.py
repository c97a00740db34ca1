"""Continued fraction expansion of algebraic power series roots.

For a polynomial P(X) = sum a_i X^i over F_p[T] whose subleading
coefficient dominates, i.e.

    (*)   |a_i| < |a_{n-1}|   for all i != n-1,

P has a unique root u with |u| >= |T| (Mkaouar), its polynomial part is
[u] = -[a_{n-1}/a_n], and the reciprocal of the fractional part is the
analogous root of X^n * P([u] + 1/X), whose coefficients again satisfy (*).
Iterating yields the partial quotients of u one per step.

An independent slow oracle is provided for cross-checking: expand the root
as a power series in 1/T by coefficient recursion, truncate to a rational
function, and take the certified prefix of its Euclidean continued
fraction.
"""

from typing import Optional, Sequence

from .cf import ContinuedFraction, rational_to_cf
from .fields import PrimeField
from .laurent import Laurent, divide
from .polynomials import Polynomial, taylor_shift


class DominanceBroken(ArithmeticError):
    """The dominance condition (*) failed where the theory guarantees it."""


class RootState:
    """Coefficients (ascending in X) of one step of the root expansion."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Polynomial]):
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise ValueError("state needs degree >= 1 in X")
        if coeffs[-1].is_zero():
            raise ValueError("leading coefficient in X must be nonzero")
        self.coeffs = coeffs

    @property
    def field(self):
        return self.coeffs[-1].field

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        inner = ", ".join(f"X^{i}: {c.format()}" for i, c in enumerate(self.coeffs))
        return f"RootState({inner})"


def dominance_holds(state: RootState) -> bool:
    """Check condition (*) by degree comparison."""
    n = state.degree
    lead = state.coeffs[n - 1].degree
    return all(
        state.coeffs[i].degree < lead for i in range(n + 1) if i != n - 1
    )


def step(state: RootState):
    """One expansion step: the next partial quotient and the next state.

    Returns (q, next_state); next_state is None when P(q) = 0, i.e. the
    root is the rational function q and the expansion terminates here.
    """
    coeffs = state.coeffs
    n = state.degree
    q = -(coeffs[n - 1] // coeffs[n])
    # Taylor shift P(X + q), then reverse to obtain the coefficients of
    # X^n * P(q + 1/X).
    t = taylor_shift(coeffs, q)
    if t[0].is_zero():
        return q, None
    nxt = RootState(tuple(reversed(t)))
    if q.degree < 1 or not dominance_holds(nxt):
        raise DominanceBroken(
            "expansion hypothesis broken; the input state did not satisfy (*)"
        )
    return q, nxt


def expand_root(state: RootState, n: int) -> ContinuedFraction:
    """First n partial quotients of the unique root with |root| >= |T|.

    The input must satisfy (*).  If the root turns out rational the finite
    expansion is returned (shorter than n).
    """
    if not dominance_holds(state):
        raise ValueError("input polynomial does not satisfy the dominance condition (*)")
    quotients = []
    cur: Optional[RootState] = state
    for _ in range(n):
        if cur is None:
            break
        q, cur = step(cur)
        quotients.append(q)
    return ContinuedFraction(state.field, quotients)


# -- the quartic x^4 + x^2 - T*x - 1/12 ------------------------------------------


def quartic_state(field: PrimeField) -> RootState:
    """State for -X^4/12 - T*X^3 + X^2 + 1, the inverse-root form of the
    quartic x^4 + x^2 - T*x - 1/12; its unique large root is alpha = 1/u."""
    if field.p < 5:
        raise ValueError("the quartic needs p >= 5")
    u = field.embed_rational(-1, 12)
    T = Polynomial.x(field)
    return RootState(
        (
            Polynomial.one(field),       # 1
            Polynomial.zero(field),      # 0*X
            Polynomial.one(field),       # X^2
            -T,                          # -T*X^3
            Polynomial.constant(field, u),  # (-1/12)*X^4
        )
    )


def expand_quartic_fixed(field: PrimeField, n: int) -> ContinuedFraction:
    """Quartic expansion via the explicit degree-4 step recurrences.

    Same output as expand_root(quartic_state(p), n); kept as an
    independent specialization for cross-validation.
    """
    st = quartic_state(field)
    e0, d0, c0, b0, a0 = st.coeffs  # ascending: const, X, X^2, X^3, X^4
    a, b, c, d, e = a0, b0, c0, d0, e0
    four = Polynomial.constant(field, 4)
    three = Polynomial.constant(field, 3)
    two = Polynomial.constant(field, 2)
    six = Polynomial.constant(field, 6)
    quotients = []
    for _ in range(n):
        q = -(b // a)
        q2 = q * q
        q3 = q2 * q
        q4 = q2 * q2
        na = a * q4 + b * q3 + c * q2 + d * q + e
        nb = four * a * q3 + three * b * q2 + two * c * q + d
        nc = six * a * q2 + three * b * q + c
        nd = four * a * q + b
        ne = a
        quotients.append(q)
        if na.is_zero():
            break
        a, b, c, d, e = na, nb, nc, nd, ne
    return ContinuedFraction(field, quotients)


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


def cf_from_series(s: Laurent, *, exact: bool = False) -> ContinuedFraction:
    """Continued fraction of a series truncation, certified prefix only.

    The truncation is the rational function N(T) * T^shift of the stored
    part; its Euclidean expansion agrees with the expansion of the
    underlying value on every quotient with 2*deg(y_n) < budget, where
    budget = -floor is the truncation's error exponent.  With exact=True
    (or an exact series) the input is taken as an exact rational value and
    the full finite expansion is returned.
    """
    if s.is_zero_to_precision():
        raise ValueError("cannot expand a series that is zero to precision")
    if s.floor is not None and s.degree() - s.floor < 2:
        raise ValueError("need at least two known series terms")
    field = s.field
    num = s.num << max(0, s.shift)
    den = Polynomial.monomial(field, 1, max(0, -s.shift))
    full = rational_to_cf(num, den)
    if exact or s.floor is None:
        return full
    # deg y_1 = 0 and deg y_i = deg a_2 + ... + deg a_i: every Euclidean
    # quotient after the first has degree >= 1, so no leading terms cancel
    budget = -s.floor
    keep, deg_y = 0, 0
    for q in full.quotients:
        if keep:
            deg_y += q.degree
        if 2 * deg_y >= budget:
            break
        keep += 1
    return ContinuedFraction(field, full.quotients[:keep])
