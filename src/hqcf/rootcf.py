"""Continued fraction expansion of algebraic power series roots.

For a polynomial P(X) = sum a_i X^i over F_p[T] whose subleading
coefficient dominates, i.e.

    (*)   |a_i| < |a_{n-1}|   for all i != n-1,

P has a unique root u with |u| >= |T| (Mkaouar), its polynomial part is
[u] = -[a_{n-1}/a_n], and the reciprocal of the fractional part is the
analogous root of X^n * P([u] + 1/X), whose coefficients again satisfy (*).
Iterating yields the partial quotients of u one per step.

A state keeps its coefficients as int64 numpy arrays of residues mod p
from its construction to the end of the expansion; a Polynomial is built
only for each quotient, and for RootState.coeffs when it is read.  A step reads the quotient off
the top coefficients of a_{n-1} and a_n, and the Taylor shift
P(X) -> P(X + q) is synthetic division on the arrays, reduced mod p once
per row while its unreduced sums fit int64 and after every product past that.

An independent slow oracle is provided for cross-checking: cf_from_series
takes the certified prefix of the Euclidean continued fraction of a root's
truncated power series in 1/T (the quartic's series is in hqcf.quartic).
"""

from typing import Optional, Sequence

import numpy as np

from .cf import ContinuedFraction, rational_to_cf
from .fields import PrimeField
from .laurent import Laurent
from .polynomials import Polynomial, _fits_int64


class DominanceBroken(ArithmeticError):
    """The dominance condition (*) failed where the theory guarantees it."""


class RootState:
    """Coefficients (ascending in X) of one step of the root expansion.

    Each coefficient is held as an array of residues, ascending in T, with
    no trailing zeros, so its degree is its length minus one.
    """

    __slots__ = ("field", "_t")

    def __init__(self, coeffs: Sequence[Polynomial]):
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise ValueError("state needs degree >= 1 in X")
        if coeffs[-1].is_zero():
            raise ValueError("leading coefficient in X must be nonzero")
        self.field = coeffs[-1].field
        for i, c in enumerate(coeffs):
            if c.field != self.field:
                raise ValueError(f"coefficient of X^{i} is over {c.field}, not {self.field}")
        self._t = tuple(np.array(c.coeffs, dtype=np.int64) for c in coeffs)

    @classmethod
    def _of_arrays(cls, field: PrimeField, t: tuple) -> "RootState":
        # internal: canonical arrays with a nonzero leading one
        state = cls.__new__(cls)
        state.field = field
        state._t = t
        return state

    @property
    def coeffs(self) -> tuple:
        return tuple(_poly(self.field, c) for c in self._t)

    def __repr__(self):
        inner = ", ".join(f"X^{i}: {c.format()}" for i, c in enumerate(self.coeffs))
        return f"RootState({inner})"


def _poly(field: PrimeField, c) -> Polynomial:
    """The Polynomial of a canonical residue array (or slice of one)."""
    return Polynomial(field, tuple(c.tolist()), _trusted=True)


def dominance_holds(state: RootState) -> bool:
    """Check condition (*) by degree comparison."""
    degrees = [len(c) - 1 for c in state._t]
    lead = degrees.pop(-2)
    return all(d < lead for d in degrees)


def _top_quotient(field: PrimeField, a, b) -> Polynomial:
    """a // b for canonical residue arrays, read off their top coefficients.

    With d = deg a - deg b and s = max(0, min(deg b, 2 deg b - deg a)), drop
    the lowest s coefficients of both: a' = a >> s, b' = b >> s.  If
    a = q b + r, then a' - q b' = (r + q (b mod T^s) - (a mod T^s)) / T^s
    has degree below deg b', so q = a' // b', a division of O(d^2) in
    place of O(d deg b).
    """
    da, db = len(a) - 1, len(b) - 1
    s = max(0, min(db, 2 * db - da))
    return _poly(field, a[s:]) // _poly(field, b[s:])


def _sums_fit_int64(p: int, terms: int, n: int) -> bool:
    """Whether the Taylor shift of an X-degree n state by a quotient of
    `terms` coefficients stays inside int64 with no reduction before the end:
    (p-1) * (1 + terms*(p-1))^n < 2^62 bounds every unreduced sum."""
    return (p - 1) * (1 + terms * (p - 1)) ** n < (1 << 62)


def _reduced(s, p: int):
    """s mod p as a canonical residue array: no trailing zeros."""
    s = s % p
    top = len(s)
    while top and not s[top - 1]:
        top -= 1
    return s[:top]


def _taylor_shift(t, q: tuple, p: int) -> list:
    """X-coefficients of P(X + q), where P = sum t[i] * X^i over F_p[T].

    t holds canonical residue arrays, t[-1] nonzero, which are not modified;
    q is the coefficient tuple of a polynomial.  Synthetic division: for
    j < n, for k = n-1 .. j, t_k += q * t_{k+1}, each product one
    np.correlate with q reversed; q * t_n is the same in every pass and is
    computed once.  With nonnegative residues every intermediate value is a
    partial sum of the unreduced t_k = sum C(i,k) q^(i-k) t_i, so when
    _sums_fit_int64 holds each row is reduced mod p and stripped of trailing
    zeros once, at the end.  Otherwise each sum is reduced as it is made,
    which may strip a row to nothing: a product sums at most len(q) terms,
    so one _fits_int64 check covers it, and past it (millions of
    coefficients at p <= MAX_MODULUS) it is an OverflowError.
    """
    if not q:
        return list(t)
    n = len(t) - 1
    once = _sums_fit_int64(p, len(q), n)
    if not once and not _fits_int64(p, len(q)):
        raise OverflowError(f"quotient of degree {len(q) - 1} overflows int64 at p = {p}")
    q_rev = np.array(q[::-1], dtype=np.int64)
    t = list(t)
    top = np.correlate(t[n], q_rev, "full")
    for j in range(n):
        for k in range(n - 1, j - 1, -1):
            hi, lo = t[k + 1], t[k]
            if k == n - 1:
                s = top.copy()
            elif len(hi):
                s = np.correlate(hi, q_rev, "full")
            else:
                continue
            if len(s) < len(lo):
                s = np.concatenate((s + lo[: len(s)], lo[len(s):]))
            else:
                s[: len(lo)] += lo
            t[k] = s if once else _reduced(s, p)
    if once:
        t[:n] = [_reduced(s, p) for s in t[:n]]
    return t


def step(state: RootState):
    """One expansion step: the next partial quotient and the next state.

    Returns (q, next_state); next_state is None when P(q) = 0, i.e. the
    root is the rational function q and the expansion terminates here.
    """
    field, t = state.field, state._t
    q = -_top_quotient(field, t[-2], t[-1])
    # Taylor shift P(X + q), then reverse to obtain the coefficients of
    # X^n * P(q + 1/X).
    shifted = _taylor_shift(t, q.coeffs, field.p)
    if not len(shifted[0]):
        return q, None
    nxt = RootState._of_arrays(field, tuple(reversed(shifted)))
    if q.degree < 1 or not dominance_holds(nxt):
        raise DominanceBroken(
            "expansion hypothesis broken; the input state did not satisfy (*)"
        )
    return q, nxt


def expand_root(state: RootState, n: int) -> ContinuedFraction:
    """First n partial quotients of the unique root with |root| >= |T|.

    The input must satisfy (*).  If the root turns out rational the finite
    expansion is returned (shorter than n).  A negative n is a ValueError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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


def cf_from_series(s: Laurent) -> ContinuedFraction:
    """Continued fraction of a series truncation, certified prefix only.

    The truncation is the rational function N(T) * T^shift of the stored
    part; its Euclidean expansion agrees with the expansion of the
    underlying value on every quotient with 2*deg(y_n) < budget, where
    budget = -floor is the truncation's error exponent.  An exact series
    (floor None) is an exact rational value, and its full finite expansion
    is returned.
    """
    if s.is_zero_to_precision():
        raise ValueError("cannot expand a series that is zero to precision")
    if s.floor is not None and s.degree() - s.floor < 2:
        raise ValueError("need at least two known series terms")
    field = s.field
    num = s.num << max(0, s.shift)
    den = Polynomial.monomial(field, 1, max(0, -s.shift))
    full = rational_to_cf(num, den)
    if s.floor is None:
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
