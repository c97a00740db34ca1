"""Truncated Laurent series in 1/T over a prime field, on the F_p[T] kernel.

A Laurent value is num(T) * T^shift, with num an ascending Polynomial, and
it knows its coefficients on the exponents above `floor`: everything at or
below floor is unknown, and floor = None marks an exact value (a Laurent
polynomial).  The constructor drops the coefficients of num that fall at or
below the floor, so every stored coefficient is a known one; the stored
part may stop above floor + 1, and the exponents between are known zeros.

The arithmetic is the polynomial kernel's: * multiplies the two num and
adds the shifts, frobenius(r) is pow_frobenius(r), the one substitution
T -> T^r, + and - align the offsets with << and add the polynomials,
truncate drops coefficients, and divide is one floor division of
polynomials.  The floors are tracked conservatively, so a coefficient the
object reports is always the true one.
"""

import operator
from typing import Optional

from .polynomials import Polynomial


def _floor_max(*floors):
    vals = [f for f in floors if f is not None]
    return max(vals) if vals else None


class Laurent:
    __slots__ = ("num", "shift", "floor")

    def __init__(self, num: Polynomial, shift: int = 0, floor: Optional[int] = None):
        if floor is not None and shift <= floor:
            num = num << (shift - floor - 1)
            shift = floor + 1
        self.num = num
        self.shift = shift
        self.floor = floor

    @classmethod
    def from_polynomial(cls, f: Polynomial, floor: Optional[int] = None) -> "Laurent":
        return cls(f, 0, floor)

    @classmethod
    def zero(cls, field, floor: Optional[int] = None) -> "Laurent":
        return cls(Polynomial.zero(field), 0, floor)

    # -- inspection -------------------------------------------------------------

    @property
    def field(self):
        return self.num.field

    def degree(self) -> Optional[int]:
        """Exponent of the leading known nonzero coefficient (None if none)."""
        return self.shift + self.num.degree if self.num else None

    def _top(self) -> int:
        # the exponent the floors of * and divide are measured from: the
        # degree, or for a series that is zero to precision its floor (0 if exact)
        if self.num:
            return self.degree()
        return 0 if self.floor is None else self.floor

    def coefficient(self, exponent: int) -> int:
        if self.floor is not None and exponent <= self.floor:
            raise ValueError(f"coefficient of T^{exponent} is below the precision floor")
        i = exponent - self.shift
        cs = self.num.coeffs
        return cs[i] if 0 <= i < len(cs) else 0

    def is_zero_to_precision(self) -> bool:
        return not self.num

    def __repr__(self):
        fl = "exact" if self.floor is None else f"O(T^{self.floor})"
        top = reversed(list(enumerate(self.num.coeffs))[-6:])
        terms = ", ".join(f"{c}*T^{self.shift + i}" for i, c in top if c)
        return f"Laurent({terms or '0'}, {fl})"

    # -- arithmetic -------------------------------------------------------------

    def truncate(self, floor: int) -> "Laurent":
        new_floor = floor if self.floor is None else max(floor, self.floor)
        return Laurent(self.num, self.shift, new_floor)

    def __add__(self, other):
        return self._addsub(other, operator.add)

    def __sub__(self, other):
        return self._addsub(other, operator.sub)

    def _addsub(self, other, op):
        floor = _floor_max(self.floor, other.floor)
        s = min(self.shift, other.shift)
        if floor is not None:
            s = max(s, floor + 1)
        return Laurent(op(self.num << (self.shift - s), other.num << (other.shift - s)), s, floor)

    def scaled(self, c: int) -> "Laurent":
        return Laurent(self.num.scaled(c), self.shift, self.floor)

    def __mul__(self, other):
        floor = _floor_max(
            None if self.floor is None else self.floor + other._top(),
            None if other.floor is None else other.floor + self._top(),
        )
        return Laurent(self.num * other.num, self.shift + other.shift, floor)

    def frobenius(self, r: int) -> "Laurent":
        """Raise to the r-th power, r a power of p: f^r = f(T^r) over F_p, so
        the exponents and the floor scale by r."""
        floor = None if self.floor is None else self.floor * r
        return Laurent(self.num.pow_frobenius(r), self.shift * r, floor)

    def first_difference(self, other) -> float:
        """Largest exponent where the two series differ, or -inf when equal
        on the whole mutually known range."""
        d = (self - other).degree()
        return float("-inf") if d is None else d


def divide(num: Laurent, den: Laurent) -> Laurent:
    """Laurent division, certified down to the floor the two precisions allow.

    With num = N * T^sn and den = D * T^sd the quotient is (N/D) * T^(sn-sd),
    and its coefficients above the floor are those of the polynomial part
    (N * T^m) // D, m = sn - sd - floor - 1, placed at T^(floor+1).
    """
    if den.is_zero_to_precision():
        raise ZeroDivisionError("division by a series that is zero to precision")
    delta = den.degree()
    if num.is_zero_to_precision():
        return Laurent.zero(num.field, None if num.floor is None else num.floor - delta)
    # error analysis: num = N + O(T^fn), den = D + O(T^fd)
    #   num/den - N/D = (eps_n*D - N*eps_d) / (D*(D+eps_d))
    # giving floor = max(fn - delta, fd + deg(N) - 2*delta)
    floor = _floor_max(
        None if num.floor is None else num.floor - delta,
        None if den.floor is None else den.floor + num.degree() - 2 * delta,
    )
    if floor is None:
        # exact inputs still need a cutoff; callers must truncate first
        raise ValueError("dividing two exact values needs an explicit precision floor")
    m = num.shift - den.shift - floor - 1
    return Laurent((num.num << m) // den.num, floor + 1, floor)


def rational_series(num: Polynomial, den: Polynomial, floor: int) -> Laurent:
    """Series expansion of the rational function num/den down to the floor."""
    if den.is_zero():
        raise ZeroDivisionError("series of a fraction with zero denominator")
    if num.is_zero():
        return Laurent.zero(num.field, floor)
    n = Laurent.from_polynomial(num, floor + den.degree)
    d = Laurent.from_polynomial(den, floor - num.degree + 2 * den.degree)
    return divide(n, d).truncate(floor)
