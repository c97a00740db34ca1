"""Continued fractions with polynomial partial quotients, and scalar
continued fractions in F_p.

A ContinuedFraction holds the partial quotients [a_1, a_2, ..., a_n].  The
continuant sequences (x_i), (y_i) both satisfy K_i = a_i*K_{i-1} + K_{i-2}
(x_0 = 1, x_1 = a_1; y_0 = 0, y_1 = 1), give the convergents x_i/y_i, and
obey the determinant identity x_i*y_{i-1} - x_{i-1}*y_i = (-1)^i.

Equivalently [[x_n, x_{n-1}], [y_n, y_{n-1}]] is the product of the
matrices [[a_j, 1], [1, 0]], j = 1..n.  `matrix` builds that product (or
the one over any range of quotients) as a balanced tree whose leaves are
blocks of _LEAF quotients run by the plain recurrence; `matrix_product`
joins two adjacent ranges.  A leaf step a*x + x' by a monomial quotient
c*T^e (the c*T of Prop. 1/2, the lambda*T = lambda*A_{0,k} of generated
expansions) is one shift, scale and add over x and x'; a general quotient,
or one after which x' reaches the top of a*x (zero and constant quotients),
takes the product and the sum.  The determinant identity is asserted at every
node of the tree and at every join; `continuants`, which keeps every
convergent, asserts it at every step.

running_scalar_cf evaluates the scalar continued fractions
[h_n, ..., h_2, h_1] in F_p for every n at once, in plain ints mod p.
"""

from typing import Optional, Sequence

from .fields import GF
from .laurent import Laurent, rational_series
from .polynomials import Polynomial, _mul_add

# Quotients per leaf of the continuant product tree, run by the recurrence;
# with the fused monomial step 32 is faster than 16 or 64 on Prop. 1/2.
_LEAF = 32


class ScalarCFUndefined(ValueError):
    """A scalar continued fraction hit a zero tail and cannot be evaluated;
    index is the n of the running value r_n that is 0."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def running_scalar_cf(field, heads: Sequence[int]) -> list:
    """[r_1, ..., r_m] with r_1 = h_1 and r_n = h_n + 1/r_(n-1) in F_p: r_n
    is the scalar continued fraction [h_n, ..., h_2, h_1].

    A running value that is 0 before the last one leaves the next
    undefined and raises ScalarCFUndefined; the last value may be 0 and is
    returned for the caller to judge.
    """
    if not heads:
        raise ValueError("empty scalar continued fraction")
    p = field.p
    out = [heads[0] % p]
    for n, h in enumerate(heads[1:], start=1):
        if not out[-1]:
            raise ScalarCFUndefined(n, f"running value r_{n} of the scalar continued fraction is 0")
        out.append((h + field.inv(out[-1])) % p)
    return out


class ContinuedFraction:
    """Partial quotients [a_1, ..., a_n], held either as polynomials or, for
    a generated perfect expansion, symbolically: a_n = lambdas[n-1] *
    tower[indices[n-1]].  A symbolic expansion builds its quotients on
    first use of `quotients`, one Polynomial per distinct (index, lambda)
    pair shared by every position that carries it, and keeps them; its
    length and degrees never need them."""

    __slots__ = ("field", "_quotients", "perfect_type", "tower", "lambdas", "indices")

    def __init__(
        self, field, quotients: Sequence[Polynomial], *, perfect_type: Optional[tuple] = None
    ):
        self.field = field
        self._quotients = tuple(quotients)
        self.perfect_type = perfect_type
        self.tower = self.lambdas = self.indices = None

    @classmethod
    def symbolic(
        cls, field, tower: Sequence[Polynomial], lambdas: Sequence[int],
        indices: Sequence[int], *, perfect_type: Optional[tuple] = None,
    ) -> "ContinuedFraction":
        """[lambdas[0] * tower[indices[0]], lambdas[1] * tower[indices[1]], ...]."""
        if len(lambdas) != len(indices):
            raise ValueError("need one tower index per lambda")
        cf = cls(field, (), perfect_type=perfect_type)
        cf._quotients = None
        cf.tower, cf.lambdas, cf.indices = tower, tuple(lambdas), tuple(indices)
        return cf

    @property
    def quotients(self) -> tuple:
        if self._quotients is None:
            tower = self.tower
            built = {(i, c): tower[i].scaled(c) for i, c in set(zip(self.indices, self.lambdas))}
            self._quotients = tuple(map(built.__getitem__, zip(self.indices, self.lambdas)))
        return self._quotients

    def __len__(self):
        return len(self.quotients) if self.tower is None else len(self.indices)

    def __iter__(self):
        return iter(self.quotients)

    def __getitem__(self, i):
        return self.quotients[i]

    def __eq__(self, other):
        return (
            isinstance(other, ContinuedFraction)
            and self.field == other.field
            and self.quotients == other.quotients
        )

    def __repr__(self):
        if self._quotients is None:
            tower = self.tower
            head = [tower[i].scaled(c) for i, c in zip(self.indices[:8], self.lambdas[:8])]
        else:
            head = self._quotients[:8]
        inner = ", ".join(q.format() for q in head)
        if len(self) > 8:
            inner += ", ..."
        return f"[{inner}]"

    def degrees(self) -> list:
        if self.tower is not None:
            level_degrees = [a.degree for a in self.tower]
            return list(map(level_degrees.__getitem__, self.indices))
        return [q.degree for q in self.quotients]

    def continuants(self):
        """Both continuant sequences (x_0..x_n, y_0..y_n).

        The determinant identity is verified at every index; a failure
        means corrupted quotients and raises ArithmeticError.
        """
        field = self.field
        one = Polynomial.one(field)
        zero = Polynomial.zero(field)
        xs, ys = [one], [zero]
        xp, yp = zero, one  # K_{-1} values
        for n, a in enumerate(self.quotients, start=1):
            xn = a * xs[-1] + xp
            yn = a * ys[-1] + yp
            xp, yp = xs[-1], ys[-1]
            xs.append(xn)
            ys.append(yn)
            if xn * yp - xp * yn != (one if n % 2 == 0 else -one):
                raise ArithmeticError(f"continuant determinant broken at index {n}")
        return xs, ys

    def matrix(self, lo: int = 0, hi: Optional[int] = None) -> tuple:
        """The product of [[a_j, 1], [1, 0]] for j = lo+1..hi as the tuple
        (x, x', y, y') of [[x, x'], [y, y']]; for lo = 0 that is
        (x_hi, x_{hi-1}, y_hi, y_{hi-1}), and hi defaults to n.

        The product is a balanced tree over blocks of _LEAF quotients.  At
        every node, leaves included, the determinant must be (-1)^(number
        of quotients); a failure means corrupted quotients or arithmetic
        and raises ArithmeticError naming the range.  matrix(lo, mid) and
        matrix(mid, hi) join to matrix(lo, hi) by matrix_product.
        """
        n = len(self)
        if hi is None:
            hi = n
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"need 0 <= lo <= hi <= {n}, got lo = {lo}, hi = {hi}")
        return _product(self.quotients, lo, hi, self.field)

    def value(self):
        """The continued fraction as a reduced rational pair (x_n, y_n)."""
        x, _, y, _ = self.matrix()
        return x, y

    def value_series(self, floor: int) -> Laurent:
        """Laurent expansion of the value, certified down to the floor.

        The convergent x_n/y_n matches the value to within |T|^(-2 deg y_n),
        so the floor must stay above that bound.
        """
        xs, ys = self.continuants()
        cert = -2 * ys[-1].degree
        if floor < cert:
            raise ValueError(
                f"insufficient expansion: floor {floor} below certified {cert}"
            )
        return rational_series(xs[-1], ys[-1], floor)

    def tail(self, l: int) -> "ContinuedFraction":
        return ContinuedFraction(self.field, self.quotients[l:])

    def to_json_dict(self) -> dict:
        return {"p": self.field.p, "pq": [q.to_json_dict() for q in self.quotients]}

    @staticmethod
    def from_json_dict(d: dict) -> "ContinuedFraction":
        """The inverse of to_json_dict: the field is GF(d["p"]), every
        quotient must lie over it, and an empty "pq" is the empty expansion."""
        field = GF(d["p"])
        qs = [Polynomial.from_json_dict(q) for q in d["pq"]]
        for n, q in enumerate(qs, start=1):
            if q.field != field:
                raise ValueError(f"quotient a_{n} lies over F_{q.field.p}, not F_{field.p}")
        return ContinuedFraction(field, qs)


def _product(quotients, lo: int, hi: int, field) -> tuple:
    """(x, x', y, y') of prod_{j=lo+1..hi} [[a_j, 1], [1, 0]], the a_j being
    quotients[j-1]; see ContinuedFraction.matrix."""
    if hi - lo > _LEAF:
        # split on a block boundary so that every leaf but the last is full
        mid = lo + (hi - lo - 1) // _LEAF // 2 * _LEAF + _LEAF
        return matrix_product(
            _product(quotients, lo, mid, field), _product(quotients, mid, hi, field), lo, hi
        )
    one, zero = Polynomial.one(field), Polynomial.zero(field)
    # start from [[a_{lo+1}, 1], [1, 0]]: every product taken then moves
    # the determinant if it is wrong, where a product by 1 or 0 would not
    x, xp, y, yp = (quotients[lo], one, one, zero) if hi > lo else (one, zero, zero, one)
    for a in quotients[lo + 1 : hi]:
        x, xp = _mul_add(a, x, xp), x
        y, yp = _mul_add(a, y, yp), y
    return _checked(x, xp, y, yp, lo, hi)


def matrix_product(left: tuple, right: tuple, lo: int, hi: int) -> tuple:
    """left * right as (x, x', y, y'), where left and right are the matrices
    (ContinuedFraction.matrix) of quotients lo+1..mid and mid+1..hi; the
    product's determinant must be (-1)^(hi - lo), else ArithmeticError."""
    lx, lxp, ly, lyp = left
    rx, rxp, ry, ryp = right
    return _checked(
        lx * rx + lxp * ry, lx * rxp + lxp * ryp,
        ly * rx + lyp * ry, ly * rxp + lyp * ryp, lo, hi,
    )


def _checked(x, xp, y, yp, lo: int, hi: int) -> tuple:
    # x y' - x' y = (-1)^(hi - lo), tested as x y' = x' y +- 1 on the
    # coefficient tuples: the difference would cancel down to a constant
    p = x.field.p
    lhs, rhs = (x * yp).coeffs or (0,), (xp * y).coeffs or (0,)
    sign = 1 if (hi - lo) % 2 == 0 else p - 1
    if lhs[1:] != rhs[1:] or lhs[0] != (rhs[0] + sign) % p:
        raise ArithmeticError(
            f"continuant determinant broken on quotients {lo + 1}..{hi}"
        )
    return x, xp, y, yp


def rational_to_cf(num: Polynomial, den: Polynomial) -> ContinuedFraction:
    """Continued fraction of num/den by the Euclidean algorithm.

    Quotients are taken exactly as polynomial division returns them (no
    sign or monic normalization).  A first quotient of degree < 1 is legal
    for rational input; all later quotients have degree >= 1 automatically.
    """
    if den.is_zero():
        raise ZeroDivisionError("not a rational function: zero denominator")
    quotients = []
    a, b = num, den
    while not b.is_zero():
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return ContinuedFraction(num.field, quotients)
