"""Continued fractions with polynomial partial quotients, and scalar
continued fractions in F_p.

A ContinuedFraction holds the partial quotients [a_1, a_2, ..., a_n].  The
continuant sequences (x_i), (y_i) both satisfy K_i = a_i*K_{i-1} + K_{i-2}
(x_0 = 1, x_1 = a_1; y_0 = 0, y_1 = 1), give the convergents x_i/y_i, and
obey the determinant identity x_i*y_{i-1} - x_{i-1}*y_i = (-1)^i, which is
asserted after every step.
"""

from typing import Optional, Sequence

from .laurent import Laurent, rational_series
from .polynomials import Polynomial


class ScalarCFUndefined(ValueError):
    """A scalar continued fraction hit a zero tail and cannot be evaluated."""


def eval_scalar_cf(field, entries: Sequence[int]) -> int:
    """Evaluate [u_1, ..., u_m] = u_1 + 1/[u_2, ..., u_m] right to left.

    Every proper tail must evaluate to a nonzero element (otherwise
    ScalarCFUndefined is raised); the overall value may still be zero and
    is returned as such for the caller to judge.
    """
    if not entries:
        raise ValueError("empty scalar continued fraction")
    acc = field(entries[-1])
    for u in reversed(entries[:-1]):
        if acc == 0:
            raise ScalarCFUndefined(
                "tail of the scalar continued fraction evaluates to 0"
            )
        acc = field.add(field(u), field.inv(acc))
    return acc


class ContinuedFraction:
    __slots__ = ("field", "quotients", "first_quotient_constant", "perfect_type")

    def __init__(
        self,
        field,
        quotients: Sequence[Polynomial],
        *,
        first_quotient_constant: bool = False,
        perfect_type: Optional[tuple] = None,
    ):
        self.field = field
        self.quotients = tuple(quotients)
        self.first_quotient_constant = first_quotient_constant
        self.perfect_type = perfect_type

    def __len__(self):
        return len(self.quotients)

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
        inner = ", ".join(q.format() for q in self.quotients[:8])
        if len(self.quotients) > 8:
            inner += ", ..."
        return f"[{inner}]"

    def degrees(self) -> list:
        return [q.degree for q in self.quotients]

    def continuants(self, check: bool = True):
        """Both continuant sequences (x_0..x_n, y_0..y_n).

        With check=True the determinant identity is verified at every index;
        a failure means corrupted quotients and raises ArithmeticError.
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
            if check:
                det = xn * yp - xp * yn
                expect = one if n % 2 == 0 else -one
                if det != expect:
                    raise ArithmeticError(
                        f"continuant determinant broken at index {n}"
                    )
        return xs, ys

    def value(self):
        """The continued fraction as a reduced rational pair (x_n, y_n)."""
        xs, ys = self.continuants()
        return xs[-1], ys[-1]

    def value_series(self, floor: int) -> Laurent:
        """Laurent expansion of the value, certified down to the floor.

        The convergent x_n/y_n matches the value to within |T|^(-2 deg y_n),
        so the floor must stay above that bound.
        """
        xs, ys = self.continuants()
        cert = -2 * _int_degree(ys[-1])
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
        qs = [Polynomial.from_json_dict(q) for q in d["pq"]]
        if not qs:
            raise ValueError("continued fraction needs at least one quotient")
        return ContinuedFraction(qs[0].field, qs)


def _int_degree(f: Polynomial) -> int:
    d = f.degree
    return d if isinstance(d, int) else 0


def rational_to_cf(num: Polynomial, den: Polynomial) -> ContinuedFraction:
    """Continued fraction of num/den by the Euclidean algorithm.

    Quotients are taken exactly as polynomial division returns them (no
    sign or monic normalization).  A first quotient of degree < 1 is legal
    for rational input and flagged on the result; all later quotients have
    degree >= 1 automatically.
    """
    if den.is_zero():
        raise ZeroDivisionError("not a rational function: zero denominator")
    quotients = []
    a, b = num, den
    while not b.is_zero():
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    flag = bool(quotients) and quotients[0].degree < 1
    return ContinuedFraction(num.field, quotients, first_quotient_constant=flag)
