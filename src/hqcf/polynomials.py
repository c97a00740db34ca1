"""Dense univariate polynomials over F_p.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial has an empty coefficient tuple and degree -inf.

The coefficients are a tuple of plain ints in [0, p) and the kernel works
on those tuples directly.  Addition, subtraction, negation and scaling
make one comprehension over the overlapping part, reduce each result mod p
once, reuse the longer operand's tail as a slice and build the result with
the trusted constructor: no per-coefficient field method call and no
re-validation.  Trailing zeros can only appear when two operands of equal
length cancel at the top, so only that case strips them.  Multiplication
of large operands and the Taylor shift P(X) -> P(X + q) of the root
expansion run as exact int64 numpy convolutions; both are guarded by the
one bound _fits_int64, and fall back to Python-int arithmetic when it
fails.

The absolute value |f| = |T|^deg(f) of the ambient power series field is
represented purely by the integer degree; -inf for the zero polynomial
makes max/sum comparisons work unchanged.
"""

from typing import Iterable

import numpy as np

from .fields import GF, PrimeField

NEG_INF = float("-inf")

_SCHOOLBOOK_CUTOFF = 64


def _fits_int64(p: int, terms: int) -> bool:
    """Whether a sum of `terms` products of residues mod p, plus one more
    residue, stays inside int64: the guard of every numpy kernel path."""
    return (p - 1) * (p - 1) * terms < (1 << 62)


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable = (), *, _trusted=False):
        if _trusted:
            self.field = field
            self.coeffs = coeffs
            return
        p = field.p
        cs = [c % p for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field, cs: list) -> "Polynomial":
        # internal: cs already reduced mod p, only needs trailing-zero strip
        while cs and not cs[-1]:
            cs.pop()
        return cls(field, tuple(cs), _trusted=True)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, (), _trusted=True)

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (1,), _trusted=True)

    @classmethod
    def constant(cls, field, c) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, (0, 1), _trusted=True)

    @classmethod
    def monomial(cls, field, c, n: int) -> "Polynomial":
        c %= field.p
        if not c:
            return cls.zero(field)
        return cls(field, (0,) * n + (c,), _trusted=True)

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coefficient(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.field!r}, {self.format()!r})"

    def __str__(self):
        return self.format()

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = f.p
        if len(a) > len(b):
            return Polynomial(
                f, tuple([(x + y) % p for x, y in zip(a, b)]) + a[len(b):], _trusted=True
            )
        return Polynomial._make(f, [(x + y) % p for x, y in zip(a, b)])

    def __sub__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        la, lb = len(a), len(b)
        p = f.p
        if la > lb:
            return Polynomial(
                f, tuple([(x - y) % p for x, y in zip(a, b)]) + a[lb:], _trusted=True
            )
        if la < lb:
            return Polynomial(
                f, tuple([(x - y) % p for x, y in zip(a, b)] + [-y % p for y in b[la:]]),
                _trusted=True,
            )
        return Polynomial._make(f, [(x - y) % p for x, y in zip(a, b)])

    def __neg__(self):
        f = self.field
        p = f.p
        return Polynomial(f, tuple([-c % p for c in self.coeffs]), _trusted=True)

    def scaled(self, c) -> "Polynomial":
        f = self.field
        p = f.p
        c %= p
        if not c:
            return Polynomial.zero(f)
        # c is a unit of F_p, so the product keeps every nonzero coefficient nonzero
        return Polynomial(f, tuple([a * c % p for a in self.coeffs]), _trusted=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        p = self.field.p
        la, lb = len(a), len(b)
        if la + lb > _SCHOOLBOOK_CUTOFF and _fits_int64(p, min(la, lb)):
            out = np.convolve(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            ) % p
            return Polynomial._make(self.field, out.tolist())
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Polynomial._make(self.field, [c % p for c in out])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def pow_frobenius(self) -> "Polynomial":
        """f(T)^p computed as f(T^p); valid because the coefficients lie in F_p."""
        p = self.field.p
        if not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * p + 1)
        for i, c in enumerate(self.coeffs):
            out[i * p] = c
        return Polynomial._make(self.field, out)

    # -- Euclidean structure --------------------------------------------------------

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        f = self.field
        if len(self.coeffs) < len(other.coeffs):
            return Polynomial.zero(f), self
        p = f.p
        g = other.coeffs
        m = len(g) - 1
        inv_lc = f.inv(g[-1])
        rem = list(self.coeffs)
        if m >= 128 and len(rem) - m >= 64:
            return self._divmod_np(other, inv_lc)
        q = [0] * (len(rem) - m)
        for i in range(len(rem) - 1, m - 1, -1):
            c = rem[i]
            if c:
                c = c * inv_lc % p
                q[i - m] = c
                for j in range(m):
                    rem[i - m + j] = (rem[i - m + j] - c * g[j]) % p
                rem[i] = 0
        return Polynomial._make(f, q), Polynomial._make(f, rem[:m])

    def _divmod_np(self, other, inv_lc):
        f = self.field
        p = f.p
        g = np.asarray(other.coeffs[:-1], dtype=np.int64)
        m = len(other.coeffs) - 1
        rem = np.asarray(self.coeffs, dtype=np.int64)
        q = [0] * (len(rem) - m)
        for i in range(len(rem) - 1, m - 1, -1):
            c = int(rem[i])
            if c:
                c = c * inv_lc % p
                q[i - m] = c
                rem[i - m : i] = (rem[i - m : i] - c * g) % p
        return Polynomial._make(f, q), Polynomial._make(f, rem[:m].tolist())

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation and reshaping ------------------------------------------------------

    def __call__(self, x):
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("the zero polynomial cannot be made monic")
        return self.scaled(self.field.inv(self.leading_coefficient()))

    def format(self, var: str = "T") -> str:
        """Human-readable form like '9*T^3 + 8*T', terms descending."""
        if not self.coeffs:
            return "0"
        parts = []
        for n in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[n]
            if not c:
                continue
            cs = str(c)
            if n == 0:
                parts.append(cs)
            else:
                tv = var if n == 1 else f"{var}^{n}"
                parts.append(tv if cs == "1" else f"{cs}*{tv}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        # "ext" stays in the serialized form, always false: the coefficients lie in F_p
        return {"p": self.field.p, "ext": False, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json_dict(d: dict) -> "Polynomial":
        if d.get("ext"):
            raise ValueError("extension-field coefficients are not supported")
        return Polynomial(GF(d["p"]), d["coeffs"])


# -- free functions on polynomials ------------------------------------------------


def gcd_monic(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor; undefined (ValueError) for (0, 0)."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def taylor_shift(coeffs, q: Polynomial) -> list:
    """X-coefficients of P(X + q), where P = sum coeffs[i] * X^i over F_p[T].

    Synthetic division: for j < n, for k = n-1 .. j, t_k += q * t_{k+1}.
    Each coefficient goes to int64 once, every step is one convolution, one
    in-place add and one reduction mod p, and each result comes back with
    one tolist().  A step sums at most len(q) products, so one _fits_int64
    check covers the triangle; when it fails the same triangle runs in
    exact Polynomial arithmetic.
    """
    field = q.field
    n = len(coeffs) - 1
    if not q.coeffs or not _fits_int64(field.p, len(q.coeffs)):
        t = list(coeffs)
        for j in range(n):
            for k in range(n - 1, j - 1, -1):
                t[k] = t[k] + q * t[k + 1]
        return t
    p = field.p
    qa = np.asarray(q.coeffs, dtype=np.int64)
    t = [np.asarray(c.coeffs, dtype=np.int64) for c in coeffs]
    for j in range(n):
        for k in range(n - 1, j - 1, -1):
            hi = t[k + 1]
            if not len(hi):
                continue
            s, lo = np.convolve(qa, hi), t[k]
            if len(lo) > len(s):
                s, lo = lo, s
            s[: len(lo)] += lo
            s %= p
            t[k] = s
    return [Polynomial._make(field, c.tolist()) for c in t]


def content(polys) -> Polynomial:
    """Monic gcd of a family of polynomials, ignoring zeros."""
    acc = None
    for f in polys:
        if f.is_zero():
            continue
        acc = f if acc is None else gcd_monic(acc, f)
        if acc.degree == 0:
            return Polynomial.one(f.field)
    if acc is None:
        raise ValueError("content of an all-zero family is undefined")
    return acc.monic()


def formal_derivative(f: Polynomial) -> Polynomial:
    fld = f.field
    p = fld.p
    return Polynomial(fld, [n * c % p for n, c in enumerate(f.coeffs)][1:])


def formal_integral(f: Polynomial) -> Polynomial:
    """The primitive of f with zero constant term.

    Each monomial c*T^n maps to c*T^(n+1)/(n+1); a monomial with p | n+1
    has no primitive in F_p[T] and raises ValueError.
    """
    fld = f.field
    p = fld.p
    out = [0] * (len(f.coeffs) + 1)
    for n, c in enumerate(f.coeffs):
        if c:
            if (n + 1) % p == 0:
                raise ValueError(f"non-integrable monomial T^{n} (p divides {n + 1})")
            out[n + 1] = c * fld.inv((n + 1) % p) % p
    return Polynomial._make(fld, out)


def is_odd_polynomial(f: Polynomial) -> bool:
    """True when every monomial of f has odd exponent (vacuously for 0)."""
    return not any(f.coeffs[0::2])


def is_even_polynomial(f: Polynomial) -> bool:
    return not any(f.coeffs[1::2])
