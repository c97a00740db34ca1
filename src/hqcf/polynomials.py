"""Dense univariate polynomials over F_p.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial has an empty coefficient tuple and degree -1.

The coefficients are a tuple of plain ints in [0, p) and the kernel works
on those tuples directly.  Addition, subtraction, negation and scaling
make one comprehension over the overlapping part, reduce each result mod p
once, reuse the longer operand's tail as a slice and build the result with
the trusted constructor: no per-coefficient field method call and no
re-validation.  Trailing zeros can only appear when two operands of equal
length cancel at the top, so only that case strips them.

Multiplication by a monomial c*T^e (a constant included) is a shift and a
scale in one comprehension, _shift_scale_add; the continuant recurrence
a*x + x' of hqcf.cf runs its monomial quotients through the same routine
with x' added in the same pass (_mul_add).  Other products are chosen by
their size la*lb: schoolbook in Python ints up to _SCHOOLBOOK_CUTOFF, an
exact int64 numpy convolution above it when the bound _fits_int64 (shared
with the Taylor shift of hqcf.rootcf) holds.  The numpy division of large
operands holds one product of residues at a time: int64 for every GF(p).
f << n is f * T^n, and for n < 0 the polynomial part of it: the
offset arithmetic of the Laurent series in hqcf.laurent, which run on
this kernel.

The absolute value |f| = |T|^deg(f) of the ambient power series field is
represented by the integer degree.  The zero polynomial's -1 is only a
sentinel below every real degree, not |0| = 0: callers that must treat
zero apart test is_zero().
"""

from itertools import islice, takewhile, zip_longest
from operator import not_
from typing import Iterable

import numpy as np

from .fields import GF, PrimeField

# the largest product size la * lb that schoolbook multiplies: above it the
# int64 convolution is faster (measured with timeit at p = 17 .. 999983)
_SCHOOLBOOK_CUTOFF = 32


def _fits_int64(p: int, terms: int) -> bool:
    """Whether a sum of `terms` products of residues mod p, plus one more
    residue, stays inside int64: the guard of every numpy kernel path."""
    return (p - 1) * (p - 1) * terms < (1 << 62)


def _is_monomial(cs: tuple) -> bool:
    """Whether the nonempty coefficient tuple cs is c*T^e: all but its top
    coefficient are zero.  It stops at the first nonzero one, copying nothing."""
    return not any(islice(cs, len(cs) - 1))


def _shift_scale_add(c: int, e: int, x: tuple, xp: tuple, p: int) -> tuple:
    """The coefficients of c*T^e * x + xp in one comprehension, for c a unit
    mod p, x nonempty and len(xp) < len(x) + e (deg xp < deg x + e): the top
    coefficient c*x[-1] is then nonzero and the result is canonical.  It is
    built as one list and made a tuple once, with no intermediate tuple."""
    out = list(xp[:e])
    out += (0,) * (e - len(xp))
    out += [(c * u + v) % p for u, v in zip_longest(x, xp[e:], fillvalue=0)]
    return tuple(out)


def _strip(cs: list) -> tuple:
    """cs without its trailing zeros, as a tuple: the run of zeros is found
    in one scan of the reversed list (no Python loop) and cut in one del."""
    if cs and not cs[-1]:
        del cs[len(cs) - len(list(takewhile(not_, reversed(cs)))):]
    return tuple(cs)


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable = (), *, _trusted=False):
        self.field = field
        self.coeffs = coeffs if _trusted else _strip([c % field.p for c in coeffs])

    @classmethod
    def _make(cls, field, cs: list) -> "Polynomial":
        # internal: cs already reduced mod p, only needs trailing-zero strip
        return cls(field, _strip(cs), _trusted=True)

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
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
        if _is_monomial(a):
            a, b = b, a
        if _is_monomial(b):
            return Polynomial(self.field, _shift_scale_add(b[-1], len(b) - 1, a, (), p), _trusted=True)
        la, lb = len(a), len(b)
        if la * lb > _SCHOOLBOOK_CUTOFF and _fits_int64(p, min(la, lb)):
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
            e >>= 1
            if e:
                base = base * base
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

    def __lshift__(self, n: int) -> "Polynomial":
        """The polynomial part of f * T^n: for n >= 0 the product, for n < 0
        f with its lowest -n coefficients dropped (f // T^-n)."""
        cs = self.coeffs
        if n >= 0:
            return Polynomial(self.field, (0,) * n + cs, _trusted=True) if cs else self
        # a slice of a canonical tuple keeps its nonzero top, or is empty
        return Polynomial(self.field, cs[-n:], _trusted=True)

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

    # -- reshaping -------------------------------------------------------------------

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("the zero polynomial cannot be made monic")
        return self.scaled(self.field.inv(self.leading_coefficient()))

    def format(self, var: str = "T", c: int = 1, terms: tuple | None = None) -> str:
        """Human-readable form of c*f, like '9*T^3 + 8*T' with the terms
        descending, written without building c*f.

        terms is self.terms(var): a caller that formats f for several c
        passes it to every call, so that only the work that depends on c
        is repeated.  Each distinct coefficient value is scaled and turned
        into a string once per call.
        """
        p = self.field.p
        c %= p
        if not c or not self.coeffs:
            return "0"
        values, heads, names = self.terms(var) if terms is None else terms
        # "3*" for a term 3*T^n, and "" where c*a = 1: the term reads T^n
        prefix = {a: f"{b}*" if (b := a * c % p) != 1 else "" for a in values}
        text = " + ".join(map(str.__add__, map(prefix.__getitem__, heads), names))
        if not self.coeffs[0]:
            return text
        constant = str(self.coeffs[0] * c % p)
        return f"{text} + {constant}" if text else constant

    def terms(self, var: str = "T") -> tuple:
        """(values, heads, names) for format: the nonzero coefficients of
        the terms of degree >= 1, descending (heads), their monomials 'T^n'
        or 'T' (names) and the set of their distinct values."""
        cs = self.coeffs
        degrees = [n for n in range(len(cs) - 1, 0, -1) if cs[n]]
        heads = [cs[n] for n in degrees]
        names = [f"{var}^{n}" if n > 1 else var for n in degrees]
        return set(heads), heads, names

    def to_json_dict(self) -> dict:
        # "ext" stays in the serialized form, always false: the coefficients lie in F_p
        return {"p": self.field.p, "ext": False, "coeffs": list(self.coeffs)}

    def to_json_text(self, c: int = 1, values: set | None = None) -> str:
        """json.dumps((c*f).to_json_dict()), written without building c*f.

        values is set(self.coeffs): a caller that writes f for several c
        passes it to every call.  Each distinct coefficient value is scaled
        and turned into a string once per call.
        """
        p = self.field.p
        c %= p
        cs = self.coeffs if c else ()
        digits = {a: str(a * c % p) for a in (set(cs) if values is None else values)}
        return f'{{"p": {p}, "ext": false, "coeffs": [{", ".join(map(digits.__getitem__, cs))}]}}'

    @staticmethod
    def from_json_dict(d: dict) -> "Polynomial":
        if d.get("ext"):
            raise ValueError("extension-field coefficients are not supported")
        return Polynomial(GF(d["p"]), d["coeffs"])


# -- free functions on polynomials ------------------------------------------------


def _mul_add(a: Polynomial, x: Polynomial, xp: Polynomial) -> Polynomial:
    """a * x + xp, the continuant step: one pass by _shift_scale_add when a is
    a monomial c*T^e and deg xp < deg x + e, else the product and the sum."""
    cs, xs, ps = a.coeffs, x.coeffs, xp.coeffs
    e = len(cs) - 1
    if cs and xs and len(ps) < len(xs) + e and _is_monomial(cs):
        return Polynomial(a.field, _shift_scale_add(cs[-1], e, xs, ps, a.field.p), _trusted=True)
    return a * x + xp


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

