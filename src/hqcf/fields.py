"""Arithmetic in the prime field F_p.

Elements of F_p are plain Python integers in [0, p); a PrimeField instance
is the context that combines them.  The one value that can lie outside F_p
is a square root of a non-residue: sqrt_in_ext returns it as an ExtElement
record (a0, a1) standing for a0 + a1*w with w*w = d, where d is the field's
smallest quadratic non-residue.  One of a0, a1 is always zero, so the
record's square a0^2 + d*a1^2 is computed in F_p.

All operations are pure functions over immutable values, so contexts and
elements can be shared freely between threads.
"""

from typing import NamedTuple, Optional

_MAX_MODULUS = 10**6  # trial division stays cheap; this library targets desk-scale primes


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class ExtElement(NamedTuple):
    """a0 + a1*w with w*w equal to the field's smallest non-residue."""

    a0: int
    a1: int


_field_cache: dict[int, "PrimeField"] = {}


def GF(p: int) -> "PrimeField":
    """Return the (cached) prime field context for modulus p."""
    field = _field_cache.get(p)
    if field is None:
        field = PrimeField(p)
        _field_cache[p] = field
    return field


class PrimeField:
    """The field F_p for an odd prime p with 3 <= p <= 10^6."""

    __slots__ = ("p", "_nonresidue")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
        if p > _MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the supported range")
        self.p = p
        self._nonresidue: Optional[int] = None

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- element construction ------------------------------------------------

    def __call__(self, x: int) -> int:
        return x % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def embed_rational(self, num: int, den: int) -> int:
        """Image of the rational num/den in F_p.

        Raises ValueError when den is divisible by p (the rational has no
        image mod p).
        """
        if den % self.p == 0:
            raise ValueError(f"rational {num}/{den} not embeddable mod {self.p}")
        return num * self.inv(den % self.p) % self.p

    # -- ring operations -----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(x, self.p - 2, self.p)

    def div(self, x: int, y: int) -> int:
        return x * self.inv(y) % self.p

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(x), -e, self.p)
        return pow(x, e, self.p)

    def is_zero(self, x: int) -> bool:
        return x % self.p == 0

    # -- quadratic structure ---------------------------------------------------

    def legendre(self, x: int) -> int:
        """Euler-criterion residue symbol: 1, -1, or 0."""
        x %= self.p
        if x == 0:
            return 0
        s = pow(x, (self.p - 1) // 2, self.p)
        return -1 if s == self.p - 1 else s

    def smallest_nonresidue(self) -> int:
        if self._nonresidue is None:
            d = 2
            while self.legendre(d) != -1:
                d += 1
            self._nonresidue = d
        return self._nonresidue

    def sqrt(self, x: int) -> Optional[int]:
        """Canonical square root of x in F_p, or None for non-residues.

        Uses Tonelli-Shanks; of the two roots the one with integer
        representative in [0, p/2] is returned, so outputs are stable.
        """
        p = self.p
        x %= p
        if x == 0:
            return 0
        if self.legendre(x) != 1:
            return None
        if p % 4 == 3:
            r = pow(x, (p + 1) // 4, p)
            return min(r, p - r)
        # write p - 1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = self.smallest_nonresidue()
        c = pow(z, q, p)
        r = pow(x, (q + 1) // 2, p)
        t = pow(x, q, p)
        m = s
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
        return min(r, p - r)

    def sqrt_in_ext(self, x: int) -> ExtElement:
        """A square root of x: (r, 0) with r in F_p when x is a residue,
        else (0, s) standing for s*w, w*w = d.

        Deterministic: residues get the canonical base-field root; for a
        non-residue x, s is the canonical root of x/d.
        """
        x %= self.p
        r = self.sqrt(x)
        if r is not None:
            return ExtElement(r, 0)
        s = self.sqrt(self.div(x, self.smallest_nonresidue()))
        assert s is not None  # x/d is a residue when both are non-residues
        return ExtElement(0, s)
