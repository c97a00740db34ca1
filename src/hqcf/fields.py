"""The prime field F_p.

Elements of F_p are plain Python integers in [0, p), combined with the
ordinary operators and reduced with % p; pow(x, e, p) raises them to
powers.  A PrimeField instance only names the modulus and supplies what
those operators do not: inverses, the residue symbol, canonical square
roots and the image of a rational.

All operations are pure functions over immutable values, so contexts and
elements can be shared freely between threads.
"""

from functools import cache
from typing import Optional

# The largest supported modulus; is_prime refuses anything above it.
MAX_MODULUS = 10**6


def is_prime(n: int) -> bool:
    """Primality by trial division; an n above MAX_MODULUS is a ValueError,
    raised before any division (10^18 + 3 would take minutes)."""
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported range (at most {MAX_MODULUS})")
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


@cache
def GF(p: int) -> "PrimeField":
    """Return the (cached) prime field context for modulus p."""
    return PrimeField(p)


class PrimeField:
    """The field F_p for an odd prime p with 3 <= p <= MAX_MODULUS (10^6)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def embed_rational(self, num: int, den: int) -> int:
        """Image of the rational num/den in F_p.

        Raises ValueError when den is divisible by p (the rational has no
        image mod p).
        """
        if den % self.p == 0:
            raise ValueError(f"rational {num}/{den} not embeddable mod {self.p}")
        return num * self.inv(den % self.p) % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(x, self.p - 2, self.p)

    def legendre(self, x: int) -> int:
        """Euler-criterion residue symbol: 1, -1, or 0."""
        x %= self.p
        if x == 0:
            return 0
        s = pow(x, (self.p - 1) // 2, self.p)
        return -1 if s == self.p - 1 else s

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
        z = 2  # the smallest non-residue
        while self.legendre(z) != -1:
            z += 1
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
