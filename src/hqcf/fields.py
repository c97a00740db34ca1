"""The prime field F_p.

Elements of F_p are plain Python integers in [0, p), combined with the
ordinary operators and reduced with % p; pow(x, e, p) raises them to
powers.  A PrimeField instance only names the modulus and supplies what
those operators do not: inverses and the image of a rational.

All operations are pure functions over immutable values, so contexts and
elements can be shared freely between threads.
"""

from functools import cache

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
