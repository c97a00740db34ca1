import pytest

from hqcf.fields import GF, MAX_MODULUS, PrimeField, is_prime
from hqcf.polynomials import Polynomial
from hqcf.quartic import beta_quotient_to_alpha


class TestPrimeField:
    def test_rejects_composite_even_small(self):
        for bad in (1, 2, 4, 9, 15, 91, 0, -7):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 13, 101, 9973):
            assert GF(p).p == p

    def test_cap_checked_before_the_primality_test(self):
        # trial division of 10^18 + 3 runs for minutes: is_prime refuses a
        # modulus above the cap, and so PrimeField, before dividing once
        class Counted(int):
            divisions = 0

            def __mod__(self, other):
                Counted.divisions += 1
                return int.__mod__(self, other)

        for big in (MAX_MODULUS + 1, 1000000000000000003, 2 * 10**18):
            for check in (is_prime, PrimeField):
                with pytest.raises(ValueError, match=f"supported range \\(at most {MAX_MODULUS}\\)"):
                    check(Counted(big))
        assert Counted.divisions == 0
        assert is_prime(999983) and not is_prime(MAX_MODULUS)

    def test_embed_rational(self):
        assert GF(13).embed_rational(-1, 12) == 1
        assert GF(7).embed_rational(8, 27) == 6
        assert GF(13).embed_rational(0, 5) == 0

    def test_embed_rational_rejects_bad_denominator(self):
        with pytest.raises(ValueError, match="not embeddable"):
            GF(13).embed_rational(1, 26)

    def test_embed_rational_roundtrip(self):
        for p in (5, 7, 13, 31):
            F = GF(p)
            for num in range(-6, 7):
                for den in range(1, 9):
                    if den % p:
                        assert F.embed_rational(num, den) * den % p == num % p

    def test_inverses_exhaustive(self):
        for p in (5, 7, 13, 101):
            F = GF(p)
            for x in range(1, p):
                assert x * F.inv(x) % p == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GF(7).inv(14)

    def test_fermat_exhaustive(self):
        # elements are plain ints in [0, p): pow(x, e, p) is their power map
        for p in (5, 7, 13, 101):
            for x in range(p):
                assert pow(x, p, p) == x


class TestLegendreAndSqrt:
    def test_legendre_zero(self):
        assert GF(13).legendre(0) == 0

    def test_legendre_against_exhaustive_squares(self):
        for p in (5, 7, 13, 31):
            F = GF(p)
            squares = {x * x % p for x in range(1, p)}
            for x in range(1, p):
                assert F.legendre(x) == (1 if x in squares else -1)

    def test_legendre_one_is_square(self):
        assert GF(7).legendre(1) == 1
        assert GF(13).legendre(5) == -1

    def test_smallest_nonresidue(self):
        # Tonelli-Shanks (p = 1 mod 4) looks its non-residue up inline; at
        # these p = 1 mod 8 the smallest one is 3, 3, 5, 5, 3, 7
        for p, d in ((17, 3), (41, 3), (73, 5), (97, 5), (113, 3), (241, 7)):
            F = GF(p)
            assert F.legendre(d) == -1
            assert all(F.legendre(e) != -1 for e in range(1, d))
            for x in range(p):
                r = F.sqrt(x)
                assert r is None or r * r % p == x

    def test_sqrt_canonical_choice(self):
        # both roots exist; the one in [0, p/2] is returned
        for p in (5, 7, 13, 31, 101):
            F = GF(p)
            for x in range(1, p):
                r = F.sqrt(x)
                if r is not None:
                    assert r * r % p == x
                    assert r <= p - r

    def test_sqrt_examples(self):
        assert GF(13).sqrt(4) == 2
        assert GF(7).sqrt(1) == 1

    def test_sqrt_exhaustive(self):
        # the root squares to x, and None comes back exactly for non-residues
        for p in range(3, 200):
            if not is_prime(p):
                continue
            F = GF(p)
            squares = {y * y % p for y in range(p)}
            for x in range(p):
                r = F.sqrt(x)
                if x in squares:
                    assert r is not None and r * r % p == x
                else:
                    assert r is None

    def test_sqrt_in_ext_exhaustive(self):
        # every x has a root a0 + a1*w in F_p[w], w^2 = d, with a0*a1 = 0:
        # a0 = sqrt(x) for a residue, a1 = sqrt(x/d) for a non-residue
        for p in range(3, 32):
            if not is_prime(p):
                continue
            F = GF(p)
            d = next(e for e in range(2, p) if F.legendre(e) == -1)
            for x in range(p):
                a0 = F.sqrt(x)
                a1 = 0 if a0 is not None else F.sqrt(x * F.inv(d))
                a0 = a0 or 0
                assert a1 is not None
                assert a0 * a1 == 0
                assert (a0 * a0 + d * a1 * a1) % p == x

    def test_sqrt_in_ext_residue_lands_in_base(self):
        # v = sqrt(1) = 1 in F_7, so even the odd powers of v an even
        # polynomial needs stay in F_p: 1 * (T/1)^2 = T^2
        F = GF(7)
        assert F.sqrt(1) == 1
        T2 = Polynomial(F, [0, 0, 1])
        assert beta_quotient_to_alpha(F, T2, 2, 1) == T2

    def test_sqrt_in_ext_nonresidue_leaves_base(self):
        # 5 is a non-residue mod 13: its root is a1*w with a1 != 0, not in F_13
        F = GF(13)
        assert F.legendre(5) == -1 and F.sqrt(5) is None
        d = next(e for e in range(2, 13) if F.legendre(e) == -1)
        a1 = F.sqrt(5 * F.inv(d))
        assert a1 is not None and a1 != 0
        assert d * a1 * a1 % 13 == 5
        with pytest.raises(ValueError, match="not in GF"):
            beta_quotient_to_alpha(F, Polynomial(F, [0, 0, 1]), 2, 5)
