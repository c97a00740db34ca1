import pytest

from hqcf.fields import GF, ExtElement, PrimeField, is_prime


class TestPrimeField:
    def test_rejects_composite_even_small(self):
        for bad in (1, 2, 4, 9, 15, 91, 0, -7):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 13, 101, 9973):
            assert GF(p).p == p

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
                        assert F.mul(F.embed_rational(num, den), F(den)) == F(num)

    def test_inverses_exhaustive(self):
        for p in (5, 7, 13, 101):
            F = GF(p)
            for x in range(1, p):
                assert F.mul(x, F.inv(x)) == 1

    def test_fermat_exhaustive(self):
        for p in (5, 7, 13, 101):
            F = GF(p)
            for x in range(p):
                assert F.pow(x, p) == x


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
        for p in (5, 7, 13, 31, 101):
            F = GF(p)
            d = F.smallest_nonresidue()
            assert F.legendre(d) == -1
            assert all(F.legendre(e) != -1 for e in range(1, d))

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

    def test_sqrt_in_ext_exhaustive(self):
        # (a0 + a1*w)^2 with w^2 = d and one of a0, a1 zero is a0^2 + d*a1^2
        for p in range(3, 32):
            if not is_prime(p):
                continue
            F = GF(p)
            d = F.smallest_nonresidue()
            for x in range(p):
                v = F.sqrt_in_ext(x)
                assert v.a0 * v.a1 == 0
                assert (v.a0 * v.a0 + d * v.a1 * v.a1) % p == x

    def test_sqrt_in_ext_residue_lands_in_base(self):
        v = GF(7).sqrt_in_ext(1)
        assert v == ExtElement(1, 0)

    def test_sqrt_in_ext_nonresidue_leaves_base(self):
        F = GF(13)
        v = F.sqrt_in_ext(5)
        assert v.a0 == 0 and v.a1 != 0
        assert (F.smallest_nonresidue() * v.a1 * v.a1) % 13 == 5
