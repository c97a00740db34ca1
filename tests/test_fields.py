import pytest

from hqcf.fields import GF, MAX_MODULUS, PrimeField, is_prime


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
