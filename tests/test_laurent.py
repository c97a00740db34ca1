import random

import pytest

from hqcf.fields import GF
from hqcf.laurent import Laurent, divide, rational_series
from hqcf.polynomials import Polynomial
from support import poly

F7, F13 = GF(7), GF(13)


def random_poly(field, rng, max_deg, nonzero=False):
    deg = rng.randrange(0 if nonzero else -1, max_deg + 1)
    if deg < 0:
        return Polynomial.zero(field)
    coeffs = [rng.randrange(field.p) for _ in range(deg)]
    coeffs.append(rng.randrange(1, field.p))
    return Polynomial(field, coeffs)


class TestBasics:
    def test_from_polynomial(self):
        s = Laurent.from_polynomial(poly(F7, 1, 0, 3))
        assert s.degree() == 2
        assert s.coefficient(2) == 3 and s.coefficient(0) == 1
        assert s.floor is None

    def test_coefficient_below_floor_rejected(self):
        s = Laurent.from_polynomial(poly(F7, 1), floor=-3)
        assert s.coefficient(-3 + 1) == 0
        with pytest.raises(ValueError):
            s.coefficient(-3)

    def test_zero_normalization(self):
        # 1*T^-4 + 2*T^-3 lies wholly at or below the floor
        s = Laurent(poly(F7, 1, 2), -4, floor=-2)
        assert s.is_zero_to_precision()
        assert s.degree() is None

    def test_add_sub(self):
        a = Laurent.from_polynomial(poly(F7, 1, 2), floor=-4)
        b = Laurent.from_polynomial(poly(F7, 6, 5), floor=-6)
        c = a + b
        assert c.coefficient(0) == 0 and c.coefficient(1) == 0
        assert (a - a).is_zero_to_precision()
        assert c.floor == -4


class TestDivision:
    def test_rational_series_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="^series of a fraction with zero denominator$"):
            rational_series(poly(F7, 1), Polynomial.zero(F7), -5)

    def test_rational_series_t2m1_over_t(self):
        # (T^2 - 1)/T = T - T^-1
        s = rational_series(poly(F7, -1, 0, 1), Polynomial.x(F7), -5)
        assert s.coefficient(1) == 1
        assert s.coefficient(0) == 0
        assert s.coefficient(-1) == 6
        assert s.coefficient(-2) == 0

    def test_geometric(self):
        # 1/(T - 1) = T^-1 + T^-2 + ...
        s = rational_series(Polynomial.one(F7), poly(F7, -1, 1), -6)
        for e in range(-1, -6, -1):
            assert s.coefficient(e) == 1

    def test_division_roundtrip(self):
        rng = random.Random(21)
        for _ in range(40):
            num = random_poly(F13, rng, 8)
            den = random_poly(F13, rng, 6, nonzero=True)
            s = rational_series(num, den, -25)
            back = s * Laurent.from_polynomial(den)
            diff = back - Laurent.from_polynomial(num, floor=back.floor)
            assert diff.is_zero_to_precision() or diff.degree() <= back.floor

    def test_truncated_denominator_floor_tracking(self):
        rng = random.Random(22)
        # dividing by a truncated series keeps only certified coefficients
        den_full = poly(F13, 1, 4, 0, 2)
        den_trunc = Laurent.from_polynomial(den_full, floor=0)
        num = Laurent.from_polynomial(poly(F13, 5, 0, 0, 0, 1), floor=0)
        q = divide(num, den_trunc)
        exact = rational_series(poly(F13, 5, 0, 0, 0, 1), den_full, q.floor)
        for e in range(int(q.degree()), q.floor, -1):
            assert q.coefficient(e) == exact.coefficient(e)

    def test_divide_exact_needs_floor(self):
        with pytest.raises(ValueError):
            divide(
                Laurent.from_polynomial(Polynomial.one(F7)),
                Laurent.from_polynomial(Polynomial.x(F7)),
            )


class TestFrobenius:
    def test_matches_repeated_multiplication(self):
        for p in (5, 7):
            F = GF(p)
            s = rational_series(poly(F, 1, 1), poly(F, 2, 0, 1), -4 * p)
            direct = s.frobenius(p)
            slow = s
            for _ in range(p - 1):
                slow = slow * s
            cutoff = max(direct.floor, slow.floor)
            for e in range(int(s.degree()) * p, cutoff, -1):
                assert direct.coefficient(e) == slow.coefficient(e)

    def test_exponent_scaling(self):
        s = Laurent.from_polynomial(poly(F7, 0, 2), floor=-3)  # 2T
        f = s.frobenius(7)
        assert f.coefficient(7) == 2
        assert f.floor == -21

    @pytest.mark.parametrize("p", [5, 7])
    def test_one_twist_by_r_is_repeated_twists_by_p(self, p):
        F = GF(p)
        exact = Laurent(poly(F, 3, 0, 1, 2), -2)  # (2T^3 + T^2 + 3) T^-2
        truncated = rational_series(poly(F, 1, 1), poly(F, 2, 0, 1), -3 * p)
        for s in (exact, truncated):
            slow = s
            for r in (1, p, p * p):
                fast = s.frobenius(r)
                assert (fast.num, fast.shift, fast.floor) == (slow.num, slow.shift, slow.floor)
                slow = slow.frobenius(p)


class TestFirstDifference:
    def test_identical(self):
        a = rational_series(poly(F7, 1, 1), poly(F7, 3, 1), -10)
        assert a.first_difference(a) == float("-inf")

    def test_detects_difference(self):
        a = Laurent.from_polynomial(poly(F7, 1, 2), floor=-5)
        b = Laurent.from_polynomial(poly(F7, 1, 3), floor=-5)
        assert a.first_difference(b) == 1
