import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcf.cf import (
    ContinuedFraction,
    ScalarCFUndefined,
    eval_scalar_cf,
    rational_to_cf,
)
from hqcf.fields import GF
from hqcf.perfect import pq_polynomials
from hqcf.polynomials import Polynomial

F5, F7, F13 = GF(5), GF(7), GF(13)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


def random_quotients(field, rng, count, max_deg=3):
    out = []
    for _ in range(count):
        deg = rng.randrange(1, max_deg + 1)
        coeffs = [rng.randrange(field.p) for _ in range(deg)]
        coeffs.append(rng.randrange(1, field.p))
        out.append(Polynomial(field, coeffs))
    return out


class TestRationalToCF:
    def test_t2_minus_1_over_t(self):
        cf = rational_to_cf(poly(F5, -1, 0, 1), Polynomial.x(F5))
        assert [q.format() for q in cf] == ["T", "4*T"]
        assert not cf.first_quotient_constant

    def test_p4_over_q4_leading_quotient(self):
        P, Q = pq_polynomials(F13, 4)
        cf = rational_to_cf(P, Q)
        assert cf[0] == poly(F13, 0, 7)  # v_{1,4} = 2k-1 = 7

    def test_poly_over_one(self):
        f = poly(F7, 1, 2, 3)
        cf = rational_to_cf(f, Polynomial.one(F7))
        assert list(cf) == [f]

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rational_to_cf(Polynomial.x(F7), Polynomial.zero(F7))

    def test_constant_first_quotient_flagged(self):
        cf = rational_to_cf(poly(F7, 1, 1), poly(F7, 0, 0, 1))
        assert cf.first_quotient_constant

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_up_to_common_factor(self, data):
        p = data.draw(st.sampled_from([5, 7, 13]))
        F = GF(p)
        nc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10))
        dc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
        num, den = Polynomial(F, nc), Polynomial(F, dc)
        if den.is_zero() or num.is_zero():
            return
        cf = rational_to_cf(num, den)
        x, y = cf.value()
        # num/den == x/y as rational functions
        assert num * y == x * den


class TestContinuants:
    def test_published_convergent_p7(self):
        cf = ContinuedFraction(F7, [poly(F7, 0, 2), poly(F7, 0, 6), poly(F7, 0, 6)])
        xs, ys = cf.continuants()
        assert xs[3] == poly(F7, 0, 1, 0, 2)  # 2T^3 + T
        assert ys[3] == poly(F7, 1, 0, 1)  # T^2 + 1

    def test_single_quotient(self):
        a = poly(F7, 0, 3)
        cf = ContinuedFraction(F7, [a])
        xs, ys = cf.continuants()
        assert xs[1] == a and ys[1] == Polynomial.one(F7)

    def test_published_convergent_p13(self):
        lams = [1, 12, 7, 11, 8, 5]
        cf = ContinuedFraction(F13, [poly(F13, 0, c) for c in lams])
        xs, ys = cf.continuants()
        det = xs[6] * ys[5] - xs[5] * ys[6]
        assert det == Polynomial.one(F13)

    def test_determinant_identity_randomized(self):
        rng = random.Random(11)
        one = Polynomial.one(F13)
        for _ in range(50):
            cf = ContinuedFraction(F13, random_quotients(F13, rng, rng.randrange(1, 9)))
            xs, ys = cf.continuants()
            for n in range(1, len(xs)):
                expect = one if n % 2 == 0 else -one
                assert xs[n] * ys[n - 1] - xs[n - 1] * ys[n] == expect

    def test_degree_additivity(self):
        rng = random.Random(12)
        for _ in range(30):
            qs = random_quotients(F7, rng, rng.randrange(1, 8))
            cf = ContinuedFraction(F7, qs)
            xs, ys = cf.continuants()
            assert xs[-1].degree == sum(q.degree for q in qs)
            if len(qs) >= 2:
                assert ys[-1].degree == sum(q.degree for q in qs[1:])


class TestScalarCF:
    def test_two_terms_mod5(self):
        assert eval_scalar_cf(F5, [2, 3]) == 4

    def test_two_terms_mod7_zero_total(self):
        # defined, but the value is 0 (not in F_p^*): returned for the caller
        assert eval_scalar_cf(F7, [2, 3]) == 0

    def test_singleton(self):
        assert eval_scalar_cf(F13, [9]) == 9

    def test_undefined_intermediate(self):
        # [2, 3] = 0 mod 7, so anything in front cannot be evaluated
        with pytest.raises(ScalarCFUndefined):
            eval_scalar_cf(F7, [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eval_scalar_cf(F7, [])

    def test_right_to_left_order(self):
        # [a, b, c] = a + 1/(b + 1/c)
        F = F13
        a, b, c = 3, 5, 2
        expect = F.add(a, F.inv(F.add(b, F.inv(c))))
        assert eval_scalar_cf(F, [a, b, c]) == expect


class TestSerialization:
    def test_json_roundtrip(self):
        cf = ContinuedFraction(F13, [poly(F13, 0, 1), poly(F13, 0, 12)])
        d = cf.to_json_dict()
        assert d["p"] == 13 and len(d["pq"]) == 2
        assert ContinuedFraction.from_json_dict(d) == cf
