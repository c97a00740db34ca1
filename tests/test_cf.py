import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqcf.cf as cf_module
import hqcf.polynomials as polynomials
from hqcf.cf import (
    ContinuedFraction,
    ScalarCFUndefined,
    matrix_product,
    rational_to_cf,
    running_scalar_cf,
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
        # legal for rational input, and read off as cf[0].degree < 1
        cf = rational_to_cf(poly(F7, 1, 1), poly(F7, 0, 0, 1))
        assert cf[0].degree < 1 and all(q.degree >= 1 for q in cf[1:])
        x, y = cf.value()
        assert x * poly(F7, 0, 0, 1) == poly(F7, 1, 1) * y

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


def tree_vs_loop(cf, lo, hi):
    """matrix(lo, hi) and the same four entries read off the continuants of
    [a_{lo+1}, ..., a_hi]; K_{-1} = (x, y) = (0, 1) for an empty range."""
    xs, ys = ContinuedFraction(cf.field, cf.quotients[lo:hi]).continuants()
    zero, one = Polynomial.zero(cf.field), Polynomial.one(cf.field)
    xp, yp = (xs[-2], ys[-2]) if len(xs) > 1 else (zero, one)
    return cf.matrix(lo, hi), (xs[-1], xp, ys[-1], yp)


class TestMatrix:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33, 300])
    def test_equals_continuants(self, n):
        rng = random.Random(n)
        cf = ContinuedFraction(F13, random_quotients(F13, rng, n))
        ranges = {(0, n), (0, n // 2), (n // 3, n), (1, n), (n, n)}
        if n >= 20:
            ranges |= {(3, n - 2), (16, 32), (5, 21)}
        for lo, hi in ranges:
            if lo <= hi:
                tree, loop = tree_vs_loop(cf, lo, hi)
                assert tree == loop, (lo, hi)
        assert cf.matrix() == cf.matrix(0, n)

    def test_value_is_the_last_convergent(self):
        rng = random.Random(5)
        cf = ContinuedFraction(F7, random_quotients(F7, rng, 40))
        xs, ys = cf.continuants()
        assert cf.value() == (xs[-1], ys[-1])

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (2, 1), (0, 6)])
    def test_bad_range(self, lo, hi):
        cf = ContinuedFraction(F7, random_quotients(F7, random.Random(1), 5))
        with pytest.raises(ValueError):
            cf.matrix(lo, hi)

    def test_every_corrupted_product_detected(self, monkeypatch):
        # three leaves and two tree nodes
        n = 2 * cf_module._LEAF + 8
        cf = ContinuedFraction(F13, random_quotients(F13, random.Random(3), n))
        real_mul = Polynomial.__mul__
        calls = [0]
        bad = [-1]

        def corrupting(self, other):
            out = real_mul(self, other)
            if calls[0] == bad[0]:
                out = out + Polynomial.x(F13)
            calls[0] += 1
            return out

        monkeypatch.setattr(Polynomial, "__mul__", corrupting)
        cf.matrix()  # count the products of a clean run
        total = calls[0]
        assert total > 90
        for bad[0] in range(total):
            calls[0] = 0
            with pytest.raises(ArithmeticError, match="continuant determinant broken"):
                cf.matrix()


    def test_every_corrupted_fused_step_detected(self, monkeypatch):
        # the c*T quotients of Prop. 1/2 take the fused leaf step, not
        # Polynomial.__mul__: a wrong coefficient there must fail too
        rng = random.Random(7)
        n = 2 * cf_module._LEAF + 8
        cf = ContinuedFraction(F13, [Polynomial.monomial(F13, rng.randrange(1, 13), 1) for _ in range(n)])
        real_step = polynomials._shift_scale_add
        calls = [0]
        bad = [-1]

        def corrupting(c, e, x, xp, p):
            out = real_step(c, e, x, xp, p)
            if calls[0] == bad[0]:
                out = ((out[0] + 1) % p,) + out[1:]
            calls[0] += 1
            return out

        monkeypatch.setattr(polynomials, "_shift_scale_add", corrupting)
        cf.matrix()
        total = calls[0]
        assert total >= 2 * (n - 3)  # every leaf step but the first of each leaf
        for bad[0] in range(total):
            calls[0] = 0
            with pytest.raises(ArithmeticError, match="continuant determinant broken"):
                cf.matrix()


class TestMatrixProduct:
    @pytest.mark.parametrize("n, l", [(1, 0), (1, 1), (20, 3), (40, 16), (41, 17), (300, 149)])
    def test_head_times_tail_is_the_whole(self, n, l):
        cf = ContinuedFraction(F13, random_quotients(F13, random.Random(n + l), n))
        head, tail = cf.matrix(0, l), cf.matrix(l)
        assert matrix_product(head, tail, 0, n) == cf.matrix(0, n)

    def test_corrupted_product_detected(self, monkeypatch):
        cf = ContinuedFraction(F13, random_quotients(F13, random.Random(4), 30))
        head, tail = cf.matrix(0, 7), cf.matrix(7)
        x, xp, y, yp = tail
        with pytest.raises(ArithmeticError, match="quotients 1..30"):
            matrix_product(head, (x + Polynomial.one(F13), xp, y, yp), 0, 30)
        real_mul = Polynomial.__mul__
        monkeypatch.setattr(
            Polynomial, "__mul__", lambda f, g: real_mul(f, g) + Polynomial.x(F13)
        )
        with pytest.raises(ArithmeticError, match="continuant determinant broken"):
            matrix_product(head, tail, 0, 30)

    def test_wrong_parity_detected(self):
        cf = ContinuedFraction(F7, random_quotients(F7, random.Random(2), 6))
        with pytest.raises(ArithmeticError):
            matrix_product(cf.matrix(0, 2), cf.matrix(2), 0, 5)


class TestScalarCF:
    """running_scalar_cf(F, [h_1, ..., h_m]) is [r_1, ..., r_m] with
    r_n = [h_n, ..., h_1] = h_n + 1/r_(n-1)."""

    def test_two_terms_mod5(self):
        # [2, 3] = 2 + 1/3 = 4 mod 5
        assert running_scalar_cf(F5, [3, 2]) == [3, 4]

    def test_two_terms_mod7_zero_total(self):
        # defined, but the value is 0 (not in F_p^*): returned for the caller
        assert running_scalar_cf(F7, [3, 2]) == [3, 0]

    def test_singleton(self):
        assert running_scalar_cf(F13, [9]) == [9]
        assert running_scalar_cf(F13, [22]) == [9]

    def test_undefined_intermediate(self):
        # [2, 3] = 0 mod 7, so anything in front cannot be evaluated
        with pytest.raises(ScalarCFUndefined) as exc:
            running_scalar_cf(F7, [3, 2, 1])
        assert exc.value.index == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            running_scalar_cf(F7, [])

    def test_right_to_left_order(self):
        # [a, b, c] = a + 1/(b + 1/c), and every prefix value on the way
        p, inv = 13, F13.inv
        a, b, c = 3, 5, 2
        bc = (b + inv(c)) % p
        assert running_scalar_cf(F13, [c, b, a]) == [c, bc, (a + inv(bc)) % p]

    def test_every_prefix_matches_direct_evaluation(self):
        rng = random.Random(9)
        for _ in range(200):
            heads = [rng.randrange(13) for _ in range(rng.randrange(1, 7))]
            try:
                running = running_scalar_cf(F13, heads)
            except ScalarCFUndefined as exc:
                assert heads and exc.index < len(heads)
                continue
            for n, r in enumerate(running, start=1):
                acc = heads[0]  # [h_n, ..., h_1] evaluated right to left
                for h in heads[1:n]:
                    acc = (h + F13.inv(acc)) % 13
                assert r == acc


class TestSerialization:
    def test_json_roundtrip(self):
        cf = ContinuedFraction(F13, [poly(F13, 0, 1), poly(F13, 0, 12)])
        d = cf.to_json_dict()
        assert d["p"] == 13 and len(d["pq"]) == 2
        assert ContinuedFraction.from_json_dict(d) == cf

    def test_field_comes_from_the_outer_p(self):
        d = ContinuedFraction(F13, [poly(F13, 0, 1)]).to_json_dict()
        d["p"] = 5
        with pytest.raises(ValueError, match="F_13, not F_5"):
            ContinuedFraction.from_json_dict(d)

    def test_quotients_over_another_prime_rejected(self):
        d = {"p": 13, "pq": [poly(F13, 0, 1).to_json_dict(), poly(F7, 0, 6).to_json_dict()]}
        with pytest.raises(ValueError, match="a_2 lies over F_7"):
            ContinuedFraction.from_json_dict(d)

    def test_empty_expansion(self):
        cf = ContinuedFraction.from_json_dict({"p": 13, "pq": []})
        assert cf.field == F13 and len(cf) == 0
        assert cf == ContinuedFraction(F13, [])
        assert cf.to_json_dict() == {"p": 13, "pq": []}
