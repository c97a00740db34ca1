import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcf.cf import ContinuedFraction
from hqcf.fields import GF, ExtElement
from hqcf.polynomials import (
    NEG_INF,
    Polynomial,
    content,
    formal_derivative,
    formal_integral,
    gcd_monic,
    is_even_polynomial,
    is_odd_polynomial,
)
from hqcf.quartic import beta_quotient_to_alpha, normalize_to_beta

F5, F7, F13 = GF(5), GF(7), GF(13)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


def naive_mul(f, g):
    # independent schoolbook oracle
    fld = f.field
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(fld)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % fld.p
    return Polynomial(fld, out)


def random_poly(field, rng, max_deg, nonzero=False):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        if nonzero:
            deg = 0
        else:
            return Polynomial.zero(field)
    coeffs = [rng.randrange(field.p) for _ in range(deg)]
    coeffs.append(rng.randrange(1, field.p))
    return Polynomial(field, coeffs)


class TestBasics:
    def test_zero_degree_is_neg_inf(self):
        z = Polynomial.zero(F7)
        assert z.degree == NEG_INF
        assert z.is_zero()

    def test_degree_additivity(self):
        rng = random.Random(1)
        for _ in range(200):
            f = random_poly(F13, rng, 12, nonzero=True)
            g = random_poly(F13, rng, 12, nonzero=True)
            assert (f * g).degree == f.degree + g.degree

    def test_numpy_and_schoolbook_paths_agree(self):
        rng = random.Random(2)
        for _ in range(30):
            f = random_poly(F13, rng, 80, nonzero=True)
            g = random_poly(F13, rng, 70, nonzero=True)
            assert f * g == naive_mul(f, g)

    def test_pow_frobenius_matches_pow(self):
        rng = random.Random(3)
        for p in (5, 7, 13):
            F = GF(p)
            for _ in range(10):
                f = random_poly(F, rng, 6)
                assert f.pow_frobenius() == f**p

    def test_format(self):
        assert poly(F13, 0, 8, 0, 9).format() == "9*T^3 + 8*T"
        assert poly(F13, 1).format() == "1"
        assert Polynomial.zero(F13).format() == "0"
        assert poly(F13, 0, 1).format() == "T"

    def test_eval(self):
        f = poly(F7, 1, 0, 1)  # T^2 + 1
        assert f(3) == (9 + 1) % 7


class TestDivmod:
    def test_t5_by_t2_minus_1(self):
        f = Polynomial.monomial(F5, 1, 5)
        g = poly(F5, -1, 0, 1)
        q, r = divmod(f, g)
        assert q == poly(F5, 0, 1, 0, 1)  # T^3 + T
        assert r == poly(F5, 0, 1)  # T
        assert q * g + r == f

    def test_simple(self):
        f = poly(F7, -1, 0, 1)
        g = Polynomial.x(F7)
        q, r = divmod(f, g)
        assert q == g and r == poly(F7, -1)

    def test_zero_dividend(self):
        q, r = divmod(Polynomial.zero(F7), Polynomial.x(F7))
        assert q.is_zero() and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Polynomial.x(F7), Polynomial.zero(F7))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, data):
        p = data.draw(st.sampled_from([5, 7, 13]))
        F = GF(p)
        fc = data.draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=51))
        gc = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=51))
        f, g = Polynomial(F, fc), Polynomial(F, gc)
        if g.is_zero():
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_numpy_division_path(self):
        rng = random.Random(4)
        f = random_poly(F13, rng, 400, nonzero=True)
        g = random_poly(F13, rng, 150, nonzero=True)
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree


class TestGcd:
    def test_simple(self):
        f = poly(F7, -1, 0, 1)
        g = poly(F7, -1, 1)
        assert gcd_monic(f, g) == poly(F7, -1, 1)

    def test_constructed_common_factor(self):
        base = poly(F13, 8, 0, 1) ** 4
        f = base * poly(F13, 0, 2, 0, 1)  # (T^2+8)^4 (T^3 + 2T)
        g = base * poly(F13, 0, 5)  # (T^2+8)^4 (5T)
        assert gcd_monic(f, g) == base * Polynomial.x(F13)

    def test_coprime(self):
        assert gcd_monic(Polynomial.x(F7), Polynomial.one(F7)) == Polynomial.one(F7)

    def test_both_zero(self):
        with pytest.raises(ValueError):
            gcd_monic(Polynomial.zero(F7), Polynomial.zero(F7))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_associate_invariance(self, data):
        p = data.draw(st.sampled_from([5, 7, 13]))
        F = GF(p)
        mk = lambda lo: Polynomial(
            F, data.draw(st.lists(st.integers(0, p - 1), min_size=lo, max_size=8))
        )
        f, g, h = mk(1), mk(1), mk(2)
        if f.is_zero() or g.is_zero() or h.is_zero() or h.degree < 1:
            return
        lhs = gcd_monic(f * h, g * h)
        rhs = (gcd_monic(f, g) * h).monic()
        assert lhs == rhs

    def test_content(self):
        base = poly(F13, 1, 1)
        fam = [base * poly(F13, 2), base * Polynomial.x(F13), base * base]
        assert content(fam) == base.monic()


class TestCalculus:
    def test_integral_of_quadratic(self):
        f = poly(F13, 8, 0, 1)  # T^2 + 8
        assert formal_integral(f) == poly(F13, 0, 8, 0, 9)  # 9T^3 + 8T

    def test_integral_of_one(self):
        assert formal_integral(Polynomial.one(F7)) == Polynomial.x(F7)

    def test_non_integrable_monomial(self):
        for p in (5, 7, 13):
            F = GF(p)
            with pytest.raises(ValueError, match="non-integrable"):
                formal_integral(Polynomial.monomial(F, 1, p - 1))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_derivative_inverts_integral(self, data):
        p = data.draw(st.sampled_from([5, 7, 13]))
        F = GF(p)
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=p - 1))
        f = Polynomial(F, coeffs)
        try:
            g = formal_integral(f)
        except ValueError:
            return
        assert formal_derivative(g) == f


def random_odd_poly(field, rng, max_deg):
    """A nonzero polynomial with odd exponents only, degree <= max_deg."""
    top = rng.randrange(1, max_deg + 1, 2)
    coeffs = [rng.randrange(field.p) if n % 2 else 0 for n in range(top)]
    return Polynomial(field, coeffs + [rng.randrange(1, field.p)])


def ext_mul(x, y, d, p):
    # (x0 + x1*w)(y0 + y1*w) with w^2 = d: an oracle independent of hqcf
    return ((x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def ext_pow(v, m, d, p):
    if m < 0:
        norm = (v[0] * v[0] - d * v[1] * v[1]) % p
        ninv = pow(norm, p - 2, p)
        v, m = (v[0] * ninv % p, -v[1] * ninv % p), -m
    out = (1, 0)
    for _ in range(m):
        out = ext_mul(out, v, d, p)
    return out


class TestScaling:
    """The two quartic rescalings by v = sqrt(-a), computed in F_p:
    b_i(T) = v^((-1)^(i+1)) a_i(v*T) (normalize_to_beta) and
    a_n(T) = v^((-1)^n) b_n(T/v) (beta_quotient_to_alpha)."""

    def setup_method(self):
        self.F = F13
        self.v = self.F.sqrt_in_ext(5)  # non-residue: v = a1*w, v^2 = 5
        self.u = self.F.sqrt_in_ext(4)  # residue: u = 2

    def normalize(self, neg_a, quotients):
        # normalize_to_beta reads only these fields of a derivation trace
        trace = SimpleNamespace(
            p=13, a=-neg_a % 13, l=len(quotients), k=4, eps1=1, eps2=1,
            prefix=ContinuedFraction(self.F, quotients),
        )
        return normalize_to_beta(trace)

    def test_scale_x_by_v(self):
        T = Polynomial.x(self.F)
        # forward: T -> v * (v*T) = 5T for odd i, v^-1 * (v*T) = T for even i
        assert self.normalize(5, [T, T]).b_prefix == (T.scaled(5), T)
        # back: T -> v^-1 * (T/v) = T/5 for odd n, v * (T/v) = T for even n
        assert beta_quotient_to_alpha(self.F, T, 1, self.v) == T.scaled(self.F.inv(5))
        assert beta_quotient_to_alpha(self.F, T, 2, self.v) == T

    def test_scale_even_poly_lands_in_base(self):
        # with v in F_p even polynomials stay in F_p too: 2*((T/2)^2 + 8) = 7T^2 + 3
        f = poly(self.F, 8, 0, 1)
        assert beta_quotient_to_alpha(self.F, f, 2, self.u) == poly(self.F, 3, 0, 7)

    def test_scale_constant(self):
        c = poly(self.F, 11)
        assert beta_quotient_to_alpha(self.F, c, 2, self.u) == poly(self.F, 22)
        assert beta_quotient_to_alpha(self.F, c, 1, self.u) == poly(self.F, 11 * 7)

    def test_scale_involution(self):
        rng = random.Random(5)
        for neg_a in (5, 4):  # -a a non-residue, then a residue mod 13
            qs = [random_odd_poly(self.F, rng, 9) for _ in range(25)]
            nr = self.normalize(neg_a, qs)
            back = [
                beta_quotient_to_alpha(self.F, b, n, nr.v)
                for n, b in enumerate(nr.b_prefix, start=1)
            ]
            assert back == qs

    def test_matches_extension_arithmetic(self):
        # the F_p route agrees coefficientwise with v^m computed in F_13[w]
        rng = random.Random(6)
        d = self.F.smallest_nonresidue()
        v = tuple(self.v)
        for n in range(1, 31):
            b = random_odd_poly(self.F, rng, 11)
            outer = 1 if n % 2 == 0 else -1
            expect = []
            for j, c in enumerate(b.coeffs):
                e0, e1 = ext_pow(v, outer - j, d, 13)
                assert c * e1 % 13 == 0
                expect.append(c * e0)
            assert beta_quotient_to_alpha(self.F, b, n, self.v) == Polynomial(self.F, expect)

    def test_scale_by_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            beta_quotient_to_alpha(self.F, Polynomial.x(self.F), 1, ExtElement(0, 0))

    def test_mixed_record_rejected(self):
        # (1 + w)^2 = 1 + d + 2w is not in F_p, so it is no v = sqrt(-a)
        with pytest.raises(ValueError, match="not a square root"):
            beta_quotient_to_alpha(self.F, Polynomial.x(self.F), 1, ExtElement(1, 1))

    def test_downcast_failure_is_loud(self):
        # an even polynomial needs odd powers of v = a1*w, which leave F_p
        with pytest.raises(ValueError, match="not in GF"):
            beta_quotient_to_alpha(self.F, poly(self.F, 8, 0, 1), 2, self.v)
        with pytest.raises(ValueError, match="not in GF"):
            self.normalize(5, [poly(self.F, 8, 0, 1)])


class TestParity:
    def test_examples(self):
        assert is_odd_polynomial(poly(F7, 0, 6, 0, 5))  # 5T^3 + 6T
        assert not is_odd_polynomial(poly(F7, 1, 0, 1))
        assert is_odd_polynomial(Polynomial.zero(F7))
        assert is_even_polynomial(poly(F7, 1, 0, 1))


class TestSerialization:
    def test_roundtrip_prime(self):
        f = poly(F13, 0, 8, 0, 9)
        d = f.to_json_dict()
        assert d == {"p": 13, "ext": False, "coeffs": [0, 8, 0, 9]}
        assert Polynomial.from_json_dict(json.loads(json.dumps(d))) == f

    def test_ext_form_rejected(self):
        with pytest.raises(ValueError, match="extension"):
            Polynomial.from_json_dict({"p": 13, "ext": True, "coeffs": [[1, 2], [0, 3]]})
