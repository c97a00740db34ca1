import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcf.cf import ContinuedFraction
from hqcf.fields import GF
from hqcf.polynomials import Polynomial, formal_integral
from hqcf.quartic import beta_quotient_to_alpha, derive_frobenius_relation, normalize_to_beta

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
    def test_zero_degree_is_minus_one(self):
        z = Polynomial.zero(F7)
        assert z.degree == -1
        assert z.is_zero()

    def test_shift_by_powers_of_t(self):
        f = poly(F7, 3, 0, 5)
        assert f << 2 == poly(F7, 0, 0, 3, 0, 5)
        assert f << 0 == f
        assert f << -1 == poly(F7, 0, 5)
        assert f << -2 == poly(F7, 5)
        assert (f << -3).is_zero()
        assert (Polynomial.zero(F7) << 4).is_zero()
        rng = random.Random(4)
        for _ in range(50):
            g = random_poly(F13, rng, 12)
            n = rng.randrange(0, 15)
            assert g << n == g * Polynomial.monomial(F13, 1, n)
            assert g << -n == g // Polynomial.monomial(F13, 1, n)

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

    def test_pow_squares_only_while_bits_remain(self, monkeypatch):
        # f^8: three squarings and the product 1 * f^8, no fourth squaring
        f = poly(F13, 5, 0, 1)
        want = f * f * f * f * f * f * f * f
        real, calls = Polynomial.__mul__, []

        def counted(a, b):
            calls.append(b.degree)
            return real(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        assert f**8 == want
        assert calls == [2, 4, 8, 16]  # f*f, f^2*f^2, f^4*f^4, then 1*f^8
        monkeypatch.undo()
        acc = Polynomial.one(F13)
        for e in range(12):
            assert f**e == acc
            acc = acc * f

    def test_format(self):
        assert poly(F13, 0, 8, 0, 9).format() == "9*T^3 + 8*T"
        assert poly(F13, 1).format() == "1"
        assert Polynomial.zero(F13).format() == "0"
        assert poly(F13, 0, 1).format() == "T"

    def test_eval(self):
        # f(c) is the remainder of f by T - c
        f = poly(F7, 1, 0, 1)  # T^2 + 1
        assert f % poly(F7, -3, 1) == poly(F7, 9 + 1)


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
        # d/dT of sum c_n T^n is sum n c_n T^(n-1)
        assert Polynomial(F, [n * c for n, c in enumerate(g.coeffs)][1:]) == f


def random_odd_poly(field, rng, max_deg):
    """A nonzero polynomial with odd exponents only, degree <= max_deg."""
    top = rng.randrange(1, max_deg + 1, 2)
    coeffs = [rng.randrange(field.p) if n % 2 else 0 for n in range(top)]
    return Polynomial(field, coeffs + [rng.randrange(1, field.p)])


def ext_sqrt(s, p):
    """(d, a1) with d the smallest non-residue mod p and d*a1^2 = s, so that
    v = a1*w, w^2 = d, is a square root of the non-residue s in F_p[w]."""
    d = next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)
    return d, next(a1 for a1 in range(1, p) if d * a1 * a1 % p == s % p)


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
    """The two quartic rescalings by v = sqrt(-a), computed in F_p on
    s = v^2 alone: b_i(T) = v^((-1)^(i+1)) a_i(v*T) (normalize_to_beta, on a
    prefix of quotients lambda*T) and a_n(T) = v^((-1)^n) b_n(T/v)
    (beta_quotient_to_alpha)."""

    def setup_method(self):
        self.F = F13
        self.v = 5  # s = v^2, a non-residue: v lies outside F_13
        self.u = 4  # s = u^2, a residue: u = 2

    def normalize(self, neg_a, quotients):
        # the p = 13 derivation trace with its a and prefix replaced
        tr = derive_frobenius_relation(13)
        return normalize_to_beta(dataclasses.replace(
            tr,
            relation=tr.relation._replace(l=len(quotients)),
            a=-neg_a % 13,
            prefix=ContinuedFraction(self.F, quotients),
        ))

    def test_scale_x_by_v(self):
        T = Polynomial.x(self.F)
        # forward: T -> v * (v*T) = 5T for odd i, v^-1 * (v*T) = T for even i
        assert self.normalize(5, [T, T]).lambdas == (5, 1)
        # back: T -> v^-1 * (T/v) = T/5 for odd n, v * (T/v) = T for even n
        assert beta_quotient_to_alpha(self.F, T, 1, self.v) == T.scaled(self.F.inv(5))
        assert beta_quotient_to_alpha(self.F, T, 2, self.v) == T

    @pytest.mark.parametrize("p, s", [(7, 1), (13, 4)])
    def test_odd_power_of_a_square_rejected(self, p, s):
        # s is a square in F_p (v = 1 and v = 2), yet an even polynomial needs
        # an odd power of v, which s alone does not fix: v and -v disagree there
        F = GF(p)
        assert pow(s, (p - 1) // 2, p) == 1
        for b in (poly(F, 8, 0, 1), poly(F, 0, 0, 1)):
            for n in (1, 2):
                with pytest.raises(ValueError, match="odd power of v"):
                    beta_quotient_to_alpha(F, b, n, s)

    def test_scale_constant(self):
        # c -> v^(+-1) c is an odd power of v for every n, with s a square
        # (u = 2) or not
        c = poly(self.F, 11)
        for s in (self.u, self.v):
            for n in (1, 2):
                with pytest.raises(ValueError, match="coefficient of T\\^0 needs an odd power"):
                    beta_quotient_to_alpha(self.F, c, n, s)

    def test_scale_involution(self):
        # the prefix of the derived relation maps to beta and back, at the
        # primes past test_quartic's p = 7 and 13; s = -a = -8/27 is a square
        # mod 31 and not mod 19, 37 and 43 (Euler's criterion)
        squares = set()
        for p in (19, 31, 37, 43):
            F = GF(p)
            tr = derive_frobenius_relation(p)
            s = -tr.a % p
            squares.add(pow(s, (p - 1) // 2, p) == 1)
            spec = normalize_to_beta(tr)
            back = [
                beta_quotient_to_alpha(F, Polynomial.monomial(F, lam, 1), n, s)
                for n, lam in enumerate(spec.lambdas, start=1)
            ]
            assert back == list(tr.prefix.quotients)
        assert squares == {True, False}

    def test_matches_extension_arithmetic(self):
        # the F_p route agrees coefficientwise with v^m computed in F_13[w]
        rng = random.Random(6)
        d, a1 = ext_sqrt(self.v, 13)
        v = (0, a1)
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
            beta_quotient_to_alpha(self.F, Polynomial.x(self.F), 1, 0)
        with pytest.raises(ValueError, match="degenerate"):
            beta_quotient_to_alpha(self.F, Polynomial.x(self.F), 1, 13)

    def test_downcast_failure_is_loud(self):
        # an even polynomial needs odd powers of v = sqrt(5), which leave F_p
        with pytest.raises(ValueError, match="odd power of v"):
            beta_quotient_to_alpha(self.F, poly(self.F, 8, 0, 1), 2, self.v)


class TestParity:
    # the tests' oddness check: every monomial has odd exponent
    def test_examples(self):
        assert not any(poly(F7, 0, 6, 0, 5).coeffs[0::2])  # 5T^3 + 6T
        assert any(poly(F7, 1, 0, 1).coeffs[0::2])
        assert not any(Polynomial.zero(F7).coeffs[0::2])
        assert any(poly(F7, 0, 1, 1).coeffs[0::2])


class TestSerialization:
    def test_roundtrip_prime(self):
        f = poly(F13, 0, 8, 0, 9)
        d = f.to_json_dict()
        assert d == {"p": 13, "ext": False, "coeffs": [0, 8, 0, 9]}
        assert Polynomial.from_json_dict(json.loads(json.dumps(d))) == f

    def test_ext_form_rejected(self):
        with pytest.raises(ValueError, match="extension"):
            Polynomial.from_json_dict({"p": 13, "ext": True, "coeffs": [[1, 2], [0, 3]]})


def reference_format(f, var="T"):
    """The term-by-term formatter that Polynomial.format replaced."""
    parts = []
    for n in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[n]
        if not c:
            continue
        if n == 0:
            parts.append(str(c))
        else:
            tv = var if n == 1 else f"{var}^{n}"
            parts.append(tv if c == 1 else f"{c}*{tv}")
    return " + ".join(parts) if parts else "0"


class TestScaledRender:
    """format(c=c) and to_json_text(c) write c*f without building it; they
    must read exactly like the text and JSON of f.scaled(c)."""

    @staticmethod
    def shapes(field, rng):
        u = [rng.randrange(1, field.p) for _ in range(9)]
        sparse = [0] * 3001
        for n, c in zip((0, 1, 2, 1000, 3000), u):
            sparse[n] = c
        return [
            Polynomial.zero(field),
            poly(field, 1),
            poly(field, u[5]),
            poly(field, 0, 1),  # T
            poly(field, 1, 1, 0, 1),  # coefficient-1 terms and the constant 1
            poly(field, 0, u[6], u[7]),  # a T^1 term next to T^2
            poly(field, 0, 0, 0, u[8]),  # a lone monomial, no constant
            poly(field, *sparse),  # sparse, high degree
            random_poly(field, rng, 40, nonzero=True),
            random_poly(field, rng, 40, nonzero=True),
        ]

    @pytest.mark.parametrize("p", [5, 7, 13, 997, 999983])
    def test_matches_the_scaled_polynomial(self, p):
        field, rng = GF(p), random.Random(p)
        for f in self.shapes(field, rng):
            units = range(1, p) if p < 100 else rng.sample(range(1, p), 40)
            # every c that turns some coefficient into 1, so that its term reads T^n
            units = sorted(set(units) | {pow(a, -1, p) for a in f.coeffs if a})
            terms, values = f.terms(), set(f.coeffs)
            for c in units:
                g = f.scaled(c)
                text = g.format()
                assert text == reference_format(g), (p, f.coeffs, c)
                assert f.format("T", c) == text, (p, f.coeffs, c)
                assert f.format("T", c, terms) == text, (p, f.coeffs, c)
                assert f.format("X", c + p) == reference_format(g, "X")
                expected = json.dumps(g.to_json_dict())
                assert f.to_json_text(c) == expected, (p, f.coeffs, c)
                assert f.to_json_text(c, values) == expected, (p, f.coeffs, c)
            assert f.format("T", 0) == "0" and f.format("T", p) == "0"
            assert f.to_json_text(0) == json.dumps(Polynomial.zero(field).to_json_dict())

    def test_memory_bounded_by_distinct_values_not_by_p(self):
        # a table over F_p at p = 999983 would hold a million strings (tens
        # of MB); the renderer holds one string per distinct coefficient
        import tracemalloc

        field = GF(999983)
        coeffs = [0] * 3001
        for n in (0, 1, 2, 1000, 3000):
            coeffs[n] = 1000 * n + 7
        f = Polynomial(field, coeffs)
        tracemalloc.start()
        try:
            for c in (2, 3, 999982):
                f.format("T", c)
                f.to_json_text(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000
