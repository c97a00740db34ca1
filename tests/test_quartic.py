import random
from fractions import Fraction

import pytest

from hqcf.cf import ContinuedFraction
from hqcf.fields import GF, ExtElement
from hqcf.perfect import relation_residual, generate_perfect_expansion
from hqcf.polynomials import NEG_INF, Polynomial, is_odd_polynomial
from hqcf.quartic import (
    approximation_exponent,
    beta_quotient_to_alpha,
    derive_frobenius_relation,
    normalize_to_beta,
    power_vectors,
    verify_conjecture1,
    verify_conjecture2,
)
from hqcf.rootcf import expand_root, quartic_state

F5, F7, F13 = GF(5), GF(7), GF(13)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


# -- independent oracle: X^n mod (X^4 + 12T X^3 - 12 X^2 - 12) ---------------------


def xpoly_mulmod(field, f, g, m):
    # f, g, m: lists of T-polynomials ascending in X; m monic
    out = [Polynomial.zero(field)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    # reduce by m
    dm = len(m) - 1
    while len(out) > dm:
        lead = out.pop()
        if not lead.is_zero():
            for j in range(dm):
                out[len(out) - dm + j] = out[len(out) - dm + j] - lead * m[j]
    return out


def alpha_power_oracle(field, n):
    # square-and-multiply in F_p[T][X] mod the monic minimal polynomial
    twelve = field(12)
    m = [
        poly(field, -twelve),
        Polynomial.zero(field),
        poly(field, -twelve),
        poly(field, 0, twelve),
        Polynomial.one(field),
    ]
    x = [Polynomial.zero(field), Polynomial.one(field)]
    out = [Polynomial.one(field)]
    e = n
    base = x
    while e:
        if e & 1:
            out = xpoly_mulmod(field, out, base, m)
        base = xpoly_mulmod(field, base, base, m)
        e >>= 1
    out = out + [Polynomial.zero(field)] * (4 - len(out))
    return out  # ascending: [d, c, b, a]


class TestPowerReduce:
    def test_alpha_4(self):
        v = power_vectors(F13, 4)[4]
        assert v.a == poly(F13, 0, -12)
        assert v.b == poly(F13, 12)
        assert v.c.is_zero()
        assert v.d == poly(F13, 12)

    def test_alpha_5(self):
        v = power_vectors(F13, 5)[5]
        assert v.a == poly(F13, 12, 0, 144)  # 144T^2 + 12
        assert v.b == poly(F13, 0, -144)
        assert v.c == poly(F13, 12)
        assert v.d == poly(F13, 0, -144)

    def test_successive_consistency(self):
        rng = random.Random(31)
        vecs = power_vectors(F7, 55)
        from hqcf.quartic import _alpha_step

        for _ in range(25):
            m = rng.randrange(1, 54)
            assert _alpha_step(F7, vecs[m]) == vecs[m + 1]

    def test_against_modexp_oracle(self):
        for p in (7, 13):
            F = GF(p)
            vecs = power_vectors(F, p + 1)
            for n in (4, 5, p, p + 1):
                d, c, b, a = alpha_power_oracle(F, n)
                assert vecs[n] == (a, b, c, d)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p >= 5"):
            power_vectors(GF(3), 4)


class TestDerivation:
    def test_p7_relation(self):
        tr = derive_frobenius_relation(7)
        assert (tr.eps1, tr.eps2, tr.a) == (3, 5, 6)
        assert (tr.l, tr.k) == (3, 2)
        assert tr.P == poly(F7, 6, 0, 1) ** 2  # (T^2 - 1)^2
        assert tr.Q == poly(F7, 0, 6, 0, 5)  # 5T^3 + 6T
        assert [q.format() for q in tr.prefix] == ["2*T", "6*T", "6*T"]
        assert tr.lambda_prefix == (2, 6, 6)
        assert tr.degree_check and tr.convergent_check

    def test_p13_relation(self):
        tr = derive_frobenius_relation(13)
        assert (tr.eps1, tr.eps2, tr.a) == (1, 4, 8)
        assert (tr.l, tr.k) == (6, 4)
        assert tr.P == poly(F13, 8, 0, 1) ** 4
        assert tr.Q == poly(F13, 0, 5, 0, 12, 0, 10, 0, 2)  # 2T^7+10T^5+12T^3+5T
        assert tr.lambda_prefix == (1, 12, 7, 11, 8, 5)

    def test_reduced_pair_is_the_convergent(self):
        tr = derive_frobenius_relation(7)
        xs, ys = tr.prefix.continuants()
        assert tr.a_star_p1 == xs[3] == poly(F7, 0, 1, 0, 2)
        assert tr.a_star_p == ys[3] == poly(F7, 1, 0, 1)

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            derive_frobenius_relation(11)

    def test_relation_residual_alpha_coordinates(self):
        # Mkaouar expansion satisfies alpha^p = eps1 P_{k,a} alpha_{l+1} + eps2 Q_{k,a}
        for p in (7, 13):
            tr = derive_frobenius_relation(p)
            cf = expand_root(quartic_state(GF(p)), 150)
            assert relation_residual(cf, tr.relation(), 100) is NEG_INF

    def test_eq7_sign_discipline_negative_control(self):
        tr = derive_frobenius_relation(7)
        cf = expand_root(quartic_state(F7), 120)
        flipped = tr.relation()._replace(eps1=F7.neg(tr.eps1))
        assert relation_residual(cf, flipped, 60) is not NEG_INF


class TestNormalization:
    def test_p13_published_transform(self):
        nr = normalize_to_beta(derive_frobenius_relation(13))
        assert (nr.eps1, nr.eps2) == (12, 9)
        assert [b.format() for b in nr.b_prefix] == [
            "5*T", "12*T", "9*T", "11*T", "T", "5*T",
        ]
        # -a = 5 is a non-residue mod 13: v = a1*w with v^2 = d*a1^2 = 5
        assert nr.v.a0 == 0 and nr.v.a1 != 0
        assert F13.smallest_nonresidue() * nr.v.a1 * nr.v.a1 % 13 == 5

    def test_p7_identity_transform(self):
        nr = normalize_to_beta(derive_frobenius_relation(7))
        assert nr.v == ExtElement(1, 0)
        assert (nr.eps1, nr.eps2) == (3, 5)
        assert [b.format() for b in nr.b_prefix] == ["2*T", "6*T", "6*T"]

    def test_roundtrip_beta_to_alpha(self):
        for p in (7, 13):
            tr = derive_frobenius_relation(p)
            nr = normalize_to_beta(tr)
            F = GF(p)
            back = [
                beta_quotient_to_alpha(F, b, n, nr.v)
                for n, b in enumerate(nr.b_prefix, start=1)
            ]
            assert back == list(tr.prefix.quotients)


class TestConjecture1:
    def test_p7(self):
        v = verify_conjecture1(7, 60)
        assert v.passed and v.a == 6 and v.a_equals_8_27
        assert v.compared_terms == 60
        d = v.to_json_dict()
        assert d["pass"] is True and d["epsilon1"] == 3 and d["epsilon2"] == 5

    def test_p13(self):
        v = verify_conjecture1(13, 60)
        assert v.passed and v.a == 8 and v.a_equals_8_27

    def test_oddness_along_the_way(self):
        cf = expand_root(quartic_state(F13), 120)
        assert all(is_odd_polynomial(q) for q in cf)


class TestConjecture2:
    def test_p5(self):
        v = verify_conjecture2(5)
        assert v.passed
        assert (v.l, v.k_prime, v.k) == (12, 8, 2)
        # frozen after independent series verification of the found triple
        assert (v.eps1, v.eps2, v.a) == (4, 3, 4)
        assert v.a_equals_8_27

    def test_p5_negative_control(self):
        v = verify_conjecture2(5, n=14, l_override=13)
        assert not v.passed

    def test_p11_negative_control(self):
        v = verify_conjecture2(11, n=50, l_override=49)
        assert not v.passed

    def test_insufficient_expansion(self):
        with pytest.raises(ValueError, match="insufficient"):
            verify_conjecture2(5, n=5)

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            verify_conjecture2(7)


class TestApproximationExponent:
    def gen_cf(self, p, n):
        tr = derive_frobenius_relation(p)
        nr = normalize_to_beta(tr)
        return generate_perfect_expansion(nr.spec(), n).cf

    def test_closed_form_p7_p13(self):
        for p in (7, 13):
            cf = self.gen_cf(p, 40)
            rep = approximation_exponent(cf, 39)
            assert rep.nu0_closed == Fraction(2, 3)
            assert rep.nu_closed == Fraction(8, 3)

    def test_bounded_quotients_ratios_decay(self):
        qs = [poly(F7, 0, c % 6 + 1) for c in range(60)]
        cf = ContinuedFraction(F7, qs)
        rep = approximation_exponent(cf, 59)
        # every quotient has degree 1, so the last ratio is 1/59 and
        # nu -> 2 as the window grows
        assert rep.ratios_tail == Fraction(1, 59)
        assert rep.nu0_closed is None

    def test_window_errors(self):
        cf = ContinuedFraction(F7, [poly(F7, 0, 1)] * 5)
        with pytest.raises(ValueError):
            approximation_exponent(cf, 0)
        with pytest.raises(ValueError):
            approximation_exponent(cf, 5)

    def test_p11_closed_form(self):
        from hqcf.perfect import generate_perfect_p11

        p, i1 = 13, 1
        gen = generate_perfect_p11(GF(p), i1, 2, 4, 30)
        rep = approximation_exponent(gen.cf, 29)
        num = (p - 1) * (p ** (i1 + 1) - 3 * p**i1)
        den = p ** (i1 + 1) - 3 * p**i1 + 2
        assert rep.nu0_closed == Fraction(num, den)
