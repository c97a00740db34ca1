"""Differential tests of the F_p[T] kernel against sympy's galoistools,
and of the Laurent series built on it against a dict reference.

Multiplication and division draw their degrees on both sides of
every switch between kernel paths: the monomial shift and scale,
_SCHOOLBOOK_CUTOFF (schoolbook or int64 convolution by the product size
la*lb), the numpy division (divisor degree >= 128 and quotient length >=
64) and the _fits_int64 guard, which the tests force to fail by
monkeypatching.  The continuant step a*x + x' (_mul_add), fused for
monomial quotients, is checked against the plain recurrence over
galoistools.  The root expansion's two array kernels, the top-coefficient
quotient and the Taylor shift, are tested the same way; the shift is
checked on both sides of _sums_fit_int64 (one reduction mod p per row, or
one per product) and refuses where the guard fails too.

galoistools stores a polynomial as a list of coefficients in [0, p),
highest degree first; Polynomial stores them lowest degree first.  Every
kernel result is also checked to be canonical: plain ints in [0, p) and no
trailing zeros.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

gt = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

import numpy as np  # noqa: E402

import hqcf.polynomials as polynomials  # noqa: E402
import hqcf.rootcf as rootcf  # noqa: E402
from hqcf.cf import ContinuedFraction  # noqa: E402
from hqcf.fields import GF, PrimeField  # noqa: E402
from hqcf.laurent import Laurent, divide  # noqa: E402
from hqcf.polynomials import Polynomial  # noqa: E402
from test_perfect import mutated  # noqa: E402

PRIMES = [3, 5, 7, 13, 97, 65537, 999983]


def to_gf(f: Polynomial) -> list:
    return list(reversed(f.coeffs))


def assert_canonical(f: Polynomial, p: int):
    assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0


def coeff_lists(draw, p, length):
    return draw(st.lists(st.integers(0, p - 1), min_size=length, max_size=length))


def operand_pair(data, p, *, equal_length, cancel):
    """Two polynomials over GF(p); with cancel, b's top coefficients are
    chosen so that a + b (cancel="add") or a - b (cancel="sub") loses its
    leading terms."""
    la = data.draw(st.integers(0, 80))
    lb = la if equal_length else data.draw(st.integers(0, 80).filter(lambda n: n != la))
    a = coeff_lists(data.draw, p, la)
    b = coeff_lists(data.draw, p, lb)
    if cancel and la:
        top = data.draw(st.integers(1, la))
        for i in range(la - top, la):
            b[i] = -a[i] % p if cancel == "add" else a[i]
    field = GF(p)
    return Polynomial(field, a), Polynomial(field, b)


@st.composite
def kernel_case(draw):
    p = draw(st.sampled_from(PRIMES))
    equal_length = draw(st.booleans())
    cancel = draw(st.sampled_from([None, "add", "sub"])) if equal_length else None
    return p, equal_length, cancel


class TestAddSubNegScale:
    @given(kernel_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_add_matches_gf_add(self, case, data):
        p, equal_length, cancel = case
        f, g = operand_pair(data, p, equal_length=equal_length, cancel=cancel)
        got = f + g
        assert_canonical(got, p)
        assert to_gf(got) == gt.gf_add(to_gf(f), to_gf(g), p, ZZ)

    @given(kernel_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sub_matches_gf_sub(self, case, data):
        p, equal_length, cancel = case
        f, g = operand_pair(data, p, equal_length=equal_length, cancel=cancel)
        for x, y in ((f, g), (g, f)):
            got = x - y
            assert_canonical(got, p)
            assert to_gf(got) == gt.gf_sub(to_gf(x), to_gf(y), p, ZZ)

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_neg_matches_gf_neg(self, p, data):
        f = Polynomial(GF(p), coeff_lists(data.draw, p, data.draw(st.integers(0, 80))))
        got = -f
        assert_canonical(got, p)
        assert to_gf(got) == gt.gf_neg(to_gf(f), p, ZZ)

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_scaled_matches_gf_mul_ground(self, p, data):
        f = Polynomial(GF(p), coeff_lists(data.draw, p, data.draw(st.integers(0, 80))))
        # any integer scalar, including multiples of p and negatives
        c = data.draw(st.integers(-3 * p, 3 * p))
        got = f.scaled(c)
        assert_canonical(got, p)
        assert to_gf(got) == gt.gf_mul_ground(to_gf(f), c % p, p, ZZ)


# lengths on both sides of _SCHOOLBOOK_CUTOFF (a product switches to the
# convolution when la * lb > 32): two SHORT operands fall on either side,
# a LONG one is past it against any operand of length 2 or more
SHORT = st.integers(0, 9)
LONG = st.integers(17, 150)


def poly_of_length(data, p, length, monic_top=False):
    cs = coeff_lists(data.draw, p, length)
    if cs and monic_top:
        cs[-1] = data.draw(st.integers(1, p - 1))
    return Polynomial(GF(p), cs)


class TestMulDivGcd:
    @given(st.sampled_from(PRIMES), st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_mul_matches_gf_mul(self, p, guard_off, data):
        f = poly_of_length(data, p, data.draw(st.one_of(SHORT, LONG)))
        g = poly_of_length(data, p, data.draw(st.one_of(SHORT, LONG)))
        want = gt.gf_mul(to_gf(f), to_gf(g), p, ZZ)
        if guard_off:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polynomials, "_fits_int64", lambda modulus, terms: False)
                got = f * g
        else:
            got = f * g
        assert_canonical(got, p)
        assert to_gf(got) == want

    @pytest.mark.parametrize("la, lb, convolved", [(4, 8, False), (3, 11, True), (2, 16, False), (2, 17, True)])
    def test_product_size_picks_the_kernel(self, la, lb, convolved):
        # 4*8 and 2*16 are at the cutoff, 3*11 and 2*17 just past it
        p = 13
        rng = random.Random(la * lb)
        f = Polynomial(GF(p), [rng.randrange(1, p) for _ in range(la)])
        g = Polynomial(GF(p), [rng.randrange(1, p) for _ in range(lb)])
        calls = []
        real = np.convolve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomials.np, "convolve", lambda *a: calls.append(1) or real(*a))
            got = f * g
        assert bool(calls) is convolved
        assert to_gf(got) == gt.gf_mul(to_gf(f), to_gf(g), p, ZZ)

    @pytest.mark.parametrize("p", PRIMES + [(1 << 61) - 1])
    def test_monomial_operands(self, p):
        # c*T^e for e in 0..150 on either side of a general operand and of
        # another monomial; at p = 2^61 - 1 no product fits int64
        if p in PRIMES:
            F = GF(p)
        else:
            F = object.__new__(PrimeField)
            F.p = p
        rng = random.Random(p)
        for e in range(151):
            c = rng.randrange(1, p)
            m = Polynomial.monomial(F, c, e)
            for n in (1, 2, rng.randrange(3, 40), rng.randrange(40, 160)):
                f = Polynomial(F, [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)])
                want = gt.gf_mul(to_gf(m), to_gf(f), p, ZZ)
                for got in (m * f, f * m):
                    assert_canonical(got, p)
                    assert to_gf(got) == want
            other = Polynomial.monomial(F, rng.randrange(1, p), rng.randrange(151))
            got = m * other
            assert_canonical(got, p)
            assert to_gf(got) == gt.gf_mul(to_gf(m), to_gf(other), p, ZZ)

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=120, deadline=None)
    def test_divmod_matches_gf_div(self, p, data):
        # divisor degree below or at/above 128; quotient length below or
        # at/above 64; and dividends shorter than the divisor
        m = data.draw(st.one_of(st.integers(0, 20), st.integers(120, 140)))
        g = poly_of_length(data, p, m + 1, monic_top=True)
        f = poly_of_length(data, p, max(0, m + data.draw(st.integers(-5, 100))))
        q, r = divmod(f, g)
        assert_canonical(q, p)
        assert_canonical(r, p)
        assert (to_gf(q), to_gf(r)) == gt.gf_div(to_gf(f), to_gf(g), p, ZZ)
        assert f // g == q and f % g == r

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Polynomial.one(GF(7)), Polynomial.zero(GF(7)))


# -- the continuant step and the product tree ---------------------------------


@st.composite
def quotient(draw, p):
    """A zero, constant, monomial c*T^e or general quotient over GF(p)."""
    kind = draw(st.sampled_from(["zero", "constant", "monomial", "general"]))
    F = GF(p)
    if kind == "zero":
        return Polynomial.zero(F)
    c = draw(st.integers(1, p - 1))
    if kind == "constant":
        return Polynomial.constant(F, c)
    if kind == "monomial":
        return Polynomial.monomial(F, c, draw(st.integers(1, 4)))
    return Polynomial(F, coeff_lists(draw, p, draw(st.integers(1, 4))) + [c])


def reference_continuants(quotients, p):
    """(x_n, x_{n-1}, y_n, y_{n-1}) of the plain recurrence K_i = a_i K_{i-1}
    + K_{i-2} over galoistools lists (x_0 = 1, x_{-1} = 0; y_0 = 0, y_{-1} = 1)."""
    x, xp, y, yp = [1], [], [], [1]
    for a in quotients:
        a = to_gf(a)
        x, xp = gt.gf_add(gt.gf_mul(a, x, p, ZZ), xp, p, ZZ), x
        y, yp = gt.gf_add(gt.gf_mul(a, y, p, ZZ), yp, p, ZZ), y
    return x, xp, y, yp


class TestContinuantStep:
    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mul_add_matches_gf(self, p, data):
        # x' drawn on both sides of deg x + e, so the fused step and the
        # product-and-sum fallback both run
        a = data.draw(quotient(p))
        x = poly_of_length(data, p, data.draw(st.integers(0, 12)))
        xp = poly_of_length(data, p, data.draw(st.integers(0, 16)))
        got = polynomials._mul_add(a, x, xp)
        assert_canonical(got, p)
        assert to_gf(got) == gt.gf_add(gt.gf_mul(to_gf(a), to_gf(x), p, ZZ), to_gf(xp), p, ZZ)

    @pytest.mark.parametrize("e", [0, 1, 3])
    def test_mul_add_where_the_top_cancels(self, e):
        # a = T^e, x = 1 - T, x' = T^(e+1) - 1: deg x' = deg x + e and the
        # two tops cancel, leaving T^e - 1 (or 0 for e = 0)
        F = GF(7)
        a = Polynomial.monomial(F, 1, e)
        x = Polynomial(F, [1, -1])
        xp = Polynomial.monomial(F, 1, e + 1) - Polynomial.one(F)
        got = polynomials._mul_add(a, x, xp)
        assert_canonical(got, 7)
        assert got == a * x + xp == Polynomial.monomial(F, 1, e) - Polynomial.one(F)

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_tree_matches_the_plain_recurrence(self, p, data):
        # up to three leaves of _LEAF = 32 quotients and two tree nodes;
        # continuants() runs the generic a*x + x' at every step
        qs = data.draw(st.lists(quotient(p), max_size=80))
        cf = ContinuedFraction(GF(p), qs)
        got = cf.matrix()
        for f in got:
            assert_canonical(f, p)
        assert [to_gf(f) for f in got] == list(reference_continuants(qs, p))
        xs, ys = cf.continuants()
        if qs:
            assert got == (xs[-1], xs[-2], ys[-1], ys[-2])
        lo = data.draw(st.integers(0, len(qs)))
        hi = data.draw(st.integers(lo, len(qs)))
        assert [to_gf(f) for f in cf.matrix(lo, hi)] == list(reference_continuants(qs[lo:hi], p))

    def test_constant_quotients_cancel_at_the_top(self):
        # [T, -1, 1]: x_2 = 1 - T and x_3 = 1 * (1 - T) + T = 1, where
        # deg x_1 = deg x_2 + deg a_3
        F = GF(5)
        T, one = Polynomial.x(F), Polynomial.one(F)
        qs = [T, -one, one]
        x, xp, y, yp = ContinuedFraction(F, qs).matrix()
        assert x == one and xp == one - T
        assert [to_gf(f) for f in (x, xp, y, yp)] == list(reference_continuants(qs, 5))


def reference_taylor_shift(coeffs, q, p):
    """P(X + q) by Horner in X over galoistools coefficient lists: the
    running value R is multiplied by (X + q) and the next coefficient of P
    is added, so R_i <- R_{i-1} + q * R_i."""
    r = []
    for c in reversed(coeffs):
        shifted = [[]] + r
        for i, ri in enumerate(r):
            shifted[i] = gt.gf_add(shifted[i], gt.gf_mul(q, ri, p, ZZ), p, ZZ)
        shifted[0] = gt.gf_add(shifted[0], c, p, ZZ)
        r = shifted
    return r


@st.composite
def shift_case(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 5))
    coeffs = [
        coeff_lists(draw, p, draw(st.integers(0, 30))) for _ in range(n)
    ] + [coeff_lists(draw, p, draw(st.integers(1, 30)))]
    coeffs[-1][-1] = draw(st.integers(1, p - 1))  # nonzero leading X-coefficient
    q = coeff_lists(draw, p, draw(st.integers(0, 6)))
    return p, coeffs, q


def check_taylor_shift(p, coeffs, q):
    F = GF(p)
    polys = [Polynomial(F, c) for c in coeffs]
    qp = Polynomial(F, q)
    arrays = [np.array(c.coeffs, dtype=np.int64) for c in polys]
    got = [rootcf._poly(F, c) for c in rootcf._taylor_shift(arrays, qp.coeffs, p)]
    assert len(got) == len(polys)
    for g in got:
        assert_canonical(g, p)
    # the input arrays are shared with the previous state and stay intact
    assert [c.tolist() for c in arrays] == [list(c.coeffs) for c in polys]
    want = reference_taylor_shift([to_gf(c) for c in polys], to_gf(qp), p)
    assert [to_gf(g) for g in got] == want


# 3000 * (1 + 2*3000)^4 < 2^62 <= 3000 * (1 + 3*3000)^4
AT_THE_BOUND = 3001


def all_top_case(terms):
    """A quartic state and a quotient of `terms` coefficients, every
    coefficient p - 1 = 3000, at p = AT_THE_BOUND; the states are 12 long,
    so q^4 * t_4 sums all terms^4 products in its middle coefficients."""
    p = AT_THE_BOUND
    return p, [[p - 1] * 12] * 5, [p - 1] * terms


def shift_agrees(p, coeffs, q):
    try:
        check_taylor_shift(p, coeffs, q)
    except AssertionError:
        return False
    return True


class TestTaylorShift:
    @given(shift_case())
    @settings(max_examples=120, deadline=None)
    def test_matches_horner_over_galoistools(self, case):
        check_taylor_shift(*case)

    def test_refuses_past_the_int64_guard(self):
        # past both bounds; the guard is asked about the longest product
        # sum, len(q) terms
        asked = []

        def does_not_fit(modulus, terms):
            asked.append((modulus, terms))
            return False

        p = 999983
        arrays = [np.array(c, dtype=np.int64) for c in ([1], [1], [0, 1])]
        assert not rootcf._sums_fit_int64(p, 3, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootcf, "_fits_int64", does_not_fit)
            with pytest.raises(OverflowError, match="overflows int64"):
                rootcf._taylor_shift(arrays, (0, 0, 5), p)
        assert asked == [(p, 3)]

    def test_zero_coefficients_and_zero_shift(self):
        F = GF(13)
        one, zero, T = Polynomial.one(F), Polynomial.zero(F), Polynomial.x(F)
        state = [one, zero, one, -T, Polynomial.constant(F, 1)]
        arrays = [np.array(c.coeffs, dtype=np.int64) for c in state]
        assert rootcf._taylor_shift(arrays, (), 13) == arrays
        check_taylor_shift(13, [c.coeffs for c in state], [0, 12])

    def test_guard_bound(self):
        # the int64 guard is shared by multiplication and the Taylor shift
        assert rootcf._fits_int64 is polynomials._fits_int64
        p = 999983
        terms = (1 << 62) // ((p - 1) * (p - 1))
        assert polynomials._fits_int64(p, terms)
        assert not polynomials._fits_int64(p, terms + 1)

    @pytest.mark.parametrize("p, n, terms", [(13, 4, 2074), (AT_THE_BOUND, 4, 2), (999983, 2, 2),
                                             (999983, 1, 4611852), (65537, 4, 0)])
    def test_sum_bound(self, p, n, terms):
        # (p-1) * (1 + terms*(p-1))^n < 2^62: one reduction per row up to
        # `terms` quotient coefficients, one per product past it
        assert rootcf._sums_fit_int64(p, terms, n)
        assert not rootcf._sums_fit_int64(p, terms + 1, n)

    @pytest.mark.parametrize("terms", [2, 3], ids=["per-row", "per-product"])
    def test_all_top_residues_at_the_sum_bound(self, terms):
        # q of degree 1 reduces once per row, of degree 2 once per product;
        # unreduced, the latter's q^4 * t_4 alone would wrap int64
        p, coeffs, q = all_top_case(terms)
        assert rootcf._sums_fit_int64(p, len(q), 4) == (terms == 2)
        assert ((p - 1) ** 5 * terms**4 >= 1 << 63) == (terms == 3)
        check_taylor_shift(p, coeffs, q)

    # what breaks, each checked at the sum bound: (the text of _taylor_shift,
    # its replacement, and the quotient length whose shift then disagrees
    # with galoistools)
    SHIFT_MUTANTS = {
        "bound's exponent n - 1": ("_sums_fit_int64(p, len(q), n)", "_sums_fit_int64(p, len(q), n - 1)", 3),
        "per-row reduction dropped": ("t[:n] = [_reduced(s, p) for s in t[:n]]", "pass", 2),
        "cached q * t_n updated in place": ("s = top.copy()", "s = top", 2),
    }

    @pytest.mark.parametrize("name", list(SHIFT_MUTANTS))
    def test_mutant_is_killed(self, name, monkeypatch):
        old, new, terms = self.SHIFT_MUTANTS[name]
        assert shift_agrees(*all_top_case(terms))
        monkeypatch.setattr(rootcf, "_taylor_shift", mutated(rootcf, "_taylor_shift", old, new))
        assert not shift_agrees(*all_top_case(terms))


class TestTopQuotient:
    @given(st.sampled_from(PRIMES), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_division_and_gf_div(self, p, s_positive, data):
        # d = deg a - deg b >= 0 and s = max(0, deg b - d): s > 0 exactly
        # when d < deg b
        db = data.draw(st.integers(1, 40) if s_positive else st.integers(0, 40))
        d = data.draw(st.integers(0, db - 1) if s_positive else st.integers(db, db + 40))
        b = poly_of_length(data, p, db + 1, monic_top=True)
        a = poly_of_length(data, p, db + d + 1, monic_top=True)
        F = GF(p)
        got = rootcf._top_quotient(
            F, np.array(a.coeffs, dtype=np.int64), np.array(b.coeffs, dtype=np.int64)
        )
        assert_canonical(got, p)
        assert got == a // b
        assert to_gf(got) == gt.gf_div(to_gf(a), to_gf(b), p, ZZ)[0]
        assert got.degree == d


# -- Laurent series against a dict reference -----------------------------------
#
# A reference series is (coeffs, floor): coeffs maps an exponent to a nonzero
# coefficient, every key lies above floor, and floor is None for an exact
# value.  The floor rules are those of the original descending-list
# implementation: + and - keep the larger floor; * measures each floor from
# the other operand's top (its degree, or its floor when it is zero to
# precision, or 0 when it is an exact zero); divide by long division.

LAURENT_PRIMES = [3, 5, 7, 13]


def ref_make(coeffs, floor, p):
    return {
        e: c % p for e, c in coeffs.items() if c % p and (floor is None or e > floor)
    }, floor


def ref_top(ref):
    coeffs, floor = ref
    if coeffs:
        return max(coeffs)
    return 0 if floor is None else floor


def ref_floor_max(*floors):
    known = [f for f in floors if f is not None]
    return max(known) if known else None


def ref_addsub(a, b, sign, p):
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out.get(e, 0) + sign * c
    return ref_make(out, ref_floor_max(a[1], b[1]), p)


def ref_mul(a, b, p):
    floor = ref_floor_max(
        None if a[1] is None else a[1] + ref_top(b),
        None if b[1] is None else b[1] + ref_top(a),
    )
    out = {}
    for ea, ca in a[0].items():
        for eb, cb in b[0].items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return ref_make(out, floor, p)


def ref_divide(n, d, p):
    """Quotient coefficients q_e from the top down: the T^(e+delta)
    coefficient of n is the sum of d_j * q_(e+delta-j) over d's terms."""
    delta = max(d[0])
    if not n[0]:
        return {}, None if n[1] is None else n[1] - delta
    floor = ref_floor_max(
        None if n[1] is None else n[1] - delta,
        None if d[1] is None else d[1] + ref_top(n) - 2 * delta,
    )
    if floor is None:
        raise ValueError("exact division needs a floor")
    inv = pow(d[0][delta], p - 2, p)
    q = {}
    for e in range(ref_top(n) - delta, floor, -1):
        acc = n[0].get(e + delta, 0)
        acc -= sum(c * q.get(e + delta - j, 0) for j, c in d[0].items() if j != delta)
        q[e] = acc * inv % p
    return ref_make(q, floor, p)


def assert_matches(s, ref, p):
    coeffs, floor = ref
    assert s.floor == floor
    assert s.degree() == (max(coeffs) if coeffs else None)
    assert_canonical(s.num, p)
    lo = floor + 1 if floor is not None else min(coeffs, default=0) - 3
    for e in range(lo, max(coeffs, default=lo) + 4):
        assert s.coefficient(e) == coeffs.get(e, 0)


@st.composite
def series(draw, p):
    """A Laurent value and its reference: stored coefficients at any offset,
    exact or truncated, often zero to precision or stored only well above
    floor + 1."""
    cs = draw(st.lists(st.integers(0, p - 1), max_size=12))
    shift = draw(st.integers(-15, 15))
    floor = draw(st.one_of(st.none(), st.integers(-25, 15)))
    s = Laurent(Polynomial(GF(p), cs), shift, floor)
    return s, ref_make({shift + i: c for i, c in enumerate(cs)}, floor, p)


class TestLaurentAgainstReference:
    @pytest.mark.parametrize(
        "op", ["add", "sub", "mul", "scaled", "frobenius", "truncate", "divide"]
    )
    @given(st.sampled_from(LAURENT_PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_operation(self, op, p, data):
        a, ra = data.draw(series(p))
        b, rb = data.draw(series(p))
        if op == "add":
            got, want = a + b, ref_addsub(ra, rb, 1, p)
        elif op == "sub":
            got, want = a - b, ref_addsub(ra, rb, -1, p)
        elif op == "mul":
            got, want = a * b, ref_mul(ra, rb, p)
        elif op == "scaled":
            c = data.draw(st.integers(-2 * p, 2 * p))
            got, want = a.scaled(c), ref_make({e: c * x for e, x in ra[0].items()}, ra[1], p)
        elif op == "frobenius":
            floor = None if ra[1] is None else ra[1] * p
            got, want = a.frobenius(p), ref_make({e * p: x for e, x in ra[0].items()}, floor, p)
        elif op == "truncate":
            f = data.draw(st.integers(-30, 20))
            got, want = a.truncate(f), ref_make(ra[0], ref_floor_max(f, ra[1]), p)
        elif not rb[0]:
            with pytest.raises(ZeroDivisionError):
                divide(a, b)
            return
        elif ra[0] and ra[1] is None and rb[1] is None:
            with pytest.raises(ValueError):
                divide(a, b)
            return
        else:
            got, want = divide(a, b), ref_divide(ra, rb, p)
        assert_matches(got, want, p)

    @given(st.sampled_from(LAURENT_PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_difference(self, p, data):
        a, ra = data.draw(series(p))
        b, rb = data.draw(series(p))
        f = data.draw(st.integers(-30, 20))
        rt = ref_make(ra[0], ref_floor_max(f, ra[1]), p)
        # a random pair, and a against its own truncation (they agree)
        for y, ry in ((b, rb), (a.truncate(f), rt)):
            diff = ref_addsub(ra, ry, -1, p)[0]
            assert a.first_difference(y) == max(diff, default=float("-inf"))
