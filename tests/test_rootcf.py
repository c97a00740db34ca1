import io
import json
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hqcf.rootcf as rootcf
from hqcf.cf import ContinuedFraction, rational_to_cf
from hqcf.cli import main
from hqcf.fields import GF
from hqcf.laurent import Laurent, divide
from hqcf.polynomials import Polynomial
from hqcf.quartic import alpha_series, quartic_state, series_root_quartic
from hqcf.rootcf import (
    DominanceBroken,
    RootState,
    cf_from_series,
    dominance_holds,
    expand_root,
    step,
)

F5, F7, F11, F13 = GF(5), GF(7), GF(11), GF(13)


def assert_matches_series_oracle(field, n):
    """The first n quotients of expand_root equal those of the series
    oracle, run at a floor of -(2 * sum(deg a_j) + 4), which certifies all n
    of them."""
    direct = expand_root(quartic_state(field), n)
    total = sum(q.degree for q in direct)
    oracle = cf_from_series(alpha_series(field, -(2 * total + 4)))
    assert len(direct) == n and len(oracle) >= n
    assert list(oracle.quotients[:n]) == list(direct.quotients)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


class TestDominance:
    def test_quartic_satisfies_star(self):
        assert dominance_holds(quartic_state(F13))

    def test_constructed_violation(self):
        # X^2 - T^2 X + T^4: |a_0| = |T^4| >= |T^2|
        st = RootState(
            (Polynomial.monomial(F7, 1, 4), -Polynomial.monomial(F7, 1, 2), Polynomial.one(F7))
        )
        assert not dominance_holds(st)

    def test_quadratic_satisfies_star(self):
        st = RootState((Polynomial.one(F7), -Polynomial.x(F7), Polynomial.one(F7)))
        assert dominance_holds(st)

    def test_expand_rejects_violation(self):
        st = RootState(
            (Polynomial.monomial(F7, 1, 4), -Polynomial.monomial(F7, 1, 2), Polynomial.one(F7))
        )
        with pytest.raises(ValueError, match="dominance"):
            expand_root(st, 5)

    def test_step_checks_the_next_state(self):
        # the same violation: q = T^2 and the next state T^4 X^2 + T^2 X + 1
        st = RootState(
            (Polynomial.monomial(F7, 1, 4), -Polynomial.monomial(F7, 1, 2), Polynomial.one(F7))
        )
        with pytest.raises(DominanceBroken):
            step(st)


class TestStep:
    def test_first_quartic_step(self):
        q, _ = step(quartic_state(F13))
        assert q == poly(F13, 0, 1)  # T
        q, _ = step(quartic_state(F7))
        assert q == poly(F7, 0, 2)  # 2T
        q, _ = step(quartic_state(F5))
        assert q == poly(F5, 0, 3)  # 3T

    def test_quadratic_is_periodic(self):
        # X^2 - TX + 1: expansion [T, -T, T, -T, ...]
        st = RootState((Polynomial.one(F5), -Polynomial.x(F5), Polynomial.one(F5)))
        cf = expand_root(st, 6)
        assert [q.format() for q in cf] == ["T", "4*T", "T", "4*T", "T", "4*T"]

    def test_taylor_shift_by_hand(self):
        # P(X) = X^2 - TX + 1, q = T: X^2 P(T + 1/X) = X^2 + TX + 1
        st = RootState((Polynomial.one(F7), -Polynomial.x(F7), Polynomial.one(F7)))
        q, nxt = step(st)
        assert q == Polynomial.x(F7)
        assert nxt.coeffs == (Polynomial.one(F7), Polynomial.x(F7), Polynomial.one(F7))

    def test_rational_root_terminates(self):
        # T X^2 - (T^4+1) X + T^3 has the polynomial root T^3 (other root 1/T)
        st = RootState(
            (
                Polynomial.monomial(F7, 1, 3),
                -poly(F7, 1, 0, 0, 0, 1),
                Polynomial.x(F7),
            )
        )
        assert dominance_holds(st)
        cf = expand_root(st, 10)
        assert len(cf) == 1
        assert cf[0] == Polynomial.monomial(F7, 1, 3)

    def test_zero_count(self):
        assert len(expand_root(quartic_state(F7), 0)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            expand_root(quartic_state(F7), -1)


class TestQuarticExpansion:
    def test_published_prefix_p13(self):
        cf = expand_root(quartic_state(F13), 6)
        assert [q.format() for q in cf] == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]

    def test_published_prefix_p7(self):
        cf = expand_root(quartic_state(F7), 3)
        assert [q.format() for q in cf] == ["2*T", "6*T", "6*T"]

    def test_fixed_recurrences_match_generic(self):
        for F in (F5, F7, F13):
            assert_matches_series_oracle(F, 40)

    def test_all_quotients_odd(self):
        for F in (F5, F7, F11, F13):
            cf = expand_root(quartic_state(F), 50)
            assert not any(c for q in cf for c in q.coeffs[0::2])

    def test_dominance_and_degree_after_every_step(self):
        cur = quartic_state(F13)
        for _ in range(30):
            q, cur = step(cur)
            assert q.degree >= 1
            assert cur is None or dominance_holds(cur)


class TestStateArrays:
    def test_expansion_leaves_the_input_state_intact(self):
        st = quartic_state(F13)
        before = st.coeffs
        first = expand_root(st, 60)
        assert st.coeffs == before
        assert expand_root(st, 60) == first

    def test_one_step_call_per_quotient(self, monkeypatch):
        calls = []

        def counting_step(state):
            calls.append(state)
            return step(state)

        monkeypatch.setattr(rootcf, "step", counting_step)
        assert len(expand_root(quartic_state(F7), 45)) == 45
        assert len(calls) == 45


def series_root_of_reversed(field, coeffs, floor):
    """u = 1/alpha for the large root alpha of
    c4 X^4 + (T + c3) X^3 + c2 X^2 + c1 X + c0, down to the floor: the
    fixed point of u = -(c4 + c2 u^2 + c1 u^3 + c0 u^4) / (T + c3), which
    each iteration knows two more coefficients of."""
    c0, c1, c2, c3, c4 = (Laurent.from_polynomial(poly(field, c)) for c in coeffs)
    t_plus_c3 = Laurent.from_polynomial(poly(field, coeffs[3], 1))
    u = Laurent.zero(field, -1)
    while u.floor > floor:
        u2 = u * u
        rhs = c4 + c2 * u2 + c1 * u2 * u + c0 * u2 * u2
        nxt = divide(Laurent.zero(field) - rhs, t_plus_c3)
        assert nxt.floor < u.floor
        u = nxt
    return u


class TestSeededPolyAgainstSeriesRoot:
    def test_300_quotients(self):
        rng = random.Random(2009)
        coeffs = tuple(rng.randrange(1, 13) for _ in range(5))
        c0, c1, c2, c3, c4 = coeffs
        text = f"{c4}*X^4 + (T + {c3})*X^3 + {c2}*X^2 + {c1}*X + {c0}"
        buf = io.StringIO()
        assert main(["expand", "--poly", text, "--p", "13", "--n", "300", "--json"], out=buf) == 0
        direct = ContinuedFraction.from_json_dict(json.loads(buf.getvalue()))
        assert len(direct) == 300
        total = sum(q.degree for q in direct.quotients)
        u = series_root_of_reversed(F13, coeffs, -(2 * total + 8))
        one = Laurent.from_polynomial(Polynomial.one(F13))
        oracle = cf_from_series(divide(one, u))
        assert len(oracle) >= 300
        assert list(oracle.quotients[:300]) == list(direct.quotients)


class TestSeriesOracle:
    def test_leading_coefficient(self):
        assert series_root_quartic(F13, 4).coefficient(-1) == 1  # -1/12 = 1 mod 13
        assert series_root_quartic(F7, 4).coefficient(-1) == 4  # -1/12 = 4 mod 7
        # second nonzero coefficient: 1/12^2
        s = series_root_quartic(F13, 4)
        assert s.coefficient(-3) == F13.embed_rational(1, 144)

    def test_even_coefficients_vanish(self):
        for F in (F5, F7, F13):
            s = series_root_quartic(F, 40)
            for e in range(-2, -40, -2):
                assert s.coefficient(e) == 0

    def test_series_satisfies_the_quartic(self):
        # independent residual check: u^4 + u^2 - T u - 1/12 = O(precision)
        for F in (F5, F7, F13):
            u = series_root_quartic(F, 50)
            u2 = u * u
            lhs = (
                u2 * u2
                + u2
                - Laurent.from_polynomial(Polynomial.x(F)) * u
                - Laurent.from_polynomial(poly(F, F.embed_rational(1, 12)))
            )
            assert lhs.is_zero_to_precision()

    def test_min_terms(self):
        with pytest.raises(ValueError):
            series_root_quartic(F7, 0)


class TestCfFromSeries:
    def test_oracle_equivalence(self):
        # the certified prefix of the series route matches the direct expansion
        for F in (F5, F7, F11, F13):
            direct = expand_root(quartic_state(F), 25)
            total = sum(int(q.degree) for q in direct.quotients)
            a = alpha_series(F, -(2 * total + 4))
            oracle = cf_from_series(a)
            overlap = min(len(oracle), 25)
            assert overlap >= 20
            assert list(oracle.quotients[:overlap]) == list(direct.quotients[:overlap])

    def test_two_term_precision_certifies_first_quotient(self):
        a = alpha_series(F13, -1)  # coefficients at T^1, T^0 known
        cf = cf_from_series(a)
        assert len(cf) >= 1
        assert cf[0] == poly(F13, 0, 1)  # -12T = T mod 13

    def test_exact_rational_full_cf(self):
        from hqcf.cf import rational_to_cf
        from hqcf.laurent import rational_series

        num, den = poly(F7, 1, 0, 3, 1), poly(F7, 2, 1)
        s = rational_series(num, den, -30)
        cf = cf_from_series(Laurent(s.num, s.shift))
        # an exact series (floor None) gives the whole Euclidean expansion of
        # the truncation; for a deep enough truncation it starts with the true CF
        true_cf = rational_to_cf(num, den)
        assert list(cf.quotients[: len(true_cf)]) == list(true_cf.quotients)

    def test_stored_part_stopping_above_the_floor(self):
        # T^2 + 1 + O(T^-10): the stored coefficients end at T^0, and the
        # known zeros below them still belong to the truncation
        s = Laurent.from_polynomial(poly(F7, 1, 0, 1), floor=-10)
        assert list(cf_from_series(s).quotients) == [poly(F7, 1, 0, 1)]

    def test_frobenius_spread_coefficients(self):
        from hqcf.laurent import rational_series

        # (1/(T - 1))^7 = T^-7 + T^-14 + ... + O(T^-42), whose expansion
        # starts [0, T^7 - 1, ...]
        s = rational_series(Polynomial.one(F7), poly(F7, -1, 1), -6).frobenius()
        expected = [Polynomial.zero(F7), poly(F7, 6, 0, 0, 0, 0, 0, 0, 1)]
        assert list(cf_from_series(s).quotients) == expected

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            cf_from_series(Laurent.zero(F7, -5))


def continuant_prefix(s):
    """The certified prefix as cf_from_series first computed it: from the
    continuants of the truncation's full expansion, keeping every quotient
    up to the first i with 2 deg y_i >= -floor."""
    num = s.num << max(0, s.shift)
    den = Polynomial.monomial(s.field, 1, max(0, -s.shift))
    full = rational_to_cf(num, den)
    xs, ys = full.continuants()
    keep = 0
    for i in range(1, len(full) + 1):
        if 2 * ys[i].degree >= -s.floor:
            break
        keep = i
    return list(full.quotients[:keep]), [y.degree for y in ys]


class TestCertifiedPrefixByDegrees:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_continuant_prefix(self, data):
        F = GF(data.draw(st.sampled_from([5, 7, 13])))
        coeffs = data.draw(st.lists(st.integers(0, F.p - 1), min_size=1, max_size=14))
        coeffs.append(data.draw(st.integers(1, F.p - 1)))
        shift = data.draw(st.integers(-12, 3))
        s = Laurent(Polynomial(F, coeffs), shift)
        # every floor from two known terms down to three known zeros below
        for floor in range(s.degree() - 2, shift - 4, -1):
            t = s.truncate(floor)
            expected, y_degrees = continuant_prefix(t)
            if -floor in [2 * d for d in y_degrees]:
                event("floor at a 2 deg y_i boundary")
            assert list(cf_from_series(t).quotients) == expected

    def test_floor_at_the_boundary(self):
        # T + T^-1 = [T, T]: deg y_1 = 0, deg y_2 = 1, so a floor of exactly
        # -2 deg y_2 = -2 keeps only a_1, and one more known term keeps a_2
        s = Laurent(poly(F7, 1, 0, 1), -1)
        at = s.truncate(-2)
        assert continuant_prefix(at) == ([poly(F7, 0, 1)], [-1, 0, 1])
        assert list(cf_from_series(at).quotients) == [poly(F7, 0, 1)]
        below = s.truncate(-3)
        assert list(cf_from_series(below).quotients) == [poly(F7, 0, 1)] * 2
        assert continuant_prefix(below)[0] == [poly(F7, 0, 1)] * 2
