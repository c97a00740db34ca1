import io
import random
import time

import numpy as np
import pytest

from hqcf import cli, perfect
from hqcf.cf import ContinuedFraction, ScalarCFUndefined, rational_to_cf, running_scalar_cf
from hqcf.fields import GF, MAX_MODULUS, PrimeField
from hqcf.perfect import (
    MAX_A_DEGREE,
    MAX_PROP2_DEGREE,
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    FrobeniusRelation,
    InsufficientExpansion,
    a_degree,
    a_sequence,
    generate_perfect_p11,
    family_constants,
    pq_polynomials,
    power_p_family,
    prop2_predicted_quotients,
    relation_residual,
    generate_perfect_expansion,
    verify_prop1,
    verify_prop2,
)
from hqcf.polynomials import Polynomial
from hqcf.quartic import quartic_index, quartic_state
from hqcf.rootcf import expand_root
from support import (boundaries_refused, cap_refuses_at_the_boundary, certifying_prefixes,
                     closed_form_names_the_built_levels, corrupt_v_k, corruption_raises, doubled_t, edited,
                     euclid_oracle, full_length_residual, is_the_generic_tower, lead_on_t, poly, predict_as,
                     prop1_case, prop2_case, prop2_disagreements, prop2_predicted, prop2_sides,
                     quartic_p13_names_a6_not_a7, reference_tower, rescaled, residual_at_the_floor,
                     residual_boundary_case, residual_reads, residual_reads_exactly_m, sextic_matches_direct)

F5, F7, F13 = GF(5), GF(7), GF(13)


class TestFamilies:
    def test_pq_shapes(self):
        for p, k in ((7, 2), (13, 4), (5, 1)):
            F = GF(p)
            P, Q = pq_polynomials(F, k)
            assert P.degree == 2 * k and Q.degree == 2 * k - 1
            assert Q.constant_coefficient() == 0
            assert all(c == 0 for c in P.coeffs[1::2])  # even
            assert not any(Q.coeffs[0::2])  # odd

    def test_pq_integration_bound(self):
        with pytest.raises(ValueError):
            pq_polynomials(F7, 4)  # 2k = 8 > 7

    def test_pq_zero_a_rejected(self):
        with pytest.raises(ValueError):
            pq_polynomials(F7, 2, 0)

    def test_power_family_beyond_bound(self):
        # the plain power has no 2k < p restriction
        f = power_p_family(F7, 13)
        assert f.degree == 26

    def test_theta_values(self):
        assert family_constants(F7, 2).theta == 3
        assert family_constants(F13, 4).theta == 2
        assert family_constants(F5, 1).theta == 2  # -1/2 mod 5

    def test_v_sequence_start_and_recurrence(self):
        for p in (5, 7, 13, 17, 19, 23):
            F = GF(p)
            for k in range(1, (p - 1) // 2 + 1):
                theta, v = family_constants(F, k)
                assert v[0] == (2 * k - 1) % p
                assert all(x != 0 for x in v)
                for i in range(1, 2 * k):
                    lhs = v[i] * v[i - 1] % p
                    rhs = (
                        (2 * k - 2 * i - 1) * (2 * k - 2 * i + 1) * F.inv(i * (2 * k - i)) % p
                    )
                    assert lhs == rhs

    def test_v1_for_p5_k1(self):
        theta, v = family_constants(F5, 1)
        assert v == (1, 4)  # (1, -1)


class TestASequence:
    def test_extremal_k_gives_t(self):
        for p in (5, 7, 13):
            F = GF(p)
            seq = a_sequence(F, (p - 1) // 2, 4)
            assert all(a == Polynomial.x(F) for a in seq)

    def test_k_checked_before_any_work(self):
        # A_0 = T needs neither Q_k nor theta_k, whose cost grows with k
        start = time.perf_counter()
        assert a_sequence(GF(100003), 50000, 0) == [Polynomial.x(GF(100003))]
        assert time.perf_counter() - start < 1
        for k in (0, 50002):
            with pytest.raises(ValueError, match="need 1 <= k < p/2"):
                a_sequence(GF(100003), k, 0)

    def test_p5_k1_first_step(self):
        seq = a_sequence(F5, 1, 1)
        assert seq[1] == poly(F5, 0, 1, 0, 1)  # T^3 + T

    def test_degree_recurrence(self):
        for p, k in ((13, 4), (7, 2), (5, 2)):
            F = GF(p)
            seq = a_sequence(F, k, 3)
            for i in range(3):
                assert seq[i + 1].degree == p * seq[i].degree - 2 * k

    def test_oddness(self):
        for a in a_sequence(F13, 4, 3):
            assert not any(a.coeffs[0::2])


class TestAnnotationLevels:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_names_the_built_levels(self, p):
        assert cli._annotation_top(p, None, 100) == -1
        assert closed_form_names_the_built_levels(p)

    def test_no_level_built_past_the_quotients(self, monkeypatch):
        # deg A_1 = 5 at p = 10007, k = 5001: quotients of degree <= 4 need A_0 alone
        built = []
        real = cli.a_sequence
        monkeypatch.setattr(cli, "a_sequence", lambda *args: built.append(args) or real(*args))
        F = GF(10007)
        T = Polynomial.x(F)
        out = io.StringIO()
        cli._print_expansion(ContinuedFraction(F, [T, T**4 + T, T.scaled(3), T**2]), False, 5001, out)
        assert built == [(F, 5001, 0)]
        assert out.getvalue() == "a_1 = T  [= 1*A[0,k]]\na_2 = T^4 + T\na_3 = 3*T  [= 3*A[0,k]]\na_4 = T^2\n"

    def test_a_level_of_a_named_degree_is_named_only_when_it_matches(self):
        assert quartic_p13_names_a6_not_a7()


class TestExactDivisionTower:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
    def test_matches_generic_division(self, p):
        # every 1 <= k < p/2, including 2k = p - 1 where every A_i is T
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            ref = reference_tower(F, k, 4000)
            assert len(ref) >= 2, (p, k)
            assert a_sequence(F, k, len(ref) - 1) == ref, (p, k)

    def test_int64_bound(self):
        # a partial sum of the division stays below (p - 1)(deg(A_i^p) + 1),
        # and deg(A_i^p) = deg A_(i+1) + 2k
        assert (MAX_MODULUS - 1) * (MAX_A_DEGREE + MAX_MODULUS) < 2**63

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_degree(self, p):
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            assert [a.degree for a in a_sequence(F, k, 3)] == [a_degree(p, k, i) for i in range(4)]

    def test_corrupted_q_raises(self, monkeypatch):
        real = perfect.pq_polynomials

        def bad_q(field, k, a=None):
            P, Q = real(field, k, a)
            return P, Q + Polynomial.one(field)

        monkeypatch.setattr(perfect, "pq_polynomials", bad_q)
        with pytest.raises(ArithmeticError, match="A_\\(0,k\\)"):
            a_sequence(F7, 2, 2)

    def test_corrupted_theta_raises(self, monkeypatch):
        real = perfect.family_constants

        def bad_theta(field, k):
            theta, v = real(field, k)
            return perfect.FamilyConstants((theta + 1) % field.p, v)

        monkeypatch.setattr(perfect, "family_constants", bad_theta)
        with pytest.raises(ArithmeticError):
            a_sequence(F13, 4, 1)

    def test_every_level_is_checked(self, monkeypatch):
        # a remainder that goes wrong only at level 2 is still caught
        real = perfect._frobenius_divmod_pk
        calls = []

        def late_fault(field, a, k):
            quo, rem = real(field, a, k)
            calls.append(a)
            if len(calls) == 3:
                rem = rem + Polynomial.one(field)
            return quo, rem

        monkeypatch.setattr(perfect, "_frobenius_divmod_pk", late_fault)
        assert len(a_sequence(F7, 2, 2)) == 3
        calls.clear()
        with pytest.raises(ArithmeticError, match="A_\\(2,k\\)"):
            a_sequence(F7, 2, 3)


# the quartic's normalized specs at p = 7 and 13 (test_quartic derives them)
QUARTIC_SPECS = {
    7: ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)),
    13: ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)),
}


class TestIndexSequences:
    def test_recurrence_table_p7(self):
        idx = (None, *generate_perfect_expansion(QUARTIC_SPECS[7], 30).indices)
        assert idx[4] == 1 and idx[9] == 1 and idx[19] == 2

    def test_valuation_formula_examples(self):
        assert quartic_index(7, 4) == 1
        assert quartic_index(7, 19) == 2
        assert quartic_index(7, 5) == 0
        assert quartic_index(13, 7) == 1

    def test_formula_matches_recurrence(self):
        for p, spec in QUARTIC_SPECS.items():
            idx = generate_perfect_expansion(spec, 2000).indices
            assert len(idx) == 2000
            for n, i in enumerate(idx, start=1):
                assert i == quartic_index(p, n), (p, n)

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            quartic_index(11, 3)

    def test_p11_index_prefix(self):
        # l = k = 1, i(1) = 0: (0, 1, 0, 0, 2, 0, 0, 1, 0, 0)
        idx = generate_perfect_p11(F7, 0, 3, 5, 10).indices
        assert idx == (0, 1, 0, 0, 2, 0, 0, 1, 0, 0)


class TestSpecValidation:
    def test_published_specs_validate(self):
        deltas7 = ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)).validate()
        assert deltas7 == [3, 4, 1]  # delta_l = 2k*eps1/eps2 = 1 mod 7
        spec13 = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        deltas13 = spec13.validate()
        assert deltas13[-1] == 8 * 12 * F13.inv(9) % 13

    def test_delta_mismatch(self):
        # deltas exist (3, 4, 6) but delta_3 = 6 != 2k*eps1/eps2 = 1
        with pytest.raises(DeltaMismatchError):
            ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 4)).validate()

    def test_delta_zero_at_l_is_undefined_error(self):
        with pytest.raises(DeltaUndefinedError):
            ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 5)).validate()

    def test_delta_undefined(self):
        # choose lambda_1 so that delta_1 = 0: lambda_1 = -eps2/(2k theta)
        F = F7
        theta, _ = family_constants(F, 2)
        lam1 = -5 * F.inv(4 * theta) % 7
        with pytest.raises(DeltaUndefinedError) as err:
            ExpansionSpec(F, 3, 2, 3, 5, (lam1, 6, 6)).validate()
        assert err.value.index == 1

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="^need l >= 1, got l=0$"):
            ExpansionSpec(F7, 0, 1, 1, 1, ())

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            ExpansionSpec(F7, 3, 2, 3, 5, (0, 6, 6))


class TestPerfectGeneration:
    def test_prefix_and_first_block_p7(self):
        cf = generate_perfect_expansion(ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 12)
        qs = [q.format() for q in cf]
        assert qs[:3] == ["2*T", "6*T", "6*T"]
        # f(1) = 4: lambda_4 = eps1^(-1) * lambda_1 = 5*2 = 3, index 1
        assert qs[3] == "3*T^3 + 6*T"
        assert cf.lambdas[3] == 3 and cf.indices[3] == 1

    def test_lambda_delta_never_zero(self):
        # a zero delta raises ArithmeticError inside the generator, so a result means none was
        cf = generate_perfect_expansion(ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)), 300)
        assert len(cf.lambdas) == 300 and all(x != 0 for x in cf.lambdas)

    def test_degrees_match_closed_form(self):
        p, l, k = 13, 6, 4
        cf = generate_perfect_expansion(ExpansionSpec(F13, l, k, 12, 9, (5, 12, 9, 11, 1, 5)), 250)
        for q, i in zip(cf, cf.indices, strict=True):
            assert q.degree == (p**i * (p - 1 - 2 * k) + 2 * k) // (p - 1)

    def test_extremal_k_all_proportional_to_t(self):
        # p = 7, k = 3 = (p-1)/2, l = 1: every quotient is c*T
        F = F7
        theta, _ = family_constants(F, 3)
        lam1 = (6 * F.inv(2) - 2 * F.inv(6 * theta)) % 7
        cf = generate_perfect_expansion(ExpansionSpec(F, 1, 3, 1, 2, (lam1,)), 40)
        assert all(q.degree == 1 for q in cf)

    def test_matches_direct_expansion_p7(self):
        # v = 1 for p = 7, so the generated expansion IS the quartic's
        cf = generate_perfect_expansion(ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 100)
        direct = expand_root(quartic_state(F7), 100)
        assert list(cf.quotients) == list(direct.quotients)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate_perfect_expansion(QUARTIC_SPECS[7], -1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate_perfect_p11(F7, 0, 3, 5, -1)


def reference_generation(spec, n):
    """(lambdas, deltas, indices), each indexed 1..n, of the per-position
    loop generate_perfect_expansion replaced: one block f(m), ..., f(m) + 2k
    per source m, in order; the reference for the level-at-a-time fill,
    whose lambdas and indices it must give."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    f = spec.field
    p = f.p
    base_deltas = spec.validate()
    theta, v = perfect.family_constants(f, spec.k)
    k, l = spec.k, spec.l
    lam = [0] * (n + 1)
    dl = [0] * (n + 1)
    idx = [0] * (n + 1)
    for j in range(1, min(l, n) + 1):
        lam[j] = spec.lambdas[j - 1]
        dl[j] = base_deltas[j - 1]
        idx[j] = spec.indices[j - 1]
    eps1 = spec.eps1 % p
    eps1_inv = f.inv(eps1)
    two_k_theta = 2 * k * theta % p
    neg_v = [-x % p for x in v]
    coef = [i * v[i - 1] * f.inv(2 * k - 2 * i + 1) % p for i in range(1, 2 * k + 1)]
    m = 1
    while True:
        base = (2 * k + 1) * m + l - 2 * k  # f(m)
        if base > n:
            break
        if m > n or lam[m] == 0:
            raise ArithmeticError(f"generation order broken at block f({m})")
        e = eps1 if m % 2 == 0 else eps1_inv
        lam[base] = e * lam[m] % p
        dl[base] = e * dl[m] * theta % p
        idx[base] = idx[m] + 1
        w = two_k_theta * dl[m] % p
        w_inv = f.inv(w)
        for i in range(1, 2 * k + 1):
            pos = base + i
            if pos > n:
                break
            e = eps1 if (m + i) % 2 == 0 else eps1_inv
            ww = w_inv if i % 2 == 1 else w
            lam[pos] = neg_v[i - 1] * e * ww % p
            dl[pos] = coef[i - 1] * e * ww % p
            idx[pos] = 0
            if lam[pos] == 0 or dl[pos] == 0:
                raise ArithmeticError(
                    f"internal contradiction: zero lambda/delta generated at index {pos}"
                )
        m += 1
    return lam, dl, idx


def random_specs(rng, p, k, l, index_choices=(0, 0, 1, 2)):
    """A spec of type (p, l, k) that validates, one whose anchor fails, and,
    when a draw hit one, one whose delta_n is undefined; random prefix data,
    the indices drawn from index_choices."""
    F = GF(p)
    theta, _ = family_constants(F, k)
    specs = []
    while True:
        eps2 = rng.randrange(1, p)
        lambdas = [rng.randrange(1, p) for _ in range(l)]
        indices = [rng.choice(index_choices) for _ in range(l)]
        heads = [2 * k * theta * F.inv(eps2)]
        heads += [pow(theta, i, p) * x for i, x in zip(indices, lambdas)]
        try:
            delta_l = running_scalar_cf(F, heads)[-1]
        except ScalarCFUndefined:
            delta_l = 0
        if delta_l == 0:
            if not specs:
                specs.append(ExpansionSpec(F, l, k, 1, eps2, lambdas, indices))
            continue
        eps1 = delta_l * eps2 * F.inv(2 * k) % p
        bad = ExpansionSpec(F, l, k, 2 * eps1, eps2, lambdas, indices)
        return [ExpansionSpec(F, l, k, eps1, eps2, lambdas, indices), bad, *specs]


def generation_outcome(generate, spec, n):
    try:
        return generate(spec, n)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def generated(spec, n):
    cf = generate_perfect_expansion(spec, n)
    return cf.lambdas, cf.indices, len(cf.tower) - 1


def referenced(spec, n):
    lam, _, idx = reference_generation(spec, n)
    return tuple(lam[1:]), tuple(idx[1:]), max(idx[1:], default=0)


def stub_tower(monkeypatch):
    """Stand a tower of count + 1 levels T in for a_sequence, which records
    the level the generator asks for.  Its levels stand in for ones past the
    A-tower cap too (A_2 at p = 999983), so the generator's cap is lifted
    with it: the top the generator computes in closed form then sizes the
    tower of every case, and the fill is compared past the cap."""
    monkeypatch.setattr(perfect, "a_sequence", lambda field, k, count: [Polynomial.x(field)] * (count + 1))
    monkeypatch.setattr(perfect, "_check_a_index", lambda p, k, i: None)


class TestBlockFill:
    """generate_perfect_expansion against reference_generation."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31, 43])
    def test_matches_reference(self, p, monkeypatch):
        stub_tower(monkeypatch)
        rng = random.Random(f"block fill {p}")
        seen = set()
        for k in range(1, (p - 1) // 2 + 1):
            for l in (1, 2, 3, 5):
                first_block = l + 1 + 2 * k  # f(1) + 2k
                ns = (-1, 0, 1, l, l + 1, first_block, first_block + 1, 300, 5000)
                for spec in random_specs(rng, p, k, l):
                    for n in ns:
                        want = generation_outcome(referenced, spec, n)
                        assert generation_outcome(generated, spec, n) == want, (spec, n)
                        seen.add(want[0].__name__ if isinstance(want[0], type) else "result")
        assert {"result", "ValueError", "DeltaMismatchError"} <= seen

    @pytest.mark.parametrize(
        "spec, n",
        [
            (ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 3000),
            (ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)), 2000),
            (ExpansionSpec(GF(5), 1, 1, 3, 1, (2,)), 13000),  # passes of 3^j sources, 2,187 at most
        ],
    )
    def test_tower_and_quotients(self, spec, n):
        # the tower against the generic division, level by level
        cf = generate_perfect_expansion(spec, n)
        lam, _, idx = reference_generation(spec, n)
        assert (cf.lambdas, cf.indices) == (tuple(lam[1:]), tuple(idx[1:]))
        assert len(cf.tower) == max(idx[1:]) + 1 and is_the_generic_tower(cf.tower, spec.field, spec.k)
        assert cf.degrees() == [a_degree(spec.field.p, spec.k, i) for i in idx[1:]]

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_matches_reference_past_2_to_the_32(self, k, monkeypatch):
        # at p = 999983 lambda, delta and u are spread over F_p^*, so most
        # products the int64 fill takes pass 2^32 (both factors past 2^16);
        # each stays below p^2 < 2^40
        p = 999983
        stub_tower(monkeypatch)
        rng = random.Random(f"block fill {p} {k}")
        for l in (1, 3):
            specs = random_specs(rng, p, k, l, index_choices=(0, 1))
            for spec in specs:
                for n in (l, l + 2 * k + 1, 3000):
                    want = generation_outcome(referenced, spec, n)
                    assert generation_outcome(generated, spec, n) == want, (spec, n)
            lambdas = generated(specs[0], 3000)[0]
            assert sum(x >= 2**16 for x in lambdas) > 0.9 * len(lambdas)

    def test_top_level_in_closed_form_at_the_cap(self, monkeypatch):
        # the (7, 3, 2) CI spec: f(m) = 5m - 1 takes a_1 to index 8 at
        # f^8(1) = 292,969 and to 9 at f^9(1) = 1,464,844, and deg A_(9,2) =
        # 13,451,203 is past the cap; the closed-form top sizes the tower one
        # position before and refuses it at that position
        monkeypatch.setattr(perfect, "a_sequence", lambda field, k, count: [Polynomial.x(field)] * (count + 1))
        spec = CI_SPECS[0]
        cf = generate_perfect_expansion(spec, 1_464_843)
        assert len(cf.tower) - 1 == max(cf.indices) == 8 and cf.indices[292_968] == 8
        with pytest.raises(ValueError, match=r"^index 9 asks for A_\(9,k\) past degree 10000000$"):
            generate_perfect_expansion(spec, 1_464_844)

    @pytest.mark.parametrize("i", [1, 2, 5, 8])
    def test_zero_v_is_an_internal_contradiction(self, i, monkeypatch):
        spec = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        theta, v = family_constants(F13, 4)
        zeroed = perfect.FamilyConstants(theta, v[: i - 1] + (0,) + v[i:])
        monkeypatch.setattr(perfect, "family_constants", lambda field, k: zeroed)
        for n in (7 + i, 300):
            with pytest.raises(ArithmeticError) as err:
                generate_perfect_expansion(spec, n)
            assert str(err.value) == generation_outcome(reference_generation, spec, n)[1]
            assert str(err.value).endswith(f"at index {7 + i}")  # f(1) + i
        assert generate_perfect_expansion(spec, 6 + i).lambdas == (
            tuple(reference_generation(spec, 6 + i)[0][1:])
        )

    def test_zero_delta_alone_is_an_internal_contradiction(self, monkeypatch):
        # 1 / (2k - 2i + 1) read as 0 at i = k + 2 zeroes that column's delta
        # factor i v_i / (2k - 2i + 1) and leaves its lambda factor -v_i
        spec = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        inv = PrimeField.inv
        monkeypatch.setattr(PrimeField, "inv", lambda self, x: 0 if x == -3 else inv(self, x))
        with pytest.raises(ArithmeticError) as err:
            generate_perfect_expansion(spec, 300)
        assert str(err.value) == generation_outcome(reference_generation, spec, 300)[1]
        assert str(err.value).endswith("at index 13")  # f(1) + 6

    @pytest.mark.parametrize("j", [1, 2, 6])
    def test_zero_source_breaks_the_order(self, j, monkeypatch):
        spec = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        deltas = spec.validate()
        monkeypatch.setattr(ExpansionSpec, "validate", lambda self: deltas)
        monkeypatch.setitem(vars(spec), "lambdas", spec.lambdas[: j - 1] + (0,) + spec.lambdas[j:])
        f_j = 9 * j + 6 - 8
        for n in (f_j, 5000):
            with pytest.raises(ArithmeticError) as err:
                generate_perfect_expansion(spec, n)
            assert str(err.value) == generation_outcome(reference_generation, spec, n)[1]
            assert str(err.value) == f"generation order broken at block f({j})"
        # f(j) past n: a_j is never a source
        cf = generate_perfect_expansion(spec, f_j - 1)
        assert cf.lambdas == tuple(reference_generation(spec, f_j - 1)[0][1:])
        assert cf.lambdas[j - 1] == 0


class TestSymbolicQuotients:
    SPEC = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))

    def test_quotients_are_lambda_times_tower(self):
        cf = generate_perfect_expansion(self.SPEC, 300)
        assert list(cf.quotients) == [
            cf.tower[i].scaled(c) for i, c in zip(cf.indices, cf.lambdas)
        ]

    def test_length_and_degrees_without_quotients(self, monkeypatch):
        cf = generate_perfect_expansion(self.SPEC, 300)
        indices = reference_generation(self.SPEC, 300)[2][1:]

        def refuse(*args):
            raise AssertionError("a quotient was built")

        monkeypatch.setattr(Polynomial, "scaled", refuse)
        assert len(cf) == 300
        assert cf.degrees() == [cf.tower[i].degree for i in indices]

    def test_repr_builds_only_the_shown_quotients(self):
        spec = ExpansionSpec(F7, 3, 2, 2, 4, (4, 2, 3))
        cf = generate_perfect_expansion(spec, 80000)
        text = repr(cf)
        assert cf._quotients is None
        head = ", ".join(q.format() for q in cf.quotients[:8])
        assert text == f"[{head}, ...]"

    def test_quotients_built_once_and_shared(self):
        cf = generate_perfect_expansion(self.SPEC, 300)
        qs = cf.quotients
        assert cf.quotients is qs
        pairs = set(zip(cf.indices, cf.lambdas))
        assert len({id(q) for q in qs}) == len(pairs) < len(qs)
        assert cf.tail(6).quotients == qs[6:]


class TestP11Specialization:
    def test_agrees_with_general_generator(self):
        for p, i1, e1, e2 in ((7, 0, 3, 5), (13, 0, 2, 3), (13, 2, 5, 7), (5, 1, 2, 1)):
            F = GF(p)
            disc = (e2 * e2 + 2 * e1) % p
            if disc == 0:
                continue
            lam1 = disc * pow(-2, i1, p) * F.inv(e2) % p
            cf_c = generate_perfect_p11(F, i1, e1, e2, 60)
            cf_t = generate_perfect_expansion(
                ExpansionSpec(F, 1, 1, e1, e2, (lam1,), (i1,)), 60
            )
            assert list(cf_c.quotients) == list(cf_t.quotients)

    def test_excluded_hypothesis(self):
        # eps2^2 + 2*eps1 = 0 mod 7 for (eps1, eps2) = (3, 1)
        with pytest.raises(ValueError, match="excluded"):
            generate_perfect_p11(F7, 0, 3, 1, 10)

    def test_negative_first_index_rejected(self):
        # -1 would index the tower from its end
        with pytest.raises(ValueError, match="i1"):
            generate_perfect_p11(F7, -1, 3, 5, 8)

    def test_tower_past_the_degree_bound_rejected(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the tower was built")

        monkeypatch.setattr(perfect, "_frobenius_divmod_pk", refuse)
        # i(3m-1) = i(m) + 1, so index 12 appears by n = 3 * 8 - 1
        with pytest.raises(ValueError, match="past degree"):
            generate_perfect_p11(F7, 12, 3, 5, 23)


class TestProp1:
    def test_p13_k4(self):
        r = verify_prop1(F13, 4)
        assert r.passed and r.theta == 2

    def test_p7_k2(self):
        r = verify_prop1(F7, 2)
        assert r.passed and r.theta == 3

    def test_p5_k1(self):
        r = verify_prop1(F5, 1)
        assert r.passed and r.theta == 2 and r.v == (1, 4)

    def test_cf_of_pk_over_qk_equals_v_sequence(self):
        P, Q = pq_polynomials(F7, 2)
        cf = rational_to_cf(P, Q)
        assert [q.format() for q in cf] == ["3*T", "5*T", "T", "T"]

    def test_sweep_small(self):
        for p in (5, 7, 11, 13):
            F = GF(p)
            for k in range(1, (p - 1) // 2 + 1):
                assert verify_prop1(F, k).passed, (p, k)


class TestProp2:
    def test_p7_k1_i1_structure(self):
        qs = prop2_predicted(F7, 1, 1)
        assert len(qs) == 2 + 2 * 1 * (2 * 1 - 1)
        A11 = a_sequence(F7, 1, 1)[1]
        assert qs[0] == A11  # v_{1,1} = 1
        assert qs[1] == poly(F7, 0, 1)  # -delta_1^{-1} v_{1,1} T = T (delta_1 = 6)
        assert qs[2] == poly(F7, 0, 6)
        assert qs[3] == A11.scaled(6)

    def test_p7_k1_i1_verifies(self):
        [r] = verify_prop2(F7, [1], [1])
        assert r.passed and r.predicted_length == 4

    def test_p13_k4_i4(self):
        [r] = verify_prop2(F13, [4], [4])
        assert r.passed

    def test_reversal_identity_directly(self):
        # evaluate [b_n..b_1] and compare -4k^2 theta_k^2 times it with the fraction
        F, k, i = F13, 2, 3
        qs = prop2_predicted(F, k, i)
        theta, _ = family_constants(F, k)
        rev = ContinuedFraction(F, list(reversed(qs)))
        xr, yr = rev.value()
        Pk = power_p_family(F, k * 13 - i)
        Qkp = pq_polynomials(F, k)[1].pow_frobenius()
        c = -4 * k * k * theta * theta % 13
        assert Pk * yr == (xr * Qkp).scaled(c)

    def test_sweep_p7(self):
        reports = verify_prop2(F7, range(1, 4), range(1, 4))
        assert [(r.k, r.i) for r in reports] == [(k, i) for k in range(1, 4) for i in range(1, 4)]
        for r in reports:
            assert not r.defined or r.passed, (r.k, r.i)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_sweep_is_its_single_cases(self, p):
        # the grid shares what one k or one i builds; each case's report is
        # the one its 1 x 1 grid gives
        F, half = GF(p), range(1, (p - 1) // 2 + 1)
        assert verify_prop2(F, half, half) == [verify_prop2(F, [k], [i])[0] for k in half for i in half]

    def test_partial_grid_in_sweep_order(self):
        reports = verify_prop2(F7, [3, 1], [2])
        assert [(r.k, r.i, r.passed) for r in reports] == [(1, 2, True), (3, 2, True)]

    def test_shared_values_built_once(self, monkeypatch):
        # a p = 17 sweep, 64 cases: the tower [T, A_(1,i)] once per i, and
        # theta, v once per index (a_sequence reads its own theta_i); its
        # one division by a power of T^2 - 1 per i, for A_(1,i), is the only
        # one: no P_(kp-i) is built
        real_a, real_constants, real_divmod = perfect.a_sequence, perfect.family_constants, perfect._frobenius_divmod_pk
        towers, constants, inside, divided = [], [], [], []

        def a_sequence(field, k, count):
            towers.append((k, count))
            inside.append(k)
            try:
                return real_a(field, k, count)
            finally:
                inside.pop()

        def family_constants(field, k):
            if not inside:
                constants.append(k)
            return real_constants(field, k)

        def frobenius_divmod_pk(field, a, k):
            divided.append(k)
            return real_divmod(field, a, k)

        monkeypatch.setattr(perfect, "a_sequence", a_sequence)
        monkeypatch.setattr(perfect, "family_constants", family_constants)
        monkeypatch.setattr(perfect, "_frobenius_divmod_pk", frobenius_divmod_pk)
        half = range(1, 9)
        reports = verify_prop2(GF(17), half, half)
        assert len(reports) == 64 and all(r.passed for r in reports)
        assert towers == [(i, 1) for i in half]
        assert sorted(constants) == list(half)
        assert divided == list(half)

    def test_no_inverse_per_case(self, monkeypatch):
        # 1/delta_j is 1/r_j (held per k) times 1/t (held per i), and the
        # certificate compares by multiplication: a p = 17 sweep takes no F_p
        # inverse inside a case
        real_inv, inside, calls = PrimeField.inv, [], []

        def inv(field, x):
            calls.append(bool(inside))
            return real_inv(field, x)

        def counted(name):
            real = getattr(perfect, name)

            def call(*args):
                inside.append(name)
                try:
                    return real(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(perfect, name, call)

        monkeypatch.setattr(PrimeField, "inv", inv)
        counted("prop2_predicted_quotients")
        counted("_certify_blocks")
        half = range(1, 9)
        reports = verify_prop2(GF(17), half, half)
        assert len(reports) == 64 and all(r.passed for r in reports)
        assert calls and not any(calls)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            verify_prop2(F7, [4], [1])
        for k, i, name in ((0, 1, "k"), (1, 0, "i"), (1, 4, "i")):
            with pytest.raises(ValueError, match=f"1 <= {name} < p/2"):
                verify_prop2(F7, [k], [i])

    def test_degree_cap(self, monkeypatch):
        # deg P_(kp-i) = 2(kp - i): 97,654 at p = 313, k = 156, i = 1 runs,
        # 100,170 at p = 317, k = 158, i = 1 is refused before any polynomial;
        # every case at p < 100 (the largest is k = 48, i = 1 at p = 97) runs
        assert 2 * (48 * 97 - 1) < 2 * (156 * 313 - 1) <= MAX_PROP2_DEGREE < 2 * (158 * 317 - 1)
        assert verify_prop2(GF(313), [156], [1])[0].passed

        def refuse(*args):
            raise AssertionError("a polynomial was built")

        for name in ("prop2_predicted_quotients", "pq_polynomials", "a_sequence", "family_constants"):
            monkeypatch.setattr(perfect, name, refuse)
        with pytest.raises(ValueError, match=f"= 100170 at k = 158, i = 1 is past {MAX_PROP2_DEGREE}"):
            verify_prop2(GF(317), [158], [1])
        # a sweep's cap is its largest case, k = 504 and i = 1 at p = 1009,
        # checked before any of its 254,016 cases
        half = range(1, 505)
        with pytest.raises(ValueError, match=f"= 1017070 at k = 504, i = 1 is past {MAX_PROP2_DEGREE}"):
            verify_prop2(GF(1009), half, half)


def all_zero(rows, *polys):
    """Whether sum_t rows[j][t] polys[t] = 0 for every row j: the polys'
    coefficient vectors, zero-padded, are the rows of one int64 array, and
    one exact product (a sum of len(polys) residue products) checks all."""
    basis = np.zeros((len(polys), max(len(f.coeffs) for f in polys)), dtype=np.int64)
    for row, f in zip(basis, polys):
        row[: len(f.coeffs)] = f.coeffs
    return not (np.array(rows, dtype=np.int64) @ basis % polys[0].field.p).any()


def block_identities_oracle(predicted, at_k, at_i):
    """(cf_matches, reversal_holds) of _certify_blocks from its block
    identities checked as polynomials: with x, x', y, y' Prop. 1's matrix at
    i, sigma = lc(P_i)/lc(x), c_j read off the inner quotients and
    G_j = g_j x', g_j = -c_j sigma (g_0 = 0), the heads
      sigma (lam_j A x + y / c_j) - g_(j-1) x' - v_{j,k} T^p = 0, j = 1..2k
    (the closing one, j = 2k, without its y term) and the tails
      sigma (B11 G_j + B12 P_i) - 1 = 0, j = 1..2k-1,
    each a row of per-block scalars against polynomials fixed per i.  It
    checks sigma x = P_i but none of R2-R4, and inverts every c_j."""
    field = predicted.field
    p = field.p
    v_k, v_i = at_k.family.v, at_i.family.v
    x, xp, y, yp = perfect._prop1_predicted(field, v_i).matrix()
    P, A = power_p_family(field, at_i.i), at_i.tower[1]
    sigma = P.leading_coefficient() * field.inv(x.leading_coefficient()) % p
    width = len(v_i) + 1
    lambdas, shape = predicted.lambdas, ((1,) + (0,) * (width - 1)) * (len(v_k) - 1) + (1,)
    if (x.scaled(sigma) != P or predicted.indices != shape or 0 in lambdas
            or predicted.tower != at_i.tower):
        return False, False
    blocks = np.array(lambdas[:-1], dtype=np.int64).reshape(-1, width)
    cs = (blocks[:, 1] * field.inv(v_i[0]) % p).tolist()
    c_invs = [field.inv(c) for c in cs] + [0]  # the closing head has no y term
    scale = np.array([(c, ci) * (width // 2) for c, ci in zip(cs, c_invs)], dtype=np.int64)
    if (blocks[:, 1:] != scale * np.array(v_i, dtype=np.int64) % p).any():
        return False, False
    lams = lambdas[::width]
    g = [0] + [-c * sigma % p for c in cs]
    heads = [[sigma * lam % p, sigma * ci % p, -gj % p, -vj % p]
             for lam, ci, gj, vj in zip(lams, c_invs, g, v_k)]
    tails = [[sigma * gj * lam % p, sigma * gj * ci % p, sigma * c * lam % p, sigma, p - 1]
             for lam, ci, gj, c in zip(lams, c_invs, g[1:], cs)]
    ax = A * x
    if not (all_zero(heads, ax, y, xp, Polynomial.monomial(field, 1, p))
            and all_zero(tails, ax * xp, y * xp, A * xp * P, yp * P, Polynomial.one(field))):
        return False, False
    return A.degree >= 1 and at_k.cf_matches, at_k.reversal_holds


def certified(predicted, at_k, at_i):
    """_certify_blocks' verdicts, asserted equal to block_identities_oracle's."""
    got = perfect._certify_blocks(predicted, at_k, at_i)
    assert got == block_identities_oracle(predicted, at_k, at_i)
    return got


def tree_oracle(num, den, predicted, k, theta):
    """(cf_matches, reversal_holds) from the predicted expansion's continuant
    tree: Prop. 1's certificate, which builds num and den."""
    return perfect._certify(num, den, predicted, k, theta, predicted.matrix())


class TestCertificateOracle:
    """The certificates agree with Euclid on every case: Prop. 1's continuant
    matrix, and Prop. 2's block certificate (verify_prop2) with the tree too."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_prop1_agrees_with_euclid(self, p):
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            r = verify_prop1(F, k)
            assert (r.cf_matches, r.reversal_holds) == euclid_oracle(*prop1_case(F, k)), k

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_prop2_agrees_with_euclid(self, p):
        assert prop2_disagreements(GF(p), tree_oracle) == prop2_disagreements(GF(p), euclid_oracle) == []

    @pytest.mark.parametrize("p", [19, 23])
    def test_prop2_agrees_with_the_tree(self, p):
        # past p = 17, where Euclid grows slow, the tree alone builds P_(kp-i)
        assert prop2_disagreements(GF(p), tree_oracle) == []


class TestCertificateMutations:
    """Corrupted predictions and towers are refused, and Euclid agrees."""

    CASES = {"prop1": lambda: prop1_case(F13, 4), "prop2": lambda: prop2_case(F13, 2, 3)}

    @staticmethod
    def certify_both(*case):
        got = tree_oracle(*case)
        assert got == euclid_oracle(*case)
        return got

    @staticmethod
    def certify_blocks(num, den, predicted, k, theta):
        """verify_prop2's block certificate on the prop2 case, (k, i) = (2, 3);
        it reads no num or den: _AtK holds Prop. 1's verdicts at k."""
        return certified(predicted, *prop2_sides(F13, k, 3, theta))

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    @pytest.mark.parametrize("j", [0, 1, -1])
    def test_split_quotient_with_the_same_value(self, case, j):
        # [.., b - T, 0, T, ..] has the matrix of [.., b, ..]: only the
        # degree guard on b_2..b_n tells them apart
        num, den, predicted, k, theta = self.CASES[case]()
        qs = list(predicted.quotients)
        j %= len(qs)
        T = Polynomial.x(F13)
        split = ContinuedFraction(F13, qs[:j] + [qs[j] - T, Polynomial.zero(F13), T] + qs[j + 1 :])
        assert split.value() == predicted.value()
        assert self.certify_both(num, den, split, k, theta) == (False, True)
        if case == "prop2":
            # a zero quotient is no lambda * A_j: the split goes in as a list,
            # which has no block shape, so the chain certifies neither verdict
            assert self.certify_blocks(num, den, split, k, theta) == (False, False)

    def test_split_quotient_fails_verify_prop2(self, monkeypatch):
        real = perfect.prop2_predicted_quotients

        def split(field, at_k, at_i):
            qs = real(field, at_k, at_i).quotients
            T = Polynomial.x(field)
            return ContinuedFraction(field, [qs[0] - T, Polynomial.zero(field), T, *qs[1:]])

        monkeypatch.setattr(perfect, "prop2_predicted_quotients", split)
        [r] = verify_prop2(F13, [2], [3])
        assert r.defined and not r.cf_matches and not r.passed

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    @pytest.mark.parametrize("j", [0, 2, -1])
    def test_changed_coefficient(self, case, j):
        num, den, predicted, k, theta = self.CASES[case]()
        qs = list(predicted.quotients)
        qs[j] = qs[j] + Polynomial.one(F13)  # no lambda * A_j: it goes in as a list
        changed = ContinuedFraction(F13, qs)
        cf_matches, _ = self.certify_both(num, den, changed, k, theta)
        assert not cf_matches
        if case == "prop2":
            assert self.certify_blocks(num, den, changed, k, theta) == (False, False)

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    def test_wrong_theta(self, case):
        num, den, predicted, k, theta = self.CASES[case]()
        wrong = (theta + 1) % 13
        assert wrong * wrong % 13 != theta * theta % 13  # -theta would pass
        assert self.certify_both(num, den, predicted, k, wrong) == (True, False)
        if case == "prop2":
            assert self.certify_blocks(num, den, predicted, k, wrong) == (True, False)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_corrupted_tower_fails_power_identity(self, level, monkeypatch):
        real = perfect.a_sequence

        def corrupted(field, k, count):
            A = list(real(field, k, count))
            cs = list(A[level].coeffs)
            cs[len(cs) // 2] += 1
            A[level] = Polynomial(field, cs)
            return A

        monkeypatch.setattr(perfect, "a_sequence", corrupted)
        r = verify_prop1(F13, 4)
        assert r.cf_matches and r.reversal_holds and not r.passed
        # A_level is the quotient at level - 1 and the dividend at level
        assert r.power_identity == [i not in (level - 1, level) for i in range(3)]


def prop1_frobenius_matrix(F, k):
    """(X, X', Y, Y'): Prop. 1's continuant matrix at k under T -> T^p."""
    T = Polynomial.x(F)
    x = ContinuedFraction(F, [T.scaled(c) for c in family_constants(F, k).v]).matrix()
    return tuple(m.pow_frobenius() for m in x)


class TestBlockCertificate:
    """verify_prop2's block-by-block certificate: the closed form it proves,
    and corrupted lists and broken copies of its code that each flip a
    verdict.  The prop2 case is p = 13, (k, i) = (2, 3): 3 blocks of 7."""

    K, I, WIDTH = 2, 3, 7

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_closed_form_matrix(self, p):
        # the predicted matrix is s [[X/P_i, X'], [Y, P_i Y']], s = +-1
        F = GF(p)
        half = range(1, (p - 1) // 2 + 1)
        for k in half:
            X, Xp, Y, Yp = prop1_frobenius_matrix(F, k)
            for i in half:
                try:
                    predicted = prop2_predicted(F, k, i)
                except ScalarCFUndefined:
                    continue
                P_i = pq_polynomials(F, i)[0]
                X_over_P, rem = divmod(X, P_i)
                assert rem.is_zero(), (k, i)
                got = predicted.matrix()
                s = got[0].leading_coefficient() * F.inv(X_over_P.leading_coefficient()) % p
                assert s * s % p == 1, (k, i)
                assert got == tuple(m.scaled(s) for m in (X_over_P, Xp, Y, P_i * Yp)), (k, i)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_scalar_equations_are_the_identities(self, p):
        # every defined case passes both the scalar certificate and the
        # block identities as polynomials
        F = GF(p)
        half = range(1, (p - 1) // 2 + 1)
        for k in half:
            for i in half:
                try:
                    sides = prop2_sides(F, k, i)
                except ScalarCFUndefined:
                    continue
                assert certified(prop2_predicted_quotients(F, *sides), *sides) == (True, True), (k, i)

    def corrupt(self, monkeypatch, change):
        """Make prop2_predicted_quotients return change(cf) at (K, I), after
        checking that the scalar certificate and the block identities agree
        on it; the changed expansion's Euclid verdict is returned."""
        sides = prop2_sides(F13, self.K, self.I)
        certified(change(prop2_predicted_quotients(F13, *sides)), *sides)
        predict_as(monkeypatch, change, self.K, self.I)
        return euclid_oracle(*prop2_case(F13, self.K, self.I))

    @pytest.mark.parametrize("m", [1, 2, 6])
    @pytest.mark.parametrize("block", [0, 1])  # c_j = 10, 6 (c_3 = 1 has no wrong side)
    def test_inner_quotient_wrong_rescaling(self, block, m, monkeypatch):
        # the m-th inner quotient of a block rescaled by 1/c_j where c_j is
        # due (m odd) or by c_j where 1/c_j is (m even)
        lambdas = prop2_predicted(F13, self.K, self.I).lambdas
        v = family_constants(F13, self.I).v
        start = block * self.WIDTH + 1
        c = lambdas[start] * F13.inv(v[0]) % 13
        wrong = v[m - 1] * (F13.inv(c) if m % 2 else c) % 13
        assert lambdas[start + m - 1] != wrong

        def edit(tower, lambdas, indices):
            lambdas[start + m - 1] = wrong

        want = self.corrupt(monkeypatch, edited(edit))
        [r] = verify_prop2(F13, [self.K], [self.I])
        assert want[0] is False and (r.cf_matches, r.reversal_holds) == (False, False)

    @pytest.mark.parametrize("block", [1, 2])
    def test_block_boundary_off_by_one(self, block, monkeypatch):
        # the lead of a block swapped with the last inner quotient before it,
        # (lambda, index) pairs both: refused by the index shape
        j = block * self.WIDTH

        def edit(tower, lambdas, indices):
            lambdas[j - 1], lambdas[j] = lambdas[j], lambdas[j - 1]
            indices[j - 1], indices[j] = indices[j], indices[j - 1]

        want = self.corrupt(monkeypatch, edited(edit))
        [r] = verify_prop2(F13, [self.K], [self.I])
        assert want[0] is False and (r.cf_matches, r.reversal_holds) == (False, False)

    @pytest.mark.parametrize("j", [0, 7, -1])
    def test_lead_wrong_multiple(self, j, monkeypatch):
        # 2 lam_j A_{1,i}: still a multiple of A_{1,i}, refused only by the
        # identity of its block; j = -1 is the closing step's b_n
        want = self.corrupt(monkeypatch, rescaled(j, 2))
        [r] = verify_prop2(F13, [self.K], [self.I])
        assert want[0] is False and (r.cf_matches, r.reversal_holds) == (False, False)

    @pytest.mark.parametrize("edit", [lead_on_t, doubled_t], ids=["lead on T", "doubled T"])
    def test_shape_or_tower_changed(self, edit, monkeypatch):
        # refused by the index shape, or by the tower check, alone
        want = self.corrupt(monkeypatch, edited(edit))
        [r] = verify_prop2(F13, [self.K], [self.I])
        assert want[0] is False and (r.cf_matches, r.reversal_holds) == (False, False)

    def test_negated_theta_i_breaks_r3_alone(self):
        # t -> -t and every c_j -> -c_j keep R1, R2, R4 and both block equations
        sides = prop2_sides(F13, self.K, self.I, theta_i=-family_constants(F13, self.I).theta % 13)
        predicted = prop2_predicted_quotients(F13, *sides)
        assert certified(predicted, *sides) == (False, False)
        num, den, _, k, theta = prop2_case(F13, self.K, self.I)
        assert euclid_oracle(num, den, predicted, k, theta)[0] is False

    def test_prop1_verdict_at_k_is_load_bearing(self, monkeypatch):
        # the blocks at K follow the corrupted v_(j,K) and close: Prop. 1's
        # verdict at K alone refuses every case there; an i = K would meet
        # the corrupted values as v_(m,i), so the sweep leaves it out
        corrupt_v_k(monkeypatch, self.K)
        sides = prop2_sides(F13, self.K, self.I)
        certified(prop2_predicted_quotients(F13, *sides), *sides)
        assert euclid_oracle(*prop2_case(F13, self.K, self.I)) == (False, False)
        reports = verify_prop2(F13, range(1, 7), [i for i in range(1, 7) if i != self.K])
        assert len(reports) == 30 and all(r.defined for r in reports)
        for r in reports:
            assert r.passed == (r.k != self.K), (r.k, r.i)
            assert (r.cf_matches, r.reversal_holds) == euclid_oracle(*prop2_case(F13, r.k, r.i)), (r.k, r.i)

    def test_wrong_theta(self):
        num, den, predicted, k, theta = prop2_case(F13, self.K, self.I)
        got = certified(predicted, *prop2_sides(F13, k, self.I, (theta + 1) % 13))
        assert got == (True, False)

    def test_quotients_never_built(self, monkeypatch):
        # the certificate reads the prediction's lambdas and indices alone
        real, made = perfect.prop2_predicted_quotients, []

        def capture(field, at_k, at_i):
            made.append(real(field, at_k, at_i))
            return made[-1]

        monkeypatch.setattr(perfect, "prop2_predicted_quotients", capture)
        assert verify_prop2(F13, [self.K], [self.I])[0].passed
        assert len(made) == 1 and made[0]._quotients is None


class TestRelationResidual:
    def make_gen(self, n=80):
        spec = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        return spec, generate_perfect_expansion(spec, n)

    def test_generated_expansion_satisfies_relation(self):
        spec, cf = self.make_gen()
        assert relation_residual(cf, spec.relation(), 40) == float("-inf")

    def test_perturbed_epsilon_fails(self):
        spec, cf = self.make_gen()
        bad = spec.relation()._replace(eps2=spec.relation().eps2 + 1)
        res = relation_residual(cf, bad, 40)
        assert res != float("-inf")

    @pytest.mark.parametrize("r", [0, -13, 26])
    def test_exponent_not_a_power_of_p(self, r):
        # r < 1 included: the floor of alpha's series is sized from r before the twist
        spec, cf = self.make_gen()
        with pytest.raises(ValueError, match="is not a power of p"):
            relation_residual(cf, spec.relation()._replace(r=r), 40)

    def test_prefix_only_is_insufficient(self):
        spec, cf = self.make_gen()
        short = ContinuedFraction(F13, cf.quotients[:6])
        with pytest.raises(ValueError, match="insufficient"):
            relation_residual(short, spec.relation(), 40)

    def test_head_too_short_for_the_precision(self):
        # l + 1 quotients pass the length check, but deg y_7 = 6 leaves alpha
        # known to T^-12, short of the T^-78 that T^-1000 at r = 13 needs
        spec, cf = self.make_gen(7)
        with pytest.raises(InsufficientExpansion, match="^insufficient expansion for the requested precision$"):
            relation_residual(cf, spec.relation(), 1000)

    def test_precision_must_be_positive(self):
        spec, cf = self.make_gen()
        with pytest.raises(ValueError, match="^precision must be positive$"):
            relation_residual(cf, spec.relation(), 0)

    def test_too_much_precision_rejected(self):
        spec, cf = self.make_gen(20)
        with pytest.raises(ValueError, match="insufficient"):
            relation_residual(cf, spec.relation(), 500)

    def test_each_quotient_enters_one_leaf(self):
        # alpha's convergent is read off a_1 .. a_4 and its tail's off
        # a_7 .. a_25, the shortest prefixes that certify their floors at
        # precision 40 (2 deg y_4 = 6 >= 5, 2 deg y'_25 = 52 >= 49) of the 200
        # quotients; no matrix of the head a_1 .. a_6 is built
        spec, cf = self.make_gen(200)
        assert certifying_prefixes(cf, spec.relation(), 40) == (4, 25)
        assert residual_reads(cf, spec.relation(), 40) == (float("-inf"), [(0, 4), (6, 25)], 4 + 19)

    @pytest.mark.parametrize("precision", [1, 40, 100])
    @pytest.mark.parametrize("n", [80, 200])
    def test_equals_the_full_length_residual(self, precision, n):
        spec, cf = self.make_gen(n)
        for rel in (spec.relation(), spec.relation()._replace(eps2=spec.relation().eps2 + 1)):
            assert relation_residual(cf, rel, precision) == full_length_residual(cf, rel, precision)

    @pytest.mark.parametrize("n", [40, 80])
    def test_equals_the_series_oracle_on_both_sides_of_each_floor(self, n):
        # every precision from 1 to 120 crosses both floors many times; at
        # n = 40 the larger ones are refused by both routes
        spec, cf = self.make_gen(n)
        rel = spec.relation()
        corrupted = [rel, rel._replace(eps1=rel.eps1 + 1), rel._replace(eps2=rel.eps2 + 1),
                     rel._replace(Q=rel.Q + Polynomial.one(F13)), rel._replace(r=rel.r * 13)]
        for precision in range(1, 121):
            for bent in corrupted:
                outcomes = []
                for residual in (relation_residual, full_length_residual):
                    try:
                        outcomes.append(residual(cf, bent, precision))
                    except InsufficientExpansion as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (precision, bent)

    def test_a_difference_at_the_floor_is_not_reported(self):
        # the sides' convergents differ at T^(-precision - 1) exactly: below
        # the checked range, so -inf on both routes
        cf, rel, precision = residual_at_the_floor()
        assert relation_residual(cf, rel, precision) == full_length_residual(cf, rel, precision) == float("-inf")
        # one coefficient further, both see it
        assert relation_residual(cf, rel, precision + 1) == full_length_residual(cf, rel, precision + 1) == -44

    def test_tail_floor_met_exactly_at_m(self):
        cf, rel, precision, m, mt = residual_boundary_case()
        degrees = cf.degrees()
        assert 2 * sum(degrees[1:m]) == precision // rel.r + 3  # one past the odd alpha floor
        assert 2 * sum(degrees[1 : m - 1]) < precision // rel.r + 2
        assert 2 * sum(degrees[rel.l + 1 : mt]) == precision + 1 + rel.P.degree
        assert 2 * sum(degrees[rel.l + 1 : mt - 1]) < precision + 1 + rel.P.degree
        assert residual_reads_exactly_m()

    def test_a_quotient_of_degree_0_reads_all(self):
        # a_8 = 1 after the first: a sum of degrees overstates deg y, so both
        # convergents read through all n quotients, and both routes agree
        spec, cf = self.make_gen()
        qs = list(cf.quotients)
        qs[7] = Polynomial.one(F13)
        bent = ContinuedFraction(F13, qs)
        for precision in (1, 40):
            got = residual_reads(bent, spec.relation(), precision)
            n = len(bent)
            assert got == (full_length_residual(bent, spec.relation(), precision), [(0, n), (6, n)], 2 * n - 6)


# -- the relation-driven expansion ---------------------------------------------

# the type (7, 3, 2) and (13, 6, 4) specs that CI generates past the benchmark's sizes
CI_SPECS = [
    ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)),
    ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)),
]


class TestRelationEngine:
    """expand_from_relation: the expansion a spec's relation drives is the
    generator's, an input that is not the quartic's is expand_root's, and
    every check of the engine, and every twist by r of the relation, is
    load-bearing."""

    @pytest.mark.parametrize("spec", CI_SPECS, ids=["p7", "p13"])
    def test_matches_the_generator(self, spec):
        prefix = generate_perfect_expansion(spec, spec.l)
        engine = perfect.expand_from_relation(prefix, spec.relation(), 10_000)
        assert list(engine.quotients) == list(generate_perfect_expansion(spec, 10_000).quotients)

    def test_relation_with_deg_p_at_least_r(self):
        assert sextic_matches_direct()

    def test_prefix_alone_up_to_l(self):
        spec = CI_SPECS[1]
        prefix = generate_perfect_expansion(spec, spec.l)
        for n in (0, 4, spec.l):
            assert list(perfect.expand_from_relation(prefix, spec.relation(), n)) == list(prefix)[:n]

    def test_bad_input_is_a_value_error(self):
        spec = CI_SPECS[0]
        prefix, rel = generate_perfect_expansion(spec, spec.l), spec.relation()
        with pytest.raises(ValueError, match="n must be >= 0"):
            perfect.expand_from_relation(prefix, rel, -1)
        with pytest.raises(ValueError, match="need l = 3 prefix quotients"):
            perfect.expand_from_relation(ContinuedFraction(F7, list(prefix)[:2]), rel, 10)
        with pytest.raises(ValueError, match="of degree >= 1 after a_1"):
            perfect.expand_from_relation(ContinuedFraction(F7, [*list(prefix)[:2], poly(F7, 3)]), rel, 10)
        with pytest.raises(ValueError, match="not a power of p"):
            perfect.expand_from_relation(prefix, rel._replace(r=8), 10)

    def test_emitted_quotient_of_degree_zero(self):
        # alpha = T + 1/alpha_2 and alpha^5 = T^7 alpha_2: a_2 = [T^5 / T^7] = 0
        T = Polynomial.x(F5)
        rel = FrobeniusRelation(1, 1, 1, T**7, Polynomial.zero(F5), 5)
        with pytest.raises(ArithmeticError, match="a_2 = 0 has degree < 1"):
            perfect.expand_from_relation(ContinuedFraction(F5, [T]), rel, 3)

    def test_input_needed_before_it_is_produced(self):
        # alpha = T^2 + 1/alpha_2, alpha^5 = T^5 alpha_2: a_2 = T^5, and then
        # alpha_3 = T^5 alpha_2^5, whose integral part needs a_3(T^5) itself
        T = Polynomial.x(F5)
        rel = FrobeniusRelation(1, 1, 1, T**5, Polynomial.zero(F5), 5)
        with pytest.raises(ArithmeticError, match="a_3 is needed as input before it is produced"):
            perfect.expand_from_relation(ContinuedFraction(F5, [T**2]), rel, 4)

    def test_emission_refused_at_either_boundary(self):
        assert boundaries_refused()
        one, T = Polynomial.one(F5), Polynomial.x(F5)
        assert perfect._emission_is_exact(one, -(T**4), 5, 0)
        assert perfect._emission_is_exact(T, Polynomial.zero(F5), 5, 5)
        assert not perfect._emission_is_exact(Polynomial.zero(F5), one, 5, 0)

    def test_corrupted_matrix_raises(self):
        assert corruption_raises()

    def test_input_past_the_degree_cap(self):
        assert cap_refuses_at_the_boundary()
