import random
import time

import pytest

from hqcf import cli, perfect
from hqcf.cf import ContinuedFraction, ScalarCFUndefined, rational_to_cf, running_scalar_cf
from hqcf.fields import GF, MAX_MODULUS, PrimeField
from hqcf.perfect import (
    MAX_A_DEGREE,
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
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

F5, F7, F13 = GF(5), GF(7), GF(13)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


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


def reference_tower(field, k, max_degree, max_levels=6):
    """A_0, A_1, ... by A_(i+1) = A_i.pow_frobenius() // P_k, the generic
    division, while the next degree stays below max_degree."""
    P, _ = pq_polynomials(field, k)
    seq = [Polynomial.x(field)]
    while len(seq) <= max_levels and seq[-1].degree * field.p - 2 * k <= max_degree:
        seq.append(seq[-1].pow_frobenius() // P)
    return seq


def built_annotation_levels(tower, max_deg):
    """The levels the expand annotations named when they built the tower one
    level at a time: A_0, A_1, ... while the degree is below max_deg and
    still rises, at most 40, of which A_0 and those of degree <= max_deg."""
    A = tower[:1]
    while A[-1].degree < max_deg and len(A) < 40:
        if tower[len(A)].degree <= A[-1].degree:
            break
        A.append(tower[len(A)])
    return A[:1] + [a for a in A[1:] if a.degree <= max_deg]


class TestAnnotationLevels:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_closed_form_names_the_built_levels(self, p):
        # every 1 <= k < p/2, 2k = p - 1 included; max_deg on both sides of
        # each level's degree.  The tower reaches one level past max_deg.
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            tower = reference_tower(F, k, 400 * p)
            cuts = {a.degree + e for a in tower if a.degree <= 400 for e in (-1, 0, 1)}
            for max_deg in sorted(cuts | {0, 2, 100}):
                want = built_annotation_levels(tower, max_deg)
                for given in (None, tower):
                    named = cli._annotation_index(F, k, max_deg, given)
                    assert list(named) == want, (p, k, max_deg)
                    assert list(named.values()) == list(range(len(want))), (p, k, max_deg)

    def test_no_level_built_past_the_quotients(self, monkeypatch):
        # deg A_1 = 5 at p = 10007, k = 5001: quotients of degree <= 4 need A_0 alone
        built = []
        monkeypatch.setattr(cli, "a_sequence", lambda *args: built.append(args) or [Polynomial.x(args[0])])
        F = GF(10007)
        assert cli._annotation_index(F, 5001, 4, None) == {Polynomial.x(F): 0}
        assert built == [(F, 5001, 0)]


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

        def late_fault(a, k):
            quo, rem = real(a, k)
            calls.append(a)
            if len(calls) == 3:
                rem = rem + Polynomial.one(a.field)
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
        idx = (None, *generate_perfect_expansion(QUARTIC_SPECS[7], 30).cf.indices)
        assert idx[4] == 1 and idx[9] == 1 and idx[19] == 2

    def test_valuation_formula_examples(self):
        assert quartic_index(7, 4) == 1
        assert quartic_index(7, 19) == 2
        assert quartic_index(7, 5) == 0
        assert quartic_index(13, 7) == 1

    def test_formula_matches_recurrence(self):
        for p, spec in QUARTIC_SPECS.items():
            idx = generate_perfect_expansion(spec, 2000).cf.indices
            assert len(idx) == 2000
            for n, i in enumerate(idx, start=1):
                assert i == quartic_index(p, n), (p, n)

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            quartic_index(11, 3)

    def test_p11_index_prefix(self):
        # l = k = 1, i(1) = 0: (0, 1, 0, 0, 2, 0, 0, 1, 0, 0)
        idx = generate_perfect_p11(F7, 0, 3, 5, 10).cf.indices
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

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            ExpansionSpec(F7, 3, 2, 3, 5, (0, 6, 6))


class TestPerfectGeneration:
    def test_prefix_and_first_block_p7(self):
        gen = generate_perfect_expansion(ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 12)
        qs = [q.format() for q in gen.cf]
        assert qs[:3] == ["2*T", "6*T", "6*T"]
        # f(1) = 4: lambda_4 = eps1^(-1) * lambda_1 = 5*2 = 3, index 1
        assert qs[3] == "3*T^3 + 6*T"
        assert gen.lambdas[4] == 3 and gen.indices[4] == 1

    def test_lambda_delta_never_zero(self):
        gen = generate_perfect_expansion(ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)), 300)
        assert all(x != 0 for x in gen.lambdas[1:])
        assert all(x != 0 for x in gen.deltas[1:])

    def test_degrees_match_closed_form(self):
        p, l, k = 13, 6, 4
        gen = generate_perfect_expansion(ExpansionSpec(F13, l, k, 12, 9, (5, 12, 9, 11, 1, 5)), 250)
        for n, q in enumerate(gen.cf, start=1):
            i = gen.indices[n]
            assert q.degree == (p**i * (p - 1 - 2 * k) + 2 * k) // (p - 1)

    def test_extremal_k_all_proportional_to_t(self):
        # p = 7, k = 3 = (p-1)/2, l = 1: every quotient is c*T
        F = F7
        theta, _ = family_constants(F, 3)
        lam1 = (6 * F.inv(2) - 2 * F.inv(6 * theta)) % 7
        gen = generate_perfect_expansion(ExpansionSpec(F, 1, 3, 1, 2, (lam1,)), 40)
        assert all(q.degree == 1 for q in gen.cf)

    def test_matches_direct_expansion_p7(self):
        # v = 1 for p = 7, so the generated expansion IS the quartic's
        gen = generate_perfect_expansion(ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 100)
        direct = expand_root(quartic_state(F7), 100)
        assert list(gen.cf.quotients) == list(direct.quotients)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate_perfect_expansion(QUARTIC_SPECS[7], -1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            generate_perfect_p11(F7, 0, 3, 5, -1)


def reference_generation(spec, n):
    """(lambdas, deltas, indices) of generate_perfect_expansion by the
    per-position loop it replaced: one block f(m), ..., f(m) + 2k per
    source m, in order; the reference for the level-at-a-time fill."""
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


def random_specs(rng, p, k, l):
    """A spec of type (p, l, k) that validates, one whose anchor fails, and,
    when a draw hit one, one whose delta_n is undefined; random prefix data."""
    F = GF(p)
    theta, _ = family_constants(F, k)
    specs = []
    while True:
        eps2 = rng.randrange(1, p)
        lambdas = [rng.randrange(1, p) for _ in range(l)]
        indices = [rng.choice((0, 0, 1, 2)) for _ in range(l)]
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
    gen = generate_perfect_expansion(spec, n)
    assert (gen.cf.lambdas, gen.cf.indices) == (tuple(gen.lambdas[1:]), tuple(gen.indices[1:]))
    return gen.lambdas, gen.deltas, gen.indices, gen.cf.tower


def referenced(spec, n):
    lam, dl, idx = reference_generation(spec, n)
    return lam, dl, idx, [max(idx[1:], default=0)]


class TestBlockFill:
    """generate_perfect_expansion against reference_generation."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31, 43])
    def test_matches_reference(self, p, monkeypatch):
        # the stub tower records the level the generator asks for
        monkeypatch.setattr(perfect, "a_sequence", lambda field, k, count: [count])
        rng = random.Random(f"block fill {p}")
        chunks, seen = (perfect._CHUNK, 5), set()
        for k in range(1, (p - 1) // 2 + 1):
            for l in (1, 2, 3, 5):
                first_block = l + 1 + 2 * k  # f(1) + 2k
                ns = (-1, 0, 1, l, l + 1, first_block, first_block + 1, 300, 5000)
                for spec in random_specs(rng, p, k, l):
                    for n in ns:
                        want = generation_outcome(referenced, spec, n)
                        # a pass of 5 sources: many passes, the last one cut short
                        for chunk in chunks if n <= 300 else chunks[:1]:
                            monkeypatch.setattr(perfect, "_CHUNK", chunk)
                            got = generation_outcome(generated, spec, n)
                            assert got == want, (spec, n, chunk)
                        seen.add(want[0].__name__ if isinstance(want[0], type) else "result")
        assert {"result", "ValueError", "DeltaMismatchError"} <= seen

    @pytest.mark.parametrize(
        "spec, n",
        [
            (ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 3000),
            (ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5)), 2000),
            (ExpansionSpec(GF(5), 1, 1, 3, 1, (2,)), 13000),  # sources past _CHUNK
        ],
    )
    def test_tower_and_quotients(self, spec, n):
        gen = generate_perfect_expansion(spec, n)
        lam, dl, idx = reference_generation(spec, n)
        assert (gen.lambdas, gen.deltas, gen.indices) == (lam, dl, idx)
        tower = a_sequence(spec.field, spec.k, max(idx[1:]))
        assert gen.cf.tower == tower
        assert gen.cf.degrees() == [tower[i].degree for i in idx[1:]]

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
            reference_generation(spec, 6 + i)[0]
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
        gen = generate_perfect_expansion(spec, f_j - 1)
        assert gen.lambdas == reference_generation(spec, f_j - 1)[0]
        assert gen.lambdas[j] == 0


class TestSymbolicQuotients:
    SPEC = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))

    def test_quotients_are_lambda_times_tower(self):
        gen = generate_perfect_expansion(self.SPEC, 300)
        cf = gen.cf
        assert cf.lambdas == tuple(gen.lambdas[1:]) and cf.indices == tuple(gen.indices[1:])
        assert list(cf.quotients) == [
            cf.tower[i].scaled(c) for i, c in zip(cf.indices, cf.lambdas)
        ]

    def test_length_and_degrees_without_quotients(self, monkeypatch):
        gen = generate_perfect_expansion(self.SPEC, 300)

        def refuse(*args):
            raise AssertionError("a quotient was built")

        monkeypatch.setattr(Polynomial, "scaled", refuse)
        cf = gen.cf
        assert len(cf) == 300
        assert cf.degrees() == [cf.tower[i].degree for i in gen.indices[1:]]

    def test_repr_builds_only_the_shown_quotients(self):
        spec = ExpansionSpec(F7, 3, 2, 2, 4, (4, 2, 3))
        cf = generate_perfect_expansion(spec, 80000).cf
        text = repr(cf)
        assert cf._quotients is None
        head = ", ".join(q.format() for q in cf.quotients[:8])
        assert text == f"[{head}, ...]"

    def test_quotients_built_once_and_shared(self):
        cf = generate_perfect_expansion(self.SPEC, 300).cf
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
            gen_c = generate_perfect_p11(F, i1, e1, e2, 60)
            gen_t = generate_perfect_expansion(
                ExpansionSpec(F, 1, 1, e1, e2, (lam1,), (i1,)), 60
            )
            assert list(gen_c.cf.quotients) == list(gen_t.cf.quotients)

    def test_delta1_value(self):
        # this route's sign convention: delta_1 = -2*eps1/eps2 = 3 for (p,e1,e2) = (7,3,5)
        gen = generate_perfect_p11(F7, 0, 3, 5, 5)
        assert gen.deltas[1] == 3

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
        qs = prop2_predicted_quotients(F7, 1, 1)
        assert len(qs) == 2 + 2 * 1 * (2 * 1 - 1)
        A11 = a_sequence(F7, 1, 1)[1]
        assert qs[0] == A11  # v_{1,1} = 1
        assert qs[1] == poly(F7, 0, 1)  # -delta_1^{-1} v_{1,1} T = T (delta_1 = 6)
        assert qs[2] == poly(F7, 0, 6)
        assert qs[3] == A11.scaled(6)

    def test_p7_k1_i1_verifies(self):
        r = verify_prop2(F7, 1, 1)
        assert r.passed and r.predicted_length == 4

    def test_p13_k4_i4(self):
        r = verify_prop2(F13, 4, 4)
        assert r.passed

    def test_reversal_identity_directly(self):
        # evaluate [b_n..b_1] and compare -4k^2 theta_k^2 times it with the fraction
        F, k, i = F13, 2, 3
        qs = prop2_predicted_quotients(F, k, i)
        theta, _ = family_constants(F, k)
        rev = ContinuedFraction(F, list(reversed(qs)))
        xr, yr = rev.value()
        Pk = power_p_family(F, k * 13 - i)
        Qkp = pq_polynomials(F, k)[1].pow_frobenius()
        c = -4 * k * k * theta * theta % 13
        assert Pk * yr == (xr * Qkp).scaled(c)

    def test_sweep_p7(self):
        for k in range(1, 4):
            for i in range(1, 4):
                r = verify_prop2(F7, k, i)
                assert not r.defined or r.passed, (k, i)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            verify_prop2(F7, 4, 1)
        for k, i, name in ((0, 1, "k"), (1, 0, "i"), (1, 4, "i")):
            with pytest.raises(ValueError, match=f"1 <= {name} < p/2"):
                verify_prop2(F7, k, i)


def prop1_case(F, k):
    """(num, den, predicted, k, theta) of the Prop. 1 certificate: P_k / Q_k."""
    theta, v = family_constants(F, k)
    P, Q = pq_polynomials(F, k)
    return P, Q, [Polynomial.x(F).scaled(c) for c in v], k, theta


def prop2_case(F, k, i):
    """(num, den, predicted, k, theta) of the Prop. 2 certificate:
    P_(kp-i) / Q_k^p."""
    Qkp = pq_polynomials(F, k)[1].pow_frobenius()
    predicted = prop2_predicted_quotients(F, k, i)
    return power_p_family(F, k * F.p - i), Qkp, predicted, k, family_constants(F, k).theta


def euclid_oracle(num, den, predicted, k, theta):
    """(cf_matches, reversal_holds) the long way: the Euclidean expansion of
    num/den, and a second continuant tree for the reversed quotients."""
    cf_matches = list(rational_to_cf(num, den).quotients) == predicted
    xr, yr = ContinuedFraction(num.field, predicted[::-1]).value()
    return cf_matches, num * yr == (xr * den).scaled(-4 * k * k * theta * theta)


class TestCertificateOracle:
    """The continuant-matrix certificate agrees with Euclid on every case."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_prop1_agrees_with_euclid(self, p):
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            r = verify_prop1(F, k)
            assert (r.cf_matches, r.reversal_holds) == euclid_oracle(*prop1_case(F, k)), k

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_prop2_agrees_with_euclid(self, p):
        F = GF(p)
        half = range(1, (p - 1) // 2 + 1)
        for k in half:
            for i in half:
                r = verify_prop2(F, k, i)
                if not r.defined:
                    continue
                assert (r.cf_matches, r.reversal_holds) == euclid_oracle(
                    *prop2_case(F, k, i)
                ), (k, i)


class TestCertificateMutations:
    """Corrupted predictions and towers are refused, and Euclid agrees."""

    CASES = {"prop1": lambda: prop1_case(F13, 4), "prop2": lambda: prop2_case(F13, 2, 3)}

    @staticmethod
    def certify_both(*case):
        got = perfect._certify(*case)
        assert got == euclid_oracle(*case)
        return got

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    @pytest.mark.parametrize("j", [0, 1, -1])
    def test_split_quotient_with_the_same_value(self, case, j):
        # [.., b - T, 0, T, ..] has the matrix of [.., b, ..]: only the
        # degree guard on b_2..b_n tells them apart
        num, den, predicted, k, theta = self.CASES[case]()
        j %= len(predicted)
        T = Polynomial.x(F13)
        split = predicted[:j] + [predicted[j] - T, Polynomial.zero(F13), T] + predicted[j + 1 :]
        assert ContinuedFraction(F13, split).value() == ContinuedFraction(F13, predicted).value()
        assert self.certify_both(num, den, split, k, theta) == (False, True)

    def test_split_quotient_fails_verify_prop2(self, monkeypatch):
        real = perfect.prop2_predicted_quotients

        def split(field, k, i):
            qs = real(field, k, i)
            T = Polynomial.x(field)
            return [qs[0] - T, Polynomial.zero(field), T, *qs[1:]]

        monkeypatch.setattr(perfect, "prop2_predicted_quotients", split)
        r = verify_prop2(F13, 2, 3)
        assert r.defined and not r.cf_matches and not r.passed

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    @pytest.mark.parametrize("j", [0, 2, -1])
    def test_changed_coefficient(self, case, j):
        num, den, predicted, k, theta = self.CASES[case]()
        predicted[j] = predicted[j] + Polynomial.one(F13)
        cf_matches, _ = self.certify_both(num, den, predicted, k, theta)
        assert not cf_matches

    @pytest.mark.parametrize("case", ["prop1", "prop2"])
    def test_wrong_theta(self, case):
        num, den, predicted, k, theta = self.CASES[case]()
        wrong = (theta + 1) % 13
        assert wrong * wrong % 13 != theta * theta % 13  # -theta would pass
        assert self.certify_both(num, den, predicted, k, wrong) == (True, False)

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


class TestRelationResidual:
    def make_gen(self, n=80):
        spec = ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
        return spec, generate_perfect_expansion(spec, n)

    def test_generated_expansion_satisfies_relation(self):
        spec, gen = self.make_gen()
        assert relation_residual(gen.cf, spec.relation(), 40) == float("-inf")

    def test_perturbed_epsilon_fails(self):
        spec, gen = self.make_gen()
        bad = spec.relation()._replace(eps2=spec.relation().eps2 + 1)
        res = relation_residual(gen.cf, bad, 40)
        assert res != float("-inf")

    def test_prefix_only_is_insufficient(self):
        spec, gen = self.make_gen()
        short = ContinuedFraction(F13, gen.cf.quotients[:6])
        with pytest.raises(ValueError, match="insufficient"):
            relation_residual(short, spec.relation(), 40)

    def test_too_much_precision_rejected(self):
        spec, gen = self.make_gen(20)
        with pytest.raises(ValueError, match="insufficient"):
            relation_residual(gen.cf, spec.relation(), 500)

    def test_each_quotient_enters_one_leaf(self, monkeypatch):
        # the whole is joined from the head and tail trees, not built again
        from hqcf import cf as cf_module

        spec, gen = self.make_gen(200)
        real_product = cf_module._product
        leaf_quotients = [0]

        def counting(quotients, lo, hi, field):
            if hi - lo <= cf_module._LEAF:
                leaf_quotients[0] += hi - lo
            return real_product(quotients, lo, hi, field)

        monkeypatch.setattr(cf_module, "_product", counting)
        assert relation_residual(gen.cf, spec.relation(), 40) == float("-inf")
        assert leaf_quotients[0] == len(gen.cf)
