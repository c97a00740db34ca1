import dataclasses
import io
import random
from fractions import Fraction

import pytest

from hqcf.cf import ContinuedFraction
from hqcf.cli import main
from hqcf.fields import GF
from hqcf.laurent import Laurent
from hqcf.perfect import relation_residual, generate_perfect_expansion
from hqcf.polynomials import Polynomial
from hqcf import quartic
from hqcf.quartic import (
    DerivationError,
    approximation_exponent,
    beta_quotient_to_alpha,
    derive_frobenius_relation,
    frobenius_vectors,
    normalize_to_beta,
    power_vectors,
    quartic_state,
    relation_k,
    verify_conjecture1,
    verify_conjecture2,
)
from hqcf.rootcf import expand_root

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
    twelve = 12
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

    @pytest.mark.parametrize("p", [5, 11, 17, 23, 29])
    def test_frobenius_square_equals_power_vectors(self, p):
        F = GF(p)
        vecs = power_vectors(F, p * p + 1)
        assert frobenius_vectors(F, 2) == (vecs[p * p], vecs[p * p + 1])

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_frobenius_vectors_at_e_1_and_2(self, p):
        F = GF(p)
        vecs = power_vectors(F, p * p + 1)
        for e in (1, 2):
            assert frobenius_vectors(F, e) == (vecs[p**e], vecs[p**e + 1])
        with pytest.raises(ValueError, match="e >= 1"):
            frobenius_vectors(F, 0)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_root_state_and_power_basis_write_one_equation(self, p):
        # the root state's sum c_i(T) alpha^i, in the basis power_vectors
        # reduces alpha^4 by, is the zero vector
        F = GF(p)
        total = [Polynomial.zero(F)] * 4
        for c, vec in zip(quartic_state(F).coeffs, power_vectors(F, 4)):
            total = [t + c * w for t, w in zip(total, vec)]
        assert total == [Polynomial.zero(F)] * 4


class TestDerivation:
    def test_p7_relation(self):
        tr = derive_frobenius_relation(7)
        rel = tr.relation
        assert (rel.eps1, rel.eps2, tr.a) == (3, 5, 6)
        assert (rel.l, rel.r) == (3, 7)
        assert rel.P == poly(F7, 6, 0, 1) ** 2  # (T^2 - 1)^2, k = 2
        assert rel.Q == poly(F7, 0, 6, 0, 5)  # 5T^3 + 6T
        assert [q.format() for q in tr.prefix] == ["2*T", "6*T", "6*T"]

    def test_p13_relation(self):
        tr = derive_frobenius_relation(13)
        rel = tr.relation
        assert (rel.eps1, rel.eps2, tr.a) == (1, 4, 8)
        assert (rel.l, rel.r) == (6, 13)
        assert rel.P == poly(F13, 8, 0, 1) ** 4  # k = 4
        assert relation_k(13) == rel.P.degree // 2 == 4
        assert rel.Q == poly(F13, 0, 5, 0, 12, 0, 10, 0, 2)  # 2T^7+10T^5+12T^3+5T
        assert [q.format() for q in tr.prefix] == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]

    def test_reduced_pair_is_the_convergent(self):
        tr = derive_frobenius_relation(7)
        xl, _, yl, _ = tr.prefix.matrix(0, tr.relation.l)
        assert xl == poly(F7, 0, 1, 0, 2) and yl == poly(F7, 1, 0, 1)
        # (a_(p+1), a_p) = delta * (x_l, y_l), delta a polynomial
        vp, vp1 = power_vectors(F7, 8)[7:]
        delta, rem = divmod(vp.a, yl)
        assert rem.is_zero() and not delta.is_zero()
        assert (vp1.a, vp.a) == (delta * xl, delta * yl)

    def test_non_proportional_pair_fails_at_convergent(self, monkeypatch):
        # 2 * alpha^(p+1) keeps b-compat, but (2 a_(p+1), a_p) is not
        # delta * (x_l, y_l) for any delta
        real = quartic.frobenius_vectors

        def doubled_last(field, e):
            v0, v1 = real(field, e)
            return v0, type(v1)(*(c.scaled(2) for c in v1))

        monkeypatch.setattr(quartic, "frobenius_vectors", doubled_last)
        with pytest.raises(DerivationError) as info:
            derive_frobenius_relation(7)
        assert info.value.stage == "convergent"

    def test_perturbed_constant_part_fails_a_shape_stage(self, monkeypatch):
        # alpha^(p+1) + 1 keeps the alpha^3/alpha^2 parts, so the derivation
        # gets as far as reading U and V off the identity, and must reject them
        real = quartic.frobenius_vectors

        def shifted_last(field, e):
            v0, v1 = real(field, e)
            return v0, v1._replace(d=v1.d + Polynomial.one(field))

        monkeypatch.setattr(quartic, "frobenius_vectors", shifted_last)
        for p in (7, 13):
            with pytest.raises(DerivationError) as info:
                derive_frobenius_relation(p)
            assert info.value.stage in ("W-shape", "Q-shape")

    def test_wrong_residue_class_rejected(self):
        # p = 3 has neither relation; 11 = 2 mod 3 has the degree-p^2 one
        with pytest.raises(ValueError, match="p = 1 or 2 mod 3"):
            derive_frobenius_relation(3)
        assert relation_k(11) is None
        assert derive_frobenius_relation(11).relation.r == 121

    def test_relation_residual_alpha_coordinates(self):
        # Mkaouar expansion satisfies alpha^p = eps1 P_{k,a} alpha_{l+1} + eps2 Q_{k,a}
        for p in (7, 13):
            tr = derive_frobenius_relation(p)
            cf = expand_root(quartic_state(GF(p)), 150)
            assert relation_residual(cf, tr.relation, 100) == float("-inf")

    def test_relation_exponent_must_be_a_power_of_p(self):
        tr = derive_frobenius_relation(7)
        cf = expand_root(quartic_state(F7), 120)
        with pytest.raises(ValueError, match="not a power of p"):
            relation_residual(cf, tr.relation._replace(r=14), 60)

    def test_eq7_sign_discipline_negative_control(self):
        tr = derive_frobenius_relation(7)
        cf = expand_root(quartic_state(F7), 120)
        flipped = tr.relation._replace(eps1=-tr.relation.eps1 % 7)
        assert relation_residual(cf, flipped, 60) != float("-inf")


class TestNormalization:
    def test_p13_published_transform(self):
        tr = derive_frobenius_relation(13)
        spec = normalize_to_beta(tr)
        assert (spec.field, spec.l, spec.k) == (F13, 6, 4)
        assert (spec.eps1, spec.eps2) == (12, 9)
        # the beta prefix 5T, 12T, 9T, 11T, T, 5T
        assert spec.lambdas == (5, 12, 9, 11, 1, 5)
        # -a = 5 is a non-residue mod 13 (Euler's criterion): v^2 = s = 5
        # and v lies outside F_13
        assert -tr.a % 13 == 5 and pow(5, 6, 13) == 12

    def test_p7_identity_transform(self):
        tr = derive_frobenius_relation(7)
        spec = normalize_to_beta(tr)
        assert -tr.a % 7 == 1  # s = 1: v = 1 or -1, and either fixes 2T, 6T, 6T
        assert (spec.eps1, spec.eps2) == (3, 5)
        assert spec.lambdas == (2, 6, 6)

    def test_roundtrip_beta_to_alpha(self):
        for p in (7, 13):
            tr = derive_frobenius_relation(p)
            spec = normalize_to_beta(tr)
            F = GF(p)
            back = [
                beta_quotient_to_alpha(F, Polynomial.monomial(F, lam, 1), n, -tr.a % p)
                for n, lam in enumerate(spec.lambdas, start=1)
            ]
            assert back == list(tr.prefix.quotients)

    @pytest.mark.parametrize("p", [5, 11])
    def test_degree_p_squared_relation_refused(self, p):
        # a p = 2 mod 3 trace has r = p^2: no beta normalization, not a k or
        # prefix-shape complaint
        with pytest.raises(ValueError, match=f"needs r = p = {p}, got r = {p * p}$"):
            normalize_to_beta(derive_frobenius_relation(p))

    def test_prefix_quotient_must_be_lambda_t(self):
        tr = derive_frobenius_relation(7)
        for bad in (poly(F7, 1, 2), poly(F7, 0, 0, 0, 2), poly(F7, 3)):
            qs = list(tr.prefix.quotients)
            qs[1] = bad
            broken = dataclasses.replace(tr, prefix=ContinuedFraction(F7, qs))
            with pytest.raises(ValueError, match="a_2 = .* is not lambda\\*T"):
                normalize_to_beta(broken)


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

    def test_failed_perfect_conditions_are_a_finding(self, monkeypatch):
        # the p = 7 relation with eps1 + 1 breaks the anchor delta_l = 2k eps1/eps2
        real = quartic.normalize_to_beta

        def off_by_one(trace):
            spec = real(trace)
            return dataclasses.replace(spec, eps1=(spec.eps1 + 1) % spec.field.p)

        monkeypatch.setattr(quartic, "normalize_to_beta", off_by_one)
        v = verify_conjecture1(7, 60)
        assert v.passed is False and v.stage == "perfect-conditions"
        assert (v.eps1, v.eps2, v.a) == (3, 5, 6)
        assert main(["verify", "conj1", "--p", "7"], out=io.StringIO()) == 1

    def test_direct_expansion_past_l_altered_fails_the_comparison(self, monkeypatch):
        # only the n-quotient expansion is altered, at a_4 = a_(l+1); the
        # derivation's l = 3 prefix is the real one
        real = quartic.expand_root

        def altered(state, n):
            cf = real(state, n)
            if n <= 3:
                return cf
            qs = list(cf.quotients)
            qs[3] = qs[3] + Polynomial.one(cf.field)
            return ContinuedFraction(cf.field, qs)

        monkeypatch.setattr(quartic, "expand_root", altered)
        v = verify_conjecture1(7, 60)
        assert (v.passed, v.stage) == (False, "comparison")
        assert v.detail == "generated and direct expansions differ at index 4"
        assert v.compared_terms == 60
        assert (v.eps1, v.eps2, v.a) == (3, 5, 6)
        out = io.StringIO()
        assert main(["verify", "conj1", "--p", "7"], out=out) == 1
        assert "  stage: comparison  detail: generated and direct expansions differ at index 4\n" in out.getvalue()

    def test_oddness_along_the_way(self):
        cf = expand_root(quartic_state(F13), 120)
        assert not any(c for q in cf for c in q.coeffs[0::2])


class TestConjecture2:
    def test_p5(self):
        v = verify_conjecture2(5)
        assert v.passed
        assert (v.l, v.k_prime, v.k) == (12, 8, 2)
        # frozen after independent series verification of the found triple
        assert (v.eps1, v.eps2, v.a) == (4, 3, 4)
        assert v.a_equals_8_27

    @pytest.mark.parametrize("p, n", [(5, 30), (11, 120), (17, 250)])
    def test_relation_residual(self, p, n):
        # the second route: the derived relation as a series identity in alpha^(p^2)
        v = verify_conjecture2(p)
        assert v.relation.r == p * p and v.relation.l == v.l
        cf = expand_root(quartic_state(GF(p)), n)
        assert relation_residual(cf, v.relation, 100) == float("-inf")
        wrong = v.relation._replace(eps2=(v.eps2 + 1) % p)
        assert relation_residual(cf, wrong, 100) != float("-inf")

    def test_relation_kept_out_of_json(self):
        v = verify_conjecture2(5)
        assert "relation" not in v.to_json_dict()
        assert verify_conjecture2(5, l_override=13).relation is None

    def test_perturbed_constant_part_fails_a_shape_stage(self, monkeypatch):
        real = quartic.frobenius_vectors

        def shifted(field, e):
            v0, v1 = real(field, e)
            return v0, v1._replace(d=v1.d + Polynomial.one(field))

        monkeypatch.setattr(quartic, "frobenius_vectors", shifted)
        for p in (5, 11):
            v = verify_conjecture2(p)
            assert not v.passed and v.relation is None
            assert v.detail.split(":")[0] in ("W-shape", "Q-shape")

    def test_p5_negative_control(self):
        v = verify_conjecture2(5, l_override=13)
        assert not v.passed
        assert v.detail.startswith("convergent:")

    def test_p11_negative_control(self):
        v = verify_conjecture2(11, l_override=49)
        assert not v.passed

    def test_expands_exactly_l_quotients(self, monkeypatch):
        real = quartic.expand_root
        lengths = []
        monkeypatch.setattr(quartic, "expand_root", lambda state, n: lengths.append(n) or real(state, n))
        assert verify_conjecture2(5).passed
        assert not verify_conjecture2(5, l_override=13).passed
        assert lengths == [12, 13]

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            verify_conjecture2(7)

    @pytest.mark.parametrize("l", [0, -3])
    def test_nonpositive_l_rejected(self, l):
        with pytest.raises(ValueError, match="l must be >= 1"):
            verify_conjecture2(5, l_override=l)



PRIMES_BELOW_54 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.mark.parametrize("p", PRIMES_BELOW_54)
def test_one_derivation_for_both_residue_classes(p):
    tr = derive_frobenius_relation(p)
    if p % 3 == 1:
        assert (tr.relation.r, tr.relation.l) == (p, (p - 1) // 2)
        assert tr.relation.P.degree == 2 * relation_k(p)
    else:
        assert (tr.relation.r, tr.relation.l) == (p * p, (p + 1) ** 2 // 3)
        assert tr.relation.P.degree == 2 * (p * p - 1) // 3
        assert verify_conjecture2(p).relation == tr.relation
    assert len(tr.prefix) == tr.relation.l


def _shift_vectors(change):
    """A frobenius_vectors that hands the derivation change(v0, v1, one)."""
    real = quartic.frobenius_vectors
    return lambda field, e: change(*real(field, e), Polynomial.one(field))


# one way to reach each stage of derive_frobenius_relation, as (name, value) to monkeypatch
STAGE_FAULTS = {
    # one quotient short of l
    "prefix": lambda: ("expand_root", lambda state, n: expand_root(state, n - 1)),
    # 2 alpha^(r+1): (a_(r+1), a_r) is no longer proportional to (x_l, y_l)
    "convergent": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, type(v1)(*(c.scaled(2) for c in v1))))),
    # alpha^(r+1) + alpha^2: the alpha^3 parts still cancel, the alpha^2 parts do not
    "b-compat": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, v1._replace(b=v1.b + one)))),
    # alpha^(r+1) + alpha moves U = eps1 P by x_l y_l, past degree 2k'
    "W-shape": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, v1._replace(c=v1.c + one)))),
    # (alpha^r - 1, alpha^(r+1) - alpha) is the relation with V - 1 for V, U kept
    "Q-shape": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0._replace(d=v0.d - one), v1._replace(c=v1.c - one)))),
    # an alpha with no part above T^-1: y_l alpha^r + c has too low a degree
    "degree": lambda: ("alpha_series", lambda field, floor: Laurent.zero(field, floor)),
}


class TestDerivationStages:
    @pytest.mark.parametrize("stage", STAGE_FAULTS)
    @pytest.mark.parametrize("p", [7, 13])
    def test_conj1_names_the_stage(self, p, stage, monkeypatch):
        monkeypatch.setattr(quartic, *STAGE_FAULTS[stage]())
        with pytest.raises(DerivationError) as info:
            derive_frobenius_relation(p)
        assert info.value.stage == stage
        v = verify_conjecture1(p, 60)
        assert (v.passed, v.stage, v.detail) == (False, stage, str(info.value))

    @pytest.mark.parametrize("stage", STAGE_FAULTS)
    @pytest.mark.parametrize("p", [5, 11])
    def test_conj2_names_the_stage(self, p, stage, monkeypatch):
        monkeypatch.setattr(quartic, *STAGE_FAULTS[stage]())
        v = verify_conjecture2(p)
        assert not v.passed and v.relation is None
        assert v.detail.startswith(f"{stage}: ")

    @pytest.mark.parametrize("p, degrees", [(7, (3, 4)), (5, (15, 20))])
    def test_q_of_the_wrong_degree_is_refused(self, p, degrees, monkeypatch):
        # Q*T for Q: eps2*Q_(k,a)(T^(r/p)) can no longer match V's degree
        real = quartic.pq_polynomials
        monkeypatch.setattr(quartic, "pq_polynomials",
                            lambda field, k, a: (lambda P, Q: (P, Q << 1))(*real(field, k, a)))
        with pytest.raises(DerivationError) as info:
            derive_frobenius_relation(p)
        message = "eps2*Q has degree %d, expected %d" % degrees
        assert (info.value.stage, str(info.value)) == ("Q-shape", message)
        if p % 3 == 1:
            v = verify_conjecture1(p, 60)
            assert (v.passed, v.stage, v.detail) == (False, "Q-shape", message)
        else:
            v = verify_conjecture2(p)
            assert (v.passed, v.detail) == (False, f"Q-shape: {message}")

    def test_failed_degree_check_reads_degree(self, monkeypatch):
        # it once passed every other stage and surfaced as stage "residual"
        # with the detail "series residual at T^-inf"
        monkeypatch.setattr(quartic, *STAGE_FAULTS["degree"]())
        out = io.StringIO()
        assert main(["verify", "conj1", "--p", "7"], out=out) == 1
        assert "stage: degree" in out.getvalue() and "residual" not in out.getvalue()
        out = io.StringIO()
        assert main(["verify", "conj2", "--p", "5"], out=out) == 1
        assert "detail: degree: " in out.getvalue()

    def test_prefix_form_is_reported_by_conj1(self, monkeypatch):
        # normalize_to_beta refuses a prefix quotient that is not lambda*T
        real = quartic.derive_frobenius_relation

        def bent(p):
            tr = real(p)
            qs = list(tr.prefix.quotients)
            qs[1] = qs[1] + Polynomial.one(tr.prefix.field)
            return dataclasses.replace(tr, prefix=ContinuedFraction(tr.prefix.field, qs))

        monkeypatch.setattr(quartic, "derive_frobenius_relation", bent)
        v = verify_conjecture1(7, 60)
        assert (v.passed, v.stage) == (False, "prefix-form")
        assert v.detail.startswith("prefix quotient a_2 = ") and v.a == 6

def reference_exponent(cf, window):
    """The window maximum, its argument and the last ratio of
    r_n = deg a_(n+1) / sum_(j<=n) deg a_j, one Fraction per step."""
    degs = [q.degree for q in cf.quotients[: window + 1]]
    best, arg, total, last = Fraction(0), 0, degs[0], Fraction(0)
    for n in range(1, window + 1):
        r = Fraction(degs[n], total)
        if r > best:
            best, arg = r, n
        total += degs[n]
        last = r
    return best, arg, last


class TestApproximationExponent:
    def gen_cf(self, p, n):
        spec = normalize_to_beta(derive_frobenius_relation(p))
        return generate_perfect_expansion(spec, n)

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

    def test_matches_fraction_reference(self, monkeypatch):
        rng = random.Random(8)
        expanded = [expand_root(quartic_state(GF(p)), 300) for p in (5, 11, 13)]
        expanded.append(ContinuedFraction(F7, [
            Polynomial.monomial(F7, 1, rng.choice((1, 1, 2, 5, 40))) for _ in range(200)
        ]))
        # the reference builds the quotients of a twin of each generated expansion
        pairs = [(cf, cf) for cf in expanded]
        pairs += [(self.gen_cf(p, 600), self.gen_cf(p, 600)) for p in (7, 13)]
        expected = [
            (cf, window, reference_exponent(twin, window))
            for cf, twin in pairs
            for window in (1, 2, 17, len(cf) - 1)
        ]

        def refuse(*args):
            raise AssertionError("a generated quotient was built")

        monkeypatch.setattr(Polynomial, "scaled", refuse)
        for cf, window, (best, arg, last) in expected:
            rep = approximation_exponent(cf, window)
            assert (rep.window, rep.nu0_empirical, rep.argmax_index, rep.ratios_tail) == (
                window, best, arg, last
            )

    def test_brute_force_with_zeros_and_ties(self):
        # a few distinct degrees, zero among them, so that most positions
        # repeat an earlier degree and ratios tie
        rng = random.Random(19)
        for _ in range(200):
            size = rng.randrange(2, 40)
            pool = rng.sample(range(5), rng.randrange(1, 4))
            degs = [rng.randrange(1, 4)] + [rng.choice(pool) for _ in range(size - 1)]
            cf = ContinuedFraction(F7, [Polynomial.monomial(F7, 1, d) for d in degs])
            for window in range(1, size):
                ratios = [Fraction(degs[n], sum(degs[:n])) for n in range(1, window + 1)]
                best = max(ratios)
                arg = ratios.index(best) + 1 if best else 0
                rep = approximation_exponent(cf, window)
                assert (rep.nu0_empirical, rep.argmax_index, rep.ratios_tail) == (
                    best, arg, ratios[-1]
                ), (degs, window)

    def test_constant_first_quotient_rejected(self):
        cf = ContinuedFraction(F7, [poly(F7, 3), poly(F7, 0, 1), poly(F7, 0, 1)])
        with pytest.raises(ValueError, match="first partial quotient"):
            approximation_exponent(cf, 2)

    def test_p11_closed_form(self):
        from hqcf.perfect import generate_perfect_p11

        p, i1 = 13, 1
        cf = generate_perfect_p11(GF(p), i1, 2, 4, 30)
        rep = approximation_exponent(cf, 29)
        num = (p - 1) * (p ** (i1 + 1) - 3 * p**i1)
        den = p ** (i1 + 1) - 3 * p**i1 + 2
        assert rep.nu0_closed == Fraction(num, den)
