"""Mutation tests (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer, 1978): one table of broken copies of the
certificate code, each of which its check must refuse.

A row of MUTANTS is keyed by a one-line reason, its pytest id, and holds
(module, function, old, new, check): old must occur exactly once in the
source of module.<function>, a function or class, so a refactor that
rewrites it fails the row; new replaces it.  check(monkeypatch) installs
the row's fault, if any, and returns True on the real code and False on
the mutant, in bounded time on both: a dropped cap is caught by a sentinel
patched into the work it guards.  A mutant runs in a copy of its module's
namespace, so a fault of what it calls goes into function.__globals__.
"""

import dataclasses
import inspect
import json
import random
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

import hqcf.cf as cf_module
import hqcf.polynomials as polynomials
from hqcf import cli, perfect, quartic, rootcf
from hqcf.cf import ContinuedFraction, rational_to_cf
from hqcf.fields import GF
from hqcf.laurent import rational_series
from hqcf.polynomials import Polynomial
from support import (STAGE_FAULTS, all_top_case, boundaries_refused, cap_refuses_at_the_boundary, check_taylor_shift,
                     closed_form_names_the_built_levels, corrupt_v_k, corruption_raises, doubled_t, edited,
                     euclid_oracle, is_the_generic_tower, lead_on_t, poly, power_vectors_are_the_step_chain,
                     predict_as, prop1_case, prop2_case, prop2_disagreements, prop2_sides,
                     quartic_p13_names_a6_not_a7, render_shapes, rescaled, residual_ignores_the_floor_term,
                     residual_reads_exactly_m, sextic_matches_direct)

F5, F7, F13 = GF(5), GF(7), GF(13)
T7, T13 = Polynomial.x(F7), Polynomial.x(F13)


def mutated(module, name, old, new):
    """module.<name>, a function or class, with the text old of its source
    replaced by new."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def raises(exc_type, match, function, *args):
    """Whether function(*args) raises exc_type with match in its message;
    any other outcome, another exception included, is False."""
    try:
        function(*args)
    except Exception as exc:  # noqa: BLE001 - a mutant may fail in any way
        return isinstance(exc, exc_type) and match in str(exc)
    return False


class Uncapped(Exception):
    """Raised by a sentinel that stands in for work a cap must refuse."""


def sentinel(*args):
    raise Uncapped


# -- the printer ---------------------------------------------------------------------


def json_text_is_the_scaled_dump(field):
    """A check: to_json_text(3) is json.dumps of f.scaled(3)'s dict on every
    render shape over field, as TestScaledRender asserts, and raises no
    ValueError.  The shapes are rebuilt with the module's Polynomial, which
    is the mutant's class."""

    def check(mp):
        shapes = [polynomials.Polynomial(field, f.coeffs) for f in render_shapes(field, random.Random(field.p))]
        try:
            return all(f.to_json_text(3) == json.dumps(f.scaled(3).to_json_dict()) for f in shapes)
        except ValueError:  # bytes() of a residue past 255
            return False

    return check


# -- the Prop. 1/2 certificates -------------------------------------------------------

# the prop2 case the faults corrupt: p = 13, (k, i) = (2, 3), 3 blocks of 7
K, I, WIDTH = 2, 3, 7


def prop2_agrees(mp, ks=None, iis=None):
    """verify_prop2's verdicts at p = 13 are Euclid's at every (k, i) of
    ks x iis, every k, i < 13/2 by default."""
    return not prop2_disagreements(F13, euclid_oracle, ks, iis)


def predicted_as(change):
    """A check whose fault makes prop2_predicted_quotients return change(cf)
    at (K, I), where verify_prop2 must then agree with Euclid."""

    def check(mp):
        predict_as(mp, change, K, I)
        return prop2_agrees(mp, [K], [I])

    return check


def v_k_corrupted(mp):
    """The blocks at K close on corrupted v_(j,K) (corrupt_v_k): only
    Prop. 1's verdict at K refuses them."""
    corrupt_v_k(mp, K)
    return prop2_agrees(mp, [K], [I])


def negated_theta_i(mp):
    """_certify_blocks on the prediction built from an _AtI whose theta_I is
    negated agrees with Euclid: t -> -t and every c_j -> -c_j keep R1, R2, R4
    and both block equations, and break R3 alone."""
    sides = prop2_sides(F13, K, I, theta_i=-perfect.family_constants(F13, I).theta % 13)
    predicted = perfect.prop2_predicted_quotients(F13, *sides)
    num, den, _, k, theta = prop2_case(F13, K, I)
    return perfect._certify_blocks(predicted, *sides) == euclid_oracle(num, den, predicted, k, theta)


def split_refused(mp):
    """_certify on Prop. 1's case at (13, 4) with b_1 split as [b_1 - T, 0, T],
    which has the same matrix, agrees with Euclid: only the degree guard on
    b_2..b_n tells them apart."""
    num, den, predicted, k, theta = prop1_case(F13, 4)
    qs = list(predicted.quotients)
    split = ContinuedFraction(F13, [qs[0] - T13, Polynomial.zero(F13), T13, *qs[1:]])
    return perfect._certify(num, den, split, k, theta, split.matrix()) == euclid_oracle(num, den, split, k, theta)


# -- the A-tower and the generator ----------------------------------------------------


def tower_cap_refuses(mp):
    """a_sequence(GF(1009), 1, 3), whose A_3 has degree 1,025,205,547, is
    refused before any level is divided."""
    mp.setitem(perfect.a_sequence.__globals__, "_frobenius_divmod_pk", sentinel)
    return raises(ValueError, "past degree", perfect.a_sequence, GF(1009), 1, 3)


def generator_cap_refuses(mp):
    """The type (7, 3, 2) CI spec at n = 10^9, whose top level A_(13,2) is
    past the cap, is refused before the generator makes an array."""
    mp.setitem(perfect.generate_perfect_expansion.__globals__, "np", SimpleNamespace(zeros=sentinel, int64=np.int64))
    return raises(ValueError, "index 13 asks for A_(13,k)", perfect.generate_perfect_expansion,
                  perfect.ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 10**9)


def tower_remainder_checked(mp):
    """A remainder of A_(1,4)^p by P_4 off by 1 raises ArithmeticError."""
    real = perfect._frobenius_divmod_pk

    def off_by_one(field, a, k):
        q, r = real(field, a, k)
        return q, r + Polynomial.one(field)

    mp.setitem(perfect.a_sequence.__globals__, "_frobenius_divmod_pk", off_by_one)
    return raises(ArithmeticError, "fails at k = 4", perfect.a_sequence, F13, 4, 2)


def zero_v_refused(mp):
    """With v_2 read as 0 the generator raises its internal contradiction at
    f(1) + 2 = 9, as test_zero_v_is_an_internal_contradiction asserts."""
    spec = perfect.ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))
    theta, v = perfect.family_constants(F13, 4)
    zeroed = perfect.FamilyConstants(theta, v[:1] + (0,) + v[2:])
    mp.setitem(perfect.generate_perfect_expansion.__globals__, "family_constants", lambda field, k: zeroed)
    return raises(ArithmeticError, "zero lambda/delta generated at index 9", perfect.generate_perfect_expansion,
                  spec, 300)


def generated_tower_is_generic(mp):
    """The tower of the type (7, 3, 2) CI spec to n = 3000, A_0 .. A_5 with
    two divisions by T^2 - 1 per level, is the generic division's, as
    test_tower_and_quotients asserts."""
    cf = perfect.generate_perfect_expansion(perfect.ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6)), 3000)
    return is_the_generic_tower(cf.tower, F7, 2)


def generated_satisfies_its_relation(mp):
    """The generated expansion of the type (7, 3, 2) CI spec satisfies the
    spec's relation as a series identity to T^-40; its eps1 = 3 is not its
    own inverse."""
    spec = perfect.ExpansionSpec(F7, 3, 2, 3, 5, (2, 6, 6))
    try:
        cf = perfect.generate_perfect_expansion(spec, 80)
    except ArithmeticError:
        return False
    return perfect.relation_residual(cf, spec.relation(), 40) == float("-inf")


# -- the relation: its derivation and the engine it drives ----------------------------


def quartic_matches_direct(p=13, n=120):
    """The engine's first n quotients of the quartic's alpha at p are expand_root's."""
    trace = quartic.derive_frobenius_relation(p)
    try:
        engine = perfect.expand_from_relation(trace.prefix, trace.relation, n)
        return engine == rootcf.expand_root(quartic.quartic_state(GF(p)), n)
    except ArithmeticError:
        return False


def residual_agrees_at_5():
    """The conj2 relation at p = 5 (r = 25) holds as a series identity on alpha."""
    cf = rootcf.expand_root(quartic.quartic_state(F5), 30)
    return perfect.relation_residual(cf, quartic.verify_conjecture2(5).relation, 100) == float("-inf")


def conj2_holds_at_5():
    """verify_conjecture2(5) passes; a failure must be the Q-shape stage's."""
    v = quartic.verify_conjecture2(5)
    assert v.passed or v.stage == "Q-shape", v.detail
    return v.passed


def refused_at(stage, fault, p, name="derive_frobenius_relation"):
    """A check: quartic.<name>(p) fails at stage, "" being a pass, with
    fault() = (a global it reads, its replacement) patched into the
    namespace it runs in."""

    def check(mp):
        function = getattr(quartic, name)
        mp.setitem(function.__globals__, *fault())
        try:
            return function(p).stage == stage
        except quartic.DerivationError as exc:
            return exc.stage == stage

    return check


def altered_a5():
    """(expand_root, one whose expansion of the quartic's root has a_5 + 1);
    the derivation's Euclid, on a state of degree 1 in X, is left as it is."""
    real = quartic.expand_root

    def altered(state, n):
        cf = real(state, n)
        if len(state.coeffs) == 2:
            return cf
        qs = list(cf.quotients)
        qs[4] = qs[4] + Polynomial.one(cf.field)
        return ContinuedFraction(cf.field, qs)

    return "expand_root", altered


def p_plus_one():
    """(power_p_family, one that returns (T^2 + a)^k + 1): U = eps1 P is then
    not eps1 times the family at the degree and a read off U."""
    real = quartic.power_p_family
    return "power_p_family", lambda field, k, a: real(field, k, a) + Polynomial.one(field)


def prefix_refuses_l_10_at_11(mp):
    """At p = 11 (l = 48) the Euclid of a_(r+1)/a_r does not end after 10
    quotients, so l = 10 fails at the prefix stage."""
    return quartic.verify_conjecture2(11, l_override=10).stage == "prefix"


def prefix_form_checked(mp):
    """normalize_to_beta refuses the p = 7 derivation with a_2 + 1 as a_2."""
    tr = quartic.derive_frobenius_relation(7)
    qs = list(tr.prefix.quotients)
    qs[1] = qs[1] + Polynomial.one(F7)
    bent = dataclasses.replace(tr, prefix=ContinuedFraction(F7, qs))
    return raises(ValueError, "is not lambda*T", quartic.normalize_to_beta, bent)


# -- the root expansion and the continuant kernel -------------------------------------


def shift_agrees(terms):
    """The Taylor shift of all_top_case(terms) is galoistools'."""
    try:
        check_taylor_shift(*all_top_case(terms))
    except AssertionError:
        return False
    return True


def shift_refuses_past_the_guard(mp):
    """With the int64 guard failing, a shift that does not fit in one
    reduction per row (p = 999983) raises OverflowError."""
    mp.setitem(rootcf._taylor_shift.__globals__, "_fits_int64", lambda modulus, terms: False)
    arrays = [np.array(c, dtype=np.int64) for c in ([1], [1], [0, 1])]
    return raises(OverflowError, "overflows int64", rootcf._taylor_shift, arrays, (0, 0, 5), 999983)


def top_quotient_is_the_quotient(mp):
    """_top_quotient gives a // b on 60 seeded pairs over F_13 with
    deg a - deg b < deg b, where it drops s > 0 low coefficients."""
    rng = random.Random("top quotient")
    for _ in range(60):
        db = rng.randint(1, 12)
        d = rng.randint(0, db - 1)
        a, b = ([rng.randrange(13) for _ in range(n)] + [rng.randrange(1, 13)] for n in (db + d, db))
        got = rootcf._top_quotient(F13, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        if got != Polynomial(F13, a) // Polynomial(F13, b):
            return False
    return True


def series_prefix_is_euclids(mp):
    """cf_from_series keeps, for every floor from -1 to -29, only quotients
    of x/y's own expansion, x and y seeded over F_13 of degrees 14 and 12.
    (The quartic's alpha, odd, is known one term past every even floor, so
    its boundary quotients come out right either way.)"""
    rng = random.Random("series floor")
    y, x = (Polynomial(F13, [rng.randrange(13) for _ in range(n)] + [1]) for n in (12, 14))
    euclid = rational_to_cf(x, y).quotients
    for floor in range(-1, -30, -1):
        got = rootcf.cf_from_series(rational_series(x, y, floor)).quotients
        if got != euclid[: len(got)]:
            return False
    return True


def fused_step_is_the_sum(mp):
    """_mul_add(a, x, x') is a x + x', canonical, where x' reaches the top of
    a x: -1 (T + 1) + T cancels it."""
    cases = [(poly(F13, 12), poly(F13, 1, 1), T13), (T13, T13, poly(F13, 0, 0, 3))]
    return all(polynomials._mul_add(a, x, xp) == a * x + xp for a, x, xp in cases)


def joins_are_checked(mp):
    """matrix_product joins two halves of an expansion to its matrix, and
    refuses a right half whose x' is doubled, which breaks the determinant."""
    cf = ContinuedFraction(F13, [T13.scaled(c) for c in range(1, 9)])
    left, (x, xp, y, yp) = cf.matrix(0, 4), cf.matrix(4, 8)
    return (cf_module.matrix_product(left, (x, xp, y, yp), 0, 8) == cf.matrix()
            and raises(ArithmeticError, "determinant broken", cf_module.matrix_product,
                       left, (x, xp.scaled(2), y, yp), 0, 8))


# a reason, which is also the pytest id: (module, function or class, a snippet
# of its source that occurs once, its replacement, check(monkeypatch))
MUTANTS = {
    # -- the printer
    "on-demand digit ignores c": (polynomials, "_decimal_chunks", "a *= c", "pass", json_text_is_the_scaled_dump(F13)),
    "leading zero printed": (polynomials, "_decimal_chunks", "digit *= a >= 10 ** (width - 1 - j)", "pass",
                             json_text_is_the_scaled_dump(F13)),
    "one-byte read at p = 257": (polynomials, "_decimal_chunks", "np.uint8) if p <= 256", "np.uint8) if p <= 257",
                                 json_text_is_the_scaled_dump(GF(257))),
    "last chunk keeps its separator": (polynomials, "Polynomial", "texts[-1] = texts[-1][:-2]", "pass",
                                       json_text_is_the_scaled_dump(F13)),
    "every level of a named degree named": (cli, "_print_expansion", "level.monic() == a", "True",
                                            lambda mp: quartic_p13_names_a6_not_a7()),
    "< in the closed form": (cli, "_annotation_top", "a_degree(p, k, top + 1) <= max_deg",
                             "a_degree(p, k, top + 1) < max_deg",
                             lambda mp: closed_form_names_the_built_levels(7)),
    # -- Prop. 2's block certificate.  G_(j-1) = -c_(j-1) sigma x' enters
    # block j's equation as t^2 c_(j-1).  R2 and R4 have no row: each follows
    # from the other three (_AtI)
    "G_j sign": (perfect, "_certify_blocks", "(t * t % p * c_prev", "(-t * t % p * c_prev", prop2_agrees),
    "G_j with 1/c_j": (perfect, "_certify_blocks", "np.concatenate(([0], c[:-1]))",
                       "np.array([0] + [predicted.field.inv(int(x)) for x in c[:-1]])",
                       prop2_agrees),
    "inner rescaling": (perfect, "_certify_blocks", "inner[:, ::2], inner[:, 1::2]",
                        "inner[:, 1::2], inner[:, ::2]", prop2_agrees),
    "block boundary": (perfect, "_certify_blocks", "blocks[:, 0], blocks[:, 1:]",
                       "blocks[:, 0], blocks[:, :-1]", prop2_agrees),
    "closing identity dropped": (perfect, "_certify_blocks", "or not lambdas[-1] == v_k[-1] == t * c[-1] % p",
                                 "", predicted_as(rescaled(-1, 2))),
    "lead check dropped": (perfect, "_certify_blocks", "or (leads != v_lead).any()", "",
                           predicted_as(rescaled(WIDTH, 2))),
    "R3 dropped": (perfect, "_AtI",
                   "and (A * x - y.scaled(t)).scaled(sigma) == Polynomial.monomial(field, 1, p)", "",
                   negated_theta_i),
    "theta not squared": (perfect, "_certify", "-4 * k * k * theta * theta", "-4 * k * k * theta", prop2_agrees),
    "index shape dropped": (perfect, "_certify_blocks", "or predicted.indices != shape ", "",
                            predicted_as(edited(lead_on_t))),
    "tower[0] == T dropped": (perfect, "_certify_blocks", "or predicted.tower != at_i.tower", "",
                              predicted_as(edited(doubled_t))),
    "Prop. 1's verdict at k ignored": (perfect, "_certify_blocks", " and at_k.cf_matches, at_k.reversal_holds",
                                       ", True", v_k_corrupted),
    "degree guard on b_2..b_n dropped": (perfect, "_certify", "all(d >= 1 for d in predicted.degrees()[1:])",
                                         "True", split_refused),
    # -- the A-tower and the generator
    "A-tower cap dropped": (perfect, "a_sequence", "_check_a_index(p, k, count)", "pass", tower_cap_refuses),
    "generator's cap dropped": (perfect, "generate_perfect_expansion", "_check_a_index(p, k, top)", "pass",
                                generator_cap_refuses),
    "A-tower remainder unchecked": (perfect, "a_sequence", "if rem != Q.scaled(", "if False and rem != Q.scaled(",
                                    tower_remainder_checked),
    "block fill's u and 1/u swapped": (perfect, "generate_perfect_expansion", "w = u_inv if i % 2 else u",
                                       "w = u if i % 2 else u_inv", generated_satisfies_its_relation),
    "block fill's eps1 parity flipped": (perfect, "generate_perfect_expansion", "col0[(m_lo + j) % 2]",
                                         "col0[(m_lo + j + 1) % 2]", generated_satisfies_its_relation),
    "block fill's zero test dropped": (perfect, "generate_perfect_expansion", "if zeros.size:", "if False:",
                                       zero_v_refused),
    # only the remainders reduced: the quotient carried to the next level
    # (and built into the level's tuple) keeps its unreduced sums
    "carried tower level left unreduced": (perfect, "_frobenius_divmod_pk", "c %= p", "c[:2] %= p",
                                           generated_tower_is_generic),
    # -- the relation engine.  At every state it reaches, deg D < deg C + r
    # follows from deg det < 2 deg C + r and the determinant, so only a map
    # built by hand tells the first inequality's <= apart.  The three twists
    # by r are told from twists by p only where r = p^2, so their checks run
    # at p = 5
    "wrong eps2": (perfect, "expand_from_relation", "-rel.Q.scaled(rel.eps2)", "-rel.Q.scaled(rel.eps2 + 1)",
                   lambda mp: quartic_matches_direct()),
    "wrong P": (perfect, "expand_from_relation", "det = rel.P.scaled(rel.eps1)",
                "det = (rel.P + rel.Q).scaled(rel.eps1)", lambda mp: quartic_matches_direct()),
    "<= in deg D < deg C + r": (perfect, "_emission_is_exact", "D.degree < C.degree + r",
                                "D.degree <= C.degree + r", lambda mp: boundaries_refused()),
    "<= in deg det < 2 deg C + r": (perfect, "_emission_is_exact", "deg_det < 2 * C.degree + r",
                                    "deg_det <= 2 * C.degree + r", lambda mp: sextic_matches_direct()),
    "determinant check dropped": (perfect, "expand_from_relation", "if A * D - B * C != det:", "if False:",
                                  lambda mp: corruption_raises()),
    "cap on deg a_j, not deg a_j(T^r)": (perfect, "expand_from_relation", "b.degree * rel.r > MAX_A_DEGREE",
                                         "b.degree > MAX_A_DEGREE", lambda mp: cap_refuses_at_the_boundary()),
    ">= in the cap": (perfect, "expand_from_relation", "b.degree * rel.r > MAX_A_DEGREE",
                      "b.degree * rel.r >= MAX_A_DEGREE", lambda mp: cap_refuses_at_the_boundary()),
    "twist by p, not r": (perfect, "expand_from_relation", "b.pow_frobenius(rel.r)", "b.pow_frobenius()",
                          lambda mp: quartic_matches_direct(5)),
    "residual twists alpha by p": (perfect, "relation_residual", "x.pow_frobenius(rel.r), y.pow_frobenius(rel.r)",
                                   "x.pow_frobenius(cf.field.p), y.pow_frobenius(cf.field.p)",
                                   lambda mp: residual_agrees_at_5()),
    "residual twists x alone by p": (perfect, "relation_residual", "x.pow_frobenius(rel.r)",
                                     "x.pow_frobenius(cf.field.p)", lambda mp: residual_agrees_at_5()),
    # a difference of the convergents at T^(-precision - 1) is below the
    # checked range, where the whole expansion's sides may agree
    ">= at the comparison floor": (perfect, "relation_residual", "d > floor_cmp", "d >= floor_cmp",
                                   lambda mp: residual_ignores_the_floor_term()),
    # the residual's prefixes: one quotient short of m cannot certify the
    # floors, and one past it certifies them with a quotient it need not read;
    # at precision 43 alpha's floor 43 // 13 + 2 = 5 is odd, so T^-4 is met
    # one quotient earlier
    "residual cut one quotient early": (perfect, "_certifying_prefix", "enumerate(totals, start + 1)",
                                        "enumerate(totals, start)", lambda mp: residual_reads_exactly_m()),
    "residual reads one quotient past the tail floor": (perfect, "_certifying_prefix", "2 * d >= -floor",
                                                        "2 * d > -floor", lambda mp: residual_reads_exactly_m()),
    "alpha's floor one term short": (perfect, "relation_residual", "precision // max(rel.r, 1) + 2",
                                     "precision // max(rel.r, 1) + 1", lambda mp: residual_reads_exactly_m()),
    # the power basis on int64 arrays, against the _alpha_step chain
    "power basis leaves c + 12a unreduced": (quartic, "power_vectors", "c[: n + 2] %= p", "pass",
                                        lambda mp: all(map(power_vectors_are_the_step_chain, (5, 7, 13, 31)))),
    "power basis steps by +12T": (quartic, "power_vectors", "b[1 : n + 2] -= a12[:-1]", "b[1 : n + 2] += a12[:-1]",
                                  lambda mp: all(map(power_vectors_are_the_step_chain, (5, 7, 13, 31)))),
    # -- the derivation: each stage is reached by a fault that only it refuses
    "derivation twists Q by p^e": (quartic, "derive_frobenius_relation", ".pow_frobenius(p ** (e - 1))",
                                   ".pow_frobenius(p**e)", lambda mp: conj2_holds_at_5()),
    "prefix asks for l, not l + 1, quotients": (quartic, "derive_frobenius_relation", "v0.a)), l + 1)",
                                                "v0.a)), l)", prefix_refuses_l_10_at_11),
    "prefix length check dropped": (quartic, "derive_frobenius_relation", "if len(prefix) != l:", "if False:",
                                    prefix_refuses_l_10_at_11),
    "b-compat dropped": (quartic, "derive_frobenius_relation", "if yl * v1.b != xl * v0.b:", "if False:",
                         refused_at("b-compat", STAGE_FAULTS["b-compat"], 5)),
    "degree stage dropped": (quartic, "derive_frobenius_relation",
                             "if (yl * alpha_polynomial_part(field).pow_frobenius(p**e) + c).degree <= top:",
                             "if False:", refused_at("degree", STAGE_FAULTS["degree"], 7)),
    # [alpha](T^p) is [alpha](T^r) only where r = p: at p = 5, r = 25, it
    # falls below deg y_l + deg U = deg y_l + 16
    "degree stage twists [alpha] by p": (quartic, "derive_frobenius_relation", ".pow_frobenius(p**e) + c",
                                         ".pow_frobenius(p) + c", lambda mp: quartic.verify_conjecture2(5).passed),
    "W-shape's form check dropped": (
        quartic, "derive_frobenius_relation",
        'raise DerivationError("W-shape", "eps1*P is not of the form eps1*(T^2+a)^k")', "pass",
        refused_at("W-shape", p_plus_one, 7)),
    "Q-shape's proportion check dropped": (
        quartic, "derive_frobenius_relation",
        'raise DerivationError("Q-shape", "residual part is not proportional to Q_(k,a)")', "pass",
        refused_at("Q-shape", STAGE_FAULTS["Q-shape"], 7)),
    "(-1)^l flipped": (quartic, "derive_frobenius_relation", "sign = 1 if l % 2 == 0 else -1",
                       "sign = -1 if l % 2 == 0 else 1", lambda mp: quartic_matches_direct(7)),
    "conj2 comparison dropped": (quartic, "verify_conjecture2", "if bad:", "if False:",
                                 refused_at("comparison", altered_a5, 5, "verify_conjecture2")),
    "beta's odd-power raise dropped": (quartic, "beta_quotient_to_alpha", "if c and m % 2:", "if False:",
                                       lambda mp: raises(ValueError, "odd power of v", quartic.beta_quotient_to_alpha,
                                                         F7, poly(F7, 0, 0, 1), 1, 3)),
    "lambda*T check ignores the constant term": (quartic, "normalize_to_beta",
                                                 "if q.degree != 1 or q.constant_coefficient():",
                                                 "if q.degree != 1:", prefix_form_checked),
    # -- the root expansion
    "dominance allows a tie": (rootcf, "dominance_holds", "d < lead", "d <= lead",
                               lambda mp: raises(ValueError, "dominance condition", rootcf.expand_root,
                                                 rootcf.RootState([T13, T13, Polynomial.one(F13)]), 1)),
    "_top_quotient drops one coefficient too many": (rootcf, "_top_quotient", "s = max(0, min(db, 2 * db - da))",
                                                     "s = max(0, min(db, 2 * db - da + 1))",
                                                     top_quotient_is_the_quotient),
    "series keeps the quotient at the 2 deg y boundary": (rootcf, "cf_from_series", "if 2 * deg_y >= budget:",
                                                          "if 2 * deg_y > budget:", series_prefix_is_euclids),
    # the Taylor shift, each checked at the sum bound by the quotient length
    # whose shift then disagrees with galoistools
    "bound's exponent n - 1": (rootcf, "_taylor_shift", "_sums_fit_int64(p, len(q), n)",
                               "_sums_fit_int64(p, len(q), n - 1)", lambda mp: shift_agrees(3)),
    "per-row reduction dropped": (rootcf, "_taylor_shift", "t[:n] = [_reduced(s, p) for s in t[:n]]", "pass",
                                  lambda mp: shift_agrees(2)),
    "cached q * t_n updated in place": (rootcf, "_taylor_shift", "s = top.copy()", "s = top",
                                        lambda mp: shift_agrees(2)),
    "int64 refusal dropped": (rootcf, "_taylor_shift", "if not once and not _fits_int64(p, len(q)):", "if False:",
                              shift_refuses_past_the_guard),
    # -- the continuant kernel
    "fused leaf step where x' reaches the top": (polynomials, "_mul_add", "len(ps) < len(xs) + e",
                                                 "len(ps) <= len(xs) + e", fused_step_is_the_sum),
    "determinant checked at the leaves only": (cf_module, "matrix_product", "return _checked(",
                                               "return (lambda x, xp, y, yp, lo, hi: (x, xp, y, yp))(",
                                               joins_are_checked),
    "symbolic tower over another field": (cf_module, "ContinuedFraction", "if any(a.field != field for a in tower):",
                                          "if False:",
                                          lambda mp: raises(ValueError, "must be over GF(7)",
                                                            cf_module.ContinuedFraction.symbolic,
                                                            F7, [T13], [1, 12], [0, 0])),
    "symbolic index out of range": (cf_module, "ContinuedFraction",
                                    "if indices and not 0 <= min(indices) <= max(indices) < len(tower):",
                                    "if False:",
                                    lambda mp: raises(ValueError, "need 0 <= index < 1",
                                                      cf_module.ContinuedFraction.symbolic, F7, [T7], [1, 2], [0, -1])),
}


@pytest.mark.parametrize("reason", list(MUTANTS))
def test_mutant_is_killed(reason, monkeypatch):
    module, function, old, new, check = MUTANTS[reason]
    mutant = mutated(module, function, old, new)
    with pytest.MonkeyPatch.context() as mp:
        assert check(mp)
    monkeypatch.setattr(module, function, mutant)
    with pytest.MonkeyPatch.context() as mp:
        assert not check(mp)
