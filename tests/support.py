"""What the test modules share: builders, oracles, and the checks that
ordinary tests and the mutant table (test_mutants.py) both call.  A check
calls the code under test through its module (perfect.verify_prop2), so
that a mutant installed there is the code it runs."""

import io

import numpy as np
import pytest

from hqcf import cli, perfect, polynomials, quartic, rootcf
import hqcf.cf as cf_module
from hqcf.cf import ContinuedFraction, matrix_product, rational_to_cf, running_scalar_cf
from hqcf.fields import GF
from hqcf.laurent import Laurent, rational_series
from hqcf.polynomials import Polynomial

F5, F13 = GF(5), GF(13)


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


def run(argv):
    """(exit code, stdout) of the CLI on argv."""
    out = io.StringIO()
    return cli.main(argv, out=out), out.getvalue()


# -- the printer ------------------------------------------------------------------

# (p, coeffs, message): coefficient lists that Polynomial.from_json_dict
# refuses, as no renderer writes them
NON_CANONICAL = [
    (5, [1.0, 2], "coefficient 0 is 1.0, not an int in [0, 5)"),
    (5, [-1, True], "coefficient 0 is -1, not an int in [0, 5)"),
    (5, [1, True], "coefficient 1 is True, not an int in [0, 5)"),
    (5, [7, 5], "coefficient 0 is 7, not an int in [0, 5)"),
    (13, [0, 13], "coefficient 1 is 13, not an int in [0, 13)"),
    (5, [1, 2, 0], "coefficient 2 is a trailing zero"),
]
NON_CANONICAL_IDS = ["float", "negative", "bool", "past p", "p itself", "trailing zero"]


def render_shapes(field, rng):
    """The polynomials the scaled renderers are compared on: zero, two
    constants, T, coefficient-1 terms, lone and adjacent monomials, two
    random ones below degree 41, one just below to_json_text's numpy
    cutoff and one at it, a sparse one of degree 3000 with a nonzero
    constant term, and a sparse one longer than p with none.  The two at
    the cutoff hold both ends of every decimal width below p and p - 1 on
    top.  The last is a multiple of 2^16 plus one long, so that
    to_json_text's last chunk holds one digit."""
    p = field.p
    u = [rng.randrange(1, p) for _ in range(9)]
    sparse = [0] * 3001
    for n, c in zip((0, 1, 2, 1000, 3000), u):
        sparse[n] = c
    shapes = [
        Polynomial.zero(field),
        poly(field, 1),
        poly(field, u[5]),
        poly(field, 0, 1),  # T
        poly(field, 1, 1, 0, 1),  # coefficient-1 terms and the constant 1
        poly(field, 0, u[6], u[7]),  # a T^1 term next to T^2
        poly(field, 0, 0, 0, u[8]),  # a lone monomial, no constant
        poly(field, *sparse),  # sparse, high degree
    ]
    for _ in range(2):
        degree = max(rng.randrange(-1, 41), 0)
        shapes.append(Polynomial(field, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]))
    edges = [0, 1] + [b for k in range(1, len(str(p))) for b in (10**k - 1, 10**k)]
    for n in (polynomials._JSON_CUTOFF - 1, polynomials._JSON_CUTOFF):
        shapes.append(Polynomial(field, edges + [rng.randrange(p) for _ in range(n - len(edges) - 1)] + [p - 1]))
    long = [0] * (((p >> 16) + 1 << 16) + 1)
    for n in (1, (1 << 16) - 1, 1 << 16, len(long) - 1):
        long[n] = rng.randrange(1, p)
    return shapes + [Polynomial(field, long)]


# -- the printer's annotations ----------------------------------------------------


def reference_tower(field, k, max_degree, max_levels=6):
    """A_0, A_1, ... by A_(i+1) = A_i.pow_frobenius() // P_k, the generic
    division, while the next degree stays below max_degree."""
    P, _ = perfect.pq_polynomials(field, k)
    seq = [Polynomial.x(field)]
    while len(seq) <= max_levels and seq[-1].degree * field.p - 2 * k <= max_degree:
        seq.append(seq[-1].pow_frobenius() // P)
    return seq


def is_the_generic_tower(tower, field, k):
    """tower is A_0 .. A_top, top = len(tower) - 1, as reference_tower
    divides them."""
    top = len(tower) - 1
    return list(tower) == reference_tower(field, k, perfect.a_degree(field.p, k, top), top)


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


def closed_form_names_the_built_levels(p):
    """_annotation_top and one a_sequence call give built_annotation_levels
    for every 1 <= k < p/2, 2k = p - 1 included, with max_deg on both sides
    of each level's degree.  The tower reaches one level past max_deg."""
    F = GF(p)
    for k in range(1, (p - 1) // 2 + 1):
        tower = reference_tower(F, k, 400 * p)
        cuts = {a.degree + e for a in tower if a.degree <= 400 for e in (-1, 0, 1)}
        for max_deg in sorted(cuts | {0, 2, 100}):
            want = built_annotation_levels(tower, max_deg)
            top = cli._annotation_top(p, k, max_deg)
            if top != len(want) - 1 or perfect.a_sequence(F, k, top) != want:
                return False
    return True


def quartic_p13_names_a6_not_a7():
    """expand --quartic --p 13 names a_6 = 5T as 5*A[0,k], and not a_7 =
    T^5 + 7T^3 + 3T, whose degree is deg A_(1,4) = 5."""
    out = io.StringIO()
    assert cli.main(["expand", "--quartic", "--p", "13", "--n", "7"], out) == 0
    return out.getvalue().splitlines()[5:] == ["a_6 = 5*T  [= 5*A[0,k]]", "a_7 = T^5 + 7*T^3 + 3*T"]


# -- the Prop. 1/2 certificates -----------------------------------------------------


def prop1_case(F, k):
    """(num, den, predicted, k, theta) of the Prop. 1 certificate: P_k / Q_k,
    predicted as the list [v_1 T, ..., v_2k T]."""
    theta, v = perfect.family_constants(F, k)
    P, Q = perfect.pq_polynomials(F, k)
    return P, Q, ContinuedFraction(F, [Polynomial.x(F).scaled(c) for c in v]), k, theta


def prop2_sides(F, k, i, theta=None, theta_i=None):
    """The values verify_prop2 shares between its case (k, i) and the others
    at k (_AtK) and at i (_AtI), from perfect.family_constants; theta and
    theta_i, if given, replace theta_k and theta_i."""

    def prop1(j, theta=None):
        family = perfect.family_constants(F, j)
        family = family if theta is None else family._replace(theta=theta)
        return family, perfect._prop1_predicted(F, family.v).matrix()

    return perfect._AtK(F, *prop1(k, theta)), perfect._AtI(F, *prop1(i, theta_i))


def prop2_predicted(F, k, i):
    """Prop. 2's predicted expansion at (k, i)."""
    return perfect.prop2_predicted_quotients(F, *prop2_sides(F, k, i))


def prop2_case(F, k, i):
    """(num, den, predicted, k, theta) of the Prop. 2 certificate:
    P_(kp-i) / Q_k^p."""
    Qkp = perfect.pq_polynomials(F, k)[1].pow_frobenius()
    theta = perfect.family_constants(F, k).theta
    return perfect.power_p_family(F, k * F.p - i), Qkp, prop2_predicted(F, k, i), k, theta


def euclid_oracle(num, den, predicted, k, theta):
    """(cf_matches, reversal_holds) the long way: the Euclidean expansion of
    num/den, and a second continuant tree for the reversed quotients."""
    quotients = list(predicted.quotients)
    cf_matches = list(rational_to_cf(num, den).quotients) == quotients
    xr, yr = ContinuedFraction(num.field, quotients[::-1]).value()
    return cf_matches, num * yr == (xr * den).scaled(-4 * k * k * theta * theta)


def prop2_disagreements(F, oracle, ks=None, iis=None):
    """The (k, i) of ks x iis (every k, i < p/2 by default) where
    verify_prop2's verdicts differ from oracle's on P_(kp-i) / Q_k^p built
    in full."""
    half = range(1, (F.p - 1) // 2 + 1)
    return [(r.k, r.i) for r in perfect.verify_prop2(F, ks or half, iis or half)
            if r.defined and (r.cf_matches, r.reversal_holds) != oracle(*prop2_case(F, r.k, r.i))]


def predict_as(monkeypatch, change, K, I):
    """Make prop2_predicted_quotients return change(cf) at (K, I)."""
    real = perfect.prop2_predicted_quotients

    def corrupted(field, at_k, at_i):
        cf = real(field, at_k, at_i)
        return change(cf) if (at_k.k, at_i.i) == (K, I) else cf

    monkeypatch.setattr(perfect, "prop2_predicted_quotients", corrupted)


def edited(edit):
    """A corruption of a symbolic expansion: edit(tower, lambdas, indices)
    changes copies of its three sequences in place."""

    def change(cf):
        tower, lambdas, indices = list(cf.tower), list(cf.lambdas), list(cf.indices)
        edit(tower, lambdas, indices)
        return ContinuedFraction.symbolic(cf.field, tower, lambdas, indices)

    return change


def rescaled(j, c):
    """The j-th lambda times c."""

    def edit(tower, lambdas, indices):
        lambdas[j] = lambdas[j] * c % tower[0].field.p

    return edited(edit)


def lead_on_t(tower, lambdas, indices):
    """The lead of the second block put on A_0 = T: lam_8 T in place of lam_8 A."""
    indices[7] = 0


def doubled_t(tower, lambdas, indices):
    """Every inner quotient doubled through the tower's A_0 = 2T."""
    tower[0] = tower[0].scaled(2)


def corrupt_v_k(monkeypatch, K):
    """Make perfect.family_constants give v_(2,K) + 1 at K, and v_(2K,K)
    re-solved so that [v_(2K,K), ..., v_(1,K)] = 0 still: the blocks at K
    close on it (a lone corrupted v_(j,K) breaks the closing identity)."""
    real = perfect.family_constants

    def corrupted(field, k):
        family = real(field, k)
        if k != K:
            return family
        v = list(family.v)
        v[1] = (v[1] + 1) % field.p
        v[-1] = -field.inv(running_scalar_cf(field, v[:-1])[-1]) % field.p
        return family._replace(v=tuple(v))

    monkeypatch.setattr(perfect, "family_constants", corrupted)


# -- the relation: its derivation and the engine it drives ------------------------


def sextic_case():
    """(prefix, relation, root state) of an alpha = [a_1, a_2, alpha_3] over
    F_5 with alpha^5 = P alpha_3 (eps1 = 1, Q = 0) and deg P = r = 5, so that
    deg P < 2 deg C + r decides emissions.  Removing alpha_3 gives
    y_2 X^6 - x_2 X^5 + P X - P a_1 = 0 (x_2 = a_2 a_1 + 1, y_2 = a_2), whose
    X^5 coefficient dominates: expand_root expands it directly."""
    a1, a2, P = poly(F5, 1, 2, 1), poly(F5, 1, 4, 4, 2, 4, 2, 4), poly(F5, 2, 1, 0, 1, 0, 1)
    zero = Polynomial.zero(F5)
    state = rootcf.RootState([-(P * a1), P, zero, zero, zero, -(a2 * a1 + Polynomial.one(F5)), a2])
    rel = perfect.FrobeniusRelation(2, 1, 1, P, zero, 5)
    return ContinuedFraction(F5, [a1, a2]), rel, state


def sextic_matches_direct(n=30):
    prefix, rel, state = sextic_case()
    try:
        return perfect.expand_from_relation(prefix, rel, n) == rootcf.expand_root(state, n)
    except ArithmeticError:
        return False


# maps (C, D, r, deg det) at the boundary of either emission inequality: for
# M = [[1, 1 - T^5], [1, -T^5]] (det -1), M(x) = 1 + 1/(x - T^5) is 1 + T at
# x = T^5 + 1/T, and for M = [[0, T^5], [1, 0]] (det -T^5), M(T^5) = 1; neither
# has the integral part A div C (1 and 0)
BOUNDARY_MAPS = [
    (Polynomial.one(F5), -poly(F5, 0, 0, 0, 0, 0, 1), 5, 0),
    (Polynomial.one(F5), Polynomial.zero(F5), 5, 5),
]


def boundaries_refused():
    return not any(perfect._emission_is_exact(*m) for m in BOUNDARY_MAPS)


def cap_refuses_at_the_boundary():
    """At p = 5 (r = 25) the engine reads a_14(T^25), of degree 25 * 41 = 1025,
    by n = 130: a cap of 1024 refuses it before any product, and 1025 does not."""
    trace = quartic.derive_frobenius_relation(5)
    engine = perfect.expand_from_relation
    refused = []
    for cap in (1024, 1025):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(engine.__globals__, "MAX_A_DEGREE", cap)
            try:
                engine(trace.prefix, trace.relation, 130)
                refused.append(None)
            except ValueError as exc:
                refused.append(str(exc))
    return refused == ["a_14(T^25) has degree 1025, past 1024", None]


def corruption_raises():
    """A remainder corrupted in the middle of a run, which changes det M,
    raises the determinant check's ArithmeticError."""
    trace = quartic.derive_frobenius_relation(13)
    real = Polynomial.__divmod__
    calls = []

    def corrupted(f, g):
        q, rem = real(f, g)
        calls.append(f)
        return q, rem + Polynomial.one(f.field) if len(calls) == 20 else rem

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__divmod__", corrupted)
        try:
            perfect.expand_from_relation(trace.prefix, trace.relation, 120)
        except ArithmeticError as exc:
            return "AD - BC" in str(exc)
    return False


def full_length_residual(cf, rel, precision):
    """relation_residual's series oracle: both sides of the relation as
    truncated Laurent series, from the convergents of all n quotients of cf
    (alpha's joined from the head and tail matrices), compared coefficient
    by coefficient down to T^(-precision)."""
    if precision < 1:
        raise ValueError("precision must be positive")
    l = rel.l
    if len(cf) <= l:
        raise perfect.InsufficientExpansion(f"insufficient expansion: need more than l = {l} partial quotients")
    head, tail = cf.matrix(0, l), cf.matrix(l)
    x, _, y, _ = matrix_product(head, tail, 0, len(cf))
    floor_cmp = -precision - 1
    floor_alpha = -(precision // max(rel.r, 1) + 2)
    if 2 * y.degree < -floor_alpha:
        raise perfect.InsufficientExpansion("insufficient expansion for the requested precision")
    lhs = rational_series(x, y, floor_alpha).frobenius(rel.r).truncate(floor_cmp)
    xt, _, yt, _ = tail
    floor_tail = floor_cmp - rel.P.degree
    if 2 * yt.degree < -floor_tail:
        raise perfect.InsufficientExpansion("insufficient expansion for the requested precision")
    tail_series = rational_series(xt, yt, floor_tail)
    rhs = ((Laurent.from_polynomial(rel.P) * tail_series).scaled(rel.eps1)
           + Laurent.from_polynomial(rel.Q).scaled(rel.eps2)).truncate(floor_cmp)
    return lhs.first_difference(rhs)


# the type (13, 6, 4) spec whose generated expansion the residual tests read
RESIDUAL_SPEC = perfect.ExpansionSpec(F13, 6, 4, 12, 9, (5, 12, 9, 11, 1, 5))


def certifying_prefixes(cf, rel, precision):
    """(m, m') of the residual's two convergents, from cf's degrees: the
    smallest m >= 1 whose deg y_m (of a_2 .. a_m) meets T^-(precision // r + 2),
    and the smallest m' > l whose deg y'_m' (of a_(l+2) .. a_m') meets
    T^-(precision + 1 + deg P)."""
    degrees = cf.degrees()

    def first(start, floor):
        return next(m for m in range(start + 1, len(cf) + 1) if 2 * sum(degrees[start + 1 : m]) >= floor)

    return first(0, precision // rel.r + 2), first(rel.l, precision + 1 + rel.P.degree)


def residual_reads(cf, rel, precision):
    """(relation_residual(cf, rel, precision), the ranges (lo, hi) of the
    continuant matrices it asks of cf, the number of quotients that enter a
    leaf of their trees)."""
    matrix, product, ranges, read = ContinuedFraction.matrix, cf_module._product, [], [0]

    def recording(self, lo=0, hi=None):
        ranges.append((lo, hi))
        return matrix(self, lo, hi)

    def counting(quotients, lo, hi, field):
        if hi - lo <= cf_module._LEAF:
            read[0] += hi - lo
        return product(quotients, lo, hi, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ContinuedFraction, "matrix", recording)
        mp.setattr(cf_module, "_product", counting)
        return perfect.relation_residual(cf, rel, precision), ranges, read[0]


def residual_boundary_case():
    """(cf, relation, precision, m, m') where both floors are met exactly:
    at precision 43, 2 deg y_4 = 6 meets 43 // 13 + 2 = 5 and 2 deg y'_25 =
    52 meets precision + 1 + deg P."""
    cf, rel, precision = perfect.generate_perfect_expansion(RESIDUAL_SPEC, 80), RESIDUAL_SPEC.relation(), 43
    return (cf, rel, precision, *certifying_prefixes(cf, rel, precision))


def residual_reads_exactly_m():
    """At the boundary case relation_residual agrees with the full-length
    oracle and reads exactly a_1 .. a_m for alpha and a_7 .. a_m' for its
    tail, each quotient in one leaf: no matrix of the head a_1 .. a_6."""
    cf, rel, precision, m, mt = residual_boundary_case()
    try:
        want = full_length_residual(cf, rel, precision), [(0, m), (rel.l, mt)], m + mt - rel.l
        return residual_reads(cf, rel, precision) == want
    except (ArithmeticError, ValueError):  # InsufficientExpansion is a ValueError
        return False


def residual_at_the_floor():
    """(cf, relation, precision) whose sides' convergents differ at exactly
    T^(-precision - 1): a_25 + 1 moves the tail's convergent by T^-52, the
    tail floor at precision 43, and P (degree 8) lifts that to T^-44.  The
    whole expansion's sides agree down to T^-43, so the residual is -inf."""
    cf, rel, precision, _, mt = residual_boundary_case()
    qs = list(cf.quotients)
    qs[mt - 1] = qs[mt - 1] + Polynomial.one(cf.field)
    return ContinuedFraction(cf.field, qs), rel, precision


def residual_ignores_the_floor_term():
    """At residual_at_the_floor both routes give -inf."""
    case = residual_at_the_floor()
    return perfect.relation_residual(*case) == full_length_residual(*case) == float("-inf")


def power_vectors_are_the_step_chain(p):
    """power_vectors(GF(p), range(3p + 2)) is the _alpha_step chain from 1."""
    F = GF(p)
    zero, one = Polynomial.zero(F), Polynomial.one(F)
    vec = quartic.PowerVec(zero, zero, zero, one)
    for got in quartic.power_vectors(F, range(3 * p + 2)):
        if got != vec:
            return False
        vec = quartic._alpha_step(F, vec)
    return True


def _shift_vectors(change):
    """A frobenius_vectors that hands the derivation change(v0, v1, one)."""
    real = quartic.frobenius_vectors
    return lambda field, e: change(*real(field, e), Polynomial.one(field))


# one way to reach each stage of derive_frobenius_relation, as (name, value) to monkeypatch
STAGE_FAULTS = {
    # a_(r+1) + 1: (a_(r+1), a_r) is no longer proportional to (x_l, y_l), so
    # the Euclid of a_(r+1)/a_r does not end after l quotients
    "prefix": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, v1._replace(a=v1.a + one)))),
    # alpha^(r+1) + alpha^2: the alpha^3 parts still cancel, the alpha^2 parts do not
    "b-compat": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, v1._replace(b=v1.b + one)))),
    # alpha^(r+1) + alpha moves U = eps1 P by x_l y_l, past degree 2k'
    "W-shape": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0, v1._replace(c=v1.c + one)))),
    # (alpha^r - 1, alpha^(r+1) - alpha) is the relation with V - 1 for V, U kept
    "Q-shape": lambda: ("frobenius_vectors", _shift_vectors(
        lambda v0, v1, one: (v0._replace(d=v0.d - one), v1._replace(c=v1.c - one)))),
    # an alpha with no polynomial part: y_l alpha^r + c has too low a degree
    "degree": lambda: ("alpha_polynomial_part", Polynomial.zero),
}


# -- the root expansion's Taylor shift ----------------------------------------------


def to_gf(f: Polynomial) -> list:
    return list(reversed(f.coeffs))


def assert_canonical(f: Polynomial, p: int):
    assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0


def reference_taylor_shift(coeffs, q, p):
    """P(X + q) by Horner in X over galoistools coefficient lists: the
    running value R is multiplied by (X + q) and the next coefficient of P
    is added, so R_i <- R_{i-1} + q * R_i."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    r = []
    for c in reversed(coeffs):
        shifted = [[]] + r
        for i, ri in enumerate(r):
            shifted[i] = gt.gf_add(shifted[i], gt.gf_mul(q, ri, p, ZZ), p, ZZ)
        shifted[0] = gt.gf_add(shifted[0], c, p, ZZ)
        r = shifted
    return r


def check_taylor_shift(p, coeffs, q):
    """rootcf._taylor_shift of the polynomials with these coefficient lists by
    q is canonical, leaves its input intact and is reference_taylor_shift's."""
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
