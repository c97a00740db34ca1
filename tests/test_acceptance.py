"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact; every comparison below is bit-exact equality
unless the assertion states a bound.  Runtime limits are asserted with a
wall clock.
"""

import io
import json
import random
import time
from fractions import Fraction

from hqcf.cf import ContinuedFraction
from hqcf.cli import main
from hqcf.fields import GF, is_prime
from hqcf.perfect import (
    ExpansionSpec,
    relation_residual,
    generate_perfect_expansion,
    verify_prop1,
    verify_prop2,
)
from hqcf.polynomials import Polynomial
from hqcf.quartic import (
    approximation_exponent,
    beta_quotient_to_alpha,
    derive_frobenius_relation,
    normalize_to_beta,
    quartic_index,
    quartic_state,
    verify_conjecture1,
    verify_conjecture2,
)
from hqcf.rootcf import expand_root


def report(n, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} ({elapsed:.2f}s < {limit}s) {detail}")
    assert elapsed < limit, f"criterion {n} exceeded its runtime limit"
    return ok


def cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


def test_criterion_1_quartic_expansion_regression():
    t0 = time.time()
    code13, out13 = cli(["expand", "--quartic", "--p", "13", "--n", "6", "--json"])
    cf13 = ContinuedFraction.from_json_dict(json.loads(out13))
    code7, out7 = cli(["expand", "--quartic", "--p", "7", "--n", "3", "--json"])
    cf7 = ContinuedFraction.from_json_dict(json.loads(out7))
    ok = (
        code13 == 0
        and code7 == 0
        and [q.format() for q in cf13] == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]
        and [q.format() for q in cf7] == ["2*T", "6*T", "6*T"]
    )
    assert report(1, ok, "expand --quartic prefixes for p=13 and p=7", t0, 1.0)


def test_criterion_2_derivation_pipeline():
    t0 = time.time()
    F7, F13 = GF(7), GF(13)
    tr7 = derive_frobenius_relation(7)
    rel7 = tr7.relation
    eq8 = (
        (rel7.eps1, rel7.eps2, tr7.a) == (3, 5, 6)
        and rel7.P == poly(F7, -1, 0, 1) ** 2
        and rel7.Q == poly(F7, 0, 6, 0, 5)
        and rel7.l == 3
    )
    tr13 = derive_frobenius_relation(13)
    rel13 = tr13.relation
    eq9 = (
        (rel13.eps1, rel13.eps2, tr13.a) == (1, 4, 8)
        and rel13.P == poly(F13, 8, 0, 1) ** 4
        and rel13.Q == poly(F13, 0, 5, 0, 12, 0, 10, 0, 2)
        and rel13.l == 6
    )
    ok = eq8 and eq9
    assert report(2, ok, "alpha^7 and alpha^13 relations with triples (3,5,6), (1,4,8)", t0, 5.0)


def test_criterion_3_normalization():
    t0 = time.time()
    spec = normalize_to_beta(derive_frobenius_relation(13))
    ok = (spec.eps1, spec.eps2) == (12, 9) and [
        Polynomial.monomial(spec.field, lam, 1).format() for lam in spec.lambdas
    ] == ["5*T", "12*T", "9*T", "11*T", "T", "5*T"]
    assert report(3, ok, "beta^13 = 12*P_4*beta_7 + 9*Q_4 and the beta prefix", t0, 5.0)


def test_criterion_4_prop1_suite():
    t0 = time.time()
    cases = 0
    ok = True
    for p in range(5, 24):
        if not is_prime(p):
            continue
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            r = verify_prop1(F, k)
            ok = ok and r.passed
            cases += 1
    assert report(4, ok, f"all three identities over {cases} (p, k) pairs", t0, 30.0)


def test_criterion_5_prop2_suite():
    t0 = time.time()
    checked, excluded = 0, []
    ok = True
    for p in (7, 11, 13):
        F = GF(p)
        for k in range(1, (p - 1) // 2 + 1):
            for i in range(1, (p - 1) // 2 + 1):
                r = verify_prop2(F, k, i)
                if not r.defined:
                    excluded.append((p, k, i, r.reason))
                    continue
                ok = ok and r.passed
                checked += 1
    detail = f"{checked} cases exact; excluded (undefined): {[(p, k, i) for p, k, i, _ in excluded]}"
    assert report(5, ok, detail, t0, 120.0)


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    ok = True
    for p, spec_tuple in ((7, (3, 5, 2, 6, 6)), (13, (12, 9, 5, 12, 9, 11, 1, 5))):
        F = GF(p)
        l, k = (p - 1) // 2, (p - 1) // 3
        e1, e2 = spec_tuple[0], spec_tuple[1]
        lambdas = spec_tuple[2:]
        spec = ExpansionSpec(F, l, k, e1, e2, lambdas)
        gen = generate_perfect_expansion(spec, 200)
        direct = expand_root(quartic_state(F), 200)
        s = -F.embed_rational(8, 27) % p  # v^2 = -a with a = 8/27
        mapped = [
            beta_quotient_to_alpha(F, gen.cf[j], j + 1, s) for j in range(200)
        ]
        ok = ok and mapped == list(direct.quotients)
        ok = ok and relation_residual(gen.cf, spec.relation(), 100) == float("-inf")
    assert report(6, ok, "generator == root expansion for 200 terms; residual -inf at T^-100", t0, 60.0)


def test_criterion_7_index_formula():
    t0 = time.time()
    ok = True
    for p in (7, 13):
        spec = normalize_to_beta(derive_frobenius_relation(p))
        indices = generate_perfect_expansion(spec, 10_000).cf.indices
        ok = ok and len(indices) == 10_000
        ok = ok and all(i == quartic_index(p, n) for n, i in enumerate(indices, start=1))
    assert report(7, ok, "valuation formula == generator's indices for n <= 10^4", t0, 1.0)


def test_criterion_8_exponent():
    t0 = time.time()
    closed_ok = True
    for p in (7, 13):
        spec = normalize_to_beta(derive_frobenius_relation(p))
        cf = generate_perfect_expansion(spec, 30).cf
        rep = approximation_exponent(cf, 29)
        closed_ok = closed_ok and rep.nu_closed == Fraction(8, 3)

    spec7 = normalize_to_beta(derive_frobenius_relation(7))
    cf500 = generate_perfect_expansion(spec7, 501).cf
    rep = approximation_exponent(cf500, 500)

    # nu0 = 2/3 is a limsup approached from above: r_1 = 1 (deg a_1 = deg a_2
    # = 1) and every record ratio is 2/3 + 1/sum deg a_j, so no window maximum
    # is <= 2/3.  The window clause checks the records instead: their degrees
    # are deg A_{i,k} = (p^i (p-1-2k) + 2k)/(p-1), i = 1, 2, ..., and their
    # ratios r_n = deg a_{n+1} / sum_{j<=n} deg a_j descend strictly to 2/3.
    p, _, k, _ = cf500.perfect_type
    degs = [q.degree for q in cf500]
    peaks = [n for n in range(2, 501) if degs[n] > max(degs[:n])]
    peak_degs = [degs[n] for n in peaks]
    closed_degs = [
        (p**i * (p - 1 - 2 * k) + 2 * k) // (p - 1) for i in range(1, len(peaks) + 1)
    ]
    ratios = [approximation_exponent(cf500, n).ratios_tail for n in peaks]
    two_thirds = Fraction(2, 3)
    window_ok = (
        bool(peaks)
        and peak_degs == closed_degs
        and all(r > two_thirds for r in ratios)
        and all(a > b for a, b in zip(ratios, ratios[1:]))
        and ratios[-1] - two_thirds <= two_thirds - Fraction(63, 100)
    )
    ok = closed_ok and window_ok
    detail = (
        f"closed form nu = 8/3: {closed_ok}; peaks at n = {peaks} with degrees "
        f"{peak_degs} (deg A_(i,k) = {closed_degs}) and ratios "
        f"{[str(r) for r in ratios]}, descending to 2/3 within 11/300: {window_ok}; "
        f"window max = {rep.nu0_empirical} at n = {rep.argmax_index}"
    )
    assert report(8, ok, detail, t0, 30.0)


def test_criterion_9_conjecture1_sweep():
    t0 = time.time()
    completed, ok = 0, True
    results = []
    for p in (19, 31, 37, 43):
        verdict = verify_conjecture1(p, 150)
        completed += 1
        if verdict.passed:
            ok = ok and verdict.a_equals_8_27  # pass must imply a = 8/27
        results.append((p, verdict.passed, verdict.a))
    ok = ok and completed == 4
    assert report(9, ok, f"pipeline completed; (p, pass, a) = {results}", t0, 300.0)


def test_criterion_10_conjecture2():
    t0 = time.time()
    ok = True
    details = []
    for p in (5, 11):
        verdict = verify_conjecture2(p)
        ok = ok and verdict.passed
        neg = verify_conjecture2(p, l_override=verdict.l + 1)
        ok = ok and not neg.passed
        details.append((p, (verdict.eps1, verdict.eps2, verdict.a), "control-fails" if not neg.passed else "CONTROL-PASSED"))
    assert report(10, ok, f"solutions {details}", t0, 300.0)


def test_criterion_11_property_suites():
    t0 = time.time()
    rng = random.Random(20260809)
    ok = True

    # continuant determinant identity, >= 1000 randomized expansions
    one = {p: Polynomial.one(GF(p)) for p in (5, 7, 13)}
    for _ in range(1000):
        p = rng.choice((5, 7, 13))
        F = GF(p)
        qs = []
        for _ in range(rng.randrange(1, 6)):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            qs.append(Polynomial(F, coeffs))
        xs, ys = ContinuedFraction(F, qs).continuants()  # checks every index
        n = len(qs)
        expect = one[p] if n % 2 == 0 else -one[p]
        ok = ok and (xs[n] * ys[n - 1] - xs[n - 1] * ys[n] == expect)

    # divmod round-trip, >= 1000 randomized pairs
    for _ in range(1000):
        p = rng.choice((5, 7, 13))
        F = GF(p)
        f = Polynomial(F, [rng.randrange(p) for _ in range(rng.randrange(0, 30))])
        g = Polynomial(F, [rng.randrange(p) for _ in range(rng.randrange(1, 12))] + [rng.randrange(1, p)])
        q, r = divmod(f, g)
        ok = ok and q * g + r == f and r.degree < g.degree

    # oddness of quartic partial quotients, >= 1000 quotients across primes
    odd_checked = 0
    for p in (5, 7, 11, 13, 19, 31):
        cf = expand_root(quartic_state(GF(p)), 200)
        for q in cf:
            ok = ok and not any(q.coeffs[0::2])
            odd_checked += 1
    ok = ok and odd_checked >= 1000

    # Fermat identity and inverses, >= 1000 randomized (p, x)
    primes = [p for p in range(3, 200) if is_prime(p)]
    for _ in range(1000):
        p = rng.choice(primes)
        F = GF(p)
        x = rng.randrange(p)
        ok = ok and pow(x, p, p) == x and (x == 0 or x * F.inv(x) % p == 1)

    assert report(11, ok, f"4 suites x >= 1000 cases (odd quotients checked: {odd_checked})", t0, 60.0)
