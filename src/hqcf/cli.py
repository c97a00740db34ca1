"""Command-line interface.

Subcommands:
  expand    continued fraction of an algebraic root (--quartic or --poly)
  generate  perfect expansion from (l, k, eps1, eps2, lambdas)
  verify    prop1 | prop2 | conj1 | conj2
  exponent  rational approximation exponent of the quartic root

Exit codes: 0 = success / verification passed, 1 = verification failed,
2 = usage or input error.  Output is deterministic for a given invocation;
grid sweeps run in one process and print in sweep order.
"""

import argparse
import ast
import json
import operator
import sys
from itertools import groupby, islice

from .cf import ContinuedFraction
from .fields import GF, PrimeField
from .perfect import (ExpansionSpec, a_degree, a_sequence, generate_perfect_expansion,
                      verify_prop1, verify_prop2)
from .polynomials import Polynomial
from .quartic import (
    alpha_expansion,
    approximation_exponent,
    quartic_expansion,
    relation_k,
    verify_conjecture1,
    verify_conjecture2,
)
from .rootcf import RootState, expand_root


# -- polynomial parsing --------------------------------------------------------

# Largest X- or T-degree a parsed product or power may reach.  A parsed value
# is one Polynomial in Z, X = Z and T = Z^_STRIDE (Kronecker substitution):
# the X^i coefficient of f is the stride slice f.coeffs[i::_STRIDE], and at
# the bound a product is one dense convolution of about 257^2 coefficients.
MAX_PARSED_DEGREE = 256
_STRIDE = MAX_PARSED_DEGREE + 1  # above every X-degree, so no slot overflows


def _degrees(f: Polynomial) -> tuple:
    """(degree in X, degree in T) of the packed f; (-1, -1) for zero."""
    return max((n % _STRIDE for n, c in enumerate(f.coeffs) if c), default=-1), f.degree // _STRIDE


def _product(a: Polynomial, b: Polynomial) -> Polynomial:
    if a and b and max(map(operator.add, _degrees(a), _degrees(b))) > MAX_PARSED_DEGREE:
        raise ValueError(f"product would exceed degree {MAX_PARSED_DEGREE} in X or T")
    return a * b


_RING_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: _product}


def parse_polynomial(text: str, field: PrimeField) -> list:
    """Parse an expression in T and X with +, -, *, ^ and rational constants
    like 1/12 into the list of F_p[T] coefficients of X^0, X^1, ...

    Every value is one Polynomial over field packed as above, combined by
    the kernel's +, -, *, ** and scaled.  Division is only allowed by
    nonzero integer constants (the rational is embedded mod p).  A power or
    product past MAX_PARSED_DEGREE in X or T is a ValueError, raised before
    it is expanded.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse polynomial: {exc}")

    T = Polynomial.monomial(field, 1, _STRIDE)
    X = Polynomial.x(field)

    def ev(node) -> Polynomial:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            if type(node.op) in _RING_OPS:
                return _RING_OPS[type(node.op)](ev(node.left), ev(node.right))
            if isinstance(node.op, ast.Div):
                den = ev(node.right)
                if den.degree > 0:
                    raise ValueError("division is only allowed by integer constants")
                den = den.constant_coefficient()
                if not den:
                    raise ValueError(
                        f"denominator {ast.unparse(node.right)} is divisible by p = {field.p}; "
                        "rational not embeddable"
                    )
                return ev(node.left).scaled(field.inv(den))
            if isinstance(node.op, ast.Pow):
                e = node.right
                if not (isinstance(e, ast.Constant) and isinstance(e.value, int) and e.value >= 0):
                    raise ValueError("exponents must be nonnegative integer literals")
                base = ev(node.left)
                if max(_degrees(base)) * e.value > MAX_PARSED_DEGREE:
                    raise ValueError(
                        f"power ^{e.value} would exceed degree {MAX_PARSED_DEGREE} in X or T"
                    )
                return base ** e.value
            raise ValueError(f"unsupported operator {ast.dump(node.op)}")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return ev(node.operand)
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.Name):
            if node.id == "T":
                return T
            if node.id == "X":
                return X
            raise ValueError(f"unknown symbol {node.id!r} (use T and X)")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return Polynomial.constant(field, node.value)
            raise ValueError(f"unsupported constant {node.value!r}")
        raise ValueError(f"unsupported syntax: {ast.dump(node)}")

    poly = ev(tree)
    x_degree = _degrees(poly)[0]
    if x_degree < 1:
        raise ValueError("polynomial must have degree >= 1 in X")
    return [Polynomial(field, poly.coeffs[i::_STRIDE]) for i in range(x_degree + 1)]


# -- output helpers --------------------------------------------------------------


def _annotation_top(p: int, k: int | None, max_deg: int) -> int:
    """The last j of the A[j,k] the annotations may name, or -1 without k:
    the number of j >= 1 with deg A_(j,k) <= max_deg, read off a_degree,
    or 0 at 2k = p - 1, where every level is T = A_0.  No level is built."""
    if k is None:
        return -1
    if 2 * k == p - 1:
        return 0
    top = 0
    while a_degree(p, k, top + 1) <= max_deg:
        top += 1
    return top


# the text lines _print_expansion joins into one write
_LINES = 1 << 12


def _print_expansion(cf: ContinuedFraction, as_json: bool, k: int | None, out):
    """Write cf once: one JSON object, or lines "a_n = q" with q annotated
    "[= c*A[j,k]]" when it is c*A_(j,k).

    cf is written straight from its tower: the text of lambda*L, for a
    level L, comes from L's coefficients (Polynomial.format and
    to_json_text with c = lambda), once per distinct pair (L, lambda), and
    no lambda*L polynomial is built.  The pairs are rendered grouped by
    level, so L's shared work (its terms) is dropped before the next
    level.  The text names A_0 .. A_top, which have distinct degrees: L is
    named j, with c = lambda*lc(L), when A_j has L's degree and L.monic()
    == A_j, tested first as L is A_j and L == A_j, so that no generated
    level is compared in full or scaled (at 2k = p - 1 each of its levels
    is a T of its own).  A generated expansion names its own tower's
    levels; any other builds them with one a_sequence call.  The JSON
    goes to out in one write per quotient, the text lines in one join and
    one write per _LINES quotients.
    """
    field, tower = cf.field, cf.tower
    max_deg = max((tower[i].degree for i in set(cf.indices)), default=1)
    top = -1 if as_json else _annotation_top(field.p, k, max_deg)
    levels = (() if top < 0 else tower[: top + 1] if cf.perfect_type is not None
              else a_sequence(field, k, top))
    named = {a.degree: (j, a) for j, a in enumerate(levels)}
    texts = {}
    for i, pairs in groupby(sorted(set(zip(cf.indices, cf.lambdas))), key=operator.itemgetter(0)):
        level = tower[i]
        j, a = named.get(level.degree, (None, None))
        if a is not None and not (level is a or level == a or level.monic() == a):
            j = None
        terms = None if as_json else level.terms()
        for _, c in pairs:
            text = f", {level.to_json_text(c)}" if as_json else level.format(c, terms)
            if j is not None:
                text += f"  [= {c * level.leading_coefficient() % field.p}*A[{j},k]]"
            texts[i, c] = text
    parts = map(texts.__getitem__, zip(cf.indices, cf.lambdas))
    if as_json:
        # each text carries the ", " before it, cut from the first quotient's:
        # one write per quotient and no join, which would copy whole levels
        # (2.9 MB for A_(9,1) at p = 5) and raise the peak memory
        write = out.write
        write(f'{{"p": {field.p}, "pq": [{next(parts, ", ")[2:]}')
        for text in parts:
            write(text)
        write("]}\n")
    else:
        for start in range(0, len(cf), _LINES):
            lines = zip(range(start + 1, start + _LINES + 1), islice(parts, _LINES))
            out.write("".join([f"a_{n} = {text}\n" for n, text in lines]))


# -- subcommands ------------------------------------------------------------------
#
# Every precondition is checked by the library function that needs it; a
# ValueError from any of them is a usage error (exit 2).  GF checks the
# modulus, its cap before any primality test, before any other work.


def cmd_expand(args, out) -> int:
    if args.quartic and args.poly is not None:
        raise ValueError("--quartic and --poly are exclusive: give one root")
    field = GF(args.p)
    if args.quartic:
        if args.k is not None:
            raise ValueError("--k applies to --poly, not to --quartic")
        cf, k = alpha_expansion(args.p, args.n)[0], relation_k(args.p)
    elif args.poly:
        state, k = RootState(parse_polynomial(args.poly, field)), args.k
        if k is not None:
            a_sequence(field, k, 0)  # rejects k outside 1 <= k < p/2 before any work
        cf = expand_root(state, args.n)
    else:
        raise ValueError("expand needs --quartic or --poly")
    _print_expansion(cf, args.json, k, out)
    return 0


def cmd_generate(args, out) -> int:
    field = GF(args.p)
    for name in ("l", "k", "e1", "e2", "lambdas"):
        if getattr(args, name) in (None, ""):
            raise ValueError(f"generate needs --{name}")
    spec = ExpansionSpec(
        field, args.l, args.k, args.e1, args.e2,
        tuple(int(x) for x in args.lambdas.split(",")),
        tuple(int(x) for x in args.indices.split(",")) if args.indices else (),
    )
    _print_expansion(generate_perfect_expansion(spec, args.n), args.json, args.k, out)
    return 0


def cmd_verify_prop1(args, out) -> int:
    field = GF(args.p)
    ks = [args.k] if args.k is not None else range(1, (args.p - 1) // 2 + 1)
    reports = [verify_prop1(field, k) for k in ks]
    if args.json:
        rows = [
            {"p": r.p, "k": r.k, "pass": r.passed, "theta": r.theta, "v": list(r.v)}
            for r in reports
        ]
        print(json.dumps(rows if len(rows) > 1 else rows[0]), file=out)
    else:
        for r in reports:
            print(f"prop1 p={r.p} k={r.k}: {'PASS' if r.passed else 'FAIL'}", file=out)
            print(f"  theta = {r.theta}", file=out)
            print(f"  v = {','.join(str(x) for x in r.v)}", file=out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_prop2(args, out) -> int:
    field = GF(args.p)
    half = range(1, (args.p - 1) // 2 + 1)
    ks = [args.k] if args.k is not None else half
    iis = [args.i] if args.i is not None else half
    reports = verify_prop2(field, ks, iis)
    if args.json:
        rows = [
            {
                "p": r.p, "k": r.k, "i": r.i, "pass": r.passed, "defined": r.defined,
                "entries": r.predicted_length, "reason": r.reason,
            }
            for r in reports
        ]
        print(json.dumps(rows if len(rows) > 1 else rows[0]), file=out)
    else:
        for r in reports:
            status = ("PASS" if r.passed else "FAIL") if r.defined else f"UNDEFINED ({r.reason})"
            print(f"prop2 p={r.p} k={r.k} i={r.i}: {status}", file=out)
    return 0 if all(r.passed or not r.defined for r in reports) else 1


def cmd_verify_conj1(args, out) -> int:
    verdict = verify_conjecture1(args.p, args.n)
    if args.json:
        row = {
            "p": verdict.p, "pass": verdict.passed, "epsilon1": verdict.eps1,
            "epsilon2": verdict.eps2, "a": verdict.a, "a_equals_8_27": verdict.a_equals_8_27,
            "compared_terms": verdict.compared_terms, "stage": verdict.stage,
            "detail": verdict.detail,
        }
        print(json.dumps(row), file=out)
    else:
        print(f"conj1 p={args.p}: {'PASS' if verdict.passed else 'FAIL'}", file=out)
        if verdict.eps1 is not None:
            print(
                f"  relation: alpha^p = {verdict.eps1}*(T^2+{verdict.a})^k*alpha_(l+1)"
                f" + {verdict.eps2}*Q  (a == 8/27 mod p: {verdict.a_equals_8_27})",
                file=out,
            )
            print(f"  compared terms: {verdict.compared_terms}", file=out)
        if not verdict.passed:
            print(f"  stage: {verdict.stage}  detail: {verdict.detail}", file=out)
    return 0 if verdict.passed else 1


def cmd_verify_conj2(args, out) -> int:
    verdict = verify_conjecture2(args.p, l_override=args.l)
    detail = f"{verdict.stage}: {verdict.detail}" if verdict.stage else ""
    if args.json:
        row = {
            "p": verdict.p, "pass": verdict.passed, "l": verdict.l, "k_prime": verdict.k_prime,
            "k": verdict.k, "epsilon1": verdict.eps1, "epsilon2": verdict.eps2, "a": verdict.a,
            "a_equals_8_27": verdict.a_equals_8_27, "detail": detail,
        }
        print(json.dumps(row), file=out)
    else:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"conj2 p={args.p}: {status}  (l={verdict.l}, k'={verdict.k_prime}, k={verdict.k})", file=out)
        if verdict.passed:
            print(
                f"  alpha^(p^2) = {verdict.eps1}*(T^2+{verdict.a})^k'*alpha_(l+1)"
                f" + {verdict.eps2}*Q^p  (a == 8/27 mod p: {verdict.a_equals_8_27})",
                file=out,
            )
        else:
            print(f"  detail: {detail}", file=out)
    return 0 if verdict.passed else 1


def cmd_exponent(args, out) -> int:
    cf, source = quartic_expansion(args.p, args.n)
    report = approximation_exponent(cf, args.n - 1)
    if args.json:
        payload = {
            "p": args.p,
            "n": args.n,
            "window": report.window,
            "nu0_empirical": str(report.nu0_empirical),
            "nu0_empirical_float": float(report.nu0_empirical),
            "argmax_index": report.argmax_index,
            "nu0_closed": None if report.nu0_closed is None else str(report.nu0_closed),
            "nu_empirical": str(report.nu_empirical),
            "nu_closed": None if report.nu_closed is None else str(report.nu_closed),
            "source": source,
        }
        print(json.dumps(payload), file=out)
    else:
        print(f"exponent p={args.p} over {report.window} ratios ({source})", file=out)
        print(
            f"  windowed max of deg(a_(n+1))/sum deg(a_j): {report.nu0_empirical}"
            f" (~{float(report.nu0_empirical):.5f}) at n = {report.argmax_index}",
            file=out,
        )
        if report.nu0_closed is not None:
            print(
                f"  closed form for the perfect pattern: nu0 = {report.nu0_closed},"
                f" nu = {report.nu_closed}",
                file=out,
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hqcf",
        description="Exact continued fractions of hyperquadratic power series over F_p(T)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p_, n_default=200, n_help="number of partial quotients"):
        p_.add_argument("--p", type=int, required=True, help="odd prime modulus")
        p_.add_argument("--n", type=int, default=n_default, help=n_help)
        p_.add_argument("--json", action="store_true", help="machine-readable output")

    p_expand = sub.add_parser("expand", help="expand an algebraic root")
    add_common(p_expand)
    p_expand.add_argument("--quartic", action="store_true",
                          help="use -X^4/12 - T*X^3 + X^2 + 1 (inverse root of the quartic); past its"
                               " first l quotients, expanded from the Frobenius relation derived from the"
                               " power basis (alpha^r, alpha^(r+1)), whose l-quotient prefix is the"
                               " Euclid of a_(r+1)/a_r")
    p_expand.add_argument("--poly", type=str, help="polynomial in X and T, e.g. 'X^2 - T*X + 1'")
    p_expand.add_argument("--k", type=int, help="annotate quotients against A[i,k]")
    p_expand.set_defaults(run=cmd_expand)

    p_gen = sub.add_parser("generate", help="generate a perfect expansion")
    add_common(p_gen)
    p_gen.add_argument("--l", type=int, help="prefix length")
    p_gen.add_argument("--k", type=int, help="family parameter k")
    p_gen.add_argument("--e1", type=int, help="epsilon_1")
    p_gen.add_argument("--e2", type=int, help="epsilon_2")
    p_gen.add_argument("--lambdas", type=str, help="comma list lambda_1..lambda_l")
    p_gen.add_argument("--indices", type=str, default="", help="comma list i(1)..i(l), default zeros")
    p_gen.set_defaults(run=cmd_generate)

    p_verify = sub.add_parser("verify", help="verify identities and conjectured relations")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    v1 = vsub.add_parser("prop1", help="P_k/Q_k expansion, reversal, and power identities")
    v1.add_argument("--p", type=int, required=True)
    v1.add_argument("--k", type=int, help="single k (default: sweep 1 <= k < p/2)")
    v1.add_argument("--json", action="store_true")
    v1.set_defaults(run=cmd_verify_prop1)

    v2 = vsub.add_parser("prop2", help="P_(kp-i)/Q_k^p block expansion and reversal")
    v2.add_argument("--p", type=int, required=True)
    v2.add_argument("--k", type=int, help="single k (default: sweep)")
    v2.add_argument("--i", type=int, help="single i (default: sweep)")
    v2.add_argument("--json", action="store_true")
    v2.set_defaults(run=cmd_verify_prop2)

    c1 = vsub.add_parser("conj1", help="degree-p relation for p = 1 mod 3")
    add_common(c1, n_help="number of generated quotients compared with the direct expansion")
    c1.set_defaults(run=cmd_verify_conj1)

    c2 = vsub.add_parser("conj2", help="degree-p^2 relation for p = 2 mod 3")
    c2.add_argument("--p", type=int, required=True)
    c2.add_argument("--l", type=int, default=None, help="override the tail index (diagnostic)")
    c2.add_argument("--json", action="store_true")
    c2.set_defaults(run=cmd_verify_conj2)

    p_exp = sub.add_parser("exponent", help="rational approximation exponent of the quartic root")
    add_common(p_exp, n_default=500)
    p_exp.set_defaults(run=cmd_exponent)
    return top


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
