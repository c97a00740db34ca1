"""Command-line interface.

Subcommands:
  expand    continued fraction of an algebraic root (--quartic or --poly)
  generate  perfect expansion from (l, k, eps1, eps2, lambdas)
  verify    prop1 | prop2 | conj1 | conj2
  exponent  rational approximation exponent of the quartic root

Exit codes: 0 = success / verification passed, 1 = verification failed,
2 = usage or input error.  Output is deterministic for a given invocation;
grid sweeps honour the HQCF_THREADS cap and still print in sorted order.
"""

import argparse
import ast
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .cf import ContinuedFraction
from .fields import GF, PrimeField, is_prime
from .perfect import (
    DeltaMismatchError,
    DeltaUndefinedError,
    ExpansionSpec,
    a_sequence,
    generate_perfect_expansion,
    verify_prop1,
    verify_prop2,
)
from .polynomials import Polynomial
from .quartic import approximation_exponent, verify_conjecture1, verify_conjecture2
from .rootcf import RootState, expand_root, quartic_state


class UsageError(ValueError):
    pass


def max_workers(cases: int) -> int:
    """Worker processes for a sweep: HQCF_THREADS (default 4), never more
    than the CPU count or the number of cases."""
    wanted = 4
    env = os.environ.get("HQCF_THREADS")
    if env:
        try:
            wanted = int(env)
        except ValueError:
            raise UsageError(f"HQCF_THREADS must be an integer, got {env!r}")
    return max(1, min(wanted, os.cpu_count() or 1, cases))


# -- polynomial parsing --------------------------------------------------------

# Largest X- or T-degree a parsed product or power may reach; _XPoly
# multiplies by schoolbook, so the cost is quadratic to cubic in the degree.
MAX_PARSED_DEGREE = 256


class _XPoly:
    """Polynomial in X with F_p[T] coefficients; just enough arithmetic for
    parsing user equations."""

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs  # ascending in X

    @classmethod
    def const(cls, field, tpoly):
        return cls(field, [tpoly])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = Polynomial.zero(self.field)
        return _XPoly(
            self.field,
            [
                (self.coeffs[i] if i < len(self.coeffs) else z)
                + (other.coeffs[i] if i < len(other.coeffs) else z)
                for i in range(n)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _XPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _XPoly(self.field, [])
        if max(a + b for a, b in zip(self.degrees(), other.degrees())) > MAX_PARSED_DEGREE:
            raise UsageError(f"product would exceed degree {MAX_PARSED_DEGREE} in X or T")
        z = Polynomial.zero(self.field)
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _XPoly(self.field, out)

    def degrees(self) -> tuple:
        """(degree in X, degree in T); (-1, -1) for zero."""
        if not self.coeffs:
            return -1, -1
        return len(self.coeffs) - 1, max(int(c.degree) for c in self.coeffs if c)

    def __pow__(self, e):
        out = _XPoly.const(self.field, Polynomial.one(self.field))
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def as_rational_constant(self):
        if len(self.coeffs) > 1:
            return None
        if not self.coeffs:
            return 0
        c = self.coeffs[0]
        if c.degree > 0:
            return None
        return c.constant_coefficient()


def parse_polynomial(text: str, field: PrimeField) -> list:
    """Parse an expression in T and X with +, -, *, ^ and rational constants
    like 1/12 into the list of F_p[T] coefficients of X^0, X^1, ...

    Division is only allowed by nonzero integer constants (the rational is
    embedded mod p).  A power or product past MAX_PARSED_DEGREE in X or T
    is a UsageError, raised before it is expanded.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"cannot parse polynomial: {exc}")

    T = _XPoly.const(field, Polynomial.x(field))
    X = _XPoly(field, [Polynomial.zero(field), Polynomial.one(field)])

    def ev(node) -> _XPoly:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return ev(node.left) + ev(node.right)
            if isinstance(node.op, ast.Sub):
                return ev(node.left) - ev(node.right)
            if isinstance(node.op, ast.Mult):
                return ev(node.left) * ev(node.right)
            if isinstance(node.op, ast.Div):
                den = ev(node.right).as_rational_constant()
                if den is None:
                    raise UsageError("division is only allowed by integer constants")
                if den % field.p == 0:
                    raise UsageError(
                        f"denominator {den} is divisible by p = {field.p}; "
                        "rational not embeddable"
                    )
                num = ev(node.left)
                inv = Polynomial.constant(field, field.inv(den))
                return num * _XPoly.const(field, inv)
            if isinstance(node.op, ast.Pow):
                e = node.right
                if not (isinstance(e, ast.Constant) and isinstance(e.value, int) and e.value >= 0):
                    raise UsageError("exponents must be nonnegative integer literals")
                base = ev(node.left)
                if max(base.degrees()) * e.value > MAX_PARSED_DEGREE:
                    raise UsageError(
                        f"power ^{e.value} would exceed degree {MAX_PARSED_DEGREE} in X or T"
                    )
                return base ** e.value
            raise UsageError(f"unsupported operator {ast.dump(node.op)}")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return ev(node.operand)
            raise UsageError("unsupported unary operator")
        if isinstance(node, ast.Name):
            if node.id == "T":
                return T
            if node.id == "X":
                return X
            raise UsageError(f"unknown symbol {node.id!r} (use T and X)")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return _XPoly.const(field, Polynomial.constant(field, node.value))
            raise UsageError(f"unsupported constant {node.value!r}")
        raise UsageError(f"unsupported syntax: {ast.dump(node)}")

    poly = ev(tree)
    if len(poly.coeffs) < 2:
        raise UsageError("polynomial must have degree >= 1 in X")
    return poly.coeffs


# -- output helpers --------------------------------------------------------------


def _annotate(q: Polynomial, A: list) -> str:
    for i, a in enumerate(A):
        if a.degree == q.degree and not a.is_zero():
            c = q.field.div(q.leading_coefficient(), a.leading_coefficient())
            if q == a.scaled(c):
                return f"  [= {c}*A[{i},k]]"
    return ""


def _print_expansion(cf: ContinuedFraction, as_json: bool, k: int | None, out):
    if as_json:
        print(json.dumps(cf.to_json_dict()), file=out)
        return
    A = []
    if k is not None and 2 * k < cf.field.p:
        max_deg = max((int(q.degree) for q in cf.quotients), default=1)
        A = [Polynomial.x(cf.field)]
        while A[-1].degree < max_deg and len(A) < 40:
            nxt = a_sequence(cf.field, k, len(A))
            if nxt[-1].degree <= A[-1].degree:
                break
            A = nxt
    for n, q in enumerate(cf.quotients, start=1):
        print(f"a_{n} = {q.format()}{_annotate(q, A)}", file=out)


# -- subcommands ------------------------------------------------------------------


def _field_from_args(args) -> PrimeField:
    if not is_prime(args.p) or args.p < 3 or args.p % 2 == 0:
        raise UsageError(f"--p must be an odd prime >= 3, got {args.p}")
    return GF(args.p)


def cmd_expand(args, out) -> int:
    field = _field_from_args(args)
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    if args.quartic:
        if args.p < 5:
            raise UsageError("the quartic needs p >= 5")
        state = quartic_state(field)
        k = (args.p - 1) // 3 if args.p % 3 == 1 else None
    elif args.poly:
        coeffs = parse_polynomial(args.poly, field)
        try:
            state = RootState(coeffs)
        except ValueError as exc:
            raise UsageError(str(exc))
        k = args.k
    else:
        raise UsageError("expand needs --quartic or --poly")
    try:
        cf = expand_root(state, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    _print_expansion(cf, args.json, k, out)
    return 0


def cmd_generate(args, out) -> int:
    field = _field_from_args(args)
    for name in ("l", "k", "e1", "e2", "lambdas"):
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            raise UsageError(f"generate needs --{name}")
    lambdas = [int(x) for x in args.lambdas.split(",")]
    indices = [int(x) for x in args.indices.split(",")] if args.indices else None
    try:
        spec = ExpansionSpec(
            field, args.l, args.k, args.e1, args.e2, tuple(lambdas),
            tuple(indices) if indices else (),
        )
        gen = generate_perfect_expansion(spec, args.n)
    except (DeltaUndefinedError, DeltaMismatchError, ValueError) as exc:
        raise UsageError(str(exc))
    _print_expansion(gen.cf, args.json, args.k, out)
    return 0


def _prop1_case(case):
    p, k = case
    r = verify_prop1(GF(p), k)
    return k, r


def _prop2_case(case):
    p, k, i = case
    r = verify_prop2(GF(p), k, i)
    return (k, i), r


def cmd_verify_prop1(args, out) -> int:
    field = _field_from_args(args)
    ks = [args.k] if args.k else list(range(1, (args.p - 1) // 2 + 1))
    for k in ks:
        if not 1 <= k < args.p / 2:
            raise UsageError(f"--k must satisfy 1 <= k < p/2, got {k}")
    workers = max_workers(len(ks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_prop1_case, [(args.p, k) for k in ks]))
    else:
        results = dict(_prop1_case((args.p, k)) for k in ks)
    ok = all(r.passed for r in results.values())
    if args.json:
        payload = [
            {
                "p": args.p,
                "k": k,
                "pass": results[k].passed,
                "theta": results[k].theta,
                "v": list(results[k].v),
            }
            for k in sorted(results)
        ]
        print(json.dumps(payload if len(payload) > 1 else payload[0]), file=out)
    else:
        for k in sorted(results):
            r = results[k]
            verdict = "PASS" if r.passed else "FAIL"
            print(f"prop1 p={args.p} k={k}: {verdict}", file=out)
            print(f"  theta = {r.theta}", file=out)
            print(f"  v = {','.join(str(x) for x in r.v)}", file=out)
    return 0 if ok else 1


def cmd_verify_prop2(args, out) -> int:
    field = _field_from_args(args)
    half = (args.p - 1) // 2
    ks = [args.k] if args.k else list(range(1, half + 1))
    iis = [args.i] if args.i else list(range(1, half + 1))
    cases = [(args.p, k, i) for k in ks for i in iis]
    workers = max_workers(len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_prop2_case, cases))
    else:
        results = dict(_prop2_case(c) for c in cases)
    ok = all(r.passed or not r.defined for r in results.values())
    rows = []
    for key in sorted(results):
        r = results[key]
        if not r.defined:
            status = "UNDEFINED"
        else:
            status = "PASS" if r.passed else "FAIL"
        rows.append((key, r, status))
    if args.json:
        payload = [
            {
                "p": args.p,
                "k": k,
                "i": i,
                "pass": r.passed,
                "defined": r.defined,
                "entries": r.predicted_length,
                "reason": r.reason,
            }
            for (k, i), r, _ in rows
        ]
        print(json.dumps(payload if len(payload) > 1 else payload[0]), file=out)
    else:
        for (k, i), r, status in rows:
            extra = f" ({r.reason})" if status == "UNDEFINED" else ""
            print(f"prop2 p={args.p} k={k} i={i}: {status}{extra}", file=out)
    return 0 if ok else 1


def cmd_verify_conj1(args, out) -> int:
    field = _field_from_args(args)
    if args.p % 3 != 1 or args.p < 7:
        raise UsageError("conj1 needs p = 1 mod 3 and p >= 7")
    verdict = verify_conjecture1(args.p, args.n)
    if args.json:
        print(json.dumps(verdict.to_json_dict()), file=out)
    else:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"conj1 p={args.p}: {status}", file=out)
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
    field = _field_from_args(args)
    if args.p % 3 != 2 or args.p < 5:
        raise UsageError("conj2 needs p = 2 mod 3 and p >= 5")
    if args.l is not None and args.l < 1:
        raise UsageError(f"--l must be >= 1, got {args.l}")
    verdict = verify_conjecture2(args.p, args.n if args.n else None, l_override=args.l)
    if args.json:
        print(json.dumps(verdict.to_json_dict()), file=out)
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
            print(f"  detail: {verdict.detail}", file=out)
    return 0 if verdict.passed else 1


def cmd_exponent(args, out) -> int:
    field = _field_from_args(args)
    if args.p < 5:
        raise UsageError("the quartic needs p >= 5")
    window = args.window or args.n - 1
    if args.p % 3 == 1:
        # perfect pattern route: confirm the relation, then generate.
        # The residual check to T^-100 needs p + 14 to p + 33 quotients for
        # every p = 1 mod 3 below 200 (measured); max(50, 2p) covers them.
        verdict = verify_conjecture1(args.p, max(50, 2 * args.p))
        if not verdict.passed:
            raise UsageError(
                f"perfect pattern not confirmed for p={args.p}: {verdict.detail}"
            )
        from .quartic import derive_frobenius_relation, normalize_to_beta

        spec = normalize_to_beta(derive_frobenius_relation(args.p)).spec()
        cf = generate_perfect_expansion(spec, args.n).cf
        source = "perfect-expansion generator (degrees match the direct expansion)"
    else:
        cf = expand_root(quartic_state(field), args.n)
        source = "direct root expansion"
    report = approximation_exponent(cf, window)
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

    def add_common(p_, n_default=200):
        p_.add_argument("--p", type=int, required=True, help="odd prime modulus")
        p_.add_argument("--n", type=int, default=n_default, help="number of partial quotients")
        p_.add_argument("--json", action="store_true", help="machine-readable output")

    p_expand = sub.add_parser("expand", help="expand an algebraic root")
    add_common(p_expand)
    p_expand.add_argument("--quartic", action="store_true",
                          help="use -X^4/12 - T*X^3 + X^2 + 1 (inverse root of the quartic)")
    p_expand.add_argument("--poly", type=str, help="polynomial in X and T, e.g. 'X^2 - T*X + 1'")
    p_expand.add_argument("--k", type=int, help="annotate quotients against A[i,k]")

    p_gen = sub.add_parser("generate", help="generate a perfect expansion")
    add_common(p_gen)
    p_gen.add_argument("--l", type=int, help="prefix length")
    p_gen.add_argument("--k", type=int, help="family parameter k")
    p_gen.add_argument("--e1", type=int, help="epsilon_1")
    p_gen.add_argument("--e2", type=int, help="epsilon_2")
    p_gen.add_argument("--lambdas", type=str, help="comma list lambda_1..lambda_l")
    p_gen.add_argument("--indices", type=str, default="", help="comma list i(1)..i(l), default zeros")

    p_verify = sub.add_parser("verify", help="verify identities and conjectured relations")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    v1 = vsub.add_parser("prop1", help="P_k/Q_k expansion, reversal, and power identities")
    v1.add_argument("--p", type=int, required=True)
    v1.add_argument("--k", type=int, help="single k (default: sweep 1 <= k < p/2)")
    v1.add_argument("--json", action="store_true")

    v2 = vsub.add_parser("prop2", help="P_(kp-i)/Q_k^p block expansion and reversal")
    v2.add_argument("--p", type=int, required=True)
    v2.add_argument("--k", type=int, help="single k (default: sweep)")
    v2.add_argument("--i", type=int, help="single i (default: sweep)")
    v2.add_argument("--json", action="store_true")

    c1 = vsub.add_parser("conj1", help="degree-p relation for p = 1 mod 3")
    add_common(c1)

    c2 = vsub.add_parser("conj2", help="degree-p^2 relation for p = 2 mod 3")
    c2.add_argument("--p", type=int, required=True)
    c2.add_argument("--n", type=int, default=0, help="expansion length (default l+1)")
    c2.add_argument("--l", type=int, default=None, help="override the tail index (diagnostic)")
    c2.add_argument("--json", action="store_true")

    p_exp = sub.add_parser("exponent", help="rational approximation exponent of the quartic root")
    add_common(p_exp, n_default=500)
    p_exp.add_argument("--window", type=int, default=0, help="ratio window (default n-1)")
    return top


_DISPATCH = {
    ("expand", None): cmd_expand,
    ("generate", None): cmd_generate,
    ("verify", "prop1"): cmd_verify_prop1,
    ("verify", "prop2"): cmd_verify_prop2,
    ("verify", "conj1"): cmd_verify_conj1,
    ("verify", "conj2"): cmd_verify_conj2,
    ("exponent", None): cmd_exponent,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[(args.command, getattr(args, "what", None))]
    try:
        return handler(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
