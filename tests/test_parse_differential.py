"""Differential test of the --poly parser against sympy.

parse_polynomial packs X and T into one F_p[T] kernel polynomial; the
reference expands the same text over Q with sympy, maps each rational
coefficient into F_p and groups the terms by their degree in X.  The
inputs are seeded random expression trees over ints, rationals n/d with
p not dividing d, T, X, +, -, *, small powers and unary minus, kept inside
MAX_PARSED_DEGREE: a leaf has degree at most 1, a tree at most 4 levels
deep, and each level at most triples the degree (3^4 = 81).
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hqcf.cli import parse_polynomial  # noqa: E402
from hqcf.fields import GF  # noqa: E402
from hqcf.polynomials import Polynomial  # noqa: E402

PRIMES = [5, 13, 999983]
X, T = sympy.symbols("X T")


def random_expression(rng: random.Random, p: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.1:
        kind = rng.randrange(4)
        if kind == 0:
            return str(rng.randrange(-30, 30))
        if kind == 1:
            d = rng.choice([d for d in range(2, 40) if d % p])
            return f"({rng.randrange(-30, 30)}/{d})"
        return "X" if kind == 2 else "T"
    op = rng.choice("+-*^~")
    a = random_expression(rng, p, depth - 1)
    if op == "^":
        return f"({a})^{rng.randrange(4)}"
    if op == "~":
        return f"-({a})"
    return f"({a} {op} {random_expression(rng, p, depth - 1)})"


def reference(text: str, field) -> list:
    """The X^0, X^1, ... coefficients of text over F_p, from sympy over Q;
    trailing zero coefficients (after the reduction mod p) dropped."""
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**"), rational=True), X, T, domain=sympy.QQ)
    rows = [[0] * (max(poly.degree(T), 0) + 1) for _ in range(max(poly.degree(X), 0) + 1)]
    for (i, j), c in poly.terms():
        rows[i][j] = field.embed_rational(int(c.p), int(c.q))
    coeffs = [Polynomial(field, row) for row in rows]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


@pytest.mark.parametrize("p", PRIMES)
def test_parser_matches_sympy(p):
    field = GF(p)
    rng = random.Random(p)
    for _ in range(100):
        text = random_expression(rng, p, rng.randrange(2, 5))
        want = reference(text, field)
        if len(want) < 2:
            with pytest.raises(ValueError, match="degree >= 1 in X"):
                parse_polynomial(text, field)
        else:
            assert parse_polynomial(text, field) == want, text


@pytest.mark.parametrize("p", PRIMES)
def test_quartic_state_form_matches_sympy(p):
    field = GF(p)
    for text in ("-X^4/12 - T*X^3 + X^2 + 1", "7*X^4 + (T + 3)*X^3 + 2*X^2 + 5*X + 1",
                 "(X - T/5 + 2/3)^3*(T^2 + X)^2 - X"):
        if p == 5 and "/5" in text:
            continue
        assert parse_polynomial(text, field) == reference(text, field), text
