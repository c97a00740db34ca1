"""Workload definitions and seeded input generators.

Everything here is standard library only, so the orchestrator can build a
workload's argv lists without importing hqcf.  A case is a dict with an
``id`` (stable across seeds, used as the key of the expected digests), the
``argv`` passed to ``hqcf.cli.main`` and, for seeded cases, the data the
correctness cross-check needs.
"""

import random

WORKLOADS = ("expand", "verify", "generate")

# Seed whose stdout digests are shipped in expected.json.
DEFAULT_SEED = 0


def _inv(x: int, p: int) -> int:
    return pow(x, p - 2, p)


def random_quartic(rng: random.Random, p: int) -> tuple:
    """Coefficients (c0, c1, c2, c3, c4), each in F_p^*, of the
    dominance-normalized quartic c4*X^4 + (T + c3)*X^3 + c2*X^2 + c1*X + c0.

    Only the X^3 coefficient has degree 1 in T, so condition (*) holds and
    the root expansion applies.
    """
    return tuple(rng.randrange(1, p) for _ in range(5))


def quartic_text(coeffs: tuple) -> str:
    c0, c1, c2, c3, c4 = coeffs
    return f"{c4}*X^4 + (T + {c3})*X^3 + {c2}*X^2 + {c1}*X + {c0}"


def theta(p: int, k: int) -> int:
    """theta_k = (-1)^k prod_{j<=k} (1 - 1/(2j)) in F_p."""
    t = 1
    for j in range(1, k + 1):
        t = t * (1 - _inv(2 * j % p, p)) % p
    return (-t) % p if k % 2 else t


def prefix_deltas(p: int, k: int, lambdas: tuple, eps2: int):
    """delta_1..delta_l of a prefix with all indices 0, or None when some
    delta_n does not exist in F_p^* (the existence condition)."""
    prev = 2 * k * theta(p, k) * _inv(eps2, p) % p
    deltas = []
    for lam in lambdas:
        if prev == 0:
            return None
        prev = (lam + _inv(prev, p)) % p
        deltas.append(prev)
    if deltas[-1] == 0:
        return None
    return deltas


def random_perfect_spec(rng: random.Random, p: int, l: int, k: int) -> dict:
    """A valid perfect-expansion spec of type (p, l, k): draw the prefix
    lambdas and eps2, redraw until every delta_n exists in F_p^*, then
    solve eps1 from the anchor condition delta_l = 2k*eps1/eps2."""
    while True:
        lambdas = tuple(rng.randrange(1, p) for _ in range(l))
        eps2 = rng.randrange(1, p)
        deltas = prefix_deltas(p, k, lambdas, eps2)
        if deltas is None:
            continue
        eps1 = deltas[-1] * eps2 * _inv(2 * k % p, p) % p
        if eps1:
            return {"p": p, "l": l, "k": k, "eps1": eps1, "eps2": eps2, "lambdas": lambdas}


def _generate_argv(spec: dict, n: int) -> list:
    return [
        "generate", "--p", str(spec["p"]), "--n", str(n),
        "--l", str(spec["l"]), "--k", str(spec["k"]),
        "--e1", str(spec["eps1"]), "--e2", str(spec["eps2"]),
        "--lambdas", ",".join(str(x) for x in spec["lambdas"]),
    ]


def build_cases(workload: str, seed: int) -> list:
    """The cases of one workload, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "expand":
        cases = [
            {"id": "quartic-p13", "argv": ["expand", "--quartic", "--p", "13", "--n", "400"]},
            {"id": "quartic-p7", "argv": ["expand", "--quartic", "--p", "7", "--n", "400"]},
        ]
        for j in range(2):
            coeffs = random_quartic(rng, 13)
            cases.append({
                "id": f"poly-p13-{j}",
                "argv": ["expand", "--poly", quartic_text(coeffs), "--p", "13", "--n", "400"],
                "check": {"kind": "root", "p": 13, "n": 400, "coeffs": coeffs},
            })
        return cases
    if workload == "verify":
        cases = [
            {"id": f"conj1-p{p}", "argv": ["verify", "conj1", "--p", str(p), "--n", "200"]}
            for p in (7, 13, 19, 31, 37, 43)
        ]
        cases += [
            {"id": f"conj2-p{p}", "argv": ["verify", "conj2", "--p", str(p)]}
            for p in (5, 11, 17, 23, 29)
        ]
        cases.append({"id": "prop1-p31", "argv": ["verify", "prop1", "--p", "31"]})
        cases.append({"id": "prop2-p17", "argv": ["verify", "prop2", "--p", "17"]})
        return cases
    if workload == "generate":
        text_spec = random_perfect_spec(rng, 7, 3, 2)
        json_spec = random_perfect_spec(rng, 5, 2, 1)
        return [
            {"id": "generate-p7-text", "argv": _generate_argv(text_spec, 80000),
             "check": {"kind": "perfect", "n": 80000, "spec": text_spec}},
            {"id": "generate-p5-json", "argv": _generate_argv(json_spec, 30000) + ["--json"],
             "check": {"kind": "perfect", "n": 30000, "spec": json_spec}},
            {"id": "exponent-p13", "argv": ["exponent", "--p", "13", "--n", "50000"]},
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
