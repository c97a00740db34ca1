"""One pass of a workload in a fresh process.

Reads a job as JSON on stdin, imports hqcf (timed: that is the set-up a
CLI user pays on every invocation), runs each case through
``hqcf.cli.main(argv, out)`` in order with stdout captured, and prints one
JSON result line.  A fixed reference loop is timed before and after the
import and after every case (``ref_s``); run.py scales each interval by the
reference timings on either side of it.  Run by run.py with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``HQCF_THREADS=1``.

Job keys: ``cases`` (from workloads.build_cases), ``trace`` (wrap the
program with the tracer), ``total_names`` (spans whose inclusive time is
reported), ``check`` (run the correctness cross-checks after the pass),
``out_dir`` (where the checked stdouts are kept, so that holding them does
not raise the pass's peak memory), ``spans_out`` (file for the recorded
spans, or null), ``setup_only`` (import and exit).
"""

import time

# Iterations of the reference loop, which run.py uses to take the host's
# momentary speed out of the timings.
REF_ITERS = 60000


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind hqcf spends its
    time in (small-int arithmetic, tuple and list building, dict stores).
    It imports nothing and calls nothing of hqcf, so it runs the same on
    every commit of the program."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(REF_ITERS):
        row = [x + 1 for x in tuple(i * k % 13 for k in range(4))]
        table[i & 1023] = row
        acc = (acc + sum(row) * 31) % 1000003
    return time.perf_counter() - start


# Reference loop timings: one before and one after the import, then one
# after each case, so that every timed interval has one on each side.
REF_TIMES = [reference_s()]
_T0 = time.perf_counter()
import hqcf.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0
REF_TIMES.append(reference_s())

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402

# Exit code recorded for a case that raised out of hqcf.cli.main.
CRASHED = -1

# Series precision of the generate cross-check, in powers of 1/T.
RESIDUAL_PRECISION = 100


def run_case(argv):
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code = hqcf.cli.main(list(argv), out)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this case, not the whole pass
        traceback.print_exc()
        code = CRASHED
    seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


# -- correctness cross-checks ---------------------------------------------------


def parse_poly_text(text: str, field):
    """Inverse of Polynomial.format: '9*T^3 + 8*T' -> Polynomial."""
    from hqcf.polynomials import Polynomial

    coeffs = {}
    for term in text.split(" + "):
        if term.startswith("T"):
            c, mono = 1, term
        elif "*" in term:
            c, mono = term.split("*", 1)
        else:
            c, mono = term, ""
        exp = 0 if not mono else 1 if mono == "T" else int(mono[2:])
        coeffs[exp] = int(c)
    return Polynomial(field, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def printed_quotients(text: str, field, count=None) -> list:
    """Quotients of a printed expansion, text ('a_n = ...') or --json."""
    from hqcf.polynomials import Polynomial

    if text.startswith("{"):
        pq = json.loads(text)["pq"]
        return [Polynomial.from_json_dict(d) for d in pq[:count]]
    lines = text.splitlines()[:count]
    return [parse_poly_text(line.split(" = ", 1)[1].split("  [", 1)[0], field) for line in lines]


def count_printed(text: str) -> int:
    if text.startswith("{"):
        return len(json.loads(text)["pq"])
    return text.count("\n")


def check_root(text: str, check: dict):
    """The printed a_1..a_n are the expansion of the big root alpha of
    P = c4 X^4 + (T + c3) X^3 + c2 X^2 + c1 X + c0.

    With x/y the n-th convergent, H = y^4 P(x/y) has degree
    4 deg y + 3 + deg(x/y - alpha), and deg(x/y - alpha) <= -2 deg y - 1
    exactly when x/y is a convergent of alpha (Legendre's criterion over
    F_p((1/T)); x, y are coprime by the determinant identity).  The
    certificate is therefore deg H <= 2 deg y + 2, computed by a route
    independent of the root iteration.
    """
    from hqcf.cf import ContinuedFraction
    from hqcf.fields import GF
    from hqcf.polynomials import Polynomial

    field = GF(check["p"])
    qs = printed_quotients(text, field)
    if len(qs) != check["n"]:
        return f"printed {len(qs)} quotients, expected {check['n']}"
    if any(q.degree < 1 for q in qs):
        return "a printed quotient has degree < 1"
    xs, ys = ContinuedFraction(field, qs).continuants()
    x, y = xs[-1], ys[-1]
    c0, c1, c2, c3, c4 = check["coeffs"]
    poly = [Polynomial(field, [c]) for c in (c0, c1, c2)]
    poly += [Polynomial(field, [c3, 1]), Polynomial(field, [c4])]
    h = Polynomial.zero(field)
    for i, c in enumerate(poly):
        h = h + c * x ** i * y ** (4 - i)
    if h.degree > 2 * y.degree + 2:
        return f"deg y^4 P(x/y) = {h.degree} > 2 deg y + 2 = {2 * y.degree + 2}"
    return None


def check_perfect(text: str, check: dict):
    """The printed expansion satisfies the spec's Frobenius relation
    alpha^p = eps1 P_k alpha_(l+1) + eps2 Q_k to T^-RESIDUAL_PRECISION."""
    from hqcf.cf import ContinuedFraction
    from hqcf.fields import GF
    from hqcf.perfect import ExpansionSpec, relation_residual

    spec = check["spec"]
    if count_printed(text) != check["n"]:
        return f"printed {count_printed(text)} quotients, expected {check['n']}"
    field = GF(spec["p"])
    es = ExpansionSpec(field, spec["l"], spec["k"], spec["eps1"], spec["eps2"], tuple(spec["lambdas"]))
    # enough quotients for the tail to certify the requested precision
    prefix = spec["l"] + RESIDUAL_PRECISION + 2 * spec["k"]
    cf = ContinuedFraction(field, printed_quotients(text, field, prefix))
    residual = relation_residual(cf, es.relation(), RESIDUAL_PRECISION)
    if residual != float("-inf"):
        return f"relation residual at T^{residual}"
    return None


CHECKS = {"root": check_root, "perfect": check_perfect}


def main():
    job = json.load(sys.stdin)
    if job.get("setup_only"):
        print(json.dumps({"setup_s": SETUP_S, "ref_s": REF_TIMES}))
        return
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    results, saved = [], {}
    for case in job["cases"]:
        code, text, seconds = run_case(case["argv"])
        REF_TIMES.append(reference_s())
        results.append({
            "id": case["id"],
            "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seconds": seconds,
        })
        if job["check"] and "check" in case:
            saved[case["id"]] = os.path.join(job["out_dir"], f"{case['id']}.stdout")
            with open(saved[case["id"]], "w") as fh:
                fh.write(text)
        del text
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = {}
    for case in job["cases"]:
        if case["id"] in saved:
            with open(saved[case["id"]]) as fh:
                problem = CHECKS[case["check"]["kind"]](fh.read(), case["check"])
            checks[case["id"]] = problem or "ok"
    trace = None
    if tracer is not None:
        trace = tracer.summary(job["total_names"])
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    print(json.dumps({
        "setup_s": SETUP_S,
        "ref_s": REF_TIMES,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "cases": results,
        "checks": checks,
        "trace": trace,
    }))


if __name__ == "__main__":
    main()
