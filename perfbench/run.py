"""hqcf benchmark: time to a certified result on three CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload expand --seed 0 --seconds 30 --trace 0

``--workload`` is one of expand, verify, generate, or ``all`` for every
workload in turn.  Each pass of a workload runs all of its cases, in a
fixed order, through ``hqcf.cli.main`` in one fresh process (worker.py)
with ``HQCF_THREADS=1``; passes repeat while another fits in ``--seconds``
(at least MIN_ROUNDS of them).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
the pass wall time (each case's median over the passes, summed), the
median import (set-up) time over at least SETUP_SAMPLES fresh processes and the median peak RSS of the pass
processes.  Both times are at reference speed: every timed interval is
scaled by REF_LOOP_S over the mean of the reference-loop timings taken
right before and after it (worker.reference_s), which takes the shared
host's momentary speed out of them.  With ``--trace 1`` each round runs one untraced and one traced
pass, and the last line reports the per-layer metrics that BENCHMARK.json
lists, derived from the spans the tracer recorded.

Every case's exit code and stdout sha256 are checked against expected.json
(seeded cases only at the default seed), digests must agree between all
passes, traced or not, and seeded cases are cross-checked by an
independent route on the first pass.  ``--record`` rewrites the expected
values of the workload from this run (default seed only).

Per-run reports and span files go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS, build_cases  # noqa: E402

SETUP_SAMPLES = 21
# Rounds (an untraced pass, and with --trace 1 a traced one) a run makes at
# least, however short --seconds is, so that every case has a median.
MIN_ROUNDS = 3
# Seconds that the reference loop of worker.py is scaled to.  It takes about
# this long on an unloaded core of a 2-core Xeon (Python 3.11), so times at
# reference speed read close to unloaded wall times there.
REF_LOOP_S = 0.075
# Hard limit for one invocation; the benchmark must exit well within 180 s.
DEADLINE_S = 170.0
SPAN_STATS = ("calls", "self_s", "total_s")
COUNTER_STATS = ("coeffs_in", "small", "mid", "large", "tiny_divisor", "big_divisor")


class BenchError(RuntimeError):
    pass


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine_block() -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "commit": git_commit(),
        "hqcf_threads": 1,
        "openblas_num_threads": 1,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


class Runner:
    """Spawns worker processes for one workload and collects their results."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["HQCF_THREADS"] = "1"
        # hqcf calls no BLAS routine; a BLAS thread pool would only add a
        # contention-sensitive thread start-up to every import
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def worker(self, job: dict) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise BenchError("out of time before the next worker")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")],
                input=json.dumps(job), capture_output=True, text=True,
                env=self.env, cwd=ROOT, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {remaining:.0f} s")
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.started


# -- correctness ------------------------------------------------------------------


def case_failures(passes: list, cases: list, expected: dict, seed: int) -> tuple:
    """(attempted, failed, messages) over every case of every pass."""
    first = {c["id"]: c["sha256"] for c in passes[0]["cases"]}
    attempted, failed, messages = 0, 0, []
    for n, res in enumerate(passes):
        for case, got in zip(cases, res["cases"]):
            attempted += 1
            want = expected.get(case["id"])
            problems = []
            if want is None:
                problems.append("no expected value shipped")
            else:
                if got["exit"] != want["exit"]:
                    problems.append(f"exit {got['exit']} != {want['exit']}")
                if ("check" not in case or seed == DEFAULT_SEED) and got["sha256"] != want["sha256"]:
                    problems.append("stdout digest differs from expected")
            if got["sha256"] != first[case["id"]]:
                problems.append("stdout digest differs between passes")
            check = res["checks"].get(case["id"])
            if check not in (None, "ok"):
                problems.append(f"cross-check failed: {check}")
            if problems:
                failed += 1
                messages.append(f"pass {n} {case['id']}: {'; '.join(problems)}")
    return attempted, failed, messages


# -- metrics ------------------------------------------------------------------------


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_LOOP_S / ((ref_before + ref_after) / 2)


def case_times(res: dict) -> list:
    """Case times of a pass at reference speed; case i lies between
    reference timings i + 1 and i + 2 (the first two bracket the import)."""
    ref = res["ref_s"]
    return [at_reference_speed(c["seconds"], ref[i + 1], ref[i + 2])
            for i, c in enumerate(res["cases"])]


def workload_wall(passes: list) -> float:
    """Sum over the cases of each case's median time over the passes.  A
    case that the host slowed part-way through, after its leading reference
    timing, spoils only its own sample, not the whole pass."""
    return sum(median(col) for col in zip(*(case_times(r) for r in passes)))


def setup_time(res: dict) -> float:
    ref = res["ref_s"]
    return at_reference_speed(res["setup_s"], ref[0], ref[1])



def layer_value(name: str, trace: dict, overhead: float):
    """Value of one per-layer metric named in BENCHMARK.json."""
    spans, counters = trace["spans"], trace["counters"]
    parts = name.split(".")
    if name == "trace_overhead_ratio":
        return overhead
    if name == "polynomials.peak_len":
        return trace["peak_len"]
    if len(parts) == 2 and parts[1] == "self_s":
        return sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == parts[0])
    if len(parts) == 3 and f"{parts[0]}.{parts[1]}" in spans:
        if parts[2] in SPAN_STATS:
            return spans[f"{parts[0]}.{parts[1]}"][parts[2]]
        if parts[2] in COUNTER_STATS:
            return counters.get(name, 0)
    raise BenchError(f"per-layer metric {name!r} names no traced span or counter")


def layer_metrics(spec: dict, traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics: times are medians over the traced passes, counts
    come from the first (they repeat exactly)."""
    overhead = workload_wall(traced) / untraced_wall
    out = {}
    for m in spec["per_layer"]:
        values = [layer_value(m["name"], t["trace"], overhead) for t in traced]
        value = values[0] if m["unit"] == "count" else median(values)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def traced_counts_agree(traced: list) -> bool:
    def counts(t):
        tr = t["trace"]
        return ({k: v["calls"] for k, v in tr["spans"].items()}, tr["counters"], tr["peak_len"])

    return all(counts(t) == counts(traced[0]) for t in traced[1:])


# -- one workload ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runner: Runner,
                 spec: dict, expected: dict) -> dict:
    cases = build_cases(workload, seed)
    total_names = [m["name"][: -len(".total_s")] for m in spec["per_layer"]
                   if m["name"].endswith(".total_s")]
    job = {"cases": cases, "trace": False, "check": True, "out_dir": OUT_DIR,
           "total_names": total_names}
    untraced, traced = [], []
    measure_start = runner.elapsed()
    while True:
        round_start = runner.elapsed()
        res = runner.worker(job)
        job["check"] = False
        untraced.append(res)
        if trace:
            spans_out = os.path.join(OUT_DIR, f"{workload}.spans.tsv")
            traced.append(runner.worker(dict(job, trace=True, spans_out=spans_out)))
        # stop before a round that would end past the measuring time
        now = runner.elapsed()
        if len(untraced) >= MIN_ROUNDS and 2 * now - round_start - measure_start > seconds:
            break
    setups = [setup_time(r) for r in untraced + traced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_time(runner.worker({"setup_only": True})))

    attempted, failed, messages = case_failures(untraced + traced, cases,
                                                expected.get(workload, {}), seed)
    walls = [sum(case_times(r)) for r in untraced]
    self_time_share = None
    if trace:
        metrics = layer_metrics(spec, traced, workload_wall(untraced))
        if not traced_counts_agree(traced):
            messages.append("work counts differ between traced passes")
        # self times cover the traced wall time unless spans escape the tree
        span_self = sum(v["self_s"] for v in traced[0]["trace"]["spans"].values())
        self_time_share = span_self / traced[0]["wall_s"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": workload_wall(untraced),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "walls": walls,
        "raw_walls": [r["wall_s"] for r in untraced],
        "ref_median_s": median(x for r in untraced for x in r["ref_s"]),
        "peaks": [r["peak_rss_mb"] for r in untraced],
        "case_seconds": [[c["seconds"] for c in r["cases"]] for r in untraced],
        "ref_s": [r["ref_s"] for r in untraced],
        "setups": setups,
        "cases": untraced[0]["cases"],
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "self_time_share": self_time_share,
        "metrics": metrics,
    }


def print_report(rep: dict, trace: bool):
    w = rep["workload"]
    print(f"[{w}] seed {rep['seed']}: {rep['passes']} passes, "
          f"{rep['attempted']} cases attempted, {rep['failed']} failed "
          f"(failed_ratio {rep['failed'] / rep['attempted']:.4f})")
    for line in rep["messages"]:
        print(f"[{w}]   FAIL {line}")
    if not trace:
        print(f"[{w}]   pass walls at reference speed: {', '.join(f'{x:.4f}' for x in rep['walls'])} s")
        print(f"[{w}]   pass walls as measured: {', '.join(f'{x:.4f}' for x in rep['raw_walls'])} s; "
              f"median reference loop {rep['ref_median_s']:.4f} s (scaled to {REF_LOOP_S} s)")
    else:
        print(f"[{w}]   span self times sum to {rep['self_time_share']:.2%} of the traced wall time")
    for name, m in rep["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"[{w}]   {name} = {value} {m['unit']}")


def record_expected(rep: dict, expected: dict):
    expected[rep["workload"]] = {
        c["id"]: {"exit": c["exit"], "sha256": c["sha256"]} for c in rep["cases"]
    }
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json for the workload from this run")
    args = ap.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        ap.error(f"--record needs the default seed {DEFAULT_SEED}")
    if not os.path.isfile(os.path.join(ROOT, "src", "hqcf", "cli.py")):
        print(f"error: no hqcf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    spec = load_benchmark_spec()
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(started)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # 'all' shares one invocation's time limit, so each workload gets a share
    seconds = args.seconds / len(workloads)
    machine = machine_block()
    print("machine: " + json.dumps(machine))
    reports = []
    try:
        for w in workloads:
            rep = run_workload(w, args.seed, seconds, bool(args.trace), runner, spec, expected)
            print_report(rep, bool(args.trace))
            reports.append(rep)
            name = f"{w}-seed{args.seed}-trace{args.trace}.json"
            with open(os.path.join(OUT_DIR, name), "w") as fh:
                json.dump({"machine": machine, **rep}, fh, indent=1)
            if args.record:
                record_expected(rep, expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    clean = all(not r["messages"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0 and clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
