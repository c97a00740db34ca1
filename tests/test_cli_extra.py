import io
import json
import os

import pytest

from hqcf.cli import main, max_workers
from hqcf.fields import GF
from hqcf.laurent import rational_series
from hqcf.polynomials import Polynomial
from hqcf.rootcf import expand_root, quartic_state


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestDefaults:
    def test_expand_defaults_to_200_quotients(self):
        code, out = run(["expand", "--quartic", "--p", "13", "--json"])
        assert code == 0
        assert len(json.loads(out)["pq"]) == 200

    def test_expand_200_starts_with_published_prefix(self):
        code, out = run(["expand", "--quartic", "--p", "13"])
        assert code == 0
        heads = [ln.split(" = ")[1].split("  ")[0] for ln in out.strip().splitlines()]
        assert heads[:6] == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]
        assert len(heads) == 200


class TestGenerateIndices:
    def test_nonzero_initial_index(self):
        # type (13, 1, 1) with i(1) = 2: lambda_1 forced by the delta conditions
        F = GF(13)
        e1, e2 = 2, 4
        disc = F.add(F.mul(e2, e2), 2 * e1)
        lam1 = F.div(F.mul(disc, F.pow(F(-2), 2)), e2)
        code, out = run([
            "generate", "--p", "13", "--n", "9", "--l", "1", "--k", "1",
            "--e1", str(e1), "--e2", str(e2), "--lambdas", str(lam1),
            "--indices", "2", "--json",
        ])
        assert code == 0
        d = json.loads(out)
        # a_1 = lambda_1 * A_{2,1}: deg A_{2,1} = 13*(13-2) - 2 = 141
        assert len(d["pq"][0]["coeffs"]) - 1 == 141

    def test_wrong_indices_arity(self):
        code, _ = run([
            "generate", "--p", "7", "--n", "5", "--l", "3", "--k", "2",
            "--e1", "3", "--e2", "5", "--lambdas", "2,6,6", "--indices", "0,0",
        ])
        assert code == 2


class TestThreadCap:
    def test_output_identical_across_worker_counts(self):
        results = []
        for threads in ("1", "3"):
            os.environ["HQCF_THREADS"] = threads
            try:
                results.append(run(["verify", "prop2", "--p", "11"]))
            finally:
                del os.environ["HQCF_THREADS"]
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_bad_env_value_is_usage_error(self):
        os.environ["HQCF_THREADS"] = "many"
        try:
            code, _ = run(["verify", "prop1", "--p", "7"])
        finally:
            del os.environ["HQCF_THREADS"]
        assert code == 2

    def test_default_cap(self):
        assert 1 <= max_workers(100) <= 4

    def test_cap_bounded_by_cpus_and_cases(self, monkeypatch):
        # only the arithmetic of the cap: no pool is started
        monkeypatch.setenv("HQCF_THREADS", str(10**9))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert max_workers(100) == 2
        assert max_workers(1) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert max_workers(100) == 1
        monkeypatch.setenv("HQCF_THREADS", "0")
        assert max_workers(100) == 1


class TestExponentWindow:
    def test_explicit_window(self):
        code, out = run(["exponent", "--p", "7", "--n", "100", "--window", "30", "--json"])
        assert code == 0
        assert json.loads(out)["window"] == 30

    @pytest.mark.parametrize("p", [31, 97])
    def test_conj1_check_sized_from_p(self, p):
        # 50 checked quotients cannot certify the relation at these primes
        code, out = run(["exponent", "--p", str(p), "--n", "500", "--json"])
        assert code == 0
        assert json.loads(out)["nu0_closed"] == "2/3"


class TestValueSeries:
    def test_cf_value_series_matches_rational_series(self):
        cf = expand_root(quartic_state(GF(7)), 30)
        xs, ys = cf.continuants()
        s = cf.value_series(-20)
        exact = rational_series(xs[-1], ys[-1], -20)
        for e in range(2, -20, -1):
            assert s.coefficient(e) == exact.coefficient(e)

    def test_insufficient_precision_rejected(self):
        cf = expand_root(quartic_state(GF(7)), 4)
        with pytest.raises(ValueError, match="insufficient"):
            cf.value_series(-200)
