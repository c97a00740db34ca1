import argparse
import io
import json
import random
import time

import pytest

from hqcf import perfect, quartic
from hqcf.cf import ContinuedFraction, ScalarCFUndefined
from hqcf.cli import MAX_PARSED_DEGREE, build_parser, main, parse_polynomial
from hqcf.fields import GF, MAX_MODULUS
from hqcf.polynomials import Polynomial

F13 = GF(13)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


class TestParsePolynomial:
    def test_the_quartic(self):
        coeffs = parse_polynomial("X^4+X^2-T*X-1/12", F13)
        # -1/12 = 1, -T = 12T mod 13
        assert coeffs[0] == poly(F13, 1)
        assert coeffs[1] == poly(F13, 0, 12)
        assert coeffs[2] == poly(F13, 1)
        assert coeffs[3].is_zero()
        assert coeffs[4] == poly(F13, 1)

    def test_quadratic(self):
        coeffs = parse_polynomial("X^2 - T*X + 1", GF(7))
        assert [c.format() for c in coeffs] == ["1", "6*T", "1"]

    def test_denominator_divisible_by_p(self):
        with pytest.raises(ValueError, match="not embeddable"):
            parse_polynomial("X^2 - X/13", F13)

    def test_syntax_error(self):
        with pytest.raises(ValueError):
            parse_polynomial("X^2 - )", F13)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_polynomial("X^2 - Y", F13)

    def test_nonconstant_divisor(self):
        with pytest.raises(ValueError):
            parse_polynomial("X/T", F13)

    @pytest.mark.parametrize("text, message", [
        ("X^T", "exponents must be nonnegative integer literals"),
        ("X % T", "unsupported operator"),
        ("1.5*X", "unsupported constant 1.5"),
        ("f(X)", "unsupported syntax"),
        ("T^2 + 1", "polynomial must have degree >= 1 in X"),
    ])
    def test_rejected_input_names_its_fault(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_polynomial(text, F13)
        assert str(info.value).startswith(message)

    def test_huge_power_rejected_before_expansion(self):
        t0 = time.perf_counter()
        for text in ("(X+T)^100000", "X^2 + T^100000*X", "(X^2 + T)^200"):
            with pytest.raises(ValueError, match="would exceed degree"):
                parse_polynomial(text, GF(5))
        assert time.perf_counter() - t0 < 2.0

    def test_huge_product_rejected(self):
        with pytest.raises(ValueError, match="would exceed degree"):
            parse_polynomial("(X+T)^200 * (X+T)^100", GF(5))

    def test_powers_up_to_the_bound_parse(self):
        coeffs = parse_polynomial(f"(X+T)^{MAX_PARSED_DEGREE}", GF(5))
        assert len(coeffs) == MAX_PARSED_DEGREE + 1
        # a constant base has degree 0 at any exponent
        assert parse_polynomial("X^2 + 2^1000000000*X", GF(5))[1] == poly(GF(5), 1)

    def test_seeded_quartics_parse(self):
        # the dominance-normalized quartics c4*X^4 + (T + c3)*X^3 + ... + c0
        rng = random.Random(0)
        for _ in range(20):
            c0, c1, c2, c3, c4 = (rng.randrange(1, 13) for _ in range(5))
            text = f"{c4}*X^4 + (T + {c3})*X^3 + {c2}*X^2 + {c1}*X + {c0}"
            coeffs = parse_polynomial(text, F13)
            assert coeffs == [
                poly(F13, c0), poly(F13, c1), poly(F13, c2), poly(F13, c3, 1), poly(F13, c4),
            ]

    def test_unary_signs(self):
        # the --poly form of the quartic state starts with a unary minus
        assert parse_polynomial("-X^4/12 - T*X^3 + X^2 + 1", F13) == list(quartic.quartic_state(F13).coeffs)
        assert parse_polynomial("+X", F13) == [poly(F13), poly(F13, 1)]
        with pytest.raises(ValueError, match="unsupported unary operator"):
            parse_polynomial("~X", F13)


class TestExpandCommand:
    def test_quartic_p13(self):
        code, out = run(["expand", "--quartic", "--p", "13", "--n", "6"])
        assert code == 0
        lines = out.strip().splitlines()
        heads = [ln.split(" = ")[1].split("  ")[0] for ln in lines]
        assert heads == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]

    def test_json_roundtrip(self):
        code, out = run(["expand", "--quartic", "--p", "13", "--n", "6", "--json"])
        assert code == 0
        d = json.loads(out)
        cf = ContinuedFraction.from_json_dict(d)
        assert [q.format() for q in cf] == ["T", "12*T", "7*T", "11*T", "8*T", "5*T"]

    def test_json_roundtrip_of_no_quotients(self):
        code, out = run(["expand", "--quartic", "--p", "13", "--n", "0", "--json"])
        assert code == 0
        cf = ContinuedFraction.from_json_dict(json.loads(out))
        assert cf.field == F13 and len(cf) == 0
        assert json.loads(out) == cf.to_json_dict()

    def test_denominator_named_as_written(self, capsys):
        # 26 reduces to 0 mod 13; the message names the 26 the user wrote
        code, out = run(["expand", "--poly", "X^2 - X/26", "--p", "13"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: denominator 26 is divisible by p = 13; rational not embeddable\n")
        with pytest.raises(ValueError, match=r"^denominator \(T - T\) \* 3 is divisible by p = 13"):
            parse_polynomial("X/((T - T) * 3)", F13)

    def test_poly_input(self):
        code, out = run(["expand", "--poly", "X^2 - T*X + 1", "--p", "5", "--n", "4"])
        assert code == 0
        assert [ln.split(" = ")[1].split("  ")[0] for ln in out.strip().splitlines()] == [
            "T", "4*T", "T", "4*T",
        ]

    def test_composite_p_is_usage_error(self):
        code, _ = run(["expand", "--quartic", "--p", "15", "--n", "3"])
        assert code == 2

    def test_huge_p_is_a_quick_usage_error(self, capsys):
        # trial division of 10^18 + 3 takes minutes; the cap comes first
        start = time.perf_counter()
        code, out = run(["expand", "--quartic", "--p", "1000000000000000003", "--n", "3"])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert f"supported range (at most {MAX_MODULUS})" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["expand", "--quartic", "--n", "3"],
        ["generate", "--l", "1", "--k", "1", "--e1", "1", "--e2", "1", "--lambdas", "1"],
        ["verify", "prop1"],
        ["verify", "prop2"],
        ["verify", "conj1"],
        ["verify", "conj2"],
        ["exponent"],
    ])
    def test_every_p_path_caps_before_is_prime(self, argv, capsys):
        # a prime far above the cap: trial division would run for minutes
        start = time.perf_counter()
        code, out = run(argv + ["--p", "1000000000000000003"])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert f"supported range (at most {MAX_MODULUS})" in capsys.readouterr().err

    def test_even_p_rejected(self):
        code, _ = run(["expand", "--poly", "X/2", "--p", "2", "--n", "3"])
        assert code == 2

    def test_dominance_violation_is_usage_error(self):
        code, _ = run(["expand", "--poly", "X^2 - T^2*X + T^4", "--p", "7", "--n", "3"])
        assert code == 2

    def test_missing_input_source(self):
        code, _ = run(["expand", "--p", "13", "--n", "3"])
        assert code == 2

    @pytest.mark.parametrize("source", [["--quartic"], ["--poly", "X^2 - T*X + 1"]])
    def test_negative_n_is_usage_error(self, source, capsys):
        code, out = run(["expand", *source, "--p", "13", "--n", "-5"])
        assert code == 2 and out == ""
        assert "n must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--poly", "X^2 - T^3*X + 1", "--k", "9"],  # 2k >= p
        ["--poly", "X^2 - T^3*X + 1", "--k", "9", "--json"],
        ["--poly", "X^2 - T*X + 1", "--k", "0"],  # every quotient of degree 1
    ])
    def test_annotation_k_out_of_range_is_usage_error(self, argv, capsys):
        code, out = run(["expand", "--p", "7", "--n", "3", *argv])
        assert code == 2 and out == ""
        assert "need 1 <= k < p/2" in capsys.readouterr().err

    def test_annotation_k_check_is_bounded(self):
        # the largest k at p = 100003: its check builds neither P_k nor Q_k
        start = time.perf_counter()
        code, out = run(["expand", "--poly", "X^2 - T*X + 1", "--p", "100003", "--n", "3", "--k", "50000"])
        assert time.perf_counter() - start < 1
        assert code == 0 and out.splitlines()[0] == "a_1 = T  [= 1*A[0,k]]"

    @pytest.mark.parametrize("p, k", [(10007, 5001), (10007, 5002), (10007, 5003), (30011, 15005)])
    def test_annotation_builds_no_level_past_the_quotients(self, p, k):
        # deg A_1 = p - 2k is 5, 3, 1 and 1 against quotients of degree 2, so
        # no level past A_0 is built (A_1 alone took seconds at these k)
        start = time.perf_counter()
        code, out = run(["expand", "--poly", "X^2 - T^2*X + 1", "--p", str(p), "--n", "3", "--k", str(k)])
        assert time.perf_counter() - start < 1
        assert code == 0 and out == f"a_1 = T^2\na_2 = {p - 1}*T^2\na_3 = T^2\n"

    @pytest.mark.parametrize("k", ["9", "2"])
    def test_k_with_quartic_is_usage_error(self, k, capsys):
        # --quartic fixes its own annotation; a --k next to it is not ignored
        code, out = run(["expand", "--quartic", "--p", "7", "--n", "3", "--k", k])
        assert code == 2 and out == ""
        assert "--k applies to --poly" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["5", "1000000000000000003"])
    def test_quartic_with_poly_is_usage_error(self, p, capsys):
        # neither root may win silently; the clash is reported before --p is checked
        code, out = run(["expand", "--quartic", "--poly", "X^2 - T*X + 1", "--p", p, "--n", "2"])
        assert code == 2 and out == ""
        assert "--quartic and --poly are exclusive" in capsys.readouterr().err


class TestGenerateCommand:
    def test_published_spec_p7(self):
        code, out = run([
            "generate", "--p", "7", "--n", "8", "--l", "3", "--k", "2",
            "--e1", "3", "--e2", "5", "--lambdas", "2,6,6",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("a_1 = 2*T")
        assert "3*T^3 + 6*T" in lines[3]
        assert "A[1,k]" in lines[3]

    def test_invalid_spec_is_usage_error(self):
        code, _ = run([
            "generate", "--p", "7", "--n", "8", "--l", "3", "--k", "2",
            "--e1", "3", "--e2", "5", "--lambdas", "2,6,4",
        ])
        assert code == 2

    def test_missing_parameter(self):
        code, _ = run(["generate", "--p", "7", "--n", "8", "--l", "3", "--k", "2"])
        assert code == 2


class TestVerifyCommands:
    def test_prop1_single(self):
        code, out = run(["verify", "prop1", "--p", "13", "--k", "4"])
        assert code == 0
        assert "PASS" in out and "theta = 2" in out
        assert "v = 7,10,5,12,9,11,1,5" in out

    def test_prop1_sweep_json(self):
        code, out = run(["verify", "prop1", "--p", "7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert [row["k"] for row in payload] == [1, 2, 3]
        assert all(row["pass"] for row in payload)

    def test_conj1_n_help_names_the_comparison(self):
        # verify conj1's --n counts only the generated quotients it compares;
        # every other --n is the number of quotients
        def n_help(*names):
            parser = build_parser()
            for name in names:
                sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
                parser = sub.choices[name]
            return next(a.help for a in parser._actions if a.dest == "n")

        assert n_help("verify", "conj1") == "number of generated quotients compared with the direct expansion"
        for names in (["expand"], ["generate"], ["exponent"]):
            assert n_help(*names) == "number of partial quotients"

    def test_prop2_single(self):
        code, out = run(["verify", "prop2", "--p", "7", "--k", "1", "--i", "1"])
        assert code == 0 and "PASS" in out

    def test_prop2_sweep_json(self):
        code, out = run(["verify", "prop2", "--p", "7", "--json"])
        assert code == 0
        rows = json.loads(out)
        assert [(r["k"], r["i"]) for r in rows] == [(k, i) for k in (1, 2, 3) for i in (1, 2, 3)]
        for r in rows:
            assert r["pass"] is True and r["defined"] is True and r["reason"] == ""
            assert r["entries"] == (2 * r["k"] - 1) * (2 * r["i"] + 1) + 1

    def test_prop2_undefined_construction_is_reported_not_failed(self, monkeypatch):
        # no delta_j is 0 at any prime 5 <= p < 400, so the verdict is forced
        def undefined(field, heads):
            raise ScalarCFUndefined(2, "r_2 = 0")

        monkeypatch.setattr(perfect, "running_scalar_cf", undefined)
        reason = "construction undefined: delta_2 = 0 in the block construction"
        code, out = run(["verify", "prop2", "--p", "7", "--k", "2", "--i", "1"])
        assert code == 0
        assert out == f"prop2 p=7 k=2 i=1: UNDEFINED ({reason})\n"
        code, out = run(["verify", "prop2", "--p", "7", "--k", "2", "--i", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "p": 7, "k": 2, "i": 1, "pass": False, "defined": False, "entries": 0, "reason": reason,
        }

    def test_conj1_json_schema(self):
        code, out = run(["verify", "conj1", "--p", "7", "--n", "50", "--json"])
        assert code == 0
        d = json.loads(out)
        assert d["pass"] is True
        assert d["epsilon1"] == 3 and d["epsilon2"] == 5 and d["a"] == 6
        assert d["a_equals_8_27"] is True and d["compared_terms"] == 50

    @pytest.mark.parametrize("argv, code, want", [
        (["conj1", "--p", "7", "--n", "50"], 0,
         "conj1 p=7: PASS\n"
         "  relation: alpha^p = 3*(T^2+6)^k*alpha_(l+1) + 5*Q  (a == 8/27 mod p: True)\n"
         "  compared terms: 50\n"),
        (["conj1", "--p", "7", "--n", "50", "--json"], 0,
         '{"p": 7, "pass": true, "epsilon1": 3, "epsilon2": 5, "a": 6, "a_equals_8_27": true,'
         ' "compared_terms": 50, "stage": "", "detail": ""}\n'),
        (["conj2", "--p", "5"], 0,
         "conj2 p=5: PASS  (l=12, k'=8, k=2)\n"
         "  alpha^(p^2) = 4*(T^2+4)^k'*alpha_(l+1) + 3*Q^p  (a == 8/27 mod p: True)\n"),
        (["conj2", "--p", "5", "--json"], 0,
         '{"p": 5, "pass": true, "l": 12, "k_prime": 8, "k": 2, "epsilon1": 4, "epsilon2": 3,'
         ' "a": 4, "a_equals_8_27": true, "detail": ""}\n'),
        (["conj2", "--p", "5", "--l", "13"], 1,
         "conj2 p=5: FAIL  (l=13, k'=8, k=2)\n"
         "  detail: prefix: a_(r+1)/a_r has 12 quotients, not l = 13\n"),
        (["conj2", "--p", "5", "--l", "13", "--json"], 1,
         '{"p": 5, "pass": false, "l": 13, "k_prime": 8, "k": 2, "epsilon1": null, "epsilon2": null,'
         ' "a": null, "a_equals_8_27": null,'
         ' "detail": "prefix: a_(r+1)/a_r has 12 quotients, not l = 13"}\n'),
    ])
    def test_conjecture_stdout_is_pinned(self, argv, code, want):
        # the exact bytes of each conjecture command, text and JSON: a pass of
        # each and conj2's failing control, whose detail names its stage (the
        # prefix stage, whose Euclid of a_(r+1)/a_r ends after the true l = 12)
        assert run(["verify", *argv]) == (code, want)

    def test_conj2_pass(self):
        code, out = run(["verify", "conj2", "--p", "5", "--json"])
        assert code == 0
        d = json.loads(out)
        assert d["pass"] is True and d["l"] == 12

    def test_conj2_pass_text(self):
        code, out = run(["verify", "conj2", "--p", "5"])
        assert code == 0
        assert out.splitlines() == [
            "conj2 p=5: PASS  (l=12, k'=8, k=2)",
            "  alpha^(p^2) = 4*(T^2+4)^k'*alpha_(l+1) + 3*Q^p  (a == 8/27 mod p: True)",
        ]

    def test_conj2_has_no_n(self):
        # the verdict reads the first l quotients alone; --n is not an option
        with pytest.raises(SystemExit) as exc:
            run(["verify", "conj2", "--p", "5", "--n", "14"])
        assert exc.value.code == 2

    def test_conj2_wrong_l_fails_with_exit_1(self):
        code, out = run(["verify", "conj2", "--p", "5", "--l", "13"])
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("l", ["0", "-3"])
    def test_conj2_nonpositive_l_is_usage_error(self, l, capsys):
        code, out = run(["verify", "conj2", "--p", "5", "--l", l])
        assert code == 2 and out == ""
        assert "l must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["prop1", "--k", "0"],
        ["prop2", "--k", "0", "--i", "1"],
        ["prop2", "--k", "1", "--i", "0"],
    ])
    def test_zero_k_or_i_is_usage_error_not_a_sweep(self, argv, capsys):
        # 0 is a value, not "not given": the library rejects it
        code, out = run(["verify", argv[0], "--p", "7", *argv[1:]])
        assert code == 2 and out == ""
        assert "< p/2, got" in capsys.readouterr().err

    def test_conj1_wrong_residue_is_usage_error(self):
        code, _ = run(["verify", "conj1", "--p", "11", "--n", "20"])
        assert code == 2


class TestExponentCommand:
    def test_p7_json(self):
        code, out = run(["exponent", "--p", "7", "--n", "120", "--json"])
        assert code == 0
        d = json.loads(out)
        assert d["nu0_closed"] == "2/3" and d["nu_closed"] == "8/3"

    def test_zero_window_is_usage_error(self):
        code, out = run(["exponent", "--p", "5", "--n", "1"])  # a window of n - 1 = 0 ratios
        assert code == 2 and out == ""

    def test_unconfirmed_perfect_pattern_is_usage_error(self, monkeypatch, capsys):
        # p = 1 mod 3 reads the generator behind conj1; a failing verdict prints nothing
        detail = "generated and direct expansions differ at index 4"
        monkeypatch.setattr(quartic, "verify_conjecture1",
                            lambda p, n: quartic.RelationVerdict(p, False, "comparison", detail))
        code, out = run(["exponent", "--p", "13", "--n", "50"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: perfect pattern not confirmed for p=13: {detail}\n"

    def test_p5_direct_route(self):
        # up to l = 12 the quotients are the direct expansion's; past it, the relation's
        code, out = run(["exponent", "--p", "5", "--n", "12", "--json"])
        assert code == 0
        d = json.loads(out)
        assert d["nu0_closed"] is None and d["source"] == "direct root expansion"
        code, out = run(["exponent", "--p", "5", "--n", "40", "--json"])
        assert code == 0
        d = json.loads(out)
        assert d["nu0_closed"] is None
        assert d["source"] == "Frobenius relation of degree r = 25 past its prefix, the 12 quotients of a_(r+1)/a_r"

    def test_relation_route_input_past_the_cap_is_usage_error(self, monkeypatch, capsys):
        # at p = 5 the route reads a_14(T^25), of degree 25 * 41 = 1025, by n = 130
        for command in (["expand", "--quartic"], ["exponent"]):
            monkeypatch.setattr(perfect, "MAX_A_DEGREE", 1024)
            code, out = run([*command, "--p", "5", "--n", "130"])
            assert code == 2 and out == ""
            assert "a_14(T^25) has degree 1025, past 1024" in capsys.readouterr().err
            monkeypatch.setattr(perfect, "MAX_A_DEGREE", 1025)
            assert run([*command, "--p", "5", "--n", "130"])[0] == 0

    def test_p5_relation_route_reads_the_direct_degrees(self, monkeypatch):
        # past l = 12 the quotients come from conj2's relation; with the
        # derivation refused they come from the direct expansion, and only
        # the source differs
        code, out = run(["exponent", "--p", "5", "--n", "130", "--json"])
        relation = json.loads(out)
        assert code == 0
        assert relation.pop("source") == (
            "Frobenius relation of degree r = 25 past its prefix, the 12 quotients of a_(r+1)/a_r")

        def fail(p, **kwargs):
            raise quartic.DerivationError("degree", "refused for the test")

        monkeypatch.setattr(quartic, "derive_frobenius_relation", fail)
        code, out = run(["exponent", "--p", "5", "--n", "130", "--json"])
        direct = json.loads(out)
        assert code == 0 and direct.pop("source") == "direct root expansion"
        assert relation == direct and relation["nu0_empirical"] == "1041/521"


class TestDeterminism:
    def test_byte_identical_repeat_runs(self):
        for argv in (
            ["expand", "--quartic", "--p", "13", "--n", "30"],
            ["verify", "prop1", "--p", "13"],
            ["verify", "conj1", "--p", "7", "--n", "40", "--json"],
        ):
            _, out1 = run(argv)
            _, out2 = run(argv)
            assert out1 == out2
