import io
import json

import pytest

from hqcf import cli, perfect, quartic
from hqcf.fields import GF
from hqcf.laurent import rational_series
from hqcf.polynomials import Polynomial
from hqcf.quartic import quartic_state
from hqcf.rootcf import expand_root
from support import run


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
        disc = (e2 * e2 + 2 * e1) % 13
        lam1 = disc * (-2) ** 2 * F.inv(e2) % 13
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


class TestGenerateValidation:
    @pytest.fixture
    def no_tower(self, monkeypatch):
        # a rejected input must fail before any A_{i,k} is built; every
        # level is built by one _frobenius_divmod_pk
        def refuse(*args):
            raise AssertionError("the A_{i,k} tower was built")

        monkeypatch.setattr(perfect, "_frobenius_divmod_pk", refuse)

    def test_negative_n(self):
        code, out = run([
            "generate", "--p", "7", "--n", "-3", "--l", "1", "--k", "1",
            "--e1", "1", "--e2", "1", "--lambdas", "3",
        ])
        assert code == 2 and out == ""

    def test_negative_index(self, no_tower):
        code, out = run([
            "generate", "--p", "7", "--n", "4", "--l", "1", "--k", "1",
            "--e1", "2", "--e2", "1", "--lambdas", "1", "--indices", "-1",
        ])
        assert code == 2 and out == ""

    def test_index_past_degree_bound(self, no_tower):
        # a valid spec (theta^30 = 1 mod 7) whose A_{30,1} has degree ~ 7^30/3
        code, out = run([
            "generate", "--p", "7", "--n", "4", "--l", "1", "--k", "1",
            "--e1", "1", "--e2", "1", "--lambdas", "3", "--indices", "30",
        ])
        assert code == 2 and out == ""

    def test_prop1_tower_past_the_degree_bound(self, no_tower, capsys):
        # Prop. 1 checks A_0 .. A_3; at p = 1009, k = 1 deg A_3 is 1,025,205,547
        code, out = run(["verify", "prop1", "--p", "1009", "--k", "1"])
        assert code == 2 and out == ""
        assert f"past degree {perfect.MAX_A_DEGREE}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [["--k", "158", "--i", "1"], []], ids=["case", "sweep"])
    def test_prop2_past_the_degree_cap(self, case, no_tower, capsys):
        # deg P_(kp-i) = 100,170 at p = 317, k = 158, i = 1; the sweep runs
        # that case, its largest, first, so no case's A_(1,i) is built
        code, out = run(["verify", "prop2", "--p", "317", *case])
        assert code == 2 and out == ""
        assert f"= 100170 at k = 158, i = 1 is past {perfect.MAX_PROP2_DEGREE}" in capsys.readouterr().err

    def test_generated_index_past_degree_bound(self, no_tower):
        # indices grow with n: at p = 97, k = 1 quotient 41 is a multiple of
        # A_{4,1}, of degree about 97^4
        perfect.ExpansionSpec(GF(97), 1, 1, 49, 1, (2,)).validate()
        code, out = run([
            "generate", "--p", "97", "--n", "41", "--l", "1", "--k", "1",
            "--e1", "49", "--e2", "1", "--lambdas", "2",
        ])
        assert code == 2 and out == ""

    def test_generated_tower_past_the_cap_before_any_array(self, no_tower, monkeypatch, capsys):
        # the (7, 3, 2) spec reaches A_(10,2) by n = 8,000,000; the top index
        # is refused in closed form, before the three int64 arrays of n
        # entries (about 190 MB) are made
        monkeypatch.setattr(perfect.np, "zeros", None)
        code, out = run([
            "generate", "--p", "7", "--n", "8000000", "--l", "3", "--k", "2",
            "--e1", "3", "--e2", "5", "--lambdas", "2,6,6",
        ])
        assert code == 2 and out == ""
        assert "index 10 asks for A_(10,k) past degree" in capsys.readouterr().err


class TestExponentDerivesOnce:
    def test_relation_derived_once(self, monkeypatch):
        calls = []
        derive = quartic.derive_frobenius_relation

        def counted(p, **kwargs):
            calls.append(p)
            return derive(p, **kwargs)

        monkeypatch.setattr(quartic, "derive_frobenius_relation", counted)
        code, _ = run(["exponent", "--p", "7", "--n", "120"])
        assert code == 0
        assert calls == [7]


class TestExponentWindow:
    def test_explicit_window(self):
        code, out = run(["exponent", "--p", "7", "--n", "31", "--json"])
        assert code == 0
        assert json.loads(out)["window"] == 30

    @pytest.mark.parametrize("p", [31, 97])
    def test_conj1_check_sized_from_p(self, p):
        # the conj1 verdict behind the generator compares max(50, 2p) quotients
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


def spec_with_indices(rng, p, l, k, indices):
    """A valid type (p, l, k) spec with prescribed prefix indices: draw the
    lambdas and eps2 until every delta_n exists, then solve eps1 from the
    anchor condition delta_l = 2k*eps1/eps2."""
    theta = perfect.family_constants(GF(p), k).theta
    while True:
        lambdas = [rng.randrange(1, p) for _ in range(l)]
        eps2 = rng.randrange(1, p)
        prev = 2 * k * theta * pow(eps2, -1, p) % p
        for lam, i in zip(lambdas, indices):
            if prev == 0:
                break
            prev = (pow(theta, i, p) * lam + pow(prev, -1, p)) % p
        else:
            if prev:
                eps1 = prev * eps2 * pow(2 * k, -1, p) % p
                return {"p": p, "l": l, "k": k, "eps1": eps1, "eps2": eps2,
                        "lambdas": tuple(lambdas), "indices": tuple(indices)}


def reference_render(cf, k, as_json):
    """The printer before symbolic quotients: every quotient built,
    formatted and matched against A[i,k] line by line, with the tower
    built by generic division, A_(i+1) = A_i^p // P_k."""
    field = cf.field
    if as_json:
        return json.dumps({"p": field.p, "pq": [q.to_json_dict() for q in cf.quotients]}) + "\n"
    A = []
    if k is not None:
        # the levels whose degree rises and stays within the quotients'
        P, _ = perfect.pq_polynomials(field, k)
        max_deg = max((q.degree for q in cf.quotients), default=1)
        A = [Polynomial.x(field)]
        while A[-1].degree < (nxt := A[-1].pow_frobenius() // P).degree <= max_deg:
            A.append(nxt)
    lines = []
    for n, q in enumerate(cf.quotients, start=1):
        note = ""
        for i, a in enumerate(A):
            if a.degree == q.degree and not a.is_zero():
                c = q.leading_coefficient() * field.inv(a.leading_coefficient()) % field.p
                if q == a.scaled(c):
                    note = f"  [= {c}*A[{i},k]]"
                    break
        lines.append(f"a_{n} = {q.format()}{note}\n")
    return "".join(lines)


def generate_argv(spec, n):
    argv = [
        "generate", "--p", str(spec["p"]), "--n", str(n), "--l", str(spec["l"]),
        "--k", str(spec["k"]), "--e1", str(spec["eps1"]), "--e2", str(spec["eps2"]),
        "--lambdas", ",".join(map(str, spec["lambdas"])),
    ]
    if spec.get("indices"):
        argv += ["--indices", ",".join(map(str, spec["indices"]))]
    return argv


def generated(spec, n):
    es = perfect.ExpansionSpec(
        GF(spec["p"]), spec["l"], spec["k"], spec["eps1"], spec["eps2"],
        spec["lambdas"], spec.get("indices", ()),
    )
    return perfect.generate_perfect_expansion(es, n)


class TestSymbolicPrinter:
    # (p, l, k, prefix indices, n); 2k = p - 1 for (7, 2, 3) and
    # (11, 1, 5).  At p = 101 the index stays <= 2 for n <= 13 (A_2 has
    # degree 9997), and n = 0 prints an empty expansion.
    CASES = [
        (7, 3, 2, (0, 0, 0), 400), (5, 2, 1, (0, 0), 400), (13, 2, 3, (0, 0), 400),
        (7, 2, 3, (0, 0), 400), (11, 1, 5, (0,), 400), (7, 3, 2, (1, 0, 2), 400),
        (5, 1, 1, (3,), 400), (7, 2, 3, (2, 1), 400), (101, 1, 1, (0,), 13),
        (7, 3, 2, (0, 0, 0), 0),
    ]

    @pytest.fixture(scope="class")
    def specs(self):
        """[(spec, n)] for the CASES, in order."""
        import random

        rng = random.Random("printer")
        return [(spec_with_indices(rng, p, l, k, indices), n) for p, l, k, indices, n in self.CASES]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_matches_line_by_line_render(self, specs, as_json):
        for spec, n in specs:
            argv = generate_argv(spec, n) + (["--json"] if as_json else [])
            code, out = run(argv)
            assert code == 0, spec
            assert out == reference_render(generated(spec, n), spec["k"], as_json), spec

    def test_extremal_k_names_a0(self, specs):
        spec, _ = specs[7]  # p = 7, k = 3 = (p-1)/2, indices (2, 1)
        _, out = run(generate_argv(spec, 30))
        lines = out.splitlines()
        assert len(lines) == 30
        assert all(ln.endswith("*A[0,k]]") for ln in lines)

    def test_renders_from_the_tower_alone(self, specs, monkeypatch):
        # lambda*A_i is written from A_i's coefficients: no scaled
        # polynomial is built and the tower is not extended
        scaled = []

        def spy(self, c):
            scaled.append(c)
            return Polynomial(self.field, [a * c for a in self.coeffs])

        def refuse(*args):
            raise AssertionError("the tower was rebuilt for a generated expansion")

        for spec, n in specs:
            cf = generated(spec, n)
            with monkeypatch.context() as mp:
                mp.setattr(Polynomial, "scaled", spy)
                mp.setattr(cli, "a_sequence", refuse)
                for as_json in (False, True):
                    out = io.StringIO()
                    cli._print_expansion(cf, as_json, spec["k"], out)
                    assert out.getvalue().count("\n") == (1 if as_json else n), spec
            assert scaled == [], spec


class TestExpandTower:
    def test_each_level_divided_once(self, monkeypatch):
        real = perfect._frobenius_divmod_pk
        divided = []

        def counted(field, a, k):
            divided.append(tuple(a.tolist()))
            return real(field, a, k)

        monkeypatch.setattr(perfect, "_frobenius_divmod_pk", counted)
        # at p = 7 the quotients are multiples of A_0 .. A_3: three divisions,
        # where rebuilding the tower at every level took 1 + 2 + 3
        code, out = run(["expand", "--quartic", "--p", "7", "--n", "400"])
        assert code == 0 and "A[3,k]" in out and "A[4,k]" not in out
        assert len(divided) == len(set(divided)) == 3
