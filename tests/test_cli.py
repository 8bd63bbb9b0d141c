import json
import os

import pytest

from h5twistor import cli, twistor
from h5twistor.exactalg import CRational, RationalFunction
from h5twistor.heisenberg import CTX5


def rf(name):
    return RationalFunction.var(CTX5, name)


class TestExpressionGrammar:
    def test_basic(self):
        assert cli.parse_expression("y00p + 2*t") == rf("y00p") + 2 * rf("t")

    def test_precedence(self):
        assert cli.parse_expression("1 + 2*y10p^2") == 1 + 2 * rf("y10p") ** 2

    def test_parentheses_and_division(self):
        got = cli.parse_expression("(y00p + t) / (y11p - 3)")
        assert got == (rf("y00p") + rf("t")) / (rf("y11p") - 3)

    def test_imaginary_unit(self):
        got = cli.parse_expression("i*t")
        assert got == RationalFunction.const(CTX5, CRational(0, 1)) * rf("t")

    def test_unary_minus(self):
        assert cli.parse_expression("-t + y00p") == rf("y00p") - rf("t")

    def test_errors(self):
        for bad in ("y00p +", "(t", "q", "t $ 2", "2^t"):
            with pytest.raises(cli.ExprError):
                cli.parse_expression(bad)

    def test_division_by_zero(self):
        with pytest.raises(cli.ExprError):
            cli.parse_expression("t / (y00p - y00p)")


class TestVerify:
    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_fast_suites_pass(self, tmp_path):
        for suite in ("algebra", "heisenberg", "gauge", "ansatz", "twistor", "so6"):
            out = tmp_path / f"{suite}.json"
            assert cli.main(["verify", "--suite", suite, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["schema"] == 1
            assert report["suite"] == suite
            assert all(e["status"] != "fail" for e in report["entries"])

    def test_so6_has_seven_exact_entries(self, tmp_path):
        out = tmp_path / "so6.json"
        cli.main(["verify", "--suite", "so6", "--out", str(out)])
        report = json.loads(out.read_text())
        assert len(report["entries"]) == 7
        assert all(e["status"] == "exact-pass" for e in report["entries"])

    def test_entries_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["verify", "--suite", "gauge", "--seed", "7", "--out", str(a)])
        cli.main(["verify", "--suite", "gauge", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        ids = [e["id"] for e in json.loads(a.read_text())["entries"]]
        assert ids == sorted(ids)


class TestConstruct:
    def test_harmonic_seed_accepted(self, tmp_path, capsys):
        out = tmp_path / "conn.json"
        assert cli.main(["construct", "--phi", "t", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rank"] == 2
        assert payload["asd_residuals_zero"] == [True, True, True]
        assert set(payload["blocks"]) == {"phi00p", "phi10p", "phi01p", "phi11p", "phit"}

    def test_expression_seed(self, tmp_path):
        out = tmp_path / "conn.json"
        code = cli.main(["construct", "--phi", "y00p*y10p", "--out", str(out)])
        assert code == 0

    def test_non_harmonic_rejected(self, capsys):
        assert cli.main(["construct", "--phi", "y00p*y11p"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert "not harmonic" in err["error"]

    def test_bad_expression(self, capsys):
        assert cli.main(["construct", "--phi", "y00p +"]) == 2


class TestEval:
    POINT = json.dumps(
        {"y00p": "1", "y10p": "1/2", "y01p": "-1/3", "y11p": "2", "t": "1/4+1*i"}
    )

    def test_eta_golden(self, tmp_path):
        out = tmp_path / "eta.json"
        code = cli.main(
            ["eval", "--object", "eta", "--point", self.POINT, "--zeta", "1/2", "--out", str(out)]
        )
        assert code == 0
        val = json.loads(out.read_text())["value"]
        assert val["w0"] == "5/6" and val["w1"] == "3/2"

    def test_curvature_vanishes(self, tmp_path):
        out = tmp_path / "curv.json"
        code = cli.main(
            ["eval", "--object", "curvature", "--phi", "inst", "--point", self.POINT, "--out", str(out)]
        )
        assert code == 0
        val = json.loads(out.read_text())["value"]
        flat = [abs(complex(*e)) for r in val for row in r for e in row]
        assert max(flat) == 0.0

    def test_singular_point_rejected(self, capsys):
        assert cli.main(["eval", "--object", "connection", "--phi", "inst"]) == 1
        err = json.loads(capsys.readouterr().out)
        assert "singular" in err["error"]


    def test_fhplus_instanton_vanishes(self, capsys):
        assert cli.main(["eval", "--object", "fhplus", "--phi", "inst"]) == 0
        val = json.loads(capsys.readouterr().out)["value"]
        assert val == [[[[0.0, 0.0]] * 2] * 2] * 3


POINT_1E400 = json.dumps({"y00p": "1", "y10p": "1/2", "y01p": "-1/3", "y11p": "2", "t": "1e400"})
POINT_1E200 = json.dumps({"y00p": "1e200", "y10p": "1e200", "y01p": "0", "y11p": "1e200", "t": "1"})
UNWRITABLE = os.path.join(os.devnull, "r.json")

BAD_INPUT = [
    (["eval", "--object", "connection", "--phi", "y00p +"], 2),
    (["eval", "--object", "eta", "--point", "{bad"], 2),
    (["eval", "--object", "eta", "--point", "{}"], 2),
    (["eval", "--object", "eta", "--zeta", "abc"], 2),
    (["eval", "--object", "eta", "--point", '{"y00p": 1, "y10p": "0", "y01p": "0", "y11p": "0", "t": "0"}'], 2),
    (["eval", "--object", "eta", "--point", '{"y00p": "1/0", "y10p": "0", "y01p": "0", "y11p": "0", "t": "0"}'], 2),
    (["construct", "--phi", "t", "--phit", '[["t+", "0"], ["0", "0"]]'], 2),
    (["construct", "--phi", "t", "--phit", '[["t"]]'], 2),
    (["construct", "--phi", "t", "--phit", "[["], 2),
    (["construct", "--phi", "y00p +"], 2),
    (["eval", "--object", "connection", "--phi", "y00p*y11p"], 1),
    (["eval", "--object", "fhplus", "--phi", "y00p*y11p"], 1),
    (["construct", "--phi", "y00p*y11p"], 1),
    (["real", "check", "--suite", "bogus"], 2),
    (["twistor", "roundtrip", "--samples", "-1"], 2),
    (["eval", "--object", "eta", "--zeta", "*i"], 2),
    (["eval", "--object", "eta", "--zeta", "1+2"], 2),
    (["eval", "--object", "eta", "--zeta", "1-*i"], 2),
    # out of range: the packed exponent limit, float conversion, complex power
    (["construct", "--phi", "y00p^99999"], 2),
    (["eval", "--object", "connection", "--phi", "t", "--point", POINT_1E400], 2),
    (["eval", "--object", "connection", "--phi", "inst", "--point", POINT_1E200], 2),
    # an --out that cannot be written
    (["so6", "verify-all", "--out", UNWRITABLE], 2),
    (["report", "--out", UNWRITABLE], 2),
]


class TestBadInput:
    """Bad input ends in a JSON error, never a traceback: exit 2 for input
    that does not parse, exit 1 for a seed that is not harmonic."""

    @pytest.mark.parametrize(
        "argv, code", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT]
    )
    def test_json_error(self, capsys, argv, code):
        assert cli.main(argv) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1 and payload["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_real_point(self, capsys, value):
        # rejected by the argument's type, so argparse exits with code 2
        argv = ["eval", "--object", "fhplus", "--real-point", value, "0", "0", "0", "1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1 and "finite" in payload["error"]


USAGE_ERRORS = [
    [],
    ["verify", "--format", "xml"],
    ["verify", "--suite", "bogus"],
    ["construct"],
    ["twistor", "roundtrip", "--samples", "many"],
    ["verify", "--seed", "1.5"],
    ["report", "--seed", "x"],
    ["so6", "verify-all", "--seed", "1.5"],
]


class TestUsageErrors:
    """argparse's usage errors print the JSON error too, and exit 2."""

    @pytest.mark.parametrize(
        "argv", USAGE_ERRORS, ids=[" ".join(argv) or "(none)" for argv in USAGE_ERRORS]
    )
    def test_json_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1 and payload["error"]


class TestAliases:
    def test_so6_verify_all(self):
        assert cli.main(["so6", "verify-all"]) == 0

    def test_twistor_roundtrip(self):
        assert cli.main(["twistor", "roundtrip", "--samples", "5"]) == 0

    def test_twistor_roundtrip_samples(self, monkeypatch, capsys):
        calls = []
        original = twistor.alpha_plane_point

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(twistor, "alpha_plane_point", counting)

        def count(*extra):
            calls.clear()
            assert cli.main(["twistor", "roundtrip", *extra]) == 0
            return len(calls)

        # the other twistor certificates call it too, once in all
        base = count("--samples", "0")
        assert count("--samples", "3") == base + 3
        assert count() == base + 20


class TestParserCache:
    def test_built_once_without_carry_over(self, tmp_path, capsys):
        cli.build_parser.cache_clear()
        out = tmp_path / "c.json"
        assert cli.main(["construct", "--phi", "t", "--out", str(out)]) == 0
        assert cli.main(["construct", "--phi", "t"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the second call printed its report: its --out stayed unset
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())


class TestRealCheck:
    def test_named_check_runs_alone(self, capsys):
        assert cli.main(["real", "check", "--suite", "contact-instanton"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in report["entries"]] == ["realslice.contact-instanton"]
        assert report["entries"][0]["status"] == "exact-pass"

    def test_unknown_check_is_a_json_error(self, capsys):
        assert cli.main(["real", "check", "--suite", "bogus"]) == 2
        assert "unknown real-slice check" in json.loads(capsys.readouterr().out)["error"]
