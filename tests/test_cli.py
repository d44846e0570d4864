"""Command-line interface: output text, JSON documents, and exit codes."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import cyclotomic_poly, factorint, isprime, n_order, primerange
from sympy.ntheory.modular import crt

import sierpinski.cli as cli
from sierpinski.arith import Congruence, FactorBudget, Factorization
from sierpinski.cli import run
from sierpinski.construct import SierpinskiCertificate, verify_certificate
from sierpinski.covering import CoveringSystem
from sierpinski.search import SearchReport

ROOT = Path(__file__).resolve().parent.parent


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoverCommands:
    def test_verify_yes(self, capsys):
        code, out, _ = invoke(capsys, "cover", "verify", "0(2),0(3),1(4),5(6),7(12)")
        assert (code, out) == (0, "cover: yes (period 12)\n")

    def test_verify_no(self, capsys):
        code, out, _ = invoke(capsys, "cover", "verify", "0(2),1(4)")
        assert (code, out) == (1, "not a cover: witness 3\n")

    def test_verify_json(self, capsys):
        code, out, _ = invoke(capsys, "cover", "verify", "0(2),1(2)", "--json")
        assert code == 0
        assert json.loads(out) == {
            "classes": [{"a": 0, "n": 2}, {"a": 1, "n": 2}],
            "cover": True,
            "period": 2,
            "witness": None,
        }

    def test_verify_malformed(self, capsys):
        code, _, err = invoke(capsys, "cover", "verify", "garbage")
        assert code == 2
        assert "error:" in err

    def test_enumerate(self, capsys):
        code, out, _ = invoke(capsys, "cover", "enumerate", "2,2")
        assert (code, out) == (0, "0(2),1(2)\n1(2),0(2)\ncount: 2\n")

    def test_enumerate_none(self, capsys):
        code, out, _ = invoke(capsys, "cover", "enumerate", "2,3")
        assert (code, out) == (0, "count: 0\n")

    def test_enumerate_json(self, capsys):
        code, out, _ = invoke(capsys, "cover", "enumerate", "3,4,4,6,6", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 24 and len(doc["covers"]) == 24
        assert doc["moduli"] == [3, 4, 4, 6, 6]
        assert [0, 0, 2, 1, 5] in doc["covers"]

    def test_enumerate_budget(self, capsys):
        code, _, err = invoke(capsys, "cover", "enumerate", "2,2,2,2,2", "--limit", "16")
        assert code == 3
        assert "exceeds the budget" in err

    def test_enumerate_nonpositive_limit_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "cover", "enumerate", "2,2", "--limit", "-1")
        assert (code, out) == (2, "")
        assert "max_assignments must be positive" in err

    def test_enumerate_class_budget(self, capsys):
        # the DFS recurses once per class, so the class count stays far below the recursion limit
        code, _, err = invoke(capsys, "cover", "enumerate", ",".join(["1"] * 1200))
        assert code == 3
        assert "exceed the enumeration budget" in err
        code, out, _ = invoke(capsys, "cover", "enumerate", ",".join(["1"] * 64))
        assert (code, out) == (0, ",".join(["0(1)"] * 64) + "\ncount: 1\n")

    @pytest.mark.parametrize("subcommand", ["verify", "orbit"])
    def test_period_budget(self, capsys, subcommand):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "cover", subcommand, "0(997),0(991),0(983),0(977)")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds the verification budget" in err

    def test_orbit(self, capsys):
        code, out, _ = invoke(capsys, "cover", "orbit", "0(2),1(2)")
        assert (code, out) == (0, "0(2),1(2)\n1(2),0(2)\ncount: 2\n")

    def test_orbit_json(self, capsys):
        code, out, _ = invoke(capsys, "cover", "orbit", "1(2),0(2)", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "count": 2,
            "moduli": [2, 2],
            "orbit": [[0, 1], [1, 0]],
            "seed": [1, 0],
        }


class TestCycloCommands:
    def test_poly(self, capsys):
        assert invoke(capsys, "cyclo", "poly", "12")[:2] == (0, "1 0 -1 0 1\n")
        assert invoke(capsys, "cyclo", "poly", "1")[:2] == (0, "-1 1\n")

    def test_poly_json(self, capsys):
        code, out, _ = invoke(capsys, "cyclo", "poly", "6", "--json")
        assert code == 0
        assert json.loads(out) == {"coefficients": [1, -1, 1], "degree": 2, "n": 6}

    def test_eval(self, capsys):
        assert invoke(capsys, "cyclo", "eval", "6", "34")[:2] == (0, "1123\n")
        assert invoke(capsys, "cyclo", "eval", "2", "127")[:2] == (0, "128\n")

    def test_eval_json_uses_strings(self, capsys):
        code, out, _ = invoke(capsys, "cyclo", "eval", "8", "127", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 8, "value": "260144642", "x": "127"}

    def test_eval_prints_long_values(self, capsys):
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        # Phi_10007(10) = (10**10007 - 1) / 9 passes Python's default 4,300-digit str cap
        assert invoke(capsys, "cyclo", "eval", "10007", "10")[:2] == (0, "1" * 10007 + "\n")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    def test_eval_size_budget(self, capsys):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "cyclo", "eval", "65521", "9" * 4000)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "bits" in err

    def test_bad_n(self, capsys):
        assert invoke(capsys, "cyclo", "poly", "0")[0] == 2
        assert invoke(capsys, "cyclo", "poly", "x")[0] == 2

    @pytest.mark.parametrize("argv", [("poly", "65537"), ("eval", "70000", "34")])
    def test_order_budget(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "cyclo", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds the cyclotomic budget" in err


class TestFactorCommand:
    def test_text(self, capsys):
        assert invoke(capsys, "factor", "1155")[:2] == (0, "1155 = 3 * 5 * 7 * 11\n")
        assert invoke(capsys, "factor", "1024")[:2] == (0, "1024 = 2^10\n")
        assert invoke(capsys, "factor", "1")[:2] == (0, "1\n")

    def test_probable_tag(self, capsys):
        big = 2**89 - 1
        code, out, _ = invoke(capsys, "factor", str(big))
        assert (code, out) == (0, f"{big} = {big} (probable)\n")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "factor", "1336337", "--json")
        assert code == 0
        assert json.loads(out) == {
            "cofactor": "1",
            "complete": True,
            "factors": [{"certainty": "proven", "e": 1, "p": "1336337"}],
            "value": "1336337",
        }

    def test_incomplete_exit_and_marker(self, capsys, monkeypatch):
        stub = Factorization(value=391, factors=((17, 1, "proven"),), cofactor=23)
        monkeypatch.setattr(cli, "factorize", lambda x: stub)
        code, out, _ = invoke(capsys, "factor", "391")
        assert (code, out) == (3, "391 = 17 * 23 (unfactored)\n")

    def test_zero_rejected(self, capsys):
        assert invoke(capsys, "factor", "0")[0] == 2

    @pytest.mark.parametrize("error", [ZeroDivisionError, TypeError])
    def test_faults_propagate(self, monkeypatch, error):
        # exit 3 is a BudgetExceeded and exit 2 a ValueError or OSError: a
        # fault of another kind is neither a budget stop nor a usage error
        def fault(x):
            raise error("fault")

        monkeypatch.setattr(cli, "factorize", fault)
        with pytest.raises(error):
            run(["factor", "391"])

    @pytest.mark.parametrize("value", ["abc", "1"])
    def test_bad_factor_bound_env_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SIERPINSKI_FACTOR_BOUND", value)
        code, out, err = invoke(capsys, "factor", "1155")
        assert (code, out) == (2, "")
        assert "SIERPINSKI_FACTOR_BOUND" in err and repr(value) in err


class TestIsprimeCommand:
    def test_verdicts(self, capsys):
        assert invoke(capsys, "isprime", "97")[:2] == (0, "prime (proven)\n")
        assert invoke(capsys, "isprime", "95")[:2] == (1, "composite (proven)\n")
        assert invoke(capsys, "isprime", str(2**89 - 1))[:2] == (0, "prime (probable)\n")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "isprime", "561", "--json")
        assert code == 1
        assert json.loads(out) == {"certainty": "proven", "prime": False, "x": "561"}


class TestOrderAndCrt:
    def test_order(self, capsys):
        assert invoke(capsys, "order", "34", "5")[:2] == (0, "2\n")
        assert invoke(capsys, "order", "34", "1336337")[:2] == (0, "8\n")
        assert invoke(capsys, "order", "2", "7")[:2] == (0, "3\n")

    def test_order_json(self, capsys):
        code, out, _ = invoke(capsys, "order", "127", "5419", "--json")
        assert code == 0
        assert json.loads(out) == {"m": "127", "order": 3, "p": "5419"}

    def test_order_not_coprime(self, capsys):
        assert invoke(capsys, "order", "10", "5")[0] == 2

    def test_order_refuses_composite_modulus(self, capsys):
        code, out, err = invoke(capsys, "order", "2", "9")
        assert (code, out) == (2, "")
        assert "prime" in err

    def test_crt(self, capsys):
        assert invoke(capsys, "crt", "4,5", "1,7")[:2] == (0, "29 (mod 35)\n")
        assert invoke(capsys, "crt", "4,5 1,7")[:2] == (0, "29 (mod 35)\n")

    def test_crt_json(self, capsys):
        code, out, _ = invoke(capsys, "crt", "6,7", "1,5", "--json")
        assert code == 0
        assert json.loads(out) == {"modulus": "35", "residue": "6"}

    def test_crt_errors(self, capsys):
        code, _, err = invoke(capsys, "crt", "1,4", "3,6")
        assert code == 2 and "share the factor" in err
        assert invoke(capsys, "crt", "1,2,3")[0] == 2


class TestConstructCommand:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "construct", "34")
        assert code == 0
        assert out == (
            "base 34: k = 48351243364 (sierpinski, nontrivial)\n"
            "  0(2): 5\n"
            "  0(3): 397\n"
            "  1(4): 13\n"
            "  5(6): 1123\n"
            "  7(12): 1069\n"
            "triviality primes: 3,11\n"
        )

    def test_base2_text(self, capsys):
        code, out, _ = invoke(capsys, "construct", "2")
        assert code == 0
        assert out.startswith("base 2: k = 78557 (sierpinski, nontrivial)\n")
        assert out.endswith("triviality primes: none\n")

    def test_json_round_trips_through_verify(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "construct", "34", "--riesel", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "riesel"
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = invoke(capsys, "verify-cert", str(path))
        assert (code, out) == (0, "certificate: valid\n")

    def test_base2_variants_rejected(self, capsys):
        assert invoke(capsys, "construct", "2", "--riesel")[0] == 2
        assert invoke(capsys, "construct", "2", "--times-m-minus-1")[0] == 2

    def test_times_m_minus_1(self, capsys):
        code, out, _ = invoke(capsys, "construct", "10", "--times-m-minus-1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["constraint"] == "multiple_of_m_minus_1"
        assert int(doc["k"]) % 9 == 0


class TestVerifyCertCommand:
    def test_tampered_certificate(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "34", "--json")
        doc = json.loads(out)
        doc["k"] = str(int(doc["k"]) + 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify-cert", str(path))
        assert code == 1
        assert out.startswith("certificate: INVALID (")

    def test_tampered_json_report(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "construct", "2", "--json")
        doc = json.loads(out)
        doc["entries"] = doc["entries"][1:]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "verify-cert", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert "coverage violated" in report["reason"]

    def test_unfactored_m_minus_1_is_budget_not_invalid(self, capsys, monkeypatch, tmp_path):
        # verify-cert factors nothing, so no factoring budget can stop it
        _, out, _ = invoke(capsys, "construct", "1002", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out)
        monkeypatch.setattr(FactorBudget, "default", staticmethod(lambda: FactorBudget(2, 0)))
        assert invoke(capsys, "verify-cert", str(path)) == (0, "certificate: valid\n", "")

    def test_valid_without_a_primality_test(self, capsys, monkeypatch, tmp_path):
        # construct 511 has the prime 4658179917019270871041 > 2**64, which
        # prime_verdict could only call probable; verify-cert never asks
        _, out, _ = invoke(capsys, "construct", "511", "--json")
        assert '"4658179917019270871041"' in out
        path = tmp_path / "cert.json"
        path.write_text(out)

        def refuse(*args, **kwargs):
            raise AssertionError("verify-cert tested primality")

        for name in ("sierpinski.arith", "sierpinski.construct"):
            module = importlib.import_module(name)
            if hasattr(module, "prime_verdict"):
                monkeypatch.setattr(module, "prime_verdict", refuse)
        assert invoke(capsys, "verify-cert", str(path)) == (0, "certificate: valid\n", "")

    def test_file_errors(self, capsys, tmp_path):
        assert invoke(capsys, "verify-cert", str(tmp_path / "missing.json"))[0] == 2
        bad = tmp_path / "not_json.json"
        bad.write_text("{nope")
        assert invoke(capsys, "verify-cert", str(bad))[0] == 2
        _, out, _ = invoke(capsys, "construct", "34", "--json")
        valid = json.loads(out)
        # a list, an entries number, a missing k, a list variant and a float base
        for doc in ([1], {**valid, "entries": 5}, {"base": "34"}, {**valid, "variant": []},
                    {**valid, "base": 34.5}):
            malformed = tmp_path / "malformed.json"
            malformed.write_text(json.dumps(doc))
            code, out, err = invoke(capsys, "verify-cert", str(malformed))
            assert (code, out) == (2, "")
            assert "malformed certificate" in err


class TestSearchCommand:
    def test_base_34_text(self, capsys):
        code, out, _ = invoke(capsys, "search", "34", "--moduli", "2,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "base: 34"
        assert lines[1] == "moduli: 2,2"
        assert lines[2] == "candidates:"
        assert "  cover 0(2),1(2) primes 7,5: class 6 (mod 35), k = 6" in lines
        # 29 = -1 mod 3 is trivial, so the class walks on to 64
        assert "  cover 0(2),1(2) primes 5,7: class 29 (mod 35), k = 64" in lines
        assert "minimum nontrivial k: 6" in lines
        assert "witness cover: 0(2),1(2)" in lines
        assert "witness primes: 7,5" in lines
        assert "eliminations (k <= 5, n <= 30): 2 trivial, 3 prime found, 0 survivors" in lines
        assert "survivors below minimum: none" in lines

    def test_base_127_json(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "127", "--moduli", "3,4,4,6,6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimum_nontrivial_k"] == "43429139464"
        assert doc["minimality_established"] is False
        assert doc["survivors_below_minimum"][0] == "64"

    def test_unresolved_survivors_flagged(self, capsys):
        code, out, _ = invoke(capsys, "search", "127", "--moduli", "3,4,4,6,6")
        assert code == 0
        assert "UNRESOLVED survivors below minimum: 64, 66," in out

    def test_walked_minimum_is_found(self, capsys):
        # the least admissible k = 37 of the witness class is -1 mod 2: the
        # class walks on to 94 instead of dropping out of the search
        code, out, _ = invoke(capsys, "search", "113", "--moduli", "2,2")
        assert code == 0
        assert "minimum nontrivial k: 94" in out.splitlines()

    def test_no_minimum_is_negative(self, capsys):
        code, out, _ = invoke(capsys, "search", "5", "--moduli", "2", "--kscan", "5")
        assert code == 1
        assert "minimum nontrivial k: none found" in out

    def test_auto_moduli_budget(self, capsys):
        code, _, err = invoke(capsys, "search", "34")
        assert code == 3
        assert "exceeds the budget" in err

    def test_incomplete_pool_is_budget_not_negative(self, capsys, monkeypatch):
        monkeypatch.setattr(FactorBudget, "default", staticmethod(lambda: FactorBudget(100, 0)))
        code, out, err = invoke(capsys, "search", "127", "--moduli", "3,4,6,6,8,8")
        assert (code, out) == (3, "")
        assert "Phi_n(127) not fully factored for n in [8]" in err

    def test_kscan_budget(self, capsys):
        # 3 alone covers nothing, so the scan bound is the whole --kscan
        start = time.perf_counter()
        code, out, err = invoke(capsys, "search", "34", "--moduli", "3", "--kscan", str(10**20))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "k_scan_bound" in err

    def test_cyclotomic_budget(self, capsys):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "search", "34", "--moduli", "70000")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds the cyclotomic budget" in err

    def test_deterministic_output(self, capsys):
        a = invoke(capsys, "search", "127", "--moduli", "3,4,6,6,8,8", "--json")
        b = invoke(capsys, "search", "127", "--moduli", "3,4,6,6,8,8", "--json")
        assert a == b
        assert json.loads(a[1])["minimum_nontrivial_k"] == "11254645362"


def _refuse(*args, **kwargs):
    raise AssertionError("rendered an output form that was not requested")


class TestOutputPath:
    def test_text_output_builds_no_json_document(self, capsys, monkeypatch):
        expected = invoke(capsys, "search", "34", "--moduli", "2,2")
        monkeypatch.setattr(SearchReport, "to_json_dict", _refuse)
        assert invoke(capsys, "search", "34", "--moduli", "2,2") == expected

    def test_json_output_builds_no_text(self, capsys, monkeypatch):
        expected = invoke(capsys, "search", "34", "--moduli", "2,2", "--json")
        monkeypatch.setattr(CoveringSystem, "__str__", _refuse)
        monkeypatch.setattr(Congruence, "__str__", _refuse)
        assert invoke(capsys, "search", "34", "--moduli", "2,2", "--json") == expected

    @pytest.mark.parametrize("command", [
        ("cover", "verify"), ("cover", "enumerate"), ("cover", "orbit"),
        ("cyclo", "poly"), ("cyclo", "eval"), ("factor",), ("isprime",), ("order",),
        ("crt",), ("construct",), ("verify-cert",), ("search",),
    ], ids=" ".join)
    def test_every_leaf_takes_json(self, capsys, command):
        code, out, _ = invoke(capsys, *command, "--help")
        assert code == 0 and "--json" in out

    @pytest.mark.parametrize("group", ["cover", "cyclo"])
    def test_groups_do_not_take_json(self, capsys, group):
        code, out, _ = invoke(capsys, group, "--help")
        assert code == 0 and "--json" not in out


def test_readme_transcript_matches():
    spec = importlib.util.spec_from_file_location("transcript", ROOT / "bench" / "transcript.py")
    transcript = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(transcript)
    assert transcript.mismatches(ROOT / "README.md", run) == (8, [])


class TestParserPlumbing:
    def test_help_and_usage(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()
        assert run([]) == 2
        capsys.readouterr()
        assert run(["cover"]) == 2
        capsys.readouterr()
        assert run(["no-such-command"]) == 2
        capsys.readouterr()

    def test_console_entry_point(self):
        import importlib.metadata as md

        assert callable(cli.main)
        try:
            md.distribution("sierpinski")
        except md.PackageNotFoundError:
            # not installed (src/ on the path): check what an install declares
            assert _declared_scripts().get("sierpinski") == "sierpinski.cli:main"
            return
        eps = md.entry_points(group="console_scripts")
        ours = [ep for ep in eps if ep.name == "sierpinski"]
        assert ours and ours[0].value == "sierpinski.cli:main"


def test_import_leaves_numpy_out():
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import sys, sierpinski; print('numpy' in sys.modules, 'numba' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "False"]


def _declared_scripts() -> dict[str, str]:
    """The [project.scripts] table of the checkout's pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the flat key = "value" lines
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        pairs = (line.split("=", 1) for line in table.splitlines() if "=" in line)
        return {k.strip(): v.strip().strip('"') for k, v in pairs}
    return tomllib.loads(text)["project"]["scripts"]


# Integers stay below 10**6 in magnitude and lists stay short, so that no
# drawn command can start a long computation.
_INT = st.one_of(st.integers(-30, 200), st.integers(-10**6 + 1, 10**6 - 1)).map(str)
_TOKEN = st.one_of(_INT, st.sampled_from(["", "x", "1.5", "-", "0x10", "1e3", "--json", "7,"]))
_MODULI = st.lists(st.integers(-2, 16), max_size=4).map(lambda ns: ",".join(map(str, ns)))
_CLASSES = st.lists(st.tuples(st.integers(-1, 30), st.integers(-1, 30)), min_size=1, max_size=4).map(
    lambda cs: ",".join(f"{a}({n})" for a, n in cs)
)
_PAIRS = st.lists(st.tuples(_INT, _INT).map(",".join), min_size=1, max_size=3)
_ARGV = st.one_of(
    st.tuples(st.just("cover"), st.sampled_from(["verify", "orbit"]), st.one_of(_CLASSES, _TOKEN)),
    st.tuples(st.just("cover"), st.just("enumerate"), st.one_of(_MODULI, _TOKEN)),
    st.tuples(st.just("cyclo"), st.just("poly"), _TOKEN),
    st.tuples(st.just("cyclo"), st.just("eval"), _TOKEN, _TOKEN),
    st.tuples(st.just("crt"), _PAIRS).map(lambda t: (t[0], *t[1])),
    st.tuples(st.just("order"), _TOKEN, _TOKEN),
    st.tuples(st.sampled_from(["isprime", "factor"]), _TOKEN),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV.map(list), json_flag=st.booleans())
@example(argv=["cover", "enumerate", ",".join(["1"] * 1200)], json_flag=False)
def test_run_never_raises(argv, json_flag):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--json"] * json_flag)
    assert code in (0, 1, 2, 3)


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


# test_run_never_raises feeds malformed tokens; this oracle draws integers
# only, and small primes often enough that order and isprime answer
_PRIME_OR_INT = st.one_of(st.sampled_from(list(primerange(2, 2000))).map(str), _INT)
_ORACLE_ARGV = st.one_of(
    st.tuples(st.just("cyclo"), st.just("poly"), _INT),
    st.tuples(st.just("cyclo"), st.just("eval"), _INT, _INT),
    st.tuples(st.just("crt"), _PAIRS).map(lambda t: (t[0], *t[1])),
    st.tuples(st.just("order"), _INT, _PRIME_OR_INT),
    st.tuples(st.just("isprime"), _PRIME_OR_INT),
    st.tuples(st.just("factor"), _INT),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ORACLE_ARGV.map(list))
@example(argv=["isprime", "999983"])
@example(argv=["factor", str(997 * 991)])
@example(argv=["order", "10", "999983"])
@example(argv=["crt", "1,4", "3,6"])
@example(argv=["cyclo", "eval", "1175", "47197"])  # 4301 digits, one above Python's default cap
def test_run_answers_match_sympy(argv):
    code, out = _run_quiet(argv + ["--json"])
    if code not in (0, 1):
        return
    args, doc = cli.build_parser().parse_args(argv), json.loads(out)
    if argv[0] == "order":
        assert doc["order"] == n_order(args.m, args.p)
    elif argv[0] == "factor":
        assert doc["complete"] and doc["cofactor"] == "1"
        assert {int(f["p"]): f["e"] for f in doc["factors"]} == factorint(args.x)
    elif argv[0] == "isprime":
        assert doc["prime"] == isprime(args.x) == (code == 0)
    elif argv[0] == "crt":
        pairs = [token.split(",") for token in " ".join(args.pairs).split()]
        residue, modulus = crt([int(n) for _, n in pairs], [int(a) for a, _ in pairs])
        assert (int(doc["residue"]), int(doc["modulus"])) == (residue, modulus)
    elif args.n <= 2000:  # sympy takes seconds on some orders above this
        if argv[1] == "poly":
            assert doc["coefficients"] == cyclotomic_poly(args.n, polys=True).all_coeffs()[::-1]
        else:
            assert _int_uncapped(doc["value"]) == cyclotomic_poly(args.n, args.x)


def _int_uncapped(text):
    # the CLI lifts the int/str digit cap while it prints; parse as it printed
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(2, 80),
    moduli=st.sampled_from(["2,2", "2,4,4"]),
    kscan=st.integers(0, 60),
    nmax=st.integers(1, 12),
)
@example(base=43, moduli="2,4,4", kscan=0, nmax=1)  # every least admissible k is trivial
def test_search_answers_check_out(base, moduli, kscan, nmax):
    start = time.perf_counter()
    code, out = _run_quiet(
        ["search", str(base), "--moduli", moduli, "--kscan", str(kscan), "--nmax", str(nmax), "--json"])
    assert time.perf_counter() - start < 5.0
    doc = json.loads(out)
    if code == 0:
        cert = SierpinskiCertificate.from_json_dict(doc["certificate"])
        assert cert.k == int(doc["minimum_nontrivial_k"])
        assert verify_certificate(cert) == (True, None)
    else:
        assert code == 1
        assert doc["candidates"] == [] and doc["minimum_nontrivial_k"] is None


@settings(max_examples=30, deadline=None)
@given(base=st.integers(2, 200), flags=st.sampled_from([[], ["--riesel"], ["--times-m-minus-1"]]))
def test_construct_round_trips_through_verify_cert(base, flags):
    if base == 2:
        flags = []  # base 2 has only the plain sierpinski certificate
    code, out = _run_quiet(["construct", str(base), "--json", *flags])
    assert code == 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(out)
        code, out = _run_quiet(["verify-cert", str(path), "--json"])
    assert (code, json.loads(out)) == (0, {"reason": None, "valid": True})
