"""The summary step of tools/ab_pairs.py on canned bench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, rss, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }


BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.1}


def pairs_of(walls, rss):
    return [{"seed": 901 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": result_line(pw, pr), "change": result_line(cw, cr)}
            for i, ((pw, cw), (pr, cr)) in enumerate(zip(walls, rss))]


def canned_pairs():
    # (parent wall, change wall), with peak RSS equal in the last pair
    walls = [(0.060, 0.043), (0.058, 0.045), (0.064, 0.044), (0.059, 0.061), (0.062, 0.042)]
    rss = [(19.8, 19.9), (19.7, 19.9), (19.8, 19.6), (19.9, 20.0), (19.8, 19.8)]
    return pairs_of(walls, rss)


def test_summary_counts_wins(ab):
    out = ab.summarize(canned_pairs(), BOUNDS)
    wall = out["summary"]["wall_s"]
    assert wall["pairs"] == 5
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (4, 1)
    assert wall["parent"]["median"] == 0.060 and wall["change"]["median"] == 0.044
    # inclusive quartiles of 0.058, 0.059, 0.060, 0.062, 0.064
    assert wall["parent"]["q1"] == 0.059 and wall["parent"]["q3"] == 0.062
    assert wall["parent_iqr"] == pytest.approx(0.003)
    assert wall["median_change_pct"] == pytest.approx(-100 * 0.016 / 0.060)
    rss = out["summary"]["peak_rss_mb"]
    # the tie in the last pair counts for neither side
    assert (rss["change_better_pairs"], rss["change_worse_pairs"]) == (1, 3)
    assert out["all_correct"] is True
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["attempted"] == {"parent": 500, "change": 500}


def test_failed_run_is_not_correct(ab):
    pairs = canned_pairs()
    pairs[2]["change"] = result_line(0.05, 19.8, failed=2)
    out = ab.summarize(pairs, BOUNDS)
    assert out["all_correct"] is False
    assert out["failed"] == {"parent": 0, "change": 2}


def test_single_pair_has_zero_spread(ab):
    wall = ab.summarize(canned_pairs()[:1], BOUNDS)["summary"]["wall_s"]
    assert wall["parent"] == {"median": 0.060, "q1": 0.060, "q3": 0.060}
    assert wall["parent_iqr"] == 0


PARENT_WALLS = [0.060, 0.058, 0.064, 0.059, 0.062, 0.061, 0.057, 0.063, 0.060, 0.059]


def test_gain_holds_on_nine_of_ten_pairs_beyond_the_iqr(ab):
    # the change loses pair 3 only; parent quartiles 0.059 and 0.06175, median gap 0.015
    change = [0.045, 0.044, 0.046, 0.061, 0.045, 0.043, 0.045, 0.046, 0.044, 0.045]
    wall = ab.summarize(pairs_of(zip(PARENT_WALLS, change), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (9, 1)
    assert wall["parent"]["median"] == pytest.approx(0.060) and wall["change"]["median"] == pytest.approx(0.045)
    assert wall["parent_iqr"] == pytest.approx(0.00275)
    assert wall["gain_holds"] is True
    assert wall["within_bound"] is True


def test_gain_fails_on_eight_of_ten_pairs(ab):
    change = [0.045, 0.044, 0.046, 0.061, 0.045, 0.043, 0.045, 0.046, 0.044, 0.060]
    wall = ab.summarize(pairs_of(zip(PARENT_WALLS, change), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert wall["change_better_pairs"] == 8
    assert wall["gain_holds"] is False


def test_gain_fails_inside_the_parent_iqr(ab):
    # ten wins, but each by 0.002 s against a parent IQR of 0.00275 s
    change = [w - 0.002 for w in PARENT_WALLS]
    wall = ab.summarize(pairs_of(zip(PARENT_WALLS, change), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert wall["change_better_pairs"] == 10
    assert wall["parent_iqr"] == pytest.approx(0.00275)
    assert wall["gain_holds"] is False


def test_ties_win_nothing(ab):
    wall = ab.summarize(pairs_of([(0.05, 0.05)] * 10, [(19.8, 19.8)] * 10), BOUNDS)["summary"]["wall_s"]
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (0, 0)
    assert wall["gain_holds"] is False
    assert wall["within_bound"] is True


@pytest.mark.parametrize("change_rss, within", [(21.7, True), (21.9, False), (19.0, True)])
def test_within_bound_uses_the_metric_bound(ab, change_rss, within):
    # peak RSS may grow by 10% of the parent's median 19.8 MB, to 21.78 MB
    rss = ab.summarize(pairs_of([(0.05, 0.05)] * 4, [(19.8, change_rss)] * 4), BOUNDS)["summary"]["peak_rss_mb"]
    assert rss["within_bound"] is within


def test_metric_without_bound(ab):
    wall = ab.summarize(canned_pairs(), {"peak_rss_mb": 0.1})["summary"]["wall_s"]
    assert wall["within_bound"] is None
    assert wall["unresolved"] is None


# parent walls 0.040..0.080 s: quartiles 0.04625 and 0.07, an IQR of 0.02375 s against 0.25 * 0.06 = 0.015 s
WIDE_PARENT = [0.040, 0.080, 0.045, 0.070, 0.060, 0.050, 0.075, 0.045, 0.060, 0.070]


def test_wide_parent_spread_is_unresolved(ab):
    # the change's median 0.06 equals the parent's, but one change run is slower than the fastest parent run
    wall = ab.summarize(pairs_of(zip(WIDE_PARENT, [0.06] * 10), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert wall["parent_iqr"] == pytest.approx(0.02375)
    assert wall["within_bound"] is True
    assert wall["unresolved"] is True


def test_wide_parent_spread_resolves_when_every_change_run_is_better(ab):
    wall = ab.summarize(pairs_of(zip(WIDE_PARENT, [0.039] * 10), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert wall["unresolved"] is False


def test_narrow_parent_spread_is_resolved(ab):
    # parent IQR 0.00275 s against 0.25 * 0.060 s; the change is slower in every pair but inside the bound
    wall = ab.summarize(pairs_of(zip(PARENT_WALLS, [w + 0.005 for w in PARENT_WALLS]), [(19.8, 19.8)] * 10),
                        BOUNDS)["summary"]["wall_s"]
    assert wall["within_bound"] is True
    assert wall["unresolved"] is False


def test_read_bounds(ab, tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ], "per_layer": [{"name": "search.search_min.cells", "unit": "count", "better": "lower"}]}))
    assert ab.read_bounds(path) == BOUNDS


def test_parse_run_reads_env_and_last_line(ab):
    env = {"python": "3.11.7", "nproc": 2, "numba_imported": False, "seed": 7}
    line = result_line(0.05, 19.8)
    stdout = "\n".join([
        "env " + json.dumps(env),
        "workload construct: 40 untraced and 0 traced passes of 80 ops",
        "  wall_s = 0.05 s",
        "README transcript: 8 of 8 examples match, 1 known difference(s)",
        json.dumps(line),
    ]) + "\n"
    assert ab.parse_run(stdout) == (env, line)


def test_workload_spec(ab):
    assert ab.workload_spec("construct:8") == ("construct", 8)
    assert ab.workload_spec("covers") == ("covers", 10)


@pytest.mark.parametrize("stdout, loads", [("true\n", True), ("false\n", False), ("note\nfalse\n", False), ("30\ntrue\n", True)])
def test_parse_probe(ab, stdout, loads):
    assert ab.parse_probe(stdout) is loads


@pytest.mark.parametrize("stdout, bits", [("30\ntrue\n", 30), ("null\nfalse\n", None), ("note\n44\nfalse\n", 44)])
def test_parse_powm_bits(ab, stdout, bits):
    assert ab.parse_powm_bits(stdout) == bits


@pytest.mark.parametrize("arith, loads", [
    ("def _load_powm():\n    return pow\n", True),
    ("def _load_powm():\n    return None\n", False),
    ("PROVEN = 'proven'\n", False),  # a package from before the kernel
])
def test_gmp_probe_on_a_canned_copy(ab, tmp_path, arith, loads):
    package = tmp_path / "src" / "sierpinski"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "arith.py").write_text(arith)
    assert ab.probe(tmp_path) == {"gmp": loads, "powm_bits": None}
    (package / "arith.py").write_text(arith + "POWM_BITS = 30\n")
    assert ab.probe(tmp_path) == {"gmp": loads, "powm_bits": 30}


def test_src_lines_counts_newlines_as_wc_does(ab, tmp_path):
    package = tmp_path / "src" / "sierpinski"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "arith.py").write_text("a = 1\n\nb = 2\n")
    (package / "cli.py").write_text("x = 1\ny = 2")  # wc -l does not count a last line without a newline
    (package / "notes.txt").write_text("not a module\n")
    assert ab.src_lines(tmp_path) == 4
