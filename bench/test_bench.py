"""Self-tests of the benchmark: its gates, tracer and inputs.

    python3 -m pytest bench -q
"""

from pathlib import Path

import pytest

import run

run.load_program()

import oracle  # noqa: E402
import spans  # noqa: E402
import transcript  # noqa: E402
import workloads  # noqa: E402


def _gate(op, tamper=None):
    summary = op.summarize(op.call())
    return op.check(tamper(summary) if tamper else summary)


def test_construct_gate_rejects_a_changed_k():
    op = workloads._construct_op(34, "sierpinski", "generic")
    assert _gate(op) is None
    assert _gate(op, lambda s: s[:2] + (s[2] + 1,) + s[3:]) is not None


def test_construct_gate_rejects_a_trivial_k_and_a_wrong_prime():
    op = workloads._construct_op(34, "riesel", "generic")
    assert _gate(op) is None
    base, variant, k, entries, qs, verdict = op.summarize(op.call())
    (a, n, p), *rest = entries
    assert oracle.certificate_error(base, k, ((a, n, p + 2), *rest), variant, qs)
    assert oracle.certificate_error(base, k, entries, variant, qs[1:])


def test_search_gate_compares_the_recorded_minimum():
    assert _gate(workloads._search_op(0, 34, (2, 2), expected=6)) is None
    assert _gate(workloads._search_op(0, 34, (2, 2), expected=7)) is not None


def test_verify_gate_rejects_a_flipped_verdict():
    cover = workloads._parse(workloads.BASE_COVERS[0])
    op = workloads._verify_op(cover + ((1, 7),), "cover")
    assert _gate(op) is None
    assert _gate(op, lambda s: (not s[0], s[1])) is not None
    noncover = workloads._verify_op(((0, 2), (1, 4)), "noncover")
    assert noncover.summarize(noncover.call()) == (False, 3)
    assert _gate(noncover, lambda s: (False, 5)) is not None


def test_elimination_gate_rejects_a_changed_value_or_status():
    records = tuple((r.k, r.status, r.q, r.n, r.value)
                    for r in workloads.L.search.eliminate_small_k(22, 40, 20, (3, 7)))
    every = lambda rs: list(rs)  # noqa: E731
    assert oracle.elimination_error(22, records, 40, 20, (3, 7), every) is None
    i = next(i for i, r in enumerate(records) if r[1] == "prime_found")
    k, _, q, n, value = records[i]
    bumped = records[:i] + ((k, "prime_found", q, n, value + 2),) + records[i + 1:]
    assert oracle.elimination_error(22, bumped, 40, 20, (3, 7), every) is not None
    hidden = records[:i] + ((k, "survivor", None, None, None),) + records[i + 1:]
    assert oracle.elimination_error(22, hidden, 40, 20, (3, 7), every) is not None


def test_enumeration_and_orbit_gates():
    op = workloads._enumerate_op((3, 4, 6, 6, 8, 8), 48)
    assert _gate(op) is None
    assert _gate(op, lambda covers: covers[1:]) is not None
    orbit = workloads._orbit_op()
    assert _gate(orbit) is None


def test_verify_inputs_are_covers_except_every_third():
    import random

    inputs = workloads.verify_inputs(random.Random(5))
    assert [oracle.first_uncovered(c) is None for c, _ in inputs] == [
        i % 3 != 2 for i in range(workloads.VERIFY_CALLS)
    ]
    assert all(covers == (i % 3 != 2) for i, (_, covers) in enumerate(inputs))


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 100]; children overlap on [20, 30] and one runs past the end
    tree = [
        ["p", -1, 0, 100],
        ["a", 0, 10, 30],
        ["b", 0, 20, 50],
        ["c", 0, 90, 120],
        ["g", 1, 12, 18],
    ]
    assert spans.self_times(tree) == [100 - 40 - 10, 20 - 6, 30, 30, 6]
    assert spans.covered_ns(0, 10, []) == 0


def test_op_breakdown_counts_outermost_spans_only():
    tree = [
        [spans.OP, -1, 0, 100],
        ["f", 0, 0, 60],
        ["f", 1, 10, 20],
        ["g", 1, 30, 40],
    ]
    assert spans.op_breakdown(tree) == {0: {"f": 60, "g": 10}}


def test_tracer_records_parents_and_restores_functions():
    construct_module = workloads.L.construct
    original = construct_module.construct
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op(0, lambda: construct_module.construct(34))
    finally:
        tracer.uninstall()
    assert construct_module.construct is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == [spans.OP, "construct.construct"]
    factor = names.index("arith.factorize")
    assert spans.has_ancestor(tracer.spans, factor, "construct.construct")
    assert tracer.labels == {0: 0}
    assert not tracer.absent


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    layers = dict(spans.LAYERS, search=spans.LAYERS["search"] + ("no_such_function",),
                  gone_module=("f",))
    monkeypatch.setattr(spans, "LAYERS", layers)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"search.no_such_function", "gone_module.f"}


def test_transcript_runs_shell_forms_and_flags_a_changed_line(tmp_path):
    readme = "\n".join([
        "```", "$ sierpinski a", "one", "two", "", "$ sierpinski b | tail -1", "y", "```",
        "```", "$ python3 other.py", "ignored", "```",
        "```", "$ sierpinski c > f.txt && sierpinski d f.txt", "read f.txt", "```",
    ])
    cases = transcript.examples(readme)
    assert [c for c, _ in cases] == ["sierpinski a", "sierpinski b | tail -1",
                                     "sierpinski c > f.txt && sierpinski d f.txt"]

    def fake(argv):
        if argv[0] == "d":
            print("read " + Path(argv[1]).read_text().strip())
        else:
            print({"a": "one\ntwo", "b": "x\ny", "c": "f.txt"}[argv[0]])
        return 0

    assert [transcript.run_command(c, fake, tmp_path) for c, _ in cases] == [
        e for _, e in cases
    ]
    path = tmp_path / "README.md"
    path.write_text(readme.replace("two", "three"))
    count, problems = transcript.mismatches(path, fake)
    assert count == 3 and len(problems) == 1 and "sierpinski a" in problems[0]


def test_readme_examples_are_found():
    cases = transcript.examples((run.ROOT / "README.md").read_text())
    assert len(cases) == 8
    assert all(c.startswith("sierpinski ") for c, _ in cases)


def _unexpected(readme_text, tmp_path):
    path = tmp_path / "README.md"
    path.write_text(readme_text)
    _, problems = transcript.mismatches(path, workloads.L.cli.run)
    return transcript.unexpected(problems)


@pytest.mark.parametrize("old, new", [
    (None, None),
    ("base 34: k = 48351243364", "base 34: k = 48351243365"),  # another example
    ('  "count": 24,', '  "count": 25,'),  # the example with the known difference
    ("eliminations (k <= 5", "eliminations (k <= 4"),
])
def test_readme_gate_passes_only_the_known_difference(tmp_path, old, new):
    readme = (run.ROOT / "README.md").read_text()
    if old is None:
        assert _unexpected(readme, tmp_path) == []
    else:
        assert old in readme
        assert len(_unexpected(readme.replace(old, new), tmp_path)) == 1


def test_inputs_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        assert [o.label for o in make(3)] == [o.label for o in make(3)]
    assert [o.label for o in workloads.construct_ops(3)] != [
        o.label for o in workloads.construct_ops(4)
    ]


def test_pool_filling_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def pool(m, n):
        value = int(sympy.cyclotomic_poly(n, x).subs(x, m))
        return [p for p in sympy.factorint(value)
                if (n * (m - 1)) % p and sympy.n_order(m, p) == n]

    need = {3: 1, 4: 1, 6: 2, 8: 2}
    fills = {m for m in range(2, 401) if m != 127
             and all(len(pool(m, n)) >= c for n, c in need.items())}
    assert fills == set(workloads.POOL_FILLING_BASES)
    assert len(workloads.POOL_FILLING_BASES) == len(fills)
