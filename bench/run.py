"""Layered benchmark of the sierpinski package.

Run from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 36 --trace 0

Workloads (bench/workloads.py): construct, search, covers. One
single-threaded process runs each as a closed loop: an operation is issued
only after the previous one returned, and passes over the seeded inputs
repeat while the next one still fits in --seconds.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced passes and reports the per-layer metrics
derived from the spans (bench/spans.py), plus the tracing overhead. After
the passes every output goes through its correctness gate
(bench/oracle.py); the README transcript is then replayed through the CLI.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Lines before it give the environment, each metric, and the
README transcript verdict. The spans of the last traced pass are written
to .bench_out/ in the checkout.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import transcript

_STARTED = time.perf_counter()  # the set-up probe times from here

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

# Metric names, units and directions are those BENCHMARK.json lists.
# "<span>.calls" and "<span>.self_s" come from the spans; other
# "<span>.<quantity>" names from the counts the result hooks make.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_program():
    """Import sierpinski from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import sierpinski

    if Path(sierpinski.__file__).resolve().parent != src / "sierpinski":
        raise ImportError(f"sierpinski came from {sierpinski.__file__}, not {src}")
    return sierpinski


def setup_probe(workload: str, seed: int) -> float:
    """One fresh process's import sierpinski plus input generation, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def run_pass(ops, previous=None, tracer=None) -> list[tuple[float, object, str | None]]:
    """One closed-loop pass: (seconds, output summary, error) per op.

    A summary equal to the one of the previous pass is replaced by it, so
    passes do not pile up copies of the same output (a growing heap slows
    the collector and with it every later pass).
    """
    gc.collect()
    results = []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out = tracer.op(i, op.call) if tracer else op.call()
            error = None
        except Exception as exc:  # a failed op is counted; the pass goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        summary = None
        if error is None:
            try:
                summary = op.summarize(out)
            except Exception as exc:  # an output the gate cannot read fails it
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        del out
        if previous and summary is not None and summary == previous[i][1]:
            summary = previous[i][1]
        results.append((elapsed, summary, error))
    return results


def judge(ops, passes) -> tuple[int, list[str]]:
    """Gate every op result; each distinct output of an op is checked once."""
    failed, messages = 0, []
    for i, op in enumerate(ops):
        judged = []
        for results in passes:
            _, summary, error = results[i]
            if error is None:
                error = next((v for s, v in judged if s == summary), False)
                if error is False:
                    try:
                        error = op.check(summary)
                    except Exception as exc:  # a gate that cannot read the output fails it
                        error = f"gate raised {type(exc).__name__}: {exc}"
                    judged.append((summary, error))
            if error:
                failed += 1
                messages.append(f"{op.label}: {error}")
    return failed, messages


def quantile(samples, q: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def timed_loop(seconds: float, one_round) -> int:
    """Run one_round() while the next round, at the mean round time, fits."""
    start, rounds = time.perf_counter(), 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return rounds


def end_to_end_metrics(passes, setup_s: float) -> dict[str, float]:
    """Times of each operation at its fastest repetition in the run.

    On a shared 2-vCPU host the speed of the same pure-Python loop drifts
    by up to 1.7x within seconds, and such noise only ever adds time: a
    median follows how long the host was slow during the run, while the
    fastest repetition of each operation stays put. wall_s is one pass at
    those times; op_p50_ms and op_p95_ms are taken across the operations.
    setup_s is likewise the fastest of the set-up probes.
    """
    best = [min(results[i][0] for results in passes) for i in range(len(passes[0]))]
    return {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p95_ms": quantile(best, 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(ops, tracer, rounds, untraced, traced, readme_s) -> dict[str, float]:
    import spans as sp

    spans = tracer.spans
    self_ns, calls = Counter(), Counter()
    for (name, *_), own in zip(spans, sp.self_times(spans)):
        self_ns[name] += own
        calls[name] += 1
    values = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        layer, quantity = name.rsplit(".", 1)
        if quantity == "self_s":
            values[name] = self_ns[layer] / 1e9 / rounds
        elif quantity == "calls":
            values[name] = calls[layer] / rounds
        else:
            values[name] = tracer.counts[name] / rounds

    # prime_verdict calls made by elimination, against the k it had to judge
    eliminate_ns = verdict_ns = verdicts = 0
    for i, (name, _, start, end) in enumerate(spans):
        if name == "search.eliminate_small_k":
            eliminate_ns += end - start
        elif name == "arith.prime_verdict" and sp.has_ancestor(spans, i, "search.eliminate_small_k"):
            verdicts += 1
            verdict_ns += end - start
    nontrivial = tracer.counts["search.eliminate_small_k.nontrivial_k"]
    values["search.eliminate_small_k.verdicts_per_k"] = verdicts / nontrivial if nontrivial else 0.0
    values["share.prime_verdict_in_eliminate"] = verdict_ns / eliminate_ns if eliminate_ns else 0.0

    grid_ns = stock_ns = 0
    generic_shares = []
    for root, inside in sp.op_breakdown(spans).items():
        tag, op_ns = ops[tracer.labels[root]].tag, spans[root][3] - spans[root][2]
        if tag == "stock127":
            grid_ns += inside["search.crt_solve_for"]
            stock_ns += op_ns
        elif tag == "generic":
            generic_shares.append(inside["construct.verify_certificate"] / op_ns)
    values["share.grid_in_stock127"] = grid_ns / stock_ns if stock_ns else 0.0
    values["share.verify_in_generic_construct"] = (
        statistics.median(generic_shares) if generic_shares else 0.0
    )
    values["trace.overhead_ratio"] = min(traced) / min(untraced)
    values["cli.run.self_s"] = readme_s
    return values


def environment(seed: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "numba_imported": "numba" in sys.modules,
        "seed": seed,
        "commit": commit,
    }


def replay_readme(tracer=None) -> tuple[float, int, list[str]]:
    """(cli.run self seconds, examples, mismatch messages) for the README.

    The messages include the known ones (transcript.KNOWN_MISMATCHES).
    """
    import spans as sp
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        count, problems = transcript.mismatches(ROOT / "README.md", workloads.L.cli.run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    own = 0.0
    if tracer is not None:
        own = sum(t for s, t in zip(tracer.spans, sp.self_times(tracer.spans))
                  if s[0] == "cli.run") / 1e9
    return own, count, problems


def write_spans(tracer, first: int, workload: str, seed: int) -> Path:
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    spans = [[n, p - first if p >= first else -1, s, e] for n, p, s, e in tracer.spans[first:]]
    out.write_text(json.dumps({"fields": ["name", "parent", "start_ns", "end_ns"],
                               "spans": spans}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - _STARTED)
        return 0

    ops = workloads.WORKLOADS[args.workload](args.seed)
    untraced, traced = [], []
    tracer, last_traced = None, 0
    if args.trace:
        import spans as sp

        tracer = sp.Tracer()

        def one_round():
            nonlocal last_traced
            untraced.append(run_pass(ops, untraced[-1] if untraced else None))
            last_traced = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(ops, untraced[-1], tracer))
            finally:
                tracer.uninstall()

        rounds = timed_loop(args.seconds, one_round)
    else:
        probes, start = [], time.perf_counter()

        def one_round():
            untraced.append(run_pass(ops, untraced[-1] if untraced else None))
            # set-up probes spread over the run, so that one slow spell of
            # the host cannot slow them all; setup_s is the fastest
            if len(probes) < SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds:
                probes.append(setup_probe(args.workload, args.seed))

        timed_loop(args.seconds, one_round)
        metrics = end_to_end_metrics(untraced, min(probes))

    passes = untraced + traced
    failed, messages = judge(ops, passes)

    if args.trace:
        spans_file = write_spans(tracer, last_traced, args.workload, args.seed)
        pass_s = [[sum(dt for dt, _, _ in r) for r in group] for group in (untraced, traced)]
        readme_s, examples, problems = replay_readme(sp.Tracer())
        metrics = per_layer_metrics(ops, tracer, rounds, *pass_s, readme_s)
        spec = SPEC["per_layer"]
    else:
        _, examples, problems = replay_readme()
        spec = SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    unexpected = transcript.unexpected(problems)
    # each README example is one more operation; an unexpected difference fails it
    attempted = len(ops) * len(passes) + examples
    failed += len(unexpected)

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced passes"
          f" of {len(ops)} ops")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        print(f"  absent: {', '.join(sorted(tracer.absent)) or 'none'}")
        print(f"  spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    print(f"README transcript: {examples - len(problems)} of {examples} examples match,"
          f" {len(problems) - len(unexpected)} known difference(s)")
    for problem in problems:
        print(f"  {'MISMATCH' if problem in unexpected else 'known'} {problem}")
    for message in messages[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
