"""A/B benchmark in alternating pairs: a parent revision against a change.

Usage (from the repository root):

    python3 tools/ab_pairs.py --parent REV --label NAME \
        --workload construct:10 --workload search:4 [--change HEAD] \
        [--seed 1901] [--workdir DIR]

Each side is a `git archive` copy of its revision in a fresh directory, so
both run the committed files, benchmark included. Pair i runs
`python3 bench/run.py --workload W --seed SEED+i --seconds 12 --trace 0` once
on each side, the parent first in even pairs and the change first in odd
ones. The result is written to BENCH_<NAME>.json in the current directory:
every run's JSON result line, and per workload and metric both sides'
medians and quartiles, the parent's IQR and how many pairs the change won
and lost, lower being better as for every end-to-end metric of
BENCHMARK.json. Three verdicts go with them: `gain_holds`, when the change
won at least nine tenths of the pairs and its median lies below the
parent's by more than the parent's IQR; `within_bound`, when the
change's median is at most the parent's times 1 + the metric's bound in
the parent's BENCHMARK.json (`end_to_end`; null for a metric without
one); and `unresolved`, when the parent's IQR exceeds that bound times
the parent's median, so that the runs spread too widely to tell a change
within the bound from one beyond it, unless every run of the change beats
every run of the parent (null without a bound). The environment (Python
version, core count, whether numba was imported) is read from the runs'
own `env` lines; `env.gmp` says per side whether its package's GMP kernel
loads, and `env.powm_bits` gives its `arith.POWM_BITS` (null for a package
without the constant), both from one probe run in its copy; `env.src_lines`
gives per side the total of `wc -l src/sierpinski/*.py` in its copy, the
line count by which a change that removes code is measured. A failed run
stops the A/B with an error that names its side, workload, seed and exit
status and shows the end of its stderr. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# Length of one bench/run.py run, in seconds.
RUN_SECONDS = 12
# Lines of a failed run's stderr that its error shows.
STDERR_LINES = 20
# Run in a copy: its package's POWM_BITS (null without the constant), then on the last line
# whether it loads GMP's mpz_powm (false for a package without the kernel).
GMP_PROBE = ("import json, sys; sys.path.insert(0, 'src'); import sierpinski.arith as a; "
             "print(json.dumps(getattr(a, 'POWM_BITS', None))); "
             "print(json.dumps(getattr(a, '_load_powm', lambda: None)() is not None))")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def read_bounds(path: Path) -> dict[str, float]:
    """Each end-to-end metric's bound, as BENCHMARK.json at path fixes it."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def summarize(pairs, bounds) -> dict:
    """Per-metric medians, quartiles, parent IQR, pair wins and verdicts.

    pairs holds {"parent": result, "change": result} with each result the
    run's JSON line as bench/run.py prints it; bounds maps a metric to the
    fraction by which its median may worsen. Lower is better for every
    metric; a pair whose two values are equal counts as neither a win nor a
    loss.
    """
    names = [name for name in pairs[0]["parent"]["metrics"]]
    summary = {}
    for name in names:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        losses = sum(c > p for p, c in zip(values["parent"], values["change"]))
        row = {}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            row[side] = {"median": med, "q1": q1, "q3": q3}
        parent_median, change_median = row["parent"]["median"], row["change"]["median"]
        parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]
        bound = bounds.get(name)
        row.update(
            change_better_pairs=wins,
            change_worse_pairs=losses,
            pairs=len(pairs),
            median_change_pct=(100 * (change_median - parent_median) / parent_median
                               if parent_median else None),
            parent_iqr=parent_iqr,
            gain_holds=10 * wins >= 9 * len(pairs) and parent_median - change_median > parent_iqr,
            within_bound=None if bound is None else change_median <= parent_median * (1 + bound),
            unresolved=None if bound is None else (
                parent_iqr > bound * parent_median and max(values["change"]) >= min(values["parent"])),
        )
        summary[name] = row
    return {
        "summary": summary,
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
    }


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(env, result) from bench/run.py's output: its `env` line and its last line."""
    env = next(json.loads(line[4:]) for line in stdout.splitlines() if line.startswith("env "))
    return env, json.loads(stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; returns the full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return commit


def parse_probe(stdout: str) -> bool:
    """GMP_PROBE's verdict: the JSON boolean on its last line."""
    return json.loads(stdout.strip().splitlines()[-1]) is True


def parse_powm_bits(stdout: str) -> int | None:
    """GMP_PROBE's POWM_BITS: the JSON value on the line before its last."""
    return json.loads(stdout.strip().splitlines()[-2])


def probe(copy: Path) -> dict:
    """{"gmp": ..., "powm_bits": ...} of the package in copy, from one run of GMP_PROBE."""
    done = subprocess.run([sys.executable, "-c", GMP_PROBE], cwd=copy, capture_output=True, text=True, check=True)
    return {"gmp": parse_probe(done.stdout), "powm_bits": parse_powm_bits(done.stdout)}


def src_lines(copy: Path) -> int:
    """The total of `wc -l src/sierpinski/*.py` in copy: the newlines of the package's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (copy / "src" / "sierpinski").glob("*.py"))


def run_bench(copy: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """parse_run of one bench/run.py run in copy, a directory named after its side;
    RuntimeError naming the side, workload, seed and exit code, with the last
    STDERR_LINES lines of stderr, when the run fails."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        raise RuntimeError(f"{copy.name} run of workload {workload} at seed {seed} exited with "
                           f"status {done.returncode}; the end of its stderr:\n{tail}")
    return parse_run(done.stdout)


def workload_spec(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--workload", action="append", type=workload_spec, required=True,
                        metavar="NAME[:PAIRS]", help="workload and pair count (default 10)")
    parser.add_argument("--seed", type=int, default=1901, help="seed of the first pair")
    parser.add_argument("--workdir", default=None,
                        help="where the copies go, created with its parents if missing (default: temp)")
    args = parser.parse_args(argv)

    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ab_pairs_", dir=args.workdir))
    try:
        copies = {side: work / side for side in SIDES}
        revs = {side: export(rev, copies[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        out = {
            "label": args.label,
            "command": f"python3 bench/run.py --workload W --seed N --seconds {RUN_SECONDS} --trace 0",
            "parent": revs["parent"],
            "change": revs["change"],
            "pairs_alternate": "pair i runs the parent first when i is even, the change first when odd",
        }
        probes = {side: probe(copies[side]) for side in SIDES}
        bounds = read_bounds(copies["parent"] / "BENCHMARK.json")
        env = None
        for workload, count in args.workload:
            pairs = []
            for i in range(count):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    env, pair[side] = run_bench(copies[side], workload, seed)
                    line = pair[side]["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in line.items()), flush=True)
                pairs.append(pair)
            out[workload] = {**summarize(pairs, bounds), "pairs": pairs}
        out["env"] = {key: env[key] for key in ("python", "nproc", "numba_imported", "numpy") if key in env}
        for key in ("gmp", "powm_bits"):
            out["env"][key] = {side: probes[side][key] for side in SIDES}
        out["env"]["src_lines"] = {side: src_lines(copies[side]) for side in SIDES}
        path = Path(f"BENCH_{args.label}.json")
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
