"""README transcript gate: run each `$ sierpinski ...` example in process.

Every example in a fenced block of the README is run through
`sierpinski.cli.run` with stdout captured, and its output is compared line
by line with the lines the README shows under it (up to the next blank
line). The shell syntax the README uses is supported: `| head -N`,
`| tail -N`, `> file` and `&&`; files land in a temporary directory.

One difference is known and pinned: the README shows each `--json` cover
on one line, while the CLI prints one entry per line. That exact message
is expected; any other difference, or a crash, fails the gate.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import tempfile
from pathlib import Path

KNOWN_MISMATCHES = frozenset({
    "`sierpinski cover enumerate 3,4,4,6,6 --json | head -4` line 4:"
    " README ['    [0, 0, 2, 1, 5],'], output ['    [']",
})


def examples(readme: str) -> list[tuple[str, list[str]]]:
    """(command, expected output lines) for each `$ sierpinski` line."""
    found, current, fenced = [], None, False
    for line in readme.splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif not fenced:
            continue
        elif line.startswith("$ "):
            current = None
            if line[2:].startswith("sierpinski "):
                current = (line[2:], [])
                found.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current[1].append(line)
    return found


def _run_one(run, argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().splitlines()


def run_command(command: str, run, workdir: Path) -> list[str]:
    """Output lines of one README command line, shell-style."""
    tokens = shlex.split(command)
    files: dict[str, str] = {}
    shown: list[str] = []
    while tokens:
        cut = tokens.index("&&") if "&&" in tokens else len(tokens)
        argv, tokens = tokens[:cut], tokens[cut + 1 :]
        pipe = redirect = None
        if "|" in argv:
            i = argv.index("|")
            argv, pipe = argv[:i], argv[i + 1 :]
        if ">" in argv:
            i = argv.index(">")
            argv, redirect = argv[:i], argv[i + 1]
        if argv[0] != "sierpinski":
            raise ValueError(f"unsupported command {argv[0]!r}")
        code, lines = _run_one(run, [files.get(a, a) for a in argv[1:]])
        if pipe:
            tool, count = pipe[0], int(pipe[1].lstrip("-"))
            lines = {"head": lines[:count], "tail": lines[-count:]}[tool]
            code = 0
        if redirect:
            files[redirect] = str(workdir / redirect)
            Path(files[redirect]).write_text("".join(f"{x}\n" for x in lines))
            lines = []
        shown += lines
        if code != 0:
            break
    return shown


def mismatches(readme_path: Path, run) -> tuple[int, list[str]]:
    """(examples run, one message per example whose output differs).

    Messages in KNOWN_MISMATCHES are expected; the caller fails the rest.
    """
    cases = examples(readme_path.read_text(encoding="utf-8"))
    problems = []
    with tempfile.TemporaryDirectory(dir=readme_path.parent, prefix=".bench_tmp") as tmp:
        for command, expected in cases:
            try:
                got = run_command(command, run, Path(tmp))
            except Exception as exc:  # a crash is reported like any mismatch
                problems.append(f"`{command}` raised {type(exc).__name__}: {exc}")
                continue
            if got != expected:
                i = next(
                    (i for i, (g, e) in enumerate(zip(got, expected)) if g != e),
                    min(len(got), len(expected)),
                )
                problems.append(
                    f"`{command}` line {i + 1}: README {expected[i:i + 1]}, output {got[i:i + 1]}"
                )
    return len(cases), problems


def unexpected(problems: list[str]) -> list[str]:
    """The mismatch messages that are not in KNOWN_MISMATCHES."""
    return [p for p in problems if p not in KNOWN_MISMATCHES]
