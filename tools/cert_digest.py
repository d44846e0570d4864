"""SHA-256 over the certificates construct builds for a range of bases.

Usage (from the repository root):

    python3 tools/cert_digest.py --lo 2 --hi 20000

For each base m from --lo to --hi, Sierpinski then Riesel, it hashes
`construct(m, variant).to_json()` and a newline, the byte format of
tests/test_construct.py::test_certificates_stay_byte_identical, and prints
the hex digest. A base that construct refuses within its default budget
(8191 is the first) is hashed as the line "<exception name>: <message>" in
its place. Two revisions that give the same digest build the same
certificates over the range, byte for byte, and refuse the same bases with
the same messages. It imports the package from this checkout's src/;
standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sierpinski import RIESEL, SIERPINSKI, BudgetExceeded, NoQualifyingPrime, construct  # noqa: E402


def certificate_digest(lo: int, hi: int) -> str:
    """Hex SHA-256 over construct(m, v).to_json() + "\\n" for m = lo..hi,
    v = Sierpinski then Riesel, a refusal hashed as its name and message."""
    h = hashlib.sha256()
    for m in range(lo, hi + 1):
        for variant in (SIERPINSKI, RIESEL):
            try:
                line = construct(m, variant).to_json()
            except (BudgetExceeded, NoQualifyingPrime) as exc:
                line = f"{type(exc).__name__}: {exc}"
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lo", type=int, required=True, help="first base, at least 2")
    parser.add_argument("--hi", type=int, required=True, help="last base")
    args = parser.parse_args(argv)
    if args.lo < 2 or args.hi < args.lo:
        parser.error("need 2 <= --lo <= --hi")
    print(certificate_digest(args.lo, args.hi))
    return 0


if __name__ == "__main__":
    sys.exit(main())
