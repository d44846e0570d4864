"""Command-line front end: cover checks, cyclotomic queries, arithmetic
helpers, certificate construction/verification, and minimum search.

Exit codes: 0 success, 1 negative result (not a cover, composite,
invalid certificate, empty search), 2 usage error, 3 budget exceeded.
Big integers cross the boundary as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import Congruence, crt_solve, factorize, multiplicative_order, prime_verdict
from .covering import (
    DEFAULT_MAX_ASSIGNMENTS,
    BudgetExceeded,
    CoveringSystem,
    affine_orbit,
    enumerate_covers,
    verify_cover,
)
from .construct import (
    MULTIPLE_OF_M_MINUS_1,
    NONTRIVIAL,
    RIESEL,
    SIERPINSKI,
    FactorBudgetExceeded,
    NoQualifyingPrime,
    SierpinskiCertificate,
    base2_certificate,
    construct,
    verify_certificate,
)
from .cyclotomic import cyclotomic_poly, eval_cyclotomic
from .search import InsufficientPrimes, SearchConfig, search_min

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _cmd_cover_verify(args) -> int:
    system = CoveringSystem.parse(args.system)
    ok, witness = verify_cover(system)
    if args.json:
        print(_dumps({
            "classes": system.to_json(),
            "cover": ok,
            "period": system.lcm,
            "witness": witness,
        }))
    elif ok:
        print(f"cover: yes (period {system.lcm})")
    else:
        print(f"not a cover: witness {witness}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_cover_enumerate(args) -> int:
    moduli = _int_list(args.moduli)
    covers = enumerate_covers(moduli, max_assignments=args.limit)
    if args.json:
        print(_dumps({
            "count": len(covers),
            "covers": [list(c.residues) for c in covers],
            "moduli": list(moduli),
        }))
    else:
        for c in covers:
            print(str(c))
        print(f"count: {len(covers)}")
    return EXIT_OK


def _cmd_cover_orbit(args) -> int:
    seed = CoveringSystem.parse(args.system)
    orbit = sorted(affine_orbit(seed), key=lambda s: s.residues)
    if args.json:
        print(_dumps({
            "count": len(orbit),
            "moduli": list(seed.moduli),
            "orbit": [list(c.residues) for c in orbit],
            "seed": list(seed.residues),
        }))
    else:
        for c in orbit:
            print(str(c))
        print(f"count: {len(orbit)}")
    return EXIT_OK


def _cmd_cyclo_poly(args) -> int:
    poly = cyclotomic_poly(args.n)
    if args.json:
        print(_dumps({
            "coefficients": list(poly.coeffs),
            "degree": poly.degree,
            "n": args.n,
        }))
    else:
        print(" ".join(str(c) for c in poly.coeffs))
    return EXIT_OK


def _cmd_cyclo_eval(args) -> int:
    value = eval_cyclotomic(args.n, args.x)
    if args.json:
        print(_dumps({"n": args.n, "value": str(value), "x": str(args.x)}))
    else:
        print(value)
    return EXIT_OK


def _cmd_factor(args) -> int:
    fac = factorize(args.x)
    if args.json:
        print(_dumps({
            "cofactor": str(fac.cofactor),
            "complete": fac.is_complete,
            "factors": [
                {"certainty": cert, "e": e, "p": str(p)} for p, e, cert in fac.factors
            ],
            "value": str(fac.value),
        }))
    else:
        parts = []
        for p, e, cert in fac.factors:
            text = str(p) if e == 1 else f"{p}^{e}"
            if cert != "proven":
                text += " (probable)"
            parts.append(text)
        if not fac.is_complete:
            parts.append(f"{fac.cofactor} (unfactored)")
        print(f"{fac.value} = {' * '.join(parts)}" if parts else str(fac.value))
    return EXIT_OK if fac.is_complete else EXIT_BUDGET


def _cmd_isprime(args) -> int:
    isp, certainty = prime_verdict(args.x, seed=args.seed)
    if args.json:
        print(_dumps({"certainty": certainty, "prime": isp, "x": str(args.x)}))
    else:
        print(f"{'prime' if isp else 'composite'} ({certainty})")
    return EXIT_OK if isp else EXIT_NEGATIVE


def _cmd_order(args) -> int:
    order = multiplicative_order(args.m, args.p)
    if args.json:
        print(_dumps({"m": str(args.m), "order": order, "p": str(args.p)}))
    else:
        print(order)
    return EXIT_OK


def _cmd_crt(args) -> int:
    congruences = []
    for token in " ".join(args.pairs).split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected residue,modulus pairs, got {token!r}")
        congruences.append(Congruence(int(parts[0]), int(parts[1])))
    sol = crt_solve(congruences)
    if args.json:
        print(_dumps({"modulus": str(sol.modulus), "residue": str(sol.residue)}))
    else:
        print(str(sol))
    return EXIT_OK


def _cmd_construct(args) -> int:
    variant = RIESEL if args.riesel else SIERPINSKI
    constraint = MULTIPLE_OF_M_MINUS_1 if args.times_m_minus_1 else NONTRIVIAL
    if args.base == 2:
        if variant != SIERPINSKI or constraint != NONTRIVIAL:
            raise ValueError("base 2 supports only the plain sierpinski certificate")
        cert = base2_certificate(args.index)
    else:
        cert = construct(args.base, variant, constraint, args.index)
    if args.json:
        print(cert.to_json())
    else:
        print(f"base {cert.base}: k = {cert.k} ({cert.variant}, {cert.multiplier_constraint})")
        for a, n, p in cert.entries:
            print(f"  {a}({n}): {p}")
        qs = ",".join(str(q) for q in cert.triviality_primes) or "none"
        print(f"triviality primes: {qs}")
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    cert = SierpinskiCertificate.from_json_dict(doc)
    ok, reason = verify_certificate(cert)
    if args.json:
        print(_dumps({"reason": reason, "valid": ok}))
    elif ok:
        print("certificate: valid")
    else:
        print(f"certificate: INVALID ({reason})")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_search(args) -> int:
    config = SearchConfig(
        base=args.base,
        moduli=tuple(_int_list(args.moduli)) if args.moduli else None,
        a_max=args.amax,
        n_max_elimination=args.nmax,
        k_scan_bound=args.kscan,
        seed=args.seed,
    )
    report = search_min(config)
    if args.json:
        print(_dumps(report.to_json_dict()))
    else:
        print(f"base: {report.config.base}")
        print(f"moduli: {','.join(str(n) for n in report.moduli)}")
        print("candidates:")
        for c in report.candidates:
            print(f"  cover {c.cover} primes {','.join(str(p) for p in c.primes)}: class {c.crt}, k = {c.k}")
        if report.minimum_nontrivial_k is None:
            print("minimum nontrivial k: none found")
        else:
            print(f"minimum nontrivial k: {report.minimum_nontrivial_k}")
            cert = report.certificate
            print(f"witness cover: {cert.cover}")
            print(f"witness primes: {','.join(str(p) for p in cert.primes)}")
        counts = {"trivial": 0, "prime_found": 0, "survivor": 0}
        for r in report.eliminations:
            counts[r.status] += 1
        print(
            f"eliminations (k <= {report.elimination_bound}, "
            f"n <= {report.config.n_max_elimination}): "
            f"{counts['trivial']} trivial, {counts['prime_found']} prime found, "
            f"{counts['survivor']} survivors"
        )
        if report.survivors_below_minimum:
            ks = ", ".join(str(k) for k in report.survivors_below_minimum)
            print(f"UNRESOLVED survivors below minimum: {ks}")
        else:
            print("survivors below minimum: none")
    return EXIT_OK if report.minimum_nontrivial_k is not None else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpinski",
        description="Covering systems, cyclotomic polynomials, and Sierpinski/Riesel certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="covering system operations")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    cv = cover_sub.add_parser("verify", help="exhaustively verify one period")
    cv.add_argument("system", help='classes like "0(2),0(3),1(4),5(6),7(12)"')
    cv.add_argument("--json", action="store_true")
    cv.set_defaults(handler=_cmd_cover_verify)
    ce = cover_sub.add_parser("enumerate", help="all covers on a moduli multiset")
    ce.add_argument("moduli", help='comma-separated moduli like "3,4,6,6,8,8"')
    ce.add_argument("--limit", type=int, default=DEFAULT_MAX_ASSIGNMENTS,
                    help="assignment-space budget")
    ce.add_argument("--json", action="store_true")
    ce.set_defaults(handler=_cmd_cover_enumerate)
    co = cover_sub.add_parser("orbit", help="closure under affine maps and swaps")
    co.add_argument("system", help="seed covering system")
    co.add_argument("--json", action="store_true")
    co.set_defaults(handler=_cmd_cover_orbit)

    cyclo = sub.add_parser("cyclo", help="cyclotomic polynomials")
    cyclo_sub = cyclo.add_subparsers(dest="subcommand", required=True)
    cp = cyclo_sub.add_parser("poly", help="coefficients of Phi_n, constant first")
    cp.add_argument("n", type=int)
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(handler=_cmd_cyclo_poly)
    cev = cyclo_sub.add_parser("eval", help="Phi_n(x) for integer x")
    cev.add_argument("n", type=int)
    cev.add_argument("x", type=int)
    cev.add_argument("--json", action="store_true")
    cev.set_defaults(handler=_cmd_cyclo_eval)

    fa = sub.add_parser("factor", help="factor an integer within budget")
    fa.add_argument("x", type=int)
    fa.add_argument("--json", action="store_true")
    fa.set_defaults(handler=_cmd_factor)

    ip = sub.add_parser("isprime", help="primality verdict with certainty")
    ip.add_argument("x", type=int)
    ip.add_argument("--seed", type=int, default=0)
    ip.add_argument("--json", action="store_true")
    ip.set_defaults(handler=_cmd_isprime)

    od = sub.add_parser("order", help="multiplicative order of m mod prime p")
    od.add_argument("m", type=int)
    od.add_argument("p", type=int)
    od.add_argument("--json", action="store_true")
    od.set_defaults(handler=_cmd_order)

    cr = sub.add_parser("crt", help="combine residue,modulus pairs")
    cr.add_argument("pairs", nargs="+", help='pairs like "4,5 1,7"')
    cr.add_argument("--json", action="store_true")
    cr.set_defaults(handler=_cmd_crt)

    cn = sub.add_parser("construct", help="build a compositeness certificate")
    cn.add_argument("base", type=int)
    cn.add_argument("--riesel", action="store_true", help="certify k*m^n - 1 instead")
    cn.add_argument("--times-m-minus-1", action="store_true", dest="times_m_minus_1",
                    help="require (m-1) | k instead of nontriviality")
    cn.add_argument("--index", type=int, default=0, help="position in the infinite family")
    cn.add_argument("--json", action="store_true")
    cn.set_defaults(handler=_cmd_construct)

    vc = sub.add_parser("verify-cert", help="check a certificate JSON file")
    vc.add_argument("file")
    vc.add_argument("--json", action="store_true")
    vc.set_defaults(handler=_cmd_verify_cert)

    se = sub.add_parser("search", help="minimum Sierpinski number search")
    se.add_argument("base", type=int)
    se.add_argument("--moduli", help='multiset like "3,4,6,6,8,8" (default: discovered)')
    se.add_argument("--amax", type=int, default=8)
    se.add_argument("--nmax", type=int, default=30)
    se.add_argument("--kscan", type=int, default=1000)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--json", action="store_true")
    se.set_defaults(handler=_cmd_search)

    return parser


def run(argv) -> int:
    """Parse argv and dispatch; never raises for expected failure modes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # outputs such as cyclo eval may pass Python's int-to-str digit cap; parsing keeps it
    digit_cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if digit_cap:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (BudgetExceeded, FactorBudgetExceeded, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoQualifyingPrime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, KeyError, TypeError, OSError, InsufficientPrimes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
