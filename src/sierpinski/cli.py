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
from collections import Counter

from .arith import BudgetExceeded, Congruence, crt_solve, factorize, multiplicative_order, prime_verdict
from .covering import (
    DEFAULT_MAX_ASSIGNMENTS,
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
    NoQualifyingPrime,
    SierpinskiCertificate,
    base2_certificate,
    construct,
    verify_certificate,
)
from .cyclotomic import cyclotomic_poly, eval_cyclotomic
from .search import SearchConfig, search_min

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


def _cmd_cover_verify(args):
    system = CoveringSystem.parse(args.system)
    ok, witness = verify_cover(system)
    return EXIT_OK if ok else EXIT_NEGATIVE, lambda: {
        "classes": system.to_json(),
        "cover": ok,
        "period": system.lcm,
        "witness": witness,
    }, lambda: f"cover: yes (period {system.lcm})" if ok else f"not a cover: witness {witness}"


def _list_text(systems) -> str:
    return "\n".join([*(str(c) for c in systems), f"count: {len(systems)}"])


def _cmd_cover_enumerate(args):
    moduli = _int_list(args.moduli)
    covers = enumerate_covers(moduli, max_assignments=args.limit)
    return EXIT_OK, lambda: {
        "count": len(covers),
        "covers": [list(c.residues) for c in covers],
        "moduli": list(moduli),
    }, lambda: _list_text(covers)


def _cmd_cover_orbit(args):
    seed = CoveringSystem.parse(args.system)
    orbit = sorted(affine_orbit(seed), key=lambda s: s.residues)
    return EXIT_OK, lambda: {
        "count": len(orbit),
        "moduli": list(seed.moduli),
        "orbit": [list(c.residues) for c in orbit],
        "seed": list(seed.residues),
    }, lambda: _list_text(orbit)


def _cmd_cyclo_poly(args):
    poly = cyclotomic_poly(args.n)
    return EXIT_OK, lambda: {
        "coefficients": list(poly.coeffs),
        "degree": poly.degree,
        "n": args.n,
    }, lambda: " ".join(str(c) for c in poly.coeffs)


def _cmd_cyclo_eval(args):
    value = eval_cyclotomic(args.n, args.x)
    return EXIT_OK, lambda: {
        "n": args.n, "value": str(value), "x": str(args.x)
    }, lambda: str(value)


def _factor_text(fac) -> str:
    parts = []
    for p, e, cert in fac.factors:
        text = str(p) if e == 1 else f"{p}^{e}"
        if cert != "proven":
            text += " (probable)"
        parts.append(text)
    if not fac.is_complete:
        parts.append(f"{fac.cofactor} (unfactored)")
    return f"{fac.value} = {' * '.join(parts)}" if parts else str(fac.value)


def _cmd_factor(args):
    fac = factorize(args.x)
    code = EXIT_OK if fac.is_complete else EXIT_BUDGET
    return code, lambda: {
        "cofactor": str(fac.cofactor),
        "complete": fac.is_complete,
        "factors": [
            {"certainty": cert, "e": e, "p": str(p)} for p, e, cert in fac.factors
        ],
        "value": str(fac.value),
    }, lambda: _factor_text(fac)


def _cmd_isprime(args):
    isp, certainty = prime_verdict(args.x, seed=args.seed)
    return EXIT_OK if isp else EXIT_NEGATIVE, lambda: {
        "certainty": certainty, "prime": isp, "x": str(args.x)
    }, lambda: f"{'prime' if isp else 'composite'} ({certainty})"


def _cmd_order(args):
    order = multiplicative_order(args.m, args.p)
    return EXIT_OK, lambda: {
        "m": str(args.m), "order": order, "p": str(args.p)
    }, lambda: str(order)


def _cmd_crt(args):
    congruences = []
    for token in " ".join(args.pairs).split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected residue,modulus pairs, got {token!r}")
        congruences.append(Congruence(int(parts[0]), int(parts[1])))
    sol = crt_solve(congruences)
    return EXIT_OK, lambda: {
        "modulus": str(sol.modulus), "residue": str(sol.residue)
    }, lambda: str(sol)


def _construct_text(cert) -> str:
    lines = [f"base {cert.base}: k = {cert.k} ({cert.variant}, {cert.multiplier_constraint})"]
    lines += [f"  {a}({n}): {p}" for a, n, p in cert.entries]
    qs = ",".join(str(q) for q in cert.triviality_primes) or "none"
    lines.append(f"triviality primes: {qs}")
    return "\n".join(lines)


def _cmd_construct(args):
    variant = RIESEL if args.riesel else SIERPINSKI
    constraint = MULTIPLE_OF_M_MINUS_1 if args.times_m_minus_1 else NONTRIVIAL
    if args.base == 2:
        if variant != SIERPINSKI or constraint != NONTRIVIAL:
            raise ValueError("base 2 supports only the plain sierpinski certificate")
        cert = base2_certificate(args.index)
    else:
        cert = construct(args.base, variant, constraint, args.index)
    return EXIT_OK, cert.to_json_dict, lambda: _construct_text(cert)


def _cmd_verify_cert(args):
    with open(args.file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    cert = SierpinskiCertificate.from_json_dict(doc)
    ok, reason = verify_certificate(cert)
    return EXIT_OK if ok else EXIT_NEGATIVE, lambda: {
        "reason": reason, "valid": ok
    }, lambda: "certificate: valid" if ok else f"certificate: INVALID ({reason})"


def _search_text(report) -> str:
    lines = [
        f"base: {report.config.base}",
        f"moduli: {','.join(str(n) for n in report.moduli)}",
        "candidates:",
    ]
    for c in report.candidates:
        lines.append(f"  cover {c.cover} primes {','.join(str(p) for p in c.primes)}: class {c.crt}, k = {c.k}")
    if report.minimum_nontrivial_k is None:
        lines.append("minimum nontrivial k: none found")
    else:
        lines.append(f"minimum nontrivial k: {report.minimum_nontrivial_k}")
        cert = report.certificate
        lines.append(f"witness cover: {cert.cover}")
        lines.append(f"witness primes: {','.join(str(p) for p in cert.primes)}")
    counts = Counter(r.status for r in report.eliminations)
    lines.append(
        f"eliminations (k <= {report.elimination_bound}, "
        f"n <= {report.config.n_max_elimination}): "
        f"{counts['trivial']} trivial, {counts['prime_found']} prime found, "
        f"{counts['survivor']} survivors"
    )
    if report.survivors_below_minimum:
        ks = ", ".join(str(k) for k in report.survivors_below_minimum)
        lines.append(f"UNRESOLVED survivors below minimum: {ks}")
    else:
        lines.append("survivors below minimum: none")
    return "\n".join(lines)


def _cmd_search(args):
    config = SearchConfig(
        base=args.base,
        moduli=tuple(_int_list(args.moduli)) if args.moduli else None,
        a_max=args.amax,
        n_max_elimination=args.nmax,
        k_scan_bound=args.kscan,
        seed=args.seed,
    )
    report = search_min(config)
    code = EXIT_OK if report.minimum_nontrivial_k is not None else EXIT_NEGATIVE
    return code, report.to_json_dict, lambda: _search_text(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpinski",
        description="Covering systems, cyclotomic polynomials, and Sierpinski/Riesel certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name, handler, help):
        command = group.add_parser(name, help=help)
        command.set_defaults(handler=handler)
        leaves.append(command)
        return command

    cover = sub.add_parser("cover", help="covering system operations")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    cv = leaf(cover_sub, "verify", _cmd_cover_verify, "exhaustively verify one period")
    cv.add_argument("system", help='classes like "0(2),0(3),1(4),5(6),7(12)"')
    ce = leaf(cover_sub, "enumerate", _cmd_cover_enumerate, "all covers on a moduli multiset")
    ce.add_argument("moduli", help='comma-separated moduli like "3,4,6,6,8,8"')
    ce.add_argument("--limit", type=int, default=DEFAULT_MAX_ASSIGNMENTS,
                    help="assignment-space budget")
    co = leaf(cover_sub, "orbit", _cmd_cover_orbit, "closure under affine maps and swaps")
    co.add_argument("system", help="seed covering system")

    cyclo = sub.add_parser("cyclo", help="cyclotomic polynomials")
    cyclo_sub = cyclo.add_subparsers(dest="subcommand", required=True)
    cp = leaf(cyclo_sub, "poly", _cmd_cyclo_poly, "coefficients of Phi_n, constant first")
    cp.add_argument("n", type=int)
    cev = leaf(cyclo_sub, "eval", _cmd_cyclo_eval, "Phi_n(x) for integer x")
    cev.add_argument("n", type=int)
    cev.add_argument("x", type=int)

    fa = leaf(sub, "factor", _cmd_factor, "factor an integer within budget")
    fa.add_argument("x", type=int)

    ip = leaf(sub, "isprime", _cmd_isprime, "primality verdict with certainty")
    ip.add_argument("x", type=int)
    ip.add_argument("--seed", type=int, default=0)

    od = leaf(sub, "order", _cmd_order, "multiplicative order of m mod prime p")
    od.add_argument("m", type=int)
    od.add_argument("p", type=int)

    cr = leaf(sub, "crt", _cmd_crt, "combine residue,modulus pairs")
    cr.add_argument("pairs", nargs="+", help='pairs like "4,5 1,7"')

    cn = leaf(sub, "construct", _cmd_construct, "build a compositeness certificate")
    cn.add_argument("base", type=int)
    cn.add_argument("--riesel", action="store_true", help="certify k*m^n - 1 instead")
    cn.add_argument("--times-m-minus-1", action="store_true", dest="times_m_minus_1",
                    help="require (m-1) | k instead of nontriviality")
    cn.add_argument("--index", type=int, default=0, help="position in the infinite family")

    vc = leaf(sub, "verify-cert", _cmd_verify_cert, "check a certificate JSON file")
    vc.add_argument("file")

    se = leaf(sub, "search", _cmd_search, "minimum Sierpinski number search")
    se.add_argument("base", type=int)
    se.add_argument("--moduli", help='multiset like "3,4,6,6,8,8" (default: discovered)')
    se.add_argument("--amax", type=int, default=SearchConfig.a_max)
    se.add_argument("--nmax", type=int, default=SearchConfig.n_max_elimination)
    se.add_argument("--kscan", type=int, default=SearchConfig.k_scan_bound)
    se.add_argument("--seed", type=int, default=SearchConfig.seed)

    # declared last so that each leaf's help lists it after its own options
    for command in leaves:
        command.add_argument("--json", action="store_true")
    return parser


def run(argv) -> int:
    """Parse argv and dispatch; never raises for expected failure modes.

    Each handler returns its exit code and two zero-argument renderers, the
    JSON document's and the text's; only the requested one is called. Exit 3
    is exactly a BudgetExceeded and exit 2 a ValueError or OSError; any
    other exception but NoQualifyingPrime (exit 1) is a fault and propagates.
    """
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
        code, doc, text = args.handler(args)
        print(_dumps(doc()) if args.json else text())
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoQualifyingPrime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
