"""End-to-end acceptance checks.

Each test prints one summary line (even under captured output):

    ACCEPTANCE <n>: PASS - <description> (<seconds>)

Criteria with a runtime budget fail when the wall clock exceeds it.
"""

import json
import math
import time
from contextlib import contextmanager

import pytest
import sympy

from sierpinski.cli import run
from sierpinski.construct import (
    GENERIC_COVER,
    MERSENNE_COVER,
    MULTIPLE_OF_M_MINUS_1,
    RIESEL,
    SIERPINSKI,
    construct,
    verify_certificate,
)
from sierpinski.covering import (
    CoveringSystem,
    affine_orbit,
    enumerate_covers,
    verify_cover,
)
from sierpinski.cyclotomic import cyclotomic_poly
from sierpinski.search import SearchConfig, search_min


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # the kernel is pure Python, with no compile step; one enumeration up
    # front keeps first-call costs out of the per-criterion wall-clock budgets
    enumerate_covers([2, 2])
    yield


@contextmanager
def criterion(capsys, number: int, description: str, limit: float | None = None):
    start = time.perf_counter()
    error = None
    try:
        yield
    except BaseException as exc:  # report FAIL before letting pytest see it
        error = exc
    elapsed = time.perf_counter() - start
    over = limit is not None and elapsed >= limit
    verdict = "FAIL" if error is not None or over else "PASS"
    detail = f"{elapsed:.2f}s" + (f", limit {limit:g}s" if limit is not None else "")
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {verdict} - {description} ({detail})")
    if error is not None:
        raise error
    if over:
        pytest.fail(f"criterion {number} took {elapsed:.2f}s, budget {limit:g}s")


def test_01_stock_covering_systems(capsys):
    with criterion(capsys, 1, "both stock covering systems verify exhaustively", 1.0):
        assert verify_cover(GENERIC_COVER) == (True, None)
        assert GENERIC_COVER.lcm == 12
        assert verify_cover(MERSENNE_COVER) == (True, None)
        assert MERSENNE_COVER.lcm == 240


def test_02_base_34_minimum(capsys):
    with criterion(capsys, 2, "base 34 search finds minimum k = 6 with full records", 5.0):
        code = run(["search", "34", "--moduli", "2,2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["minimum_nontrivial_k"] == "6"
        classes = {(c["class"]["residue"], c["class"]["modulus"]) for c in doc["candidates"]}
        assert classes == {("29", "35"), ("6", "35")}
        prime_hits = {
            int(e["k"]): (e["n"], e["value"])
            for e in doc["eliminations"]
            if e["status"] == "prime_found"
        }
        assert prime_hits == {1: (4, "1336337"), 3: (1, "103"), 4: (1, "137")}
        trivial = {int(e["k"]) for e in doc["eliminations"] if e["status"] == "trivial"}
        assert trivial == {2, 5}
        assert doc["minimality_established"] is True


def test_03_base_127_minima(capsys):
    with criterion(capsys, 3, "base 127 minima for both moduli multisets", 60.0):
        report = search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8)))
        assert report.minimum_nontrivial_k == 11254645362
        cert = report.certificate
        assert set(str(c) for c in cert.cover.classes) == {
            "1(3)", "1(4)", "0(6)", "2(6)", "3(8)", "7(8)"}
        assert set(cert.primes) == {5419, 5, 13, 1231, 17, 137}
        report5 = search_min(SearchConfig(127, moduli=(3, 4, 4, 6, 6)))
        assert report5.minimum_nontrivial_k == 43429139464


def test_04_affine_completeness(capsys):
    with criterion(capsys, 4, "orbit closure reproduces full enumeration on both multisets"):
        seed5 = CoveringSystem.parse("0(3),0(4),2(4),1(6),5(6)")
        orbit5 = {c.residues for c in affine_orbit(seed5)}
        all5 = {c.residues for c in enumerate_covers([3, 4, 4, 6, 6])}
        assert orbit5 == all5
        assert len(all5) == 24

        # the printed 6-class seed leaves 2 (mod 24) uncovered; flipping its
        # second class to 2(4) is the only single-residue repair
        printed = CoveringSystem.parse("0(3),0(4),1(6),5(6),4(8),0(8)")
        assert verify_cover(printed) == (False, 2)
        repairs = []
        for i, cls in enumerate(printed.classes):
            for r in range(cls.modulus):
                if r == cls.residue:
                    continue
                trial = list(printed.classes)
                trial[i] = (r, cls.modulus)
                if verify_cover(CoveringSystem(trial))[0]:
                    repairs.append((i, r))
        assert repairs == [(1, 2)]

        seed6 = CoveringSystem.parse("0(3),2(4),1(6),5(6),4(8),0(8)")
        orbit6 = {c.residues for c in affine_orbit(seed6)}
        all6 = {c.residues for c in enumerate_covers([3, 4, 6, 6, 8, 8])}
        assert orbit6 == all6
        assert len(all6) == 48


def test_05_classical_base_2_coverage(capsys):
    with criterion(capsys, 5, "78557*2^n + 1 always divisible by a stored prime", 5.0):
        primes = (3, 5, 7, 13, 19, 37, 73)
        failures = [
            n
            for n in range(1, 10_001)
            if not any((78557 * pow(2, n, p) + 1) % p == 0 for p in primes)
        ]
        assert failures == []
        cert = construct(2)
        assert cert.primes == primes


def test_06_certificates_for_every_base_3_to_50(capsys):
    with criterion(capsys, 6, "construct certifies every base 3..50 with live witnesses"):
        mersenne_bases = []
        for m in range(3, 51):
            cert = construct(m)
            ok, why = verify_certificate(cert)
            assert ok, f"base {m}: {why}"
            if (m + 1) & m == 0:
                mersenne_bases.append(m)
                assert len(cert.entries) == 13
            else:
                assert len(cert.entries) == 5
            for q in sympy.primefactors(m - 1):
                assert cert.k % q != q - 1
            for n in range(1, 301):
                p = cert.dividing_prime(n)
                term = cert.k * cert.base**n + cert.sign
                assert p is not None and term % p == 0 and 1 < p < term
        assert mersenne_bases == [3, 7, 15, 31]


def test_07_riesel_and_multiple_variants(capsys):
    with criterion(capsys, 7, "riesel and (m-1) | k variants certify for bases 3..20"):
        for m in range(3, 21):
            for variant, constraint in (
                (RIESEL, "nontrivial"),
                (SIERPINSKI, MULTIPLE_OF_M_MINUS_1),
                (RIESEL, MULTIPLE_OF_M_MINUS_1),
            ):
                cert = construct(m, variant, constraint)
                ok, why = verify_certificate(cert)
                assert ok, f"base {m} {variant} {constraint}: {why}"
                sign = 1 if variant == SIERPINSKI else -1
                for n in range(1, 50):
                    p = cert.dividing_prime(n)
                    assert p is not None and (cert.k * m**n + sign) % p == 0


def test_08_cyclotomic_identities(capsys):
    with criterion(capsys, 8, "cyclotomic product/substitution/degree identities"):
        x = sympy.Symbol("x")

        def poly(coeffs, e=1):
            # P(x**e) from P's coefficients, constant term first
            spread = [0] * ((len(coeffs) - 1) * e + 1)
            spread[::e] = coeffs
            return sympy.Poly.from_list(spread[::-1], x)

        for n in range(1, 61):
            prod = poly(cyclotomic_poly(1))
            for d in sympy.divisors(n)[1:]:
                prod = prod * poly(cyclotomic_poly(d))
            assert prod == sympy.Poly(x**n - 1, x)
        for p in (2, 3, 5):
            for k in (1, 2):
                for n in range(1, 51):
                    # Phi_{p^k n}(x) = Phi_n(x^(p^k)) for p | n, and for p coprime to n
                    # Phi_n(x^(p^k)) = Phi_n(x^(p^(k-1))) * Phi_{p^k n}(x)
                    q = p**k
                    lhs = poly(cyclotomic_poly(n), q)
                    if n % p == 0:
                        assert lhs == poly(cyclotomic_poly(q * n)), (n, p, k)
                    else:
                        rhs = poly(cyclotomic_poly(n), q // p) * poly(cyclotomic_poly(q * n))
                        assert lhs == rhs, (n, p, k)
        assert cyclotomic_poly(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)
        for n in range(1, 201):
            assert len(cyclotomic_poly(n)) - 1 == sympy.totient(n)


def test_09_infinite_families(capsys):
    with criterion(capsys, 9, "ten distinct increasing certificates per base 3, 10, 34"):
        for m in (3, 10, 34):
            certs = [construct(m, index=i) for i in range(10)]
            ks = [c.k for c in certs]
            assert len(set(ks)) == 10
            assert ks == sorted(ks)
            for cert in certs:
                assert verify_certificate(cert) == (True, None)
