"""Certificate construction and verification for k*m**n +/- 1 families."""

import dataclasses
import hashlib
import importlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpinski.arith as arith
from sierpinski.arith import Congruence, FactorBudget, Factorization, crt_solve
from sierpinski.construct import (
    BASE2_COVER,
    GENERIC_COVER,
    MERSENNE_COVER,
    MULTIPLE_OF_M_MINUS_1,
    NONTRIVIAL,
    RIESEL,
    SIERPINSKI,
    FactorBudgetExceeded,
    NoQualifyingPrime,
    VARIANT_SIGN,
    SierpinskiCertificate,
    build_congruences,
    certify,
    class_table,
    construct,
    nth_admissible,
    select_cover_prime,
    triviality_primes_for,
    verify_certificate,
)
from sierpinski.covering import CoveringSystem, enumerate_cover_rows, systems_from_rows, verify_cover
from sierpinski.cyclotomic import eval_cyclotomic
from sierpinski.search import assignments_for_cover, discover_prime_pool


class TestBudgetMessagesBeyondTheDigitCap:
    """Budget errors on integers over 4,300 digits quote them in full outside cli.run."""

    def test_select_cover_prime(self, digit_cap):
        with pytest.raises(FactorBudgetExceeded) as info:
            select_cover_prime(10**4400, 2, FactorBudget(2, 0))
        assert str(info.value) == f"Phi_2(1{'0' * 4400}) = 1{'0' * 4399}1 not fully factored within budget"

    def test_triviality_primes_for(self, digit_cap):
        with pytest.raises(FactorBudgetExceeded) as info:
            triviality_primes_for(10**4400 + 2, FactorBudget(2, 0))
        assert str(info.value) == f"m - 1 = 1{'0' * 4399}1 not fully factored within budget"


class TestBuiltinCovers:
    def test_both_cover(self):
        assert verify_cover(GENERIC_COVER) == (True, None)
        assert verify_cover(MERSENNE_COVER) == (True, None)
        # the mersenne system must avoid moduli 1 and 2
        assert min(MERSENNE_COVER.moduli) == 3
        assert len(MERSENNE_COVER.classes) == 13
        assert verify_cover(BASE2_COVER) == (True, None)
        # Phi_6(2) = 3 has no prime coprime to 6, so the base-2 system avoids 6
        assert 6 not in BASE2_COVER.moduli


class TestSelectCoverPrime:
    def test_examples(self):
        assert select_cover_prime(34, 1) == 3
        assert select_cover_prime(34, 2) == 5
        # 3 divides Phi_3(34) = 1191 but gcd(3, 3) > 1, so 397 wins
        assert select_cover_prime(34, 3) == 397
        assert select_cover_prime(2, 2) == 3
        with pytest.raises(ValueError):
            select_cover_prime(1, 2)
        with pytest.raises(ValueError):
            select_cover_prime(34, 0)

    def test_order_is_exactly_n(self):
        checked = 0
        for m in (3, 10, 34, 127):
            for n in (1, 2, 3, 4, 6, 8, 12):
                try:
                    p = select_cover_prime(m, n)
                except NoQualifyingPrime:
                    # mersenne-like bases have Phi_2(m) = m + 1 a power of two
                    assert n == 2 and (m + 1) & m == 0
                    continue
                assert pow(m, n, p) == 1
                for d in range(1, n):
                    if n % d == 0:
                        assert pow(m, d, p) != 1
                checked += 1
        assert checked >= 20

    def test_no_qualifying_prime(self):
        # Phi_2(7) = 8 = 2**3 and gcd(2, 2) > 1
        with pytest.raises(NoQualifyingPrime):
            select_cover_prime(7, 2)

    def test_budget_exhaustion(self):
        with pytest.raises(FactorBudgetExceeded):
            select_cover_prime(34, 2, FactorBudget(trial_bound=2, rho_steps=0))
        # 13 | Phi_12(13002) is the least prime 1 (mod 12): trial division
        # proves it the minimum at a bound of 13, with no rho budget left
        assert select_cover_prime(13002, 12, FactorBudget(trial_bound=13, rho_steps=0)) == 13

    def test_prime_dividing_m_minus_1_is_refused(self, monkeypatch):
        # a factorization claiming 3 | Phi_2(34) = 35 breaks the order
        # invariant (3 | 33 = m - 1); the check must survive python -O
        fake = Factorization(value=35, factors=((3, 1, "proven"),), cofactor=1)
        # sierpinski.construct as an attribute is the function; patch the module
        module = importlib.import_module("sierpinski.construct")
        # the claim comes from trial division ...
        monkeypatch.setattr(module, "_trial_division", lambda value, bound, order, least: ([3], 1))
        with pytest.raises(ArithmeticError, match="divides m - 1"):
            select_cover_prime(34, 2)
        # ... or from the rho stage after trial division found nothing
        monkeypatch.setattr(module, "_trial_division", lambda value, bound, order, least: ([], 35))
        monkeypatch.setattr(module, "_factor_rest", lambda value, found, rest, budget, order: fake)
        with pytest.raises(ArithmeticError, match="divides m - 1"):
            select_cover_prime(34, 2)

    def test_matches_sympy_minimum(self):
        # sympy needs ~30 s for Phi_17, Phi_19 and Phi_23 of the larger m
        grid = [(m, n) for m in range(2, 60) for n in range(1, 25) if n not in (17, 19, 23) or m < 12]
        # every order of the stored covers where construct uses them; 2**11 - 1
        # exits 3 on an unfactored Phi_n
        stored = [(2**l - 1, cls.modulus) for l in range(2, 13) if l != 11 for cls in MERSENNE_COVER.classes]
        stored += [(2, cls.modulus) for cls in BASE2_COVER.classes]
        for m, n in grid + stored:
            value = eval_cyclotomic(n, m)
            qualifying = [p for p in sympy.primefactors(value) if math.gcd(p, n) == 1]
            if qualifying:
                assert select_cover_prime(m, n) == min(qualifying), (m, n)
            else:
                with pytest.raises(NoQualifyingPrime):
                    select_cover_prime(m, n)
        assert (len(grid), len(stored)) == (1248, 137)

    def test_trial_hit_skips_rho(self, monkeypatch):
        # Phi_48(21) = 193 * 433 * 673 * 1001713 * 25392481: the part above
        # trial_bound is composite, but 193 < trial_bound is already the minimum
        value = eval_cyclotomic(48, 21)
        assert value % 193 == 0 and not sympy.isprime(arith._trial_division(value, 100_000)[1])
        assert not [p for p in sympy.primerange(5, 193) if value % p == 0]

        def no_rho(n, max_steps):
            raise AssertionError("rho ran although trial division settled the minimum")

        monkeypatch.setattr(arith, "_brent_rho", no_rho)
        assert select_cover_prime(21, 48) == 193

    def test_trial_division_stops_after_the_first_hit_block(self, monkeypatch):
        # 13 | Phi_12(13002) (13002 = 2 mod 13, and 2 has order 12 mod 13) and
        # 13 is the least prime 1 (mod 12), so block 0 settles the minimum;
        # the rest exceeds trial_bound**2, so a walk to the bound reads every
        # block that starts below trial_bound
        m, n = 13002, 12
        value = eval_cyclotomic(n, m)
        assert value % 13 == 0 and value // 13 > 100_000**2
        blocks = []
        trial_block = arith._trial_block

        def counting(step, block, bound):
            blocks.append(block)
            return trial_block(step, block, bound)

        monkeypatch.setattr(arith, "_trial_block", counting)
        assert select_cover_prime(m, n) == 13
        assert blocks == [0]
        # 2 | Phi_1(13003) = 13002 is coprime to 1: the strip settles it
        blocks.clear()
        assert select_cover_prime(m + 1, 1) == 2
        assert blocks == []
        # factorize still walks to the bound: it reads blocks in order until
        # one ends above the bound
        blocks.clear()
        arith.factorize(value, order=n)
        *_, last = blocks
        assert blocks == list(range(last + 1)) and last > 0
        assert trial_block(12, last - 1, 100_000)[0] <= 100_000 < trial_block(12, last, 100_000)[0]

    def test_incomplete_factorization_still_certifies_small_minimum(self):
        # Phi_12(24) = 331201 = 13 * 25477; the cofactor stays unfactored at
        # this budget, but 13 < trial_bound proves nothing smaller hides in it
        assert select_cover_prime(24, 12, FactorBudget(trial_bound=50, rho_steps=0)) == 13


class TestBuildCongruences:
    def test_example(self):
        cons = build_congruences(34, GENERIC_COVER, (5, 397, 13, 1123, 1069), SIERPINSKI)
        assert [(c.residue, c.modulus) for c in cons][:3] == [(4, 5), (396, 397), (8, 13)]
        for (a, n, p), c in zip(
            ((0, 2, 5), (0, 3, 397), (1, 4, 13), (5, 6, 1123), (7, 12, 1069)), cons
        ):
            assert c.modulus == p
            assert (c.residue * pow(34, a, p) + 1) % p == 0

    def test_riesel_sign(self):
        cons = build_congruences(34, GENERIC_COVER, (5, 397, 13, 1123, 1069), RIESEL)
        for (a, _, p), c in zip(((0, 2, 5), (0, 3, 397), (1, 4, 13)), cons):
            assert (c.residue * pow(34, a, p) - 1) % p == 0

    def test_rejects_bad_prime_lists(self):
        with pytest.raises(ValueError, match="one prime per"):
            build_congruences(34, GENERIC_COVER, (5, 397), SIERPINSKI)
        with pytest.raises(ValueError, match="distinct"):
            build_congruences(34, GENERIC_COVER, (5, 5, 13, 1123, 1069), SIERPINSKI)


class TestClassTable:
    def test_classes_match_the_congruence_reference(self):
        # every row of 3,4,6,6,8,8 under every assignment of base 127's pool, both signs
        moduli = (3, 4, 6, 6, 8, 8)
        covers = systems_from_rows(enumerate_cover_rows(moduli), moduli)
        assignments = assignments_for_cover(covers[0], discover_prime_pool(127, 8))
        assert (len(covers), len(assignments)) == (48, 24)
        for variant, sign in ((SIERPINSKI, 1), (RIESEL, -1)):
            for primes in assignments:
                modulus, table = class_table(127, moduli, primes, sign)
                for cover in covers:
                    residue = sum(column[a] for column, a in zip(table, cover.residues)) % modulus
                    assert Congruence(residue, modulus) == crt_solve(build_congruences(127, cover, primes, variant))

    def test_columns_step_by_the_inverse_of_m(self):
        modulus, table = class_table(34, (2, 3), (5, 397), -1)
        assert modulus == 5 * 397
        for column, (n, p) in zip(table, ((2, 5), (3, 397))):
            assert len(column) == n
            for a, term in enumerate(column):
                assert term % (modulus // p) == 0
                assert (term * pow(34, a, p) - 1) % p == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_certify_reads_the_table_cell(self, data):
        # certify sums one entry per column; the grid reads the whole table;
        # build_congruences and crt_solve are the per-cell reference
        cover = data.draw(st.sampled_from([GENERIC_COVER, MERSENNE_COVER, BASE2_COVER]))
        row = data.draw(st.one_of(st.just(cover.residues), st.tuples(*(st.integers(0, n - 1) for n in cover.moduli))))
        m = data.draw(st.one_of(st.integers(3, 10**6), st.integers(2, 40).map(lambda l: 2**l - 1)))
        variant = data.draw(st.sampled_from([SIERPINSKI, RIESEL]))
        constraint = data.draw(st.sampled_from([NONTRIVIAL, MULTIPLE_OF_M_MINUS_1]))
        index = data.draw(st.integers(0, 3))
        # distinct primes prime to m (for m**(-a)) and to m - 1 (for the walk)
        pool = [p for p in sympy.primerange(2, 200) if m * (m - 1) % p]
        primes = tuple(data.draw(st.permutations(pool))[:len(cover.moduli)])
        qs = triviality_primes_for(m)
        modulus, table = class_table(m, cover.moduli, primes, VARIANT_SIGN[variant])
        cell = Congruence(sum(column[a] for column, a in zip(table, row)) % modulus, modulus)
        reference = crt_solve(build_congruences(m, CoveringSystem(zip(row, cover.moduli)), primes, variant))
        cert = certify(m, row, cover.moduli, primes, qs, variant, constraint, index)
        assert cell == reference
        assert cert.k % modulus == cell.residue
        assert cert.k == nth_admissible(reference, m, max(primes), qs, variant, constraint, index)
        assert cert.entries == tuple(zip(row, cover.moduli, primes))


def plain_walk(m, cert):
    """The least k >= 1 of the certificate's class from crt_solve that is
    admissible under its constraint, found by stepping one modulus at a time."""
    sol = crt_solve(build_congruences(m, cert.cover, cert.primes, cert.variant))
    k = sol.residue or sol.modulus
    while k * m + cert.sign <= max(cert.primes) or (
        k % (m - 1) if cert.multiplier_constraint == MULTIPLE_OF_M_MINUS_1 else math.gcd(k + cert.sign, m - 1) > 1
    ):
        k += sol.modulus
    return k


@pytest.mark.parametrize("variant", [SIERPINSKI, RIESEL])
@pytest.mark.parametrize("constraint", [NONTRIVIAL, MULTIPLE_OF_M_MINUS_1])
def test_construct_matches_plain_walk_up_to_base_1000(variant, constraint):
    answered = 0
    for m in range(2, 1001):
        try:
            cert = construct(m, variant, constraint)
        except (FactorBudgetExceeded, NoQualifyingPrime):
            continue
        assert cert.k == plain_walk(m, cert), m
        answered += 1
    assert answered > 990


class TestConstruct:
    def test_base_34(self):
        cert = construct(34)
        assert cert.entries == (
            (0, 2, 5), (0, 3, 397), (1, 4, 13), (5, 6, 1123), (7, 12, 1069))
        assert cert.k == 48351243364
        assert cert.triviality_primes == (3, 11)
        assert verify_certificate(cert) == (True, None)

    def test_mersenne_base_uses_thirteen_classes(self):
        cert = construct(7)
        assert cert.cover.moduli == MERSENNE_COVER.moduli
        assert verify_certificate(cert) == (True, None)

    def test_small_base_sweep(self):
        for m in range(3, 20):
            cert = construct(m)
            assert verify_certificate(cert) == (True, None), m
            assert cert.base == m

    def test_riesel_variant(self):
        cert = construct(34, variant=RIESEL)
        assert cert.sign == -1
        assert verify_certificate(cert) == (True, None)
        for n in range(1, 40):
            term = cert.k * 34**n - 1
            p = cert.dividing_prime(n)
            assert p is not None and term % p == 0 and 1 < p < term

    def test_index_zero_is_least_admissible(self):
        cert = construct(34)
        # independent re-derivation: walk the CRT class from the bottom
        sol = crt_solve(build_congruences(34, cert.cover, cert.primes, SIERPINSKI))
        k = sol.residue if sol.residue else sol.modulus
        while (
            k * 34 + 1 <= max(cert.primes)
            or any(k % q == q - 1 for q in cert.triviality_primes)
        ):
            k += sol.modulus
        assert cert.k == k

    def test_index_walks_arithmetic_family(self):
        certs = [construct(10, index=i) for i in range(6)]
        ks = [c.k for c in certs]
        assert ks[0] == 919633593
        assert ks == sorted(set(ks))
        M = math.prod(certs[0].primes)
        # one residue in three is trivial mod 3, so the family steps M, 2M
        assert all(ks[i + 2] - ks[i] == 3 * M for i in range(4))
        for c in certs:
            assert c.entries == certs[0].entries
            assert verify_certificate(c) == (True, None)

    @pytest.mark.parametrize("m", [34, 31])
    @pytest.mark.parametrize("variant", [SIERPINSKI, RIESEL])
    @pytest.mark.parametrize("constraint", [NONTRIVIAL, MULTIPLE_OF_M_MINUS_1])
    def test_index_matches_plain_walk(self, m, variant, constraint):
        cert = construct(m, variant, constraint)
        sol = crt_solve(build_congruences(m, cert.cover, cert.primes, variant))
        forbidden = -cert.sign  # trivial when k = -sign mod some q | m - 1
        ks, k = [], sol.residue if sol.residue else sol.modulus
        while len(ks) < 200:
            if k * m + cert.sign > max(cert.primes) and (
                k % (m - 1) == 0 if constraint == MULTIPLE_OF_M_MINUS_1
                else all((k - forbidden) % q for q in cert.triviality_primes)
            ):
                ks.append(k)
            k += sol.modulus
        assert [construct(m, variant, constraint, i).k for i in range(200)] == ks

    def test_large_index_jumps_whole_periods(self):
        start = time.perf_counter()
        cert = construct(34, index=10**13)
        assert time.perf_counter() - start < 1.0
        # 34 - 1 = 3 * 11: 2 * 10 of every 33 representatives are nontrivial
        assert cert.k == construct(34).k + 10**13 // 20 * 33 * math.prod(cert.primes)
        assert verify_certificate(cert) == (True, None)

    def test_multiple_of_m_minus_1_constraint(self):
        certs = [
            construct(10, multiplier_constraint=MULTIPLE_OF_M_MINUS_1, index=i)
            for i in range(3)
        ]
        M = math.prod(certs[0].primes)
        for c in certs:
            assert c.k % 9 == 0
            assert verify_certificate(c) == (True, None)
        assert certs[1].k - certs[0].k == 9 * M
        assert certs[2].k - certs[1].k == 9 * M

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            construct(1)
        with pytest.raises(ValueError):
            construct(34, variant="bogus")
        with pytest.raises(ValueError):
            construct(34, multiplier_constraint="bogus")
        with pytest.raises(ValueError):
            construct(34, index=-1)

    def test_budget_exhaustion(self):
        with pytest.raises(FactorBudgetExceeded):
            construct(34, budget=FactorBudget(trial_bound=2, rho_steps=0))

    def test_one_default_budget_for_all_six_factorizations(self, monkeypatch):
        # five cover primes and m - 1 share one FactorBudget(), built at call
        # time, so patching its defaults (as CLI tests do) still shrinks it
        module = importlib.import_module("sierpinski.construct")
        budgets = []

        def spy(real):
            def call(*args):
                budgets.append(args[-1])
                return real(*args)
            return call

        monkeypatch.setattr(module, "select_cover_prime", spy(module.select_cover_prime))
        monkeypatch.setattr(module, "triviality_primes_for", spy(module.triviality_primes_for))
        assert construct(34).k == 48351243364
        assert len(budgets) == 6 and all(b is budgets[0] for b in budgets)
        assert budgets[0] == FactorBudget()
        budgets.clear()
        monkeypatch.setattr(FactorBudget.__init__, "__defaults__", (2, 0))
        with pytest.raises(FactorBudgetExceeded):
            construct(34)
        assert budgets == [FactorBudget(2, 0)]


# SHA-256 over construct(m, variant).to_json() + "\n" for m = 2..400, Sierpinski
# then Riesel for each m, recorded before trial division and rho followed the
# progression 1 (mod n): a faster factoring stage must keep every certificate
CERTIFICATE_DIGEST_2_400 = "24f89cee0d4d3e617feebf885273f3c009fbe2bc5683937b67e47881059d0d89"


def test_certificates_stay_byte_identical():
    h = hashlib.sha256()
    for m in range(2, 401):
        for variant in (SIERPINSKI, RIESEL):
            h.update(construct(m, variant).to_json().encode() + b"\n")
    assert h.hexdigest() == CERTIFICATE_DIGEST_2_400


def test_cert_digest_tool_gives_the_recorded_digest():
    tool = Path(__file__).resolve().parents[1] / "tools" / "cert_digest.py"
    run = subprocess.run([sys.executable, str(tool), "--lo", "2", "--hi", "400"],
                         capture_output=True, text=True, check=True)
    assert run.stdout == CERTIFICATE_DIGEST_2_400 + "\n"


# The same digest over a seeded sample of bases past 400, where Phi_12(m)
# reaches rho and trial division walks several blocks, and the bases 2**l - 1
# of the 13-class cover, recorded before trial division read blocks of primes
BASES_PAST_400 = random.Random(37).sample(range(401, 20001), 200) + [511, 1023, 2047, 4095]
CERTIFICATE_DIGEST_PAST_400 = "8e2be23a036dd917ef5e995104585ee0ab915e8c1d30446be96755728b58f50c"


def test_certificates_past_400_stay_byte_identical():
    h = hashlib.sha256()
    for m in BASES_PAST_400:
        for variant in (SIERPINSKI, RIESEL):
            h.update(construct(m, variant).to_json().encode() + b"\n")
    assert h.hexdigest() == CERTIFICATE_DIGEST_PAST_400


class TestBase2Certificate:
    def test_classical_values(self):
        cert = construct(2)
        assert cert.k == 78557
        assert cert.base == 2
        assert cert.entries == (
            (0, 2, 3), (1, 4, 5), (1, 3, 7), (11, 12, 13),
            (15, 18, 19), (27, 36, 37), (3, 9, 73))
        assert cert.triviality_primes == ()
        assert verify_certificate(cert) == (True, None)

    def test_index_steps_by_prime_product(self):
        step = math.prod((3, 5, 7, 13, 19, 37, 73))
        assert step == 70050435
        cert = construct(2, index=3)
        assert cert.k == 78557 + 3 * step == 210229862
        assert verify_certificate(cert) == (True, None)
        with pytest.raises(ValueError):
            construct(2, index=-1)


class TestCertificateObject:
    def test_term_and_dividing_prime(self):
        cert = construct(34)
        assert (cert.base, cert.sign) == (34, 1)
        for n in range(1, 120):
            p = cert.dividing_prime(n)
            assert p is not None
            assert (cert.k * cert.base**n + cert.sign) % p == 0

    def test_json_round_trip(self):
        for cert in (construct(34), construct(7), construct(2),
                     construct(10, multiplier_constraint=MULTIPLE_OF_M_MINUS_1)):
            doc = json.loads(cert.to_json())
            assert doc == cert.to_json_dict()
            assert doc["k"] == str(cert.k)  # big ints travel as strings
            back = SierpinskiCertificate.from_json_dict(doc)
            assert back == cert

    def test_json_round_trip_beyond_the_digit_cap(self):
        # outside cli.run Python's int/str digit cap (4,300 digits) holds
        cert = construct(34)
        M = math.prod(cert.primes)
        capped = hasattr(sys, "set_int_max_str_digits")  # Python 3.11 on
        if capped:
            old_cap = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            big = dataclasses.replace(cert, k=cert.k + 10**5000)
            doc = json.loads(big.to_json())
            assert doc["k"] == "1" + "0" * (5000 - 11) + str(cert.k)
            assert SierpinskiCertificate.from_json_dict(doc) == big
            # the same multiplier class mod 33 * M: still a valid certificate
            same = dataclasses.replace(cert, k=cert.k + 33 * M * 10**5000)
            back = SierpinskiCertificate.from_json_dict(json.loads(same.to_json()))
            assert back == same and verify_certificate(back) == (True, None)
            assert verify_certificate(big) == (False, "397 does not divide k*34^0 + 1")
            # the constraint reason does not quote k, so it needs no int-to-str conversion
            assert verify_certificate(dataclasses.replace(same, multiplier_constraint=MULTIPLE_OF_M_MINUS_1)) == (
                False, "k is not a multiple of m - 1 = 33")
        finally:
            if capped:
                sys.set_int_max_str_digits(old_cap)

    def test_triviality_primes_are_display_only(self):
        # the JSON schema does not carry them and == does not compare them
        cert = construct(34)
        assert cert.triviality_primes == (3, 11)
        back = SierpinskiCertificate.from_json_dict(json.loads(cert.to_json()))
        assert back.triviality_primes == () and back == cert


class TestVerifyCertificate:
    def test_reports_reasons(self):
        cert = construct(34)

        def reason(**changes):
            ok, why = verify_certificate(dataclasses.replace(cert, **changes))
            assert not ok
            return why

        assert "not positive" in reason(k=0)
        assert "below 2" in reason(base=1)
        assert "no entries" in reason(entries=())
        assert "unknown variant" in reason(variant="weird")
        assert "unknown multiplier constraint" in reason(multiplier_constraint="weird")
        assert "not a residue class" in reason(entries=((5, 2, 5),) + cert.entries[1:])
        assert "coverage violated" in reason(entries=cert.entries[1:])
        assert "has no divisor above 1" in reason(entries=((0, 2, 1),) + cert.entries[1:])
        # 35 | 34**2 - 1 = 3 * 5 * 7 * 11, but 7 does not divide k + 1
        assert reason(entries=((0, 2, 35),) + cert.entries[1:]) == "35 does not divide k*34^0 + 1"
        assert "does not divide 34^2 - 1" in reason(
            entries=((0, 2, 13),) + cert.entries[1:3] + ((5, 6, 1123), (7, 12, 1069)))
        assert "does not divide k*34^0" in reason(k=cert.k + 1)

    @pytest.mark.parametrize("changes, why", [
        (lambda c: {"entries": ((0.5, 2, 5),) + c.entries[1:]}, "entry a = 0.5 is not an integer"),
        (lambda c: {"entries": ((0, 2.0, 5),) + c.entries[1:]}, "entry n = 2.0 is not an integer"),
        (lambda c: {"entries": ((0, 2, 5.0),) + c.entries[1:]}, "entry d = 5.0 is not an integer"),
        (lambda c: {"base": 34.0}, "base 34.0 is not an integer"),
        (lambda c: {"k": float(c.k)}, "multiplier 48351243364.0 is not an integer"),
        (lambda c: {"k": str(c.k)}, "multiplier '48351243364' is not an integer"),
    ], ids=["float-a", "float-n", "float-d", "float-base", "float-k", "str-k"])
    def test_non_integral_field_is_a_reason(self, changes, why):
        # only a certificate built directly gets here: from_json_dict refuses these fields
        cert = construct(34)
        assert cert.k == 48351243364 and cert.entries[0] == (0, 2, 5)
        assert verify_certificate(dataclasses.replace(cert, **changes(cert))) == (False, why)

    @pytest.mark.parametrize("key, value", [("base", 34.0), ("k", 48351243364.0), ("entries", [{"a": 0.5, "n": 2, "p": "5"}])])
    def test_from_json_dict_refuses_non_integral_fields(self, key, value):
        doc = {**json.loads(construct(34).to_json()), key: value}
        with pytest.raises(ValueError, match="malformed certificate"):
            SierpinskiCertificate.from_json_dict(doc)

    def test_valid_certificates_build_no_checked_cover(self, monkeypatch):
        # the entries are checked once; verify_cover gets their row unchecked again
        certs = [construct(m, v) for m in (2, 7, 34) for v in (SIERPINSKI, RIESEL)]

        def refuse(self, classes):
            raise AssertionError("CoveringSystem.__init__ ran")

        monkeypatch.setattr(CoveringSystem, "__init__", refuse)
        assert [verify_certificate(cert) for cert in certs] == [(True, None)] * 6

    def test_duplicate_primes_accepted(self):
        base2 = construct(2)
        # (2,4,3) passes order and congruence checks (2**2 ≡ 1 mod 3) and the
        # extra class only enlarges coverage; the proof never needs distinct divisors
        cert = dataclasses.replace(base2, entries=base2.entries + ((2, 4, 3),))
        assert verify_certificate(cert) == (True, None)

    def test_composite_divisor_accepted(self):
        # 35 = 5 * 7 divides 34**2 - 1 and k + 1, so it divides every
        # even-n term; k is the least nontrivial admissible k of the CRT class
        entries = ((0, 2, 35), (0, 3, 397), (1, 4, 13), (5, 6, 1123), (7, 12, 1069))
        cert = SierpinskiCertificate(base=34, k=141286944469, entries=entries)
        assert crt_solve(Congruence(-pow(34, -a, d), d) for a, _, d in entries).residue == cert.k
        assert verify_certificate(cert) == (True, None)
        for n in range(2, 200, 2):
            assert (cert.k * cert.base**n + cert.sign) % 35 == 0

    def test_reasons_beyond_the_digit_cap(self):
        # outside cli.run Python's int/str digit cap (4,300 digits) holds, and
        # a reason quoting an integer over it is still returned, not raised
        big, digits = 10**5000, "1" + "0" * 5000
        m = big + 1  # m - 1 = big
        cases = [
            (SierpinskiCertificate(base=34, k=5, entries=((0, 1, big + 1),)),
             f"{digits[:-1]}1 does not divide 34^1 - 1"),
            (SierpinskiCertificate(base=-big, k=5, entries=((0, 1, 3),)), f"base -{digits} is below 2"),
            (SierpinskiCertificate(base=34, k=-big, entries=((0, 1, 3),)), f"multiplier -{digits} is not positive"),
            (SierpinskiCertificate(base=34, k=5, entries=((big, 2, 3),)),
             f"entry ({digits},2,3) is not a residue class"),
            (SierpinskiCertificate(base=m, k=1, entries=((0, 1, big),), variant=RIESEL),
             f"size condition fails: k*m-1 = {digits} <= {digits}"),
            (SierpinskiCertificate(base=m, k=big - 1, entries=((0, 1, big),)), f"k is trivial modulo {digits}"),
            (SierpinskiCertificate(base=m, k=big - 1, entries=((0, 1, big),),
                                   multiplier_constraint=MULTIPLE_OF_M_MINUS_1),
             f"k is not a multiple of m - 1 = {digits}"),
        ]
        capped = hasattr(sys, "set_int_max_str_digits")  # Python 3.11 on
        if capped:
            old_cap = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(4300)
        try:
            verdicts = [verify_certificate(cert) for cert, _ in cases]
        finally:
            if capped:
                sys.set_int_max_str_digits(old_cap)
        assert verdicts == [(False, reason) for _, reason in cases]

    def test_size_condition_failure(self):
        # 2 | 3**n - 1 for every n, but k*m - 1 = 2 never exceeds p = 2
        cert = SierpinskiCertificate(
            base=3, k=1, entries=((0, 1, 2),), variant=RIESEL,
            triviality_primes=(2,), multiplier_constraint=NONTRIVIAL)
        ok, why = verify_certificate(cert)
        assert not ok
        assert why == "size condition fails: k*m-1 = 2 <= 2"

    def test_trivial_multiplier_rejected(self):
        cert = construct(34)
        M = math.prod(cert.primes)
        k = cert.k
        while k % 3 != 2:
            k += M  # stays in the CRT class, lands on the forbidden residue
        ok, why = verify_certificate(dataclasses.replace(cert, k=k))
        assert (ok, why) == (False, "k is trivial modulo 3")

    def test_constraint_audited(self):
        cert = construct(34)
        assert cert.k % 33 != 0
        ok, why = verify_certificate(
            dataclasses.replace(cert, multiplier_constraint=MULTIPLE_OF_M_MINUS_1))
        assert not ok and "is not a multiple of m - 1 = 33" in why

    @pytest.mark.parametrize("qs", [
        (3,), (),            # a missing prime
        (3, 11, 13),         # an extra prime
        (3, 5),              # a non-divisor
        (33,), (3, 11, 33),  # a composite divisor
        (1, 3, 11), (-3, 11), (0, 3, 11),
        (11, 3),             # unsorted
        (3, 3, 11),
    ])
    def test_triviality_primes_field_is_not_read(self, qs):
        # nontriviality is gcd(k + sign, m - 1) = 1, whatever the field holds
        for cert in (construct(34), construct(2)):
            assert verify_certificate(dataclasses.replace(cert, triviality_primes=qs)) == (True, None)

    @pytest.mark.parametrize("qs", [
        (3,), (),            # a missing prime
        (3, 11, 13),         # an extra prime
        (3, 5),              # a non-divisor
        (33,), (3, 11, 33),  # a composite divisor
        (1, 3, 11), (-3, 11), (0, 3, 11),
        (11, 3),             # unsorted
        (3, 3, 11),
    ])
    def test_tampered_triviality_primes_rejected(self, qs):
        # a trivial k stays rejected whatever primes the field claims
        cert = construct(34)
        M = math.prod(cert.primes)
        trivial = {3: 2, 11: 10}  # k + 1 = 0 (mod q) for q | 33
        for q, r in trivial.items():
            k = next(k for k in range(cert.k, cert.k + q * M, M) if k % q == r)
            tampered = dataclasses.replace(cert, k=k, triviality_primes=qs)
            assert verify_certificate(tampered) == (False, f"k is trivial modulo {math.gcd(k + 1, 33)}")

    def test_base2_rejects_triviality_primes(self):
        # m - 1 = 1 has no prime factors, so no base-2 k is trivial: 78557 + 1
        # is a multiple of 3, which would make k trivial in base 4, yet a
        # field claiming 3 leaves the base-2 certificate valid
        assert triviality_primes_for(2) == ()
        cert = construct(2)
        assert cert.triviality_primes == () and (cert.k + 1) % 3 == 0
        assert verify_certificate(dataclasses.replace(cert, triviality_primes=(3,))) == (True, None)

    def test_trivial_modulus_may_be_composite(self):
        # m - 1 = 2 * 3 * 5 * 7 = 210 for m = 211; a k with 6 | k + 1 is trivial
        # modulo 6, since m = 1 (mod 6) puts 6 in every term
        cert = construct(211)
        M = math.prod(cert.primes)
        k = next(k for k in range(cert.k, cert.k + 210 * M, M) if math.gcd(k + 1, 210) == 6)
        assert verify_certificate(dataclasses.replace(cert, k=k)) == (False, "k is trivial modulo 6")

    def test_verify_does_not_factor_m_minus_1(self, monkeypatch):
        # nor test anything for primality, from the JSON document on; the
        # 511 certificate has the prime 4658179917019270871041 > 2**64, which
        # prime_verdict could only call probable
        certs = [construct(34), construct(34, RIESEL), construct(127), construct(511), construct(2)]
        assert 4658179917019270871041 in certs[3].primes

        def refuse(*args, **kwargs):
            raise AssertionError("verification factored or tested primality")

        for module in (arith, importlib.import_module("sierpinski.construct")):
            for name in ("factorize", "prime_verdict"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for cert in certs:
            back = SierpinskiCertificate.from_json_dict(json.loads(cert.to_json()))
            assert verify_certificate(back) == (True, None)

    def test_size_condition_implies_proper_divisors(self):
        # verify_certificate checks k*m + sign > max p only; terms grow with
        # n, so the divisor dividing_prime finds for each n >= 1 is a proper one
        for m in range(2, 200):
            for variant in (SIERPINSKI, RIESEL):
                cert = construct(m, variant)
                for n in range(1, 513):
                    p = cert.dividing_prime(n)
                    assert p is not None and cert.k * cert.base**n + cert.sign > p, (m, variant, n)

    @pytest.mark.parametrize("limit", [-512, -2, -1, 0, 1, 7, 100, 512])
    def test_spot_check_names_least_uncovered_n(self, limit):
        # a certificate missing one entry fails at coverage, naming the least
        # uncovered exponent; through n = limit the least term with no
        # dividing prime lies in an uncovered class, and there is none when
        # the limit is below 1
        rng = random.Random(14)
        failures = 0
        for m in rng.sample(range(3, 3000), 6) + [127]:  # 127: the 13-class cover
            for variant in (SIERPINSKI, RIESEL):
                cert = construct(m, variant)
                for i in range(len(cert.entries)):
                    cut = dataclasses.replace(cert, entries=cert.entries[:i] + cert.entries[i + 1:])
                    period = cert.cover.lcm
                    uncovered = {r for r in range(period) if not any((r - a) % N == 0 for a, N, _ in cut.entries)}
                    assert verify_certificate(cut) == (
                        False, f"coverage violated (uncovered exponent {min(uncovered)})"), (m, variant, i)
                    n = next((n for n in range(1, limit + 1) if cut.dividing_prime(n) is None), None)
                    assert n == next((n for n in range(1, limit + 1) if n % period in uncovered), None), (m, variant, i)
                    failures += n is not None
        assert (failures > 0) == (limit >= 1)

    def test_spot_check_depth(self):
        # coverage and the entry checks prove every term has a dividing
        # prime; the first 2000 terms confirm it one by one
        cert = construct(34)
        assert verify_certificate(cert) == (True, None)
        assert all(cert.dividing_prime(n) is not None for n in range(1, 2001))

    @pytest.mark.parametrize("m, cover", [(34, GENERIC_COVER), (1000, GENERIC_COVER), (127, MERSENNE_COVER),
                                          (4095, MERSENNE_COVER), (2, BASE2_COVER)])
    def test_spot_check_matches_term_by_term_reference(self, m, cover):
        # each certificate whole and with one entry cut: a cut fails at
        # coverage, and the exponent it names is the least n >= 0 whose term
        # no remaining entry divides, found term by term
        def reference(cert):
            k, sign = cert.k, cert.sign
            return next((n for n in range(cert.cover.lcm) if not any(
                (n - a) % N == 0 and (k * pow(m, n, d) + sign) % d == 0 for a, N, d in cert.entries)), None)

        for variant in (SIERPINSKI, RIESEL):
            cert = construct(m, variant)
            assert cert.cover == cover and verify_certificate(cert) == (True, None)
            assert reference(cert) is None
            for i in range(len(cert.entries)):
                cut = dataclasses.replace(cert, entries=cert.entries[:i] + cert.entries[i + 1:])
                w = reference(cut)
                assert w is not None
                assert verify_certificate(cut) == (False, f"coverage violated (uncovered exponent {w})"), (variant, i)

@st.composite
def mutated_certificates(draw):
    """A construct certificate for a base in 2..3000, with up to three of:
    an entry's d times 2..6, k shifted by a multiple of some d (or of their
    product), an entry dropped, an entry (a, n, d) added with d = g, g // 2
    or g // 3 for g = gcd(m**n - 1, k*m**a + sign) (1 in place of 0), and k
    moved within its class onto a value trivial modulo a prime of m - 1."""
    m = draw(st.integers(2, 3000))
    cert = construct(m, draw(st.sampled_from((SIERPINSKI, RIESEL))))
    for kind in draw(st.lists(st.sampled_from(("scale", "shift", "drop", "add", "trivial")), max_size=3)):
        entries, k = list(cert.entries), cert.k
        i = draw(st.integers(0, len(entries) - 1))
        if kind == "scale":
            a, n, d = entries[i]
            entries[i] = (a, n, d * draw(st.integers(2, 6)))
        elif kind == "shift":
            step = draw(st.sampled_from([d for _, _, d in entries] + [math.prod(cert.primes)]))
            k += draw(st.integers(-3, 3)) * step
        elif kind == "drop" and len(entries) > 1:
            del entries[i]
        elif kind == "add":
            n = draw(st.integers(1, 24))
            a = draw(st.integers(0, n - 1))
            g = math.gcd(m**n - 1, k * m**a + cert.sign)
            entries.append((a, n, g // draw(st.sampled_from([1, 1, 2, 3])) or 1))
        elif kind == "trivial" and m > 2:  # m - 1 = 1 has no prime
            qs = sympy.primefactors(m - 1)
            q = draw(st.sampled_from(qs))
            M = math.prod(d for _, _, d in entries)
            if M % q:  # a k = -sign (mod q) in the class mod M
                k += (-cert.sign - k) * pow(M, -1, q) % q * M
        cert = dataclasses.replace(cert, k=max(k, 1), entries=tuple(entries))
    return cert


class TestVerifySoundness:
    @settings(max_examples=300, deadline=None)
    @given(mutated_certificates())
    def test_valid_means_composite_and_nontrivial(self, cert):
        # brute-force definitions: every term up to n = 200 has a proper
        # divisor d > 1 among the entries, and no prime of m - 1 divides
        # k + sign (which would make every term divisible by it)
        if verify_certificate(cert) != (True, None):
            return
        m, k, sign = cert.base, cert.k, cert.sign
        power = 1
        for n in range(1, 201):
            power *= m
            term = k * power + sign
            assert any(1 < d < term and term % d == 0 for _, _, d in cert.entries), n
        assert not [q for q in sympy.primefactors(m - 1) if (k + sign) % q == 0]
