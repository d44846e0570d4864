"""Certificate construction and verification for k*m**n +/- 1 families."""

import dataclasses
import importlib
import json
import math
import random
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpinski.arith as arith
from sierpinski.arith import Congruence, FactorBudget, Factorization, crt_solve
from sierpinski.construct import (
    GENERIC_COVER,
    MERSENNE_COVER,
    MULTIPLE_OF_M_MINUS_1,
    NONTRIVIAL,
    RIESEL,
    SIERPINSKI,
    FactorBudgetExceeded,
    NoQualifyingPrime,
    SierpinskiCertificate,
    base2_certificate,
    build_congruences,
    construct,
    is_mersenne_like,
    select_cover_prime,
    triviality_primes_for,
    verify_certificate,
)
from sierpinski.covering import verify_cover
from sierpinski.cyclotomic import eval_cyclotomic


class TestMersenneLike:
    def test_examples(self):
        assert is_mersenne_like(3) == (True, 2)
        assert is_mersenne_like(7) == (True, 3)
        assert is_mersenne_like(34) == (False, None)
        assert is_mersenne_like(2) == (False, None)
        assert [m for m in range(3, 51) if is_mersenne_like(m)[0]] == [3, 7, 15, 31]
        with pytest.raises(ValueError):
            is_mersenne_like(1)


class TestBuiltinCovers:
    def test_both_cover(self):
        assert verify_cover(GENERIC_COVER) == (True, None)
        assert verify_cover(MERSENNE_COVER) == (True, None)
        # the mersenne system must avoid moduli 1 and 2
        assert min(MERSENNE_COVER.moduli) == 3
        assert len(MERSENNE_COVER.classes) == 13


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
                    assert n == 2 and is_mersenne_like(m)[0]
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

    def test_prime_dividing_m_minus_1_is_refused(self, monkeypatch):
        # a factorization claiming 3 | Phi_2(34) = 35 breaks the order
        # invariant (3 | 33 = m - 1); the check must survive python -O
        fake = Factorization(value=35, factors=((3, 1, "proven"),), cofactor=1)
        # sierpinski.construct as an attribute is the function; patch the module
        module = importlib.import_module("sierpinski.construct")
        # the claim comes from trial division ...
        monkeypatch.setattr(module, "_trial_division", lambda value, bound: ([3], 1))
        with pytest.raises(ArithmeticError, match="divides m - 1"):
            select_cover_prime(34, 2)
        # ... or from the rho stage after trial division found nothing
        monkeypatch.setattr(module, "_trial_division", lambda value, bound: ([], 35))
        monkeypatch.setattr(module, "_factor_rest", lambda value, found, rest, budget: fake)
        with pytest.raises(ArithmeticError, match="divides m - 1"):
            select_cover_prime(34, 2)

    def test_matches_sympy_minimum(self):
        checked = 0
        for m in range(2, 60):
            for n in range(1, 25):
                # sympy needs ~30 s for Phi_17, Phi_19 and Phi_23 of the larger m
                if n in (17, 19, 23) and m >= 12:
                    continue
                value = eval_cyclotomic(n, m)
                qualifying = [p for p in sympy.primefactors(value) if math.gcd(p, n) == 1]
                if qualifying:
                    assert select_cover_prime(m, n) == min(qualifying), (m, n)
                else:
                    with pytest.raises(NoQualifyingPrime):
                        select_cover_prime(m, n)
                checked += 1
        assert checked == 1248

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
            construct(2)
        with pytest.raises(ValueError):
            construct(34, variant="bogus")
        with pytest.raises(ValueError):
            construct(34, multiplier_constraint="bogus")
        with pytest.raises(ValueError):
            construct(34, index=-1)

    def test_budget_exhaustion(self):
        with pytest.raises(FactorBudgetExceeded):
            construct(34, budget=FactorBudget(trial_bound=2, rho_steps=0))


class TestBase2Certificate:
    def test_classical_values(self):
        cert = base2_certificate()
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
        cert = base2_certificate(3)
        assert cert.k == 78557 + 3 * step == 210229862
        assert verify_certificate(cert) == (True, None)
        with pytest.raises(ValueError):
            base2_certificate(-1)


class TestCertificateObject:
    def test_term_and_dividing_prime(self):
        cert = construct(34)
        assert cert.term(1) == cert.k * 34 + 1
        for n in range(1, 120):
            p = cert.dividing_prime(n)
            assert p is not None
            assert cert.term(n) % p == 0

    def test_json_round_trip(self):
        for cert in (construct(34), construct(7), base2_certificate(),
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

    def test_duplicate_primes_accepted(self):
        base2 = base2_certificate()
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
            assert cert.term(n) % 35 == 0

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
        for cert in (construct(34), base2_certificate()):
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
        cert = base2_certificate()
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
        certs = [construct(34), construct(34, RIESEL), construct(127), construct(511), base2_certificate()]
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
        # n, so every divisor the spot check finds is a proper one
        for m in range(3, 200):
            for variant in (SIERPINSKI, RIESEL):
                cert = construct(m, variant)
                for n in range(1, 513):
                    p = cert.dividing_prime(n)
                    assert p is not None and cert.term(n) > p, (m, variant, n)

    @pytest.mark.parametrize("limit", [-512, -2, -1, 0, 1, 7, 100, 512])
    def test_spot_check_names_least_uncovered_n(self, monkeypatch, limit):
        # coverage waved through, a certificate missing one entry reaches the
        # spot check, which names the least n with no dividing prime, or
        # checks nothing when the limit is below 1
        monkeypatch.setattr(importlib.import_module("sierpinski.construct"),
                            "verify_cover", lambda cover: (True, None))
        rng = random.Random(14)
        failures = 0
        for m in rng.sample(range(3, 3000), 6) + [127]:  # 127: the 13-class cover
            for variant in (SIERPINSKI, RIESEL):
                cert = construct(m, variant)
                for i in range(len(cert.entries)):
                    cut = dataclasses.replace(cert, entries=cert.entries[:i] + cert.entries[i + 1:])
                    n = next((n for n in range(1, limit + 1) if cut.dividing_prime(n) is None), None)
                    expected = (True, None) if n is None else (
                        False, f"no certificate prime divides term n = {n}")
                    assert verify_certificate(cut, limit) == expected, (m, variant, i)
                    failures += n is not None
        assert (failures > 0) == (limit >= 1)

    def test_spot_check_depth(self):
        cert = construct(34)
        assert verify_certificate(cert, spot_check_limit=2000) == (True, None)


@st.composite
def mutated_certificates(draw):
    """A construct certificate for a base in 3..3000, with up to three of:
    an entry's d times 2..6, k shifted by a multiple of some d (or of their
    product), an entry dropped, an entry (a, n, d) added with d = g, g // 2
    or g // 3 for g = gcd(m**n - 1, k*m**a + sign) (1 in place of 0), and k
    moved within its class onto a value trivial modulo a prime of m - 1."""
    m = draw(st.integers(3, 3000))
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
        elif kind == "trivial":
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
