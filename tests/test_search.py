"""Minimum-multiplier search: prime pools, assignments, CRT, elimination."""

import json
import math

import pytest
import sympy

import sierpinski.arith as arith
import sierpinski.search as search
from sierpinski.arith import Congruence, FactorBudget
from sierpinski.construct import least_admissible
from sierpinski.covering import BudgetExceeded, CoveringSystem
from sierpinski.cyclotomic import eval_cyclotomic
from sierpinski.search import (
    PRIME_FOUND,
    SURVIVOR,
    TRIVIAL,
    CandidateSolution,
    EliminationRecord,
    InsufficientPrimes,
    PrimePool,
    SearchConfig,
    Trivial,
    assignments_for_cover,
    crt_solve_for,
    discover_prime_pool,
    eliminate_small_k,
    k_for,
    search_min,
)

POOL_34 = {
    1: (), 2: (5, 7), 3: (397,), 4: (13, 89), 5: (61, 22571),
    6: (1123,), 7: (463, 3437617), 8: (1336337,),
}
POOL_127 = {
    1: (), 2: (), 3: (5419,), 4: (5, 1613), 5: (262209281,),
    6: (13, 1231), 7: (43, 86353, 162709), 8: (17, 137, 55849),
}


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(1)
        with pytest.raises(ValueError):
            SearchConfig(34, moduli=())
        with pytest.raises(ValueError):
            SearchConfig(34, moduli=(2, 0))
        with pytest.raises(ValueError):
            SearchConfig(34, a_max=0)
        with pytest.raises(ValueError):
            SearchConfig(34, k_scan_bound=-1)
        assert SearchConfig(34, moduli=[2, 2]).moduli == (2, 2)


class TestDiscoverPrimePool:
    @pytest.mark.parametrize("m,expected", [(34, POOL_34), (127, POOL_127)])
    def test_exact_pools(self, m, expected):
        pool = discover_prime_pool(m, 8)
        assert pool.primes_by_order == expected
        assert pool.incomplete == frozenset()
        assert pool.orders() == list(range(1, 9))
        assert pool.primes(99) == ()

    @pytest.mark.parametrize("m", [10, 22, 34, 46, 127])
    def test_pools_against_sympy(self, m):
        pool = discover_prime_pool(m, 8)
        for n in range(1, 9):
            value = eval_cyclotomic(n, m)
            qualifying = sorted(
                p
                for p in sympy.primefactors(value)
                if math.gcd(p, n * (m - 1)) == 1 and sympy.n_order(m, p) == n
            )
            assert list(pool.primes(n)) == qualifying

    def test_orders_partition_divisors(self):
        # exact-order keying makes the pools pairwise disjoint
        pool = discover_prime_pool(34, 8)
        seen = [p for n in pool.orders() for p in pool.primes(n)]
        assert len(seen) == len(set(seen))
        for n in pool.orders():
            for p in pool.primes(n):
                assert pow(34, n, p) == 1

    def test_budget_marks_orders_incomplete(self):
        pool = discover_prime_pool(127, 8, FactorBudget(trial_bound=100, rho_steps=0))
        assert pool.incomplete == {7, 8}
        # only what trial division certifies survives
        assert pool.primes(7) == (43,)
        assert pool.primes(8) == (17,)
        # Phi_5(127) is prime; the order lemma needs no factorization of p - 1
        assert pool.primes(5) == (262209281,)
        assert sympy.n_order(127, 262209281) == 5
        assert pool.primes(6) == (13, 1231)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            discover_prime_pool(1, 8)
        with pytest.raises(ValueError):
            discover_prime_pool(34, 0)


class TestAssignments:
    def test_two_halves(self):
        pool = discover_prime_pool(34, 2)
        cover = CoveringSystem.parse("0(2),1(2)")
        assert assignments_for_cover(cover, pool) == [(5, 7), (7, 5)]

    def test_mixed_moduli_lexicographic(self):
        pool = PrimePool({2: (5, 7), 4: (13, 89)})
        cover = CoveringSystem.parse("0(2),1(4),3(4)")
        assert assignments_for_cover(cover, pool) == [
            (5, 13, 89), (5, 89, 13), (7, 13, 89), (7, 89, 13)]

    def test_insufficient_primes(self):
        pool = PrimePool({2: (5, 7)})
        with pytest.raises(InsufficientPrimes) as info:
            assignments_for_cover(CoveringSystem.parse("0(2),1(2),1(2)"), pool)
        assert info.value.modulus == 2


class TestKFor:
    def test_base_34_cells(self):
        cover = CoveringSystem.parse("0(2),1(2)")
        assert k_for(cover, (7, 5), 34, (3, 11)) == 6
        assert k_for(cover, (5, 7), 34, (3, 11)) == 29
        assert crt_solve_for(cover, (7, 5), 34) == Congruence(6, 35)
        assert crt_solve_for(cover, (5, 7), 34) == Congruence(29, 35)

    def test_forced_trivial(self):
        # p = q = 7 divides the CRT modulus: every representative is -1 mod 7
        cover = CoveringSystem.parse("0(1)")
        assert k_for(cover, (7,), 8, (7,)) == Trivial(7)
        # a q coprime to the modulus never forces: 29 = -1 mod 3 is returned
        assert k_for(CoveringSystem.parse("0(2),1(2)"), (5, 7), 34, (3,)) == 29

    def test_least_admissible_respects_size_condition(self):
        assert least_admissible(Congruence(1, 10), 3, 100) == 41
        assert least_admissible(Congruence(0, 7), 34, 1) == 7
        assert least_admissible(Congruence(6, 35), 34, 7) == 6


class TestEliminateSmallK:
    def test_base_34_records(self):
        records = eliminate_small_k(34, 5, 30, (3, 11))
        got = [(r.k, r.status, r.q, r.n, r.value, r.certainty) for r in records]
        assert got == [
            (1, PRIME_FOUND, None, 4, 1336337, "proven"),
            (2, TRIVIAL, 3, None, None, None),
            (3, PRIME_FOUND, None, 1, 103, "proven"),
            (4, PRIME_FOUND, None, 1, 137, "proven"),
            (5, TRIVIAL, 3, None, None, None),
        ]

    def test_values_and_first_hit(self):
        for r in eliminate_small_k(34, 40, 30, (3, 11)):
            if r.status == PRIME_FOUND:
                assert r.value == r.k * 34**r.n + 1
                assert sympy.isprime(r.value)
                for n in range(1, r.n):
                    assert not sympy.isprime(r.k * 34**n + 1)
            elif r.status == TRIVIAL:
                assert r.k % r.q == r.q - 1

    def test_large_hits_are_proven(self):
        records = eliminate_small_k(1000, 60, 60, (3, 37))
        hits = [r for r in records if r.status == PRIME_FOUND]
        assert any(r.value >= 2**64 for r in hits)
        assert all(r.certainty == "proven" for r in hits)
        for r in hits:
            if r.value >= 2**64:
                assert sympy.isprime(r.value)

    def test_unsettled_terms_fall_back_to_prime_verdict(self, monkeypatch):
        proven = eliminate_small_k(1000, 60, 60, (3, 37))
        monkeypatch.setattr(arith, "_POCKLINGTON_BASES", (4,))  # never settles q = 2
        fallback = eliminate_small_k(1000, 60, 60, (3, 37))
        outcome = [(r.k, r.status, r.q, r.n, r.value) for r in fallback]
        assert outcome == [(r.k, r.status, r.q, r.n, r.value) for r in proven]
        assert {r.certainty for r in fallback if r.status == PRIME_FOUND} == {"proven", "probable"}

    def test_survivor_at_shallow_depth(self):
        records = eliminate_small_k(34, 16, 1, (3, 11))
        assert records[-1] == EliminationRecord(k=16, status=SURVIVOR)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            eliminate_small_k(1, 5, 30, ())
        with pytest.raises(ValueError):
            eliminate_small_k(34, 5, 0, ())


class TestSearchMin:
    def test_base_34(self):
        report = search_min(SearchConfig(34, moduli=(2, 2)))
        assert report.minimum_nontrivial_k == 6
        assert report.certificate.entries == ((0, 2, 7), (1, 2, 5))
        assert report.triviality_primes == (3, 11)
        assert report.elimination_bound == 5
        assert report.survivors_below_minimum == ()
        assert report.minimality_established
        assert report.eliminations_all_proven
        cells = [(c.cover.residues, c.primes, c.k, c.trivial_q) for c in report.candidates]
        assert cells == [
            ((0, 1), (5, 7), 29, 3),
            ((0, 1), (7, 5), 6, None),
            ((1, 0), (5, 7), 6, None),
            ((1, 0), (7, 5), 29, 3),
        ]

    def test_base_127_five_moduli(self):
        report = search_min(SearchConfig(127, moduli=(3, 4, 4, 6, 6)))
        assert report.minimum_nontrivial_k == 43429139464
        best = min(
            (c for c in report.candidates if c.nontrivial),
            key=lambda c: (c.k, c.cover.residues, c.primes),
        )
        assert best.cover.residues == (0, 0, 2, 1, 5)
        assert best.primes == (5419, 5, 1613, 13, 1231)
        assert len(report.candidates) == 96
        assert sum(1 for c in report.candidates if c.nontrivial) == 32
        # 1000 < minimum - 1, so minimality stays open and survivors are honest
        assert report.elimination_bound == 1000
        assert not report.minimality_established
        assert report.survivors_below_minimum[:4] == (64, 66, 112, 126)
        assert len(report.survivors_below_minimum) == 30

    def test_base_127_six_moduli(self):
        report = search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8)))
        assert report.minimum_nontrivial_k == 11254645362
        assert report.eliminations_all_proven
        assert report.certificate.entries == (
            (1, 3, 5419), (1, 4, 5), (0, 6, 13),
            (2, 6, 1231), (3, 8, 17), (7, 8, 137))

    @pytest.mark.parametrize("base, moduli", [(127, (3, 4, 6, 6, 8, 8)), (34, (2, 2))])
    def test_grid_cells_match_per_cell_reference(self, base, moduli):
        report = search_min(SearchConfig(base, moduli=moduli, k_scan_bound=0))
        assert report.candidates
        qs = report.triviality_primes
        for c in report.candidates:
            assert c.crt == crt_solve_for(c.cover, c.primes, base)
            # pool primes avoid every q | m - 1, so no cell is forced trivial
            ref = k_for(c.cover, c.primes, base, qs)
            assert c.k == ref and isinstance(ref, int)
            assert c.trivial_q == next((q for q in qs if ref % q == q - 1), None)

    def test_one_assignment_list_per_search(self, monkeypatch):
        calls = []

        def counting(cover, pool):
            calls.append(cover)
            return assignments_for_cover(cover, pool)

        monkeypatch.setattr(search, "assignments_for_cover", counting)
        report = search_min(SearchConfig(127, moduli=(6, 6, 4, 4, 3), k_scan_bound=0))
        assert len(report.candidates) > len(calls) == 1

    def test_moduli_order_does_not_change_minimum(self):
        a = search_min(SearchConfig(127, moduli=(3, 4, 4, 6, 6)))
        b = search_min(SearchConfig(127, moduli=(6, 6, 4, 4, 3)))
        assert a.minimum_nontrivial_k == b.minimum_nontrivial_k
        assert len(a.candidates) == len(b.candidates)

    def test_auto_moduli_exceed_assignment_budget(self):
        with pytest.raises(BudgetExceeded):
            search_min(SearchConfig(34))

    def test_insufficient_primes_covers_skipped(self):
        report = search_min(SearchConfig(34, moduli=(2, 2, 2), k_scan_bound=10))
        assert report.candidates == ()
        assert report.minimum_nontrivial_k is None
        assert report.certificate is None
        assert report.elimination_bound == 10
        assert len(report.eliminations) == 10

    def test_empty_pool_order(self):
        # 0(1) covers, but pool primes must avoid factors of m - 1
        report = search_min(SearchConfig(34, moduli=(1,), k_scan_bound=5))
        assert report.candidates == ()
        assert report.minimum_nontrivial_k is None

    def test_no_covers_on_sparse_moduli(self):
        report = search_min(SearchConfig(34, moduli=(3, 4), k_scan_bound=5))
        assert report.candidates == ()
        assert report.minimum_nontrivial_k is None

    def test_report_json(self):
        report = search_min(SearchConfig(34, moduli=(2, 2)))
        doc = report.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["base"] == "34"
        assert doc["minimum_nontrivial_k"] == "6"
        assert doc["moduli"] == [2, 2]
        assert doc["triviality_primes"] == ["3", "11"]
        assert doc["certificate"]["entries"] == [
            {"a": 0, "n": 2, "p": "7"}, {"a": 1, "n": 2, "p": "5"}]
        assert doc["minimality_established"] is True
        trivial = [e for e in doc["eliminations"] if e["status"] == "trivial"]
        assert trivial == [{"k": "2", "status": "trivial", "q": "3"},
                           {"k": "5", "status": "trivial", "q": "3"}]
