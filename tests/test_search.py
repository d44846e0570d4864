"""Minimum-multiplier search: prime pools, assignments, CRT, elimination."""

import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import sierpinski
import sierpinski.arith as arith
import sierpinski.search as search
from sierpinski.arith import Congruence, FactorBudget, multiplicative_order
from sierpinski.construct import (
    FactorBudgetExceeded,
    construct,
    least_admissible,
    next_nontrivial,
    select_cover_prime,
    triviality_primes_for,
    verify_certificate,
)
from sierpinski.covering import BudgetExceeded, CoveringSystem, enumerate_covers, systems_from_rows
from sierpinski.cyclotomic import eval_cyclotomic
from sierpinski.search import (
    PRIME_FOUND,
    SURVIVOR,
    TRIVIAL,
    CandidateSolution,
    EliminationRecord,
    PrimePool,
    SearchConfig,
    assignments_for_cover,
    crt_solve_for,
    discover_prime_pool,
    eliminate_small_k,
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

    @pytest.mark.parametrize("moduli", [(3.5, 4), (3, 4.0), ("3", "4")])
    def test_non_integral_moduli_refused(self, moduli):
        # refused, not truncated to 3, 4
        with pytest.raises(ValueError):
            SearchConfig(127, moduli=moduli)


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
        assert assignments_for_cover(CoveringSystem.parse("0(2),1(2),1(2)"), pool) == []

    def test_pigeonhole_exits_before_the_product(self, monkeypatch):
        # 2**3 * 40**6, about 3e10 tuples, none injective on the three classes of modulus 2
        pool = PrimePool({2: (5, 7), 3: tuple(range(1000, 1040))})
        cover = CoveringSystem([(0, 2), (1, 2), (1, 2)] + [(a % 3, 3) for a in range(6)])

        def refuse(*choices):
            raise AssertionError("the product was walked")

        monkeypatch.setattr(search.itertools, "product", refuse)
        assert assignments_for_cover(cover, pool) == []


def k_for(cover: CoveringSystem, assignment, m: int, triviality_primes) -> int:
    """The per-cell reference: least nontrivial k in the CRT class with
    k*m + 1 > max(assignment), walked as construct walks. ValueError when
    an assigned prime shares a factor with the triviality primes, as then
    the walk could run forever."""
    q_product = math.prod(triviality_primes)
    if math.gcd(math.prod(assignment), q_product) != 1:
        raise ValueError("assigned primes must be coprime to every prime q | m - 1")
    sol = crt_solve_for(cover, assignment, m)
    return next_nontrivial(least_admissible(sol, m, max(assignment)), sol.modulus, q_product)


class TestKFor:
    def test_base_34_cells(self):
        cover = CoveringSystem.parse("0(2),1(2)")
        assert k_for(cover, (7, 5), 34, (3, 11)) == 6
        # the class of 29 = -1 mod 3 walks on to 64, as construct walks
        assert k_for(cover, (5, 7), 34, (3, 11)) == 64
        assert crt_solve_for(cover, (7, 5), 34) == Congruence(6, 35)
        assert crt_solve_for(cover, (5, 7), 34) == Congruence(29, 35)

    def test_forced_trivial(self):
        # p = q = 7 divides the CRT modulus: every representative is -1 mod 7,
        # so the walk would never end
        cover = CoveringSystem.parse("0(1)")
        with pytest.raises(ValueError, match="coprime"):
            k_for(cover, (7,), 8, (7,))
        # a q coprime to the modulus never forces: 29 = -1 mod 3 walks to 64
        assert k_for(CoveringSystem.parse("0(2),1(2)"), (5, 7), 34, (3,)) == 64

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

    def test_base_18_hit_one_mod_8_is_proven(self):
        # 2 is a square modulo this term, as modulo every 18-term with n >= 3;
        # a first base with Jacobi symbol -1 settles q = 2 with one power
        value = 26912943123502831701590017
        assert value == 38 * 18**19 + 1 and value % 8 == 1 and value > 2**64
        records = eliminate_small_k(18, 40, 30, (17,))
        assert records[37] == EliminationRecord(
            k=38, status=PRIME_FOUND, n=19, value=value, certainty="proven")

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
        with pytest.raises(ValueError, match="k_scan_bound"):
            eliminate_small_k(34, -1, 30, (3, 11))
        assert eliminate_small_k(34, 0, 30, (3, 11)) == []
        # 4 bytes per k: the code array cannot be mapped, and nothing is allocated
        with pytest.raises(BudgetExceeded, match="k_scan_bound"):
            eliminate_small_k(34, 10**20, 1, (3, 11))

    # (m, primes of m - 1, k <=); every m has prime factors below
    # arith.SCREEN_BOUND, which never divide a term (127 is one itself)
    REFERENCE_CASES = [
        (2, (), 400), (3, (2,), 400), (10, (3,), 300), (22, (3, 7), 300),
        (34, (3, 11), 300), (127, (2, 3, 7), 300), (1000, (3, 37), 120),
    ]

    @pytest.mark.parametrize("n_max", [30, 60])
    @pytest.mark.parametrize("m, qs, k_max", REFERENCE_CASES)
    def test_matches_k_major_reference(self, monkeypatch, m, qs, k_max, n_max):
        expected = _reference_eliminate(m, k_max, n_max, qs)
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            got = eliminate_small_k(m, k_max, n_max, qs)
            assert _records(got) == expected, f"{workers} workers"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_against_sympy(self, monkeypatch, workers):
        # _reference_eliminate shares arith's verdicts; this check does not
        _force_workers(monkeypatch, workers)
        records = eliminate_small_k(22, 300, 60, (3, 7))
        assert [r.k for r in records] == list(range(1, 301))
        assert {r.status for r in records} == {TRIVIAL, PRIME_FOUND, SURVIVOR}
        for r in records:
            if r.status == TRIVIAL:
                assert r.q in (3, 7) and r.k % r.q == r.q - 1
                continue
            last = r.n if r.status == PRIME_FOUND else 61
            assert not any(sympy.isprime(r.k * 22**n + 1) for n in range(1, last)), r.k
            if r.status == PRIME_FOUND:
                assert r.value == r.k * 22**r.n + 1 and sympy.isprime(r.value), r.k

    def test_terms_equal_to_a_sieve_prime_are_prime(self):
        # 3 * 2 + 1 = 7 shares 7 with the small primes; 5 * 2**1 + 1 = 11, 1 * 2**2 + 1 = 5
        got = eliminate_small_k(2, 5, 30, ())
        assert [(r.k, r.n, r.value) for r in got] == [
            (1, 1, 3), (2, 1, 5), (3, 1, 7), (4, 2, 17), (5, 1, 11)]
        small = [r for r in eliminate_small_k(2, 400, 30, ()) if r.status == PRIME_FOUND]
        assert sum(r.value < arith.SCREEN_BOUND for r in small) > 100

    def test_memory_is_one_block(self):
        # Beyond the records it returns, the scan holds one term at a time and
        # small tables; a sieve over the whole range would hold k_max * n_max bytes.
        k_max, n_max = 3000, 30
        tracemalloc.start()
        try:
            records = eliminate_small_k(2, k_max, n_max, ())
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == k_max
        assert peak - current < (32 << 10) < k_max * n_max

    def test_memory_is_one_block_with_two_workers(self, monkeypatch):
        # The codes the workers share (4 bytes per k) live in an anonymous
        # mmap, which tracemalloc does not see.
        _force_workers(monkeypatch, 2)
        self.test_memory_is_one_block()

    def test_scan_memory_is_one_block(self):
        # The records are built after the scan, so the test above does not
        # see what the scan holds: check the scan by itself.
        k_max, n_max = 3000, 30
        codes = memoryview(bytearray(4 * k_max)).cast("I")
        tracemalloc.start()
        try:
            search._scan(2, n_max, (), 0, (2,), range(1, k_max + 1), codes)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(codes)
        assert peak - current < (32 << 10) < k_max * n_max

    def test_powers_of_m_are_cheap_at_large_n_max(self):
        # m + 1 is prime, so the one k is settled at n = 1. A table of all 2501
        # powers of m took 0.18 s and 25 MB; raising m to each n from scratch
        # took 2.3 s (2 cores).
        m = 10**18 + 8
        start = time.perf_counter()
        tracemalloc.start()
        try:
            records = eliminate_small_k(m, 1, 2500, (1370531, 729644203597))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.6
        assert peak < 1 << 20
        assert records == [EliminationRecord(1, PRIME_FOUND, n=1, value=m + 1, certainty="proven")]

    def test_cost_follows_the_k_scanned(self):
        # Five k, settled at small n, at n_max = 10000. A block sieve strikes
        # pi(2048) * n_max progressions however few k there are (0.72 s).
        start = time.perf_counter()
        records = eliminate_small_k(34, 5, 10000, (3, 11))
        assert time.perf_counter() - start < 0.1
        assert [r.status for r in records] == [PRIME_FOUND, TRIVIAL, PRIME_FOUND, PRIME_FOUND, TRIVIAL]

    def test_no_k_scanned_factors_no_m(self):
        # m = p*q of two primes near 2**50 and 2**51 costs rho about a second
        m = sympy.nextprime(2**50) * sympy.nextprime(2**51)
        start = time.perf_counter()
        assert eliminate_small_k(m, 0, 30, ()) == []
        assert time.perf_counter() - start < 0.1

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        per = search.MIN_TERMS_PER_WORKER  # terms k*m**n + 1, k_scan_bound * n_max of them
        assert [search._worker_count(terms) for terms in (0, 2 * per - 1, 2 * per, 10 * per)] == [1, 1, 2, 3]
        # search_min's default 1000 k at n_max 30 and the benchmark's eliminations at n_max 60
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert [search._worker_count(k * n) for k, n in ((1000, 30), (500, 60), (2000, 60))] == [2, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert search._worker_count(10 * per) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert search._worker_count(10 * per) == 1

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_child_changes_nothing(self, monkeypatch, tmp_path, failure):
        # Each child dies inside its 21st Pocklington proof, in the middle of
        # some k: this process must classify that k and the rest of the chunk.
        # A child marks its death first, so a scan that never calls the proof
        # it patches fails here instead of passing with no child dead.
        parent, scan, proof = os.getpid(), search._scan, search.pocklington_verdict

        def flaky(*args):
            if os.getpid() == parent:
                time.sleep(0.3)  # let the children claim chunks first
                return scan(*args)
            calls = itertools.count()

            def dying(k, f, f_primes):
                if next(calls) == 20:
                    (tmp_path / f"died-{os.getpid()}").touch()
                    if failure == "exit":
                        os._exit(3)
                    raise RuntimeError("worker failed")
                return proof(k, f, f_primes)

            search.pocklington_verdict = dying  # in this child only
            scan(*args)

        monkeypatch.setattr(search, "_scan", flaky)
        _force_workers(monkeypatch, 3)
        expected = _reference_eliminate(22, 300, 60, (3, 7))
        assert _records(eliminate_small_k(22, 300, 60, (3, 7))) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.glob("died-*")), "no child reached its 21st proof"

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_here_kills_the_children(self, monkeypatch, error):
        parent, scan = os.getpid(), search._scan

        def stuck_children(*args):
            if os.getpid() == parent:
                raise error("interrupted")
            time.sleep(30)  # only SIGKILL ends it in time

        monkeypatch.setattr(search, "_scan", stuck_children)
        _force_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(error):
            eliminate_small_k(22, 300, 60, (3, 7))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert time.perf_counter() - start < 10

    def test_a_hung_child_is_not_waited_on(self, monkeypatch):
        # Each child claims one chunk and never codes it: this process codes
        # that chunk itself and kills the child, in far less than its 30 s.
        parent, scan = os.getpid(), search._scan

        def hanging(*args):
            if os.getpid() == parent:
                time.sleep(0.3)  # let the children claim chunks first
                return scan(*args)
            next(args[5])  # the k of the chunks it claims: it claims one
            time.sleep(30)

        monkeypatch.setattr(search, "_scan", hanging)
        _force_workers(monkeypatch, 3)
        expected = _reference_eliminate(22, 300, 60, (3, 7))
        start = time.perf_counter()
        assert _records(eliminate_small_k(22, 300, 60, (3, 7))) == expected
        assert time.perf_counter() - start < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_this_process_reads_no_claim(self, monkeypatch):
        # Only the children read the claims pipe; this process codes, top
        # down, each k no child has coded.
        parent, read, reads = os.getpid(), os.read, []

        def counting_read(fd, n):
            if os.getpid() == parent:
                reads.append(n)
            return read(fd, n)

        monkeypatch.setattr(os, "read", counting_read)
        _force_workers(monkeypatch, 3)
        expected = _reference_eliminate(22, 300, 60, (3, 7))
        assert _records(eliminate_small_k(22, 300, 60, (3, 7))) == expected
        assert reads == []

    def test_workers_are_sized_by_terms(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(search, "_worker_count", lambda terms: sizes.append(terms) or 1)
        eliminate_small_k(22, 300, 60, (3, 7))
        assert sizes == [300 * 60]

    def test_over_the_digit_cap_is_over_budget(self):
        # 10**5000 has more digits than int-to-str converts by default
        with pytest.raises(BudgetExceeded, match="k_scan_bound 1000000"):
            eliminate_small_k(34, 10**5000, 1, (3, 11))
        record = EliminationRecord(1, PRIME_FOUND, None, 5000, 10**5000 + 1, "probable")
        assert record.to_json_dict()["value"] == "1" + "0" * 4999 + "1"

    def test_serial_without_fork(self, monkeypatch):
        expected = _reference_eliminate(34, 300, 30, (3, 11))

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        _force_workers(monkeypatch, 1)
        assert _records(eliminate_small_k(34, 300, 30, (3, 11))) == expected
        # another live thread keeps it serial at any worker count
        _force_workers(monkeypatch, 2)
        done = threading.Event()
        helper = threading.Thread(target=done.wait)
        helper.start()
        try:
            assert _records(eliminate_small_k(34, 300, 30, (3, 11))) == expected
        finally:
            done.set()
            helper.join()
        monkeypatch.delattr(os, "fork")
        assert _records(eliminate_small_k(34, 300, 30, (3, 11))) == expected

    def test_fork_failure_leaves_the_chunks_here(self, monkeypatch):
        def failing_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", failing_fork)
        _force_workers(monkeypatch, 3)
        expected = _reference_eliminate(34, 300, 30, (3, 11))
        assert _records(eliminate_small_k(34, 300, 30, (3, 11))) == expected


class TestStrikeTable:
    """search._strike_levels, bit by bit, against gcd with the primes below 128."""

    BLOCK = search.SIEVE_BLOCK
    # 2 and 1000 share primes with the product; the product itself leaves an empty table
    PRIMORIAL = math.prod(search.STRIKE_PRIMES)
    BASES = (2, 1000, PRIMORIAL, *random.Random(34).sample(range(2, 10**4), 3))

    @pytest.mark.parametrize("m", BASES)
    @pytest.mark.parametrize("lo", [0, BLOCK, 2 * BLOCK])
    def test_levels_against_brute_force(self, m, lo):
        levels = search._strike_levels(m, lo)
        primorial = self.PRIMORIAL
        for n in range(1, 41):
            power = pow(m, n, primorial)
            expected = sum(1 << i for i in range(self.BLOCK)
                           if math.gcd((lo + i) * power + 1, primorial) > 1)
            assert next(levels) & ((1 << self.BLOCK) - 1) == expected, (m, lo, n)
        if m == self.PRIMORIAL:
            assert expected == 0

    @pytest.mark.parametrize("m, qs", [(2, ()), (22, (3, 7)), (1000, (3, 37))])
    @pytest.mark.parametrize("order", [1, -1])
    def test_scan_across_block_edges(self, m, qs, order):
        # one process walks the k in both directions over two block edges
        ks = [*range(self.BLOCK - 3, self.BLOCK + 4), 2 * self.BLOCK - 1, 2 * self.BLOCK, 2 * self.BLOCK + 1]
        n_max = 40
        codes = memoryview(bytearray(4 * (2 * self.BLOCK + 1))).cast("I")
        search._scan(m, n_max, qs, 0, arith.factorize(m).primes(), ks[::order], codes)
        for k in ks:
            if any(k % q == q - 1 for q in qs):
                assert codes[k - 1] == 1, k
                continue
            n = next((n for n in range(1, n_max + 1) if sympy.isprime(k * m**n + 1)), n_max + 1)
            assert codes[k - 1] == n << 1, k


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(c) for c in f.read().split()]
    except FileNotFoundError:
        return []


def _running(pid):
    """Whether pid exists and is not a zombie; exited and unreaped counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="elimination forks a worker only with two or more CPUs; needs /proc children")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_worker_exits_with_its_parent(sig):
    # an elimination over 3,000,000 k runs far longer than this test; killed,
    # its caller reaps nothing, so the forked worker must notice on its own
    src = os.path.dirname(os.path.dirname(sierpinski.__file__))
    code = "from sierpinski.search import eliminate_small_k; eliminate_small_k(1000, 3_000_000, 60, (3, 37))"
    parent = subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers and parent.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(parent.pid)
        assert workers, "no elimination worker was forked"
        parent.send_signal(sig)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 2
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, workers))
    finally:
        if parent.poll() is None:
            parent.kill()
        parent.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(search, "_worker_count", lambda k_count: workers)


def _records(records):
    return [(r.k, r.status, r.q, r.n, r.value, r.certainty) for r in records]


def _reference_eliminate(m, k_scan_bound, n_max, triviality_primes, seed=0):
    """eliminate_small_k as a k-major loop without a sieve: each term gets
    pocklington_verdict at or above 2**64 when m**n > k, else prime_verdict."""
    fac = arith.factorize(m)
    m_primes = fac.primes() if all(c == "proven" for _, _, c in fac.factors) else None
    out = []
    for k in range(1, k_scan_bound + 1):
        q = next((q for q in triviality_primes if k % q == q - 1), None)
        if q is not None:
            out.append((k, TRIVIAL, q, None, None, None))
            continue
        record = (k, SURVIVOR, None, None, None, None)
        for n in range(1, n_max + 1):
            value = k * m**n + 1
            isp = None
            if m_primes is not None and m**n > k and value >= 2**64:
                isp, certainty = arith.pocklington_verdict(k, m**n, m_primes), "proven"
            if isp is None:
                isp, certainty = arith.prime_verdict(value, seed=seed)
            if isp:
                record = (k, PRIME_FOUND, None, n, value, certainty)
                break
        out.append(record)
    return out


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
        # (1, 0) with (5, 7) is the set of (0, 1) with (7, 5): one cell per set
        # the class of 29 = -1 mod 3 walks on to its next nontrivial k, 64
        cells = [(c.cover.residues, c.primes, c.k) for c in report.candidates]
        assert cells == [
            ((0, 1), (5, 7), 64),
            ((0, 1), (7, 5), 6),
        ]

    def test_base_127_five_moduli(self):
        report = search_min(SearchConfig(127, moduli=(3, 4, 4, 6, 6)))
        assert report.minimum_nontrivial_k == 43429139464
        best = min(report.candidates, key=lambda c: (c.k, c.cover.residues, c.primes))
        assert best.cover.residues == (0, 0, 2, 1, 5)
        assert best.primes == (5419, 5, 1613, 13, 1231)
        # one cell per {(a, n, p)} set: a quarter of the 96 (cover, primes) pairs
        assert len(report.candidates) == 24
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

    def test_base_2_classical_moduli(self):
        # on the moduli of the classical cover the grid's least k is 78557,
        # with the entries construct(2) takes from that stored cover
        report = search_min(SearchConfig(2, moduli=(2, 3, 4, 9, 12, 18, 36), k_scan_bound=0))
        assert report.minimum_nontrivial_k == 78557
        assert set(report.certificate.entries) == set(construct(2).entries)
        assert verify_certificate(report.certificate) == (True, None)

    @pytest.mark.parametrize("base, moduli", [(127, (3, 4, 6, 6, 8, 8)), (34, (2, 2))])
    def test_grid_cells_match_per_cell_reference(self, base, moduli):
        report = search_min(SearchConfig(base, moduli=moduli, k_scan_bound=0))
        assert report.candidates
        qs = report.triviality_primes
        for c in report.candidates:
            assert c.crt == crt_solve_for(c.cover, c.primes, base)
            assert c.k == k_for(c.cover, c.primes, base, qs)
            assert all((c.k + 1) % q for q in qs)

    @pytest.mark.parametrize("base, moduli", [(34, (2, 2)), (127, (3, 4, 4, 6, 6)), (10, None)])
    def test_one_cell_per_class_set(self, base, moduli):
        # brute force: every cover times every injective assignment, keyed by
        # its {(a, n, p)} set; auto base 10 has covers with tied residues
        report = search_min(SearchConfig(base, moduli=moduli, a_max=6, k_scan_bound=0))
        qs = report.triviality_primes
        pool = discover_prime_pool(base, 6)
        covers = enumerate_covers(report.moduli)
        expected = {}
        for cover in covers:
            for primes in assignments_for_cover(cover, pool):
                key = frozenset((c.residue, c.modulus, p) for c, p in zip(cover.classes, primes))
                k = k_for(cover, primes, base, qs)
                assert expected.setdefault(key, k) == k
        got = {}
        for c in report.candidates:
            key = frozenset((a.residue, a.modulus, p) for a, p in zip(c.cover.classes, c.primes))
            assert key not in got
            got[key] = c.k
        assert got == expected
        assert len(got) < sum(len(assignments_for_cover(c, pool)) for c in covers)

    def test_one_assignment_list_per_search(self, monkeypatch):
        calls = []

        def counting(cover, pool):
            calls.append(cover)
            return assignments_for_cover(cover, pool)

        monkeypatch.setattr(search, "assignments_for_cover", counting)
        report = search_min(SearchConfig(127, moduli=(6, 6, 4, 4, 3), k_scan_bound=0))
        assert len(report.candidates) > len(calls) == 1

    @pytest.mark.parametrize("base, moduli", [(127, (3, 4, 6, 6, 8, 8)), (34, (2, 2))])
    def test_report_does_not_depend_on_worker_count(self, monkeypatch, base, moduli):
        docs = []
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            docs.append(search_min(SearchConfig(base, moduli=moduli)).to_json_dict())
        assert docs[0] == docs[1]

    def test_moduli_order_does_not_change_minimum(self):
        a = search_min(SearchConfig(127, moduli=(3, 4, 4, 6, 6)))
        b = search_min(SearchConfig(127, moduli=(6, 6, 4, 4, 3)))
        assert a.minimum_nontrivial_k == b.minimum_nontrivial_k
        assert len(a.candidates) == len(b.candidates)

    def test_auto_moduli_exceed_assignment_budget(self):
        with pytest.raises(BudgetExceeded):
            search_min(SearchConfig(34))

    def test_incomplete_pool_exceeds_the_budget(self):
        # Phi_8(127) does not factor by trial division to 100: a minimum from
        # the partial pool would rest on primes that were never found
        budget = FactorBudget(trial_bound=100, rho_steps=0)
        with pytest.raises(FactorBudgetExceeded, match=r"Phi_n\(127\) .* n in \[8\]$"):
            search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8), budget=budget))

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

    def test_m_minus_1_is_factored_once(self, monkeypatch):
        # the order-1 pool is empty by the order lemma; only the triviality primes factor 9
        values = []
        for module in (search, sys.modules["sierpinski.construct"]):
            def counting(n, *args, _factorize=module.factorize):
                values.append(n)
                return _factorize(n, *args)

            monkeypatch.setattr(module, "factorize", counting)
        search_min(SearchConfig(10, a_max=6))
        assert values.count(9) == 1

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


class TestEliminationStartsBeforeTheGrid:
    """search_min forks its elimination workers over every k <= k_scan_bound
    before the grid sets the bound: none of that may show in the report, and
    no worker may outlive the call."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("k_scan_bound", [10**20, 3_000_000, 10**8])
    def test_speculation_never_shows(self, monkeypatch, workers, k_scan_bound):
        # The minimum is 6, so the bound is 5. The codes of 10**20 k cannot be
        # mapped, so that scan starts after the grid; at 3,000,000 and 10**8 a
        # child's first chunk holds 11,719 and 390,625 k, and this process
        # neither waits on it nor scans past k = 5.
        _force_workers(monkeypatch, workers)
        expected = eliminate_small_k(34, 5, 30, (3, 11))
        start = time.perf_counter()
        report = search_min(SearchConfig(34, moduli=(2, 2), k_scan_bound=k_scan_bound))
        assert time.perf_counter() - start < 0.5
        assert report.minimum_nontrivial_k == 6
        assert list(report.eliminations) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_bound_over_the_digit_cap_falls_back(self):
        # the codes of 10**5000 k cannot be mapped: the scan runs after the grid
        report = search_min(SearchConfig(34, moduli=(2, 2), k_scan_bound=10**5000))
        assert report.minimum_nontrivial_k == 6
        assert list(report.eliminations) == eliminate_small_k(34, 5, 30, (3, 11))
        assert report.to_json_dict()["k_scan_bound"] == "1" + "0" * 5000

    @pytest.mark.parametrize("case", ["cover budget", "incomplete pool", "interrupt in the grid"])
    def test_raise_after_the_start_leaves_no_child(self, monkeypatch, case):
        parent, fork, scan, forked = os.getpid(), os.fork, search._scan, []

        def counting_fork():
            pid = fork()
            forked.append(pid)
            return pid

        def stuck_children(*args):
            if os.getpid() == parent:
                return scan(*args)
            time.sleep(30)  # only SIGKILL ends it in time

        def interrupted(*args):
            raise KeyboardInterrupt

        if case == "cover budget":  # auto mode's cover enumeration is over budget
            config, error = SearchConfig(34), BudgetExceeded
        elif case == "incomplete pool":
            budget = FactorBudget(trial_bound=100, rho_steps=0)
            config, error = SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8), budget=budget), FactorBudgetExceeded
        else:
            monkeypatch.setattr(search, "nth_admissible", interrupted)
            config, error = SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8)), KeyboardInterrupt
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(search, "_scan", stuck_children)
        _force_workers(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(error):
            search_min(config)
        assert len(forked) == 1, "no elimination worker was forked"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert time.perf_counter() - start < 10


class TestPrunedGrid:
    """search_min walks a class only when its residue is at most the best k so far."""

    @given(
        m=st.integers(2, 10**6),
        modulus=st.integers(1, 10**15),
        residue=st.integers(0, 10**15),
        max_p=st.integers(2, 10**20),
    )
    def test_walk_never_goes_below_the_residue(self, m, modulus, residue, max_p):
        q_product = math.prod(sympy.primefactors(m - 1))
        # strip every q | m - 1 from the step (modulus < 2**50), or the walk may not end
        modulus //= math.gcd(modulus, q_product**50)
        sol = Congruence(residue % modulus, modulus)
        k = next_nontrivial(least_admissible(sol, m, max_p), sol.modulus, q_product)
        assert k >= sol.residue and k % modulus == sol.residue

    @pytest.mark.parametrize("base, moduli, minimum", [
        (34, (2, 2), 6),
        (127, (3, 4, 4, 6, 6), 43429139464),
        (127, (3, 4, 6, 6, 8, 8), 11254645362),
        (127, (3, 4, 6, 6, 8, 8, 12), 5390467794624),
        (10, None, 35545344),
        # pool-filling bases on 3,4,6,6,8,8
        (10, (3, 4, 6, 6, 8, 8), 62207001),
        (31, (3, 4, 6, 6, 8, 8), 335031910),
        (12, (3, 4, 6, 6, 8, 8), 50349114),
        (85, (3, 4, 6, 6, 8, 8), 113954504463472),
        (43, (3, 4, 6, 6, 8, 8), 118850742),
        (27, (3, 4, 6, 6, 8, 8), 27930316662),
        (49, (3, 4, 6, 6, 8, 8), 3928688653626),
        (37, (3, 4, 6, 6, 8, 8), 455010772),
    ])
    def test_witness_is_least_cell(self, base, moduli, minimum):
        report = search_min(SearchConfig(base, moduli=moduli, a_max=6, k_scan_bound=0))
        best = min(report.candidates, key=lambda c: (c.k, c.cover.residues, c.primes))
        entries = tuple((c.residue, c.modulus, p) for c, p in zip(best.cover.classes, best.primes))
        assert (report.minimum_nontrivial_k, report.certificate.entries) == (best.k, entries)
        assert report.minimum_nontrivial_k == minimum

    def test_cells_built_when_read(self, monkeypatch):
        made, systems = [], []

        def counting_cells(*args):
            made.append(args)
            return CandidateSolution(*args)

        def counting_systems(rows, moduli):
            built = systems_from_rows(rows, moduli)
            systems.extend(built)
            return built

        monkeypatch.setattr(search, "CandidateSolution", counting_cells)
        monkeypatch.setattr(search, "systems_from_rows", counting_systems)
        report = search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8, 12), k_scan_bound=0))
        # one system, the template for the assignment list; no cell
        assert (len(made), len(systems)) == (0, 1)
        cells = report.candidates
        assert len(cells) == len(made) == 6912
        assert all(type(c) is CandidateSolution for c in cells)
        assert report.candidates is cells and len(made) == 6912
        assert report.minimum_nontrivial_k == min(c.k for c in cells)


class TestMinimumIsLeastNontrivial:
    """Each cell walks its class to the least nontrivial admissible k."""

    @pytest.mark.parametrize("base, moduli, k, entries", [
        # 0(2),1(2) with (19, 3): the class's least admissible k = 37 is -1 mod 2
        (113, (2, 2), 94, ((0, 2, 19), (1, 2, 3))),
        (203, (2, 4, 4), 242, None),
        (43, (2, 4, 4), 2256, None),
    ])
    def test_walked_minima(self, base, moduli, k, entries):
        report = search_min(SearchConfig(base, moduli=moduli, k_scan_bound=0))
        assert report.minimum_nontrivial_k == k
        assert report.certificate.k == k
        assert entries is None or report.certificate.entries == entries
        assert verify_certificate(report.certificate) == (True, None)

    # A fixed scan bound, independent of what the search reports.
    K_BOUND = 2500

    @pytest.mark.parametrize("moduli", [(2, 2), (2, 4, 4)])
    def test_matches_brute_force_definition(self, moduli):
        for base in range(3, 61):
            expected = _brute_force_minimum(base, moduli, self.K_BOUND)
            got = search_min(SearchConfig(base, moduli=moduli, k_scan_bound=0)).minimum_nontrivial_k
            if expected is None:
                assert got is None or got > self.K_BOUND, base
            else:
                assert got == expected, base


def _brute_force_minimum(m, moduli, k_bound):
    """Least k <= k_bound that is nontrivial (no prime q | m - 1 divides
    k + 1) and has, for some cover on the moduli, distinct primes p_i of
    order n_i mod m with p_i | k*m**a_i + 1 and k*m + 1 > max p_i."""
    qs = sympy.primefactors(m - 1)
    pool = {
        n: [p for p in sympy.primefactors(m**n - 1) if sympy.n_order(m, p) == n]
        for n in set(moduli)
    }
    covers = [tuple((c.residue, c.modulus) for c in cover.classes) for cover in enumerate_covers(moduli)]
    for k in range(1, k_bound + 1):
        if any((k + 1) % q == 0 for q in qs):
            continue
        for cover in covers:
            choices = [
                [p for p in pool[n] if p < k * m + 1 and (k * pow(m, a, p) + 1) % p == 0]
                for a, n in cover
            ]
            if any(len(set(t)) == len(t) for t in itertools.product(*choices)):
                return k
    return None


# p = 24000864002377 is prime, and p - 1 = 2**3 * 3 * 1000003 * 1000033 has
# two prime factors above a trial bound of 2
FACTORING_STOPS = {
    "select_cover_prime": lambda: select_cover_prime(34, 2, FactorBudget(2, 0)),
    "triviality_primes_for": lambda: triviality_primes_for(1002, FactorBudget(2, 0)),
    "search_min_pool": lambda: search_min(
        SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8), budget=FactorBudget(100, 0))),
    "multiplicative_order": lambda: multiplicative_order(3, 24000864002377, FactorBudget(2, 0)),
}


@pytest.mark.parametrize("stop", FACTORING_STOPS.values(), ids=list(FACTORING_STOPS))
def test_every_factoring_stop_is_a_budget_exceeded(stop):
    with pytest.raises(sierpinski.BudgetExceeded) as info:
        stop()
    assert info.type is FactorBudgetExceeded
