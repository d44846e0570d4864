"""Primality, factorization, CRT, and order tests against sieve/sympy oracles."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sierpinski.arith as arith
from sierpinski.construct import select_cover_prime
from sierpinski.cyclotomic import eval_cyclotomic

from sierpinski.arith import (
    Congruence,
    FactorBudget,
    FactorBudgetExceeded,
    Factorization,
    ModuliNotCoprime,
    NotCoprime,
    crt_solve,
    factorize,
    multiplicative_order,
    pocklington_verdict,
    prime_verdict,
)


def sieve(limit):
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


class TestPrimeVerdict:
    def test_small_values(self):
        assert prime_verdict(0) == (False, "proven")
        assert prime_verdict(1) == (False, "proven")
        assert prime_verdict(2) == (True, "proven")
        assert prime_verdict(35) == (False, "proven")
        assert prime_verdict(103) == (True, "proven")
        assert prime_verdict(137) == (True, "proven")
        assert prime_verdict(1336337) == (True, "proven")
        with pytest.raises(ValueError):
            prime_verdict(-7)

    def test_agrees_with_sieve(self):
        flags = sieve(100_000)
        for x in range(100_000):
            assert prime_verdict(x)[0] == bool(flags[x]), x

    def test_agrees_with_sympy_sampled(self):
        rng = random.Random(20260814)
        for _ in range(3000):
            x = rng.randrange(2, 10 ** 7)
            assert prime_verdict(x)[0] == sympy.isprime(x), x
        for _ in range(300):
            x = rng.randrange(2 ** 60, 2 ** 64)
            assert prime_verdict(x)[0] == sympy.isprime(x), x

    def test_strong_pseudoprimes_are_caught(self):
        # strong pseudoprimes to several fixed bases, and Carmichael numbers
        for x in (561, 41041, 3215031751, 341550071728321, 3825123056546413051):
            assert prime_verdict(x) == (False, "proven"), x

    def test_certainty_labels(self):
        # below 2^64 the witness set is deterministic
        assert prime_verdict(2 ** 61 - 1) == (True, "proven")
        # above, prime verdicts are only probable
        assert prime_verdict(2 ** 89 - 1) == (True, "probable")
        assert prime_verdict(2 ** 101 - 1) == (False, "proven")

    def test_deterministic_for_seed(self):
        x = 2 ** 89 - 1
        assert prime_verdict(x, seed=5) == prime_verdict(x, seed=5)

    def test_large_prime_square_is_composite(self):
        p = 618970019642690137449562111  # 2^89 - 1
        assert prime_verdict(p * p)[0] is False

    def test_screen_edges_against_sympy(self):
        # the screen looks x up below SCREEN_BOUND and proves it prime below
        # the bound squared when no prime below the bound divides it
        bound = arith.SCREEN_BOUND
        xs = list(range(3 * bound)) + list(range(bound**2 - 3000, bound**2 + 3000))
        for x in xs:
            assert prime_verdict(x) == (sympy.isprime(x), "proven"), x

    @pytest.mark.parametrize("x", [2053**2, 2053 * 2063, 2063 * (10**9 + 7)])
    def test_products_of_primes_above_the_screen_are_composite(self, x):
        assert arith._screen(x) is None
        assert prime_verdict(x) == (False, "proven")

    def test_primes_past_2_64_stay_probable(self):
        primes = 0
        for x in range(2**64, 2**64 + 400):
            isp = sympy.isprime(x)
            assert prime_verdict(x) == (isp, "probable" if isp else "proven"), x
            primes += isp
        assert primes >= 5


def _terms_above_2_64(m, count):
    """(x, m**n) for x = k*m**n + 1 >= 2**64 with m**n > k, k and n small."""
    out = []
    for k in range(1, count):
        n0 = 1
        while k * m**n0 + 1 < 2**64 or m**n0 <= k:
            n0 += 1
        out += [(k * m**n + 1, m**n) for n in range(n0, n0 + 4)]
    return out[:count]


def _reference_pocklington(x, f, f_primes):
    """pocklington_verdict with one full power per prime q and base."""
    if f < 1 or (x - 1) % f or f * f <= x:
        raise ValueError("need f | x - 1 and f**2 > x")
    for p in sympy.primerange(2048):
        if x % p == 0:
            return x == p
    if x < 2048**2:
        return x > 1
    for q in f_primes:
        e = (x - 1) // q
        for a in arith._POCKLINGTON_BASES:
            y = pow(a, e, x)
            if pow(y, q, x) != 1:
                return False
            g = math.gcd(y - 1, x)
            if g == 1:
                break
            if g != x:
                return False
        else:
            return None
    return True


class TestPocklingtonVerdict:
    # prime m, and m with two or three distinct primes
    BASES = (2, 7, 127, 10, 22, 1000, 30, 210)

    @pytest.mark.parametrize("m", BASES)
    def test_proves_primes_and_rejects_composites(self, m):
        primes = tuple(sympy.primefactors(m))
        primes_seen = composites_past_trial_division = 0
        for x, f in _terms_above_2_64(m, 400):
            isp = sympy.isprime(x)
            assert pocklington_verdict((x - 1) // f, f, primes) is isp, x
            primes_seen += isp
            composites_past_trial_division += not isp and all(x % p for p in range(2, 1000))
        assert primes_seen >= 5 and composites_past_trial_division >= 10

    def test_even_bases_agree_with_sympy(self):
        # for even m every term with 8 | m**n is 1 (mod 8), where 2 is a
        # square; the Jacobi-chosen first base still settles every term
        rng = random.Random(14)
        evens = (2, 4, 6, 10, 12, 18, 22, 34, 210, 1000)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 40:
            m = rng.choice(evens)
            n = rng.randrange(3, 60)
            k = rng.randrange(1, min(m**n, 10**6))
            x = k * m**n + 1
            got = pocklington_verdict(k, m**n, tuple(sympy.primefactors(m)))
            assert got is sympy.isprime(x), (k, m, n)
            seen[got] += 1

    @pytest.mark.parametrize("m", (2, 4, 8, 1024))
    def test_prime_term_costs_one_full_power(self, monkeypatch, m):
        # f = 2**j: the one power z = a**((x-1)/2) must settle q = 2, which
        # a base with (a/x) = -1 does for every prime x; 2 itself never does
        # for these x = 1 (mod 8). Every full power goes through _powmod;
        # z**F and z**(F/q) stay on the builtin pow.
        full = []
        powmod = arith._powmod

        def counting_powmod(a, e, n):
            full.append(e)
            return powmod(a, e, n)

        monkeypatch.setattr(arith, "_powmod", counting_powmod)
        primes = 0
        for x, f in _terms_above_2_64(m, 400):
            if sympy.isprime(x):
                assert x % 8 == 1
                full.clear()
                assert pocklington_verdict((x - 1) // f, f, (2,)) is True
                assert len(full) == 1, x
                primes += 1
        assert primes >= 5

    def test_small_values_go_by_trial_division(self):
        assert pocklington_verdict(2, 3, (3,)) is True  # 7 = 2 * 3 + 1, 9 > 7
        assert pocklington_verdict(2, 4, (2,)) is False  # 9 = 2 * 4 + 1
        with pytest.raises(ValueError):  # 1 = 0 * 2 + 1
            pocklington_verdict(0, 2, (2,))

    def test_unsettled_base_list_gives_none(self, monkeypatch):
        # 4 is a square, so it never settles q = 2 for a prime x
        k, f = 16, 1000**7
        assert sympy.isprime(k * f + 1) and pocklington_verdict(k, f, (2, 5)) is True
        monkeypatch.setattr(arith, "_POCKLINGTON_BASES", (4,))
        assert pocklington_verdict(k, f, (2, 5)) is None

    @pytest.mark.parametrize("m", BASES)
    def test_screened_terms_agree_with_sympy(self, m):
        # terms k*m**n + 1 with m**n > k below SCREEN_BOUND**2: the screen decides
        primes = tuple(sympy.primefactors(m))
        bound = arith.SCREEN_BOUND**2
        terms = [(k * m**n + 1, m**n) for n in range(1, 22) for k in range(1, min(m**n, bound // m**n))]
        assert len(terms) > 300 and min(terms)[0] < arith.SCREEN_BOUND
        for x, f in terms:
            assert pocklington_verdict((x - 1) // f, f, primes) is sympy.isprime(x), x

    @pytest.mark.parametrize("bases", [None, (4,), (4, 2)])
    @pytest.mark.parametrize("m", BASES)
    def test_matches_per_q_reference(self, monkeypatch, m, bases):
        # the first base's powers for every q come from one shared power;
        # a patched list runs out of bases (None) or falls through to base 2
        if bases is not None:
            monkeypatch.setattr(arith, "_POCKLINGTON_BASES", bases)
        primes = tuple(sympy.primefactors(m))
        terms = _terms_above_2_64(m, 200) + [
            (k * m**n + 1, m**n) for k in range(1, 60) for n in range(1, 8) if m**n > k]
        outcomes = set()
        for x, f in terms:
            got = pocklington_verdict((x - 1) // f, f, primes)
            assert got is _reference_pocklington(x, f, primes), x
            assert got is None or got is sympy.isprime(x), x
            outcomes.add(got)
        assert {True, False} <= outcomes
        if bases is None:
            assert None not in outcomes
        elif m % 2 == 0:
            # 4 = 2**2 never settles q = 2 for a prime x, nor does 2 when x = 1 mod 8
            assert None in outcomes

    @pytest.mark.parametrize("k, f", [
        (0, 1000),  # k < 1
        (-1, 1000),
        (10, 10),  # f = k
        (1000**7, 10),  # f < k, so f**2 <= k*f + 1
        (10**6, 1000),  # f = m**n <= k
        (100, 0),
    ])
    def test_rejects_bad_f(self, k, f):
        with pytest.raises(ValueError):
            pocklington_verdict(k, f, (2, 5))


class TestFactorize:
    def test_examples(self):
        f = factorize(1155)
        assert f.factors == ((3, 1, "proven"), (5, 1, "proven"), (7, 1, "proven"), (11, 1, "proven"))
        assert f.is_complete
        assert factorize(1) == Factorization(1, (), 1)
        assert factorize(2 ** 10).factors == ((2, 10, "proven"),)
        assert factorize(16003).factors == ((13, 1, "proven"), (1231, 1, "proven"))
        with pytest.raises(ValueError):
            factorize(0)

    def test_reassembly_sweep(self):
        rng = random.Random(99)
        budget = FactorBudget(trial_bound=1000, rho_steps=500_000)
        for _ in range(400):
            x = rng.randrange(2, 2 ** 48)
            f = factorize(x, budget)
            assert f.reassemble() == x
            assert f.is_complete, x
            assert list(f.primes()) == sorted(f.primes())
            for p, e, certainty in f.factors:
                assert sympy.isprime(p)
                assert e >= 1
                assert certainty == "proven"

    def test_factors_big_semiprime(self):
        p, q = 1000003, 1000033
        f = factorize(p * q)
        assert f.primes() == (p, q)
        assert f.is_complete

    def test_budget_exhaustion_leaves_cofactor(self):
        p, q = 1000003, 1000033
        f = factorize(p * q, FactorBudget(trial_bound=1000, rho_steps=0))
        assert not f.is_complete
        assert f.cofactor == p * q
        assert f.factors == ()
        assert f.reassemble() == p * q

    def test_partial_factors_with_exhausted_budget(self):
        p, q = 1000003, 1000033
        f = factorize(12 * p * q, FactorBudget(trial_bound=1000, rho_steps=0))
        assert f.factors == ((2, 2, "proven"), (3, 1, "proven"))
        assert f.cofactor == p * q
        assert f.reassemble() == 12 * p * q

    def test_trial_bound_is_honored_upward(self):
        # all prime factors under the bound: completes with no rho work
        f = factorize(2 ** 4 * 3 * 65537, FactorBudget(trial_bound=100_000, rho_steps=0))
        assert f.is_complete
        assert f.primes() == (2, 3, 65537)


def reference_trial(x, bound):
    """The trial stage as it was before block gcds: one % per 6k +/- 1
    candidate. Returns (primes found with repeats, ascending; rest)."""
    found = []
    n = x
    for p in (2, 3):
        while n % p == 0:
            n //= p
            found.append(p)
    d, step = 5, 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            n //= d
            found.append(d)
        d += step
        step = 6 - step
    if n > 1 and d * d > n:
        found.append(n)
        n = 1
    return found, n


def reference_factorize(x, budget, pm1=True):
    """factorize as it was before block gcds: one % per 6k +/- 1 candidate,
    then (unless pm1 is False) one Pollard p - 1 power on the rest, then rho.

    Returns (factors, cofactor) for comparison with factorize(x, budget).
    """
    found = {}

    def record(p, certainty):
        found.setdefault(p, [0, certainty])[0] += 1

    primes, n = reference_trial(x, budget.trial_bound)
    for p in primes:
        record(p, "proven")
    cofactor = 1
    steps_left = budget.rho_steps
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        isp, certainty = prime_verdict(c)
        if isp:
            record(c, certainty)
            continue
        if pm1 and c == n:
            f, used = arith._pollard_pm1(c, steps_left)
            steps_left -= used
            if f is not None:
                pending += [f, c // f]
                continue
        if steps_left <= 0:
            cofactor *= c
            continue
        f, used = arith._brent_rho(c, steps_left)
        steps_left -= used
        if f is None:
            cofactor *= c
            continue
        pending += [f, c // f]
    return tuple((p, e, cert) for p, (e, cert) in sorted(found.items())), cofactor


# At order 1 one p - 1 power splits this pair, which rho needs about 2**20
# steps for: its first prime less 1 is 2**2 * 7 * 23 * 29 * 59 * 439 * 2273,
# the second's 2 * 23 * 23902427077.
PM1_PAIR = 1099511643749 * 1099511645543
TRIAL_BOUNDS = (2, 3, 4, 5, 6, 7, 1000, 100_000)
# the first block of 1024 candidates ends at 3073; the second starts at 3077
BLOCK_EDGE = (3061, 3067, 3071, 3073, 3077, 3079, 3083)


@st.composite
def factor_cases(draw):
    """(x, trial_bound, rho_steps), leaning on the edges of the trial stage."""
    bound = draw(st.sampled_from(TRIAL_BOUNDS))
    q = sympy.nextprime(bound)
    near_bound = (q, sympy.nextprime(q), q * q, sympy.prevprime(max(bound, 3)))
    parts = draw(st.lists(st.sampled_from(BLOCK_EDGE + near_bound + (5, 7, 25, 99991, 100003)),
                          max_size=4))
    x = math.prod(parts) * draw(st.one_of(st.integers(1, 2**30), st.integers(1, 2**90)))
    return x, bound, draw(st.sampled_from((0, 20_000)))


class TestFactorizeAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(factor_cases())
    @example((3071 * 3073 * 3077, 100_000, 0))
    @example((100_003**2, 100_000, 0))
    @example((100_003**2, 100_000, 20_000))
    @example((3079**2 * 7, 3073, 0))
    @example((PM1_PAIR, 100_000, 20_000))
    def test_matches_candidate_loop(self, case):
        x, bound, steps = case
        budget = FactorBudget(bound, steps)
        fac = factorize(x, budget)
        assert (fac.factors, fac.cofactor) == reference_factorize(x, budget)
        assert fac.reassemble() == x

    def test_small_bound_still_strips_two_and_three(self):
        assert factorize(9, FactorBudget(2, 0)) == Factorization(9, ((3, 2, "proven"),), 1)
        assert factorize(12 * 35, FactorBudget(2, 0)).factors == ((2, 2, "proven"), (3, 1, "proven"))

    def test_sweep_against_reference(self):
        for bound in TRIAL_BOUNDS:
            budget = FactorBudget(bound, 2000)
            for x in range(1, 4000):
                fac = factorize(x, budget)
                assert (fac.factors, fac.cofactor) == reference_factorize(x, budget), (x, bound)


# Phi_n(m) for m < 80, n < 50: the orders of every stored cover and beyond
CYCLOTOMIC_GRID = [(m, n) for m in range(2, 80) for n in range(1, 50)]


class TestTrialDivisionAlongProgression:
    """_trial_division(Phi_n(m), bound, n) tests only the candidates 1 (mod lcm(2, n))."""

    def test_matches_candidate_loop_at_1000(self):
        for m, n in CYCLOTOMIC_GRID:
            value = eval_cyclotomic(n, m)
            assert arith._trial_division(value, 1000, n) == reference_trial(value, 1000), (m, n)

    def test_matches_candidate_loop_at_100000(self):
        # the candidate loop takes ~12 s over the whole grid at this bound, so
        # it checks every 25th value, and the order-1 block stage, which
        # TestFactorizeAgainstReference pins to it, checks them all
        for i, (m, n) in enumerate(CYCLOTOMIC_GRID):
            value = eval_cyclotomic(n, m)
            expected = reference_trial(value, 100_000) if i % 25 == 0 else arith._trial_division(value, 100_000)
            assert arith._trial_division(value, 100_000, n) == expected, (m, n)

    @pytest.mark.parametrize("bound", (2, 5, 50))
    def test_small_bounds(self, bound):
        small = list(sympy.primerange(2, bound + 1))
        for m, n in CYCLOTOMIC_GRID:
            value = eval_cyclotomic(n, m)
            found, rest = arith._trial_division(value, bound, n)
            assert math.prod(found) * rest == value, (m, n)
            assert found == sorted(found) and all(sympy.isprime(p) for p in found), (m, n)
            assert all(rest % p for p in small), (m, n)


class TestFactorizeAtOrder:
    def test_same_pairs_as_order_one(self):
        # at order n, trial division may prove a prime rest that order 1
        # leaves to prime_verdict, so the certainty tags may differ
        budget = FactorBudget(1000, 100_000)
        compared = 0
        for m, n in random.Random(20).sample(CYCLOTOMIC_GRID, 80):
            value = eval_cyclotomic(n, m)
            at_order, plain = factorize(value, budget, n), factorize(value, budget)
            if at_order.is_complete and plain.is_complete:
                assert [f[:2] for f in at_order.factors] == [f[:2] for f in plain.factors], (m, n)
                compared += 1
        assert compared >= 60


def reference_brent_rho(n, max_steps):
    """_brent_rho on x -> x**2 + c alone, one unit per step, with the
    budget checked after every batch of 128 steps."""
    used = 0
    attempt = 0
    while used < max_steps:
        c = attempt + 1
        y = 2 + attempt
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < max_steps:
            x = y
            k = 0
            while k < r and used < max_steps:
                block = min(m, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                used += block
                k += m
            k = 0
            while k < r and g == 1 and used < max_steps:
                ys = y
                block = min(m, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += block
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
        attempt += 1
    return None, used


class TestRhoBudget:
    @pytest.mark.parametrize("x", (1000003 * 1000033, 2**67 - 1, 10007 * 10009 * 1000003, 25 * 35))
    @pytest.mark.parametrize("steps", (1, 100, 5000, 4_000_000))
    def test_square_keeps_sequence_and_count(self, x, steps):
        assert arith._brent_rho(x, steps) == reference_brent_rho(x, steps)

    def test_square_step_multiplies_in_place(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        # shadow the builtin inside arith only
        monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
        assert arith._brent_rho(1000003 * 1000033, 10**6)[0] in (1000003, 1000033)
        assert not calls
        # 13 and 37 are 1 (mod 12)
        assert arith._brent_rho(13 * 37, 10**6, 12)[0] in (13, 37)
        assert calls and all(a[1] == 12 for a in calls)

    @pytest.mark.parametrize("max_steps", (1, 1000, 50_000))
    def test_power_steps_count_multiplications(self, max_steps):
        # the part of Phi_23(38) above the trial bound is a product of two
        # primes of 46-70 bits; x**46 costs 5 squarings and 3 products
        rest = arith._trial_division(eval_cyclotomic(23, 38), 100_000, 23)[1]
        e, cost = 46, 8
        assert not sympy.isprime(rest)
        f, used = arith._brent_rho(rest, max_steps, e)
        assert f is None
        # a doubling round of r steps advances r, then multiplies r, each
        # in batches of at most 128 steps, and the budget is checked after
        # every batch
        total, r = 0, 1
        while total < max_steps:
            for block in [min(128, r - k) for k in range(0, r, 128)] * 2:
                if total < max_steps:
                    total += block * cost
            r *= 2
        assert used == total
        # so it overshoots by less than one batch
        assert max_steps <= used < max_steps + 128 * cost

    def test_small_budget_exits_on_cyclotomic_input(self):
        budget = FactorBudget(100_000, 50_000)
        with pytest.raises(FactorBudgetExceeded, match="Phi_23"):
            select_cover_prime(38, 23, budget)
        value = eval_cyclotomic(23, 38)
        fac = factorize(value, budget, 23)
        assert not fac.is_complete and fac.reassemble() == value


def pm1_cost(e):
    E = e * math.lcm(*range(1, arith.PM1_BOUND + 1))
    return E.bit_length() + E.bit_count() - 2


# An order above PM1_BOUND, so that only e = 2n puts it into the exponent.
# P - 1 = 2**3 * 5**4 * 199 * 367 * 3011 is smooth apart from n; Q - 1 =
# 2 * 3011 * 182582689, and 182582689 divides the order of 2 modulo Q.
PM1_ORDER = 3011
P_SMOOTH, Q_ROUGH = 1099511815001, 1099512953159
# 2 * 3 * 13**2 * 461 * 2297 and 2**3 * 3 * 13 * 37 * 47 * 1979 divide E at e = 2
WHOLE_P, WHOLE_Q = 1073741839, 1073742073


class TestPollardPm1:
    def test_case_primes(self):
        n, p, q = PM1_ORDER, P_SMOOTH, Q_ROUGH
        assert n > arith.PM1_BOUND and sympy.isprime(p) and sympy.isprime(q)
        assert (p - 1) % (2 * n) == 0 and (q - 1) % (2 * n) == 0
        assert max(sympy.factorint((p - 1) // (2 * n))) <= arith.PM1_BOUND
        assert max(sympy.factorint(sympy.n_order(2, q))) > arith.PM1_BOUND

    def test_splits_smooth_prime_at_order(self, monkeypatch):
        e, x = 2 * PM1_ORDER, P_SMOOTH * Q_ROUGH
        assert arith._pollard_pm1(x, 10**6, e) == (P_SMOOTH, pm1_cost(e))
        # without the order in the exponent the gcd is 1
        assert arith._pollard_pm1(x, 10**6) == (None, pm1_cost(2))

        def no_rho(*args):
            raise AssertionError("rho ran")

        monkeypatch.setattr(arith, "_brent_rho", no_rho)
        budget = FactorBudget(1000, 10**6)
        fac = factorize(x, budget, PM1_ORDER)
        assert fac.factors == ((P_SMOOTH, 1, "proven"), (Q_ROUGH, 1, "proven"))

    def test_skipped_when_cost_exceeds_budget(self):
        x = P_SMOOTH * Q_ROUGH
        for e in (2, 2 * PM1_ORDER):
            assert arith._pollard_pm1(x, pm1_cost(e) - 1, e) == (None, 0)
        assert arith._pollard_pm1(x, 0) == (None, 0)
        assert arith._pollard_pm1(PM1_PAIR, pm1_cost(2)) == (1099511643749, pm1_cost(2))
        for steps in (0, 100, pm1_cost(2) - 1):
            budget = FactorBudget(1000, steps)
            for y in (x, PM1_PAIR, 1000003 * 1000033, 35 * 97 * 10007 * 10009, 2**67 - 1):
                fac = factorize(y, budget)
                assert (fac.factors, fac.cofactor) == reference_factorize(y, budget, pm1=False), (y, steps)

    def test_skipped_below_cost_to_the_fourth(self):
        cost = pm1_cost(2)
        assert arith._pollard_pm1(cost**4 - 1, 10**6) == (None, 0)
        # 35 would give g = 35; rho is left to split it
        assert arith._pollard_pm1(35, 10**6) == (None, 0)
        assert factorize(35, FactorBudget(2, 10**6)).factors == ((5, 1, "proven"), (7, 1, "proven"))

    def test_whole_rest_falls_through_to_rho(self, monkeypatch):
        # both primes less 1 divide E, so the gcd is the rest itself
        x = WHOLE_P * WHOLE_Q
        assert x >= pm1_cost(2) ** 4
        assert arith._pollard_pm1(x, 10**6) == (None, pm1_cost(2))
        calls = []
        rho = arith._brent_rho

        def spy(n, *args):
            calls.append(n)
            return rho(n, *args)

        monkeypatch.setattr(arith, "_brent_rho", spy)
        fac = factorize(x, FactorBudget(2, 10**6))
        assert fac.factors == ((WHOLE_P, 1, "proven"), (WHOLE_Q, 1, "proven"))
        assert calls == [x]

    def test_failed_power_is_charged_before_rho(self, monkeypatch):
        # a power that finds nothing still spends its cost: rho gets the rest
        budgets = []
        rho = arith._brent_rho

        def spy(n, max_steps, *args):
            budgets.append(max_steps)
            return rho(n, max_steps, *args)

        monkeypatch.setattr(arith, "_brent_rho", spy)
        x = P_SMOOTH * Q_ROUGH
        factorize(x, FactorBudget(1000, 10**5))
        assert budgets == [10**5 - pm1_cost(2)]

    def test_cyclotomic_values_against_sympy(self, monkeypatch):
        # a seeded sample of Phi_n(m), m < 80, n < 50; under this budget
        # about one in ten stays incomplete, and sympy would take seconds each
        splits = []
        pm1 = arith._pollard_pm1

        def spy(*args):
            out = pm1(*args)
            splits.append(out[0] is not None)
            return out

        monkeypatch.setattr(arith, "_pollard_pm1", spy)
        budget = FactorBudget(1000, 100_000)
        for m, n in random.Random(19).sample(CYCLOTOMIC_GRID, 80):
            value = eval_cyclotomic(n, m)
            fac = factorize(value, budget, n)
            assert fac.reassemble() == value, (m, n)
            if fac.is_complete:
                assert {p: e for p, e, _ in fac.factors} == sympy.factorint(value), (m, n)
            else:
                assert all(sympy.isprime(p) for p in fac.primes()), (m, n)
                assert not sympy.isprime(fac.cofactor), (m, n)
        assert any(splits)

    def test_import_leaves_exponent_unbuilt(self):
        code = "import sierpinski, sierpinski.arith as a; print(a._pm1_smooth.cache_info().currsize)"
        src = str(Path(arith.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        assert out.stdout.strip() == "0"


class TestCrt:
    def test_examples(self):
        sol = crt_solve([Congruence(4, 5), Congruence(1, 7)])
        assert (sol.residue, sol.modulus) == (29, 35)
        sol = crt_solve([Congruence(6, 35)])
        assert (sol.residue, sol.modulus) == (6, 35)
        sol = crt_solve([])
        assert (sol.residue, sol.modulus) == (0, 1)
        sol = crt_solve([Congruence(0, 1), Congruence(3, 7)])
        assert (sol.residue, sol.modulus) == (3, 7)

    def test_rejects_shared_factor(self):
        with pytest.raises(ModuliNotCoprime, match="4 and 6"):
            crt_solve([Congruence(1, 4), Congruence(3, 6)])

    def test_minimality_by_scan(self):
        rng = random.Random(3)
        for _ in range(60):
            moduli = []
            m = 1
            for candidate in rng.sample([2, 3, 5, 7, 11, 13], rng.randrange(1, 4)):
                moduli.append(candidate)
                m *= candidate
            congruences = [Congruence(rng.randrange(n), n) for n in moduli]
            sol = crt_solve(congruences)
            assert sol.modulus == m
            matches = [
                x for x in range(m)
                if all((x - c.residue) % c.modulus == 0 for c in congruences)
            ]
            assert matches == [sol.residue]

    def test_congruence_normalizes(self):
        assert Congruence(-1, 5).residue == 4
        assert Congruence(12, 5).residue == 2
        assert str(Congruence(29, 35)) == "29 (mod 35)"
        with pytest.raises(ValueError):
            Congruence(1, 0)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(34, 5) == 2
        assert multiplicative_order(127, 13) == 6
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 2) == 1
        with pytest.raises(NotCoprime):
            multiplicative_order(10, 5)

    @pytest.mark.parametrize("p", [9, 15, 1336337 * 5])
    def test_composite_modulus_is_refused(self, p):
        # the order of 2 mod 9 is 6, not the 8 that stripping p - 1 = 8 would give
        with pytest.raises(ValueError):
            multiplicative_order(2, p)

    def test_matches_sympy_and_divides_group_order(self):
        rng = random.Random(17)
        primes = [int(sympy.prime(rng.randrange(2, 2000))) for _ in range(60)]
        for p in primes:
            m = rng.randrange(2, 10 ** 6)
            if m % p == 0:
                m += 1
            order = multiplicative_order(m, p)
            assert order == sympy.n_order(m, p)
            assert (p - 1) % order == 0
            assert pow(m, order, p) == 1
            for q in sympy.primefactors(order):
                assert pow(m, order // q, p) != 1
