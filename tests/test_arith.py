"""Primality, factorization, CRT, and order tests against sieve/sympy oracles."""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sierpinski.arith as arith

from sierpinski.arith import (
    Congruence,
    FactorBudget,
    Factorization,
    ModuliNotCoprime,
    NotCoprime,
    crt_solve,
    factorize,
    is_prime,
    mod_inverse,
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
            assert is_prime(x) == bool(flags[x]), x

    def test_agrees_with_sympy_sampled(self):
        rng = random.Random(20260814)
        for _ in range(3000):
            x = rng.randrange(2, 10 ** 7)
            assert is_prime(x) == sympy.isprime(x), x
        for _ in range(300):
            x = rng.randrange(2 ** 60, 2 ** 64)
            assert is_prime(x) == sympy.isprime(x), x

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
            assert pocklington_verdict(x, f, primes) is isp, x
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
            got = pocklington_verdict(x, m**n, tuple(sympy.primefactors(m)))
            assert got is sympy.isprime(x), (k, m, n)
            seen[got] += 1

    @pytest.mark.parametrize("m", (2, 4, 8, 1024))
    def test_prime_term_costs_one_full_power(self, monkeypatch, m):
        # f = 2**j: the one power z = a**((x-1)/2) must settle q = 2, which
        # a base with (a/x) = -1 does for every prime x; 2 itself never does
        # for these x = 1 (mod 8)
        full = []

        def counting_pow(a, e, mod=None):
            if mod is not None and e > 2:  # z**F and z**(F/q) have e <= F = 2
                full.append(e)
            return pow(a, e, mod)

        monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
        primes = 0
        for x, f in _terms_above_2_64(m, 400):
            if sympy.isprime(x):
                assert x % 8 == 1
                full.clear()
                assert pocklington_verdict(x, f, (2,)) is True
                assert len(full) == 1, x
                primes += 1
        assert primes >= 5

    def test_small_values_go_by_trial_division(self):
        assert pocklington_verdict(7, 3, (3,)) is True  # 6 = 2 * 3, 9 > 7
        assert pocklington_verdict(9, 4, (2,)) is False
        assert pocklington_verdict(1, 2, (2,)) is False

    def test_unsettled_base_list_gives_none(self, monkeypatch):
        # 4 is a square, so it never settles q = 2 for a prime x
        x, f = 16 * 1000**7 + 1, 1000**7
        assert sympy.isprime(x) and pocklington_verdict(x, f, (2, 5)) is True
        monkeypatch.setattr(arith, "_POCKLINGTON_BASES", (4,))
        assert pocklington_verdict(x, f, (2, 5)) is None

    @pytest.mark.parametrize("m", BASES)
    def test_screened_terms_agree_with_sympy(self, m):
        # terms k*m**n + 1 with m**n > k below SCREEN_BOUND**2: the screen decides
        primes = tuple(sympy.primefactors(m))
        bound = arith.SCREEN_BOUND**2
        terms = [(k * m**n + 1, m**n) for n in range(1, 22) for k in range(1, min(m**n, bound // m**n))]
        assert len(terms) > 300 and min(terms)[0] < arith.SCREEN_BOUND
        for x, f in terms:
            assert pocklington_verdict(x, f, primes) is sympy.isprime(x), x

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
            got = pocklington_verdict(x, f, primes)
            assert got is _reference_pocklington(x, f, primes), x
            assert got is None or got is sympy.isprime(x), x
            outcomes.add(got)
        assert {True, False} <= outcomes
        if bases is None:
            assert None not in outcomes
        elif m % 2 == 0:
            # 4 = 2**2 never settles q = 2 for a prime x, nor does 2 when x = 1 mod 8
            assert None in outcomes

    @pytest.mark.parametrize("x, f", [
        (10 * 1000**7 + 1, 1000**7 + 1),  # f does not divide x - 1
        (10 * 1000**7 + 1, 10),  # f**2 <= x
        (10**6 * 1000 + 1, 1000),  # f = m**n <= k
        (101, 0),
    ])
    def test_rejects_bad_f(self, x, f):
        with pytest.raises(ValueError):
            pocklington_verdict(x, f, (2, 5))


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


def reference_factorize(x, budget):
    """factorize as it was before block gcds: one % per 6k +/- 1 candidate.

    Returns (factors, cofactor) for comparison with factorize(x, budget).
    """
    found = {}

    def record(p, certainty):
        found.setdefault(p, [0, certainty])[0] += 1

    n = x
    for p in (2, 3):
        while n % p == 0:
            n //= p
            record(p, "proven")
    d, step = 5, 2
    while d <= budget.trial_bound and d * d <= n:
        while n % d == 0:
            n //= d
            record(d, "proven")
        d += step
        step = 6 - step
    if n > 1 and d * d > n:
        record(n, "proven")
        n = 1
    cofactor = 1
    steps_left = budget.rho_steps
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        isp, certainty = prime_verdict(c)
        if isp:
            record(c, certainty)
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


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(34, 7) == 6
        assert mod_inverse(1, 1) == 0
        with pytest.raises(NotCoprime):
            mod_inverse(4, 6)

    def test_random_property(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randrange(2, 10 ** 6)
            a = rng.randrange(1, n)
            if math.gcd(a, n) != 1:
                with pytest.raises(NotCoprime):
                    mod_inverse(a, n)
            else:
                assert a * mod_inverse(a, n) % n == 1


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


def test_factor_bound_env_override(monkeypatch):
    monkeypatch.setenv("SIERPINSKI_FACTOR_BOUND", "500")
    assert FactorBudget.default().trial_bound == 500
    monkeypatch.delenv("SIERPINSKI_FACTOR_BOUND")
    assert FactorBudget.default().trial_bound == 100_000


@pytest.mark.parametrize("value", ["abc", "1e5", "1"])
def test_factor_bound_env_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("SIERPINSKI_FACTOR_BOUND", value)
    with pytest.raises(ValueError, match=f"SIERPINSKI_FACTOR_BOUND must be an integer >= 2, not {value!r}"):
        FactorBudget.default()
