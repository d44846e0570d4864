"""Arbitrary-precision integer arithmetic: primality verdicts, factorization
with an explicit work budget, CRT, modular inverses, multiplicative orders.

Everything works on Python ints; nothing here assumes 64-bit operands.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass

PROVEN = "proven"
PROBABLE = "probable"

FACTOR_BOUND_ENV = "SIERPINSKI_FACTOR_BOUND"


class NotCoprime(ValueError):
    """Two integers required to be coprime share a factor."""


class ModuliNotCoprime(ValueError):
    """CRT input moduli are not pairwise coprime."""


class BudgetExceeded(RuntimeError):
    """Work (period, assignment space, orbit, order, size) over its budget."""


class FactorBudgetExceeded(BudgetExceeded):
    """A required factorization did not complete within its budget."""


def _small_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(limit) if sieve[i])


# Every verdict first screens x by the primes below this bound. On the two
# elimination calls of the search benchmark (2 cores, medians of 7 interleaved
# runs), bounds from 1024 to 16384 took 151-170 ms, within their run-to-run
# spread.
SCREEN_BOUND = 2048
_SCREEN_PRIMES = frozenset(_small_primes(SCREEN_BOUND))
# The screen takes a gcd with the product of the primes below 128 first: on the
# same calls one gcd with the whole product took 8% longer with one worker
# and 19% longer with two.
_SMALL_PRIMORIAL = math.prod(_small_primes(128))
_LARGE_PRIMORIAL = math.prod(_SCREEN_PRIMES) // _SMALL_PRIMORIAL


def _screen(x: int) -> bool | None:
    """Primality of x >= 0 by the primes below SCREEN_BOUND: looked up below
    it, composite with a prime factor below it, else prime below its square,
    and None past that."""
    if x < SCREEN_BOUND:
        return x in _SCREEN_PRIMES
    if math.gcd(x, _SMALL_PRIMORIAL) > 1 or math.gcd(x, _LARGE_PRIMORIAL) > 1:
        return False
    return True if x < SCREEN_BOUND * SCREEN_BOUND else None


# Verified deterministic witness set for every odd n < 2**64.
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_DETERMINISTIC_LIMIT = 1 << 64
_RANDOM_ROUNDS = 40


def _mr_witness_composite(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses that n is composite (n odd, n - 1 = d * 2**s)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameters (n odd, > 2)."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == -1:
            break
        if j == 0:
            # D shares a factor with n; for |D| < n that factor is proper.
            return abs(D) == n
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    inv2 = (n + 1) // 2
    U, V = 1, P
    Qk = Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def prime_verdict(x: int, seed: int = 0) -> tuple[bool, str]:
    """Primality verdict for x >= 0 as (is_prime, certainty).

    Certainty is "proven" except for prime verdicts at or above 2**64,
    which come from seeded Miller-Rabin rounds plus a strong Lucas test
    and are "probable". Composite verdicts are always proven (a witness
    or divisor was found). Deterministic for fixed (x, seed).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    verdict = _screen(x)
    if verdict is not None:
        return verdict, PROVEN
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if x < _DETERMINISTIC_LIMIT:
        for a in _WITNESSES_64:
            if _mr_witness_composite(x, a, d, s):
                return False, PROVEN
        return True, PROVEN
    rng = random.Random(f"{seed}:{x}")
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, x - 1)
        if _mr_witness_composite(x, a, d, s):
            return False, PROVEN
    if not _strong_lucas_prp(x):
        return False, PROVEN
    return True, PROBABLE


_POCKLINGTON_BASES = _small_primes(100)


def pocklington_verdict(x: int, f: int, f_primes) -> bool | None:
    """Prove x prime or composite from a factored part f of x - 1.

    Pocklington's N - 1 theorem (Brillhart, Lehmer & Selfridge 1975): if
    for every prime q | f some base a has a**(x-1) == 1 (mod x) and
    gcd(a**((x-1)/q) - 1, x) = 1, then every prime factor of x is 1 mod f,
    so f**2 > x makes x prime. f_primes must be exactly the primes of f.
    A failed Fermat check or a proper gcd proves x composite. Returns None
    when no base in a fixed short list settles some q. Requires f | x - 1
    and f**2 > x (ValueError otherwise).

    The small-prime screen settles x first, then each q in turn with the
    bases in order. The first base a costs one full power for all q
    together: with F the product of f_primes, z = a**((x-1)/F) gives
    a**((x-1)/q) = z**(F/q) and a**(x-1) = z**F. The first base is the
    least listed one with Jacobi symbol (a/x) = -1, or the first listed (2)
    when none has it; the others follow in list order. For a prime x that
    a has a**((x-1)/2) = -1, so it settles q = 2 as well, and a prime x
    mostly costs one full power. Base 2 would not: it is a square modulo
    every x = 1 (mod 8), as x = k*m**n + 1 is for even m and n >= 3.
    """
    if f < 1 or (x - 1) % f or f * f <= x:
        raise ValueError("need f | x - 1 and f**2 > x")
    verdict = _screen(x)
    if verdict is not None:
        return verdict
    bases = _POCKLINGTON_BASES
    first = next((a for a in bases if _jacobi(a, x) == -1), bases[0])
    e = x - 1
    F = math.prod(f_primes)
    z = pow(first, e // F, x)
    if pow(z, F, x) != 1:
        return False
    for q in f_primes:
        g = math.gcd(pow(z, F // q, x) - 1, x)
        if g == 1:
            continue
        if g != x:
            return False
        for a in bases:
            if a == first:
                continue
            y = pow(a, e // q, x)
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


def is_prime(x: int, seed: int = 0) -> bool:
    return prime_verdict(x, seed=seed)[0]


@dataclass(frozen=True)
class FactorBudget:
    """Work caps for factorize: trial-division bound and total rho steps."""

    trial_bound: int = 100_000
    rho_steps: int = 4_000_000

    def __post_init__(self):
        if self.trial_bound < 2 or self.rho_steps < 0:
            raise ValueError("trial_bound >= 2 and rho_steps >= 0 required")

    @staticmethod
    def default() -> "FactorBudget":
        env = os.environ.get(FACTOR_BOUND_ENV)
        if env:
            try:
                return FactorBudget(trial_bound=int(env))
            except ValueError:
                raise ValueError(f"{FACTOR_BOUND_ENV} must be an integer >= 2, not {env!r}") from None
        return FactorBudget()


@dataclass(frozen=True)
class Factorization:
    """value = cofactor * prod(p**e); factors carry a certainty tag per prime."""

    value: int
    factors: tuple[tuple[int, int, str], ...]  # (prime, exponent, certainty)
    cofactor: int

    @property
    def is_complete(self) -> bool:
        return self.cofactor == 1

    def reassemble(self) -> int:
        out = self.cofactor
        for p, e, _ in self.factors:
            out *= p ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _, _ in self.factors)


def _brent_rho(n: int, max_steps: int) -> tuple[int | None, int]:
    """Brent's cycle variant of Pollard rho with batched gcds.

    Deterministic restart schedule; returns (proper factor or None, steps
    used). n must be odd, composite, and coprime to the trial primes.
    """
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
            for _ in range(r):
                y = (y * y + c) % n
            used += r
            k = 0
            while k < r and g == 1:
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


# Trial candidates are 5, 7, 11, 13, ... (6k +/- 1); a block is a run of
# this many of them (even, so every block starts at some 6k + 5).
_TRIAL_BLOCK = 1024


def _candidate_after(t: int) -> int:
    """The least trial candidate above t."""
    c = max(t + 1, 5)
    while c % 6 not in (1, 5):
        c += 1
    return c


@functools.lru_cache(maxsize=256)
def _block_product(block: int, clip: int) -> int:
    """Product of the candidates of the given block that are <= clip."""
    lo = 3 * _TRIAL_BLOCK * block + 5
    return math.prod(range(lo, clip + 1, 6)) * math.prod(range(lo + 2, clip + 1, 6))


def _trial_division(x: int, bound: int) -> tuple[list[int], int]:
    """Trial stage of factorize: (primes of x found, with repeats, ascending; rest).

    Strips 2 and 3, then the candidates 5, 7, 11, 13, ... in order until
    the next candidate d exceeds bound or d*d exceeds what is left; a rest
    with d*d > rest is prime and joins the primes. Each block of candidates
    costs one gcd with their product, and a further pass over the block
    only when that gcd is not 1. The returned rest is 1 or has only prime
    factors above bound.
    """
    found = []
    n = x
    for p in (2, 3):
        while n % p == 0:
            n //= p
            found.append(p)
    block = 0
    while True:
        # where the candidate-by-candidate loop stops, now that no candidate
        # below this block divides n
        d = _candidate_after(min(bound, math.isqrt(n)))
        first = 3 * _TRIAL_BLOCK * block + 5
        if d <= first:
            break
        g = math.gcd(n, _block_product(block, min(bound, first + 3 * _TRIAL_BLOCK - 4)))
        c, step = first, 2
        while c * c <= g:
            if g % c == 0:
                while n % c == 0:
                    n //= c
                    found.append(c)
                g = math.gcd(g, n)
            c += step
            step = 6 - step
        # a g > 1 left has no prime factor up to its square root: it is prime
        if g > 1:
            while n % g == 0:
                n //= g
                found.append(g)
        block += 1
    # every candidate below d was tested, so d*d > n proves n prime
    if n > 1 and d * d > n:
        found.append(n)
        n = 1
    return found, n


def factorize(x: int, budget: FactorBudget | None = None) -> Factorization:
    """Factor x >= 1 within the given budget.

    Trial division by 2, 3 and the 6k +/- 1 candidates up to
    budget.trial_bound, taken as one gcd per block of candidates against
    their product, then Brent rho on what is left, splitting recursively
    until every piece passes prime_verdict or the shared rho step budget
    runs out. Anything unfactored lands in the cofactor, so reassemble()
    always returns x.
    """
    if x < 1:
        raise ValueError("x must be a positive integer")
    if budget is None:
        budget = FactorBudget.default()
    found, rest = _trial_division(x, budget.trial_bound)
    return _factor_rest(x, found, rest, budget)


def _factor_rest(x: int, found, rest: int, budget: FactorBudget) -> Factorization:
    """Rho stage of factorize, from the result of _trial_division(x, ...)."""
    counts: dict[int, list] = {}

    def record(p: int, certainty: str):
        entry = counts.setdefault(p, [0, certainty])
        entry[0] += 1

    for p in found:
        record(p, PROVEN)
    cofactor = 1
    if rest > 1:
        steps_left = budget.rho_steps
        pending = [rest]
        while pending:
            c = pending.pop()
            isp, certainty = prime_verdict(c)
            if isp:
                record(c, certainty)
                continue
            if steps_left <= 0:
                cofactor *= c
                continue
            f, used = _brent_rho(c, steps_left)
            steps_left -= used
            if f is None:
                cofactor *= c
                continue
            pending.append(f)
            pending.append(c // f)
    factors = tuple((p, e, cert) for p, (e, cert) in sorted(counts.items()))
    return Factorization(value=x, factors=factors, cofactor=cofactor)


@dataclass(frozen=True)
class Congruence:
    """x == residue (mod modulus), stored with 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


def crt_solve(congruences) -> Congruence:
    """Combine congruences with pairwise coprime moduli into one.

    Returns the least nonnegative solution modulo the product. Raises
    ModuliNotCoprime naming the offending pair if any two moduli share a
    factor. An empty list collapses to 0 (mod 1).
    """
    congruences = list(congruences)
    for i in range(len(congruences)):
        for j in range(i + 1, len(congruences)):
            mi, mj = congruences[i].modulus, congruences[j].modulus
            g = math.gcd(mi, mj)
            if g > 1:
                raise ModuliNotCoprime(f"moduli {mi} and {mj} share the factor {g}")
    residue, modulus = 0, 1
    for c in congruences:
        t = (c.residue - residue) * pow(modulus, -1, c.modulus) % c.modulus
        residue += t * modulus
        modulus *= c.modulus
    return Congruence(residue % modulus, modulus)


def mobius_pairs(n: int) -> list[tuple[int, int]]:
    """(d, mu(n/d)) for every divisor d of n >= 1 with mu(n/d) != 0, by trial division."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    pairs = [(n, 1)]
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            pairs += [(d // p, -mu) for d, mu in pairs]
        p += 1
    if rest > 1:
        pairs += [(d // rest, -mu) for d, mu in pairs]
    return pairs


def totient(n: int) -> int:
    """Euler's phi(n) = sum over d | n of mu(n/d) * d."""
    return sum(mu * d for d, mu in mobius_pairs(n))


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n (n >= 1); NotCoprime when gcd(a, n) > 1."""
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotCoprime(f"{a} is not invertible modulo {n} (gcd {math.gcd(a, n)})") from None


def multiplicative_order(m: int, p: int, budget: FactorBudget | None = None) -> int:
    """Order of m in (Z/pZ)* for prime p not dividing m.

    Starts from p - 1 and strips prime factors while the power still
    equals 1: one factorization of p - 1 (FactorBudgetExceeded if it does
    not finish) and O(log p) modular powers. ValueError for a composite p.
    """
    if p < 2 or not prime_verdict(p)[0]:
        raise ValueError(f"p must be a prime, got {p}")
    if math.gcd(m, p) != 1:
        raise NotCoprime(f"{m} and {p} are not coprime")
    fac = factorize(p - 1, budget)
    if not fac.is_complete:
        raise FactorBudgetExceeded(f"could not fully factor {p - 1} within budget")
    order = p - 1
    for q in fac.primes():
        while order % q == 0 and pow(m, order // q, p) == 1:
            order //= q
    return order
