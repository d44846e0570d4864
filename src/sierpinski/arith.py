"""Arbitrary-precision integer arithmetic: primality verdicts, factorization
with an explicit work budget, CRT, multiplicative orders.

Everything works on Python ints; nothing here assumes 64-bit operands. The
long modular powers of the primality tests and of Pollard p - 1 run in GMP's
mpz_powm through ctypes when libgmp loads, on the builtin pow otherwise, with
the same results.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

PROVEN = "proven"
PROBABLE = "probable"


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
_SCREEN_PRIMORIAL = math.prod(_SCREEN_PRIMES)


def _screen(x: int) -> bool | None:
    """Primality of x >= 0 by the primes below SCREEN_BOUND: looked up below
    it, composite with a prime factor below it (one gcd with their product),
    else prime below its square, and None past that."""
    if x < SCREEN_BOUND:
        return x in _SCREEN_PRIMES
    if math.gcd(x, _SCREEN_PRIMORIAL) > 1:
        return False
    return True if x < SCREEN_BOUND * SCREEN_BOUND else None


# A power whose exponent has more than this many bits goes to GMP's mpz_powm
# when libgmp loads. On 300 powers 3**(n - 1) mod a random b-bit n (2 cores,
# best of 5 runs), b = 30 / 31 / 32 / 40 / 64 / 106 / 200 / 400 took 1.9 / 4.1 /
# 4.9 / 6.4 / 12.4 / 22.6 / 63.6 / 298 us with the builtin pow and 3.4 / 3.4 /
# 3.7 / 3.6 / 4.1 / 5.5 / 11.2 / 35.3 us through ctypes, conversions included:
# they cross where n outgrows one 30-bit digit of a Python int.
POWM_BITS = 30


@functools.cache
def _load_powm():
    """GMP's mpz_powm through ctypes as powm(a, e, n), for 0 <= a < n, e >= 1
    and n >= 2; None when libgmp.so.10 does not load or powm fails a fixed
    check against pow. Loaded by soname at the first call, so import
    sierpinski loads neither ctypes nor the library. The mpz temporaries
    are per thread, as a ctypes call releases the GIL."""
    import ctypes
    import threading

    try:
        gmp = ctypes.CDLL("libgmp.so.10")
        init, clear = gmp.__gmpz_init, gmp.__gmpz_clear
        load, store, power = gmp.__gmpz_set_str, gmp.__gmpz_get_str, gmp.__gmpz_powm
    except (OSError, AttributeError):
        return None

    class Mpz(ctypes.Structure):  # mpz_t: _mp_alloc, _mp_size, _mp_d
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]

    for f, args, result in (
        (init, [ctypes.c_void_p], None),
        (clear, [ctypes.c_void_p], None),
        (load, [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int], ctypes.c_int),
        (store, [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p], ctypes.c_char_p),
        (power, [ctypes.c_void_p] * 4, None),
    ):
        f.argtypes, f.restype = args, result

    class Temporaries(list):
        """Addresses, the cheapest argument, of four mpz_t (result, a, e, n) cleared
        when the thread's copy goes, and a digit buffer of size bytes at out."""

        def __init__(self):
            self.mpz, self.size = [Mpz() for _ in range(4)], 0
            super().__init__(map(ctypes.addressof, self.mpz))
            for z in self:
                init(z)

        def __del__(self):
            for z in self:
                clear(z)

    local = threading.local()

    def powm(a: int, e: int, n: int) -> int:
        try:
            r, za, ze, zn = t = local.mpz
        except AttributeError:
            r, za, ze, zn = t = local.mpz = Temporaries()
        load(za, b"%x" % a, 16)
        load(ze, b"%x" % e, 16)
        load(zn, b"%x" % n, 16)
        power(r, za, ze, zn)
        if t.size < n.bit_length() // 4 + 2:  # the result is below n: n's hex digits and the NUL
            t.buffer = ctypes.create_string_buffer(n.bit_length() // 4 + 2)
            t.size, t.out = len(t.buffer), ctypes.addressof(t.buffer)
        return int(store(t.out, 16, r), 16)

    checks = ((3, (1 << 100) + 7, (1 << 127) - 1), (10**20 + 1, 1 << 70, 10**30), (0, 1 << 64, 2))
    return powm if all(powm(a, e, n) == pow(a, e, n) for a, e, n in checks) else None


def _powmod(a: int, e: int, n: int) -> int:
    """pow(a, e, n), exactly; with e of more than POWM_BITS bits and n >= 2
    the power runs in GMP when libgmp loads (_load_powm)."""
    if e.bit_length() > POWM_BITS and e > 0 and n >= 2:
        powm = _load_powm()
        if powm is not None:
            return powm(a % n, e, n)
    return pow(a, e, n)


# Verified deterministic witness set for every odd n < 2**64.
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_DETERMINISTIC_LIMIT = 1 << 64
_RANDOM_ROUNDS = 40


def _mr_witness_composite(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses that n is composite (n odd, n - 1 = d * 2**s).
    The full power a**d goes through _powmod; the s - 1 squarings do not."""
    a %= n
    if a == 0:
        return False
    x = _powmod(a, d, n)
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


def pocklington_verdict(k: int, f: int, f_primes) -> bool | None:
    """Prove x = k*f + 1 prime or composite, for 1 <= k < f, from its
    factored part f of x - 1; f_primes must be exactly the primes of f.

    Pocklington's N - 1 theorem (Brillhart, Lehmer & Selfridge 1975): if
    for every prime q | f some base a has a**(x-1) == 1 (mod x) and
    gcd(a**((x-1)/q) - 1, x) = 1, then every prime factor of x is 1 mod f,
    so f**2 > x makes x prime; for f >= 2 that is f > k. A failed Fermat
    check or a proper gcd proves x composite. Returns None when no base in
    a fixed short list settles some q. ValueError unless 1 <= k < f.

    The small-prime screen settles x first. Then each q is settled in turn
    with the bases in order. The first base a costs one full power for all q
    together: with F the product of f_primes, z = a**((x-1)/F) gives
    a**((x-1)/q) = z**(F/q) and a**(x-1) = z**F. The first base is the
    least listed one with Jacobi symbol (a/x) = -1, or the first listed (2)
    when none has it; the others follow in list order. For a prime x that
    a has a**((x-1)/2) = -1, so it settles q = 2 as well, and a prime x
    mostly costs one full power. Base 2 would not: it is a square modulo
    every x = 1 (mod 8), as x = k*m**n + 1 is for even m and n >= 3.
    The full powers, z and a**((x-1)/q) for a later base, go through
    _powmod (GMP when libgmp loads); z**F, z**(F/q) and y**q stay on the
    builtin pow.
    """
    if k < 1 or f <= k:
        raise ValueError("need 1 <= k < f")
    e = k * f
    x = e + 1
    verdict = _screen(x)
    if verdict is not None:
        return verdict
    bases = _POCKLINGTON_BASES
    first = next((a for a in bases if _jacobi(a, x) == -1), bases[0])
    F = math.prod(f_primes)
    z = _powmod(first, e // F, x)
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
            y = _powmod(a, e // q, x)
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


@dataclass(frozen=True)
class FactorBudget:
    """Work caps for factorize: trial-division bound and the modular
    multiplications that the one Pollard p - 1 power and all rho runs may
    spend together. A rho step on x**e + c costs bit_length(e) + popcount(e)
    - 2 of them (one for x**2 + c), and the p - 1 power is counted the same
    way for its exponent; it is skipped when it would cost more than is left
    or the rest is below its cost**4, and when it runs but finds nothing,
    rho has that much less."""

    trial_bound: int = 100_000
    rho_steps: int = 4_000_000

    def __post_init__(self):
        if self.trial_bound < 2 or self.rho_steps < 0:
            raise ValueError("trial_bound >= 2 and rho_steps >= 0 required")


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


def _brent_rho(n: int, max_steps: int, e: int = 2) -> tuple[int | None, int]:
    """Brent's cycle variant of Pollard rho on x -> x**e + c, with batched gcds.

    Deterministic restart schedule; returns (proper factor or None, work
    used). Work counts modular multiplications, bit_length(e) + popcount(e)
    - 2 per step, so e = 2 counts steps. n must be odd, composite, and
    coprime to the trial primes. An even e pays off when every prime of n
    is 1 (mod e) (Brent & Pollard 1981): x**e then takes about (p - 1)/e
    values modulo p, and the expected cycle shrinks by about sqrt(e - 1).
    The budget is checked after every batch of m = 128 steps, both where
    a round advances y and where it multiplies differences for the gcd,
    so a call stops within one batch (128 * cost) past max_steps; only a
    batch whose gcd is n is then walked back step by step, at most one
    batch more.
    """
    cost = e.bit_length() + e.bit_count() - 2
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
                    y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
                used += block * cost
                k += m
            k = 0
            while k < r and g == 1 and used < max_steps:
                ys = y
                block = min(m, r - k)
                for _ in range(block):
                    y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
                    q = q * abs(x - y) % n
                used += block * cost
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = ((ys * ys if e == 2 else pow(ys, e, n)) + c) % n
                g = math.gcd(abs(x - ys), n)
                used += cost
        if 1 < g < n:
            return g, used
        attempt += 1
    return None, used


# Stage-1 bound of Pollard p - 1. Timed on the composite rests that reach
# _factor_rest in construct(m, v) for m = 2..2999, both variants (193
# rests), and in the construct benchmark's seeds 1901-1910 (60), each at its
# fastest of 7 interleaved calls, 2-core host, two runs: sweep / benchmark
# rests took 128-141 / 110-132 ms with no p - 1 stage, 122-138 / 90-107 at
# B1 = 1000, 114-128 / 86-104 at 2000, 107-120 / 90-110 at 3000, 109-123 /
# 108-134 at 5000 and 115-129 / 99-118 at 10000. On the sweep the power
# runs on 6 rests (bases 127, 255, 1023, 2047) and splits 5.
PM1_BOUND = 3000


@functools.cache
def _pm1_smooth() -> int:
    """lcm(1..PM1_BOUND), built on first use (about 4 ms), not at import."""
    return math.lcm(*range(1, PM1_BOUND + 1))


def _pollard_pm1(n: int, max_steps: int, e: int = 2) -> tuple[int | None, int]:
    """Pollard p - 1 stage 1 (Pollard 1974) with base 2: (proper factor or
    None, work used).

    g = gcd(2**E - 1, n) with E = e * lcm(1..PM1_BOUND) holds every prime p
    of n whose order of 2 divides E, in particular every p with p - 1 = e*s
    and s PM1_BOUND-smooth (prime powers included). The power costs
    bit_length(E) + popcount(E) - 2 modular multiplications, the count of one
    x**E step in _brent_rho. Nothing runs, and the result is (None, 0), when
    that cost exceeds max_steps, or when n < cost**4: rho finds the least
    prime p <= sqrt(n) in about sqrt(p) <= n**(1/4) steps, so on such an n
    it is expected to finish before the power would. g = 1 or g = n gives
    None at full cost. The power goes through _powmod (GMP when libgmp
    loads) and is still charged by that count, not by its time, so the
    result does not depend on which ran it.
    """
    E = e * _pm1_smooth()
    cost = E.bit_length() + E.bit_count() - 2
    if cost > max_steps or n < cost**4:
        return None, 0
    g = math.gcd(_powmod(2, E, n) - 1, n)
    return (g if 1 < g < n else None), cost


# For order n, trial candidates are the c = 1 (mod step), step = lcm(2, n),
# with 3 not dividing c: a prime of Phi_n(m) that does not divide n has order
# n modulo it, so it is 1 (mod n), and odd. Order 1 gives 5, 7, 11, 13, ...
# (6k +/- 1). A block is a run of _TRIAL_BLOCK of them.
_TRIAL_BLOCK = 1024


def _progression(step: int) -> tuple[int, tuple[int, ...], int]:
    """(period, offsets, span): from any lo = 1 (mod period) the candidates
    are lo + o + j*period for o in offsets, and a block spans span integers."""
    period = step if step % 3 == 0 else 3 * step
    offsets = tuple(o for o in range(step, period + 1, step) if (1 + o) % 3)
    return period, offsets, _TRIAL_BLOCK // len(offsets) * period


def _candidate_after(t: int, step: int) -> int:
    """The least trial candidate above t in the progression 1 (mod step)."""
    c = max(t, 3) + 1
    c += (1 - c) % step
    return c if c % 3 else c + step


@functools.lru_cache(maxsize=256)
def _block_product(step: int, block: int, clip: int) -> int:
    """Product of the candidates of the given block that are <= clip."""
    period, offsets, span = _progression(step)
    lo = 1 + block * span
    return math.prod(math.prod(range(lo + o, clip + 1, period)) for o in offsets)


def _trial_division(x: int, bound: int, order: int = 1, least: bool = False) -> tuple[list[int], int]:
    """Trial stage of factorize: (primes of x found, with repeats, ascending; rest).

    Every prime of x above 3 that does not divide order must be 1 (mod
    order), as for x = Phi_order(m); order 1 fits every x. Strips 2, 3 and
    the primes of order, then the candidates 1 (mod lcm(2, order)) in turn
    until the next candidate d exceeds bound or d*d exceeds what is
    left; a rest with d*d > rest is prime and joins the primes. Each block
    of candidates costs one gcd with their product, and a further pass over
    the block only when that gcd is not 1. The returned rest is 1 or has
    only prime factors above bound.

    With least, it returns once a prime found is coprime to order: after
    the strip (2 or 3) or after the first block with a hit (all 1 mod
    order). The least such prime of x is then found, as later candidates
    are larger, but the rest may still hold primes up to bound.
    """
    found = []
    n = x
    # a composite divisor of order divides nothing left once its primes are gone
    for p in (2, 3, *(d for d in range(5, order + 1) if order % d == 0)):
        while n % p == 0:
            n //= p
            found.append(p)
    step = math.lcm(2, order)
    _, offsets, span = _progression(step)
    block = 0
    # a prime p found is coprime to order exactly when order % p != 0
    while not (least and any(order % p for p in found)):
        # where the candidate-by-candidate loop stops, now that no candidate
        # below this block divides n
        limit = min(bound, math.isqrt(n))
        lo = 1 + block * span
        if lo + offsets[0] > limit:
            break
        g = math.gcd(n, _block_product(step, block, min(bound, lo + span)))
        c = lo + step
        while c * c <= g:
            if c % 3 and g % c == 0:
                while n % c == 0:
                    n //= c
                    found.append(c)
                g = math.gcd(g, n)
            c += step
        # a g > 1 left has no prime factor up to its square root: it is prime
        if g > 1:
            while n % g == 0:
                n //= g
                found.append(g)
        block += 1
    else:  # stopped early for least: the candidates above this block are untested
        found.sort()
        return found, n
    # every candidate below d was tested, so d*d > n proves n prime
    d = _candidate_after(limit, step)
    if n > 1 and d * d > n:
        found.append(n)
        n = 1
    found.sort()
    return found, n


def factorize(x: int, budget: FactorBudget | None = None, order: int = 1) -> Factorization:
    """Factor x >= 1 within the given budget, where every prime of x above 3
    that does not divide order is 1 (mod order), as for x = Phi_order(m);
    the default order 1 fits every x.

    Trial division (see _trial_division) up to budget.trial_bound, then one
    Pollard p - 1 power on what is left, then Brent rho, splitting
    recursively until every piece passes prime_verdict or the shared budget
    of modular multiplications (budget.rho_steps, which pays for the p - 1
    power too; it is skipped when its cost exceeds the budget or the rest is
    below its cost**4) runs out. Anything unfactored lands in the cofactor,
    so reassemble() always returns x.
    """
    if x < 1:
        raise ValueError("x must be a positive integer")
    if budget is None:
        budget = FactorBudget()
    found, rest = _trial_division(x, budget.trial_bound, order)
    return _factor_rest(x, found, rest, budget, order)


def _factor_rest(x: int, found, rest: int, budget: FactorBudget, order: int = 1) -> Factorization:
    """Splitting stage of factorize, from the result of
    _trial_division(x, ..., order): every prime left is 1 (mod e), e =
    lcm(2, order). A composite rest first gets one Pollard p - 1 power with
    e in its exponent, charged to budget.rho_steps; it is skipped when it
    costs more than that or when the rest is below its cost**4 (see
    _pollard_pm1). A proper split goes to rho piece by piece; anything else
    leaves the whole rest to rho, which iterates x**e + c on what the shared
    budget has left. A power that finds nothing has still spent its cost, so
    rho then gets that many fewer steps than without the stage: a
    factorization that completes gives the same primes either way, but one
    that ends near the budget's edge may stop earlier."""
    e = math.lcm(2, order)
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
            if c == rest:
                # one p - 1 power on the rest; its gcd holds every prime it
                # can find, so the pieces go straight to rho
                f, used = _pollard_pm1(c, steps_left, e)
                steps_left -= used
                if f is not None:
                    pending.append(f)
                    pending.append(c // f)
                    continue
            if steps_left <= 0:
                cofactor *= c
                continue
            f, used = _brent_rho(c, steps_left, e)
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
