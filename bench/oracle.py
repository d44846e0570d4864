"""Independent checks for the benchmark's correctness gates.

Nothing here calls the package under test: primality and factoring come
from sympy, and coverage comes from a per-residue scan over one period.
sympy is imported on first use, after the timed passes, so it adds
neither to set-up time nor to the measured peak memory.
"""

from __future__ import annotations

import math

SIGN = {"sierpinski": 1, "riesel": -1}


def _sympy():
    import sympy

    return sympy


def isprime(n: int) -> bool:
    return bool(_sympy().isprime(n))


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(_sympy().factorint(n)))


def first_uncovered(classes) -> int | None:
    """Least x in [0, lcm) outside every class a(n), or None for a cover."""
    classes = list(classes)
    period = math.lcm(*(n for _, n in classes))
    hit = bytearray(period)
    for a, n in classes:
        hit[a % n :: n] = b"\x01" * len(range(a % n, period, n))
    x = hit.find(0)
    return None if x < 0 else x


def certificate_error(base, k, entries, variant, triviality_primes) -> str | None:
    """Why (k, entries) fails to prove k*base**n + sign composite for all n >= 1.

    entries are (a, n, p) triples. Checks: p prime, the classes a(n)
    cover Z, p | base**n - 1, p | k*base**a + sign, distinct primes,
    k*base + sign > max p (terms grow with n, so every term exceeds its
    divisor), and k nontrivial modulo every prime q | base - 1, whose set
    must equal triviality_primes.
    """
    sign = SIGN[variant]
    if k < 1:
        return f"k = {k} is not positive"
    if not entries:
        return "no entries"
    for a, n, p in entries:
        if not (n >= 1 and 0 <= a < n):
            return f"({a}, {n}) is not a residue class"
        if not isprime(p):
            return f"{p} is not prime"
        if pow(base, n, p) != 1:
            return f"{p} does not divide {base}^{n} - 1"
        if (k * pow(base, a, p) + sign) % p:
            return f"{p} does not divide k*{base}^{a} {sign:+d}"
    witness = first_uncovered((a, n) for a, n, _ in entries)
    if witness is not None:
        return f"classes miss exponent {witness}"
    primes = [p for _, _, p in entries]
    if len(set(primes)) != len(primes):
        return "primes are not distinct"
    if k * base + sign <= max(primes):
        return "size condition fails"
    qs = prime_factors(base - 1) if base > 2 else ()
    if tuple(sorted(triviality_primes)) != qs:
        return f"triviality primes {list(triviality_primes)} are not the primes of {base - 1}"
    for q in qs:
        # q | m - 1 gives k*m**n + sign == k + sign (mod q) for every n
        if (k + sign) % q == 0:
            return f"k is trivial modulo {q}"
    return None


def elimination_error(m, records, bound, n_max, triviality_primes, sample) -> str | None:
    """Check eliminate_small_k records (k, status, q, n, value) for k = 1..bound.

    Every prime_found value is recomputed and tested with sympy; trivial
    records must sit on -1 modulo a prime of m - 1. `sample` picks the
    records whose claim of a least n (or of no n at all, for survivors)
    is checked term by term, since checking all of them costs more than
    the operation.
    """
    if [r[0] for r in records] != list(range(1, bound + 1)):
        return f"records do not cover k = 1..{bound} once each"
    qs = set(triviality_primes)
    for k, status, q, n, value in records:
        if status == "trivial":
            if q not in qs or (m - 1) % q or k % q != q - 1:
                return f"k = {k} is not trivial modulo {q}"
        elif status == "prime_found":
            if not (1 <= n <= n_max) or value != k * m**n + 1:
                return f"k = {k}: value is not k*{m}^{n} + 1 with n <= {n_max}"
            if not isprime(value):
                return f"k = {k}: {value} is not prime"
        elif status == "survivor":
            if any(k % q == q - 1 for q in qs):
                return f"survivor k = {k} is trivial"
        else:
            return f"k = {k}: unknown status {status!r}"
    for k, status, q, n, value in sample(records):
        if status == "trivial":
            continue
        last = n - 1 if status == "prime_found" else n_max
        if any(isprime(k * m**j + 1) for j in range(1, last + 1)):
            return f"k = {k}: a prime term below the reported n"
    return None
