"""Cyclotomic polynomials Phi_n as exact integer coefficients, and their values Phi_n(x).

Coefficients are plain Python ints in a tuple, constant term first, so
nothing here overflows or rounds.
"""

from __future__ import annotations

import functools

from .arith import BudgetExceeded, mobius_pairs, totient

# Largest n that cyclotomic_poly builds: phi(n) < 2**16 coefficients.
MAX_CYCLOTOMIC_ORDER = 1 << 16
# Largest phi(n) * bit_length(|x|), about the bit size of Phi_n(x), that eval_cyclotomic takes.
MAX_EVAL_BITS = 1 << 20


@functools.lru_cache(maxsize=128)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The coefficients of the n-th cyclotomic polynomial, constant term
    first, for 1 <= n <= MAX_CYCLOTOMIC_ORDER; its degree is phi(n).

    Phi_n(x) is the product over d | n of (1 - x**d)**mu(n/d), negated for
    n = 1 (Arnold & Monagan, Math. Comp. 80, 2011): per factor, one sparse
    multiplication by 1 - x**d or power-series division by it, truncated
    at degree phi(n), which is exact. Keeps the 128 last used, shared by
    every caller (hence a tuple); raises BudgetExceeded above the cap
    before any work.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_CYCLOTOMIC_ORDER:
        raise BudgetExceeded(f"order {n} exceeds the cyclotomic budget of {MAX_CYCLOTOMIC_ORDER}")
    phi = totient(n)
    c = [1] + [0] * phi
    for d, mu in mobius_pairs(n):
        if mu > 0:
            for i in range(phi, d - 1, -1):
                c[i] -= c[i - d]
        else:
            for i in range(d, phi + 1):
                c[i] += c[i - d]
    return tuple(c if n > 1 else [-x for x in c])


def eval_cyclotomic(n: int, x: int) -> int:
    """Phi_n(x) at the integer x, by Horner; BudgetExceeded before evaluating above MAX_EVAL_BITS."""
    coeffs = cyclotomic_poly(n)
    if (len(coeffs) - 1) * abs(x).bit_length() > MAX_EVAL_BITS:
        raise BudgetExceeded(f"Phi_{n} at a {abs(x).bit_length()}-bit x exceeds {MAX_EVAL_BITS} bits")
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
