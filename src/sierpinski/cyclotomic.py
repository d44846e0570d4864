"""Exact integer polynomials and cyclotomic polynomial construction.

Coefficients are plain Python ints, stored densely with the constant term
first, so nothing here overflows or rounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .arith import BudgetExceeded, mobius_pairs, totient

# Largest n that cyclotomic_poly builds: phi(n) < 2**16 coefficients.
MAX_CYCLOTOMIC_ORDER = 1 << 16
# Largest phi(n) * bit_length(|x|), about the bit size of Phi_n(x), that eval_cyclotomic takes.
MAX_EVAL_BITS = 1 << 20


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] multiplies x**i.

    Normalized so the leading coefficient is nonzero; the zero polynomial
    is the empty tuple and has degree -1.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return IntPolynomial(out)

    def compose_power(self, e: int) -> "IntPolynomial":
        """Substitute x -> x**e."""
        if e < 1:
            raise ValueError("exponent must be a positive integer")
        if self.is_zero or e == 1:
            return self
        out = [0] * (self.degree * e + 1)
        for i, c in enumerate(self.coeffs):
            out[i * e] = c
        return IntPolynomial(out)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def x_power_minus_one(n: int) -> IntPolynomial:
    """x**n - 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return IntPolynomial([-1] + [0] * (n - 1) + [1])


@functools.lru_cache(maxsize=128)
def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, for 1 <= n <= MAX_CYCLOTOMIC_ORDER.

    Phi_n(x) is the product over d | n of (1 - x**d)**mu(n/d), negated for
    n = 1 (Arnold & Monagan, Math. Comp. 80, 2011): per factor, one sparse
    multiplication by 1 - x**d or power-series division by it, truncated
    at degree phi(n), which is exact. Keeps the 128 last used; raises
    BudgetExceeded above the cap before any work.
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
    return IntPolynomial(c if n > 1 else [-x for x in c])


def eval_cyclotomic(n: int, x: int) -> int:
    """cyclotomic_poly(n) at the integer x; BudgetExceeded before evaluating above MAX_EVAL_BITS."""
    poly = cyclotomic_poly(n)
    if poly.degree * abs(x).bit_length() > MAX_EVAL_BITS:
        raise BudgetExceeded(f"Phi_{n} at a {abs(x).bit_length()}-bit x exceeds {MAX_EVAL_BITS} bits")
    return poly.evaluate(x)


def product_identity_holds(n: int, x: int) -> bool:
    """Check prod over d | n of Phi_d(x) == x**n - 1 at the integer x."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return math.prod(eval_cyclotomic(d, x) for d in divisors(n)) == x ** n - 1


def substitution_identity_holds(n: int, p: int, k: int) -> bool:
    """Check the composition identity for Phi_n under x -> x**(p**k).

    For p dividing n:    Phi_{p**k * n}(x) == Phi_n(x**(p**k)).
    For p coprime to n:  Phi_n(x**(p**k)) == Phi_n(x**(p**(k-1))) * Phi_{p**k * n}(x).
    Both sides are expanded as exact polynomials and compared.
    """
    if n < 1 or k < 1 or p < 2:
        raise ValueError("need n >= 1, k >= 1, p >= 2")
    q = p ** k
    base = cyclotomic_poly(n)
    if n % p == 0:
        return cyclotomic_poly(q * n) == base.compose_power(q)
    lhs = base.compose_power(q)
    rhs = base.compose_power(p ** (k - 1)) * cyclotomic_poly(q * n)
    return lhs == rhs
