"""Cyclotomic polynomial construction against independent oracles."""

import math
import time

import pytest
import sympy

from sierpinski.arith import mobius_pairs, totient
from sierpinski.covering import BudgetExceeded
from sierpinski.cyclotomic import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_EVAL_BITS,
    cyclotomic_poly,
    eval_cyclotomic,
)

X = sympy.Symbol("x")


def sympy_coeffs(n):
    # constant term first, as cyclotomic_poly returns them
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()))


def poly(coeffs):
    """A coefficient tuple, constant term first, as a sympy polynomial in x."""
    return sympy.Poly.from_list(coeffs[::-1], X)


def spread(coeffs, e):
    """The coefficients of P(x**e) from those of P(x)."""
    out = [0] * ((len(coeffs) - 1) * e + 1)
    out[::e] = coeffs
    return tuple(out)


def test_known_coefficient_vectors():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # the classic order-30 vector, constant term first
    assert cyclotomic_poly(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


@pytest.mark.parametrize("n", list(range(1, 121)) + [1155, 2310, 4620])
def test_coefficients_match_sympy(n):
    assert cyclotomic_poly(n) == sympy_coeffs(n)


def test_totient_matches_sympy():
    assert [totient(n) for n in range(1, 5000)] == [int(sympy.totient(n)) for n in range(1, 5000)]
    with pytest.raises(ValueError):
        totient(0)


def test_mobius_pairs():
    assert sorted(mobius_pairs(1)) == [(1, 1)]
    assert sorted(mobius_pairs(12)) == [(2, 1), (4, -1), (6, -1), (12, 1)]
    for n in range(1, 300):
        expected = {(d, int(sympy.mobius(n // d))) for d in sympy.divisors(n) if sympy.mobius(n // d)}
        assert set(mobius_pairs(n)) == expected


def test_large_order_is_fast():
    # Phi_30030 has 64 Mobius factors over 5761 coefficients
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    assert math.prod(eval_cyclotomic(d, 2) for d in sympy.divisors(30030)) == 2**30030 - 1
    assert time.perf_counter() - start < 2.0


def test_order_budget():
    assert cyclotomic_poly(MAX_CYCLOTOMIC_ORDER) == (1,) + (0,) * (MAX_CYCLOTOMIC_ORDER // 2 - 1) + (1,)
    with pytest.raises(BudgetExceeded):
        cyclotomic_poly(MAX_CYCLOTOMIC_ORDER + 1)
    with pytest.raises(BudgetExceeded):
        eval_cyclotomic(10**9, 2)
    # Phi_65521(1000), phi(65521) * 10 bits, is inside the size budget; a 17-bit x is not
    assert 65520 * (1000).bit_length() <= MAX_EVAL_BITS < 65520 * (1 << 16).bit_length()
    with pytest.raises(BudgetExceeded):
        eval_cyclotomic(65521, 1 << 16)


def test_first_nonquadratic_coefficient():
    # 105 = 3*5*7 is the least n where a coefficient of magnitude 2 shows up
    assert -2 in cyclotomic_poly(105)
    for n in range(1, 105):
        assert all(c in (-1, 0, 1) for c in cyclotomic_poly(n))


def test_degree_is_totient_and_monic():
    for n in range(1, 201):
        p = cyclotomic_poly(n)
        # the cache hands every caller the same object, so it must be immutable
        assert isinstance(p, tuple)
        assert len(p) - 1 == sympy.totient(n)
        assert p[-1] == 1
        assert all(isinstance(c, int) for c in p)


def test_cache_is_bounded():
    for n in range(1, 301):
        cyclotomic_poly(n)
    assert cyclotomic_poly.cache_info().currsize <= 128


def test_eval_examples():
    assert eval_cyclotomic(2, 34) == 35
    assert eval_cyclotomic(3, 127) == 16257 == 3 * 5419
    assert eval_cyclotomic(6, 127) == 16003 == 13 * 1231
    assert eval_cyclotomic(1, 10) == 9


def test_product_identity_polynomials():
    for n in range(1, 31):
        prod = poly((1,))
        for d in sympy.divisors(n):
            prod = prod * poly(cyclotomic_poly(d))
        assert prod == poly((-1,) + (0,) * (n - 1) + (1,))


def test_product_identity_evaluations():
    # prod over d | n of Phi_d(x) = x**n - 1 at integers x
    assert [eval_cyclotomic(d, 2) for d in sympy.divisors(6)] == [1, 3, 7, 3]  # 63 = 2^6 - 1
    cases = [(6, 2), (1, 5), (12, 3)] + [(n, x) for n in (1, 2, 5, 8, 18, 36) for x in (-3, -1, 0, 2, 7, 127)]
    for n, x in cases:
        assert math.prod(eval_cyclotomic(d, x) for d in sympy.divisors(n)) == x**n - 1, (n, x)


def test_positivity_and_divisibility():
    for n in range(1, 101):
        for m in (2, 3, 10):
            v = eval_cyclotomic(n, m)
            assert v > 0
            assert (m ** n - 1) % v == 0


def substitution_identity_holds(n, p, k):
    """Phi_{p**k n}(x) = Phi_n(x**(p**k)) for p | n, and for p coprime to n
    Phi_n(x**(p**k)) = Phi_n(x**(p**(k-1))) * Phi_{p**k n}(x)."""
    q = p**k
    if n % p == 0:
        return cyclotomic_poly(q * n) == spread(cyclotomic_poly(n), q)
    lhs = poly(spread(cyclotomic_poly(n), q))
    return lhs == poly(spread(cyclotomic_poly(n), p ** (k - 1))) * poly(cyclotomic_poly(q * n))


def test_substitution_identity_examples():
    # x -> x^2 on Phi_8 gives Phi_16 = x^8 + 1
    assert cyclotomic_poly(16) == spread(cyclotomic_poly(8), 2) == (1,) + (0,) * 7 + (1,)
    assert substitution_identity_holds(8, 2, 1)
    # coprime case: Phi_3(x^2) = Phi_3(x) * Phi_6(x), i.e. x^4 + x^2 + 1
    lhs = spread(cyclotomic_poly(3), 2)
    assert lhs == (1, 0, 1, 0, 1)
    assert poly(lhs) == poly(cyclotomic_poly(3)) * poly(cyclotomic_poly(6))
    assert substitution_identity_holds(3, 2, 1)
    assert substitution_identity_holds(5, 3, 2)


def test_substitution_identity_sweep():
    for p in (2, 3):
        for k in (1, 2):
            for n in range(1, 21):
                assert substitution_identity_holds(n, p, k)
