"""Cyclotomic polynomial construction against independent oracles."""

import random
import time

import pytest
import sympy

from sierpinski.arith import mobius_pairs, totient
from sierpinski.covering import BudgetExceeded
from sierpinski.cyclotomic import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_EVAL_BITS,
    IntPolynomial,
    cyclotomic_poly,
    divisors,
    eval_cyclotomic,
    product_identity_holds,
    substitution_identity_holds,
    x_power_minus_one,
)


def sympy_coeffs(n):
    # ascending order, to match IntPolynomial storage
    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial().is_zero
        assert IntPolynomial().degree == -1
        assert IntPolynomial([3]).degree == 0

    def test_compose_power(self):
        p = IntPolynomial([1, 1])  # x + 1
        assert p.compose_power(3).coeffs == (1, 0, 0, 1)
        assert p.compose_power(1) == p
        with pytest.raises(ValueError):
            p.compose_power(0)

    def test_evaluate_matches_direct_sum(self):
        rng = random.Random(11)
        for _ in range(100):
            coeffs = [rng.randrange(-50, 51) for _ in range(rng.randrange(0, 9))]
            p = IntPolynomial(coeffs)
            x = rng.randrange(-20, 21)
            assert p.evaluate(x) == sum(c * x ** i for i, c in enumerate(coeffs))


def test_known_coefficient_vectors():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)
    assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)
    # the classic order-30 vector, constant term first
    assert cyclotomic_poly(30).coeffs == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


@pytest.mark.parametrize("n", list(range(1, 121)) + [1155, 2310, 4620])
def test_coefficients_match_sympy(n):
    assert cyclotomic_poly(n).coeffs == sympy_coeffs(n)


def test_totient_matches_sympy():
    assert [totient(n) for n in range(1, 5000)] == [int(sympy.totient(n)) for n in range(1, 5000)]
    with pytest.raises(ValueError):
        totient(0)


def test_mobius_pairs():
    assert sorted(mobius_pairs(1)) == [(1, 1)]
    assert sorted(mobius_pairs(12)) == [(2, 1), (4, -1), (6, -1), (12, 1)]
    for n in range(1, 300):
        expected = {(d, int(sympy.mobius(n // d))) for d in divisors(n) if sympy.mobius(n // d)}
        assert set(mobius_pairs(n)) == expected


def test_large_order_is_fast():
    # Phi_30030 has 64 Mobius factors over 5761 coefficients
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    assert product_identity_holds(30030, 2)
    assert time.perf_counter() - start < 2.0


def test_order_budget():
    assert cyclotomic_poly(MAX_CYCLOTOMIC_ORDER).coeffs == (1,) + (0,) * (MAX_CYCLOTOMIC_ORDER // 2 - 1) + (1,)
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
    assert -2 in cyclotomic_poly(105).coeffs
    for n in range(1, 105):
        assert all(c in (-1, 0, 1) for c in cyclotomic_poly(n).coeffs)


def test_degree_is_totient_and_monic():
    for n in range(1, 201):
        p = cyclotomic_poly(n)
        assert p.degree == sympy.totient(n)
        assert p.coeffs[-1] == 1
        assert all(isinstance(c, int) for c in p.coeffs)


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
        prod = IntPolynomial([1])
        for d in divisors(n):
            prod = prod * cyclotomic_poly(d)
        assert prod == x_power_minus_one(n)


def test_product_identity_evaluations():
    assert product_identity_holds(6, 2)  # 1*3*7*3 = 63 = 2^6 - 1
    assert product_identity_holds(1, 5)
    assert product_identity_holds(12, 3)
    for n in (1, 2, 5, 8, 18, 36):
        for x in (-3, -1, 0, 2, 7, 127):
            assert product_identity_holds(n, x)


def test_positivity_and_divisibility():
    for n in range(1, 101):
        for m in (2, 3, 10):
            v = eval_cyclotomic(n, m)
            assert v > 0
            assert (m ** n - 1) % v == 0


def test_substitution_identity_examples():
    # x -> x^2 on Phi_8 gives Phi_16 = x^8 + 1
    assert cyclotomic_poly(16) == cyclotomic_poly(8).compose_power(2)
    assert substitution_identity_holds(8, 2, 1)
    # coprime case: Phi_3(x^2) = Phi_3(x) * Phi_6(x), i.e. x^4 + x^2 + 1
    lhs = cyclotomic_poly(3).compose_power(2)
    assert lhs.coeffs == (1, 0, 1, 0, 1)
    assert lhs == cyclotomic_poly(3) * cyclotomic_poly(6)
    assert substitution_identity_holds(3, 2, 1)
    assert substitution_identity_holds(5, 3, 2)


def test_substitution_identity_sweep():
    for p in (2, 3):
        for k in (1, 2):
            for n in range(1, 21):
                assert substitution_identity_holds(n, p, k)


def test_substitution_identity_rejects_bad_args():
    with pytest.raises(ValueError):
        substitution_identity_holds(0, 2, 1)
    with pytest.raises(ValueError):
        substitution_identity_holds(3, 2, 0)
