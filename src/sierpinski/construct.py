"""Compositeness certificates for k*m**n + 1 (and k*m**n - 1) families.

A certificate pins a covering system {a_i(n_i)} and divisors d_i > 1 with
d_i | m**n_i - 1 and d_i | k*m**a_i +/- 1; with k*m +/- 1 > max d_i, d_i is
a proper divisor of every term k*m**n +/- 1 with n = a_i (mod n_i), so k is
a Sierpinski (or Riesel) number base m. Neither primality nor distinctness
of the d_i is needed; construct still picks distinct primes for its CRT.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field

from .arith import (
    Congruence,
    FactorBudget,
    FactorBudgetExceeded,
    _factor_rest,
    _trial_division,
    crt_solve,
    factorize,
    mod_inverse,
    multiplicative_order,
)
from .covering import CoveringSystem, verify_cover
from .cyclotomic import eval_cyclotomic

SIERPINSKI = "sierpinski"
RIESEL = "riesel"
VARIANT_SIGN = {SIERPINSKI: 1, RIESEL: -1}

NONTRIVIAL = "nontrivial"
MULTIPLE_OF_M_MINUS_1 = "multiple_of_m_minus_1"
CONSTRAINTS = (NONTRIVIAL, MULTIPLE_OF_M_MINUS_1)

# 5-class system for generic bases; the n=2 class needs an odd prime from
# Phi_2(m) = m+1, which does not exist when m+1 is a power of two, so
# those bases use the 13-class system avoiding moduli 1 and 2.
GENERIC_COVER = CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12)")
MERSENNE_COVER = CoveringSystem.parse(
    "2(4),4(8),8(16),8(24),0(48),1(3),5(6),3(12),1(5),7(10),3(15),9(20),15(30)"
)


class NoQualifyingPrime(RuntimeError):
    """No prime factor of Phi_n(m) is coprime to n (within budget)."""


def is_mersenne_like(m: int) -> tuple[bool, int | None]:
    """Whether m + 1 is a power of two; returns (flag, l) with m = 2**l - 1."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if (m + 1) & m == 0:
        return True, (m + 1).bit_length() - 1
    return False, None


def select_cover_prime(m: int, n: int, budget: FactorBudget | None = None) -> int:
    """Smallest prime p | Phi_n(m) with gcd(p, n) = 1.

    Such a p has multiplicative order exactly n mod m, hence for n >= 2
    also gcd(p, m - 1) = 1 (checked; ArithmeticError otherwise). Trial
    division runs first: a qualifying prime it finds below the
    trial-division bound is the minimum, because every prime rho could
    still find is larger, so rho never runs. Otherwise rho goes on as in
    factorize, and an incomplete factorization raises
    FactorBudgetExceeded.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    if budget is None:
        budget = FactorBudget.default()
    value = eval_cyclotomic(n, m)
    found, rest = _trial_division(value, budget.trial_bound)
    p = next((q for q in found if math.gcd(q, n) == 1), None)
    if p is None or p >= budget.trial_bound:
        fac = _factor_rest(value, found, rest, budget)
        if not fac.is_complete:
            raise FactorBudgetExceeded(
                f"Phi_{n}({m}) = {value} not fully factored within budget"
            )
        p = next((q for q in fac.primes() if math.gcd(q, n) == 1), None)
        if p is None:
            raise NoQualifyingPrime(f"no prime factor of Phi_{n}({m}) = {value} is coprime to {n}")
    if n >= 2 and math.gcd(p, m - 1) != 1:
        raise ArithmeticError(f"order-{n} prime {p} divides m - 1 = {m - 1}")
    return p


def build_congruences(m: int, cover: CoveringSystem, primes, variant: str) -> list[Congruence]:
    """One congruence per class: p | k*m**a + sign forces k mod p.

    k ≡ -sign * m**(-a) (mod p), least nonnegative residue.
    """
    sign = VARIANT_SIGN[variant]
    primes = list(primes)
    if len(primes) != len(cover.classes):
        raise ValueError("need exactly one prime per covering class")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be pairwise distinct")
    out = []
    for cls, p in zip(cover.classes, primes):
        inv = mod_inverse(pow(m, cls.residue, p), p)
        out.append(Congruence(-sign * inv % p, p))
    return out


@dataclass(frozen=True)
class SierpinskiCertificate:
    """Machine-checkable witness that k*m**n + sign is composite for all n >= 1."""

    base: int
    k: int
    entries: tuple[tuple[int, int, int], ...]  # (a_i, n_i, d_i)
    variant: str = SIERPINSKI
    triviality_primes: tuple[int, ...] = field(default=(), compare=False)  # display only
    multiplier_constraint: str = NONTRIVIAL

    @property
    def cover(self) -> CoveringSystem:
        return CoveringSystem((a, n) for a, n, _ in self.entries)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, _, p in self.entries)

    @property
    def sign(self) -> int:
        return VARIANT_SIGN[self.variant]

    def term(self, n: int) -> int:
        return self.k * self.base ** n + self.sign

    def dividing_prime(self, n: int) -> int | None:
        """A certificate divisor d_i dividing term(n), if any."""
        for a, mod, p in self.entries:
            if (n - a) % mod == 0 and (self.k * pow(self.base, n, p) + self.sign) % p == 0:
                return p
        return None

    def to_json_dict(self) -> dict:
        return {
            "base": _decimal_str(self.base),
            "k": _decimal_str(self.k),
            "variant": self.variant,
            "entries": [
                {"a": a, "n": n, "p": _decimal_str(p)} for a, n, p in self.entries
            ],
            "constraint": self.multiplier_constraint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SierpinskiCertificate":
        """Rebuild from the JSON schema of to_json_dict. Each integer field
        takes an int or a decimal string, variant and constraint take
        strings, and entries a list of objects; anything else raises a
        ValueError that names the malformed field. The schema does not carry
        the display-only triviality primes, which stay empty."""
        return cls(
            base=_json_field(doc, "base", int),
            k=_json_field(doc, "k", int),
            entries=tuple(tuple(_json_field(e, key, int) for key in "anp") for e in _json_field(doc, "entries", list)),
            variant=_json_field(doc, "variant", str),
            multiplier_constraint=_json_field(doc, "constraint", str),
        )


def _decimal_str(x: int) -> str:
    """str(x), exact at any length: Decimal converts without Python's int/str digit cap."""
    return str(decimal.Decimal(x))


_JSON_KINDS = {int: "an integer or a decimal string", str: "a string", list: "a list"}


def _json_field(doc, key: str, kind: type):
    """doc[key] as an int (from an int or a decimal string), a str or a list;
    ValueError when doc is not an object or the field is missing or of another kind."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed certificate: expected an object, got a {type(doc).__name__}")
    value = doc.get(key)
    if kind is int and isinstance(value, str) and value.removeprefix("-").isdecimal():
        return int(decimal.Decimal(value))  # exact, and free of the int/str digit cap
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"malformed certificate: {key} must be {_JSON_KINDS[kind]}, got {value!r}")


def least_admissible(sol: Congruence, m: int, max_p: int, sign: int = 1) -> int:
    """Least k >= 1 in the class sol with k*m + sign > max_p (sol.residue itself if it qualifies)."""
    lo = max(1, (max_p - sign) // m + 1)
    k = sol.residue
    return k if k >= lo else k - (k - lo) // sol.modulus * sol.modulus


def triviality_primes_for(m: int, budget: FactorBudget | None = None) -> tuple[int, ...]:
    """The primes q | m - 1; FactorBudgetExceeded when m - 1 does not
    factor fully within budget."""
    fac = factorize(m - 1, budget)
    if not fac.is_complete:
        raise FactorBudgetExceeded(f"m - 1 = {m - 1} not fully factored within budget")
    return fac.primes()


def trivial_prime(k: int, qs, sign: int = 1) -> int | None:
    """The first q in qs dividing k + sign, or None.

    As m = 1 mod q, q | k*m**n + sign for every n exactly when q | k + sign:
    k is trivial exactly when some prime q | m - 1 divides k + sign.
    """
    return next((q for q in qs if (k + sign) % q == 0), None)


def next_nontrivial(k: int, step: int, q_product: int, sign: int = 1) -> int:
    """Least nontrivial k + j*step, j >= 0, given m - 1 or any product of
    exactly its primes; it ends when step is coprime to m - 1."""
    while math.gcd(k + sign, q_product) != 1:
        k += step
    return k


def _nth_admissible(sol: Congruence, m: int, max_p: int, variant: str, constraint: str, qs, index: int) -> int:
    # sol.modulus is coprime to m - 1, so each run of `period` consecutive
    # representatives meets every residue mod period once: prod(q - 1) of
    # them are nontrivial, and exactly one is a multiple of m - 1.
    sign, step = VARIANT_SIGN[variant], sol.modulus
    if constraint == NONTRIVIAL:
        period, per_period = math.prod(qs), math.prod(q - 1 for q in qs)
    else:
        period, per_period = m - 1, 1
    skip, index = divmod(index, per_period)
    k = least_admissible(sol, m, max_p, sign) + skip * period * step
    if constraint != NONTRIVIAL:
        return k + (-k * pow(step, -1, period)) % period * step
    k = next_nontrivial(k, step, period, sign)
    for _ in range(index):
        k = next_nontrivial(k + step, step, period, sign)
    return k


def construct(
    m: int,
    variant: str = SIERPINSKI,
    multiplier_constraint: str = NONTRIVIAL,
    index: int = 0,
    budget: FactorBudget | None = None,
) -> SierpinskiCertificate:
    """Certificate for the index-th smallest admissible k in base m >= 3.

    Picks the covering system by the m = 2**l - 1 test, selects the
    smallest qualifying prime from each Phi_{n_i}(m), solves the CRT
    system, then walks representatives until the side conditions hold
    (k >= 1, k*m + sign > max p_i, and the multiplier constraint).
    """
    if m < 3:
        raise ValueError("construct needs m >= 3 (base 2 has its own stored certificate)")
    if variant not in VARIANT_SIGN:
        raise ValueError(f"unknown variant {variant!r}")
    if multiplier_constraint not in CONSTRAINTS:
        raise ValueError(f"unknown multiplier constraint {multiplier_constraint!r}")
    if index < 0:
        raise ValueError("index must be nonnegative")
    mers, _ = is_mersenne_like(m)
    cover = MERSENNE_COVER if mers else GENERIC_COVER
    # distinct: each prime has order exactly its modulus, and a cover's moduli are distinct
    primes = [select_cover_prime(m, cls.modulus, budget) for cls in cover.classes]
    qs = triviality_primes_for(m, budget)
    sol = crt_solve(build_congruences(m, cover, primes, variant))
    k = _nth_admissible(sol, m, max(primes), variant, multiplier_constraint, qs, index)
    return SierpinskiCertificate(
        base=m,
        k=k,
        entries=tuple((cls.residue, cls.modulus, p) for cls, p in zip(cover.classes, primes)),
        variant=variant,
        triviality_primes=qs,
        multiplier_constraint=multiplier_constraint,
    )


_BASE2_K = 78557
_BASE2_PRIMES = (3, 5, 7, 13, 19, 37, 73)


def base2_certificate(index: int = 0) -> SierpinskiCertificate:
    """The classical base-2 certificate family starting at k = 78557.

    Exponents (a_i, n_i) are derived from the stored prime set: n_i is
    the order of 2 mod p_i and a_i the residue with p_i | 78557*2**a_i + 1.
    Adding multiples of prod(p_i) preserves every congruence, so index
    walks an infinite family (m - 1 = 1 leaves no triviality screen).
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    entries = []
    for p in _BASE2_PRIMES:
        n = multiplicative_order(2, p)
        a = next(a for a in range(n) if (_BASE2_K * pow(2, a, p) + 1) % p == 0)
        entries.append((a, n, p))
    k = _BASE2_K + index * math.prod(_BASE2_PRIMES)
    return SierpinskiCertificate(
        base=2,
        k=k,
        entries=tuple(entries),
        variant=SIERPINSKI,
        triviality_primes=(),
        multiplier_constraint=NONTRIVIAL,
    )


def verify_certificate(cert: SierpinskiCertificate, spot_check_limit: int = 512) -> tuple[bool, str | None]:
    """Check every certificate invariant; (True, None) or (False, reason).

    Order: structure (residue classes, every d > 1), coverage, d | m**N - 1
    and d | k*m**a + sign for each entry (a, N, d), the size condition
    k*m + sign > max d, the multiplier constraint, then a spot check. So d
    divides every term(n) with n = a (mod N), and as terms grow with n the
    size condition makes it a proper divisor: no primality test, no distinct
    d and no factoring is needed. k is trivial exactly when
    g = gcd(k + sign, m - 1) > 1, as m = 1 (mod g) puts g in every term. The
    spot check walks each entry over n = a (mod N) with k*m**n mod d as a
    running product, rests on no earlier check, and names the least
    n <= spot_check_limit no entry covers (dividing_prime(n) is None).
    """
    if cert.variant not in VARIANT_SIGN:
        return False, f"unknown variant {cert.variant!r}"
    if cert.multiplier_constraint not in CONSTRAINTS:
        return False, f"unknown multiplier constraint {cert.multiplier_constraint!r}"
    if cert.base < 2:
        return False, f"base {cert.base} is below 2"
    if cert.k < 1:
        return False, f"multiplier {cert.k} is not positive"
    if not cert.entries:
        return False, "certificate has no entries"
    for a, n, d in cert.entries:
        if n < 1 or not 0 <= a < n:
            return False, f"entry ({a},{n},{d}) is not a residue class"
        if d < 2:
            return False, f"entry ({a},{n},{d}) has no divisor above 1"
    ok, witness = verify_cover(cert.cover)
    if not ok:
        return False, f"coverage violated (uncovered exponent {witness})"
    m, k, sign = cert.base, cert.k, cert.sign
    for a, n, d in cert.entries:
        if pow(m, n, d) != 1:
            return False, f"{d} does not divide {m}^{n} - 1"
        if (k * pow(m, a, d) + sign) % d != 0:
            return False, f"{d} does not divide k*{m}^{a} {'+' if sign > 0 else '-'} 1"
    if k * m + sign <= max(cert.primes):
        return False, f"size condition fails: k*m{'+' if sign > 0 else '-'}1 = {k * m + sign} <= {max(cert.primes)}"
    if cert.multiplier_constraint == NONTRIVIAL:
        g = math.gcd(k + sign, m - 1)
        if g > 1:
            return False, f"k is trivial modulo {g}"
    elif m < 3 or k % (m - 1) != 0:
        return False, f"k is not a multiple of m - 1 = {m - 1}"
    covered = bytearray(max(spot_check_limit + 1, 1))  # covered[e]: some d | term(e)
    for a, n, d in cert.entries:
        e = a or n
        t, step = k * pow(m, e, d) % d, pow(m, n, d)
        while e <= spot_check_limit:
            if (t + sign) % d == 0:
                covered[e] = 1
            t = t * step % d
            e += n
    missing = covered.find(0, 1)
    if missing > 0:
        return False, f"no certificate prime divides term n = {missing}"
    return True, None
