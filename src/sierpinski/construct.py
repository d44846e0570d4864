"""Compositeness certificates for k*m**n + 1 (and k*m**n - 1) families.

A certificate pins a covering system {a_i(n_i)} and divisors d_i > 1 with
d_i | m**n_i - 1 and d_i | k*m**a_i +/- 1; with k*m +/- 1 > max d_i, d_i is
a proper divisor of every term k*m**n +/- 1 with n = a_i (mod n_i), so k is
a Sierpinski (or Riesel) number base m. Neither primality nor distinctness
of the d_i is needed; construct still picks distinct primes for its CRT.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import operator
from collections import deque
from dataclasses import dataclass, field

from .arith import (
    Congruence,
    FactorBudget,
    FactorBudgetExceeded,
    _factor_rest,
    _trial_division,
    decimal_str,
    factorize,
)
from .covering import CoveringSystem, systems_from_rows, verify_cover
from .cyclotomic import eval_cyclotomic

SIERPINSKI = "sierpinski"
RIESEL = "riesel"
VARIANT_SIGN = {SIERPINSKI: 1, RIESEL: -1}

NONTRIVIAL = "nontrivial"
MULTIPLE_OF_M_MINUS_1 = "multiple_of_m_minus_1"
CONSTRAINTS = (NONTRIVIAL, MULTIPLE_OF_M_MINUS_1)

# 5-class system for generic bases; the n=2 class needs an odd prime from
# Phi_2(m) = m+1, which does not exist when m+1 is a power of two, so
# those bases use the 13-class system avoiding moduli 1 and 2. Base 2 uses
# the classical cover of k = 78557, avoiding 6 as Phi_6(2) = 3 divides 6.
GENERIC_COVER = CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12)")
MERSENNE_COVER = CoveringSystem.parse(
    "2(4),4(8),8(16),8(24),0(48),1(3),5(6),3(12),1(5),7(10),3(15),9(20),15(30)"
)
BASE2_COVER = CoveringSystem.parse("0(2),1(4),1(3),11(12),15(18),27(36),3(9)")


class NoQualifyingPrime(RuntimeError):
    """No prime factor of Phi_n(m) is coprime to n (within budget)."""


def select_cover_prime(m: int, n: int, budget: FactorBudget | None = None) -> int:
    """Smallest prime p | Phi_n(m) with gcd(p, n) = 1.

    m has multiplicative order exactly n modulo such a p, hence for n >= 2
    also gcd(p, m - 1) = 1 (checked; ArithmeticError otherwise), and
    p = 1 (mod n): trial division tests only that progression, and rho
    iterates x**L + c with L = lcm(2, n). Trial division runs first and
    stops at the first qualifying prime, after the strip of 2, 3 and the
    primes of n or after the first block of primes 1 (mod L) with a hit.
    Every prime it returns is proven, so the first qualifying one is the
    minimum: a later block or rho could only find larger ones, and a rest
    joins them as prime only past every candidate below its square root.
    When none qualifies, trial division has walked to the bound and the
    rest is split as in factorize, by one Pollard p - 1 power (skipped when
    its cost exceeds budget.rho_steps, which pays for it, or when the rest
    is below its cost**4) and then rho, and an incomplete factorization
    raises FactorBudgetExceeded.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    if budget is None:
        budget = FactorBudget()
    value = eval_cyclotomic(n, m)
    found, rest = _trial_division(value, budget.trial_bound, n, least=True)
    p = next((q for q in found if n % q), None)  # a prime q is coprime to n unless q | n
    if p is None:
        fac = _factor_rest(value, found, rest, budget, n)
        if not fac.is_complete:
            raise FactorBudgetExceeded(
                f"Phi_{n}({decimal_str(m)}) = {decimal_str(value)} not fully factored within budget"
            )
        p = next((q for q in fac.primes() if n % q), None)
        if p is None:
            raise NoQualifyingPrime(
                f"no prime factor of Phi_{n}({decimal_str(m)}) = {decimal_str(value)} is coprime to {n}"
            )
    if n >= 2 and math.gcd(p, m - 1) != 1:
        raise ArithmeticError(f"order-{n} prime {decimal_str(p)} divides m - 1 = {decimal_str(m - 1)}")
    return p


def build_congruences(m: int, cover: CoveringSystem, primes, variant: str) -> list[Congruence]:
    """One congruence per class: p | k*m**a + sign forces k mod p.

    k ≡ -sign * m**(-a) (mod p) by pow(m, -a, p), a ValueError when p | m
    and a > 0; the per-class reference for class_table's columns.
    """
    sign = VARIANT_SIGN[variant]
    primes = list(primes)
    if len(primes) != len(cover.moduli):
        raise ValueError("need exactly one prime per covering class")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be pairwise distinct")
    out = []
    for a, p in zip(cover.residues, primes):
        out.append(Congruence(-sign * pow(m, -a, p) % p, p))
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

    def dividing_prime(self, n: int) -> int | None:
        """A certificate divisor d_i dividing the term k*m**n + sign, if any."""
        for a, mod, p in self.entries:
            if (n - a) % mod == 0 and (self.k * pow(self.base, n, p) + self.sign) % p == 0:
                return p
        return None

    def to_json_dict(self) -> dict:
        return {
            "base": decimal_str(self.base),
            "k": decimal_str(self.k),
            "variant": self.variant,
            "entries": [
                {"a": a, "n": n, "p": decimal_str(p)} for a, n, p in self.entries
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


def triviality_primes_for(m: int, budget: FactorBudget | None = None) -> tuple[int, ...]:
    """The primes q | m - 1; FactorBudgetExceeded when m - 1 does not
    factor fully within budget."""
    fac = factorize(m - 1, budget)
    if not fac.is_complete:
        raise FactorBudgetExceeded(f"m - 1 = {decimal_str(m - 1)} not fully factored within budget")
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


def nth_admissible(sol: Congruence, m: int, max_p: int, qs, variant: str = SIERPINSKI,
                   constraint: str = NONTRIVIAL, index: int = 0) -> int:
    """The index-th least k >= 1 of the class sol with k*m + sign > max_p
    that meets the constraint; qs are the primes of m - 1. sol.modulus is
    coprime to m - 1, so each run of `period` consecutive representatives
    meets every residue mod period once: prod(q - 1) of them are
    nontrivial, and exactly one is a multiple of m - 1."""
    sign, step = VARIANT_SIGN[variant], sol.modulus
    nontrivial = constraint == NONTRIVIAL
    period, per_period = (math.prod(qs), math.prod(q - 1 for q in qs)) if nontrivial else (m - 1, 1)
    skip, index = divmod(index, per_period)
    lo, k = max(1, (max_p - sign) // m + 1), sol.residue
    if k < lo:  # up to the least k >= 1 of the class with k*m + sign > max_p
        k -= (k - lo) // step * step
    k += skip * period * step
    if not nontrivial:
        return k + (-k * pow(step, -1, period)) % period * step
    k = next_nontrivial(k, step, period, sign)
    for _ in range(index):
        k = next_nontrivial(k + step, step, period, sign)
    return k


def _column(m: int, p: int, modulus: int, sign: int, a: int, n: int) -> list[int]:
    """Entries a..n-1 of class_table's column for the prime p: -sign *
    m**(-b) mod p for b = a, ..., n - 1, by a running product after the
    first, each times the CRT basis element for p in modulus."""
    rest = modulus // p
    basis = rest * pow(rest, -1, p)
    shift = -sign * pow(m, -a, p) % p
    column = [shift * basis]
    if n - a > 1:
        inverse = pow(m, -1, p)
        for _ in range(a + 1, n):
            shift = shift * inverse % p
            column.append(shift * basis)
    return column


def class_table(m: int, moduli, primes, sign: int = 1) -> tuple[int, list[list[int]]]:
    """(modulus, table) of the classes of k with p_i | k*m**a + sign, for
    distinct primes p_i not dividing m and a < moduli[i]; modulus = prod p_i.
    Residue row r has the class sum(table[i][r[i]]) mod modulus: column i
    holds -sign * m**(-a) mod p_i times the CRT basis element for p_i. The
    search grid reads every cell of it; certify builds only the entries of
    its one row, from the same columns."""
    modulus = math.prod(primes)
    return modulus, [_column(m, p, modulus, sign, 0, n) for n, p in zip(moduli, primes)]


def certify(m: int, row, moduli, primes, qs, variant: str = SIERPINSKI,
            constraint: str = NONTRIVIAL, index: int = 0) -> SierpinskiCertificate:
    """Certificate for the index-th admissible k of one cell: the classes
    row[i] (mod moduli[i]), each served by primes[i]; qs are the primes of
    m - 1. The cell is the class_table cell of row, summed from one entry
    per column: the columns of class_table restricted to a = row[i]."""
    sign, modulus = VARIANT_SIGN[variant], math.prod(primes)
    residue = sum([_column(m, p, modulus, sign, a, a + 1)[0] for a, p in zip(row, primes)])
    k = nth_admissible(Congruence(residue % modulus, modulus), m, max(primes), qs, variant, constraint, index)
    return SierpinskiCertificate(m, k, tuple(zip(row, moduli, primes)), variant, qs, constraint)


def construct(
    m: int,
    variant: str = SIERPINSKI,
    multiplier_constraint: str = NONTRIVIAL,
    index: int = 0,
    budget: FactorBudget | None = None,
) -> SierpinskiCertificate:
    """Certificate for the index-th smallest admissible k in base m >= 2.

    Picks the covering system (BASE2_COVER for m = 2, MERSENNE_COVER when
    m = 2**l - 1, GENERIC_COVER otherwise), selects the smallest
    qualifying prime from each Phi_{n_i}(m), and has certify sum the one
    cell from the columns of class_table, the signed table search_min
    reads, and walk it with nth_admissible until k >= 1, k*m + sign >
    max p_i and the multiplier constraint hold. Its factorizations, of
    each Phi_{n_i}(m) and of m - 1, each run under the one budget object,
    built once as FactorBudget() when none is given. For m = 2 the least is
    the classical k = 78557, and as m - 1 = 1 every k qualifies.
    """
    if m < 2:
        raise ValueError("construct needs m >= 2")
    if variant not in VARIANT_SIGN:
        raise ValueError(f"unknown variant {variant!r}")
    if multiplier_constraint not in CONSTRAINTS:
        raise ValueError(f"unknown multiplier constraint {multiplier_constraint!r}")
    if index < 0:
        raise ValueError("index must be nonnegative")
    cover = BASE2_COVER if m == 2 else MERSENNE_COVER if (m + 1) & m == 0 else GENERIC_COVER
    if budget is None:
        budget = FactorBudget()
    # distinct: each prime has order exactly its modulus, and a cover's moduli are distinct
    primes = [select_cover_prime(m, n, budget) for n in cover.moduli]
    qs = triviality_primes_for(m, budget)
    return certify(m, cover.residues, cover.moduli, primes, qs, variant, multiplier_constraint, index)


def verify_certificate(cert: SierpinskiCertificate) -> tuple[bool, str | None]:
    """Check every certificate invariant; (True, None) or (False, reason).

    Order: structure (integer fields, residue classes, every d > 1),
    coverage, d | m**N - 1 and d | k*m**a + sign for each entry (a, N, d),
    the size condition k*m + sign > max d, then the multiplier constraint.
    Each entry's class is checked once, here; the checked residue row goes
    to verify_cover through systems_from_rows, which checks nothing again,
    and verify_cover covers the full period, its witness the least
    uncovered exponent. By m**N = 1 (mod d), d divides every term
    k*m**n + sign with n = a (mod N), so with coverage every term has a
    divisor among the entries; as terms grow with n the size condition makes
    it proper: no primality test, no distinct d and no factoring is needed.
    k is trivial exactly when g = gcd(k + sign, m - 1) > 1, as m = 1 (mod g)
    puts g in every term.
    """
    if cert.variant not in VARIANT_SIGN:
        return False, f"unknown variant {cert.variant!r}"
    if cert.multiplier_constraint not in CONSTRAINTS:
        return False, f"unknown multiplier constraint {cert.multiplier_constraint!r}"
    try:  # one C-level pass; on a fault the walk below names the first field that is not integral
        deque(map(operator.index, itertools.chain((cert.base, cert.k), *cert.entries)), 0)
    except TypeError:
        fields = [("base", cert.base), ("multiplier", cert.k)]
        fields += [(f"entry {name} =", v) for entry in cert.entries for name, v in zip(("a", "n", "d"), entry)]
        for name, value in fields:
            try:
                operator.index(value)
            except TypeError:
                return False, f"{name} {value!r} is not an integer"
    if cert.base < 2:
        return False, f"base {decimal_str(cert.base)} is below 2"
    if cert.k < 1:
        return False, f"multiplier {decimal_str(cert.k)} is not positive"
    if not cert.entries:
        return False, "certificate has no entries"
    for a, n, d in cert.entries:
        if n < 1 or not 0 <= a < n:
            return False, f"entry ({','.join(map(decimal_str, (a, n, d)))}) is not a residue class"
        if d < 2:
            return False, f"entry ({','.join(map(decimal_str, (a, n, d)))}) has no divisor above 1"
    residues, moduli, divisors = zip(*cert.entries)
    # the classes are checked above: wrap them as the package's own row
    ok, witness = verify_cover(systems_from_rows([tuple(map(operator.index, residues))], moduli)[0])
    if not ok:
        return False, f"coverage violated (uncovered exponent {decimal_str(witness)})"
    m, k, sign = cert.base, cert.k, VARIANT_SIGN[cert.variant]
    pm = "+" if sign > 0 else "-"
    for a, n, d in cert.entries:
        if pow(m, n, d) != 1:
            return False, f"{decimal_str(d)} does not divide {decimal_str(m)}^{decimal_str(n)} - 1"
        if (k * pow(m, a, d) + sign) % d != 0:
            return False, f"{decimal_str(d)} does not divide k*{decimal_str(m)}^{decimal_str(a)} {pm} 1"
    if k * m + sign <= (max_d := max(divisors)):
        return False, f"size condition fails: k*m{pm}1 = {decimal_str(k * m + sign)} <= {decimal_str(max_d)}"
    if cert.multiplier_constraint == NONTRIVIAL:
        g = math.gcd(k + sign, m - 1)
        if g > 1:
            return False, f"k is trivial modulo {decimal_str(g)}"
    elif k % (m - 1) != 0:
        return False, f"k is not a multiple of m - 1 = {decimal_str(m - 1)}"
    return True, None
