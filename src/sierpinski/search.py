"""Minimum Sierpinski-number search for a base m.

Pipeline: factor m**n - 1 layer by layer (via Phi_n(m)) into a pool of
usable primes keyed by multiplicative order, enumerate every covering
system on a moduli multiset, CRT each injective prime assignment into a
candidate k, drop trivial candidates, then try to eliminate every smaller
k by exhibiting a prime k*m**n + 1.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .arith import (
    _DETERMINISTIC_LIMIT,
    PROVEN,
    Congruence,
    FactorBudget,
    crt_solve,
    factorize,
    mod_inverse,
    pocklington_verdict,
    prime_verdict,
)
from .covering import DEFAULT_MAX_ASSIGNMENTS, CoveringSystem, enumerate_covers
from .construct import (
    NONTRIVIAL,
    SIERPINSKI,
    FactorBudgetExceeded,
    SierpinskiCertificate,
    build_congruences,
    least_admissible,
    verify_certificate,
)
from .cyclotomic import eval_cyclotomic

TRIVIAL = "trivial"
PRIME_FOUND = "prime_found"
SURVIVOR = "survivor"


class InsufficientPrimes(RuntimeError):
    """The prime pool cannot fill every class of some modulus injectively."""

    def __init__(self, modulus: int):
        super().__init__(f"prime pool has too few primes of order {modulus}")
        self.modulus = modulus


class Trivial(NamedTuple):
    """Marker: every CRT representative is a trivial solution mod q."""

    q: int


@dataclass(frozen=True)
class SearchConfig:
    base: int
    moduli: tuple[int, ...] | None = None
    a_max: int = 8
    n_max_elimination: int = 30
    k_scan_bound: int = 1000
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
    seed: int = 0
    budget: FactorBudget | None = None

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.moduli is not None:
            object.__setattr__(self, "moduli", tuple(int(n) for n in self.moduli))
            if not self.moduli or any(n < 1 for n in self.moduli):
                raise ValueError("moduli must be positive integers")
        for name in ("a_max", "n_max_elimination", "max_assignments"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.k_scan_bound < 0:
            raise ValueError("k_scan_bound must be nonnegative")


@dataclass(frozen=True)
class PrimePool:
    """Primes usable as cover primes, keyed by multiplicative order."""

    primes_by_order: dict[int, tuple[int, ...]]
    incomplete: frozenset[int] = frozenset()

    def primes(self, n: int) -> tuple[int, ...]:
        return self.primes_by_order.get(n, ())

    def orders(self) -> list[int]:
        return sorted(self.primes_by_order)


@dataclass(frozen=True)
class EliminationRecord:
    """Outcome for one small k: trivial, a prime term found, or survivor."""

    k: int
    status: str
    q: int | None = None
    n: int | None = None
    value: int | None = None
    certainty: str | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"k": str(self.k), "status": self.status}
        if self.status == TRIVIAL:
            doc["q"] = str(self.q)
        elif self.status == PRIME_FOUND:
            doc["n"] = self.n
            doc["value"] = str(self.value)
            doc["certainty"] = self.certainty
        return doc


@dataclass(frozen=True)
class CandidateSolution:
    """One (cover, prime assignment) cell of the search grid."""

    cover: CoveringSystem
    primes: tuple[int, ...]
    crt: Congruence
    k: int  # least admissible representative
    trivial_q: int | None  # q with k = -1 mod q, if any

    @property
    def nontrivial(self) -> bool:
        return self.trivial_q is None

    def to_json_dict(self) -> dict:
        return {
            "cover": self.cover.to_json(),
            "primes": [str(p) for p in self.primes],
            "class": {"residue": str(self.crt.residue), "modulus": str(self.crt.modulus)},
            "k": str(self.k),
            "trivial_q": None if self.trivial_q is None else str(self.trivial_q),
        }


@dataclass(frozen=True)
class SearchReport:
    config: SearchConfig
    moduli: tuple[int, ...]
    triviality_primes: tuple[int, ...]
    candidates: tuple[CandidateSolution, ...]
    eliminations: tuple[EliminationRecord, ...]
    elimination_bound: int
    minimum_nontrivial_k: int | None
    certificate: SierpinskiCertificate | None
    survivors_below_minimum: tuple[int, ...]

    @property
    def eliminations_all_proven(self) -> bool:
        return all(r.certainty == "proven" for r in self.eliminations if r.status == PRIME_FOUND)

    @property
    def minimality_established(self) -> bool:
        """True when every k below the minimum was scanned and eliminated."""
        return (
            self.minimum_nontrivial_k is not None
            and self.elimination_bound >= self.minimum_nontrivial_k - 1
            and not self.survivors_below_minimum
        )

    def to_json_dict(self) -> dict:
        return {
            "base": str(self.config.base),
            "seed": self.config.seed,
            "moduli": list(self.moduli),
            "a_max": self.config.a_max,
            "n_max_elimination": self.config.n_max_elimination,
            "k_scan_bound": str(self.config.k_scan_bound),
            "triviality_primes": [str(q) for q in self.triviality_primes],
            "candidates": [c.to_json_dict() for c in self.candidates],
            "eliminations": [r.to_json_dict() for r in self.eliminations],
            "elimination_bound": str(self.elimination_bound),
            "minimum_nontrivial_k": (
                None if self.minimum_nontrivial_k is None else str(self.minimum_nontrivial_k)
            ),
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "survivors_below_minimum": [str(k) for k in self.survivors_below_minimum],
            "eliminations_all_proven": self.eliminations_all_proven,
            "minimality_established": self.minimality_established,
        }


def _pool_for(m: int, ns, budget: FactorBudget) -> PrimePool:
    orders: dict[int, tuple[int, ...]] = {}
    incomplete = set()
    for n in sorted(set(int(n) for n in ns)):
        if n < 1:
            raise ValueError("orders must be positive integers")
        fac = factorize(eval_cyclotomic(n, m), budget)
        if not fac.is_complete:
            incomplete.add(n)
        orders[n] = tuple(sorted(p for p in fac.primes() if math.gcd(p, n * (m - 1)) == 1))
    return PrimePool(orders, frozenset(incomplete))


def discover_prime_pool(m: int, a_max: int, budget: FactorBudget | None = None) -> PrimePool:
    """Qualifying cover primes for each order n <= a_max.

    A prime qualifies when p | Phi_n(m) and gcd(p, n*(m-1)) = 1; by the
    cyclotomic order lemma (as in construct.select_cover_prime) the order
    of m mod p is then exactly n, so pools for different n are disjoint,
    and order 1 stays empty. Orders whose Phi_n(m) did not factor fully
    within budget are flagged in .incomplete instead of failing the pool.
    """
    if m < 2:
        raise ValueError("base must be at least 2")
    if a_max < 1:
        raise ValueError("a_max must be positive")
    return _pool_for(m, range(1, a_max + 1), budget or FactorBudget.default())


def assignments_for_cover(cover: CoveringSystem, pool: PrimePool) -> list[tuple[int, ...]]:
    """All injective assignments of pool primes to the cover's classes.

    Each class of modulus n draws from pool.primes(n); tuples come out in
    lexicographic prime order. Raises InsufficientPrimes(n) when some
    modulus has fewer pool primes than its multiplicity in the cover.
    """
    counts = Counter(cover.moduli)
    for n in sorted(counts):
        if len(pool.primes(n)) < counts[n]:
            raise InsufficientPrimes(n)
    choices = [pool.primes(c.modulus) for c in cover.classes]
    return [t for t in itertools.product(*choices) if len(set(t)) == len(t)]


def k_for(cover: CoveringSystem, assignment, m: int, triviality_primes) -> int | Trivial:
    """Least positive k in the CRT class with k*m + 1 > max(assignment).

    Returns Trivial(q) when q divides the CRT modulus and the class sits
    on the forbidden residue -1 mod q: then every representative in a
    full triviality period is a trivial solution. (For q coprime to the
    modulus the representatives meet every residue mod q, so some escape
    and the least admissible k is returned as is; callers judge its own
    triviality separately.)
    """
    sol = crt_solve_for(cover, assignment, m)
    q = next((q for q in triviality_primes if sol.modulus % q == 0 and sol.residue % q == q - 1), None)
    return least_admissible(sol, m, max(assignment)) if q is None else Trivial(q)


def crt_solve_for(cover: CoveringSystem, assignment, m: int) -> Congruence:
    """The CRT class of multipliers k for one cover/prime assignment.

    search_min computes the same class from tables; this is the per-cell
    reference.
    """
    return crt_solve(build_congruences(m, cover, assignment, SIERPINSKI))


def eliminate_small_k(
    m: int,
    k_scan_bound: int,
    n_max: int,
    triviality_primes,
    seed: int = 0,
) -> list[EliminationRecord]:
    """Classify every k <= k_scan_bound.

    trivial when k = -1 mod some q | m - 1; otherwise prime_found with
    the least n <= n_max making k*m**n + 1 prime; otherwise survivor.
    Scans n upward and stops at the first hit. Terms at or above 2**64
    with m**n > k are proven prime or composite by Pocklington's theorem
    on the factored part m**n of the term minus one; every other term,
    and any the theorem leaves open, gets prime_verdict.
    """
    if m < 2 or n_max < 1:
        raise ValueError("need m >= 2 and n_max >= 1")
    fac = factorize(m)
    proven = fac.is_complete and all(c == PROVEN for _, _, c in fac.factors)
    m_primes = fac.primes() if proven else None  # Pocklington needs proven primes of m
    records = []
    for k in range(1, k_scan_bound + 1):
        q = next((q for q in triviality_primes if k % q == q - 1), None)
        if q is not None:
            records.append(EliminationRecord(k=k, status=TRIVIAL, q=q))
            continue
        power = 1
        hit = None
        for n in range(1, n_max + 1):
            power *= m
            value = k * power + 1
            isp = None
            if m_primes is not None and power > k and value >= _DETERMINISTIC_LIMIT:
                isp, certainty = pocklington_verdict(value, power, m_primes), PROVEN
            if isp is None:
                isp, certainty = prime_verdict(value, seed=seed)
            if isp:
                hit = EliminationRecord(
                    k=k, status=PRIME_FOUND, n=n, value=value, certainty=certainty
                )
                break
        records.append(hit if hit is not None else EliminationRecord(k=k, status=SURVIVOR))
    return records


def search_min(config: SearchConfig) -> SearchReport:
    """Full minimum search; see the module docstring for the pipeline.

    The reported minimum is the least nontrivial candidate k over all
    (cover, assignment) cells; its certificate is emitted and verified.
    Small k below the minimum are scanned up to min(minimum - 1,
    k_scan_bound); survivors of that scan are reported as unresolved.
    """
    m = config.base
    budget = config.budget or FactorBudget.default()
    fac = factorize(m - 1, budget)
    if not fac.is_complete:
        raise FactorBudgetExceeded(f"m - 1 = {m - 1} not fully factored within budget")
    qs = fac.primes()
    if config.moduli is not None:
        moduli = config.moduli
        pool = _pool_for(m, set(moduli), budget)
    else:
        pool = discover_prime_pool(m, config.a_max, budget)
        moduli = tuple(n for n in pool.orders() for _ in pool.primes(n))
    candidates: list[CandidateSolution] = []
    covers = enumerate_covers(moduli, config.max_assignments) if moduli else []
    try:
        # every cover keeps the moduli in the given order, so one list serves all
        assignments = assignments_for_cover(covers[0], pool) if covers else []
    except InsufficientPrimes:
        assignments = []
    # Each cell is crt_solve_for(cover, primes, m): with the CRT basis e_p
    # (1 mod p, 0 mod the other primes), position i contributes
    # (-m**(-a) mod p_i) * e_p_i for its residue a, summed mod prod(primes).
    # Pool primes avoid every q | m - 1, so no cell is forced trivial.
    shifts = {p: [-pow(m, -a, p) % p for a in range(n)] for n in set(moduli) for p in pool.primes(n)}
    tables = []
    for primes in assignments:
        modulus = math.prod(primes)
        bases = [modulus // p * mod_inverse(modulus // p, p) for p in primes]
        terms = [[r * e for r in shifts[p]] for p, e in zip(primes, bases)]
        tables.append((primes, modulus, max(primes), terms))
    for cover in covers:
        for primes, modulus, max_p, terms in tables:
            sol = Congruence(sum(t[a] for t, a in zip(terms, cover.residues)) % modulus, modulus)
            k = least_admissible(sol, m, max_p)
            tq = next((q for q in qs if k % q == q - 1), None)
            candidates.append(CandidateSolution(cover, primes, sol, k, tq))
    nontrivial = [c for c in candidates if c.nontrivial]
    certificate = None
    if nontrivial:
        best = min(nontrivial, key=lambda c: (c.k, c.cover.residues, c.primes))
        minimum = best.k
        certificate = SierpinskiCertificate(
            base=m,
            k=minimum,
            entries=tuple(
                (cls.residue, cls.modulus, p)
                for cls, p in zip(best.cover.classes, best.primes)
            ),
            variant=SIERPINSKI,
            triviality_primes=qs,
            multiplier_constraint=NONTRIVIAL,
        )
        ok, reason = verify_certificate(certificate)
        if not ok:
            raise AssertionError(f"search produced an invalid certificate: {reason}")
        bound = min(minimum - 1, config.k_scan_bound)
    else:
        minimum = None
        bound = config.k_scan_bound
    eliminations = eliminate_small_k(m, bound, config.n_max_elimination, qs, seed=config.seed)
    survivors = tuple(r.k for r in eliminations if r.status == SURVIVOR)
    return SearchReport(
        config=config,
        moduli=tuple(moduli),
        triviality_primes=qs,
        candidates=tuple(candidates),
        eliminations=tuple(eliminations),
        elimination_bound=bound,
        minimum_nontrivial_k=minimum,
        certificate=certificate,
        survivors_below_minimum=survivors,
    )
