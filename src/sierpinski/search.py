"""Minimum Sierpinski-number search for a base m.

Pipeline: factor m**n - 1 layer by layer (via Phi_n(m)) into a pool of
usable primes keyed by multiplicative order, enumerate the residue rows
of every covering system on a moduli multiset, CRT each injective prime
assignment into a candidate class, and take the least nontrivial
admissible k over the classes, each walked as construct does. Every k of
a class is at least its residue, so a class whose residue exceeds the
best k so far is not walked. Then try to eliminate every smaller k by
exhibiting a prime k*m**n + 1. The report's cell list is built only when
it is read.
"""

from __future__ import annotations

import _thread
import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .arith import (
    PROBABLE,
    PROVEN,
    BudgetExceeded,
    Congruence,
    FactorBudget,
    FactorBudgetExceeded,
    crt_solve,
    factorize,
    mod_inverse,
    pocklington_verdict,
    prime_verdict,
)
from .covering import CoveringSystem, enumerate_cover_rows, systems_from_rows
from .construct import (
    NONTRIVIAL,
    SIERPINSKI,
    SierpinskiCertificate,
    build_congruences,
    least_admissible,
    next_nontrivial,
    trivial_prime,
    triviality_primes_for,
    verify_certificate,
)
from .cyclotomic import eval_cyclotomic

TRIVIAL = "trivial"
PRIME_FOUND = "prime_found"
SURVIVOR = "survivor"

# Each elimination worker gets at least this many k. Two workers took 0.59-1.34x the time of one
# at k <= 200, 0.53-1.08x at 500 and 0.56-0.83x at 1000 (six bases, n_max 30 and 60, 2 cores).
MIN_K_PER_WORKER = 250


class InsufficientPrimes(RuntimeError):
    """The prime pool cannot fill every class of some modulus injectively."""

    def __init__(self, modulus: int):
        super().__init__(f"prime pool has too few primes of order {modulus}")
        self.modulus = modulus


@dataclass(frozen=True)
class SearchConfig:
    base: int
    moduli: tuple[int, ...] | None = None
    a_max: int = 8
    n_max_elimination: int = 30
    k_scan_bound: int = 1000
    seed: int = 0
    budget: FactorBudget | None = None

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.moduli is not None:
            object.__setattr__(self, "moduli", tuple(int(n) for n in self.moduli))
            if not self.moduli or any(n < 1 for n in self.moduli):
                raise ValueError("moduli must be positive integers")
        for name in ("a_max", "n_max_elimination"):
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
    k: int  # least nontrivial admissible representative

    def to_json_dict(self) -> dict:
        return {
            "cover": self.cover.to_json(),
            "primes": [str(p) for p in self.primes],
            "class": {"residue": str(self.crt.residue), "modulus": str(self.crt.modulus)},
            "k": str(self.k),
        }


@dataclass(frozen=True)
class SearchReport:
    """What search_min found; candidates is built by build_cells on first read."""

    config: SearchConfig
    moduli: tuple[int, ...]
    triviality_primes: tuple[int, ...]
    eliminations: tuple[EliminationRecord, ...]
    elimination_bound: int
    minimum_nontrivial_k: int | None
    certificate: SierpinskiCertificate | None
    survivors_below_minimum: tuple[int, ...]
    build_cells: Callable[[], tuple[CandidateSolution, ...]] = field(repr=False, compare=False)

    @functools.cached_property
    def candidates(self) -> tuple[CandidateSolution, ...]:
        """Every cell of the grid, one per {(a, n, p)} set, in search order."""
        return self.build_cells()

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


def _pool_for(m: int, ns, budget: FactorBudget | None) -> PrimePool:
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
    return _pool_for(m, range(1, a_max + 1), budget)


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


def k_for(cover: CoveringSystem, assignment, m: int, triviality_primes) -> int:
    """Least nontrivial k in the CRT class with k*m + 1 > max(assignment).

    Walks the class as construct does. Raises ValueError when an assigned
    prime shares a factor with the product of the triviality primes:
    then the walk could run forever.
    """
    q_product = math.prod(triviality_primes)
    if math.gcd(math.prod(assignment), q_product) != 1:
        raise ValueError("assigned primes must be coprime to every prime q | m - 1")
    sol = crt_solve_for(cover, assignment, m)
    return next_nontrivial(least_admissible(sol, m, max(assignment)), sol.modulus, q_product)


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
    Scans n upward and stops at the first hit.

    A term with m**n > k goes to pocklington_verdict with the factored part
    m**n of the term minus one, which proves it prime or composite at any
    size; the rest, and any the theorem leaves open, get prime_verdict.

    This process and _worker_count() - 1 forked children (none beside a live
    thread: the child could deadlock) claim chunks of k from a pipe and write
    a code per k to shared memory. This process scans what a failed child
    left, so the records do not depend on the number of workers. Raises
    BudgetExceeded, naming k_scan_bound, when those 4 bytes per k cannot be
    mapped.
    """
    if m < 2 or n_max < 1:
        raise ValueError("need m >= 2 and n_max >= 1")
    if k_scan_bound < 0:
        raise ValueError("k_scan_bound must be nonnegative")
    import mmap  # here, so that import sierpinski does not load it
    fac = factorize(m)
    proven = fac.is_complete and all(c == PROVEN for _, _, c in fac.factors)
    m_primes = fac.primes() if proven else None  # Pocklington needs proven primes of m
    span = -(-k_scan_bound // 256) or 1  # so that one byte names each chunk
    chunks = range(-(-k_scan_bound // span))  # chunk c holds c*span < k <= c*span + span
    args = (m, k_scan_bound, n_max, triviality_primes, seed, m_primes, span)
    try:
        codes = memoryview(mmap.mmap(-1, 4 * k_scan_bound or 4)).cast("I")  # shared with forked workers
    except (OverflowError, OSError) as exc:
        raise BudgetExceeded(
            f"k_scan_bound {k_scan_bound} is over budget: its 4 bytes per k could not be mapped ({exc})") from None
    workers = _worker_count(k_scan_bound) if hasattr(os, "fork") and not _thread._count() else 1
    r, w = os.pipe()
    os.write(w, bytes(chunks))  # at most PIPE_BUF bytes: this cannot block
    os.close(w)
    claims = map(ord, iter(lambda: os.read(r, 1), b""))
    pids = []
    try:
        for _ in range(workers - 1):
            try:
                pid = os.fork()
            except OSError:  # the other workers claim its chunks
                break
            if pid == 0:  # a child leaves only by os._exit
                try:
                    _scan(*args, claims, codes)
                finally:
                    os._exit(0)
            pids.append(pid)
        _scan(*args, claims, codes)
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
    finally:  # after an exception, kill and reap the children left
        os.close(r)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    _scan(*args, (c for c in chunks if not all(codes[c * span : c * span + span])), codes)  # a failed child's k
    records = []
    for k, code in zip(range(1, k_scan_bound + 1), codes):
        n = code >> 1
        if n == 0:
            records.append(EliminationRecord(k, TRIVIAL, trivial_prime(k, triviality_primes)))
        elif n > n_max:
            records.append(EliminationRecord(k, SURVIVOR))
        else:
            records.append(EliminationRecord(k, PRIME_FOUND, None, n, k * m**n + 1, (PROVEN, PROBABLE)[code & 1]))
    return records


def _worker_count(k_count: int) -> int:
    """One worker per CPU of the affinity mask, each with MIN_K_PER_WORKER k or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, k_count // MIN_K_PER_WORKER))


def _scan(m, k_scan_bound, n_max, qs, seed, m_primes, span, claims, codes):
    """Set codes[k - 1], 0 until then, for the k of each claimed chunk: 1 for
    a trivial k, else n << 1 | probable for the least n <= n_max with k*m**n + 1
    prime (probable is 1 if not proven), n = n_max + 1 when there is none."""
    for c in claims:
        for k in range(c * span + 1, min(c * span + span, k_scan_bound) + 1):
            if trivial_prime(k, qs) is not None:
                codes[k - 1] = 1
                continue
            power = 1
            for n in range(1, n_max + 1):
                power *= m
                value = k * power + 1
                isp = None
                if m_primes is not None and power > k:  # then power**2 > value
                    isp, certainty = pocklington_verdict(value, power, m_primes), PROVEN
                if isp is None:
                    isp, certainty = prime_verdict(value, seed=seed)
                if isp:
                    break
            else:
                n = n_max + 1
            # set only once final, as a child may die at any point; n > n_max: no prime
            codes[k - 1] = n << 1 | (n <= n_max and certainty != PROVEN)


def _grid(rows, moduli, tables):
    """Each cover row kept, with the tables of its cells, in row order.

    Swapping two equal-modulus classes together with their primes gives
    the same {(a, n, p)} set and the same k. Keep the one cell per set
    whose (a, p) pairs ascend within each modulus: it is also the least
    under the witness key (k, residues, primes) of search_min.
    """
    pairs = [(i, j) for j, n in enumerate(moduli) for i in range(j) if moduli[i] == n]
    tables_for_ties: dict[tuple, list] = {}
    for row in rows:
        if any(row[i] > row[j] for i, j in pairs):
            continue
        ties = tuple((i, j) for i, j in pairs if row[i] == row[j])
        if ties not in tables_for_ties:
            tables_for_ties[ties] = [t for t in tables if all(t[0][i] < t[0][j] for i, j in ties)]
        yield row, tables_for_ties[ties]


def search_min(config: SearchConfig) -> SearchReport:
    """Full minimum search; see the module docstring for the pipeline.

    Each (cover, assignment) cell, one per distinct {(a, n, p)} set,
    holds the least nontrivial admissible k of its CRT class; the reported
    minimum is the least of them, and its certificate is emitted and
    verified. A cell's k is at least its class residue, so only cells whose
    residue is at most the best k so far are walked. The report's
    candidates, one CandidateSolution per cell, are built from the search's
    rows and tables when first read.
    Small k below the minimum are scanned up to min(minimum - 1,
    k_scan_bound); survivors of that scan are reported as unresolved.
    Raises FactorBudgetExceeded when a Phi_n(m) of the pool does not factor.
    """
    m = config.base
    qs = triviality_primes_for(m, config.budget)
    if config.moduli is not None:
        moduli = config.moduli
        pool = _pool_for(m, set(moduli), config.budget)
    else:
        pool = discover_prime_pool(m, config.a_max, config.budget)
        moduli = tuple(n for n in pool.orders() for _ in pool.primes(n))
    if pool.incomplete:  # a minimum from a partial pool would be unfounded
        raise FactorBudgetExceeded(f"Phi_n({m}) not fully factored for n in {sorted(pool.incomplete)}")
    rows = enumerate_cover_rows(moduli) if moduli else []
    try:
        # every cover keeps the moduli in the given order, so one list serves all
        assignments = assignments_for_cover(systems_from_rows(rows[:1], moduli)[0], pool) if rows else []
    except InsufficientPrimes:
        assignments = []
    # Each cell is crt_solve_for(cover, primes, m): with the CRT basis e_p
    # (1 mod p, 0 mod the other primes), position i contributes
    # (-m**(-a) mod p_i) * e_p_i for its residue a, summed mod prod(primes).
    # Pool primes avoid every q | m - 1, so every class walks on to a
    # nontrivial k.
    shifts = {p: [-pow(m, -a, p) % p for a in range(n)] for n in set(moduli) for p in pool.primes(n)}
    tables = []
    for primes in assignments:
        modulus = math.prod(primes)
        bases = [modulus // p * mod_inverse(modulus // p, p) for p in primes]
        terms = [[r * e for r in shifts[p]] for p, e in zip(primes, bases)]
        tables.append((primes, modulus, max(primes), terms))

    def walk(sol: Congruence, max_p: int) -> int:
        return next_nontrivial(least_admissible(sol, m, max_p), sol.modulus, m - 1)

    best = None
    for row, group in _grid(rows, moduli, tables):
        for primes, modulus, max_p, terms in group:
            residue = sum(map(list.__getitem__, terms, row)) % modulus
            if best is not None and residue > best[0]:
                continue  # both walks only move up from the residue
            key = (walk(Congruence(residue, modulus), max_p), row, primes)
            if best is None or key < best:
                best = key

    def build_cells() -> tuple[CandidateSolution, ...]:
        kept = list(_grid(rows, moduli, tables))
        cells = []
        for cover, (row, group) in zip(systems_from_rows([row for row, _ in kept], moduli), kept):
            for primes, modulus, max_p, terms in group:
                sol = Congruence(sum(map(list.__getitem__, terms, row)) % modulus, modulus)
                cells.append(CandidateSolution(cover, primes, sol, walk(sol, max_p)))
        return tuple(cells)

    certificate = None
    if best is not None:
        minimum, best_row, best_primes = best
        certificate = SierpinskiCertificate(
            base=m,
            k=minimum,
            entries=tuple(zip(best_row, moduli, best_primes)),
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
        eliminations=tuple(eliminations),
        elimination_bound=bound,
        minimum_nontrivial_k=minimum,
        certificate=certificate,
        survivors_below_minimum=survivors,
        build_cells=build_cells,
    )
