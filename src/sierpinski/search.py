"""Minimum Sierpinski-number search for a base m.

Pipeline: factor m**n - 1 layer by layer (via Phi_n(m)) into a pool of
usable primes keyed by multiplicative order, enumerate the residue rows
of every covering system on a moduli multiset, CRT each injective prime
assignment into a candidate class, and take the least nontrivial
admissible k over the classes, each walked as construct does. Every k of
a class is at least its residue, so a class whose residue exceeds the
best k so far is not walked. Then try to eliminate every smaller k by
exhibiting a prime k*m**n + 1; the forked elimination workers start
before the pool, and the search joins them once the grid has set the
bound. The report's cell list is built only when it is read.
"""

from __future__ import annotations

import _thread
import contextlib
import functools
import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .arith import (
    PROBABLE,
    PROVEN,
    SCREEN_BOUND,
    BudgetExceeded,
    Congruence,
    FactorBudget,
    FactorBudgetExceeded,
    _load_powm,
    crt_solve,
    decimal_str,
    factorize,
    pocklington_verdict,
    prime_verdict,
)
from .covering import CoveringSystem, check_moduli, enumerate_cover_rows, systems_from_rows
from .construct import (
    SIERPINSKI,
    SierpinskiCertificate,
    build_congruences,
    certify,
    class_table,
    nth_admissible,
    trivial_prime,
    triviality_primes_for,
    verify_certificate,
)
from .cyclotomic import eval_cyclotomic

TRIVIAL = "trivial"
PRIME_FOUND = "prime_found"
SURVIVOR = "survivor"

# Each elimination worker gets at least this many terms k*m**n + 1 (k_scan_bound * n_max). On 2
# cores (fastest of 11 interleaved runs), search_min on the first six pool-filling bases of the
# search benchmark (n_max 30) took 22 / 25 / 29 / 40 ms with one worker and 24 / 26 / 28 / 36 ms
# with two at 15,000 / 18,000 / 21,000 / 30,000 terms; eliminate_small_k(1000, 150, 60, (3, 37))
# gains at 9,000 (7.5 -> 5.9 ms), while base 22's smaller terms lose at 21,000 / 30,000
# (eliminate_small_k(22, 350 / 500, 60, (3, 7)): 2.3 / 3.3 ms with one, 2.7 / 3.4 with two).
MIN_TERMS_PER_WORKER = 10_000

# _scan strikes the terms of SIEVE_BLOCK consecutive k at a time. On the nine distinct
# elimination calls of the search benchmark (seed 8, one process, 2 cores, best of 7, two runs),
# blocks of 128 / 256 / 512 / 1024 / 2048 / 4096 took 155-157 / 150 / 147-149 / 143-144 /
# 144-146 / 146-150 ms, and 173-175 ms without the table.
SIEVE_BLOCK = 1024
# The table's primes: with those below 32 / 64 / 128 / 256 / 512 / 2048 the same calls took
# 156 / 147 / 145 / 143 / 143 / 148 ms on a prototype; past 128 the gain is within noise.
STRIKE_PRIMES = tuple(p for p in range(2, 128) if prime_verdict(p)[0])
# comb_p has the bits 0, p, 2p, ... up to the block's end
_COMBS = {p: ((1 << p * (SIEVE_BLOCK // p + 1)) - 1) // ((1 << p) - 1) for p in STRIKE_PRIMES}


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
            object.__setattr__(self, "moduli", check_moduli(self.moduli))
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


class EliminationRecord(NamedTuple):
    """Outcome for one small k: trivial, a prime term found, or survivor."""

    k: int
    status: str
    q: int | None = None
    n: int | None = None
    value: int | None = None
    certainty: str | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"k": decimal_str(self.k), "status": self.status}
        if self.status == TRIVIAL:
            doc["q"] = decimal_str(self.q)
        elif self.status == PRIME_FOUND:
            doc["n"] = self.n
            doc["value"] = decimal_str(self.value)
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
            "primes": [decimal_str(p) for p in self.primes],
            "class": {"residue": decimal_str(self.crt.residue), "modulus": decimal_str(self.crt.modulus)},
            "k": decimal_str(self.k),
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
        return all(r.certainty == PROVEN for r in self.eliminations if r.status == PRIME_FOUND)

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
            "base": decimal_str(self.config.base),
            "seed": self.config.seed,
            "moduli": list(self.moduli),
            "a_max": self.config.a_max,
            "n_max_elimination": self.config.n_max_elimination,
            "k_scan_bound": decimal_str(self.config.k_scan_bound),
            "triviality_primes": [decimal_str(q) for q in self.triviality_primes],
            "candidates": [c.to_json_dict() for c in self.candidates],
            "eliminations": [r.to_json_dict() for r in self.eliminations],
            "elimination_bound": decimal_str(self.elimination_bound),
            "minimum_nontrivial_k": (
                None if self.minimum_nontrivial_k is None else decimal_str(self.minimum_nontrivial_k)
            ),
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "survivors_below_minimum": [decimal_str(k) for k in self.survivors_below_minimum],
            "eliminations_all_proven": self.eliminations_all_proven,
            "minimality_established": self.minimality_established,
        }


def _pool_for(m: int, ns, budget: FactorBudget | None) -> PrimePool:
    orders: dict[int, tuple[int, ...]] = {}
    incomplete = set()
    for n in sorted(ns):
        if n == 1:  # every prime of Phi_1(m) = m - 1 divides m - 1
            orders[n] = ()
            continue
        # the primes of Phi_n(m) not dividing n are 1 (mod n): factor along that progression
        fac = factorize(eval_cyclotomic(n, m), budget, n)
        if not fac.is_complete:
            incomplete.add(n)
        orders[n] = tuple(p for p in fac.primes() if n % p)
    return PrimePool(orders, frozenset(incomplete))


def discover_prime_pool(m: int, a_max: int, budget: FactorBudget | None = None) -> PrimePool:
    """Qualifying cover primes for each order n <= a_max.

    A prime qualifies when p | Phi_n(m) and p does not divide n; by the
    cyclotomic order lemma (as in construct.select_cover_prime) the order
    of m mod p is then exactly n, so pools for different n are disjoint and
    avoid m - 1, and order 1 is empty without factoring Phi_1(m) = m - 1.
    Orders whose Phi_n(m) did not factor fully within budget are flagged
    in .incomplete instead of failing the pool.
    """
    if m < 2:
        raise ValueError("base must be at least 2")
    if a_max < 1:
        raise ValueError("a_max must be positive")
    return _pool_for(m, range(1, a_max + 1), budget)


def assignments_for_cover(cover: CoveringSystem, pool: PrimePool) -> list[tuple[int, ...]]:
    """All injective assignments of pool primes to the cover's classes.

    Each class of modulus n draws from pool.primes(n); tuples come out in
    lexicographic prime order; [] without walking the product when some
    modulus has fewer pool primes than its multiplicity (pigeonhole).
    """
    if any(len(pool.primes(n)) < count for n, count in Counter(cover.moduli).items()):
        return []
    choices = [pool.primes(n) for n in cover.moduli]
    return [t for t in itertools.product(*choices) if len(set(t)) == len(t)]


def crt_solve_for(cover: CoveringSystem, assignment, m: int) -> Congruence:
    """The CRT class of multipliers k for one cover/prime assignment.

    search_min and construct read the same class from construct.class_table;
    this is the per-cell reference.
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

    A term of arith.SCREEN_BOUND or more that a prime below 128 divides is
    struck from a per-block table (_scan), with no gcd. A term left with
    m**n > k goes to pocklington_verdict(k, m**n, primes of m), which
    screens it and proves it prime or composite at any size; the rest, and
    any the theorem leaves open, get prime_verdict. m is factored only when
    some k is scanned.

    _worker_count(k_scan_bound * n_max) - 1 forked children (none beside a
    live thread: the child could deadlock) claim chunks of k from a pipe, from
    the bottom up, and write a code per k to shared memory. This process reads
    no claim: it codes, from the top down, each k no child has coded, so the
    two meet wherever the work splits, it waits on no child, and the records
    do not depend on the number of workers. Each child is reaped after the
    records are built, killed first, as what it still scans is settled. A
    child checks before each k that this process still lives, and exits when
    it is gone, so a SIGTERM or SIGKILL here leaves no worker running. Raises
    BudgetExceeded, naming k_scan_bound, when those 4 bytes per k cannot be
    mapped. This is _eliminating's start and finish at one bound.
    """
    with _eliminating(m, k_scan_bound, n_max, triviality_primes, seed) as finish:
        return finish(k_scan_bound)


@contextlib.contextmanager
def _eliminating(m, k_scan_bound, n_max, qs, seed):
    """Start eliminate_small_k over k <= k_scan_bound, and yield its finish.

    On entry the codes are mapped and the children forked; they begin
    claiming chunks at once. finish(bound <= k_scan_bound) codes, from bound
    down, each k no child has coded and returns the records of k <= bound.
    On exit, after finish or an exception, each child is killed and reaped.
    """
    if m < 2 or n_max < 1:
        raise ValueError("need m >= 2 and n_max >= 1")
    if k_scan_bound < 0:
        raise ValueError("k_scan_bound must be nonnegative")
    import mmap  # here, so that import sierpinski does not load it
    fac = factorize(m if k_scan_bound else 1)  # with no k to scan, m's primes go unused
    proven = fac.is_complete and all(c == PROVEN for _, _, c in fac.factors)
    m_primes = fac.primes() if proven else None  # Pocklington needs proven primes of m
    span = -(-k_scan_bound // 256) or 1  # so that one byte names each chunk
    try:
        codes = memoryview(mmap.mmap(-1, 4 * k_scan_bound or 4)).cast("I")  # shared with forked workers
    except (OverflowError, OSError) as exc:
        raise BudgetExceeded(f"k_scan_bound {decimal_str(k_scan_bound)} is over budget: "
                             f"its 4 bytes per k could not be mapped ({exc})") from None
    workers = _worker_count(k_scan_bound * n_max) if hasattr(os, "fork") and not _thread._count() else 1
    if workers > 1:
        _load_powm()  # here, so that each child inherits it and none imports ctypes
    r, w = os.pipe()
    os.write(w, bytes(range(-(-k_scan_bound // span))))  # at most PIPE_BUF bytes: this cannot block
    os.close(w)
    # the k of each chunk a child claims: chunk c holds c*span < k <= c*span + span
    claimed = (k for c in map(ord, iter(lambda: os.read(r, 1), b""))
               for k in range(c * span + 1, min(c * span + span, k_scan_bound) + 1))
    pids, parent = [], os.getpid()

    def finish(bound: int) -> list[EliminationRecord]:
        # top down, each k no child has coded: this meets the children coming up
        _scan(m, n_max, qs, seed, m_primes, (k for k in range(bound, 0, -1) if not codes[k - 1]), codes)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL: every k <= bound is coded, so what it scans is waste
        records = []
        for k, code in zip(range(1, bound + 1), codes):
            n = code >> 1
            if n == 0:
                records.append(EliminationRecord(k, TRIVIAL, trivial_prime(k, qs)))
            elif n > n_max:
                records.append(EliminationRecord(k, SURVIVOR))
            else:
                records.append(EliminationRecord(k, PRIME_FOUND, None, n, k * m**n + 1, (PROVEN, PROBABLE)[code & 1]))
        return records

    try:
        for _ in range(workers - 1):
            try:
                pid = os.fork()
            except OSError:  # the other workers, and this process, code its chunks
                break
            if pid == 0:  # a child leaves only by os._exit
                try:
                    _scan(m, n_max, qs, seed, m_primes, claimed, codes, parent)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield finish
    finally:  # kill and reap the children, after the records or an exception
        os.close(r)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _worker_count(terms: int) -> int:
    """One worker per CPU of the affinity mask, each with MIN_TERMS_PER_WORKER terms k*m**n + 1 or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, terms // MIN_TERMS_PER_WORKER))


def _strike_levels(m, lo):
    """Yield, for n = 1, 2, ..., the int whose bit k - lo is set when some
    prime p < 128 divides k*m**n + 1, for lo <= k < lo + SIEVE_BLOCK (bits
    past the block are loose). Such a p does not divide m, and divides the
    term exactly when k = t (mod p) with t = -m**-n: one comb_p shifted to
    the first such k, t advanced by m**-1 mod p from level to level."""
    sieve = [(p, pow(m, -1, p), _COMBS[p]) for p in STRIKE_PRIMES if m % p]
    ts = [p - 1 for p, _, _ in sieve]  # t = -m**0 at n = 0
    while True:
        level = 0
        for i, (p, inverse, comb) in enumerate(sieve):
            ts[i] = t = ts[i] * inverse % p
            level |= comb << (t - lo) % p
        yield level


def _scan(m, n_max, qs, seed, m_primes, ks, codes, parent=None):
    """Set codes[k - 1], 0 until then, for each k of ks: 1 for a trivial k,
    else n << 1 | probable for the least n <= n_max with k*m**n + 1 prime
    (probable is 1 if not proven), n = n_max + 1 when there is none. Any
    process may code a k another is coding: both write the same code. A
    forked worker passes its parent's pid, checks it before every k and
    exits once that parent is gone.

    A term of SCREEN_BOUND or more that a prime below 128 divides is struck
    as composite by _strike_levels. Only the block that holds k is kept, with
    its levels up to the largest n a k of it has reached, so the table costs
    what the k scanned reach, not n_max per block. A term left, with m**n > k
    and the proven primes of m, goes to pocklington_verdict(k, m**n, m_primes),
    proven either way; otherwise, or when that proof stays open, to
    prime_verdict. Each term is screened once, twice only after an open proof."""
    block = None
    for k in ks:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        if trivial_prime(k, qs) is not None:
            codes[k - 1] = 1
            continue
        if k // SIEVE_BLOCK != block:
            block = k // SIEVE_BLOCK
            levels, more = [], _strike_levels(m, block * SIEVE_BLOCK)
        bit = 1 << k % SIEVE_BLOCK
        power = 1
        for n in range(1, n_max + 1):
            power *= m
            value = k * power + 1
            if value >= SCREEN_BOUND:  # a smaller term may be the strike prime itself
                while len(levels) < n:
                    levels.append(next(more))
                if levels[n - 1] & bit:
                    continue  # a prime below 128 divides value
            isp, certainty = None, PROVEN
            if m_primes is not None and power > k:
                isp = pocklington_verdict(k, power, m_primes)
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


def _least_cell(config: SearchConfig, qs):
    """The moduli, cover rows and assignment tables of a search, with its
    least (k, row, primes) key over the cells, None without a cell."""
    m = config.base
    if config.moduli is not None:
        moduli = config.moduli
        pool = _pool_for(m, set(moduli), config.budget)
    else:
        pool = discover_prime_pool(m, config.a_max, config.budget)
        moduli = tuple(n for n in pool.orders() for _ in pool.primes(n))
    if pool.incomplete:  # a minimum from a partial pool would be unfounded
        raise FactorBudgetExceeded(f"Phi_n({decimal_str(m)}) not fully factored for n in {sorted(pool.incomplete)}")
    rows = enumerate_cover_rows(moduli) if moduli else []
    # every cover keeps the moduli in the given order, so one list serves all
    assignments = assignments_for_cover(systems_from_rows(rows[:1], moduli)[0], pool) if rows else []
    # Each cell is crt_solve_for(cover, primes, m), read from its assignment's
    # table. Pool primes avoid every q | m - 1: every class walks on to a nontrivial k.
    tables = [(primes, *class_table(m, moduli, primes), max(primes)) for primes in assignments]
    best = None
    for row, group in _grid(rows, moduli, tables):
        for primes, modulus, table, max_p in group:
            residue = sum(map(list.__getitem__, table, row)) % modulus
            if best is not None and residue > best[0]:
                continue  # the walk only moves up from the residue
            key = (nth_admissible(Congruence(residue, modulus), m, max_p, qs), row, primes)
            if best is None or key < best:
                best = key
    return moduli, rows, tables, best


def search_min(config: SearchConfig) -> SearchReport:
    """Full minimum search; see the module docstring for the pipeline.

    Each (cover, assignment) cell, one per distinct {(a, n, p)} set,
    holds the least nontrivial admissible k of its CRT class, read from
    the assignment's class_table and walked by nth_admissible as construct
    reads and walks its one cell. The reported minimum is the least of
    them; certify builds its certificate, which is verified. A cell's k is
    at least its class residue, so only cells whose residue is at most the
    best k so far are walked. The report's
    candidates, one CandidateSolution per cell, are built from the search's
    rows and tables when first read.
    Small k below the minimum are scanned up to min(minimum - 1,
    k_scan_bound); survivors of that scan are reported as unresolved. The
    elimination workers start on k <= k_scan_bound before the pool and the
    grid, and once the grid has set the bound this process codes, from it
    down, each k they have not (eliminate_small_k's path after the grid when
    the codes of k <= k_scan_bound cannot be mapped); no worker outlives the
    call, whether it returns or raises.
    Raises FactorBudgetExceeded when a Phi_n(m) of the pool does not factor.
    """
    m, n_max, seed = config.base, config.n_max_elimination, config.seed
    qs = triviality_primes_for(m, config.budget)
    with contextlib.ExitStack() as stack:
        try:  # the forked workers scan small k while this process builds the grid
            finish = stack.enter_context(_eliminating(m, config.k_scan_bound, n_max, qs, seed))
        except BudgetExceeded:  # nothing started: scan up to the bound after the grid
            finish = functools.partial(eliminate_small_k, m, n_max=n_max, triviality_primes=qs, seed=seed)
        moduli, rows, tables, best = _least_cell(config, qs)
        certificate = None
        if best is not None:
            minimum, best_row, best_primes = best
            certificate = certify(m, best_row, moduli, best_primes, qs)
            ok, reason = verify_certificate(certificate)
            if not ok:
                raise AssertionError(f"search produced an invalid certificate: {reason}")
            bound = min(minimum - 1, config.k_scan_bound)
        else:
            minimum = None
            bound = config.k_scan_bound
        eliminations = finish(bound)

    def build_cells() -> tuple[CandidateSolution, ...]:
        kept = list(_grid(rows, moduli, tables))
        cells = []
        for cover, (row, group) in zip(systems_from_rows([row for row, _ in kept], moduli), kept):
            for primes, modulus, table, max_p in group:
                sol = Congruence(sum(map(list.__getitem__, table, row)) % modulus, modulus)
                cells.append(CandidateSolution(cover, primes, sol, nth_admissible(sol, m, max_p, qs)))
        return tuple(cells)

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
