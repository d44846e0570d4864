"""Residue classes and covering systems: verification, exhaustive
enumeration over a moduli multiset, and closure under affine maps and
equal-modulus swaps.

A covering system is a finite list of residue classes a(n) whose union is
all of Z; verification is exhaustive over one period lcm(n_1..n_t). Input
is checked where it enters the package, and a non-integral number is
refused there, not truncated; systems_from_rows wraps the package's own
residue rows without checking them again.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import deque
from dataclasses import dataclass

from . import _cover_kernels
from .arith import BudgetExceeded, totient

DEFAULT_MAX_ASSIGNMENTS = 2_000_000
# verify_cover works on one bitset of the period: at most 2 MiB.
MAX_PERIOD = 1 << 24
# enumerate_cover_rows recurses t - 2 levels deep; 64 classes of modulus >= 2 span 2**64 assignments.
MAX_CLASSES = 64


def _check_class(a, n) -> tuple[int, int]:
    try:
        a, n = operator.index(a), operator.index(n)
    except TypeError:
        raise ValueError(f"residue class {a!r}({n!r}) needs an integer residue and modulus") from None
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    if not 0 <= a < n:
        raise ValueError(f"residue {a} out of range for modulus {n}")
    return a, n


def check_moduli(moduli) -> tuple[int, ...]:
    """moduli as a tuple of ints; ValueError unless nonempty, integral and positive."""
    try:
        moduli = tuple(map(operator.index, moduli))
    except TypeError:
        raise ValueError("moduli must be integers") from None
    if not moduli:
        raise ValueError("moduli must be a nonempty sequence")
    if any(n < 1 for n in moduli):
        raise ValueError("moduli must be positive integers")
    return moduli


@dataclass(frozen=True)
class ResidueClass:
    """The arithmetic progression residue + modulus * Z."""

    residue: int
    modulus: int

    def __post_init__(self):
        _check_class(self.residue, self.modulus)

    def __str__(self) -> str:
        return f"{self.residue}({self.modulus})"


_CLASS_RE = re.compile(r"^\s*(\d+)\s*\(\s*(\d+)\s*\)\s*$")


@dataclass(frozen=True, init=False, slots=True)
class CoveringSystem:
    """Residue classes a_i(n_i), stored as the residue row a over the moduli n;
    classes is a view that builds their ResidueClass objects on each read.

    The name is aspirational: instances need not actually cover Z; use
    verify_cover to check. Order matters (classes are positional for
    swaps and prime assignments), and equality is positional too. The
    two fields live in slots; an instance has no __dict__.
    """

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __init__(self, classes):
        residues, moduli = [], []
        for c in classes:
            a, n = (c.residue, c.modulus) if isinstance(c, ResidueClass) else c
            if type(a) is not int or type(n) is not int or not 0 <= a < n:
                a, n = _check_class(a, n)  # converts index types, or raises this class's error
            residues.append(a)
            moduli.append(n)
        if not moduli:
            raise ValueError("a covering system needs at least one class")
        object.__setattr__(self, "residues", tuple(residues))
        object.__setattr__(self, "moduli", tuple(moduli))

    @property
    def classes(self) -> tuple[ResidueClass, ...]:
        return tuple(map(ResidueClass, self.residues, self.moduli))

    @property
    def lcm(self) -> int:
        return math.lcm(*self.moduli)

    @classmethod
    def parse(cls, text: str) -> "CoveringSystem":
        """Parse "a1(n1),a2(n2),..." into a system."""
        parts = text.split(",")
        classes = []
        for part in parts:
            m = _CLASS_RE.match(part)
            if not m:
                raise ValueError(f"cannot parse residue class {part!r}; expected a(n)")
            classes.append((int(m.group(1)), int(m.group(2))))
        return cls(classes)

    def to_json(self) -> list[dict]:
        return [{"a": a, "n": n} for a, n in zip(self.residues, self.moduli)]

    def __str__(self) -> str:
        return ",".join(f"{a}({n})" for a, n in zip(self.residues, self.moduli))


def verify_cover(system: CoveringSystem) -> tuple[bool, int | None]:
    """Exhaustively test one full period as an OR of class bitsets.

    Returns (True, None) for a cover, else (False, w) where w is the
    smallest uncovered nonnegative integer. A period L over MAX_PERIOD is
    scanned only when the density d = sum(L // n) / L < 1: the t classes then
    cover fewer than d*X + t < X of the first X = t*L // (L - sum(L // n)) + 1
    integers, so the witness lies below X and only those X are scanned.
    Raises BudgetExceeded when the scan would still exceed MAX_PERIOD.
    """
    L, classes = system.lcm, zip(system.residues, system.moduli)
    if L > MAX_PERIOD:
        covered = sum(L // n for n in system.moduli)
        if covered < L:
            L = min(L, len(system.moduli) * L // (L - covered) + 1)
            classes = [(a, n) for a, n in classes if a < L]
        if L > MAX_PERIOD:
            raise BudgetExceeded(f"period {system.lcm} exceeds the verification budget of {MAX_PERIOD}")
    acc, comb = 0, _cover_kernels.combs_over(L)
    # with L cut below the period a mask may reach past L; a gap below L is still the lowest bit
    for a, n in classes:
        acc |= comb(n, L) << a
    gaps = ((1 << L) - 1) ^ acc
    if not gaps:
        return True, None
    return False, (gaps & -gaps).bit_length() - 1


def systems_from_rows(rows, moduli) -> list[CoveringSystem]:
    """One system per residue row over the moduli, in row order: the one
    place rows become systems (enumerate_covers, affine_orbit, search_min).

    rows is a list or set of the package's own rows, each an int tuple
    with one residue 0 <= a < n per modulus n; none is checked
    again. The systems share one int moduli tuple and equal
    CoveringSystem(zip(row, moduli)); their slots are filled through the
    field descriptors in C-level map loops, with no Python loop per row.
    """
    moduli = tuple(map(int, moduli))
    systems = list(map(object.__new__, itertools.repeat(CoveringSystem, len(rows))))
    deque(map(CoveringSystem.residues.__set__, systems, rows), 0)
    deque(map(CoveringSystem.moduli.__set__, systems, itertools.repeat(moduli)), 0)
    return systems


def enumerate_cover_rows(
    moduli,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> list[tuple[int, ...]]:
    """The residue rows (a_1, ..., a_t) whose classes a_i(n_i) cover Z.

    Rows come in lexicographic order, position i holding the residue for
    the i-th given modulus. Returns [] straight away when the density
    sum(L // n) / L over the period L is below 1 (no assignment can cover).
    Raises BudgetExceeded above MAX_CLASSES moduli or an assignment space
    prod(n) > max_assignments.
    """
    moduli = check_moduli(moduli)
    if max_assignments < 1:
        raise ValueError(f"max_assignments must be positive, not {max_assignments}")
    if len(moduli) > MAX_CLASSES:
        raise BudgetExceeded(f"{len(moduli)} classes exceed the enumeration budget of {MAX_CLASSES}")
    period = math.lcm(*moduli)
    if sum(period // n for n in moduli) < period:
        return []
    space = math.prod(moduli)
    if space > max_assignments:
        raise BudgetExceeded(
            f"assignment space {space} exceeds the budget of {max_assignments}"
        )
    return _cover_kernels.enumerate_cover_tuples(moduli)


def enumerate_covers(
    moduli,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> list[CoveringSystem]:
    """The systems of enumerate_cover_rows, in its order and with its checks,
    each kernel row wrapped as it is by systems_from_rows."""
    moduli = tuple(moduli)
    return systems_from_rows(enumerate_cover_rows(moduli, max_assignments), moduli)


def _equal_moduli_permutations(moduli) -> list[tuple[int, ...]]:
    """Every position map that only permutes positions of equal modulus."""
    perms = [tuple(range(len(moduli)))]
    for n in set(moduli):
        positions = [i for i, m in enumerate(moduli) if m == n]
        grown = []
        for perm in perms:
            for order in itertools.permutations(positions):
                p = list(perm)
                for i, j in zip(positions, order):
                    p[i] = j
                grown.append(tuple(p))
        perms = grown
    return perms


def affine_orbit(seed: CoveringSystem) -> set[CoveringSystem]:
    """Closure of a covering system under affine transforms and swaps.

    Every x -> a*x + b with gcd(a, lcm) = 1, 0 <= a, b < lcm, acts on each
    class through its own modulus only, so it commutes with swapping
    equal-modulus positions. The closure is therefore one pass: every
    affine image of the seed, then every within-modulus permutation of
    each image. The seed must itself be a cover; every member of the
    returned set is then a cover as well. Raises BudgetExceeded when the
    L*phi(L) affine images times the within-modulus permutations exceed
    DEFAULT_MAX_ASSIGNMENTS.
    """
    ok, witness = verify_cover(seed)
    if not ok:
        raise ValueError(f"orbit seed is not a covering system (first uncovered: {witness})")
    L = seed.lcm
    moduli = seed.moduli
    work = L * totient(L) * math.prod(
        math.factorial(moduli.count(n)) for n in set(moduli)
    )
    if work > DEFAULT_MAX_ASSIGNMENTS:
        raise BudgetExceeded(
            f"orbit work {work} (affine images times equal-modulus permutations) "
            f"exceeds the budget of {DEFAULT_MAX_ASSIGNMENTS}"
        )
    residues = seed.residues
    images = set()
    for a in range(L):
        if math.gcd(a, L) != 1:
            continue
        invs = [pow(a, -1, n) for n in moduli]
        for b in range(L):
            images.add(tuple((r - b) * v % n for r, v, n in zip(residues, invs, moduli)))
    perms = _equal_moduli_permutations(moduli)
    rows = {tuple(image[j] for j in perm) for image in images for perm in perms}
    return set(systems_from_rows(rows, moduli))
