"""Residue classes and covering systems: verification, splitting, affine
transforms, exhaustive enumeration over a moduli multiset, and orbit closure.

A covering system is a finite list of residue classes a(n) whose union is
all of Z; verification is exhaustive over one period lcm(n_1..n_t).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import _cover_kernels
from .arith import BudgetExceeded, NotCoprime, totient

DEFAULT_MAX_ASSIGNMENTS = 2_000_000
# verify_cover works on one bitset of the period: at most 2 MiB.
MAX_PERIOD = 1 << 24
# enumerate_cover_rows recurses once per class; 64 classes of modulus >= 2 span 2**64 assignments.
MAX_CLASSES = 64


class ModulusMismatch(ValueError):
    """Swap requested between classes with different moduli."""


@dataclass(frozen=True)
class ResidueClass:
    """The arithmetic progression residue + modulus * Z."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} out of range for modulus {self.modulus}")

    def covers(self, x: int) -> bool:
        return (x - self.residue) % self.modulus == 0

    def __str__(self) -> str:
        return f"{self.residue}({self.modulus})"


_CLASS_RE = re.compile(r"^\s*(\d+)\s*\(\s*(\d+)\s*\)\s*$")


@dataclass(frozen=True, init=False)
class CoveringSystem:
    """An ordered tuple of residue classes with their period lcm.

    The name is aspirational: instances need not actually cover Z; use
    verify_cover to check. Order matters (classes are positional for
    swaps and prime assignments), and equality is positional too.
    """

    classes: tuple[ResidueClass, ...]
    lcm: int

    def __init__(self, classes):
        cs = []
        for c in classes:
            if isinstance(c, ResidueClass):
                cs.append(c)
            else:
                a, n = c
                cs.append(ResidueClass(int(a), int(n)))
        if not cs:
            raise ValueError("a covering system needs at least one class")
        object.__setattr__(self, "classes", tuple(cs))
        object.__setattr__(self, "lcm", math.lcm(*(c.modulus for c in cs)))

    @property
    def residues(self) -> tuple[int, ...]:
        return tuple(c.residue for c in self.classes)

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(c.modulus for c in self.classes)

    def covers(self, x: int) -> bool:
        return any(c.covers(x) for c in self.classes)

    @classmethod
    def parse(cls, text: str) -> "CoveringSystem":
        """Parse "a1(n1),a2(n2),..." into a system."""
        parts = text.split(",")
        classes = []
        for part in parts:
            m = _CLASS_RE.match(part)
            if not m:
                raise ValueError(f"cannot parse residue class {part!r}; expected a(n)")
            classes.append(ResidueClass(int(m.group(1)), int(m.group(2))))
        return cls(classes)

    @classmethod
    def from_json(cls, items) -> "CoveringSystem":
        return cls((item["a"], item["n"]) for item in items)

    def to_json(self) -> list[dict]:
        return [{"a": c.residue, "n": c.modulus} for c in self.classes]

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.classes)


def verify_cover(system: CoveringSystem) -> tuple[bool, int | None]:
    """Exhaustively test one full period as an OR of class bitsets.

    Returns (True, None) for a cover, else (False, w) where w is the
    smallest uncovered nonnegative integer. A period over MAX_PERIOD is
    scanned only when the density d = sum(1/n) < 1: the t classes then
    cover fewer than d*X + t < X of the first X = t // (1 - d) + 1
    integers, so the witness lies below X and only those X are scanned.
    Raises BudgetExceeded when the scan would still exceed MAX_PERIOD.
    """
    L, classes = system.lcm, system.classes
    if L > MAX_PERIOD:
        density = sum(Fraction(1, c.modulus) for c in classes)
        if density < 1:
            L = min(L, len(classes) // (1 - density) + 1)
            classes = [c for c in classes if c.residue < L]
        if L > MAX_PERIOD:
            raise BudgetExceeded(f"period {system.lcm} exceeds the verification budget of {MAX_PERIOD}")
    acc = 0
    # with L cut below the period a mask may reach past L; a gap below L is still the lowest bit
    for c in classes:
        acc |= _cover_kernels.comb(c.modulus, L) << c.residue
    gaps = ((1 << L) - 1) ^ acc
    if not gaps:
        return True, None
    return False, (gaps & -gaps).bit_length() - 1


def split_class(cls: ResidueClass, factor: int) -> list[ResidueClass]:
    """Replace a(n) by the equivalent classes a + i*n (mod factor*n).

    The returned classes are pairwise disjoint and their union is exactly
    the original progression.
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    n = cls.modulus
    return [ResidueClass(cls.residue + i * n, factor * n) for i in range(factor)]


def affine_transform(system: CoveringSystem, a: int, b: int) -> CoveringSystem:
    """Pull the system back along x -> a*x + b.

    a*x + b lies in a_s(n_s) exactly when x lies in a^{-1}*(a_s - b) (n_s),
    so covers map to covers; gcd(a, lcm) = 1 makes a invertible modulo
    every class modulus.
    """
    if math.gcd(a, system.lcm) != 1:
        raise NotCoprime(f"multiplier {a} shares a factor with the period {system.lcm}")
    classes = []
    for c in system.classes:
        inv = pow(a, -1, c.modulus)
        classes.append(((c.residue - b) * inv % c.modulus, c.modulus))
    return CoveringSystem(classes)


def swap_equal_moduli(system: CoveringSystem, i: int, j: int) -> CoveringSystem:
    """Exchange the residues of positions i and j (same modulus required)."""
    t = len(system.classes)
    if not (0 <= i < t and 0 <= j < t):
        raise IndexError("class index out of range")
    ci, cj = system.classes[i], system.classes[j]
    if ci.modulus != cj.modulus:
        raise ModulusMismatch(f"moduli differ at positions {i} and {j}: {ci.modulus} vs {cj.modulus}")
    classes = list(system.classes)
    classes[i], classes[j] = ResidueClass(cj.residue, ci.modulus), ResidueClass(ci.residue, cj.modulus)
    return CoveringSystem(classes)


def systems_from_rows(rows, moduli) -> list[CoveringSystem]:
    """One system per residue row over the moduli, in row order.

    Each row holds one residue 0 <= a < n per modulus n, as
    enumerate_cover_rows gives them; ValueError otherwise. The systems
    share one ResidueClass per (a, n) and one period lcm, and skip the
    per-system checks of CoveringSystem(...), to which they are equal.
    """
    moduli = tuple(int(n) for n in moduli)
    shared = {n: {a: ResidueClass(a, n) for a in range(n)} for n in set(moduli)}
    columns = [shared[n] for n in moduli]
    lcm = math.lcm(*moduli)
    systems = []
    for row in rows:
        try:
            classes = tuple(map(dict.__getitem__, columns, row))
        except KeyError:
            classes = ()
        if not classes or len(row) != len(moduli):
            raise ValueError(f"row {row} does not fit the moduli {moduli}")
        system = object.__new__(CoveringSystem)
        object.__setattr__(system, "classes", classes)
        object.__setattr__(system, "lcm", lcm)
        systems.append(system)
    return systems


def enumerate_cover_rows(
    moduli,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> list[tuple[int, ...]]:
    """The residue rows (a_1, ..., a_t) whose classes a_i(n_i) cover Z.

    Rows come in lexicographic order, position i holding the residue for
    the i-th given modulus. Returns [] straight away when the density
    sum(1/n) is below 1 (no assignment can cover). Raises BudgetExceeded
    above MAX_CLASSES moduli or an assignment space prod(n) > max_assignments.
    """
    moduli = tuple(int(n) for n in moduli)
    if not moduli:
        raise ValueError("moduli must be a nonempty sequence")
    if any(n < 1 for n in moduli):
        raise ValueError("moduli must be positive integers")
    if max_assignments < 1:
        raise ValueError(f"max_assignments must be positive, not {max_assignments}")
    if len(moduli) > MAX_CLASSES:
        raise BudgetExceeded(f"{len(moduli)} classes exceed the enumeration budget of {MAX_CLASSES}")
    if sum(Fraction(1, n) for n in moduli) < 1:
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
    """The systems of enumerate_cover_rows, in its order and with its checks."""
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
