"""Covering systems: verification, transforms, enumeration, orbit closure."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sierpinski import covering
from sierpinski.arith import NotCoprime
from sierpinski.construct import MERSENNE_COVER
from sierpinski.covering import (
    MAX_PERIOD,
    BudgetExceeded,
    CoveringSystem,
    ModulusMismatch,
    ResidueClass,
    affine_orbit,
    affine_transform,
    enumerate_cover_rows,
    enumerate_covers,
    split_class,
    swap_equal_moduli,
    verify_cover,
)

FIVE = CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12)")
THIRTEEN = CoveringSystem.parse(
    "2(4),4(8),8(16),8(24),0(48),1(3),5(6),3(12),1(5),7(10),3(15),9(20),15(30)"
)


def numpy_is_cover(system):
    # independent bitmap oracle over one period
    hit = np.zeros(system.lcm, dtype=bool)
    for cls in system.classes:
        hit[cls.residue :: cls.modulus] = True
    return bool(hit.all()), (None if hit.all() else int(np.flatnonzero(~hit)[0]))


def bfs_orbit(seed):
    # reference closure: breadth-first search over affine maps and swaps
    L = seed.lcm
    moduli = seed.moduli
    t = len(moduli)
    units = [a for a in range(L) if math.gcd(a, L) == 1]
    inv = {(a, n): pow(a, -1, n) for a in units for n in set(moduli)}
    swaps = [(i, j) for i in range(t) for j in range(i + 1, t) if moduli[i] == moduli[j]]
    start = seed.residues
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for res in frontier:
            for a in units:
                for b in range(L):
                    image = tuple((r - b) * inv[a, n] % n for r, n in zip(res, moduli))
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            for i, j in swaps:
                image = list(res)
                image[i], image[j] = image[j], image[i]
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


@st.composite
def random_systems(draw):
    # random classes on divisors of one period, so L reaches a few thousand;
    # half the draws start from an affine image of a known cover, so covers
    # and near-covers (one class moved) turn up as often as plain non-covers
    period = draw(st.sampled_from([12, 30, 48, 60, 210, 240, 720, 1260, 2520, 5040]))
    divisors = [d for d in range(1, period + 1) if period % d == 0 and d <= 48]
    moduli = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=10))
    classes = [(draw(st.integers(0, n - 1)), n) for n in moduli]
    if draw(st.booleans()):
        base = draw(st.sampled_from([FIVE, THIRTEEN]))
        a = draw(st.sampled_from([u for u in range(base.lcm) if math.gcd(u, base.lcm) == 1]))
        image = list(affine_transform(base, a, draw(st.integers(0, base.lcm - 1))).classes)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(image) - 1))
            n = image[i].modulus
            image[i] = ResidueClass(draw(st.integers(0, n - 1)), n)
        classes = image + classes[: draw(st.integers(0, 3))]
    return CoveringSystem(classes)


class TestResidueClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueClass(2, 2)
        with pytest.raises(ValueError):
            ResidueClass(-1, 3)
        with pytest.raises(ValueError):
            ResidueClass(0, 0)
        assert ResidueClass(0, 1).covers(123)
        assert str(ResidueClass(7, 12)) == "7(12)"

    def test_parse_and_serialize(self):
        text = "0(2),0(3),1(4),5(6),7(12)"
        system = CoveringSystem.parse(text)
        assert str(system) == text
        assert system.lcm == 12
        assert system.moduli == (2, 3, 4, 6, 12)
        assert CoveringSystem.from_json(system.to_json()) == system
        with pytest.raises(ValueError):
            CoveringSystem.parse("0(2),nope")
        with pytest.raises(ValueError):
            CoveringSystem(())


class TestVerifyCover:
    def test_stock_systems(self):
        assert verify_cover(FIVE) == (True, None)
        assert verify_cover(THIRTEEN) == (True, None)
        assert THIRTEEN.lcm == 240

    def test_small_examples(self):
        assert verify_cover(CoveringSystem.parse("0(2),1(2)")) == (True, None)
        assert verify_cover(CoveringSystem.parse("0(1)")) == (True, None)
        assert verify_cover(CoveringSystem.parse("0(2),1(4)")) == (False, 3)

    def test_dropping_a_class_breaks_thirteen(self):
        classes = [c for c in THIRTEEN.classes if (c.residue, c.modulus) != (0, 48)]
        ok, witness = verify_cover(CoveringSystem(classes))
        assert not ok and witness == 0

    def test_matches_numpy_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            classes = [
                ResidueClass(rng.randrange(n), n)
                for n in (rng.choice(range(1, 13)) for _ in range(rng.randrange(1, 6)))
            ]
            system = CoveringSystem(classes)
            assert verify_cover(system) == numpy_is_cover(system)

    @settings(max_examples=300, deadline=None)
    @given(random_systems())
    @example(FIVE)
    @example(THIRTEEN)
    @example(CoveringSystem.parse("0(2),1(4),3(8),7(16),15(32),31(64),63(128),127(256)"))
    @example(CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12),11(5040)"))
    def test_property_matches_numpy_oracle(self, system):
        assert verify_cover(system) == numpy_is_cover(system)

    def test_period_budget(self):
        assert verify_cover(CoveringSystem([(1, MAX_PERIOD)])) == (False, 0)
        # density at least 1 and a period over MAX_PERIOD: no window to scan
        big = CoveringSystem.parse("0(2),1(2),0(997),0(991),0(983),0(977)")
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="period"):
            verify_cover(big)
        assert time.perf_counter() - start < 1.0

    def test_sparse_system_beyond_the_period_budget(self):
        # density about 0.004: the witness lies below 4 // (1 - density) + 1 = 5
        sparse = CoveringSystem.parse("0(997),0(991),0(983),0(977)")
        assert sparse.lcm > MAX_PERIOD
        start = time.perf_counter()
        assert verify_cover(sparse) == (False, 1)
        # a class starting past the window is not shifted into place
        far = CoveringSystem.parse("0(3),1(3),99999999999(100000000000)")
        assert verify_cover(far) == (False, 2)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(random_systems(), st.integers(1, 64))
    def test_density_window_matches_numpy_oracle(self, system, budget):
        # with the period budget lowered, a system of density below 1 is
        # still answered from the first t // (1 - density) + 1 integers
        density = sum(Fraction(1, n) for n in system.moduli)
        window = system.lcm
        if density < 1:
            window = min(window, len(system.classes) // (1 - density) + 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(covering, "MAX_PERIOD", budget)
            if window > budget:
                with pytest.raises(BudgetExceeded):
                    verify_cover(system)
            else:
                assert verify_cover(system) == numpy_is_cover(system)


class TestSplitClass:
    def test_examples(self):
        out = split_class(ResidueClass(0, 16), 3)
        assert [(c.residue, c.modulus) for c in out] == [(0, 48), (16, 48), (32, 48)]
        out = split_class(ResidueClass(9, 12), 5)
        assert [(c.residue, c.modulus) for c in out] == [
            (9, 60), (21, 60), (33, 60), (45, 60), (57, 60)]
        assert split_class(ResidueClass(0, 1), 2) == [ResidueClass(0, 2), ResidueClass(1, 2)]
        with pytest.raises(ValueError):
            split_class(ResidueClass(0, 2), 0)

    def test_disjoint_union(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(1, 20)
            cls = ResidueClass(rng.randrange(n), n)
            factor = rng.randrange(1, 6)
            pieces = split_class(cls, factor)
            period = n * factor
            members = [x for x in range(period) if cls.covers(x)]
            covered = [x for x in range(period) if any(p.covers(x) for p in pieces)]
            assert covered == members
            counts = [sum(p.covers(x) for p in pieces) for x in members]
            assert all(c == 1 for c in counts)


class TestAffineTransform:
    def test_examples(self):
        two = CoveringSystem.parse("0(2),1(2)")
        assert affine_transform(two, 1, 1) == CoveringSystem.parse("1(2),0(2)")
        assert affine_transform(two, 1, 0) == two
        image = affine_transform(FIVE, 5, 1)
        assert image.residues == (1, 1, 0, 2, 6)
        assert verify_cover(image) == (True, None)

    def test_requires_unit_multiplier(self):
        with pytest.raises(NotCoprime):
            affine_transform(FIVE, 2, 0)
        with pytest.raises(NotCoprime):
            affine_transform(FIVE, 0, 3)

    def test_preserves_covering_and_inverts(self):
        rng = random.Random(31)
        covers = enumerate_covers([2, 4, 4])
        for system in covers:
            L = system.lcm
            for _ in range(10):
                a = rng.randrange(1, L)
                if math.gcd(a, L) != 1:
                    continue
                b = rng.randrange(L)
                image = affine_transform(system, a, b)
                assert verify_cover(image) == (True, None)
                # x -> a*x + b pulled back, then pushed forward again
                back = affine_transform(image, pow(a, -1, L), (-pow(a, -1, L) * b) % L)
                assert back == system


class TestSwap:
    def test_example(self):
        system = CoveringSystem.parse("0(3),0(4),2(4),1(6),5(6)")
        swapped = swap_equal_moduli(system, 1, 2)
        assert swapped == CoveringSystem.parse("0(3),2(4),0(4),1(6),5(6)")
        assert verify_cover(swapped) == (True, None)
        assert swap_equal_moduli(swapped, 1, 2) == system

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            swap_equal_moduli(FIVE, 0, 1)
        with pytest.raises(IndexError):
            swap_equal_moduli(FIVE, 0, 9)


class TestEnumerateCovers:
    def test_two_halves(self):
        covers = enumerate_covers([2, 2])
        assert [c.residues for c in covers] == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("moduli", [(3, 4, 6, 6, 8, 8), (6, 6, 4, 4, 3), (8, 3, 6, 4, 8, 6), (2, 2)])
    def test_covers_keep_the_given_moduli_order(self, moduli):
        covers = enumerate_covers(moduli)
        assert covers
        assert all(c.moduli == moduli for c in covers)

    def test_density_below_one_short_circuits(self):
        assert enumerate_covers([2, 3]) == []
        assert enumerate_covers([3, 4, 5, 6]) == []

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_covers([2] * 25, max_assignments=1000)
        with pytest.raises(ValueError):
            enumerate_covers([])

    @pytest.mark.parametrize("limit", [0, -1])
    def test_nonpositive_budget_is_malformed(self, limit):
        # an argument error, not an exhausted budget; even where nothing can cover
        for moduli in ([2, 2], [2, 3]):
            with pytest.raises(ValueError, match="max_assignments"):
                enumerate_covers(moduli, max_assignments=limit)

    def test_complete_against_brute_force(self):
        for moduli in ([2, 2], [2, 4, 4], [2, 3, 6], [1, 5]):
            found = {c.residues for c in enumerate_covers(moduli)}
            for residues in itertools.product(*(range(n) for n in moduli)):
                system = CoveringSystem(zip(residues, moduli))
                assert (residues in found) == verify_cover(system)[0]

    def test_every_output_verifies_and_is_ordered(self):
        covers = enumerate_covers([3, 4, 4, 6, 6])
        assert len(covers) == 24
        tuples = [c.residues for c in covers]
        assert tuples == sorted(tuples)
        for c in covers:
            assert c.moduli == (3, 4, 4, 6, 6)
            assert verify_cover(c) == (True, None)

    def test_base127_cover_present(self):
        covers = enumerate_covers([3, 4, 6, 6, 8, 8])
        assert len(covers) == 48
        assert any(c.residues == (1, 1, 0, 2, 3, 7) for c in covers)

    @pytest.mark.parametrize("moduli", [(2, 2), (3, 4, 4, 6, 6), (8, 3, 6, 4, 8, 6), (2, 3, 4, 5, 6, 8, 10, 12)])
    def test_systems_equal_checked_construction(self, moduli):
        # the rows' systems skip CoveringSystem.__init__; == and hash must not notice
        rows = enumerate_cover_rows(moduli)
        covers = enumerate_covers(moduli)
        checked = [CoveringSystem(zip(row, moduli)) for row in rows]
        assert [c.residues for c in covers] == rows
        assert covers == checked
        assert [hash(c) for c in covers] == [hash(c) for c in checked]
        assert [c.lcm for c in covers] == [math.lcm(*moduli)] * len(rows)

    def test_rows_share_the_checks(self):
        assert enumerate_cover_rows([2, 3]) == []
        with pytest.raises(BudgetExceeded):
            enumerate_cover_rows([2] * 25, max_assignments=1000)
        with pytest.raises(BudgetExceeded):
            enumerate_cover_rows([2] * 65, max_assignments=2**70)
        for bad in ([], [2, 0]):
            with pytest.raises(ValueError):
                enumerate_cover_rows(bad)
        with pytest.raises(ValueError, match="max_assignments"):
            enumerate_cover_rows([2, 2], max_assignments=0)

    @pytest.mark.parametrize("row", [(0, 2), (0, -1), (0,), (0, 1, 0)])
    def test_systems_from_malformed_rows(self, row):
        with pytest.raises(ValueError):
            covering.systems_from_rows([row], (2, 2))

class TestAffineOrbit:
    def test_two_class_orbit(self):
        orbit = affine_orbit(CoveringSystem.parse("0(2),1(2)"))
        assert {c.residues for c in orbit} == {(0, 1), (1, 0)}

    def test_rejects_non_cover_seed(self):
        with pytest.raises(ValueError, match="uncovered"):
            affine_orbit(CoveringSystem.parse("0(2),1(4)"))

    def test_orbit_members_are_covers_and_closed(self):
        seed = CoveringSystem.parse("0(2),1(4),3(4)")
        orbit = affine_orbit(seed)
        everything = {c.residues for c in enumerate_covers([2, 4, 4])}
        for member in orbit:
            assert verify_cover(member) == (True, None)
            assert member.residues in everything
        # closure: one more transform never leaves the set
        for member in sorted(orbit, key=lambda c: c.residues)[:5]:
            assert affine_transform(member, 3, 1) in orbit
            assert swap_equal_moduli(member, 1, 2) in orbit

    @pytest.mark.parametrize("text", [
        "0(2),1(2)",
        "0(1)",
        "0(2),1(4),3(4)",
        "0(3),2(4),1(6),5(6),4(8),0(8)",
        "0(2),0(3),1(4),5(6),7(12)",
        "0(2),1(2),1(4),0(4)",
        "0(3),1(3),2(3),0(3)",
    ])
    def test_matches_bfs_reference(self, text):
        seed = CoveringSystem.parse(text)
        orbit = affine_orbit(seed)
        assert {c.residues for c in orbit} == bfs_orbit(seed)
        assert all(c.moduli == seed.moduli for c in orbit)

    def test_mersenne_cover_orbit(self):
        start = time.perf_counter()
        orbit = affine_orbit(MERSENNE_COVER)
        elapsed = time.perf_counter() - start
        assert len(orbit) == 3840
        assert MERSENNE_COVER in orbit
        assert elapsed < 5.0

    def test_budget(self, monkeypatch):
        big = CoveringSystem.parse("0(2),1(2),0(997),0(991),0(983),0(977)")
        with pytest.raises(BudgetExceeded):
            affine_orbit(big)
        # 3,4,6,6,8,8: L * phi(L) = 24 * 8 images, times 2! * 2! permutations
        seed = CoveringSystem.parse("0(3),2(4),1(6),5(6),4(8),0(8)")
        monkeypatch.setattr(covering, "DEFAULT_MAX_ASSIGNMENTS", 768)
        assert len(affine_orbit(seed)) == 48
        monkeypatch.setattr(covering, "DEFAULT_MAX_ASSIGNMENTS", 767)
        with pytest.raises(BudgetExceeded, match="orbit work 768"):
            affine_orbit(seed)
