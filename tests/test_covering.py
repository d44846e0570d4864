"""Covering systems: verification, enumeration, orbit closure."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sierpinski import _cover_kernels, covering
from sierpinski.construct import BASE2_COVER, GENERIC_COVER, MERSENNE_COVER
from sierpinski.covering import (
    MAX_PERIOD,
    BudgetExceeded,
    CoveringSystem,
    ResidueClass,
    affine_orbit,
    enumerate_cover_rows,
    enumerate_covers,
    verify_cover,
)
from sierpinski.search import SearchConfig, search_min

FIVE = CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12)")
THIRTEEN = CoveringSystem.parse(
    "2(4),4(8),8(16),8(24),0(48),1(3),5(6),3(12),1(5),7(10),3(15),9(20),15(30)"
)


def affine_image(system, a, b):
    # pulled back along x -> a*x + b: a*x + b lies in r(n) exactly when x lies in a^-1*(r - b) (n)
    return CoveringSystem(((r - b) * pow(a, -1, n) % n, n) for r, n in zip(system.residues, system.moduli))


def swap(system, i, j):
    # the residues of positions i and j, of equal modulus, exchanged
    residues = list(system.residues)
    residues[i], residues[j] = residues[j], residues[i]
    return CoveringSystem(zip(residues, system.moduli))


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


def reference_enumerate_cover_tuples(moduli):
    """enumerate_cover_tuples as it was before the two-class close: a DFS
    over every class, with the lowest-gap rule at the last level only."""
    moduli = [int(n) for n in moduli]
    L = math.lcm(*moduli)
    full = (1 << L) - 1
    t = len(moduli)
    comb = _cover_kernels.combs_over(L)
    combs = [comb(n, L) for n in moduli]
    caps = [0] * (t + 1)
    for s in range(t - 1, -1, -1):
        caps[s] = caps[s + 1] + L // moduli[s]
    rows = []
    prefix = [0] * t
    last, n_last = t - 1, moduli[-1]

    def extend(s, acc):
        gaps = full ^ acc
        if s == last:
            if not gaps:
                rows.extend((*prefix[:last], r) for r in range(n_last))
                return
            r = ((gaps & -gaps).bit_length() - 1) % n_last
            if not gaps & ~(combs[last] << r):
                rows.append((*prefix[:last], r))
            return
        cap, bits = caps[s + 1], combs[s]
        for r in range(moduli[s]):
            mask = bits << r
            if (gaps & ~mask).bit_count() <= cap:
                prefix[s] = r
                extend(s + 1, acc | mask)

    extend(0, 0)
    return rows


def kernel_rows(moduli):
    return _cover_kernels.enumerate_cover_tuples(moduli)


def brute_cover_tuples(moduli):
    # every residue row, in itertools.product order, whose classes fill one period
    L = math.lcm(*moduli)
    masks = [[sum(1 << i for i in range(r, L, n)) for r in range(n)] for n in moduli]
    full = (1 << L) - 1
    rows = []
    for row in itertools.product(*(range(n) for n in moduli)):
        acc = 0
        for ms, r in zip(masks, row):
            acc |= ms[r]
        if acc == full:
            rows.append(row)
    return rows


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
        image = list(affine_image(base, a, draw(st.integers(0, base.lcm - 1))).classes)
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
        assert str(ResidueClass(7, 12)) == "7(12)"

    def test_parse_and_serialize(self):
        text = "0(2),0(3),1(4),5(6),7(12)"
        system = CoveringSystem.parse(text)
        assert str(system) == text
        assert system.lcm == 12
        assert system.moduli == (2, 3, 4, 6, 12)
        assert system.to_json() == [{"a": 0, "n": 2}, {"a": 0, "n": 3}, {"a": 1, "n": 4}, {"a": 5, "n": 6}, {"a": 7, "n": 12}]
        with pytest.raises(ValueError):
            CoveringSystem.parse("0(2),nope")
        with pytest.raises(ValueError, match="at least one class"):
            CoveringSystem(())


class TestIntegerInput:
    """Cover input takes what operator.index takes; anything else is refused, not truncated."""

    NON_INTEGERS = [(0, 1.5), (0.5, 2), (1.0, 2), (0, "2"), (Fraction(1), 2)]

    @pytest.mark.parametrize("a, n", NON_INTEGERS)
    def test_residue_class(self, a, n):
        with pytest.raises(ValueError):
            ResidueClass(a, n)

    @pytest.mark.parametrize("a, n", NON_INTEGERS)
    def test_covering_system(self, a, n):
        # 0(1.5) must not pass as the cover 0(1)
        with pytest.raises(ValueError):
            CoveringSystem([(a, n)])
        with pytest.raises(ValueError):
            CoveringSystem([(0, 2), (a, n)])

    @pytest.mark.parametrize("moduli", [(1.5, 2), (2, 2.0), ("2", "2")])
    def test_enumeration_moduli(self, moduli):
        with pytest.raises(ValueError):
            enumerate_cover_rows(moduli)
        with pytest.raises(ValueError):
            enumerate_covers(moduli)

    def test_index_types_become_ints(self):
        system = CoveringSystem([(np.int64(1), np.int64(2)), (False, True + 1)])
        assert system == CoveringSystem.parse("1(2),0(2)")
        assert all(type(x) is int for x in system.residues + system.moduli)
        assert enumerate_covers(np.array([2, 2])) == enumerate_covers([2, 2])


class TestResidueRow:
    """CoveringSystem stores its residue row and moduli; classes and lcm derive from them."""

    @settings(max_examples=200, deadline=None)
    @given(random_systems())
    def test_every_construction_agrees(self, s):
        same = [
            CoveringSystem(s.classes),
            CoveringSystem(zip(s.residues, s.moduli)),
            CoveringSystem.parse(str(s)),
            covering.systems_from_rows([s.residues], s.moduli)[0],
        ]
        for other in same:
            assert other == s
            assert hash(other) == hash(s)
        assert s.classes == tuple(ResidueClass(a, n) for a, n in zip(s.residues, s.moduli))
        assert s.lcm == math.lcm(*s.moduli)

    @pytest.mark.parametrize("a, n", [(0, 0), (-1, 3), (3, 3)])
    def test_class_errors_match_residue_class(self, a, n):
        with pytest.raises(ValueError) as expected:
            ResidueClass(a, n)
        with pytest.raises(ValueError) as caught:
            CoveringSystem([(0, 2), (a, n)])
        assert str(caught.value) == str(expected.value)

    @staticmethod
    def assert_checked_rows(systems):
        # systems_from_rows checks nothing, so the rows it is given must pass CoveringSystem(...)'s checks
        systems = list(systems)
        assert systems
        for s in systems:
            assert s == CoveringSystem(zip(s.residues, s.moduli))
            assert all(type(a) is int and 0 <= a < n for a, n in zip(s.residues, s.moduli))

    @pytest.mark.parametrize("seed", [
        CoveringSystem.parse("0(3),2(4),1(6),5(6),4(8),0(8)"),  # the README's repaired cover
        GENERIC_COVER,
        BASE2_COVER,
        MERSENNE_COVER,
    ], ids=["readme", "generic", "base2", "mersenne"])
    def test_orbit_rows_pass_the_checks(self, seed):
        self.assert_checked_rows(affine_orbit(seed))

    def test_search_cell_rows_pass_the_checks(self):
        report = search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8)))
        self.assert_checked_rows(cell.cover for cell in report.candidates)


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


class TestAffineTransform:
    def test_examples(self):
        two = CoveringSystem.parse("0(2),1(2)")
        assert affine_image(two, 1, 1) == CoveringSystem.parse("1(2),0(2)")
        assert affine_image(two, 1, 0) == two
        image = affine_image(FIVE, 5, 1)
        assert image.residues == (1, 1, 0, 2, 6)
        assert verify_cover(image) == (True, None)

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
                image = affine_image(system, a, b)
                assert verify_cover(image) == (True, None)
                # x -> a*x + b pulled back, then pushed forward again
                back = affine_image(image, pow(a, -1, L), (-pow(a, -1, L) * b) % L)
                assert back == system


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


def seeded_multisets(count=200):
    # t 1-6, moduli 1-12 with repeats, prod(n) <= 20,000
    rng = random.Random(2021)
    while count:
        moduli = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        if math.prod(moduli) <= 20_000:
            yield moduli
            count -= 1


class TestCoverKernel:
    def test_seeded_multisets_match_brute_force(self):
        for moduli in seeded_multisets():
            assert kernel_rows(moduli) == brute_cover_tuples(moduli), moduli

    @pytest.mark.parametrize("moduli, rows", [
        ((1,), [(0,)]),
        ((5,), []),
        ((2, 2), [(0, 1), (1, 0)]),
        ((2, 3), []),
        ((1, 1), [(0, 0)]),
        # modulus 1 in the pair: it alone closes the rest
        ((2, 1), [(0, 0), (1, 0)]),
        ((1, 3), [(0, 0), (0, 1), (0, 2)]),
        ((2, 2, 1), [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]),
        ((2, 1, 2), [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]),
        # the prefix already covers everything: every pair closes
        ((1, 2, 3), [(0, a, b) for a in range(2) for b in range(3)]),
        ((2, 2, 3, 4), [(*p, a, b) for p in ((0, 1), (1, 0)) for a in range(3) for b in range(4)]),
    ])
    def test_named_cases(self, moduli, rows):
        assert kernel_rows(moduli) == rows
        assert brute_cover_tuples(moduli) == rows

    @pytest.mark.parametrize("moduli, count", [
        ((2, 3, 4, 5, 6, 8, 10, 12), 9600),
        ((3, 4, 4, 6, 6, 8, 8), 1776),
        ((3, 4, 6, 6, 8, 8, 12), 576),
        ((2, 3, 4, 4, 5, 6, 7, 8, 8), 186_480),
    ])
    def test_identical_to_reference(self, moduli, count):
        rows = kernel_rows(moduli)
        assert len(rows) == count
        assert rows == reference_enumerate_cover_tuples(moduli)

    @pytest.mark.parametrize("moduli", [(3, 3, 3, 3, 3, 3), (2, 4, 4, 4, 4), (2, 2, 3, 3, 6, 6)])
    def test_shared_gap_sets_match_brute_force(self, moduli):
        # most prefixes leave a gap set that another prefix left already
        rows = kernel_rows(moduli)
        assert rows
        assert rows == brute_cover_tuples(moduli)

    def test_calls_share_no_rows_list(self):
        moduli = (2, 2, 3, 3, 6, 6)
        first, second = kernel_rows(moduli), kernel_rows(moduli)
        assert first == second
        expected = list(second)
        first.clear()
        assert second == expected == kernel_rows(moduli)


class TestCoversFromKernel:
    """enumerate_covers wraps the kernel's residue rows as they come, into the
    systems that CoveringSystem(...) builds from them with its checks."""

    @staticmethod
    def assert_same_systems(moduli):
        covers = enumerate_covers(moduli)
        rebuilt = [CoveringSystem(zip(row, moduli)) for row in enumerate_cover_rows(moduli)]
        assert covers == rebuilt, moduli
        assert [hash(c) for c in covers] == [hash(c) for c in rebuilt]
        assert [repr(c) for c in covers] == [repr(c) for c in rebuilt]
        return covers

    @pytest.mark.parametrize("moduli, count", [
        ((2, 3, 4, 5, 6, 8, 10, 12), 9600),
        ((3, 4, 4, 6, 6, 8, 8), 1776),
        ((3, 4, 6, 6, 8, 8, 12), 576),
        ((2, 3, 4, 4, 5, 6, 7, 8, 8), 186_480),
    ])
    def test_named_moduli_match_systems_from_rows(self, moduli, count):
        assert len(self.assert_same_systems(moduli)) == count

    def test_seeded_multisets_match_systems_from_rows(self):
        for moduli in seeded_multisets():
            self.assert_same_systems(moduli)

    @pytest.mark.parametrize("moduli, limit", [
        ([], 1000),
        ([2, 0], 1000),
        ([2, -1], 1000),
        ([2, 2], 0),
        ([2] * 25, 1000),
        ([2] * 65, 2**70),
        # density below 1: no cover, before the space is weighed against the budget
        ([2, 3], 1000),
        ([100, 100, 100], 10),
    ])
    def test_bad_input_as_rows(self, moduli, limit):
        try:
            expected = enumerate_cover_rows(moduli, max_assignments=limit)
        except (ValueError, BudgetExceeded) as exc:
            with pytest.raises(type(exc)) as caught:
                enumerate_covers(moduli, max_assignments=limit)
            assert str(caught.value) == str(exc)
        else:
            assert expected == []
            assert enumerate_covers(moduli, max_assignments=limit) == []

    def test_peak_memory(self):
        moduli = (2, 3, 4, 5, 6, 8, 10, 12)
        enumerate_covers(moduli)  # fill the comb cache first
        tracemalloc.start()
        try:
            covers = enumerate_covers(moduli)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(covers) == 9600
        # the covers as residue rows first, then as slotted systems, peaked at 1.82 MB
        assert peak < 2_000_000


class TestSlottedSystem:
    """CoveringSystem keeps its two fields in slots and stays frozen."""

    ENUMERATED = enumerate_covers((3, 4, 4, 6, 6, 8, 8))[100]

    @pytest.mark.parametrize("system", [FIVE, ENUMERATED])
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_are_equal(self, system, clone):
        twin = clone(system)
        assert twin is not system
        assert twin == system
        assert hash(twin) == hash(system)
        assert (twin.residues, twin.moduli) == (system.residues, system.moduli)

    @pytest.mark.parametrize("system", [FIVE, ENUMERATED])
    def test_frozen(self, system):
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.residues = (0,) * len(system.moduli)

    @pytest.mark.parametrize("system", [FIVE, ENUMERATED])
    def test_no_instance_dict(self, system):
        assert not hasattr(system, "__dict__")

    def test_three_constructions_agree(self):
        row, moduli = (0, 0, 1, 5, 7), (2, 3, 4, 6, 12)
        built = CoveringSystem(zip(row, moduli))
        parsed = CoveringSystem.parse("0(2),0(3),1(4),5(6),7(12)")
        (wrapped,) = covering.systems_from_rows([row], moduli)
        assert built == parsed == wrapped
        assert hash(built) == hash(parsed) == hash(wrapped)
        assert repr(built) == repr(parsed) == repr(wrapped)


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
            assert affine_image(member, 3, 1) in orbit
            assert swap(member, 1, 2) in orbit

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
