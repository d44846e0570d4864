"""Covering kernel: residue classes over one period as int bitsets.

Over a period L that every modulus divides, the class a(n) is the L-bit
integer with bits a, a + n, a + 2n, ... set, i.e. comb(n, L) << a. A set
of classes covers Z exactly when the OR of their masks has all L bits.
"""

from __future__ import annotations

import functools
import math

# Combs over periods up to this many bits are cached (at most 8 KiB each).
_CACHED_PERIOD = 1 << 16


def _build_comb(n: int, L: int) -> int:
    bits, width = 1, n
    while width < L:
        bits |= bits << width
        width <<= 1
    return bits & ((1 << L) - 1)


_cached_comb = functools.lru_cache(maxsize=1024)(_build_comb)


def comb(n: int, L: int) -> int:
    """The mask of 0(n) over [0, L): bits 0, n, 2n, ... below L."""
    return _cached_comb(n, L) if L <= _CACHED_PERIOD else _build_comb(n, L)


def enumerate_cover_tuples(moduli) -> list[tuple[int, ...]]:
    """Residue tuples (one entry per class) whose classes cover [0, L).

    Depth-first search over residues in ascending order, so rows come out
    in lexicographic order. A branch is pruned when more positions are
    uncovered than the remaining classes can cover in total.
    """
    moduli = [int(n) for n in moduli]
    L = math.lcm(*moduli)
    full = (1 << L) - 1
    t = len(moduli)
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
            # only the class holding the lowest gap can close the rest
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
