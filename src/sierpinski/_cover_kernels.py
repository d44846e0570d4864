"""Covering kernel: residue classes over one period as int bitsets.

Over a period L that every modulus divides, the class a(n) is the L-bit
integer with bits a, a + n, a + 2n, ... set, i.e. comb(n, L) << a. A set
of classes covers Z exactly when the OR of their masks has all L bits.
Enumeration searches the first t - 2 classes depth first, closes the last
two from the lowest uncovered bit, once per distinct gap set in a call, and
emits each cover as its residue row.
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


def combs_over(L: int):
    """For period L, the function (n, L) -> comb(n, L), the mask of 0(n) over
    [0, L): the LRU cache itself up to _CACHED_PERIOD bits, else the builder.
    A loop over one period's classes takes it once and calls it per class."""
    return _cached_comb if L <= _CACHED_PERIOD else _build_comb


def enumerate_cover_tuples(moduli) -> list[tuple[int, ...]]:
    """The residue rows (r_1, ..., r_t) whose classes r_i(n_i) cover [0, L).

    Depth-first search over the residues of the first t - 2 classes in
    ascending order, pruning a branch once more positions are uncovered
    than the remaining classes can cover in total. The last two classes
    u, v are solved from the lowest gap g: one of them holds g, so either
    r_u = g mod n_u and the lowest gap that class leaves fixes r_v, or
    r_v = g mod n_v and the lowest gap that class leaves fixes r_u. Each
    candidate pair is checked with one AND-NOT. Many prefixes leave the
    same gap set, so the closing pairs of each are computed once and kept
    for the rest of this call only. Rows come out in lexicographic order,
    one int tuple each. The moduli are as enumerate_cover_rows checked
    them: a nonempty sequence of positive ints.
    """
    L = math.lcm(*moduli)
    t = len(moduli)
    if t == 1:
        # one class covers Z only with modulus 1
        return [(0,)] if L == 1 else []
    comb = combs_over(L)
    combs = [comb(n, L) for n in moduli]
    caps = [0] * (t + 1)
    for s in range(t - 1, -1, -1):
        caps[s] = caps[s + 1] + L // moduli[s]
    rows = []
    pair = t - 2
    prefix = [0] * pair
    n_u, n_v = moduli[pair], moduli[-1]
    masks_u = [combs[pair] << r for r in range(n_u)]
    masks_v = [combs[-1] << r for r in range(n_v)]

    def close(gaps):
        if not gaps:
            return [(x, y) for x in range(n_u) for y in range(n_v)]
        g = (gaps & -gaps).bit_length() - 1
        a, b = g % n_u, g % n_v
        # pairs (x, b) with x != a: v holds g and u closes what b leaves;
        # those with x < a come before the pairs (a, y), the rest after
        rest = gaps & ~masks_v[b]
        if not rest:
            xs = range(n_u)
        else:
            x = ((rest & -rest).bit_length() - 1) % n_u
            xs = () if rest & ~masks_u[x] else (x,)
        pairs = [(x, b) for x in xs if x < a]
        # pairs (a, y): u holds g and v closes what a leaves
        rest = gaps & ~masks_u[a]
        if not rest:
            pairs.extend((a, y) for y in range(n_v))
        else:
            y = ((rest & -rest).bit_length() - 1) % n_v
            if not rest & ~masks_v[y]:
                pairs.append((a, y))
        pairs.extend((x, b) for x in xs if x > a)
        return pairs or ()

    # the pairs that close each gap set, computed once per call; () when none do
    closed = {}

    def extend(s, gaps):
        if s == pair:
            pairs = closed.get(gaps)
            if pairs is None:
                pairs = closed[gaps] = close(gaps)
            if pairs:
                head = tuple(prefix)
                rows.extend([head + p for p in pairs])
            return
        cap, bits = caps[s + 1], combs[s]
        for r in range(moduli[s]):
            rest = gaps & ~(bits << r)
            if rest.bit_count() <= cap:
                prefix[s] = r
                extend(s + 1, rest)

    extend(0, (1 << L) - 1)
    return rows
