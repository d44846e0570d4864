"""The workloads: seeded inputs, the operations, and their gates.

Each workload turns a seed into a list of Ops. An Op issues one call
sequence into the package's public functions, looked up on the layer
modules at call time so the traced run can rebind them. `summarize`
reduces the output to a comparable value, and `check` judges that value
with the independent checks in oracle.py.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import oracle

L = SimpleNamespace(
    **{
        name: importlib.import_module(f"sierpinski.{name}")
        for name in ("construct", "covering", "search", "cli")
    }
)


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], str | None]
    tag: str = ""


def _sampler(seed, size):
    """Picks `size` records whose per-n claims are checked term by term."""
    rng = random.Random(f"sample:{seed}")

    def sample(records):
        open_claims = [r for r in records if r[1] != "trivial"]
        return rng.sample(open_claims, min(size, len(open_claims)))

    return sample


# --- construct --------------------------------------------------------------
# A base sweep, as a conjectures project runs it: a seeded sample of generic
# bases plus every base 2**l - 1 (the 13-class cover, whose cyclotomic values
# need Brent rho). 2**13 - 1 = 8191 is the first that exceeds the default
# FactorBudget, so the list stops at 4095. 2047 is left out: at 5-6 s it
# would be three quarters of a pass and leave too few repetitions per run to
# be steady on a shared host.
# The sample size puts the 95th percentile among the 2**l - 1 bases (10 of
# 80 operations, led by 4095, then 1023, 511, 255 and 127 at 45-70 ms each
# on 2 cores) and the median among the generic ones. With 300 generic bases
# the 95th percentile fell on the sparse edge between both kinds and swung by
# 30% from run to run.
MERSENNE_BASES = tuple(2**l - 1 for l in range(2, 13) if l != 11)
CONSTRUCT_SAMPLE = 70
CONSTRUCT_RANGE = (3, 20000)
VARIANTS = ("sierpinski", "riesel")


def _construct_op(m: int, variant: str, tag: str) -> Op:
    def call():
        cert = L.construct.construct(m, variant)
        return cert, L.construct.verify_certificate(cert)

    def summarize(out):
        cert, verdict = out
        return (cert.base, cert.variant, cert.k, tuple(cert.entries),
                tuple(cert.triviality_primes), tuple(verdict))

    def check(s):
        base, v, k, entries, qs, verdict = s
        if verdict != (True, None):
            return f"verify_certificate rejected it: {verdict}"
        if (base, v) != (m, variant):
            return f"certificate is for base {base} ({v})"
        return oracle.certificate_error(m, k, entries, variant, qs)

    return Op(f"construct {m} {variant}", call, summarize, check, tag)


def construct_ops(seed: int) -> list[Op]:
    rng = random.Random(f"construct:{seed}")
    lo, hi = CONSTRUCT_RANGE
    generic = rng.sample([m for m in range(lo, hi + 1) if (m + 1) & m], CONSTRUCT_SAMPLE)
    bases = [(m, "generic") for m in generic] + [(m, "mersenne") for m in MERSENNE_BASES]
    rng.shuffle(bases)
    return [_construct_op(m, rng.choice(VARIANTS), tag) for m, tag in bases]


# --- search -----------------------------------------------------------------
# (base, moduli, minimum recorded when this benchmark was added)
STOCK_SEARCHES = (
    (127, (3, 4, 6, 6, 8, 8, 12), 5390467794624),
    (127, (3, 4, 6, 6, 8, 8), 11254645362),
)
SEEDED_MODULI = (3, 4, 6, 6, 8, 8)
# The 205 bases <= 400 other than 127 whose prime pool fills 3,4,6,6,8,8 (one
# prime of order 3 and of order 4, two of orders 6 and 8; test_bench.py
# derives the set again with sympy), each with its minimum nontrivial k,
# both recorded when the benchmark was added. They are listed by their
# search_min time, cheapest first (0.05 s to 0.9 s on 2 cores). The seed
# draws one base from each quarter of the middle third (0.3 s to 0.45 s):
# every seed then gets the same mix of costs, so neither the pass time nor
# the median operation swings with the draw.
POOL_FILLING_MINIMA = {
    10: 62207001, 31: 335031910, 12: 50349114, 85: 113954504463472, 43: 118850742,
    27: 27930316662, 49: 3928688653626, 37: 455010772, 40: 203645135468914,
    45: 2438665018802, 36: 416216305072, 33: 37776353276, 121: 979579635424920,
    301: 205587206770409218, 30: 1041379862, 181: 895546118093409498,
    361: 94621871922616, 141: 111613238191683382868, 26: 84865611190,
    391: 114302855087376254242, 351: 447202852737369173338, 69: 478884051653838,
    99: 2222409744595542, 211: 718274838352746, 97: 275668243894164,
    109: 6267464133796, 133: 6856600679824, 145: 134067762058518340,
    175: 144289602509062967842, 187: 56378893956782944, 75: 4973250913942,
    271: 1522141806624864118, 89: 350624240582170, 295: 8774877816006046,
    135: 4218335150154, 231: 70511076024170973060, 235: 308384606292312,
    241: 111757369658820, 385: 18390072734902519230, 59: 321911803578, 331: 2485390102,
    157: 1775471474318196, 319: 526006737990222, 52: 939802056664,
    131: 5381349135470159676, 101: 6038109919738016, 47: 1342840000,
    201: 154456807078309280, 64: 516170044, 66: 159486886970, 325: 136944642992242,
    225: 5358927919945258, 209: 735671632338288474704, 93: 105367518674,
    217: 86503080911998, 155: 6488183120951578, 286: 28096641079663104166,
    261: 17545938820468938, 87: 166621191308, 265: 2593470396194588806,
    307: 3730061034817194, 346: 22597167227219395, 147: 26785673652, 38: 116380397389,
    117: 1262210060145276, 329: 73676224363064026261102, 95: 41925061554,
    183: 270648556664918, 239: 151469871480, 321: 40178291202, 357: 553971471327672,
    277: 1016858035041616, 50: 8236667812713, 166: 77156096033116, 107: 5544517502,
    159: 205286452123672, 375: 41904602562598118664, 143: 583415808676662,
    196: 131392300905, 229: 1544587572, 130: 18427956544356964, 369: 55139096671829708,
    173: 49808249593938, 311: 3983064396172142, 256: 4675895897449928590,
    367: 2741270252926, 221: 5026713556436, 136: 7789128010, 223: 3939432815886,
    124: 8848274195312435584, 123: 484657950892, 197: 26481473539426,
    94: 202763579985828, 253: 3809515048, 365: 6152048192516090, 341: 9904005960,
    126: 300229957858, 213: 25289376139072, 347: 86331389788948,
    215: 501323532912321522, 249: 875478708, 161: 11939310668, 185: 3295107386,
    373: 1828174879074, 184: 375536483882525481, 323: 551169642227916,
    283: 3971450601312, 96: 98775123, 293: 106515606558724714, 316: 299242723348096830,
    179: 10712075240, 397: 27486537360774, 376: 33006829931900130132,
    269: 386573137086260, 250: 417837163119582561, 400: 3425425734583499810398,
    134: 2595750495992055, 381: 433320465461548336, 226: 1162300033489258,
    172: 2826011477931, 299: 8716663131939604248, 84: 726884180231790,
    62: 667106005016, 274: 12047145282373, 383: 90141776682, 298: 574697644855659,
    233: 1197784524, 305: 5786841686573230, 227: 4772426902, 263: 2117044032,
    186: 466553327561403, 255: 5513092534338, 243: 1486433199276, 303: 79606212613548,
    335: 45802387623964254, 285: 1060733602, 395: 748838685020168, 68: 2030704694,
    214: 71699216137734, 202: 39050542159, 322: 1825545083697154, 327: 30143027352514,
    257: 1095348020168, 262: 1979732913390532, 336: 31032546057410798151,
    387: 5597587462, 356: 15018990512856845, 114: 18547547534764,
    206: 4876696556253087, 208: 809748603, 110: 74803400069475128, 138: 11049629505963,
    244: 1495644538470, 150: 1507098034308, 268: 176091946129434,
    344: 6194311286961641756, 388: 22194975427043278, 218: 91166859422382117,
    304: 849176589, 108: 130766570806, 324: 1699082174663033, 170: 20804294591020961,
    300: 28542561240238202139, 230: 392856051249, 236: 24906812650373,
    306: 202246576960254955, 394: 15583390258869, 122: 2741276624,
    350: 128355229001768063380, 297: 145313284, 222: 962779294451,
    378: 26583160554350319986, 366: 2754462612, 354: 28998478780028026,
    342: 1124407771803, 252: 317746437014192, 152: 11363328753729, 178: 631891,
    284: 1889794719854, 348: 179858654622, 264: 20637142042, 372: 39160380,
    182: 1744969166, 360: 3298838708955, 240: 14343768532796, 362: 61159396791832,
    258: 6566989844, 368: 713211235130978, 212: 15446777142, 234: 550457694674864,
    318: 275870308013, 302: 52425320984906, 392: 3833352489581996224,
    332: 190504509531171783, 270: 1684232073, 290: 347822992206, 282: 224414093930441,
    355: 3994696, 398: 10371628139105558158, 292: 35241307, 192: 57303425656,
    308: 107657601, 390: 12788749525381003, 380: 3054000318927485, 338: 25695638,
}
POOL_FILLING_BASES = tuple(POOL_FILLING_MINIMA)
SEEDED_STRATA = 4
# Auto mode discovers the pool over every order <= a_max. Bases 12 (0.7 s)
# and 34 (7 s) are left out to keep passes short: on a shared host only an
# operation repeated many times in a run gives a steady fastest time.
# base -> minimum nontrivial k, recorded when the benchmark was added.
AUTO_MINIMA = {10: 35545344, 18: 367700653}
AUTO_A_MAX = 6


def _search_op(seed, base, moduli, expected, a_max=8) -> Op:
    def call():
        return L.search.search_min(
            L.search.SearchConfig(base, moduli=moduli, a_max=a_max, seed=seed)
        )

    def summarize(report):
        cert = report.certificate
        return (
            report.minimum_nontrivial_k,
            None if cert is None else (cert.k, tuple(cert.entries), tuple(cert.triviality_primes)),
            report.elimination_bound,
            report.config.n_max_elimination,
            report.config.k_scan_bound,
            tuple((r.k, r.status, r.q, r.n, r.value) for r in report.eliminations),
            tuple(report.survivors_below_minimum),
        )

    sample = _sampler(f"{seed}:{base}:{moduli}", 4)

    def check(s):
        minimum, cert, bound, n_max, k_scan, records, survivors = s
        if minimum is None or cert is None:
            return "no minimum found"
        if minimum != expected:
            return f"minimum {minimum}, expected {expected}"
        k, entries, qs = cert
        if k != minimum:
            return f"certificate k = {k} is not the minimum {minimum}"
        if moduli is not None and sorted(n for _, n, _ in entries) != sorted(moduli):
            return "certificate cover does not use the given moduli"
        error = oracle.certificate_error(base, k, entries, "sierpinski", qs)
        if error:
            return error
        if bound != min(minimum - 1, k_scan):
            return f"elimination bound {bound} is not min(minimum - 1, {k_scan})"
        if survivors != tuple(r[0] for r in records if r[1] == "survivor"):
            return "survivors_below_minimum disagrees with the elimination records"
        return oracle.elimination_error(base, records, bound, n_max, qs, sample)

    label = f"search {base} {'auto' if moduli is None else ','.join(map(str, moduli))}"
    return Op(label, call, summarize, check, "stock127" if moduli == STOCK_SEARCHES[0][1] else "")


# Small-k elimination at larger n, as its own operations: above 2**64 every
# term goes through 40 Miller-Rabin rounds plus a strong Lucas test, and base
# 1000 also has survivors that cost 60 verdicts each. Base 1000 stops at
# k = 500 (0.6 s; 74 probable hits) to keep passes short, as for AUTO_MINIMA.
ELIMINATIONS = ((1000, (3, 37), 500), (22, (3, 7), 2000))  # (m, primes of m - 1, k <=)
ELIMINATE_N = 60


def _eliminate_op(seed, m, qs, k_max) -> Op:
    def call():
        return L.search.eliminate_small_k(m, k_max, ELIMINATE_N, qs, seed=seed)

    def summarize(records):
        return tuple((r.k, r.status, r.q, r.n, r.value) for r in records)

    sample = _sampler(f"{seed}:{m}", 8)

    def check(records):
        if oracle.prime_factors(m - 1) != qs:
            return f"{qs} are not the primes of {m - 1}"
        return oracle.elimination_error(m, records, k_max, ELIMINATE_N, qs, sample)

    return Op(f"eliminate {m}", call, summarize, check)


def search_ops(seed: int) -> list[Op]:
    rng = random.Random(f"search:{seed}")
    third = len(POOL_FILLING_BASES) // 3
    band = POOL_FILLING_BASES[third : 2 * third]
    n = len(band)
    seeded = [
        rng.choice(band[i * n // SEEDED_STRATA : (i + 1) * n // SEEDED_STRATA])
        for i in range(SEEDED_STRATA)
    ]
    ops = [_search_op(seed, base, moduli, k) for base, moduli, k in STOCK_SEARCHES]
    ops += [_search_op(seed, base, SEEDED_MODULI, POOL_FILLING_MINIMA[base]) for base in seeded]
    ops += [_search_op(seed, base, None, k, a_max=AUTO_A_MAX) for base, k in AUTO_MINIMA.items()]
    ops += [_eliminate_op(seed, *args) for args in ELIMINATIONS]
    return ops


# --- covers -----------------------------------------------------------------
# (moduli, number of covers recorded when this benchmark was added)
ENUMERATIONS = (
    ((2, 3, 4, 5, 6, 8, 10, 12), 9600),
    ((3, 4, 4, 6, 6, 8, 8), 1776),
    ((3, 4, 6, 6, 8, 8, 12), 576),
)
# The README's repaired seed; its orbit is every cover on 3,4,6,6,8,8.
ORBIT_SEED, ORBIT_SIZE = "0(3),2(4),1(6),5(6),4(8),0(8)", 48
# Known covers that verify_cover inputs are built from.
BASE_COVERS = (
    "0(2),0(3),1(4),5(6),7(12)",
    "0(2),0(3),1(4),3(8),7(12),23(24)",
    ORBIT_SEED,
    "2(4),4(8),8(16),8(24),0(48),1(3),5(6),3(12),1(5),7(10),3(15),9(20),15(30)",
)
# Moduli of the two classes added to each verify_cover input. Input i takes
# base cover i % 4, extra pair (i // 4) % 8, and has a class moved when
# i % 3 == 2: every seed gets the same mix of periods (84 to 9360; a full
# scan of the largest takes about 10 ms on 2 cores) and of verdicts, and the
# median call falls among the covers rather than on the edge between cheap
# non-covers and covers.
EXTRA_MODULI = ((5, 7), (7, 9), (5, 11), (9, 11), (9, 13), (5, 13), (3, 7), (4, 11))
VERIFY_CALLS = 300


def _parse(text):
    return tuple((int(a), int(n.rstrip(")"))) for a, n in (c.split("(") for c in text.split(",")))


def _enumerate_op(moduli, expected) -> Op:
    def call():
        return L.covering.enumerate_covers(moduli)

    def summarize(covers):
        return tuple(tuple((c.residue, c.modulus) for c in cover.classes) for cover in covers)

    def check(covers):
        if len(covers) != expected:
            return f"{len(covers)} covers, expected {expected}"
        if any(tuple(n for _, n in cover) != moduli for cover in covers):
            return "a cover does not keep the moduli order"
        if list(covers) != sorted(set(covers)):
            return "covers are not distinct and in residue order"
        if any(oracle.first_uncovered(cover) is not None for cover in covers):
            return "a listed system is not a cover"
        return None

    return Op(f"enumerate {','.join(map(str, moduli))}", call, summarize, check)


def _orbit_op() -> Op:
    seed = _parse(ORBIT_SEED)

    def call():
        return L.covering.affine_orbit(L.covering.CoveringSystem.parse(ORBIT_SEED))

    def summarize(orbit):
        return frozenset(tuple((c.residue, c.modulus) for c in s.classes) for s in orbit)

    def check(orbit):
        if len(orbit) != ORBIT_SIZE:
            return f"orbit has {len(orbit)} members, expected {ORBIT_SIZE}"
        if seed not in orbit:
            return "orbit misses its seed"
        if any(tuple(n for _, n in s) != tuple(n for _, n in seed) for s in orbit):
            return "an orbit member changes the moduli"
        if any(oracle.first_uncovered(s) is not None for s in orbit):
            return "an orbit member is not a cover"
        return None

    return Op("orbit", call, summarize, check)


def _verify_op(classes, tag) -> Op:
    def call():
        return L.covering.verify_cover(L.covering.CoveringSystem(classes))

    def check(verdict):
        witness = oracle.first_uncovered(classes)
        expected = (witness is None, witness)
        return None if verdict == expected else f"verdict {verdict}, expected {expected}"

    return Op(f"verify {tag}", call, tuple, check, tag)


def _affine_image(classes, rng):
    """The cover pulled back along x -> u*x + b, u a unit mod the period."""
    period = math.lcm(*(n for _, n in classes))
    u = rng.choice([u for u in range(1, period) if math.gcd(u, period) == 1])
    b = rng.randrange(period)
    return [((a - b) * pow(u, -1, n) % n, n) for a, n in classes]


def verify_inputs(rng) -> list[tuple[tuple[tuple[int, int], ...], bool]]:
    """(classes, covers?) for each verify_cover call: known covers with two
    extra classes, a third of them with one class moved until they no
    longer cover."""
    out = []
    for i in range(VERIFY_CALLS):
        base = _parse(BASE_COVERS[i % len(BASE_COVERS)])
        classes = _affine_image(base, rng)
        n1, n2 = EXTRA_MODULI[i // len(BASE_COVERS) % len(EXTRA_MODULI)]
        extra = [(rng.randrange(n1), n1), (rng.randrange(n2), n2)]
        moved = i % 3 == 2
        while moved:
            j = rng.randrange(len(classes))
            a, n = classes[j]
            trial = classes[:j] + [((a + rng.randrange(1, n)) % n, n)] + classes[j + 1 :]
            if oracle.first_uncovered(trial + extra) is not None:
                classes = trial
                break
        out.append((tuple(classes + extra), not moved))
    return out


def covers_ops(seed: int) -> list[Op]:
    rng = random.Random(f"covers:{seed}")
    ops = [_enumerate_op(moduli, count) for moduli, count in ENUMERATIONS]
    ops.append(_orbit_op())
    ops += [
        _verify_op(classes, "cover" if covers else "noncover")
        for classes, covers in verify_inputs(rng)
    ]
    return ops


WORKLOADS = {
    "construct": construct_ops,
    "search": search_ops,
    "covers": covers_ops,
}
