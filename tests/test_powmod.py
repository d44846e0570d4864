"""The modular-power entry of arith: GMP's mpz_powm through ctypes for long
exponents, the builtin pow otherwise, with identical results either way."""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sierpinski.arith as arith
import sierpinski.search as search
from sierpinski.construct import construct
from sierpinski.search import SearchConfig, eliminate_small_k, search_min

GMP = arith._load_powm()
needs_gmp = pytest.mark.skipif(
    GMP is None, reason="libgmp.so.10 does not load here: every power runs on the builtin pow")

BITS = arith.POWM_BITS
# a bit length up to 4096 first, then a value of at most that many bits:
# every size is drawn as often, and a 4096-bit power takes about 0.1 s
big = st.integers(0, 4096).flatmap(lambda bits: st.integers(0, 2**bits))


@needs_gmp
@settings(max_examples=150, deadline=None)
@given(a=big, e=st.one_of(big, st.sampled_from([2**BITS - 1, 2**BITS, 2**BITS + 1])),
       n=st.one_of(big.map(lambda n: n + 1), big.map(lambda n: 2 * n + 2)))
@example(a=0, e=2**BITS, n=2)
@example(a=0, e=2**BITS + 1, n=3)
@example(a=5, e=2**BITS + 1, n=3)  # a >= n
@example(a=2**4096, e=2**4096 - 1, n=2**4095)  # a >= n, even n
@example(a=7, e=2**BITS - 1, n=2**64)  # exactly BITS bits: the builtin
@example(a=7, e=2**BITS, n=2**64 + 1)  # one bit more: GMP
def test_powmod_matches_pow(a, e, n):
    assert arith._powmod(a, e, n) == pow(a, e, n)
    if e.bit_length() > BITS and n >= 2:
        assert GMP(a % n, e, n) == pow(a, e, n)


def test_powmod_leaves_other_inputs_to_the_builtin(monkeypatch):
    def refuse():
        raise AssertionError("routed a power GMP is not given")

    monkeypatch.setattr(arith, "_load_powm", refuse)
    assert arith._powmod(3, 2**BITS - 1, 10**30 + 7) == pow(3, 2**BITS - 1, 10**30 + 7)
    assert arith._powmod(3, 2**90, 1) == 0
    assert arith._powmod(3, -(2**90), 7) == pow(3, -(2**90), 7)


def test_powmod_routes_one_bit_past_the_crossover(monkeypatch):
    routed = []

    def kernel(a, e, n):
        routed.append((a, e, n))
        return pow(a, e, n)

    monkeypatch.setattr(arith, "_load_powm", lambda: kernel)
    e, n = 2**BITS, 10**30 + 7
    assert e.bit_length() == BITS + 1
    assert arith._powmod(n + 3, e, n) == pow(3, e, n)
    assert routed == [(3, e, n)]


def _in_a_new_thread(run):
    """run() in a thread of its own, so with fresh kernel temporaries; its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(run()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


@needs_gmp
@pytest.mark.parametrize("bits", [2, 3, 4, 5, 8, 9, 31, 32, 33, 64, 65, 106, 4096, 4097])
def test_hex_transfer_at_digit_edges(bits):
    # n of 4j and 4j + 1 bits, with results 0, 1, n - 1 and a full-width one
    rng = random.Random(bits)
    for n in (2 ** (bits - 1), 2 ** (bits - 1) + 1, 2**bits - 1, rng.getrandbits(bits) | 1 << bits - 1):
        e = rng.getrandbits(bits + 40) | 1
        assert GMP(0, e, n) == 0
        assert GMP(1, e, n) == 1
        assert GMP(n - 1, e, n) == n - 1  # (-1)**e with e odd
        assert GMP(n - 1, e + 1, n) == 1 % n
        a = rng.randrange(n)
        assert GMP(a, e, n) == pow(a, e, n)


@needs_gmp
def test_grown_buffer_holds_no_stale_digits():
    rng = random.Random(46)
    big_n = rng.getrandbits(4096) | 1 << 4095 | 1
    small_n = rng.getrandbits(46) | 1 << 45 | 1
    cases = [(big_n - 1, 2**4095 + 1, big_n), (rng.randrange(small_n), 2**60 + 1, small_n), (2, 2**45 + 3, small_n),
             (small_n - 1, 2**50 + 1, small_n), (0, 2**50, small_n)]
    assert _in_a_new_thread(lambda: [GMP(a, e, n) for a, e, n in cases]) == [pow(a, e, n) for a, e, n in cases]


@needs_gmp
def test_buffer_grows_only_for_a_larger_modulus(monkeypatch):
    import ctypes

    sizes = []
    create = ctypes.create_string_buffer

    def counting(size):
        sizes.append(size)
        return create(size)

    monkeypatch.setattr(ctypes, "create_string_buffer", counting)
    n200, n300 = 2**199 + 1235, 2**299 + 4567

    def run():
        calls = []
        for a, n in ((3, n200), (5, n200), (7, 2**100 + 277), (3, n300), (11, n300), (13, n200)):
            before = len(sizes)
            assert GMP(a, n - 1, n) == pow(a, n - 1, n)
            calls.append(len(sizes) - before)
        return calls

    assert _in_a_new_thread(run) == [1, 0, 0, 1, 0, 0]
    assert sizes == [200 // 4 + 2, 300 // 4 + 2]


def _kernel_and_builtin(monkeypatch, compute):
    with_kernel = compute()
    monkeypatch.setattr(arith, "_load_powm", lambda: None)
    return with_kernel, compute()


@needs_gmp
@pytest.mark.parametrize("compute", [
    lambda: eliminate_small_k(1000, 60, 60, (3, 37)),
    lambda: search_min(SearchConfig(127, moduli=(3, 4, 6, 6, 8, 8))).to_json_dict(),
    lambda: construct(127).to_json(),
    lambda: construct(4095, "riesel").to_json(),
], ids=["eliminate-1000", "search-127", "construct-127", "construct-4095-riesel"])
def test_builtin_fallback_gives_the_same_results(monkeypatch, compute):
    with_kernel, builtin = _kernel_and_builtin(monkeypatch, compute)
    assert with_kernel == builtin


@needs_gmp
def test_threads_each_get_their_own_temporaries():
    # a ctypes call releases the GIL, so the four threads run powers at once
    results = {}

    def run(index):
        rng = random.Random(index)
        cases = [(rng.getrandbits(512), rng.getrandbits(512) | 1 << 511, rng.getrandbits(300 + index) | 1 << 299 + index)
                 for _ in range(200)]
        results[index] = all(arith._powmod(a, e, n) == pow(a, e, n) for a, e, n in cases)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {0: True, 1: True, 2: True, 3: True}


@needs_gmp
def test_forked_workers_inherit_the_kernel(monkeypatch):
    assert arith._load_powm() is GMP
    records = []
    for workers in (1, 2):
        monkeypatch.setattr(search, "_worker_count", lambda k_count: workers)
        records.append(eliminate_small_k(1000, 600, 60, (3, 37)))
    assert records[0] == records[1]


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh `import sierpinski` puts module in sys.modules."""
    code = f"import sys, sierpinski; print({module!r} in sys.modules)"
    src = str(Path(arith.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_ctypes_unloaded():
    assert not _loaded_by_import("ctypes")


def test_import_leaves_fractions_unloaded():
    # covering decides density sum(1/n) >= 1 in integers over the period
    assert not _loaded_by_import("fractions")
