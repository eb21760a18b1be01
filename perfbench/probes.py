"""Kernel probes for the `farey` layer at fixed input sizes.

`farey_distance` is timed on slope pairs whose conjugated slope has exactly
16, 128 or 512 partial quotients, and `MappingClass.mul` on determinant-one
matrices with 4096-bit entries.  Each figure is the median, over rounds, of
the time per call.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from time import perf_counter

CF_LENGTHS = (16, 128, 512)
PAIRS = 32
ROUNDS = 7
MUL_BITS = 4096


def _from_cf(cf: list) -> tuple:
    """p/q with the given floor continued fraction [a0; a1, ...]."""
    p, q = cf[-1], 1
    for a in reversed(cf[:-1]):
        p, q = a * p + q, p
    return p, q


def _cf_length(p: int, q: int) -> int:
    n = 0
    while q:
        p, q = q, p % q
        n += 1
    return n


def cf_pairs(farey, rng, length: int) -> list:
    """(a, b) with b chosen so that the canonical matrix sending a to 1/0
    maps b to a slope with exactly `length` partial quotients."""
    pairs = []
    for _ in range(PAIRS):
        cf = [rng.randint(-5, 5)] + [rng.randint(1, 9) for _ in range(length - 1)]
        cf[-1] = max(cf[-1], 2)          # canonical expansions end with >= 2
        p, q = _from_cf(cf)
        if _cf_length(p, q) != length:
            raise AssertionError("built a slope with the wrong expansion length")
        a = farey.Slope.of(rng.randint(-1000, 1000), rng.randint(1, 1000))
        b = farey.act(farey.conjugator_to_infinity(a).inv(), farey.Slope.of(p, q))
        pairs.append((a, b))
    return pairs


def big_matrices(farey, rng) -> list:
    """Determinant-one matrices whose entries reach MUL_BITS bits, as
    products of positive shears."""
    out = []
    for _ in range(PAIRS):
        m = farey.MappingClass.identity()
        while max(abs(x) for x in m.entries()).bit_length() < MUL_BITS:
            m = m.mul(farey.MappingClass(1, rng.randint(1, 9), 0, 1))
            m = m.mul(farey.MappingClass(1, 0, rng.randint(1, 9), 1))
        out.append(m)
    return out


def _per_call_us(fn, items, repeat: int) -> float:
    times = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        for _ in range(repeat):
            for item in items:
                fn(*item)
        times.append((perf_counter() - t0) / (repeat * len(items)))
    return statistics.median(times) * 1e6


def run(seed: int) -> dict:
    from rgflab import farey
    rng = random.Random(7_919 * seed + 16)
    out = {"distance_us": {}, "distances": {}}
    for length in CF_LENGTHS:
        pairs = cf_pairs(farey, rng, length)
        out["distances"][str(length)] = [farey.farey_distance(a, b) for a, b in pairs]
        out["distance_us"][str(length)] = _per_call_us(
            farey.farey_distance, pairs, max(1, 512 // length))
    mats = big_matrices(farey, rng)
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    products = [x.mul(y).entries() for x, y in pairs]
    out["mul_sha256"] = hashlib.sha256(repr(products).encode()).hexdigest()
    out["mul_us"] = _per_call_us(lambda x, y: x.mul(y), pairs, 5)
    return out
