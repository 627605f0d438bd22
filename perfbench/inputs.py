"""Seeded workload inputs, built with the standard library alone.

The benchmark process never imports the program: it draws its inputs here
and hands them over as graph6 lines, the only form the program receives.
"""

from __future__ import annotations

import random
from itertools import combinations

RANDOM_ORDERS = (9, 10)
RANDOM_DENSITIES = (0.4, 0.5, 0.6, 0.7)


def graph6_encode(n: int, edges) -> str:
    """graph6 for a graph on vertices 0..n-1 (n <= 62, enough for every input)."""
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in adjacent else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[at:at + 6])), 2))
                   for at in range(0, len(bits), 6))
    return chr(63 + n) + body


def graph6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a short-form graph6 string."""
    n = ord(text[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in text[1:] for s in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def random_hosts(rng: random.Random, count: int) -> list[str]:
    """G(n, p) hosts, n and p drawn uniformly from the workload's grid."""
    out = []
    for _ in range(count):
        n = rng.choice(RANDOM_ORDERS)
        p = rng.choice(RANDOM_DENSITIES)
        out.append(graph6_encode(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


def relabel(rng: random.Random, line: str) -> str:
    """The same graph under a uniformly random vertex permutation."""
    n, edges = graph6_decode(line)
    perm = list(range(n))
    rng.shuffle(perm)
    return graph6_encode(n, [(perm[u], perm[v]) for u, v in edges])
