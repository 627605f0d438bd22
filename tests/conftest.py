from __future__ import annotations

import random
from itertools import combinations

import pytest

from maxnik.canon import canonical_form
from maxnik.catalog import mmik_library
from maxnik.graphs import Graph, _bits, contract_edge, from_edges
from maxnik.minors import MinorSearch, MinorWitness


@pytest.fixture(scope="session")
def lib():
    return mmik_library()


_minor_memo: dict[tuple[bytes, bytes], bool] = {}


def brute_force_minor(host: Graph, pattern: Graph) -> bool:
    """Oracle: explore all single-step reductions (delete/contract), memoized."""
    hkey = canonical_form(host).key
    pkey = canonical_form(pattern).key
    if (hkey, pkey) in _minor_memo:
        return _minor_memo[(hkey, pkey)]
    result = False
    if pattern.n <= host.n and pattern.m <= host.m:
        if hkey == pkey:
            result = True
        else:
            for v in range(host.n):
                if host.n > 1 and host.degree(v) == 0:
                    if brute_force_minor(host.delete_vertices([v]), pattern):
                        result = True
                        break
            if not result:
                for u, v in host.edges():
                    if brute_force_minor(host.without_edge(u, v), pattern) or \
                            brute_force_minor(contract_edge(host, u, v), pattern):
                        result = True
                        break
    _minor_memo[(hkey, pkey)] = result
    return result


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return from_edges(n, edges)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices; exponential, keep n tiny."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def reference_has_minor(host: Graph, pattern: Graph) -> MinorSearch:
    """Oracle: the branch-set search with no symmetry cut.

    A verbatim copy of ``has_minor`` before twin roots were ordered; it
    tries every permutation of interchangeable pattern vertices.
    """
    nh, np_ = host.n, pattern.n
    if np_ > nh or pattern.m > host.m:
        return MinorSearch(False, None)
    order = sorted(range(np_), key=lambda v: (-pattern.degree(v), v))
    # earlier placements each branch set must touch, and how many pattern
    # neighbors of each placement are still unplaced (for contact pruning)
    earlier = [[j for j in range(i) if pattern.has_edge(order[i], order[j])]
               for i in range(np_)]
    pending0 = [sum(1 for j in range(i + 1, np_) if pattern.has_edge(order[i], order[j]))
                for i in range(np_)]
    hrows = host.rows
    full = (1 << nh) - 1
    sets = [0] * np_
    nbrs = [0] * np_
    pending = list(pending0)

    def attempt(i: int, s_mask: int, nbr_mask: int, used: int) -> bool:
        for j in earlier[i]:
            if not nbr_mask & sets[j]:
                return False
        used2 = used | s_mask
        free_after = full & ~used2
        if pending[i] and (nbr_mask & free_after).bit_count() < pending[i]:
            return False
        for j in earlier[i]:
            pending[j] -= 1
        ok = all(not pending[j] or (nbrs[j] & free_after).bit_count() >= pending[j]
                 for j in range(i))
        if ok:
            sets[i] = s_mask
            nbrs[i] = nbr_mask
            if place(i + 1, used2):
                return True
        for j in earlier[i]:
            pending[j] += 1
        return False

    def expand(i: int, s_mask: int, nbr_mask: int, avail: int, used: int, budget: int) -> bool:
        if attempt(i, s_mask, nbr_mask, used):
            return True
        if s_mask.bit_count() == budget:
            return False
        cand = nbr_mask & avail
        banned = 0
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            s2 = s_mask | b
            if expand(i, s2, (nbr_mask | hrows[v]) & ~s2, avail & ~banned & ~b, used, budget):
                return True
            banned |= b
        return False

    def place(i: int, used: int) -> bool:
        if i == np_:
            return True
        budget = nh - used.bit_count() - (np_ - i - 1)
        free = full & ~used
        rem = free
        while rem:
            rb = rem & -rem
            rem ^= rb
            v = rb.bit_length() - 1
            allowed = free & ~(rb - 1) & ~rb  # root is the least vertex of its set
            if expand(i, rb, hrows[v] & ~rb, allowed, used, budget):
                return True
        return False

    if not place(0, 0):
        return MinorSearch(False, None)
    branch_sets: list[tuple[int, ...]] = [()] * np_
    for i, pv in enumerate(order):
        branch_sets[pv] = tuple(_bits(sets[i]))
    return MinorSearch(True, MinorWitness(tuple(branch_sets)))
