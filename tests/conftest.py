from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from maxnik.canon import canonical_form, canonical_labeling
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


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation-search oracle; exponential, for cross-checks on tiny graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    hd = h.degrees()
    for perm in permutations(range(g.n)):
        if all(hd[perm[v]] == g.degree(v) for v in range(g.n)) and g.relabel(perm) == h:
            return True
    return False


def brute_force_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    deg = g.degrees()
    out = []
    for perm in permutations(range(g.n)):
        if all(deg[perm[v]] == deg[v] for v in range(g.n)) and g.relabel(perm) == g:
            out.append(perm)
    return out


def dedup_by_canonical_form(graphs) -> list[Graph]:
    """One canonical representative per isomorphism class, in key order."""
    reps: dict[bytes, Graph] = {}
    for g in graphs:
        form, lab = canonical_labeling(g)
        if form.key not in reps:
            pos = [0] * g.n
            for i, v in enumerate(lab):
                pos[v] = i
            reps[form.key] = g.relabel(pos)
    return [reps[k] for k in sorted(reps)]


def group_order(gens: list[tuple[int, ...]], n: int) -> int:
    """Order of the generated permutation group, by closure enumeration.

    Fine at test scale (groups here have at most 8! elements); the package
    only ever needs the generators, never the full element list.
    """
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        e = frontier.pop()
        for a in gens:
            composed = tuple(a[e[i]] for i in range(n))
            if composed not in elements:
                elements.add(composed)
                frontier.append(composed)
    return len(elements)


@lru_cache(maxsize=None)
def reference_enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """Oracle: every one-vertex extension of every class, deduplicated.

    The extend-and-deduplicate loop ``enumerate_graphs`` used before
    canonical augmentation; it labels all 2**(n-1) extensions of each
    class of order n-1.
    """
    if n == 1:
        return (Graph(1, [0]),)
    new = n - 1
    candidates = []
    for g in reference_enumerate_graphs(n - 1):
        base = list(g.rows) + [0]
        for nb in range(1 << new):
            rows = base.copy()
            rows[new] = nb
            for v in _bits(nb):
                rows[v] |= 1 << new
            candidates.append(Graph(n, rows))
    return tuple(dedup_by_canonical_form(candidates))


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


def reference_clique_cutsets(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: every clique listed eagerly, each tested on a built subgraph.

    A verbatim copy of ``clique_cutsets`` and its clique lister before the
    search became a lazy generator with a bitmask connectivity test.
    """
    if not g.is_connected():
        raise ValueError("clique cutset search expects a connected graph")
    found: list[tuple[int, ...]] = []
    found_masks: list[int] = []
    for size_group in _reference_cliques_by_size(g):
        for clique in size_group:
            if len(clique) >= g.n:
                continue
            cmask = 0
            for v in clique:
                cmask |= 1 << v
            if any(fm & cmask == fm for fm in found_masks):
                continue  # a smaller cutset inside this clique already found
            if len(g.delete_vertices(clique).components()) >= 2:
                found.append(clique)
                found_masks.append(cmask)
    return found


def _reference_cliques_by_size(g: Graph) -> list[list[tuple[int, ...]]]:
    """Nonempty cliques grouped by size; each listed once, vertices ascending."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    rows = g.rows
    full = (1 << g.n) - 1

    def grow(verts: list[int], allowed: int) -> None:
        by_size.setdefault(len(verts), []).append(tuple(verts))
        a = allowed
        while a:
            b = a & -a
            a ^= b
            v = b.bit_length() - 1
            grow(verts + [v], allowed & rows[v] & ~((b << 1) - 1))

    for v in range(g.n):
        grow([v], rows[v] & (full << (v + 1)))
    out = []
    for size in sorted(by_size):
        out.append(sorted(by_size[size]))
    return out
