from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from maxnik import canon, certify, primality
from maxnik.canon import (CanonicalForm, _relabel_canonically, canonical_form,
                          canonical_graph, canonical_key_graph,
                          canonical_labeling, isomorphism, orbits)
from maxnik.catalog import (PROV_CLOSURE, NamedGraph, ObstructionLibrary,
                            mmik_library, named_graph)
from maxnik.certify import VERDICT_MAXNIK, certify_maxnik, check_necessary
from maxnik.errors import OrderOverflowError, ParseError
from maxnik.graphs import (MAX_ORDER, Graph, _bits, _reach, clique_number,
                           complement, complete_graph, complete_multipartite,
                           from_edges, graph6_encode, identified_union,
                           non_triangular_edges, triangles)
from maxnik.minors import (DELTA_Y, Y_DELTA, ClosureResult, MinorSearch,
                           MinorWitness, closure, delta_y, has_minor, y_delta)
from maxnik.planarity import KApexResult, is_k_apex
from maxnik.primality import Decomposition, _glued, _pieces, is_prime
from maxnik.survey import classified_maxnik


@pytest.fixture(scope="session")
def lib():
    return mmik_library()


@pytest.fixture(autouse=True)
def _cold_search_cache():
    """Each test starts with no canonical search, decomposition, 2-apex walk,
    small split, graph6 decode or certificate replay kept, so a count of
    searches or a patched search sees every graph it asks about."""
    canon._search.cache_clear()
    primality._decompose.cache_clear()
    certify._two_apex.cache_clear()
    certify._small_splits.cache_clear()
    certify._decoded.cache_clear()
    certify._replayed.cache_clear()


# -- graph helpers only the tests build with ------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOverflowError(f"union order {n} exceeds {MAX_ORDER}")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, rows)


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Contract edge uv: neighborhoods unioned, loops/parallels dropped."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    lo, hi = min(u, v), max(u, v)
    rows = list(g.rows)
    merged = (rows[lo] | rows[hi]) & ~(1 << lo) & ~(1 << hi)
    rows[lo] = merged
    for w in _bits(merged):
        rows[w] |= 1 << lo
        rows[w] &= ~(1 << hi)
    rows[hi] = 0
    return Graph(g.n, rows).delete_vertices([hi])


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    max_degree: int
    degree_sequence: tuple[int, ...]


def degree_stats(g: Graph) -> DegreeStats:
    seq = tuple(sorted(g.degrees()))
    return DegreeStats(seq[0], seq[-1], seq)


def leaves(d: Decomposition) -> list[Graph]:
    """The prime leaves of a decomposition tree, left to right."""
    if d.is_leaf:
        return [d.graph]
    out: list[Graph] = []
    for p in d.parts:
        out.extend(leaves(p))
    return out


def re_glue(d: Decomposition) -> Graph:
    """Rebuild the graph of ``d``, on its own labels, from the leaves.

    Each part's rebuilt rows are OR-ed back through ``part_vertices``.
    """
    if d.is_leaf:
        return d.graph
    return Graph(d.graph.n, _glued(d.graph.n, d.part_vertices, [re_glue(p) for p in d.parts]))


# -- oracles ---------------------------------------------------------------------


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


def reference_components(g: Graph, gone=()) -> list[set[int]]:
    """Oracle: components of g minus ``gone``, by a stack search over neighbour tuples."""
    left = set(range(g.n)) - set(gone)
    comps = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            for u in g.neighbors(stack.pop()):
                if u in left and u not in comp:
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
        left -= comp
    return comps


def reference_cycle_rank(g: Graph) -> int:
    """Oracle: m - n + c, with the components from ``reference_components``."""
    return g.m - g.n + len(reference_components(g))


def brute_connectivity(g: Graph, cap: int = MAX_ORDER) -> int:
    """Oracle: smallest vertex set whose removal disconnects (or n-1), capped at ``cap``."""
    for size in range(min(g.n - 1, cap)):
        for cut in combinations(range(g.n), size):
            if len(reference_components(g, cut)) >= 2:
                return size
    return min(g.n - 1, cap)


def is_k_connected(g: Graph, k: int) -> bool:
    """Oracle: more than k vertices, and connected after deleting any fewer than k.

    Brute force: one flood fill per vertex set of size below k, which is
    cheap at the orders it is asked about (E9 at k = 4 takes 130).
    """
    if g.n <= k:
        return False
    full = (1 << g.n) - 1
    for size in range(k):
        for cut in combinations(range(g.n), size):
            rest = full & ~sum(1 << v for v in cut)
            if _reach(g.rows, rest & -rest, rest) != rest:
                return False
    return True


_K5 = complete_graph(5)
_K33 = complete_multipartite(3, 3)


def is_planar_wagner(g: Graph) -> bool:
    """Independent oracle: planar iff no K5 minor and no K3,3 minor."""
    return not has_minor(g, _K5).found and not has_minor(g, _K33).found


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


def reference_object_orbits(objects: list, gens: list[tuple[int, ...]],
                            image) -> tuple[tuple, ...]:
    """Oracle: orbits of ``gens`` on ``objects`` by union-find over the images.

    ``image(ob, a)`` is the image of ``ob`` under the permutation ``a``; an
    image outside ``objects`` raises ``KeyError``. Each orbit is sorted, and
    the orbits are sorted.
    """
    index = {ob: i for i, ob in enumerate(objects)}
    parent = list(range(len(objects)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in gens:
        for ob in objects:
            i, j = find(index[ob]), find(index[image(ob, a)])
            if i != j:
                parent[i] = j
    groups: dict[int, list] = {}
    for ob in objects:
        groups.setdefault(find(index[ob]), []).append(ob)
    return tuple(sorted(tuple(sorted(v)) for v in groups.values()))


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


def reference_class_counts(n: int) -> tuple[int, ...]:
    """Oracle: graphs of order n counted by size, by Polya's theorem.

    Averages, over the permutations of the n vertices, the generating
    polynomial of the edge sets each one fixes: a product of 1 + x**len
    over the cycles it induces on vertex pairs. A cycle of length l gives
    (l - 1) // 2 pair cycles of length l, plus one of length l / 2 when l is
    even; cycles of lengths a and b give gcd(a, b) pair cycles of length
    lcm(a, b).
    """
    def partitions(rest: int, cap: int):
        if rest == 0:
            yield ()
        for k in range(min(rest, cap), 0, -1):
            for tail in partitions(rest - k, k):
                yield (k, *tail)

    total = [0] * (n * (n - 1) // 2 + 1)
    for cycles in partitions(n, n):
        perms = math.factorial(n)
        for length, count in Counter(cycles).items():
            perms //= length ** count * math.factorial(count)
        poly = [1]
        for i, a in enumerate(cycles):
            pair_cycles = [a] * ((a - 1) // 2) + ([a // 2] if a % 2 == 0 else [])
            for b in cycles[i + 1:]:
                pair_cycles += [math.lcm(a, b)] * math.gcd(a, b)
            for length in pair_cycles:
                grown = poly + [0] * length
                for j, c in enumerate(poly):
                    grown[j + length] += c
                poly = grown
        for j, c in enumerate(poly):
            total[j] += perms * c
    return tuple(t // math.factorial(n) for t in total)


def sweep_bounds_check(max_order: int = 8) -> list[str]:
    """Run every structural necessary condition over the classified sets."""
    problems = []
    for n in range(1, max_order + 1):
        for g in classified_maxnik(n):
            report = check_necessary(g)
            if not report.all_pass:
                problems.append(f"{graph6_encode(g)}: {report.failures()}")
    return problems


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return from_edges(n, edges)


def shaped_random_graph(rng: random.Random) -> Graph:
    """A seeded random graph of order 1-16 in one of four shapes, relabelled.

    The vertices are cut into consecutive parts, each a G(k, p): one part;
    disjoint parts; parts that share one vertex with the next (cut
    vertices); or one part beside components of at most four vertices.
    """
    n = rng.randint(1, 16)
    shape = rng.randrange(4)
    starts = [0, n if shape == 0 else rng.randint(1, n)]
    while starts[-1] < n:
        starts.append(min(n, starts[-1] + rng.randint(1, 4 if shape == 3 else n)))
    overlap = shape == 2
    parts = [range(a, min(b + overlap, n)) for a, b in zip(starts, starts[1:])]
    edges = set()
    for part in parts:
        p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])
        edges.update((u, v) for u, v in combinations(part, 2) if rng.random() < p)
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, sorted(edges)).relabel(perm)


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


def _reference_dfs_cycle(g: Graph) -> list[int]:
    """Recursive DFS cycle finder (back edges only, so cycles are simple)."""
    parent = [-1] * g.n
    seen = [False] * g.n

    def dfs(v: int, par: int) -> list[int] | None:
        seen[v] = True
        for u in _bits(g.rows[v]):
            if u == par:
                continue
            if seen[u]:
                path = [v]
                w = v
                while w != u:
                    w = parent[w]
                    path.append(w)
                return path
            parent[u] = v
            got = dfs(u, v)
            if got is not None:
                return got
        return None

    got = dfs(0, -1)
    if got is None or len(got) < 3:
        raise ValueError("no simple cycle found")
    return got


def _reference_blocks(g: Graph) -> list[list[int]]:
    """Vertex sets of biconnected components (classic lowpoint edge stack)."""
    n = g.n
    num = [0] * n
    low = [0] * n
    counter = [0]
    estack: list[tuple[int, int]] = []
    out: list[list[int]] = []

    def dfs(v: int, parent: int) -> None:
        counter[0] += 1
        num[v] = low[v] = counter[0]
        for u in _bits(g.rows[v]):
            if num[u] == 0:
                estack.append((v, u))
                dfs(u, v)
                low[v] = min(low[v], low[u])
                if low[u] >= num[v]:
                    verts = set()
                    while True:
                        a, b = estack.pop()
                        verts.add(a)
                        verts.add(b)
                        if (a, b) == (v, u):
                            break
                    out.append(sorted(verts))
            elif u != parent and num[u] < num[v]:
                estack.append((v, u))
                low[v] = min(low[v], num[u])

    for v in range(n):
        if num[v] == 0:
            dfs(v, -1)
    return out


def _reference_dmp_biconnected(g: Graph) -> bool:
    """Planarity of a 2-connected graph by face growing."""
    n = g.n
    m = g.m
    if n <= 4:
        return True
    if m > 3 * n - 6:
        return False
    cyc = _reference_dfs_cycle(g)
    in_h = 0
    for v in cyc:
        in_h |= 1 << v
    emb = [0] * n  # embedded adjacency rows
    for i, v in enumerate(cyc):
        u = cyc[(i + 1) % len(cyc)]
        emb[v] |= 1 << u
        emb[u] |= 1 << v
    emb_count = len(cyc)
    faces: list[list[int]] = [list(cyc), list(cyc)]
    fmasks = [in_h, in_h]
    full = (1 << n) - 1

    while emb_count < m:
        # fragments: chords of H, and bridges hanging off components of G - H
        frags: list[tuple[int, tuple]] = []  # (attachment mask, descriptor)
        for v in range(n):
            if not in_h >> v & 1:
                continue
            for u in _bits(g.rows[v] & in_h & ~emb[v]):
                if u > v:
                    frags.append(((1 << v) | (1 << u), ("chord", v, u)))
        rest = full & ~in_h
        seen = 0
        while rest & ~seen:
            start = (rest & ~seen) & -(rest & ~seen)
            comp = start
            frontier = start
            while frontier:
                grow = 0
                for v in _bits(frontier):
                    grow |= g.rows[v]
                frontier = grow & rest & ~comp
                comp |= grow & rest
            seen |= comp
            attach = 0
            for v in _bits(comp):
                attach |= g.rows[v] & in_h
            frags.append((attach, ("comp", comp)))

        best = None
        best_faces: list[int] = []
        for attach, desc in frags:
            adm = [i for i, fm in enumerate(fmasks) if not attach & ~fm]
            if not adm:
                return False
            if best is None or len(adm) < len(best_faces):
                best = (attach, desc)
                best_faces = adm
                if len(adm) == 1:
                    break
        assert best is not None
        attach, desc = best
        if desc[0] == "chord":
            path = [desc[1], desc[2]]
        else:
            comp = desc[1]
            ats = list(_bits(attach))
            a = ats[0]
            others = attach & ~(1 << a)
            # BFS from a through the component to any other attachment
            prev: dict[int, int] = {}
            frontier = [a]
            seenb = 1 << a
            path = None
            while frontier and path is None:
                nxt = []
                for w in frontier:
                    reach = g.rows[w] & comp & ~seenb
                    if w != a and g.rows[w] & others:
                        b = (g.rows[w] & others)
                        b = (b & -b).bit_length() - 1
                        path = [b, w]
                        x = w
                        while x != a:
                            x = prev[x]
                            path.append(x)
                        break
                    for x in _bits(reach):
                        prev[x] = w
                        seenb |= 1 << x
                        nxt.append(x)
                frontier = nxt
            assert path is not None, "attachment unreachable in its own fragment"
        u, v = path[0], path[-1]
        fi = best_faces[0]
        face = faces[fi]
        iu = face.index(u)
        face = face[iu:] + face[:iu]
        iv = face.index(v)
        interior = path[1:-1]
        face1 = face[:iv + 1] + interior[::-1]
        face2 = face[iv:] + [face[0]] + interior
        faces[fi] = face1
        faces.append(face2)
        im = 0
        for w in interior:
            im |= 1 << w
        m1 = 0
        for w in face1:
            m1 |= 1 << w
        m2 = 0
        for w in face2:
            m2 |= 1 << w
        fmasks[fi] = m1
        fmasks.append(m2)
        in_h |= im
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            emb[a] |= 1 << b
            emb[b] |= 1 << a
            emb_count += 1
    return True


def reference_is_planar(g: Graph) -> bool:
    """Oracle: DMP per block, on a Graph built for every component and block.

    A verbatim copy of ``is_planar`` and its helpers before the DMP core ran
    on the host's rows and a vertex mask.
    """
    if g.n <= 4:
        return True
    for comp in g.components():
        verts = list(_bits(comp))
        if len(verts) <= 4:
            continue
        sub = g.subgraph(verts)
        if sub.m > 3 * sub.n - 6:
            return False
        for block in _reference_blocks(sub):
            if len(block) >= 5 and not _reference_dmp_biconnected(sub.subgraph(block)):
                return False
    return True


def reference_is_k_apex(g: Graph, k: int) -> KApexResult:
    """Oracle: ``is_k_apex`` building a Graph for every vertex subset (verbatim copy)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    k_eff = min(k, g.n - 1)
    for subset in combinations(range(g.n), k_eff):
        if reference_is_planar(g.delete_vertices(subset) if subset else g):
            return KApexResult(True, subset)
    return KApexResult(False, None)


def _reference_refine(rows: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement; children of a split cell ordered by signature."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        out: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                rv = rows[v]
                sig = tuple((rv & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    out.append(tuple(buckets[sig]))
        cells = out
        if not changed:
            return cells


def _reference_leaf_key(n: int, rows: tuple[int, ...], lab: tuple[int, ...]) -> int:
    """Upper-triangle bits of the adjacency matrix relabelled by ``lab``."""
    pos = [0] * n
    for i, v in enumerate(lab):
        pos[v] = i
    key = 0
    for i, v in enumerate(lab):
        row_new = 0
        for u in _bits(rows[v]):
            row_new |= 1 << pos[u]
        key = (key << (n - i - 1)) | (row_new >> (i + 1))
    return key


class _ReferenceSearch:
    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = g.rows
        self.best_key: int | None = None
        self.best_lab: tuple[int, ...] | None = None
        self.seen: dict[int, tuple[int, ...]] = {}
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> None:
        self._node(_reference_refine(self.rows, [tuple(range(self.n))]), ())

    def _node(self, cells: list[tuple[int, ...]], path: tuple[int, ...]) -> None:
        target = -1
        size = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (size is None or len(cell) < size):
                target = i
                size = len(cell)
        if target < 0:
            self._leaf(tuple(c[0] for c in cells))
            return
        cell = cells[target]
        explored: list[int] = []
        for v in cell:
            if explored and self._equivalent_to_explored(v, explored, path):
                continue
            explored.append(v)
            rest = tuple(u for u in cell if u != v)
            branched = cells[:target] + [(v,), rest] + cells[target + 1:]
            self._node(_reference_refine(self.rows, branched), path + (v,))

    def _equivalent_to_explored(self, v: int, explored: list[int], path: tuple[int, ...]) -> bool:
        """Is v mapped into the explored set by a path-fixing automorphism?"""
        gens = [a for a in self.autos if all(a[p] == p for p in path)]
        if not gens:
            return False
        reach = {v}
        frontier = [v]
        targets = set(explored)
        while frontier:
            w = frontier.pop()
            for a in gens:
                for img in (a[w],):
                    if img in targets:
                        return True
                    if img not in reach:
                        reach.add(img)
                        frontier.append(img)
        return False

    def _leaf(self, lab: tuple[int, ...]) -> None:
        key = _reference_leaf_key(self.n, self.rows, lab)
        prior = self.seen.get(key)
        if prior is None:
            self.seen[key] = lab
        elif prior != lab:
            # two labelings with identical relabelled matrices: automorphism
            perm = [0] * self.n
            for i in range(self.n):
                perm[prior[i]] = lab[i]
            auto = tuple(perm)
            if auto not in self.autos:
                self.autos.append(auto)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_lab = lab


def reference_canonical_search(g: Graph) -> tuple[CanonicalForm, tuple[int, ...], list[tuple[int, ...]]]:
    """Oracle: canonical form, labeling and automorphism generators.

    A verbatim copy of ``_canonical_search`` and its helpers before
    refinement counted only against fresh cells and leaf keys were read
    straight from the rows; every output must match it exactly.
    """
    s = _ReferenceSearch(g)
    s.run()
    assert s.best_key is not None and s.best_lab is not None
    nbytes = (g.n * (g.n - 1) // 2 + 7) // 8
    key = bytes([g.n]) + s.best_key.to_bytes(nbytes, "big")
    return CanonicalForm(key), s.best_lab, list(s.autos)


# -- graph core oracles ----------------------------------------------------------
#
# Verbatim copies of the bit-list graph6 codec, the validating constructor,
# ``delete_vertices``, ``identified_union`` and the subgraph-based branch-set
# check from before the graph core worked on whole bit rows. The fast code
# must return the same graphs and strings and raise the same exception
# classes with the same messages.


def reference_graph(n: int, rows) -> Graph:
    """Oracle: the validating constructor's checks, then the same graph."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderOverflowError(f"order {n} outside 1..{MAX_ORDER}")
    rows = tuple(rows)
    if len(rows) != n:
        raise ValueError("row count does not match order")
    full = (1 << n) - 1
    for v, r in enumerate(rows):
        if r & ~full:
            raise ValueError(f"row {v} has bits outside 0..{n - 1}")
        if r >> v & 1:
            raise ValueError(f"loop at vertex {v}")
    for v, r in enumerate(rows):
        for u in _bits(r):
            if not rows[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency at ({v}, {u})")
    return Graph._trusted(n, rows)


def reference_delete_vertices(g: Graph, doomed) -> Graph:
    """Oracle: ``Graph.delete_vertices`` through a position map."""
    gone = 0
    for v in doomed:
        gone |= 1 << v
    keep = [v for v in range(g.n) if not gone >> v & 1]
    if not keep:
        raise ValueError("cannot delete every vertex")
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        r = 0
        for u in _bits(g.rows[v] & ~gone):
            r |= 1 << pos[u]
        rows.append(r)
    return reference_graph(len(keep), rows)


def reference_subgraph(g: Graph, keep) -> Graph:
    keepset = set(keep)
    return reference_delete_vertices(g, (v for v in range(g.n) if v not in keepset))


def reference_identified_union(g: Graph, g_sites, h: Graph, h_sites) -> Graph:
    """Oracle: ``identified_union`` through the edge lists (sites in range)."""
    hmap = dict(zip(h_sites, g_sites))
    nxt = g.n
    for v in range(h.n):
        if v not in hmap:
            hmap[v] = nxt
            nxt += 1
    edges = list(g.edges())
    edges.extend((hmap[u], hmap[v]) for u, v in h.edges())
    n = g.n + h.n - len(g_sites)
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return reference_graph(n, rows)


def reference_branch_sets_valid(witness: MinorWitness, host: Graph, pattern: Graph) -> bool:
    """Oracle: ``MinorWitness.validate`` with connectivity from ``subgraph``."""
    if len(witness.branch_sets) != pattern.n:
        return False
    masks = []
    seen = 0
    for bs in witness.branch_sets:
        if not bs:
            return False
        m = 0
        for v in bs:
            if not 0 <= v < host.n:
                return False
            m |= 1 << v
        if m & seen:
            return False
        seen |= m
        if len(reference_subgraph(host, bs).components()) != 1:
            return False
        masks.append(m)
    for a, b in pattern.edges():
        na = 0
        for v in _bits(masks[a]):
            na |= host.rows[v]
        if not na & masks[b]:
            return False
    return True


def reference_graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        col = g.rows[v]
        bits.extend((col >> u) & 1 for u in range(v))
    out = []
    for at in range(0, len(bits), 6):
        chunk = bits[at:at + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(63 + val))
    return head + "".join(out)


def reference_graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ParseError(f"byte {ord(ch)} out of graph6 range")
        vals.append(v)
    if vals[0] == 63:  # long form
        if len(vals) >= 4 and vals[1] == 63:
            raise ParseError("order above 64 not supported")
        if len(vals) < 4:
            raise ParseError("truncated long-form order")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_ORDER:
        raise ParseError(f"order {n} outside 1..{MAX_ORDER}")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(body) != want:
        raise ParseError(f"expected {want} data bytes, found {len(body)}")
    bits = []
    for v in body:
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits")
    rows = [0] * n
    at = 0
    for v in range(1, n):
        for u in range(v):
            if bits[at]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            at += 1
    return reference_graph(n, rows)


def outcome(fn, *args):
    """``("ok", result)`` or ``(exception class, message)`` for ``fn(*args)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the oracle tests compare every failure
        return type(exc), str(exc)


# -- obstruction library oracles ------------------------------------------------
# The closure that labels every child and the disk-axiom match that runs
# ``isomorphism`` against the registry graph, as they were before the closure
# carried automorphism generators.


def reference_closure(seeds: list[Graph], moves) -> ClosureResult:
    """Least move-closed family containing the seeds, deduplicated.

    The worklist is processed in canonical-key order so runs are
    reproducible; termination follows because both moves keep the edge
    count bounded and positive-degree vertices number at most twice that.
    """
    moves = frozenset(moves)
    if not moves or not moves <= {DELTA_Y, Y_DELTA}:
        raise ValueError(f"moves must be a nonempty subset of {{{DELTA_Y!r}, {Y_DELTA!r}}}")
    if not seeds:
        raise ValueError("need at least one seed")
    members: dict[bytes, Graph] = {}
    genealogy: dict[bytes, tuple[str, bytes] | None] = {}
    heap: list[bytes] = []
    for s in seeds:
        key, rep = canonical_key_graph(s)
        if key not in members:
            members[key] = rep
            genealogy[key] = None
            heapq.heappush(heap, key)
    while heap:
        key = heapq.heappop(heap)
        g = members[key]
        children: list[tuple[str, Graph]] = []
        if DELTA_Y in moves:
            children.extend((DELTA_Y, delta_y(g, t)) for t in triangles(g))
        if Y_DELTA in moves:
            children.extend((Y_DELTA, y_delta(g, v))
                            for v in range(g.n) if g.degree(v) == 3)
        for move, child in children:
            form, lab = canonical_labeling(child)
            ck = form.key
            if ck not in members:  # build the representative only for a new class
                members[ck] = _relabel_canonically(child, lab)
                genealogy[ck] = (move, key)
                heapq.heappush(heap, ck)
    keys = tuple(sorted(members))
    return ClosureResult(tuple(members[k] for k in keys), keys, genealogy)


def reference_disk_axiom_covers(lib: ObstructionLibrary, g: Graph,
                                triangle: tuple[int, int, int]) -> bool:
    """Is (g, triangle) matched by a registered disk-bounding triangle axiom?"""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
        return False
    key = canonical_form(g).key
    for ax in lib.triangle_disk_axioms:
        if ax.key != key:
            continue
        if ax.triangle_orbit is None:
            return True
        ref = named_graph(ax.graph_name).graph
        phi = isomorphism(g, ref)
        if phi is None:
            continue
        image = tuple(sorted((phi[a], phi[b], phi[c])))
        if image in ax.triangle_orbit:
            return True
    return False


# -- the library's derivation --------------------------------------------------
# The delta-wye families and fingerprinted identifications that derive the rows
# of ``catalog._LIBRARY_TABLE``; ``TestLibraryTable`` re-runs them against it.


@lru_cache(maxsize=None)
def k7_dy_family() -> ClosureResult:
    """The 14 graphs generated from K7 by repeated triangle-to-wye moves."""
    return closure([complete_graph(7)], {DELTA_Y})


@lru_cache(maxsize=None)
def heawood_family() -> ClosureResult:
    """The 20 graphs generated from K7 by both delta-wye moves."""
    return closure([complete_graph(7)], {DELTA_Y, Y_DELTA})


@lru_cache(maxsize=None)
def k3311_family() -> ClosureResult:
    """The 58 graphs generated from K3,3,1,1 by both delta-wye moves."""
    return closure([complete_multipartite(3, 3, 1, 1)], {DELTA_Y, Y_DELTA})


def identify_E9(heawood: ClosureResult) -> NamedGraph:
    """The unique order-9, size-21, minimum-degree-4 family member.

    All fingerprints are mandatory: size 21; exactly six non-triangular
    edges, each joining a degree-4 to a degree-5 vertex; 4-connected;
    largest clique a triangle; not 2-apex; exactly two non-edge orbits.
    """
    cands = [g for g in heawood.members
             if g.n == 9 and g.m == 21 and min(g.degrees()) >= 4]
    assert len(cands) == 1, f"{len(cands)} candidates for E9 in a family of {len(heawood)}"
    g = cands[0]
    problems = []
    if g.m != 21:
        problems.append("size is not 21")
    nte = non_triangular_edges(g)
    deg = g.degrees()
    if len(nte) != 6 or any(sorted((deg[u], deg[v])) != [4, 5] for u, v in nte):
        problems.append("non-triangular edges are not six degree-4-to-degree-5 edges")
    if not is_k_connected(g, 4):
        problems.append("not 4-connected")
    if clique_number(g) != 3:
        problems.append("largest clique is not a triangle")
    if is_k_apex(g, 2).found:
        problems.append("unexpectedly 2-apex")
    if len(orbits(g, "non-edge")) != 2:
        problems.append("non-edge orbit count is not 2")
    assert not problems, "E9 fingerprints failed: " + "; ".join(problems)
    return NamedGraph("E9", g, PROV_CLOSURE)


def identify_F9_and_E9_plus_e(e9: Graph, k7_dy: ClosureResult) -> tuple[NamedGraph, NamedGraph]:
    """Split E9's two non-edge orbits into the F9 route and the new pattern.

    Adding an edge from one orbit yields a graph containing an order-9
    member of the triangle-to-wye family of K7 as a spanning subgraph (that
    member is F9); the other orbit's addition is itself registered as an
    IK pattern, named E9+e. Anything but a clean one-one split is an error.
    """
    order9 = [g for g in k7_dy.members if g.n == 9]
    reps = [orbit[0] for orbit in orbits(e9, "non-edge").orbits]
    assert len(reps) == 2, f"E9 has {len(reps)} non-edge orbits, expected 2"
    matches: list[list[Graph]] = []
    for u, v in reps:
        added = e9.with_edge(u, v)
        # same order, so a minor is exactly a spanning subgraph
        matches.append([h for h in order9 if has_minor(added, h).found])
    hit = [i for i, ms in enumerate(matches) if ms]
    assert len(hit) == 1, (
        f"{len(hit)} of E9's non-edge orbits contain a family subgraph, expected 1")
    i = hit[0]
    assert len(matches[i]) == 1, (
        f"orbit contains {len(matches[i])} family subgraphs, expected exactly F9")
    f9 = NamedGraph("F9", matches[i][0], PROV_CLOSURE)
    u, v = reps[1 - i]
    pattern = canonical_key_graph(e9.with_edge(u, v))[1]
    assert pattern.m == 22, "E9+e does not have 22 edges"
    return f9, NamedGraph("E9+e", pattern, PROV_CLOSURE)


# -- the order-9 names ----------------------------------------------------------
# The recipes behind four of the five rows of ``catalog._ORDER9_JOINS``: each
# named join is its base glued to K6 over the stated 5-clique of the base (K6's
# vertices 0..4 identified onto it), as a canonical representative. K8-P3 lacks
# the path 0-1-2-3 and K8-3K2 the edges 01, 23 and 45. Pentagon-bar is the
# remaining join.

ORDER9_RECIPES: dict[str, tuple[str, tuple[int, ...]]] = {
    "Big-Y": ("K8-P3", (0, 3, 4, 5, 6)),
    "Hat": ("K8-P3", (0, 2, 4, 5, 6)),
    "House": ("K8-P3", (1, 4, 5, 6, 7)),
    "Long-Y": ("K8-3K2", (0, 2, 4, 6, 7)),
}


def order9_recipe(name: str) -> Graph:
    """The canonical representative of the named join, rebuilt from its recipe."""
    base_name, five_clique = ORDER9_RECIPES[name]
    base = named_graph(base_name).graph
    assert all(base.has_edge(u, v) for u, v in combinations(five_clique, 2)), (
        f"{name}: {five_clique} is not a clique of {base_name}")
    return canonical_graph(identified_union(base, five_clique, complete_graph(6), range(5)))


# -- lemma verification reports ------------------------------------------------
# Checks of two lemmas of the paper on certified graphs; only the tests call
# them.


@dataclass(frozen=True)
class TwoCutCheck:
    cut: tuple[int, int]
    edge_present: bool
    piece_verdicts: tuple[str, ...]
    ok: bool


@dataclass(frozen=True)
class TwoCutReport:
    """Conclusions forced at every 2-vertex cut of an edge-maximal graph."""

    checks: tuple[TwoCutCheck, ...]
    vacuous: bool
    ok: bool


def check_lemma_two_cut(g: Graph, certificate) -> TwoCutReport:
    """At each 2-cut {x,y}: xy must be an edge and each side-plus-cut maximal.

    Any failure invalidates the supplied MAXNIK certificate for g.
    """
    if certificate.verdict != VERDICT_MAXNIK:
        raise ValueError("expected a MAXNIK certificate for the input graph")
    checks = []
    for x in range(g.n):
        for y in range(x + 1, g.n):
            pieces = _pieces(g, (x, y))
            if len(pieces) < 2:
                continue
            edge_present = g.has_edge(x, y)
            verdicts = []
            ok = edge_present
            for piece in pieces:
                verdict = certify_maxnik(g._induced(piece)).verdict
                verdicts.append(verdict)
                ok = ok and verdict == VERDICT_MAXNIK
            checks.append(TwoCutCheck((x, y), edge_present, tuple(verdicts), ok))
    return TwoCutReport(tuple(checks), vacuous=not checks,
                        ok=all(c.ok for c in checks))


@dataclass(frozen=True)
class ComplementK2Report:
    prime: bool
    is_complete_minus_edge: bool
    ok: bool


def check_lemma_complement_k2(g: Graph) -> ComplementK2Report:
    """Complement has a K2 component: then prime, or K_n minus one edge."""
    comp_sizes = [c.bit_count() for c in complement(g).components()]
    if 2 not in comp_sizes:
        raise ValueError("complement has no K2 component")
    prime = is_prime(g).prime
    minus_edge = g.m == g.n * (g.n - 1) // 2 - 1
    return ComplementK2Report(prime, minus_edge, prime or minus_edge)
