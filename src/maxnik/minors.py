"""Exact minor containment, delta-wye moves, and family closures.

``has_minor`` searches for branch sets directly: pattern vertices are
placed in descending-degree order, each branch set is grown from a root
as a connected subset of unused host vertices, and placements are pruned
on remaining-size and remaining-contact feasibility. Dense patterns
(complete and complete multipartite graphs and their delta-wye relatives)
make the adjacency constraints bite early, which keeps the search exact
and fast at the orders in scope.

Twin pattern vertices (whose transposition is an automorphism) are
interchangeable, so the search tries only one order of their branch sets:
each branch set's root must exceed the root of the set placed for its
nearest earlier twin, a lex-leader symmetry cut in the sense of Crawford,
Ginsberg, Luks and Roy (KR 1996). Negative queries no longer pay for
every permutation of a twin class (7! for K7). Witnesses are unchanged:
swapping two twins' branch sets gives another witness, and when the later
twin has the smaller root that witness is reached first in the search
order, because roots are tried in increasing order and every pruning rule
only cuts placements that extend to no witness. So the first witness of
the unrestricted search already has increasing twin roots and is also the
first witness of the restricted one.

Before any search, ``has_minor`` compares cycle ranks m - n + c (c the
number of components). Deleting an edge lowers m by one and c rises by
at most one; deleting a vertex of degree d lowers n by one and m by d,
and c rises by at most d - 1 (it falls by one when d = 0); contracting an
edge whose ends share t neighbours lowers n by one and m by t + 1. So no
move raises the rank, and a pattern of larger rank than the host is no
minor of it: the gate answers exactly what the search would. A pattern's
rank is kept in its cached plan; the host's costs one flood fill.

``closure`` makes one delta-wye or wye-delta child per automorphism orbit
of its parent, as ``enumerate_graphs`` builds each class once (McKay
1998). An automorphism moving one triangle or degree-3 vertex onto another
makes the two children isomorphic, so a skipped child never founds a class.
The generators are checked and the orbits filled in ``canon``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from . import canon
from .graphs import Graph, _bits, _reach, triangles


@dataclass(frozen=True)
class MinorWitness:
    """Branch sets, indexed by pattern vertex, as sorted host-vertex tuples."""

    branch_sets: tuple[tuple[int, ...], ...]

    def validate(self, host: Graph, pattern: Graph) -> bool:
        """Re-check disjointness, connectivity, and edge realization."""
        if len(self.branch_sets) != pattern.n:
            return False
        masks = []
        seen = 0
        for bs in self.branch_sets:
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
            if _reach(host.rows, m & -m, m) != m:
                return False
            masks.append(m)
        for a, b in pattern.edges():
            na = 0
            for v in _bits(masks[a]):
                na |= host.rows[v]
            if not na & masks[b]:
                return False
        return True


@dataclass(frozen=True)
class MinorSearch:
    found: bool
    witness: MinorWitness | None

    def __bool__(self) -> bool:
        return self.found


def _cycle_rank(g: Graph) -> int:
    """m - n + c, the number of independent cycles of ``g``."""
    return g.m - g.n + len(g.components())


@lru_cache(maxsize=256)
def _plan(pattern: Graph):
    """Placement order, earlier neighbours, pending contacts, twin links,
    and the pattern's cycle rank.

    ``twin[i]`` is the placement index of the nearest earlier twin of
    ``order[i]``, or -1 when it has none.
    """
    np_ = pattern.n
    rows = pattern.rows
    order = sorted(range(np_), key=lambda v: (-pattern.degree(v), v))
    # earlier placements each branch set must touch, and how many pattern
    # neighbors of each placement are still unplaced (for contact pruning)
    earlier = [tuple(j for j in range(i) if pattern.has_edge(order[i], order[j]))
               for i in range(np_)]
    pending0 = [sum(1 for j in range(i + 1, np_) if pattern.has_edge(order[i], order[j]))
                for i in range(np_)]
    twin = [-1] * np_
    for i, a in enumerate(order):
        for t in range(i - 1, -1, -1):
            b = order[t]
            if rows[a] & ~(1 << b) == rows[b] & ~(1 << a):
                twin[i] = t
                break
    return tuple(order), tuple(earlier), tuple(pending0), tuple(twin), _cycle_rank(pattern)


def has_minor(host: Graph, pattern: Graph) -> MinorSearch:
    """Decide whether ``pattern`` is a minor of ``host``, with witness.

    No search runs when the pattern has more vertices, more edges or a
    larger cycle rank (m - n + c) than the host: deleting or contracting
    never raises any of the three, so no minor of the host exceeds it in
    one (module docstring).
    """
    nh, np_ = host.n, pattern.n
    if np_ > nh or pattern.m > host.m:
        return MinorSearch(False, None)
    order, earlier, pending0, twin, rank = _plan(pattern)
    if rank > _cycle_rank(host):
        return MinorSearch(False, None)
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
        if twin[i] >= 0:  # root above the root of the nearest earlier twin
            low = sets[twin[i]] & -sets[twin[i]]
            rem &= ~((low << 1) - 1)
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


# -- delta-wye machinery -----------------------------------------------------


def delta_y(g: Graph, triangle: tuple[int, int, int]) -> Graph:
    """Replace a triangle by a new degree-3 vertex joined to its corners."""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
        raise ValueError(f"{triangle} is not a triangle")
    rows = list(g.rows) + [0]
    for u, v in ((a, b), (a, c), (b, c)):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    w = g.n
    for u in (a, b, c):
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    return Graph(g.n + 1, rows)


def y_delta(g: Graph, center: int) -> Graph:
    """Delete a degree-3 vertex and pairwise join its neighbors."""
    if g.degree(center) != 3:
        raise ValueError(f"vertex {center} has degree {g.degree(center)}, need 3")
    x, y, z = g.neighbors(center)
    rows = list(g.rows)
    for u, v in ((x, y), (x, z), (y, z)):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(g.n, rows).delete_vertices([center])


@dataclass(frozen=True)
class ClosureResult:
    """Deduplicated family closed under the requested moves.

    ``members`` are canonical representatives in key order; ``genealogy``
    maps each member key to (move, parent key), or None for a seed.
    """

    members: tuple[Graph, ...]
    keys: tuple[bytes, ...]
    genealogy: dict[bytes, tuple[str, bytes] | None]

    def __len__(self) -> int:
        return len(self.members)


DELTA_Y = "dy"
Y_DELTA = "yd"


def closure(seeds: list[Graph], moves) -> ClosureResult:
    """Least move-closed family containing the seeds, deduplicated.

    The worklist is processed in canonical-key order so runs are
    reproducible; termination follows because both moves keep the edge
    count bounded and positive-degree vertices number at most twice that.

    A member gets delta-wye on the least triangle of each triangle orbit,
    then wye-delta on the least degree-3 vertex of each vertex orbit, under
    the generators of the search that labelled it. A skipped child is
    isomorphic to its orbit's least, an earlier child of the same parent,
    so each class is first found by the same (move, parent): members, keys
    and genealogy are those of labelling every child.
    """
    moves = frozenset(moves)
    if not moves or not moves <= {DELTA_Y, Y_DELTA}:
        raise ValueError(f"moves must be a nonempty subset of {{{DELTA_Y!r}, {Y_DELTA!r}}}")
    if not seeds:
        raise ValueError("need at least one seed")
    members: dict[bytes, Graph] = {}
    gens: dict[bytes, list[tuple[int, ...]]] = {}  # for this call only
    genealogy: dict[bytes, tuple[str, bytes] | None] = {}
    heap: list[bytes] = []

    def label(g: Graph, origin: tuple[str, bytes] | None) -> None:
        form, lab, autos = canon._canonical_search(g)
        key = form.key
        if key in members:
            return
        # a new class: carry each generator a onto rep as b[i] = pos[a[lab[i]]]
        rep = members[key] = canon._relabel_canonically(g, lab)
        pos = [0] * g.n
        for i, v in enumerate(lab):
            pos[v] = i
        gens[key] = canon._checked(rep.rows, [tuple([pos[a[v]] for v in lab]) for a in autos])
        genealogy[key] = origin
        heapq.heappush(heap, key)

    for s in seeds:
        label(s, None)
    while heap:
        key = heapq.heappop(heap)
        g = members[key]
        children: list[tuple[str, Graph]] = []
        if DELTA_Y in moves:
            orbs = canon._set_orbits(triangles(g), gens[key])
            children.extend((DELTA_Y, delta_y(g, orbit[0])) for orbit in orbs)
        if Y_DELTA in moves:
            cubic = [(v,) for v in range(g.n) if g.degree(v) == 3]
            orbs = canon._set_orbits(cubic, gens[key])
            children.extend((Y_DELTA, y_delta(g, orbit[0][0])) for orbit in orbs)
        for move, child in children:
            label(child, (move, key))
    keys = tuple(sorted(members))
    return ClosureResult(tuple(members[k] for k in keys), keys, genealogy)
