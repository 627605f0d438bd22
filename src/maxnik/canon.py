"""Canonical labeling, isomorphism, and automorphism orbits.

The labeling follows the classic individualization-refinement scheme:
iterate neighborhood-degree refinement to an equitable ordered partition,
branch on every vertex of the first smallest non-singleton cell, and take
the lexicographically least relabelled adjacency matrix over all leaves.
Leaves that repeat an earlier leaf key yield automorphisms, and branches
equivalent to an explored sibling under the automorphisms found so far
are skipped; the collected permutations generate the full automorphism
group (checked against brute force in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Byte string identifying an isomorphism class: equal iff isomorphic."""

    key: bytes


@dataclass(frozen=True)
class OrbitPartition:
    kind: str  # vertex | edge | non-edge | triangle
    orbits: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.orbits)


def _refine(rows: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
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


def _leaf_key(n: int, rows: tuple[int, ...], lab: tuple[int, ...]) -> int:
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


class _Search:
    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = g.rows
        self.best_key: int | None = None
        self.best_lab: tuple[int, ...] | None = None
        self.seen: dict[int, tuple[int, ...]] = {}
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> None:
        self._node(_refine(self.rows, [tuple(range(self.n))]), ())

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
            self._node(_refine(self.rows, branched), path + (v,))

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
        key = _leaf_key(self.n, self.rows, lab)
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


def _canonical_search(g: Graph) -> tuple[CanonicalForm, tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical form, labeling and automorphism generators from one search."""
    s = _Search(g)
    s.run()
    assert s.best_key is not None and s.best_lab is not None
    nbytes = (g.n * (g.n - 1) // 2 + 7) // 8
    key = bytes([g.n]) + s.best_key.to_bytes(nbytes, "big")
    return CanonicalForm(key), s.best_lab, list(s.autos)


def canonical_labeling(g: Graph) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus a labeling: position i holds vertex lab[i]."""
    form, lab, _ = _canonical_search(g)
    return form, lab


def canonical_form(g: Graph) -> CanonicalForm:
    return canonical_labeling(g)[0]


def canonical_key_graph(g: Graph) -> tuple[bytes, Graph]:
    """Canonical key and representative from a single search."""
    form, lab = canonical_labeling(g)
    return form.key, _relabel_canonically(g, lab)


def _relabel_canonically(g: Graph, lab: tuple[int, ...]) -> Graph:
    """g with vertex lab[i] renamed to i: the canonical representative."""
    pos = [0] * g.n
    for i, v in enumerate(lab):
        pos[v] = i
    return g.relabel(pos)


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return canonical_key_graph(g)[1]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A vertex map g -> h realizing an isomorphism, or None."""
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return None
    fg, lg = canonical_labeling(g)
    fh, lh = canonical_labeling(h)
    if fg != fh:
        return None
    phi = [0] * g.n
    for i in range(g.n):
        phi[lg[i]] = lh[i]
    return tuple(phi)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations generating the full automorphism group."""
    return _canonical_search(g)[2]


def _object_orbits(objects: list, gens: list[tuple[int, ...]], image) -> tuple[tuple, ...]:
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


def orbits(g: Graph, kind: str) -> OrbitPartition:
    """Automorphism orbits of vertices, edges, non-edges, or triangles."""
    gens = automorphism_generators(g)
    if kind == "vertex":
        objects = list(range(g.n))

        def image(v, a):
            return a[v]
    elif kind in ("edge", "non-edge"):
        pairs = g.edges() if kind == "edge" else g.non_edges()
        objects = [tuple(p) for p in pairs]

        def image(e, a):
            return tuple(sorted((a[e[0]], a[e[1]])))
    elif kind == "triangle":
        from .graphs import triangles

        objects = [tuple(t) for t in triangles(g)]

        def image(t, a):
            return tuple(sorted((a[t[0]], a[t[1]], a[t[2]])))
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    return OrbitPartition(kind, _object_orbits(objects, gens, image))
