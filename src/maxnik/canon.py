"""Canonical labeling, isomorphism, and automorphism orbits.

The labeling follows the classic individualization-refinement scheme:
iterate neighborhood-degree refinement to an equitable ordered partition,
branch on every vertex of the first smallest non-singleton cell, and take
the lexicographically least relabelled adjacency matrix over all leaves.
Leaves that repeat an earlier leaf key yield automorphisms, and branches
equivalent to an explored sibling under the automorphisms found so far
are skipped; the collected permutations generate the full automorphism
group (checked against brute force in the tests).

Refinement counts neighbours only in fresh cells: the cells the previous
round split, or, in the first round, the new singleton (v,) when v is
individualized and the whole vertex set at the root. This gives exactly the
partition, in the same order, that counting against every cell gives. After
a round, every cell has a constant count in each cell that round left
unsplit, so such a count can neither split a cell nor reorder the buckets
of one. In the first round the count in the rest of v's old cell is the
(constant) count in the old cell minus the count in (v,), so it adds
nothing either. The forms, labelings and generator lists are the same as
those of the plain refinement, which the tests keep as a reference.

Generators are checked, and act on vertex sets, only here: orbit pruning is
sound only under true automorphisms. ``_checked`` raises naming a generator
that does not preserve the rows; ``_search`` and ``minors.closure`` pass
theirs through it. ``_set_orbit`` flood-fills the orbit of a vertex-set
mask for ``orbits``, ``is_k_apex`` and ``closure``; ``_reaches`` and
``_subset_orbit_minima`` are hot-path versions of it.

Each labelled graph is searched once per process: the functions below read
``_search``, which keeps the last ``_SEARCHES`` results, immutable and keyed
by order and rows. It checks the generators first, so a wrong one raises
and is never kept. ``enumerate_graphs`` and ``closure`` search only new
graphs, so they call ``_canonical_search`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .graphs import Graph, _bits, _permuted_rows, triangles


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


def _refine(rows: tuple[int, ...], cells: list[tuple[int, ...]],
            fresh: list[int]) -> list[tuple[int, ...]]:
    """Equitable refinement; children of a split cell ordered by signature.

    A vertex's signature counts its neighbours in each fresh cell, in
    partition order: first the cells at the indices ``fresh``, then the
    fragments of every cell the previous round split. A count is at most
    63, so six bits per cell make integer order the lexicographic order of
    the count tuples.
    """
    masks = []
    for i in fresh:
        m = 0
        for v in cells[i]:
            m |= 1 << v
        masks.append(m)
    while masks:
        out: list[tuple[int, ...]] = []
        split: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                rv = rows[v]
                sig = 0
                for m in masks:
                    sig = sig << 6 | (rv & m).bit_count()
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                for sig in sorted(buckets):
                    fragment = buckets[sig]
                    m = 0
                    for v in fragment:
                        m |= 1 << v
                    split.append(m)
                    out.append(tuple(fragment))
        cells = out
        masks = split
    return cells


def _leaf_key(n: int, rows: tuple[int, ...], lab: tuple[int, ...]) -> int:
    """Upper-triangle bits of the adjacency matrix relabelled by ``lab``.

    Row i contributes the bits of columns n-1 down to i+1, in that order.
    """
    key = 0
    for i in range(n - 1):
        r = rows[lab[i]]
        for j in range(n - 1, i, -1):
            key = key << 1 | r >> lab[j] & 1
    return key


class _Search:
    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = g.rows
        self.best_key: int | None = None
        self.best_lab: tuple[int, ...] | None = None
        self.seen: dict[int, tuple[int, ...]] = {}
        self.autos: list[tuple[int, ...]] = []

    def run(self, root: list[tuple[int, ...]] | None = None) -> None:
        self._node(root or _refine(self.rows, [tuple(range(self.n))], [0]), ())

    def _node(self, cells: list[tuple[int, ...]], path: tuple[int, ...]) -> None:
        if len(cells) == self.n:
            self._leaf(tuple([c[0] for c in cells]))
            return
        target = -1
        size = self.n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = i
                size = len(cell)
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1:]
        explored: list[int] = []
        gens: list[tuple[int, ...]] = []  # path-fixing automorphisms found so far
        checked = 0
        for k, v in enumerate(cell):
            if explored:
                for a in self.autos[checked:]:
                    if all(a[p] == p for p in path):
                        gens.append(a)
                checked = len(self.autos)
                if gens and _reaches(v, explored, gens):
                    continue
            explored.append(v)
            branched = head + [(v,), cell[:k] + cell[k + 1:]] + tail
            self._node(_refine(self.rows, branched, [target]), path + (v,))

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


def _reaches(v: int, targets: list[int], gens: list[tuple[int, ...]]) -> bool:
    """Does a non-empty product of ``gens`` map v into ``targets``?"""
    reach = {v}
    frontier = [v]
    goal = set(targets)
    while frontier:
        w = frontier.pop()
        for a in gens:
            img = a[w]
            if img in goal:
                return True
            if img not in reach:
                reach.add(img)
                frontier.append(img)
    return False


def _canonical_search(g: Graph, root: list[tuple[int, ...]] | None = None
                      ) -> tuple[CanonicalForm, tuple[int, ...], list[tuple[int, ...]]]:
    """Form, labeling and generators from one search, at g's ``root`` partition."""
    s = _Search(g)
    s.run(root)
    assert s.best_key is not None and s.best_lab is not None
    nbytes = (g.n * (g.n - 1) // 2 + 7) // 8
    key = bytes([g.n]) + s.best_key.to_bytes(nbytes, "big")
    return CanonicalForm(key), s.best_lab, list(s.autos)


_SEARCHES = 128  # a size-planner pass meets 4 graphs, a composite batch about 75


@lru_cache(maxsize=_SEARCHES)
def _search(g: Graph) -> tuple[CanonicalForm, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``_canonical_search(g)`` with its generators checked, kept for reuse."""
    form, lab, autos = _canonical_search(g)
    return form, lab, tuple(_checked(g.rows, autos))


def canonical_labeling(g: Graph) -> tuple[CanonicalForm, tuple[int, ...]]:
    """Canonical form plus a labeling: position i holds vertex lab[i]."""
    form, lab, _ = _search(g)
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
    return Graph._trusted(g.n, _permuted_rows(g.rows, pos))


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
    """Permutations generating the full automorphism group, each checked."""
    return list(_search(g)[2])


def _checked(rows: tuple[int, ...], gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``gens``, each verified to preserve ``rows``; a wrong one raises."""
    for a in gens:
        if _permuted_rows(rows, a) != rows:
            raise AssertionError(f"generator {a} is not an automorphism")
    return gens


def _set_orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of the vertex set ``mask`` under ``gens``, as masks."""
    orbit = {mask}
    stack = [mask]
    while stack:
        x = stack.pop()
        for a in gens:
            y = 0
            rest = x
            while rest:
                low = rest & -rest
                y |= 1 << a[low.bit_length() - 1]
                rest ^= low
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _set_orbits(sets: Iterable[tuple[int, ...]], gens: list[tuple[int, ...]]) -> tuple[tuple, ...]:
    """Sorted orbits of the vertex tuples ``sets``, which ``gens`` permute."""
    found = []
    seen: set[int] = set()
    for s in sets:
        mask = sum(1 << v for v in s)
        if mask not in seen:
            orbit = _set_orbit(mask, gens)
            seen |= orbit
            found.append(tuple(sorted(tuple(_bits(m)) for m in orbit)))
    return tuple(sorted(found))


def _subset_orbit_minima(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The least mask of each orbit of <gens> on subsets of 0..n-1, increasing.

    Each generator gets a table of its images of all 2**n masks, filled by
    adding one bit at a time; each mask not yet seen starts a new orbit,
    which a flood fill through the tables marks.
    """
    size = 1 << n
    tables = []
    for a in gens:
        img = [0] * size
        for m in range(1, size):
            low = m & -m
            img[m] = img[m ^ low] | 1 << a[low.bit_length() - 1]
        tables.append(img)
    seen = bytearray(size)
    minima = []
    for m in range(size):
        if seen[m]:
            continue
        minima.append(m)
        seen[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for img in tables:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return minima


def orbits(g: Graph, kind: str) -> OrbitPartition:
    """Automorphism orbits of vertices, edges, non-edges, or triangles."""
    if kind == "vertex":
        sets = [(v,) for v in range(g.n)]
    elif kind in ("edge", "non-edge"):
        sets = g.edges() if kind == "edge" else g.non_edges()
    elif kind == "triangle":
        sets = triangles(g)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    found = _set_orbits(sets, automorphism_generators(g))
    if kind == "vertex":
        found = tuple(tuple(v for (v,) in orbit) for orbit in found)
    return OrbitPartition(kind, found)
