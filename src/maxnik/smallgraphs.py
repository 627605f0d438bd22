"""Exhaustive isomorphism-class enumeration for small orders.

Classes of order n are generated from the classes of order n-1 by
canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998), so no candidate is ever labeled only to be thrown
away as a duplicate. A parent P (a canonical representative of order n-1)
is extended by a new vertex x adjacent to a set N, for one N from each
orbit of Aut(P) on vertex subsets. The child C = P + x is accepted iff x
has the largest degree in C and lies in the orbit, under Aut(C), of the
chosen vertex w: the last vertex of C's canonical labeling among those of
largest degree.

Every class X of order n is produced exactly once:

* The orbit of w is an isomorphism invariant. Isomorphic graphs X and Y
  have the same canonical graph, and w is the vertex at a fixed position
  of it (the last one of largest degree). So the isomorphism X -> Y read
  off the two canonical labelings sends w_X to w_Y, and every other
  isomorphism differs from it by an automorphism: each maps the chosen
  orbit of X onto the chosen orbit of Y.
* At least once: X - w is isomorphic to exactly one parent P, and an
  isomorphism X - w -> P takes w's neighbours to a set in the orbit of one
  representative N; composing with an automorphism of P gives an
  isomorphism X -> P + x with N(x) = N that sends w to x. So x is in the
  chosen orbit of that child, which is accepted.
* At most once: if children (P, N) and (P', N') are accepted and
  isomorphic, both new vertices lie in the chosen orbits, so an
  isomorphism can be taken that sends x to x'. It restricts to an
  isomorphism P -> P', hence P = P' (both are canonical representatives)
  and it is an automorphism of P mapping N to N', so N and N' are the same
  orbit representative.

The representatives N are the least mask of each orbit of Aut(P) on
subsets, found by a flood fill over one image table per generator instead
of a union-find over every mask. A child in which some vertex has degree
above |N| is rejected before any canonical search; in the rest |N| is the
largest degree. Refinement orders the cells by degree in its first round
and only splits cells in place after it, so the last cell of the root
partition holds vertices of largest degree. Every leaf refines the root in
order, so the last vertex of the canonical labeling, which is w, lies in
that cell. The cell is a union of orbits of Aut(C), so a child with x
outside it is rejected without a search. The rest take one search from
that root, which yields the key, the labeling and the generators at once.
This covers disconnected graphs too. Each graph searched here is new, so
none uses canon's cache.

``enumerate_graphs(n, sizes)`` keeps only the classes whose size lies in
the window ``sizes`` = lo..hi, and generates no others. A kept class X with
m edges comes from its parent X - w, where w has the largest degree d, so
ceil(2 lo / n) <= d <= n - 1. The parents are therefore the classes of
order n - 1 with sizes max(0, lo - (n - 1))..hi - ceil(2 lo / n), found the
same way; a parent whose children cannot have both the largest degree and
a size in the window is dropped before its search, and a child whose size
lies outside the window before its refinement. The acceptance test is
unchanged, so each kept class is still produced exactly once. The full
enumeration is the widest window. Full orders are cached; a window is cut
from a cached full order when there is one, and is otherwise generated and
not kept. Every generated result is checked against the number of classes
of its order and sizes.
"""

from __future__ import annotations

from .canon import (_canonical_search, _checked, _reaches, _refine,
                    _relabel_canonically, _subset_orbit_minima,
                    canonical_key_graph)
from .graphs import Graph, _bits, complete_graph, join
from .planarity import is_planar

_CLASS_CACHE: dict[int, tuple[Graph, ...]] = {}

# graphs on n unlabeled vertices by number of edges (OEIS A008406), the
# generation self-check; row n sums to the number of graphs of order n (A000088)
CLASS_COUNTS = {
    1: (1,),
    2: (1, 1),
    3: (1, 1, 1, 1),
    4: (1, 1, 2, 3, 2, 1, 1),
    5: (1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1),
    6: (1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1),
    7: (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10,
        5, 2, 1, 1),
    8: (1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
        1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1),
    9: (1, 1, 2, 5, 11, 25, 63, 148, 345, 771, 1637, 3252, 5995, 10120, 15615,
        21933, 27987, 32403, 34040, 32403, 27987, 21933, 15615, 10120, 5995,
        3252, 1637, 771, 345, 148, 63, 25, 11, 5, 2, 1, 1),
}


def enumerate_graphs(n: int, sizes: range | None = None) -> tuple[Graph, ...]:
    """Isomorphism classes of order n, as canonical representatives in key order.

    ``sizes``, a range of edge counts with step 1, keeps only the classes
    whose size lies in it; the default keeps all of them.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    complete = n * (n - 1) // 2
    if sizes is None:
        sizes = range(complete + 1)
    elif sizes.step != 1:
        raise ValueError("sizes must be a range of consecutive edge counts")
    lo, hi = max(sizes.start, 0), min(sizes.stop - 1, complete)
    if lo > hi:
        return ()
    whole = lo == 0 and hi == complete
    if n in _CLASS_CACHE:
        full = _CLASS_CACHE[n]
        return full if whole else tuple(g for g in full if lo <= g.m <= hi)
    if n == 1:
        out: tuple[Graph, ...] = (Graph(1, [0]),)
    else:
        reps: dict[bytes, Graph] = {}
        new = n - 1
        # x has the largest degree, which is at least the average 2m/n
        least = -(-2 * lo // n)
        for parent in enumerate_graphs(new, range(max(0, lo - new), hi - least + 1)):
            degrees = parent.degrees()
            most = max(degrees)
            # x needs degree at least most, and the child a size in the window
            first, last = max(most, lo - parent.m), min(new, hi - parent.m)
            if first > last:
                continue
            busiest = 0
            for v, d in enumerate(degrees):
                if d == most:
                    busiest |= 1 << v
            gens = _checked(parent.rows, _canonical_search(parent)[2])
            for nb in _subset_orbit_minima(new, gens):
                top = nb.bit_count()
                # a vertex of degree top adjacent to x would have degree top + 1
                if not first <= top <= last or top == most and nb & busiest:
                    continue
                rows = list(parent.rows) + [nb]
                for v in _bits(nb):
                    rows[v] |= 1 << new
                child = Graph._trusted(n, tuple(rows))
                root = _refine(child.rows, [tuple(range(n))], [0])
                if new not in root[-1]:
                    continue
                form, lab, autos = _canonical_search(child, root)
                w = lab[-1]
                if w != new and not _reaches(w, [new], autos):
                    continue
                if form.key in reps:
                    raise AssertionError(
                        f"order {n} class generated twice: automorphism generators incomplete")
                reps[form.key] = _relabel_canonically(child, lab)
        out = tuple(reps[k] for k in sorted(reps))
    if n in CLASS_COUNTS and len(out) != (want := sum(CLASS_COUNTS[n][lo:hi + 1])):
        raise AssertionError(
            f"generated {len(out)} classes of order {n} and sizes {lo}..{hi}, expected {want}")
    if whole:
        _CLASS_CACHE[n] = out
    return out


def enumerate_triangulations(n: int) -> tuple[Graph, ...]:
    """Maximal planar graphs on n vertices up to isomorphism, 3 <= n <= 8."""
    if not 3 <= n <= 8:
        raise ValueError("triangulation enumeration covers orders 3..8")
    want = 3 * n - 6
    return tuple(g for g in enumerate_graphs(n, range(want, want + 1)) if is_planar(g))


def maximal_2apex_graphs(n: int) -> tuple[Graph, ...]:
    """Maximal 2-apex graphs of order n, as canonical representatives in key order.

    Complete below order 7; from 7 through 10 a maximal 2-apex graph must be
    a triangulation joined with K2: the 5n-15 edge count forces both apexes
    adjacent to everything and the rest maximal planar.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n < 7:
        return (complete_graph(n),)
    if n > 10:
        raise ValueError("triangulation enumeration stops at order 8 hosts")
    reps = dict(canonical_key_graph(join(t, complete_graph(2)))
                for t in enumerate_triangulations(n - 2))
    return tuple(reps[k] for k in sorted(reps))
