"""Per-layer spans recorded from outside the program.

The package's modules bind each other's functions by name
(``from .minors import has_minor``), so a wrapper placed only on the
defining module would miss most callers. ``Tracer.install`` replaces the
function object at every binding in every loaded ``maxnik`` module and class,
and ``Tracer.unpatched`` lists any reference to an original that survived.
"""

from __future__ import annotations

import gc
import sys
import time

# (layer, defining module, attribute path); "Graph" is counted, not timed.
TRACED = (
    ("graphs", "maxnik.graphs", "Graph"),
    ("graphs", "maxnik.graphs", "Graph.delete_vertices"),
    ("graphs", "maxnik.graphs", "graph6_decode"),
    ("graphs", "maxnik.graphs", "graph6_encode"),
    ("canon", "maxnik.canon", "canonical_labeling"),
    ("canon", "maxnik.canon", "orbits"),
    ("canon", "maxnik.canon", "isomorphism"),
    ("planarity", "maxnik.planarity", "is_planar"),
    ("planarity", "maxnik.planarity", "is_k_apex"),
    ("minors", "maxnik.minors", "has_minor"),
    ("minors", "maxnik.minors", "closure"),
    ("catalog", "maxnik.catalog", "mmik_library"),
    ("catalog", "maxnik.catalog", "ObstructionLibrary.axiom_for"),
    ("catalog", "maxnik.catalog", "disk_axiom_covers"),
    ("certify", "maxnik.certify", "certify_maxnik"),
    ("certify", "maxnik.certify", "certify_nik"),
    ("certify", "maxnik.certify", "certify_ik"),
    ("certify", "maxnik.certify", "validate_certificate"),
    ("construct", "maxnik.construct", "size_construct"),
    ("construct", "maxnik.construct", "clique_sum"),
    ("primality", "maxnik.primality", "clique_cutsets"),
    ("primality", "maxnik.primality", "decompose"),
    ("survey", "maxnik.smallgraphs", "enumerate_graphs"),
    ("survey", "maxnik.survey", "enumerate_maxnik"),
    ("cli", "maxnik.cli", "main"),
)

# functions whose result has a ``found`` flag: useful outcomes over attempts
FOUND = {"minors.has_minor", "planarity.is_k_apex"}


class Span:
    """Totals for one traced function.

    ``busy_s`` counts only the outermost call when calls recurse; ``self_s``
    leaves out the time spent in traced calls made from inside. ``found``
    and ``neg_busy_s`` split the calls of a ``FOUND`` function by outcome.
    """

    __slots__ = ("calls", "busy_s", "self_s", "depth", "found", "neg_busy_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.found = 0
        self.neg_busy_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.originals: list = []
        self._cells: set[int] = set()  # ids of the wrappers' closure cells
        self._open: list[float] = []  # child time accumulated by each open span

    def _timed(self, name: str, fn):
        span = self.spans[name] = Span()
        open_spans = self._open
        clock = time.perf_counter
        found = name in FOUND

        def traced(*args, **kwargs):
            span.calls += 1
            span.depth += 1
            open_spans.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                span.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span.depth -= 1
                if span.depth == 0:
                    span.busy_s += elapsed
                if found:
                    if result is not None and result.found:
                        span.found += 1
                    else:
                        span.neg_busy_s += elapsed

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _counted_init(self, name: str, init):
        span = self.spans[name] = Span()

        def counted(*args, **kwargs):
            span.calls += 1
            return init(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function at every site that binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "maxnik" or k.startswith("maxnik.")) and m is not None]
        for layer, home, path in TRACED:
            owner = sys.modules[home]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{layer}.{path}"
            if path == "Graph":
                graph = getattr(owner, attr)
                original = graph.__init__
                wrapper = graph.__init__ = self._counted_init(name, original)
            else:
                original = vars(owner)[attr]
                wrapper = self._timed(name, original)
                for holder in _holders(modules):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
            self.originals.append((name, original))
            self._cells.update(id(cell) for cell in wrapper.__closure__)

    def unpatched(self) -> list[str]:
        """Every place outside the tracer that still holds an original."""
        mine = {id(self.originals), id(sys._getframe())} | self._cells
        mine.update(id(pair) for pair in self.originals)
        left = []
        for name, original in self.originals:
            for ref in gc.get_referrers(original):
                if id(ref) in mine:
                    continue
                left.append(f"{name} still referenced by a {type(ref).__name__}")
        return left

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for layer, _home, path in TRACED:
            name = f"{layer}.{path}"
            span = self.spans[name]
            out[f"{name}.calls"] = span.calls
            if path == "Graph":
                continue
            out[f"{name}.busy_s"] = span.busy_s
            out[f"{name}.self_s"] = span.self_s
            layer_self[layer] = layer_self.get(layer, 0.0) + span.self_s
            if name in FOUND:
                out[f"{name}.found_frac"] = span.found / span.calls if span.calls else 0.0
        out["minors.has_minor.neg_busy_s"] = self.spans["minors.has_minor"].neg_busy_s
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        return out


def _holders(modules):
    """Every loaded package module and every class the package defines."""
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("maxnik"):
                yield value
