"""The inference-rule table: golden trees, forged certificates, coverage."""

from __future__ import annotations

import ast
import copy
import hashlib
import inspect
import pathlib
import random
import sys

import pytest

import maxnik.certify as certify_module
import maxnik.construct as construct_module
from maxnik.catalog import named_graph
from maxnik.certify import (LEMMA_EDGE_SUM, RULES, SETS, VERDICT_IK, VERDICT_MAXNIK,
                            VERDICT_NIK, VERDICT_NOT_MAXNIK, VERDICT_UNKNOWN,
                            Certificate, certify_ik, certify_maxnik,
                            certify_nik, relabel_certificate,
                            validate_certificate)
from maxnik.construct import chain_graphs, npp5_family, size_construct
from maxnik.errors import ValidationError
from maxnik.graphs import complete_graph, graph6_decode, graph6_encode
from maxnik.survey import classified_maxnik

from conftest import cycle_graph

VERDICTS = (VERDICT_IK, VERDICT_NIK, VERDICT_MAXNIK, VERDICT_NOT_MAXNIK, VERDICT_UNKNOWN)


def _golden_trees():
    """Every certificate tree of the construction and order-9 golden set."""
    trees = [size_construct(n)[2] for n in range(20, 181) if n not in (22, 178)]
    trees += [certify_maxnik(g) for g in classified_maxnik(9)]
    trees += [npp5_family(k)[1] for k in range(1, 6)]
    trees += [chain_graphs(i)[1] for i in range(1, 7)]
    return trees


def _relabelled(trees):
    """Each tree under the next shuffle of one Random(1010)."""
    rng = random.Random(1010)
    moved = []
    for cert in trees:
        perm = list(range(cert.graph.n))
        rng.shuffle(perm)
        moved.append(relabel_certificate(cert, tuple(perm)))
    return moved


@pytest.fixture(scope="module")
def golden():
    trees = _golden_trees()
    return trees, _relabelled(trees)


def _digest(trees) -> str:
    return hashlib.sha256("".join(c.dumps() for c in trees).encode()).hexdigest()


# sha256 of the joined dumps() of the golden trees and of their relabellings,
# measured before the rule and lemma tables replaced the per-rule branches
GOLDEN_TREES_DIGEST = "aa9ce2c2dc51c57d0d9298085c4d117c2173373e3eb5ad883672fb4b2c64ace4"
GOLDEN_RELABELLED_DIGEST = "df663b43ce228fbd840cd437e70fa1a566ce69e6510fd0a77d62b2c1525dd696"


class TestGoldenTrees:
    def test_trees_unchanged(self, golden):
        trees, _ = golden
        assert len(trees) == 159 + 7 + 5 + 6
        assert _digest(trees) == GOLDEN_TREES_DIGEST

    def test_relabelled_trees_unchanged(self, golden):
        assert _digest(golden[1]) == GOLDEN_RELABELLED_DIGEST

    def test_every_tree_validates(self, golden):
        trees, moved = golden
        for cert in trees + moved:
            assert validate_certificate(cert) == []


def _with(cert: Certificate, verdict: str | None = None, **evidence) -> Certificate:
    """``cert`` with its verdict and some evidence fields replaced."""
    return Certificate(verdict or cert.verdict, cert.rule, {**cert.evidence, **evidence},
                       cert.children)


def _k(n: int) -> str:
    return graph6_encode(complete_graph(n))


class TestForgedCertificates:
    """Certificates whose evidence replays but whose verdict does not follow."""

    def test_maxnik_from_nik_undecided(self):
        forged = Certificate(VERDICT_MAXNIK, "nik-undecided", {"graph": _k(8)})
        assert validate_certificate(forged) != []

    def test_per_non_edge_without_an_nik_child(self):
        forged = Certificate(VERDICT_MAXNIK, "per-non-edge",
                             {"graph": _k(8), "orbit_representatives": []})
        assert validate_certificate(forged) != []

    def test_complete_nik_with_the_child_of_another_graph(self):
        k3 = certify_nik(complete_graph(3))
        forged = Certificate(VERDICT_MAXNIK, "complete-nik", {"graph": _k(8), "n": 8}, (k3,))
        assert validate_certificate(forged) != []

    def test_is_ik_with_the_child_of_another_graph(self):
        k7 = certify_ik(complete_graph(7))
        forged = Certificate(VERDICT_NOT_MAXNIK, "is-ik",
                             {"graph": graph6_encode(named_graph("E9").graph)}, (k7,))
        assert validate_certificate(forged) != []

    @pytest.mark.parametrize("verdict", [VERDICT_MAXNIK, VERDICT_IK])
    def test_apex_pair_with_another_verdict(self, verdict):
        cert = certify_nik(complete_graph(6))
        assert cert.rule == "apex-pair"
        assert validate_certificate(_with(cert, verdict)) != []

    @pytest.mark.parametrize("verdict", [VERDICT_IK, VERDICT_NIK, VERDICT_NOT_MAXNIK])
    def test_edge_sum_of_maxnik_graphs_with_another_verdict(self, verdict):
        cert = chain_graphs(2)[1]
        assert validate_certificate(cert) == []
        assert validate_certificate(_with(cert, verdict)) != []

    def test_maxnik_from_the_nik_edge_sum_lemma(self):
        cert = chain_graphs(2)[1]
        assert validate_certificate(_with(cert, lemma=LEMMA_EDGE_SUM)) != []

    def test_apex_witness_of_three_vertices(self):
        forged = Certificate(VERDICT_NIK, "apex-pair", {"graph": _k(7), "witness": [0, 1, 2]})
        assert validate_certificate(forged) != []


_NO_GRAPH = "evidence 'graph' is missing or not a graph6 string"

# a change to K5's certificate JSON, and the problems it gives or the error it raises
_MALFORMED = {
    "child-without-graph": (lambda d: d["children"][0]["evidence"].pop("graph"),
                            ["root: first child is not a NIK certificate of this graph",
                             f"root.0: {_NO_GRAPH}"]),
    "bad-graph6": (lambda d: d["evidence"].update(graph="!!"), [f"root: {_NO_GRAPH}"]),
    "list-verdict": (lambda d: d.update(verdict=[VERDICT_MAXNIK]),
                     ["root: rule complete-nik does not conclude ['MAXNIK']"]),
    "node-without-children": (lambda d: d["children"][0].pop("children"),
                              ValidationError("certificate node has no 'children'")),
    "child-not-an-object": (lambda d: d.update(children=[3]),
                            ValidationError("certificate node 3 is not an object")),
    "children-not-a-list": (lambda d: d.update(children=5),
                            ValidationError("certificate node's 'children' is not a list")),
}


class TestMalformedEvidence:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_hand_made_certificate(self, case):
        spoil, want = _MALFORMED[case]
        data = copy.deepcopy(certify_maxnik(complete_graph(5)).to_json())
        spoil(data)
        if isinstance(want, Exception):
            with pytest.raises(type(want), match=str(want)):
                Certificate.from_json(data)
        else:
            assert validate_certificate(Certificate.from_json(data)) == want

    def test_node_not_an_object(self):
        with pytest.raises(ValidationError, match="certificate node 7 is not an object"):
            Certificate.from_json(7)

    def test_apex_pair_without_witness(self):
        problems = validate_certificate(
            Certificate(VERDICT_NIK, "apex-pair", {"graph": _k(6)}))
        assert problems == ["root: evidence 'witness' is missing or not a vertex set in range(6)"]

    @pytest.mark.parametrize("g6,witness", [("@", [0]), ("A_", [0, 1]), ("A_", [1, 0])])
    def test_apex_pair_witness_of_every_vertex(self, g6, witness):
        # deleting every vertex leaves the empty graph, which is planar: accepted
        cert = Certificate(VERDICT_NIK, "apex-pair", {"graph": g6, "witness": witness})
        assert validate_certificate(cert) == []

    def test_augmentation_edge_outside_the_graph(self):
        cert = certify_maxnik(cycle_graph(7))
        assert cert.rule == "augmentation-nik"
        problems = validate_certificate(_with(cert, edge=[0, 99]))
        assert problems == ["root: evidence 'edge' is missing or not a vertex set in range(7)"]


def _nodes(cert: Certificate):
    yield cert
    for child in cert.children:
        yield from _nodes(child)


@pytest.fixture(scope="module")
def examples(golden):
    """One certificate per rule, the first in the golden trees or one built here."""
    found = {}
    for tree in golden[0]:
        for node in _nodes(tree):
            found.setdefault(node.rule, node)
    found["no-ik-evidence"] = certify_ik(cycle_graph(5))
    found["no-nik-evidence"] = certify_nik(complete_graph(9))
    found["is-ik"] = certify_maxnik(complete_graph(7))
    found["augmentation-nik"] = certify_maxnik(cycle_graph(7))
    # an order-9 graph that is not 2-apex and has no library minor or axiom
    found["nik-undecided"] = certify_maxnik(graph6_decode("HLvnf~}"))
    with pytest.MonkeyPatch.context() as mp:
        # with the IK search silenced, K7^-'s one added edge stays undecided
        mp.setattr(certify_module, "certify_ik",
                   lambda g: Certificate(VERDICT_UNKNOWN, "no-ik-evidence",
                                         {"graph": graph6_encode(g)}))
        found["augmentation-undecided"] = certify_maxnik(named_graph("K7^-").graph)
    return found


def _built_nodes():
    """(rule, evidence keys) of each certificate node the provers' source builds.

    A node is a ``_cert`` or ``Certificate`` call naming its rule as a string
    literal; its evidence keys are the keyword arguments and the keys of a
    dict literal argument.
    """
    for module in (certify_module, construct_module):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_cert", "Certificate")
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                keys = {k.arg for k in node.keywords}
                keys.update(k.value for arg in node.args[2:] if isinstance(arg, ast.Dict)
                            for k in arg.keys if isinstance(k, ast.Constant))
                yield node.args[1].value, keys


class TestRuleTable:
    def test_every_prover_rule_has_an_entry(self):
        assert len(RULES) == 12
        assert {rule for rule, _ in _built_nodes()} == set(RULES)

    def test_only_the_axiom_rule_carries_a_trust_label(self):
        # the published embeddings are the one trusted leaf: a quoted fact that
        # came back as a rule would have to say so in its evidence
        assert {rule for rule, keys in _built_nodes() if "trust" in keys} == {"axiom"}

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_rule(self, examples, name):
        cert = examples[name]
        rule = RULES[name]
        assert cert.rule == name and cert.verdict in rule.concludes
        assert validate_certificate(cert) == []
        g = cert.graph
        perm = list(range(g.n))
        random.Random(name).shuffle(perm)
        moved = relabel_certificate(cert, tuple(perm))
        assert moved.graph == g.relabel(perm)
        assert validate_certificate(moved) == []
        for verdict in VERDICTS:
            if verdict not in rule.concludes:
                assert validate_certificate(_with(cert, verdict)) != [], verdict
        for field, shape in rule.fields.items():
            value = cert.evidence[field]
            tampered = ([[g.n] + value[0][1:]] + value[1:] if shape == SETS
                        else [g.n] + value[1:])
            assert validate_certificate(_with(cert, **{field: tampered})) != [], field
            missing = {k: v for k, v in cert.evidence.items() if k != field}
            assert validate_certificate(
                Certificate(cert.verdict, name, missing, cert.children)) != [], field


# exports the package itself never calls, each kept for the caller it serves
PACKAGE_ENTRY_POINTS = (
    ("are_isomorphic", "the yes/no isomorphism test offered to callers"),
    ("isomorphism", "an explicit vertex map between two isomorphic graphs"),
    ("canonical_graph", "the canonical representative of a graph's class"),
    ("complement", "the graph operation the paper's complements are stated in"),
    ("certify_nik", "the knotless half of certify_maxnik, on its own"),
    ("clique_cutsets", "every minimal clique cutset, not just the first"),
    ("validate_certificate", "replays a certificate a consumer was handed"),
    ("verify_order9", "the order-9 classification report"),
    ("verify_size20", "the size-20 classification report"),
)


def _package_trees():
    """(file name, parsed module) of each source file of the package."""
    for path in sorted(pathlib.Path(certify_module.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


class TestPackageSource:
    def test_imports_only_the_standard_library_and_the_package(self):
        outside = []
        for name, tree in _package_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                outside += [(name, m) for m in modules
                            if m.split(".")[0] not in sys.stdlib_module_names | {"maxnik"}]
        assert outside == []

    def test_no_function_takes_a_library_argument(self):
        # the provers and the validator read the one library from mmik_library()
        takers = [(name, getattr(node, "name", "<lambda>"))
                  for name, tree in _package_trees() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  and "lib" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
        assert takers == []

    def test_catalog_imports_none_of_smallgraphs_minors_planarity(self):
        # the library and the order-9 names are read from their tables; their
        # derivations live in the tests, and verify_order9 re-derives the names
        imported = set()
        for node in ast.walk(dict(_package_trees())["catalog.py"]):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not ({"smallgraphs", "minors", "planarity"}
                    & {m.split(".")[-1] for m in imported})

    def test_every_export_is_used_by_the_package_or_is_an_entry_point(self):
        # a name only the tests call belongs in tests/conftest.py, not in src/
        trees = dict(_package_trees())
        exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        used = set()
        for tree in trees.values():
            for top in tree.body:
                own = getattr(top, "name", None)  # a def naming itself is no use
                for node in ast.walk(top):
                    name = (node.name if isinstance(node, ast.alias)
                            else getattr(node, "id", None) or getattr(node, "attr", None))
                    if name and name != own:
                        used.add(name)
        assert exported - used == {name for name, _ in PACKAGE_ENTRY_POINTS}

    def test_only_minors_and_cli_name_closure(self):
        # minors defines it and cli runs it; __init__ only re-exports it
        namers = {name for name, tree in _package_trees() for node in ast.walk(tree)
                  if "closure" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None), getattr(node, "asname", None))
                  and not (name == "__init__.py" and isinstance(node, ast.alias))}
        assert namers == {"minors.py", "cli.py"}

    def test_certify_walks_through_the_public_is_k_apex(self):
        # one 2-apex walk, one DMP path search: no private walk or cycle finder
        trees = dict(_package_trees())
        private = [alias.name for node in ast.walk(trees["certify.py"])
                   if isinstance(node, ast.ImportFrom) and node.module == "planarity"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []
        defined = {node.name for node in ast.walk(trees["planarity.py"])
                   if isinstance(node, ast.FunctionDef)}
        assert not {"_apex_walk", "_dfs_cycle"} & defined
