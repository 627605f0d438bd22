"""Maximal knotless graphs: certify, construct, enumerate, decompose.

A graph is maximal knotless when it has a knotless spatial embedding but
gains an intrinsically knotted one under any edge addition. This package
certifies such graphs with replayable evidence trees, reproduces the
classification through order nine and size twenty, generates the clique-sum
families realizing every feasible size, and decomposes members into prime
factors.
"""

__version__ = "0.1.0"

from .canon import (CanonicalForm, OrbitPartition, are_isomorphic,
                    automorphism_generators, canonical_form, canonical_graph,
                    canonical_labeling, isomorphism, orbits)
from .catalog import NamedGraph, ObstructionLibrary, mmik_library, named_graph
from .certify import (Certificate, certify_ik, certify_maxnik, certify_nik,
                      check_necessary, validate_certificate)
from .construct import (ConstructionPlan, GluingSpec, chain_graphs,
                        clique_sum, npp5_family, prime_family,
                        size_construct, subdivide_retriangulate)
from .errors import (ConstructionInvariantError, MaxnikError,
                     OrderOverflowError, ParseError, PreconditionError,
                     SizeOutOfRangeError, UnrepresentableSizeError,
                     ValidationError)
from .graphs import (Graph, complement, complete_graph, complete_multipartite,
                     from_edges, graph6_decode, graph6_encode, join,
                     non_triangular_edges, triangles)
from .minors import (ClosureResult, MinorWitness, closure, delta_y,
                     has_minor, y_delta)
from .planarity import (is_k_apex, is_maximal_2apex, is_maximal_planar,
                        is_planar)
from .primality import Decomposition, clique_cutsets, decompose, is_prime
from .survey import (classified_maxnik, enumerate_graphs, enumerate_maxnik,
                     enumerate_triangulations, table_deg, table_ve,
                     verify_order9, verify_size20)
