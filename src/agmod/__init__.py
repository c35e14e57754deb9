"""Exact computation on annihilating-submodule graphs of finite modules.

The graph of a finite module M over a finite commutative ring has a vertex
for each nonzero submodule N with a nonzero proper partner K such that the
product (N:M)(K:M)M vanishes, and an edge between each such distinct pair.
This package builds those graphs from exact submodule lattices, computes
their invariants with exact solvers, localizes modules by idempotents, and
mechanically checks a battery of structural statements over generated
instance corpora.
"""

__version__ = "0.1.0"

from . import aggraph, finring
from .aggraph import AnnGraph, InvariantReport, build_AG, build_AG_star, invariants, to_dot
from .errors import (
    AgmodError,
    DomainError,
    InternalCheckError,
    ResourceLimitError,
    SpecError,
    StructuralError,
)
from .finmod import Lattice, Module, Submodule
from .finring import Ideal, Ring
from .localization import (
    LocalizedModule,
    MultSet,
    check_product_decomposition,
    localize,
    min_prime_complement,
    mult_closure,
)
from .theorems import (
    CorpusSpec,
    InstanceAnalysis,
    PredicateResult,
    generate_corpus,
    run_predicate,
    run_suite,
)

# The process-wide caches, each an LRU cache keyed by tuples of integers:
# the invariants of each graph type and the idempotents of each ring.
CACHES = (aggraph.type_invariants, finring.ring_table)

__all__ = [
    "CACHES",
    "AgmodError",
    "AnnGraph",
    "CorpusSpec",
    "DomainError",
    "Ideal",
    "InstanceAnalysis",
    "InternalCheckError",
    "InvariantReport",
    "Lattice",
    "LocalizedModule",
    "Module",
    "MultSet",
    "PredicateResult",
    "ResourceLimitError",
    "Ring",
    "SpecError",
    "StructuralError",
    "Submodule",
    "build_AG",
    "build_AG_star",
    "check_product_decomposition",
    "generate_corpus",
    "invariants",
    "localize",
    "min_prime_complement",
    "mult_closure",
    "run_predicate",
    "run_suite",
    "to_dot",
]
