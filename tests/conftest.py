import hypothesis
import pytest

from agmod import aggraph, theorems
from agmod.finmod import Module
from agmod.finring import Ring, ring_table
from agmod.localization import localize, mult_closure

from helpers import NON_CYCLIC, key

hypothesis.settings.register_profile(
    "agmod", max_examples=40, deadline=None
)
hypothesis.settings.load_profile("agmod")


@pytest.fixture(autouse=True)
def fresh_type_cache():
    """Each test starts with no graph type's invariants computed, so none
    passes or fails on what an earlier test left in the process."""
    aggraph.type_invariants.cache_clear()


@pytest.fixture(autouse=True)
def fresh_ring_tables():
    """Each test starts with no ring's idempotents solved, so none passes or
    fails on a ring table an earlier test left in the process."""
    ring_table.cache_clear()


@pytest.fixture(scope="session")
def default_corpus():
    """The default corpus (max-ring 36, max-module 128), generated once."""
    spec = theorems.CorpusSpec()
    return spec, theorems.generate_corpus(spec)


@pytest.fixture(scope="session")
def corpus_analyses(default_corpus):
    """Shared lazy analyses for every default-corpus instance."""
    _, modules = default_corpus
    return [theorems.InstanceAnalysis(m) for m in modules]


@pytest.fixture(scope="session")
def corpus_report(default_corpus):
    """The suite report over the default corpus with every predicate, run once."""
    spec, modules = default_corpus
    return theorems.run_suite(modules, corpus_spec=spec)


@pytest.fixture(scope="session")
def structured_modules(default_corpus):
    """Every default-corpus module and the non-cyclic shapes."""
    _, modules = default_corpus
    return list(modules) + [Module(Ring(r), f) for r, f in NON_CYCLIC]


@pytest.fixture(scope="session")
def oracle_modules(structured_modules):
    """The structured modules, both parts of each of their nontrivial
    decompositions and their proper images under localization at one
    generator, each module once."""
    found = {}
    for m in structured_modules:
        found.setdefault(key(m), m)
        for _, left, right in m.nontrivial_decompositions():
            found.setdefault(key(left), left)
            found.setdefault(key(right), right)
        for g in m.ring.elements():
            image = localize(m, mult_closure(m.ring, [g])).image
            if image is not m:
                found.setdefault(key(image), image)
    return list(found.values())
