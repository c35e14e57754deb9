import hypothesis
import pytest

import agmod
from agmod import theorems
from agmod.finmod import Module
from agmod.finring import Ring
from agmod.localization import localize, mult_closure

from helpers import NON_CYCLIC, key
from oracles import brute_decompositions

hypothesis.settings.register_profile(
    "agmod", max_examples=40, deadline=None
)
hypothesis.settings.load_profile("agmod")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with every process-wide cache empty (``agmod.CACHES``),
    so none passes or fails on what an earlier test left in the process."""
    for cache in agmod.CACHES:
        cache.cache_clear()


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
    """The structured modules, both sides of each of their nontrivial
    decompositions (built by the oracle, since a split row holds labels)
    and their proper images under localization at one generator, each
    module once."""
    found = {}
    for m in structured_modules:
        found.setdefault(key(m), m)
        for _, left, right in brute_decompositions(m):
            found.setdefault(key(left), left)
            found.setdefault(key(right), right)
        for g in m.ring.elements():
            image = localize(m, mult_closure(m.ring, [g])).image
            if image is not m:
                found.setdefault(key(image), image)
    return list(found.values())
