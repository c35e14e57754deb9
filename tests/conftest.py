import hypothesis
import pytest

from agmod import theorems

hypothesis.settings.register_profile(
    "agmod", max_examples=40, deadline=None
)
hypothesis.settings.load_profile("agmod")


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
