import pytest

from langwce.synthlang import CorpusConfig, generate_corpus

TINY = CorpusConfig(
    n_langs=3,
    low_lang=2,
    finetune_per_lang=6,
    low_fraction=0.1,
    pretrain_per_high=10,
    valid_per_lang=2,
    test_per_lang=4,
    max_len=5,
    seed=77,
)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A few dozen short utterances across 3 languages, generated once per session."""
    root = tmp_path_factory.mktemp("corpus-tiny")
    generate_corpus(TINY, root)
    return root
