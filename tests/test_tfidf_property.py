"""TfidfProvider against the per-text reference in tfidf_reference.py.

The provider tokenises each distinct build text once and builds rows() with
numpy; the reference tokenises every text it is given and builds each row
from a Counter. Vocabulary, idf and every array of rows() must be the same
bits. Generated texts repeat, repeat tokens, hold nothing but stop words or
nothing at all, mix case, Unicode letters, digits and underscores, and
rows() also gets texts that were not build texts.
"""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from explainrank import textsim
from explainrank.errors import DataError
from explainrank.textsim import TfidfProvider, default_provider, fact_vectors

from synth import random_corpus
from tfidf_reference import TfidfReference

WORDS = ["frog", "Frog", "FROG", "plant", "sun", "moon", "rock", "soil", "rain", "heat", "42",
         "x1", "élan", "Straße", "İzmir", "ǅemal", "猫", "ΣΊΣΥΦΟΣ", "a_b", "_", "the", "and",
         "of", "is"]
SEPARATORS = [" ", "  ", ", ", "-", "_", "\t", "; ", " "]


@st.composite
def texts(draw):
    words = draw(st.lists(st.sampled_from(WORDS), max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
    return "".join(w + s for w, s in zip(words, seps))


@st.composite
def cases(draw):
    pool = draw(st.lists(texts(), min_size=1, max_size=6))
    build = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    queries = draw(st.lists(st.sampled_from(pool) | texts(), max_size=10))
    return build, queries


def assert_same_rows(got, want):
    assert got.dim == want.dim
    for name in ("ids", "values", "norms"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=400, deadline=None)
@given(cases())
def test_bitwise_equal_to_per_text_reference(case):
    build, queries = case
    try:
        want = TfidfReference(build)
    except DataError:
        with pytest.raises(DataError):
            TfidfProvider(build)
        return
    got = TfidfProvider(build)
    assert list(got.term_ids.items()) == list(want.term_ids.items())
    assert [v.hex() for v in got.idf.values()] == [v.hex() for v in want.idf.values()]
    for batch in (build, queries, build + queries, []):
        assert_same_rows(got.rows(batch), want.rows(batch))


def test_each_build_text_tokenised_once(monkeypatch):
    corpus = random_corpus(n_questions=8, n_facts=40, seed=11, gold_range=(1, 3))
    facts = [fact.text for fact in corpus.facts.values()]
    qa_texts = [qa for _, qa in corpus.answerable]
    calls = Counter()
    tokenize = textsim.tokenize

    def counting(text, **kwargs):
        calls[text] += 1
        return tokenize(text, **kwargs)

    monkeypatch.setattr(textsim, "tokenize", counting)
    provider = default_provider(corpus)
    fact_vectors(corpus, provider)
    provider.rows(qa_texts)
    assert calls == Counter(set(facts + qa_texts))
