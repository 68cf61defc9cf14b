"""TfidfProvider, the block tokeniser and token overlap scores against the
per-text references in tfidf_reference.py.

The provider tokenises each distinct build text once, a block of texts at a
time, and builds rows() with numpy; the reference tokenises every text it is
given with its own regex and builds each row from a Counter. Vocabulary, idf
and every array of rows() must be the same bits. Generated texts repeat,
repeat tokens, hold nothing but stop words or nothing at all, mix case,
Unicode letters, digits, underscores and line separators, and rows() also
gets texts that were not build texts. Overlap scores, counted on the TF-IDF
rows' term ids, must be the bits of the reference's set intersections.
"""

import sys
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainrank import textsim
from explainrank.corpus import Question
from explainrank.errors import DataError
from explainrank.scorer import OVERLAP, score_lexical
from explainrank.textsim import TfidfProvider, default_provider, fact_vectors

from synth import corpus_of, random_corpus
from tfidf_reference import TfidfReference, overlap_scores, tokenize

WORDS = ["frog", "Frog", "FROG", "plant", "sun", "moon", "rock", "soil", "rain", "heat", "42",
         "x1", "élan", "Straße", "İzmir", "ǅemal", "猫", "ΣΊΣΥΦΟΣ", "a_b", "_", "the", "and",
         "of", "is"]
SEPARATORS = [" ", "  ", ", ", "-", "_", "\t", "; ", " ", "\n", "\x00"]


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


# texts without a term: empty, stop words only, punctuation and underscores only
TERMLESS = ["", "the of", "And IS", "...", "_", " - _ , "]


@settings(max_examples=300, deadline=None)
@given(
    facts=st.lists(texts() | st.sampled_from(TERMLESS), min_size=1, max_size=8),
    stems=st.lists(texts() | st.sampled_from(TERMLESS), max_size=5),
    answers=st.lists(texts() | st.sampled_from(TERMLESS), min_size=5, max_size=5),
)
def test_overlap_equals_set_reference(facts, stems, answers):
    questions = [Question(f"q{i}", stem, {"A": answer}, "A") for i, stem, answer in zip(range(5), stems, answers)]
    corpus = corpus_of({f"f{j}": text for j, text in enumerate(facts)}, questions)
    qa_texts = [qa for _, qa in corpus.answerable]
    if not any(tokenize(text, drop_stopwords=True) for text in [*facts, *qa_texts]):
        with pytest.raises(DataError, match="no tokens in any input text"):
            score_lexical(corpus, None, OVERLAP)
        return
    got = score_lexical(corpus, None, OVERLAP).scores
    want = np.array(overlap_scores(facts, qa_texts), dtype=float).reshape(len(qa_texts), len(facts))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_each_build_text_tokenised_once(monkeypatch):
    corpus = random_corpus(n_questions=8, n_facts=40, seed=11, gold_range=(1, 3))
    facts = [fact.text for fact in corpus.facts.values()]
    qa_texts = [qa for _, qa in corpus.answerable]
    calls = Counter()
    tokenize_block = textsim._tokenize_block

    def counting(texts):
        calls.update(texts)
        return tokenize_block(texts)

    monkeypatch.setattr(textsim, "_tokenize_block", counting)
    provider = default_provider(corpus)
    fact_vectors(corpus, provider)
    provider.rows(qa_texts)
    assert calls == Counter(set(facts + qa_texts))


# pieces of texts for the block tokeniser: ASCII words, separators that may
# also join a block's texts, underscores, Unicode digits, and letters whose
# lowercase is longer (İ) or depends on the letters around it (Σ)
ASCII_PIECES = ["frog", "Frog", "x1", "42", "a_b", "_", "the", "of", " ", "\t", "\n", "\x00",
                "\r", "\x1c", "-", "."]
UNICODE_PIECES = ["\x85", "\u2028", "\u00a0", "٣٤", "²", "İ", "İzmir", "Σ", "ΑΣ", "ς",
                  "ΣΊΣΥΦΟΣ", "Straße", "ǅemal", "猫", "\u0307", "e\u0301"]


def blocks(pieces):
    """Blocks of texts joined from pieces, texts repeating and empty ones too."""
    text = st.lists(st.sampled_from(pieces), max_size=8).map("".join)
    return st.lists(text, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=12)
    )


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    blocks(ASCII_PIECES),
    blocks(ASCII_PIECES + UNICODE_PIECES),
    st.lists(st.text(st.characters(max_codepoint=127)), max_size=6),
    st.lists(st.text(), max_size=6),
))
# one block whose ASCII texts take the one-pass route and the others the regex
@example(["Frog, sun", "élan Vital", "a\nb", "", "x\u2028y_z", "plain TEXT 42", "İzmir"] * 3)
def test_block_tokeniser_equals_per_text_reference(texts):
    assert list(textsim._tokenize_block(texts)) == [tokenize(text) for text in texts]
    for text in texts:
        assert textsim.tokenize(text) == tokenize(text)
        assert textsim.tokenize(text, drop_stopwords=True) == tokenize(text, drop_stopwords=True)


def test_every_ascii_character_tokenised_as_the_reference_does():
    ascii_chars = list(map(chr, range(128)))
    for texts in (ascii_chars, ["".join(ascii_chars)], [c + "Ab9" + c for c in ascii_chars]):
        assert list(textsim._tokenize_block(texts)) == [tokenize(text) for text in texts]


def test_no_character_is_both_alphanumeric_and_whitespace():
    # the ASCII path turns each non-token character into a space and lets
    # str.split drop it: a token character that str.split also splits at
    # would break a token
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if c.isalnum() and c.isspace()] == []
