"""NegativeSampler against a brute-force reference on dense corpora full of
near-ties.

The reference takes every non-gold fact's cosine with an explicit Python
loop over the dimensions, left to right (cosine_reference.py), and sorts all
of them by (-cosine, uid). The sampler filters with one matrix-vector
product first and rescores only the facts near the k-th value, or, for
TF-IDF rows and dense rows outside dense_cut_margin's bound, cuts the exact
cosines at the k-th, so on any corpus the two must return the same uids in
the same order.
Generated corpora have small-integer or few-bit word vectors, repeated fact
texts, facts with no in-vocabulary word (zero vectors), word vectors whose
magnitudes differ by up to 2^1100, and k at or above the number of
non-gold facts.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cosine_reference
from explainrank.dataprep import NegativeSampler, dense_cut_margin
from explainrank.textsim import DenseWordVectors, Rows, default_provider, dense_rows, fact_vectors
from synth import corpus_of

WORDS = [f"w{i}" for i in range(8)]
OOV = ["zz", "qq"]
# word-vector scales 2^e: outside [2^-500, 2^500] the sampler may not cut
EXPONENTS = [-600, -510, -100, -3, 0, 3, 100, 505]


def reference_negatives(rows, uids, gold_uid, gold_uids, k):
    """Every non-gold fact's left-to-right cosine, all of them lexsorted.
    TF-IDF weights are spread over the term ids first, and keep the rows'
    norms, which add the squares in the order the terms first occur."""
    j = uids.index(gold_uid)
    rank = {uid: r for r, uid in enumerate(sorted(uids))}
    if rows.dense:
        vectors, norms = rows.values, [cosine_reference.norm(v) for v in rows.values]
    else:
        vectors = np.zeros((len(uids), rows.dim + 1))
        vectors[np.arange(len(uids))[:, None], rows.ids] = rows.values
        norms = rows.norms
    kept, cosines = [], []
    for i, uid in enumerate(uids):
        if uid in gold_uids:
            continue
        kept.append(uid)
        denom = norms[j] * norms[i]
        dot = cosine_reference.dot(vectors[j], vectors[i])
        cosines.append(dot / denom if denom != 0.0 else 0.0)
    order = np.lexsort(([rank[uid] for uid in kept], -np.array(cosines, dtype=float)))
    return [kept[i] for i in order[:k]]


@st.composite
def word_vectors(draw):
    kind = draw(st.sampled_from(["small_int", "eighths", "gaussian"]))
    dim = draw(st.integers(min_value=1, max_value={"small_int": 4, "eighths": 8, "gaussian": 64}[kind]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "small_int":
        table = rng.integers(-2, 3, size=(len(WORDS), dim)).astype(float)
    elif kind == "eighths":
        table = rng.integers(-8, 9, size=(len(WORDS), dim)) / 8.0
    else:
        table = rng.normal(size=(len(WORDS), dim))
    if draw(st.booleans()):  # mixed magnitudes
        scales = draw(st.lists(st.sampled_from(EXPONENTS), min_size=len(WORDS), max_size=len(WORDS)))
        table *= np.exp2(np.array(scales, dtype=float))[:, None]
    return DenseWordVectors({w: i for i, w in enumerate(WORDS)}, table)


@st.composite
def corpora(draw):
    # few distinct texts over many facts: repeated texts and all-OOV facts
    texts = draw(st.lists(
        st.lists(st.sampled_from(WORDS + OOV), max_size=4).map(" ".join), min_size=1, max_size=10
    ))
    n_facts = draw(st.integers(min_value=1, max_value=30))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(texts) - 1),
                          min_size=n_facts, max_size=n_facts))
    # uids whose ascending order differs from the corpus order
    uids = [f"F{p:02d}" for p in draw(st.permutations(range(n_facts)))]
    return corpus_of({uid: texts[p] for uid, p in zip(uids, picks)})


queries = st.lists(
    st.tuples(st.integers(min_value=0), st.sets(st.integers(min_value=0), max_size=6),
              st.integers(min_value=1, max_value=34)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora(), provider=word_vectors(), asked=queries)
def test_sampler_equals_brute_force_reference(corpus, provider, asked):
    uids = list(corpus.facts)
    rows = fact_vectors(corpus, provider)
    sampler = NegativeSampler(corpus, provider)
    for gold, others, k in asked:
        gold_uid = uids[gold % len(uids)]
        gold_uids = {gold_uid, *(uids[i % len(uids)] for i in others)}
        expected = reference_negatives(rows, uids, gold_uid, gold_uids, k)
        assert sampler.negatives(gold_uid, gold_uids, k) == expected
        assert len(expected) == min(k, len(uids) - len(gold_uids))


def route_case(route):
    """24 facts over the words w0..w7 with repeated texts, uids out of corpus
    order and one fact of w7 alone, and the rows of one route: TF-IDF, small
    integer word vectors, or those vectors with w7's scaled by 2^-510, so
    that the w7 fact's norm is outside dense_cut_margin's bound."""
    rng = np.random.default_rng(41)
    texts = [" ".join(rng.choice(WORDS[:7], size=rng.integers(1, 4))) for _ in range(8)]
    uids = [f"F{p:02d}" for p in rng.permutation(24)]
    corpus = corpus_of(dict(zip(uids, [texts[i % 8] for i in range(23)] + ["w7"])))
    if route == "tfidf":
        return corpus, default_provider(corpus)
    table = rng.integers(-2, 3, size=(len(WORDS), 4)).astype(float)
    table[7] = [1.0, -2.0, 0.0, 1.0]
    if route == "dense-unbounded":
        table[7] *= 2.0**-510
    return corpus, DenseWordVectors({w: i for i, w in enumerate(WORDS)}, table)


@pytest.mark.parametrize("k", [5, 21, 30])  # 21 facts are not gold
@pytest.mark.parametrize("route", ["tfidf", "dense", "dense-unbounded"])
def test_each_route_equals_brute_force_reference(route, k):
    corpus, provider = route_case(route)
    sampler, uids = NegativeSampler(corpus, provider), list(corpus.facts.uids)
    assert sampler.rows.dense == (route != "tfidf")
    assert (dense_cut_margin(sampler.rows) is None) == (route == "dense-unbounded")
    for j, gold_uid in enumerate(uids):
        gold_uids = {gold_uid, uids[(j + 5) % 24], uids[(j + 11) % 24]}
        expected = reference_negatives(sampler.rows, uids, gold_uid, gold_uids, k)
        assert sampler.negatives(gold_uid, gold_uids, k) == expected
        assert len(expected) == min(k, 21)


class TestCutMargin:
    def test_derived_from_the_dimension(self):
        u = 2.0**-53
        for d in (1, 50, 300):
            gamma = d * u / (1 - d * u)
            assert dense_cut_margin(dense_rows(np.eye(d))) == 4 * gamma + 8 * u
        assert 1e-14 < dense_cut_margin(dense_rows(np.eye(300))) < 1e-12

    @pytest.mark.parametrize("scale", [2.0**-510, 2.0**505])
    def test_no_cut_outside_the_norm_range(self, scale):
        assert dense_cut_margin(dense_rows(np.eye(3) * [[1.0], [scale], [1.0]])) is None

    def test_zero_rows_do_not_stop_the_cut(self):
        assert dense_cut_margin(dense_rows(np.array([[0.0, 0.0], [1.0, 2.0]]))) is not None

    def test_no_cut_above_the_dimension_limit(self):
        rows = Rows(np.zeros((1, 0)), np.ones(1), 2**16 + 1, np.zeros((1, 0), dtype=np.intp))
        assert dense_cut_margin(rows) is None

    def test_rescores_only_facts_near_the_cut(self, monkeypatch):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(300, 50))
        facts = {f"F{i:03d}": f"v{i}" for i in range(300)}
        corpus = corpus_of(facts)
        provider = DenseWordVectors({f"v{i}": i for i in range(300)}, vectors)
        sizes, cosines = [], Rows.cosines

        def counting(self, j, other=None, among=slice(None)):
            sizes.append(len(self.norms[among]))
            return cosines(self, j, other, among)

        monkeypatch.setattr(Rows, "cosines", counting)
        sampler = NegativeSampler(corpus, provider)
        rows = fact_vectors(corpus, provider)
        for i in range(0, 300, 30):
            gold = {f"F{i:03d}", f"F{(i + 7) % 300:03d}"}
            expected = reference_negatives(rows, list(facts), f"F{i:03d}", gold, 7)
            assert sampler.negatives(f"F{i:03d}", gold, 7) == expected
        assert sizes and max(sizes) < 20
        assert math.isclose(sum(sizes) / len(sizes), 7, abs_tol=1)
