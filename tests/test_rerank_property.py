"""The lockstep re-ranking against the per-question reference in
rerank_reference.py, bit for bit.

rerank_all and depth_sweep must give the reference's orders, every trace
field (floats compared by float.hex) and sweep MAPs.
Generated corpora use TF-IDF or dense word vectors and have tied scores
(0.0 and -0.0 among them), repeated fact texts (tied cosines), facts and
Q/A texts with no known word (zero similarity), depths above the fact
count, questions without gold, with a gold uid no fact has, without an
answerable key and without scores.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rerank_reference as reference
from explainrank.corpus import CENTRAL, Question
from explainrank.errors import DataError
from explainrank.rerank import RerankConfig, depth_sweep, rerank_all
from explainrank.scorer import RelevanceTable
from explainrank.textsim import DenseWordVectors, default_provider
from synth import corpus_of

WORDS = ["frog", "pond", "sun", "heat", "rock", "soil", "rain", "leaf", "moon", "the", "of"]
SCORES = [-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]


@st.composite
def texts(draw):
    return " ".join(draw(st.lists(st.sampled_from(WORDS + ["zzz"]), max_size=6)))


@st.composite
def cases(draw):
    pool = draw(st.lists(texts(), min_size=1, max_size=5))
    fact_texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    uids = [f"u{k:02d}" for k in draw(st.permutations(range(len(fact_texts))))]
    facts = dict(zip(uids, fact_texts))
    questions = []
    for k in range(draw(st.integers(1, 5))):
        gold = draw(st.lists(st.sampled_from(uids + ["dangling"]), max_size=4, unique=True))
        answer = draw(st.sampled_from("AAAB"))  # B names no choice: unanswerable
        questions.append(Question(f"q{k}", draw(texts()), {"A": draw(texts())}, answer,
                                  tuple((uid, CENTRAL) for uid in gold)))
    corpus = corpus_of(facts, questions)
    scored = [q.qid for q in questions if draw(st.booleans()) or q is questions[0]]
    scores = draw(st.lists(st.lists(st.sampled_from(SCORES), min_size=len(facts),
                                    max_size=len(facts)), min_size=len(scored), max_size=len(scored)))
    table = RelevanceTable(tuple(scored), tuple(facts), np.array(scores).reshape(len(scored), len(facts)))
    if draw(st.booleans()):
        try:
            provider = default_provider(corpus)
        except DataError:  # no word but stop words anywhere
            assume(False)
    else:
        # small integer vectors: many cosines tie exactly
        components = st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3)
        vectors = np.array([draw(components) for _ in WORDS])
        provider = DenseWordVectors({w: i for i, w in enumerate(WORDS)}, vectors)
    depths = draw(st.lists(st.integers(1, len(facts) + 3), min_size=1, max_size=4))
    return corpus, provider, table, depths


def hexed(rounds):
    """Every field of every round, floats as float.hex."""
    return [
        (r.number, r.selected, r.candidates,
         *([v.hex() for v in values.tolist()] for values in (r.weighted_rel, r.qa_sim, r.score)))
        for r in rounds
    ]


@settings(max_examples=300, deadline=None)
@given(cases())
def test_bitwise_equal_to_per_question_reference(case):
    corpus, provider, table, depths = case
    for depth in depths:
        config = RerankConfig(depth=depth)
        got, got_traces = rerank_all(corpus, provider, table, config, want_trace=True)
        want, want_traces = reference.rerank_all(corpus, provider, table, config, want_trace=True)
        assert list(got.items()) == list(want.items())
        assert list(got_traces) == list(want_traces)
        for qid, trace in got_traces.items():
            assert hexed(trace.rounds) == hexed(want_traces[qid].rounds)

    try:
        want_maps = reference.depth_sweep(corpus, provider, table, depths)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            depth_sweep(corpus, provider, table, depths)
        return
    got_maps = depth_sweep(corpus, provider, table, depths)
    assert [(d, m.hex()) for d, m in got_maps] == [(d, m.hex()) for d, m in want_maps]
