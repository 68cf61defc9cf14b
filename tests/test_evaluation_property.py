"""Every MAP from gold positions against the scan-based reference in
eval_reference.py, bit for bit.

evaluate_rankings must give the reference's EvalReport, every float
compared by float.hex and per_role in the same order, or the same error;
its map_overall must also give the reference's map_overall on each ranked
question alone, with all its gold or its CENTRAL gold. Generated rankings
are truncated or full and may repeat a uid; gold may name a uid under two
roles, carry unknown role labels or name a uid no fact has; some questions
have no gold and some annotated ones no ranking.
"""

import re
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_reference as reference
from explainrank.corpus import CENTRAL, GROUNDING, LEXGLUE, Corpus, Question
from explainrank.errors import DataError
from explainrank.evaluation import evaluate_rankings
from synth import corpus_of

ROLES = [CENTRAL, GROUNDING, LEXGLUE, "weird", "Other role"]


@st.composite
def rankings(draw, uids):
    """A prefix of a permutation of uids, sometimes with one uid repeated."""
    ranked = draw(st.permutations(uids))[: draw(st.integers(0, len(uids)))]
    if ranked and draw(st.booleans()):
        ranked.insert(draw(st.integers(0, len(ranked))), draw(st.sampled_from(ranked)))
    return ranked


@st.composite
def cases(draw):
    uids = [f"u{k:02d}" for k in range(draw(st.integers(1, 20)))]
    questions, ranked = [], {}
    # from 8 values on, numpy's pairwise sum can differ from a left-to-right one
    for k in range(draw(st.integers(1, 12))):
        gold_uids = st.sampled_from(uids + ["dangling"])
        gold = draw(st.lists(st.tuples(gold_uids, st.sampled_from(ROLES)), max_size=8, unique=True))
        if gold and draw(st.booleans()):  # the same uid again, under a second role
            uid, role = gold[0]
            gold.append((uid, ROLES[(ROLES.index(role) + 1) % len(ROLES)]))
        questions.append(Question(f"q{k}", "s", {"A": "a"}, "A", tuple(gold)))
        if draw(st.integers(0, 4)):  # an annotated question may have no ranking
            ranked[f"q{k}"] = draw(rankings(uids))
    return corpus_of({uid: f"text {uid}" for uid in uids}, questions), ranked


def hexed(report):
    """Every field of an EvalReport, floats as float.hex."""
    return (
        report.map_overall.hex(),
        [(role, value.hex()) for role, value in report.per_role.items()],
        [(size, count, value.hex()) for size, (count, value) in report.per_length.items()],
        report.n_questions,
        report.skipped,
        report.unretrieved,
    )


def map_overall(ranked, corpus):
    return evaluate_rankings(ranked, corpus).map_overall


def assert_same(got, want, *args, digest=float.hex):
    """got(*args) gives want(*args) bit for bit, or raises want's error."""
    try:
        expected = want(*args)
    except (DataError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            got(*args)
        return
    assert digest(got(*args)) == digest(expected)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_bitwise_equal_to_scan_reference(case):
    corpus, ranked = case
    assert_same(evaluate_rankings, reference.evaluate_rankings, ranked, corpus, digest=hexed)
    for q in corpus.questions:
        if q.qid in ranked:
            central = tuple((uid, role) for uid, role in q.gold if role == CENTRAL)  # may be empty
            for gold in (q.gold, central):
                alone = Corpus(facts=corpus.facts, questions=(replace(q, gold=gold),))
                assert_same(map_overall, reference.map_overall, {q.qid: ranked[q.qid]}, alone)
