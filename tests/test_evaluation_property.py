"""Every MAP from gold positions against the scan-based reference in
eval_reference.py, bit for bit, and the Rankings mapping view against the
uid lists it stands for.

evaluate_rankings must give the reference's EvalReport, every float
compared by float.hex and per_role in the same order, or the same error,
for the rankings as uid lists and as a Rankings; its map_overall must also
give the reference's map_overall on each ranked question alone, with all
its gold or its CENTRAL gold. Generated rankings are truncated or full and
may repeat a uid; gold may name a uid under two roles, carry unknown role
labels or name a uid no fact has; some questions have no gold and some
annotated ones no ranking.

all_rankings of a table whose scores tie, 0.0 against -0.0 among them,
must read as the table's orders of uids; read_predictions must read back
the cut lists write_predictions wrote of all or some of its questions; and
evaluate_rankings must give the same EvalReport on a Rankings and on a
dict of its lists.
"""

import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_reference as reference
from explainrank.corpus import CENTRAL, GROUNDING, LEXGLUE, Corpus, Question
from explainrank.errors import DataError
from explainrank.evaluation import Rankings, evaluate_rankings, read_predictions, write_predictions
from explainrank.scorer import RelevanceTable, all_rankings
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


def as_rankings(ranked, corpus):
    """ranked as a Rankings over the corpus uids in reverse order, so that
    its numbering is not the one evaluate_rankings gives a dict."""
    labels = corpus.facts.uids[::-1]
    index = {uid: k for k, uid in enumerate(labels)}
    return Rankings(labels, {qid: np.array([index[u] for u in r], np.int32) for qid, r in ranked.items()})


@settings(max_examples=300, deadline=None)
@given(cases())
def test_bitwise_equal_to_scan_reference(case):
    corpus, ranked = case
    for form in (ranked, as_rankings(ranked, corpus)):
        assert_same(evaluate_rankings, reference.evaluate_rankings, form, corpus, digest=hexed)
    for q in corpus.questions:
        if q.qid in ranked:
            central = tuple((uid, role) for uid, role in q.gold if role == CENTRAL)  # may be empty
            for gold in (q.gold, central):
                alone = Corpus(facts=corpus.facts, questions=(replace(q, gold=gold),))
                assert_same(map_overall, reference.map_overall, {q.qid: ranked[q.qid]}, alone)


@st.composite
def tables(draw):
    """A score table of one or more questions over uids in no sorted order,
    its scores drawn from a few values so that they tie, 0.0 against -0.0
    among them; and a corpus of its facts whose questions have some gold."""
    uids = draw(st.permutations([f"u{k:02d}" for k in range(draw(st.integers(1, 12)))]))
    qids = [f"q{k}" for k in range(draw(st.integers(1, 5)))]
    cells = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), min_size=len(uids), max_size=len(uids))
    scores = np.array(draw(st.lists(cells, min_size=len(qids), max_size=len(qids))))
    gold = st.lists(st.tuples(st.sampled_from(uids), st.sampled_from(ROLES)), max_size=4, unique=True)
    questions = [Question(qid, "s", {"A": "a"}, "A", tuple(draw(gold))) for qid in qids]
    return RelevanceTable(tuple(qids), tuple(uids), scores), corpus_of({uid: uid for uid in uids}, questions)


def same_report(rankings, corpus):
    """evaluate_rankings gives the same report, or error, on rankings and
    on a dict of their lists."""
    assert_same(evaluate_rankings, lambda r, c: evaluate_rankings(dict(r), c), rankings, corpus, digest=hexed)


@settings(max_examples=200, deadline=None)
@given(tables(), st.one_of(st.none(), st.integers(1, 12)), st.data())
def test_rankings_view_equals_uid_lists(case, top_m, data):
    table, corpus = case
    rankings = all_rankings(table)
    lists = {qid: [table.uids[j] for j in table.order(i)] for i, qid in enumerate(table.qids)}
    assert list(rankings.items()) == list(lists.items())
    rankings[table.qids[0]].clear()  # each item is a new list
    assert dict(rankings) == lists
    same_report(rankings, corpus)
    kept = data.draw(st.lists(st.sampled_from(table.qids), min_size=1, unique=True))
    partial = Rankings(rankings.uids, {qid: rankings.orders[qid] for qid in kept})
    with tempfile.TemporaryDirectory() as tmp:
        for written in (rankings, partial):
            path = Path(tmp) / "predictions.tsv"
            write_predictions(written, path, top_m)
            back = read_predictions(path)
            assert isinstance(back, Rankings)
            assert list(back.items()) == [(qid, lists[qid][:top_m]) for qid in written]
            same_report(back, corpus)
