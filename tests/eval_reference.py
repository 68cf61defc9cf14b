"""Scan-based MAP: the reference explainrank.evaluation is tested against.

Each AP walks one ranking with a set of the relevant uids still missing,
adding hits / position at every hit; per-role MAP scans the ranking again
for each of a question's roles. Sums run left to right in Python, in
corpus order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from explainrank.corpus import Corpus, Question
from explainrank.errors import DataError
from explainrank.evaluation import EvalReport, evaluable


def scan(ranked: Sequence[str], relevant: Iterable[str]) -> tuple[float, int]:
    """Average precision, and how many relevant items the ranking lacks."""
    remaining = set(relevant)
    n_relevant = len(remaining)
    if not n_relevant:
        raise ValueError("average_precision needs a nonempty relevant set")
    acc = 0.0
    for position, uid in enumerate(ranked, start=1):
        if uid in remaining:
            remaining.remove(uid)
            acc += (n_relevant - len(remaining)) / position
            if not remaining:
                break
    return acc / n_relevant, len(remaining)


def average_precision(ranked: Sequence[str], relevant: Iterable[str]) -> float:
    return scan(ranked, relevant)[0]


def _aps(questions: Sequence[Question], ranked_by_qid) -> list[tuple[float, int]]:
    return [scan(ranked_by_qid[q.qid], q.gold_uid_set) for q in questions]


def _mean_ap(aps: Sequence[tuple[float, int]]) -> tuple[float, int]:
    total, unretrieved = 0.0, 0
    for ap, lacking in aps:
        total += ap
        unretrieved += lacking
    return total / len(aps), unretrieved


def map_overall(ranked_by_qid, corpus: Corpus) -> float:
    return _mean_ap(_aps(evaluable(ranked_by_qid, corpus), ranked_by_qid))[0]


def _per_role(questions: Sequence[Question], ranked_by_qid) -> dict[str, float]:
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for q in questions:
        by_role: dict[str, set[str]] = {}
        for uid, role in q.gold:
            by_role.setdefault(role, set()).add(uid)
        for role, uids in by_role.items():
            ap = average_precision(ranked_by_qid[q.qid], uids)
            sums[role] = sums.get(role, 0.0) + ap
            counts[role] = counts.get(role, 0) + 1
    return {role: sums[role] / counts[role] for role in sums}


def _per_length(questions: Sequence[Question], aps) -> dict[int, tuple[int, float]]:
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for q, (ap, _) in zip(questions, aps):
        size = len(q.gold_uid_set)
        sums[size] = sums.get(size, 0.0) + ap
        counts[size] = counts.get(size, 0) + 1
    return {size: (counts[size], sums[size] / counts[size]) for size in sorted(sums)}


def evaluate_rankings(ranked_by_qid, corpus: Corpus) -> EvalReport:
    questions = evaluable(ranked_by_qid, corpus)
    unknown = set().union(*ranked_by_qid.values()).difference(corpus.facts)
    if unknown:
        raise DataError(f"rankings reference unknown fact uid(s): {sorted(unknown)[:5]}")
    skipped = sum(1 for q in corpus.questions if q.qid in ranked_by_qid and not q.gold)
    aps = _aps(questions, ranked_by_qid)
    map_value, unretrieved = _mean_ap(aps)
    return EvalReport(
        map_overall=map_value,
        per_role=_per_role(questions, ranked_by_qid),
        per_length=_per_length(questions, aps),
        n_questions=len(questions),
        skipped=skipped,
        unretrieved=unretrieved,
    )
