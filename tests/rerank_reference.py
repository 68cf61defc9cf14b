"""Per-question re-ranking: the reference explainrank.rerank is tested against.

It re-ranks one question at a time, one Rows.cosines call per round, takes
each initial order from a two-key lexsort (score descending, uid ascending),
and scores the depth sweep by building every question's full ranking at
every depth and scanning it with the scan-based map_overall of
eval_reference.py, so the sweep is not checked against its own AP kernel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from eval_reference import map_overall
from explainrank.errors import DataError
from explainrank.rerank import CandidateScore, RerankConfig, RerankRound, RerankTrace
from explainrank.scorer import RelevanceTable, normalize, uid_ranks
from explainrank.textsim import Rows, fact_vectors


def lexsort_order(table: RelevanceTable, i: int) -> np.ndarray:
    """Row i's columns by score descending, ties by uid ascending."""
    return np.lexsort((uid_ranks(table.uids), -table.scores[i]))


def iterative_rerank(
    order: np.ndarray,
    weights: np.ndarray,
    qa_sims: np.ndarray,
    rows: Rows,
    uids: Sequence[str],
    config: RerankConfig,
    *,
    want_trace: bool = False,
) -> tuple[np.ndarray, tuple[RerankRound, ...]]:
    top = order[: 2 * config.depth]
    if len(top) == 0:
        return order, ()
    if not (weights[: len(top)] > 0.0).all():
        raise DataError("relevance weights must be positive; normalize scores first")
    target = min(config.depth, len(top))
    selected = [0]  # positions in top
    waiting = np.ones(len(top), dtype=bool)
    waiting[0] = False
    numer = np.zeros(len(top))
    denom = weights[0]
    rounds = []
    while len(selected) < target:
        last = selected[-1]
        numer += weights[last] * rows.cosines(top[last], among=top)
        pool = np.flatnonzero(waiting[: min(config.depth + len(selected), len(top) - 1) + 1])
        rel = numer[pool] / denom
        score = rel * qa_sims[pool]
        best = pool[np.argmax(score)]
        if want_trace:
            facts = [uids[f] for f in top[pool]]
            scored = map(CandidateScore, facts, rel.tolist(), qa_sims[pool].tolist(), score.tolist())
            rounds.append(RerankRound(len(rounds) + 1, uids[top[best]], tuple(scored)))
        selected.append(best)
        waiting[best] = False
        denom += weights[best]
    return np.concatenate([top[selected], top[waiting], order[len(top) :]]), tuple(rounds)


def _questions(corpus, provider, table: RelevanceTable, rows: Rows, depth: int):
    if table.uids != tuple(corpus.facts):
        raise DataError("score table columns do not match the corpus facts")
    weights = normalize(table).scores
    qa_by_qid = {q.qid: qa for q, qa in corpus.answerable}
    kept = [i for i, qid in enumerate(table.qids) if qid in qa_by_qid]
    qa_rows = provider.rows([qa_by_qid[table.qids[i]] for i in kept])
    for n, i in enumerate(kept):
        order = lexsort_order(table, i)
        top = order[: 2 * depth]
        yield i, order, weights[i, top], rows.cosines(n, qa_rows, among=top)


def rerank_all(corpus, provider, table: RelevanceTable, config: RerankConfig, *, want_trace=False):
    rows = fact_vectors(corpus, provider)
    rankings, traces = {}, {}
    for i, order, weights, qa_sims in _questions(corpus, provider, table, rows, config.depth):
        new_order, rounds = iterative_rerank(
            order, weights, qa_sims, rows, table.uids, config, want_trace=want_trace
        )
        rankings[table.qids[i]] = [table.uids[j] for j in new_order]
        if want_trace:
            traces[table.qids[i]] = RerankTrace(qid=table.qids[i], rounds=rounds)
    return rankings, traces


def depth_sweep(corpus, provider, table: RelevanceTable, depths: Sequence[int]):
    rows = fact_vectors(corpus, provider)
    questions = list(_questions(corpus, provider, table, rows, max(depths, default=1)))
    results = []
    for depth in depths:
        config = RerankConfig(depth=depth)
        ranked = {}
        for i, order, weights, qa_sims in questions:
            new_order, _ = iterative_rerank(order, weights, qa_sims, rows, table.uids, config)
            ranked[table.qids[i]] = [table.uids[j] for j in new_order]
        results.append((depth, map_overall(ranked, corpus)))
    return results
