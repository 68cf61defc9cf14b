"""Iterative greedy re-ranking of the top of each question's ranking.

Starting from the initial top fact, each round scores the not-yet-selected
facts near the top of the initial ranking by their relevance-weighted mean
similarity to everything already selected, times their similarity to the
question/answer text, and commits the best one. Facts the procedure never
reaches keep their initial order, so depth 1 leaves a ranking untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .evaluation import map_overall
from .scorer import Ranking, RelevanceTable, normalize
from .textsim import Rows, fact_vectors

log = logging.getLogger(__name__)

DEFAULT_SWEEP = (1, 3, 5, 10, 15, 20, 30)


@dataclass(frozen=True)
class RerankConfig:
    """depth counts the finalized top positions including the kept initial
    top fact, so depth 1 is a no-op."""

    depth: int = 15

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("re-ranking depth must be >= 1")


@dataclass(frozen=True)
class CandidateScore:
    uid: str
    weighted_rel: float
    qa_sim: float
    score: float


@dataclass(frozen=True)
class RerankRound:
    number: int
    selected: str
    candidates: tuple[CandidateScore, ...]


@dataclass(frozen=True)
class RerankTrace:
    qid: str
    rounds: tuple[RerankRound, ...]

    def format_lines(self) -> list[str]:
        """One line per round: the committed uid and the top 3 candidates."""
        lines = []
        for rnd in self.rounds:
            top = sorted(rnd.candidates, key=lambda c: (-c.score, c.uid))[:3]
            shown = " ".join(f"{c.uid}:{c.score:.6f}" for c in top)
            lines.append(f"round {rnd.number}\tselected {rnd.selected}\ttop {shown}")
        return lines


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
    """Greedily rebuild the top config.depth positions of one ranking.

    order is the initial ranking as fact indices, best first; an index picks
    a row of rows and an entry of uids. weights (strictly positive, see
    normalize()) and qa_sims, each fact's similarity to the question/answer
    text, belong to the facts at order's first 2 * depth positions (or all
    of them); later entries are ignored.

    The initial top fact is kept as the anchor. Each round considers the
    unselected facts whose initial rank index is at most depth plus the
    number already selected (a window sliding forward one position per
    round) and commits the one with the highest score: its weighted
    relevance sum(w_k * sim(fact, k)) / sum(w_k) over the selected facts k,
    times its qa_sim. Ties go to the better initial rank. Returns the new
    order, selected facts first and the rest in initial order, and one
    round per commit when want_trace is set.
    """
    top = order[: 2 * config.depth]
    if len(top) == 0:
        return order, ()
    if not (weights[: len(top)] > 0.0).all():
        raise DataError("relevance weights must be positive; normalize scores first")
    target = min(config.depth, len(top))
    selected = [0]  # positions in top
    waiting = np.ones(len(top), dtype=bool)
    waiting[0] = False
    # running numerators of the weighted relevance, one fold per selected fact
    numer = np.zeros(len(top))
    denom = weights[0]
    rounds = []
    while len(selected) < target:
        last = selected[-1]
        numer += weights[last] * rows.cosines(top[last], among=top)
        pool = np.flatnonzero(waiting[: min(config.depth + len(selected), len(top) - 1) + 1])
        rel = numer[pool] / denom
        score = rel * qa_sims[pool]
        best = pool[np.argmax(score)]  # the first maximum: better initial rank wins ties
        if want_trace:
            facts = [uids[f] for f in top[pool]]
            scored = map(CandidateScore, facts, rel.tolist(), qa_sims[pool].tolist(), score.tolist())
            rounds.append(RerankRound(len(rounds) + 1, uids[top[best]], tuple(scored)))
        selected.append(best)
        waiting[best] = False
        denom += weights[best]
    return np.concatenate([top[selected], top[waiting], order[len(top) :]]), tuple(rounds)


def _questions(corpus: Corpus, provider, table: RelevanceTable, rows: Rows, depth: int):
    """For each scored question of the corpus with an answerable key: its
    table row, its initial order from the raw scores, and the normalized
    weights and Q/A similarities of that order's first 2 * depth facts."""
    if table.uids != tuple(corpus.facts):
        raise DataError("score table columns do not match the corpus facts")
    weights = normalize(table).scores
    qa_by_qid = {q.qid: qa for q, qa in corpus.answerable}
    kept = [i for i, qid in enumerate(table.qids) if qid in qa_by_qid]
    qa_rows = provider.rows([qa_by_qid[table.qids[i]] for i in kept])
    for n, i in enumerate(kept):
        order = table.order(i)
        top = order[: 2 * depth]
        yield i, order, weights[i, top], rows.cosines(n, qa_rows, among=top)


def rerank_all(
    corpus: Corpus,
    provider,
    table: RelevanceTable,
    config: RerankConfig,
    *,
    want_trace: bool = False,
) -> tuple[list[Ranking], dict[str, RerankTrace]]:
    """Re-rank every scored question in table order. The base order and its
    tie-break come from the raw scores; normalized scores are only weights."""
    rows = fact_vectors(corpus, provider)
    rankings, traces = [], {}
    for i, order, weights, qa_sims in _questions(corpus, provider, table, rows, config.depth):
        new_order, rounds = iterative_rerank(
            order, weights, qa_sims, rows, table.uids, config, want_trace=want_trace
        )
        rankings.append(table.ranking(i, new_order))
        if want_trace:
            traces[table.qids[i]] = RerankTrace(qid=table.qids[i], rounds=rounds)
    return rankings, traces


def depth_sweep(
    corpus: Corpus, provider, table: RelevanceTable, depths: Sequence[int]
) -> list[tuple[int, float]]:
    """MAP over the annotated questions after re-ranking at each depth. Each
    question's base order, weights and Q/A similarities are computed once;
    only the greedy top is rerun per depth."""
    rows = fact_vectors(corpus, provider)
    questions = list(_questions(corpus, provider, table, rows, max(depths, default=1)))
    results = []
    for depth in depths:
        config = RerankConfig(depth=depth)
        ranked = {}
        for i, order, weights, qa_sims in questions:
            new_order, _ = iterative_rerank(order, weights, qa_sims, rows, table.uids, config)
            ranked[table.qids[i]] = table.ranking(i, new_order).uids
        results.append((depth, map_overall(ranked, corpus)))
    return results
