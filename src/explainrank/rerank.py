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
from functools import partial
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .evaluation import Rankings, average_precisions, evaluable, find_gold, mean_in_order, padded
from .scorer import RelevanceTable, normalized_at
from .textsim import Window

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RerankConfig:
    """depth counts the finalized top positions including the kept initial
    top fact, so depth 1 is a no-op."""

    depth: int = 15

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("re-ranking depth must be >= 1")


@dataclass(frozen=True, eq=False)
class RerankRound:
    """One greedy commit. candidates are the pool's uids, best initial rank
    first; weighted_rel, qa_sim and score hold their values in that order,
    each a row of the round's float arrays. Rounds compare by identity."""

    number: int
    selected: str
    candidates: tuple[str, ...]
    weighted_rel: np.ndarray
    qa_sim: np.ndarray
    score: np.ndarray


@dataclass(frozen=True)
class RerankTrace:
    qid: str
    rounds: tuple[RerankRound, ...]


def _greedy(
    window: Window,
    weights: np.ndarray,
    qa_sims: np.ndarray,
    depth: int,
    facts: np.ndarray | None = None,
) -> tuple[np.ndarray, list[list[RerankRound]]]:
    """Greedily rebuild the top depth positions of every window at once, in
    lockstep.

    Row q of window.top holds one initial ranking's facts, best first;
    weights (strictly positive, see normalize()) and qa_sims, each fact's
    similarity to the question/answer text, hold a row per window in that
    order. Only each window's first n = min(2 * depth, len(weights[0]))
    facts take part; a window column past them, such as a Q/A row, is never
    a candidate.

    The initial top fact is kept as the anchor. Each round considers the
    unselected facts whose initial rank index is at most depth plus the
    number already selected (a pool sliding forward one position per
    round) and commits the one with the highest score: its weighted
    relevance sum(w_k * sim(fact, k)) / sum(w_k) over the selected facts k,
    times its qa_sim. Ties go to the better initial rank. A window's values
    do not depend on the other windows: a batch of one gives the same bits.

    Returns each window's new order as positions in its first n facts,
    selected facts first and the rest in initial order, and, when facts
    (the windows' uids) is given, each window's rounds."""
    n = min(2 * depth, weights.shape[1])
    top, weights, qa_sims = window.top[:, :n], weights[:, :n], qa_sims[:, :n]
    if not (weights > 0.0).all():
        raise DataError("relevance weights must be positive; normalize scores first")
    rounds = [[] for _ in top] if facts is not None else []
    if top.size == 0:
        return np.zeros(top.shape, dtype=np.intp), rounds
    each = np.arange(len(top))
    selected = [np.zeros(len(top), dtype=np.intp)]  # positions in top
    waiting = np.ones(top.shape, dtype=bool)
    waiting[:, 0] = False
    # running numerators of the weighted relevance, one fold per selected fact
    numer = np.zeros(top.shape)
    denom = weights[:, 0].copy()
    while len(selected) < min(depth, n):
        last = selected[-1]
        numer += weights[each, last][:, None] * window.cosines(last, n)
        pool = waiting.copy()
        pool[:, min(depth + len(selected), n - 1) + 1 :] = False
        rel = numer / denom[:, None]
        score = rel * qa_sims
        # the first maximum: the better initial rank wins ties
        best = np.argmax(np.where(pool, score, -np.inf), axis=1)
        if facts is not None:
            found = _round(len(selected), facts, pool, best, rel, qa_sims, score)
            for window_rounds, rnd in zip(rounds, found):
                window_rounds.append(rnd)
        selected.append(best)
        waiting[each, best] = False
        denom += weights[each, best]
    rest = np.nonzero(waiting)[1].reshape(len(top), -1)
    return np.column_stack([*selected, rest]), rounds


def _round(number, facts, pool, best, rel, qa_sims, score) -> list[RerankRound]:
    """Each window's trace of one lockstep round: its pool's candidates,
    best initial rank first, a row each of the round's values, and its
    pick. facts holds the windows' uids."""
    cand = np.nonzero(pool)[1].reshape(len(pool), -1)  # every pool has one size
    values = [np.take_along_axis(a, cand, axis=1) for a in (rel, qa_sims, score)]
    picks = facts[np.arange(len(pool)), best].tolist()
    uids = map(tuple, np.take_along_axis(facts, cand, axis=1).tolist())
    return list(map(partial(RerankRound, number), picks, uids, *values))


def _windows(corpus: Corpus, provider, table: RelevanceTable, width: int, take):
    """For each scored question of the corpus with an answerable key, in
    table order: the first width facts (columns) of its initial order from
    the raw scores, in a Window whose last column is its Q/A vector, their
    normalized weights and Q/A similarities, and its qid mapped to
    take(qid, order) of its whole initial order. Orders are sorted a row at
    a time and not kept; only window facts and Q/A texts are vectorised, in
    one call."""
    if table.uids != corpus.facts.uids:
        raise DataError("score table columns do not match the corpus facts")
    qa_by_qid = {q.qid: qa for q, qa in corpus.answerable}
    kept = [i for i, qid in enumerate(table.qids) if qid in qa_by_qid]
    top = np.empty((len(kept), min(width, len(table.uids))), dtype=np.intp)
    taken = {}
    for n, i in enumerate(kept):
        order = table.order(i)
        top[n] = order[: top.shape[1]]
        taken[table.qids[i]] = take(table.qids[i], order)
    facts, local = np.unique(top, return_inverse=True)
    texts = corpus.facts.texts
    rows = provider.rows([texts[j] for j in facts.tolist()] + [qa_by_qid[qid] for qid in taken])
    window = Window(rows, local.reshape(top.shape), np.arange(len(facts), rows.values.shape[0]))
    qa_sims = window.cosines(np.full(len(kept), top.shape[1]), top.shape[1])
    weights = normalized_at(table, np.array(kept, dtype=np.intp), top)
    return top, window, weights, qa_sims, taken


def rerank_all(
    corpus: Corpus,
    provider,
    table: RelevanceTable,
    config: RerankConfig,
    *,
    want_trace: bool = False,
) -> tuple[Rankings, dict[str, RerankTrace]]:
    """Re-rank every scored question with an answerable key. Returns each
    one's qid mapped to its fact uids, best first, in table order, and its
    trace when want_trace is set. The base order and its tie-break come
    from the raw scores; normalized scores are only weights."""
    top, window, weights, qa_sims, orders = _windows(
        corpus, provider, table, 2 * config.depth, lambda qid, order: order.astype(np.int32)
    )
    rankings = Rankings(table.uids, orders)
    perm, rounds = _greedy(window, weights, qa_sims, config.depth, rankings.uids[top] if want_trace else None)
    for order, head in zip(orders.values(), np.take_along_axis(top, perm, axis=1)):
        order[: len(head)] = head
    traces = {qid: RerankTrace(qid, tuple(r)) for qid, r in zip(orders, rounds)}
    return rankings, traces


def depth_sweep(
    corpus: Corpus, provider, table: RelevanceTable, depths: Sequence[int]
) -> list[tuple[int, float]]:
    """MAP over the annotated questions after re-ranking at each depth. Each
    question's initial order, weights and Q/A similarities are computed once,
    and which questions count is decided once; only the greedy is rerun per
    depth. A gold fact's position is its greedy position inside the window
    and its initial position outside it."""
    # RerankConfig refuses a depth below 1, before any work is done
    width = 2 * max((RerankConfig(depth).depth for depth in depths), default=1)
    column, question = corpus.facts.column, corpus.question_index()  # the table's columns, as _windows checks
    _, window, weights, qa_sims, found = _windows(
        corpus, provider, table, width, lambda qid, order: find_gold(order, question[qid], column)[0]
    )
    questions = evaluable(found, corpus)
    batch_row = {qid: n for n, qid in enumerate(found)}
    rows_of = np.array([batch_row[q.qid] for q in questions])
    # each evaluable question's gold positions in its initial order, inf-padded
    initial = padded([found[q.qid] for q in questions])
    n_relevant = np.array([len(q.gold_uid_set) for q in questions])
    cell_rows = np.broadcast_to(rows_of[:, None], initial.shape)
    results = []
    for depth in depths:
        perm, _ = _greedy(window, weights, qa_sims, depth)
        new_position = np.empty_like(perm)
        np.put_along_axis(new_position, perm, np.arange(perm.shape[1]), axis=1)
        inside = initial < perm.shape[1]
        positions = initial.copy()
        positions[inside] = new_position[cell_rows[inside], initial[inside].astype(np.intp)]
        results.append((depth, mean_in_order(average_precisions(positions, n_relevant))))
    return results
