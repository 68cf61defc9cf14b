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
from .evaluation import average_precisions, evaluable, mean_in_order, padded
from .scorer import RelevanceTable, normalized_at
from .textsim import Rows, Window

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
    of them); later entries are ignored, and fewer is a ValueError.

    The initial top fact is kept as the anchor. Each round considers the
    unselected facts whose initial rank index is at most depth plus the
    number already selected (a window sliding forward one position per
    round) and commits the one with the highest score: its weighted
    relevance sum(w_k * sim(fact, k)) / sum(w_k) over the selected facts k,
    times its qa_sim. Ties go to the better initial rank. Returns the new
    order, selected facts first and the rest in initial order, and one
    round per commit when want_trace is set.

    This is a batch of one for the greedy rerank_all and depth_sweep run.
    """
    n = min(2 * config.depth, len(order))
    for name, given in (("weights", weights), ("qa_sims", qa_sims)):
        if len(given) < n:
            raise ValueError(f"{name} has {len(given)} entries; depth {config.depth} needs {n}")
    top = order[None, :n]
    facts = np.array(uids, dtype=object)[top] if want_trace else None
    perm, rounds = _greedy(Window(rows, top), weights[None, :n], qa_sims[None, :n], config.depth, facts)
    return np.concatenate([top[0, perm[0]], order[n:]]), tuple(rounds[0]) if want_trace else ()


def _greedy(
    window: Window,
    weights: np.ndarray,
    qa_sims: np.ndarray,
    depth: int,
    facts: np.ndarray | None = None,
) -> tuple[np.ndarray, list[list[RerankRound]]]:
    """iterative_rerank's greedy for every window at once, in lockstep, on
    each window's first min(2 * depth, len(weights[0])) facts; a window
    column past them, such as a Q/A row, is never a candidate. weights and
    qa_sims hold a row per window. Every window sees the operations
    iterative_rerank makes for one, in the same order, so the bits are the
    same. Returns each window's new order as positions in it and, when
    facts (the windows' uids) is given, each window's rounds."""
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
    best initial rank first, and its pick. facts holds the windows' uids."""
    cand = np.nonzero(pool)[1].reshape(len(pool), -1)  # every pool has one size
    values = [np.take_along_axis(a, cand, axis=1).tolist() for a in (rel, qa_sims, score)]
    picks = facts[np.arange(len(pool)), best].tolist()
    return [
        RerankRound(number, pick, tuple(map(CandidateScore, uids, *columns)))
        for pick, uids, *columns in zip(picks, np.take_along_axis(facts, cand, axis=1).tolist(), *values)
    ]


def _windows(corpus: Corpus, provider, table: RelevanceTable, width: int, take):
    """For each scored question of the corpus with an answerable key, in
    table order: the first width facts (columns) of its initial order from
    the raw scores, in a Window whose last column is its Q/A vector, their
    normalized weights and Q/A similarities, and its qid mapped to
    take(qid, order) of its whole initial order. Orders are sorted a row at
    a time and not kept; only window facts and Q/A texts are vectorised, in
    one call."""
    if table.uids != tuple(corpus.facts):
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
    texts = [fact.text for fact in corpus.facts.values()]
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
) -> tuple[dict[str, list[str]], dict[str, RerankTrace]]:
    """Re-rank every scored question with an answerable key. Returns each
    one's qid mapped to its fact uids, best first, in table order, and its
    trace when want_trace is set. The base order and its tie-break come
    from the raw scores; normalized scores are only weights."""
    uids = np.array(table.uids, dtype=object)
    top, window, weights, qa_sims, rankings = _windows(
        corpus, provider, table, 2 * config.depth, lambda qid, order: uids[order].tolist()
    )
    perm, rounds = _greedy(window, weights, qa_sims, config.depth, uids[top] if want_trace else None)
    # each initial ranking takes its new top in place, so no list is resized
    for ranking, head in zip(rankings.values(), np.take_along_axis(top, perm, axis=1)):
        ranking[: len(head)] = uids[head].tolist()
    traces = {qid: RerankTrace(qid, tuple(r)) for qid, r in zip(rankings, rounds)}
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
    gold_uids = {q.qid: q.gold_uid_set for q in corpus.questions}
    wanted = frozenset().union(*gold_uids.values())
    column = {uid: j for j, uid in enumerate(table.uids) if uid in wanted}
    gold = {qid: [column[u] for u in uids if u in column] for qid, uids in gold_uids.items()}

    def gold_positions(qid: str, order: np.ndarray) -> np.ndarray:
        is_gold = np.zeros(len(order), dtype=bool)
        is_gold[gold[qid]] = True
        return np.flatnonzero(is_gold[order])

    _, window, weights, qa_sims, found = _windows(corpus, provider, table, width, gold_positions)
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
