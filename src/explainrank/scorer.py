"""Per-question relevance scores over the fact corpus, and initial rankings.

Scores come either from the built-in lexical scorers (a desk-scale stand-in
for an externally trained relevance model) or from a scores TSV produced by
such a model. A score table is one float64 matrix, a row per scored question
and a column per corpus fact. The rankings map each qid to its fact uids, best
first: by score descending with uid as the tie-break, so the same table
always yields the same rankings.
"""

from __future__ import annotations

import logging
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError, FormatError, tsv_blocks
from .textsim import fact_vectors, tokenize

log = logging.getLogger(__name__)

TFIDF_COSINE = "tfidf"
OVERLAP = "overlap"

# floor of the per-question min-max rescale; keeps every relevance weight
# strictly positive for the weighted re-ranking average
NORM_FLOOR = 1e-6


def uid_ranks(uids: Sequence[str]) -> np.ndarray:
    """Each uid's position in ascending uid order: the tie-break sort key."""
    return np.argsort(np.argsort(np.array(uids, dtype=object)))


@dataclass(frozen=True, eq=False)
class RelevanceTable:
    """Relevance scores: scores[i, j] is fact uids[j]'s score for question
    qids[i]. Columns follow the corpus fact order."""

    qids: tuple[str, ...]
    uids: tuple[str, ...]
    scores: np.ndarray

    @cached_property
    def _uid_array(self) -> np.ndarray:
        return np.array(self.uids, dtype=object)

    @cached_property
    def _by_uid(self) -> np.ndarray:
        """The columns in ascending uid order."""
        return np.argsort(self._uid_array)

    def order(self, i: int) -> np.ndarray:
        """Row i's columns by score descending, ties by uid ascending: the
        row's scores taken in uid order, sorted once by the fastest sort. Runs
        of equal scores (0.0 and -0.0 alike, and all NaNs, which sort last)
        go back to uid order in one integer sort of run * n + position."""
        by_uid = self._by_uid
        keys = -self.scores[i, by_uid]
        order = np.argsort(keys)
        ranked = keys[order]
        steps = (ranked[1:] != ranked[:-1]) & ~np.isnan(ranked[:-1])
        if not steps.all():
            runs = np.concatenate(([0], np.cumsum(steps)))
            order = np.sort(runs * len(keys) + order) % len(keys)
        return by_uid[order]


def score_lexical(corpus: Corpus, provider, method: str = TFIDF_COSINE) -> RelevanceTable:
    """Score every fact for every question.

    tfidf: cosine between the question/answer vector and the fact vector.
    overlap: fraction of the fact's (stop-word-free) token set shared with
    the question/answer token set.
    """
    if method not in (TFIDF_COSINE, OVERLAP):
        raise ValueError(f"unknown scoring method {method!r}")
    kept = corpus.answerable
    qids, qa_texts = [q.qid for q, _ in kept], [qa for _, qa in kept]
    matrix = np.empty((len(qids), len(corpus.facts)))  # filled a row at a time
    if method == TFIDF_COSINE:
        fact_rows, qa_rows = fact_vectors(corpus, provider), provider.rows(qa_texts)
        for i in range(len(qids)):
            matrix[i] = fact_rows.cosines(i, qa_rows)
    else:
        fact_tokens = [set(tokenize(f.text, drop_stopwords=True)) for f in corpus.facts.values()]
        for i, qa in enumerate(qa_texts):
            qa_tokens = set(tokenize(qa, drop_stopwords=True))
            matrix[i] = [len(qa_tokens & t) / len(t) if t else 0.0 for t in fact_tokens]
    return RelevanceTable(tuple(qids), tuple(corpus.facts), matrix)


def write_scores(table: RelevanceTable, path: str | Path) -> None:
    """Interchange format: one "qid<TAB>fact_uid<TAB>score" line per pair.

    Scores are written with repr so reading the file back reproduces the
    exact floats (and therefore the exact ranking). Each question's lines
    are joined into one string, one matrix row converted at a time."""
    uid_tabs = [f"{uid}\t" for uid in table.uids]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, row in zip(table.qids, table.scores):
            if uid_tabs:
                lines = f"\n{qid}\t".join(map(operator.add, uid_tabs, map(repr, row.tolist())))
                fh.write(f"{qid}\t{lines}\n")


def load_scores(path: str | Path, corpus: Corpus) -> RelevanceTable:
    """Load externally computed relevance scores.

    Facts missing for a covered question are filled with that question's
    minimum score minus one so they rank last (with a coverage warning);
    duplicate (qid, fact) pairs keep the last value. Unknown fact uids are a
    hard error; qids not in the corpus are dropped with a warning. The file
    is parsed a block of lines at a time, straight into one matrix.
    """
    path = Path(path)
    uids = tuple(corpus.facts)
    column = {uid: j for j, uid in enumerate(uids)}
    row = {q.qid: i for i, q in enumerate(corpus.questions)}
    matrix = np.full((len(row), len(uids)), np.nan)
    accepted_lines = 0
    unknown_uids: dict[str, int] = {}
    unknown_qids: set[str] = set()
    for block in tsv_blocks(path, 3):
        qids, block_uids, score_texts = block.columns
        parsed = array("d")
        try:
            parsed.extend(map(float, score_texts))
        except ValueError:
            pass  # parsed stops before the first unparseable score
        scores = np.frombuffer(parsed)
        if not np.isfinite(scores).all():
            i = np.flatnonzero(~np.isfinite(scores))[0]
            raise FormatError(
                f"{path} line {block.linenos[i]}: non-finite score {score_texts[i]!r}"
            )
        if len(scores) < len(score_texts):
            i = len(scores)
            raise FormatError(
                f"{path} line {block.linenos[i]}: unparseable score {score_texts[i]!r}"
            )
        if block.wrong_line is not None:
            raise FormatError(f"{path} line {block.wrong_line}: expected qid<TAB>fact_uid<TAB>score")
        cols = np.fromiter(map(column.get, block_uids, repeat(-1)), np.int64, len(block_uids))
        run_qids = list(map(qids.__getitem__, block.runs[:-1]))
        run_rows = np.fromiter(map(row.get, run_qids, repeat(-1)), np.int64, len(run_qids))
        rows = np.repeat(run_rows, np.diff(block.runs))
        unknown_qids.update(set(run_qids).difference(row))
        unknown = np.flatnonzero(cols < 0)[::-1]
        if len(unknown):
            # reversed, so each uid keeps its first line; earlier blocks' lines win
            found = zip(map(block_uids.__getitem__, unknown.tolist()), block.linenos[unknown].tolist())
            unknown_uids = dict(found) | unknown_uids
        accepted = (cols >= 0) & (rows >= 0)
        cells, values = rows[accepted] * len(uids) + cols[accepted], scores[accepted]
        accepted_lines += len(cells)
        matrix.put(cells, values)  # cell = row * len(uids) + column
        if (matrix.take(cells).view(np.int64) != values.view(np.int64)).any():
            # put keeps an unspecified one of a repeated cell's values: keep the last
            cells, last = np.unique(cells[::-1], return_index=True)
            matrix.put(cells, values[::-1][last])
    if unknown_uids:
        shown = sorted(unknown_uids.items(), key=lambda item: item[1])[:10]
        listing = ", ".join(f"{uid!r} (line {ln})" for uid, ln in shown)
        more = "" if len(unknown_uids) <= 10 else f" and {len(unknown_uids) - 10} more"
        raise DataError(f"{path}: {len(unknown_uids)} unknown fact uid(s): {listing}{more}")
    missing = np.isnan(matrix)
    n_missing = np.count_nonzero(missing)
    if duplicates := accepted_lines - (missing.size - n_missing):
        log.warning("%s: %d duplicate (qid, fact) pair(s), last value kept", path, duplicates)
    if unknown_qids:
        log.warning("%s: %d qid(s) not in the corpus, dropped", path, len(unknown_qids))
    covered = ~missing.all(axis=1)
    qids = tuple(q.qid for q, ok in zip(corpus.questions, covered) if ok)
    n_missing -= (len(row) - len(qids)) * len(uids)  # only covered rows are filled
    if n_missing:  # from the row minima np.nanmin gives; rows with no line stay NaN
        np.copyto(matrix, np.fmin.reduce(matrix, axis=1, keepdims=True) - 1.0, where=missing)
    if len(qids) < len(row):
        matrix = matrix[covered]
        log.warning("%s: scores cover %d of %d questions", path, len(qids), len(row))
    if n_missing:
        log.warning("%s: %d missing (qid, fact) pair(s) filled to rank last", path, n_missing)
    return RelevanceTable(qids, uids, matrix)


def all_rankings(table: RelevanceTable) -> dict[str, list[str]]:
    """Each row's qid mapped to its fact uids by score descending, ties by
    uid ascending, in table order."""
    return {qid: table._uid_array[table.order(i)].tolist() for i, qid in enumerate(table.qids)}


def normalize(table: RelevanceTable) -> RelevanceTable:
    """Min-max rescale each question's scores into [NORM_FLOOR, 1].

    A non-decreasing map: it never reorders scores but can merge two that
    differ in the last bits, so rankings come from the raw scores, while the
    weighted re-ranking average gets the strictly positive weights it
    divides by even when external scores are negative. Constant score
    vectors map to all ones.
    """
    scores = table.scores
    lo, hi = scores.min(axis=1, keepdims=True), scores.max(axis=1, keepdims=True)
    return RelevanceTable(table.qids, table.uids, _rescale(scores, lo, hi))


def normalized_at(table: RelevanceTable, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """normalize(table).scores[rows[:, None], columns], bit for bit, with
    only those cells rescaled: row k of columns holds columns of table row
    rows[k]."""
    scores = table.scores
    lo, hi = scores.min(axis=1, keepdims=True)[rows], scores.max(axis=1, keepdims=True)[rows]
    return _rescale(scores[rows[:, None], columns], lo, hi)


def _rescale(cells: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each row of cells min-max rescaled from [lo, hi] of its row."""
    span = hi - lo
    flat = span == 0.0
    scaled = NORM_FLOOR + (cells - lo) / np.where(flat, 1.0, span) * (1.0 - NORM_FLOOR)
    scaled[flat[:, 0]] = 1.0
    return scaled
