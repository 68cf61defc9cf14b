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
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import DataError, FormatError, split_cell, tsv_blocks
from .evaluation import Rankings
from .textsim import TfidfProvider, default_provider, fact_vectors

log = logging.getLogger(__name__)

TFIDF_COSINE = "tfidf"
OVERLAP = "overlap"

# floor of the per-question min-max rescale; keeps every relevance weight
# strictly positive for the weighted re-ranking average
NORM_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class RelevanceTable:
    """Relevance scores: scores[i, j] is fact uids[j]'s score for question
    qids[i]. Columns follow the corpus fact order."""

    qids: tuple[str, ...]
    uids: tuple[str, ...]
    scores: np.ndarray

    @cached_property
    def _by_uid(self) -> np.ndarray:
        """The columns in ascending uid order."""
        return np.argsort(np.array(self.uids, dtype=object))

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
    overlap: share of the fact row's term ids that the question/answer row
    holds too (0.0 for a fact without terms), both rows from the given
    provider when it is a TfidfProvider, and from default_provider(corpus)
    otherwise.
    """
    if method not in (TFIDF_COSINE, OVERLAP):
        raise ValueError(f"unknown scoring method {method!r}")
    kept = corpus.answerable
    qids, qa_texts = [q.qid for q, _ in kept], [qa for _, qa in kept]
    matrix = np.zeros((len(qids), len(corpus.facts)))  # filled a row at a time, or left 0.0
    if method == OVERLAP and not isinstance(provider, TfidfProvider):
        provider = default_provider(corpus)
    fact_rows, qa_rows = fact_vectors(corpus, provider), provider.rows(qa_texts)
    if method == TFIDF_COSINE:
        for i in range(len(qids)):
            matrix[i] = fact_rows.cosines(i, qa_rows)
    else:  # a row holds each of its terms once, padded with the id dim
        dim = fact_rows.dim
        terms = np.count_nonzero(fact_rows.ids < dim, axis=1)
        shared = np.zeros(dim + 1, dtype=bool)  # whether each id is a term of the Q/A row
        for i, ids in enumerate(qa_rows.ids):
            shared[ids[ids < dim]] = True
            np.divide(np.count_nonzero(shared[fact_rows.ids], axis=1), terms, out=matrix[i], where=terms > 0)
            shared[ids] = False
    return RelevanceTable(tuple(qids), corpus.facts.uids, matrix)


def write_scores(table: RelevanceTable, path: str | Path) -> None:
    """Interchange format: one "qid<TAB>fact_uid<TAB>score" line per pair.

    Scores are written with repr so reading the file back reproduces the
    exact floats (and therefore the exact ranking). Each question's lines
    are one join of a list holding every line's pieces in place: the uid
    pieces are made once, and only the qid and score pieces change from
    row to row, so no line is built as a string of its own. A qid or uid
    holding a tab, CR or LF, or a first written qid starting with a
    byte-order mark, is a ValueError, raised before the file opens."""
    if reason := split_cell("qid", table.qids) or split_cell("uid", table.uids):
        raise ValueError(f"{reason}; the scores would not read back")
    if table.uids and table.qids and table.qids[0].startswith("\ufeff"):
        raise ValueError(f"first qid {table.qids[0]!r} starts with a byte-order mark, which readers drop")
    n = len(table.uids)
    pieces = [None, None, None, "\n"] * n  # qid<TAB>, uid<TAB>, score, newline of each line
    pieces[1::4] = [f"{uid}\t" for uid in table.uids]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, row in zip(table.qids, table.scores):
            pieces[0::4] = [f"{qid}\t"] * n
            pieces[2::4] = map(repr, row.tolist())
            fh.write("".join(pieces))


def load_scores(path: str | Path, corpus: Corpus) -> RelevanceTable:
    """Load externally computed relevance scores.

    Facts missing for a covered question are filled with that question's
    minimum score minus one so they rank last (with a coverage warning);
    duplicate (qid, fact) pairs keep the last value. Unknown fact uids are a
    hard error; qids not in the corpus are dropped with a warning. The file
    is parsed a block of lines at a time, straight into one matrix.
    """
    path = Path(path)
    uids, column = corpus.facts.uids, corpus.facts.column
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


def all_rankings(table: RelevanceTable) -> Rankings:
    """Each row's qid mapped to its fact uids by score descending, ties by uid
    ascending, in table order, as an int32 order of the table's columns."""
    return Rankings(table.uids, {qid: table.order(i).astype(np.int32) for i, qid in enumerate(table.qids)})


def normalize(table: RelevanceTable) -> RelevanceTable:
    """Min-max rescale each question's scores into [NORM_FLOOR, 1].

    A non-decreasing map: it never reorders scores but can merge two that
    differ in the last bits, so rankings come from the raw scores, while the
    weighted re-ranking average gets the strictly positive weights it
    divides by even when external scores are negative. Constant score
    vectors map to all ones.
    """
    rows, columns = np.ogrid[: len(table.qids), : len(table.uids)]
    return RelevanceTable(table.qids, table.uids, normalized_at(table, rows[:, 0], columns))


def normalized_at(table: RelevanceTable, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """normalize(table).scores[rows[:, None], columns], with only those
    cells rescaled: row k of columns holds columns of table row rows[k],
    each min-max rescaled from its table row's [lo, hi]."""
    scores = table.scores
    lo, hi = scores.min(axis=1, keepdims=True)[rows], scores.max(axis=1, keepdims=True)[rows]
    cells, span = scores[rows[:, None], columns], hi - lo
    flat = span == 0.0
    scaled = NORM_FLOOR + (cells - lo) / np.where(flat, 1.0, span) * (1.0 - NORM_FLOOR)
    scaled[flat[:, 0]] = 1.0
    return scaled
