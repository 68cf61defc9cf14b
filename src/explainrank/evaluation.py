"""Rankings as int32 orders, and MAP reports: overall, by role, by gold size.

Questions without gold are never scored; questions annotated but absent
from the supplied rankings are skipped with a warning so score files
covering a subset of the corpus still evaluate. A ranking may be truncated
(`--top-m`): a gold fact it does not retrieve adds nothing to the
question's AP, whose denominator stays the gold set size, and the report
counts such facts. A ranked uid that is not a corpus fact is a hard error,
since it means mismatched files. Every MAP, here and in the depth sweep,
comes from the gold positions find_gold gives, through one AP kernel,
average_precisions.
"""

from __future__ import annotations

import logging
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .corpus import KNOWN_ROLES, Corpus, Question
from .errors import DataError, FormatError, split_cell, tsv_blocks

log = logging.getLogger(__name__)


class Rankings(Mapping[str, list[str]]):
    """A read-only qid -> fact uids mapping over uids, an object array, and orders, each
    qid's int32 indices into uids, best first. An item is a new list each time it is asked for."""

    __slots__ = ("uids", "orders")

    def __init__(self, uids: Sequence[str], orders: dict[str, np.ndarray]):
        self.uids, self.orders = np.array(uids, dtype=object), orders

    def __getitem__(self, qid: str) -> list[str]:
        return self.uids[self.orders[qid]].tolist()

    def __contains__(self, qid: object) -> bool:
        return qid in self.orders

    def __iter__(self) -> Iterator[str]:
        return iter(self.orders)

    def __len__(self) -> int:
        return len(self.orders)


def _numbered(rankings: Mapping[str, Sequence[str]]) -> Rankings:
    """rankings itself if it is a Rankings, else its uids numbered once, as read_predictions numbers them."""
    if isinstance(rankings, Rankings):
        return rankings
    index = defaultdict(count().__next__)  # a uid not yet seen gets the next index
    orders = {qid: np.fromiter(map(index.__getitem__, r), np.int32, len(r)) for qid, r in rankings.items()}
    return Rankings(list(index), orders)


def find_gold(order: np.ndarray, question: Question, column: dict[str, int]) -> tuple[np.ndarray, list[str]]:
    """Where order, corpus columns best first, first holds each gold uid of question
    that it holds, and those uids, in column order; column maps uids to columns."""
    uid_at = {column[uid]: uid for uid in question.gold_uid_set if uid in column}
    is_gold = np.zeros(len(column), dtype=bool)  # a mask of the gold columns: np.isin took longer
    is_gold[list(uid_at)] = True
    hits = np.flatnonzero(is_gold[order])
    found, first = np.unique(order[hits], return_index=True)  # a repeated uid counts once
    return hits[first], [uid_at[j] for j in found.tolist()]


def padded(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """rows as one matrix, each padded with inf to the longest row (at least one column)."""
    out = np.full((len(rows), max([1, *map(len, rows)])), np.inf)
    for e, row in enumerate(rows):
        out[e, : len(row)] = row
    return out


def average_precisions(positions: np.ndarray, n_relevant: np.ndarray) -> np.ndarray:
    """Each row's AP, the one AP kernel every MAP here goes through.

    Row e of positions holds the 0-based positions of its relevant items in
    its ranking, in any order, padded with inf for the items the ranking
    lacks; n_relevant[e] is the size of its relevant set. The AP adds
    k / (position + 1) for the k-th relevant item in rank order, left to
    right, and divides the sum by n_relevant[e]. A lacking item adds 0.
    """
    ranked = np.sort(positions, axis=1)
    precisions = np.arange(1, ranked.shape[1] + 1) / (ranked + 1.0)
    return np.cumsum(precisions, axis=1)[:, -1] / n_relevant


def mean_in_order(values: np.ndarray) -> float:
    """The mean of values, summed left to right (np.mean sums pairwise)."""
    return float(np.cumsum(values)[-1] / len(values))


def evaluable(ranked_qids: Collection[str], corpus: Corpus) -> list[Question]:
    """The annotated questions of the corpus that have a ranking, in corpus
    order. Annotated questions without one are skipped with a warning."""
    known = corpus.question_index()
    unknown = [qid for qid in ranked_qids if qid not in known]
    if unknown:
        raise DataError(f"rankings reference unknown question(s): {sorted(unknown)[:5]}")
    questions = [q for q in corpus.questions if q.gold and q.qid in ranked_qids]
    skipped = sum(1 for q in corpus.questions if q.gold and q.qid not in ranked_qids)
    if skipped:
        log.warning("%d annotated question(s) have no ranking and were skipped", skipped)
    if not questions:
        raise DataError("no annotated questions to evaluate")
    return questions


def _per_role(questions: Sequence[Question], found: Sequence[dict[str, int]]) -> dict[str, float]:
    """Mean AP per role, each question's relevant set restricted to its gold
    facts of that role; questions lacking a role do not count against it."""
    by_role: dict[str, tuple[list[list[int]], list[int]]] = {}
    for q, positions in zip(questions, found):
        uids_of: dict[str, set[str]] = {}
        for uid, role in q.gold:
            uids_of.setdefault(role, set()).add(uid)
        for role, uids in uids_of.items():
            rows, sizes = by_role.setdefault(role, ([], []))
            rows.append([positions[uid] for uid in uids if uid in positions])
            sizes.append(len(uids))
    return {
        role: mean_in_order(average_precisions(padded(rows), np.array(sizes)))
        for role, (rows, sizes) in by_role.items()
    }


@dataclass(frozen=True)
class EvalReport:
    map_overall: float
    per_role: dict[str, float]  # by role label
    per_length: dict[int, tuple[int, float]]
    n_questions: int
    skipped: int  # questions in scope without gold annotation
    unretrieved: int = 0  # gold facts of evaluated questions missing from their rankings


def evaluate_rankings(rankings: Mapping[str, Sequence[str]], corpus: Corpus) -> EvalReport:
    """A mapping that is not a Rankings is numbered once, as read_predictions numbers uids."""
    questions = evaluable(rankings, corpus)
    rankings = _numbered(rankings)
    column = corpus.facts.column
    columns = np.fromiter(map(column.get, rankings.uids, repeat(-1)), np.intp, len(rankings.uids))
    if unknown := set(rankings.uids[columns < 0]):
        raise DataError(f"rankings reference unknown fact uid(s): {sorted(unknown)[:5]}")
    skipped = sum(1 for q in corpus.questions if q.qid in rankings and not q.gold)
    # every gold fact relevant; each order is looked at once
    found = [find_gold(columns[rankings.orders[q.qid]], q, column) for q in questions]
    found = [dict(zip(uids, positions.tolist())) for positions, uids in found]
    sizes = np.array([len(q.gold_uid_set) for q in questions])
    aps = average_precisions(padded([list(f.values()) for f in found]), sizes)
    lengths, counts = np.unique(sizes, return_counts=True)
    return EvalReport(
        map_overall=mean_in_order(aps),
        per_role=_per_role(questions, found),
        per_length={
            size: (count, mean_in_order(aps[sizes == size]))
            for size, count in zip(lengths.tolist(), counts.tolist())
        },
        n_questions=len(questions),
        skipped=skipped,
        unretrieved=int(sizes.sum()) - sum(map(len, found)),
    )


def _role_order(role: str) -> tuple[int, object]:
    if role in KNOWN_ROLES:
        return (0, KNOWN_ROLES.index(role))
    return (1, role)


def format_report(report: EvalReport) -> str:
    lines = [
        f"questions evaluated: {report.n_questions} "
        f"(skipped {report.skipped} without gold annotation)",
    ]
    if report.unretrieved:
        lines.append(f"gold facts not retrieved: {report.unretrieved} (each adds 0 to its AP)")
    lines += [
        f"MAP overall: {report.map_overall:.6f}",
        "",
        "MAP by explanation role:",
    ]
    for role in sorted(report.per_role, key=_role_order):
        lines.append(f"  {role:<12} {report.per_role[role]:.6f}")
    lines.append("")
    lines.append("MAP by gold explanation length:")
    for size, (count, value) in report.per_length.items():
        lines.append(f"  {size:>2}  n={count:<5d} {value:.6f}")
    return "\n".join(lines)


def report_keyvalues(report: EvalReport) -> str:
    """Machine-readable key=value lines with exact float representations."""
    lines = [
        f"map_overall={report.map_overall!r}",
        f"n_questions={report.n_questions}",
        f"skipped={report.skipped}",
    ]
    if report.unretrieved:
        lines.append(f"unretrieved={report.unretrieved}")
    for role in sorted(report.per_role, key=_role_order):
        lines.append(f"per_role.{role}={report.per_role[role]!r}")
    for size, (count, value) in report.per_length.items():
        lines.append(f"per_length.{size}.count={count}")
        lines.append(f"per_length.{size}.map={value!r}")
    return "\n".join(lines)


def write_predictions(ranked_by_qid: Mapping[str, Sequence[str]], path: str | Path, top_m: int | None = None):
    """One "qid<TAB>fact_uid" line per kept position, questions in mapping
    order, best first; each order is cut to top_m before its uids are looked
    up, and a question's lines are written as one string. A ValueError,
    raised before the file is opened, refuses a qid holding a tab, CR or LF,
    a blank one keeping a blank uid, and a first written qid starting with a
    byte-order mark."""
    rankings = _numbered(ranked_by_qid)
    uids, heads = rankings.uids, {qid: order[:top_m] for qid, order in rankings.orders.items()}
    if reason := split_cell("qid", heads):
        raise ValueError(f"{reason}; the predictions would not read back")
    first = next((qid for qid, head in heads.items() if len(head)), "")
    if first.startswith("\ufeff"):
        raise ValueError(f"first qid {first!r} starts with a byte-order mark, which readers drop")
    for qid, head in heads.items():
        if not qid.strip() and not all(map(str.strip, uids[head])):
            raise ValueError(f"qid {qid!r} keeps a blank uid, whose line would read back as blank")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, head in heads.items():
            if len(head):
                lines = f"\n{qid}\t".join(uids[head].tolist())
                fh.write(f"{qid}\t{lines}\n")


def read_predictions(path: str | Path) -> Rankings:
    """Read a predictions file back as Rankings, a block of lines at a time.

    A question's lines need not be contiguous. Uids are numbered in the
    order they first occur, so equal uids share one string object. A (qid,
    uid) pair that repeats is a DataError naming its line.
    """
    path = Path(path)
    index = defaultdict(count().__next__)  # a uid not yet seen gets the next index
    orders: dict[str, array | np.ndarray] = {}
    try:
        for block in tsv_blocks(path, 2):
            qids, uids = block.columns
            ids = np.fromiter(map(index.__getitem__, uids), np.int32, len(uids))
            for start, end in zip(block.runs, block.runs[1:]):
                orders.setdefault(qids[start], array("i")).frombytes(ids[start:end].tobytes())
            if block.wrong_line is not None:
                raise FormatError(f"{path} line {block.wrong_line}: expected qid<TAB>fact_uid")
    except FormatError:
        _check_repeats(path, orders)  # a repeat on an earlier line is raised first
        raise
    _check_repeats(path, orders)
    for qid, ids in orders.items():  # each buffer to an array of its size, one at a time
        orders[qid] = np.array(ids, np.int32)
    return Rankings(list(index), orders)


def _check_repeats(path: Path, orders: Mapping[str, array]) -> None:
    """A DataError at the first line that repeats a (qid, uid) pair. Each order is checked
    with one sort; the file is read again only to locate a repeat."""
    if not any((s[1:] == s[:-1]).any() for s in map(np.sort, orders.values())):
        return
    first_index: dict[tuple[str, str], int] = {}
    offset = 0
    for block in tsv_blocks(path, 2):
        n = len(block.linenos)
        pairs = list(zip(*block.columns))
        indexes = range(offset, offset + n)
        firsts = np.fromiter(map(first_index.setdefault, pairs, indexes), np.int64, n)
        repeats = np.flatnonzero(firsts != indexes)
        if len(repeats):
            qid, uid = pairs[repeats[0]]
            lineno = block.linenos[repeats[0]]
            raise DataError(f"{path} line {lineno}: duplicate prediction {uid!r} for {qid!r}")
        offset += n
