"""Mean-average-precision reports: overall, by explanation role, by gold size.

All metrics operate on ordered uid lists per question against the gold
annotation. Questions without gold are never scored; questions annotated
but absent from the supplied rankings are skipped with a warning so score
files covering a subset of the corpus still evaluate. A ranking may be
truncated (`--top-m`): a gold fact it does not retrieve adds nothing to the
question's AP, whose denominator stays the gold set size, and the report
counts such facts. A ranked uid that is not a corpus fact is a hard error,
since it means mismatched files. Every MAP, here and in the depth sweep,
comes from the gold facts' positions through one AP kernel,
average_precisions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .corpus import KNOWN_ROLES, Corpus, Question, Role
from .errors import DataError, FormatError, tsv_blocks

log = logging.getLogger(__name__)

# qid -> fact uids, best first: what all_rankings, rerank_all and read_predictions give
RankedUids = Mapping[str, Sequence[str]]


def average_precision(ranked: Sequence[str], relevant: Iterable[str]) -> float:
    """Precision accumulated at each rank position holding a relevant item,
    divided by the number of relevant items; a relevant item the ranking
    does not hold adds nothing."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("average_precision needs a nonempty relevant set")
    found = _positions(ranked, relevant)
    return float(average_precisions(padded([list(found.values())]), np.array([len(relevant)]))[0])


def _positions(ranked: Sequence[str], relevant: Collection[str]) -> dict[str, int]:
    """The 0-based position of each relevant uid the ranking holds, at its
    first occurrence, in rank order. The scan stops at the last relevant
    item, so a long ranking is read only as far as its gold reaches."""
    found: dict[str, int] = {}
    for position, uid in enumerate(ranked):
        if uid in relevant and uid not in found:
            found[uid] = position
            if len(found) == len(relevant):
                break
    return found


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


def _scan_gold(questions: Sequence[Question], ranked_by_qid: RankedUids):
    """Each question's gold positions, gold set size and AP, every gold fact
    relevant. Each ranking is scanned once."""
    found = [_positions(ranked_by_qid[q.qid], q.gold_uid_set) for q in questions]
    sizes = np.array([len(q.gold_uid_set) for q in questions])
    return found, sizes, average_precisions(padded([list(f.values()) for f in found]), sizes)


def map_overall(ranked_by_qid: RankedUids, corpus: Corpus) -> float:
    """Mean AP over annotated questions, every gold fact relevant."""
    return mean_in_order(_scan_gold(evaluable(ranked_by_qid, corpus), ranked_by_qid)[2])


def _per_role(questions: Sequence[Question], found: Sequence[dict[str, int]]) -> dict[Role, float]:
    """Mean AP per role, each question's relevant set restricted to its gold
    facts of that role; questions lacking a role do not count against it."""
    by_role: dict[Role, tuple[list[list[int]], list[int]]] = {}
    for q, positions in zip(questions, found):
        uids_of: dict[Role, set[str]] = {}
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
    per_role: dict[Role, float]
    per_length: dict[int, tuple[int, float]]
    n_questions: int
    skipped: int  # questions in scope without gold annotation
    unretrieved: int = 0  # gold facts of evaluated questions missing from their rankings


def evaluate_rankings(ranked_by_qid: RankedUids, corpus: Corpus) -> EvalReport:
    questions = evaluable(ranked_by_qid, corpus)
    unknown = set().union(*ranked_by_qid.values()).difference(corpus.facts)
    if unknown:
        raise DataError(f"rankings reference unknown fact uid(s): {sorted(unknown)[:5]}")
    skipped = sum(1 for q in corpus.questions if q.qid in ranked_by_qid and not q.gold)
    found, sizes, aps = _scan_gold(questions, ranked_by_qid)
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


def _role_order(role: Role) -> tuple[int, object]:
    if role.label in KNOWN_ROLES:
        return (0, KNOWN_ROLES.index(role.label))
    return (1, role.label)


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
        lines.append(f"  {role.label:<12} {report.per_role[role]:.6f}")
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
        lines.append(f"per_role.{role.label}={report.per_role[role]!r}")
    for size, (count, value) in report.per_length.items():
        lines.append(f"per_length.{size}.count={count}")
        lines.append(f"per_length.{size}.map={value!r}")
    return "\n".join(lines)


def write_predictions(ranked_by_qid: RankedUids, path: str | Path, top_m: int | None = None) -> None:
    """One "qid<TAB>fact_uid" line per kept position, questions in mapping
    order, best fact first within each question; a question's lines are
    written as one string."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, uids in ranked_by_qid.items():
            uids = uids if top_m is None else uids[:top_m]
            if uids:
                lines = f"\n{qid}\t".join(uids)
                fh.write(f"{qid}\t{lines}\n")


def read_predictions(path: str | Path) -> dict[str, list[str]]:
    """Read a predictions file back into ordered uid lists per question.

    The file is parsed a block of lines at a time. A question's lines need
    not be contiguous. Equal uids share one string object across questions.
    A (qid, uid) pair that repeats is a DataError naming its line.
    """
    path = Path(path)
    ranked: dict[str, list[str]] = {}
    canon: dict[str, str] = {}
    try:
        for block in tsv_blocks(path, 2):
            qids, uids = block.columns
            uids = list(map(canon.setdefault, uids, uids))
            for start, end in zip(block.runs, block.runs[1:]):
                ranked.setdefault(qids[start], []).extend(uids[start:end])
            if block.wrong_line is not None:
                raise FormatError(f"{path} line {block.wrong_line}: expected qid<TAB>fact_uid")
    except FormatError:
        _check_repeats(path, ranked)  # a repeat on an earlier line is raised first
        raise
    _check_repeats(path, ranked)
    return ranked


def _check_repeats(path: Path, ranked: Mapping[str, list[str]]) -> None:
    """A DataError at the first line that repeats a (qid, uid) pair. Each
    question is checked with one temporary set; the file is read again only
    to locate a repeat."""
    if all(len(set(uids)) == len(uids) for uids in ranked.values()):
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
