"""Mean-average-precision reports: overall, by explanation role, by gold size.

All metrics operate on ordered uid lists per question against the gold
annotation. Questions without gold are never scored; questions annotated
but absent from the supplied rankings are skipped with a warning so score
files covering a subset of the corpus still evaluate. A gold fact missing
from a ranking is a hard error: the rankings upstream are permutations of
the corpus, so a miss means mismatched files.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import KNOWN_ROLES, Corpus, Question, Role
from .errors import DataError, FormatError, utf8_lines
from .scorer import Ranking

log = logging.getLogger(__name__)

RankedUids = Mapping[str, Sequence[str]]


def average_precision(ranked: Sequence[str], relevant: Iterable[str]) -> float:
    """Precision accumulated at each rank position holding a relevant item,
    divided by the number of relevant items. The scan stops at the last
    relevant item."""
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
                return acc / n_relevant
    raise DataError(f"relevant uid(s) missing from ranking: {sorted(remaining)[:5]}")


def _evaluable(ranked_by_qid: RankedUids, corpus: Corpus) -> list[Question]:
    known = corpus.question_index()
    unknown = [qid for qid in ranked_by_qid if qid not in known]
    if unknown:
        raise DataError(f"rankings reference unknown question(s): {sorted(unknown)[:5]}")
    questions = [q for q in corpus.questions if q.gold and q.qid in ranked_by_qid]
    skipped = sum(1 for q in corpus.questions if q.gold and q.qid not in ranked_by_qid)
    if skipped:
        log.warning("%d annotated question(s) have no ranking and were skipped", skipped)
    if not questions:
        raise DataError("no annotated questions to evaluate")
    return questions


def _mean_ap(questions: Sequence[Question], ranked_by_qid: RankedUids) -> float:
    total = 0.0
    for q in questions:
        total += average_precision(ranked_by_qid[q.qid], q.gold_uid_set)
    return total / len(questions)


def map_overall(ranked_by_qid: RankedUids, corpus: Corpus) -> float:
    """Mean AP over annotated questions, every gold fact relevant."""
    return _mean_ap(_evaluable(ranked_by_qid, corpus), ranked_by_qid)


def map_per_role(ranked_by_qid: RankedUids, corpus: Corpus) -> dict[Role, float]:
    """Mean AP per role, each question's relevant set restricted to its gold
    facts of that role; questions lacking a role do not count against it."""
    return _per_role(_evaluable(ranked_by_qid, corpus), ranked_by_qid)


def _per_role(questions: Sequence[Question], ranked_by_qid: RankedUids) -> dict[Role, float]:
    sums: dict[Role, float] = {}
    counts: dict[Role, int] = {}
    for q in questions:
        by_role: dict[Role, set[str]] = {}
        for uid, role in q.gold:
            by_role.setdefault(role, set()).add(uid)
        for role, uids in by_role.items():
            ap = average_precision(ranked_by_qid[q.qid], uids)
            sums[role] = sums.get(role, 0.0) + ap
            counts[role] = counts.get(role, 0) + 1
    return {role: sums[role] / counts[role] for role in sums}


def map_by_length(ranked_by_qid: RankedUids, corpus: Corpus) -> dict[int, tuple[int, float]]:
    """(question count, MAP) per gold-set size, sizes ascending."""
    return _per_length(_evaluable(ranked_by_qid, corpus), ranked_by_qid)


def _per_length(
    questions: Sequence[Question], ranked_by_qid: RankedUids
) -> dict[int, tuple[int, float]]:
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for q in questions:
        size = len(q.gold_uid_set)
        ap = average_precision(ranked_by_qid[q.qid], q.gold_uid_set)
        sums[size] = sums.get(size, 0.0) + ap
        counts[size] = counts.get(size, 0) + 1
    return {size: (counts[size], sums[size] / counts[size]) for size in sorted(sums)}


@dataclass(frozen=True)
class EvalReport:
    map_overall: float
    per_role: dict[Role, float]
    per_length: dict[int, tuple[int, float]]
    n_questions: int
    skipped: int  # questions in scope without gold annotation


def evaluate_rankings(ranked_by_qid: RankedUids, corpus: Corpus) -> EvalReport:
    questions = _evaluable(ranked_by_qid, corpus)
    skipped = sum(1 for q in corpus.questions if q.qid in ranked_by_qid and not q.gold)
    return EvalReport(
        map_overall=_mean_ap(questions, ranked_by_qid),
        per_role=_per_role(questions, ranked_by_qid),
        per_length=_per_length(questions, ranked_by_qid),
        n_questions=len(questions),
        skipped=skipped,
    )


def _role_order(role: Role) -> tuple[int, object]:
    if role.label in KNOWN_ROLES:
        return (0, KNOWN_ROLES.index(role.label))
    return (1, role.label)


def format_report(report: EvalReport) -> str:
    lines = [
        f"questions evaluated: {report.n_questions} "
        f"(skipped {report.skipped} without gold annotation)",
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
    for role in sorted(report.per_role, key=_role_order):
        lines.append(f"per_role.{role.label}={report.per_role[role]!r}")
    for size, (count, value) in report.per_length.items():
        lines.append(f"per_length.{size}.count={count}")
        lines.append(f"per_length.{size}.map={value!r}")
    return "\n".join(lines)


def write_predictions(
    rankings: Iterable[Ranking], path: str | Path, top_m: int | None = None
) -> None:
    """One "qid<TAB>fact_uid" line per kept position, questions in input order,
    best fact first within each question."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ranking in rankings:
            uids = ranking.uids
            if top_m is not None:
                uids = uids[:top_m]
            for uid in uids:
                fh.write(f"{ranking.qid}\t{uid}\n")


def read_predictions(path: str | Path) -> dict[str, list[str]]:
    """Read a predictions file back into ordered uid lists per question."""
    path = Path(path)
    ranked: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for lineno, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"{path} line {lineno}: expected qid<TAB>fact_uid")
        qid, uid = fields
        bucket = seen.setdefault(qid, set())
        if uid in bucket:
            raise DataError(f"{path} line {lineno}: duplicate prediction {uid!r} for {qid!r}")
        bucket.add(uid)
        ranked.setdefault(qid, []).append(uid)
    return ranked
