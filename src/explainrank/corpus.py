"""Explanation-fact corpus and annotated questions: loading, parsing, validation.

Fact tables and question files are UTF-8 TSV with a header row. Fact tables
mark the identifier column with "UID" in its header and exclude any column
whose header contains "SKIP" from the fact text. Question files carry the
question id, the combined question text with "(A)".."(E)" choice markers,
the answer key, and a whitespace-separated "uid|ROLE" explanation column.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, FormatError, read_utf8, text_lines

log = logging.getLogger(__name__)

KNOWN_ROLES = ("CENTRAL", "GROUNDING", "LEXGLUE", "BACKGROUND", "NEG")

MAX_GOLD = 16

# question file columns: id, combined question text, answer key, explanation
QUESTION_COLUMNS = ("QuestionID", "question", "AnswerKey", "explanation")


@dataclass(frozen=True)
class Role:
    """Annotation role of a gold explanation fact.

    Unknown labels are preserved verbatim instead of rejected, so files with
    extended annotation vocabularies still load.
    """

    label: str

    @property
    def known(self) -> bool:
        return self.label in KNOWN_ROLES

    @staticmethod
    def parse(raw: str) -> "Role":
        folded = raw.replace(" ", "").replace("_", "").upper()
        if folded == "LEXICALGLUE":
            folded = "LEXGLUE"
        if folded in KNOWN_ROLES:
            return Role(folded)
        return Role(raw)


CENTRAL = Role("CENTRAL")
GROUNDING = Role("GROUNDING")
LEXGLUE = Role("LEXGLUE")
BACKGROUND = Role("BACKGROUND")
NEG = Role("NEG")


@dataclass(frozen=True)
class ExplanationFact:
    uid: str
    text: str
    table_name: str


@dataclass(frozen=True)
class Question:
    qid: str
    stem: str
    choices: dict[str, str]
    answer_key: str
    gold: tuple[tuple[str, Role], ...] = ()

    @property
    def gold_uid_set(self) -> frozenset[str]:
        return frozenset(uid for uid, _ in self.gold)


@dataclass(frozen=True)
class Corpus:
    facts: dict[str, ExplanationFact]
    questions: tuple[Question, ...]

    def __post_init__(self) -> None:
        """A DataError for a repeated qid: qids key every ranking."""
        counts = Counter(q.qid for q in self.questions)
        if repeated := [qid for qid, n in counts.items() if n > 1]:
            raise DataError(f"duplicate question id {repeated[0]!r}")

    @cached_property
    def answerable(self) -> tuple[tuple[Question, str], ...]:
        """Each question whose answer key names one of its choices, with its
        question/answer text, in corpus order. Any other question has no Q/A
        text to compare facts with; it is skipped, with one warning per
        corpus however many steps ask."""
        kept = []
        for q in self.questions:
            if q.answer_key in q.choices:
                kept.append((q, qa_text(q)))
            else:
                log.warning(
                    "question %s: answer key %r matches no choice; skipped", q.qid, q.answer_key
                )
        return tuple(kept)

    def question_index(self) -> dict[str, Question]:
        return {q.qid: q for q in self.questions}


def load_facts(paths: Iterable[str | Path]) -> dict[str, ExplanationFact]:
    """Load explanation facts from one or more TSV tables, keyed by uid.

    The fact text is the single-space join of the nonempty cells whose header
    does not contain "SKIP"; the uid comes from the unique column whose header
    contains "UID". Duplicate uids across tables are a hard error because uids
    key every downstream join.
    """
    facts: dict[str, ExplanationFact] = {}
    sources: dict[str, str] = {}
    for path in paths:
        path = Path(path)
        table = path.stem
        lines = text_lines(read_utf8(path))
        if not lines:
            raise FormatError(f"{path}: empty fact table")
        headers = lines[0].split("\t")
        uid_cols = [i for i, h in enumerate(headers) if "UID" in h]
        if len(uid_cols) != 1:
            raise FormatError(
                f"{path}: expected exactly one header containing 'UID', found {len(uid_cols)}"
            )
        uid_col = uid_cols[0]
        content_cols = [i for i, h in enumerate(headers) if "SKIP" not in h]
        for lineno, row in enumerate(lines[1:], start=2):
            cells = row.split("\t")
            cells += [""] * (len(headers) - len(cells))
            uid = cells[uid_col].strip()
            if not uid:
                continue
            words: list[str] = []
            for i in content_cols:
                words.extend(cells[i].split())
            text = " ".join(words)
            if not text:
                log.warning("%s: fact %s has no text, skipped", path, uid)
                continue
            if uid in facts:
                raise FormatError(
                    f"{path} line {lineno}: duplicate fact uid {uid!r}, also in table {sources[uid]!r}"
                )
            facts[uid] = ExplanationFact(uid=uid, text=text, table_name=table)
            sources[uid] = table
    return facts


_MARKER_RE = re.compile(r"\(([A-E])\)")
_CHOICE_LETTERS = "ABCDE"


def _split_question(text: str) -> tuple[str, dict[str, str], bool]:
    """Split combined question text into (stem, choices, malformed).

    Choices are delimited by "(A)".."(E)" markers appearing in order; the text
    before "(A)" is the stem. Missing or out-of-order markers make the whole
    text the stem with zero choices.
    """
    matches = list(_MARKER_RE.finditer(text))
    letters = [m.group(1) for m in matches]
    if not matches or letters != list(_CHOICE_LETTERS[: len(matches)]):
        return text.strip(), {}, True
    stem = text[: matches[0].start()].strip()
    choices: dict[str, str] = {}
    for pos, match in enumerate(matches):
        end = matches[pos + 1].start() if pos + 1 < len(matches) else len(text)
        choices[match.group(1)] = text[match.end() : end].strip()
    return stem, choices, False


def parse_explanation(cell: str) -> tuple[tuple[str, Role], ...]:
    """Parse a whitespace-separated "uid|ROLE" annotation cell, order preserved."""
    gold: list[tuple[str, Role]] = []
    for token in cell.split():
        uid, sep, label = token.rpartition("|")
        if not sep or not uid or not label:
            raise FormatError(f"explanation token {token!r} is not of the form uid|ROLE")
        gold.append((uid, Role.parse(label)))
    return tuple(gold)


def load_questions(path: str | Path) -> list[Question]:
    """Load annotated questions from a TSV file with the QUESTION_COLUMNS.

    Rows with an empty explanation cell become questions with empty gold;
    they are kept for prediction but excluded from MAP. A question id that
    repeats is a FormatError naming both lines. An answer key that
    does not match any parsed choice is kept as-is and surfaced as a hard
    issue by validate().
    """
    path = Path(path)
    lines = text_lines(read_utf8(path))
    if not lines:
        raise FormatError(f"{path}: empty question file")
    headers = lines[0].split("\t")
    missing = [c for c in QUESTION_COLUMNS if c not in headers]
    if missing:
        raise FormatError(f"{path}: missing required column(s): {', '.join(missing)}")
    id_col, text_col, key_col, expl_col = map(headers.index, QUESTION_COLUMNS)

    questions: list[Question] = []
    first_line: dict[str, int] = {}
    for lineno, row in enumerate(lines[1:], start=2):
        if not row.strip():
            continue
        cells = row.split("\t")
        cells += [""] * (len(headers) - len(cells))
        qid = cells[id_col].strip()
        if qid in first_line:
            raise FormatError(
                f"{path} line {lineno}: duplicate QuestionID {qid!r}, first on line {first_line[qid]}"
            )
        first_line[qid] = lineno
        stem, choices, malformed = _split_question(cells[text_col])
        if malformed:
            log.warning(
                "%s line %d: no well-formed (A)..(E) markers; kept whole text as stem",
                path,
                lineno,
            )
        try:
            gold = parse_explanation(cells[expl_col])
        except FormatError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from None
        questions.append(
            Question(
                qid=qid,
                stem=stem,
                choices=choices,
                answer_key=cells[key_col].strip(),
                gold=gold,
            )
        )
    return questions


def write_questions(questions: Sequence[Question], path: str | Path) -> None:
    """Write questions in the same TSV layout load_questions reads back."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(QUESTION_COLUMNS) + "\n")
        for q in questions:
            parts = [q.stem] if q.stem else []
            for key in sorted(q.choices):
                parts.append(f"({key}) {q.choices[key]}")
            combined = " ".join(parts)
            expl = " ".join(f"{uid}|{role.label}" for uid, role in q.gold)
            fields = [q.qid, combined, q.answer_key, expl]
            cleaned = []
            for value in fields:
                if "\t" in value or "\n" in value or "\r" in value:
                    log.warning("question %s: tab/newline replaced with space", q.qid)
                    value = re.sub(r"[\t\n\r]", " ", value)
                cleaned.append(value)
            fh.write("\t".join(cleaned) + "\n")


def load_corpus(fact_paths: Iterable[str | Path], question_path: str | Path) -> Corpus:
    facts = load_facts(fact_paths)
    return Corpus(facts=facts, questions=tuple(load_questions(question_path)))


def answer_text(question: Question) -> str:
    """Text of the correct answer choice."""
    try:
        return question.choices[question.answer_key]
    except KeyError:
        raise DataError(
            f"question {question.qid}: answer key {question.answer_key!r} "
            f"not among choices {sorted(question.choices)}"
        ) from None


def qa_text(question: Question) -> str:
    """Question stem plus the correct answer's text; the Q/A side of every
    similarity comparison. Other answer choices are excluded."""
    parts = [p for p in (question.stem, answer_text(question)) if p]
    return " ".join(parts)


@dataclass(frozen=True)
class ValidationIssue:
    qid: str
    kind: str  # "dangling-gold" | "answer-key" | "gold-size"
    detail: str
    hard: bool


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)
    empty_gold_qids: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(issue.hard for issue in self.issues)

    def format_text(self) -> str:
        lines = []
        for issue in self.issues:
            severity = "ERROR" if issue.hard else "WARNING"
            lines.append(f"{severity} {issue.kind} {issue.qid}: {issue.detail}")
        lines.append(
            f"{len(self.empty_gold_qids)} question(s) without gold annotation "
            "(kept, excluded from MAP)"
        )
        lines.append("corpus OK" if self.ok else "corpus has hard issues")
        return "\n".join(lines)


def validate(corpus: Corpus) -> ValidationReport:
    """Report dangling gold uids, unresolvable answer keys, gold-size violations.

    Report-only: nothing is dropped. The corpus is usable for evaluation iff
    there are no hard issues.
    """
    report = ValidationReport()
    for q in corpus.questions:
        for uid, _ in q.gold:
            if uid not in corpus.facts:
                report.issues.append(
                    ValidationIssue(q.qid, "dangling-gold", f"gold fact {uid!r} not in corpus", True)
                )
        if q.answer_key and q.answer_key not in q.choices:
            report.issues.append(
                ValidationIssue(
                    q.qid,
                    "answer-key",
                    f"answer key {q.answer_key!r} not among choices {sorted(q.choices)}",
                    True,
                )
            )
        if not q.gold:
            report.empty_gold_qids.append(q.qid)
        elif len(q.gold) > MAX_GOLD:
            report.issues.append(
                ValidationIssue(q.qid, "gold-size", f"{len(q.gold)} gold facts exceeds {MAX_GOLD}", False)
            )
    return report
