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
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path

from .errors import DataError, FormatError, split_cell, tsv_fields, utf8_blocks

log = logging.getLogger(__name__)

KNOWN_ROLES = ("CENTRAL", "GROUNDING", "LEXGLUE", "BACKGROUND", "NEG")

MAX_GOLD = 16

# question file columns: id, combined question text, answer key, explanation
QUESTION_COLUMNS = ("QuestionID", "question", "AnswerKey", "explanation")


CENTRAL, GROUNDING, LEXGLUE, BACKGROUND, NEG = KNOWN_ROLES


def parse_role(raw: str) -> str:
    """The role label of a gold explanation fact: a known role whatever its
    spacing, underscores or case ("LEXICAL GLUE" is LEXGLUE). Unknown labels
    are kept verbatim instead of rejected, so files with extended annotation
    vocabularies still load."""
    folded = raw.replace(" ", "").replace("_", "").upper()
    if folded == "LEXICALGLUE":
        folded = LEXGLUE
    return folded if folded in KNOWN_ROLES else raw


@dataclass(frozen=True)
class ExplanationFact:
    uid: str
    text: str
    table_name: str


class Facts(Mapping[str, ExplanationFact]):
    """The corpus facts as a read-only uid -> ExplanationFact mapping, in
    corpus order: three tuples, uids, texts and tables (each fact's table
    name), and column, each uid's position in them. An ExplanationFact is
    made only when an item is asked for; the pipeline reads the columns."""

    __slots__ = ("uids", "texts", "tables", "column")

    def __init__(
        self,
        uids: Sequence[str],
        texts: Sequence[str],
        tables: Sequence[str],
        column: dict[str, int] | None = None,
    ):
        """column, when given, must map each uid to its position."""
        self.uids, self.texts, self.tables = tuple(uids), tuple(texts), tuple(tables)
        self.column = dict(zip(self.uids, count())) if column is None else column
        if not len(self.column) == len(self.uids) == len(self.texts) == len(self.tables):
            raise ValueError("fact columns of different lengths, or a repeated uid")

    def __getitem__(self, uid: str) -> ExplanationFact:
        j = self.column[uid]
        return ExplanationFact(uid, self.texts[j], self.tables[j])

    def __contains__(self, uid: object) -> bool:
        return uid in self.column

    def __iter__(self) -> Iterator[str]:
        return iter(self.uids)

    def __len__(self) -> int:
        return len(self.uids)

    def text(self, uid: str) -> str:
        """The text of fact uid; a KeyError if there is none."""
        return self.texts[self.column[uid]]


@dataclass(frozen=True)
class Question:
    qid: str
    stem: str
    choices: dict[str, str]
    answer_key: str
    gold: tuple[tuple[str, str], ...] = ()  # (uid, role label)

    @property
    def gold_uid_set(self) -> frozenset[str]:
        return frozenset(uid for uid, _ in self.gold)


@dataclass(frozen=True)
class Corpus:
    facts: Facts
    questions: tuple[Question, ...]

    def __post_init__(self) -> None:
        """A TypeError unless facts is a Facts. A DataError for a repeated
        qid: qids key every ranking."""
        if not isinstance(self.facts, Facts):
            raise TypeError(f"Corpus facts must be a Facts, not {type(self.facts).__name__}")
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


def load_facts(paths: Iterable[str | Path]) -> Facts:
    """Load explanation facts from one or more TSV tables, in table order.

    The fact text is the single-space join of the nonempty cells whose header
    does not contain "SKIP"; the uid comes from the unique column whose header
    contains "UID". Duplicate uids across tables are a hard error because uids
    key every downstream join. Blank lines are skipped. A row without a uid or
    a text is skipped, and cells past the header's width are ignored, each
    kind with one warning per table that gives the count and the first line.
    """
    uids, texts, tables = [], [], []
    column: dict[str, int] = {}
    for path in map(Path, paths):
        blocks = list(utf8_blocks(path))  # the whole table first: a bad byte anywhere is its error
        if not blocks:
            raise FormatError(f"{path}: empty fact table")
        header, _, rest = blocks[0][1].partition("\n")
        blocks[0] = (2, rest)
        headers = header.split("\t")
        uid_cols = [i for i, h in enumerate(headers) if "UID" in h]
        if len(uid_cols) != 1:
            raise FormatError(
                f"{path}: expected exactly one header containing 'UID', found {len(uid_cols)}"
            )
        uid_col, width = uid_cols[0], len(headers)
        content_cols = [i for i, h in enumerate(headers) if "SKIP" not in h]
        table_uids, table_texts, linenos = [], [], []  # linenos: each block's, for errors
        no_uid, no_text, wide = dropped = [], [], []
        for first, body in blocks:
            block_uids, block_texts, block_linenos = _fact_block(
                body, first, width, uid_col, content_cols, dropped
            )
            table_uids += block_uids
            table_texts += block_texts
            linenos.append(block_linenos)
        del blocks
        for found, what, outcome in (
            (no_uid, "row(s) without a uid", "skipped"),
            (no_text, "fact(s) with no text", "skipped"),
            (wide, f"row(s) with cells past the header's {width} columns", "those cells ignored"),
        ):
            if found:
                log.warning("%s: %d %s, first at line %d; %s", path, len(found), what, found[0], outcome)
        table = path.stem
        column.update(zip(table_uids, count(len(uids))))
        if len(column) < len(uids) + len(table_uids):
            earlier = dict(zip(uids, tables))
            for uid, lineno in zip(table_uids, chain.from_iterable(linenos)):
                if uid in earlier:
                    raise FormatError(
                        f"{path} line {lineno}: duplicate fact uid {uid!r}, also in table {earlier[uid]!r}"
                    )
                earlier[uid] = table
        uids += table_uids
        texts += table_texts
        tables += repeat(table, len(table_uids))
    return Facts(uids, texts, tables, column)


def _fact_block(
    body: str, first: int, width: int, uid_col: int, content_cols: list[int], dropped: tuple
) -> tuple[list[str], list[str], Iterable[int]]:
    """The uids, texts and line numbers of the facts in body, a block of a
    fact table's lines that starts at line first. A block whose rows all
    have the header's width, a uid and a text is read a column at a time;
    any other a row at a time, which pads a short row with empty cells,
    skips blank lines, and adds the line of each row without a uid, of each
    fact without a text and of each row with cells past the width to the
    three lists in dropped."""
    fields = tsv_fields(body, width) if content_cols else None
    if fields is not None:
        uids = list(map(str.strip, fields[uid_col::width]))
        cells = map(" ".join, zip(*(fields[i::width] for i in content_cols)))
        texts = list(map(" ".join, map(str.split, cells)))
        if all(uids) and all(texts):
            return uids, texts, range(first, first + len(uids))
    uids, texts, linenos = [], [], []
    no_uid, no_text, wide = dropped
    lines = body.split("\n")
    lines.pop()
    for lineno, row in enumerate(lines, start=first):
        cells = row.split("\t")
        if len(cells) > width and any(map(str.strip, cells[width:])):
            wide.append(lineno)
        cells += [""] * (width - len(cells))
        uid = cells[uid_col].strip()
        if not uid:
            if row.strip():  # a blank line is skipped silently
                no_uid.append(lineno)
            continue
        text = " ".join(" ".join(map(cells.__getitem__, content_cols)).split())
        if not text:
            no_text.append(lineno)
            continue
        uids.append(uid)
        texts.append(text)
        linenos.append(lineno)
    return uids, texts, linenos


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


def parse_explanation(cell: str) -> tuple[tuple[str, str], ...]:
    """Parse a whitespace-separated "uid|ROLE" annotation cell, order preserved."""
    gold: list[tuple[str, str]] = []
    for token in cell.split():
        uid, sep, label = token.rpartition("|")
        if not sep or not uid or not label:
            raise FormatError(f"explanation token {token!r} is not of the form uid|ROLE")
        gold.append((uid, parse_role(label)))
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
    lines = "".join(text for _, text in utf8_blocks(path)).split("\n")[:-1]
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


def _row(q: Question) -> list[str]:
    """q's cells in a question file, in QUESTION_COLUMNS order."""
    keyed = [f"({key}) {q.choices[key]}" for key in sorted(q.choices)]
    expl = " ".join(f"{uid}|{role}" for uid, role in q.gold)
    return [q.qid, " ".join([q.stem, *keyed] if q.stem else keyed), q.answer_key, expl]


def _unreadable(q: Question, row: list[str]) -> str | None:
    """Why load_questions would not read row back as q, roles folded by parse_role, or None."""
    for uid, role in q.gold:
        token = f"{uid}|{role}"
        if not uid or not role or "|" in role or token.split() != [token]:
            return f"gold token {token!r} would not read back as uid|ROLE"
    if reason := split_cell("field", row):
        return reason
    if bad := [text for text in (q.qid, q.answer_key) if text != text.strip()]:
        return f"{bad[0]!r} has surrounding whitespace"
    stem, choices, _ = _split_question(row[1])
    if (stem, choices) != (q.stem, q.choices):
        return f"question text {row[1]!r} would read back as stem {stem!r} and choices {choices}"
    if not "".join(row):
        return "an empty question is a blank line, which is skipped"
    return None


def write_questions(questions: Sequence[Question], path: str | Path) -> None:
    """Write questions in the same TSV layout load_questions reads back. A
    question that would not read back as itself, or a qid that repeats, is
    a ValueError naming the qid, raised before the file is opened."""
    rows, seen = [_row(q) for q in questions], set()
    for q, row in zip(questions, rows):
        if reason := _unreadable(q, row) or ("the qid repeats" if q.qid in seen else None):
            raise ValueError(f"question {q.qid}: {reason}")
        seen.add(q.qid)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(QUESTION_COLUMNS) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def load_corpus(fact_paths: Iterable[str | Path], question_path: str | Path) -> Corpus:
    facts = load_facts(fact_paths)
    return Corpus(facts=facts, questions=tuple(load_questions(question_path)))


def qa_text(question: Question) -> str:
    """Question stem plus the correct answer's text; the Q/A side of every
    similarity comparison. Other answer choices are excluded. A DataError
    if the answer key names no choice."""
    try:
        answer = question.choices[question.answer_key]
    except KeyError:
        raise DataError(
            f"question {question.qid}: answer key {question.answer_key!r} "
            f"not among choices {sorted(question.choices)}"
        ) from None
    return " ".join(p for p in (question.stem, answer) if p)


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
