"""Fuzzed fact tables, question files and word-vector files.

Every input either loads or raises FormatError or DataError naming the file;
no other exception escapes a loader. The fact-table loader gives the same
facts, in the same order, warnings and errors, and the word-vector loader the
same tokens, table bits, warnings and errors, as the per-line references in
line_readers.py, and word vectors that load give finite cosines for any
sentence built from their tokens. Generated files mix line ends, blank
lines, tabs and separators inside cells, missing and repeated columns,
malformed annotations, huge, tiny and non-finite components, and bytes that
are not valid UTF-8. Gold annotations that write_questions writes read back
as their parsed roles. A question write_questions writes reads back as
itself; one it refuses would not have: its row, written without the checks,
reads back as another question or not at all.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from explainrank.corpus import Question, load_facts, load_questions, parse_role, write_questions
from explainrank.errors import DataError, FormatError
from explainrank.textsim import load_dense

import line_readers
from test_bulk_readers import damages, file_bytes, line_ends
from test_bulk_readers import outcome as read_outcome

_settings = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def cells(*samples):
    return st.sampled_from(["", " ", " ", "é", "x y", *samples])


def rows(cell, max_cells=4):
    return st.lists(cell, min_size=1, max_size=max_cells).map("\t".join)


fact_cells = cells("UID", "[SKIP] UID", "[SKIP] note", "text", "f1", "f2", " f1 ", "a frog")
question_headers = st.one_of(
    st.just("QuestionID\tquestion\tAnswerKey\texplanation"),
    st.permutations(["QuestionID", "question", "AnswerKey", "explanation", "extra"]).map("\t".join),
    rows(cells("QuestionID", "question", "AnswerKey", "explanation")),
)
question_cells = cells(
    "q1", "q2", " q1", "Stem (A) x (B) y", "(B) y (A) x", "(A)", "A", "B", "Z",
    "f1|CENTRAL", "f1|", "|NEG", "f1", "a|b|c f2|lexical glue", "f1|BACKGROUND f1|NEG",
)
components = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
    st.sampled_from(["1e200", "-1e200", "1e-160", "5e-324", "3.2e150", "1_0", "0x1p3", "zz", "٣",
                     "-0.0", "-0", repr(2.0**499), repr(2.0**500), repr(math.nextafter(2.0**500, 0.0)),
                     repr(math.nextafter(2.0**500, math.inf))]),
)
vector_lines = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "the", "frog", "2", "é"]),
              st.lists(components, max_size=4)).map(lambda t: " ".join([t[0], *t[1]])),
    st.sampled_from(["2 3", "3 2", "0 0", "1 -2", "", "  ", "a\t1 2"]),
)


# one token each: no whitespace, and no "|" in a role
tokens = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda text: text.split() == [text])
role_labels = st.one_of(
    st.sampled_from(["CENTRAL", "central", "Lexical_Glue", "LEXICAL_GLUE", "lexglue", "Lex_Glue",
                     "grounding", "Background", "neg", "ROLEX"]),
    tokens.filter(lambda text: "|" not in text),
)


def outcome(load, data):
    """The loader's result on a file holding data, or None when it raises
    FormatError or DataError, which must name the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        try:
            return load(path)
        except (FormatError, DataError) as exc:
            assert str(path) in str(exc)
            return None


@_settings
@given(header=rows(fact_cells), lines=st.lists(rows(fact_cells), max_size=8),
       ends=st.lists(line_ends, min_size=9, max_size=9), final_newline=st.booleans(),
       damage=damages)
@example("text\tUID", ["f1\tone", "f1\ttwo"], ["\n"] * 9, True, None)
@example("text\t[SKIP] UID", ["a frog\tf1", "x y\tf2"], ["\n"] * 9, False, None)
@example("text\t[SKIP] UID", ["a frog\tf1", "\tf2", "é\t", "x\tf3\tUID"], ["\r\n"] * 9, True, None)
def test_fact_tables(header, lines, ends, final_newline, damage):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(file_bytes([header, *lines], ends, final_newline, damage=damage))
        got = read_outcome(lambda path: load_facts([path]), path)
        expected = read_outcome(lambda path: line_readers.load_facts([path]), path)
    if isinstance(expected[0], type):  # an error: the same class and message
        assert got == expected and str(path) in expected[1]
        return
    (facts, messages), (expected_facts, expected_messages) = got, expected
    assert list(facts.items()) == list(expected_facts.items())
    assert facts.uids == tuple(expected_facts)
    assert facts.texts == tuple(f.text for f in expected_facts.values())
    assert facts.tables == tuple(f.table_name for f in expected_facts.values())
    assert messages == expected_messages
    assert all(uid == fact.uid and uid and fact.text for uid, fact in facts.items())


@_settings
@given(header=question_headers, lines=st.lists(rows(question_cells, 5), max_size=8),
       ends=st.lists(line_ends, min_size=9, max_size=9), final_newline=st.booleans(),
       damage=damages)
@example("QuestionID\tquestion\tAnswerKey\texplanation", ["q1\tStem (A) x\tA\tf1|"],
         ["\n"] * 9, True, None)
def test_question_files(header, lines, ends, final_newline, damage):
    questions = outcome(load_questions, file_bytes([header, *lines], ends, final_newline,
                                                   damage=damage))
    if questions is not None:
        qids = [q.qid for q in questions]
        assert len(set(qids)) == len(qids)


@_settings
@given(lines=st.lists(vector_lines, max_size=8), ends=st.lists(line_ends, min_size=8, max_size=8),
       final_newline=st.booleans(), damage=damages,
       sentences=st.lists(st.lists(st.sampled_from(["a", "b", "the", "frog", "é", "zebra"]),
                                   max_size=4).map(" ".join), min_size=1, max_size=4))
@example(["a 1e200 1e200", "b 1 1"], ["\n"] * 8, True, None, ["a b"])
@example(["a 2.3e150 2.3e150", "b -2.3e150 0"], ["\n"] * 8, True, None, ["a", "b", "a b"])
@example(["a 1e-160 0", "b 0 1e-160", "frog 5e-324 5e-324"], ["\n"] * 8, True, None,
         ["a", "b a", "frog"])
@example(["3 2", "", "a -0.0 1", "b 2 3", "a 4 5", "  "], ["\r\n", "\r", "\n"] * 3, False, None, ["a b"])
@example([f"a {2.0**500!r}", f"b {math.nextafter(2.0**500, math.inf)!r}"], ["\n"] * 8, True, None,
         ["a"])
@example(["a 1 2", "b nan 1"], ["\n"] * 8, True, (3, b"\xff"), ["a"])
def test_word_vectors(lines, ends, final_newline, damage, sentences):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(file_bytes(lines, ends, final_newline, damage=damage))
        got, expected = read_outcome(load_dense, path), read_outcome(line_readers.load_dense, path)
    if isinstance(expected[0], type):  # an error: the same class and message
        assert got == expected and str(path) in expected[1]
        return
    (provider, messages), ((vectors, dim), expected_messages) = got, expected
    assert messages == expected_messages
    assert provider.term_ids == {token: i for i, token in enumerate(vectors)}
    assert provider.dim == dim and provider.table.shape == (len(vectors) + 1, dim)
    assert provider.table[:-1].tobytes() == np.array(list(vectors.values())).tobytes()
    assert provider.table[-1].tobytes() == np.full(dim, -0.0).tobytes()
    rows = provider.rows(sentences)
    with np.errstate(over="raise", invalid="raise"):
        for j in range(len(sentences)):
            assert np.isfinite(rows.cosines(j)).all()


@_settings
@given(golds=st.lists(st.lists(st.tuples(tokens, role_labels), max_size=5), min_size=1, max_size=4))
def test_gold_round_trip_gives_parsed_roles(golds):
    questions = [Question(f"q{i}", "Stem", {"A": "x"}, "A", tuple(gold))
                 for i, gold in enumerate(golds)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "questions.tsv"
        write_questions(questions, path)
        loaded = load_questions(path)
    assert [q.gold for q in loaded] == [
        tuple((uid, parse_role(label)) for uid, label in gold) for gold in golds
    ]


# question texts: clean ones read back as themselves; the others may have
# whitespace at either end or inside, tabs, line breaks or choice markers
clean_texts = st.lists(st.sampled_from(["x", "é", "x y", "(", "A)", "(F)", "|"]), max_size=3).map(" ".join)
pieces = st.sampled_from(["", " ", "\u3000", "\t", "\n", "\r", "(A)", "(B)", "(C)", "(E)"])
any_texts = st.one_of(st.tuples(pieces, pieces, pieces).map(lambda p: f"{p[0]}x{p[1]}x{p[2]}"),
                      st.sampled_from(["", " ", "\t", "(A)"]))


@st.composite
def questions(draw):
    """A question that reads back as itself (clean texts, choice keys A, B,
    ... and uid|ROLE gold), but for at most one field: its text drawn from
    any_texts, or the choice keys drawn from other letters in any order."""
    keys = "ABCDE"[: draw(st.integers(0, 5))]
    damaged = draw(st.sampled_from([None, "keys", "qid", "stem", "answer_key", *keys]))
    if damaged == "keys":
        keys = draw(st.lists(st.sampled_from("ABCDEab"), unique=True, min_size=1, max_size=5))
    texts = {name: draw(any_texts if name == damaged else clean_texts)
             for name in ("qid", "stem", *keys)}
    key = draw(any_texts if damaged == "answer_key" else st.sampled_from([*keys, "Z", ""]))
    gold = draw(st.lists(st.tuples(tokens, role_labels), max_size=3))
    return Question(texts.pop("qid"), texts.pop("stem"), texts, key, tuple(gold))


def read_back(path):
    """load_questions' questions from path, or None when it raises FormatError."""
    try:
        return load_questions(path)
    except FormatError:
        return None


@_settings
@given(question=questions())
@example(Question("q1", "Stem", {"B": "y", "A": "x"}, "B", (("u1", "central"),)))
@example(Question("q1", "", {"A": ""}, "", ()))
@example(Question("", "", {}, "", ()))
def test_question_reads_back_as_itself_or_is_refused(question):
    expected = replace(question, gold=tuple((uid, parse_role(role)) for uid, role in question.gold))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "questions.tsv"
        try:
            write_questions([question], path)
        except ValueError as exc:
            assert str(exc).startswith(f"question {question.qid}: ") and not path.exists()
            with mock.patch("explainrank.corpus._unreadable", return_value=None):
                write_questions([question], path)
            assert read_back(path) != [expected]
            return
        assert read_back(path) == [expected]


@_settings
@given(raw=st.one_of(role_labels, st.text()))
def test_parse_role_is_idempotent(raw):
    """read_dataset parses the labels write_dataset wrote, so a dataset's
    roles column reads back unchanged."""
    assert parse_role(parse_role(raw)) == parse_role(raw)
