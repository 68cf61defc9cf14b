"""The block readers of scores and predictions files against the per-line
reference readers in line_readers.py, and the writers' round trips.

Generated files mix CRLF, CR and LF line ends, blank and whitespace-only
lines, a qid's lines out of order, repeated pairs, unknown qids and uids,
bad and non-finite scores, wrong field counts and non-ASCII text. Some are
padded with blank lines past the 8 KB a text stream decodes at a time and
carry bytes that are not valid UTF-8. The block size is mostly set small
enough that every file spans several blocks.
"""

import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import line_readers
from explainrank import errors
from explainrank.corpus import Corpus, ExplanationFact, Question
from explainrank.errors import PipelineError
from explainrank.evaluation import read_predictions, write_predictions
from explainrank.scorer import RelevanceTable, load_scores, write_scores

QIDS = ["q1", "q2", "ø3"]
UIDS = ["f1", "f2", "é3", "f\u20284", "f 5", "f\x0c6\x1c"]
CORPUS = Corpus(
    facts={uid: ExplanationFact(uid, f"fact {i}", "t") for i, uid in enumerate(UIDS)},
    questions=tuple(Question(qid, "stem", {"A": "a"}, "A", ()) for qid in QIDS),
)

qid_texts = st.sampled_from(QIDS + ["q9", "", " q1"])
uid_texts = st.sampled_from(UIDS + ["ghost", "f1 ", "\u2028"])
score_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "abc", "", " 2.5 ", "1_0", "٣", "0x1p3"]),
)
blank_lines = st.sampled_from(["", " ", "\t", "\t\t", "\u2028", " \x0c ", "\x1c"])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
block_chars = st.one_of(st.integers(min_value=1, max_value=48), st.just(errors._BLOCK_CHARS))
# blank 100-byte lines inserted before the given line, up to about 13 KB
fillers = st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=130))
# bytes that are not valid UTF-8, inserted at an offset taken modulo the file size
damages = st.one_of(
    st.none(), st.tuples(st.integers(min_value=0), st.sampled_from([b"\xff", b"\xe2\x80", b"\xc3("]))
)


def wrong_count(n_fields):
    cells = st.sampled_from(["q1", "f1", "0.5", "x", ""])
    sizes = st.integers(min_value=1, max_value=5).filter(lambda k: k != n_fields)
    return sizes.flatmap(lambda k: st.lists(cells, min_size=k, max_size=k)).map("\t".join)


score_lines = st.one_of(
    st.tuples(qid_texts, uid_texts, score_texts).map("\t".join),
    st.tuples(st.sampled_from(QIDS), st.sampled_from(UIDS), score_texts).map("\t".join),
    blank_lines,
    wrong_count(3),
)
prediction_lines = st.one_of(
    st.tuples(qid_texts, uid_texts).map("\t".join),
    st.tuples(st.sampled_from(QIDS), st.sampled_from(UIDS)).map("\t".join),
    blank_lines,
    wrong_count(2),
)


def file_bytes(lines, ends, final_newline, filler=(0, 0), damage=None):
    texts = [line + end for line, end in zip(lines, ends)]
    if not final_newline and lines:
        texts[-1] = lines[-1]
    at, count = filler
    texts[at:at] = [" " * 99 + "\n"] * count
    data = "".join(texts).encode("utf-8")
    if damage is not None:
        offset, bad = damage
        offset %= len(data) + 1
        data = data[:offset] + bad + data[offset:]
    return data


@contextmanager
def captured_warnings():
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("explainrank")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def outcome(read, path):
    """What a reader returns and logs, or the error it raises."""
    with captured_warnings() as messages:
        try:
            result = read(path)
        except PipelineError as exc:
            return type(exc), str(exc)
    return result, messages


def same_table(a, b):
    """Equal ids and bit-equal scores: -0.0 is not 0.0."""
    return (
        a.qids == b.qids
        and a.uids == b.uids
        and (a.scores.dtype, a.scores.shape) == (b.scores.dtype, b.scores.shape)
        and a.scores.tobytes() == b.scores.tobytes()
    )


_settings = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(lines=st.lists(score_lines, max_size=40), ends=st.lists(line_ends, min_size=40, max_size=40),
       final_newline=st.booleans(), chars=block_chars, filler=fillers, damage=damages)
@example(["q1\tf1\t1.0", "q1\tf1", "q2\tf1\tnan"], ["\n"] * 40, True, 4, (0, 0), None)
@example(["q1\tf1\tx", "q1\tghost\t1"], ["\r\n"] * 40, False, 3, (0, 0), None)
@example(["q1\tghost\t1", "q2\tghost\t2", "q1\tf1 \t3"], ["\n"] * 40, True, 48, (0, 0), None)
@example(["q1\tghost\t1", "q1\tf1\t2", "q1\tghost\t3"], ["\n"] * 40, True, 4, (0, 0), None)
@example(["q1\tf1\t1.0", "q1\tf1"], ["\n"] * 40, True, 1 << 14, (2, 100), (10_000, b"\xff"))
# at the default block size: a repeated pair out of order inside one block,
# a -0.0 score, and a row missing one fact whose minimum is -0.0
@example(["q1\tf2\t1.0", "q1\tf1\t2.0", "q1\tf2\t3.0"], ["\n"] * 40, True, errors._BLOCK_CHARS, (0, 0), None)
@example(["q1\tf1\t-0.0", "q2\tf2\t0.5"], ["\n"] * 40, True, errors._BLOCK_CHARS, (0, 0), None)
@example([f"q2\t{uid}\t{score}" for uid, score in zip(UIDS[1:], ["0.5", "-0.0", "1.0", "2.5", "3.0"])],
         ["\n"] * 40, True, errors._BLOCK_CHARS, (0, 0), None)
def test_load_scores_matches_per_line_reader(lines, ends, final_newline, chars, filler, damage):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path = Path(tmp) / "scores.tsv"
        path.write_bytes(file_bytes(lines, ends, final_newline, filler, damage))
        got = outcome(lambda p: load_scores(p, CORPUS), path)
        want = outcome(lambda p: line_readers.load_scores(p, CORPUS), path)
    if isinstance(want[0], RelevanceTable):
        assert isinstance(got[0], RelevanceTable), got
        assert same_table(got[0], want[0])
        assert got[1] == want[1]
    else:
        assert got == want


@_settings
@given(lines=st.lists(prediction_lines, max_size=40), ends=st.lists(line_ends, min_size=40, max_size=40),
       final_newline=st.booleans(), chars=block_chars, filler=fillers, damage=damages)
@example(["q1\tf1", "q2\tf1", "q1\tf1", "q1"], ["\n"] * 40, True, 5, (0, 0), None)
@example(["q1\tf1", "q1", "q1\tf1"], ["\n"] * 40, True, 5, (0, 0), None)
@example(["q1\tf1", "q1\tf1"], ["\n"] * 40, True, 1 << 14, (2, 100), (10_000, b"\xff"))
def test_read_predictions_matches_per_line_reader(lines, ends, final_newline, chars, filler, damage):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path = Path(tmp) / "predictions.tsv"
        path.write_bytes(file_bytes(lines, ends, final_newline, filler, damage))
        got = outcome(read_predictions, path)
        want = outcome(line_readers.read_predictions, path)
    if isinstance(want[0], dict):
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]
    else:
        assert got == want


clean_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=6
)


@settings(max_examples=100, deadline=None)
@given(
    qids=st.lists(clean_ids.filter(str.strip), min_size=1, max_size=4, unique=True),
    uids=st.lists(clean_ids.filter(str.strip), min_size=1, max_size=6, unique=True),
    data=st.data(),
    chars=block_chars,
)
def test_scores_round_trip(qids, uids, data, chars):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(qids) * len(uids), max_size=len(qids) * len(uids)))
    table = RelevanceTable(tuple(qids), tuple(uids), np.array(values).reshape(len(qids), len(uids)))
    corpus = Corpus(
        facts={uid: ExplanationFact(uid, "text", "t") for uid in uids},
        questions=tuple(Question(qid, "stem", {"A": "a"}, "A", ()) for qid in qids),
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path = Path(tmp) / "scores.tsv"
        write_scores(table, path)
        written = path.read_bytes()
        back = load_scores(path, corpus)
    expected = "".join(
        f"{qid}\t{uid}\t{score!r}\n"
        for qid, row in zip(qids, table.scores)
        for uid, score in zip(uids, row.tolist())
    )
    assert written == expected.encode("utf-8")
    assert same_table(back, table)


@settings(max_examples=100, deadline=None)
@given(
    qids=st.lists(clean_ids.filter(str.strip), min_size=1, max_size=4, unique=True),
    uids=st.lists(clean_ids.filter(str.strip), min_size=1, max_size=8, unique=True),
    top_m=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    data=st.data(),
    chars=block_chars,
)
def test_predictions_round_trip(qids, uids, top_m, data, chars):
    rankings = {qid: data.draw(st.permutations(uids)) for qid in qids}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path, again = Path(tmp) / "predictions.tsv", Path(tmp) / "again.tsv"
        write_predictions(rankings, path, top_m)
        written = path.read_bytes()
        back = read_predictions(path)
        write_predictions(back, again)
        rewritten = again.read_bytes()
    expected = "".join(f"{qid}\t{uid}\n" for qid, ranked in rankings.items() for uid in ranked[:top_m])
    assert written == expected.encode("utf-8")
    assert list(back.items()) == [(qid, ranked[:top_m]) for qid, ranked in rankings.items()]
    assert rewritten == written


def test_equal_uids_share_one_string(tmp_path):
    path = tmp_path / "predictions.tsv"
    path.write_text("q1\tf1\nq1\tf2\nq2\tf2\nq2\tf1\n", encoding="utf-8")
    ranked = read_predictions(path)
    assert ranked["q1"][0] is ranked["q2"][1]
    assert ranked["q1"][1] is ranked["q2"][0]


def test_empty_table_writes_nothing(tmp_path):
    path = tmp_path / "scores.tsv"
    write_scores(RelevanceTable(("q1",), (), np.zeros((1, 0))), path)
    assert path.read_bytes() == b""
