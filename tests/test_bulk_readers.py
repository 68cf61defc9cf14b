"""The block readers of scores and predictions files against the per-line
reference readers in line_readers.py, and the writers' round trips, datasets
included.

Generated files mix CRLF, CR and LF line ends, blank and whitespace-only
lines, a qid's lines out of order, repeated pairs, unknown qids and uids,
bad and non-finite scores, wrong field counts and non-ASCII text. Some are
padded with up to 13 KB of blank lines, so that a faulty line and a later
one fall far apart, and some carry bytes that are not valid UTF-8, which
the reference readers find by decoding each line on its own. The block
size is mostly set small enough that every file spans several blocks.
"""

import logging
import math
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import line_readers
from explainrank import dataprep, errors
from explainrank.corpus import Question
from explainrank.dataprep import CONTEXT_SEPARATOR, Dataset, read_dataset, write_dataset
from explainrank.errors import PipelineError
from explainrank.evaluation import read_predictions, write_predictions
from explainrank.scorer import RelevanceTable, load_scores, write_scores
from synth import corpus_of

QIDS = ["q1", "q2", "ø3"]
UIDS = ["f1", "f2", "é3", "f\u20284", "f 5", "f\x0c6\x1c"]
CORPUS = corpus_of(
    {uid: f"fact {i}" for i, uid in enumerate(UIDS)},
    [Question(qid, "stem", {"A": "a"}, "A", ()) for qid in QIDS],
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
# a qid that would lose its first character as the file's first
marked_qid = st.just("\ufeffq")


@settings(max_examples=100, deadline=None)
@given(
    qids=st.lists(clean_ids.filter(str.strip) | marked_qid, min_size=1, max_size=4, unique=True),
    uids=st.lists(clean_ids.filter(str.strip), min_size=1, max_size=6, unique=True),
    data=st.data(),
    chars=block_chars,
)
def test_scores_round_trip(qids, uids, data, chars):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(qids) * len(uids), max_size=len(qids) * len(uids)))
    table = RelevanceTable(tuple(qids), tuple(uids), np.array(values).reshape(len(qids), len(uids)))
    questions = [Question(qid, "stem", {"A": "a"}, "A", ()) for qid in qids]
    corpus = corpus_of(dict.fromkeys(uids, "text"), questions)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path = Path(tmp) / "scores.tsv"
        if qids[0].startswith("\ufeff"):
            with pytest.raises(ValueError, match="starts with a byte-order mark"):
                write_scores(table, path)
            assert not path.exists()
            return
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


# empty, or spaces, form feeds and other whitespace only
blank_ids = st.text(st.sampled_from(" \x0b\x0c\x1c\x85\u2028\u3000"), max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    qids=st.lists(clean_ids.filter(str.strip) | blank_ids | marked_qid, min_size=1, max_size=4, unique=True),
    uids=st.lists(clean_ids.filter(str.strip) | blank_ids, min_size=1, max_size=8, unique=True),
    top_m=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    data=st.data(),
    chars=block_chars,
)
def test_predictions_round_trip(qids, uids, top_m, data, chars):
    """read(write(rankings)) is rankings, or, when a line would read as
    blank or the first line starts with a byte-order mark, write refuses
    the rankings before it opens the file."""
    rankings = {qid: data.draw(st.permutations(uids)) for qid in qids}
    lines = [f"{qid}\t{uid}\n" for qid, ranked in rankings.items() for uid in ranked[:top_m]]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "_BLOCK_CHARS", chars)
        path, again = Path(tmp) / "predictions.tsv", Path(tmp) / "again.tsv"
        if lines[0].startswith("\ufeff"):
            with pytest.raises(ValueError, match="starts with a byte-order mark"):
                write_predictions(rankings, path, top_m)
            assert not path.exists()
            return
        if not all(map(str.strip, lines)):
            with pytest.raises(ValueError, match="keeps a blank uid"):
                write_predictions(rankings, path, top_m)
            assert not path.exists()
            return
        write_predictions(rankings, path, top_m)
        written = path.read_bytes()
        back = read_predictions(path)
        write_predictions(back, again)
        rewritten = again.read_bytes()
    assert written == "".join(lines).encode("utf-8")
    assert list(back.items()) == [(qid, ranked[:top_m]) for qid, ranked in rankings.items()]
    assert rewritten == written


def reference_write_scores(table, path):
    """One repr per cell, one line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, row in zip(table.qids, table.scores):
            for uid, score in zip(table.uids, row.tolist()):
                fh.write(f"{qid}\t{uid}\t{score!r}\n")


def _bits(*values):
    return [int(v) for v in np.array(values).view(np.int64)]


# signed zeros, NaNs with payloads and both signs, ±inf, subnormals, and
# neighbours that repr tells apart
SPECIAL_BITS = [
    *_bits(0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           1.0, np.nextafter(1.0, 2.0), 0.1),
    0x7FF0000000000001, 0x7FF8000000000123, -0x0007FFFFFFFFFFFF, -1,
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4),
    columns=st.integers(1, 12),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(-(2**63), 2**63 - 1)),
                  min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=48, max_size=48),
)
@example(rows=3, columns=5, pool=_bits(-0.0), picks=[0] * 48)  # all-equal rows
@example(rows=2, columns=1, pool=SPECIAL_BITS, picks=list(range(48)))  # a one-fact table
def test_write_scores_matches_per_cell_repr(rows, columns, pool, picks):
    bits = [pool[i % len(pool)] for i in picks[: rows * columns]]
    scores = np.array(bits, dtype=np.int64).view(np.float64).reshape(rows, columns)
    table = RelevanceTable(tuple(f"q{i}" for i in range(rows)),
                           tuple(f"f{j}" for j in range(columns)), scores)
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "scores.tsv", Path(tmp) / "reference.tsv"
        write_scores(table, path)
        reference_write_scores(table, reference)
        assert path.read_bytes() == reference.read_bytes()


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


# other line separators, the context separator and its pieces; then tabs and line breaks
clean_texts = st.one_of(
    st.text(st.sampled_from(list("aé [SEP]\u2028\x85\x0c")), max_size=8),
    st.sampled_from(["", "plain", CONTEXT_SEPARATOR, f"a{CONTEXT_SEPARATOR}b", "x [SEP]", "[SEP] y"]),
)
cell_texts = clean_texts | st.text(st.sampled_from(list("a\t\r\n")), min_size=1, max_size=3)
role_cells = st.sampled_from(
    [None, "", " ", "CENTRAL", "central", "lexical glue", "lexical_glue", "Lexical Glue", "odd role", "r\t1", "r\n"]
)
label_cells = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1, True, np.float64(1.0), np.float64(0.25),
                     np.float32(0.1), 2**53 + 1, 10**400, "1.0", 0.1 + 0.2]),
    st.floats(), st.floats(allow_nan=False).map(np.float64), st.integers(-(2**60), 2**60),
)
clean_rows = st.tuples(
    st.sampled_from(["q1", "q 2", ""]), clean_texts,
    st.lists(clean_texts, max_size=3).map(tuple).filter(lambda context: context != ("",)), clean_texts,
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1]),
    st.sampled_from([None, "CENTRAL", "LEXGLUE", "odd role", " "]),
)
# one cell of any kind in place of a clean one: (column, row, value)
any_cells = (cell_texts, cell_texts, st.lists(cell_texts, max_size=3).map(tuple), cell_texts, label_cells, role_cells)
dataset_damages = st.one_of(
    st.none(), *(st.tuples(st.just(c), st.integers(0, 99), cells) for c, cells in enumerate(any_cells))
)


def plain_bytes(data):
    """The header and one line per row, each cell as it is and each label's
    repr: what write_dataset writes when it writes."""
    lines = ["\t".join(dataprep._COLUMNS)] + [
        "\t".join([qid, qa, CONTEXT_SEPARATOR.join(context), candidate, repr(label), role or ""])
        for qid, qa, context, candidate, label, role in zip(*vars(data).values())
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def reads_back(data, path):
    path.write_bytes(plain_bytes(data))
    try:
        return read_dataset(path) == data
    except PipelineError:
        return False


def may_split(fact):
    return CONTEXT_SEPARATOR in fact or fact.endswith(CONTEXT_SEPARATOR[:-1])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(clean_rows, max_size=10), damage=dataset_damages,
       block=st.integers(1, 4) | st.just(dataprep._BLOCK_ROWS))
@example(rows=[("q1", "qt", ("x [SEP]", "y"), "c", 1.0, "CENTRAL")], damage=None, block=1)
@example(rows=[("q1", "qt", ("a [SEP] b",), "c", 1.0, None)] * 3, damage=(0, 1, "q\r"), block=2)
# each refusal: a text with a tab or a line break, a role read back changed,
# a context of one empty fact, and labels that read back changed
@example(rows=[("q1", "qt", ("f",), "c", 1.0, None)] * 3, damage=(2, 2, ("f", "a\nb")), block=2)
@example(rows=[("q1", "qt", (), "c", 1.0, None)] * 2, damage=(5, 1, "r\t1"), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)], damage=(5, 0, ""), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)], damage=(5, 0, "lexical glue"), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)], damage=(2, 0, ("",)), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)], damage=(4, 0, math.nan), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)], damage=(4, 0, 2**53 + 1), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)] * 2, damage=(4, 1, True), block=1)
@example(rows=[("q1", "qt", (), "c", 1.0, None)] * 2, damage=(4, 1, np.float64(1.0)), block=1)
def test_dataset_round_trip(rows, damage, block):
    """write_dataset writes the plain bytes, and warns once about each context
    fact that may split at the separator; with the separators taken out of
    those facts, the plain bytes read back as the dataset. Or it refuses the
    dataset with a ValueError before the file opens, and then the plain bytes
    would not read back even with the separators taken out."""
    if rows and damage:
        column, row, value = damage
        rows[row % len(rows)] = (*rows[row % len(rows)][:column], value, *rows[row % len(rows)][column + 1 :])
    data = Dataset(*map(list, zip(*rows))) if rows else Dataset()
    splitting = {fact for context in data.contexts for fact in context if may_split(fact)}
    unsplit = Dataset(**vars(data))
    unsplit.contexts = [tuple(fact.replace("[SEP]", "<SEP>") for fact in context) for context in data.contexts]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataprep, "_BLOCK_ROWS", block)
        path, plain = Path(tmp) / "d.tsv", Path(tmp) / "plain.tsv"
        with captured_warnings() as messages:
            try:
                write_dataset(data, path)
            except ValueError as exc:
                assert not path.exists()
                assert str(exc).split(" ")[0] in dataprep._COLUMNS
                assert not messages
                assert not reads_back(unsplit, plain)
                return
        assert path.read_bytes() == plain_bytes(data)
        assert len(messages) == len(splitting)
        assert reads_back(unsplit, plain)
        assert splitting or reads_back(data, plain)
