"""Per-line fact-table, scores, predictions and word-vector readers: the
reference the column reader in explainrank.corpus, the block readers in
explainrank.scorer and explainrank.evaluation, and the one-table loader in
explainrank.textsim are tested against.

These read one line per Python iteration, keep every check in file order,
and log under the same logger names as the package readers. Each line is
decoded on its own, from the file's bytes.
"""

from __future__ import annotations

import codecs
import logging
import math
from array import array
from pathlib import Path
from typing import Iterator

import numpy as np

from explainrank.corpus import Corpus, ExplanationFact
from explainrank.errors import DataError, FormatError
from explainrank.scorer import RelevanceTable
from explainrank.textsim import MAX_NORM

corpus_log = logging.getLogger("explainrank.corpus")
scorer_log = logging.getLogger("explainrank.scorer")
textsim_log = logging.getLogger("explainrank.textsim")


def decoded_lines(path) -> Iterator[str]:
    """The file's lines without their ends, one at a time. A line ends at
    LF, CRLF or CR, and a leading byte-order mark is dropped. A line that is
    not valid UTF-8, decoded with its own line end, is a FormatError naming
    it and its first bad byte."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            yield raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path} line {lineno}: not valid UTF-8 (byte {exc.start + 1}: {exc.reason})"
            ) from None


def load_facts(paths) -> dict[str, ExplanationFact]:
    facts: dict[str, ExplanationFact] = {}
    for path in map(Path, paths):
        lines = list(decoded_lines(path))
        if not lines:
            raise FormatError(f"{path}: empty fact table")
        headers = lines[0].split("\t")
        uid_cols = [i for i, h in enumerate(headers) if "UID" in h]
        if len(uid_cols) != 1:
            raise FormatError(
                f"{path}: expected exactly one header containing 'UID', found {len(uid_cols)}"
            )
        content_cols = [i for i, h in enumerate(headers) if "SKIP" not in h]
        no_uid, no_text, wide = [], [], []
        for lineno, row in enumerate(lines[1:], start=2):
            if not row.strip():
                continue
            cells = row.split("\t")
            if any(cell.strip() for cell in cells[len(headers) :]):
                wide.append(lineno)
            cells += [""] * (len(headers) - len(cells))
            uid = cells[uid_cols[0]].strip()
            text = " ".join(word for i in content_cols for word in cells[i].split())
            if not uid:
                no_uid.append(lineno)
            elif not text:
                no_text.append(lineno)
            elif uid in facts:
                raise FormatError(
                    f"{path} line {lineno}: duplicate fact uid {uid!r}, "
                    f"also in table {facts[uid].table_name!r}"
                )
            else:
                facts[uid] = ExplanationFact(uid, text, path.stem)
        if no_uid:
            corpus_log.warning("%s: %d row(s) without a uid, first at line %d; skipped",
                               path, len(no_uid), no_uid[0])
        if no_text:
            corpus_log.warning("%s: %d fact(s) with no text, first at line %d; skipped",
                               path, len(no_text), no_text[0])
        if wide:
            corpus_log.warning("%s: %d row(s) with cells past the header's %d columns, first at "
                               "line %d; those cells ignored", path, len(wide), len(headers), wide[0])
    return facts


def load_scores(path: str | Path, corpus: Corpus) -> RelevanceTable:
    path = Path(path)
    uids = tuple(corpus.facts)
    column = {uid: j for j, uid in enumerate(uids)}
    row = {q.qid: i for i, q in enumerate(corpus.questions)}
    cells, values = array("q"), array("d")
    unknown_uids: dict[str, int] = {}
    unknown_qids: set[str] = set()
    for lineno, line in enumerate(decoded_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{path} line {lineno}: expected qid<TAB>fact_uid<TAB>score")
        qid, uid, score_text = fields
        try:
            score = float(score_text)
        except ValueError:
            raise FormatError(
                f"{path} line {lineno}: unparseable score {score_text!r}"
            ) from None
        if not math.isfinite(score):
            raise FormatError(f"{path} line {lineno}: non-finite score {score_text!r}")
        if uid not in column:
            unknown_uids.setdefault(uid, lineno)
            continue
        if qid not in row:
            unknown_qids.add(qid)
            continue
        cells.append(row[qid] * len(uids) + column[uid])
        values.append(score)
    if unknown_uids:
        shown = sorted(unknown_uids.items(), key=lambda item: item[1])[:10]
        listing = ", ".join(f"{uid!r} (line {ln})" for uid, ln in shown)
        more = "" if len(unknown_uids) <= 10 else f" and {len(unknown_uids) - 10} more"
        raise DataError(f"{path}: {len(unknown_uids)} unknown fact uid(s): {listing}{more}")
    kept, last = np.unique(np.frombuffer(cells, dtype=np.int64)[::-1], return_index=True)
    duplicates = len(cells) - len(kept)
    if duplicates:
        scorer_log.warning("%s: %d duplicate (qid, fact) pair(s), last value kept", path, duplicates)
    if unknown_qids:
        scorer_log.warning("%s: %d qid(s) not in the corpus, dropped", path, len(unknown_qids))

    scores = np.full(len(corpus.questions) * len(uids), np.nan)
    scores[kept] = np.frombuffer(values)[::-1][last]
    scores = scores.reshape(len(corpus.questions), len(uids))
    covered = ~np.isnan(scores).all(axis=1)
    qids = tuple(q.qid for q, ok in zip(corpus.questions, covered) if ok)
    missing = np.isnan(scores[covered])
    scores = np.where(missing, np.nanmin(scores[covered], axis=1, keepdims=True) - 1.0, scores[covered])
    if len(qids) < len(row):
        scorer_log.warning("%s: scores cover %d of %d questions", path, len(qids), len(row))
    if missing.any():
        scorer_log.warning("%s: %d missing (qid, fact) pair(s) filled to rank last", path, missing.sum())
    return RelevanceTable(qids, uids, scores)


def read_predictions(path: str | Path) -> dict[str, list[str]]:
    path = Path(path)
    ranked: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for lineno, line in enumerate(decoded_lines(path), start=1):
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


def load_dense(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Each token's vector, in the order tokens first occur, and the dimension."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    count: int | None = None
    repeats, first_repeat = 0, None
    for lineno, line in enumerate(decoded_lines(path), start=1):
        fields = line.split()
        if not fields:
            continue
        if lineno == 1 and len(fields) == 2:
            try:
                count, dim = map(int, fields)
                continue
            except ValueError:
                pass
        token, *rest = fields
        try:
            values = [float(x) for x in rest]
        except ValueError:
            raise FormatError(f"{path} line {lineno}: non-numeric vector component") from None
        if not math.hypot(*values) <= MAX_NORM:  # nan for a nan component
            if all(map(math.isfinite, values)):
                raise FormatError(f"{path} line {lineno}: vector norm above 2**500")
            raise FormatError(f"{path} line {lineno}: non-finite vector component")
        if dim is None:
            dim = len(values)
        if dim <= 0 or len(values) != dim:
            raise FormatError(
                f"{path} line {lineno}: expected {dim} components, found {len(values)}"
            )
        if token in vectors:
            repeats += 1
            first_repeat = first_repeat or lineno
        vectors[token] = np.asarray(values, dtype=float)
    if dim is None or not vectors:
        raise FormatError(f"{path}: no word vectors found")
    if repeats:
        textsim_log.warning(
            "%s: %d repeated token(s), first at line %d, last vector kept", path, repeats, first_repeat
        )
    if count is not None and count != len(vectors) + repeats:
        textsim_log.warning(
            "%s line 1: the header counts %d vector(s), %d read", path, count, len(vectors) + repeats
        )
    return vectors, dim
