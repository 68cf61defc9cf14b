"""Exception types shared across the pipeline, and the UTF-8 block reader
that every input reader builds on.

Each input is decoded once, a block of whole lines at a time. A line ends
at "\n", "\r\n" or "\r": text mode turns the last two into "\n", and lines
are split at "\n" only, since str.splitlines would also break them at
U+2028, U+0085, form feeds and other separators that a cell may hold. A
leading byte-order mark is dropped. A byte that is not valid UTF-8 is a
FormatError naming its line, counted the same way, and its byte in that
line (the line's own bytes, after the byte-order mark). The lines before it
are handed on first, so a reader that checks lines in file order raises the
first faulty line's error.
"""

from __future__ import annotations

import operator
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

# characters a block reader takes from a file at a time: larger blocks leave
# more freed memory behind (32 K raised the peak of `rerank` by 0.3 MB),
# smaller ones pay the per-block calls more often
_BLOCK_CHARS = 1 << 14

_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class FormatError(PipelineError):
    """An input file is malformed (bad header, bad field, bad dimension)."""


class DataError(PipelineError):
    """Inputs are well-formed but violate a content contract."""


def split_cell(what: str, cells: Iterable[str]) -> str | None:
    """Why a TSV reader would not read one of cells back as one cell: the
    first that holds a tab, CR or LF, named as what. None if none does."""
    bad = next((cell for cell in cells if "\t" in cell or "\n" in cell or "\r" in cell), None)
    return None if bad is None else f"{what} {bad!r} holds a tab or a line break"


def utf8_blocks(path: str | Path) -> Iterator[tuple[int, str]]:
    """The file a block of whole lines at a time, each block with the number
    of its first line. Every line ends in "\n", a last line without one
    too. A byte that is not valid UTF-8 is a FormatError naming its line and
    its byte in that line, raised after the lines before it are yielded."""
    lineno = 1
    for text in _whole_lines(path):
        # the usual block is ASCII; otherwise a strict encode stops at the
        # first lone surrogate, which is where the first bad byte was
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                start = text.rfind("\n", 0, exc.start) + 1  # the bad byte's line
                if start:
                    yield lineno, text[:start]
                    lineno += text.count("\n", 0, start)
                line = text[start : text.find("\n", exc.start) + 1 or None]
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise FormatError(
                        f"{path} line {lineno}: not valid UTF-8 (byte {bad.start + 1}: {bad.reason})"
                    ) from None
        yield lineno, text if text.endswith("\n") else text + "\n"
        lineno += text.count("\n")


def _whole_lines(path: str | Path) -> Iterator[str]:
    """The file's text, decoded once, a block of whole lines at a time; a
    byte that is not valid UTF-8 becomes a lone surrogate. Only the last
    block may lack a final "\n"."""
    pending = []
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        while chunk := fh.read(_BLOCK_CHARS):
            cut = chunk.rfind("\n") + 1
            if not cut:
                pending.append(chunk)
                continue
            yield "".join((*pending, chunk[:cut]))
            pending = [chunk[cut:]]
    if tail := "".join(pending):
        yield tail


def tsv_fields(text: str, n_fields: int) -> list[str] | None:
    """Every field of text's lines, line after line, from one split, when
    each line (every one ends in "\n") has exactly n_fields fields; None
    when any line has another count."""
    # the text's tabs and newlines in order: every line has its fields when
    # they are line_end repeated
    line_end = b"\t" * (n_fields - 1) + b"\n"
    seps = text.encode("utf-8").translate(None, _NOT_SEPARATORS)
    n_lines = seps.count(b"\n")
    if len(seps) != len(line_end) * n_lines or seps.count(line_end) != n_lines:
        return None
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()
    return fields


class TsvBlock(NamedTuple):
    """A block of a headerless TSV file's non-blank lines."""

    linenos: np.ndarray  # each line's number in the file
    columns: list[list[str]]  # the lines' fields, one list per column
    runs: list[int]  # where each run of equal first fields starts, then the line count
    wrong_line: int | None  # first line with another field count; the file ends before it


def tsv_blocks(path: str | Path, n_fields: int) -> Iterator[TsvBlock]:
    """A headerless TSV file read a block at a time. Blank lines (empty or
    all whitespace) are skipped. The first non-blank line without exactly
    n_fields fields ends the reading: its block stops before it and names
    it in wrong_line."""
    for first, text in utf8_blocks(path):
        fields = tsv_fields(text, n_fields)
        if fields is not None:
            # the usual block: a line can be blank only where the first
            # field of its run is
            block = _block(first + np.arange(len(fields) // n_fields), fields, n_fields, None)
            run_keys = map(block.columns[0].__getitem__, block.runs[:-1])
            if all(map(str.strip, run_keys)):
                yield block
                continue
        # blank lines or a wrong field count: find them line by line
        lines = text.split("\n")
        lines.pop()
        seps = text.encode("utf-8").translate(None, _NOT_SEPARATORS)
        tabs = np.diff(np.flatnonzero(np.frombuffer(seps, np.uint8) == 10), prepend=-1) - 1
        filled = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
        wrong = np.flatnonzero(filled & (tabs != n_fields - 1))
        end = int(wrong[0]) if len(wrong) else len(lines)
        keep = np.flatnonzero(filled[:end])
        fields = "\t".join(map(lines.__getitem__, keep.tolist())).split("\t") if len(keep) else []
        yield _block(first + keep, fields, n_fields, first + end if len(wrong) else None)
        if len(wrong):
            return


def _block(
    linenos: np.ndarray, fields: list[str], n_fields: int, wrong_line: int | None
) -> TsvBlock:
    columns = [fields[i::n_fields] for i in range(n_fields)]
    keys = columns[0]
    if keys and keys.count(keys[0]) == len(keys):
        starts = [0]  # the usual block: lines of one question
    else:
        changes = np.fromiter(map(operator.ne, keys, chain((None,), keys)), bool, len(keys))
        starts = np.flatnonzero(changes).tolist()
    return TsvBlock(linenos, columns, [*starts, len(keys)], wrong_line)
