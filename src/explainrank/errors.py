"""Exception types shared across the pipeline, and the UTF-8 readers that
turn an undecodable input into a located FormatError."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class FormatError(PipelineError):
    """An input file is malformed (bad header, bad field, bad dimension)."""


class DataError(PipelineError):
    """Inputs are well-formed but violate a content contract."""


def read_utf8(path: str | Path) -> str:
    """The whole file as text; invalid UTF-8 is a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _decode_error(path) from None


def utf8_lines(path: str | Path) -> Iterator[str]:
    """The file's lines, newline kept; invalid UTF-8 is a FormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise _decode_error(path) from None


def _decode_error(path: str | Path) -> FormatError:
    """A FormatError naming the first line that is not valid UTF-8. The file
    is decoded again line by line: a text stream decodes ahead of the line
    it returns, so its error does not say which line failed."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return FormatError(
                    f"{path} line {lineno}: not valid UTF-8 (byte {exc.start + 1}: {exc.reason})"
                )
    return FormatError(f"{path}: not valid UTF-8")
