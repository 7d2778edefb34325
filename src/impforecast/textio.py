"""Whole-file text reads and writes that fail with ``DataInputError``, and
the one decode step of the document parsers.

Files are UTF-8. Reads keep line endings as they are; writes use LF.
"""

from __future__ import annotations

from .errors import DataInputError, EncodingError


def decode(text: str | bytes) -> str:
    """``text``, or UTF-8 ``bytes`` decoded, without one leading byte-order
    mark (U+FEFF), as spreadsheet exports write. Raises EncodingError for
    bytes that are not UTF-8."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"text is not UTF-8: {exc}") from None
    return text.removeprefix("\ufeff")


def read_text(path) -> str:
    """The file's text, line endings as they are, so a stray carriage
    return reaches the CSV parser as the file holds it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataInputError(f"cannot read {path}: {exc}") from None


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataInputError(f"cannot write {path}: {exc}") from None
