"""Whole-file text reads and writes that fail with ``DataInputError``.

Files are UTF-8; writes use LF line endings.
"""

from __future__ import annotations

from .errors import DataInputError


def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataInputError(f"cannot read {path}: {exc}") from None


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataInputError(f"cannot write {path}: {exc}") from None
