"""Whole-file text reads and writes that fail with ``DataInputError``, the
document parsers' one decode step, and the report's and bundle's JSON form.

Files are UTF-8. Reads keep line endings as they are; writes use LF.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat

from .checks import is_count
from .errors import DataInputError, EncodingError, IncompatibleBundleError


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


def _finite_number(token: str) -> float:
    """Parse hook for number tokens and NaN/Infinity: a finite float, else ValueError."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def load_json(text: str | bytes, what: str, version: int) -> dict:
    """``text`` (see ``decode``) parsed as strict JSON, then ``check_version``.
    Bad syntax, NaN, Infinity, 1e999, an integer literal over Python's digit
    limit and deep nesting raise IncompatibleBundleError "<what> is not valid JSON"."""
    try:
        doc = json.loads(decode(text), parse_float=_finite_number, parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise IncompatibleBundleError(f"{what} is not valid JSON: {exc}") from None
    return check_version(doc, what, version)


def check_version(doc, what: str, version: int) -> dict:
    """``doc``, if it is a JSON object whose ``format_version`` is the integer
    ``version`` (not ``true``, not ``1.0``); else IncompatibleBundleError."""
    if not isinstance(doc, dict):
        raise IncompatibleBundleError(f"{what} must be a JSON object")
    found = doc.get("format_version")
    if not (is_count(found) and found == version):
        raise IncompatibleBundleError(f"unsupported {what} format_version {found!r}")
    return doc


# The one JSON form of the report and the bundle: indented, standard JSON.
_JSON_FORM = {"indent": 2, "allow_nan": False}


def dump_json(doc) -> str:
    """``doc`` as indented standard JSON; ValueError on a non-finite float."""
    return json.dumps(doc, **_JSON_FORM) + "\n"


def write_json(path, doc) -> None:
    """Write ``dump_json(doc)`` to ``path`` as it is encoded, piece by piece,
    so that the whole text is never held. Raises DataInputError if ``path``
    cannot be written and ValueError on a non-finite float; after a failed
    write, no file is left at ``path`` (see ``discard``)."""
    fh = _open_for_writing(path)
    try:
        with fh:
            json.dump(doc, fh, **_JSON_FORM)
            fh.write("\n")
    except BaseException as exc:
        discard(path)
        if isinstance(exc, OSError):
            raise DataInputError(f"cannot write {path}: {exc}") from None
        raise


def discard(path) -> None:
    """Remove ``path`` if it is a regular file, as a failed write leaves it.
    A device such as /dev/null, or a link, is left as it is."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


def read_text(path) -> str:
    """The file's text, line endings as they are, so a stray carriage
    return reaches the CSV parser as the file holds it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataInputError(f"cannot read {path}: {exc}") from None


def _open_for_writing(path):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataInputError(f"cannot write {path}: {exc}") from None


def write_text(path, text: str) -> None:
    try:
        with _open_for_writing(path) as fh:
            fh.write(text)
    except OSError as exc:
        raise DataInputError(f"cannot write {path}: {exc}") from None
