"""Whole-file reads and the one file writer, which fail with DataInputError,
the document parsers' one decode step, and the report's and bundle's JSON form.

Files are UTF-8. Reads keep line endings as they are; writes use LF.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat

from .domain import is_count
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


# stand-ins for the value at a key that an object lacks, and past a list's end
_NO_KEY, _NO_ITEM = object(), object()


def check_saves_back(doc, saved, what: str) -> None:
    """Raise IncompatibleBundleError unless ``saved``, what the object read
    from ``doc`` writes, equals ``doc`` as JSON values: the same keys, in
    any order, and the same values, with ``true``, ``1`` and ``1.0`` told
    apart. The message names the first path at which they differ."""
    found = _first_difference(doc, saved)
    if found is not None:
        keys, held, wrote = found
        path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in reversed(keys))
        raise IncompatibleBundleError(
            f"{what} does not save back to itself at {path.removeprefix('.')}: it holds {_shown(held)}, "
            f"its writer writes {_shown(wrote)}"
        )


def _first_difference(held, saved):
    """``(keys, held value, saved value)`` at the first place where two
    JSON objects or values differ, the keys to that place listed from the
    place up; or None. Lists of numbers and strings, the bulk of a bundle,
    are compared whole."""
    if held is saved:
        return None
    if type(held) is not type(saved):
        return [], held, saved
    if isinstance(held, dict):
        keys = [*held, *(key for key in saved if key not in held)]
        pairs = ((key, held.get(key, _NO_KEY), saved.get(key, _NO_KEY)) for key in keys)
    elif isinstance(held, list):
        types = list(map(type, held))
        if dict not in types and list not in types and held == saved and types == list(map(type, saved)):
            return None
        items = itertools.zip_longest(held, saved, fillvalue=_NO_ITEM)
        pairs = ((i, a, b) for i, (a, b) in enumerate(items))
    else:
        return None if held == saved else ([], held, saved)
    for key, a, b in pairs:
        found = _first_difference(a, b)
        if found is not None:
            found[0].append(key)
            return found
    return None


def _shown(value) -> str:
    """``value`` as JSON, cut to 60 characters, or "no such key" or "no
    such item" for a stand-in."""
    if value is _NO_KEY or value is _NO_ITEM:
        return f"no such {'key' if value is _NO_KEY else 'item'}"
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


# The one JSON form of the report and the bundle: indented, standard JSON.
_ENCODER = json.JSONEncoder(indent=2, allow_nan=False)


def dump_json(doc) -> str:
    """``doc`` as indented standard JSON; ValueError on a non-finite float."""
    return _ENCODER.encode(doc) + "\n"


def write_json(path, doc) -> None:
    """Write ``dump_json(doc)`` to ``path`` as it is encoded, piece by piece,
    so that the whole text is never held; see ``write_text``. Raises
    ValueError on a non-finite float."""
    write_text(path, itertools.chain(_ENCODER.iterencode(doc), ("\n",)))


def write_text(path, pieces) -> None:
    """Write the strings of ``pieces`` to ``path`` as they come: the
    package's one writer of files. Raises DataInputError if ``path`` cannot
    be written. Once ``path`` is opened, any failure, an exception that the
    pieces raise included, leaves no file at ``path`` (see ``discard``)."""
    opened = False
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            for piece in pieces:
                fh.write(piece)
    except BaseException as exc:
        if opened:
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
