"""The on-disk format of every JSON and CSV artifact: one writer and one checked reader each.

JSON artifacts are UTF-8 objects with sorted keys, a two-space indent and a
trailing newline, and never hold ``NaN`` or ``Infinity``.  CSV artifacts are
UTF-8 with ``\\n`` line ends and a fixed header row.  The readers raise
SchemaError naming the file, and the key or line, for anything else.

One type rule covers every JSON value read: a bool is no int, an int is a
float.
"""

from __future__ import annotations

import csv
import io
import json
import re
import typing
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import SchemaError

if typing.TYPE_CHECKING:
    from .corpus import Corpus

__all__ = ["fits", "write_json", "write_csv", "read_json", "read_csv", "row_ordinal"]

T = TypeVar("T")

# A quoted field, or a bare one holding a carriage return.  Quoted fields come
# first in the alternation, so a match never starts inside one.
_FIELD_WITH_CR = re.compile(r'"(?:[^"]|"")*"|[^,"\n]*\r[^,"\n]*')


class _RowSink:
    """A text sink for ``csv.writer`` that quotes each bare field holding a carriage return.

    The writer quotes only for the delimiter, the quote and its "\n" line
    terminator, so it leaves "\r" bare, and a reader ends the row there.  It
    writes each row in one call, so a quoted field never spans two calls.
    """

    def __init__(self, f) -> None:
        self._f = f

    def write(self, row: str) -> int:
        if "\r" in row:
            row = _FIELD_WITH_CR.sub(lambda m: m[0] if m[0].startswith('"') else f'"{m[0]}"', row)
        return self._f.write(row)


def fits(value, hint) -> bool:
    """Whether a JSON value fits a type annotation: a bool is no int, an int is a float."""
    if typing.get_origin(hint) is typing.Literal:
        return any(type(value) is type(v) and value == v for v in typing.get_args(hint))  # its own values
    if typing.get_args(hint):
        return any(fits(value, arg) for arg in typing.get_args(hint))
    return type(value) in ((int, float) if hint is float else (hint,))


def write_json(path: str | Path, obj: dict) -> None:
    """``obj`` as a JSON artifact; ValueError if it holds a non-finite float."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row, then ``rows``, as a CSV artifact.

    A field is quoted when it holds a comma, a quote, a newline or a carriage
    return; without a carriage return the bytes are the ``csv`` module's own.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(_RowSink(f), lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name} is not JSON")


def read_json(path: str | Path, keys: Iterable[tuple] = ()) -> dict:
    """A JSON artifact, with the value at each of ``keys`` checked.

    Each key is ``(key_path, hint)`` or ``(key_path, hint, minimum)``: the
    value reached through the tuple of object keys ``key_path`` must fit
    ``hint`` under :func:`fits`, and be at least ``minimum`` when one is
    given (``hint`` is then ``int`` or ``float``).  Raises SchemaError when
    the file is not UTF-8, not a JSON object, holds ``NaN`` or
    ``Infinity``, is nested too deeply to parse, or a key is missing or
    ill-typed.
    """
    name = Path(path).name
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant)
    except (ValueError, RecursionError) as e:  # undecodable bytes, malformed or too deep JSON
        raise SchemaError(f"{name} is not valid JSON: {e}", path=name) from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} is not a JSON object", path=name)
    for key_path, hint, *minimum in keys:
        dotted = ".".join(key_path)
        value = obj
        try:
            for key in key_path:
                value = value[key]  # TypeError when value is no object
        except (KeyError, TypeError):
            raise SchemaError(f"{name}: key {dotted!r} is missing", path=dotted) from None
        if not fits(value, hint) or (minimum and value < minimum[0]):
            want = getattr(hint, "__name__", str(hint)) + "".join(f" >= {m}" for m in minimum)
            raise SchemaError(f"{name}: key {dotted!r} must be {want}, got {value!r}", path=dotted)
    return obj


def read_csv(
    data: bytes, name: str, header: Sequence[str], parse: Callable[[list[str]], T]
) -> Iterator[T]:
    """``parse(row)`` for each row of the CSV artifact ``data``, after its header.

    ``name`` is the file's name, used only in messages.  Raises SchemaError
    naming it and the line for bytes that are not UTF-8, a header other than
    ``header``, or a row that is not CSV or that ``parse`` rejects by raising
    ValueError.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise SchemaError(f"{name} is not valid UTF-8 (line {line}): {e}", path=name) from None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as f:
        rows = csv.reader(f)
        try:
            head = next(rows, None)
            if head != list(header):
                raise SchemaError(f"{name} line 1: header {head} is not {list(header)}", path=name)
            for row in rows:
                try:
                    value = parse(row)
                except ValueError as e:
                    message = f"{name} line {rows.line_num} is malformed ({e}): {row}"
                    raise SchemaError(message, path=name) from None
                yield value
        except csv.Error as e:
            raise SchemaError(f"{name} line {rows.line_num} is not CSV: {e}", path=name) from e


def row_ordinal(corpus: Corpus, ordinal: str, ex_id: str, char_length: str) -> int:
    """The ordinal of the corpus example that a scores or selection CSV row names.

    Raises ValueError unless ``corpus`` holds an example at ``ordinal`` with
    that id and char length.
    """
    i = int(ordinal)
    if not 0 <= i < len(corpus):
        raise ValueError(f"ordinal {i} is outside the corpus of {len(corpus)} examples")
    found, length = corpus.ids[i], len(corpus.contexts[i])
    if found != ex_id or length != int(char_length):
        raise ValueError(f"example {i} has id {found!r} and char length {length}")
    return i
