"""Corpus ingestion and subset writing.

Reads SQuAD v1.1 JSON (one example per question-answer record) and JSONL
corpora (one record per line, with ``context``, ``title`` and ``id``
fields) into immutable, deterministically ordered columns, and writes
pruned subsets back out as JSONL or reconstructed SQuAD JSON.

Ingestion never mutates or normalizes context text; raw text survives so a
written subset is byte-faithful to its source.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Mapping, Sequence

import numpy as np

from .errors import ParseError, SchemaError
from .hashing import sha256_bytes

__all__ = [
    "Corpus",
    "ingest_squad",
    "ingest_jsonl",
    "ingest_file",
    "write_subset",
]


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable records as four equal-length columns, plus their source.

    Record i is ``ids[i]``, ``titles[i]``, ``contexts[i]`` and ``payloads[i]``,
    and i is its ordinal.  A payload carries the original parsed record (e.g. a
    SQuAD qa object), or None, opaquely for subset writing; payloads play no
    role in featurization or equality.  ``source_hash`` is the sha256 of the
    bytes that ingest parsed, so it always describes these records.
    """

    ids: tuple[str, ...]
    titles: tuple[str, ...]
    contexts: tuple[str, ...]
    payloads: tuple[Mapping[str, Any] | None, ...] = field(compare=False)
    source_descriptor: str = ""
    source_hash: str = ""

    def __post_init__(self) -> None:
        lengths = tuple(map(len, (self.ids, self.titles, self.contexts, self.payloads)))
        if len(set(lengths)) > 1:
            raise ValueError(f"columns ids, titles, contexts and payloads have unequal lengths {lengths}")

    def __len__(self) -> int:
        return len(self.ids)

    def char_lengths(self) -> np.ndarray:
        """Unicode code points in each context."""
        return np.fromiter(map(len, self.contexts), dtype=np.int64, count=len(self.contexts))


def _decode_utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not valid UTF-8: {e}", offset=e.start) from e


# A JSON escape of a UTF-16 surrogate.  ``json.loads`` joins a pair into one
# code point but keeps a lone surrogate, which UTF-8 cannot encode.  Strict
# UTF-8 decoding admits no surrogate, so without such an escape no kept string
# needs the walk.  A match that is half of a pair, or text after an escaped
# backslash, costs only a walk.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _refuse_lone_surrogates(value: Any, path: str) -> None:
    """Raise SchemaError at the path of the first string in ``value``, keys included, holding a surrogate."""
    if isinstance(value, str):
        if _SURROGATE.search(value):
            raise SchemaError(f"{path} holds a lone surrogate, which UTF-8 cannot encode", path=path)
    elif isinstance(value, dict):
        for key, item in value.items():
            child = f"{path}.{key.encode('utf-8', 'backslashreplace').decode()}"
            _refuse_lone_surrogates(key, child)
            _refuse_lone_surrogates(item, child)
    elif isinstance(value, list):
        for j, item in enumerate(value):
            _refuse_lone_surrogates(item, f"{path}[{j}]")


_ABSENT = object()


def _field(obj: Any, key: str, path: str, kind: type = str, default: Any = _ABSENT) -> Any:
    """``obj[key]`` when it is a ``kind`` (str or list), or ``default`` if given and the key is absent.

    Otherwise raises SchemaError at ``path`` when ``obj`` is not a JSON
    object, and at ``path.key`` when the key is missing or holds another type.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{path} is not a JSON object", path=path)
    value = obj.get(key, _ABSENT)
    if isinstance(value, kind):
        return value
    if value is not _ABSENT:
        what = f"'{key}' at {path} is not {'a string' if kind is str else 'an array'}"
    elif default is not _ABSENT:
        return default
    else:
        what = f"missing '{key}' at {path}"
    raise SchemaError(what, path=f"{path}.{key}")


def ingest_squad(data: bytes, *, source: str = "<stream>") -> Corpus:
    """Parse SQuAD v1.1 JSON bytes into a Corpus, one example per qa record.

    Document order is preserved: articles, then paragraphs, then qas.  Each
    example's context is the enclosing paragraph's context (contexts repeat
    across qa records of the same paragraph), and the original qa object is
    kept as the example payload.

    Raises ParseError (with byte offset) on malformed JSON, ParseError on
    JSON nested too deeply to parse, and SchemaError (naming the JSON path)
    on an article, paragraph or qa that is not an object, a missing title,
    paragraphs, context, qas or id, a title, context or id that is not a
    string, paragraphs or qas that are not an array, or a kept string (the
    version, a title, a context, or any string of a qa object) that holds a
    lone surrogate.
    """
    text = _decode_utf8(data, "SQuAD input")
    source_hash = sha256_bytes(data)
    del data  # not held while json.loads builds the document
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        byte_offset = len(text[: e.pos].encode("utf-8"))
        raise ParseError(f"malformed JSON at byte {byte_offset}: {e.msg}", offset=byte_offset) from e
    except RecursionError as e:
        raise ParseError(f"JSON nested too deeply to parse: {e}") from e

    if not isinstance(doc, dict) or "data" not in doc:
        raise SchemaError("missing top-level 'data' array", path="data")
    articles = doc["data"]
    if not isinstance(articles, list):
        raise SchemaError("'data' is not an array", path="data")

    version = doc.get("version", "")
    walk = _SURROGATE_ESCAPE.search(text) is not None  # else no kept string needs the walk
    if walk:
        _refuse_lone_surrogates(version, "version")
    ids: list[str] = []
    titles: list[str] = []
    contexts: list[str] = []
    payloads: list[dict[str, Any]] = []
    for ai, article in enumerate(articles):
        apath = f"data[{ai}]"
        title = _field(article, "title", apath)
        paragraphs = _field(article, "paragraphs", apath, list)
        if walk:
            _refuse_lone_surrogates(title, f"{apath}.title")
        for pi, para in enumerate(paragraphs):
            ppath = f"{apath}.paragraphs[{pi}]"
            context = _field(para, "context", ppath)
            qas = _field(para, "qas", ppath, list)
            if walk:
                _refuse_lone_surrogates(context, f"{ppath}.context")
            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                ids.append(_field(qa, "id", qpath))
                if walk:
                    _refuse_lone_surrogates(qa, qpath)
                titles.append(title)
                contexts.append(context)
                payloads.append(qa)
    descriptor = f"squad:{source};version={version};one example per qa record"
    return Corpus(tuple(ids), tuple(titles), tuple(contexts), tuple(payloads), descriptor, source_hash)


def ingest_jsonl(data: bytes, *, source: str = "<stream>") -> Corpus:
    """Parse JSONL bytes (one JSON object per nonempty line) into a Corpus.

    Each record's fields are ``context``, ``title`` and ``id``.  A missing
    title defaults to "", a missing id to ``line-<k>`` where k is the
    1-based physical line number.  Raises ParseError carrying the line
    number for an unparseable or too deeply nested line, and SchemaError
    (at path ``line <k>``) for a line that is not a JSON object, a missing
    context field, a context, id or title field that is present but not a
    JSON string, or a string of the record that holds a lone surrogate.
    """
    text = _decode_utf8(data, "JSONL input")
    source_hash = sha256_bytes(data)
    del data  # not held while the records are parsed
    walk = _SURROGATE_ESCAPE.search(text) is not None  # else no record needs the walk

    ids: list[str] = []
    titles: list[str] = []
    contexts: list[str] = []
    payloads: list[dict[str, Any]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {lineno}: malformed JSON: {e.msg}", line=lineno) from e
        except RecursionError as e:
            raise ParseError(f"line {lineno}: JSON nested too deeply to parse: {e}", line=lineno) from e
        lpath = f"line {lineno}"
        contexts.append(_field(obj, "context", lpath))
        ids.append(_field(obj, "id", lpath, default=f"line-{lineno}"))
        titles.append(_field(obj, "title", lpath, default=""))
        if walk:
            _refuse_lone_surrogates(obj, lpath)
        payloads.append(obj)
    return Corpus(tuple(ids), tuple(titles), tuple(contexts), tuple(payloads), f"jsonl:{source}", source_hash)


def ingest_file(path: str | Path, fmt: str = "squad") -> Corpus:
    """Ingest a corpus file by path; ``fmt`` is ``squad`` or ``jsonl``."""
    if fmt not in ("squad", "jsonl"):
        raise ValueError(f"unknown corpus format {fmt!r} (expected 'squad' or 'jsonl')")
    path = Path(path)
    if fmt == "squad":
        return ingest_squad(path.read_bytes(), source=str(path))
    return ingest_jsonl(path.read_bytes(), source=str(path))


def write_subset(
    corpus: Corpus,
    labels: Sequence[str],
    sink: IO[bytes],
    fmt: str = "jsonl",
    *,
    scores: Any,
) -> int:
    """Write the selected examples in ascending ordinal order; returns the count.

    ``labels`` holds one category per example, as ``Selection.labels``
    gives it, and examples labelled ``unselected`` are skipped.  Each record
    is annotated with its category label and its abnormality score from
    ``scores``, a ScoreVector or array aligned to corpus ordinals.
    ``jsonl`` emits one object per line with the ``context``, ``title`` and
    ``id`` fields that ``ingest_jsonl`` reads, so a subset re-ingests
    cleanly; ``squad`` reconstructs the nested article/paragraph grouping by
    title, passing original qa payloads through opaquely.

    Labels or scores of another length than the corpus raise ValueError
    before any byte is written.
    """
    if fmt not in ("jsonl", "squad"):
        raise ValueError(f"unknown subset format {fmt!r} (expected 'jsonl' or 'squad')")
    n = len(corpus)
    if len(labels) != n:
        raise ValueError(f"labels length {len(labels)} does not match corpus size {n}")
    values = np.asarray(scores, dtype=np.float64)
    if len(values) != n:
        raise ValueError(f"scores length {len(values)} does not match corpus size {n}")

    # squad groups by title (articles in order of first selected ordinal),
    # then by context within each article, qas in ordinal order.
    articles: dict[str, dict[str, list[dict[str, Any]]]] = {}
    count = 0
    for i, category in enumerate(labels):
        if category == "unselected":
            continue
        count += 1
        payload = corpus.payloads[i]
        if fmt == "jsonl":
            rec: dict[str, Any] = {
                "id": corpus.ids[i],
                "title": corpus.titles[i],
                "context": corpus.contexts[i],
                "ordinal": i,
                "category": category,
                "score": float(values[i]),
            }
            if payload is not None:
                rec["payload"] = payload
            sink.write((json.dumps(rec, ensure_ascii=False) + "\n").encode("utf-8"))
        else:
            qa: dict[str, Any] = dict(payload) if payload is not None else {"id": corpus.ids[i]}
            qa["category"] = category
            qa["abnormality_score"] = float(values[i])
            articles.setdefault(corpus.titles[i], {}).setdefault(corpus.contexts[i], []).append(qa)
    if fmt == "squad":
        doc = {
            "version": "v1.1-pruned",
            "data": [
                {"title": title, "paragraphs": [{"context": c, "qas": qas} for c, qas in paras.items()]}
                for title, paras in articles.items()
            ],
        }
        sink.write((json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8"))
    return count
