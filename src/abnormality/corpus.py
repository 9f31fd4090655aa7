"""Corpus ingestion and subset writing.

Reads SQuAD v1.1 JSON (one example per question-answer record) and generic
JSONL corpora into an immutable, deterministically ordered example list, and
writes pruned subsets back out as JSONL or reconstructed SQuAD JSON.

Ingestion never mutates or normalizes context text; raw text survives so a
written subset is byte-faithful to its source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, SchemaError

__all__ = [
    "Example",
    "Corpus",
    "JsonlFields",
    "ingest_squad",
    "ingest_jsonl",
    "ingest_file",
    "write_subset",
    "make_synthetic_corpus",
]


@dataclass(frozen=True)
class Example:
    """One corpus record.

    ``payload`` carries the original parsed record (e.g. a SQuAD qa object)
    opaquely for subset writing; it plays no role in featurization.
    """

    ordinal: int
    id: str
    title: str
    context: str
    payload: Mapping[str, Any] | None = field(default=None, compare=False)

    @property
    def char_length(self) -> int:
        """Unicode code points in ``context``."""
        return len(self.context)


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable sequence of examples plus a source descriptor."""

    examples: tuple[Example, ...]
    source_descriptor: str = ""

    def __post_init__(self) -> None:
        for i, ex in enumerate(self.examples):
            if ex.ordinal != i:
                raise ValueError(f"ordinal gap: example at position {i} has ordinal {ex.ordinal}")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]

    def char_lengths(self) -> np.ndarray:
        return np.array([ex.char_length for ex in self.examples], dtype=np.int64)


@dataclass(frozen=True)
class JsonlFields:
    """Field names used when reading JSONL records."""

    context: str = "context"
    title: str = "title"
    id: str = "id"


def _decode_utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not valid UTF-8: {e}", offset=e.start) from e


def _read_all(stream: bytes | IO[bytes]) -> bytes:
    if isinstance(stream, (bytes, bytearray)):
        return bytes(stream)
    return stream.read()


def ingest_squad(stream: bytes | IO[bytes], *, source: str = "<stream>") -> Corpus:
    """Parse SQuAD v1.1 JSON into a Corpus, one example per qa record.

    Document order is preserved: articles, then paragraphs, then qas.  Each
    example's context is the enclosing paragraph's context (contexts repeat
    across qa records of the same paragraph), and the original qa object is
    kept as the example payload.

    Raises ParseError (with byte offset) on malformed JSON, ParseError on
    JSON nested too deeply to parse, and SchemaError (naming the JSON path)
    on missing required fields or a context that is not a string.
    """
    raw = _read_all(stream)
    text = _decode_utf8(raw, "SQuAD input")
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
    examples: list[Example] = []
    for ai, article in enumerate(articles):
        apath = f"data[{ai}]"
        if not isinstance(article, dict) or "title" not in article:
            raise SchemaError(f"missing 'title' at {apath}", path=f"{apath}.title")
        if "paragraphs" not in article or not isinstance(article["paragraphs"], list):
            raise SchemaError(f"missing 'paragraphs' at {apath}", path=f"{apath}.paragraphs")
        title = article["title"]
        if not isinstance(title, str):
            raise SchemaError(f"'title' at {apath} is not a string", path=f"{apath}.title")
        for pi, para in enumerate(article["paragraphs"]):
            ppath = f"{apath}.paragraphs[{pi}]"
            if not isinstance(para, dict) or "context" not in para:
                raise SchemaError(f"missing 'context' at {ppath}", path=f"{ppath}.context")
            if "qas" not in para or not isinstance(para["qas"], list):
                raise SchemaError(f"missing 'qas' at {ppath}", path=f"{ppath}.qas")
            context = para["context"]
            if not isinstance(context, str):
                raise SchemaError(f"'context' at {ppath} is not a string", path=f"{ppath}.context")
            for qi, qa in enumerate(para["qas"]):
                qpath = f"{ppath}.qas[{qi}]"
                if not isinstance(qa, dict) or "id" not in qa:
                    raise SchemaError(f"missing 'id' at {qpath}", path=f"{qpath}.id")
                if not isinstance(qa["id"], str):
                    raise SchemaError(f"'id' at {qpath} is not a string", path=f"{qpath}.id")
                examples.append(
                    Example(
                        ordinal=len(examples),
                        id=qa["id"],
                        title=title,
                        context=context,
                        payload=qa,
                    )
                )
    descriptor = f"squad:{source};version={version};one example per qa record"
    return Corpus(tuple(examples), source_descriptor=descriptor)


def ingest_jsonl(
    stream: bytes | IO[bytes],
    fields: JsonlFields | None = None,
    *,
    source: str = "<stream>",
) -> Corpus:
    """Parse JSONL (one JSON object per nonempty line) into a Corpus.

    Missing title defaults to "", missing id to ``line-<k>`` where k is the
    1-based physical line number.  Raises ParseError carrying the line
    number for an unparseable or too deeply nested line, SchemaError if the
    configured context field is absent, or the context, id or title field
    is present but not a JSON string.
    """
    fields = fields or JsonlFields()
    raw = _read_all(stream)
    text = _decode_utf8(raw, "JSONL input")

    examples: list[Example] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {lineno}: malformed JSON: {e.msg}", line=lineno) from e
        except RecursionError as e:
            raise ParseError(f"line {lineno}: JSON nested too deeply to parse: {e}", line=lineno) from e
        if not isinstance(obj, dict):
            raise SchemaError(f"line {lineno}: record is not a JSON object", path=f"line {lineno}")
        if fields.context not in obj:
            raise SchemaError(
                f"line {lineno}: missing context field '{fields.context}'",
                path=f"line {lineno}.{fields.context}",
            )
        context = obj[fields.context]
        ex_id, title = obj.get(fields.id, f"line-{lineno}"), obj.get(fields.title, "")
        for name, key, value in (("context", fields.context, context), ("id", fields.id, ex_id),
                                 ("title", fields.title, title)):
            if not isinstance(value, str):
                raise SchemaError(f"line {lineno}: {name} field '{key}' is not a string",
                                  path=f"line {lineno}.{key}")
        examples.append(
            Example(
                ordinal=len(examples),
                id=ex_id,
                title=title,
                context=context,
                payload=obj,
            )
        )
    descriptor = f"jsonl:{source};fields={fields.context}/{fields.title}/{fields.id}"
    return Corpus(tuple(examples), source_descriptor=descriptor)


def ingest_file(path: str | Path, fmt: str = "squad", fields: JsonlFields | None = None) -> Corpus:
    """Ingest a corpus file by path; ``fmt`` is ``squad`` or ``jsonl``."""
    path = Path(path)
    with open(path, "rb") as f:
        if fmt == "squad":
            return ingest_squad(f, source=str(path))
        if fmt == "jsonl":
            return ingest_jsonl(f, fields, source=str(path))
    raise ValueError(f"unknown corpus format {fmt!r} (expected 'squad' or 'jsonl')")


def write_subset(
    corpus: Corpus,
    labels: Sequence[str],
    sink: IO[bytes],
    fmt: str = "jsonl",
    scores: Any = None,
) -> int:
    """Write the selected examples in ascending ordinal order; returns the count.

    ``labels`` holds one category per example, as ``sampler.label_all``
    gives it, and examples labelled ``unselected`` are skipped.  Each record
    is annotated with its category label and, when ``scores`` is given (a
    ScoreVector or array aligned to corpus ordinals), its abnormality score.
    ``jsonl`` emits one object per line with the default JsonlFields names
    so a subset re-ingests cleanly; ``squad`` reconstructs the nested
    article/paragraph grouping by title, passing original qa payloads
    through opaquely.

    Labels or scores of another length than the corpus raise ValueError
    before any byte is written.
    """
    if fmt not in ("jsonl", "squad"):
        raise ValueError(f"unknown subset format {fmt!r} (expected 'jsonl' or 'squad')")
    n = len(corpus)
    if len(labels) != n:
        raise ValueError(f"labels length {len(labels)} does not match corpus size {n}")
    values = None if scores is None else np.asarray(scores, dtype=np.float64)
    if values is not None and len(values) != n:
        raise ValueError(f"scores length {len(values)} does not match corpus size {n}")

    # squad groups by title (articles in order of first selected ordinal),
    # then by context within each article, qas in ordinal order.
    articles: dict[str, dict[str, list[dict[str, Any]]]] = {}
    count = 0
    for i, category in enumerate(labels):
        if category == "unselected":
            continue
        ex = corpus[i]
        count += 1
        if fmt == "jsonl":
            rec: dict[str, Any] = {
                "id": ex.id,
                "title": ex.title,
                "context": ex.context,
                "ordinal": ex.ordinal,
                "category": category,
            }
            if values is not None:
                rec["score"] = float(values[i])
            if ex.payload is not None:
                rec["payload"] = ex.payload
            sink.write((json.dumps(rec, ensure_ascii=False) + "\n").encode("utf-8"))
        else:
            qa: dict[str, Any] = dict(ex.payload) if ex.payload is not None else {"id": ex.id}
            qa["category"] = category
            if values is not None:
                qa["abnormality_score"] = float(values[i])
            articles.setdefault(ex.title, {}).setdefault(ex.context, []).append(qa)
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


def make_synthetic_corpus(
    n_examples: int,
    vocab_size: int = 200,
    min_tokens: int = 20,
    max_tokens: int = 400,
    seed: int = 0,
    zipf_exponent: float = 1.0,
) -> Corpus:
    """Deterministic synthetic corpus: i.i.d. words, uniform token lengths.

    Intended for tests and benchmarks; contexts are space-joined words from
    a ``w000``-style vocabulary with token counts uniform in
    [min_tokens, max_tokens].  Word frequencies follow a Zipf law with the
    given exponent (0 for uniform), matching the heavy-tailed frequency
    structure of natural text.
    """
    if n_examples < 0 or vocab_size < 1 or min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("invalid synthetic corpus parameters")
    rng = np.random.default_rng(seed)
    width = len(str(vocab_size - 1))
    vocab = [f"w{i:0{width}d}" for i in range(vocab_size)]
    weights = 1.0 / np.arange(1, vocab_size + 1) ** zipf_exponent
    weights /= weights.sum()
    examples = []
    for i in range(n_examples):
        length = int(rng.integers(min_tokens, max_tokens + 1))
        words = rng.choice(vocab_size, size=length, p=weights)
        context = " ".join(vocab[w] for w in words)
        examples.append(
            Example(ordinal=i, id=f"synth-{i}", title=f"topic-{i % 25:02d}", context=context)
        )
    descriptor = (
        f"synthetic:seed={seed};n={n_examples};vocab={vocab_size};"
        f"tokens=[{min_tokens},{max_tokens}];zipf={zipf_exponent:g}"
    )
    return Corpus(tuple(examples), source_descriptor=descriptor)
