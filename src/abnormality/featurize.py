"""Tokenization, n-gram density tables, and positional-density feature matrices.

Feature i of an example is the corpus-wide relative frequency of the i-th
n-gram of its context, and 0 past its last n-gram up to a common length L,
so one covariance matrix can be fit over the whole corpus.  That zero
padding is implied, never built: each row stores its n-gram counts, capped
at L.

Contexts repeat (a SQuAD paragraph appears once per question), so a corpus
is featurized once per distinct context: each distinct context is tokenized
once, its tokens are mapped to integer ids, and every n-gram occurrence gets
an integer code.  N-grams are counted with ``np.bincount`` weighted by how
often each context repeats, and the feature matrix keeps one ragged row of
counts per distinct context, over one total, plus the row of every record.
The density table carries those codes, and string n-gram keys are spelled
out only when its ``counts`` are first read, to save it.
"""

from __future__ import annotations

import unicodedata
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import write_csv
from .errors import FitError

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = [
    "DensityTable",
    "FeatureMatrix",
    "NGRAM_SEP",
    "tokenize",
    "fit_density",
    "build_matrix",
    "save_density",
]

# Unit separator: joins the tokens of an n-gram into a single map key.
NGRAM_SEP = "\x1f"


def _strip_edge_punct(token: str) -> str:
    if token[0].isalnum() and token[-1].isalnum():  # letters and digits are never punctuation
        return token
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split on unicode whitespace, lowercase, strip edge punctuation, drop empty tokens."""
    tokens = [_strip_edge_punct(t.lower()) for t in text.split()]
    return [t for t in tokens if t]


@dataclass(frozen=True)
class _Grams:
    """Every n-gram occurrence in the distinct contexts of a corpus.

    Distinct context r holds ``lengths[r]`` n-grams, and ``codes`` lists them
    context after context: equal codes mean equal n-grams, and code c is the
    n-gram of the words ``words[t]`` for t in ``token_ids[c]`` (at order 1
    the codes are the token ids themselves and ``token_ids`` is None).
    ``index[t]`` is the distinct context of record t.
    """

    codes: np.ndarray
    index: np.ndarray
    lengths: np.ndarray
    words: list[str]
    token_ids: np.ndarray | None

    def __len__(self) -> int:
        return len(self.words) if self.token_ids is None else len(self.token_ids)

    def keys(self) -> list[str]:
        """The string key of every code, in code order."""
        if self.token_ids is None:
            return self.words
        words = self.words
        return [NGRAM_SEP.join([words[t] for t in gram]) for gram in self.token_ids.tolist()]


def _encode(corpus: "Corpus", n: int) -> _Grams:
    """Intern contexts, tokenize each distinct one once, and code its n-grams.

    Raises FitError, before any n-gram is coded, when no context has n tokens.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    distinct: dict[str, int] = {}
    index = np.array([distinct.setdefault(c, len(distinct)) for c in corpus.contexts], dtype=np.int64)
    # Token strings are dropped once each context is mapped to ids: a list
    # of every token would outweigh the feature matrix.
    vocab: dict[str, int] = {}
    ids = array("q")
    token_counts = np.zeros(len(distinct), dtype=np.int64)
    for r, context in enumerate(distinct):
        tokens = tokenize(context)
        ids.extend([vocab.setdefault(t, len(vocab)) for t in tokens])
        token_counts[r] = len(tokens)
    token_ids = np.frombuffer(ids, dtype=np.int64)
    lengths = np.maximum(token_counts - n + 1, 0)
    if not lengths.any():
        raise FitError(f"corpus yields no n-grams at order {n}")
    words = list(vocab)
    if n == 1:
        # Every token is a unigram: the codes are the token ids.
        return _Grams(codes=token_ids, index=index, lengths=lengths, words=words, token_ids=None)

    # Offset of every n-gram's first token in the concatenated contexts.
    starts = np.arange(lengths.sum()) + np.repeat(
        (np.cumsum(token_counts) - token_counts) - (np.cumsum(lengths) - lengths), lengths
    )
    # codes[g] ranks the first k tokens of the n-gram at starts[g].  Ranking
    # again after each extension keeps codes below the n-gram count, so
    # code * vocabulary size cannot overflow int64 at any order.
    codes = token_ids[starts]
    for k in range(1, n):
        ranked, codes = np.unique(codes * len(vocab) + token_ids[starts + k], return_inverse=True)

    # Any occurrence of a code spells out its tokens.
    first = np.zeros(len(ranked), dtype=np.int64)
    first[codes] = starts
    gram_ids = token_ids[first[:, None] + np.arange(n)]
    return _Grams(codes=codes, index=index, lengths=lengths, words=words, token_ids=gram_ids)


@dataclass(frozen=True, eq=False)
class DensityTable:
    """Corpus-wide n-gram occurrence counts; density(g) = count(g) / total.

    ``grams`` codes every n-gram occurrence of the corpus the table was fit
    on, and ``by_code[c]`` counts the occurrences of code c, which is all
    :func:`build_matrix` reads.  ``counts`` maps each n-gram key to its
    count; the keys are spelled out the first time it is read.
    """

    n: int
    grams: _Grams = field(repr=False)
    by_code: np.ndarray = field(repr=False)
    total: int

    @cached_property
    def counts(self) -> dict[str, int]:
        return dict(zip(self.grams.keys(), self.by_code.tolist()))


def fit_density(corpus: "Corpus", n: int) -> DensityTable:
    """Count n-grams over all contexts (duplicates counted once per example).

    The table keeps the corpus's n-gram codes, which :func:`build_matrix`
    turns into the corpus's feature matrix without spelling any key.
    Raises FitError when the corpus yields no n-grams at order n.
    """
    grams = _encode(corpus, n)
    repeats = np.bincount(grams.index, minlength=len(grams.lengths))
    total = int(grams.lengths @ repeats)
    # Weighted sums of integers below 2**53 are exact in float64.
    by_code = np.bincount(
        grams.codes, weights=np.repeat(repeats, grams.lengths), minlength=len(grams)
    ).astype(np.int64)
    return DensityTable(n=n, grams=grams, by_code=by_code, total=total)


@dataclass(frozen=True)
class FeatureMatrix:
    """Positional-density rows of a corpus, stored ragged, once per distinct context.

    Every density is an n-gram's corpus count over one ``total``, and the
    rows hold the counts: distinct row r is ``content[offsets[r]:offsets[r
    + 1]]``, the int64 counts of its first min(``ngram_counts[r]``, L) n-grams
    (its extent), then zeros up to ``width`` (L) that are never built.
    ``index[t]`` is the row of record t, and each record's ``true_lengths``
    and ``truncated`` are derived from ``ngram_counts``.
    """

    content: np.ndarray
    index: np.ndarray
    width: int
    ngram_counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        if self.content.dtype != np.int64 or self.total < 1:
            raise ValueError("content must be int64 counts over a total >= 1")
        if self.content.ndim != 1 or self.index.ndim != 1 or self.ngram_counts.ndim != 1:
            raise ValueError("content, index and ngram_counts must be 1-dimensional")
        if self.ngram_counts.min(initial=0) < 0 or len(self.content) != self.extents.sum():
            raise ValueError("content does not hold every row's n-gram counts capped at width")
        if len(self.index) and not (0 <= self.index.min() and self.index.max() < len(self.ngram_counts)):
            raise ValueError("record index points outside the distinct rows")

    @property
    def extents(self) -> np.ndarray:
        """Per distinct row: its stored length, its n-gram count capped at L."""
        return np.minimum(self.ngram_counts, self.width)

    @property
    def offsets(self) -> np.ndarray:
        """Per distinct row, where it starts in ``content``; then ``len(content)``."""
        return np.concatenate(([0], np.cumsum(self.extents)))

    def dense(self, width: int, rows: np.ndarray) -> np.ndarray:
        """The counts of distinct rows ``rows`` as a new float64 array, ``width`` >= their extents.

        Counts below 2**53 are exact in float64.
        """
        offsets, extents = self.offsets, self.extents[rows]
        out = np.zeros((len(extents), width))
        # A slice of rows at a time, at most 8 values per distinct row, so
        # the gather's temporaries (its index, the int64 counts and their
        # float64 cast) stay block-sized.
        step = max(1, 8 * len(self.ngram_counts) // max(width, 1))
        for start in range(0, len(rows), step):
            part, ends = rows[start : start + step], extents[start : start + step]
            gather = np.repeat(offsets[part] - (np.cumsum(ends) - ends), ends)
            gather += np.arange(len(gather))
            out[start : start + step][np.arange(width) < ends[:, None]] = self.content[gather]
        return out

    @property
    def values(self) -> np.ndarray:
        """The records x L matrix of densities, built on demand."""
        out = self.dense(self.width, self.index)
        out /= self.total
        return out

    @property
    def true_lengths(self) -> np.ndarray:
        """Per record: its n-gram count, capped at L."""
        return self.extents[self.index]

    @property
    def truncated(self) -> np.ndarray:
        """Per record: whether it has more than L n-grams."""
        return (self.ngram_counts > self.width)[self.index]


def build_matrix(table: DensityTable, *, l_cap: int | None = None) -> FeatureMatrix:
    """Feature matrix over the corpus ``table`` was fit on, in ordinal order.

    L is the maximum per-example n-gram count, reduced to ``l_cap`` when set
    (longer rows are truncated and flagged).  Downstream covariance is L x
    L, so for corpora with extreme length outliers capping near the 99.9th
    percentile length keeps memory in check.  Each position holds its
    n-gram's count in the table, over the table's total.
    """
    if l_cap is not None and l_cap < 1:
        raise ValueError(f"l_cap must be >= 1, got {l_cap}")

    grams = table.grams
    lengths, codes = grams.lengths, grams.codes
    L = int(lengths.max())
    if l_cap is not None and l_cap < L:
        L = l_cap
        codes = codes[np.arange(len(codes)) - np.repeat(np.cumsum(lengths) - lengths, lengths) < L]

    return FeatureMatrix(table.by_code[codes], grams.index, width=L, ngram_counts=lengths, total=table.total)


_DENSITY_HEADER = ("ngram_key", "count")


def save_density(table: DensityTable, csv_path: str | Path) -> None:
    """Two-column CSV (ngram_key, count) sorted by key."""
    write_csv(csv_path, _DENSITY_HEADER, sorted(table.counts.items()))

