"""Independent reference implementations used as test oracles.

Deliberately naive: explicit inverses, full sorts, direct-definition
formulas.  Nothing here shares code with the package under test;
``count_matrix`` and ``dense_moments`` only put their results into the
package's types.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# N-gram keys join their tokens with the unit separator, as DensityTable.counts does.
SEP = "\x1f"


def reference_tokenize(text: str) -> list[str]:
    """The README's tokenizer rule, step by step.

    Split on unicode whitespace (``str.split``), lowercase, strip leading
    and trailing characters of unicode category P*, drop empty tokens.
    """
    def is_punct(ch: str) -> bool:
        return unicodedata.category(ch)[0] == "P"

    tokens = []
    for token in text.split():
        chars = list(token.lower())
        while chars and is_punct(chars[0]):
            chars.pop(0)
        while chars and is_punct(chars[-1]):
            chars.pop()
        if chars:
            tokens.append("".join(chars))
    return tokens


def ngrams(tokens: list[str], n: int) -> list[str]:
    """Overlapping stride-1 n-grams, each joined with the unit separator.

    Result length is max(0, len(tokens) - n + 1).  These strings are the keys
    of ``DensityTable.counts``.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return [SEP.join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def reference_ngram_counts(token_lists, n: int) -> Counter:
    """N-gram key -> occurrences over every token list (one list per record)."""
    counts: Counter = Counter()
    for tokens in token_lists:
        counts.update(ngrams(tokens, n))
    return counts


class FeatureRow(NamedTuple):
    values: np.ndarray
    true_length: int
    truncated: bool


def featurize_example(tokens: list[str], table, L: int) -> FeatureRow:
    """Positional-density row of length L for one tokenized context.

    row[i] = count(i-th n-gram) / total from the table's string-keyed
    counts for i < true_length; padded positions are exactly 0, unseen
    n-grams map to 0, and a sequence longer than L is truncated and flagged.
    """
    if L < 1:
        raise ValueError(f"feature length must be >= 1, got {L}")
    grams = ngrams(tokens, table.n)
    true_length = min(len(grams), L)
    row = np.zeros(L, dtype=np.float64)
    for i in range(true_length):
        row[i] = table.counts.get(grams[i], 0) / table.total
    return FeatureRow(values=row, true_length=true_length, truncated=len(grams) > L)


def count_matrix(counts, total: int, index=None):
    """The package's FeatureMatrix of integer ``counts`` (rows x L) over ``total``.

    Row r has an n-gram at each position up to its last nonzero count, and
    ``index[t]`` is the row of record t (default: one record per row).
    """
    # Imported here so that the benchmark, which imports this module, does not load the package.
    from abnormality.featurize import FeatureMatrix

    C = np.asarray(counts, dtype=np.int64)
    extents = [int(np.flatnonzero(row)[-1]) + 1 if row.any() else 0 for row in C]
    content = np.array([v for row, e in zip(C, extents) for v in row[:e]], dtype=np.int64)
    index = np.arange(len(C)) if index is None else np.asarray(index)
    return FeatureMatrix(content, index, C.shape[1], np.array(extents), total)


def dense_moments(X: np.ndarray):
    """The package's Moments of the rows of X: two-pass mean and centered 1/(n-1) covariance."""
    from abnormality.mahalanobis import Moments

    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    mu = X.sum(axis=0) / n
    centered = X - mu
    sigma = centered.T @ centered / (n - 1)
    sigma = np.triu(sigma) + np.triu(sigma, 1).T  # exactly symmetric
    return Moments(mu=mu, sigma=sigma, n=n)


def reference_exact_covariance(X) -> list[list[Fraction]]:
    """1/(n-1) covariance of the rows of X in exact rational arithmetic."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(X, dtype=np.float64)]
    n, d = len(rows), len(rows[0])
    mu = [sum(row[j] for row in rows) / n for j in range(d)]
    return [
        [sum((row[j] - mu[j]) * (row[k] - mu[k]) for row in rows) / (n - 1) for k in range(d)]
        for j in range(d)
    ]


def reference_scores(X: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    """Squared Mahalanobis distances via the explicit inverse of sigma + epsilon * I."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    mu = X.sum(axis=0) / n
    sigma = np.zeros((d, d))
    for t in range(n):
        dev = X[t] - mu
        sigma += np.outer(dev, dev)
    sigma /= n - 1
    inv = np.linalg.inv(sigma + epsilon * np.eye(d))
    out = np.zeros(n)
    for t in range(n):
        dev = X[t] - mu
        out[t] = dev @ inv @ dev
    return out


def reference_triangular_scores(factor: np.ndarray, mu: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared norms of one SciPy triangular solve per de-meaned row of X against the upper factor."""
    # Imported here so that the benchmark, which imports this module, does not load SciPy.
    from scipy.linalg import solve_triangular

    out = np.zeros(len(X))
    for t, x in enumerate(np.asarray(X, dtype=np.float64)):
        y = solve_triangular(factor, x - mu, lower=False)
        out[t] = y @ y
    return out


def reference_shifted_cholesky(sigma: np.ndarray, epsilon: float) -> np.ndarray:
    """Upper factor U, U U^T = sigma + epsilon * I, of a copy of sigma: flip, Cholesky, flip."""
    shifted = np.array(sigma, dtype=np.float64)
    shifted.flat[:: shifted.shape[0] + 1] += epsilon
    return np.ascontiguousarray(np.linalg.cholesky(np.ascontiguousarray(shifted[::-1, ::-1]))[::-1, ::-1])


def reference_epsilon_schedule(trace: float, d: int) -> list[float]:
    """The shrinkages that factorization tries, in order, as the README states them.

    0, then b * 10^k for k = 0, 1, ..., 8 with b = 1e-8 * trace(sigma) / d;
    the b * 10^k steps only when b > 0.
    """
    b = trace * 1e-8 / d
    return [0.0] + [b * 10**k for k in range(9) if b > 0]


def reference_covariance(X: np.ndarray) -> np.ndarray:
    """1/(n-1) covariance by the direct per-entry definition."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    mu = X.sum(axis=0) / n
    sigma = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            sigma[j, k] = sum((X[t, j] - mu[j]) * (X[t, k] - mu[k]) for t in range(n)) / (n - 1)
    return sigma


def reference_selection(
    scores, k_low: int, k_high: int, k_mean: int
) -> tuple[list[int], list[int], list[int]]:
    """Full-sort three-way selection; ties break by ascending index.

    Returns (low, high, mean_proximal), each sorted ascending and disjoint:
    low claims first, then high, then mean, each passing over taken indices.
    """
    s = [float(v) for v in getattr(scores, "scores", scores)]
    n = len(s)
    mean = math.fsum(s) / n if n else 0.0
    low_order = sorted(range(n), key=lambda i: (s[i], i))
    high_order = sorted(range(n), key=lambda i: (-s[i], i))
    mean_order = sorted(range(n), key=lambda i: (abs(s[i] - mean), i))

    taken: set[int] = set()

    def take(order, k):
        picked = []
        for i in order:
            if len(picked) == k:
                break
            if i not in taken:
                picked.append(i)
        taken.update(picked)
        return sorted(picked)

    low = take(low_order, k_low)
    high = take(high_order, k_high)
    mean_prox = take(mean_order, k_mean)
    return low, high, mean_prox


def reference_bucketed_selection(
    scores, char_lengths, k_low: int, k_high: int, k_mean: int, bucket_width: int
):
    """Three-way selection within character-length buckets, written out.

    Bucket b holds the examples with char_length // bucket_width == b.  Each
    k is apportioned by largest remainder: bucket b first gets the floor of
    its exact quota k * pop_b / n, and the units left over go one each to
    the largest remainders (ties: larger population, then smaller b).
    Buckets then claim in descending population (ties: smaller b), each
    category in low, high, mean order against the bucket's own mean, ties
    by ascending index, passing over indices any category has taken; a
    quota a bucket cannot fill carries to the next bucket, pass after pass.
    Returns (low, high, mean_proximal), each sorted ascending, or None when
    a pass places nothing while a quota is still open.
    """
    s = [float(v) for v in scores]
    n = len(s)
    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(char_lengths[i] // bucket_width, []).append(i)
    buckets = sorted(members)
    pop = {b: len(members[b]) for b in buckets}
    cats = ("low", "high", "mean")
    ks = dict(zip(cats, (k_low, k_high, k_mean)))

    quota = {}
    for cat in cats:
        exact = {b: Fraction(ks[cat] * pop[b], n) for b in buckets}
        share = {b: math.floor(exact[b]) for b in buckets}
        by_remainder = sorted(buckets, key=lambda b: (-(exact[b] - share[b]), -pop[b], b))
        for b in by_remainder[: ks[cat] - sum(share.values())]:
            share[b] += 1
        quota[cat] = share

    orders = {}
    for b in buckets:
        mean = math.fsum(s[i] for i in members[b]) / pop[b]
        orders[b] = {
            "low": sorted(members[b], key=lambda i: (s[i], i)),
            "high": sorted(members[b], key=lambda i: (-s[i], i)),
            "mean": sorted(members[b], key=lambda i: (abs(s[i] - mean), i)),
        }

    picked: dict[str, set[int]] = {cat: set() for cat in cats}
    # Without buckets (n = 0) nothing is apportioned, and all of k is still open.
    open_ = {cat: ks[cat] - sum(quota[cat].values()) for cat in cats}
    first_pass = True
    while True:
        placed = False
        for b in sorted(buckets, key=lambda b: (-pop[b], b)):
            for cat in cats:
                want = open_[cat] + (quota[cat][b] if first_pass else 0)
                taken = set().union(*picked.values())
                got = []
                for i in orders[b][cat]:
                    if len(got) == want:
                        break
                    if i not in taken:
                        got.append(i)
                picked[cat].update(got)
                placed = placed or bool(got)
                open_[cat] = want - len(got)
        first_pass = False
        if all(v == 0 for v in open_.values()):
            return tuple(sorted(picked[cat]) for cat in cats)
        if not placed:
            return None


def reference_labels(n: int, low, high, mean_proximal) -> tuple[str, ...]:
    """One label per example from three ordinal lists.

    Example i takes the name of the list that holds it, and unselected when
    none does; the lists are disjoint.
    """
    def label(i):
        for name, picked in (("low", low), ("high", high), ("mutual", mean_proximal)):
            if i in picked:
                return name
        return "unselected"

    return tuple(label(i) for i in range(n))


def reference_moments(values) -> dict:
    """Direct two-pass mean/variance/skewness/excess kurtosis."""
    x = [float(v) for v in values]
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    variance = sum((v - mean) ** 2 for v in x) / (n - 1)
    if m2 == 0:
        return {"mean": mean, "variance": variance, "skewness": None, "excess_kurtosis": None}
    return {
        "mean": mean,
        "variance": variance,
        "skewness": m3 / m2**1.5,
        "excess_kurtosis": m4 / m2**2 - 3.0,
    }


def reference_histogram_counts(values, edges) -> list[int]:
    """Per-bin counts by linear scan; right-open bins, final bin closed."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        for b in range(len(counts)):
            last = b == len(counts) - 1
            if edges[b] <= v < edges[b + 1] or (last and v == edges[b + 1]):
                counts[b] += 1
                break
    return counts
