"""Score-distribution statistics and the report bundle.

Provides histogram, skewness / excess kurtosis, and length-score Pearson
correlation over abnormality scores, and writes the CSV/JSON report files
shaped for direct use by standard plotting tools.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .artifacts import write_csv, write_json
from .errors import StatError
from .hashing import sha256_file

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = [
    "DistributionStats",
    "Histogram",
    "moments_stats",
    "histogram",
    "pearson",
    "emit_report",
]


@dataclass(frozen=True)
class DistributionStats:
    """Moment summary of a score distribution.

    ``variance`` uses the 1/(n-1) normalization; ``skewness`` and
    ``excess_kurtosis`` are population-standardized central moments (excess
    kurtosis is 0 for a normal distribution, positive for leptokurtic).
    Both are None when the variance is zero.
    """

    n: int
    mean: float
    variance: float
    skewness: float | None
    excess_kurtosis: float | None
    min: float
    max: float


@dataclass(frozen=True)
class Histogram:
    """Uniform-width histogram; the edges span the data, so every value is in a bin."""

    bin_edges: np.ndarray
    counts: np.ndarray


def moments_stats(scores) -> DistributionStats:
    """Mean, variance, and standardized third/fourth central moments.

    Every sum is a NumPy reduction, not a BLAS dot product, so the result
    does not depend on the BLAS thread count.  Raises StatError when a
    moment overflows float64, as finite scores near 1e154 and above make
    it.
    """
    x = np.asarray(scores, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise StatError(f"need at least 2 values for distribution stats, got {n}")
    mean = float(x.mean())
    dev = x - mean
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        squares = dev**2
        m2 = float(squares.mean())
        variance = float(squares.sum() / (n - 1))
        try:
            if m2 == 0.0:
                skewness = excess_kurtosis = None
            else:
                skewness = float(np.mean(dev**3) / m2**1.5)
                excess_kurtosis = float(np.mean(dev**4) / m2**2 - 3.0)
        except OverflowError:  # a Python float power
            skewness = excess_kurtosis = math.inf
    if not np.isfinite([variance, skewness or 0.0, excess_kurtosis or 0.0]).all():
        raise StatError(f"score moments overflow float64 (largest score {x.max():g})")
    return DistributionStats(
        n=n,
        mean=mean,
        variance=variance,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        min=float(x.min()),
        max=float(x.max()),
    )


def histogram(scores, bins: int = 100) -> Histogram:
    """Uniform bins over [min, max], right-open except the final bin.

    Degenerate range (all values equal at v): edges become the unit interval
    [v-1, v] so the closed final bin receives all n values.
    """
    if not 1 <= bins < 2**63 - 1:  # np.linspace makes bins + 1 edges, an int64 count
        raise ValueError(f"bins must be >= 1 with bins + 1 < 2**63, got {bins}")
    x = np.asarray(scores, dtype=np.float64)
    if len(x) == 0:
        raise StatError("cannot histogram an empty score vector")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        lo = hi - 1.0
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    return Histogram(bin_edges=edges, counts=counts.astype(np.int64))


def pearson(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Product-moment correlation, clamped to [-1, 1].

    Raises StatError when either argument is constant (undefined correlation),
    fewer than two points are given, or a sum of squares or products
    overflows float64.  The sums are NumPy reductions, not BLAS dot products,
    so the result does not depend on the BLAS thread count.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be 1-d of equal length, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise StatError(f"need at least 2 points for correlation, got {len(x)}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        xc = x - x.mean()
        yc = y - y.mean()
        sxx = float(np.sum(xc * xc))
        syy = float(np.sum(yc * yc))
        sxy = float(np.sum(xc * yc))
        sxx_syy = sxx * syy
    if not np.isfinite([sxx, syy, sxy, sxx_syy]).all():
        raise StatError("correlation sums overflow float64")
    if sxx == 0.0 or syy == 0.0:
        raise StatError("correlation undefined: at least one input is constant")
    r = sxy / float(np.sqrt(sxx_syy))
    return min(1.0, max(-1.0, r))


def _exemplar(corpus: "Corpus", s: np.ndarray, i: int) -> dict:
    i = int(i)
    return {"ordinal": i, "id": corpus.ids[i], "title": corpus.titles[i], "score": float(s[i])}


def emit_report(
    corpus: "Corpus",
    scores,
    labels: Sequence[str],
    stats: DistributionStats,
    pearson_by_order: Mapping[int, float | None],
    out_dir: str | Path,
    bins: int = 100,
    dimension: int | None = None,
    epsilon: float | None = None,
    input_hashes: Mapping[str, str] | None = None,
) -> dict:
    """Write scores.csv, histogram.csv, summary.json, manifest.json.

    ``labels`` holds one category per example, as ``Selection.labels``
    gives it; they fill the category column of scores.csv and the selection
    counts.  summary.json carries n, ``dimension`` and ``epsilon`` (null
    when not given), the score distribution stats, Pearson r per n-gram
    order, and the lowest / highest / mean-nearest exemplars (ordinal, id,
    title, score).
    The returned manifest lists every written file with its content hash.
    """
    s = np.asarray(scores, dtype=np.float64)
    if len(s) != len(corpus):
        raise ValueError(f"scores length {len(s)} does not match corpus size {len(corpus)}")
    if len(labels) != len(s):
        raise ValueError(f"labels length {len(labels)} does not match scores length {len(s)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scores_path = out / "scores.csv"
    write_csv(
        scores_path,
        ["ordinal", "id", "title", "char_length", "score", "category"],
        (
            [i, ex_id, title, len(context), repr(float(s[i])), labels[i]]
            for i, (ex_id, title, context) in enumerate(zip(corpus.ids, corpus.titles, corpus.contexts))
        ),
    )

    hist = histogram(s, bins=bins)
    hist_path = out / "histogram.csv"
    write_csv(
        hist_path,
        ["bin_left", "bin_right", "count"],
        (
            [repr(float(hist.bin_edges[b])), repr(float(hist.bin_edges[b + 1])), int(hist.counts[b])]
            for b in range(len(hist.counts))
        ),
    )

    mean = float(s.mean())
    summary = {
        "n": len(s),
        "dimension": dimension,
        "epsilon": epsilon,
        "score_stats": asdict(stats),
        "pearson_by_order": {str(k): v for k, v in sorted(pearson_by_order.items())},
        "exemplars": {
            "lowest": _exemplar(corpus, s, np.argmin(s)),
            "highest": _exemplar(corpus, s, np.argmax(s)),
            "mean_nearest": _exemplar(corpus, s, np.argmin(np.abs(s - mean))),
        },
        "selection_counts": {
            "low": labels.count("low"),
            "mutual": labels.count("mutual"),
            "high": labels.count("high"),
            "unselected": labels.count("unselected"),
        },
    }
    summary_path = out / "summary.json"
    write_json(summary_path, summary)

    files = {p.name: sha256_file(p) for p in (scores_path, hist_path, summary_path)}
    manifest = {"files": files, "inputs": dict(input_hashes or {})}
    write_json(out / "manifest.json", manifest)
    return manifest
