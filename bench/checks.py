"""Output checks for one pipeline run, independent of the package's code.

The score oracle featurizes with plain ``str.split`` (the generated text is
lowercase and has no punctuation), fits the mean and the 1/(n-1)
covariance over the unique rows weighted by how often each repeats, and
scores with the explicit inverse of sigma + epsilon*I.  Epsilon is the
one the program recorded in ``scores.meta.json``.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Largest relative score error accepted per workload, against the explicit
# inverse.  The error grows with the covariance's condition number, which
# the seed moves.  Largest error measured: squad-dup 1.2e-7 (50 seeds),
# longtail-unique 2.0e-7 (25 seeds), many-short 1.1e-13 (25 seeds).
SCORE_RTOL = {"squad-dup": 1e-5, "longtail-unique": 1e-5, "many-short": 1e-10}


@dataclass
class Features:
    """Unique feature rows, how often each occurs, and the row of every record."""

    rows: np.ndarray
    weights: np.ndarray
    index: np.ndarray


def read_contexts(path: Path, fmt: str) -> list[str]:
    """Context of every record, in record order, parsed without the package."""
    if fmt == "jsonl":
        return [json.loads(line)["context"] for line in path.read_text("utf-8").splitlines() if line.strip()]
    doc = json.loads(path.read_text("utf-8"))
    return [
        para["context"]
        for article in doc["data"]
        for para in article["paragraphs"]
        for _ in para["qas"]
    ]


def featurize(contexts: list[str]) -> Features:
    """Unigram positional densities over the records (one count per record)."""
    unique: dict[str, int] = {}
    index = np.array([unique.setdefault(c, len(unique)) for c in contexts], dtype=np.int64)
    weights = np.bincount(index, minlength=len(unique)).astype(np.float64)
    token_lists = [c.split() for c in unique]
    counts: Counter[str] = Counter()
    for tokens, w in zip(token_lists, weights):
        for t in tokens:
            counts[t] += int(w)
    total = sum(counts.values())
    L = max(len(t) for t in token_lists)
    rows = np.zeros((len(token_lists), L))
    for r, tokens in enumerate(token_lists):
        rows[r, : len(tokens)] = [counts[t] / total for t in tokens]
    return Features(rows=rows, weights=weights, index=index)


def covariance(f: Features) -> tuple[np.ndarray, np.ndarray]:
    """De-meaned unique rows and the 1/(n-1) covariance over all records."""
    n = f.weights.sum()
    mu = f.weights @ f.rows / n
    dev = f.rows - mu
    return dev, (dev * f.weights[:, None]).T @ dev / (n - 1)


def oracle_scores(f: Features, epsilon: float) -> np.ndarray:
    """Squared Mahalanobis distance of every record by explicit inverse."""
    dev, sigma = covariance(f)
    inv = np.linalg.inv(sigma + epsilon * np.eye(sigma.shape[0]))
    per_row = ((dev @ inv) * dev).sum(axis=1)
    return per_row[f.index]


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def relative_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest relative difference, with differences below 1 taken as absolute."""
    if got.shape != expected.shape:
        return float("inf")
    return float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)))


@dataclass
class Report:
    """Named check failures and known defects found in one output directory."""

    failures: dict[str, list[str]] = field(default_factory=lambda: {"score": [], "sample": [], "analyze": []})
    defects: list[str] = field(default_factory=list)
    score_error: float = 0.0

    def fail(self, command: str, message: str) -> None:
        self.failures[command].append(message)


def _moments(x: np.ndarray) -> dict[str, float]:
    dev = x - x.mean()
    m2 = np.mean(dev**2)
    return {
        "mean": float(x.mean()),
        "variance": float(dev @ dev / (len(x) - 1)),
        "skewness": float(np.mean(dev**3) / m2**1.5),
        "excess_kurtosis": float(np.mean(dev**4) / m2**2 - 3.0),
        "min": float(x.min()),
        "max": float(x.max()),
    }


def check_outputs(
    out: Path,
    workload: str,
    features: Features,
    k: tuple[int, int, int],
    strategy: str,
    reference_selection,
) -> Report:
    """Check score, sample and analyze outputs under ``out``.

    ``reference_selection`` is the full-sort selection oracle from the
    repository's tests; it is passed in so this module needs no path setup.
    """
    rep = Report()
    meta = json.loads((out / "scores.meta.json").read_text("utf-8"))
    n = len(features.index)
    scores = np.array([float(r["score"]) for r in read_csv(out / "scores.csv")])
    rep.score_error = relative_error(scores, oracle_scores(features, float(meta["epsilon"] or 0.0)))
    if not rep.score_error <= SCORE_RTOL[workload]:
        rep.fail("score", f"scores differ from the oracle by {rep.score_error:.3g} "
                 f"(tolerance {SCORE_RTOL[workload]:g})")

    selected = {int(r["ordinal"]): r["category"] for r in read_csv(out / "selection.csv")}
    counts = Counter(selected.values())
    if strategy == "global":
        low, high, mean = reference_selection(scores, *k)
        want = {**{i: "low" for i in low}, **{i: "high" for i in high}, **{i: "mutual" for i in mean}}
        if selected != want:
            rep.fail("sample", "selection.csv differs from the full-sort reference selection")
    if [counts["low"], counts["high"], counts["mutual"]] != list(k) or len(selected) != sum(k):
        rep.fail("sample", f"selection counts {dict(counts)} are not disjoint with k = {k}")
    manifest = json.loads((out / "selection_manifest.json").read_text("utf-8"))
    if manifest["counts"]["written"] != sum(k):
        rep.fail("sample", f"subset wrote {manifest['counts']['written']} records, expected {sum(k)}")

    summary = json.loads((out / "report" / "summary.json").read_text("utf-8"))
    if summary["n"] != n:
        rep.fail("analyze", f"summary n = {summary['n']}, expected {n}")
    for key, value in _moments(scores).items():
        got = summary["score_stats"][key]
        if not abs(got - value) <= 1e-9 * max(abs(value), 1.0):
            rep.fail("analyze", f"summary {key} = {got!r}, expected {value!r}")
    want_counts = {"low": counts["low"], "mutual": counts["mutual"], "high": counts["high"],
                   "unselected": n - len(selected)}
    if summary["selection_counts"] != want_counts:
        rep.defects.append(
            f"analyze-ignores-selection: summary.json selection_counts {summary['selection_counts']} "
            f"but selection.csv gives {want_counts}"
        )
    return rep
