"""Squared Mahalanobis abnormality scores over feature matrices.

The model is the sample mean vector and 1/(n-1) covariance of the rows; an
example's score is the squared Mahalanobis distance of its row from that
distribution, computed by triangular solve against a Cholesky factor of the
(possibly shrunk) covariance.  The explicit inverse is never formed.

Positional-density covariance is frequently singular, so factorization
escalates a diagonal shrinkage epsilon through a fixed schedule until the
factorization succeeds; the epsilon actually applied is recorded on the
model and carried into every downstream report.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np
from scipy.linalg import solve_triangular

from .errors import FitError, SingularityError
from .featurize import FeatureMatrix

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = [
    "EpsilonPolicy",
    "MomentModel",
    "ScoreVector",
    "fit_moments",
    "regularized_factorize",
    "score",
    "score_all",
    "save_model",
    "load_model",
    "write_scores_csv",
    "read_scores_csv",
]

@dataclass(frozen=True)
class EpsilonPolicy:
    """Shrinkage schedule for factorization.

    Attempts epsilon = 0 first, then base * 10^k for k = 0..max_exponent
    with base = base_scale * trace(sigma) / d.  A ``fixed`` value replaces
    the whole schedule.
    """

    base_scale: float = 1e-8
    max_exponent: int = 8
    fixed: float | None = None

    def schedule(self, trace: float, d: int) -> list[float]:
        if self.fixed is not None:
            return [float(self.fixed)]
        base = self.base_scale * trace / d
        steps = [0.0]
        if base > 0.0:
            steps += [base * 10.0**k for k in range(self.max_exponent + 1)]
        return steps


@dataclass(frozen=True)
class MomentModel:
    """Mean, covariance, and (after factorization) shrinkage + Cholesky factor."""

    mu: np.ndarray
    sigma: np.ndarray
    n: int
    epsilon: float | None = None
    factor: np.ndarray | None = None

    @property
    def d(self) -> int:
        return len(self.mu)

    @property
    def factorized(self) -> bool:
        return self.factor is not None

    def _require_factor(self) -> np.ndarray:
        if self.factor is None:
            raise FitError("model is not factorized; call regularized_factorize first")
        return self.factor


@dataclass(frozen=True)
class ScoreVector:
    """Per-example squared distances aligned to corpus ordinals."""

    scores: np.ndarray
    model_epsilon: float = 0.0

    def __len__(self) -> int:
        return len(self.scores)


def _matrix_values(matrix: FeatureMatrix | np.ndarray) -> np.ndarray:
    values = np.asarray(getattr(matrix, "values", matrix), dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    return values


def fit_moments(matrix: FeatureMatrix | np.ndarray) -> MomentModel:
    """Column means and 1/(n-1) covariance of the rows (unfactorized model).

    Two-pass: the mean is computed first, then the centered cross product;
    exact symmetry is enforced by averaging with the transpose.
    """
    X = _matrix_values(matrix)
    n = X.shape[0]
    if n < 2:
        raise FitError(f"need at least 2 rows to fit moments, got {n}")
    mu = X.mean(axis=0)
    centered = X - mu
    sigma = centered.T @ centered / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    return MomentModel(mu=mu, sigma=sigma, n=n)


def regularized_factorize(model: MomentModel, policy: EpsilonPolicy = EpsilonPolicy()) -> MomentModel:
    """Cholesky-factorize sigma + epsilon*I, escalating epsilon until it succeeds.

    Returns a new model recording the first epsilon that factorized; raises
    SingularityError naming the final epsilon tried when every attempt fails
    (e.g. degenerate data with trace 0).
    """
    d = model.d
    trace = float(np.trace(model.sigma))
    eps = 0.0
    for eps in policy.schedule(trace, d):
        shifted = model.sigma if eps == 0.0 else model.sigma + eps * np.eye(d)
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return replace(model, epsilon=eps, factor=factor)
    raise SingularityError(
        f"covariance (trace={trace:g}, d={d}) is not positive definite at any "
        f"epsilon tried (last: {eps:g})",
        last_epsilon=eps,
    )


def _quadform(factor: np.ndarray, deviation: np.ndarray) -> float:
    y = solve_triangular(factor, deviation, lower=True, check_finite=False)
    return float(y @ y)


def score(model: MomentModel, row: np.ndarray) -> float:
    """Squared Mahalanobis distance of one feature row from the model.

    Evaluated as the squared norm of the triangular solve of the de-meaned
    row; always >= 0 and exactly 0 at the mean.  No square root is applied.
    """
    factor = model._require_factor()
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (model.d,):
        raise ValueError(f"row has shape {row.shape}, model dimension is {model.d}")
    if not np.all(np.isfinite(row)):
        raise ValueError("row contains non-finite values")
    return _quadform(factor, row - model.mu)


def score_all(model: MomentModel, matrix: FeatureMatrix | np.ndarray, threads: int = 1) -> ScoreVector:
    """Score every row of the matrix through the same per-row kernel as :func:`score`.

    A :class:`FeatureMatrix` is scored once per distinct context and the
    scores are broadcast to every record; since each row's score depends on
    that row alone, this agrees bitwise with scoring every record.
    ``threads`` is accepted for compatibility and never changes the result:
    the per-row loop holds the interpreter lock, so worker threads buy
    nothing.
    """
    factor = model._require_factor()
    dedup = isinstance(matrix, FeatureMatrix)
    X = matrix.unique_values if dedup else _matrix_values(matrix)
    if X.shape[1] != model.d:
        raise ValueError(f"matrix has {X.shape[1]} columns, model dimension is {model.d}")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite values")

    mu = model.mu
    out = np.fromiter((_quadform(factor, x - mu) for x in X), dtype=np.float64, count=X.shape[0])
    if dedup:
        out = out[matrix.index]
    return ScoreVector(scores=out, model_epsilon=float(model.epsilon or 0.0))


def save_model(
    model: MomentModel,
    bin_path: str | Path,
    sidecar_path: str | Path,
    feature_config_hash: str | None = None,
) -> None:
    """Little-endian float64 binary (mu, then sigma, then factor) + JSON sidecar."""
    parts = [model.mu.astype("<f8").tobytes(), model.sigma.astype("<f8").tobytes(order="C")]
    if model.factor is not None:
        parts.append(model.factor.astype("<f8").tobytes(order="C"))
    Path(bin_path).write_bytes(b"".join(parts))
    sidecar = {
        "n": model.n,
        "d": model.d,
        "epsilon": model.epsilon,
        "has_factor": model.factor is not None,
        "feature_config_hash": feature_config_hash,
    }
    Path(sidecar_path).write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_model(bin_path: str | Path, sidecar_path: str | Path) -> MomentModel:
    sidecar = json.loads(Path(sidecar_path).read_text(encoding="utf-8"))
    d, n = int(sidecar["d"]), int(sidecar["n"])
    buf = np.frombuffer(Path(bin_path).read_bytes(), dtype="<f8")
    mu = buf[:d].copy()
    sigma = buf[d : d + d * d].reshape(d, d).copy()
    factor = None
    if sidecar.get("has_factor"):
        factor = buf[d + d * d : d + 2 * d * d].reshape(d, d).copy()
    eps = sidecar.get("epsilon")
    return MomentModel(mu=mu, sigma=sigma, n=n, epsilon=eps if eps is None else float(eps), factor=factor)


def write_scores_csv(scores: ScoreVector, corpus: "Corpus", path: str | Path) -> None:
    """ordinal,id,char_length,score rows aligned to corpus ordinals."""
    if len(scores) != len(corpus):
        raise ValueError(f"scores length {len(scores)} does not match corpus size {len(corpus)}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["ordinal", "id", "char_length", "score"])
        for ex, s in zip(corpus, scores.scores):
            w.writerow([ex.ordinal, ex.id, ex.char_length, repr(float(s))])


def read_scores_csv(path: str | Path) -> dict[str, Any]:
    """Read a scores CSV back into arrays keyed by column name."""
    ordinals: list[int] = []
    ids: list[str] = []
    char_lengths: list[int] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        r = csv.reader(f)
        head = next(r, None)
        if head != ["ordinal", "id", "char_length", "score"]:
            raise ValueError(f"unexpected scores CSV header: {head}")
        for row in r:
            ordinals.append(int(row[0]))
            ids.append(row[1])
            char_lengths.append(int(row[2]))
            values.append(float(row[3]))
    return {
        "ordinal": np.array(ordinals, dtype=np.int64),
        "id": ids,
        "char_length": np.array(char_lengths, dtype=np.int64),
        "score": np.array(values, dtype=np.float64),
    }
