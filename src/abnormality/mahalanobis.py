"""Squared Mahalanobis abnormality scores over feature matrices.

The model is the sample mean vector and 1/(n-1) covariance of the rows; an
example's score is the squared Mahalanobis distance of its row from that
distribution, the squared norm of the back substitution of the de-meaned
row against an upper factor U, U U^T the (possibly shrunk) covariance.  The
explicit inverse is never formed.  Rows are ragged: a row is zero past its
stored extent, and that padding is never built, neither to fit the moments,
which are integer sums of the stored counts that padding adds nothing to,
nor to score.  All rows are substituted together in NumPy, block by block,
but no operation mixes two rows, so a record's score depends only on its
row and the model.

Positional-density covariance is frequently singular, so factorization
escalates a diagonal shrinkage epsilon through a fixed schedule until the
factorization succeeds; the epsilon actually applied is recorded on the
model and carried into every downstream report.  U is computed panel by
panel in the covariance's own buffer, which becomes the model's factor: the
covariance is consumed, and no second d x d matrix is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Literal

import numpy as np

from .artifacts import read_csv, read_json, row_ordinal, write_csv, write_json
from .errors import FitError, SchemaError, SingularityError
from .featurize import FeatureMatrix

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = [
    "Moments",
    "MomentModel",
    "ScoreVector",
    "fit_moments",
    "regularized_factorize",
    "score_all",
    "save_model",
    "load_model",
    "write_scores_csv",
    "read_scores_csv",
]

@dataclass(frozen=True)
class Moments:
    """Column means and 1/(n-1) covariance of n rows."""

    mu: np.ndarray
    sigma: np.ndarray
    n: int


@dataclass(frozen=True)
class MomentModel:
    """Mean of n rows and the upper factor U, U U^T = sigma + epsilon*I, of their covariance."""

    mu: np.ndarray
    factor: np.ndarray
    n: int
    epsilon: float

    @property
    def d(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class ScoreVector:
    """Per-example squared distances aligned to corpus ordinals."""

    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The scores, so ``np.asarray(vector)`` reads a ScoreVector like an array."""
        if copy:
            return np.array(self.scores, dtype=dtype)
        return np.asarray(self.scores, dtype=dtype)


# Columns per block in _solve_upper.  16 was the fastest at d = 60, 700 and
# 1,500 on 2 vCPUs with OpenBLAS; 8 and 32 ran within 20% of it, 64 slower.
_BLOCK = 16

# Bound on a piece's summed row bounds in fit_moments: half of 2**53, the
# limit of exact float64 integers, so the rounding of the running float64
# bound cannot let a piece over 2**53 through.
_EXACT = 2.0**52

# Columns per panel in regularized_factorize.  64 was as fast as 32, 128 and
# 256 at d = 300, 700 and 1,500 on 2 vCPUs with OpenBLAS, or faster; each
# panel's temporaries are d x 64.
_PANEL = 64


def _groups(matrix: FeatureMatrix) -> tuple[np.ndarray, list[tuple[slice, int]]]:
    """The distinct rows sorted stably by their count b of 16-column blocks, and each b's group.

    A group is (rows, W): a slice of that order, and W = min(16 b, L), the
    width that holds each of its rows and depends on nothing else.
    """
    blocks = -(-matrix.extents // _BLOCK)
    counts = np.bincount(blocks)
    ends = np.cumsum(counts)
    groups = [(slice(e - c, e), min(b * _BLOCK, matrix.width))
              for b, (c, e) in enumerate(zip(counts, ends)) if c]
    return np.argsort(blocks, kind="stable"), groups


def fit_moments(matrix: FeatureMatrix) -> Moments:
    """Column means and 1/(n-1) covariance of the rows, from exact integer sums.

    Each distinct row is weighted by how many records share it.  A row is
    integer counts c over the matrix's total T, so with s = sum_r w_r c_r
    and the weighted Gram matrix G = sum_r w_r c_r c_r^T, mu = s / (n T)
    and sigma = (G - s s^T / n) / (T^2 (n - 1)), both elementwise.  Padded
    positions hold count 0 and add nothing to G or s, so no padding term is
    built.  Rows are grouped by width W (block-count groups, merged while a
    group's buffer holds at most twice its content), and each group adds to
    G[:W, :W] and s[:W] one piece of its rows at a time.  A piece's rows
    have sum_r w_r max_i c_ri^2 below 2**52, and c_rj <= c_rj^2 and
    c_rj c_rk <= max_i c_ri^2, so every partial sum of its products is an
    integer that float64 holds exactly: they are the same in any summation
    order, at any BLAS thread count
    (``OPENBLAS_NUM_THREADS``), and pieces are added in a fixed order.
    Sigma is exactly symmetric, and no records x L array is built.
    """
    n, d, T = len(matrix.index), matrix.width, matrix.total
    if n < 2:
        raise FitError(f"need at least 2 rows to fit moments, got {n}")
    weights = np.bincount(matrix.index, minlength=len(matrix.ngram_counts))
    extents = matrix.extents

    # Fewer, larger products are much faster; merging stops before a
    # buffer would be mostly padding.
    order, groups = _groups(matrix)
    merged = groups[:1]
    for rows, W in groups[1:]:
        joined = slice(merged[-1][0].start, rows.stop)
        if (joined.stop - joined.start) * W <= 2 * extents[order[joined]].sum():
            merged[-1] = (joined, W)
        else:
            merged.append((rows, W))

    s, sigma = np.zeros(d), np.zeros((d, d))
    first = True
    for rows, W in reversed(merged):
        rows = order[rows]
        C, weight = matrix.dense(W, rows), weights[rows].astype(np.float64)
        # w_r times the largest count of row r squared bounds every entry of w_r c_r c_r^T.
        bound = np.cumsum(weight * C.max(axis=1, initial=0.0) ** 2)
        start = 0
        while start < len(C):
            # A row whose own bound is over the limit is a piece alone: each
            # entry of its product is one rounded multiplication, not a sum.
            floor = bound[start - 1] if start else 0.0
            stop = max(start + 1, int(np.searchsorted(bound, floor + _EXACT)))
            piece, w = C[start:stop], weight[start:stop]
            s[:W] += w @ piece
            weighted = piece if (w == 1).all() else piece * w[:, None]  # unit weights need no copy
            product = np.matmul(weighted.T, piece, out=sigma[:W, :W] if first else None)  # the widest in place
            if not first:
                sigma[:W, :W] += product
            first, start = False, stop

    # s s^T / n one block of rows at a time, so no second d x d array is held.
    scale = float(T * T * (n - 1))
    for p in range(0, d, _BLOCK):
        block = np.outer(s[p : p + _BLOCK], s)
        block /= n
        sigma[p : p + _BLOCK] -= block
        sigma[p : p + _BLOCK] /= scale
    return Moments(mu=s / (n * T), sigma=sigma, n=n)


def regularized_factorize(moments: Moments, fixed: float | None = None) -> MomentModel:
    """Factor sigma + epsilon*I as U U^T, U upper triangular, in sigma's own buffer.

    Epsilon is ``fixed`` when given, which must be finite and >= 0.
    Otherwise it escalates until the factorization succeeds: 0, then
    base * 10^k for k = 0..8 with base = 1e-8 * trace(sigma) / d, when base
    > 0.  U is built from the last _PANEL-column panel to the first, so
    the last (zero-padded) positions are eliminated first, as in a Cholesky
    factorization of the reversed matrix: per panel, one gemm subtracts the
    factored columns to its right, a Cholesky factorization of the reversed
    diagonal block gives that block of U, and one solve gives the rows above.
    U depends only on sigma's upper triangle, and only that is written, so a
    failed attempt restores it from the strict lower triangle, panel by panel.

    Sigma must be symmetric.  A float64 sigma is consumed: on success its
    strict lower triangle is zeroed and it is the returned model's U, so no
    second d x d matrix is allocated.  When every attempt fails (e.g.
    degenerate data with trace 0), sigma is restored bit for bit and
    SingularityError names the final epsilon tried.  Any other dtype is
    factored in a float64 copy.
    """
    if fixed is not None and not 0 <= fixed < math.inf:
        raise ValueError(f"fixed must be finite and >= 0, got {fixed}")
    sigma = np.asarray(moments.sigma, dtype=np.float64)
    d = len(sigma)
    trace = float(np.trace(sigma))
    if fixed is not None:
        schedule = [float(fixed)]
    else:
        base = 1e-8 * trace / d
        schedule = [0.0] + ([base * 10.0**k for k in range(9)] if base > 0.0 else [])
    diag = sigma.diagonal().copy()
    upper = np.triu(np.ones((_PANEL, _PANEL), dtype=bool))
    panels = [(max(e - _PANEL, 0), e) for e in range(d, 0, -_PANEL)]  # the first holds the remainder
    eps = 0.0
    for eps in schedule:
        sigma.flat[:: d + 1] = diag + eps
        done = 0
        try:
            for s, e in panels:
                A = sigma[:e, e:] @ sigma[s:e, e:].T
                np.subtract(sigma[:e, s:e], A, out=A)
                block = np.linalg.cholesky(A[s:][::-1, ::-1])[::-1, ::-1]
                if s:
                    sigma[:s, s:e] = np.linalg.solve(block, A[:s].T).T
                np.copyto(sigma[s:e, s:e], block, where=upper[: e - s, : e - s])
                done += 1
        except np.linalg.LinAlgError:
            for s, e in panels[:done]:
                sigma[:s, s:e] = sigma[s:e, :s].T
                square = sigma[s:e, s:e]
                np.copyto(square, square.T, where=upper[: e - s, : e - s])  # copyto copies an overlapping source
            continue
        for s, e in panels:
            sigma[s:e, :s] = 0.0
            np.copyto(sigma[s:e, s:e], 0.0, where=~upper[: e - s, : e - s])
        return MomentModel(mu=moments.mu, factor=sigma, n=moments.n, epsilon=eps)
    sigma.flat[:: d + 1] = diag
    raise SingularityError(
        f"covariance (trace={trace:g}, d={d}) is not positive definite at any "
        f"epsilon tried (last: {eps:g})",
        last_epsilon=eps,
    )


def _solve_upper(factor: np.ndarray, buffers: list[np.ndarray]) -> None:
    """Overwrite every row x of every buffer with U^-1 x, by blocked back substitution.

    A buffer W wide (W a multiple of 16, or d) holds rows that are zero
    past W, so each is solved against U[:W, :W].  Per block, from the last:
    a stacked matmul (one gemv per row) against the factor panel from the
    block to W, then elementwise updates, on a transposed copy of the block
    of every buffer that spans it, to solve its small triangle.
    """
    d = len(factor)
    for s in range((max(Y.shape[1] for Y in buffers) - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        e = min(s + _BLOCK, d)
        spanning = [Y for Y in buffers if Y.shape[1] > s]
        for Y in spanning:
            if Y.shape[1] > e:
                Y[:, s:e] -= (Y[:, None, e:] @ factor[s:e, e : Y.shape[1]].T)[:, 0, :]
        T = np.empty((e - s, sum(map(len, spanning))))  # C order: each T[i] is contiguous
        np.concatenate([Y[:, s:e].T for Y in spanning], axis=1, out=T)
        for i in range(e - s - 1, -1, -1):
            T[i] /= factor[s + i, s + i]
            T[:i] -= factor[s : s + i, s + i, None] * T[i]
        for Y, part in zip(spanning, np.split(T, np.cumsum(list(map(len, spanning)))[:-1], axis=1)):
            Y[:, s:e] = part.T


def score_all(model: MomentModel, matrix: FeatureMatrix, threads: int = 1) -> ScoreVector:
    """Score every record of the matrix, one back substitution per distinct row.

    The score of x is ||z + U^-1 x||^2, with z = U^-1 (-mu) solved once per
    call.  U is upper triangular, so U^-1 x is zero past the end W of x's
    last 16-column block: rows are solved in one buffer per block count, W
    wide, and score ||z[:W] + U^-1 x||^2 plus the sum of z[W:]^2.  No
    operation mixes two rows or depends on the batch, so a row's score is
    bitwise the same alone, in any batch and at any position.  The matrix
    is therefore scored once per distinct context and the scores are
    broadcast to every record, bitwise equal to scoring every record.  Each
    buffer holds counts until it is divided by the total, which rounds each
    density as count / total does.  ``threads`` is accepted for
    compatibility and changes nothing.
    """
    if matrix.width != model.d:
        raise ValueError(f"matrix has {matrix.width} columns, model dimension is {model.d}")

    order, groups = _groups(matrix)
    buffers = [matrix.dense(W, order[rows]) for rows, W in groups]
    for Y in buffers:
        Y /= matrix.total
    z = -model.mu[None, :]
    _solve_upper(model.factor, [*buffers, z])
    z = z[0]
    tail = np.append(np.cumsum(z[::-1] ** 2)[::-1], 0.0)  # tail[W] = sum of z[W:]^2
    out = np.empty(len(order))
    for (rows, W), Y in zip(groups, buffers):
        Y += z[:W]
        out[order[rows]] = (Y[:, None, :] @ Y[:, :, None])[:, 0, 0] + tail[W]
    return ScoreVector(scores=out[matrix.index])


def save_model(model: MomentModel, bin_path: str | Path, sidecar_path: str | Path) -> None:
    """Little-endian float64 binary (mu, then the upper factor U) + JSON sidecar.

    Each array is written straight from its buffer, so saving holds no
    second copy of the model.
    """
    with open(bin_path, "wb") as f:
        for part in (model.mu, model.factor):
            f.write(np.ascontiguousarray(part, dtype="<f8").data)
    write_json(sidecar_path, {
        "n": model.n,
        "d": model.d,
        "epsilon": model.epsilon,
        "factor": "upper",
    })


_MODEL_KEYS = (
    (("n",), int, 0),
    (("d",), int, 0),
    (("epsilon",), float, 0),
    (("factor",), Literal["upper"]),
)


def load_model(bin_path: str | Path, sidecar_path: str | Path) -> MomentModel:
    """Read a model written by :func:`save_model`.

    Raises SchemaError when the sidecar is not a JSON object with
    non-negative integers ``n`` and ``d``, a number ``epsilon`` >= 0 and a
    ``factor`` of ``"upper"``, when the binary's size is not 8 * (d + d*d)
    bytes (so a sidecar from before the factor was upper is refused), or
    when it holds a non-finite value or a factor diagonal entry <= 0, which
    no factorization gives.  The binary is read once, into the arrays returned.
    """
    sidecar = read_json(sidecar_path, _MODEL_KEYS)
    d, name = sidecar["d"], Path(bin_path).name
    size, expected = Path(bin_path).stat().st_size, 8 * (d + d * d)
    if size != expected:
        raise SchemaError(f"{name} holds {size} bytes, but d = {d} needs {expected}", path=name)
    values = np.fromfile(bin_path, dtype="<f8")
    mu, factor = values[:d], values[d:].reshape(d, d)
    if not (np.isfinite(values).all() and (factor.diagonal() > 0).all()):
        raise SchemaError(f"{name} holds a non-finite value or a factor diagonal entry <= 0", path=name)
    return MomentModel(mu=mu, factor=factor, n=sidecar["n"], epsilon=float(sidecar["epsilon"]))


_SCORES_HEADER = ("ordinal", "id", "char_length", "score")


def write_scores_csv(scores: ScoreVector, corpus: "Corpus", path: str | Path) -> None:
    """ordinal,id,char_length,score rows aligned to corpus ordinals."""
    if len(scores) != len(corpus):
        raise ValueError(f"scores length {len(scores)} does not match corpus size {len(corpus)}")
    write_csv(path, _SCORES_HEADER, (
        [i, ex_id, len(context), repr(float(s))]
        for i, (ex_id, context, s) in enumerate(zip(corpus.ids, corpus.contexts, scores.scores))
    ))


def read_scores_csv(data: bytes, corpus: "Corpus", name: str = "scores.csv") -> np.ndarray:
    """The scores that the scores CSV ``data`` records for ``corpus``, in ordinal order.

    Row t must name example t of ``corpus`` by ordinal, id and char length,
    and hold a finite, non-negative score.  Raises SchemaError naming
    ``name`` on bytes that are not UTF-8, a wrong header, any other row, or
    a row count other than the corpus size.
    """
    expected = iter(range(len(corpus)))

    def parse(row: list[str]) -> float:
        ordinal, ex_id, char_length, text = row
        if row_ordinal(corpus, ordinal, ex_id, char_length) != next(expected, None):
            raise ValueError("rows must list the corpus examples in ordinal order")
        value = float(text)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"score {text} is not finite and non-negative")
        return value

    scores = np.fromiter(read_csv(data, name, _SCORES_HEADER, parse), dtype=np.float64)
    if len(scores) != len(corpus):
        raise SchemaError(f"{name} has {len(scores)} rows for a corpus of {len(corpus)}", path=name)
    return scores
