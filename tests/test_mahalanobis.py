from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnormality.errors import FitError, SchemaError, SingularityError
from abnormality.featurize import FeatureMatrix, build_matrix, fit_density
from abnormality.mahalanobis import (
    _BLOCK,
    _PANEL,
    _groups,
    MomentModel,
    Moments,
    ScoreVector,
    fit_moments,
    load_model,
    read_scores_csv,
    regularized_factorize,
    save_model,
    score_all,
    write_scores_csv,
)

from conftest import corpus_of, long_tail_corpus, make_synthetic_corpus
from oracles import (
    count_matrix,
    dense_moments,
    reference_covariance,
    reference_epsilon_schedule,
    reference_exact_covariance,
    reference_scores,
    reference_shifted_cholesky,
    reference_triangular_scores,
)

# Odd, so that most count / TOTAL densities are rounded.
TOTAL = 997


def repeated_corpus(distinct: int, max_repeats: int, seed: int):
    """``distinct`` short contexts, each repeated 1..max_repeats times, shuffled."""
    rng = np.random.default_rng(seed)
    contexts = list(make_synthetic_corpus(distinct, vocab_size=25, min_tokens=3, max_tokens=8, seed=seed).contexts)
    records = [c for c in contexts for _ in range(int(rng.integers(1, max_repeats + 1)))]
    return corpus_of(*(records[i] for i in rng.permutation(len(records))))


def singular_moments(rng, n, d):
    """Moments of n normal rows whose last column is constant: sigma's last row is 0, so epsilon > 0."""
    X = rng.normal(size=(n, d))
    X[:, -1] = 1.0
    return dense_moments(X)


def random_counts(rng, n, d, low=0):
    return rng.integers(low, 40, size=(n, d))


def random_model(rng, n, d):
    """n records of d random counts over TOTAL, and the model fit to them."""
    matrix = count_matrix(random_counts(rng, n, d), TOTAL)
    return matrix, regularized_factorize(fit_moments(matrix))


class TestFitMoments:
    def test_identical_rows_zero_variance(self):
        model = fit_moments(count_matrix([[1, 2], [1, 2]], 3))
        assert (model.sigma == 0).all()
        assert model.mu.tolist() == [1 / 3, 2 / 3]

    def test_hand_computed_two_rows(self):
        model = fit_moments(count_matrix([[0, 0], [2, 2]], 1))
        assert model.mu.tolist() == [1.0, 1.0]
        assert model.sigma.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d = int(rng.integers(3, 20)), int(rng.integers(2, 6))
            matrix = count_matrix(random_counts(rng, n, d), TOTAL)
            sigma = fit_moments(matrix).sigma
            np.testing.assert_allclose(sigma, reference_covariance(matrix.values), rtol=1e-12,
                                       atol=1e-15 * np.abs(sigma).max())

    def test_exact_symmetry(self):
        rng = np.random.default_rng(12)
        model = fit_moments(count_matrix(random_counts(rng, 30, 7), TOTAL))
        assert (model.sigma == model.sigma.T).all()

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            fit_moments(count_matrix(np.ones((1, 3)), TOTAL))

    def test_weighted_unique_rows_match_every_record(self):
        # 12 distinct contexts, repeated 1-8 times: the weighted fit over the
        # distinct rows must equal the direct fit over every record.
        corpus = repeated_corpus(12, max_repeats=8, seed=13)
        matrix = build_matrix(fit_density(corpus, 1))
        assert len(matrix.ngram_counts) == 12 < len(matrix.index)
        model = fit_moments(matrix)
        X = matrix.values
        assert model.n == len(X)
        # Every sum is an exact integer, so the fit equals the unweighted one bit for bit.
        expanded = fit_moments(count_matrix(matrix.dense(matrix.width, matrix.index), matrix.total))
        assert expanded.mu.tobytes() == model.mu.tobytes()
        assert expanded.sigma.tobytes() == model.sigma.tobytes()
        np.testing.assert_allclose(model.mu, X.mean(axis=0), rtol=1e-10, atol=0)
        np.testing.assert_allclose(model.sigma, reference_covariance(X), rtol=1e-10, atol=1e-16)
        assert (model.sigma == model.sigma.T).all()

    def test_distinct_rows_within_rounding_of_the_exact_covariance(self):
        # The Gram matrix and column sums are exact integers, so sigma is
        # within a few roundings of the rational covariance of the densities.
        corpus = make_synthetic_corpus(30, vocab_size=25, min_tokens=3, max_tokens=20, seed=14)
        matrix = build_matrix(fit_density(corpus, 1))
        assert len(matrix.ngram_counts) == len(matrix.index)
        moments = fit_moments(matrix)
        exact = np.array(reference_exact_covariance(matrix.values), dtype=np.float64)
        peak = np.abs(exact).max()
        assert np.abs(moments.sigma - exact).max() <= 4e-16 * peak
        counts = matrix.dense(matrix.width, np.arange(len(matrix.ngram_counts)))
        assert moments.mu.tobytes() == (counts.sum(axis=0) / (len(matrix.index) * matrix.total)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_permuting_records_leaves_moments_and_epsilon_bitwise(self, data):
        # Ragged rows of random counts, repeated 1-3 times: reordering the
        # distinct rows and the records changes every summation order.
        d = data.draw(st.integers(2, 3 * _BLOCK + 5), label="d")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 40))
        counts = rng.integers(0, 60, size=(rows, d))
        counts[np.arange(d) >= rng.integers(0, d + 1, size=rows)[:, None]] = 0
        index = rng.permutation(np.repeat(np.arange(rows), rng.integers(1, 4, size=rows)))
        order = rng.permutation(rows)
        records = rng.permutation(len(index))
        a = count_matrix(counts, TOTAL, index)
        b = count_matrix(counts[order], TOTAL, np.argsort(order)[index[records]])
        fit_a, fit_b = fit_moments(a), fit_moments(b)
        assert fit_a.mu.tobytes() == fit_b.mu.tobytes()
        assert fit_a.sigma.tobytes() == fit_b.sigma.tobytes()
        try:
            eps = regularized_factorize(fit_a).epsilon
        except SingularityError:
            with pytest.raises(SingularityError):
                regularized_factorize(fit_b)
            return
        assert np.float64(regularized_factorize(fit_b).epsilon).tobytes() == np.float64(eps).tobytes()

    @pytest.mark.parametrize("k", [5_003, 1_000_003])
    def test_scaled_counts_take_the_chunked_path(self, k, monkeypatch):
        # Every count and the total times an odd k: the densities are the same
        # rationals, but the Gram matrix's largest diagonal entry is above
        # 2**53, so its rows are summed in pieces (of about ten rows at
        # k = 5,003, one row each at k = 1,000,003), and the pieces round
        # when they are added.
        matrix = build_matrix(fit_density(long_tail_corpus(1), 1))
        scaled = dataclasses.replace(matrix, content=matrix.content * k, total=matrix.total * k)
        assert scaled.total < 2**53
        assert scaled.values.tobytes() == matrix.values.tobytes()
        counts = matrix.dense(matrix.width, np.arange(len(matrix.ngram_counts))).astype(np.int64).astype(object)
        gram_diagonal = (np.bincount(matrix.index)[:, None] * counts**2).sum(axis=0) * k * k
        assert max(gram_diagonal) > 2**53

        base, big = fit_moments(matrix), fit_moments(scaled)
        assert (big.sigma == big.sigma.T).all()
        # Each piece's product is exact, so summing its rows in reverse changes no bit.
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, out=None: matmul(a[:, ::-1], b[::-1], out=out))
        assert fit_moments(scaled).sigma.tobytes() == big.sigma.tobytes()
        monkeypatch.undo()
        np.testing.assert_allclose(big.mu, base.mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(big.sigma / np.abs(big.sigma).max(), base.sigma / np.abs(base.sigma).max(),
                                   rtol=0, atol=1e-12)
        base_model, big_model = regularized_factorize(base), regularized_factorize(big)
        assert big_model.epsilon > 0.0
        np.testing.assert_allclose(score_all(big_model, scaled).scores, score_all(base_model, matrix).scores,
                                   rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ragged_fit_and_scores_match_dense_oracles(self, data):
        # Random ragged rows: repeated contexts, n-gram counts on and around
        # a block edge, an empty context (an all-zero row), a longest row of
        # exactly L with L rarely a multiple of 16, a cap that truncates,
        # and order 2.
        n = data.draw(st.sampled_from([1, 2]), label="order")
        edge = [_BLOCK - 1, _BLOCK, _BLOCK + 1]
        counts = data.draw(st.lists(st.sampled_from([0, 1, 3, *edge, 2 * _BLOCK + 5]), min_size=3, max_size=12))
        longest = data.draw(st.integers(2 * _BLOCK + 6, 4 * _BLOCK + 3), label="L")
        l_cap = data.draw(st.sampled_from([None, longest - 3, 2 * _BLOCK + 1]), label="l_cap")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        contexts = [
            " ".join(f"w{t}" for t in rng.integers(0, 9, size=c + n - 1 if c else 0))
            for c in [*counts, 0, longest, longest - 1]
        ]
        corpus = corpus_of(*(c for c in contexts for _ in range(int(rng.integers(1, 4)))))
        matrix = build_matrix(fit_density(corpus, n), l_cap=l_cap)
        X = matrix.values
        assert X.shape[1] == min(longest, l_cap or longest) and (X == 0).all(axis=1).any()
        if l_cap is not None:
            assert matrix.truncated.any()

        moments = fit_moments(matrix)
        assert (moments.sigma == moments.sigma.T).all()
        mu = X.sum(axis=0) / len(X)
        centered = X - mu
        dense = centered.T @ centered / (len(X) - 1)
        np.testing.assert_allclose(moments.mu, mu, rtol=1e-12, atol=0)
        # Entries that cancel to zero are exact on one side and rounding residue
        # (about 1e-17 of the largest entry) on the other, so rtol alone fails them.
        np.testing.assert_allclose(moments.sigma, dense, rtol=1e-12, atol=1e-15 * np.abs(dense).max())

        model = regularized_factorize(moments)
        scores = score_all(model, matrix).scores
        oracle = reference_triangular_scores(model.factor, model.mu, X)
        np.testing.assert_allclose(scores, oracle, rtol=1e-9, atol=0)

    def test_peak_memory_below_one_records_matrix(self):
        # 150 distinct contexts of up to 200 tokens, each repeated 8 times:
        # density fit, featurization and moments together hold sigma, at
        # most one more L x L product, and a few arrays the size of the
        # stored content; never a records x L array.
        contexts = list(make_synthetic_corpus(150, vocab_size=300, min_tokens=150, max_tokens=200, seed=15).contexts)
        corpus = corpus_of(*(c for c in contexts for _ in range(8)))
        tracemalloc.start()
        try:
            matrix = build_matrix(fit_density(corpus, 1))
            fit_moments(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        d, content = matrix.width, matrix.content.nbytes
        assert len(matrix.index) == 1200 and d > 150
        bound = 2 * d * d * 8 + 4 * content
        assert peak <= bound, f"peak {peak} bytes > {bound} (2 L x L + 4 x {content} content bytes)"
        assert bound < len(matrix.index) * d * 8


class TestRegularizedFactorize:
    def test_identity_succeeds_at_zero(self):
        moments = Moments(mu=np.zeros(3), sigma=np.eye(3), n=10)
        out = regularized_factorize(moments)
        assert out.epsilon == 0.0
        assert (out.factor == np.eye(3)).all()

    def test_all_zeros_is_singular(self):
        moments = Moments(mu=np.zeros(2), sigma=np.zeros((2, 2)), n=5)
        with pytest.raises(SingularityError) as exc:
            regularized_factorize(moments)
        assert exc.value.last_epsilon == 0.0

    def test_rank_deficient_escalates(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        moments = Moments(mu=np.zeros(4), sigma=np.outer(v, v), n=9)
        out = regularized_factorize(moments)
        assert out.epsilon > 0.0

    def test_fixed_epsilon(self):
        moments = Moments(mu=np.zeros(2), sigma=np.zeros((2, 2)), n=5)
        out = regularized_factorize(moments, fixed=0.5)
        assert out.epsilon == 0.5

    @pytest.mark.parametrize("field, value", [("fixed", float("nan")), ("fixed", float("inf")), ("fixed", -0.1)])
    def test_invalid_policy_rejected(self, field, value):
        moments = Moments(mu=np.zeros(2), sigma=np.eye(2), n=5)
        with pytest.raises(ValueError, match=field):
            regularized_factorize(moments, **{field: value})
        assert (moments.sigma == np.eye(2)).all()

    def test_fixed_epsilon_can_fail(self):
        moments = Moments(mu=np.zeros(2), sigma=-np.eye(2), n=5)
        with pytest.raises(SingularityError):
            regularized_factorize(moments, fixed=0.0)

    def test_factor_is_sigma_at_zero_epsilon(self):
        moments = dense_moments(np.random.default_rng(41).normal(size=(30, 6)))
        oracle = reference_shifted_cholesky(moments.sigma, 0.0)
        out = regularized_factorize(moments)
        assert out.epsilon == 0.0
        assert np.shares_memory(out.factor, moments.sigma)
        assert out.factor.tobytes() == oracle.tobytes()

    def test_shift_matches_copy_and_factor_is_sigma(self):
        # Epsilon = 0 fails on the zero row, so the factor comes from a
        # shifted diagonal, factored in sigma's own buffer.
        moments = singular_moments(np.random.default_rng(42), 40, 8)
        before = moments.sigma.copy()
        out = regularized_factorize(moments)
        assert out.epsilon > 0.0
        assert np.shares_memory(out.factor, moments.sigma)
        assert out.factor.tobytes() == reference_shifted_cholesky(before, out.epsilon).tobytes()

    def test_sigma_restored_before_each_attempt(self, monkeypatch):
        # Column 0 is eliminated last, in the third panel, so every failed
        # attempt has overwritten the upper triangle of the two panels after
        # it.  Its Schur complement is -30 base: epsilon = 0, base and 10 base
        # fail there, and 100 base succeeds.
        d = 2 * _PANEL + 22
        sigma = dense_moments(np.random.default_rng(46).normal(size=(2 * d, d))).sigma
        pivot = reference_shifted_cholesky(sigma, 0.0)[0, 0] ** 2
        base = reference_epsilon_schedule(float(np.trace(sigma) - pivot), d)[1]
        sigma[0, 0] -= pivot + 30 * base
        before = sigma.copy()
        schedule = reference_epsilon_schedule(float(np.trace(sigma)), d)

        snapshots, outcomes = [], []
        cholesky = np.linalg.cholesky

        def spy(a):  # snapshots sigma as each attempt factors its first panel
            if not outcomes or outcomes[-1] == "failed":
                snapshots.append(sigma.copy())
            try:
                out = cholesky(a)
            except np.linalg.LinAlgError:
                outcomes.append("failed")
                raise
            outcomes.append("ok")
            return out

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        model = regularized_factorize(Moments(mu=np.zeros(d), sigma=sigma, n=2 * d))
        monkeypatch.undo()
        assert model.epsilon == schedule[3]
        assert outcomes.count("failed") == 3 and len(snapshots) == 4
        off = ~np.eye(d, dtype=bool)
        for eps, seen in zip(schedule, snapshots):
            assert seen[off].tobytes() == before[off].tobytes()
            assert seen.diagonal().tobytes() == (before.diagonal() + eps).tobytes()
        assert np.shares_memory(model.factor, sigma)
        oracle = reference_shifted_cholesky(before, model.epsilon)
        np.testing.assert_allclose(model.factor, oracle, rtol=1e-10, atol=1e-15 * np.abs(oracle).max())

    def test_sigma_unchanged_after_singularity_error(self):
        # No shrinkage in the schedule makes sigma positive definite: sigma[0, 0]
        # is minus half the trace, and the largest shift is the trace over d.
        # So each of the 10 attempts fails in the last panel, after the
        # others are overwritten.
        d = 2 * _PANEL + 22
        A = np.random.default_rng(43).normal(size=(d, d))
        sigma = A @ A.T
        sigma = np.triu(sigma) + np.triu(sigma, 1).T
        sigma[0, 0] = -np.trace(sigma) / 2
        before = sigma.tobytes()
        with pytest.raises(SingularityError) as exc:
            regularized_factorize(Moments(mu=np.zeros(d), sigma=sigma, n=9))
        assert exc.value.last_epsilon == reference_epsilon_schedule(float(np.trace(sigma)), d)[-1] > 0.0
        assert sigma.tobytes() == before

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 2, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1, 3 * _PANEL - 1, 200]),
        kind=st.sampled_from(["full", "constant columns", "low rank"]),
        seed=st.integers(0, 2**16),
    )
    def test_factor_matches_flipped_cholesky(self, d, kind, seed):
        # Constant columns are the zero-padded positions of real corpora:
        # epsilon > 0, and the rest of sigma is well conditioned, so U
        # matches the oracle entry by entry.  A low-rank sigma + epsilon I
        # has a condition number near 1e8 d, where no two factorizations
        # agree to 1e-10 (this one and the oracle's differed by up to 2e-4
        # relative), so there U U^T is checked against sigma + epsilon I.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2 if kind == "low rank" else 2 * d + 8, d)) * rng.lognormal(0, 1, size=d)
        if kind == "constant columns":
            X[:, rng.random(d) < 0.2] = 1.0
        moments = dense_moments(X)
        sigma = moments.sigma.copy()
        schedule = reference_epsilon_schedule(float(np.trace(sigma)), d)
        expected = None
        for eps in schedule:
            try:
                oracle = reference_shifted_cholesky(sigma, eps)
            except np.linalg.LinAlgError:
                continue
            expected = eps
            break
        if expected is None:
            with pytest.raises(SingularityError):
                regularized_factorize(moments)
            assert moments.sigma.tobytes() == sigma.tobytes()
            return
        model = regularized_factorize(moments)
        assert model.epsilon == expected
        assert (np.tril(model.factor, -1) == 0.0).all()
        if kind == "low rank" and d > _PANEL:
            shifted = sigma + expected * np.eye(d)
            residual = model.factor @ model.factor.T - shifted
            assert np.abs(residual).max() <= 1e-15 * d * np.abs(shifted).max()
        else:  # an entry that cancels to near 0 keeps the rounding of the terms it came from
            np.testing.assert_allclose(model.factor, oracle, rtol=1e-10, atol=1e-15 * np.abs(oracle).max())

    def test_integer_sigma_is_shifted_in_float64(self):
        # Writing epsilon onto an integer diagonal would truncate it to 0.
        sigma = np.array([[1, 1], [1, 1]])
        out = regularized_factorize(Moments(mu=np.zeros(2), sigma=sigma, n=5))
        assert out.epsilon == reference_epsilon_schedule(2.0, 2)[1]
        assert sigma.tolist() == [[1, 1], [1, 1]]

    def test_factorized_model_drops_sigma(self):
        moments = Moments(mu=np.arange(3.0), sigma=np.eye(3), n=10)
        model = regularized_factorize(moments)
        assert isinstance(model, MomentModel)
        assert [f.name for f in dataclasses.fields(model)] == ["mu", "factor", "n", "epsilon"]
        assert model.mu is moments.mu and model.n == 10 and model.epsilon == 0.0

    def test_peak_memory_below_a_quarter_of_sigma(self):
        # U is built in sigma's buffer.  Column 0 is constant, so epsilon = 0
        # fails in the last panel and every other panel is restored from the
        # lower triangle; the stage then allocates a panel's product, a
        # solve's right-hand sides and a few vectors, never a d x d matrix.
        d = 1000
        X = np.random.default_rng(45).normal(size=(d + 100, d))
        X[:, 0] = 1.0
        moments = dense_moments(X)
        del X
        tracemalloc.start()
        try:
            out = regularized_factorize(moments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.epsilon > 0.0
        assert peak < d * d * 8 / 4, f"peak {peak} bytes >= a quarter of a d x d matrix"


class TestScore:
    """score_all on hand-made models and one-row matrices."""

    def test_row_at_mean_is_zero(self):
        # The third row is the mean, 2 / T, which s / (n T) = 6 / (3 T) rounds to.
        matrix = count_matrix([[1, 3], [3, 1], [2, 2]], TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        assert score_all(model, matrix).scores[2] == 0.0

    def test_identity_covariance_is_squared_euclidean(self):
        model = regularized_factorize(Moments(mu=np.zeros(2), sigma=np.eye(2), n=10))
        assert score_all(model, count_matrix([[3, 4]], 1)).scores[0] == pytest.approx(25.0, rel=1e-12)

    def test_diagonal_covariance_hand_oracle(self):
        model = regularized_factorize(
            Moments(mu=np.array([1.0, 1.0]), sigma=np.diag([2.0, 8.0]), n=10)
        )
        # (2^2)/2 + (4^2)/8 = 4
        assert score_all(model, count_matrix([[3, 5]], 1)).scores[0] == pytest.approx(4.0, rel=1e-12)

    def test_dimension_mismatch(self):
        model = regularized_factorize(Moments(mu=np.zeros(2), sigma=np.eye(2), n=10))
        with pytest.raises(ValueError):
            score_all(model, count_matrix(np.ones((1, 3)), 1))

    def test_non_finite_rejected(self):
        # A matrix holds int64 counts, which cannot be NaN; float content is refused.
        with pytest.raises(ValueError, match="int64 counts"):
            FeatureMatrix(np.array([np.nan, 0.0]), np.array([0]), 2, np.array([2]), 1)


class TestScoreAll:
    def test_identical_rows_all_zero(self):
        matrix = count_matrix(np.tile([2, 3], (6, 1)), TOTAL)
        model = regularized_factorize(fit_moments(matrix), fixed=0.5)
        sv = score_all(model, matrix)
        assert (sv.scores == 0).all()
        assert model.epsilon == 0.5

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        matrix, model = random_model(rng, 40, 6)
        assert model.epsilon == 0.0
        sv = score_all(model, matrix)
        assert sv.scores.mean() == pytest.approx(6 * 39 / 40, rel=1e-8)

    def test_matches_per_row_score_exactly(self):
        rng = np.random.default_rng(6)
        counts = random_counts(rng, 30, 5)
        matrix = count_matrix(counts, TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        sv = score_all(model, matrix)
        per_row = np.array([score_all(model, count_matrix(counts[t : t + 1], TOTAL)).scores[0] for t in range(30)])
        assert (sv.scores == per_row).all()

    def test_threads_bitwise_identical(self):
        rng = np.random.default_rng(7)
        matrix, model = random_model(rng, 3000, 4)
        a = score_all(model, matrix, threads=1)
        b = score_all(model, matrix, threads=4)
        assert a.scores.tobytes() == b.scores.tobytes()

    def test_deduplicated_matrix_matches_expanded(self):
        # 40 distinct contexts, each repeated 1-5 times in shuffled order.
        rng = np.random.default_rng(9)
        distinct = list(make_synthetic_corpus(40, vocab_size=25, min_tokens=3, max_tokens=30, seed=9).contexts)
        records = [c for c in distinct for _ in range(int(rng.integers(1, 6)))]
        records = [records[i] for i in rng.permutation(len(records))]
        corpus = corpus_of(*records)
        matrix = build_matrix(fit_density(corpus, 2))
        assert len(matrix.ngram_counts) == 40 < len(matrix.index)
        model = regularized_factorize(fit_moments(matrix))
        dedup = score_all(model, matrix).scores
        expanded = count_matrix(matrix.dense(matrix.width, matrix.index), matrix.total)
        assert dedup.tobytes() == score_all(model, expanded).scores.tobytes()
        for context in distinct:
            shared = dedup[[i for i, c in enumerate(records) if c == context]]
            assert (shared == shared[0]).all()

    def test_column_mismatch(self):
        rng = np.random.default_rng(8)
        _, model = random_model(rng, 10, 3)
        with pytest.raises(ValueError):
            score_all(model, count_matrix(np.ones((4, 2)), TOTAL))


class TestBlockedSubstitution:
    """score_all substitutes all rows at once; each row's bits must not depend on the others."""

    @staticmethod
    def assert_rows_independent(model, counts, total, rng) -> np.ndarray:
        # Alone, in a permuted batch, in a random subset and from a content
        # buffer offset by one int64, every row gets the same bits.
        matrix = count_matrix(counts, total)
        full = score_all(model, matrix).scores
        n = len(counts)
        for r in rng.choice(n, size=min(n, 3), replace=False):
            assert score_all(model, count_matrix(counts[r : r + 1], total)).scores.tobytes() == full[r : r + 1].tobytes()
        perm = rng.permutation(n)
        assert score_all(model, count_matrix(counts[perm], total)).scores.tobytes() == full[perm].tobytes()
        subset = np.flatnonzero(rng.random(n) < 0.5)
        assert score_all(model, count_matrix(counts[subset], total)).scores.tobytes() == full[subset].tobytes()
        shifted = np.empty(len(matrix.content) + 1, dtype=np.int64)[1:]
        shifted[:] = matrix.content
        assert score_all(model, dataclasses.replace(matrix, content=shifted)).scores.tobytes() == full.tobytes()
        return full

    @pytest.mark.parametrize("d", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 61, 401])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_independent_and_match_triangular_oracle(self, d, seed):
        rng = np.random.default_rng(seed)
        counts = random_counts(rng, 2 * d + 8, d)
        matrix = count_matrix(counts, TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        assert model.epsilon == 0.0
        full = self.assert_rows_independent(model, counts, TOTAL, rng)
        oracle = reference_triangular_scores(model.factor, model.mu, matrix.values)
        np.testing.assert_allclose(full, oracle, rtol=1e-10, atol=0)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2 * _BLOCK + 12, 5 * _BLOCK),
        interior_zeros=st.sampled_from([0.0, 0.3]),
    )
    def test_zero_padded_rows_of_mixed_lengths(self, seed, d, interior_zeros):
        # Each row is nonzero only over its first l positions, l on and
        # around block edges.  Three rows reach d, so the padded tail is rank
        # deficient and epsilon > 0, as on a long-tail corpus.  Some rows
        # have zeros inside their length, as unseen n-grams give under a
        # foreign density table.
        rng = np.random.default_rng(seed)
        lengths = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
        lengths = rng.permutation(np.append(rng.choice(lengths, size=3 * d - 3), [d, d, d]))
        counts = random_counts(rng, 3 * d, d, low=1)
        counts[np.arange(d) >= lengths[:, None]] = 0
        counts[rng.random(counts.shape) < interior_zeros] = 0
        matrix = count_matrix(counts, TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        assert model.epsilon > 0.0
        full = self.assert_rows_independent(model, counts, TOTAL, rng)
        X = matrix.values
        np.testing.assert_allclose(full, reference_triangular_scores(model.factor, model.mu, X), rtol=1e-10, atol=0)
        np.testing.assert_allclose(full, reference_scores(X, epsilon=model.epsilon), rtol=1e-6, atol=0)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_long_tail_positive_epsilon_matches_inverse_oracle(self, seed):
        corpus = long_tail_corpus(seed)
        matrix = build_matrix(fit_density(corpus, 1))
        model = regularized_factorize(fit_moments(matrix))
        assert model.epsilon > 0.0
        counts = matrix.dense(matrix.width, np.arange(len(matrix.ngram_counts))).astype(np.int64)
        self.assert_rows_independent(model, counts, matrix.total, np.random.default_rng(seed))
        ref = reference_scores(matrix.values, epsilon=model.epsilon)
        np.testing.assert_allclose(score_all(model, matrix).scores, ref, rtol=1e-6, atol=0)

    def test_peak_memory_one_deviation_buffer(self):
        # 150 distinct contexts of up to 200 tokens, each repeated 8 times:
        # scoring holds one buffer per block-count group, each as wide as its
        # rows' last block, and block-sized temporaries; never a records x d
        # or a d x d array.
        contexts = list(make_synthetic_corpus(150, vocab_size=300, min_tokens=150, max_tokens=200, seed=15).contexts)
        corpus = corpus_of(*(c for c in contexts for _ in range(8)))
        matrix = build_matrix(fit_density(corpus, 1))
        model = regularized_factorize(fit_moments(matrix))
        tracemalloc.start()
        try:
            score_all(model, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, d = len(matrix.ngram_counts), matrix.width
        assert rows == 150 and d > 150
        buffers = sum(8 * (group.stop - group.start) * W for group, W in _groups(matrix)[1])
        bound = buffers + 6 * 8 * _BLOCK * rows + 8 * len(matrix.index)
        assert buffers < 8 * rows * d
        assert peak <= bound, f"peak {peak} bytes > {bound} ({buffers} bytes of group buffers + block temporaries)"


class TestProperties:
    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, d = int(rng.integers(5, 40)), int(rng.integers(2, 8))
            matrix, model = random_model(rng, n, d)
            assert (score_all(model, matrix).scores >= 0).all()

    def test_scale_invariance_at_zero_epsilon(self):
        # Counts times c, over the same total, scale every density by c.
        rng = np.random.default_rng(22)
        counts = random_counts(rng, 35, 5)
        matrix = count_matrix(counts, TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        assert model.epsilon == 0.0
        base = score_all(model, matrix).scores
        for c in (2, 3, 100):
            scaled_matrix = count_matrix(c * counts, TOTAL)
            scaled_model = regularized_factorize(fit_moments(scaled_matrix))
            assert scaled_model.epsilon == 0.0
            scaled = score_all(scaled_model, scaled_matrix).scores
            np.testing.assert_allclose(scaled, base, rtol=1e-8, atol=1e-12)

    def test_rank_order_invariant_under_translation(self):
        rng = np.random.default_rng(23)
        counts = random_counts(rng, 30, 4, low=1)
        matrix = count_matrix(counts, TOTAL)
        model = regularized_factorize(fit_moments(matrix))
        shifted = count_matrix(counts + rng.integers(0, 1000, size=4), TOTAL)
        shifted_model = regularized_factorize(fit_moments(shifted))
        a = score_all(model, matrix).scores
        b = score_all(shifted_model, shifted).scores
        assert np.argsort(a, kind="stable").tolist() == np.argsort(b, kind="stable").tolist()

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n, d = int(rng.integers(5, 50)), int(rng.integers(2, 8))
            matrix, model = random_model(rng, max(n, d + 2), d)
            ours = score_all(model, matrix).scores
            np.testing.assert_allclose(ours, reference_scores(matrix.values), rtol=1e-8, atol=1e-12)


class TestPersistence:
    def test_model_bytes_are_mu_then_factor(self, tmp_path):
        model = regularized_factorize(dense_moments(np.random.default_rng(33).normal(size=(12, 4))))
        save_model(model, tmp_path / "m.bin", tmp_path / "m.json")
        parts = [model.mu, model.factor]
        want = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in parts)
        assert (tmp_path / "m.bin").read_bytes() == want

    @pytest.mark.parametrize("damage", [
        "truncated", "oversized", "no-d", "no-n", "d-not-int", "not-json",
        'epsilon="abc"', "epsilon=[1]", 'epsilon="1e-3"', "epsilon=null", "epsilon=-1e-12",
        "factor=null", 'factor="yes"', 'factor="lower"', 'factor="Upper"', "factor=true", "factor=1", "old-sidecar",
    ])
    def test_damaged_model_raises_schema_error(self, tmp_path, damage):
        _, model = random_model(np.random.default_rng(34), 20, 3)
        bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
        save_model(model, bin_path, json_path)
        sidecar = json.loads(json_path.read_text())
        if damage == "truncated":
            bin_path.write_bytes(bin_path.read_bytes()[:-8])
        elif damage == "oversized":
            bin_path.write_bytes(bin_path.read_bytes() + bytes(8))
        elif damage == "not-json":
            json_path.write_text(json_path.read_text()[:-5])
        elif damage == "old-sidecar":
            # Written before the factor was upper: its binary holds a lower one.
            del sidecar["factor"]
            sidecar["has_factor"] = True
            json_path.write_text(json.dumps(sidecar))
        elif "=" in damage:
            key, value = damage.split("=")
            sidecar[key] = json.loads(value)
            json_path.write_text(json.dumps(sidecar))
        else:
            if damage == "d-not-int":
                sidecar["d"] = "3"
            else:
                del sidecar[damage.removeprefix("no-")]
            json_path.write_text(json.dumps(sidecar))
        with pytest.raises(SchemaError):
            load_model(bin_path, json_path)

    @pytest.mark.parametrize("index, value", [
        (1, np.nan),                 # mu[1]
        (3 + 1, np.inf),             # U[0, 1]
        (3 + 3 * 3 - 1, -np.inf),    # U[2, 2]
        (3 + 0, 0.0),                # U[0, 0]
        (3 + 4, -0.5),               # U[1, 1]
    ])
    def test_damaged_model_values_raise_schema_error(self, tmp_path, index, value):
        # No factorization gives a non-finite value or a diagonal entry <= 0;
        # loading one would make every score NaN.
        _, model = random_model(np.random.default_rng(37), 20, 3)
        bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
        save_model(model, bin_path, json_path)
        assert (model.factor.diagonal() > 0).all()
        values = np.fromfile(bin_path, dtype="<f8")
        values[index] = value
        values.tofile(bin_path)
        with pytest.raises(SchemaError, match="non-finite value or a factor diagonal entry <= 0"):
            load_model(bin_path, json_path)

    def test_layout_with_sigma_and_factor_raises_schema_error(self, tmp_path):
        # The earlier layout, mu then sigma then factor, is 8 * (d + 2 d^2) bytes.
        unfactorized = dense_moments(np.random.default_rng(35).normal(size=(20, 3)))
        sigma = unfactorized.sigma.copy()
        model = regularized_factorize(unfactorized)
        bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
        save_model(model, bin_path, json_path)
        bin_path.write_bytes(b"".join(a.astype("<f8").tobytes() for a in (model.mu, sigma, model.factor)))
        assert bin_path.stat().st_size == 8 * (3 + 2 * 9)
        with pytest.raises(SchemaError, match="needs 96"):
            load_model(bin_path, json_path)

    def test_load_peak_memory_one_copy_of_the_model(self, tmp_path):
        d = 300
        _, model = random_model(np.random.default_rng(36), 2 * d, d)
        save_model(model, tmp_path / "m.bin", tmp_path / "m.json")
        tracemalloc.start()
        try:
            back = load_model(tmp_path / "m.bin", tmp_path / "m.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.factor.tobytes() == model.factor.tobytes()
        assert peak < 1.5 * 8 * (d + d * d), f"peak {peak} bytes >= 1.5 copies of the model"

    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        _, model = random_model(rng, 20, 3)
        save_model(model, tmp_path / "m.bin", tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text()) == {
            "n": model.n, "d": model.d, "epsilon": model.epsilon, "factor": "upper",
        }
        back = load_model(tmp_path / "m.bin", tmp_path / "m.json")
        assert back.mu.tobytes() == model.mu.tobytes()
        assert back.factor.tobytes() == model.factor.tobytes()
        assert back.epsilon == model.epsilon
        assert back.n == model.n
        # A sidecar written when it still carried feature_config_hash loads the same model.
        sidecar = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "m.json").write_text(json.dumps({**sidecar, "feature_config_hash": "sha256:x"}))
        assert load_model(tmp_path / "m.bin", tmp_path / "m.json").factor.tobytes() == model.factor.tobytes()

    def test_scores_csv_round_trip(self, tmp_path):
        corpus = corpus_of("a b", "c d e", "f")
        sv = ScoreVector(scores=np.array([0.1, 1 / 3, 2.5e-17]))
        write_scores_csv(sv, corpus, tmp_path / "s.csv")
        # Reading back checks each row's id and char length against the corpus.
        back = read_scores_csv((tmp_path / "s.csv").read_bytes(), corpus)
        assert back.tobytes() == sv.scores.tobytes()

    @pytest.mark.parametrize("row", [
        "1,ex-1,5",              # three columns
        "1,ex-1,5,0.5,extra",    # five columns
        "one,ex-1,5,0.5",        # non-integer ordinal
        "1,ex-1,5.0,0.5",        # non-integer char_length
        "1,ex-1,5,high",         # non-float score
        "2,ex-1,5,0.5",          # ordinal out of order
    ])
    def test_malformed_scores_csv_raises_schema_error(self, row):
        data = f"ordinal,id,char_length,score\n0,ex-0,3,0.1\n{row}\n".encode("utf-8")
        with pytest.raises(SchemaError, match="s.csv line 3"):
            read_scores_csv(data, corpus_of("a b", "c d e"), "s.csv")
