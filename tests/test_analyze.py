from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from abnormality.analyze import emit_report, histogram, moments_stats, pearson
from abnormality.errors import StatError
from abnormality.featurize import build_matrix, fit_density
from abnormality.mahalanobis import ScoreVector, fit_moments, regularized_factorize, score_all
from abnormality.sampler import SelectionSpec, select_global

from conftest import corpus_of, make_synthetic_corpus
from oracles import reference_histogram_counts, reference_moments


# Prints, as hex, the moments and the correlation of 18,000 seeded values.
# OpenBLAS threads a dot product above 10,000 elements, so a BLAS reduction
# would print different bits at 1 and at 2 BLAS threads.
_STATS_PROBE = """
import json
import numpy as np
from abnormality.analyze import moments_stats, pearson
rng = np.random.default_rng(17)
x = rng.exponential(size=18_000)
y = rng.integers(50, 900, size=18_000).astype(np.float64)
stats = moments_stats(x)
values = [stats.mean, stats.variance, stats.skewness, stats.excess_kurtosis, pearson(y, x)]
print(json.dumps([v.hex() for v in values]))
"""


def stats_at_blas_threads(threads: int) -> list[float]:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-c", _STATS_PROBE], env=env, capture_output=True, text=True, check=True)
    return [float.fromhex(v) for v in json.loads(done.stdout)]


def test_stats_bitwise_equal_at_any_blas_thread_count():
    one = stats_at_blas_threads(1)
    assert stats_at_blas_threads(2) == one
    rng = np.random.default_rng(17)
    x = rng.exponential(size=18_000)
    y = rng.integers(50, 900, size=18_000).astype(np.float64)
    ref = reference_moments(x)
    assert one[:4] == pytest.approx([ref["mean"], ref["variance"], ref["skewness"], ref["excess_kurtosis"]], rel=1e-12)
    assert one[4] == pytest.approx(scipy_stats.pearsonr(y, x)[0], rel=1e-9)


class TestMomentsStats:
    def test_constant_values_undefined_shape(self):
        stats = moments_stats([3.0, 3.0, 3.0])
        assert stats.variance == 0.0
        assert stats.skewness is None
        assert stats.excess_kurtosis is None

    def test_two_point_hand_oracle(self):
        stats = moments_stats([-1.0, 1.0])
        assert stats.mean == 0.0
        assert stats.variance == 2.0
        assert stats.skewness == 0.0

    def test_normal_sample_kurtosis_near_zero(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(100_000)
        stats = moments_stats(x)
        assert abs(stats.excess_kurtosis) < 0.1
        assert abs(stats.skewness) < 0.05

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(41)
        x = rng.exponential(size=500)
        stats = moments_stats(x)
        ref = reference_moments(x)
        assert stats.skewness == pytest.approx(ref["skewness"], rel=1e-9)
        assert stats.excess_kurtosis == pytest.approx(ref["excess_kurtosis"], rel=1e-9)
        assert stats.variance == pytest.approx(ref["variance"], rel=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, size=2000)
        stats = moments_stats(x)
        assert stats.skewness == pytest.approx(scipy_stats.skew(x), rel=1e-9)
        assert stats.excess_kurtosis == pytest.approx(scipy_stats.kurtosis(x), rel=1e-9)

    def test_too_few(self):
        with pytest.raises(StatError):
            moments_stats([1.0])

    @pytest.mark.parametrize("largest", [2e80, 1e200])
    def test_overflowing_moments_raise_stat_error(self, largest):
        # A damaged scores.csv can hold any finite score.  At 2e80 the
        # variance is finite but m2**2 overflows; at 1e200 the squares do.
        with pytest.raises(StatError, match="overflow"):
            moments_stats([0.0, largest])

    def test_min_max(self):
        stats = moments_stats([5.0, -2.0, 3.0])
        assert stats.min == -2.0 and stats.max == 5.0


class TestHistogram:
    def test_degenerate_range_all_in_final_bin(self):
        h = histogram([4.0, 4.0, 4.0], bins=3)
        assert h.counts.tolist() == [0, 0, 3]
        assert (np.diff(h.bin_edges) > 0).all()
        assert h.bin_edges[-1] == 4.0
        assert h.bin_edges.tolist() == np.linspace(3.0, 4.0, 4).tolist()

    def test_forced_edges(self):
        h = histogram([0.0, 1.0, 2.0, 3.0], bins=2)
        assert h.counts.tolist() == [2, 2]

    def test_conservation_random(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=777)
        h = histogram(x, bins=13)
        assert h.counts.sum() == 777

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(0, 10, size=200)
        h = histogram(x, bins=7)
        assert h.counts.tolist() == reference_histogram_counts(x, h.bin_edges)

    def test_final_bin_right_closed(self):
        h = histogram([0.0, 1.0], bins=2)
        assert h.counts.tolist() == [1, 1]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)
        with pytest.raises(ValueError, match="bins"):  # np.linspace would get 2**63 edges
            histogram([1.0], bins=2**63 - 1)

    def test_empty(self):
        with pytest.raises(StatError):
            histogram([], bins=3)


class TestPearson:
    def test_perfect_positive(self):
        xs = np.arange(10.0)
        assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        xs = np.arange(5.0)
        assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_oracle_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, rel=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(45)
        x, y = rng.normal(size=300), rng.normal(size=300)
        assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y).statistic, rel=1e-10)

    def test_constant_input_undefined(self):
        with pytest.raises(StatError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(46)
        x, y = rng.normal(size=100), rng.normal(size=100)
        r = pearson(x, y)
        assert pearson(3.5 * x + 11.0, y) == pytest.approx(r, abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(47)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert pearson(x, y) == pearson(y, x)

    def test_bounds_clamped(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=40)
        assert -1.0 <= pearson(x, x) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("xs, ys", [
        pytest.param([0.0, 1e100, 2e100], [0.0, 1e100, 2e100], id="sxx*syy"),
        pytest.param([1.0, 2.0, 3.0], [0.0, 1e160, 2e160], id="yc*yc"),
    ])
    def test_overflowing_sums_raise_stat_error(self, xs, ys):
        # Correlated data must not read as r = 0, nor warn; the CLI records a StatError as null.
        with warnings.catch_warnings(), pytest.raises(StatError, match="overflow"):
            warnings.simplefilter("error")
            pearson(xs, ys)


UNSELECTED = ["unselected"] * 6


def scored_fixture():
    corpus = corpus_of("a a b", "a b c d", "b c", "a c d e f", "f g", "a b")
    scores = ScoreVector(scores=np.array([0.5, 2.0, 1.0, 6.0, 3.0, 1.5]))
    return corpus, scores


class TestEmitReport:
    def test_files_and_summary_fields(self, tmp_path):
        corpus, scores = scored_fixture()
        stats = moments_stats(scores)
        labels = select_global(scores, SelectionSpec(k_low=1, k_high=1, k_mean=1)).labels
        manifest = emit_report(
            corpus, scores, labels, stats, {1: 0.8, 3: None}, tmp_path, bins=4,
            dimension=7, epsilon=0.25, input_hashes={"corpus": "sha256:abc"},
        )
        for name in ("scores.csv", "histogram.csv", "summary.json", "manifest.json"):
            assert (tmp_path / name).is_file()
            assert name in {**manifest["files"], "manifest.json": ""}

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n"] == 6
        assert summary["dimension"] == 7
        assert summary["epsilon"] == 0.25
        assert summary["score_stats"]["excess_kurtosis"] is not None
        assert summary["pearson_by_order"] == {"1": 0.8, "3": None}
        assert summary["exemplars"]["lowest"]["ordinal"] == 0
        assert summary["exemplars"]["highest"]["ordinal"] == 3
        assert summary["exemplars"]["highest"]["title"] == "t3"
        # mean = 14/6 = 2.333; nearest is 2.0 at ordinal 1
        assert summary["exemplars"]["mean_nearest"]["ordinal"] == 1
        assert manifest["inputs"] == {"corpus": "sha256:abc"}

    def test_category_column(self, tmp_path):
        corpus, scores = scored_fixture()
        stats = moments_stats(scores)
        labels = select_global(scores, SelectionSpec(k_low=2, k_high=2, k_mean=2)).labels
        emit_report(corpus, scores, labels, stats, {}, tmp_path)
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        assert rows[0] == "ordinal,id,title,char_length,score,category"
        categories = [r.split(",")[-1] for r in rows[1:]]
        assert categories.count("low") == 2
        assert categories.count("high") == 2
        assert categories.count("mutual") == 2

    def test_no_selection_all_unselected(self, tmp_path):
        corpus, scores = scored_fixture()
        stats = moments_stats(scores)
        emit_report(corpus, scores, UNSELECTED, stats, {}, tmp_path)
        rows = (tmp_path / "scores.csv").read_text().splitlines()[1:]
        assert all(r.endswith(",unselected") for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        corpus, scores = scored_fixture()
        stats = moments_stats(scores)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_report(corpus, scores, UNSELECTED, stats, {1: 0.5}, a)
        emit_report(corpus, scores, UNSELECTED, stats, {1: 0.5}, b)
        for name in ("scores.csv", "histogram.csv", "summary.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_histogram_csv_consistent(self, tmp_path):
        corpus, scores = scored_fixture()
        stats = moments_stats(scores)
        emit_report(corpus, scores, UNSELECTED, stats, {}, tmp_path, bins=5)
        rows = (tmp_path / "histogram.csv").read_text().splitlines()
        assert rows[0] == "bin_left,bin_right,count"
        assert sum(int(r.split(",")[2]) for r in rows[1:]) == 6

    def test_inconsistent_sizes(self, tmp_path):
        corpus, _ = scored_fixture()
        bad = ScoreVector(scores=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            emit_report(corpus, bad, ["unselected"] * 2, moments_stats(bad), {}, tmp_path)

    def test_labels_of_another_length(self, tmp_path):
        corpus, scores = scored_fixture()
        with pytest.raises(ValueError, match="labels length 5"):
            emit_report(corpus, scores, UNSELECTED[:5], moments_stats(scores), {}, tmp_path)
        assert not any(tmp_path.iterdir())


class TestLengthScoreCorrelation:
    def test_padding_couples_length_and_score(self):
        corpus = make_synthetic_corpus(800, vocab_size=200, min_tokens=20, max_tokens=400, seed=7)
        table = fit_density(corpus, 1)
        matrix = build_matrix(table)
        model = regularized_factorize(fit_moments(matrix))
        scores = score_all(model, matrix, threads=2)
        lengths = corpus.char_lengths().astype(np.float64)
        r = pearson(lengths, scores.scores)
        r_scipy = scipy_stats.pearsonr(lengths, scores.scores).statistic
        assert r == pytest.approx(r_scipy, rel=1e-9)
        assert r > 0.3
