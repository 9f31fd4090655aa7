"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -s -v``).

Tolerances are pinned here and nowhere else.  The SQuAD-scale check is
optional and runs only when ABNORMALITY_SQUAD_TRAIN points at a SQuAD v1.1
train file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from abnormality.analyze import pearson
from abnormality.cli import main
from abnormality.corpus import ingest_file, write_subset
from abnormality.featurize import build_matrix, fit_density
from abnormality.mahalanobis import fit_moments, regularized_factorize, score_all
from abnormality.sampler import SelectionSpec, select_global

from conftest import corpus_of, long_tail_corpus, make_synthetic_corpus
from oracles import count_matrix, reference_labels, reference_scores, reference_selection


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# Divisible by 3 and by 100, so that the scale test can divide it by both.
TOTAL = 3000


def full_rank_instance(rng):
    """n random counts in each of d columns, over TOTAL."""
    d = int(rng.integers(2, 9))
    n = int(rng.integers(max(5, d + 2), 51))
    return count_matrix(rng.integers(0, 1000, size=(n, d)), TOTAL)


def test_mahalanobis_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        matrix = full_rank_instance(rng)
        model = regularized_factorize(fit_moments(matrix))
        ours = score_all(model, matrix).scores
        ref = reference_scores(matrix.values)
        worst = max(worst, float(np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-300))))
    elapsed = time.perf_counter() - start
    check(
        "mahalanobis oracle equivalence (200 instances, rtol 1e-8)",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_mahalanobis_oracle_equivalence_at_positive_epsilon():
    worst = 0.0
    epsilons = []
    for seed in range(3):
        corpus = long_tail_corpus(seed)
        matrix = build_matrix(fit_density(corpus, 1))
        assert len(matrix.ngram_counts) < len(matrix.index)
        model = regularized_factorize(fit_moments(matrix))
        epsilons.append(model.epsilon)
        ours = score_all(model, matrix).scores
        ref = reference_scores(matrix.values, epsilon=model.epsilon)
        worst = max(worst, float(np.max(np.abs(ours - ref) / np.abs(ref))))
    check(
        "mahalanobis oracle equivalence at epsilon > 0 (3 long-tail corpora, rtol 1e-6)",
        min(epsilons) > 0.0 and worst <= 1e-6,
        f"epsilon {min(epsilons):.2e}..{max(epsilons):.2e}, worst rel err {worst:.2e}",
    )


def test_trace_identity():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        matrix = full_rank_instance(rng)
        n, d = len(matrix.index), matrix.width
        model = regularized_factorize(fit_moments(matrix))
        assert model.epsilon == 0.0, "instance unexpectedly rank-deficient"
        total = float(score_all(model, matrix).scores.sum())
        expected = d * (n - 1)
        worst = max(worst, abs(total - expected) / expected)
    elapsed = time.perf_counter() - start
    check(
        "trace identity sum(d_t) = d(n-1) (rtol 1e-6)",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_scale_invariance_at_zero_epsilon():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        matrix = full_rank_instance(rng)
        base_model = regularized_factorize(fit_moments(matrix))
        assert base_model.epsilon == 0.0
        base = score_all(base_model, matrix).scores
        for total in (2 * TOTAL, TOTAL // 3, TOTAL // 100):  # every density times 0.5, 3 and 100
            scaled_matrix = dataclasses.replace(matrix, total=total)
            model = regularized_factorize(fit_moments(scaled_matrix))
            scaled = score_all(model, scaled_matrix).scores
            worst = max(worst, float(np.max(np.abs(scaled - base) / np.maximum(np.abs(base), 1e-300))))
    check(
        "scale invariance at epsilon 0 (c in {0.5, 3, 100}, rtol 1e-8)",
        worst <= 1e-8,
        f"worst rel err {worst:.2e}",
    )


def test_selection_matches_full_sort_reference():
    rng = np.random.default_rng(2027)
    for trial in range(1000):
        n = int(rng.integers(3, 80))
        if trial % 2:
            scores = rng.integers(0, 7, size=n).astype(float)  # heavy duplication
        else:
            scores = rng.normal(size=n)
        k_max = n // 3
        kl, kh, km = (int(rng.integers(0, k_max + 1)) for _ in range(3))
        sel = select_global(scores, SelectionSpec(k_low=kl, k_high=kh, k_mean=km))
        assert sel.labels == reference_labels(n, *reference_selection(scores, kl, kh, km))
        assert n - sel.labels.count("unselected") == kl + kh + km  # disjoint with exact cardinalities
    check("selection equals full-sort reference (1000 vectors incl. ties)", True)


def _run_pipeline(corpus_path: Path, out_dir: Path, threads: int) -> dict[str, bytes]:
    args = ["--input", str(corpus_path), "--format", "jsonl",
            "--out-dir", str(out_dir), "--threads", str(threads)]
    assert main(["score", *args]) == 0
    assert main([
        "sample", "--scores", str(out_dir / "scores.csv"), *args,
        "--k-low", "50", "--k-high", "50", "--k-mean", "50",
    ]) == 0
    assert main(["analyze", "--scores", str(out_dir / "scores.csv"), *args, "--orders", "1,2"]) == 0
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_pipeline_determinism_across_threads(tmp_path):
    corpus = make_synthetic_corpus(500, vocab_size=80, min_tokens=5, max_tokens=60, seed=11)
    corpus_path = tmp_path / "fixture.jsonl"
    with open(corpus_path, "wb") as sink:
        write_subset(corpus, ["low"] * len(corpus), sink, scores=np.zeros(len(corpus)))

    runs = {
        "t1-first": _run_pipeline(corpus_path, tmp_path / "run1", threads=1),
        "t1-again": _run_pipeline(corpus_path, tmp_path / "run1b", threads=1),
        "t2": _run_pipeline(corpus_path, tmp_path / "run2", threads=2),
        "t8": _run_pipeline(corpus_path, tmp_path / "run8", threads=8),
    }
    baseline = runs["t1-first"]
    mismatches = []
    for label, artifacts in runs.items():
        if set(artifacts) != set(baseline):
            mismatches.append(f"{label}: file set differs")
            continue
        for name, data in artifacts.items():
            if data != baseline[name]:
                mismatches.append(f"{label}:{name}")
    check(
        "pipeline determinism (500-example fixture, threads 1/2/8, rerun)",
        not mismatches,
        f"{len(baseline)} artifacts compared" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


# Runs score, bucketed sample and analyze --orders 1,2 in one fresh
# interpreter, since OpenBLAS reads its thread count when NumPy loads.
_PIPELINE_PROBE = """
import sys
from abnormality.cli import main
corpus, out = sys.argv[1:3]
common = ["--input", corpus, "--format", "jsonl", "--out-dir", out]
scores = out + "/scores.csv"
assert main(["score", *common]) == 0
assert main(["sample", "--scores", scores, *common, "--strategy", "bucketed", "--bucket-width", "400",
             "--k-low", "100", "--k-high", "100", "--k-mean", "100"]) == 0
assert main(["analyze", "--scores", scores, *common, "--orders", "1,2"]) == 0
"""


def test_artifacts_byte_identical_at_any_blas_thread_count(tmp_path):
    # 2,000 short contexts and outliers of 1,200, 1,350 and 1,500 tokens, as
    # the longtail-unique bench workload: epsilon > 0, and the Gram products
    # are large enough for OpenBLAS to split them across threads.  Fit by
    # float products of centered densities, model.bin differed here between
    # 1 and 2 threads.
    short = make_synthetic_corpus(2000, vocab_size=5000, min_tokens=20, max_tokens=200, seed=1)
    outliers = [make_synthetic_corpus(1, vocab_size=5000, min_tokens=t, max_tokens=t, seed=101 + t).contexts[0]
                for t in (1200, 1350, 1500)]
    corpus = corpus_of(*short.contexts, *outliers)
    corpus_path = tmp_path / "longtail.jsonl"
    with open(corpus_path, "wb") as sink:
        write_subset(corpus, ["low"] * len(corpus), sink, scores=np.zeros(len(corpus)))

    src = Path(__file__).resolve().parents[1] / "src"
    runs = {}
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-c", _PIPELINE_PROBE, str(corpus_path), str(out)],
                       env=env, capture_output=True, check=True)
        runs[threads] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    epsilon = json.loads(runs[1]["scores.meta.json"])["epsilon"]
    mismatches = sorted(name for name in runs[1].keys() | runs[2].keys() if runs[1].get(name) != runs[2].get(name))
    check(
        "artifacts byte-identical at OPENBLAS_NUM_THREADS 1 and 2 (long-tail fixture, L = 1,500)",
        not mismatches and epsilon > 0 and len(runs[1]) == 12,
        f"{len(runs[1])} files, epsilon {epsilon:.3e}" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_length_score_correlation_desk_scale():
    start = time.perf_counter()
    corpus = make_synthetic_corpus(5000, vocab_size=200, min_tokens=20, max_tokens=400, seed=42)
    table = fit_density(corpus, 1)
    matrix = build_matrix(table)
    model = regularized_factorize(fit_moments(matrix))
    scores = score_all(model, matrix, threads=os.cpu_count() or 1)
    lengths = corpus.char_lengths().astype(np.float64)
    r = pearson(lengths, scores.scores)
    r_independent = float(scipy_stats.pearsonr(lengths, scores.scores).statistic)
    elapsed = time.perf_counter() - start
    agreement = abs(r - r_independent) <= 1e-9
    check(
        "length-score correlation on synthetic corpus (r > 0.3, < 60s)",
        r > 0.3 and agreement and elapsed < 60.0,
        f"r = {r:.4f} (scipy {r_independent:.4f}), {elapsed:.1f}s",
    )


SQUAD_ENV = "ABNORMALITY_SQUAD_TRAIN"


@pytest.mark.skipif(SQUAD_ENV not in os.environ, reason=f"set {SQUAD_ENV} to a SQuAD v1.1 train file")
def test_squad_scale_smoke(tmp_path):
    squad_path = Path(os.environ[SQUAD_ENV])
    corpus = ingest_file(squad_path, "squad")
    print(f"  ingested {len(corpus)} qa records (official v1.1 train has 87,599)")

    table = fit_density(corpus, 1)
    matrix = build_matrix(table)
    model = regularized_factorize(fit_moments(matrix))
    scores = score_all(model, matrix, threads=os.cpu_count() or 1)
    selection = select_global(scores, SelectionSpec())

    subset_path = tmp_path / "subset.jsonl"
    with open(subset_path, "wb") as sink:
        written = write_subset(corpus, selection.labels, sink, scores=scores)

    s = scores.scores
    mean = float(s.mean())
    for label, idx in (
        ("lowest", int(np.argmin(s))),
        ("highest", int(np.argmax(s))),
        ("mean-nearest", int(np.argmin(np.abs(s - mean)))),
    ):
        # report-only: tokenization upstream of these indices is unspecified
        print(f"  {label}: ordinal #{idx} title {corpus.titles[idx]!r} score {s[idx]:.4f}")
    print(f"  epsilon applied: {model.epsilon:g}, dimension: {model.d}")

    check("squad-scale smoke (default sampling emits 10,500)", written == 10500, f"wrote {written}")
