"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from abnormality.cli import main  # noqa: E402
from oracles import reference_selection  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    first = workloads.generate(w, 7)
    assert workloads.generate(w, 7) == first
    assert workloads.generate(w, 8) != first


@pytest.mark.parametrize("seed", [1, 2])
def test_shape_does_not_depend_on_seed(tmp_path, seed):
    w = workloads.WORKLOADS["squad-dup"]
    contexts = checks.read_contexts(workloads.write_input(w, seed, tmp_path), w.format)
    shape = workloads.shape(w)
    assert len(contexts) == shape["records"]
    assert len(set(contexts)) == shape["unique_contexts"]
    assert max(len(c.split()) for c in contexts) == shape["L"]


def test_self_time_on_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S(0, "cli.main", "score", None, 0.0, 10.0),
        S(1, "featurize.fit_density", "score", 0, 1.0, 4.0),
        S(2, "hashing.sha256_file", "score", 1, 2.0, 3.0),
        # Siblings that overlap, as spans from two threads would.
        S(3, "mahalanobis.score_all", "score", 0, 3.5, 6.0),
        S(4, "mahalanobis.save_model", "score", 0, 8.0, 9.0),
    ]
    got = tracing.self_times(spans)
    # Root: children cover [1, 6] and [8, 9], 6 s of its 10 s.
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0})


def _run_small_pipeline(tmp_path: Path) -> tuple[Path, checks.Features, tuple[int, int, int]]:
    w = dataclasses.replace(
        workloads.WORKLOADS["squad-dup"], unique_contexts=150, min_tokens=10, max_tokens=60,
        sample_args=("--k-low", "30", "--k-high", "30", "--k-mean", "30"),
        analyze_args=("--orders", "1"),
    )
    input_path = workloads.write_input(w, 3, tmp_path)
    out = tmp_path / "out"
    common = ["--input", str(input_path), "--format", w.format, "--out-dir", str(out)]
    scores = str(out / "scores.csv")
    assert main(["score", *common]) == 0
    assert main(["sample", "--scores", scores, *common, *w.sample_args]) == 0
    assert main(["analyze", "--scores", scores, *common, *w.analyze_args]) == 0
    return out, checks.featurize(checks.read_contexts(input_path, w.format)), (30, 30, 30)


def test_oracle_flags_one_perturbed_score(tmp_path):
    out, features, k = _run_small_pipeline(tmp_path)
    clean = checks.check_outputs(out, "squad-dup", features, k, "global", reference_selection)
    assert clean.failures == {"score": [], "sample": [], "analyze": []}
    assert clean.defects  # the report's selection_counts ignore the selection

    path = out / "scores.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][3] = repr(float(rows[5][3]) * (1 + 1e-3))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    perturbed = checks.check_outputs(out, "squad-dup", features, k, "global", reference_selection)
    assert perturbed.failures["score"]


def test_instrument_follows_cli_calls_and_restores(tmp_path):
    from abnormality import cli

    original = cli.sha256_file
    tracer = tracing.Tracer()
    modules = ("corpus", "featurize", "mahalanobis", "sampler", "analyze", "hashing", "cli")
    with tracing.instrument(tracer, "abnormality", modules):
        assert cli.sha256_file is not original
        tracer.begin_run("pipeline")
        _run_small_pipeline(tmp_path)
    assert cli.sha256_file is original

    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"cli.cmd_score", "featurize.fit_density", "mahalanobis.score_all",
            "sampler.select_global", "analyze.emit_report"} <= names
    # cli calls sha256_file through its own ``from .hashing import`` name.
    assert any(by_id[s.parent].name == "cli.cmd_score" for s in tracer.named("hashing.sha256_file"))
    assert not tracer.named("featurize.tokenize")
    assert tracer.counts["pipeline"]["featurize.tokenize"] > 0
