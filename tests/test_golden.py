"""Golden run: the pipeline's outputs on one seeded corpus, pinned in ``golden_run.json``.

``score``, a global and a bucketed ``sample``, and ``analyze --orders 1,2``
run through ``cli.main`` on ``long_tail_corpus(7)`` written as JSONL: it has
repeated contexts, its long outliers make epsilon > 0, and d < 100.
``density.csv``, ``model.json`` and the bytes of mu are exact by
construction (integer counts, exact sums, epsilon from the exact trace), so
they are compared byte for byte, as are ``scores.meta.json`` (but for the
input path and the artifact hashes), every label and the counts in
``summary.json``.  The scores depend on the machine's BLAS kernels and are
compared to a relative 1e-9; every selection boundary has a larger
relative gap, so rounding alone cannot flip a label.

A change that alters these outputs on purpose rewrites the expected file
with ``PYTHONPATH=src python tests/test_golden.py`` and names each changed
field.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from abnormality.cli import main

from conftest import long_tail_corpus

GOLDEN = Path(__file__).with_name("golden_run.json")
RTOL = 1e-9
K = ["--k-low", "40", "--k-high", "40", "--k-mean", "40"]
BUCKET_WIDTH = 100
CATEGORIES = ("low", "high", "mutual")


def run_pipeline(tmp: Path) -> dict:
    """Run every command on the golden corpus under ``tmp`` and collect what the golden file pins."""
    corpus = long_tail_corpus(7)
    corpus_path = tmp / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as f:
        for ex_id, title, context in zip(corpus.ids, corpus.titles, corpus.contexts):
            f.write(json.dumps({"context": context, "id": ex_id, "title": title}) + "\n")

    out = tmp / "out"
    scores_csv = str(out / "scores.csv")
    assert main(["score", "--input", str(corpus_path), "--format", "jsonl", "--out-dir", str(out)]) == 0
    strategies = {"global": [], "bucketed": ["--strategy", "bucketed", "--bucket-width", str(BUCKET_WIDTH)]}
    for strategy, flags in strategies.items():
        assert main(["sample", "--scores", scores_csv, "--out-dir", str(tmp / strategy), *K, *flags]) == 0
        assert main(["analyze", "--scores", scores_csv, "--out-dir", str(tmp / strategy), "--orders", "1,2"]) == 0

    meta = json.loads((out / "scores.meta.json").read_text(encoding="utf-8"))
    del meta["input"]["path"], meta["artifacts"]
    d = meta["d"]
    with open(out / "scores.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    labels, counts = {}, {}
    for strategy in strategies:
        with open(tmp / strategy / "selection.csv", newline="", encoding="utf-8") as f:
            selected = [(r["category"], int(r["ordinal"])) for r in csv.DictReader(f)]
        labels[strategy] = {c: sorted(i for cat, i in selected if cat == c) for c in CATEGORIES}
        summary = json.loads((tmp / strategy / "report" / "summary.json").read_text(encoding="utf-8"))
        counts[strategy] = summary["selection_counts"]
    return {
        "files": {name: (out / name).read_text(encoding="utf-8") for name in ("density.csv", "model.json")},
        "mu": np.fromfile(out / "model.bin", dtype="<f8", count=d).tolist(),
        "scores.meta.json": meta,
        "scores": [float(r["score"]) for r in rows],
        "char_lengths": [int(r["char_length"]) for r in rows],
        "labels": labels,
        "selection_counts": counts,
    }


def boundary_gaps(scores: np.ndarray, groups: list[np.ndarray], labels: dict) -> list[float]:
    """The relative score gap at every selection boundary within each group.

    Low claims first, then high, then mutual, each from what the earlier
    ones left: so in a group every example passed over by a category lies
    on the far side of its picks, by the category's key (the score, minus
    the score, or the distance from the group's mean).  The gap between the
    last pick and the first example passed over is taken relative to the
    larger of their scores.  A gap of exactly 0 is an exact tie, which
    ordinal order decides.
    """
    label = np.full(len(scores), "unselected", dtype=object)
    for c in CATEGORIES:
        label[labels[c]] = c
    gaps = []
    for members in groups:
        s, lab = scores[members], label[members]
        keys = {"low": s, "high": -s, "mutual": np.abs(s - s.mean())}
        for rank, c in enumerate(CATEGORIES):
            picked = np.flatnonzero(lab == c)
            passed = np.flatnonzero(np.isin(lab, [*CATEGORIES[rank + 1 :], "unselected"]))
            if len(picked) and len(passed):
                last, first = picked[keys[c][picked].argmax()], passed[keys[c][passed].argmin()]
                gaps.append((keys[c][first] - keys[c][last]) / max(s[last], s[first]))
    return gaps


def test_golden_run(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_pipeline(tmp_path)

    assert got["files"] == expected["files"]
    assert np.array(got["mu"], dtype="<f8").tobytes() == np.array(expected["mu"], dtype="<f8").tobytes()
    assert got["scores.meta.json"] == expected["scores.meta.json"]
    assert got["scores.meta.json"]["epsilon"] > 0.0 and got["scores.meta.json"]["d"] < 100
    assert got["char_lengths"] == expected["char_lengths"]
    assert got["labels"] == expected["labels"]
    assert got["selection_counts"] == expected["selection_counts"]
    np.testing.assert_allclose(got["scores"], expected["scores"], rtol=RTOL, atol=0)

    scores, lengths = np.array(got["scores"]), np.array(got["char_lengths"])
    buckets = [np.flatnonzero(lengths // BUCKET_WIDTH == b) for b in np.unique(lengths // BUCKET_WIDTH)]
    for strategy, groups in (("global", [np.arange(len(scores))]), ("bucketed", buckets)):
        gaps = boundary_gaps(scores, groups, got["labels"][strategy])
        assert gaps and all(g == 0.0 or g > RTOL for g in gaps), (strategy, gaps)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_pipeline(Path(tmp)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
