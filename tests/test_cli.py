from __future__ import annotations

import argparse
import builtins
import collections
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnormality import cli
from abnormality.analyze import pearson
from abnormality.cli import RunConfig, _build_parser, main
from abnormality.corpus import ingest_file
from abnormality.featurize import build_matrix, fit_density
from abnormality.hashing import sha256_file
from abnormality.mahalanobis import fit_moments, load_model, read_scores_csv, regularized_factorize, score_all


def write_jsonl_fixture(path: Path, n: int = 12, seed: int = 3) -> Path:
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(4, 11)))]
            rec = {"context": " ".join(words), "title": f"T{i % 3}", "id": f"doc-{i}"}
            f.write(json.dumps(rec) + "\n")
    return path


def run_score(tmp_path: Path, corpus_path: Path, *extra: str) -> Path:
    out = tmp_path / "out"
    code = main([
        "score", "--input", str(corpus_path), "--format", "jsonl",
        "--out-dir", str(out), "--threads", "1", *extra,
    ])
    assert code == 0
    return out


# Deeper than any recursion limit: the JSON decoder raises RecursionError.
DEEP = "[" * 100_000 + "]" * 100_000

SCORE_ARTIFACTS = {
    "scores.csv", "scores.meta.json", "density.csv", "density.json", "model.bin", "model.json",
}
K1 = ["--k-low", "1", "--k-high", "1", "--k-mean", "1"]


class TestScoreCommand:
    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["score", "--input", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_non_utf8_input_path_exits_1_naming_it(self, tmp_path, capsys):
        # The path is recorded in scores.meta.json, which is UTF-8: every
        # command refuses it before writing anything.
        good = write_jsonl_fixture(tmp_path / "c.jsonl")
        bad = tmp_path / os.fsdecode(b"bad\xffname.jsonl")
        bad.write_bytes(good.read_bytes())
        out = run_score(tmp_path, good)
        before = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        scores = str(out / "scores.csv")
        for command in (["score", "--out-dir", str(tmp_path / "fresh")],
                        ["sample", "--scores", scores, "--out-dir", str(out)],
                        ["analyze", "--scores", scores, "--out-dir", str(out)]):
            capsys.readouterr()
            assert main([*command, "--input", str(bad), "--format", "jsonl"]) == 1, command
            err = capsys.readouterr().err
            assert repr(str(bad)) in err and "not valid UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "fresh").exists()
        assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_three_example_fixture_matches_library(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text(
            '{"context":"a b a"}\n{"context":"b c d"}\n{"context":"a c"}\n', encoding="utf-8"
        )
        out = run_score(tmp_path, corpus_path)
        corpus = ingest_file(corpus_path, "jsonl")
        scores = read_scores_csv((out / "scores.csv").read_bytes(), corpus)
        assert len(scores) == 3

        table = fit_density(corpus, 1)
        matrix = build_matrix(table)
        model = regularized_factorize(fit_moments(matrix))
        expected = score_all(model, matrix).scores
        assert scores.tobytes() == expected.tobytes()

    def test_saved_model_reproduces_scores(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        model = load_model(out / "model.bin", out / "model.json")
        assert model.epsilon == json.loads((out / "scores.meta.json").read_text())["epsilon"]
        assert (out / "model.bin").stat().st_size == 8 * (model.d + model.d * model.d)
        corpus = ingest_file(corpus_path, "jsonl")
        matrix = build_matrix(fit_density(corpus, 1))
        expected = read_scores_csv((out / "scores.csv").read_bytes(), corpus)
        assert score_all(model, matrix).scores.tobytes() == expected.tobytes()

    def test_rerun_byte_identical(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out1 = run_score(tmp_path, corpus_path)
        snapshot = {p.name: p.read_bytes() for p in out1.iterdir()}
        out2 = tmp_path / "out2"
        code = main(["score", "--input", str(corpus_path), "--format", "jsonl",
                     "--out-dir", str(out2), "--threads", "2"])
        assert code == 0
        for name, data in snapshot.items():
            assert (out2 / name).read_bytes() == data, name

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code = main(["score", "--input", str(bad), "--format", "jsonl", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, text", [
        ("squad", '{"data": [{"title": "T", "paragraphs": [{"context": 5, "qas": [{"id": "q"}]}]}]}'),
        ("squad", '{"data": ' + DEEP + "}"),
        ("jsonl", '{"context": ' + DEEP + "}\n"),
        ("squad", '{"data": [{"title": "T", "paragraphs": [{"context": "x", "qas": [{"id": null}]}]}]}'),
        ("squad", '{"data": [{"title": 3, "paragraphs": [{"context": "x", "qas": [{"id": "q"}]}]}]}'),
        ("jsonl", '{"context": "a b", "id": null}\n'),
        ("jsonl", '{"context": "a b", "title": ["t"]}\n'),
        ("squad", '{"data": [{"title": "T", "paragraphs": 5}]}'),
        ("squad", '{"data": [{"title": "T", "paragraphs": [{"context": "x", "qas": ["q"]}]}]}'),
        ("jsonl", '["a b"]\n'),
        ("jsonl", '{"context": "a b", "id": 7}\n'),
    ], ids=["squad-context-not-string", "squad-deeply-nested", "jsonl-deeply-nested", "squad-id-null",
            "squad-title-not-string", "jsonl-id-null", "jsonl-title-not-string", "squad-paragraphs-not-array",
            "squad-qa-not-object", "jsonl-line-not-object", "jsonl-id-not-string"])
    def test_malformed_corpus_exits_2_without_traceback(self, tmp_path, capsys, fmt, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code = main(["score", "--input", str(bad), "--format", fmt, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    def test_singular_corpus_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "flat.jsonl"
        bad.write_text('{"context":"a b a"}\n' * 4, encoding="utf-8")
        code = main(["score", "--input", str(bad), "--format", "jsonl", "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_partial_artifacts_removed_on_failure(self, tmp_path):
        bad = tmp_path / "flat.jsonl"
        bad.write_text('{"context":"a b a"}\n' * 4, encoding="utf-8")
        out = tmp_path / "o"
        main(["score", "--input", str(bad), "--format", "jsonl", "--out-dir", str(out)])
        assert not out.exists() or not any(out.iterdir())

    def test_mid_write_failure_cleans_earlier_artifacts(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = tmp_path / "o"
        (out / "model.bin").mkdir(parents=True)  # forces the model write to fail
        code = main(["score", "--input", str(corpus_path), "--format", "jsonl",
                     "--out-dir", str(out), "--threads", "1"])
        assert code == 1
        leftovers = {p.name for p in out.iterdir() if p.is_file()}
        assert leftovers == set()

    def test_expected_artifacts(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        names = {p.name for p in out.iterdir()}
        assert names == SCORE_ARTIFACTS
        meta = json.loads((out / "scores.meta.json").read_text())
        assert meta["n"] == 12
        assert "hash" in meta["input"]


@pytest.mark.parametrize("command, blocker", [
    ("sample", "selection.csv"), ("analyze", "report/histogram.csv"),
])
def test_mid_write_failure_leaves_none_of_the_commands_files(tmp_path, command, blocker):
    out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
    args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
    if command == "sample":
        args += K1
        assert main(args) == 0  # the failed rerun must not leave this run's manifest behind
        (out / blocker).unlink()
    (out / blocker).mkdir(parents=True)  # forces that write to fail after an earlier one
    assert main(args) == 1
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == SCORE_ARTIFACTS
    if command == "sample":
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["selection_counts"] == {"low": 0, "mutual": 0, "high": 0, "unselected": 12}


class TestSampleCommand:
    def test_capacity_exceeded_exits_1(self, tmp_path, capsys):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        code = main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out)])
        assert code == 1  # default k totals 10500 exceed n=12
        assert "12" in capsys.readouterr().err

    def test_sample_writes_subset_and_manifest(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        code = main([
            "sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
            "--k-low", "2", "--k-high", "2", "--k-mean", "2",
        ])
        assert code == 0
        lines = (out / "subset.jsonl").read_text().splitlines()
        assert len(lines) == 6
        recs = [json.loads(l) for l in lines]
        assert all("score" in r and r["category"] in ("low", "mutual", "high") for r in recs)
        manifest = json.loads((out / "selection_manifest.json").read_text())
        assert manifest["counts"]["written"] == 6
        assert manifest["policy_echo"]["spec"]["k_low"] == 2

    def test_bucketed_strategy_echoed(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        code = main([
            "sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
            "--k-low", "1", "--k-high", "1", "--k-mean", "1",
            "--strategy", "bucketed", "--bucket-width", "250",
        ])
        assert code == 0
        manifest = json.loads((out / "selection_manifest.json").read_text())
        assert manifest["policy_echo"]["spec"]["strategy"] == "bucketed"
        assert manifest["policy_echo"]["spec"]["bucket_width"] == 250
        assert set(manifest["policy_echo"]) == {"spec", "score_mean", "buckets"}  # the spec is echoed once

    def test_bucketed_sample_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma in NumPy 2.x, 15-19 ms of every bucketed sample.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert run_fresh(
            ["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out), *K1,
             "--strategy", "bucketed", "--bucket-width", "20"],
            module="numpy.ma",
        ) == ([0], False)

    def test_stale_corpus_exits_2(self, tmp_path, capsys):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        with open(corpus_path, "a", encoding="utf-8") as f:
            f.write('{"context":"late addition"}\n')
        code = main([
            "sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
            "--k-low", "1", "--k-high", "1", "--k-mean", "1",
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_input_rewritten_while_scoring_is_stale(self, tmp_path, monkeypatch, capsys):
        # The recorded hash is that of the bytes scored, not of the file as it is after scoring.
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        scored = corpus_path.read_text(encoding="utf-8")
        pipeline = cli.run_score_pipeline

        def rewrite_then_score(corpus, cfg):
            # Every id and length stays, so only the hash can tell the two files apart.
            corpus_path.write_text(scored.replace("alpha", "gamma"), encoding="utf-8")
            return pipeline(corpus, cfg)

        monkeypatch.setattr(cli, "run_score_pipeline", rewrite_then_score)
        out = run_score(tmp_path, corpus_path)
        assert corpus_path.read_text(encoding="utf-8") != scored
        capsys.readouterr()
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out), *K1]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_selects_from_the_scores_it_verified(self, tmp_path, monkeypatch):
        # scores.csv is rewritten with other scores after its hash is checked: the selection
        # must carry the verified scores, not the ones a second read would find.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        scores_path = out / "scores.csv"
        verified = list(csv.reader(io.StringIO(scores_path.read_text(encoding="utf-8"))))
        tampered = [verified[0], *([*row[:3], repr(float(row[3]) * 2)] for row in verified[1:])]
        ingest = cli.corpus_mod.ingest_file

        def tamper_then_ingest(*args, **kwargs):
            with open(scores_path, "w", encoding="utf-8", newline="") as f:
                csv.writer(f, lineterminator="\n").writerows(tampered)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(cli.corpus_mod, "ingest_file", tamper_then_ingest)
        assert main(["sample", "--scores", str(scores_path), "--out-dir", str(out), *K1]) == 0
        with open(out / "selection.csv", newline="") as f:
            selected = list(csv.DictReader(f))
        expected = {row[0]: row[3] for row in verified[1:]}
        assert len(selected) == 3
        assert all(r["score"] == expected[r["ordinal"]] for r in selected)

    def test_tampered_scores_exit_2(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        scores_path = out / "scores.csv"
        scores_path.write_text(scores_path.read_text().replace("doc-0", "doc-X"), encoding="utf-8")
        code = main(["sample", "--scores", str(scores_path), "--out-dir", str(out),
                     "--k-low", "1", "--k-high", "1", "--k-mean", "1"])
        assert code == 2

    def test_renamed_scores_pair_is_not_stale(self, tmp_path):
        # `score` records the hash under "scores.csv"; a renamed copy holds the same bytes.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        (out / "s.csv").write_bytes((out / "scores.csv").read_bytes())
        (out / "s.meta.json").write_bytes((out / "scores.meta.json").read_bytes())
        a, b = tmp_path / "a", tmp_path / "b"
        k = ["--k-low", "2", "--k-high", "2", "--k-mean", "2"]
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(a), *k]) == 0
        assert main(["sample", "--scores", str(out / "s.csv"), "--out-dir", str(b), *k]) == 0
        assert (b / "selection.csv").read_bytes() == (a / "selection.csv").read_bytes()
        assert main(["analyze", "--scores", str(out / "s.csv"), "--out-dir", str(b)]) == 0

    @pytest.mark.parametrize("corrupt", [
        "truncated", "artifacts", "input.hash", "input.path", "pipeline", "pipeline.format",
        "pipeline.ngram", "pipeline.l_cap", "n", "n:ill-typed",
        "d=true", "d=-3", "epsilon=NaN", "epsilon=true", "epsilon=null", "epsilon=-1e-12",
    ])
    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_corrupt_meta_exits_2(self, tmp_path, capsys, command, corrupt):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        meta_path = out / "scores.meta.json"
        if corrupt == "truncated":
            text = meta_path.read_text()
            meta_path.write_text(text[: len(text) // 2])
        else:
            meta = json.loads(meta_path.read_text())
            dotted, _, value = corrupt.partition("=")
            *parents, key = dotted.split(":")[0].split(".")
            holder = meta
            for p in parents:
                holder = holder[p]
            if value:
                holder[key] = json.loads(value)
            elif corrupt.endswith(":ill-typed"):
                holder[key] = str(holder[key])
            else:
                del holder[key]
            meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
        if command == "sample":
            args += ["--k-low", "1", "--k-high", "1", "--k-mean", "1"]
        assert main(args) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        "columns", "ordinal", "char_length", "score", "order", "rows", "utf8",
        "score=nan", "score=inf", "score=-1.0", "id=doc-X", "char_length=1",
    ])
    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_malformed_scores_csv_exits_2(self, tmp_path, capsys, command, damage):
        # The recorded hash is updated to match, so only the row checks can catch it.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        scores_path = out / "scores.csv"
        lines = scores_path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        if damage == "columns":
            lines[2] = ",".join(fields[:2])
        elif damage == "ordinal":
            lines[2] = ",".join(["1.0", *fields[1:]])
        elif damage == "char_length":
            lines[2] = ",".join([*fields[:2], "many", fields[3]])
        elif damage == "score":
            lines[2] = ",".join([*fields[:3], "0.5.1"])
        elif damage == "order":
            lines[2], lines[3] = lines[3], lines[2]
        elif damage == "rows":
            del lines[-1]
        elif "=" in damage:
            column, value = damage.split("=")
            fields[["ordinal", "id", "char_length", "score"].index(column)] = value
            lines[2] = ",".join(fields)
        else:
            # Written as the bytes 0xff 0xfe, which no UTF-8 text contains.
            lines[2] = "\udcff\udcfe" + lines[2]
        scores_path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        meta_path = out / "scores.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["artifacts"]["scores.csv"] = sha256_file(scores_path)
        meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(scores_path), "--out-dir", str(out)]
        if command == "sample":
            args += ["--k-low", "1", "--k-high", "1", "--k-mean", "1"]
        assert main(args) == 2
        assert "data error" in capsys.readouterr().err

    def test_parse_flags_give_way_to_the_recorded_settings(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        outputs = []
        for extra in ([], ["--format", "squad"]):
            sel_dir = tmp_path / f"sel{len(outputs)}"
            args = ["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(sel_dir), *K1]
            assert main(args + extra) == 0
            outputs.append({p.name: p.read_bytes() for p in sel_dir.iterdir()})
        assert set(outputs[0]) == {"subset.jsonl", "selection.csv", "selection_manifest.json"}
        assert outputs[1] == outputs[0]

    def test_squad_subset_format(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        code = main([
            "sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
            "--k-low", "1", "--k-high", "1", "--k-mean", "1", "--subset-format", "squad",
        ])
        assert code == 0
        doc = json.loads((out / "subset.json").read_text())
        assert sum(len(p["qas"]) for a in doc["data"] for p in a["paragraphs"]) == 3

    def test_format_switch_leaves_no_stale_subset(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        args = ["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out), *K1]
        assert main(args + ["--subset-format", "squad"]) == 0
        assert (out / "subset.json").is_file()
        assert main(args) == 0
        assert (out / "subset.jsonl").is_file() and not (out / "subset.json").exists()
        manifest = json.loads((out / "selection_manifest.json").read_text())
        present = {p.name for p in out.iterdir() if p.name.startswith(("subset.", "selection.csv"))}
        assert set(manifest["artifacts"]) == present == {"subset.jsonl", "selection.csv"}
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 0


class TestAnalyzeCommand:
    def test_report_fields(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        code = main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert "excess_kurtosis" in summary["score_stats"]
        assert summary["n"] == 12
        assert summary["dimension"] == json.loads((out / "scores.meta.json").read_text())["d"]

    def test_multiple_orders(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl", n=15, seed=5)
        out = run_score(tmp_path, corpus_path)
        code = main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
                     "--orders", "1,3"])
        assert code == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert set(summary["pearson_by_order"]) == {"1", "3"}

    def test_repeated_order_rescored_once(self, tmp_path, monkeypatch):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl", n=15, seed=5))
        rescored, pipeline = [], cli.run_score_pipeline
        monkeypatch.setattr(cli, "run_score_pipeline", lambda corpus, cfg: rescored.append(cfg.ngram) or pipeline(corpus, cfg))
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
                     "--orders", "2,1,2,3,2"]) == 0
        assert rescored == [2, 3]
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert set(summary["pearson_by_order"]) == {"1", "2", "3"}

    def test_labels_rows_from_selection(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
                     "--k-low", "2", "--k-high", "3", "--k-mean", "1"]) == 0
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 0
        selection_manifest = json.loads((out / "selection_manifest.json").read_text())
        counts = selection_manifest["counts"]
        summary = json.loads((out / "report" / "summary.json").read_text())
        # The report's manifest ties it to the selection it read.
        inputs = json.loads((out / "report" / "manifest.json").read_text())["inputs"]
        assert inputs["selection.csv"] == selection_manifest["artifacts"]["selection.csv"]
        assert summary["selection_counts"] == {
            "low": counts["low"], "mutual": counts["mean_proximal"], "high": counts["high"],
            "unselected": 12 - counts["written"],
        }
        with open(out / "selection.csv", newline="") as f:
            selected = {r["ordinal"]: r["category"] for r in csv.DictReader(f)}
        with open(out / "report" / "scores.csv", newline="") as f:
            labels = {r["ordinal"]: r["category"] for r in csv.DictReader(f)}
        assert {o: c for o, c in labels.items() if c != "unselected"} == selected

    def test_without_selection_rows_unselected(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["selection_counts"]["unselected"] == 12
        inputs = json.loads((out / "report" / "manifest.json").read_text())["inputs"]
        assert set(inputs) == {"corpus", "scores.csv"}

    @pytest.mark.parametrize("tamper", ["selection.csv", "manifest-inputs", "manifest-json"])
    def test_stale_selection_exits_2(self, tmp_path, capsys, tamper):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
                     "--k-low", "1", "--k-high", "1", "--k-mean", "1"]) == 0
        manifest_path = out / "selection_manifest.json"
        if tamper == "selection.csv":
            lines = (out / "selection.csv").read_text().splitlines(keepends=True)
            (out / "selection.csv").write_text("".join(lines[:-1]))
        elif tamper == "manifest-inputs":
            manifest = json.loads(manifest_path.read_text())
            manifest["inputs"]["scores.csv"] = "sha256:" + "0" * 64
            manifest_path.write_text(json.dumps(manifest))
        else:
            manifest_path.write_text(manifest_path.read_text()[:-10])
        code = main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (out / "report" / "summary.json").exists()

    def test_sample_and_analyze_read_each_input_once(self, tmp_path, monkeypatch):
        # Each hash checked is the hash of the bytes parsed, so no input is opened again to hash it.
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out = run_score(tmp_path, corpus_path)
        inputs = {corpus_path, out / "scores.csv", out / "selection.csv"}
        reads, hashed, real_path_open, real_open = collections.Counter(), [], Path.open, builtins.open

        def count(file, mode):
            if isinstance(file, (str, os.PathLike)) and Path(file) in inputs and not set(mode) & set("wax"):
                reads[Path(file).relative_to(tmp_path).as_posix()] += 1

        def counting_path_open(self, mode="r", *args, **kwargs):
            count(self, mode)
            return real_path_open(self, mode, *args, **kwargs)

        def counting_open(file, mode="r", *args, **kwargs):
            count(file, mode)
            return real_open(file, mode, *args, **kwargs)

        # Path.read_bytes opens through Path.open, which calls io.open directly, so a
        # builtins.open patch alone misses it and the two never count twice.
        monkeypatch.setattr(Path, "open", counting_path_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(cli, "sha256_file", lambda path: hashed.append(Path(path)) or sha256_file(path))
        scores = str(out / "scores.csv")
        assert main(["sample", "--scores", scores, "--out-dir", str(out), *K1]) == 0
        # sample hashes only what it wrote; the read of selection.csv is that hash.
        assert sorted(p.name for p in hashed) == ["selection.csv", "subset.jsonl"]
        assert reads == {"c.jsonl": 1, "out/scores.csv": 1, "out/selection.csv": 1}
        reads.clear()
        hashed.clear()
        assert main(["analyze", "--scores", scores, "--out-dir", str(out)]) == 0
        assert reads == {"c.jsonl": 1, "out/scores.csv": 1, "out/selection.csv": 1}
        assert hashed == []

    @pytest.mark.parametrize("name", ["scores.meta.json", "selection_manifest.json"])
    def test_deeply_nested_metadata_exits_2(self, tmp_path, capsys, name):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out), *K1]) == 0
        (out / name).write_text('{"n": ' + DEEP + "}", encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {name} is not valid JSON" in err and "Traceback" not in err

    def test_selection_csv_not_utf8_exits_2(self, tmp_path, capsys):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["sample", "--scores", str(out / "scores.csv"), "--out-dir", str(out),
                     "--k-low", "1", "--k-high", "1", "--k-mean", "1"]) == 0
        data = (out / "selection.csv").read_bytes()
        (out / "selection.csv").write_bytes(data.replace(b"\n", b"\n\xff\xfe", 1))
        manifest_path = out / "selection_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["artifacts"]["selection.csv"] = sha256_file(out / "selection.csv")
        manifest_path.write_text(json.dumps(manifest))
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "selection.csv is not valid UTF-8" in err
        assert not (out / "report" / "summary.json").exists()

    def test_selection_csv_wrong_score_exits_2(self, tmp_path, capsys):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        scores = str(out / "scores.csv")
        assert main(["sample", "--scores", scores, "--out-dir", str(out), *K1]) == 0
        with open(out / "selection.csv", newline="") as f:
            rows = list(csv.reader(f))
        rows[1][3] = repr(float(rows[1][3]) * 2)  # the manifest hash is refreshed below
        with open(out / "selection.csv", "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        manifest_path = out / "selection_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["artifacts"]["selection.csv"] = sha256_file(out / "selection.csv")
        manifest_path.write_text(json.dumps(manifest))
        assert main(["analyze", "--scores", scores, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "selection.csv line 2" in err
        assert not (out / "report" / "summary.json").exists()

    def test_rescoring_runs_under_the_scored_settings(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        rng = np.random.default_rng(11)
        vocab = ["Alpha", "alpha", "BETA", "beta", "Gamma", "gamma", "delta", "Eta"]
        with open(corpus_path, "w", encoding="utf-8") as f:
            for i in range(16):
                words = rng.choice(vocab, size=int(rng.integers(3, 12)))
                f.write(json.dumps({"context": " ".join(words), "id": f"doc-{i}"}) + "\n")
        out = run_score(tmp_path, corpus_path, "--l-cap", "4", "--epsilon-fixed", "0.001")
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out), "--orders", "1,2"]) == 0
        summary = json.loads((out / "report" / "summary.json").read_text())

        corpus = ingest_file(corpus_path, "jsonl")
        lengths = corpus.char_lengths().astype(np.float64)

        def library_pearson(l_cap: int | None, epsilon: float | None) -> float:
            matrix = build_matrix(fit_density(corpus, 2), l_cap=l_cap)
            scores = score_all(regularized_factorize(fit_moments(matrix), epsilon), matrix).scores
            return pearson(lengths, scores)

        expected = library_pearson(4, 0.001)
        got = summary["pearson_by_order"]["2"]
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        assert expected != library_pearson(None, None)  # analyze's own defaults would differ

    @pytest.mark.parametrize("bins", [10**15, 2**63 - 1])
    def test_huge_bin_count_exits_1(self, tmp_path, capsys, bins):
        # 10**15 + 1 edges cannot be allocated; 2**63 edges overflow np.linspace's int64 count.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl", n=200))
        capsys.readouterr()
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out), "--bins", str(bins)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("abnormality: ") and "Traceback" not in err
        assert not (out / "report").exists() or not any((out / "report").iterdir())

    def test_degenerate_lengths_pearson_null_exit_0(self, tmp_path):
        # equal char lengths (pearson degenerate) but distinct word densities
        corpus_path = tmp_path / "same.jsonl"
        corpus_path.write_text(
            '{"context":"a b a"}\n{"context":"b c a"}\n{"context":"c c c"}\n{"context":"a b c"}\n',
            encoding="utf-8",
        )
        out = run_score(tmp_path, corpus_path)
        code = main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["pearson_by_order"]["1"] is None


# Runs the CLI commands given as JSON in argv[1] and prints, as its last line,
# their exit codes and whether the module named in argv[3] was imported.  With
# "block" in argv[2], importing SciPy raises ImportError.  It needs a fresh
# interpreter: the test process has already imported scipy.stats.
_MODULE_PROBE = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from abnormality.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, sys.modules.get(sys.argv[3]) is not None]))
"""


def run_fresh(*commands: list[str], block_scipy: bool = False, module: str = "scipy") -> tuple[list[int], bool]:
    """Each command's exit code, and whether ``module`` was loaded, from one fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(list(commands)), "block" if block_scipy else "allow", module],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    return codes, loaded


class TestScipyLoadedOnlyToSolve:
    # No command loads SciPy; the class keeps its name so that its test ids
    # stay stable.
    def test_import_sample_and_scored_order_analyze_leave_scipy_unloaded(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        scores = str(out / "scores.csv")
        assert run_fresh() == ([], False)
        assert run_fresh(
            ["sample", "--scores", scores, "--out-dir", str(out), "--k-low", "1", "--k-high", "1", "--k-mean", "1"],
            ["analyze", "--scores", scores, "--out-dir", str(out), "--orders", "1"],
        ) == ([0, 0], False)

    def test_pipeline_runs_without_scipy(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        out, scores = str(tmp_path / "out"), str(tmp_path / "out" / "scores.csv")
        codes, _ = run_fresh(
            ["score", "--input", str(corpus_path), "--format", "jsonl", "--out-dir", out],
            ["sample", "--scores", scores, "--out-dir", out, "--k-low", "1", "--k-high", "1", "--k-mean", "1"],
            ["analyze", "--scores", scores, "--out-dir", out, "--orders", "1,2"],
            block_scipy=True,
        )
        assert codes == [0, 0, 0]


class TestRunConfig:
    def test_invalid_config_value_exits_1(self, tmp_path, capsys):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        code = main(["score", "--input", str(corpus_path), "--format", "jsonl",
                     "--out-dir", str(tmp_path / "o"), "--ngram", "0"])
        assert code == 1

    def test_validation_catches_bad_orders(self):
        cfg = RunConfig(orders=())
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("key, value", [
        ("epsilon_fixed", -1.0),
        ("k_low", -1), ("k_high", -1), ("k_mean", -1), ("strategy", "random"), ("bucket_width", 0),
        pytest.param("ngram", 2**64, id="ngram-2**64"), pytest.param("l_cap", 2**63, id="l_cap-2**63"),
        pytest.param("k_low", -(2**63) - 1, id="k_low--2**63-1"),
        pytest.param("bucket_width", 2**64, id="bucket_width-2**64"), pytest.param("bins", 2**64, id="bins-2**64"),
        pytest.param("bins", 2**63 - 1, id="bins-2**63-1"),
        pytest.param("orders", (1, 2**64), id="orders-1,2**64"),
        pytest.param("epsilon_fixed", 10**400, id="epsilon_fixed-10**400"),
        ("format", "xml"), ("subset_format", "csv"),
    ])
    def test_validation_names_the_config_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value}).validate()

    def test_every_option_sets_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        parser = _build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {"score", "sample", "analyze"}
        for name, sub in commands.choices.items():
            dests = {a.dest for a in sub._actions if a.dest != "help"}
            assert dests <= fields | {"scores"}, name
            assert all(a.option_strings == ["--" + a.dest.replace("_", "-")]
                       for a in sub._actions if a.dest != "help"), name
        assert {a.dest for a in parser._actions} == {"help", "command"}

    def test_pipeline_echo_is_the_four_scoring_settings(self, tmp_path):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"),
                        "--ngram", "2", "--l-cap", "40", "--epsilon-fixed", "0.001")
        pipeline = json.loads((out / "scores.meta.json").read_text())["pipeline"]
        assert pipeline == {"format": "jsonl", "ngram": 2, "l_cap": 40, "epsilon_fixed": 0.001}

    @pytest.mark.parametrize("flag, key", [("--epsilon-fixed", "epsilon_fixed")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_flag_exits_1(self, tmp_path, capsys, flag, key, value):
        out = tmp_path / "o"
        code = main(["score", "--input", str(write_jsonl_fixture(tmp_path / "c.jsonl")),
                     "--format", "jsonl", "--out-dir", str(out), f"{flag}={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_epsilon_flag_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["score", "--input", str(write_jsonl_fixture(tmp_path / "c.jsonl")),
                     "--format", "jsonl", "--out-dir", str(out), "--epsilon-fixed", "-0.001"])
        assert code == 1
        err = capsys.readouterr().err
        assert "epsilon_fixed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_negative_epsilon_in_metadata_exits_2(self, tmp_path, capsys, command):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        meta_path = out / "scores.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["pipeline"]["epsilon_fixed"] = -0.5
        meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
        if command == "sample":
            args += K1
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "epsilon_fixed" in err

    # orders is no scoring setting, so the pipeline block may not hold it at all.
    @pytest.mark.parametrize("key, value", [
        ("format", 1), ("ngram", "1"), ("orders", 3), ("l_cap", 1.5), ("ngram", True), ("epsilon_fixed", "0.5"),
    ])
    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_ill_typed_pipeline_metadata_exits_2(self, tmp_path, capsys, command, key, value):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        meta_path = out / "scores.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["pipeline"][key] = value
        meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
        if command == "sample":
            args += ["--k-low", "1", "--k-high", "1", "--k-mean", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "data error" in err and repr(f"pipeline.{key}") in err

    def test_seed_flag_exits_1(self, tmp_path):
        corpus_path = write_jsonl_fixture(tmp_path / "c.jsonl")
        assert main(["score", "--input", str(corpus_path), "--format", "jsonl",
                     "--out-dir", str(tmp_path / "o"), "--seed", "1"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("score", "--lowercase"), ("score", "--no-lowercase"),
        ("score", "--strip-edge-punct"), ("score", "--no-strip-edge-punct"),
        ("sample", "--disjoint"), ("sample", "--no-disjoint"),
        ("score", "--context-field"), ("score", "--title-field"), ("sample", "--id-field"),
        ("score", "--config"), ("sample", "--config"), ("analyze", "--config"),
    ])
    def test_retired_flag_exits_1(self, tmp_path, capsys, command, flag):
        # The tokenizer, the selection and the JSONL layout are fixed rules, and settings come
        # from flags alone; the old switches and the config file are unknown arguments.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        capsys.readouterr()
        files = sorted(out.iterdir())
        args = {"score": ["--input", str(tmp_path / "c.jsonl"), "--format", "jsonl"],
                "sample": ["--scores", str(out / "scores.csv"), *K1],
                "analyze": ["--scores", str(out / "scores.csv")]}[command]
        assert main([command, *args, "--out-dir", str(out), flag]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert sorted(out.iterdir()) == files

    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_metadata_with_seed_exits_2(self, tmp_path, capsys, command):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        meta_path = out / "scores.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["pipeline"]["seed"] = 0
        meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
        if command == "sample":
            args += ["--k-low", "1", "--k-high", "1", "--k-mean", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "seed" in err

    @pytest.mark.parametrize("key, value", [
        ("epsilon_max_exponent", 8), ("lowercase", True), ("strip_edge_punctuation", True), ("disjoint", True),
        ("context_field", "context"), ("title_field", "title"), ("id_field", "id"),
        ("k_low", 3500), ("k_high", 3500), ("k_mean", 3500), ("strategy", "global"), ("bucket_width", 250),
        ("subset_format", "jsonl"), pytest.param("orders", [1], id="orders-[1]"), ("bins", 100),
    ])
    @pytest.mark.parametrize("command", ["sample", "analyze"])
    def test_metadata_with_retired_key_exits_2(self, tmp_path, capsys, command, key, value):
        # Scores written before the shrinkage schedule, the tokenizer, the
        # selection and the JSONL layout were fixed rules record their knobs,
        # and scores written before the pipeline block held only the scoring
        # settings echo the sample and analyze settings too; rerun `score`.
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        meta_path = out / "scores.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["pipeline"][key] = value
        meta_path.write_text(json.dumps(meta))
        args = [command, "--scores", str(out / "scores.csv"), "--out-dir", str(out)]
        if command == "sample":
            args += K1
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "data error" in err and key in err and "rerun `score`" in err

    @pytest.mark.parametrize("orders", ["1,x", "1.5", ""])
    def test_bad_orders_exit_1(self, tmp_path, orders):
        out = run_score(tmp_path, write_jsonl_fixture(tmp_path / "c.jsonl"))
        assert main(["analyze", "--scores", str(out / "scores.csv"), "--out-dir", str(out), "--orders", orders]) == 1

    def test_orders_parsed_to_tuple(self, tmp_path):
        args = _build_parser().parse_args(["analyze", "--scores", "s.csv", "--orders", "1, 3,"])
        assert args.orders == (1, 3)

    def test_usage_error_exit_code(self):
        assert main([]) == 1
        assert main(["sample"]) == 1  # missing required --scores


# Text that a CSV field or a line reader could split on, mixed into drawn
# text: line ends, the delimiter, the quote, U+2028 and non-ASCII letters.
# st.text() draws no surrogate, but it draws NUL, which a CSV field must carry.
AWKWARD = st.lists(
    st.one_of(st.text(max_size=4), st.sampled_from(["\r", "\n", "\r\n", ",", '"', "\u2028", "é", "ß", "Ж"])),
    max_size=5,
).map("".join)


class TestOutputsReadBack:
    @settings(max_examples=30, deadline=None)
    @given(names=st.lists(st.tuples(AWKWARD, AWKWARD), min_size=12, max_size=12))
    def test_score_outputs_are_read_by_sample_and_analyze(self, names):
        with tempfile.TemporaryDirectory() as tmp:
            corpus_path = write_jsonl_fixture(Path(tmp) / "c.jsonl")
            records = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
            with open(corpus_path, "w", encoding="utf-8") as f:
                for record, (ex_id, title) in zip(records, names):
                    f.write(json.dumps({**record, "id": ex_id, "title": title}) + "\n")
            out = Path(tmp) / "out"
            common = ["--input", str(corpus_path), "--format", "jsonl", "--out-dir", str(out)]
            scores = ["--scores", str(out / "scores.csv")]
            for args in (["score", *common], ["sample", *scores, *common, *K1], ["analyze", *scores, *common]):
                assert main(args) == 0, args[0]
            with open(out / "report" / "scores.csv", newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            assert [(r["id"], r["title"]) for r in rows] == [tuple(pair) for pair in names]

    @pytest.mark.parametrize("fmt, field, path", [
        ("jsonl", "id", "line 2.id"),
        ("jsonl", "title", "line 2.title"),
        ("jsonl", "context", "line 2.context"),
        ("jsonl", "payload", "line 2.question"),
        ("squad", "id", "data[0].paragraphs[0].qas[1].id"),
        ("squad", "title", "data[0].title"),
        ("squad", "context", "data[0].paragraphs[0].context"),
        ("squad", "payload", "data[0].paragraphs[0].qas[1].question"),
    ])
    @pytest.mark.parametrize("lone", ["\ud800", "\udfff"], ids=["high", "low"])
    def test_lone_surrogate_exits_2_naming_the_path(self, tmp_path, capsys, fmt, field, path, lone):
        # json.dumps spells a lone surrogate as an escape, which json.loads accepts.
        value = {"id": "q1", "title": "T", "context": "a b c", "payload": "why?", field: "x" + lone}
        qa = {"id": value["id"], "question": value["payload"]}
        if fmt == "jsonl":
            records = [{"context": "a b", "id": "q0"}, {"context": value["context"], "title": value["title"], **qa}]
            text = "".join(json.dumps(r) + "\n" for r in records)
        else:
            paragraph = {"context": value["context"], "qas": [{"id": "q0"}, qa]}
            text = json.dumps({"data": [{"title": value["title"], "paragraphs": [paragraph]}]})
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code = main(["score", "--input", str(bad), "--format", fmt, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"data error: {path} holds a lone surrogate" in err and "Traceback" not in err
