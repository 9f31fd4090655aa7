"""Damaged artifacts are rejected with SchemaError (exit 2 from the CLI), never a traceback."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnormality.artifacts import read_csv, read_json, write_csv, write_json
from abnormality.cli import main
from abnormality.errors import SchemaError
from abnormality.hashing import sha256_file
from abnormality.mahalanobis import load_model

K = ["--k-low", "2", "--k-high", "2", "--k-mean", "2"]

# The artifacts `sample` and `analyze` read, and those only the library's `load_model` reads.
CLI_ARTIFACTS = ("scores.meta.json", "scores.csv", "selection_manifest.json", "selection.csv")
LIBRARY_ARTIFACTS = ("model.json", "model.bin")

# Where each artifact's hash is recorded: (file, key path).
RECORDED_IN = {
    "scores.csv": [("scores.meta.json", ("artifacts", "scores.csv")),
                   ("selection_manifest.json", ("inputs", "scores.csv"))],
    "selection.csv": [("selection_manifest.json", ("artifacts", "selection.csv"))],
}

VALUES = [None, True, -3, 1.5, "x", [1], {}, float("nan"), float("inf")]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """A scored and sampled output directory, next to the corpus it was scored from."""
    root = tmp_path_factory.mktemp("pristine")
    words = ["alpha", "beta", "gamma", "délta", "epsilon", "zeta"]
    with open(root / "c.jsonl", "w", encoding="utf-8") as f:
        for i in range(14):
            context = " ".join(words[(i * k) % len(words)] for k in range(3 + i % 5))
            record = {"context": context, "title": f"T{i % 3}", "id": f"doc-é{i}"}
            f.write(json.dumps(record) + "\n")
    out = root / "out"
    common = ["--input", str(root / "c.jsonl"), "--format", "jsonl", "--out-dir", str(out)]
    assert main(["score", *common]) == 0
    assert main(["sample", "--scores", str(out / "scores.csv"), *common, *K]) == 0
    return root


def key_paths(obj, prefix=()):
    """Every key path into a JSON object, parents before children."""
    for key, value in obj.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


def damage(data, path: Path) -> None:
    """Truncate the file, flip one byte, or re-type or delete one JSON value."""
    raw = path.read_bytes()
    kinds = ["truncate", "flip"] + (["retype", "delete"] if path.suffix == ".json" else [])
    kind = data.draw(st.sampled_from(kinds), label="damage")
    if kind == "truncate":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
    elif kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:])
    else:
        obj = json.loads(raw)
        *parents, key = data.draw(st.sampled_from(list(key_paths(obj))), label="key")
        holder = obj
        for p in parents:
            holder = holder[p]
        if kind == "delete":
            del holder[key]
        else:
            old = holder[key]
            retyped = [v for v in VALUES if type(v) is not type(old)]
            holder[key] = data.draw(st.sampled_from(retyped), label="value")
        path.write_text(json.dumps(obj), encoding="utf-8")


def refresh_hashes(case: Path, name: str) -> None:
    """Record the damaged file's new hash, so that only the readers can catch the damage."""
    for holder_name, (*parents, key) in RECORDED_IN.get(name, []):
        holder_path = case / holder_name
        obj = json.loads(holder_path.read_text(encoding="utf-8"))
        holder = obj
        for p in parents:
            holder = holder[p]
        holder[key] = sha256_file(case / name)
        holder_path.write_text(json.dumps(obj), encoding="utf-8")


def strict_json(path: Path) -> None:
    def reject(constant):
        raise AssertionError(f"{path} holds {constant}")
    json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_artifacts_exit_0_or_2_and_loaders_raise_only_schema_error(pristine, data):
    name = data.draw(st.sampled_from(CLI_ARTIFACTS + LIBRARY_ARTIFACTS), label="artifact")
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / "out"
        shutil.copytree(pristine / "out", case)
        damage(data, case / name)
        refresh_hashes(case, name)
        if name in LIBRARY_ARTIFACTS:
            with contextlib.suppress(SchemaError):
                load_model(case / "model.bin", case / "model.json")
            return
        common = ["--input", str(pristine / "c.jsonl"), "--scores", str(case / "scores.csv")]
        for args, written in (
            (["analyze", *common, "--out-dir", str(case)], case / "report"),
            (["sample", *common, "--out-dir", str(case / "s"), *K], case / "s"),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
            assert code in (0, 2), (args[0], err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                for path in written.glob("*.json"):
                    strict_json(path)


def int_pair(row: list[str]) -> tuple[int, int]:
    a, b = row
    return int(a), int(b)


class TestReadersAndWriters:
    def test_nul_fields_read_back(self, tmp_path):
        rows = [["a\0b", "\0"], ["\r\0", 'x,"\0"'], ["", "\0\n\0"]]
        write_csv(tmp_path / "nul.csv", ("a", "b"), rows)
        assert list(read_csv((tmp_path / "nul.csv").read_bytes(), "nul.csv", ("a", "b"), list)) == rows

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.text(alphabet=st.sampled_from(["\r", "\n", ",", '"', "a", "é"]), max_size=6),
                             min_size=2, max_size=2), max_size=4))
    def test_write_csv_fields_read_back(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            write_csv(path, ("a", "b"), rows)
            assert list(read_csv(path.read_bytes(), "x.csv", ("a", "b"), list)) == rows
            if not any("\r" in field for row in rows for field in row):
                # Without a carriage return, the bytes are the csv module's own.
                plain = io.StringIO()
                csv.writer(plain, lineterminator="\n").writerows([("a", "b"), *rows])
                assert path.read_bytes() == plain.getvalue().encode("utf-8")

    def test_write_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"epsilon": math.nan})

    @pytest.mark.parametrize("text", [
        '{"a": NaN}', '{"a": -Infinity}', "[1]", '{"a": 1', "",
        pytest.param('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deeply-nested"),
    ])
    def test_read_json_rejects(self, tmp_path, text):
        (tmp_path / "x.json").write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="x.json"):
            read_json(tmp_path / "x.json")

    @pytest.mark.parametrize("keys, ok", [
        ([(("a", "b"), int, 0)], True),
        ([(("a", "b"), int, 2)], False),
        ([(("a", "b"), float)], True),
        ([(("a", "b"), bool)], False),
        ([(("a", "c"), int)], False),
        ([(("a", "b", "c"), int)], False),
        ([(("t",), int)], False),
        ([(("t",), bool)], True),
        ([(("f",), float | None)], True),
        ([(("f",), int | None)], False),
        ([(("f",), float, 0)], True),
        ([(("f",), float, 1)], False),
    ])
    def test_read_json_key_types(self, tmp_path, keys, ok):
        (tmp_path / "x.json").write_text('{"a": {"b": 1}, "t": true, "f": 0.5}', encoding="utf-8")
        if ok:
            read_json(tmp_path / "x.json", keys)
        else:
            with pytest.raises(SchemaError):
                read_json(tmp_path / "x.json", keys)

    @pytest.mark.parametrize("body, line", [
        (b"a,b\n1,2\n3\n", 3),
        (b"a,c\n1,2\n", 1),
        (b"a,b\n1,2\n3,\xff\n", 3),
        (b'a,b\n1,2\n"3,4\n', 3),
    ])
    def test_read_csv_names_file_and_line(self, body, line):
        with pytest.raises(SchemaError, match=rf"x\.csv.*line {line}"):
            list(read_csv(body, "x.csv", ("a", "b"), int_pair))
