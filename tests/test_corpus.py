from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnormality.corpus import (
    Corpus,
    ingest_jsonl,
    ingest_squad,
    write_subset,
)
from abnormality.errors import ParseError, SchemaError

from conftest import corpus_of, make_synthetic_corpus

# Deeper than any recursion limit: the JSON decoder raises RecursionError.
DEEP = "[" * 100_000 + "]" * 100_000


def everything_selected(n: int) -> list[str]:
    return ["low"] * n


NON_STRINGS = [5, 2.5, None, True, ["x"], {"k": "v"}]
NON_ARRAYS = [5, None, "x", {"k": "v"}]
NON_OBJECTS = [5, None, "x", ["x"]]


@st.composite
def damaged_squad(draw):
    """A small valid SQuAD document with one article, paragraph or qa, or one of its fields, damaged.

    Returns the document, the path of the damaged site and what its error says.
    """
    shape = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=3))
    data = [
        {"title": f"T{a}", "paragraphs": [
            {"context": f"c {a} {p}", "qas": [{"id": f"q{a}.{p}.{q}", "question": "?"} for q in range(qas)]}
            for p, qas in enumerate(paragraphs)
        ]}
        for a, paragraphs in enumerate(shape)
    ]
    sites = []  # (container, slot, path, the object's required fields and their types)
    for a, article in enumerate(data):
        apath = f"data[{a}]"
        sites.append((data, a, apath, {"title": str, "paragraphs": list}))
        for p, para in enumerate(article["paragraphs"]):
            ppath = f"{apath}.paragraphs[{p}]"
            sites.append((article["paragraphs"], p, ppath, {"context": str, "qas": list}))
            sites += [(para["qas"], q, f"{ppath}.qas[{q}]", {"id": str}) for q in range(len(para["qas"]))]
    container, slot, path, fields = draw(st.sampled_from(sites))
    key = draw(st.sampled_from(sorted(fields)))
    damage = draw(st.sampled_from(["object", "delete", "retype"]))
    if damage == "object":
        container[slot] = draw(st.sampled_from(NON_OBJECTS))
        want = path, "is not a JSON object"
    elif damage == "delete":
        del container[slot][key]
        want = f"{path}.{key}", "missing"
    elif fields[key] is str:
        container[slot][key] = draw(st.sampled_from(NON_STRINGS))
        want = f"{path}.{key}", "is not a string"
    else:
        container[slot][key] = draw(st.sampled_from(NON_ARRAYS))
        want = f"{path}.{key}", "is not an array"
    return {"version": "1.1", "data": data}, *want


@st.composite
def damaged_jsonl(draw):
    """Small valid JSONL, blank lines included, with one line or one of its fields damaged.

    Returns the text, the path of the damaged site and what its error says.
    """
    blanks = draw(st.lists(st.booleans(), min_size=1, max_size=4))  # a blank line before record i?
    lines, linenos = [], []
    for i, blank in enumerate(blanks):
        lines += [""] * blank
        record = {"context": f"c {i}", "id": f"r{i}", "title": "T"}
        for key in draw(st.sets(st.sampled_from(["id", "title"]))):
            del record[key]  # each defaults when absent
        lines.append(record)
        linenos.append(len(lines))
    lineno = draw(st.sampled_from(linenos))
    path, record = f"line {lineno}", lines[lineno - 1]
    damage = draw(st.sampled_from(["object", "delete", "retype"]))
    if damage == "object":
        lines[lineno - 1] = draw(st.sampled_from(NON_OBJECTS))
        want = path, "is not a JSON object"
    elif damage == "delete":
        del record["context"]
        want = f"{path}.context", "missing"
    else:
        key = draw(st.sampled_from(["context", "id", "title"]))
        record[key] = draw(st.sampled_from(NON_STRINGS))
        want = f"{path}.{key}", "is not a string"
    text = "".join(("" if line == "" else json.dumps(line)) + "\n" for line in lines)
    return text, *want


class TestIngestSquad:
    def test_empty_data(self):
        corpus = ingest_squad(b'{"data":[]}')
        assert len(corpus) == 0

    def test_one_paragraph_three_qas(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        assert corpus.ids[:3] == ("a1", "a2", "a3")
        assert len(set(corpus.contexts[:3])) == 1
        assert corpus.titles[:3] == ("Alpha",) * 3

    def test_document_order(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        assert corpus.ids == ("a1", "a2", "a3", "b1", "b2")
        assert corpus.titles == ("Alpha",) * 3 + ("Beta",) * 2
        assert corpus.contexts[3] == "b c"

    def test_qa_payload_carried(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        assert corpus.payloads[0]["question"] == "what?"

    def test_char_length(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        assert corpus.char_lengths()[0] == len("The brain, the brain.")

    def test_malformed_json_reports_byte_offset(self):
        # the bad token follows a two-byte character, shifting bytes past chars
        text = '{"k": "é", !}'
        with pytest.raises(ParseError) as exc:
            ingest_squad(text.encode("utf-8"))
        assert len(text[:11].encode("utf-8")) == 12
        assert "at byte 12:" in str(exc.value)

    def test_missing_title_names_path(self):
        doc = {"data": [{"paragraphs": []}]}
        with pytest.raises(SchemaError) as exc:
            ingest_squad(json.dumps(doc).encode())
        assert exc.value.path == "data[0].title"

    def test_missing_context_names_path(self):
        doc = {"data": [{"title": "T", "paragraphs": [{"qas": []}]}]}
        with pytest.raises(SchemaError) as exc:
            ingest_squad(json.dumps(doc).encode())
        assert "data[0].paragraphs[0].context" == exc.value.path

    @pytest.mark.parametrize("context", [5, None, ["x"], {"text": "x"}])
    def test_non_string_context_names_path(self, context):
        doc = {"data": [{"title": "T", "paragraphs": [{"context": context, "qas": [{"id": "q"}]}]}]}
        with pytest.raises(SchemaError, match="not a string") as exc:
            ingest_squad(json.dumps(doc).encode())
        assert exc.value.path == "data[0].paragraphs[0].context"

    @pytest.mark.parametrize("value", [7, None, ["x"], {"text": "x"}, True])
    @pytest.mark.parametrize("field", ["id", "title"])
    def test_non_string_id_or_title_names_path(self, field, value):
        # Two qas with "id": null must not both ingest as the id "None".
        article = {"title": "T", "paragraphs": [{"context": "x", "qas": [{"id": "q0"}, {"id": "q1"}]}]}
        if field == "title":
            article["title"] = value
            path = "data[0].title"
        else:
            article["paragraphs"][0]["qas"][1]["id"] = value
            path = "data[0].paragraphs[0].qas[1].id"
        with pytest.raises(SchemaError, match="not a string") as exc:
            ingest_squad(json.dumps({"data": [article]}).encode())
        assert exc.value.path == path

    @pytest.mark.parametrize("doc", [DEEP, '{"data": ' + DEEP + "}"], ids=["top-level", "data"])
    def test_deeply_nested_json_raises_parse_error(self, doc):
        with pytest.raises(ParseError, match="nested too deeply"):
            ingest_squad(doc.encode())

    def test_missing_qa_id_names_path(self):
        doc = {"data": [{"title": "T", "paragraphs": [{"context": "x", "qas": [{"id": "q"}, {}]}]}]}
        with pytest.raises(SchemaError) as exc:
            ingest_squad(json.dumps(doc).encode())
        assert exc.value.path == "data[0].paragraphs[0].qas[1].id"

    def test_missing_data_key(self):
        with pytest.raises(SchemaError):
            ingest_squad(b"{}")

    def test_deterministic(self, squad_bytes):
        assert ingest_squad(squad_bytes) == ingest_squad(squad_bytes)


class TestDamagedInput:
    @settings(max_examples=300, deadline=None)
    @given(damaged_squad())
    def test_squad_error_names_the_damaged_site(self, case):
        doc, path, message = case
        with pytest.raises(SchemaError, match=message) as exc:
            ingest_squad(json.dumps(doc).encode())
        assert exc.value.path == path

    @settings(max_examples=300, deadline=None)
    @given(damaged_jsonl())
    def test_jsonl_error_names_the_damaged_site(self, case):
        text, path, message = case
        with pytest.raises(SchemaError, match=message) as exc:
            ingest_jsonl(text.encode())
        assert exc.value.path == path


class TestIngestJsonl:
    def test_empty_stream(self):
        assert len(ingest_jsonl(b"")) == 0

    def test_two_lines_char_lengths(self):
        corpus = ingest_jsonl(b'{"context":"a b"}\n{"context":"c"}\n')
        assert len(corpus) == 2
        assert corpus.char_lengths().tolist() == [3, 1]

    def test_bad_line_names_line_number(self):
        with pytest.raises(ParseError) as exc:
            ingest_jsonl(b'{"context":"ok"}\nnot json\n')
        assert str(exc.value).startswith("line 2:")

    def test_deeply_nested_line_raises_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            ingest_jsonl(('{"context":"ok"}\n{"context": ' + DEEP + "}\n").encode())
        assert str(exc.value).startswith("line 2:")

    def test_missing_context_field(self):
        with pytest.raises(SchemaError) as exc:
            ingest_jsonl(b'{"text":"x"}\n')
        assert "context" in str(exc.value)

    @pytest.mark.parametrize("value", [7, None, ["x"], {"text": "x"}, False])
    @pytest.mark.parametrize("field", ["id", "title", "context"])
    def test_non_string_field_names_line_and_field(self, field, value):
        record = {"context": "a b", "title": "N", "id": "d1", field: value}
        with pytest.raises(SchemaError, match="not a string") as exc:
            ingest_jsonl(b'{"context":"ok"}\n' + json.dumps(record).encode())
        assert exc.value.path == f"line 2.{field}"

    def test_surrogate_pair_escape_is_one_code_point(self):
        corpus = ingest_jsonl(b'{"context": "a \\ud83d\\ude00", "id": "\\\\ud800"}\n')
        assert corpus.contexts == ("a \U0001F600",)
        assert corpus.ids == ("\\ud800",)  # an escaped backslash, then text

    @pytest.mark.parametrize("text, path", [
        (b'{"context": "a", "id": "\\ud83d\\ud83d\\ude00"}', "line 1.id"),
        (b'{"context": "a", "meta": {"\\udc00": 1}}', "line 1.meta.\\udc00"),
        (b'{"context": "a", "tags": ["x", "\\ude00y"]}', "line 1.tags[1]"),
        # An escaped backslash, the text "ud800", then a lone low surrogate.
        (b'{"context": "a", "id": "\\\\ud800\\udc00"}', "line 1.id"),
    ])
    def test_lone_surrogate_names_path(self, text, path):
        with pytest.raises(SchemaError, match="lone surrogate") as exc:
            ingest_jsonl(text)
        assert exc.value.path == path

    def test_defaults_and_line_numbered_ids(self):
        corpus = ingest_jsonl(b'{"context":"a"}\n\n{"context":"b"}\n')
        assert corpus.ids == ("line-1", "line-3")
        assert corpus.titles == ("", "")
        assert corpus.contexts == ("a", "b")


class TestWriteSubset:
    def test_empty_selection(self):
        corpus = corpus_of("a", "b")
        sink = io.BytesIO()
        count = write_subset(corpus, ["unselected"] * 2, sink, scores=[0.5, 2.5])
        assert count == 0
        assert sink.getvalue() == b""

    def test_ordinal_order(self):
        corpus = corpus_of("x", "y", "z")
        sink = io.BytesIO()
        count = write_subset(corpus, ["high", "unselected", "low"], sink, scores=[3.0, 2.0, 1.0])
        assert count == 2
        recs = [json.loads(line) for line in sink.getvalue().decode().splitlines()]
        assert [r["ordinal"] for r in recs] == [0, 2]
        assert [r["category"] for r in recs] == ["high", "low"]

    def test_out_of_range_writes_nothing(self):
        corpus = corpus_of("x")
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="labels length 2"):
            write_subset(corpus, ["low", "high"], sink, scores=[0.5, 2.5])
        assert sink.getvalue() == b""

    def test_scores_annotation(self):
        corpus = corpus_of("x", "y")
        sink = io.BytesIO()
        write_subset(corpus, ["low", "high"], sink, scores=[0.5, 2.5])
        recs = [json.loads(line) for line in sink.getvalue().decode().splitlines()]
        assert recs[0]["score"] == 0.5
        assert recs[1]["score"] == 2.5

    def test_jsonl_round_trip(self):
        corpus = corpus_of("The brain.", "b c", "d é f")
        sink = io.BytesIO()
        write_subset(corpus, everything_selected(3), sink, scores=[1.0, 2.0, 3.0])
        back = ingest_jsonl(sink.getvalue())
        assert back.contexts == corpus.contexts
        assert back.titles == corpus.titles
        assert back.ids == corpus.ids

    def test_squad_reconstruction(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        sink = io.BytesIO()
        count = write_subset(corpus, everything_selected(5), sink, fmt="squad", scores=[1, 2, 3, 4, 5])
        assert count == 5
        doc = json.loads(sink.getvalue())
        assert [a["title"] for a in doc["data"]] == ["Alpha", "Beta"]
        alpha = doc["data"][0]
        assert len(alpha["paragraphs"]) == 1  # repeated contexts regroup into one paragraph
        assert [qa["id"] for qa in alpha["paragraphs"][0]["qas"]] == ["a1", "a2", "a3"]
        assert alpha["paragraphs"][0]["qas"][0]["question"] == "what?"  # payload passthrough
        assert alpha["paragraphs"][0]["qas"][0]["abnormality_score"] == 1.0
        back = ingest_squad(sink.getvalue())
        assert back.contexts == corpus.contexts

    # Integer scores are written as floats.
    @pytest.mark.parametrize("fmt, scores, expected", [
        ("jsonl", [3, 0],
         b'{"id": "q0", "title": "Alpha", "context": "a b", "ordinal": 0, "category": "high", "score": 3.0, '
         b'"payload": {"id": "q0", "question": "why?"}}\n'
         b'{"id": "r1", "title": "Alpha", "context": "c \xc3\xa9", "ordinal": 1, "category": "low", "score": 0.0}\n'),
        ("jsonl", [2.5, 0.125],
         b'{"id": "q0", "title": "Alpha", "context": "a b", "ordinal": 0, "category": "high", "score": 2.5, '
         b'"payload": {"id": "q0", "question": "why?"}}\n'
         b'{"id": "r1", "title": "Alpha", "context": "c \xc3\xa9", "ordinal": 1, "category": "low", "score": 0.125}\n'),
        ("squad", [3, 0],
         b'{"version": "v1.1-pruned", "data": [{"title": "Alpha", "paragraphs": ['
         b'{"context": "a b", "qas": [{"id": "q0", "question": "why?", "category": "high", "abnormality_score": 3.0}]}, '
         b'{"context": "c \xc3\xa9", "qas": [{"id": "r1", "category": "low", "abnormality_score": 0.0}]}]}]}\n'),
        ("squad", [2.5, 0.125],
         b'{"version": "v1.1-pruned", "data": [{"title": "Alpha", "paragraphs": ['
         b'{"context": "a b", "qas": [{"id": "q0", "question": "why?", "category": "high", "abnormality_score": 2.5}]}, '
         b'{"context": "c \xc3\xa9", "qas": [{"id": "r1", "category": "low", "abnormality_score": 0.125}]}]}]}\n'),
    ], ids=["jsonl", "jsonl-scores", "squad", "squad-scores"])
    def test_exact_bytes(self, fmt, scores, expected):
        # Key order is part of the format: these are the bytes a subset file holds.
        corpus = Corpus(
            ids=("q0", "r1"),
            titles=("Alpha", "Alpha"),
            contexts=("a b", "c é"),
            payloads=({"id": "q0", "question": "why?"}, None),
        )
        sink = io.BytesIO()
        assert write_subset(corpus, ["high", "low"], sink, fmt, scores=scores) == 2
        assert sink.getvalue() == expected

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_subset(corpus_of("x"), everything_selected(1), io.BytesIO(), fmt="csv", scores=[1.0])


class TestInvariants:
    def test_char_lengths_count_code_points(self):
        corpus = corpus_of("\u00e9\U0001F600a", "", "e\u0301")
        assert corpus.char_lengths().tolist() == [3, 0, 2]
        assert corpus.char_lengths().dtype == np.int64

    def test_unequal_column_lengths_rejected(self):
        columns = {"ids": ("a", "b"), "titles": ("", ""), "contexts": ("x", "y"), "payloads": (None, None)}
        assert len(Corpus(**columns)) == 2
        for name, column in columns.items():
            with pytest.raises(ValueError, match="unequal lengths"):
                Corpus(**{**columns, name: column[:1]})

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=40), st.text(max_size=10)), max_size=8))
    def test_jsonl_round_trip_any_text(self, pairs):
        corpus = corpus_of(*(c for c, _ in pairs), titles=[t for _, t in pairs])
        sink = io.BytesIO()
        write_subset(corpus, everything_selected(len(corpus)), sink, scores=np.zeros(len(corpus)))
        back = ingest_jsonl(sink.getvalue())
        assert (back.contexts, back.titles) == (corpus.contexts, corpus.titles)

    def test_ordinals_dense(self, squad_bytes):
        corpus = ingest_squad(squad_bytes)
        sink = io.BytesIO()
        write_subset(corpus, everything_selected(len(corpus)), sink, scores=np.zeros(len(corpus)))
        recs = [json.loads(line) for line in sink.getvalue().decode().splitlines()]
        assert [r["ordinal"] for r in recs] == list(range(len(corpus)))


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = make_synthetic_corpus(20, seed=3)
        b = make_synthetic_corpus(20, seed=3)
        assert a == b

    def test_token_length_bounds(self):
        corpus = make_synthetic_corpus(30, min_tokens=5, max_tokens=9, seed=1)
        for context in corpus.contexts:
            assert 5 <= len(context.split()) <= 9

    def test_seed_changes_content(self):
        assert make_synthetic_corpus(5, seed=0) != make_synthetic_corpus(5, seed=1)
