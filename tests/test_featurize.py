from __future__ import annotations

import csv
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnormality import featurize
from abnormality.cli import RunConfig, run_score_pipeline
from abnormality.errors import FitError
from abnormality.featurize import (
    NGRAM_SEP,
    FeatureMatrix,
    build_matrix,
    fit_density,
    save_density,
    tokenize,
)

from conftest import corpus_of, make_synthetic_corpus
from oracles import featurize_example, ngrams, reference_ngram_counts, reference_tokenize

# Text the tokenizer rule treats case by case: mixed case (Greek capital
# sigma lowercases by position), edge and interior punctuation,
# punctuation-only tokens, non-ASCII letters and digits, and whitespace that
# is not ASCII (no-break, thin and ideographic spaces).
TOKENIZER_TEXT = st.lists(
    st.one_of(
        st.sampled_from([
            "The", "ΑΣ", "Σ", "ΣΑ", "İ", "Straße", "Ж", "é", "٣", "²", "Ⅻ", "7", "a",
            ",", ".", "«", "»", "“", "”", "—", "-", "'", "¿", "!!", "(", ")", "%", "$",
            " ", "\t", "\n", "\u00a0", "\u2009", "\u3000",
        ]),
        st.text(max_size=3),
    ),
    max_size=16,
).map("".join)

# Mixed case, edge and interior punctuation, a punctuation-only token.
WORDS = ["The", "the", "brain,", "Brain.", "«word»", "(x)", "it's", "--", "e.g.", "STATE-of-the-art", "a", "b!"]


def duplicate_heavy_corpus(seed: int = 0):
    """Distinct contexts (one empty, one all punctuation) each repeated 1-4 times, shuffled."""
    rng = np.random.default_rng(seed)
    distinct = ["", "-- --"] + [
        " ".join(WORDS[j] for j in rng.integers(0, len(WORDS), size=int(rng.integers(1, 26))))
        for _ in range(30)
    ]
    records = [c for c in distinct for _ in range(int(rng.integers(1, 5)))]
    return corpus_of(*[records[i] for i in rng.permutation(len(records))])


def oracle_matrix(corpus, table, l_cap=None):
    """Rows built one record at a time with the per-example reference featurizer."""
    token_lists = [reference_tokenize(c) for c in corpus.contexts]
    L = max(len(t) - table.n + 1 for t in token_lists)
    if l_cap is not None:
        L = min(L, l_cap)
    rows = [featurize_example(t, table, L) for t in token_lists]
    return (
        np.array([r.values for r in rows]),
        [r.true_length for r in rows],
        [r.truncated for r in rows],
    )


def assert_matches_oracle(corpus, table, l_cap=None):
    m = build_matrix(table, l_cap=l_cap)
    values, true_lengths, truncated = oracle_matrix(corpus, table, l_cap)
    assert m.values.tobytes() == values.tobytes()
    assert m.true_lengths.tolist() == true_lengths
    assert m.truncated.tolist() == truncated
    return m


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_defaults_lowercase_and_strip(self):
        assert tokenize("The brain, the brain.") == ["the", "brain", "the", "brain"]

    def test_whitespace_collapse(self):
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_unicode_punctuation_stripped(self):
        assert tokenize("«word» “quote” (x)") == ["word", "quote", "x"]

    def test_all_punctuation_token_dropped(self):
        assert tokenize("a -- b") == ["a", "b"]

    def test_interior_punctuation_kept(self):
        assert tokenize("it's e.g. state-of-the-art") == ["it's", "e.g", "state-of-the-art"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_total_function(self, text):
        tokens = tokenize(text)
        assert all(tokens)
        assert all(not any(ch.isspace() for ch in t) for t in tokens)

    @settings(max_examples=300, deadline=None)
    @given(TOKENIZER_TEXT)
    def test_matches_the_reference_rule(self, text):
        # Split, lowercase, strip P* edges, drop empties; checks the alphanumeric fast path too.
        assert tokenize(text) == reference_tokenize(text)


class TestNgrams:
    def test_unigrams(self):
        assert ngrams(["a", "b", "c"], 1) == ["a", "b", "c"]

    def test_single_window(self):
        assert ngrams(["a", "b", "c"], 3) == [f"a{NGRAM_SEP}b{NGRAM_SEP}c"]

    def test_window_longer_than_sequence(self):
        assert ngrams(["a", "b"], 3) == []

    def test_order_below_one(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=5), max_size=12), st.integers(1, 5))
    def test_length_formula(self, tokens, n):
        assert len(ngrams(tokens, n)) == max(0, len(tokens) - n + 1)


class TestFitDensity:
    def test_hand_enumerated_unigrams(self):
        # "a b a": 3 tokens, counts a=2 b=1
        table = fit_density(corpus_of("a b a"), 1)
        assert table.counts.get("a", 0) / table.total == pytest.approx(2 / 3)
        assert table.counts.get("b", 0) / table.total == pytest.approx(1 / 3)
        assert table.total == 3

    def test_single_symbol(self):
        table = fit_density(corpus_of("a a a a"), 1)
        assert table.counts.get("a", 0) / table.total == 1.0

    def test_hand_enumerated_bigrams(self):
        # "a b" and "b c" each contribute one bigram
        table = fit_density(corpus_of("a b", "b c"), 2)
        assert table.counts.get(f"a{NGRAM_SEP}b", 0) / table.total == pytest.approx(1 / 2)
        assert table.counts.get(f"b{NGRAM_SEP}c", 0) / table.total == pytest.approx(1 / 2)

    def test_duplicate_contexts_counted_per_example(self):
        table = fit_density(corpus_of("a b", "a b"), 1)
        assert table.counts == {"a": 2, "b": 2}

    def test_empty_corpus(self):
        with pytest.raises(FitError):
            fit_density(corpus_of(), 1)

    def test_no_ngrams_at_order(self):
        with pytest.raises(FitError, match="order 3"):
            fit_density(corpus_of("a b"), 3)

    def test_order_no_context_reaches_fails_before_coding(self, monkeypatch):
        # Coding extends every n-gram by one token per np.unique pass, n - 1
        # passes, so an order past every context must fail before the first.
        def spy(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", spy)
        with pytest.raises(FitError, match="order 100000"):
            fit_density(corpus_of("a b", "c d e"), 10**5)

    def test_densities_sum_to_one(self):
        corpus = make_synthetic_corpus(40, vocab_size=30, min_tokens=3, max_tokens=25, seed=5)
        for n in (1, 2, 3):
            table = fit_density(corpus, n)
            total = sum(table.counts.get(k, 0) / table.total for k in table.counts)
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_counts(self, n):
        corpus = duplicate_heavy_corpus()
        table = fit_density(corpus, n)
        want = reference_ngram_counts([reference_tokenize(c) for c in corpus.contexts], n)
        assert table.counts == dict(want)
        assert table.total == sum(want.values())

    def test_order_independent(self):
        a, b, c = "a b c", "c d", "e"
        t1 = fit_density(corpus_of(a, b, c), 1)
        t2 = fit_density(corpus_of(c, a, b), 1)
        assert t1.counts == t2.counts and t1.total == t2.total


class TestFeaturizeExample:
    """The per-example reference featurizer that build_matrix is checked against."""

    def test_all_padding(self):
        table = fit_density(corpus_of("a b a"), 1)
        row = featurize_example([], table, 4)
        assert row.values.tolist() == [0, 0, 0, 0]
        assert row.true_length == 0
        assert not row.truncated

    def test_hand_enumerated_row(self):
        table = fit_density(corpus_of("a b a"), 1)
        row = featurize_example(["a", "b", "a"], table, 5)
        np.testing.assert_allclose(row.values, [2 / 3, 1 / 3, 2 / 3, 0, 0])
        assert row.true_length == 3

    def test_unseen_token_is_zero(self):
        table = fit_density(corpus_of("a b a"), 1)
        row = featurize_example(["a", "zzz", "b"], table, 3)
        assert row.values[1] == 0.0
        assert row.values[0] > 0

    def test_truncation_flagged(self):
        table = fit_density(corpus_of("a b a"), 1)
        row = featurize_example(["a", "b", "a", "b"], table, 2)
        assert row.truncated
        assert row.true_length == 2
        assert len(row.values) == 2

    def test_bad_length(self):
        table = fit_density(corpus_of("a"), 1)
        with pytest.raises(ValueError):
            featurize_example(["a"], table, 0)


class TestBuildMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l_cap", [None, 7])
    def test_matches_row_by_row_oracle(self, n, l_cap):
        corpus = duplicate_heavy_corpus()
        m = assert_matches_oracle(corpus, fit_density(corpus, n), l_cap)
        assert len(m.ngram_counts) < len(m.index)
        if l_cap is not None:
            assert m.truncated.any() and m.width == l_cap

    def test_order5_beyond_int64_vocab_codes(self):
        # 8,192 distinct tokens, first seen in the order t0, t1, ...  Naive
        # codes id1 * 8192**4 + ... + id5 need 65 bits; wrapped to 64 bits,
        # the 5-grams "t0 t1 t2 t3 t4" and "t4096 t1 t2 t3 t4" would collide.
        rng = np.random.default_rng(4)
        words = [f"t{i}" for i in range(8192)]
        contexts = [" ".join(words), "t0 t1 t2 t3 t4", "t4096 t1 t2 t3 t4"] + [
            " ".join(words[j] for j in rng.integers(0, 8192, size=300)) for _ in range(20)
        ]
        corpus = corpus_of(*contexts, *contexts[1:8])
        assert 8192**5 > np.iinfo(np.int64).max
        table = fit_density(corpus, 5)
        want = reference_ngram_counts([reference_tokenize(c) for c in corpus.contexts], 5)
        assert table.counts == dict(want)
        assert table.counts.get(NGRAM_SEP.join(["t4096", "t1", "t2", "t3", "t4"]), 0) / table.total == 2 / table.total
        assert_matches_oracle(corpus, table)

    def test_one_row_per_distinct_context(self):
        corpus = corpus_of("a b", "c", "a b", "c", "a b")
        m = build_matrix(fit_density(corpus, 1))
        assert m.dense(m.width, np.arange(len(m.ngram_counts))).shape == (2, 2)
        assert m.index.tolist() == [0, 1, 0, 1, 0]
        assert m.values.shape == (5, 2)

    def test_values_are_the_distinct_rows_when_contexts_are_distinct(self):
        corpus = corpus_of("a b", "c", "d e f")
        m = build_matrix(fit_density(corpus, 1))
        assert m.values.tobytes() == (m.dense(m.width, np.arange(len(m.ngram_counts))) / m.total).tobytes()
        assert m.extents.tolist() == [2, 1, 3] and m.offsets.tolist() == [0, 2, 3, 6]

    def test_single_context_no_padding(self):
        corpus = corpus_of("a b c d")
        table = fit_density(corpus, 1)
        m = build_matrix(table)
        assert m.width == 4
        assert m.true_lengths.tolist() == [4]
        assert (m.values[0] > 0).all()

    def test_padding_to_longest(self):
        corpus = corpus_of("a b c", "a b c d e")
        table = fit_density(corpus, 1)
        m = build_matrix(table)
        assert m.width == 5
        assert m.values[0, 3] == 0.0 and m.values[0, 4] == 0.0
        assert (m.values[0, :3] > 0).all()

    def test_cap_truncates_and_flags(self):
        corpus = corpus_of("a b c", "a b c d e")
        table = fit_density(corpus, 1)
        m = build_matrix(table, l_cap=4)
        assert m.width == 4
        assert m.truncated.tolist() == [False, True]
        assert m.true_lengths.tolist() == [3, 4]

    def test_zeros_beyond_true_length(self):
        corpus = make_synthetic_corpus(25, vocab_size=20, min_tokens=2, max_tokens=30, seed=9)
        table = fit_density(corpus, 1)
        m = build_matrix(table)
        for i in range(len(m.index)):
            assert (m.values[i, m.true_lengths[i] :] == 0).all()
        assert ((m.values >= 0) & (m.values <= 1)).all()

    def test_rebuild_bitwise_identical(self):
        corpus = make_synthetic_corpus(15, vocab_size=12, min_tokens=2, max_tokens=20, seed=2)
        table = fit_density(corpus, 2)
        a = build_matrix(table)
        b = build_matrix(table)
        assert a.values.tobytes() == b.values.tobytes()

    def test_per_record_lengths_derive_from_distinct_ngram_counts(self):
        corpus = corpus_of("a b c d e", "a b", "a b c d e", "")
        m = build_matrix(fit_density(corpus, 1), l_cap=3)
        assert m.ngram_counts.tolist() == [5, 2, 0]
        assert m.true_lengths.tolist() == [3, 2, 3, 0]
        assert m.truncated.tolist() == [True, False, True, False]

    def test_dense_rows_are_counts_and_values_are_densities(self):
        counts = np.array([[1, 0, 2, 0], [0, 0, 0, 0], [0, 3, 0, 0], [1, 1, 1, 1]])
        m = FeatureMatrix(np.array([1, 0, 2, 0, 3, 1, 1, 1, 1]), np.array([3, 0, 2]), 4, np.array([3, 0, 2, 4]), 7)
        assert m.extents.tolist() == [3, 0, 2, 4]
        assert m.dense(4, np.arange(4)).tobytes() == counts.astype(np.float64).tobytes()
        assert m.dense(5, np.array([3, 0])).tolist() == [[1, 1, 1, 1, 0], [1, 0, 2, 0, 0]]
        assert m.values.tobytes() == (counts[[3, 0, 2]] / 7).tobytes()

    @pytest.mark.parametrize("change", [
        {"content": np.ones(5, dtype=np.int64)}, {"width": 1}, {"ngram_counts": np.array([2, -1, 3])},
        {"index": np.array([0, 3])}, {"ngram_counts": np.array([3, 1])}, {"ngram_counts": np.array([[2, 1, 1]])},
        {"content": np.zeros((2, 2), dtype=np.int64)}, {"total": 0},
    ])
    def test_inconsistent_fields_raise_value_error(self, change):
        fields = dict(content=np.ones(4, dtype=np.int64), index=np.array([0, 2]), width=3,
                      ngram_counts=np.array([2, 1, 1]), total=5)
        FeatureMatrix(**fields)
        with pytest.raises(ValueError):
            FeatureMatrix(**{**fields, **change})

    def test_row_order_follows_ordinals(self):
        c1 = corpus_of("a a", "b b")
        table = fit_density(c1, 1)
        m = build_matrix(table)
        assert m.values[0, 0] == table.counts.get("a", 0) / table.total
        assert m.values[1, 0] == table.counts.get("b", 0) / table.total


class TestPersistence:
    def test_order2_csv_equals_naive_count(self, tmp_path, monkeypatch):
        corpus = duplicate_heavy_corpus(3)
        with monkeypatch.context() as m:
            # Fitting and featurizing its own corpus spell no keys, in the library and the CLI.
            m.setattr(featurize._Grams, "keys", lambda self: pytest.fail("n-gram keys spelled"))
            table = fit_density(corpus, 2)
            build_matrix(table)
            run_score_pipeline(corpus, RunConfig(ngram=2))
        save_density(table, tmp_path / "d.csv")
        want = reference_ngram_counts([reference_tokenize(c) for c in corpus.contexts], 2)
        with open(tmp_path / "d.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["ngram_key", "count"]] + [[k, str(want[k])] for k in sorted(want)]
        assert len(table.counts) == len(want)

    def test_lazily_keyed_table_compares_by_value(self, monkeypatch):
        corpus = duplicate_heavy_corpus(4)
        table = fit_density(corpus, 2)
        spelled = []
        keys = featurize._Grams.keys
        monkeypatch.setattr(featurize._Grams, "keys", lambda self: spelled.append(1) or keys(self))
        assert table.counts is table.counts and len(spelled) == 1
        want = reference_ngram_counts([reference_tokenize(c) for c in corpus.contexts], 2)
        assert table.counts == dict(want) == fit_density(corpus, 2).counts
        assert len(spelled) == 2
        assert repr(table) == f"DensityTable(n=2, total={table.total})"
        with pytest.raises(FrozenInstanceError):
            table.total = 0
        with pytest.raises(FrozenInstanceError):
            table.by_code = table.by_code[:1]

    def test_density_keys_with_commas_and_separator(self, tmp_path):
        corpus = corpus_of("a,b c", titles=None)
        table = fit_density(corpus, 2)
        save_density(table, tmp_path / "d.csv")
        with open(tmp_path / "d.csv", encoding="utf-8", newline="") as f:
            assert list(csv.reader(f)) == [["ngram_key", "count"], [f"a,b{NGRAM_SEP}c", "1"]]

