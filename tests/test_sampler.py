from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abnormality.errors import CapacityError, SchemaError
from abnormality.sampler import (
    SelectionSpec,
    _largest_remainder,
    read_selection_csv,
    select_bucketed,
    select_global,
    write_selection_csv,
)

from conftest import corpus_of
from oracles import reference_bucketed_selection, reference_labels, reference_selection

K1 = SelectionSpec(k_low=1, k_high=1, k_mean=1)
K2 = SelectionSpec(k_low=2, k_high=2, k_mean=2)
K0 = SelectionSpec(k_low=0, k_high=0, k_mean=0)


class TestSelectGlobal:
    def test_six_scores_fully_covered(self):
        sel = select_global([0, 1, 2, 3, 4, 5], K2)
        assert sel.labels == ("low", "low", "mutual", "mutual", "high", "high")  # mean 2.5
        assert sel.policy_echo["score_mean"] == 2.5

    def test_all_ties_break_by_ordinal(self):
        sel = select_global([7, 7, 7, 7], K1)
        assert sel.labels == ("low", "high", "mutual", "unselected")

    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(6, 60))
            # small integer scores force plenty of duplicates
            s = rng.integers(0, 6, size=n).astype(float)
            ks = [int(rng.integers(0, n // 3 + 1)) for _ in range(3)]
            spec = SelectionSpec(k_low=ks[0], k_high=ks[1], k_mean=ks[2])
            sel = select_global(s, spec)
            assert sel.labels == reference_labels(n, *reference_selection(s, *ks))

    def test_capacity_error_names_sizes(self):
        with pytest.raises(CapacityError, match="9.*4|4.*9"):
            select_global([1.0, 2.0, 3.0, 4.0], SelectionSpec(k_low=3, k_high=3, k_mean=3))

    def test_zero_counts(self):
        sel = select_global([1.0, 2.0], SelectionSpec(k_low=0, k_high=0, k_mean=0))
        assert sel.labels == ("unselected", "unselected")

    def test_disjoint_and_exact_cardinalities(self):
        rng = np.random.default_rng(18)
        s = rng.normal(size=100)
        sel = select_global(s, SelectionSpec(k_low=10, k_high=20, k_mean=30))
        assert Counter(sel.labels) == {"low": 10, "high": 20, "mutual": 30, "unselected": 40}


class TestLargestRemainder:
    def test_hand_apportionment(self):
        assert _largest_remainder(5, [60, 40]) == [3, 2]

    def test_remainder_tie_prefers_larger_population(self):
        # exact quotas 1.5 / 1.5: the extra unit goes to the first by index
        assert _largest_remainder(3, [5, 5]) == [2, 1]
        assert _largest_remainder(3, [4, 8]) == [1, 2]
        # quotas 30/39, 57/39, 18/39, 12/39: buckets 1 and 2 both have remainder 18/39,
        # which floating-point quotas (1.4615... - 1 vs 0.4615...) round apart
        assert _largest_remainder(3, [10, 19, 6, 4]) == [1, 2, 0, 0]

    def test_conserves_total(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pops = [int(p) for p in rng.integers(1, 50, size=rng.integers(1, 8))]
            k = int(rng.integers(0, sum(pops) + 1))
            q = _largest_remainder(k, pops)
            assert sum(q) == k
            assert all(v >= 0 for v in q)


class TestSelectBucketed:
    def test_single_bucket_equals_global(self):
        rng = np.random.default_rng(20)
        s = rng.normal(size=30)
        lengths = np.full(30, 100)
        a = select_bucketed(s, lengths, SelectionSpec(k_low=3, k_high=3, k_mean=3, strategy="bucketed"))
        b = select_global(s, SelectionSpec(k_low=3, k_high=3, k_mean=3))
        assert a.labels == b.labels

    def test_equal_buckets_one_high_pick_each(self):
        # bucket 0: lengths < 250 holds the two largest scores; a global pick
        # would take both from bucket 0, the bucketed one takes one per bucket
        s = np.array([9.0, 8.0, 1.0, 2.0, 0.5, 3.0])
        lengths = np.array([10, 20, 30, 300, 310, 320])
        spec = SelectionSpec(k_low=0, k_high=2, k_mean=0, strategy="bucketed")
        sel = select_bucketed(s, lengths, spec)
        assert sel.labels == ("high", "unselected", "unselected", "unselected", "unselected", "high")

    def test_apportionment_echo(self):
        rng = np.random.default_rng(21)
        s = rng.normal(size=100)
        lengths = np.array([100] * 60 + [300] * 40)
        spec = SelectionSpec(k_low=5, k_high=0, k_mean=0, strategy="bucketed")
        sel = select_bucketed(s, lengths, spec)
        quotas = {b["bucket"]: b["quota_low"] for b in sel.policy_echo["buckets"]}
        assert quotas == {0: 3, 1: 2}
        assert sel.labels.count("low") == 5

    def test_bucket_local_mean_used(self):
        # two buckets with different score levels; mean-proximal picks must
        # sit near each bucket's own mean, not the global one
        s = np.array([0.0, 10.0, 20.0, 100.0, 110.0, 120.0])
        lengths = np.array([10, 20, 30, 300, 310, 320])
        spec = SelectionSpec(k_low=0, k_high=0, k_mean=2, strategy="bucketed")
        sel = select_bucketed(s, lengths, spec)
        assert sel.labels == ("unselected", "mutual", "unselected", "unselected", "mutual", "unselected")

    def test_spillover_fills_exact_cardinalities(self):
        # bucket 0 (pop 5) is over-allocated by apportionment: quotas 2/2/2
        # exceed its population, so one mean pick spills to bucket 1
        rng = np.random.default_rng(22)
        s = rng.normal(size=9)
        lengths = np.array([10] * 5 + [300] * 4)
        spec = SelectionSpec(k_low=3, k_high=3, k_mean=3, strategy="bucketed")
        sel = select_bucketed(s, lengths, spec)
        assert Counter(sel.labels) == {"low": 3, "high": 3, "mutual": 3}

    def test_capacity_error_after_spillover(self):
        with pytest.raises(CapacityError):
            select_bucketed([1.0, 2.0], [10, 300], SelectionSpec(k_low=2, k_high=1, k_mean=0, strategy="bucketed"))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            SelectionSpec(bucket_width=0)

    def test_length_size_mismatch(self):
        with pytest.raises(ValueError):
            select_bucketed([1.0, 2.0], [10], SelectionSpec(k_low=0, k_high=0, k_mean=0, strategy="bucketed"))

    def test_spec_naming_the_other_strategy_raises(self):
        # Else the policy echo says "global" next to a spec that says "bucketed", or the reverse.
        with pytest.raises(ValueError, match="select_global .* strategy 'bucketed'"):
            select_global([1.0, 2.0], SelectionSpec(k_low=1, k_high=0, k_mean=0, strategy="bucketed"))
        with pytest.raises(ValueError, match="select_bucketed .* strategy 'global'"):
            select_bucketed([1.0, 2.0], [10, 300], SelectionSpec(k_low=1, k_high=0, k_mean=0))


@pytest.mark.parametrize("scores, lengths, spec, fits", [
    pytest.param([], None, SelectionSpec(k_low=1, k_high=0, k_mean=0), False, id="global-empty"),
    pytest.param([], [], SelectionSpec(k_low=0, k_high=0, k_mean=1, strategy="bucketed"), False,
                 id="bucketed-empty"),
    pytest.param([], None, K0, True, id="global-empty-zero-k"),
    pytest.param([], [], SelectionSpec(0, 0, 0, strategy="bucketed"), True, id="bucketed-empty-zero-k"),
    pytest.param([1.0, 2.0], None, SelectionSpec(k_low=0, k_high=3, k_mean=0), False, id="global-k-above-n"),
    pytest.param([1.0, 2.0], [10, 300], SelectionSpec(1, 1, 3, strategy="bucketed"), False,
                 id="bucketed-k-above-n"),
])
def test_capacity_edge_cases(scores, lengths, spec, fits):
    def select():
        return select_global(scores, spec) if lengths is None else select_bucketed(scores, lengths, spec)

    if not fits:
        with pytest.raises(CapacityError):
            select()
        return
    sel = select()
    ks = (spec.k_low, spec.k_high, spec.k_mean)
    if lengths is None:
        claims = reference_selection(scores, *ks)
    else:
        claims = reference_bucketed_selection(scores, lengths, *ks, spec.bucket_width)
    assert sel.labels == reference_labels(len(scores), *claims)
    if not scores:
        assert sel.policy_echo["score_mean"] is None


class TestLabelAll:
    """A selection labels all examples, each exactly once."""

    def test_full_coverage_no_unselected(self):
        labels = select_global([0, 1, 2, 3, 4, 5], K2).labels
        assert "unselected" not in labels
        assert labels == ("low", "low", "mutual", "mutual", "high", "high")

    def test_partial_coverage_counts(self):
        labels = select_global(list(range(10)), K2).labels
        assert labels.count("unselected") == 4
        assert labels.count("low") == labels.count("high") == labels.count("mutual") == 2

    def test_every_index_exactly_one_label(self):
        rng = np.random.default_rng(23)
        labels = select_global(rng.normal(size=50), SelectionSpec(k_low=7, k_high=8, k_mean=9)).labels
        assert len(labels) == 50
        assert all(l in ("low", "high", "mutual", "unselected") for l in labels)


class TestSelectionCsv:
    def test_selected_rows_only_sorted(self, tmp_path):
        corpus = corpus_of("aa", "bbb", "c", "dddd", "ee", "f")
        s = [0, 1, 2, 3, 4, 5]
        path = tmp_path / "sel.csv"
        write_selection_csv(select_global(s, K1).labels, corpus, s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ordinal,id,category,score,char_length"
        assert len(lines) == 4
        ordinals = [int(line.split(",")[0]) for line in lines[1:]]
        assert ordinals == sorted(ordinals)

    def test_read_back_gives_same_labels(self, tmp_path):
        corpus = corpus_of("aa", "bbb", "c", "dddd", "ee", "f", "g")
        s = [5, 1, 2, 3, 4, 0, 9]
        labels = select_global(s, K2).labels
        write_selection_csv(labels, corpus, s, tmp_path / "sel.csv")
        assert read_selection_csv((tmp_path / "sel.csv").read_bytes(), corpus, s) == list(labels)

    def test_repeated_ordinal_rejected(self):
        corpus = corpus_of("aa", "bbb", "c")
        data = b"ordinal,id,category,score,char_length\n1,ex-1,low,0.5,3\n1,ex-1,high,0.5,3\n"
        with pytest.raises(SchemaError, match="selection.csv line 3 .*example 1 is listed twice"):
            read_selection_csv(data, corpus, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("row", [
        "1,ex-1,odd,0.5,3", "9,ex-9,low,0.5,1", "1,ex-2,low,0.5,3", "x,ex-1,low", "1",
        "1,ex-1,low", "1,ex-1,low,0.5,4", "1,ex-1,low,0.25,3",
    ])
    def test_rows_outside_the_corpus_rejected(self, row):
        corpus = corpus_of("aa", "bbb", "c")
        data = f"ordinal,id,category,score,char_length\n{row}\n".encode("utf-8")
        with pytest.raises(SchemaError, match="sel.csv line 2"):
            read_selection_csv(data, corpus, [0.5, 0.5, 0.5], "sel.csv")


class TestProperties:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @given(
        st.lists(st.floats(-100, 100), min_size=9, max_size=40, unique=True),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_permutation_equivariance(self, s, kl, kh, km, rnd):
        assume(kl + kh + km <= len(s))
        mean = sum(s) / len(s)
        dists = [abs(v - mean) for v in s]
        assume(len(set(dists)) == len(dists))  # no exact mean-distance ties
        spec = SelectionSpec(k_low=kl, k_high=kh, k_mean=km)
        base = select_global(s, spec)

        perm = list(range(len(s)))
        rnd.shuffle(perm)
        shuffled = [s[perm[i]] for i in range(len(s))]
        moved = select_global(shuffled, spec)
        assert moved.labels == tuple(base.labels[perm[i]] for i in range(len(s)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=5, max_size=30, unique=True))
    def test_monotone_consistency_for_high(self, s):
        spec = SelectionSpec(k_low=1, k_high=2, k_mean=1)
        sel = select_global(s, spec)
        assume("high" in sel.labels)
        target = sel.labels.index("high")
        raised = list(s)
        raised[target] = max(s) + 1.0
        assume(len(set(raised)) == len(raised))
        assert select_global(raised, spec).labels[target] == "high"

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 24).flatmap(lambda n: st.tuples(
            # quarter-integer scores give plenty of ties
            st.lists(st.integers(-12, 12).map(lambda v: v / 4), min_size=n, max_size=n),
            st.lists(st.integers(0, 120), min_size=n, max_size=n),
        )),
        st.integers(1, 60),
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    )
    def test_selection_matches_naive_references(self, data, width, ks):
        s, lengths = data
        spec = SelectionSpec(*ks, strategy="bucketed", bucket_width=width)
        expected = reference_bucketed_selection(s, lengths, *ks, width)
        if expected is None:
            with pytest.raises(CapacityError):
                select_bucketed(s, lengths, spec)
        else:
            assert select_bucketed(s, lengths, spec).labels == reference_labels(len(s), *expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 20).flatmap(lambda n: st.tuples(
            # small integers give ties, floats give the rest
            st.lists(st.integers(-4, 4).map(float) | st.floats(-10, 10), min_size=n, max_size=n),
            st.lists(st.integers(0, 100), min_size=n, max_size=n),
        )),
        st.integers(1, 50),
        st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)),
        st.sampled_from(["global", "bucketed"]),
    )
    def test_labels_are_the_first_claim_of_the_reference(self, data, width, ks, strategy):
        s, lengths = data
        spec = SelectionSpec(*ks, strategy=strategy, bucket_width=width)
        if strategy == "global":
            claims = reference_selection(s, *ks) if sum(ks) <= len(s) else None
        else:
            claims = reference_bucketed_selection(s, lengths, *ks, width)

        def select():
            return select_global(s, spec) if strategy == "global" else select_bucketed(s, lengths, spec)

        if claims is None:
            with pytest.raises(CapacityError):
                select()
            return
        labels = select().labels
        assert labels == reference_labels(len(s), *claims)
        assert [labels.count(c) for c in ("low", "high", "mutual")] == list(ks)  # disjoint, exact counts

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=9, max_size=40))
    def test_deterministic(self, s):
        spec = SelectionSpec(k_low=3, k_high=3, k_mean=3)
        assert select_global(s, spec) == select_global(s, spec)
