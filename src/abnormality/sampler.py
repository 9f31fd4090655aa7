"""Partition scored examples into low / mutual / high abnormality selections.

The low tail takes the smallest scores, the high tail the largest, and the
mutual category the scores nearest the mean of the score distribution.  The
three are disjoint: the tails claim indices first, low before high, and the
mean-proximal picks come from the remainder; every tie breaks by ascending
ordinal.  The bucketed strategy applies the same rule within
character-length buckets, apportioning each quota across buckets by
population with largest-remainder rounding and spilling shortfalls from
underfull buckets to the next-largest bucket.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .artifacts import read_csv, row_ordinal, write_csv
from .errors import CapacityError

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = [
    "SelectionSpec",
    "Selection",
    "select_global",
    "select_bucketed",
    "write_selection_csv",
    "read_selection_csv",
]

_CATEGORIES = ("low", "high", "mutual")
_SELECTION_HEADER = ("ordinal", "id", "category", "score", "char_length")


@dataclass(frozen=True)
class SelectionSpec:
    """Counts and strategy for a three-way selection."""

    k_low: int = 3500
    k_high: int = 3500
    k_mean: int = 3500
    strategy: str = "global"
    bucket_width: int = 250

    def __post_init__(self) -> None:
        if self.k_low < 0 or self.k_high < 0 or self.k_mean < 0:
            raise ValueError(
                f"k_low, k_high and k_mean must be >= 0, got {self.k_low}, {self.k_high}, {self.k_mean}"
            )
        if self.strategy not in ("global", "bucketed"):
            raise ValueError(f"strategy must be 'global' or 'bucketed', got {self.strategy!r}")
        if self.bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {self.bucket_width}")

    @property
    def total(self) -> int:
        return self.k_low + self.k_high + self.k_mean


@dataclass(frozen=True)
class Selection:
    """One category per example (low | high | mutual | unselected) plus the policy echo."""

    labels: tuple[str, ...]
    policy_echo: dict


def _mean(s: np.ndarray) -> float:
    """Correctly rounded mean of ``s``: the same float for every order of the scores."""
    return math.fsum(s.tolist()) / len(s)


def _orders(s: np.ndarray, members: np.ndarray, mean: float):
    """Candidate orders over ``members`` in low, high, mutual order (ties keep ordinal order)."""
    return tuple(
        members[np.argsort(key, kind="stable")]
        for key in (s[members], -s[members], np.abs(s[members] - mean))
    )


def _largest_remainder(k: int, pops: list[int]) -> list[int]:
    """Apportion k units across buckets proportionally to population.

    Floors of the exact quotas k * p / total first; leftovers go to the
    largest remainders (ties: larger population, then lower list position).
    The remainders are integers k * p mod total, so equal ones tie exactly.
    """
    total = sum(pops)
    if total == 0 or k == 0:
        return [0] * len(pops)
    floors = [k * p // total for p in pops]
    leftover = k - sum(floors)
    order = sorted(range(len(pops)), key=lambda b: (-(k * pops[b] % total), -pops[b], b))
    for b in order[:leftover]:
        floors[b] += 1
    return floors


def _claim(s: np.ndarray, groups: list[np.ndarray], spec: SelectionSpec, strategy: str):
    """The selection rule of ``strategy`` over ``groups`` of example indices.

    Each quota is split across the groups by largest-remainder
    apportionment.  Groups claim in descending-population order (ties:
    lower list position), each category in low, high, mutual order against
    the group's own score mean, passing over examples already claimed; a
    group's shortfall spills to the next group, pass after pass, until
    every quota is placed.  A pass that places nothing raises
    CapacityError, and a ``spec`` that names another strategy raises
    ValueError, so the echoed spec always names the rule that ran.
    Returns each example's category index (3 for unclaimed), the quotas,
    one row per category in low, high, mutual order, and each group's
    score mean.
    """
    if spec.strategy != strategy:
        raise ValueError(f"select_{strategy} was given a spec with strategy {spec.strategy!r}")
    pops = [len(m) for m in groups]
    means = [_mean(s[m]) for m in groups]
    orders = [_orders(s, m, mean) for m, mean in zip(groups, means)]
    ks = (spec.k_low, spec.k_high, spec.k_mean)
    quota = [_largest_remainder(k, pops) for k in ks]
    process_order = sorted(range(len(groups)), key=lambda g: (-pops[g], g))

    unclaimed = len(_CATEGORIES)
    owner = np.full(len(s), unclaimed, dtype=np.int64)
    # Nonzero only without groups (n = 0): the first pass then places nothing and raises.
    carry = [k - sum(q) for k, q in zip(ks, quota)]
    first_pass = True
    while True:
        placed_any = False
        for g in process_order:
            for c, order in enumerate(orders[g]):
                want = carry[c] + (quota[c][g] if first_pass else 0)
                if want == 0:
                    continue
                got = order[owner[order] == unclaimed][:want]
                owner[got] = c
                placed_any |= len(got) > 0
                carry[c] = want - len(got)
        first_pass = False
        if not any(carry):
            break
        if not placed_any:
            raise CapacityError(
                f"could not place {sum(carry)} of the {spec.total} requested selections "
                f"among {len(s)} examples"
            )
    return owner, quota, means


def _selection(owner: np.ndarray, echo: dict) -> Selection:
    """Label each example by the category that claimed it; unclaimed ones are unselected."""
    names = np.array(_CATEGORIES + ("unselected",))
    return Selection(labels=tuple(names[owner].tolist()), policy_echo=echo)


def select_global(scores, spec: SelectionSpec = SelectionSpec()) -> Selection:
    """Select the k_low smallest, k_high largest, and k_mean mean-nearest scores.

    Low claims first, then high, then mean-proximal from whatever remains;
    the mean is the mean of all scores.  This is the bucketed rule with
    every example in one bucket.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = len(s)
    # An empty corpus has no group: a group must have a mean.
    owner, _, means = _claim(s, [np.arange(n)] if n else [], spec, "global")
    echo = {"spec": asdict(spec), "score_mean": means[0] if n else None}
    return _selection(owner, echo)


def select_bucketed(
    scores,
    char_lengths: Sequence[int] | np.ndarray,
    spec: SelectionSpec = SelectionSpec(strategy="bucketed"),
) -> Selection:
    """Three-way selection within character-length buckets of fixed width.

    Records group by floor(char_length / bucket_width); each k is split
    across nonempty buckets by largest-remainder apportionment, the global
    selection rule runs inside each bucket against the bucket-local score
    mean, and quota shortfalls from buckets with too few free examples spill
    to the next bucket in descending-population order (repeating passes
    until placed).  Capacity errors are raised only when the corpus as a
    whole cannot satisfy the quotas.
    """
    s = np.asarray(scores, dtype=np.float64)
    lengths = np.asarray(char_lengths, dtype=np.int64)
    n = len(s)
    if len(lengths) != n:
        raise ValueError(f"char_lengths size {len(lengths)} does not match scores size {n}")

    bucket_of = lengths // spec.bucket_width
    # np.unique would import numpy.ma (15-19 ms) in NumPy 2.x; bincount gives the same sorted ids.
    bucket_ids = np.flatnonzero(np.bincount(bucket_of)).tolist()
    groups = [np.nonzero(bucket_of == b)[0] for b in bucket_ids]
    owner, quota, means = _claim(s, groups, spec, "bucketed")

    echo = {
        "spec": asdict(spec),
        "score_mean": _mean(s) if n else None,
        "buckets": [
            {
                "bucket": b,
                "population": len(groups[g]),
                "score_mean": means[g],
                "quota_low": quota[0][g],
                "quota_high": quota[1][g],
                "quota_mean": quota[2][g],
            }
            for g, b in enumerate(bucket_ids)
        ],
    }
    return _selection(owner, echo)


def write_selection_csv(labels: Sequence[str], corpus: "Corpus", scores, path: str | Path) -> None:
    """Selected rows only: ordinal,id,category,score,char_length ascending by ordinal.

    ``labels`` holds one category per example, as :attr:`Selection.labels` gives it.
    """
    s = np.asarray(scores, dtype=np.float64)
    write_csv(path, _SELECTION_HEADER, (
        [i, corpus.ids[i], label, repr(float(s[i])), len(corpus.contexts[i])]
        for i, label in enumerate(labels)
        if label != "unselected"
    ))


def read_selection_csv(data: bytes, corpus: "Corpus", scores, name: str = "selection.csv") -> list[str]:
    """The per-example labels that the selection CSV ``data`` records; unlisted examples are unselected.

    Each row must name an example of ``corpus`` by ordinal, id and char
    length, with that example's score in ``scores`` (the writer's
    ``repr(float)`` reads back exactly).  Raises SchemaError naming ``name``
    on bytes that are not UTF-8, a wrong header, a row without exactly five
    columns, an unknown category, a row that names no example of the corpus
    or one that an earlier row names, or a score that is not the example's.
    """
    s = np.asarray(scores, dtype=np.float64)
    labels = ["unselected"] * len(corpus)

    def parse(row: list[str]) -> tuple[str, int]:
        ordinal, ex_id, category, score, char_length = row
        if category not in _CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        i = row_ordinal(corpus, ordinal, ex_id, char_length)
        if labels[i] != "unselected":
            raise ValueError(f"example {i} is listed twice")
        if float(score) != s[i]:
            raise ValueError(f"score {score} is not example {i}'s score {float(s[i])!r}")
        return category, i

    for category, i in read_csv(data, name, _SELECTION_HEADER, parse):
        labels[i] = category
    return labels
