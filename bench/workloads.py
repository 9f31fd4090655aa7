"""Seeded workload generators and the CLI arguments each workload runs.

Every workload has a fixed shape: the multiset of context lengths and of
repeat counts is a function of the workload alone, and the seed only picks
the words and the order.  So n, L and the total token count are the same
for every seed, and run-to-run differences in time come from the machine,
not from the input size.

Text is Zipf-distributed over a ``w0000``-style vocabulary, lowercase and
without punctuation, so plain ``str.split`` tokenizes it exactly as the
package's tokenizer does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAGRAPHS_PER_ARTICLE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    format: str  # "squad" or "jsonl"
    unique_contexts: int
    min_tokens: int
    max_tokens: int
    max_repeats: int  # each context appears 1..max_repeats times (1 = unique)
    outlier_tokens: tuple[int, ...] = ()
    vocab: int = 5000
    zipf: float = 1.0
    sample_args: tuple[str, ...] = ()
    analyze_args: tuple[str, ...] = ()

    @property
    def input_name(self) -> str:
        return "input.json" if self.format == "squad" else "input.jsonl"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="squad-dup",
            why="SQuAD-shaped contexts repeated 1-8 times: featurization dominates, "
            "so deduplication and token-id reuse show here",
            format="squad",
            unique_contexts=600,
            min_tokens=60,
            max_tokens=400,
            max_repeats=8,
            sample_args=("--k-low", "500", "--k-high", "500", "--k-mean", "500"),
            analyze_args=("--orders", "1,2"),
        ),
        Workload(
            name="longtail-unique",
            why="unique short contexts plus a few very long outliers: the linear "
            "algebra at large L dominates and epsilon > 0 is applied",
            format="jsonl",
            unique_contexts=2000,
            min_tokens=20,
            max_tokens=200,
            max_repeats=1,
            outlier_tokens=(1200, 1350, 1500),
            sample_args=("--strategy", "bucketed",
                         "--k-low", "500", "--k-high", "500", "--k-mean", "500"),
            analyze_args=("--orders", "1"),
        ),
        Workload(
            name="many-short",
            why="many short repeated contexts: per-record overhead (parsing, CSV, "
            "hashing, subset writing, per-row calls) dominates",
            format="squad",
            unique_contexts=4000,
            min_tokens=8,
            max_tokens=60,
            max_repeats=8,
            sample_args=("--strategy", "bucketed", "--bucket-width", "50",
                         "--subset-format", "squad",
                         "--k-low", "4000", "--k-high", "4000", "--k-mean", "4000"),
            analyze_args=("--orders", "1", "--bins", "1000"),
        ),
    )
}


def _lengths(w: Workload) -> np.ndarray:
    """Token count of every unique context, before shuffling."""
    evenly = np.rint(np.linspace(w.min_tokens, w.max_tokens, w.unique_contexts)).astype(np.int64)
    return np.concatenate([evenly, np.array(w.outlier_tokens, dtype=np.int64)])


def _repeat_counts(w: Workload) -> np.ndarray:
    """How often each unique context occurs, before shuffling."""
    return np.resize(np.arange(1, w.max_repeats + 1), w.unique_contexts + len(w.outlier_tokens))


def _contexts(w: Workload, rng: np.random.Generator) -> list[str]:
    lengths = rng.permutation(_lengths(w))
    weights = 1.0 / np.arange(1, w.vocab + 1) ** w.zipf
    weights /= weights.sum()
    words = rng.choice(w.vocab, size=int(lengths.sum()), p=weights)
    width = len(str(w.vocab - 1))
    vocab = [f"w{i:0{width}d}" for i in range(w.vocab)]
    out = []
    start = 0
    for length in lengths:
        stop = start + int(length)
        out.append(" ".join([vocab[t] for t in words[start:stop]]))
        start = stop
    if len(set(out)) != len(out):
        raise RuntimeError(f"{w.name}: generated contexts are not unique")
    return out


def generate(w: Workload, seed: int) -> bytes:
    """The workload's input file as bytes; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    contexts = _contexts(w, rng)
    repeats = rng.permutation(_repeat_counts(w))
    if w.format == "jsonl":
        lines = []
        for c, (context, reps) in enumerate(zip(contexts, repeats)):
            for r in range(int(reps)):
                rec = {"id": f"c{c:05d}-{r}", "title": f"topic-{c % 25:02d}", "context": context}
                lines.append(json.dumps(rec))
        return ("\n".join(lines) + "\n").encode("utf-8")
    articles = []
    for c, (context, reps) in enumerate(zip(contexts, repeats)):
        if c % PARAGRAPHS_PER_ARTICLE == 0:
            articles.append({"title": f"article-{c // PARAGRAPHS_PER_ARTICLE:05d}", "paragraphs": []})
        first = context.split(" ", 1)[0]
        qas = [
            {"id": f"c{c:05d}-{r}", "question": f"question {r} about {first}",
             "answers": [{"text": first, "answer_start": 0}]}
            for r in range(int(reps))
        ]
        articles[-1]["paragraphs"].append({"context": context, "qas": qas})
    return (json.dumps({"version": "1.1", "data": articles}) + "\n").encode("utf-8")


def write_input(w: Workload, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / w.input_name
    path.write_bytes(generate(w, seed))
    return path


def shape(w: Workload) -> dict:
    """Seed-independent counts: records n, unique contexts, feature length L."""
    return {
        "records": int(_repeat_counts(w).sum()),
        "unique_contexts": len(_lengths(w)),
        "L": int(_lengths(w).max()),
    }
