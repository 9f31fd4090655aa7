from __future__ import annotations

import json

import numpy as np
import pytest

from abnormality.corpus import Corpus, Example, make_synthetic_corpus

SQUAD_DOC = {
    "version": "1.1",
    "data": [
        {
            "title": "Alpha",
            "paragraphs": [
                {
                    "context": "The brain, the brain.",
                    "qas": [
                        {"id": "a1", "question": "what?", "answers": [{"text": "brain", "answer_start": 4}]},
                        {"id": "a2", "question": "which?", "answers": []},
                        {"id": "a3", "question": "why?", "answers": []},
                    ],
                },
            ],
        },
        {
            "title": "Beta",
            "paragraphs": [
                {"context": "b c", "qas": [{"id": "b1", "question": "huh?"}]},
                {"context": "d e f g", "qas": [{"id": "b2", "question": "eh?"}]},
            ],
        },
    ],
}


@pytest.fixture
def squad_bytes() -> bytes:
    return json.dumps(SQUAD_DOC).encode("utf-8")


def corpus_of(*contexts: str, titles: list[str] | None = None) -> Corpus:
    examples = tuple(
        Example(
            ordinal=i,
            id=f"ex-{i}",
            title=titles[i] if titles else f"t{i}",
            context=ctx,
        )
        for i, ctx in enumerate(contexts)
    )
    return Corpus(examples, source_descriptor="inline")


def long_tail_corpus(seed: int) -> Corpus:
    """300 short contexts plus 3 long outliers, each repeated 1-3 times, shuffled.

    The outliers alone reach the last feature positions, so the padded tail
    of the covariance is rank deficient and factorization needs epsilon > 0.
    """
    rng = np.random.default_rng(seed)
    short = make_synthetic_corpus(300, vocab_size=60, min_tokens=5, max_tokens=40, seed=seed)
    long = make_synthetic_corpus(3, vocab_size=60, min_tokens=60, max_tokens=90, seed=seed + 100)
    contexts = [ex.context for ex in (*short, *long)]
    records = [c for c in contexts for _ in range(int(rng.integers(1, 4)))]
    records = [records[i] for i in rng.permutation(len(records))]
    examples = tuple(Example(ordinal=i, id=f"tail-{i}", title="t", context=c) for i, c in enumerate(records))
    return Corpus(examples, source_descriptor=f"long-tail:seed={seed}")
