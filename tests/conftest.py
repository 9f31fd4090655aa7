from __future__ import annotations

import json

import numpy as np
import pytest

from abnormality.corpus import Corpus

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


def make_synthetic_corpus(
    n_examples: int,
    vocab_size: int = 200,
    min_tokens: int = 20,
    max_tokens: int = 400,
    seed: int = 0,
    zipf_exponent: float = 1.0,
) -> Corpus:
    """Deterministic synthetic corpus: i.i.d. words, uniform token lengths.

    Intended for tests and benchmarks; contexts are space-joined words from
    a ``w000``-style vocabulary with token counts uniform in
    [min_tokens, max_tokens].  Word frequencies follow a Zipf law with the
    given exponent (0 for uniform), matching the heavy-tailed frequency
    structure of natural text.
    """
    if n_examples < 0 or vocab_size < 1 or min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("invalid synthetic corpus parameters")
    rng = np.random.default_rng(seed)
    width = len(str(vocab_size - 1))
    vocab = [f"w{i:0{width}d}" for i in range(vocab_size)]
    weights = 1.0 / np.arange(1, vocab_size + 1) ** zipf_exponent
    weights /= weights.sum()
    contexts = []
    for _ in range(n_examples):
        length = int(rng.integers(min_tokens, max_tokens + 1))
        words = rng.choice(vocab_size, size=length, p=weights)
        contexts.append(" ".join(vocab[w] for w in words))
    ids = tuple(f"synth-{i}" for i in range(n_examples))
    titles = tuple(f"topic-{i % 25:02d}" for i in range(n_examples))
    return Corpus(ids, titles, tuple(contexts), (None,) * n_examples)


def corpus_of(*contexts: str, titles: list[str] | None = None) -> Corpus:
    n = len(contexts)
    ids = tuple(f"ex-{i}" for i in range(n))
    titles = tuple(titles) if titles else tuple(f"t{i}" for i in range(n))
    return Corpus(ids, titles, contexts, (None,) * n)


def long_tail_corpus(seed: int) -> Corpus:
    """300 short contexts plus 3 long outliers, each repeated 1-3 times, shuffled.

    The outliers alone reach the last feature positions, so the padded tail
    of the covariance is rank deficient and factorization needs epsilon > 0.
    """
    rng = np.random.default_rng(seed)
    short = make_synthetic_corpus(300, vocab_size=60, min_tokens=5, max_tokens=40, seed=seed)
    long = make_synthetic_corpus(3, vocab_size=60, min_tokens=60, max_tokens=90, seed=seed + 100)
    contexts = short.contexts + long.contexts
    records = [c for c in contexts for _ in range(int(rng.integers(1, 4)))]
    records = [records[i] for i in rng.permutation(len(records))]
    n = len(records)
    ids = tuple(f"tail-{i}" for i in range(n))
    return Corpus(ids, ("t",) * n, tuple(records), (None,) * n)
