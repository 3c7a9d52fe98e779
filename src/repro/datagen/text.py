"""Zipf text synthesizer (BigDataBench-style).

BigDataBench ships a data synthesizer that scales a real-world seed
corpus to arbitrary volume while preserving its statistics.  We model
the part that matters for the text workloads (WordCount, Grep, Sort,
NaiveBayes): word frequencies follow a Zipf law over a synthetic
vocabulary, line lengths follow a Poisson around a target mean, and the
skew/vocabulary knobs make different *inputs* genuinely different
(word-frequency profile for WordCount, key ordering for Sort — exactly
the input axes Section IV-E discusses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TextSpec", "synthesize_text", "synthesize_labeled_text", "make_vocabulary"]

#: Words per letter draw in :func:`make_vocabulary`: bounds the int64
#: letter buffer (~8192 × mean length × 8 B) however large the vocabulary.
VOCAB_BLOCK = 8192


@dataclass(frozen=True, slots=True)
class TextSpec:
    """Parameters of a synthetic corpus.

    ``zipf_s`` is the Zipf exponent (≈1.0 for natural language; larger
    means fewer distinct hot words); ``shuffle_ranks`` decorrelates
    alphabetical order from frequency rank, which changes the comparison
    behaviour of Sort without changing WordCount's histogram.
    """

    n_lines: int
    words_per_line: float = 10.0
    vocab_size: int = 5000
    zipf_s: float = 1.05
    word_len_mean: float = 7.0
    shuffle_ranks: bool = True

    def __post_init__(self) -> None:
        if self.n_lines <= 0:
            raise ValueError("n_lines must be positive")
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if self.words_per_line <= 0:
            raise ValueError("words_per_line must be positive")


def make_vocabulary(
    size: int, rng: np.random.Generator, word_len_mean: float = 7.0
) -> list[str]:
    """Synthetic vocabulary of ``size`` pseudo-words.

    Lengths are Poisson-distributed (min 2); letters uniform.  Words are
    unique by construction (a numeric suffix disambiguates collisions).
    """
    lengths = np.maximum(2, rng.poisson(word_len_mean, size=size))
    words: list[str] = []
    seen: set[str] = set()
    # One letter draw per block of words.  The bit generator itself
    # buffers 32-bit draws (PCG64 serves two per 64-bit step), so one
    # draw of sum(lengths) letters yields the same letters, and leaves
    # the same generator state, as one draw per word.
    for start in range(0, size, VOCAB_BLOCK):
        block = lengths[start : start + VOCAB_BLOCK]
        letters = rng.integers(0, 26, size=int(block.sum()))
        text = (letters.astype(np.uint8) + ord("a")).tobytes().decode("ascii")
        pos = 0
        for i, end in enumerate(np.cumsum(block).tolist(), start):
            w = text[pos:end]
            if w in seen:
                w = f"{w}{i}"
            seen.add(w)
            words.append(w)
            pos = end
    return words


def _zipf_probs(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks**-s
    return p / p.sum()


def synthesize_text(spec: TextSpec, seed: int) -> list[str]:
    """Generate a corpus of ``spec.n_lines`` lines.

    Word draws are fully vectorised: one multinomial-style draw for all
    words of the corpus, then lines are assembled by slicing.
    """
    rng = np.random.default_rng(seed)
    vocab = np.array(make_vocabulary(spec.vocab_size, rng, spec.word_len_mean))
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    if spec.shuffle_ranks:
        # Decouple frequency rank from alphabetical order.
        vocab = vocab[rng.permutation(spec.vocab_size)]

    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    total_words = int(line_lens.sum())
    word_ids = rng.choice(spec.vocab_size, size=total_words, p=probs)
    flat = vocab[word_ids]

    lines: list[str] = []
    pos = 0
    for ln in line_lens:
        lines.append(" ".join(flat[pos : pos + int(ln)]))
        pos += int(ln)
    return lines


def synthesize_labeled_text(
    spec: TextSpec,
    n_classes: int,
    seed: int,
    class_skew: float = 1.0,
) -> list[str]:
    """Labelled corpus for NaiveBayes: ``"<label>\\t<words...>"`` lines.

    Each class gets its own permutation of the shared vocabulary so the
    per-class word distributions differ (which is what gives the trained
    model non-trivial likelihoods).  ``class_skew`` is the Zipf exponent
    over class frequencies (1.0 ≈ mildly imbalanced classes).
    """
    if n_classes <= 0:
        raise ValueError("n_classes must be positive")
    rng = np.random.default_rng(seed)
    vocab = np.array(make_vocabulary(spec.vocab_size, rng, spec.word_len_mean))
    probs = _zipf_probs(spec.vocab_size, spec.zipf_s)
    class_probs = _zipf_probs(n_classes, class_skew)
    # Per-class view of the vocabulary: a fixed permutation per class.
    class_perm = [rng.permutation(spec.vocab_size) for _ in range(n_classes)]

    labels = rng.choice(n_classes, size=spec.n_lines, p=class_probs)
    line_lens = np.maximum(1, rng.poisson(spec.words_per_line, size=spec.n_lines))
    total_words = int(line_lens.sum())
    word_ranks = rng.choice(spec.vocab_size, size=total_words, p=probs)

    lines: list[str] = []
    pos = 0
    for label, ln in zip(labels, line_lens):
        ids = class_perm[int(label)][word_ranks[pos : pos + int(ln)]]
        lines.append(f"class{int(label)}\t" + " ".join(vocab[ids]))
        pos += int(ln)
    return lines
