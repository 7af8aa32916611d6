"""Corpus ingestion, vocabulary construction, scarcity sampling, and the
sampling distributions used by SGNS training."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from subtok.errors import (
    ConfigError,
    FormatError,
    SubtokError,
    nonnegative_int,
    read_fields,
)

# negatives are drawn from the unigram distribution raised to this power
NEGATIVE_POWER = 0.75


@dataclass(frozen=True)
class Corpus:
    """A tokenized corpus: sentences are non-empty lists of non-empty tokens.
    `from_sentences` drops empty sentences; its callers make no empty token."""

    sentences: tuple[tuple[str, ...], ...]
    token_count: int

    @classmethod
    def from_sentences(cls, sentences: Iterable[Iterable[str]]) -> "Corpus":
        sents = tuple(tuple(s) for s in sentences if s)
        return cls(sentences=sents, token_count=sum(len(s) for s in sents))


def tokenize_corpus(text: str | bytes) -> Corpus:
    """Split a plain-text stream into a Corpus: one sentence per line, tokens
    on whitespace runs, empty lines skipped.

    Byte input is decoded as UTF-8; a decode failure reports the byte offset.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SubtokError(f"invalid UTF-8 at byte offset {exc.start}: "
                              f"{exc.reason}") from exc
    sentences = []
    for line in text.splitlines():
        toks = line.split()
        if toks:
            sentences.append(tuple(toks))
    return Corpus.from_sentences(sentences)


def load_corpus(path: str | Path) -> Corpus:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read corpus file {path}: {exc}") from exc
    return tokenize_corpus(data)


@dataclass
class Vocab:
    """Word types, at least one, with dense ids assigned by descending
    count, ties broken lexicographically."""

    words: list[str]
    counts: np.ndarray  # int64, aligned with ids
    total_tokens: int  # corpus token count, including dropped rare words
    word2id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.words:
            raise SubtokError("a vocabulary needs at least one word")
        if not self.word2id:
            self.word2id = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def items(self):
        for i, w in enumerate(self.words):
            yield w, i, int(self.counts[i])

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for w, i, c in self.items():
                fh.write(f"{w}\t{i}\t{c}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocab":
        word2id, counts = {}, []
        for ln, (word, wid, count) in read_fields(
                path, "vocab file", "\t", 3,
                "expected word<TAB>id<TAB>count"):
            if nonnegative_int(wid, "word id", ln) != len(word2id):
                raise FormatError(f"non-contiguous id {wid}", ln)
            if not word:
                raise FormatError("empty word", ln)
            if word.split() != [word]:  # the tokenizer splits it
                raise FormatError(f"word {word!r} holds whitespace", ln)
            if word in word2id:
                raise FormatError(f"repeated word {word!r}", ln)
            word2id[word] = len(word2id)
            counts.append(nonnegative_int(count, "word count", ln))
        if not word2id:
            raise SubtokError(f"no vocabulary entries in {path}")
        counts_arr = np.asarray(counts, dtype=np.int64)
        return cls(words=list(word2id), counts=counts_arr,
                   total_tokens=int(counts_arr.sum()), word2id=word2id)


def build_vocab(corpus: Corpus, min_count: int) -> Vocab:
    """Collect word types with frequency >= min_count; ids ordered by
    descending count, then lexicographically."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    freq = Counter(itertools.chain.from_iterable(corpus.sentences))
    kept = [(w, c) for w, c in freq.items() if c >= min_count]
    if not kept:
        raise SubtokError(
            f"no word type reaches min_count={min_count} "
            f"({len(freq)} types in corpus)"
        )
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in kept]
    counts = np.asarray([c for _, c in kept], dtype=np.int64)
    return Vocab(words=words, counts=counts, total_tokens=corpus.token_count)


def sample_tokens(corpus: Corpus, n: int) -> Corpus:
    """Contiguous prefix of exactly n >= 1 tokens; the final sentence is
    truncated if needed."""
    if n > corpus.token_count:
        raise SubtokError(f"requested {n} tokens but only "
                          f"{corpus.token_count} are available")
    out, taken = [], 0
    for sent in corpus.sentences:
        if taken + len(sent) <= n:
            out.append(sent)
            taken += len(sent)
        else:
            out.append(sent[: n - taken])
            taken = n
        if taken == n:
            break
    return Corpus.from_sentences(out)


def negative_sampling_weights(vocab: Vocab) -> np.ndarray:
    """Unigram distribution raised to NEGATIVE_POWER and renormalized;
    indexed by word id."""
    weights = vocab.counts.astype(np.float64) ** NEGATIVE_POWER
    return weights / weights.sum()


def subsample_keep_probs(vocab: Vocab, t: float) -> np.ndarray:
    """Per-id keep probability min(1, (sqrt(f/t)+1)*t/f) for frequent-word
    subsampling; t <= 0 disables (all ones)."""
    if t <= 0:
        return np.ones(len(vocab), dtype=np.float64)
    f = vocab.counts.astype(np.float64) / max(vocab.total_tokens, 1)
    keep = (np.sqrt(f / t) + 1.0) * (t / f)
    return np.minimum(1.0, keep)


@dataclass(frozen=True)
class DataGroup:
    """Corpus-size group with its fixed (batch_size, epochs, min_count)."""

    label: str
    batch_size: int
    epochs: int
    min_count: int


G1 = DataGroup("G1", 32, 60, 2)
G2 = DataGroup("G2", 128, 30, 3)
G3 = DataGroup("G3", 512, 15, 5)


def data_group_for(n_tokens: int) -> DataGroup:
    """Map a token count to its training group: [10K, 50K] -> G1,
    (50K, 500K] -> G2, (500K, 5M] -> G3. Counts outside the grid clamp to
    the nearest group."""
    if n_tokens <= 50_000:
        return G1
    if n_tokens <= 500_000:
        return G2
    return G3
