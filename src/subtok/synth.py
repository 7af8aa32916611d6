"""Synthetic morphology benchmark: a corpus plus a mention-typing dataset
whose labels are a deterministic function of word suffixes.

Words are stem+suffix; each suffix belongs to exactly one label class and
co-occurs with class topic words in the corpus. Suffix usage in the corpus
is Zipf-distributed, so small corpus prefixes cover only the frequent
suffixes. The mention test split uses held-out stems only, making every test
word OOV for embedding training.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from subtok.corpus import Corpus
from subtok.probe import MentionDataset

LETTERS = string.ascii_lowercase


@dataclass
class SuffixBenchmark:
    corpus: Corpus
    mentions: MentionDataset
    suffix_to_label: dict[str, str]
    train_stems: list[str]
    test_stems: list[str]

    def corpus_text(self) -> str:
        return "\n".join(" ".join(s) for s in self.corpus.sentences) + "\n"

    def mentions_tsv(self) -> str:
        lines = [" ".join(toks) + "\t" + label
                 for toks, label in self.mentions.examples]
        return "\n".join(lines) + "\n"


def _random_words(rng: np.random.Generator, n: int, lo: int, hi: int,
                  taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        length = int(rng.integers(lo, hi + 1))
        w = "".join(LETTERS[i] for i in rng.integers(0, 26, size=length))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _zipf_cdf(k: int) -> np.ndarray:
    """Cumulative Zipf weights over ranks 1..k, normalised to end at 1.
    `cdf.searchsorted(rng.random(), side="right")` then draws a rank (from
    0) exactly as `rng.choice(k, p=weights)` does, from the same one
    uniform draw, without building the CDF again on every call."""
    zipf = 1.0 / np.arange(1, k + 1)
    zipf /= zipf.sum()
    cdf = zipf.cumsum()
    cdf /= cdf[-1]
    return cdf


def make_suffix_benchmark(seed: int = 0, n_tokens: int = 50_000,
                          n_classes: int = 4, suffixes_per_class: int = 12,
                          n_train_stems: int = 40, n_test_stems: int = 20,
                          n_train_mentions: int = 1200,
                          n_dev_mentions: int = 300,
                          n_test_mentions: int = 400) -> SuffixBenchmark:
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    labels = [f"/type{c}" for c in range(n_classes)]

    suffixes = {
        lab: _random_words(rng, suffixes_per_class, 4, 5, taken)
        for lab in labels
    }
    suffix_to_label = {s: lab for lab, ss in suffixes.items() for s in ss}
    topics = {lab: _random_words(rng, 6, 5, 7, taken) for lab in labels}
    train_stems = _random_words(rng, n_train_stems, 4, 6, taken)
    test_stems = _random_words(rng, n_test_stems, 4, 6, taken)

    zipf_cdf = _zipf_cdf(suffixes_per_class)

    sentences = []
    total = 0
    while total < n_tokens:
        lab = labels[int(rng.integers(n_classes))]
        suffix = suffixes[lab][int(zipf_cdf.searchsorted(rng.random(),
                                                         side="right"))]
        stem = train_stems[int(rng.integers(n_train_stems))]
        word = stem + suffix
        topic = topics[lab]
        ctx = [topic[int(i)] for i in rng.integers(0, len(topic), size=6)]
        sent = ctx[:3] + [word] + ctx[3:]
        sentences.append(sent)
        total += len(sent)
    corpus = Corpus.from_sentences(sentences)

    def sample_mentions(n, stems):
        out = []
        for _ in range(n):
            lab = labels[int(rng.integers(n_classes))]
            suffix = suffixes[lab][int(rng.integers(suffixes_per_class))]
            stem = stems[int(rng.integers(len(stems)))]
            out.append(((stem + suffix,), lab))
        return out

    train_ex = sample_mentions(n_train_mentions, train_stems)
    dev_ex = sample_mentions(n_dev_mentions, train_stems)
    test_ex = sample_mentions(n_test_mentions, test_stems)
    examples = train_ex + dev_ex + test_ex
    splits = {
        "train": list(range(len(train_ex))),
        "dev": list(range(len(train_ex), len(train_ex) + len(dev_ex))),
        "test": list(range(len(train_ex) + len(dev_ex), len(examples))),
    }
    mentions = MentionDataset.from_examples(examples, splits=splits)
    return SuffixBenchmark(corpus=corpus, mentions=mentions,
                           suffix_to_label=suffix_to_label,
                           train_stems=train_stems, test_stems=test_stems)
