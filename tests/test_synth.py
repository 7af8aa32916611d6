import numpy as np
import pytest

from subtok.corpus import build_vocab, sample_tokens
from subtok.synth import _zipf_cdf, make_suffix_benchmark


class TestSuffixBenchmark:
    def test_deterministic(self):
        a = make_suffix_benchmark(seed=7, n_tokens=2000)
        b = make_suffix_benchmark(seed=7, n_tokens=2000)
        assert a.corpus.sentences == b.corpus.sentences
        assert a.mentions.examples == b.mentions.examples

    def test_token_budget(self):
        b = make_suffix_benchmark(seed=0, n_tokens=3000)
        assert 3000 <= b.corpus.token_count <= 3000 + 7

    def test_labels_follow_suffixes(self):
        b = make_suffix_benchmark(seed=1, n_tokens=2000)
        for toks, label in b.mentions.examples:
            word = toks[0]
            match = [lab for suf, lab in b.suffix_to_label.items()
                     if word.endswith(suf)]
            assert label in match

    def test_test_split_words_oov(self):
        # test mentions use held-out stems, so none of their words appear in
        # the corpus vocabulary
        b = make_suffix_benchmark(seed=2, n_tokens=5000)
        vocab = build_vocab(b.corpus, 1)
        for toks, _ in [b.mentions.examples[i]
                        for i in b.mentions.splits["test"]]:
            assert toks[0] not in vocab.word2id

    def test_small_prefix_misses_rare_suffixes(self):
        # Zipf usage: a small corpus prefix covers fewer distinct suffixes
        b = make_suffix_benchmark(seed=3, n_tokens=40_000)

        def covered(corpus):
            vocab = build_vocab(corpus, 1)
            seen = set()
            for w in vocab.words:
                for suf, lab in b.suffix_to_label.items():
                    if w.endswith(suf):
                        seen.add(suf)
            return len(seen)

        small = covered(sample_tokens(b.corpus, 2000))
        large = covered(b.corpus)
        assert small < large

    def test_serialization_shapes(self):
        b = make_suffix_benchmark(seed=4, n_tokens=1500)
        text = b.corpus_text()
        assert text.endswith("\n")
        assert all(len(l.split()) == 7 for l in text.splitlines())
        tsv = b.mentions_tsv()
        assert all(len(l.split("\t")) == 2 for l in tsv.splitlines())

    def test_splits_partition_examples(self):
        b = make_suffix_benchmark(seed=5, n_tokens=1500)
        s = b.mentions.splits
        ids = s["train"] + s["dev"] + s["test"]
        assert sorted(ids) == list(range(len(b.mentions.examples)))


class TestZipfDraw:
    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_cdf_draw_equals_choice(self, k):
        """A draw from the precomputed CDF picks the rank that
        `Generator.choice` picks with the Zipf weights, and consumes the
        same random numbers."""
        zipf = 1.0 / np.arange(1, k + 1)
        zipf /= zipf.sum()
        cdf = _zipf_cdf(k)
        by_choice, by_cdf = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(10_000):
            assert int(by_choice.choice(k, p=zipf)) == \
                int(cdf.searchsorted(by_cdf.random(), side="right"))
        assert by_choice.bit_generator.state == by_cdf.bit_generator.state
