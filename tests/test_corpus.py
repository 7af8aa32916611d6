import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subtok.corpus
from subtok.corpus import (
    G1,
    G2,
    G3,
    Vocab,
    build_vocab,
    data_group_for,
    negative_sampling_weights,
    sample_tokens,
    subsample_keep_probs,
    tokenize_corpus,
)
from subtok.errors import FormatError, SubtokError


class TestTokenize:
    def test_basic(self):
        c = tokenize_corpus("a b\n\nc d e\n")
        assert len(c.sentences) == 2
        assert c.token_count == 5

    def test_empty(self):
        c = tokenize_corpus("")
        assert len(c.sentences) == 0
        assert c.token_count == 0

    def test_whitespace_runs(self):
        c = tokenize_corpus("x  y\tz\n")
        assert c.sentences == (("x", "y", "z"),)

    def test_decode_error_offset(self):
        with pytest.raises(SubtokError, match="^invalid UTF-8 at byte offset "
                                              "3: "):
            tokenize_corpus(b"ab \xff cd")


class TestBuildVocab:
    def test_threshold(self):
        v = build_vocab(tokenize_corpus("a a b"), min_count=2)
        assert list(v.items()) == [("a", 0, 2)]

    def test_tie_break_lexicographic(self):
        v = build_vocab(tokenize_corpus("a a b b"), min_count=1)
        assert v.word2id == {"a": 0, "b": 1}

    def test_distinct_types(self):
        v = build_vocab(tokenize_corpus("q w e r t q"), min_count=1)
        assert len(v) == 5

    def test_empty_vocab_error(self):
        with pytest.raises(SubtokError, match="no word type reaches "
                                              "min_count=5"):
            build_vocab(tokenize_corpus("a b c"), min_count=5)

    def test_idempotent(self):
        c = tokenize_corpus("the cat sat on the mat the end\nthe cat\n")
        v1 = build_vocab(c, 1)
        v2 = build_vocab(c, 1)
        assert v1.words == v2.words
        assert np.array_equal(v1.counts, v2.counts)

    def test_tsv_roundtrip(self, tmp_path):
        v = build_vocab(tokenize_corpus("a a b c c c"), 1)
        v.save_tsv(tmp_path / "v.tsv")
        from subtok.corpus import Vocab

        v2 = Vocab.load_tsv(tmp_path / "v.tsv")
        assert v2.words == v.words
        assert np.array_equal(v2.counts, v.counts)


class TestSampleTokens:
    def test_prefix(self):
        c = tokenize_corpus("a b c\nd e f g\nh i j k l\n")
        s = sample_tokens(c, 10)
        assert s.token_count == 10
        assert [t for sent in s.sentences for t in sent] == \
            [t for sent in c.sentences for t in sent][:10]

    def test_identity(self):
        c = tokenize_corpus("a b c\nd e\n")
        assert sample_tokens(c, 5).sentences == c.sentences

    def test_truncation(self):
        c = tokenize_corpus("a b c\nd e f g\nh i j k l\n")
        s = sample_tokens(c, 5)
        assert s.sentences == (("a", "b", "c"), ("d", "e"))

    def test_insufficient(self):
        c = tokenize_corpus("a b c\n")
        with pytest.raises(SubtokError) as exc:
            sample_tokens(c, 4)
        assert "3" in str(exc.value)

    @given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1,
                             max_size=6), min_size=1, max_size=10),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_exact_count_property(self, sents, data):
        from subtok.corpus import Corpus

        c = Corpus.from_sentences(sents)
        n = data.draw(st.integers(1, c.token_count))
        assert sample_tokens(c, n).token_count == n


class TestNegativeSamplingWeights:
    def test_power_075(self):
        v = build_vocab(tokenize_corpus("a a a a b"), 1)
        w = negative_sampling_weights(v)
        # direct arithmetic: 4^0.75 / (4^0.75 + 1)
        expected_a = 4**0.75 / (4**0.75 + 1)
        assert w[v.word2id["a"]] == pytest.approx(expected_a, abs=1e-6)
        assert w[v.word2id["a"]] == pytest.approx(0.73880, abs=1e-5)
        assert w[v.word2id["b"]] == pytest.approx(0.26120, abs=1e-5)

    def test_symmetry(self):
        v = build_vocab(tokenize_corpus("a b"), 1)
        assert negative_sampling_weights(v) == pytest.approx([0.5, 0.5])

    def test_unigram(self, monkeypatch):
        """The weights follow NEGATIVE_POWER: at 1 they are the unigram
        distribution."""
        monkeypatch.setattr(subtok.corpus, "NEGATIVE_POWER", 1.0)
        v = build_vocab(tokenize_corpus("a a a b"), 1)
        w = negative_sampling_weights(v)
        assert w[v.word2id["a"]] == pytest.approx(0.75)

    @given(st.dictionaries(st.text("abcdefgh", min_size=1, max_size=4),
                           st.integers(1, 1000), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_distribution_properties(self, counts):
        text = "\n".join(" ".join([w] * c) for w, c in counts.items())
        v = build_vocab(tokenize_corpus(text), 1)
        w = negative_sampling_weights(v)
        assert abs(w.sum() - 1.0) < 1e-9
        assert (w > 0).all()


class TestDataGroups:
    @pytest.mark.parametrize("n,group", [
        (10_000, G1), (50_000, G1), (50_001, G2), (100_000, G2),
        (500_000, G2), (500_001, G3), (1_000_000, G3), (5_000_000, G3),
        (500, G1), (10_000_000, G3),  # clamped extensions
    ])
    def test_mapping(self, n, group):
        assert data_group_for(n) == group

    def test_group_triples(self):
        assert (G1.batch_size, G1.epochs, G1.min_count) == (32, 60, 2)
        assert (G2.batch_size, G2.epochs, G2.min_count) == (128, 30, 3)
        assert (G3.batch_size, G3.epochs, G3.min_count) == (512, 15, 5)

    def test_monotone(self):
        order = {"G1": 0, "G2": 1, "G3": 2}
        prev = 0
        for n in [1, 100, 10_000, 49_999, 50_001, 200_000, 600_000, 9**9]:
            cur = order[data_group_for(n).label]
            assert cur >= prev
            prev = cur


class TestSubsampling:
    def test_disabled(self):
        v = build_vocab(tokenize_corpus("a a a b"), 1)
        assert (subsample_keep_probs(v, 0.0) == 1.0).all()

    def test_frequent_words_downweighted(self):
        text = " ".join(["the"] * 100_000 + [f"w{i}" for i in range(100)])
        v = build_vocab(tokenize_corpus(text), 1)
        keep = subsample_keep_probs(v, 1e-5)
        assert keep[v.word2id["the"]] < 0.01
        assert keep[v.word2id["w0"]] == 1.0


@pytest.mark.parametrize("line,what", [("b\tx\t2", "word id"),
                                       ("b\t1\ttwo", "word count")])
def test_vocab_load_checks_numbers(tmp_path, line, what):
    path = tmp_path / "v.tsv"
    path.write_text(f"a\t0\t3\n{line}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"line 2: {what}"):
        Vocab.load_tsv(path)
