import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bpe_reference_apply,
    bpe_reference_learn,
    morf_cost,
    morf_exhaustive_minimum,
    morf_reference_learn,
    morf_reference_viterbi,
    ngram_enumeration,
)
from subtok.corpus import build_vocab, tokenize_corpus
from subtok.segment import (
    NS_SUBWORD,
    NS_WORD_TOKEN,
    BpeModel,
    CharNgramSegmenter,
    MorfModel,
    WholeWordSegmenter,
    apply_bpe,
    build_subword_vocab,
    char_ngrams,
    learn_bpe,
    learn_morfessor_lite,
    segment_word,
)


def vocab_from_freqs(freqs):
    text = "\n".join(" ".join([w] * c) for w, c in freqs.items())
    return build_vocab(tokenize_corpus(text), 1)


def random_freqs(rng, n_types, max_len=8, max_count=20):
    words = set()
    while len(words) < n_types:
        length = rng.integers(1, max_len + 1)
        words.add("".join("abcdefg"[i] for i in rng.integers(0, 7, length)))
    return {w: int(rng.integers(1, max_count)) for w in words}


class TestLearnBpe:
    def test_classic_first_merge(self):
        v = vocab_from_freqs({"low": 5, "lower": 2, "newest": 6, "widest": 3})
        model = learn_bpe(v, 10)
        assert model.merges[0] == ("e", "s")

    def test_single_pair(self):
        v = vocab_from_freqs({"aa": 3})
        model = learn_bpe(v, 1)
        assert model.merges == [("a", "a")]

    def test_early_stop(self):
        v = vocab_from_freqs({"ab": 2, "cd": 1})
        model = learn_bpe(v, 1000)
        assert len(model.merges) < 1000

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            freqs = random_freqs(rng, int(rng.integers(2, 51)))
            expected = bpe_reference_learn(freqs, 200)
            got = learn_bpe(vocab_from_freqs(freqs), 200).merges
            assert got == expected

    # Few symbols and counts of 1-3 make many pairs tie, the marker's
    # characters test its sort key, and up to 80 merges on at most 10 short
    # words runs past the point where no pair occurs twice.
    @given(freqs=st.dictionaries(st.text("ab</w>", min_size=1, max_size=6),
                                 st.integers(1, 3), min_size=1, max_size=10),
           num_merges=st.integers(1, 80))
    @example(freqs={"ab": 2, "ba": 2, "aa": 2, "bb": 2}, num_merges=80)
    @example(freqs={"aaaa": 1, "abab": 1}, num_merges=1)
    @settings(max_examples=200, deadline=None)
    def test_heap_matches_full_scan_oracle(self, freqs, num_merges):
        got = learn_bpe(vocab_from_freqs(freqs), num_merges).merges
        assert got == bpe_reference_learn(freqs, num_merges)

    # Every training word's segmentation, which learn_bpe caches, must be
    # what apply_bpe gives for the learned merges. The marker's characters
    # let a word spell out '</w>', which recreates pairs merged before;
    # overlapping occurrences test the pairs updated around a merge.
    @given(freqs=st.dictionaries(st.text("ab</w>", min_size=1, max_size=8),
                                 st.integers(1, 4), min_size=1, max_size=10),
           num_merges=st.integers(1, 60))
    @example(freqs={"aaaa": 2, "abab": 3, "aaa": 2}, num_merges=10)
    @example(freqs={"aaaaaaa": 2, "ababa": 2, "baaab": 1}, num_merges=60)
    @example(freqs={"/": 3, "/</w></w>": 1}, num_merges=30)
    @settings(max_examples=300, deadline=None)
    def test_training_segmentations_match_apply_bpe(self, freqs, num_merges):
        v = vocab_from_freqs(freqs)
        model = learn_bpe(v, num_merges)
        fresh = BpeModel(merges=model.merges, num_merges=num_merges)
        for w in v.words:
            assert model.segment(w) == apply_bpe(fresh, w)

    def test_cache_seeded_from_training(self):
        freqs = {"aaaa": 2, "abab": 3, "aaa": 2}
        model = learn_bpe(vocab_from_freqs(freqs), 10)
        assert model._cache == {w: bpe_reference_apply(model.merges, w)
                                for w in freqs}

    def test_no_cache_when_a_merge_recreates_a_merged_pair(self):
        # ('/', '</w>') is merged first; later merges spell '</w>' out of
        # '<', '/', 'w', '>' after a '/', which recreates that pair. Training
        # leaves it unmerged, apply_bpe merges it, so nothing is seeded.
        freqs = {"/": 3, "/</w></w>": 1}
        model = learn_bpe(vocab_from_freqs(freqs), 30)
        assert model.merges[0] == ("/", "</w>")
        assert model._cache == {}
        assert model.segment("/</w></w>") == ("/</w>", "</w></w>")

    def test_save_load(self, tmp_path):
        v = vocab_from_freqs({"low": 5, "lowest": 3, "newest": 6})
        model = learn_bpe(v, 50)
        model.save(tmp_path / "bpe.txt")
        loaded = BpeModel.load(tmp_path / "bpe.txt")
        assert loaded.merges == model.merges
        assert loaded.num_merges == model.num_merges
        assert loaded.segment("lowest") == model.segment("lowest")


class TestApplyBpe:
    def test_replay_order(self):
        model = BpeModel(merges=[("e", "s"), ("es", "t")], num_merges=2)
        assert apply_bpe(model, "test") == ("t", "est", "</w>")

    def test_no_merges(self):
        model = BpeModel(merges=[], num_merges=1)
        assert apply_bpe(model, "ab") == ("a", "b", "</w>")

    def test_inapplicable_merges(self):
        model = BpeModel(merges=[("a", "b")], num_merges=1)
        assert apply_bpe(model, "cd") == ("c", "d", "</w>")

    def test_unseen_characters_stay_singletons(self):
        v = vocab_from_freqs({"abab": 5})
        model = learn_bpe(v, 5)
        segs = apply_bpe(model, "axb")
        assert "x" in segs

    @given(st.text("abcd", min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_in_order_replay(self, word):
        v = vocab_from_freqs({"abab": 4, "abcd": 3, "dcba": 2, "aabb": 5})
        model = learn_bpe(v, 20)
        assert apply_bpe(model, word) == bpe_reference_apply(
            model.merges, word)

    @given(st.text(st.characters(codec="utf-8",
                                 exclude_categories=("Z", "C")),
                   min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_reconstructs_word(self, word):
        v = vocab_from_freqs({word: 3, word + word: 2})
        model = learn_bpe(v, 30)
        joined = "".join(s for s in model.segment(word) if s != "</w>")
        joined = joined.replace("</w>", "")
        assert joined == word


class TestCharNgrams:
    def test_cat(self):
        assert char_ngrams("cat", 3, 6) == (
            "<ca", "cat", "at>", "<cat", "cat>", "<cat>")

    def test_short_word(self):
        assert char_ngrams("a", 3, 6) == ("<a>",)

    def test_single_window(self):
        assert char_ngrams("cat", 5, 5) == ("<cat>",)

    @given(st.text(st.characters(codec="utf-8", exclude_categories=("C",)),
                   min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, word):
        assert char_ngrams(word, 3, 6) == ngram_enumeration(word, 3, 6)

    @given(st.text("xyz<>", min_size=1, max_size=15),
           st.integers(1, 4), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_count_formula(self, word, n_min, extra):
        n_max = n_min + extra
        L = len(word) + 2
        expected = sum(L - n + 1 for n in range(n_min, min(n_max, L) + 1))
        assert len(char_ngrams(word, n_min, n_max)) == expected


class TestMorfessorLite:
    def test_walk_family(self):
        v = vocab_from_freqs({"walk": 10, "walked": 5, "walking": 5})
        model = learn_morfessor_lite(v, max_iters=10)
        assert model.segment("walked") == ("walk", "ed")
        assert model.segment("walking") == ("walk", "ing")

    def test_walk_family_matches_exhaustive_search(self):
        freqs = {"walk": 10, "walked": 5, "walking": 5}
        model = learn_morfessor_lite(vocab_from_freqs(freqs), max_iters=10)
        best, best_cost = morf_exhaustive_minimum(freqs)
        learned = {w: model.segment(w) for w in freqs}
        assert learned == best
        assert morf_cost(learned, freqs) == pytest.approx(best_cost)

    def test_single_char(self):
        v = vocab_from_freqs({"a": 1})
        model = learn_morfessor_lite(v)
        assert model.morph_lexicon == {"a": 1}
        assert model.segment("a") == ("a",)

    def test_cost_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            freqs = random_freqs(rng, int(rng.integers(2, 15)), max_len=9)
            model = learn_morfessor_lite(vocab_from_freqs(freqs),
                                         max_iters=8)
            hist = model.cost_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_training_words_segmentable(self):
        rng = np.random.default_rng(11)
        freqs = random_freqs(rng, 12)
        model = learn_morfessor_lite(vocab_from_freqs(freqs))
        for w in freqs:
            seg = model.segment(w)
            assert "".join(seg) == w
            assert all(m in model.morph_lexicon for m in seg)

    # Few letters and small counts make split costs tie, so the order of
    # split points and the strict comparison matter; every float must match.
    @given(freqs=st.dictionaries(st.text("ab", min_size=1, max_size=7),
                                 st.integers(1, 4), min_size=1, max_size=8),
           max_iters=st.integers(1, 3),
           unseen=st.lists(st.text("abc", min_size=1, max_size=9),
                           max_size=4))
    @example(freqs={"walk": 10, "walked": 5, "walking": 5}, max_iters=3,
             unseen=["walks", "talked"])
    @example(freqs={"abab": 2, "ab": 2, "ba": 2, "aab": 1}, max_iters=3,
             unseen=["abba", "c"])
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_learner(self, freqs, max_iters, unseen):
        model = learn_morfessor_lite(vocab_from_freqs(freqs), max_iters)
        lexicon, analyses, history = morf_reference_learn(freqs, max_iters)
        assert model.morph_lexicon == lexicon
        assert {w: model.segment(w) for w in freqs} == analyses
        assert model.cost_history == history
        rebuilt = MorfModel(morph_lexicon=dict(lexicon), corpus_cost=0.0)
        for w in unseen:
            if w in freqs:
                continue
            expected = morf_reference_viterbi(w, lexicon)
            assert model.segment(w) == expected
            assert rebuilt.segment(w) == expected

    def test_save_load(self, tmp_path):
        v = vocab_from_freqs({"walk": 10, "walked": 5, "walking": 5})
        model = learn_morfessor_lite(v)
        model.save(tmp_path / "morf.tsv")
        loaded = MorfModel.load(tmp_path / "morf.tsv")
        assert loaded.morph_lexicon == model.morph_lexicon
        assert loaded.segment("walked") == model.segment("walked")


class TestSegmentWord:
    def test_charn_with_word_token(self):
        seg = segment_word(CharNgramSegmenter(), "cat", True)
        assert len(seg.subwords) == 6
        assert seg.includes_word_token
        assert seg.keys()[-1] == (NS_WORD_TOKEN, "cat")

    def test_word_token_off(self):
        seg = segment_word(CharNgramSegmenter(), "cat", False)
        assert not seg.includes_word_token
        assert all(ns == NS_SUBWORD for ns, _ in seg.keys())

    def test_bpe_no_merges_with_word_token(self):
        model = BpeModel(merges=[], num_merges=1)
        seg = segment_word(model, "ab", True)
        assert seg.subwords == ("a", "b", "</w>")
        assert seg.keys()[-1] == (NS_WORD_TOKEN, "ab")

    def test_deterministic(self):
        for segmenter in (CharNgramSegmenter(), WholeWordSegmenter(),
                          BpeModel(merges=[("a", "b")], num_merges=1)):
            a = segment_word(segmenter, "abba", True)
            b = segment_word(segmenter, "abba", True)
            assert a == b


class TestBuildSubwordVocab:
    def test_charn_small(self):
        v = vocab_from_freqs({"aa": 2})
        sv = build_subword_vocab(v, CharNgramSegmenter(), False)
        assert set(sv.entries) == {(NS_SUBWORD, "<aa"), (NS_SUBWORD, "aa>"),
                                   (NS_SUBWORD, "<aa>")}

    def test_bpe_no_merges_char_symbols(self):
        v = vocab_from_freqs({"a": 1, "b": 1, "c": 1})
        sv = build_subword_vocab(v, BpeModel(merges=[], num_merges=1), False)
        assert len(sv) == 4  # a, b, c, </w>

    def test_word_token_namespace_disjoint(self):
        v = vocab_from_freqs({"ab": 3, "cd": 2, "ef": 2})
        segmenter = CharNgramSegmenter()
        without = build_subword_vocab(v, segmenter, False)
        with_wt = build_subword_vocab(v, segmenter, True)
        assert len(with_wt) == len(without) + len(v)

    def test_ids_contiguous_and_deterministic(self):
        v = vocab_from_freqs({"abc": 5, "bcd": 3})
        sv1 = build_subword_vocab(v, CharNgramSegmenter(), True)
        sv2 = build_subword_vocab(v, CharNgramSegmenter(), True)
        assert sv1.entries == sv2.entries
        assert sorted(sv1.entries.values()) == list(range(len(sv1)))

    def test_tsv_roundtrip(self, tmp_path):
        v = vocab_from_freqs({"ab": 3, "cd": 2})
        sv = build_subword_vocab(v, CharNgramSegmenter(), True)
        sv.save_tsv(tmp_path / "sv.tsv")
        from subtok.segment import SubwordVocab

        assert SubwordVocab.load_tsv(tmp_path / "sv.tsv").entries == sv.entries
