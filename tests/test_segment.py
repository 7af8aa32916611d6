import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bpe_reference_apply,
    bpe_reference_learn,
    morf_cost,
    morf_exhaustive_minimum,
    morf_reference_best_split,
    morf_reference_learn,
    morf_reference_viterbi,
    ngram_enumeration,
    subword_vocab_reference,
)
from subtok.corpus import build_vocab, tokenize_corpus
from subtok.errors import FormatError, SubtokError
from subtok.segment import (
    END_OF_WORD,
    NS_SUBWORD,
    NS_WORD_TOKEN,
    BpeModel,
    CharNgramSegmenter,
    MorfModel,
    SubwordVocab,
    WholeWordSegmenter,
    _best_split,
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

    # Few symbols and counts of 1-3 make many pairs tie, the characters of
    # the old marker '</w>' sort before the letters and before the marker,
    # and up to 80 merges on at most 10 short words runs past the point
    # where no pair occurs twice. 'é' (2 bytes in UTF-8) and U+1F600 (past
    # the 16-bit plane) check that the census keys pairs by code point.
    @given(freqs=st.dictionaries(st.text("ab</w>é\U0001f600", min_size=1,
                                         max_size=6),
                                 st.integers(1, 3), min_size=1, max_size=10),
           num_merges=st.integers(1, 80))
    @example(freqs={"ab": 2, "ba": 2, "aa": 2, "bb": 2}, num_merges=80)
    @example(freqs={"aaaa": 1, "abab": 1}, num_merges=1)
    # a lone surrogate, which UTF-8 and UTF-32 cannot encode strictly
    @example(freqs={"a\ud800a\ud800": 3, "\ud800\U0001f600": 2},
             num_merges=10)
    @settings(max_examples=200, deadline=None)
    def test_heap_matches_full_scan_oracle(self, freqs, num_merges):
        got = learn_bpe(vocab_from_freqs(freqs), num_merges).merges
        assert got == bpe_reference_learn(freqs, num_merges)

    # Every training word's segmentation, which learn_bpe caches, must be
    # what apply_bpe gives for the learned merges. The characters of the old
    # marker let a word spell out '</w>', which now is an ordinary symbol;
    # overlapping occurrences test the pairs updated around a merge.
    @given(freqs=st.dictionaries(st.text("ab</w>é\U0001f600", min_size=1,
                                         max_size=8),
                                 st.integers(1, 4), min_size=1, max_size=10),
           num_merges=st.integers(1, 60))
    @example(freqs={"aaaa": 2, "abab": 3, "aaa": 2}, num_merges=10)
    # (b, marker) merges first and takes abab's last b, so abab's second
    # (a, b) slot is stale when (a, b) merges: merging it anyway would
    # write ab over its a and drop the b-marker symbol that follows
    @example(freqs={"abab": 2, "b": 3}, num_merges=2)
    @example(freqs={"a\ud800a\ud800": 3, "\ud800\U0001f600": 2},
             num_merges=10)
    @example(freqs={"aaaaaaa": 2, "ababa": 2, "baaab": 1}, num_merges=60)
    @example(freqs={"/": 3, "/</w></w>": 1}, num_merges=30)
    @settings(max_examples=300, deadline=None)
    def test_training_segmentations_match_apply_bpe(self, freqs, num_merges):
        v = vocab_from_freqs(freqs)
        model = learn_bpe(v, num_merges)
        fresh = BpeModel(merges=model.merges, num_merges=num_merges)
        for w in v.words:
            assert model.segment(w) == apply_bpe(fresh, w)

    # Stopping after n merges must give the first n merges of a run to
    # exhaustion, so one learn can serve every merge count of a vocab.
    @given(freqs=st.dictionaries(st.text("abc", min_size=1, max_size=8),
                                 st.integers(1, 4), min_size=1, max_size=8))
    @example(freqs={"ab": 2, "ba": 2, "aa": 2, "bb": 2})
    @example(freqs={"aaaa": 1, "abab": 1})
    @settings(max_examples=100, deadline=None)
    def test_merges_are_a_prefix_of_the_exhaustive_run(self, freqs):
        v = vocab_from_freqs(freqs)
        full = learn_bpe(v, 10_000).merges
        assert len(full) < 10_000  # no pair occurs twice any more
        for n in range(1, len(full) + 1):
            assert learn_bpe(v, n).merges == full[:n]

    def test_cache_seeded_from_training(self):
        freqs = {"aaaa": 2, "abab": 3, "aaa": 2}
        model = learn_bpe(vocab_from_freqs(freqs), 10)
        assert model._cache == {w: bpe_reference_apply(model.merges, w)
                                for w in freqs}

    def test_cache_seeded_when_a_word_spells_the_old_marker(self):
        # With '</w>' as the marker this vocab had merges rebuild the merged
        # pair ('/', '</w>') out of a word's letters, and nothing was seeded
        freqs = {"/": 3, "/</w></w>": 1}
        model = learn_bpe(vocab_from_freqs(freqs), 30)
        assert model.merges[0] == ("/", END_OF_WORD)
        fresh = BpeModel(merges=model.merges, num_merges=30)
        assert model._cache == {w: apply_bpe(fresh, w) for w in freqs}

    def test_marker_sorts_last_inside_a_symbol(self):
        # the third merge ties ('b', 'a' + marker) with ('b', 'aa' + marker)
        model = learn_bpe(vocab_from_freqs({"ba": 2, "baa": 2}), 3)
        assert model.merges == [("a", END_OF_WORD), ("a", "a" + END_OF_WORD),
                                ("b", "aa" + END_OF_WORD)]

    def test_refuses_a_word_with_the_marker(self):
        v = vocab_from_freqs({"ab": 2, "a" + END_OF_WORD: 2})
        with pytest.raises(SubtokError, match="U\\+10FFFF"):
            learn_bpe(v, 5)

    def test_save_load(self, tmp_path):
        v = vocab_from_freqs({"low": 5, "lowest": 3, "newest": 6})
        model = learn_bpe(v, 50)
        model.save(tmp_path / "bpe.txt")
        loaded = BpeModel.load(tmp_path / "bpe.txt")
        assert loaded.merges == model.merges
        assert loaded.num_merges == model.num_merges
        assert loaded.segment("lowest") == model.segment("lowest")

    # `load` refuses a merge that uses a symbol no earlier merge makes;
    # learn_bpe merges only characters and symbols that it has made
    @given(freqs=st.dictionaries(st.text("ab</w>é\U0001f600", min_size=1,
                                         max_size=8),
                                 st.integers(1, 4), min_size=1, max_size=10),
           num_merges=st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_every_saved_model_loads(self, freqs, num_merges):
        model = learn_bpe(vocab_from_freqs(freqs), num_merges)
        with tempfile.TemporaryDirectory() as tmp:
            model.save(Path(tmp) / "bpe.txt")
            assert BpeModel.load(Path(tmp) / "bpe.txt").merges == model.merges


class TestApplyBpe:
    def test_replay_order(self):
        model = BpeModel(merges=[("e", "s"), ("es", "t")], num_merges=2)
        assert apply_bpe(model, "test") == ("t", "est", END_OF_WORD)

    def test_no_merges(self):
        model = BpeModel(merges=[], num_merges=1)
        assert apply_bpe(model, "ab") == ("a", "b", END_OF_WORD)

    def test_inapplicable_merges(self):
        model = BpeModel(merges=[("a", "b")], num_merges=1)
        assert apply_bpe(model, "cd") == ("c", "d", END_OF_WORD)

    def test_unseen_characters_stay_singletons(self):
        v = vocab_from_freqs({"abab": 5})
        model = learn_bpe(v, 5)
        segs = apply_bpe(model, "axb")
        assert "x" in segs

    def test_refuses_a_word_with_the_marker(self):
        model = BpeModel(merges=[("a", "b")], num_merges=1)
        with pytest.raises(SubtokError, match="U\\+10FFFF"):
            apply_bpe(model, "ab" + END_OF_WORD)

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
    @example(word="</w>")
    @example(word="a</w>b")
    @settings(max_examples=100, deadline=None)
    def test_reconstructs_word(self, word):
        v = vocab_from_freqs({word: 3, word + word: 2})
        model = learn_bpe(v, 30)
        joined = "".join(s for s in model.segment(word) if s != END_OF_WORD)
        joined = joined.replace(END_OF_WORD, "")
        assert joined == word


class TestCharNgrams:
    def test_cat(self):
        assert char_ngrams("cat") == (
            "<ca", "cat", "at>", "<cat", "cat>", "<cat>")

    def test_short_word(self):
        assert char_ngrams("a") == ("<a>",)

    # words whose wrapped form is shorter than, as long as and longer than
    # the longest n-gram, so one slice table has one length, others several
    @given(st.text(st.characters(codec="utf-8", exclude_categories=("C",)),
                   min_size=1, max_size=12))
    @example("ab")
    @example("abcd")
    @example("abcdefg")
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, word):
        assert char_ngrams(word) == ngram_enumeration(word, 3, 6)

    @given(st.text("xyz<>", min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_count_formula(self, word):
        L = len(word) + 2
        expected = sum(L - n + 1 for n in range(3, min(6, L) + 1))
        assert len(char_ngrams(word)) == expected


@st.composite
def split_cases(draw):
    """(word, counts, f, denom) for one word's split search: counts of
    morphs over 2-4 letters, a denominator of at least the learner's, and
    a word that joins novel pieces and known morphs."""
    letters = "abcd"[:draw(st.integers(2, 4))]
    morphs = st.text(letters, min_size=1, max_size=4)
    counts = draw(st.dictionaries(morphs, st.integers(1, 50), max_size=6))
    pieces = st.one_of(morphs, st.sampled_from(sorted(counts))) if counts \
        else morphs
    word = "".join(draw(st.lists(pieces, min_size=1, max_size=4)))
    denom = (sum(counts.values()) + len(counts) + 1
             + draw(st.integers(0, 3)))
    return word, counts, draw(st.integers(1, 1000)), denom


class TestBestSplit:
    """The split search that tries only split points with a known morph
    in one half returns what the search over every split point returns:
    the same cost float, the same morphs, the same tie-breaks."""

    @given(case=split_cases())
    @example(case=("abba", {}, 1, 1))
    @example(case=("baab", {}, 7, 1))
    @example(case=("aabb", {"ab": 3}, 1, 5))
    @example(case=("babab", {"ab": 2, "b": 1}, 1000, 6))
    @example(case=("abcd", {"x": 3, "yz": 1}, 2, 7))  # no known morph
    # x + ab + y costs 2 (log 3 + 1) + log 1.5 = 4.60, below the whole
    # word's log 3 + 4 = 5.10
    @example(case=("xaby", {"ab": 1}, 1, 3))
    # every key is longer than the word, so no length is scanned
    @example(case=("ab", {"abc": 3, "bbab": 1}, 1, 7))
    # the word holds substrings of the keys' length 2, but none is a key
    @example(case=("abab", {"bb": 2, "aa": 1}, 3, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        word, counts, f, denom = case
        assert _best_split(word, counts, f, denom, set(map(len, counts))) == \
            morf_reference_best_split(word, counts, f, denom)


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
    @example(freqs={"abab": 3}, max_iters=2, unseen=["ab", "ba"])
    # "babb" splits into b + ab + b: a known morph between novel letters
    @example(freqs={"ab": 4, "babb": 1}, max_iters=3, unseen=["babba"])
    # the words have lengths 1, 3 and 5; the second pass adds the first
    # morph of length 2 ("aa"), and later words must find it
    @example(freqs={"aaa": 1, "baabb": 2, "b": 1, "bbbbb": 1}, max_iters=2,
             unseen=[])
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

    # Every word is longer than 30 letters and than every morph, so most of
    # its spans are scored as unknown without a lookup; few letters and small
    # counts make costs tie, so the first strict minimum must win there too.
    @given(lexicon=st.dictionaries(st.text("ab", min_size=1, max_size=4),
                                   st.integers(1, 4), max_size=6),
           words=st.lists(st.text("abc", min_size=31, max_size=60),
                          min_size=1, max_size=3))
    @example(lexicon={}, words=["ab" * 20])
    @example(lexicon={"ab": 1, "b": 1}, words=["ab" * 20])
    @settings(max_examples=100, deadline=None)
    def test_long_words_match_reference_viterbi(self, lexicon, words):
        model = MorfModel(morph_lexicon=dict(lexicon), corpus_cost=0.0)
        for w in words:
            assert model.segment(w) == morf_reference_viterbi(w, lexicon)

    def test_long_word_is_not_cubic(self):
        """A 3000-letter unknown word took 3.3 s when every span was sliced
        and looked up; the bound leaves a wide margin over today's time."""
        rng = np.random.default_rng(1)
        lexicon = {"ab": 3, "abc": 2, "ca": 1, "x": 1}
        word = "".join(rng.choice(list("abcdefgh"), 3000))
        model = MorfModel(morph_lexicon=dict(lexicon), corpus_cost=0.0)
        start = time.process_time()
        seg = model.segment(word)
        assert time.process_time() - start < 1.0
        assert "".join(seg) == word
        assert model.segment(word[:400]) == morf_reference_viterbi(
            word[:400], lexicon)

    def test_save_load(self, tmp_path):
        v = vocab_from_freqs({"walk": 10, "walked": 5, "walking": 5})
        model = learn_morfessor_lite(v)
        model.save(tmp_path / "morf.tsv")
        loaded = MorfModel.load(tmp_path / "morf.tsv")
        assert loaded.morph_lexicon == model.morph_lexicon
        assert loaded.segment("walked") == model.segment("walked")

    def test_save_load_keeps_the_training_analyses(self, tmp_path):
        """The one pass raised the cost and was reverted, so training keeps
        `ws` whole, where Viterbi over the lexicon splits it `w s`."""
        freqs = {"s": 819, "a": 742, "in": 639, "its": 259, "at": 245,
                 "it": 242, "vocab": 238, "k": 237, "w": 216, "ws": 1}
        model = learn_morfessor_lite(vocab_from_freqs(freqs))
        model.save(tmp_path / "morf.tsv")
        loaded = MorfModel.load(tmp_path / "morf.tsv")
        assert model.segment("ws") == ("ws",)
        assert {w: loaded.segment(w) for w in freqs} == \
            {w: model.segment(w) for w in freqs}
        assert loaded.morph_lexicon == model.morph_lexicon


class TestSegmentWord:
    def test_charn_with_word_token(self):
        seg = segment_word(CharNgramSegmenter(), "cat", True)
        assert len(seg.subwords) == 6
        assert seg.includes_word_token
        assert seg.keys()[-1] == (NS_WORD_TOKEN, "cat")

    def test_word_token_off(self):
        seg = segment_word(CharNgramSegmenter(), "cat", False)
        assert not seg.includes_word_token
        assert seg.keys() == list(seg.subwords)

    def test_bpe_no_merges_with_word_token(self):
        model = BpeModel(merges=[], num_merges=1)
        seg = segment_word(model, "ab", True)
        assert seg.subwords == ("a", "b", END_OF_WORD)
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
        assert set(sv.entries) == {"<aa", "aa>", "<aa>"}

    def test_bpe_no_merges_char_symbols(self):
        v = vocab_from_freqs({"a": 1, "b": 1, "c": 1})
        sv = build_subword_vocab(v, BpeModel(merges=[], num_merges=1), False)
        assert len(sv) == 4  # a, b, c and the marker

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

    # Ids follow first occurrence in vocab order, with each word token right
    # after its word's subwords; a subword spelled like a vocab word keeps
    # its own id in its own namespace.
    @given(freqs=st.dictionaries(st.text("abc", min_size=1, max_size=6),
                                 st.integers(1, 4), min_size=1, max_size=8),
           kind=st.sampled_from(["charn", "bpe", "morf", "word"]),
           size=st.integers(1, 6), word_token=st.booleans())
    @example(freqs={"ab": 1}, kind="word", size=1, word_token=True)
    # "abcd" is later in vocab order, and its n-gram "abc" is the word "abc"
    @example(freqs={"abc": 3, "abcd": 2}, kind="charn", size=2,
             word_token=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, freqs, kind, size, word_token):
        v = vocab_from_freqs(freqs)
        segmenter = {
            "charn": CharNgramSegmenter,
            "bpe": lambda: learn_bpe(v, size * 3),
            "morf": lambda: learn_morfessor_lite(v, max_iters=size % 3 + 1),
            "word": WholeWordSegmenter,
        }[kind]()
        expected = subword_vocab_reference(v, segmenter, word_token)
        got = build_subword_vocab(v, segmenter, word_token)
        assert list(got.entries.items()) == list(expected.items())

    def test_tsv_roundtrip(self, tmp_path):
        v = vocab_from_freqs({"ab": 3, "cd": 2})
        sv = build_subword_vocab(v, CharNgramSegmenter(), True)
        sv.save_tsv(tmp_path / "sv.tsv")
        assert SubwordVocab.load_tsv(tmp_path / "sv.tsv").entries == sv.entries

    def test_a_subword_spelled_like_a_word_keeps_its_id(self, tmp_path):
        """`abc` and `abcd` are both vocab words and 3- or 4-grams of
        `<abcd>`: under w+ each is two keys with two ids, in the file and
        back."""
        v = vocab_from_freqs({"abc": 3, "abcd": 2})
        sv = build_subword_vocab(v, CharNgramSegmenter(), True)
        for word in ("abc", "abcd"):
            assert {word, (NS_WORD_TOKEN, word)} <= set(sv.entries)
        sv.save_tsv(tmp_path / "sv.tsv")
        lines = (tmp_path / "sv.tsv").read_text("utf-8").splitlines()
        assert f"{NS_SUBWORD}\tabc\t{sv.entries['abc']}" in lines
        assert f"{NS_WORD_TOKEN}\tabc\t{sv.entries[NS_WORD_TOKEN, 'abc']}" \
            in lines
        loaded = SubwordVocab.load_tsv(tmp_path / "sv.tsv")
        assert list(loaded.entries.items()) == list(sv.entries.items())

    def test_loads_a_file_with_tuple_keys(self, tmp_path):
        """A subwords.tsv written while every key was a (namespace, string)
        tuple is the same format: it loads to the same ids and is written
        back byte for byte."""
        text = ("sub\t<ab\t0\nsub\tab>\t1\nword\tab\t2\nsub\tab\t3\n"
                "sub\t<ab>\t4\n")
        (tmp_path / "old.tsv").write_text(text, encoding="utf-8")
        sv = SubwordVocab.load_tsv(tmp_path / "old.tsv")
        assert list(sv.entries.items()) == [
            ("<ab", 0), ("ab>", 1), (("word", "ab"), 2), ("ab", 3),
            ("<ab>", 4)]
        sv.save_tsv(tmp_path / "new.tsv")
        assert (tmp_path / "new.tsv").read_text("utf-8") == text


class TestLoadersCheckNumbers:
    def test_bpe_header_count(self, tmp_path):
        path = tmp_path / "bpe.txt"
        path.write_text("#bpe v2 x\na b\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1: merge count") as exc:
            BpeModel.load(path)
        assert exc.value.line_number == 1

    @pytest.mark.parametrize("count", ["x", "-5"])
    def test_morf_count(self, tmp_path, count):
        path = tmp_path / "morf.tsv"
        path.write_text(f"#morf v2 2\nwalk\t3\nab\t{count}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: morph count") as exc:
            MorfModel.load(path)
        assert exc.value.line_number == 3

    def test_subword_vocab_id(self, tmp_path):
        path = tmp_path / "sv.tsv"
        path.write_text(f"{NS_SUBWORD}\t<ab\t0\n{NS_SUBWORD}\tab>\tone\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: subword id"):
            SubwordVocab.load_tsv(path)
