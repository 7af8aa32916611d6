import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_unknown,
    compose_reference,
    reference_csr,
    resolve_reference,
    scatter_reference,
)
import subtok.model
import subtok.segment
from subtok.corpus import Vocab, build_vocab, tokenize_corpus
from subtok.errors import ConfigError, FormatError, SubtokError
from subtok.model import (
    MAX_POSITIONS,
    ModelConfig,
    SubwordModel,
    _WordCSR,
    _write_matrix,
    export_vectors,
    init_params,
    load_checkpoint,
    load_vectors,
    save_checkpoint,
    build_segmentation,
    scatter_subtract,
)
from subtok.segment import NS_WORD_TOKEN, SubwordVocab


def small_model(**overrides):
    defaults = dict(segmenter="charn", dim=8, seed=5)
    defaults.update(overrides)
    corpus = tokenize_corpus("cat hat bat mat\nrat cat hat\ncatalog\n")
    vocab = build_vocab(corpus, 1)
    return SubwordModel.build(ModelConfig(**defaults), vocab)


class TestInitParams:
    def test_range(self):
        m = small_model(dim=50)
        assert np.abs(m.params.subword).max() <= 0.01
        assert np.abs(m.params.position).max() <= 0.01

    def test_context_zero(self):
        m = small_model()
        assert not m.params.context.any()

    def test_seed_determinism(self):
        a, b = small_model(seed=9), small_model(seed=9)
        assert np.array_equal(a.params.subword, b.params.subword)
        assert np.array_equal(a.params.position, b.params.position)

    def test_row_counts(self):
        m = small_model(word_token=True)
        assert m.params.subword.shape == (len(m.subword_vocab), 8)
        assert m.params.context.shape == (len(m.vocab), 8)
        assert m.params.position.shape == (MAX_POSITIONS, 8)


def compose_one(m, sub_ids, pos_ids, word_token_id=-1):
    """The composed vector of one word with the rows given."""
    csr = _WordCSR([None], np.array(sub_ids), np.array(pos_ids),
                   np.array([len(sub_ids)]), np.array([word_token_id]),
                   m.config.position)
    return csr.compose(m.params, np.zeros(1, dtype=np.int64))[0]


class TestCompose:
    def test_addition_no_position(self):
        m = small_model()
        m.params.subword[0] = [1, 2, 0, 0, 0, 0, 0, 0]
        m.params.subword[1] = [3, -1, 0, 0, 0, 0, 0, 0]
        assert compose_one(m, [0, 1], [0, 1])[:2] == pytest.approx([4, 1])

    def test_addition_with_position(self):
        m = small_model(position=True)
        m.params.subword[0] = [1, 2, 0, 0, 0, 0, 0, 0]
        m.params.subword[1] = [3, -1, 0, 0, 0, 0, 0, 0]
        m.params.position[0] = [0, 1, 0, 0, 0, 0, 0, 0]
        m.params.position[1] = [1, 0, 0, 0, 0, 0, 0, 0]
        assert compose_one(m, [0, 1], [0, 1])[:2] == pytest.approx([5, 2])

    def test_single_subword_identity(self):
        m = small_model(segmenter="word")
        csr = _WordCSR.of_model(m, ["cat"])
        assert csr.flat_sub.size == 1
        assert m.word_vector("cat") == pytest.approx(
            m.params.subword[csr.flat_sub[0]])

    def test_permutation_invariant_without_positions(self):
        m = small_model()
        assert compose_one(m, [2, 5], [0, 1]) == pytest.approx(
            compose_one(m, [5, 2], [0, 1]))

    def test_permutation_invariant_even_with_positions(self):
        # Position rows attach to sequence indices, so a transposition of the
        # subword ids leaves the additive sum unchanged: positions contribute
        # a length-dependent offset, not an order signal.
        m = small_model(position=True)
        a = compose_one(m, [2, 5], [0, 1])
        assert a == pytest.approx(compose_one(m, [5, 2], [0, 1]))
        expected = (m.params.subword[2] + m.params.position[0]
                    + m.params.subword[5] + m.params.position[1])
        assert a == pytest.approx(expected)

    def test_position_offset_depends_on_length(self):
        m = small_model(position=True)
        delta = compose_one(m, [2, 2], [0, 1]) - compose_one(m, [2], [0])
        expected = m.params.subword[2] + m.params.position[1]
        assert delta == pytest.approx(expected, abs=1e-6)

    def test_linear_in_tables(self):
        m = small_model(position=True, word_token=True)
        v1 = m.word_vector("cat").copy()
        m.params.subword *= 3.0
        m.params.position *= 3.0
        assert m.word_vector("cat") == pytest.approx(3.0 * v1, rel=1e-5)

    def test_word_token_delta(self):
        m = small_model(word_token=True)
        csr = _WordCSR.of_model(m, ["cat"])
        wt = csr.wt_ids[0]
        delta = (compose_one(m, csr.flat_sub, csr.flat_pos, wt)
                 - compose_one(m, csr.flat_sub, csr.flat_pos))
        assert delta == pytest.approx(m.params.subword[wt])

    def test_position_clamp_for_long_words(self, monkeypatch):
        monkeypatch.setattr(subtok.model, "MAX_POSITIONS", 3)
        m = small_model(position=True)
        pos_ids = _WordCSR.of_model(m, ["catalog"]).flat_pos
        assert pos_ids.max() == 2
        assert (pos_ids[3:] == 2).all()

    def test_all_unknown_zero_vector(self):
        m = small_model()
        vec = m.word_vector("zzzzzz")
        assert all_unknown(m, "zzzzzz")
        assert not vec.any()

    def test_unseen_word_shares_known_ngrams(self):
        m = small_model()
        # "cat" trained; same char n-grams as itself when recomposed as OOV
        vec = m.word_vector("cat")
        assert not all_unknown(m, "cat")
        assert vec.any()


@pytest.fixture(scope="class")
def max_positions_3():
    """MAX_POSITIONS 3, which clamps the positions of every word longer
    than `<a>`; class-scoped, so that Hypothesis tests can use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subtok.model, "MAX_POSITIONS", 3)
        yield


@lru_cache(maxsize=None)
def oracle_model(word_token, position):
    """A model built under max_positions_3, which its users must share."""
    return small_model(word_token=word_token, position=position)


def randomize_tables(m, seed):
    rng = np.random.default_rng(seed)
    for table in (m.params.subword, m.params.position):
        table[:] = rng.uniform(-1.0, 1.0, table.shape) / m.config.dim


# `zzz` and `q` have no known n-gram (and no word-token row): they compose
# to zero; `catalog` has positions past MAX_POSITIONS; `cat` is in vocab
FIXED_WORDS = ["zzz", "q", "catalog", "cat"]


# segmenter settings for the bulk resolution test
RESOLVE_SEGMENTERS = {
    "charn": {"segmenter": "charn"},
    "bpe": {"segmenter": "bpe", "num_merges": 10},
    "morf": {"segmenter": "morf"},
    "word": {"segmenter": "word"},
}


@lru_cache(maxsize=None)
def resolve_parts(kind, word_token):
    """(config, vocab, segmenter, subword vocab), to be resolved under
    max_positions_3. Under w+ the word-token key of `cat`, a vocab word, is
    taken out of the subword vocab."""
    cfg = ModelConfig(**RESOLVE_SEGMENTERS[kind], word_token=word_token,
                      dim=4)
    vocab = build_vocab(tokenize_corpus(
        "cat hat bat mat\nrat cat hat\ncatalog\n"), 1)
    segmenter, svocab = build_segmentation(cfg, vocab)
    svocab = SubwordVocab({k: v for k, v in svocab.entries.items()
                           if k != (NS_WORD_TOKEN, "cat")})
    return cfg, vocab, segmenter, svocab


@pytest.mark.usefixtures("max_positions_3")
class TestBulkResolve:
    @given(kind=st.sampled_from(sorted(RESOLVE_SEGMENTERS)),
           word_token=st.booleans(),
           words=st.lists(st.text(alphabet="cathlogbzq", min_size=1,
                                  max_size=9), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_word_reference(self, kind, word_token, words):
        cfg, vocab, segmenter, svocab = resolve_parts(kind, word_token)
        m = SubwordModel(cfg, vocab, svocab, segmenter)
        # OOV words, then the fixed and vocab words, then repeats
        words = words + FIXED_WORDS + vocab.words + words[::-1]
        csr, ref = _WordCSR.of_model(m, words), reference_csr(m, words)
        for name in ("flat_sub", "flat_pos", "lens", "starts", "wt_ids"):
            got = getattr(csr, name)
            assert got.dtype == np.int64, name
            assert got.tolist() == getattr(ref, name).tolist(), name
        # a word's unknown pieces: its segmentation's length less its rows
        for w, n in zip(words, csr.lens):
            r = resolve_reference(m, w)
            unknown_wt = word_token and r.word_token_id < 0
            assert len(segmenter.segment(w)) - n == r.unknown - unknown_wt, w

    def test_edge_cases_occur(self):
        """The cases the reference test must meet: clipped positions, an
        unknown subword beside known ones, a word with no known subword, and
        a vocab word without its word-token row."""
        cfg, vocab, segmenter, svocab = resolve_parts("charn", True)
        m = SubwordModel(cfg, vocab, svocab, segmenter)
        csr = _WordCSR.of_model(m, ["catalog", "cats", "cat", "hat", "q"])
        assert csr.flat_pos[csr.lens[0] - 1] == 2
        assert resolve_reference(m, "cats").unknown > 1
        assert csr.lens[1] > 0
        assert csr.wt_ids[2] == -1 and csr.wt_ids[3] >= 0
        assert csr.lens[4] == 0 and csr.wt_ids[4] == -1

    @pytest.mark.parametrize("word_token", [False, True])
    def test_each_vocab_word_segmented_once(self, monkeypatch, word_token):
        """Building a charn model's subword vocab and resolving its vocab
        words' rows, as the trainer does, and a sibling's, compute each
        word's n-grams once."""
        calls = []
        real = subtok.segment.char_ngrams

        def counted(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(subtok.segment, "char_ngrams", counted)
        vocab = build_vocab(tokenize_corpus(
            "cat hat bat mat\nrat cat hat\ncatalog\n"), 1)
        m = SubwordModel.build(ModelConfig(segmenter="charn", dim=8,
                                           word_token=word_token), vocab)
        _WordCSR.of_model(m)
        _WordCSR.of_model(m.with_seed(2))
        assert sorted(calls) == sorted(vocab.words)


@pytest.mark.usefixtures("max_positions_3")
class TestComposeOracle:
    @given(word_token=st.booleans(), position=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           words=st.lists(st.text(alphabet="cathlogbz", min_size=1,
                                  max_size=9), max_size=5),
           picks=st.lists(st.integers(0, 99), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_word_reference(self, word_token, position, seed,
                                        words, picks):
        m = oracle_model(word_token, position)
        randomize_tables(m, seed)
        words = words + FIXED_WORDS
        # every word once, then repeats in any order
        centers = np.asarray(list(range(len(words)))
                             + [p % len(words) for p in picks],
                             dtype=np.int64)
        csr = _WordCSR.of_model(m, words)
        vecs = csr.compose(m.params, centers)
        counts, sub_ids, pos_ids, wt_ids = csr.gather(centers)
        expected = np.array([compose_reference(m, words[c]) for c in centers])
        assert vecs.dtype == np.float32
        np.testing.assert_allclose(vecs, expected, rtol=0, atol=1e-6)
        # the gathered rows are each center's rows, in order
        each = _WordCSR.of_model(m, [words[c] for c in centers])
        assert counts.tolist() == each.lens.tolist()
        assert sub_ids.tolist() == each.flat_sub.tolist()
        if word_token:
            assert wt_ids.tolist() == each.wt_ids.tolist()
        else:
            assert wt_ids is None
        if position:
            assert pos_ids.tolist() == each.flat_pos.tolist()
        else:
            assert pos_ids is None

    def test_fixed_words_cover_the_edge_cases(self):
        m = oracle_model(True, True)
        for w in ("zzz", "q"):
            assert all_unknown(m, w)
        catalog = _WordCSR.of_model(m, ["catalog"])
        assert catalog.flat_pos.max() == 2
        assert catalog.flat_sub.size > 3

    def test_no_centers(self):
        m = oracle_model(True, True)
        csr, none = _WordCSR.of_model(m), np.empty(0, dtype=np.int64)
        vecs = csr.compose(m.params, none)
        counts, sub_ids, _, _ = csr.gather(none)
        assert vecs.shape == (0, 8) and counts.size == sub_ids.size == 0

    @pytest.mark.parametrize("word_token", [False, True])
    @pytest.mark.parametrize("position", [False, True])
    def test_vectors_equal_word_vector_bit_for_bit(self, word_token,
                                                   position):
        m = oracle_model(word_token, position)
        randomize_tables(m, 7)
        ws = FIXED_WORDS + m.vocab.words + ["hat", "mats", "cat"]
        stacked = np.stack([m.word_vector(w) for w in ws])
        assert m.vectors(ws).tobytes() == stacked.tobytes()


# signed zeros, infinities and subnormals of float32 and of float64
SPECIALS = (0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-40, 5e-324, -2.5e-320)
# (table, vals) dtypes: float32 and float64 pairs, and float32 with float64
DTYPE_PAIRS = [(np.float32, np.float32), (np.float64, np.float64),
               (np.float32, np.float64)]


class TestScatterSubtract:
    """Even widths take the column-pair (complex) view, odd widths and vals
    of another dtype the float path; both must match the loop."""

    # four table rows, so a long row list repeats rows many times
    @given(rows=st.lists(st.integers(0, 3), max_size=40),
           dim=st.integers(1, 8), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           dtypes=st.sampled_from(DTYPE_PAIRS), strided=st.booleans(),
           specials=st.lists(st.sampled_from(SPECIALS), max_size=8))
    @example(rows=[], dim=3, seed=0, scale=1.0, dtypes=DTYPE_PAIRS[0],
             strided=False, specials=[])
    @example(rows=[2] * 40, dim=5, seed=1, scale=1.0, dtypes=DTYPE_PAIRS[0],
             strided=False, specials=[])
    @example(rows=[0, 1, 0, 3, 0, 1], dim=4, seed=2, scale=1.0,
             dtypes=DTYPE_PAIRS[0], strided=False, specials=list(SPECIALS))
    @example(rows=[1, 1, 0, 1], dim=8, seed=3, scale=1e-3,
             dtypes=DTYPE_PAIRS[1], strided=True,
             specials=list(SPECIALS[::-1]))
    @example(rows=[0, 1, 0, 3, 0, 1], dim=4, seed=4, scale=1.0,
             dtypes=DTYPE_PAIRS[2], strided=True, specials=list(SPECIALS))
    @example(rows=[0, 1, 0, 3, 0, 1], dim=3, seed=5, scale=1.0,
             dtypes=DTYPE_PAIRS[0], strided=True, specials=list(SPECIALS))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_loop_bit_for_bit(self, rows, dim, seed, scale,
                                             dtypes, strided, specials):
        table_dtype, vals_dtype = dtypes
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(4, dim)).astype(table_dtype)
        wide = (rng.normal(size=(len(rows), 2 * dim)) * scale).astype(
            vals_dtype)
        vals = wide[:, ::2] if strided else np.ascontiguousarray(wide[:, ::2])
        for i, x in enumerate(specials):
            table.flat[i % table.size] = x
            if vals.size:
                vals.flat[(3 * i + 1) % vals.size] = x
        rows = np.asarray(rows, dtype=np.int64)
        expected = table.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
            scatter_reference(expected, rows, vals)
            scatter_subtract(table, rows, vals)
        assert table.tobytes() == expected.tobytes()


class TestExport:
    def test_format(self, tmp_path):
        m = small_model(dim=5)
        out = tmp_path / "vec.txt"
        export_vectors(m, out)
        lines = out.read_text("utf-8").splitlines()
        assert lines[0] == f"{len(m.vocab)} 5"
        assert len(lines) == len(m.vocab) + 1

    def test_roundtrip_tolerance(self, tmp_path):
        m = small_model()
        out = tmp_path / "vec.txt"
        export_vectors(m, out)
        words, mat = load_vectors(out)
        assert words == m.vocab.words
        for i, w in enumerate(words):
            assert np.abs(mat[i] - m.word_vector(w)).max() < 1e-5

    def test_bytes_equal_per_element_format(self, tmp_path):
        m = small_model(dim=4)
        rng = np.random.default_rng(0)
        table = rng.normal(scale=3e3, size=(len(m.vocab), 4)).astype(
            np.float32)
        table[0] = [-0.0, 0.0, -4e-7, 4e-7]  # -0.0 and round to +-0.000000
        table[1] = [-5e-7, 9999.9999995, -10000.0000005, 12345.678]
        table[2] = [-1e4, 1e4, 0.0000005, -0.0000015]
        m.vectors = lambda words: table
        out = tmp_path / "vec.txt"
        export_vectors(m, out)
        expected = f"{len(m.vocab)} 4\n" + "".join(
            w + " " + " ".join(f"{x:.6f}" for x in row) + "\n"
            for w, row in zip(m.vocab.words, table))
        assert "-0.000000" in expected
        assert out.read_bytes() == expected.encode("utf-8")

    def test_load_bad_number_names_its_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 2\na 0.1 x\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2: could not convert "
                                              "string to float: 'x'") as exc:
            load_vectors(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("text,message", [
        ("1 2 3\na 0.1 0.2\n", "line 1: expected `<count> <dim>` header"),
        ("2 2\na 0.1 0.2\n", "header says 2 rows, file has 1")])
    def test_load_refuses_a_bad_header(self, tmp_path, text, message):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(message)):
            load_vectors(path)

    def test_empty_vocab_refused(self):
        # so no model, and no export, has an empty vocabulary
        with pytest.raises(SubtokError, match="at least one word"):
            Vocab(words=[], counts=np.empty(0, dtype=np.int64),
                  total_tokens=0)


class TestCheckpoint:
    @pytest.mark.parametrize("seg,kw", [
        ("charn", {}),
        ("word", {}),
        ("bpe", {"num_merges": 10}),
        ("morf", {}),
    ])
    def test_roundtrip_bitwise(self, tmp_path, seg, kw):
        m = small_model(segmenter=seg, word_token=True, position=True, **kw)
        save_checkpoint(m, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == m.config
        for w in m.vocab.words + ["unseenword"]:
            assert np.array_equal(loaded.word_vector(w), m.word_vector(w))

    def test_morf_keeps_a_long_vocab_word_whole(self, tmp_path):
        # training keeps the 32-letter word whole, so the reloaded lexicon
        # has it as one morph, however long
        long_word = "xyz" * 10 + "qq"
        corpus = tokenize_corpus(f"cat hat bat {long_word}\n{long_word}\n")
        m = SubwordModel.build(ModelConfig(segmenter="morf", dim=8, seed=5),
                               build_vocab(corpus, 1))
        save_checkpoint(m, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        words = m.vocab.words
        assert m.segmenter.segment(long_word) == (long_word,)
        assert [loaded.segmenter.segment(w) for w in words] == \
            [m.segmenter.segment(w) for w in words]
        assert np.array_equal(loaded.vectors(words), m.vectors(words))

    def test_loaded_charn_keeps_the_vocab_ngrams(self, tmp_path,
                                                 monkeypatch):
        """A loaded charn model composes its vocab words without computing
        their n-grams again, to the built model's vectors bit for bit."""
        m = small_model(word_token=True, position=True)
        save_checkpoint(m, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        calls = []
        real = subtok.segment.char_ngrams

        def counted(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(subtok.segment, "char_ngrams", counted)
        vecs = loaded.vectors(m.vocab.words)
        assert calls == []
        assert np.array_equal(vecs, m.vectors(m.vocab.words))

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(SubtokError):
            load_checkpoint(tmp_path / "nope")

    @pytest.mark.parametrize("name", ["subword", "position", "context"])
    def test_matrix_columns_must_equal_dim(self, tmp_path, name):
        m = small_model()
        save_checkpoint(m, tmp_path / "ckpt")
        table = getattr(m.params, name)
        _write_matrix(tmp_path / "ckpt" / f"{name}.mat",
                      np.hstack([table, table[:, :1]]))
        rows = table.shape[0]
        with pytest.raises(FormatError, match=rf"{name} matrix is {rows}x9; "
                                              rf"config and vocab need "
                                              rf"{rows}x8"):
            load_checkpoint(tmp_path / "ckpt")

    def test_config_text(self, tmp_path):
        save_checkpoint(small_model(segmenter="bpe", num_merges=10,
                                    position=True), tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "config.txt").read_text("utf-8") == (
            "segmenter=bpe\nnum_merges=10\nword_token=False\nposition=True\n"
            "dim=8\nseed=5\n")

    @pytest.mark.parametrize("spelling", ["True", "true", "1", "yes",
                                          "False", "false", "0", "no"])
    def test_config_comments_and_bool_spellings(self, tmp_path, spelling):
        """The spellings of a bool that config.txt once took: the two that
        `save` writes load, the other six are refused."""
        word_token = spelling in ("True", "true", "1", "yes")
        m = small_model(word_token=word_token)
        save_checkpoint(m, tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        config.write_text(config.read_text("utf-8").replace(
            f"word_token={word_token}", f"word_token={spelling}"),
            encoding="utf-8")
        if spelling in ("True", "False"):
            assert load_checkpoint(tmp_path / "ckpt").config == m.config
            return
        with pytest.raises(FormatError, match=re.escape(
                f"line 3: word_token must be True or False, got "
                f"{spelling!r}")):
            load_checkpoint(tmp_path / "ckpt")

    # a comment line, which `save` never writes, is refused like a bad bool
    @pytest.mark.parametrize("spelling", [
        "ture", "TRUE", "2", "", pytest.param("True\n# edited",
                                              id="comment")])
    def test_config_unknown_bool_is_a_format_error(self, tmp_path, spelling):
        save_checkpoint(small_model(word_token=True), tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        config.write_text(config.read_text("utf-8").replace(
            "word_token=True", f"word_token={spelling}"), encoding="utf-8")
        ln = 4 if "#" in spelling else 3
        message = ("bad config line '# edited'" if "#" in spelling else
                   f"word_token must be True or False, got {spelling!r}")
        with pytest.raises(FormatError, match=re.escape(
                f"line {ln}: {message} in {config}")) as exc:
            load_checkpoint(tmp_path / "ckpt")
        assert exc.value.line_number == ln

    def test_config_with_max_positions_loads(self, tmp_path):
        """A config.txt written while `max_positions`, `ngram_min` and
        `ngram_max` were config fields carries them. `max_positions` is
        ignored, and the n-gram range loads at 3-6, the range this version
        cuts, to the same vectors; another range is refused on its line,
        because its model composes from other n-grams."""
        m = small_model(position=True)
        save_checkpoint(m, tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        text = config.read_text("utf-8").replace(
            "num_merges=10000\n",
            "num_merges=10000\nngram_min=3\nngram_max=6\n").replace(
            "dim=8\n", "dim=8\nmax_positions=20\n")
        config.write_text(text, encoding="utf-8")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == m.config
        assert loaded.params.position.tobytes() == \
            m.params.position.tobytes()
        words = m.vocab.words + ["scatter", "q"]
        assert loaded.vectors(words).tobytes() == m.vectors(words).tobytes()
        for old, new, ln in (("ngram_min=3", "ngram_min=5", 3),
                             ("ngram_max=6", "ngram_max=4", 4),
                             ("ngram_min=3", "ngram_min=x", 3)):
            config.write_text(text.replace(old, new), encoding="utf-8")
            with pytest.raises(FormatError, match=re.escape(
                    f"line {ln}: {new.split('=')[0]} must be ")) as exc:
                load_checkpoint(tmp_path / "ckpt")
            assert exc.value.line_number == ln

    def test_config_repeated_key(self, tmp_path):
        """A key given twice is refused on its second line; the last value
        no longer wins."""
        save_checkpoint(small_model(), tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        lines = config.read_text("utf-8").splitlines(True)
        assert lines[-1] == "seed=5\n"
        config.write_text("".join(lines) + "seed=6\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"line {len(lines) + 1}: repeated key 'seed' in "
                f"{config}")) as exc:
            load_checkpoint(tmp_path / "ckpt")
        assert exc.value.line_number == len(lines) + 1

    # `int` reads each of the last five as 8 or 1; config.txt holds ints
    # as ASCII digits, as its bools as True or False
    @pytest.mark.parametrize("key,value", [
        ("dim", "abc"), ("seed", "-1"), ("num_merges", "1.5"),
        ("dim", "0_8"), ("seed", "\u0661"), ("dim", "+8"), ("dim", " 8"),
        ("dim", "\uff18")])
    def test_config_int_not_a_number(self, tmp_path, key, value):
        save_checkpoint(small_model(), tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        lines = config.read_text("utf-8").splitlines(True)
        ln = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(f"{key}="))
        lines[ln - 1] = f"{key}={value}\n"
        config.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"line {ln}: {key} must be a non-negative integer, got "
                f"{value!r} in {config}")) as exc:
            load_checkpoint(tmp_path / "ckpt")
        assert exc.value.line_number == ln

    def test_position_rows_must_equal_max_positions(self, tmp_path):
        m = small_model()
        save_checkpoint(m, tmp_path / "ckpt")
        _write_matrix(tmp_path / "ckpt" / "position.mat",
                      m.params.position[:12])
        with pytest.raises(FormatError, match=r"position matrix is 12x8; "
                                              r"config and vocab need 20x8"):
            load_checkpoint(tmp_path / "ckpt")


class TestConfigLabel:
    def test_bpe_labels(self):
        assert ModelConfig(segmenter="bpe", num_merges=10_000).label == \
            "bpe1e4:w-:p-"
        assert ModelConfig(segmenter="bpe", num_merges=1000,
                           word_token=True).label == "bpe1e3:w+:p-"

    def test_charn_label(self):
        cfg = ModelConfig(segmenter="charn", word_token=True, position=True)
        assert cfg.label == "charn:w+:p+"

    def test_invalid_segmenter(self):
        with pytest.raises(ValueError):
            ModelConfig(segmenter="wordpiece")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ModelConfig(seed=-1)
