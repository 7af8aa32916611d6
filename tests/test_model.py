import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_unknown,
    compose_reference,
    resolve_reference,
    scatter_reference,
)
import subtok.segment
from subtok.corpus import Vocab, build_vocab, tokenize_corpus
from subtok.errors import ConfigError, FormatError, SubtokError
from subtok.model import (
    ModelConfig,
    SubwordModel,
    WordIndices,
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
        assert m.params.position.shape == (m.config.max_positions, 8)


class TestCompose:
    def test_addition_no_position(self):
        m = small_model()
        idx = WordIndices(sub_ids=np.array([0, 1]), pos_ids=np.array([0, 1]),
                          word_token_id=-1, unknown=0)
        m.params.subword[0] = [1, 2, 0, 0, 0, 0, 0, 0]
        m.params.subword[1] = [3, -1, 0, 0, 0, 0, 0, 0]
        assert m.compose(idx)[:2] == pytest.approx([4, 1])

    def test_addition_with_position(self):
        m = small_model(position=True)
        idx = WordIndices(sub_ids=np.array([0, 1]), pos_ids=np.array([0, 1]),
                          word_token_id=-1, unknown=0)
        m.params.subword[0] = [1, 2, 0, 0, 0, 0, 0, 0]
        m.params.subword[1] = [3, -1, 0, 0, 0, 0, 0, 0]
        m.params.position[0] = [0, 1, 0, 0, 0, 0, 0, 0]
        m.params.position[1] = [1, 0, 0, 0, 0, 0, 0, 0]
        assert m.compose(idx)[:2] == pytest.approx([5, 2])

    def test_single_subword_identity(self):
        m = small_model(segmenter="word")
        idx = m.indices_of(["cat"])[0]
        assert idx.sub_ids.size == 1
        assert m.word_vector("cat") == pytest.approx(
            m.params.subword[idx.sub_ids[0]])

    def test_permutation_invariant_without_positions(self):
        m = small_model()
        a = WordIndices(np.array([2, 5]), np.array([0, 1]), -1, 0)
        b = WordIndices(np.array([5, 2]), np.array([0, 1]), -1, 0)
        assert m.compose(a) == pytest.approx(m.compose(b))

    def test_permutation_invariant_even_with_positions(self):
        # Position rows attach to sequence indices, so a transposition of the
        # subword ids leaves the additive sum unchanged: positions contribute
        # a length-dependent offset, not an order signal.
        m = small_model(position=True)
        a = WordIndices(np.array([2, 5]), np.array([0, 1]), -1, 0)
        b = WordIndices(np.array([5, 2]), np.array([0, 1]), -1, 0)
        assert m.compose(a) == pytest.approx(m.compose(b))
        expected = (m.params.subword[2] + m.params.position[0]
                    + m.params.subword[5] + m.params.position[1])
        assert m.compose(a) == pytest.approx(expected)

    def test_position_offset_depends_on_length(self):
        m = small_model(position=True)
        short = WordIndices(np.array([2]), np.array([0]), -1, 0)
        longer = WordIndices(np.array([2, 2]), np.array([0, 1]), -1, 0)
        delta = m.compose(longer) - m.compose(short)
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
        idx = m.indices_of(["cat"])[0]
        without = WordIndices(idx.sub_ids, idx.pos_ids, -1, 0)
        delta = m.compose(idx) - m.compose(without)
        assert delta == pytest.approx(m.params.subword[idx.word_token_id])

    def test_position_clamp_for_long_words(self):
        m = small_model(max_positions=3, position=True)
        idx = m.indices_of(["catalog"])[0]
        assert idx.pos_ids.max() == 2
        assert (idx.pos_ids[3:] == 2).all()

    def test_all_unknown_zero_vector(self):
        m = small_model()
        vec = m.word_vector("zzzzzz")
        assert all_unknown(m.indices_of(["zzzzzz"])[0])
        assert not vec.any()

    def test_unseen_word_shares_known_ngrams(self):
        m = small_model()
        # "cat" trained; same char n-grams as itself when recomposed as OOV
        vec = m.word_vector("cat")
        assert not all_unknown(m.indices_of(["cat"])[0])
        assert vec.any()


@lru_cache(maxsize=None)
def oracle_model(word_token, position):
    # max_positions 3 clamps the positions of every word longer than `<a>`
    return small_model(word_token=word_token, position=position,
                       max_positions=3)


def randomize_tables(m, seed):
    rng = np.random.default_rng(seed)
    for table in (m.params.subword, m.params.position):
        table[:] = rng.uniform(-1.0, 1.0, table.shape) / m.config.dim


# `zzz` and `q` have no known n-gram (and no word-token row): they compose
# to zero; `catalog` has positions past max_positions; `cat` is in vocab
FIXED_WORDS = ["zzz", "q", "catalog", "cat"]


# segmenter settings for the bulk resolution test; charn5's n-grams are
# longer than `<q>`, so a one-letter word has no subword at all
RESOLVE_SEGMENTERS = {
    "charn": {"segmenter": "charn"},
    "charn5": {"segmenter": "charn", "ngram_min": 5},
    "bpe": {"segmenter": "bpe", "num_merges": 10},
    "morf": {"segmenter": "morf"},
    "word": {"segmenter": "word"},
}


@lru_cache(maxsize=None)
def resolve_parts(kind, word_token):
    """(config, vocab, segmenter, subword vocab) with max_positions 3. Under
    w+ the word-token key of `cat`, a vocab word, is taken out of the
    subword vocab."""
    cfg = ModelConfig(**RESOLVE_SEGMENTERS[kind], word_token=word_token,
                      max_positions=3, dim=4)
    vocab = build_vocab(tokenize_corpus(
        "cat hat bat mat\nrat cat hat\ncatalog\n"), 1)
    segmenter, svocab = build_segmentation(cfg, vocab)
    svocab = SubwordVocab({k: v for k, v in svocab.entries.items()
                           if k != (NS_WORD_TOKEN, "cat")})
    return cfg, vocab, segmenter, svocab


class TestBulkResolve:
    @given(kind=st.sampled_from(sorted(RESOLVE_SEGMENTERS)),
           word_token=st.booleans(),
           words=st.lists(st.text(alphabet="cathlogbzq", min_size=1,
                                  max_size=9), max_size=8),
           cached=st.integers(0, 12))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_word_reference(self, kind, word_token, words,
                                        cached):
        cfg, vocab, segmenter, svocab = resolve_parts(kind, word_token)
        m = SubwordModel(cfg, vocab, svocab, segmenter)
        # OOV words, then the fixed and vocab words, then repeats
        words = words + FIXED_WORDS + vocab.words + words[::-1]
        # some words are in the cache before the batch that holds them all
        m.indices_of(words[:cached])
        got = m.indices_of(words)
        refs = [resolve_reference(m, w) for w in words]
        for w, idx, ref in zip(words, got, refs):
            assert idx is m.indices_of([w])[0]
            assert idx.sub_ids.dtype == idx.pos_ids.dtype == np.int64
            assert idx.sub_ids.tolist() == ref.sub_ids.tolist(), w
            assert idx.pos_ids.tolist() == ref.pos_ids.tolist(), w
            assert (idx.word_token_id, idx.unknown) == \
                (ref.word_token_id, ref.unknown), w
        csr = _WordCSR.of_model(m, words)
        ref_csr = _WordCSR(words, refs, cfg.position)
        for name in ("flat_sub", "flat_pos", "lens", "starts", "wt_ids"):
            assert getattr(csr, name).tolist() == \
                getattr(ref_csr, name).tolist()

    def test_edge_cases_occur(self):
        """The cases the reference test must meet: clipped positions, an
        unknown subword beside known ones, a word with no subword, and a
        vocab word without its word-token row."""
        cfg, vocab, segmenter, svocab = resolve_parts("charn", True)
        m = SubwordModel(cfg, vocab, svocab, segmenter)
        assert m.indices_of(["catalog"])[0].pos_ids.tolist()[-1] == 2
        assert m.indices_of(["cats"])[0].unknown > 1
        assert m.indices_of(["cats"])[0].sub_ids.size > 0
        assert m.indices_of(["cat"])[0].word_token_id == -1
        assert m.indices_of(["hat"])[0].word_token_id >= 0
        cfg, vocab, segmenter, svocab = resolve_parts("charn5", False)
        m = SubwordModel(cfg, vocab, svocab, segmenter)
        q = m.indices_of(["q"])[0]
        assert q.sub_ids.size == 0 and q.unknown == 0

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            small_model().indices_of([""])

    @pytest.mark.parametrize("word_token", [False, True])
    def test_each_vocab_word_segmented_once(self, monkeypatch, word_token):
        """Building a charn model's subword vocab and resolving its vocab
        words' rows, as the trainer does, and a sibling's, compute each
        word's n-grams once."""
        calls = []
        real = subtok.segment.char_ngrams

        def counted(word, *args):
            calls.append(word)
            return real(word, *args)

        monkeypatch.setattr(subtok.segment, "char_ngrams", counted)
        vocab = build_vocab(tokenize_corpus(
            "cat hat bat mat\nrat cat hat\ncatalog\n"), 1)
        m = SubwordModel.build(ModelConfig(segmenter="charn", dim=8,
                                           word_token=word_token), vocab)
        _WordCSR.of_model(m)
        _WordCSR.of_model(m.with_seed(2))
        assert sorted(calls) == sorted(vocab.words)


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
        vecs, (counts, sub_ids, pos_ids, wt_ids) = _WordCSR.of_model(
            m, words).compose(m.params, centers)
        expected = np.array([compose_reference(m, words[c]) for c in centers])
        assert vecs.dtype == np.float32
        np.testing.assert_allclose(vecs, expected, rtol=0, atol=1e-6)
        # the gathered rows are each center's rows, in order
        indices = [m.indices_of([words[c]])[0] for c in centers]
        assert counts.tolist() == [i.sub_ids.size for i in indices]
        assert sub_ids.tolist() == [r for i in indices for r in i.sub_ids]
        if word_token:
            assert wt_ids.tolist() == [i.word_token_id for i in indices]
        else:
            assert wt_ids is None
        if position:
            assert pos_ids.tolist() == [r for i in indices
                                        for r in i.pos_ids]
        else:
            assert pos_ids is None

    def test_fixed_words_cover_the_edge_cases(self):
        m = oracle_model(True, True)
        for w in ("zzz", "q"):
            assert all_unknown(m.indices_of([w])[0])
        assert m.indices_of(["catalog"])[0].pos_ids.max() == 2
        assert m.indices_of(["catalog"])[0].sub_ids.size > 3

    def test_no_centers(self):
        m = oracle_model(True, True)
        vecs, (counts, sub_ids, _, _) = _WordCSR.of_model(m).compose(
            m.params, np.empty(0, dtype=np.int64))
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
            "segmenter=bpe\nnum_merges=10\nngram_min=3\nngram_max=6\n"
            "word_token=False\nposition=True\ndim=8\nmax_positions=20\n"
            "seed=5\n")

    @pytest.mark.parametrize("spelling", ["True", "true", "1", "yes",
                                          "False", "false", "0", "no"])
    def test_config_comments_and_bool_spellings(self, tmp_path, spelling):
        word_token = spelling in ("True", "true", "1", "yes")
        m = small_model(word_token=word_token)
        save_checkpoint(m, tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        config.write_text("# edited\n\n" + config.read_text("utf-8").replace(
            f"word_token={word_token}", f"word_token={spelling}"),
            encoding="utf-8")
        assert load_checkpoint(tmp_path / "ckpt").config == m.config

    @pytest.mark.parametrize("spelling", ["ture", "TRUE", "2", ""])
    def test_config_unknown_bool_is_a_format_error(self, tmp_path, spelling):
        save_checkpoint(small_model(word_token=True), tmp_path / "ckpt")
        config = tmp_path / "ckpt" / "config.txt"
        config.write_text(config.read_text("utf-8").replace(
            "word_token=True", f"word_token={spelling}"), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"line 5: word_token must be one of "
                f"True/true/1/yes/False/false/0/no, got {spelling!r} in "
                f"{config}")) as exc:
            load_checkpoint(tmp_path / "ckpt")
        assert exc.value.line_number == 5

    @pytest.mark.parametrize("key,value", [("dim", "abc"), ("seed", "-1"),
                                           ("num_merges", "1.5")])
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
        config = tmp_path / "ckpt" / "config.txt"
        config.write_text(config.read_text().replace("max_positions=20",
                                                     "max_positions=12"))
        with pytest.raises(FormatError, match=r"position matrix is 20x8; "
                                              r"config and vocab need 12x8"):
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
