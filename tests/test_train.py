import importlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subtok.model
from subtok.corpus import (
    Corpus,
    build_vocab,
    subsample_keep_probs,
    tokenize_corpus,
)
from subtok.errors import SubtokError
from subtok.model import ModelConfig, SubwordModel
from subtok.train import (
    NegativeSampler,
    TrainConfig,
    _epoch_pair_count,
    _epoch_pairs,
    _token_stream,
    _WordCSR,
    grad_check,
    sgns_kernel,
    sgns_loss,
    sgns_step,
    train,
)

# the package re-exports the function `train` under the module's name
train_module = importlib.import_module("subtok.train")


def make_model(text, **cfg):
    defaults = dict(segmenter="word", dim=8, seed=3)
    defaults.update(cfg)
    corpus = tokenize_corpus(text)
    vocab = build_vocab(corpus, 1)
    return corpus, SubwordModel.build(ModelConfig(**defaults), vocab)


class TestSgnsLoss:
    def test_all_zero(self):
        ctx = np.zeros((6, 4))
        v = np.zeros(4)
        assert sgns_loss(v, 0, [1, 2, 3, 4, 5], ctx) == pytest.approx(
            6 * math.log(2))

    def test_clamp_limit(self):
        ctx = np.zeros((6, 4))
        ctx[0] = [100, 0, 0, 0]
        v = np.array([1.0, 0, 0, 0])
        k = 5
        assert sgns_loss(v, 0, [1, 2, 3, 4, 5], ctx) == pytest.approx(
            k * math.log(2), abs=1e-10)

    def test_scalar_oracle(self):
        ctx = np.array([[1.0, 0.0], [-1.0, 0.0]])
        v = np.array([1.0, 0.0])
        # -log sigmoid(1) - log sigmoid(1) = 2 * 0.313262
        assert sgns_loss(v, 0, [1], ctx) == pytest.approx(0.62652, abs=1e-5)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ctx = rng.normal(size=(4, 6))
            v = rng.normal(size=6)
            assert sgns_loss(v, 0, [1, 2, 3], ctx) >= 0


class TestGradCheck:
    def test_max_rel_error(self):
        t0 = time.time()
        report = grad_check(dim=10, trials=100, seed=0)
        assert report.max_rel_error < 1e-4
        assert time.time() - t0 < 5.0

    def test_rejects_large_dim(self):
        with pytest.raises(ValueError):
            grad_check(dim=64)


class TestSgnsStep:
    def test_single_subword_gets_exact_gradient(self):
        corpus, m = make_model("aa bb cc dd\n" * 5)
        sampler = NegativeSampler(m.vocab)
        rng = np.random.default_rng(1)
        idx = m.word_indices("aa")
        before = m.params.subword[idx.sub_ids[0]].copy()
        ctx_before = m.params.context.copy()
        lr = 0.1
        sgns_step(m, "aa", "bb", lr, 2, sampler, rng)
        # reconstruct the expected gradient from the pre-step tables
        after = m.params.subword[idx.sub_ids[0]]
        v = before
        # all context rows were zero, so sigma = 0.5 everywhere
        # grad_v = (0.5 - 1) * c_pos + sum 0.5 * c_neg = 0 (zero rows)
        assert after == pytest.approx(v)  # zero gradient at zero context
        # context rows moved toward/away from v
        moved = np.abs(m.params.context - ctx_before).sum(axis=1) > 0
        assert moved.sum() >= 2  # positive + >=1 distinct negative

    def test_two_subwords_identical_gradients(self):
        corpus, m = make_model("abcd efgh ijkl\n" * 5, segmenter="bpe",
                               num_merges=2)
        sampler = NegativeSampler(m.vocab)
        # pick a word with >= 2 distinct subword rows
        word = next(w for w in m.vocab.words
                    if len(set(m.word_indices(w).sub_ids)) >= 2)
        idx = m.word_indices(word)
        # make context rows non-zero so the gradient is non-trivial
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        before = m.params.subword.copy()
        sgns_step(m, word, m.vocab.words[0], 0.05, 2, sampler,
                  np.random.default_rng(2))
        deltas = m.params.subword[idx.sub_ids] - before[idx.sub_ids]
        unique_ids = set(idx.sub_ids.tolist())
        if len(unique_ids) == len(idx.sub_ids):
            for row in deltas[1:]:
                assert row == pytest.approx(deltas[0], abs=1e-7)
        assert np.abs(deltas).sum() > 0

    def test_update_locality_whole_word(self):
        corpus, m = make_model("aa bb cc dd ee\n" * 5)
        sampler = NegativeSampler(m.vocab)
        m.params.context[:] = 0.01
        sub_before = m.params.subword.copy()
        ctx_before = m.params.context.copy()
        rng = np.random.default_rng(3)
        negs_preview = sampler.draw_avoiding(
            np.random.default_rng(3), 2, m.vocab.word2id["bb"])
        sgns_step(m, "aa", "bb", 0.1, 2, sampler, rng)
        sub_changed = np.flatnonzero(
            np.abs(m.params.subword - sub_before).sum(axis=1))
        aa_row = m.word_indices("aa").sub_ids[0]
        assert sub_changed.tolist() == [aa_row]
        ctx_changed = set(np.flatnonzero(
            np.abs(m.params.context - ctx_before).sum(axis=1)).tolist())
        expected = {m.vocab.word2id["bb"], *negs_preview.tolist()}
        assert ctx_changed <= expected

    def test_update_locality_charn_with_word_token(self):
        corpus, m = make_model("cats dogs bird fish\n" * 5,
                               segmenter="charn", word_token=True)
        sampler = NegativeSampler(m.vocab)
        m.params.context[:] = 0.01
        before = m.params.subword.copy()
        sgns_step(m, "cats", "dogs", 0.1, 2, sampler,
                  np.random.default_rng(4))
        changed = set(np.flatnonzero(
            np.abs(m.params.subword - before).sum(axis=1)).tolist())
        idx = m.word_indices("cats")
        expected = set(idx.sub_ids.tolist()) | {idx.word_token_id}
        assert changed == expected


class TestSgnsKernel:
    def _batch_model(self):
        corpus, m = make_model("aa bb cc dd ee\n" * 5)
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        return m, m.vocab.word2id

    def test_masked_negative_adds_nothing(self):
        m, ids = self._batch_model()
        centers = np.array([ids["aa"], ids["bb"]])
        ctx_ids = np.array([[ids["bb"], ids["cc"], ids["dd"]],
                            [ids["cc"], ids["ee"], ids["aa"]]])
        valid = np.array([[True, False], [True, True]])
        vecs = [m.word_vector(w).astype(np.float64) for w in ("aa", "bb")]
        ctx = m.params.context.astype(np.float64)
        before = m.params.copy()
        loss = sgns_kernel(m.params, _WordCSR.of_model(m), centers, ctx_ids,
                           valid, 0.1)
        # dd is only the masked negative of the first center
        assert np.array_equal(m.params.context[ids["dd"]],
                              before.context[ids["dd"]])
        for w in ("aa", "bb", "cc", "ee"):
            assert not np.array_equal(m.params.context[ids[w]],
                                      before.context[ids[w]])
        assert loss[0] == pytest.approx(
            sgns_loss(vecs[0], ids["bb"], [ids["cc"]], ctx), rel=1e-5)
        assert loss[1] == pytest.approx(
            sgns_loss(vecs[1], ids["cc"], [ids["ee"], ids["aa"]], ctx),
            rel=1e-5)

    def test_clamped_score_gives_zero_update(self):
        m, ids = self._batch_model()
        va, vb = m.word_vector("aa"), m.word_vector("bb")
        # positive score of aa at -40, negative score of bb against ee at +40
        m.params.context[ids["bb"]] = -40.0 * va / (va @ va)
        m.params.context[ids["ee"]] = 40.0 * vb / (vb @ vb)
        centers = np.array([ids["aa"], ids["bb"]])
        ctx_ids = np.array([[ids["bb"], ids["cc"]],
                            [ids["dd"], ids["ee"]]])
        before = m.params.copy()
        sgns_kernel(m.params, _WordCSR.of_model(m), centers, ctx_ids,
                    np.ones((2, 1), dtype=bool), 0.1)
        for w in ("bb", "ee"):
            assert np.array_equal(m.params.context[ids[w]],
                                  before.context[ids[w]])
        for w in ("cc", "dd"):
            assert not np.array_equal(m.params.context[ids[w]],
                                      before.context[ids[w]])


    # an odd width takes the float scatter, an even one the column pairs
    @pytest.mark.parametrize("dim", [7, 8])
    def test_flat_scatter_matches_2d_subtract_at(self, monkeypatch, dim):
        corpus, m = make_model("cats hats cat hat\n" * 5, segmenter="charn",
                               dim=dim, word_token=True, position=True)
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        ids = m.vocab.word2id
        # repeated centers share every row; the negatives repeat across rows
        centers = np.array([ids["cats"], ids["hats"], ids["cats"],
                            ids["cats"]])
        ctx_ids = np.array([[ids["hat"], ids["cat"], ids["hats"]],
                            [ids["cat"], ids["hat"], ids["hats"]],
                            [ids["hats"], ids["cat"], ids["hat"]],
                            [ids["hat"], ids["cat"], ids["hats"]]])
        valid = np.ones((4, 2), dtype=bool)
        csr = _WordCSR.of_model(m)
        before = m.params.copy()
        reference = m.params.copy()
        loss = sgns_kernel(m.params, csr, centers, ctx_ids, valid, 0.5)

        def subtract_at_2d(table, rows, vals):
            np.subtract.at(table, rows, vals)

        monkeypatch.setattr(subtok.model, "scatter_subtract", subtract_at_2d)
        monkeypatch.setattr(train_module, "scatter_subtract", subtract_at_2d)
        ref_loss = sgns_kernel(reference, csr, centers, ctx_ids, valid, 0.5)
        assert loss.tobytes() == ref_loss.tobytes()
        for name in ("subword", "position", "context"):
            table = getattr(m.params, name)
            assert not np.array_equal(table, getattr(before, name))
            assert table.tobytes() == getattr(reference, name).tobytes()


@pytest.mark.parametrize("dim", [7, 8])
def test_training_matches_2d_subtract_at(monkeypatch, dim):
    """A whole training run, every table update scattered either way,
    gives the same bytes."""
    monkeypatch.setattr(train_module, "TRACE_EVERY", 50)
    text = "cats hats cat hat mats bats rat\nhat cat rats mat\n" * 8

    def run():
        corpus, m = make_model(text, segmenter="charn", dim=dim,
                               word_token=True, position=True)
        before = m.params.copy()
        res = train(corpus, m, TrainConfig(window=2, negatives=3, epochs=2,
                                           batch_size=4, min_count=1,
                                           subsample_t=0))
        return before, m.params, np.asarray(res.loss_trace)

    before, params, trace = run()

    def subtract_at_2d(table, rows, vals):
        np.subtract.at(table, rows, vals)

    monkeypatch.setattr(subtok.model, "scatter_subtract", subtract_at_2d)
    monkeypatch.setattr(train_module, "scatter_subtract", subtract_at_2d)
    _, ref_params, ref_trace = run()
    assert trace.size and trace.tobytes() == ref_trace.tobytes()
    for name in ("subword", "position", "context"):
        table = getattr(params, name)
        assert not np.array_equal(table, getattr(before, name))
        assert table.tobytes() == getattr(ref_params, name).tobytes()


class TestNoRowCenter:
    """`ab` has no subword rows: `<ab>` is shorter than the 5-grams."""

    @pytest.mark.parametrize("word_token", [False, True])
    @pytest.mark.parametrize("first", [True, False])
    def test_composes_to_its_word_token_row_or_zero(self, word_token, first):
        corpus, m = make_model("ab cats hats\n" * 5, segmenter="charn",
                               ngram_min=5, ngram_max=6,
                               word_token=word_token, position=True)
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        ids = m.vocab.word2id
        ab, cats = m.word_indices("ab"), m.word_indices("cats")
        assert ab.sub_ids.size == 0 and cats.sub_ids.size > 0
        order = ["ab", "cats"] if first else ["cats", "ab"]
        i = order.index("ab")
        centers = np.array([ids[w] for w in order])
        ctx_ids = np.array([[ids["hats"], ids["cats"]],
                            [ids["hats"], ids["ab"]]])
        csr = _WordCSR.of_model(m)
        vecs, _ = csr.compose(m.params, centers)
        expected = (m.params.subword[ab.word_token_id].copy() if word_token
                    else np.zeros(8, dtype=np.float32))
        assert vecs[i].tobytes() == expected.tobytes()

        before = m.params.copy()
        loss = sgns_kernel(m.params, csr, centers, ctx_ids,
                           np.ones((2, 1), dtype=bool), 0.1)
        assert loss[i] == pytest.approx(sgns_loss(
            expected.astype(np.float64), ctx_ids[i, 0], ctx_ids[i, 1:],
            before.context.astype(np.float64)), rel=1e-5)
        # only the rows of `cats` (and the word-token row of `ab`) move
        moved = set(cats.sub_ids) | {cats.word_token_id, ab.word_token_id}
        for r in range(len(m.subword_vocab)):
            if r not in moved:
                assert np.array_equal(m.params.subword[r], before.subword[r])
        for r in range(m.config.max_positions):
            if r not in cats.pos_ids:
                assert np.array_equal(m.params.position[r],
                                      before.position[r])
        if word_token:
            assert not np.array_equal(m.params.subword[ab.word_token_id],
                                      before.subword[ab.word_token_id])


class TestEpochPairs:
    @given(seed=st.integers(0, 2**16), window=st.integers(1, 6),
           subsample_t=st.sampled_from([0.0, 1e-3, 0.05]))
    @settings(max_examples=60, deadline=None)
    def test_count_equals_pairs_made(self, seed, window, subsample_t):
        rng = np.random.default_rng(seed)
        words = ["a", "b", "c", "d", "e", "f", "g"]
        sents = [[words[i] for i in rng.integers(0, 7, size=n)]
                 for n in rng.integers(1, 12, size=30)]
        corpus = Corpus.from_sentences(sents)
        vocab = build_vocab(corpus, 1)
        ids, sent_of = _token_stream(corpus, vocab)
        stream = (ids, sent_of, subsample_keep_probs(vocab, subsample_t),
                  window)
        subsampled = subsample_t > 0
        centers, _ = _epoch_pairs(*stream, np.random.default_rng(seed),
                                  subsampled)
        assert _epoch_pair_count(*stream, np.random.default_rng(seed),
                                 subsampled) == centers.size

    def test_made_once_per_epoch_with_the_two_pass_schedule(self,
                                                            monkeypatch):
        corpus, m = make_model("u v w x y z\n" * 600)
        init = m.params.copy()
        cfg = TrainConfig(window=4, negatives=2, epochs=3, batch_size=16,
                          subsample_t=0.05, seed=4)
        calls = []
        real_pairs = train_module._epoch_pairs

        def counted(*args):
            calls.append(args)
            return real_pairs(*args)

        monkeypatch.setattr(train_module, "_epoch_pairs", counted)
        res = train(corpus, m, cfg)
        assert len(calls) == cfg.epochs
        assert len(res.loss_trace) >= 2

        # reference: the LR schedule's total counted by making every
        # epoch's pairs in an extra pass, as the trainer once did
        monkeypatch.setattr(train_module, "_epoch_pair_count",
                            lambda *args: counted(*args)[0].size)
        ref_model = SubwordModel(m.config, m.vocab, m.subword_vocab,
                                 m.segmenter, init)
        ref = train(corpus, ref_model, cfg)
        assert len(calls) == 3 * cfg.epochs
        assert res.final_lr == ref.final_lr
        assert res.loss_trace == ref.loss_trace
        assert res.processed_pairs == ref.processed_pairs
        for name in ("subword", "position", "context"):
            assert np.array_equal(getattr(m.params, name),
                                  getattr(ref_model.params, name))


class TestTrain:
    def test_bit_reproducible(self):
        corpus, m1 = make_model("red blue green\n" * 100, segmenter="charn")
        cfg = TrainConfig(window=2, negatives=3, epochs=2, batch_size=8,
                          subsample_t=0, seed=11)
        train(corpus, m1, cfg)
        _, m2 = make_model("red blue green\n" * 100, segmenter="charn")
        train(corpus, m2, cfg)
        assert np.array_equal(m1.params.subword, m2.params.subword)
        assert np.array_equal(m1.params.context, m2.params.context)

    def test_zero_epochs_identity(self):
        corpus, m = make_model("a b c\n" * 10)
        init = m.params.copy()
        cfg = TrainConfig(window=2, negatives=2, epochs=0, seed=1)
        res = train(corpus, m, cfg)
        assert res.processed_pairs == 0
        assert np.array_equal(m.params.subword, init.subword)
        assert np.array_equal(m.params.context, init.context)

    def test_negative_seed(self):
        with pytest.raises(SubtokError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_topic_clusters_separate(self):
        rng = np.random.default_rng(0)
        wa = [f"app{i}" for i in range(8)]
        wb = [f"brk{i}" for i in range(8)]
        sents = []
        for _ in range(2500):
            ws = wa if rng.random() < 0.5 else wb
            sents.append([ws[i] for i in rng.integers(0, 8, size=8)])
        corpus = Corpus.from_sentences(sents)
        vocab = build_vocab(corpus, 1)
        m = SubwordModel.build(ModelConfig(segmenter="word", dim=16, seed=3),
                               vocab)
        train(corpus, m, TrainConfig(window=3, negatives=5, epochs=2,
                                     batch_size=32, subsample_t=0, seed=7))
        vecs = np.stack([m.word_vector(w) for w in wa + wb])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        sim = vecs @ vecs.T
        intra = (sim[:8, :8].mean() + sim[8:, 8:].mean()) / 2
        inter = sim[:8, 8:].mean()
        assert intra > inter + 0.2

    def test_loss_trace_and_lr_decay(self):
        corpus, m = make_model("u v w x y z\n" * 400)
        cfg = TrainConfig(window=3, negatives=3, epochs=3, batch_size=16,
                          subsample_t=0, seed=5, lr_start=0.03)
        res = train(corpus, m, cfg)
        assert res.processed_pairs > 10_000
        assert len(res.loss_trace) >= 1
        counts = [c for c, _, _ in res.loss_trace]
        assert counts == sorted(counts)
        lrs = [lr for _, lr, _ in res.loss_trace]
        assert lrs == sorted(lrs, reverse=True)
        assert cfg.lr_floor <= res.final_lr <= cfg.lr_start

    def test_trace_tsv(self, tmp_path):
        corpus, m = make_model("u v w x\n" * 500)
        res = train(corpus, m, TrainConfig(window=2, negatives=2, epochs=2,
                                           batch_size=32, subsample_t=0,
                                           seed=5))
        res.save_trace(tmp_path / "trace.tsv")
        lines = (tmp_path / "trace.tsv").read_text().splitlines()
        assert len(lines) == len(res.loss_trace)
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_subsampling_reduces_pairs(self):
        text = " ".join(["the"] * 2000 + ["rare%d" % i for i in range(50)])
        corpus = tokenize_corpus(text)
        vocab = build_vocab(corpus, 1)
        cfg_args = dict(window=2, negatives=2, epochs=1, batch_size=32,
                        seed=3)
        m1 = SubwordModel.build(ModelConfig(segmenter="word", dim=4), vocab)
        full = train(corpus, m1, TrainConfig(subsample_t=0, **cfg_args))
        m2 = SubwordModel.build(ModelConfig(segmenter="word", dim=4), vocab)
        sub = train(corpus, m2, TrainConfig(subsample_t=1e-4, **cfg_args))
        assert sub.processed_pairs < full.processed_pairs / 2

    def test_non_finite_score_raises_before_any_update(self):
        corpus, m = make_model("aa bb\n" * 3)
        m.params.context[m.vocab.word2id["aa"]] = np.inf
        before = m.params.copy()
        # one batch holds every pair, and each pair scores against aa's row
        cfg = TrainConfig(window=1, negatives=2, epochs=1, batch_size=64,
                          subsample_t=0, seed=1)
        with pytest.raises(SubtokError, match=r"non-finite score at update 0 "
                                              r"\(center word '(aa|bb)'\)"):
            train(corpus, m, cfg)
        for name in ("subword", "position", "context"):
            assert np.array_equal(getattr(m.params, name),
                                  getattr(before, name))

    def test_threaded_mode_runs(self):
        corpus, m = make_model("p q r s t\n" * 200, segmenter="charn")
        cfg = TrainConfig(window=2, negatives=2, epochs=2, batch_size=16,
                          subsample_t=0, seed=2, threads=3)
        res = train(corpus, m, cfg)
        assert res.processed_pairs > 0
        assert m.params.all_finite()

    def test_baseline_reduction_whole_word(self):
        # degenerate segmenter: exactly one subword row per word and the
        # trainer touches only that input row per step, i.e. plain skip-gram
        corpus, m = make_model("aa bb cc\n" * 5)
        for w in m.vocab.words:
            idx = m.word_indices(w)
            assert idx.sub_ids.size == 1
            assert idx.word_token_id == -1
        assert len(m.subword_vocab) == len(m.vocab)


class TestNegativeSampler:
    def test_collision_avoidance(self):
        corpus, m = make_model("a a a a a a b\n" * 3)
        sampler = NegativeSampler(m.vocab)
        rng = np.random.default_rng(0)
        for _ in range(50):
            negs = sampler.draw_avoiding(rng, 5, 0)
            assert (negs != 0).all()

    def test_matrix_valid_mask(self):
        corpus, m = make_model("a b c d e f g h\n" * 3)
        sampler = NegativeSampler(m.vocab)
        positives = np.array([0, 1, 2, 3] * 10)
        negs, valid = sampler.draw_matrix(np.random.default_rng(1),
                                          positives, 4)
        assert ((negs != positives[:, None]) == valid).all()

    def test_distribution_follows_power_law(self):
        corpus, m = make_model(" ".join(["a"] * 810 + ["b"] * 10))
        sampler = NegativeSampler(m.vocab, power=0.75)
        draws = sampler.draw(np.random.default_rng(2), 20_000)
        frac_a = (draws == m.vocab.word2id["a"]).mean()
        expected = 810**0.75 / (810**0.75 + 10**0.75)
        assert frac_a == pytest.approx(expected, abs=0.02)
