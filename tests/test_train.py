import dataclasses
import math
import re
import time
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import subtok.model
import subtok.train as train_module
from subtok.corpus import (
    Corpus,
    build_vocab,
    subsample_keep_probs,
    tokenize_corpus,
)
from subtok.errors import SubtokError
from subtok.model import ModelConfig, SubwordModel
from subtok.segment import SubwordVocab
from subtok.train import (
    NEGATIVES,
    TRACE_EVERY,
    WINDOW,
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
    train_lockstep,
)


def make_model(text, **cfg):
    defaults = dict(segmenter="word", dim=8, seed=3)
    defaults.update(cfg)
    corpus = tokenize_corpus(text)
    vocab = build_vocab(corpus, 1)
    return corpus, SubwordModel.build(ModelConfig(**defaults), vocab)


def no_row_model(text, **cfg):
    """`make_model`, with the n-grams of `ab` left out of a charn model's
    subword vocab: `ab` composes from no subword row, and keeps its
    word-token row under w+."""
    corpus, m = make_model(text, **cfg)
    if m.config.segmenter == "charn":
        lost = set(m.segmenter.segment("ab"))
        keys = [k for k in m.subword_vocab.entries if k not in lost]
        m = SubwordModel(m.config, m.vocab, SubwordVocab(
            {k: i for i, k in enumerate(keys)}), m.segmenter)
    return corpus, m


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
        row = _WordCSR.of_model(m, ["aa"]).flat_sub[0]
        before = m.params.subword[row].copy()
        ctx_before = m.params.context.copy()
        lr = 0.1
        sgns_step(m, "aa", "bb", lr, 2, sampler, rng)
        # reconstruct the expected gradient from the pre-step tables
        after = m.params.subword[row]
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
                    if len(set(_WordCSR.of_model(m, [w]).flat_sub)) >= 2)
        sub_ids = _WordCSR.of_model(m, [word]).flat_sub
        # make context rows non-zero so the gradient is non-trivial
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        before = m.params.subword.copy()
        sgns_step(m, word, m.vocab.words[0], 0.05, 2, sampler,
                  np.random.default_rng(2))
        deltas = m.params.subword[sub_ids] - before[sub_ids]
        if len(set(sub_ids.tolist())) == len(sub_ids):
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
        negs_preview = oracles.draw_avoiding(
            sampler, np.random.default_rng(3), 2, m.vocab.word2id["bb"])
        sgns_step(m, "aa", "bb", 0.1, 2, sampler, rng)
        sub_changed = np.flatnonzero(
            np.abs(m.params.subword - sub_before).sum(axis=1))
        aa_row = _WordCSR.of_model(m, ["aa"]).flat_sub[0]
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
        cats = _WordCSR.of_model(m, ["cats"])
        expected = set(cats.flat_sub.tolist()) | set(cats.wt_ids.tolist())
        assert changed == expected

    @pytest.mark.parametrize("text,cfg", [
        ("a a a a a a b\n" * 3, {}),  # 2 words: most draws collide
        ("cats dogs bird fish cats cats\n" * 5,
         dict(segmenter="charn", word_token=True, position=True)),
    ], ids=["word-2-types", "charn-w+-p+"])
    def test_equals_draw_avoiding_reference(self, text, cfg):
        """sgns_step masks a negative that still collides after its redraws
        where the reference drops it. Both draw the same numbers, and the
        tables come out bit for bit the same. So does the loss below 8
        negatives, where numpy sums a row in order; from 8 terms on its
        pairwise sum places the masked zero differently and may round the
        last bit otherwise."""
        _, m = make_model(text, **cfg)
        _, ref = make_model(text, **cfg)
        sampler = NegativeSampler(m.vocab)
        words = m.vocab.words
        dropped = 0
        for step in range(300):
            center = words[step % len(words)]
            ctx = words[step // 7 % len(words)]
            k = 1 + step % 12
            dropped += oracles.draw_avoiding(
                sampler, np.random.default_rng(step), k,
                m.vocab.word2id[ctx]).size < k
            loss = sgns_step(m, center, ctx, 0.05, k, sampler,
                             np.random.default_rng(step))
            ref_loss = oracles.sgns_step_reference(
                ref, center, ctx, 0.05, k, sampler,
                np.random.default_rng(step))
            assert loss == (ref_loss if k < 8
                            else pytest.approx(ref_loss, rel=1e-6))
            for name in ("subword", "position", "context"):
                assert np.array_equal(getattr(m.params, name),
                                      getattr(ref.params, name))
        if len(words) == 2:
            assert dropped > 10

    @pytest.mark.parametrize("center,context", [("aa", "zz"), ("zz", "bb")])
    def test_refuses_a_word_not_in_vocab(self, center, context):
        _, m = make_model("aa bb cc dd\n" * 5)
        before = [getattr(m.params, name).copy()
                  for name in ("subword", "position", "context")]
        with pytest.raises(SubtokError, match="both words must be in vocab: "
                           f"'{center}', '{context}'"):
            sgns_step(m, center, context, 0.1, 2, NegativeSampler(m.vocab),
                      np.random.default_rng(0))
        for name, table in zip(("subword", "position", "context"), before):
            assert np.array_equal(getattr(m.params, name), table)


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
        res = train(corpus, m, TrainConfig(epochs=2, batch_size=4, min_count=1,
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


@pytest.mark.parametrize("position", [False, True], ids=["p-", "p+"])
@pytest.mark.parametrize("word_token", [False, True], ids=["w-", "w+"])
def test_every_scatter_passes_the_tables_dtype(monkeypatch, word_token,
                                               position):
    """Every table update hands `scatter_subtract` its values in the
    table's own dtype. Values of another dtype still give the right sums,
    so no equality test sees them, but they take numpy's casting path: a
    float64 position step divided by its rows' counts made `ufunc.at` 27
    times slower in a profile."""
    scatter = subtok.model.scatter_subtract
    calls = []

    def recording(table, rows, vals):
        calls.append((table, vals.dtype))
        scatter(table, rows, vals)

    monkeypatch.setattr(subtok.model, "scatter_subtract", recording)
    monkeypatch.setattr(train_module, "scatter_subtract", recording)
    corpus, m = make_model("cats hats cat hat mats bats rat\nhat cat rats\n"
                           * 4, segmenter="charn", word_token=word_token,
                           position=position)
    train(corpus, m, TrainConfig(epochs=1, batch_size=4, min_count=1,
                                 subsample_t=0))
    names = ["subword", "context"] + ["position"] * position
    assert {id(table) for table, _ in calls} == {
        id(getattr(m.params, name)) for name in names}
    assert [dtype for _, dtype in calls] == [t.dtype for t, _ in calls]


class TestNoRowCenter:
    """`ab` has no subword rows: `no_row_model` leaves out its n-grams."""

    @pytest.mark.parametrize("word_token", [False, True])
    @pytest.mark.parametrize("first", [True, False])
    def test_composes_to_its_word_token_row_or_zero(self, word_token, first):
        corpus, m = no_row_model("ab cats hats\n" * 5, segmenter="charn",
                                 word_token=word_token, position=True)
        m.params.context[:] = np.random.default_rng(0).normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        ids = m.vocab.word2id
        ab, cats = (_WordCSR.of_model(m, [w]) for w in ("ab", "cats"))
        assert ab.flat_sub.size == 0 and cats.flat_sub.size > 0
        order = ["ab", "cats"] if first else ["cats", "ab"]
        i = order.index("ab")
        centers = np.array([ids[w] for w in order])
        ctx_ids = np.array([[ids["hats"], ids["cats"]],
                            [ids["hats"], ids["ab"]]])
        csr = _WordCSR.of_model(m)
        vecs = csr.compose(m.params, centers)
        expected = (m.params.subword[ab.wt_ids[0]].copy() if word_token
                    else np.zeros(8, dtype=np.float32))
        assert vecs[i].tobytes() == expected.tobytes()

        before = m.params.copy()
        loss = sgns_kernel(m.params, csr, centers, ctx_ids,
                           np.ones((2, 1), dtype=bool), 0.1)
        assert loss[i] == pytest.approx(sgns_loss(
            expected.astype(np.float64), ctx_ids[i, 0], ctx_ids[i, 1:],
            before.context.astype(np.float64)), rel=1e-5)
        # only the rows of `cats` (and the word-token row of `ab`) move
        moved = set(cats.flat_sub) | {cats.wt_ids[0], ab.wt_ids[0]}
        for r in range(len(m.subword_vocab)):
            if r not in moved:
                assert np.array_equal(m.params.subword[r], before.subword[r])
        for r in range(len(m.params.position)):
            if r not in cats.flat_pos:
                assert np.array_equal(m.params.position[r],
                                      before.position[r])
        if word_token:
            assert not np.array_equal(m.params.subword[ab.wt_ids[0]],
                                      before.subword[ab.wt_ids[0]])


# `ab` has no subword rows in a `no_row_model` (see TestNoRowCenter);
# `cats` and `scats` share the row of `cats>`
NO_ROW_TEXT = ("ab cats scats hats\nhats ab ab cats\ncats cats cats ab\n"
               "scats hats ab cats\n") * 5


class TestPlannedKernel:
    """The kernel sums each distinct center once and gives every center its
    word's sum; tables and loss equal those of the kernel that composes
    every center on its own, bit for bit."""

    @given(word_token=st.booleans(), position=st.booleans(),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           seed=st.integers(0, 2**16))
    @example(word_token=True, position=True, picks=[1] * 32, seed=0)
    @example(word_token=False, position=True, picks=[0] * 8, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_equals_per_center_kernel(self, word_token, position, picks,
                                      seed):
        _, m = no_row_model(NO_ROW_TEXT, segmenter="charn",
                            word_token=word_token, position=position)
        rng = np.random.default_rng(seed)
        m.params.context[:] = rng.normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        n = len(picks)
        centers = np.array(picks)
        ctx_ids = rng.integers(0, len(m.vocab), size=(n, 3))
        valid = rng.random((n, 2)) < 0.8
        lr = rng.uniform(0.01, 0.5, size=n)
        reference = m.params.copy()
        csr = _WordCSR.of_model(m)
        loss = sgns_kernel(m.params, csr, centers, ctx_ids, valid, lr)
        ref_loss = oracles.sgns_kernel_reference(reference, csr, centers,
                                                 ctx_ids, valid, lr)
        assert loss.tobytes() == ref_loss.tobytes()
        assert _tables(m) == [getattr(reference, name).tobytes()
                              for name in ("subword", "position", "context")]


class TestBackwardPass:
    """A batch's steps into one row add up one center at a time, as
    `oracles.subtract_reference` takes them: `cats` twice, `scats`
    sharing `cats>` with it, every word sharing position row 0, and `ab`
    with no subword row."""

    @pytest.mark.parametrize("position", [False, True], ids=["p-", "p+"])
    @pytest.mark.parametrize("word_token", [False, True], ids=["w-", "w+"])
    def test_shared_rows_equal_the_reference(self, word_token, position):
        _, m = no_row_model(NO_ROW_TEXT, segmenter="charn",
                            word_token=word_token, position=position)
        rng = np.random.default_rng(7)
        m.params.context[:] = rng.normal(
            0, 0.5, m.params.context.shape).astype(np.float32)
        csr = _WordCSR.of_model(m)
        centers = np.array([m.vocab.word2id[w] for w in
                            ("cats", "scats", "cats", "hats", "ab")])
        shared = m.subword_vocab.entries["cats>"]
        for w in centers[:2]:
            assert shared in csr.flat_sub[csr.starts[w]:
                                          csr.starts[w] + csr.lens[w]]
        ctx_ids = rng.integers(0, len(m.vocab), size=(centers.size, 3))
        valid = np.ones((centers.size, 2), dtype=bool)
        lr = rng.uniform(0.1, 0.5, size=centers.size)
        before, reference = m.params.copy(), m.params.copy()
        loss = sgns_kernel(m.params, csr, centers, ctx_ids, valid, lr)
        ref_loss = oracles.sgns_kernel_reference(reference, csr, centers,
                                                 ctx_ids, valid, lr)
        assert loss.tobytes() == ref_loss.tobytes()
        assert _tables(m) == [getattr(reference, name).tobytes()
                              for name in ("subword", "position", "context")]
        assert not np.array_equal(m.params.subword[shared],
                                  before.subword[shared])
        assert np.array_equal(m.params.position[0], before.position[0]) \
            != position


def _recorded_training(corpus, models, configs, kernel):
    """Train through `kernel`, called as `sgns_kernel` is. Returns the
    TrainResults; each `_epoch_pairs` call's centers, which the trainer
    shifts in place to their stacked rows; (centers, loss) per kernel
    call; and the words each `_WordCSR.compose` call summed."""
    pairs, calls, summed = [], [], []
    real_pairs = train_module._epoch_pairs
    real_compose = subtok.model._WordCSR.compose

    def recorded_pairs(*args):
        out = real_pairs(*args)
        pairs.append(out[0])
        return out

    def recorded_kernel(params, csr, centers, *args):
        loss = kernel(params, csr, centers, *args)
        calls.append((centers.copy(), loss))
        return loss

    def recorded_compose(self, params, words):
        summed.append(words.copy())
        return real_compose(self, params, words)

    with mock.patch.object(train_module, "_epoch_pairs", recorded_pairs), \
            mock.patch.object(train_module, "sgns_kernel", recorded_kernel), \
            mock.patch.object(subtok.model._WordCSR, "compose",
                              recorded_compose), \
            mock.patch.object(train_module, "TRACE_EVERY", 40):
        results = train_lockstep(corpus, models, configs)
    return results, pairs, calls, summed


def _per_center_kernel(params, csr, centers, ctx_ids, valid, lr,
                       first_update=0):
    return oracles.sgns_kernel_reference(params, csr, centers, ctx_ids,
                                         valid, lr)


def _check_planned_training(corpus, base, configs):
    """Train siblings of `base` under `configs` in one lockstep call and
    check its calls: call j of an epoch gets the centers of batch j of
    every model that still has one, model after model, and sums exactly
    its distinct centers; and every table and loss equals training with
    each center composed on its own. Returns each model's pair counts per
    epoch."""
    B = configs[0].batch_size
    models = [base.with_seed(c.seed) for c in configs]
    results, pairs, calls, summed = _recorded_training(
        corpus, models, configs, sgns_kernel)
    expected = []
    for e in range(configs[0].epochs):
        lanes = pairs[e * len(models):(e + 1) * len(models)]
        for b in range(0, max(p.size for p in lanes), B):
            expected.append(np.concatenate([p[b:b + B] for p in lanes
                                            if b < p.size]))
    assert len(calls) == len(expected) == len(summed)
    for (centers, _), batch, sums in zip(calls, expected, summed):
        assert np.array_equal(centers, batch)
        assert np.array_equal(sums, np.unique(batch))

    ref_models = [base.with_seed(c.seed) for c in configs]
    ref_results, _, ref_calls, _ = _recorded_training(
        corpus, ref_models, configs, _per_center_kernel)
    for (_, loss), (_, ref_loss) in zip(calls, ref_calls):
        assert loss.tobytes() == ref_loss.tobytes()
    for model, ref, result, ref_result in zip(models, ref_models, results,
                                              ref_results):
        assert _tables(model) == _tables(ref)
        assert result.loss_trace == ref_result.loss_trace
    return [[p.size for p in pairs[m::len(models)]]
            for m in range(len(models))]


class TestPlannedTraining:
    """Every kernel call of the trainer gets its batches' centers and sums
    their distinct words once."""

    @given(segmenter=st.sampled_from(["word", "charn", "bpe"]),
           word_token=st.booleans(), position=st.booleans(),
           seeds=st.lists(st.integers(0, 99), min_size=1, max_size=3,
                          unique=True),
           batch_size=st.sampled_from([1, 3, 7, 32]),
           epochs=st.integers(1, 2),
           subsample_t=st.sampled_from([0.0, 0.05]))
    @settings(max_examples=30, deadline=None)
    def test_equals_per_center_training(self, segmenter, word_token,
                                        position, seeds, batch_size, epochs,
                                        subsample_t):
        corpus, base = no_row_model(NO_ROW_TEXT, segmenter=segmenter,
                                    num_merges=10, word_token=word_token,
                                    position=position)
        _check_planned_training(corpus, base, [
            TrainConfig(epochs=epochs, batch_size=batch_size, min_count=1,
                        subsample_t=subsample_t, seed=seed)
            for seed in seeds])

    def test_repeats_partial_batches_and_lanes_that_end_apart(self):
        """Batches of a few words repeated, the no-row word among them, a
        partial last batch, and lockstep models whose pairs end at
        different calls."""
        corpus, base = no_row_model(NO_ROW_TEXT, segmenter="charn",
                                    word_token=True, position=True)
        configs = [TrainConfig(epochs=2, batch_size=8, min_count=1,
                               subsample_t=0.05, seed=seed)
                   for seed in (1, 2, 3)]
        counts = _check_planned_training(corpus, base, configs)
        assert any(n % 8 for lane in counts for n in lane)
        calls = [[-(-n // 8) for n in lane] for lane in counts]
        assert any(len(set(epoch)) > 1 for epoch in zip(*calls))

    def test_threaded_calls_sum_their_distinct_centers(self):
        corpus, m = no_row_model(NO_ROW_TEXT, segmenter="charn",
                                 word_token=True)
        config = TrainConfig(epochs=2, batch_size=8, min_count=1,
                             subsample_t=0, threads=2)
        _, pairs, calls, summed = _recorded_training(
            corpus, [m], [config], sgns_kernel)
        assert m.params.all_finite()
        assert all(centers.size <= 8 for centers, _ in calls)
        # the threads' calls interleave
        assert sorted(map(tuple, summed)) == sorted(
            tuple(np.unique(centers)) for centers, _ in calls)
        assert np.array_equal(
            np.sort(np.concatenate([centers for centers, _ in calls])),
            np.sort(np.concatenate(pairs)))


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

    @pytest.mark.parametrize("text,keep", [("a\nb\na\n", 1.0),
                                           ("a b a b\n", 0.0)],
                             ids=["one-token-sentences", "none-kept"])
    def test_an_epoch_with_no_pair(self, text, keep):
        corpus = tokenize_corpus(text)
        vocab = build_vocab(corpus, 1)
        stream = (*_token_stream(corpus, vocab),
                  np.full(len(vocab), keep), 2)
        centers, ctxs = _epoch_pairs(*stream, np.random.default_rng(0), True)
        assert centers.dtype == ctxs.dtype == np.int64
        assert centers.size == ctxs.size == 0
        assert _epoch_pair_count(*stream, np.random.default_rng(0),
                                 True) == 0

    def test_made_once_per_epoch_with_the_two_pass_schedule(self,
                                                            monkeypatch):
        corpus, m = make_model("u v w x y z\n" * 600)
        init = m.params.copy()
        cfg = TrainConfig(epochs=3, batch_size=16, subsample_t=0.05, seed=4)
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
        cfg = TrainConfig(epochs=2, batch_size=8, subsample_t=0, seed=11)
        train(corpus, m1, cfg)
        _, m2 = make_model("red blue green\n" * 100, segmenter="charn")
        train(corpus, m2, cfg)
        assert np.array_equal(m1.params.subword, m2.params.subword)
        assert np.array_equal(m1.params.context, m2.params.context)

    def test_zero_epochs_identity(self):
        corpus, m = make_model("a b c\n" * 10)
        init = m.params.copy()
        cfg = TrainConfig(epochs=0, seed=1)
        res = train(corpus, m, cfg)
        assert res.processed_pairs == 0
        assert np.array_equal(m.params.subword, init.subword)
        assert np.array_equal(m.params.context, init.context)

    def test_trains_at_the_window_and_negative_count_constants(
            self, monkeypatch):
        """No TrainConfig field sets the window or the negatives per pair:
        every epoch's pairs are made at WINDOW and drawn NEGATIVES
        negatives, word2vec's defaults."""
        assert (WINDOW, NEGATIVES) == (5, 5)
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "lr_start", "epochs", "batch_size", "min_count", "subsample_t",
            "threads", "seed"]
        windows, ks = [], []
        pairs = train_module._epoch_pairs
        count = train_module._epoch_pair_count
        draw = NegativeSampler.draw_matrix
        monkeypatch.setattr(train_module, "_epoch_pairs",
                            lambda *a: windows.append(a[3]) or pairs(*a))
        monkeypatch.setattr(train_module, "_epoch_pair_count",
                            lambda *a: windows.append(a[3]) or count(*a))
        monkeypatch.setattr(NegativeSampler, "draw_matrix",
                            lambda self, rng, positives, k: ks.append(k)
                            or draw(self, rng, positives, k))
        corpus, m = make_model("u v w x y z\n" * 20)
        train(corpus, m, TrainConfig(epochs=2, subsample_t=0))
        assert windows == [WINDOW] * 4 and ks == [NEGATIVES] * 2

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
        train(corpus, m, TrainConfig(epochs=2, batch_size=32, subsample_t=0,
                                     seed=7))
        vecs = np.stack([m.word_vector(w) for w in wa + wb])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        sim = vecs @ vecs.T
        intra = (sim[:8, :8].mean() + sim[8:, 8:].mean()) / 2
        inter = sim[:8, 8:].mean()
        assert intra > inter + 0.2

    def test_loss_trace_and_lr_decay(self):
        corpus, m = make_model("u v w x y z\n" * 400)
        cfg = TrainConfig(epochs=3, batch_size=16, subsample_t=0, seed=5,
                          lr_start=0.03)
        res = train(corpus, m, cfg)
        assert res.processed_pairs > 10_000
        assert len(res.loss_trace) >= 1
        counts = [c for c, _, _ in res.loss_trace]
        assert counts == sorted(counts)
        lrs = [lr for _, lr, _ in res.loss_trace]
        assert lrs == sorted(lrs, reverse=True)
        assert cfg.lr_floor <= res.final_lr <= cfg.lr_start

    def test_trace_tsv(self, tmp_path):
        corpus, m = make_model("u v w x\n" * 2000)
        res = train(corpus, m, TrainConfig(epochs=2, batch_size=32,
                                           subsample_t=0, seed=5))
        assert res.processed_pairs > TRACE_EVERY  # so the trace has a row
        res.save_trace(tmp_path / "trace.tsv")
        lines = (tmp_path / "trace.tsv").read_text().splitlines()
        assert len(lines) == len(res.loss_trace) >= 1
        for line, (count, lr, ema) in zip(lines, res.loss_trace):
            assert re.fullmatch(r"\d+\t\d+\.\d{8}\t-?\d+\.\d{6}", line)
            assert line == f"{count}\t{lr:.8f}\t{ema:.6f}"

    def test_subsampling_reduces_pairs(self):
        text = " ".join(["the"] * 2000 + ["rare%d" % i for i in range(50)])
        corpus = tokenize_corpus(text)
        vocab = build_vocab(corpus, 1)
        cfg_args = dict(epochs=1, batch_size=32, seed=3)
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
        cfg = TrainConfig(epochs=1, batch_size=64, subsample_t=0, seed=1)
        with pytest.raises(SubtokError, match=r"non-finite score at update 0 "
                                              r"\(center word '(aa|bb)'\)"):
            train(corpus, m, cfg)
        for name in ("subword", "position", "context"):
            assert np.array_equal(getattr(m.params, name),
                                  getattr(before, name))

    def test_threaded_mode_runs(self):
        corpus, m = make_model("p q r s t\n" * 200, segmenter="charn")
        cfg = TrainConfig(epochs=2, batch_size=16, subsample_t=0, seed=2,
                          threads=3)
        res = train(corpus, m, cfg)
        assert res.processed_pairs > 0
        assert m.params.all_finite()

    def test_baseline_reduction_whole_word(self):
        # degenerate segmenter: exactly one subword row per word and the
        # trainer touches only that input row per step, i.e. plain skip-gram
        corpus, m = make_model("aa bb cc\n" * 5)
        csr = _WordCSR.of_model(m)
        assert (csr.lens == 1).all() and (csr.wt_ids == -1).all()
        assert len(m.subword_vocab) == len(m.vocab)


class TestNegativeSampler:
    def test_collision_avoidance(self):
        corpus, m = make_model("a a a a a a b\n" * 3)
        sampler = NegativeSampler(m.vocab)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ctx_ids, valid = sampler.draw_matrix(rng, np.zeros(1, np.int64),
                                                 5)
            assert ctx_ids.shape == (1, 6) and ctx_ids[0, 0] == 0
            assert (ctx_ids[:, 1:][valid] != 0).all()

    def test_matrix_valid_mask(self):
        corpus, m = make_model("a b c d e f g h\n" * 3)
        sampler = NegativeSampler(m.vocab)
        positives = np.array([0, 1, 2, 3] * 10)
        ctx_ids, valid = sampler.draw_matrix(np.random.default_rng(1),
                                             positives, 4)
        assert np.array_equal(ctx_ids[:, 0], positives)
        assert ((ctx_ids[:, 1:] != positives[:, None]) == valid).all()

    def test_distribution_follows_power_law(self):
        corpus, m = make_model(" ".join(["a"] * 810 + ["b"] * 10))
        sampler = NegativeSampler(m.vocab)
        draws = sampler.draw(np.random.default_rng(2), 20_000)
        frac_a = (draws == m.vocab.word2id["a"]).mean()
        expected = 810**0.75 / (810**0.75 + 10**0.75)
        assert frac_a == pytest.approx(expected, abs=0.02)


LOCKSTEP_TEXT = ("the cats sat on mats\nrats ran at the bats\n"
                 "a cat and a rat sat\nhats on the cats and bats\n") * 6


def _tables(model):
    return [getattr(model.params, name).tobytes()
            for name in ("subword", "position", "context")]


class TestLockstep:
    """`train_lockstep` trains each sibling bit for bit as `train` trains
    it alone."""

    @given(segmenter=st.sampled_from(["word", "charn", "bpe", "morf"]),
           word_token=st.booleans(), position=st.booleans(),
           seeds=st.lists(st.integers(0, 99), min_size=1, max_size=3,
                          unique=True),
           batch_size=st.sampled_from([1, 3, 7, 32]),
           epochs=st.integers(1, 2),
           subsample_t=st.sampled_from([0.0, 0.05]))
    @settings(max_examples=40, deadline=None)
    def test_equals_solo_training(self, segmenter, word_token, position,
                                  seeds, batch_size, epochs, subsample_t):
        corpus, base = make_model(LOCKSTEP_TEXT, segmenter=segmenter,
                                  num_merges=20, word_token=word_token,
                                  position=position)
        configs = [TrainConfig(epochs=epochs, batch_size=batch_size,
                               min_count=1, subsample_t=subsample_t,
                               seed=seed)
                   for seed in seeds]
        models = [base.with_seed(seed) for seed in seeds]
        with mock.patch.object(train_module, "TRACE_EVERY", 40):
            results = train_lockstep(corpus, models, configs)
            for model, result, config in zip(models, results, configs):
                solo = base.with_seed(config.seed)
                expected = train(corpus, solo, config)
                assert _tables(model) == _tables(solo)
                assert result.loss_trace == expected.loss_trace
                assert result.processed_pairs == expected.processed_pairs
                assert result.final_lr == expected.final_lr
                assert result.processed_pairs > 0

    def test_seeds_differ_in_pair_count_and_last_batch(self):
        corpus, base = make_model(LOCKSTEP_TEXT)
        seeds = [1, 2, 3]
        configs = [TrainConfig(epochs=1, batch_size=7, min_count=1,
                               subsample_t=0.05, seed=seed)
                   for seed in seeds]
        results = train_lockstep(corpus, [base.with_seed(s) for s in seeds],
                                 configs)
        pairs = [r.processed_pairs for r in results]
        assert len(set(pairs)) == 3
        assert any(n % 7 for n in pairs)

    def test_a_failed_call_leaves_every_model_as_it_was(self):
        """Seed 5 meets a non-finite score mid-call, or keeps a non-finite
        row that no pair reads, which the check after training finds:
        either way the call raises and no model's tables change."""
        text = LOCKSTEP_TEXT + "the zz sat\n"
        corpus, base = make_model(text)
        seeds = [4, 5, 6]
        configs = [TrainConfig(epochs=2, batch_size=8, min_count=1,
                               subsample_t=0, seed=seed)
                   for seed in seeds]
        for table, row, message in (
                ("context", base.vocab.word2id["zz"],
                 r"non-finite score at update \d+ \(center word "),
                ("position", -1, "non-finite parameter after training")):
            models = [base.with_seed(seed) for seed in seeds]
            getattr(models[1].params, table)[row] = np.inf
            before = [_tables(model) for model in models]
            with pytest.raises(SubtokError, match=message):
                train_lockstep(corpus, models, configs)
            assert [_tables(model) for model in models] == before

    def test_refuses_models_that_are_not_siblings(self):
        corpus, base = make_model(LOCKSTEP_TEXT, segmenter="charn")
        _, other = make_model(LOCKSTEP_TEXT, segmenter="charn", seed=4)
        config = TrainConfig(min_count=1, epochs=1)
        with pytest.raises(ValueError, match="siblings"):
            train_lockstep(corpus, [base, other], [config, config])
        wide = SubwordModel(dataclasses.replace(base.config, dim=4),
                            base.vocab, base.subword_vocab, base.segmenter)
        with pytest.raises(ValueError, match="siblings"):
            train_lockstep(corpus, [base, wide], [config, config])

    def test_refuses_configs_that_differ_but_in_seed(self):
        corpus, base = make_model(LOCKSTEP_TEXT)
        models = [base.with_seed(1), base.with_seed(2)]
        one = TrainConfig(min_count=1, epochs=1, seed=1)
        with pytest.raises(ValueError, match="only in seed"):
            train_lockstep(corpus, models, [
                one, dataclasses.replace(one, seed=2, lr_start=0.01)])
        with pytest.raises(ValueError, match="one model"):
            threaded = dataclasses.replace(one, threads=2)
            train_lockstep(corpus, models,
                           [threaded, dataclasses.replace(threaded, seed=2)])
        with pytest.raises(ValueError, match="one TrainConfig per model"):
            train_lockstep(corpus, models, [one])

    def test_siblings_share_everything_but_the_tables(self):
        _, base = make_model(LOCKSTEP_TEXT, segmenter="charn")
        sibling = base.with_seed(9)
        assert sibling.config == dataclasses.replace(base.config, seed=9)
        assert sibling.vocab is base.vocab
        assert sibling.subword_vocab is base.subword_vocab
        assert sibling.segmenter is base.segmenter
        fresh = SubwordModel(sibling.config, base.vocab, base.subword_vocab,
                             base.segmenter)
        assert _tables(sibling) == _tables(fresh) != _tables(base)


def test_package_attribute_is_the_module():
    """The package re-exports nothing, so `subtok.train` names the module
    once `import subtok.train` has run."""
    assert isinstance(subtok.train, types.ModuleType)
    assert subtok.train is train_module
