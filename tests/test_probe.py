import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import subtok.probe as probe_mod
from subtok.cli import parse_config_label
from subtok.corpus import build_vocab, tokenize_corpus
from subtok.errors import FormatError, SubtokError
from subtok.model import ModelConfig, SubwordModel
from subtok.probe import (
    MentionDataset,
    SoftmaxProbe,
    decode_spans,
    eval_mention_accuracy,
    load_conll,
    load_mentions,
    mention_features,
    per_label_accuracy,
    repair_bio,
    span_f1,
    train_mention_probe,
    write_metrics,
)


def window_features(model, tokens, i):
    """The probe's feature row of token i."""
    return probe_mod._features(
        model, [probe_mod._window_slots(tokens, i)])[0]


def tagger_probe(model, data):
    """Features of the train, dev and test sentences of `data`, in that
    order; a probe trained on the train split, its λ chosen on dev; and
    each split's (lo, hi) item range."""
    names = ("train", "dev", "test")
    ends = np.cumsum([0] + [len(data.splits[s]) for s in names]).tolist()
    at = dict(zip(names, zip(ends, ends[1:])))
    feats = probe_mod.TaskFeatures.of(
        model, data, [i for s in names for i in data.splits[s]])
    return feats, feats.probe(slice(*at["train"]), slice(*at["dev"])), at


def charn_model(text, **cfg):
    defaults = dict(segmenter="charn", dim=12, seed=4)
    defaults.update(cfg)
    corpus = tokenize_corpus(text)
    vocab = build_vocab(corpus, 1)
    return SubwordModel.build(ModelConfig(**defaults), vocab)


class TestLoadMentions:
    def test_basic(self):
        data = load_mentions(["Bill Clinton\t/person/politician\n"])
        assert data.examples[0] == (("Bill", "Clinton"),
                                    "/person/politician")

    def test_split_sizes(self):
        lines = [f"w{i}\t/t{i % 2}\n" for i in range(10)]
        data = load_mentions(lines, seed=3)
        assert (len(data.splits["train"]), len(data.splits["dev"]),
                len(data.splits["test"])) == (6, 2, 2)

    def test_duplicates_kept(self):
        data = load_mentions(["a\t/x\n", "a\t/x\n"])
        assert len(data.examples) == 2

    def test_malformed_line_number(self):
        with pytest.raises(FormatError) as exc:
            load_mentions(["ok\t/x\n", "badline\n"])
        assert exc.value.line_number == 2

    def test_split_reproducible(self):
        lines = [f"w{i}\t/t\n" for i in range(20)]
        assert load_mentions(lines, seed=5).splits == \
            load_mentions(lines, seed=5).splits


class TestLoadConll:
    def test_sentence_boundaries(self):
        lines = ["a\tO\n", "b\tO\n", "c\tO\n", "\n", "d\tO\n", "e\tO\n"]
        data = load_conll(lines)
        assert [len(t) for t, _ in data.sentences] == [3, 2]

    def test_bio_scheme_inferred(self):
        data = load_conll(["x\tB-PER\n", "y\tO\n"])
        assert data.scheme == "BIO"

    def test_full_tag_scheme_inferred(self):
        data = load_conll(["x\tPOS=V|Tense=Past\n"])
        assert data.scheme == "full-tag"

    def test_arity_error(self):
        with pytest.raises(FormatError) as exc:
            load_conll(["a\tO\n", "b\tO\textra\n"])
        assert exc.value.line_number == 2

    def test_bio_repair_on_load(self):
        data = load_conll(["a\tI-PER\n", "b\tI-PER\n", "c\tO\n",
                           "d\tI-LOC\n"])
        assert data.sentences[0][1] == ("B-PER", "I-PER", "O", "B-LOC")


class TestRepairBio:
    def test_stray_after_other_type(self):
        assert repair_bio(["B-PER", "I-LOC"]) == ("B-PER", "B-LOC")

    def test_valid_untouched(self):
        labs = ("B-PER", "I-PER", "O", "B-LOC")
        assert repair_bio(labs) == labs


class TestSpanF1:
    def test_stray_span_case(self):
        # gold span (0,1,PER); pred span (0,0,PER): no exact match
        p, r, f1 = span_f1([("B-PER", "I-PER", "O")], [("B-PER", "O", "O")])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        seqs = [("B-PER", "I-PER", "O", "B-LOC")]
        assert span_f1(seqs, seqs) == (1.0, 1.0, 1.0)

    def test_all_o_pred(self):
        p, r, f1 = span_f1([("B-PER", "O")], [("O", "O")])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_partial(self):
        gold = [("B-PER", "O", "B-LOC", "I-LOC")]
        pred = [("B-PER", "O", "B-LOC", "O")]
        p, r, f1 = span_f1(gold, pred)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(0.5)

    def test_stray_i_starts_span(self):
        assert decode_spans(("O", "I-PER", "I-PER")) == {(1, 2, "PER")}
        assert decode_spans(("I-PER", "I-LOC")) == {(0, 0, "PER"),
                                                    (1, 1, "LOC")}

    def test_swap_symmetry(self):
        gold = [("B-PER", "I-PER", "O", "B-LOC")]
        pred = [("B-PER", "O", "O", "B-LOC")]
        p1, r1, f1a = span_f1(gold, pred)
        p2, r2, f1b = span_f1(pred, gold)
        assert (p1, r1) == (r2, p2)
        assert f1a == pytest.approx(f1b)

    def test_f1_bounded(self):
        rng = np.random.default_rng(0)
        labels = ["O", "B-X", "I-X", "B-Y", "I-Y"]
        for _ in range(50):
            n = int(rng.integers(1, 12))
            gold = [tuple(labels[i] for i in rng.integers(0, 5, n))]
            pred = [tuple(labels[i] for i in rng.integers(0, 5, n))]
            p, r, f1 = span_f1(gold, pred)
            assert 0 <= f1 <= 1
            assert f1 <= max(p, r) + 1e-12


class TestPerLabelAccuracy:
    def test_no_partial_credit(self):
        gold = [("POS=V|Tense=Past",)]
        pred = [("POS=V|Tense=Pres",)]
        assert per_label_accuracy(gold, pred) == 0.0

    def test_exact(self):
        gold = [("A", "B"), ("C", "D")]
        assert per_label_accuracy(gold, gold) == 1.0

    def test_three_of_four(self):
        gold = [("A", "B", "C", "D")]
        pred = [("A", "B", "C", "X")]
        assert per_label_accuracy(gold, pred) == 0.75


class TestMentionProbe:
    def _separable_setup(self):
        model = charn_model("redaa redbb redcc bluaa blubb blucc\n" * 5)
        # make the two families linearly separable by construction
        rng = np.random.default_rng(0)
        model.params.subword[:] = rng.normal(
            0, 0.2, model.params.subword.shape).astype(np.float32)
        lines = []
        for w in model.vocab.words:
            label = "/red" if w.startswith("red") else "/blu"
            for _ in range(6):
                lines.append(f"{w}\t{label}\n")
        return model, load_mentions(lines, seed=1)

    def test_separable_train_accuracy(self):
        model, data = self._separable_setup()
        probe = train_mention_probe(model, data, seed=0)
        acc = eval_mention_accuracy(probe, model, data, "train")
        assert acc >= 0.99

    def test_frozen_leaves_tables_unchanged(self):
        model, data = self._separable_setup()
        sub = model.params.subword.copy()
        ctx = model.params.context.copy()
        train_mention_probe(model, data)
        assert np.array_equal(model.params.subword, sub)
        assert np.array_equal(model.params.context, ctx)

    def test_empty_train_split_error(self):
        model, _ = self._separable_setup()
        data = MentionDataset.from_examples(
            [(("a",), "/x"), (("b",), "/y")],
            splits={"train": [], "dev": [0], "test": [1]})
        with pytest.raises(SubtokError):
            train_mention_probe(model, data)

    def test_dev_tie_goes_to_the_strongest_penalty(self):
        model, data = self._separable_setup()
        probe = train_mention_probe(model, data)
        # every λ of the grid scores dev perfectly, so the first is kept
        assert eval_mention_accuracy(probe, model, data, "dev") == 1.0
        lam, _ = _stationary_penalty(probe, *_oracle_train_split(
            model, data, probe.labels))
        assert lam == probe_mod.L2_GRID[0]

    def test_empty_dev_split_error(self):
        model, _ = self._separable_setup()
        data = MentionDataset.from_examples(
            [(("redaa",), "/red"), (("bluaa",), "/blu")],
            splits={"train": [0, 1], "dev": [], "test": [0]})
        with pytest.raises(SubtokError, match="empty dev split"):
            train_mention_probe(model, data)


class TestTaggerProbe:
    def _suffix_tag_data(self, model):
        lines = []
        for w in model.vocab.words:
            tag = "POS=R" if w.startswith("red") else "POS=B"
            for _ in range(4):
                lines.append(f"{w}\t{tag}\n")
                lines.append("\n")
        return load_conll(lines, seed=2)

    def test_feature_dims(self):
        model = charn_model("aa bb cc\n" * 3)
        toks = ("aa", "bb", "cc")
        # one slot each side of the tagged token
        assert window_features(model, toks, 1).shape == (36,)

    def test_boundary_zero_padding(self):
        model = charn_model("aa bb\n" * 3)
        f = window_features(model, ("aa",), 0)
        assert not f[:12].any()  # left of sentence start
        assert not f[24:].any()  # right of sentence end

    def test_suffix_tagging_learnable(self):
        model = charn_model("redaa redbb redcc bluaa blubb blucc\n" * 5)
        rng = np.random.default_rng(1)
        model.params.subword[:] = rng.normal(
            0, 0.2, model.params.subword.shape).astype(np.float32)
        data = self._suffix_tag_data(model)
        feats, probe, at = tagger_probe(model, data)
        (metric, acc), = feats.metrics(probe, *at["dev"])
        assert metric == "accuracy" and acc >= 0.95

    def test_frozen_contract(self):
        model = charn_model("redaa bluaa\n" * 4)
        data = self._suffix_tag_data(model)
        sub = model.params.subword.copy()
        tagger_probe(model, data)
        assert np.array_equal(model.params.subword, sub)

    def test_accuracy_needs_full_tag_scheme(self):
        model = charn_model("aa bb\n" * 3)
        data = load_conll(["aa\tB-PER\n", "\n", "bb\tO\n"] * 4, seed=0)
        feats, probe, at = tagger_probe(model, data)
        # BIO data is scored by span F1, accuracy only full-tag data
        assert [m for m, _ in feats.metrics(probe, *at["test"])] == \
            ["precision", "recall", "f1"]


class TestOovProperty:
    def test_charn_nonzero_whole_word_zero(self):
        text = "walked jumped talked\n" * 4
        charn = charn_model(text)
        word = charn_model(text, segmenter="word")
        oov = "walker"
        cv, c_unknown = (charn.word_vector(oov),
                         oracles.all_unknown(charn, oov))
        wv, w_unknown = (word.word_vector(oov),
                         oracles.all_unknown(word, oov))
        assert not c_unknown and cv.any()
        assert w_unknown and not wv.any()


class TestMetricsOutput:
    def test_tsv_format(self, tmp_path):
        rows = [("fget", "charn:w+:p-", "test", "accuracy", 0.75)]
        write_metrics(tmp_path / "m.tsv", rows)
        line = (tmp_path / "m.tsv").read_text().strip()
        assert line == "fget\tcharn:w+:p-\ttest\taccuracy\t0.750000"


# ---------------------------------------------------------------------------
# The probe against its objective: the gradient that oracles.py writes per
# example vanishes at the returned probe, and plain gradient descent finds
# the same minimum
# ---------------------------------------------------------------------------

_STEMS = ["walk", "talk", "jump", "play", "cook", "kiss"]
_SUFFIX_TAG = {"ed": "POS=V|Tense=Past", "ing": "POS=V|Aspect=Prog",
               "s": "POS=N|Num=Plur", "": "POS=N|Num=Sing"}


def _reference_setup(label):
    """A randomly initialised model for `label` and three task datasets over
    stem+suffix words; stems `hop` and `kick` never occur in the corpus."""
    rng = np.random.default_rng(7)
    suffixes = list(_SUFFIX_TAG)
    words = [s + x for s in _STEMS for x in suffixes]
    text = "".join(" ".join(rng.choice(words, 6)) + "\n" for _ in range(60))
    cfg = dataclasses.replace(parse_config_label(label), dim=6, seed=3)
    model = SubwordModel.build(cfg, build_vocab(tokenize_corpus(text), 1))
    for table in (model.params.subword, model.params.position):
        table[:] = rng.normal(0, 0.1, table.shape)

    def word():
        stem = _STEMS[rng.integers(len(_STEMS))] if rng.random() < 0.85 \
            else ["hop", "kick"][rng.integers(2)]
        return stem, suffixes[rng.integers(len(suffixes))]

    mention_lines, bio_lines, tag_lines = [], [], []
    for _ in range(90):
        toks = [word() for _ in range(rng.integers(1, 4))]
        if rng.random() < 0.2:
            toks.append(toks[0])  # a token twice in one mention
        mention_lines.append(" ".join(s + x for s, x in toks)
                             + f"\t/{toks[-1][1] or 'bare'}\n")
    for _ in range(40):
        prev = None
        for _ in range(rng.integers(1, 6)):
            stem, suffix = word()
            ent = {"ed": "PER", "s": "LOC"}.get(suffix)
            bio = "O" if ent is None else \
                ("I-" if prev == ent else "B-") + ent
            prev = ent
            bio_lines.append(f"{stem + suffix}\t{bio}\n")
            tag_lines.append(f"{stem + suffix}\t{_SUFFIX_TAG[suffix]}\n")
        bio_lines.append("\n")
        tag_lines.append("\n")
    return (model, load_mentions(mention_lines, seed=1),
            load_conll(bio_lines, seed=2), load_conll(tag_lines, seed=3))


_TASKS = ["mentions"] + [f"{scheme}-w{w}" for scheme in ("bio", "full")
                         for w in (0, 1, 2)]


def _oracle_train_split(model, data, labels, window=0):
    """Oracle features and label ids of the train split of `data`."""
    if isinstance(data, MentionDataset):
        examples = [data.examples[i] for i in data.splits["train"]]
        return ([oracles.mention_features(model, toks)
                 for toks, _ in examples],
                [labels.index(label) for _, label in examples])
    sents = [data.sentences[i] for i in data.splits["train"]]
    return ([oracles.window_features(model, toks, i, window)
             for toks, _ in sents for i in range(len(toks))],
            [labels.index(label) for _, labs in sents for label in labs])


def _stationary_penalty(probe, feats, ids):
    """(λ, max-abs gradient) for the λ of the grid at which the oracle
    gradient of the objective at `probe` is smallest."""
    grads = {}
    for lam in probe_mod.L2_GRID:
        grad_w, grad_b = oracles.probe_gradient(feats, ids, probe.weights,
                                                probe.bias, lam)
        grads[lam] = max(np.abs(grad_w).max(), np.abs(grad_b).max())
    lam = min(grads, key=grads.get)
    return lam, grads[lam]


@pytest.mark.parametrize("task", _TASKS, ids=[f"frozen-{t}" for t in _TASKS])
@pytest.mark.parametrize("label", ["w2v", "charn:w+:p-", "charn:w+:p+"])
def test_matches_reference_probes(monkeypatch, label, task):
    """The probe is a stationary point of the objective for one λ of the
    grid, and its batched predictions are the per-example predictions on
    oracle features. The tagger reads TAGGER_WINDOW, 1, at w1; w0 and w2
    set it to 0 and 2, so the slot layout is checked beyond its value."""
    model, mentions, bio, full = _reference_setup(label)
    ref_model = copy.deepcopy(model)
    if task == "mentions":
        data, window = mentions, 0
        probe = train_mention_probe(model, mentions)
        test = [mentions.examples[i] for i in mentions.splits["test"]]
        feats = probe_mod.TaskFeatures.of(model, mentions,
                                          mentions.splits["test"])
        preds = probe.scores(feats.feats).argmax(axis=1).tolist()
        ref_preds = [oracles.predict_index(
            probe, oracles.mention_features(ref_model, t)) for t, _ in test]
        assert eval_mention_accuracy(probe, model, mentions) == \
            sum(p == probe.labels.index(l)
                for p, (_, l) in zip(ref_preds, test)) / len(test)
    else:
        data = bio if task.startswith("bio") else full
        window = int(task[-1])
        if window != 1:
            monkeypatch.setattr(probe_mod, "TAGGER_WINDOW", window)
        feats, probe, at = tagger_probe(model, data)
        lo, hi = feats.bounds[list(at["test"])]
        preds = probe.scores(feats.feats[lo:hi]).argmax(axis=1).tolist()
        ref_preds = [oracles.predict_index(
            probe, oracles.window_features(ref_model, toks, i, window))
            for toks, _ in (data.sentences[i] for i in data.splits["test"])
            for i in range(len(toks))]
    _, grad = _stationary_penalty(probe, *_oracle_train_split(
        ref_model, data, probe.labels, window))
    assert grad < probe_mod.GRAD_TOL
    assert preds == ref_preds
    for name in ("subword", "position", "context"):
        assert np.array_equal(getattr(model.params, name),
                              getattr(ref_model.params, name))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lam", probe_mod.L2_GRID)
def test_solver_agrees_with_gradient_descent(lam, seed):
    rng = np.random.default_rng(seed)
    n, d, k = 40, 4, 3
    ids = np.arange(n) % k
    feats = (0.5 * rng.normal(size=(k, d))[ids]
             + rng.normal(size=(n, d))).astype(np.float32)
    theta = probe_mod._newton_cg(np.hstack([feats, np.ones((n, 1))]), ids,
                                 lam, np.zeros((k, d + 1)))
    weights, bias = oracles.gradient_descent_probe(feats, ids, k, lam)
    assert np.abs(theta[:, :-1] - weights).max() < 1e-6
    assert np.abs(theta[:, -1] - bias).max() < 1e-6


def test_solver_stops_when_no_step_lowers_the_loss():
    """At feature scale 1e7 the loss stops falling in floating point while
    some gradient entry still exceeds GRAD_TOL: at the weakest λ of L2_GRID
    no backtracking step lowers it, and the solve keeps the last step that
    did, with finite weights that fit the separable training labels."""
    feats = np.array([[7e7], [-4e7], [3e7], [-4e7]])
    ids = np.array([0, 1, 2, 1])
    xa = np.hstack([feats, np.ones((4, 1))])
    theta = np.zeros((3, 2))
    for lam in probe_mod.L2_GRID:
        theta = probe_mod._newton_cg(xa, ids, lam, theta)
    assert np.isfinite(theta).all()
    assert (xa @ theta.T).argmax(axis=1).tolist() == ids.tolist()


@pytest.mark.parametrize("task", ["mentions", "conll"])
def test_label_missing_from_train_split(task):
    """A truncated train split can miss a label: its bias falls without
    bound, and the solve still converges to finite weights."""
    model, mentions, _, full = _reference_setup("charn:w+:p-")
    if task == "mentions":
        data, missing = mentions, "/s"
        data.splits["train"] = [i for i in data.splits["train"]
                                if data.examples[i][1] != missing]
        probe = train_mention_probe(model, data)
    else:
        data, missing = full, _SUFFIX_TAG["s"]
        data.splits["train"] = [i for i in data.splits["train"]
                                if missing not in data.sentences[i][1]]
        _, probe, _ = tagger_probe(model, data)
    assert missing in probe.labels
    assert np.isfinite(probe.weights).all() and np.isfinite(probe.bias).all()
    _, grad = _stationary_penalty(probe, *_oracle_train_split(
        model, data, probe.labels, 0 if task == "mentions" else 1))
    assert grad < probe_mod.GRAD_TOL


def test_slot_features_match_reference_features():
    model, mentions, bio, _ = _reference_setup("charn:w+:p+")
    for toks, _ in mentions.examples:
        got = mention_features(model, toks)
        assert got.dtype == np.float32
        assert np.array_equal(got, oracles.mention_features(model, toks))
    for toks, _ in bio.sentences:
        for i in range(len(toks)):
            assert np.array_equal(window_features(model, toks, i),
                                  oracles.window_features(model, toks, i, 1))


_stack_setup = functools.cache(lambda: _reference_setup("charn:w+:p+"))


@given(task=st.sampled_from(["mentions", "bio", "full"]), data=st.data())
@example(task="mentions", data=None)
@example(task="bio", data=None)
@settings(max_examples=100, deadline=None)
def test_features_of_joined_items_are_stacked(task, data):
    """`TaskFeatures.of` on items a + b has the rows, label ids and bounds of
    its build on a stacked on its build on b, bit for bit: an item's
    examples do not depend on the items built with it. `cli.run_probe`
    rests on this when it slices each split out of one build."""
    model, mentions, bio, full = _stack_setup()
    dataset = {"mentions": mentions, "bio": bio, "full": full}[task]
    n = len(dataset.examples if task == "mentions" else dataset.sentences)
    if data is None:  # the empty a and a one-item b
        items, k = [3], 0
    else:
        items = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                   max_size=12))
        k = data.draw(st.integers(0, len(items)))
    a, b = items[:k], items[k:]
    both, fa, fb = (probe_mod.TaskFeatures.of(model, dataset, x)
                    for x in (a + b, a, b))
    assert both.feats.dtype == np.float32
    assert len(both.feats) == len(fa.feats) + len(fb.feats)
    assert both.feats.tobytes() == fa.feats.tobytes() + fb.feats.tobytes()
    assert both.label_ids.tolist() == \
        fa.label_ids.tolist() + fb.label_ids.tolist()
    assert both.bounds.tolist() == \
        fa.bounds.tolist() + (fb.bounds[1:] + fa.bounds[-1]).tolist()


class TestScores:
    """SoftmaxProbe.scores gives every row the bits of the per-example
    `weights @ f + bias`, so batched scoring picks the same labels."""

    @staticmethod
    def _probe(k, d, seed):
        rng = np.random.default_rng(seed)
        return SoftmaxProbe(weights=rng.normal(size=(k, d)),
                            bias=rng.normal(size=k),
                            labels=[str(i) for i in range(k)])

    @given(k=st.integers(1, 8), d=st.integers(1, 160),
           n=st.integers(0, 40), zero_rows=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(k=3, d=5, n=0, zero_rows=0, seed=0)
    @example(k=1, d=7, n=6, zero_rows=0, seed=1)
    @example(k=4, d=9, n=5, zero_rows=5, seed=2)
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_per_example_scores(self, k, d, n, zero_rows, seed):
        probe = self._probe(k, d, seed)
        feats = np.random.default_rng(seed + 1).normal(
            size=(n, d)).astype(np.float32)
        feats[:zero_rows] = 0.0
        got = probe.scores(feats)
        assert got.shape == (n, k) and got.dtype == np.float64
        for f, row in zip(feats, got):
            assert np.array_equal(row, probe.weights @ f + probe.bias)
        assert got.argmax(axis=1).tolist() == \
            [oracles.predict_index(probe, f) for f in feats]

    def test_empty_features_from_no_examples(self):
        probe = self._probe(3, 4, 0)
        model = charn_model("aa bb\n" * 3)
        assert probe.scores(probe_mod._features(model, [])).shape == (0, 3)
        data = MentionDataset.from_examples([(("aa",), "0")])
        feats = probe_mod.TaskFeatures.of(model, data, [])
        assert feats.bounds.tolist() == [0]
        assert feats.metrics(probe, 0, 0) == [("accuracy", 0.0)]

    def test_zero_rows_score_the_bias_and_tie_to_lowest_index(self):
        probe = self._probe(4, 6, 3)
        assert np.array_equal(probe.scores(np.zeros((2, 6), np.float32)),
                              np.stack([probe.bias] * 2))
        probe.bias[:] = 0.0
        assert probe.scores(np.zeros((3, 6), np.float32)).argmax(
            axis=1).tolist() == [0, 0, 0]
