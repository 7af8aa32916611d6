import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import subtok.probe as probe_mod
from subtok.cli import parse_config_label
from subtok.corpus import build_vocab, tokenize_corpus
from subtok.errors import ConfigError, FormatError, SubtokError
from subtok.model import ModelConfig, SubwordModel
from subtok.probe import (
    MentionDataset,
    SoftmaxProbe,
    decode_spans,
    eval_mention_accuracy,
    eval_tag_accuracy,
    load_conll,
    load_mentions,
    mention_features,
    per_label_accuracy,
    repair_bio,
    span_f1,
    tag_sentences,
    train_mention_probe,
    train_tagger_probe,
    window_features,
    write_metrics,
)


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

    def test_length_mismatch(self):
        with pytest.raises(SubtokError):
            span_f1([("O", "O")], [("O",)])

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
        probe = train_mention_probe(model, data, epochs=200, lr=0.5, seed=0)
        acc = eval_mention_accuracy(probe, model, data, "train")
        assert acc >= 0.99

    def test_zero_epochs_chance_level(self):
        model, data = self._separable_setup()
        probe = train_mention_probe(model, data, epochs=0, lr=0.5)
        acc = eval_mention_accuracy(probe, model, data, "dev")
        assert 0.0 <= acc <= 1.0
        assert not probe.weights.any()

    def test_frozen_leaves_tables_unchanged(self):
        model, data = self._separable_setup()
        sub = model.params.subword.copy()
        ctx = model.params.context.copy()
        train_mention_probe(model, data, epochs=20)
        assert np.array_equal(model.params.subword, sub)
        assert np.array_equal(model.params.context, ctx)

    def test_empty_train_split_error(self):
        model, _ = self._separable_setup()
        data = MentionDataset.from_examples(
            [(("a",), "/x"), (("b",), "/y")],
            splits={"train": [], "dev": [0], "test": [1]})
        with pytest.raises(SubtokError):
            train_mention_probe(model, data)

    def test_empty_dev_split_error(self):
        model, _ = self._separable_setup()
        data = MentionDataset.from_examples(
            [(("redaa",), "/red"), (("bluaa",), "/blu")],
            splits={"train": [0, 1], "dev": [], "test": [0]})
        with pytest.raises(SubtokError, match="empty dev split"):
            train_mention_probe(model, data)

    def test_tie_break_lowest_label_index(self):
        model, data = self._separable_setup()
        probe = train_mention_probe(model, data, epochs=0)
        feat = mention_features(model, ("redaa",))
        assert probe.predict(feat) == probe.labels[0]


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
        assert window_features(model, toks, 1, 0).shape == (12,)
        assert window_features(model, toks, 1, 1).shape == (36,)

    def test_boundary_zero_padding(self):
        model = charn_model("aa bb\n" * 3)
        f = window_features(model, ("aa",), 0, 1)
        assert not f[:12].any()  # left of sentence start
        assert not f[24:].any()  # right of sentence end

    def test_suffix_tagging_learnable(self):
        model = charn_model("redaa redbb redcc bluaa blubb blucc\n" * 5)
        rng = np.random.default_rng(1)
        model.params.subword[:] = rng.normal(
            0, 0.2, model.params.subword.shape).astype(np.float32)
        data = self._suffix_tag_data(model)
        probe = train_tagger_probe(model, data, window=0, epochs=200, lr=0.5)
        acc = eval_tag_accuracy(probe, model, data, "dev")
        assert acc >= 0.95

    def test_frozen_contract(self):
        model = charn_model("redaa bluaa\n" * 4)
        data = self._suffix_tag_data(model)
        sub = model.params.subword.copy()
        train_tagger_probe(model, data, window=1, epochs=5)
        assert np.array_equal(model.params.subword, sub)

    def test_accuracy_needs_full_tag_scheme(self):
        model = charn_model("aa bb\n" * 3)
        data = load_conll(["aa\tB-PER\n", "\n", "bb\tO\n"] * 4, seed=0)
        probe = train_tagger_probe(model, data, window=0, epochs=1)
        with pytest.raises(SubtokError):
            eval_tag_accuracy(probe, model, data)


class TestOovProperty:
    def test_charn_nonzero_whole_word_zero(self):
        text = "walked jumped talked\n" * 4
        charn = charn_model(text)
        word = charn_model(text, segmenter="word")
        oov = "walker"
        cv, c_unknown = charn.word_vector_checked(oov)
        wv, w_unknown = word.word_vector_checked(oov)
        assert not c_unknown and cv.any()
        assert w_unknown and not wv.any()


class TestMetricsOutput:
    def test_tsv_format(self, tmp_path):
        rows = [("fget", "charn:w+:p-", "test", "accuracy", 0.75)]
        write_metrics(tmp_path / "m.tsv", rows)
        line = (tmp_path / "m.tsv").read_text().strip()
        assert line == "fget\tcharn:w+:p-\ttest\taccuracy\t0.750000"


# ---------------------------------------------------------------------------
# The one slot-feature probe against the per-task probes it replaced
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


@pytest.mark.parametrize("task", _TASKS, ids=[f"frozen-{t}" for t in _TASKS])
@pytest.mark.parametrize("label", ["w2v", "charn:w+:p-", "charn:w+:p+"])
def test_matches_reference_probes(label, task):
    model, mentions, bio, full = _reference_setup(label)
    ref_model = copy.deepcopy(model)
    kw = dict(epochs=8, lr=0.1, seed=5)
    if task == "mentions":
        probe = train_mention_probe(model, mentions, **kw)
        ref = oracles.train_mention_probe(ref_model, mentions, **kw)
        test = mentions.split_examples("test")
        preds = probe_mod._predict(probe, model, [[t] for t, _ in test])
        ref_preds = [ref.predict_index(oracles.mention_features(ref_model, t))
                     for t, _ in test]
        assert eval_mention_accuracy(probe, model, mentions) == \
            sum(p == ref.labels.index(l)
                for p, (_, l) in zip(ref_preds, test)) / len(test)
    else:
        data = bio if task.startswith("bio") else full
        window = int(task[-1])
        probe = train_tagger_probe(model, data, window=window, **kw)
        ref = oracles.train_tagger_probe(ref_model, data, window=window, **kw)
        test = data.split_sentences("test")
        preds = tag_sentences(probe, model, test)
        ref_preds = [tuple(ref.predict(oracles.window_features(
            ref_model, toks, i, window)) for i in range(len(toks)))
            for toks, _ in test]
    assert np.isfinite(probe.weights).all() and model.params.all_finite()
    assert np.array_equal(probe.weights, ref.weights)
    assert np.array_equal(probe.bias, ref.bias)
    assert preds == ref_preds
    for name in ("subword", "position", "context"):
        assert np.array_equal(getattr(model.params, name),
                              getattr(ref_model.params, name))


def test_slot_features_match_reference_features():
    model, mentions, bio, _ = _reference_setup("charn:w+:p+")
    for toks, _ in mentions.examples:
        got = mention_features(model, toks)
        assert got.dtype == np.float32
        assert np.array_equal(got, oracles.mention_features(model, toks))
    for toks, _ in bio.sentences:
        for i in range(len(toks)):
            for window in (0, 2):
                assert np.array_equal(
                    window_features(model, toks, i, window),
                    oracles.window_features(model, toks, i, window))


def test_negative_window_is_a_config_error():
    model, _, bio, _ = _reference_setup("w2v")
    with pytest.raises(ConfigError, match="window must be >= 0"):
        train_tagger_probe(model, bio, window=-1)


class TestScores:
    """SoftmaxProbe.scores gives every row the bits of predict_index's
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
            [probe.predict_index(f) for f in feats]

    def test_empty_features_from_no_examples(self):
        probe = self._probe(3, 4, 0)
        model = charn_model("aa bb\n" * 3)
        assert probe.scores(probe_mod._features(model, [])).shape == (0, 3)
        assert probe_mod._predict(probe, model, []) == []

    def test_zero_rows_score_the_bias_and_tie_to_lowest_index(self):
        probe = self._probe(4, 6, 3)
        assert np.array_equal(probe.scores(np.zeros((2, 6), np.float32)),
                              np.stack([probe.bias] * 2))
        probe.bias[:] = 0.0
        assert probe.scores(np.zeros((3, 6), np.float32)).argmax(
            axis=1).tolist() == [0, 0, 0]
