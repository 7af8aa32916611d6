"""Linear probes over composed word vectors for the three downstream tasks:
mention typing (accuracy), morphological tagging (per-label accuracy), and
NER (BIO span F1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subtok.errors import (
    ConfigError,
    FormatError,
    SubtokError,
    read_fields,
    read_lines,
)
from subtok.model import SubwordModel

SCHEME_BIO = "BIO"
SCHEME_FULL_TAG = "full-tag"

# dev evaluations without a better accuracy before a probe stops training
PATIENCE = 5


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class MentionDataset:
    """Labeled token-sequence mentions with a seed-reproducible 60/20/20
    split."""

    examples: list[tuple[tuple[str, ...], str]]
    label_inventory: list[str]
    splits: dict[str, list[int]]
    seed: int = 0

    def split_examples(self, split: str):
        return [self.examples[i] for i in self.splits[split]]

    @classmethod
    def from_examples(cls, examples, seed: int = 0,
                      splits: dict[str, list[int]] | None = None
                      ) -> "MentionDataset":
        examples = [(tuple(toks), label) for toks, label in examples]
        for toks, _ in examples:
            if not toks:
                raise ValueError("empty token list in mention")
        labels = sorted({label for _, label in examples})
        if splits is None:
            splits = random_split(len(examples), seed)
        return cls(examples=examples, label_inventory=labels, splits=splits,
                   seed=seed)


def random_split(n: int, seed: int) -> dict[str, list[int]]:
    """Seeded 60/20/20 split indices."""
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.6)
    n_dev = int(n * 0.2)
    return {
        "train": perm[:n_train].tolist(),
        "dev": perm[n_train:n_train + n_dev].tolist(),
        "test": perm[n_train + n_dev:].tolist(),
    }


def load_mentions(source, seed: int = 0) -> MentionDataset:
    """Parse `token token ...<TAB>label` lines into a MentionDataset with a
    deterministic seeded split. `source` is a path or an iterable of lines."""
    examples = []
    expected = "expected `token token ...<TAB>label`"
    for ln, (tokens, label) in read_fields(source, "task file", "\t", 2,
                                           expected):
        if not tokens.split() or not label:
            raise FormatError(expected, ln)
        examples.append((tuple(tokens.split()), label))
    return MentionDataset.from_examples(examples, seed=seed)


@dataclass
class TagDataset:
    """Token sequences with aligned labels; scheme is BIO or full-tag."""

    sentences: list[tuple[tuple[str, ...], tuple[str, ...]]]
    scheme: str
    splits: dict[str, list[int]] = field(default_factory=dict)

    def split_sentences(self, split: str):
        return [self.sentences[i] for i in self.splits[split]]

    @property
    def label_inventory(self) -> list[str]:
        return sorted({lab for _, labs in self.sentences for lab in labs})


def _is_bio_label(label: str) -> bool:
    return label == "O" or (len(label) > 2 and label[:2] in ("B-", "I-"))


def repair_bio(labels) -> tuple[str, ...]:
    """Promote stray I-X (sequence start, after O, or after a different
    type) to B-X."""
    out = []
    prev_type = None
    for lab in labels:
        if lab.startswith("I-"):
            t = lab[2:]
            if prev_type != t:
                lab = "B-" + t
            prev_type = t
        elif lab.startswith("B-"):
            prev_type = lab[2:]
        else:
            prev_type = None
        out.append(lab)
    return tuple(out)


def load_conll(source, seed: int = 0) -> TagDataset:
    """Parse `token<TAB>label` lines (blank line separates sentences). The
    scheme is BIO iff every label is O or B-/I- prefixed; invalid BIO
    sequences are repaired on load."""
    sentences = []
    toks, labs = [], []
    for ln, line in enumerate(read_lines(source, "task file"), start=1):
        line = line.rstrip("\n")
        if not line:
            if toks:
                sentences.append((tuple(toks), tuple(labs)))
                toks, labs = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError("expected `token<TAB>label`", ln)
        toks.append(parts[0])
        labs.append(parts[1])
    if toks:
        sentences.append((tuple(toks), tuple(labs)))
    all_labels = {lab for _, labs in sentences for lab in labs}
    scheme = SCHEME_BIO if all_labels and \
        all(_is_bio_label(l) for l in all_labels) else SCHEME_FULL_TAG
    if scheme == SCHEME_BIO:
        sentences = [(t, repair_bio(l)) for t, l in sentences]
    return TagDataset(sentences=sentences, scheme=scheme,
                      splits=random_split(len(sentences), seed))


# ---------------------------------------------------------------------------
# Slot features: a probe example is a list of slots (token tuples). A mention
# is one slot holding all its tokens; tagging token i is the 2*window+1 slots
# at offsets -window..+window, empty past either end of the sentence.
# ---------------------------------------------------------------------------


def _window_slots(tokens, i: int, window: int) -> list[tuple]:
    return [(tokens[j],) if 0 <= j < len(tokens) else ()
            for j in range(i - window, i + window + 1)]


def _features(model: SubwordModel, items) -> np.ndarray:
    """(examples, slots * dim) float32 features of examples that all have
    the same number of slots: each slot's is the mean of its tokens' composed
    vectors, zeros when empty. The distinct tokens are composed in one call,
    and the slots that share a position and a length are averaged in one
    call."""
    d = model.config.dim
    rows: dict[str, int] = {}
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for n, slots in enumerate(items):
        for s, slot in enumerate(slots):
            if slot:
                ids, toks = groups.setdefault((s, len(slot)), ([], []))
                ids.append(n)
                toks.append([rows.setdefault(t, len(rows)) for t in slot])
    vecs = model.vectors(list(rows))
    feats = np.zeros((len(items), len(items[0]) * d if items else 0),
                     dtype=np.float32)
    for (s, _), (ids, toks) in groups.items():
        feats[ids, s * d:(s + 1) * d] = vecs[toks].mean(axis=1)
    return feats


def mention_features(model: SubwordModel, tokens) -> np.ndarray:
    """Mean of composed token vectors."""
    return _features(model, [[tokens]])[0]


def window_features(model: SubwordModel, tokens, i: int,
                    window: int) -> np.ndarray:
    """Concatenated composed vectors at offsets -window..+window; zero vector
    past sentence boundaries."""
    return _features(model, [_window_slots(tokens, i, window)])[0]


# ---------------------------------------------------------------------------
# Softmax probe
# ---------------------------------------------------------------------------


@dataclass
class SoftmaxProbe:
    weights: np.ndarray  # (n_labels, slots * dim)
    bias: np.ndarray  # (n_labels,)
    labels: list[str]
    window: int = 0  # tagging: slots at offsets -window..+window

    def predict_index(self, feat: np.ndarray) -> int:
        # np.argmax breaks ties by lowest index
        return int(np.argmax(self.weights @ feat + self.bias))

    def predict(self, feat: np.ndarray) -> str:
        return self.labels[self.predict_index(feat)]

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """(examples, labels) scores; row i has the bits of
        `weights @ feats[i] + bias`. The stacked matmul runs one gemv per
        row; `feats @ weights.T` is one gemm, which can round differently
        and flip an argmax."""
        if not len(feats):
            return np.zeros((0, len(self.bias)))
        f = feats.astype(np.float64)[:, :, None]
        return (self.weights[None] @ f)[:, :, 0] + self.bias


def _train_probe(train_feats: np.ndarray, train_ids, dev_feats: np.ndarray,
                 dev_ids, labels: list[str], epochs: int, lr: float,
                 seed: int, window: int = 0) -> SoftmaxProbe:
    """Multinomial logistic regression over the rows of `train_feats`, as
    `_features` builds them, with label ids `train_ids`, by seeded SGD with
    early stopping on dev accuracy; the best dev-scoring parameters are
    kept."""
    if epochs < 0:
        raise ConfigError("probe epochs must be >= 0")
    if not 0 < lr < np.inf:  # false for nan too
        raise ConfigError("probe lr must be a finite number > 0")
    if not len(train_ids):
        raise SubtokError("empty training split")
    if not len(dev_ids):
        raise SubtokError("empty dev split: early stopping needs dev "
                          "examples")
    dev_ids = np.array(dev_ids)
    probe = SoftmaxProbe(weights=np.zeros((len(labels), train_feats.shape[1])),
                         bias=np.zeros(len(labels)), labels=labels,
                         window=window)
    w, b = probe.weights, probe.bias  # updated in place
    step = np.empty_like(w)
    rng = np.random.default_rng(seed)
    # w @ f upcasts float32 features exactly, so casting once is free
    train_feats = train_feats.astype(np.float64)

    def dev_acc():
        hits = np.count_nonzero(
            probe.scores(dev_feats).argmax(axis=1) == dev_ids)
        return hits / len(dev_ids)

    best_acc = dev_acc()
    best = (w.copy(), b.copy())
    bad = 0
    for _ in range(epochs):
        for i in rng.permutation(len(train_ids)).tolist():
            f = train_feats[i]
            # softmax gradient p - onehot(y), in place with the bits of the
            # out-of-place formula; lr scales the outer product after it is
            # formed, since (lr * p) * f != lr * (p * f) in general; the
            # ufunc reductions skip the ndarray.max/sum wrappers
            p = w @ f
            p += b
            p -= np.maximum.reduce(p)
            np.exp(p, out=p)
            p /= np.add.reduce(p)
            p[train_ids[i]] -= 1.0
            np.multiply.outer(p, f, out=step)
            step *= lr
            w -= step
            p *= lr
            b -= p
        acc = dev_acc()
        if acc > best_acc + 1e-12:
            best_acc = acc
            best = (w.copy(), b.copy())
            bad = 0
        else:
            bad += 1
            if bad >= PATIENCE:
                break
    probe.weights, probe.bias = best
    if not (np.isfinite(probe.weights).all()
            and np.isfinite(probe.bias).all()):
        raise SubtokError("non-finite parameter after probe training")
    return probe


def _labeled(model: SubwordModel, labels: list[str], examples):
    """(slot features, label ids) of `examples`, a list of (slots, label)."""
    lab2id = {l: i for i, l in enumerate(labels)}
    return (_features(model, [slots for slots, _ in examples]),
            [lab2id[l] for _, l in examples])


def _predict(probe: SoftmaxProbe, model: SubwordModel, items) -> list[int]:
    """Label ids predicted for examples given as slot lists."""
    return probe.scores(_features(model, items)).argmax(axis=1).tolist()


def train_mention_probe(model: SubwordModel, data: MentionDataset,
                        epochs: int = 100, lr: float = 0.5,
                        seed: int = 0) -> SoftmaxProbe:
    """Softmax probe over mention-mean features."""
    labels = data.label_inventory
    train, dev = (_labeled(model, labels, [([toks], label) for toks, label
                                           in data.split_examples(split)])
                  for split in ("train", "dev"))
    return _train_probe(*train, *dev, labels, epochs, lr, seed)


def eval_mention_accuracy(probe: SoftmaxProbe, model: SubwordModel,
                          data: MentionDataset, split: str = "test") -> float:
    examples = data.split_examples(split)
    if not examples:
        return 0.0
    lab2id = {l: i for i, l in enumerate(probe.labels)}
    preds = _predict(probe, model, [[toks] for toks, _ in examples])
    hits = sum(pred == lab2id.get(label, -1)
               for pred, (_, label) in zip(preds, examples))
    return hits / len(examples)


def train_tagger_probe(model: SubwordModel, data: TagDataset,
                       window: int = 1, epochs: int = 100, lr: float = 0.5,
                       seed: int = 0) -> SoftmaxProbe:
    """Per-token softmax probe over concatenated window features."""
    if window < 0:
        raise ConfigError("window must be >= 0")
    labels = data.label_inventory
    train, dev = (_labeled(model, labels, [
        (_window_slots(toks, i, window), labs[i])
        for toks, labs in data.split_sentences(split)
        for i in range(len(toks))]) for split in ("train", "dev"))
    return _train_probe(*train, *dev, labels, epochs, lr, seed, window)


def tag_sentences(probe: SoftmaxProbe, model: SubwordModel, sentences):
    """Predicted label sequences for (tokens, labels) pairs."""
    preds = iter(_predict(probe, model, [
        _window_slots(toks, i, probe.window)
        for toks, _ in sentences for i in range(len(toks))]))
    return [tuple(probe.labels[next(preds)] for _ in toks)
            for toks, _ in sentences]


def eval_tag_accuracy(probe: SoftmaxProbe, model: SubwordModel,
                      data: TagDataset, split: str = "test") -> float:
    """Per-label accuracy: a token is correct iff its entire tag string
    matches exactly (no partial credit)."""
    if data.scheme != SCHEME_FULL_TAG:
        raise SubtokError("per-label accuracy applies to full-tag data")
    sents = data.split_sentences(split)
    preds = tag_sentences(probe, model, sents)
    return per_label_accuracy([labs for _, labs in sents], preds)


def per_label_accuracy(gold_seqs, pred_seqs) -> float:
    total = hits = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        if len(gold) != len(pred):
            raise SubtokError("gold/pred length mismatch")
        for g, p in zip(gold, pred):
            total += 1
            hits += g == p
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Span F1
# ---------------------------------------------------------------------------


def decode_spans(labels) -> set[tuple[int, int, str]]:
    """Maximal B-X (I-X)* runs as (start, end, type); a stray I-X starts a
    new span of type X."""
    spans = set()
    start = None
    cur_type = None
    for i, lab in enumerate(labels):
        if lab.startswith("B-") or (lab.startswith("I-")
                                    and cur_type != lab[2:]):
            if cur_type is not None:
                spans.add((start, i - 1, cur_type))
            start, cur_type = i, lab[2:]
        elif lab.startswith("I-"):
            pass  # continues current span
        else:
            if cur_type is not None:
                spans.add((start, i - 1, cur_type))
            start, cur_type = None, None
    if cur_type is not None:
        spans.add((start, len(labels) - 1, cur_type))
    return spans


def span_f1(gold_seqs, pred_seqs) -> tuple[float, float, float]:
    """(precision, recall, F1) over exact (start, end, type) span matches;
    0/0 ratios are defined as 0."""
    n_gold = n_pred = n_match = 0
    if len(gold_seqs) != len(pred_seqs):
        raise SubtokError("gold/pred sequence count mismatch")
    for gold, pred in zip(gold_seqs, pred_seqs):
        if len(gold) != len(pred):
            raise SubtokError("gold/pred length mismatch")
        gs = decode_spans(gold)
        ps = decode_spans(pred)
        n_gold += len(gs)
        n_pred += len(ps)
        n_match += len(gs & ps)
    precision = n_match / n_pred if n_pred else 0.0
    recall = n_match / n_gold if n_gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def write_metrics(path: str | Path, rows) -> None:
    """TSV rows `task<TAB>config<TAB>split<TAB>metric<TAB>value`."""
    with open(path, "w", encoding="utf-8") as fh:
        for task, config, split, metric, value in rows:
            fh.write(f"{task}\t{config}\t{split}\t{metric}\t{value:.6f}\n")
