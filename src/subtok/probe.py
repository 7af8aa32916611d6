"""Linear probes over composed word vectors for the three downstream tasks:
mention typing (accuracy), morphological tagging (per-label accuracy), and
NER (BIO span F1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
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

# the probe's L2 penalties λ, strongest first; dev accuracy picks one
L2_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
# a probe solve stops below this max-abs gradient or after this many steps
GRAD_TOL = 1e-8
NEWTON_ITERS = 100
# a tagging probe reads the tokens this far either side of the tagged one
TAGGER_WINDOW = 1


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
    task = "fget"  # the task name of its metrics rows; not a field

    @classmethod
    def from_examples(cls, examples, seed: int = 0,
                      splits: dict[str, list[int]] | None = None
                      ) -> "MentionDataset":
        """Each example is (non-empty tokens, label), as `load_mentions`
        and `synth` make them."""
        examples = [(tuple(toks), label) for toks, label in examples]
        labels = sorted({label for _, label in examples})
        if splits is None:
            splits = random_split(len(examples), seed)
        return cls(examples=examples, label_inventory=labels, splits=splits)


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

    @property
    def task(self) -> str:
        """The task name of its metrics rows: ner under BIO, else mtag."""
        return "ner" if self.scheme == SCHEME_BIO else "mtag"

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
# is one slot holding all its tokens; tagging token i is the
# 2*TAGGER_WINDOW+1 slots at offsets -TAGGER_WINDOW..+TAGGER_WINDOW, empty
# past either end of the sentence.
# ---------------------------------------------------------------------------


def _window_slots(tokens, i: int) -> list[tuple]:
    return [(tokens[j],) if 0 <= j < len(tokens) else ()
            for j in range(i - TAGGER_WINDOW, i + TAGGER_WINDOW + 1)]


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


# ---------------------------------------------------------------------------
# Softmax probe
# ---------------------------------------------------------------------------


@dataclass
class SoftmaxProbe:
    weights: np.ndarray  # (n_labels, slots * dim)
    bias: np.ndarray  # (n_labels,)
    labels: list[str]

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """(examples, labels) scores; row i has the bits of
        `weights @ feats[i] + bias`. The stacked matmul runs one gemv per
        row; `feats @ weights.T` is one gemm, which can round differently
        and flip an argmax."""
        if not len(feats):
            return np.zeros((0, len(self.bias)))
        f = feats.astype(np.float64)[:, :, None]
        return (self.weights[None] @ f)[:, :, 0] + self.bias


def _newton_cg(xa: np.ndarray, ids, lam: float,
               theta: np.ndarray) -> np.ndarray:
    """theta = [W | b] minimising mean cross-entropy + lam/2 * ||W||^2 over
    the rows of xa = [features | 1], from `theta`: Newton steps are found by
    conjugate gradients on Hessian-vector products, so H is never built, and
    scaled by Armijo backtracking until no gradient entry exceeds GRAD_TOL,
    NEWTON_ITERS steps are taken or no step lowers the loss."""
    n, onehot = len(xa), np.eye(len(theta))[ids]
    reg = np.full(theta.shape[1], lam)
    reg[-1] = 0.0  # the bias is not regularised

    def objective(theta):
        z = xa @ theta.T
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))  # log-softmax
        return np.vdot(reg * theta, theta) / 2 - np.vdot(onehot, z) / n, z

    loss, logp = objective(theta)
    for _ in range(NEWTON_ITERS):
        p = np.exp(logp)
        g = (p - onehot).T @ xa / n + reg * theta
        if np.abs(g).max() < GRAD_TOL:
            break
        # CG on H s = -g, to the truncated-Newton forcing tolerance
        s, r, d = np.zeros_like(g), -g, -g
        rr = np.vdot(r, r)
        stop = min(0.5, rr ** 0.25) * rr ** 0.5
        for _ in range(g.size):
            hd = xa @ d.T
            hd -= (p * hd).sum(axis=1, keepdims=True)
            hd = (p * hd).T @ xa / n + reg * d
            alpha = rr / np.vdot(d, hd)
            s += alpha * d
            r -= alpha * hd
            rr, rr_old = np.vdot(r, r), rr
            if rr ** 0.5 <= stop:
                break
            d = r + rr / rr_old * d
        for t in 0.5 ** np.arange(34):
            trial = objective(theta + t * s)
            if trial[0] <= loss + 1e-4 * t * np.vdot(g, s):
                break
        else:
            break  # no step lowers the loss: converged to rounding
        theta = theta + t * s
        loss, logp = trial
    return theta


def _train_probe(train_feats: np.ndarray, train_ids, dev_feats: np.ndarray,
                 dev_ids, labels: list[str]) -> SoftmaxProbe:
    """L2-regularised multinomial logistic regression over the rows of
    `train_feats`, as `_features` builds them, with label ids `train_ids`,
    solved for each λ of L2_GRID, each solve warm-started from the last. The
    solution with the best dev accuracy is kept, a tie going to the stronger
    λ."""
    if not len(train_ids):
        raise SubtokError("empty training split")
    if not len(dev_ids):
        raise SubtokError("empty dev split: the L2 penalty is chosen on "
                          "dev examples")
    dev_ids = np.array(dev_ids)
    xa = np.hstack([train_feats, np.ones((len(train_feats), 1))])  # float64
    theta = np.zeros((len(labels), xa.shape[1]))
    best, best_hits = None, -1
    for lam in L2_GRID:
        theta = _newton_cg(xa, train_ids, lam, theta)
        probe = SoftmaxProbe(theta[:, :-1], theta[:, -1], labels)
        hits = (probe.scores(dev_feats).argmax(axis=1) == dev_ids).sum()
        if hits > best_hits:
            best, best_hits = probe, hits
    return best


@dataclass
class TaskFeatures:
    """The slot features and label ids of the examples of some items of a
    dataset, laid out in the order the items are given and built in one
    `_features` call, so that probes on runs of those items slice them. An
    item is a mention, one example, or a sentence, one example per token
    with the tokens TAGGER_WINDOW either side as slots. Items lo..hi-1 are
    rows bounds[lo]:bounds[hi]."""

    feats: np.ndarray
    label_ids: np.ndarray
    bounds: np.ndarray
    labels: list[str]
    task: str

    @classmethod
    def of(cls, model: SubwordModel, data, items) -> "TaskFeatures":
        """The features of the dataset items `items` (indices into its
        examples or sentences), in that order."""
        if isinstance(data, MentionDataset):
            per_item = [[([toks], label)] for toks, label in
                        (data.examples[i] for i in items)]
        else:
            per_item = [[(_window_slots(toks, i), labs[i])
                         for i in range(len(toks))]
                        for toks, labs in (data.sentences[i] for i in items)]
        examples = [ex for exs in per_item for ex in exs]
        lab2id = {l: i for i, l in enumerate(data.label_inventory)}
        return cls(_features(model, [slots for slots, _ in examples]),
                   np.array([lab2id[l] for _, l in examples], dtype=np.int64),
                   np.cumsum([0] + [len(exs) for exs in per_item],
                             dtype=np.int64),
                   data.label_inventory, data.task)

    def probe(self, train: slice, dev: slice) -> SoftmaxProbe:
        """`_train_probe` on the examples of items train.start..train.stop-1,
        its λ chosen on those of the items of `dev`."""
        train, dev = (self._rows(s.start, s.stop) for s in (train, dev))
        return _train_probe(self.feats[train], self.label_ids[train],
                            self.feats[dev], self.label_ids[dev], self.labels)

    def _rows(self, lo: int, hi: int) -> slice:
        return slice(self.bounds[lo], self.bounds[hi])

    def metrics(self, probe: SoftmaxProbe, lo: int, hi: int):
        """(metric, value) pairs of `probe` on the examples of items
        lo..hi-1. Each item's gold labels and predicted labels (a tie going
        to the lowest id) form one sequence, a mention's holding one label:
        ner is scored by span precision, recall and F1, fget and mtag by
        accuracy, a label counting only when it matches whole (0 for no
        items)."""
        rows = self._rows(lo, hi)
        gold = [self.labels[i] for i in self.label_ids[rows].tolist()]
        pred = [probe.labels[i] for i in
                probe.scores(self.feats[rows]).argmax(axis=1).tolist()]
        cuts = list(pairwise((self.bounds[lo:hi + 1] - rows.start).tolist()))
        gold, pred = ([labs[a:b] for a, b in cuts] for labs in (gold, pred))
        if self.task == "ner":
            return list(zip(("precision", "recall", "f1"),
                            span_f1(gold, pred)))
        return [("accuracy", per_label_accuracy(gold, pred))]


def train_mention_probe(model: SubwordModel, data: MentionDataset,
                        seed: int = 0) -> SoftmaxProbe:
    """Softmax probe over mention-mean features. `seed` changes nothing:
    the probe is deterministic, and `data` already holds its seeded split."""
    train, dev = data.splits["train"], data.splits["dev"]
    return TaskFeatures.of(model, data, train + dev).probe(
        slice(0, len(train)), slice(len(train), len(train) + len(dev)))


def eval_mention_accuracy(probe: SoftmaxProbe, model: SubwordModel,
                          data: MentionDataset, split: str = "test") -> float:
    items = data.splits[split]
    (_, acc), = TaskFeatures.of(model, data, items).metrics(probe, 0,
                                                             len(items))
    return acc


def per_label_accuracy(gold_seqs, pred_seqs) -> float:
    """The share of predicted labels equal to gold; each prediction is as
    long as its gold sequence, as `TaskFeatures.metrics` builds them."""
    total = hits = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
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
    0/0 ratios are defined as 0. Each prediction is as long as its gold
    sequence, as `TaskFeatures.metrics` builds them."""
    n_gold = n_pred = n_match = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
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
