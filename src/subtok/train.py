"""Skip-gram with negative sampling over subword-composed target vectors.

The target word vector is the sum of its subword (and position / word-token)
rows, composed by `subtok.model._WordCSR.compose`, the one composition that
export and the probes also use; this module does not compose. A kernel
call takes its batch as distinct words and each center's index among
them: it composes each distinct word once, and sends each center's
gradient back through that center's rows in batch order, so the tables
get the same subtractions in the same order as when every center was
composed on its own. The context side is the word-level context matrix.
The SGNS gradient is written once, in the batched kernel `sgns_kernel`:
the trainer runs it per minibatch, `sgns_step` runs it for one pair, and
`grad_check` checks its updates against finite differences of
`sgns_loss`. Every table update goes through the one flat-row scatter,
`subtok.model.scatter_subtract`.

One loop, `Trainer`, trains one model or sibling models in lockstep
(`train_lockstep`); `train` is its one-model call. Each epoch it plans
every batch's distinct centers once, in one vectorised pass per model
(`_plan_batches`), so a kernel call only slices and, in lockstep, joins
the models' slices. Two execution contracts: deterministic and
single-threaded, where each model trains bit for bit as it does alone;
and, for one model with `TrainConfig.threads` above 1, lock-free across
threads, where torn reads are tolerated and the result is not
reproducible. A call trains every model or fails as a whole: the first
SubtokError stops it, and a failed call of several models leaves their
own tables as they were.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

from subtok.corpus import (
    Corpus,
    Vocab,
    negative_sampling_weights,
    subsample_keep_probs,
)
from subtok.errors import ConfigError, SubtokError
from subtok.model import (
    ParamTables,
    SubwordModel,
    WordIndices,
    _WordCSR,
    scatter_subtract,
)

SCORE_CLAMP = 30.0
TRACE_EVERY = 10_000
EMA_ALPHA = 0.99
# The most rows a lockstep kernel call should take: models per call times
# batch size. Lockstep pays only while numpy's per-call overhead outweighs
# the per-row work. One epoch, d=100, five seeds against five solo runs
# (ft, w2v; CPU time, median of 5): batch 32 (G1) takes 0.93 and 0.73 of
# the time; batch 128 (G2) 0.96 and 0.86; batch 512 (G3) 1.63 and 0.93,
# as the taller arrays leave the cache. G2's gain is small against
# holding five seeds' pairs at once, so a call stays at G1's five seeds.
LOCKSTEP_ROWS = 160
# The most pairs `_plan_batches` plans in one pass: its scratch arrays take
# about 50 bytes per pair, so an epoch's plan adds little to its pairs.
PLAN_PAIRS = 1 << 16


@dataclass
class TrainConfig:
    window: int = 5
    negatives: int = 5
    lr_start: float = 0.025
    epochs: int = 5
    batch_size: int = 32
    min_count: int = 2
    subsample_t: float = 1e-5
    threads: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.window < 1 or self.negatives < 1:
            raise ConfigError("window and negatives must be >= 1")
        if not 0 < self.lr_start < np.inf:  # false for nan too
            raise ConfigError("lr_start must be a finite number > 0")
        if not 0 <= self.subsample_t < np.inf:
            raise ConfigError("subsample_t must be a finite number >= 0 "
                              "(0 turns subsampling off)")
        if self.batch_size < 1 or self.min_count < 1:
            raise ConfigError("batch_size and min_count must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def lr_floor(self) -> float:
        return self.lr_start * 1e-4


@dataclass
class TrainResult:
    """Loss trace rows (update_count, lr, loss_ema) plus final counters."""

    loss_trace: list[tuple[int, float, float]] = field(default_factory=list)
    processed_pairs: int = 0
    final_lr: float = 0.0

    def save_trace(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for count, lr, ema in self.loss_trace:
                fh.write(f"{count}\t{lr:.8f}\t{ema:.6f}\n")


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def sgns_loss(target_vec: np.ndarray, context_id: int,
              negative_ids, context_table: np.ndarray) -> float:
    """-log sigmoid(v.c+) - sum_j log sigmoid(-v.c-_j), dot products clamped
    to +-30 before the logistic."""
    negative_ids = np.asarray(negative_ids, dtype=np.int64)
    if negative_ids.size < 1:
        raise ValueError("need at least one negative id")
    pos = float(np.clip(target_vec @ context_table[context_id],
                        -SCORE_CLAMP, SCORE_CLAMP))
    neg = np.clip(context_table[negative_ids] @ target_vec,
                  -SCORE_CLAMP, SCORE_CLAMP)
    return float(-_log_sigmoid(np.float64(pos)) - _log_sigmoid(-neg).sum())


class NegativeSampler:
    """Draws negatives from the unigram^power distribution; negatives that
    collide with the positive id are resampled up to 10 times, then masked
    out."""

    def __init__(self, vocab: Vocab, power: float = 0.75):
        self.weights = negative_sampling_weights(vocab, power)
        self.cum = np.cumsum(self.weights)
        self.cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(n), side="right")

    def draw_matrix(self, rng: np.random.Generator, positives: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """(negatives (n,k), valid mask) for a batch of positive ids."""
        n = positives.shape[0]
        negs = self.draw(rng, n * k).reshape(n, k)
        for _ in range(10):
            bad = negs == positives[:, None]
            nbad = int(bad.sum())
            if nbad == 0:
                break
            negs[bad] = self.draw(rng, nbad)
        return negs, negs != positives[:, None]


def sgns_kernel(params: ParamTables, csr: _WordCSR, words: np.ndarray,
                back: np.ndarray, ctx_ids: np.ndarray, valid: np.ndarray, lr,
                first_update: int = 0) -> np.ndarray:
    """One SGD step of SGNS on a batch: center i, the word words[back[i]]
    (a row of `csr`), against ctx_ids[i] = (positive id, negative ids...),
    where `valid` masks the negatives that collided with the positive, at
    learning rate `lr`, one for the batch or one per center. `csr.compose`
    sums each of `words` once, meant to be the batch's distinct centers,
    and each center takes its word's vector; dot products are clamped to
    +-30 and a clamped score passes no gradient. Raises SubtokError on a
    non-finite score before any table changes, naming update
    `first_update` + its row; otherwise updates the context rows and, per
    center in batch order, every constituent row, and returns the loss per
    center, computed in the tables' float dtype."""
    centers = words[back]
    v = csr.compose(params, words)[0][back]
    crows = params.context[ctx_ids]
    scores = np.einsum("bd,bkd->bk", v, crows)
    if not np.isfinite(scores).all():
        bad = int(np.argwhere(~np.isfinite(scores))[0][0])
        word = csr.words[int(centers[bad])]
        raise SubtokError(f"non-finite score at update {first_update + bad}"
                          f" (center word {word!r})")
    live = np.abs(scores) < SCORE_CLAMP
    scores = np.clip(scores, -SCORE_CLAMP, SCORE_CLAMP)
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    g[:, 1:] *= valid
    g *= live
    # -log sigmoid(x) is log(1 + e^-x): _log_sigmoid negated, bit for bit
    loss = (np.logaddexp(0.0, -scores[:, 0])
            + (np.logaddexp(0.0, scores[:, 1:]) * valid).sum(axis=1))

    grad_v = np.einsum("bk,bkd->bd", g, crows)
    # (1, 1) or (batch, 1): each product rounds as with a scalar step
    step = np.asarray(lr, dtype=params.context.dtype).reshape(-1, 1)
    upd_c = g[:, :, None] * v[:, None, :]
    upd_c *= step[:, :, None]
    scatter_subtract(params.context, ctx_ids.reshape(-1),
                     upd_c.reshape(-1, v.shape[1]))
    params.subtract_composed(grad_v, step, *csr.gather(centers))
    return loss


def sgns_step(model: SubwordModel, center_word: str, context_word: str,
              lr: float, k: int, sampler: NegativeSampler,
              rng: np.random.Generator) -> float:
    """One (center, context) SGD update: draw k negatives as the trainer
    does, on a one-pair batch, and run the kernel on it. Returns the pair
    loss."""
    vocab = model.vocab
    ctx_id = vocab.word2id.get(context_word)
    if center_word not in vocab.word2id or ctx_id is None:
        raise SubtokError(
            f"both words must be in vocab: {center_word!r}, {context_word!r}")
    ctx = np.array([ctx_id])
    negs, valid = sampler.draw_matrix(rng, ctx, k)
    one = np.zeros(1, dtype=np.int64)
    loss = sgns_kernel(model.params, _WordCSR.of_model(model, [center_word]),
                       one, one, np.concatenate((ctx[:, None], negs), axis=1),
                       valid, lr)
    return float(loss[0])


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------


def _token_stream(corpus: Corpus, vocab: Vocab):
    """Flat in-vocab token id array plus the sentence index of each token.
    A sentence that keeps no token leaves a gap in the indices; readers
    compare neighbouring indices only."""
    sentences = corpus.sentences
    lens = np.fromiter(map(len, sentences), dtype=np.int64,
                       count=len(sentences))
    ids = np.fromiter(map(vocab.word2id.get, chain.from_iterable(sentences),
                          repeat(-1)), dtype=np.int64, count=int(lens.sum()))
    sent_of = np.repeat(np.arange(len(sentences)), lens)
    kept = ids >= 0
    return ids[kept], sent_of[kept]


def _epoch_tokens(stream_ids, sent_of, keep_probs, window, rng, subsampled):
    """This epoch's kept tokens: subsample, then draw a radius per kept
    token. Returns (ids, radii, position within sentence, distance to
    sentence end), over the kept sequence."""
    n = stream_ids.size
    if subsampled:
        kept_mask = rng.random(n) < keep_probs[stream_ids]
    else:
        kept_mask = np.ones(n, dtype=bool)
    ids = stream_ids[kept_mask]
    sents = sent_of[kept_mask]
    m = ids.size
    if m == 0:
        return (np.empty(0, dtype=np.int64),) * 4
    radii = rng.integers(1, window + 1, size=m)

    change = np.empty(m, dtype=bool)
    change[0] = True
    change[1:] = sents[1:] != sents[:-1]
    group_start = np.maximum.accumulate(np.where(change, np.arange(m), 0))
    pos = np.arange(m) - group_start
    sizes = np.diff(np.append(np.flatnonzero(change), m))
    from_end = np.repeat(sizes, sizes) - 1 - pos
    return ids, radii, pos, from_end


def _epoch_pair_count(stream_ids, sent_of, keep_probs, window, rng,
                      subsampled) -> int:
    """How many pairs `_epoch_pairs` makes from the same generator state,
    counted without building them."""
    _, radii, pos, from_end = _epoch_tokens(stream_ids, sent_of, keep_probs,
                                            window, rng, subsampled)
    return int(np.minimum(radii, pos).sum()
               + np.minimum(radii, from_end).sum())


def _epoch_pairs(stream_ids, sent_of, keep_probs, window, rng, subsampled):
    """Generate this epoch's (center, context) pairs: every kept token is
    paired with the kept tokens within its radius in its sentence, and the
    pairs are shuffled."""
    ids, radii, pos, from_end = _epoch_tokens(stream_ids, sent_of,
                                              keep_probs, window, rng,
                                              subsampled)
    centers, ctxs = [], []
    for off in range(1, window + 1):
        left = (radii >= off) & (pos >= off)
        if left.any():
            i = np.flatnonzero(left)
            centers.append(ids[i])
            ctxs.append(ids[i - off])
        right = (radii >= off) & (from_end >= off)
        if right.any():
            i = np.flatnonzero(right)
            centers.append(ids[i])
            ctxs.append(ids[i + off])
    if not centers:
        return (np.empty(0, dtype=np.int64),) * 2
    centers = np.concatenate(centers)
    ctxs = np.concatenate(ctxs)
    perm = rng.permutation(centers.size)
    return centers[perm], ctxs[perm]


@dataclass(eq=False)
class _Lane:
    """One model's place in a lockstep run: its settings, the length of its
    LR schedule (its pairs over every epoch), and its counters and loss
    trace."""

    config: TrainConfig
    total: int = 0
    processed: int = 0
    result: TrainResult = field(default_factory=TrainResult)
    ema: float | None = None

    def lr(self, processed: int) -> float:
        cfg = self.config
        return max(cfg.lr_floor, cfg.lr_start * (1.0 - processed / self.total))


class _Span:
    """A lane's pairs of one epoch, or of a part of it (threads > 1), in
    batch order: positive and negative context rows and the negatives'
    valid mask, and the lane's update count at the span's next pair. The
    positives and negatives are joined per batch: joining a whole epoch's
    would hold the parts and the joined copy at once.

    The span plans its batches of `size` pairs when it is made, and keeps
    the centers only as the kernel takes them: `words` has each batch's
    distinct centers in ascending order, batch j's at
    words[bounds[j]:bounds[j + 1]], and back[i] is center i's index among
    its batch's."""

    def __init__(self, lane: _Lane, processed: int, centers: np.ndarray,
                 ctxs: np.ndarray, negs: np.ndarray, valid: np.ndarray,
                 size: int):
        self.lane, self.processed, self.size = lane, processed, size
        self.ctxs, self.negs, self.valid = ctxs, negs, valid
        self.words, self.back, self.bounds = _plan_batches(centers, size)
        self.batches = len(self.bounds) - 1

    def batch(self, j: int):
        """Batch j: (words, back, positives, negatives, valid)."""
        b = slice(j * self.size, (j + 1) * self.size)
        return (self.words[self.bounds[j]:self.bounds[j + 1]], self.back[b],
                self.ctxs[b], self.negs[b], self.valid[b])


def _plan_batches(centers: np.ndarray, size: int):
    """`_Span`'s (words, back, bounds) of `centers` in batches of `size`.
    The key batch number * stride + center is one per (batch, center), so
    `np.unique` of the keys gives each batch's distinct centers in order
    and each center's index among all of them, and `searchsorted` finds
    where each batch's keys start. One pass takes whole batches of at most
    PLAN_PAIRS pairs, which bounds its scratch arrays."""
    stride = int(centers.max(initial=0)) + 1
    back = np.empty(centers.size, dtype=np.int64)
    words, bounds = [np.empty(0, dtype=np.int64)], [0]
    run = max(1, PLAN_PAIRS // size) * size
    for lo in range(0, centers.size, run):
        part = centers[lo:lo + run]
        batch_no = np.arange(part.size) // size
        keys, inverse = np.unique(batch_no * stride + part,
                                  return_inverse=True)
        starts = np.searchsorted(keys, np.arange(batch_no[-1] + 2) * stride)
        back[lo:lo + part.size] = inverse - starts[batch_no]
        words.append(keys % stride)
        bounds += (starts[1:] + bounds[-1]).tolist()
    return np.concatenate(words), back, bounds


def _check_siblings(models, configs) -> None:
    """Raise ValueError unless the models are siblings (one vocab, subword
    vocab and segmenter, and configs equal but for the seed) trained with
    TrainConfigs equal but for the seed, and at most one model runs
    threaded."""
    if not models or len(models) != len(configs):
        raise ValueError("need one TrainConfig per model, and a model")
    first, config = models[0], configs[0]
    for model in models[1:]:
        if (model.vocab is not first.vocab
                or model.subword_vocab is not first.subword_vocab
                or model.segmenter is not first.segmenter
                or replace(model.config, seed=0)
                != replace(first.config, seed=0)):
            raise ValueError("lockstep models must be siblings "
                             "(see SubwordModel.with_seed)")
    if any(replace(c, seed=0) != replace(config, seed=0) for c in configs):
        raise ValueError("lockstep TrainConfigs may differ only in seed")
    if len(models) > 1 and config.threads > 1:
        raise ValueError("threads > 1 trains one model at a time")


class Trainer:
    """Trains sibling models in lockstep. Their tables are stacked row-wise,
    model m's rows after those of models 0..m-1, and its word and context
    ids are shifted to match; each kernel call takes the next batch of every
    model that still has one, each row at its own model's LR. No model's
    rows get another's updates and every per-row operation of the kernel
    rounds the same in a taller batch, so each model trains bit for bit as
    it does alone."""

    def __init__(self, corpus: Corpus, models: list[SubwordModel],
                 configs: list[TrainConfig]):
        _check_siblings(models, configs)
        first = models[0]
        self.models = models
        self.config = configs[0]  # every setting but the seed is shared
        self.csr = _WordCSR.of_model(first)
        self.params = first.params
        if len(models) > 1:
            self.params = ParamTables.stack([m.params for m in models])
            self.csr = self.csr.stacked(len(models),
                                        first.params.subword.shape[0],
                                        first.params.position.shape[0])
        self.sampler = NegativeSampler(first.vocab)
        self.keep_probs = subsample_keep_probs(first.vocab,
                                               self.config.subsample_t)
        self.stream_ids, self.sent_of = _token_stream(corpus, first.vocab)
        self.lanes = [_Lane(c) for c in configs]
        self._lock = threading.Lock()

    @staticmethod
    def _pair_rng(seed: int, epoch: int) -> np.random.Generator:
        return np.random.default_rng([seed, 17, epoch])

    @staticmethod
    def _neg_rng(seed: int, epoch: int) -> np.random.Generator:
        return np.random.default_rng([seed, 31, epoch])

    def run(self) -> list[TrainResult]:
        """Train every model; returns each model's TrainResult. A
        SubtokError stops the call, and so does a non-finite table after
        training, before any stacked table is copied back into its
        model's."""
        cfg = self.config
        # each linear LR schedule runs over its model's pairs of every
        # epoch, counted from the same seeded draws that make them below
        stream = (self.stream_ids, self.sent_of, self.keep_probs, cfg.window)
        subsampled = cfg.subsample_t > 0
        for lane in self.lanes:
            lane.total = sum(
                _epoch_pair_count(*stream, self._pair_rng(lane.config.seed,
                                                          epoch), subsampled)
                for epoch in range(cfg.epochs))
            lane.result.final_lr = cfg.lr_start
        for epoch in range(cfg.epochs):
            self._run_epoch(epoch)
        if not self.params.all_finite():
            raise SubtokError("non-finite parameter after training")
        for m, (model, lane) in enumerate(zip(self.models, self.lanes)):
            lane.result.processed_pairs = lane.processed
            if self.params is not model.params:
                for name in ("subword", "position", "context"):
                    table = getattr(model.params, name)
                    rows = table.shape[0]
                    table[:] = getattr(self.params, name)[m * rows:
                                                          (m + 1) * rows]
        return [lane.result for lane in self.lanes]

    def _run_epoch(self, epoch: int) -> None:
        """Train every model on its pairs of `epoch`. The pairs are
        dropped on return, before the next epoch's are drawn."""
        B = self.config.batch_size
        models = [m for m, lane in enumerate(self.lanes) if lane.total]
        if self.config.threads > 1:  # one model (see _check_siblings)
            if models:
                self._run_threaded(self.lanes[0], self._lane_pairs(0, epoch))
            return
        # each model's centers go once its span is planned
        spans = [_Span(self.lanes[m], self.lanes[m].processed,
                       *self._lane_pairs(m, epoch), B) for m in models]
        spans = [span for span in spans if span.batches]
        if spans:
            self._run_span(spans)

    def _lane_pairs(self, m: int, epoch: int):
        """Model m's pairs of `epoch` as (centers, positives, negatives,
        valid), its ids shifted to its rows of the stacked tables."""
        cfg, lane = self.config, self.lanes[m]
        seed = lane.config.seed
        centers, ctxs = _epoch_pairs(
            self.stream_ids, self.sent_of, self.keep_probs, cfg.window,
            self._pair_rng(seed, epoch), cfg.subsample_t > 0)
        negs, valid = self.sampler.draw_matrix(self._neg_rng(seed, epoch),
                                               ctxs, cfg.negatives)
        if m:  # model m's words and context rows follow m models'
            words = len(self.models[0].vocab)
            centers += m * words
            ctxs += m * words
            negs += m * words
        return centers, ctxs, negs, valid

    def _run_threaded(self, lane: _Lane, pairs) -> None:
        """One span per thread, each a contiguous part of the epoch's pairs
        that batches and plans from its own first pair."""
        n, first = pairs[0].size, lane.processed
        t = self.config.threads
        bounds = np.linspace(0, n, t + 1).astype(np.int64)
        with ThreadPoolExecutor(max_workers=t) as pool:
            futures = [pool.submit(self._run_span, [_Span(
                lane, first + lo, *(a[lo:hi] for a in pairs),
                self.config.batch_size)])
                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
            for f in futures:
                f.result()
        lane.processed = first + n

    def _run_span(self, spans: list[_Span]) -> None:
        """Run the spans batch by batch in lockstep, one kernel call on the
        batch of every span that still has one."""
        for j in range(max(s.batches for s in spans)):
            self._step([s for s in spans if j < s.batches], j)
        for s in spans:
            s.lane.processed = s.processed

    def _step(self, spans: list[_Span], j: int) -> None:
        """One kernel call on batch j of each span, each row at its model's
        LR; an error names the update of the first span's model."""
        words, back, ctxs, negs, valid = zip(*(s.batch(j) for s in spans))
        sizes = [c.size for c in ctxs]
        lrs = [s.lane.lr(s.processed) for s in spans]
        # each span's back indexes its own words, which follow the words
        # of the spans before it
        back = np.concatenate([c + first for c, first in zip(
            back, accumulate((w.size for w in words), initial=0))])
        words, ctxs, negs, valid = (np.concatenate(col)
                                    for col in (words, ctxs, negs, valid))
        loss = sgns_kernel(self.params, self.csr, words, back,
                           np.concatenate((ctxs[:, None], negs), axis=1),
                           valid, np.repeat(lrs, sizes), spans[0].processed)
        start = 0
        for span, size, lr in zip(spans, sizes, lrs):
            span.processed += size
            # the bits of .mean(), without its Python-level overhead
            self._record(span.lane, span.processed, lr,
                         float(loss[start:start + size].sum() / size))
            start += size

    def _record(self, lane: _Lane, processed, lr, batch_loss):
        with self._lock:
            if lane.ema is None:
                lane.ema = batch_loss
            else:
                lane.ema = EMA_ALPHA * lane.ema + (1 - EMA_ALPHA) * batch_loss
            lane.result.final_lr = lr
            trace = lane.result.loss_trace
            if processed >= TRACE_EVERY * (len(trace) + 1):
                trace.append((processed, lr, lane.ema))


def train_lockstep(corpus: Corpus, models: list[SubwordModel],
                   configs: list[TrainConfig]) -> list[TrainResult]:
    """Train sibling models (`SubwordModel.with_seed`) in place in one
    lockstep loop, model i under configs[i]; the configs may differ only in
    seed, and only one model may run threaded (ValueError otherwise).
    Returns each model's loss trace: each model trains bit for bit as
    `train` trains it alone. A call trains every model or raises the first
    SubtokError, a non-finite score or a non-finite table after training.
    A failed call of several models leaves their tables as they were, and
    its error's update count follows the first model's, so a caller that
    needs to know which model failed, and with what message, trains each
    alone. The call holds every model's pairs of an epoch at once, and it
    is faster than one call per model only while the models times the
    batch size stay within LOCKSTEP_ROWS."""
    return Trainer(corpus, models, configs).run()


def train(corpus: Corpus, model: SubwordModel,
          config: TrainConfig) -> TrainResult:
    """Train the model's tables in place; returns the loss trace. This is
    `train_lockstep` with one model."""
    return train_lockstep(corpus, [model], [config])[0]


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    trials: int
    worst_case: str


def grad_check(dim: int = 10, trials: int = 100, seed: int = 0,
               h: float = 1e-4) -> GradCheckReport:
    """The update of one `sgns_kernel` step at lr 1 on float64 tables
    (before - after, the gradient) vs central finite differences of
    `sgns_loss`, for every row of every table (subword, word-token,
    position, context), covering the p+/p- and w+/w- settings."""
    if dim > 16:
        raise ValueError("grad_check is meant for small dims (d <= 16)")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = ""

    for trial in range(trials):
        use_pos = bool(trial % 2)
        use_wt = bool((trial // 2) % 2)
        n_sub = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        sub = rng.normal(0, 0.5, size=(n_sub, dim))
        pos = rng.normal(0, 0.5, size=(n_sub, dim))
        wt = rng.normal(0, 0.5, size=dim)
        ctx = rng.normal(0, 0.5, size=(k + 1, dim))
        neg_ids = list(range(1, k + 1))
        # one word: subword rows 0..n_sub-1, then its word-token row
        params = ParamTables(subword=np.vstack([sub, wt]), position=pos,
                             context=ctx)
        rows = np.arange(n_sub)
        idx = WordIndices(sub_ids=rows, pos_ids=rows,
                          word_token_id=n_sub if use_wt else -1, unknown=0)
        after = params.copy()
        one = np.zeros(1, dtype=np.int64)
        sgns_kernel(after, _WordCSR(["w"], [idx], use_pos), one, one,
                    np.arange(k + 1)[None], np.ones((1, k), dtype=bool), 1.0)

        def loss():
            v = params.subword[:n_sub].sum(axis=0)
            if use_pos:
                v = v + params.position.sum(axis=0)
            if use_wt:
                v = v + params.subword[n_sub]
            return sgns_loss(v, 0, neg_ids, params.context)

        for name in ("subword", "position", "context"):
            table = getattr(params, name)
            analytic = table - getattr(after, name)
            it = np.nditer(table, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                orig = table[mi]
                table[mi] = orig + h
                lp = loss()
                table[mi] = orig - h
                lm = loss()
                table[mi] = orig
                numeric = (lp - lm) / (2 * h)
                a = analytic[mi]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
                if rel > worst:
                    worst = rel
                    row = ("word-token" if name == "subword"
                           and mi[0] == n_sub else name)
                    worst_case = (f"trial {trial} {row} row {mi} "
                                  f"(p{'+' if use_pos else '-'}"
                                  f"w{'+' if use_wt else '-'})")
    return GradCheckReport(max_rel_error=worst, trials=trials,
                           worst_case=worst_case)
