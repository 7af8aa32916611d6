"""Skip-gram with negative sampling over subword-composed target vectors.

The target word vector is the sum of its subword (and position / word-token)
rows, composed by `subtok.model._WordCSR.compose`, the one composition that
export and the probes also use; this module does not compose, and the
kernel sends its gradient back through the rows that compose gathered. The
context side is the word-level context matrix. The SGNS gradient is written
once, in the batched kernel `sgns_kernel`: the trainer runs it per
minibatch, `sgns_step` runs it for one pair, and `grad_check` checks its
updates against finite differences of `sgns_loss`. Every table update goes
through the one flat-row scatter, `subtok.model.scatter_subtract`.
Two execution contracts: a deterministic single-threaded mode (used by all
tests) and a lock-free multi-threaded mode where torn reads are tolerated.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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


@dataclass
class TrainConfig:
    window: int = 5
    negatives: int = 5
    lr_start: float = 0.025
    epochs: int = 5
    batch_size: int = 32
    min_count: int = 2
    subsample_t: float = 1e-5
    power: float = 0.75
    threads: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.window < 1 or self.negatives < 1:
            raise ConfigError("window and negatives must be >= 1")
        if not 0 < self.lr_start < np.inf:  # false for nan too
            raise ConfigError("lr_start must be a finite number > 0")
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
    collide with the positive id are resampled up to 10 times, then dropped."""

    def __init__(self, vocab: Vocab, power: float = 0.75):
        self.weights = negative_sampling_weights(vocab, power)
        self.cum = np.cumsum(self.weights)
        self.cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.searchsorted(self.cum, rng.random(n), side="right")

    def draw_avoiding(self, rng: np.random.Generator, k: int,
                      positive: int) -> np.ndarray:
        negs = self.draw(rng, k)
        for _ in range(10):
            bad = negs == positive
            if not bad.any():
                break
            negs[bad] = self.draw(rng, int(bad.sum()))
        return negs[negs != positive]

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


def sgns_kernel(params: ParamTables, csr: _WordCSR, centers: np.ndarray,
                ctx_ids: np.ndarray, valid: np.ndarray, lr: float,
                first_update: int = 0) -> np.ndarray:
    """One SGD step of SGNS on a batch: center i (a row of `csr`) against
    ctx_ids[i] = (positive id, negative ids...), where `valid` masks the
    negatives that collided with the positive. Each center's vector comes
    from `csr.compose`; dot products are clamped to +-30 and a
    clamped score passes no gradient. Raises SubtokError on a non-finite
    score before any table changes; otherwise updates the context rows and
    every constituent row, and returns the loss per center, computed in the
    tables' float dtype."""
    v, rows = csr.compose(params, centers)
    crows = params.context[ctx_ids]
    scores = np.einsum("bd,bkd->bk", v, crows)
    if not np.isfinite(scores).all():
        bad = int(np.argwhere(~np.isfinite(scores))[0][0])
        word = csr.words[int(centers[bad])]
        raise SubtokError(f"non-finite score at update {first_update + bad} "
                          f"(center word {word!r})")
    live = np.abs(scores) < SCORE_CLAMP
    scores = np.clip(scores, -SCORE_CLAMP, SCORE_CLAMP)
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    g[:, 1:] *= valid
    g *= live
    loss = (-_log_sigmoid(scores[:, 0])
            - (_log_sigmoid(-scores[:, 1:]) * valid).sum(axis=1))

    grad_v = np.einsum("bk,bkd->bd", g, crows)
    grad_c = (g[:, :, None] * v[:, None, :]).reshape(-1, v.shape[1])
    step = params.context.dtype.type(lr)
    scatter_subtract(params.context, ctx_ids.reshape(-1), step * grad_c)
    params.subtract_composed(grad_v, step, *rows)
    return loss


def sgns_step(model: SubwordModel, center_word: str, context_word: str,
              lr: float, k: int, sampler: NegativeSampler,
              rng: np.random.Generator) -> float:
    """One (center, context) SGD update: sample k negatives and run the
    kernel on this single pair. Returns the pair loss."""
    vocab = model.vocab
    ctx_id = vocab.word2id.get(context_word)
    if center_word not in vocab.word2id or ctx_id is None:
        raise SubtokError(
            f"both words must be in vocab: {center_word!r}, {context_word!r}")
    negs = sampler.draw_avoiding(rng, k, ctx_id)
    loss = sgns_kernel(model.params, _WordCSR.of_model(model, [center_word]),
                       np.zeros(1, dtype=np.int64),
                       np.concatenate(([ctx_id], negs))[None],
                       np.ones((1, negs.size), dtype=bool), lr)
    return float(loss[0])


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------


def _token_stream(corpus: Corpus, vocab: Vocab):
    """Flat in-vocab token id array plus the sentence index of each token."""
    ids, sent_of = [], []
    si = 0
    for sent in corpus.sentences:
        any_kept = False
        for tok in sent:
            wid = vocab.word2id.get(tok)
            if wid is not None:
                ids.append(wid)
                sent_of.append(si)
                any_kept = True
        if any_kept:
            si += 1
    return (np.asarray(ids, dtype=np.int64),
            np.asarray(sent_of, dtype=np.int64))


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


class Trainer:
    def __init__(self, corpus: Corpus, model: SubwordModel,
                 config: TrainConfig):
        self.corpus = corpus
        self.model = model
        self.config = config
        self.csr = _WordCSR.of_model(model)
        self.sampler = NegativeSampler(model.vocab, config.power)
        self.keep_probs = subsample_keep_probs(model.vocab,
                                               config.subsample_t)
        self.stream_ids, self.sent_of = _token_stream(corpus, model.vocab)
        self.result = TrainResult()
        self._ema = None
        self._next_trace = TRACE_EVERY
        self._lock = threading.Lock()

    def _pair_rng(self, epoch: int) -> np.random.Generator:
        return np.random.default_rng([self.config.seed, 17, epoch])

    def _neg_rng(self, epoch: int) -> np.random.Generator:
        return np.random.default_rng([self.config.seed, 31, epoch])

    def run(self) -> TrainResult:
        cfg = self.config
        # the linear LR schedule runs over every epoch's pairs, counted
        # from the same seeded draws that make them below
        stream = (self.stream_ids, self.sent_of, self.keep_probs, cfg.window)
        subsampled = cfg.subsample_t > 0
        total = sum(_epoch_pair_count(*stream, self._pair_rng(epoch),
                                      subsampled)
                    for epoch in range(cfg.epochs))
        self.result.final_lr = cfg.lr_start
        if total == 0:
            return self.result
        processed = 0
        for epoch in range(cfg.epochs):
            centers, ctxs = _epoch_pairs(*stream, self._pair_rng(epoch),
                                         subsampled)
            if centers.size == 0:
                continue
            negs, valid = self.sampler.draw_matrix(
                self._neg_rng(epoch), ctxs, cfg.negatives)
            if cfg.threads <= 1:
                processed = self._run_span(
                    centers, ctxs, negs, valid, processed, total)
            else:
                processed = self._run_threaded(
                    centers, ctxs, negs, valid, processed, total)
        self.result.processed_pairs = processed
        return self.result

    def _run_threaded(self, centers, ctxs, negs, valid, processed, total):
        n = centers.size
        t = self.config.threads
        bounds = np.linspace(0, n, t + 1).astype(np.int64)
        base = processed
        with ThreadPoolExecutor(max_workers=t) as pool:
            futures = []
            for w in range(t):
                lo, hi = int(bounds[w]), int(bounds[w + 1])
                futures.append(pool.submit(
                    self._run_span, centers[lo:hi], ctxs[lo:hi],
                    negs[lo:hi], valid[lo:hi], base + lo, total))
            for f in futures:
                f.result()
        return base + n

    def _run_span(self, centers, ctxs, negs, valid, processed, total):
        cfg = self.config
        B = cfg.batch_size
        for b in range(0, centers.size, B):
            lr = max(cfg.lr_floor, cfg.lr_start * (1.0 - processed / total))
            ctx_idx = np.concatenate(
                (ctxs[b:b + B, None], negs[b:b + B]), axis=1)
            loss = sgns_kernel(self.model.params, self.csr, centers[b:b + B],
                               ctx_idx, valid[b:b + B], lr, processed)
            processed += loss.shape[0]
            self._record(processed, lr, float(loss.mean()))
        return processed

    def _record(self, processed, lr, batch_loss):
        with self._lock:
            if self._ema is None:
                self._ema = batch_loss
            else:
                self._ema = EMA_ALPHA * self._ema + (1 - EMA_ALPHA) * batch_loss
            self.result.final_lr = lr
            if processed >= self._next_trace:
                self.result.loss_trace.append((processed, lr, self._ema))
                self._next_trace += TRACE_EVERY


def train(corpus: Corpus, model: SubwordModel,
          config: TrainConfig) -> TrainResult:
    """Train the model's tables in place; returns the loss trace."""
    trainer = Trainer(corpus, model, config)
    result = trainer.run()
    if not model.params.all_finite():
        raise SubtokError("non-finite parameter after training")
    return result


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
        sgns_kernel(after, _WordCSR(["w"], [idx], use_pos),
                    np.zeros(1, dtype=np.int64), np.arange(k + 1)[None],
                    np.ones((1, k), dtype=bool), 1.0)

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
