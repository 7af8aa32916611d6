"""Independent brute-force oracles used to check the learned-path
implementations. These deliberately recompute everything from scratch."""

import itertools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

import subtok.model
from subtok.model import (
    ParamTables,
    SubwordModel,
    _WordCSR,
)
from subtok.segment import (
    END_OF_WORD,
    NS_WORD_TOKEN,
    segment_word,
)
from subtok.train import (
    SCORE_CLAMP,
    NegativeSampler,
    _log_sigmoid,
    sgns_kernel,
)


def bpe_reference_learn(word_freqs: dict[str, int], num_merges: int):
    """O(n^2) reference BPE: full pair recount at every step, most frequent
    pair wins, ties to the lexicographically smallest pair, stop when no pair
    occurs at least twice."""
    words = {tuple(w) + (END_OF_WORD,): f for w, f in word_freqs.items()}
    merges = []
    for _ in range(num_merges):
        stats = Counter()
        for syms, f in words.items():
            for pair in zip(syms, syms[1:]):
                stats[pair] += f
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        pair = best[0]
        merges.append(pair)
        new_words = {}
        for syms, f in words.items():
            new_words[tuple(bpe_reference_merge(list(syms), pair))] = f
        words = new_words
    return merges


def bpe_reference_merge(syms, pair):
    out, i = [], 0
    while i < len(syms):
        if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
            out.append(syms[i] + syms[i + 1])
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_reference_apply(merges, word: str):
    """Replay merges strictly in learned order."""
    syms = list(word) + [END_OF_WORD]
    for pair in merges:
        syms = bpe_reference_merge(syms, pair)
    return tuple(syms)


def ngram_enumeration(word: str, n_min: int, n_max: int):
    """Exhaustive substring enumeration of the wrapped word."""
    wrapped = "<" + word + ">"
    out = []
    for n in range(n_min, n_max + 1):
        for i in range(len(wrapped) - n + 1):
            out.append(wrapped[i:i + n])
    return tuple(out)


def subword_vocab_reference(vocab, segmenter, include_word_token: bool):
    """`build_subword_vocab`'s entries, inserted one key at a time in
    first-occurrence order: each vocab word's subwords as plain strings,
    then under w+ its (NS_WORD_TOKEN, word) key. Returns the entries dict,
    empty when no word yields a key."""
    entries: dict = {}
    for w in vocab.words:
        keys = list(segmenter.segment(w))
        if include_word_token:
            keys.append((NS_WORD_TOKEN, w))
        for key in keys:
            if key not in entries:
                entries[key] = len(entries)
    return entries


def all_partitions(word: str):
    """Every ordered partition of a word into non-empty pieces."""
    n = len(word)
    for mask in range(1 << (n - 1)):
        parts, start = [], 0
        for i in range(1, n):
            if mask & (1 << (i - 1)):
                parts.append(word[start:i])
                start = i
        parts.append(word[start:])
        yield tuple(parts)


def morf_cost(analyses: dict[str, tuple], freqs: dict[str, int]) -> float:
    """Two-part MDL cost of a joint segmentation assignment: add-one smoothed
    token cost plus 1 nat per lexicon character."""
    counts = Counter()
    for w, morphs in analyses.items():
        for m in morphs:
            counts[m] += freqs[w]
    total = sum(counts.values())
    lex = len(counts)
    cost = sum(c * -math.log((c + 1) / (total + lex))
               for c in counts.values())
    return cost + sum(len(m) for m in counts)


def morf_exhaustive_minimum(freqs: dict[str, int]):
    """Joint exhaustive search over all per-word partitions; returns the
    cheapest assignment and its cost. Exponential, tiny vocabs only."""
    words = list(freqs)
    choices = [list(all_partitions(w)) for w in words]
    best_cost, best = math.inf, None
    for combo in itertools.product(*choices):
        analyses = dict(zip(words, combo))
        c = morf_cost(analyses, freqs)
        if c < best_cost:
            best_cost, best = c, analyses
    return best, best_cost


def scatter_reference(table, rows, vals):
    """table[r] -= v for each (r, v) in turn, one Python step at a time."""
    for r, v in zip(rows, vals):
        table[r] -= v


class Resolved(NamedTuple):
    """One word's rows as `resolve_reference` finds them: subword row ids,
    aligned position row ids, the word-token row (or -1), and how many
    segmentation pieces and word tokens the subword vocab lacks."""

    sub_ids: list[int]
    pos_ids: list[int]
    word_token_id: int
    unknown: int


def resolve_reference(model: SubwordModel, word: str) -> Resolved:
    """`word`'s rows, resolved one subword at a time: each known subword's
    row, and as its position its index in the segmentation (unknown pieces
    count) clamped to MAX_POSITIONS - 1; under w+ the word-token row, or
    -1. `unknown` counts the pieces and the word token that the subword
    vocab lacks."""
    seg = segment_word(model.segmenter, word, model.config.word_token)
    sub_ids, pos_ids = [], []
    unknown = 0
    maxpos = subtok.model.MAX_POSITIONS  # read per call: tests patch it
    for i, s in enumerate(seg.subwords):
        sid = model.subword_vocab.entries.get(s)
        if sid is None:
            unknown += 1
        else:
            sub_ids.append(sid)
            pos_ids.append(min(i, maxpos - 1))
    wt_id = -1
    if seg.includes_word_token:
        wt = model.subword_vocab.entries.get((NS_WORD_TOKEN, word))
        if wt is None:
            unknown += 1
        else:
            wt_id = wt
    return Resolved(sub_ids, pos_ids, wt_id, unknown)


def reference_csr(model: SubwordModel, words) -> _WordCSR:
    """The `_WordCSR` of `words`, its flat arrays joined from each word's
    `resolve_reference`."""
    refs = [resolve_reference(model, w) for w in words]
    return _WordCSR(words,
                    np.array([i for r in refs for i in r.sub_ids],
                             dtype=np.int64),
                    np.array([i for r in refs for i in r.pos_ids],
                             dtype=np.int64),
                    np.array([len(r.sub_ids) for r in refs], dtype=np.int64),
                    np.array([r.word_token_id for r in refs], dtype=np.int64),
                    model.config.position)


def compose_reference(model: SubwordModel, word: str) -> np.ndarray:
    """float64 vector of `word`, added up one row at a time from its
    segmentation: each known subword's row, under p+ the position row of its
    index in the segmentation (unknown pieces count) clamped to
    MAX_POSITIONS - 1, and under w+ the word-token row if the word has one.
    Unknown pieces add nothing."""
    cfg, params = model.config, model.params
    seg = segment_word(model.segmenter, word, cfg.word_token)
    vec = np.zeros(cfg.dim)
    for i, s in enumerate(seg.subwords):
        row = model.subword_vocab.entries.get(s)
        if row is not None:
            vec += params.subword[row]
            if cfg.position:
                vec += params.position[min(i,
                                           subtok.model.MAX_POSITIONS - 1)]
    if seg.includes_word_token:
        row = model.subword_vocab.entries.get((NS_WORD_TOKEN, word))
        if row is not None:
            vec += params.subword[row]
    return vec


def all_unknown(model: SubwordModel, word: str) -> bool:
    """Whether `word`'s resolved rows hold neither a known subword nor a
    word-token row, so that it composes to the zero vector."""
    csr = _WordCSR.of_model(model, [word])
    return bool(csr.lens[0] == 0 and csr.wt_ids[0] < 0)


def draw_avoiding(sampler: NegativeSampler, rng: np.random.Generator,
                  k: int, positive: int) -> np.ndarray:
    """k negatives for one positive id: draws that collide with it are
    redrawn up to 10 times, and those still colliding are dropped."""
    negs = sampler.draw(rng, k)
    for _ in range(10):
        bad = negs == positive
        if not bad.any():
            break
        negs[bad] = sampler.draw(rng, int(bad.sum()))
    return negs[negs != positive]


def sgns_step_reference(model: SubwordModel, center_word: str,
                        context_word: str, lr: float, k: int,
                        sampler: NegativeSampler,
                        rng: np.random.Generator) -> float:
    """One (center, context) SGD update on the negatives that
    `draw_avoiding` keeps, each of them valid, so a dropped collision takes
    no place in the batch. Returns the pair loss."""
    ctx_id = model.vocab.word2id[context_word]
    negs = draw_avoiding(sampler, rng, k, ctx_id)
    loss = sgns_kernel(model.params, _WordCSR.of_model(model, [center_word]),
                       np.zeros(1, dtype=np.int64),
                       np.concatenate(([ctx_id], negs))[None],
                       np.ones((1, negs.size), dtype=bool), lr)
    return float(loss[0])


def sgns_kernel_reference(params: ParamTables, csr: _WordCSR,
                          centers: np.ndarray, ctx_ids: np.ndarray,
                          valid: np.ndarray, lr) -> np.ndarray:
    """The SGNS kernel step with every center composed from its own rows,
    a word that repeats in the batch once per repeat, as the kernel was
    written before it composed each distinct word once. It steps back with
    `subtract_reference` and `scatter_reference`, not the code under test.
    The forward pass stays `csr.compose`: float32 `np.add.reduceat` does
    not round as a one-row-at-a-time sum does, so `compose_reference`
    would break the tests' `==`. Returns the loss per center; raises no
    error on a non-finite score."""
    v = csr.compose(params, centers)
    crows = params.context[ctx_ids]
    scores = np.einsum("bd,bkd->bk", v, crows)
    live = np.abs(scores) < SCORE_CLAMP
    scores = np.clip(scores, -SCORE_CLAMP, SCORE_CLAMP)
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    g[:, 1:] *= valid
    g *= live
    loss = (-_log_sigmoid(scores[:, 0])
            - (_log_sigmoid(-scores[:, 1:]) * valid).sum(axis=1))
    grad_v = np.einsum("bk,bkd->bd", g, crows)
    step = np.asarray(lr, dtype=params.context.dtype).reshape(-1, 1)
    upd_c = g[:, :, None] * v[:, None, :]
    upd_c *= step[:, :, None]
    scatter_reference(params.context, ctx_ids.reshape(-1),
                      upd_c.reshape(-1, v.shape[1]))
    subtract_reference(params, csr, centers, grad_v, step)
    return loss


def subtract_reference(params: ParamTables, csr: _WordCSR,
                       centers: np.ndarray, grad: np.ndarray, step) -> None:
    """The SGD step back through composition, one center at a time in
    batch order: each row that the center composes from loses its
    step * grad row, subtracted one row at a time. The rows are sliced
    from `csr`'s flat arrays (`reference_csr` checks that layout), which
    works on a stacked lockstep layout too."""
    upd = step * grad
    for w, u in zip(centers, upd):
        rows = slice(csr.starts[w], csr.starts[w] + csr.lens[w])
        scatter_reference(params.subword, csr.flat_sub[rows],
                          itertools.repeat(u))
        if csr.position:
            scatter_reference(params.position, csr.flat_pos[rows],
                              itertools.repeat(u))
        if csr.wt_ids[w] >= 0:
            scatter_reference(params.subword, [csr.wt_ids[w]], [u])


def morf_reference_best_split(word: str, counts: dict[str, int], f: int,
                              denom: int):
    """(cost, morphs) of the cheapest segmentation of `word`, by a recursive
    memoised search that tries every split point of every substring. A
    morph with count c costs f * -log((c + 1) / denom), plus its length
    when c is 0; a split replaces a substring's own cost only when it is
    strictly cheaper, the first such split point from the left."""
    def morph_cost(m):
        c = counts.get(m, 0)
        cost = f * -math.log((c + 1) / denom)
        if c == 0:
            cost += len(m)
        return cost

    memo = {}

    def search(s):
        if s in memo:
            return memo[s]
        best = (morph_cost(s), (s,))
        for i in range(1, len(s)):
            lc, lseg = search(s[:i])
            rc, rseg = search(s[i:])
            if lc + rc < best[0]:
                best = (lc + rc, lseg + rseg)
        memo[s] = best
        return best

    return search(word)


def morf_reference_learn(word_freqs: dict[str, int], max_iters: int):
    """Morfessor-lite as first written: words in vocab order (descending
    count, then lexicographic), the token total summed afresh for every
    word, and `morf_reference_best_split`. Returns the morph lexicon,
    the final analyses and the cost history."""
    words = sorted(word_freqs, key=lambda w: (-word_freqs[w], w))
    analyses = {w: (w,) for w in words}
    counts = Counter(word_freqs)

    def cost_of(assignment):
        morph_counts = Counter()
        for w, morphs in assignment.items():
            for m in morphs:
                morph_counts[m] += word_freqs[w]
        denom = sum(morph_counts.values()) + len(morph_counts)
        cost = 0.0
        for c in morph_counts.values():
            cost += c * -math.log((c + 1) / denom)
        return cost + sum(len(m) for m in morph_counts)

    history = [cost_of(analyses)]
    for _ in range(max_iters):
        previous = dict(analyses)
        for w in words:
            f = word_freqs[w]
            for m in analyses[w]:
                counts[m] -= f
                if counts[m] <= 0:
                    del counts[m]
            denom = sum(counts.values()) + len(counts) + 1
            analyses[w] = morf_reference_best_split(w, counts, f, denom)[1]
            for m in analyses[w]:
                counts[m] += f
        cost = cost_of(analyses)
        if cost < history[-1] - 1e-6:
            history.append(cost)
            continue
        if cost > history[-1]:
            analyses = previous
        else:
            history.append(cost)
        break

    lexicon = Counter()
    for w, morphs in analyses.items():
        for m in morphs:
            lexicon[m] += word_freqs[w]
    return dict(lexicon), analyses, history


def morf_reference_viterbi(word: str, lexicon: dict[str, int]):
    """Cheapest segmentation of an unseen word under the learned lexicon,
    summing the lexicon afresh on every call; unknown substrings cost a
    high per-character price. Every split point is tried, however far back,
    and the first strict minimum wins."""
    denom = sum(lexicon.values()) + len(lexicon) + 1
    unk_char = -math.log(1.0 / denom) + 1.0
    n = len(word)
    best = [0.0] + [math.inf] * n
    back = [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(j):
            c = lexicon.get(word[i:j], 0)
            piece = (-math.log((c + 1) / denom) if c > 0
                     else (j - i) * unk_char)
            if best[i] + piece < best[j]:
                best[j] = best[i] + piece
                back[j] = i
    out = []
    while n > 0:
        out.append(word[back[n]:n])
        n = back[n]
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Probe features built per example (a mention's mean vector, a token's
# concatenated window), and the probe's objective.
# ---------------------------------------------------------------------------


def mention_features(model: SubwordModel, tokens) -> np.ndarray:
    """Mean of composed token vectors."""
    vecs = [model.word_vector(t) for t in tokens]
    return np.mean(vecs, axis=0)


def window_features(model: SubwordModel, tokens, i: int,
                    window: int) -> np.ndarray:
    """Concatenated composed vectors at offsets -window..+window; zero vector
    past sentence boundaries."""
    d = model.config.dim
    parts = []
    for off in range(-window, window + 1):
        j = i + off
        if 0 <= j < len(tokens):
            parts.append(model.word_vector(tokens[j]))
        else:
            parts.append(np.zeros(d, dtype=np.float32))
    return np.concatenate(parts)


def predict_index(probe, feat: np.ndarray) -> int:
    """The label id one example's feature scores highest, ties to the
    lowest id."""
    return int(np.argmax(probe.weights @ feat + probe.bias))


def probe_gradient(feats, label_ids, weights, bias, lam: float):
    """Gradient (d weights, d bias) of the probe objective, mean softmax
    cross-entropy + lam/2 * ||weights||^2 with the bias unregularised, at
    (weights, bias); summed one example and one label at a time in
    float64."""
    grad_w = lam * np.array(weights, dtype=np.float64)
    grad_b = np.zeros(len(bias))
    n = len(feats)
    for f, y in zip(feats, label_ids):
        f = np.asarray(f, dtype=np.float64)
        z = [float(np.dot(w, f)) + b for w, b in zip(weights, bias)]
        top = max(z)
        e = [math.exp(v - top) for v in z]
        total = sum(e)
        for k in range(len(z)):
            resid = e[k] / total - (k == y)
            grad_w[k] += resid * f / n
            grad_b[k] += resid / n
    return grad_w, grad_b


def gradient_descent_probe(feats, label_ids, n_labels: int, lam: float,
                           tol: float = 1e-10, max_steps: int = 500_000):
    """(weights, bias) minimising the probe objective by plain gradient
    descent from zero, with step 1/L for L = lam + mean ||[f, 1]||^2 / 2,
    a bound on the Hessian's largest eigenvalue, until no gradient entry
    exceeds `tol`."""
    x = np.hstack([np.asarray(feats, dtype=np.float64),
                   np.ones((len(feats), 1))])
    onehot = np.eye(n_labels)[label_ids]
    reg = np.append(np.full(x.shape[1] - 1, lam), 0.0)
    step = 1.0 / (lam + (x * x).sum(axis=1).mean() / 2)
    theta = np.zeros((n_labels, x.shape[1]))
    for _ in range(max_steps):
        z = x @ theta.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = (p - onehot).T @ x / len(x) + reg * theta
        if np.abs(grad).max() < tol:
            return theta[:, :-1], theta[:, -1]
        theta -= step * grad
    raise AssertionError("gradient descent did not converge")
