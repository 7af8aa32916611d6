"""Independent brute-force oracles used to check the learned-path
implementations. These deliberately recompute everything from scratch."""

import itertools
import math
from collections import Counter

import numpy as np

from subtok.errors import SubtokError
from subtok.model import SubwordModel
from subtok.segment import NS_SUBWORD, NS_WORD_TOKEN
from subtok.probe import MentionDataset, SoftmaxProbe, TagDataset


def bpe_reference_learn(word_freqs: dict[str, int], num_merges: int):
    """O(n^2) reference BPE: full pair recount at every step, most frequent
    pair wins, ties to the lexicographically smallest pair, stop when no pair
    occurs at least twice."""
    def pair_key(pair):
        # end-of-word marker sorts after ordinary symbols
        return tuple((s == "</w>", s) for s in pair)

    words = {tuple(w) + ("</w>",): f for w, f in word_freqs.items()}
    merges = []
    for _ in range(num_merges):
        stats = Counter()
        for syms, f in words.items():
            for pair in zip(syms, syms[1:]):
                stats[pair] += f
        if not stats:
            break
        best = min(stats.items(), key=lambda kv: (-kv[1], pair_key(kv[0])))
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
    syms = list(word) + ["</w>"]
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


def morf_cost(analyses: dict[str, tuple], freqs: dict[str, int],
              lam: float = 1.0) -> float:
    """Two-part MDL cost of a joint segmentation assignment: add-one smoothed
    token cost plus lam * lexicon characters."""
    counts = Counter()
    for w, morphs in analyses.items():
        for m in morphs:
            counts[m] += freqs[w]
    total = sum(counts.values())
    lex = len(counts)
    cost = sum(c * -math.log((c + 1) / (total + lex))
               for c in counts.values())
    return cost + lam * sum(len(m) for m in counts)


def morf_exhaustive_minimum(freqs: dict[str, int], lam: float = 1.0):
    """Joint exhaustive search over all per-word partitions; returns the
    cheapest assignment and its cost. Exponential, tiny vocabs only."""
    words = list(freqs)
    choices = [list(all_partitions(w)) for w in words]
    best_cost, best = math.inf, None
    for combo in itertools.product(*choices):
        analyses = dict(zip(words, combo))
        c = morf_cost(analyses, freqs, lam)
        if c < best_cost:
            best_cost, best = c, analyses
    return best, best_cost


def scatter_reference(table, rows, vals):
    """table[r] -= v for each (r, v) in turn, one Python step at a time."""
    for r, v in zip(rows, vals):
        table[r] -= v


def compose_reference(model: SubwordModel, word: str) -> np.ndarray:
    """float64 vector of `word`, added up one row at a time from its
    segmentation: each known subword's row, under p+ the position row of its
    index in the segmentation (unknown pieces count) clamped to
    max_positions - 1, and under w+ the word-token row if the word has one.
    Unknown pieces add nothing."""
    cfg, params = model.config, model.params
    seg = model.segmentation(word)
    vec = np.zeros(cfg.dim)
    for i, s in enumerate(seg.subwords):
        row = model.subword_vocab.get((NS_SUBWORD, s))
        if row is not None:
            vec += params.subword[row]
            if cfg.position:
                vec += params.position[min(i, cfg.max_positions - 1)]
    if seg.includes_word_token:
        row = model.subword_vocab.get((NS_WORD_TOKEN, word))
        if row is not None:
            vec += params.subword[row]
    return vec


def morf_reference_learn(word_freqs: dict[str, int], max_iters: int,
                         lam: float = 1.0):
    """Morfessor-lite as first written: words in vocab order (descending
    count, then lexicographic), the token total summed afresh for every
    word, and a recursive memoised split search. Returns the morph lexicon,
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
        return cost + lam * sum(len(m) for m in morph_counts)

    def best_split(s, morph_cost, memo):
        if s in memo:
            return memo[s]
        best = (morph_cost(s), (s,))
        for i in range(1, len(s)):
            lc, lseg = best_split(s[:i], morph_cost, memo)
            rc, rseg = best_split(s[i:], morph_cost, memo)
            if lc + rc < best[0]:
                best = (lc + rc, lseg + rseg)
        memo[s] = best
        return best

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

            def morph_cost(m, f=f, denom=denom):
                c = counts.get(m, 0)
                cost = f * -math.log((c + 1) / denom)
                if c == 0:
                    cost += lam * len(m)
                return cost

            analyses[w] = best_split(w, morph_cost, {})[1]
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


def morf_reference_viterbi(word: str, lexicon: dict[str, int],
                           lam: float = 1.0):
    """Cheapest segmentation of an unseen word under the learned lexicon,
    summing the lexicon afresh on every call; unknown substrings cost a
    high per-character price. Split points up to 30 characters back, the
    first strict minimum wins."""
    denom = sum(lexicon.values()) + len(lexicon) + 1
    unk_char = -math.log(1.0 / denom) + lam
    n = len(word)
    best = [0.0] + [math.inf] * n
    back = [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(max(0, j - 30), j):
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
# Softmax probes as first written: one trainer per task, and features built
# per example (a mention's mean vector, a token's concatenated window).
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


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _sgd_epoch(probe: SoftmaxProbe, feats, label_ids, lr, rng):
    order = rng.permutation(len(feats))
    for i in order:
        f = feats[i]
        z = probe.weights @ f + probe.bias
        p = _softmax(z)
        p[label_ids[i]] -= 1.0
        probe.weights -= lr * np.outer(p, f)
        probe.bias -= lr * p


def _fit_probe(probe: SoftmaxProbe, train_feats, train_ids, dev_feats,
               dev_ids, epochs, lr, rng, patience=5):
    """SGD with early stopping on dev accuracy (kept parameters are the best
    dev-scoring ones seen)."""
    def dev_acc():
        if not dev_ids:
            return 0.0
        hits = sum(probe.predict_index(f) == y
                   for f, y in zip(dev_feats, dev_ids))
        return hits / len(dev_ids)

    best_acc = dev_acc()
    best = (probe.weights.copy(), probe.bias.copy())
    bad = 0
    for _ in range(epochs):
        _sgd_epoch(probe, train_feats, train_ids, lr, rng)
        acc = dev_acc()
        if acc > best_acc + 1e-12:
            best_acc = acc
            best = (probe.weights.copy(), probe.bias.copy())
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    probe.weights, probe.bias = best
    return probe


def train_mention_probe(model: SubwordModel, data: MentionDataset,
                        epochs: int = 100, lr: float = 0.5, seed: int = 0,
                        patience: int = 5) -> SoftmaxProbe:
    """Multinomial logistic regression over mention-mean features."""
    train_ex = data.split_examples("train")
    if not train_ex:
        raise SubtokError("empty training split")
    dev_ex = data.split_examples("dev")
    labels = data.label_inventory
    lab2id = {l: i for i, l in enumerate(labels)}
    d = model.config.dim
    probe = SoftmaxProbe(weights=np.zeros((len(labels), d)),
                         bias=np.zeros(len(labels)), labels=labels)
    rng = np.random.default_rng(seed)
    train_ids = [lab2id[l] for _, l in train_ex]
    dev_ids = [lab2id[l] for _, l in dev_ex]

    train_feats = [mention_features(model, toks) for toks, _ in train_ex]
    dev_feats = [mention_features(model, toks) for toks, _ in dev_ex]
    return _fit_probe(probe, train_feats, train_ids, dev_feats, dev_ids,
                      epochs, lr, rng, patience=patience)


def train_tagger_probe(model: SubwordModel, data: TagDataset,
                       window: int = 1, epochs: int = 100, lr: float = 0.5,
                       seed: int = 0, patience: int = 5) -> SoftmaxProbe:
    """Per-token softmax over concatenated window features."""
    if window < 0:
        raise ValueError("window must be >= 0")
    train_sents = data.split_sentences("train")
    if not train_sents:
        raise SubtokError("empty training split")
    dev_sents = data.split_sentences("dev")
    labels = data.label_inventory
    lab2id = {l: i for i, l in enumerate(labels)}
    d = model.config.dim
    feat_dim = d * (2 * window + 1)
    probe = SoftmaxProbe(weights=np.zeros((len(labels), feat_dim)),
                         bias=np.zeros(len(labels)), labels=labels,
                         window=window)
    rng = np.random.default_rng(seed)

    def flatten(sents):
        items = []
        for toks, labs in sents:
            for i in range(len(toks)):
                items.append((toks, i, lab2id[labs[i]]))
        return items

    train_items = flatten(train_sents)
    dev_items = flatten(dev_sents)
    train_ids = [y for _, _, y in train_items]
    dev_ids = [y for _, _, y in dev_items]

    train_feats = [window_features(model, toks, i, window)
                   for toks, i, _ in train_items]
    dev_feats = [window_features(model, toks, i, window)
                 for toks, i, _ in dev_items]
    return _fit_probe(probe, train_feats, train_ids, dev_feats, dev_ids,
                      epochs, lr, rng, patience=patience)
