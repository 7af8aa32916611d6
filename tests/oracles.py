"""Independent brute-force oracles used to check the learned-path
implementations. These deliberately recompute everything from scratch."""

import itertools
import math
from collections import Counter


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
