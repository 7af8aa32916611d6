"""Unsupervised segmentation of word types into ordered subword sequences:
BPE, character n-grams, a simplified MDL morph splitter, and the degenerate
whole-word segmenter used by the skip-gram baseline."""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from subtok.corpus import Vocab
from subtok.errors import (
    ConfigError,
    FormatError,
    nonnegative_int,
    read_fields,
    read_lines,
)

END_OF_WORD = "</w>"

# namespaces for SubwordVocab keys
NS_SUBWORD = "sub"
NS_WORD_TOKEN = "word"


@dataclass(frozen=True)
class Segmentation:
    """An ordered subword decomposition of one word. When
    includes_word_token is true the whole word is appended as an extra unit
    living in its own namespace."""

    word: str
    subwords: tuple[str, ...]
    includes_word_token: bool

    def keys(self):
        """(namespace, string) keys in sequence order."""
        out = [(NS_SUBWORD, s) for s in self.subwords]
        if self.includes_word_token:
            out.append((NS_WORD_TOKEN, self.word))
        return out


# ---------------------------------------------------------------------------
# BPE
# ---------------------------------------------------------------------------


@dataclass
class BpeModel:
    """Ordered merge list learned by greedy pair counting over a word
    frequency dictionary."""

    merges: list[tuple[str, str]]
    num_merges: int
    _ranks: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._ranks:
            self._ranks = {pair: i for i, pair in enumerate(self.merges)}

    def segment(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is None:
            cached = apply_bpe(self, word)
            self._cache[word] = cached
        return cached

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#bpe v1 {self.num_merges}\n")
            for left, right in self.merges:
                fh.write(f"{left} {right}\n")

    @classmethod
    def load(cls, path: str | Path) -> "BpeModel":
        lines = read_lines(path, "BPE model")
        header = next(lines, "").rstrip("\n")
        if not header.startswith("#bpe v1 "):
            raise FormatError(f"bad BPE header {header!r}", 1)
        num_merges = nonnegative_int(header[len("#bpe v1 "):], "merge count",
                                     1)
        merges = [(left, right) for _, (left, right) in read_fields(
            lines, "BPE model", " ", 2, "expected `left<SPACE>right`",
            first_line=2)]
        return cls(merges=merges, num_merges=num_merges)


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (END_OF_WORD,)


def _pair_sort_key(pair: tuple[str, str]):
    """Lexicographic on the pair, except the end-of-word marker sorts after
    every ordinary symbol (its '<' would otherwise outrank letters)."""
    return tuple((s == END_OF_WORD, s) for s in pair)


def learn_bpe(vocab: Vocab, num_merges: int) -> BpeModel:
    """Greedy frequency-based merging over the vocab's word types, each a
    character sequence plus a terminal end-of-word marker. Ties on pair count
    go to the lexicographically smallest pair; learning stops early when no
    pair occurs at least twice.

    Each merge is picked from a heap of (-count, sort key, pair) entries
    with lazy invalidation: an entry counts only while its count equals the
    pair's current count, and every pair whose count a merge changes is
    pushed again. The top valid entry is the pair a full scan would pick.

    A merge changes only the pairs that overlap a merged occurrence and the
    pairs that touch a merged symbol, so only those are recounted. The
    index of words per pair is a superset: a word stays listed under a pair
    it lost, and merging skips it.

    The model's cache is seeded with each training word's final symbols,
    which equal `apply_bpe` unless some merge recreated a pair that had
    already been merged (the same string built from other parts, such as a
    '</w>' spelled out in the word). Then `apply_bpe` would merge that pair
    again where training did not, so nothing is seeded."""
    if num_merges < 1:
        raise ConfigError("num_merges must be >= 1")
    if len(vocab) == 0:
        raise ValueError("vocab must be non-empty")

    words = [list(_word_symbols(w)) for w in vocab.words]
    freqs = [int(c) for c in vocab.counts]

    # pair -> weighted count, plus an index of which words contain the pair
    stats: Counter = Counter()
    index: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, (syms, f) in enumerate(zip(words, freqs)):
        for a, b in zip(syms, syms[1:]):
            stats[(a, b)] += f
            index[(a, b)].add(wi)
    heap = [(-c, _pair_sort_key(p), p) for p, c in stats.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    merged_pairs: set[tuple[str, str]] = set()
    recreated = False
    for _ in range(num_merges):
        while heap and stats.get(heap[0][2]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        best = heap[0][2]
        merges.append(best)
        merged_pairs.add(best)
        a, b = best
        merged_sym = a + b

        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        # no word keeps `best` after this merge, and no merge recreates its
        # own pair (merged_sym differs from a), so its index entry can go
        for wi in index.pop(best):
            syms = words[wi]
            n = len(syms)
            out: list[str] = []
            occ: list[int] = []  # positions in syms of merged occurrences
            new_at: list[int] = []  # their positions in out
            i = 0
            while i < n:
                if i + 1 < n and syms[i] == a and syms[i + 1] == b:
                    occ.append(i)
                    new_at.append(len(out))
                    out.append(merged_sym)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            if not occ:
                continue
            f = freqs[wi]
            # pair j is (syms[j], syms[j+1]); positions arrive in order, so
            # `last` drops the ones shared by neighbouring occurrences
            last = -1
            for i in occ:
                for j in (i - 1, i, i + 1):
                    if last < j < n - 1:
                        delta[(syms[j], syms[j + 1])] -= f
                        last = j
            last = -1
            m = len(out)
            for k in new_at:
                for j in (k - 1, k):
                    if last < j < m - 1:
                        pair = (out[j], out[j + 1])
                        delta[pair] += f
                        index[pair].add(wi)
                        recreated = recreated or pair in merged_pairs
                        last = j
            words[wi] = out
        for pair, d in delta.items():
            if not d:
                continue
            count = stats[pair] + d
            if count > 0:
                stats[pair] = count
                heapq.heappush(heap, (-count, _pair_sort_key(pair), pair))
            else:
                del stats[pair]

    model = BpeModel(merges=merges, num_merges=num_merges)
    if not recreated:
        model._cache.update(zip(vocab.words, map(tuple, words)))
    return model


def _merge_once(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """Merge all non-overlapping occurrences of `pair`, left to right."""
    out = []
    i = 0
    a, b = pair
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def apply_bpe(model: BpeModel, word: str) -> tuple[str, ...]:
    """Decompose `word` into characters plus the end-of-word marker and
    replay the learned merges in order. Characters unseen at training time
    stay singleton symbols.

    Implemented by repeatedly merging the lowest-ranked pair present; merges
    can only create pairs of later rank, so this equals an in-order replay.
    """
    if not word:
        raise ValueError("word must be non-empty")
    syms = list(_word_symbols(word))
    ranks = model._ranks
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for a, b in zip(syms, syms[1:]):
            r = ranks.get((a, b))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = (a, b)
        if best_pair is None:
            break
        syms = _merge_once(syms, best_pair)
    return tuple(syms)


# ---------------------------------------------------------------------------
# Character n-grams
# ---------------------------------------------------------------------------


def char_ngrams(word: str, n_min: int = 3, n_max: int = 6) -> tuple[str, ...]:
    """All contiguous substrings of the '<'-word-'>' wrapped form with length
    in [n_min, n_max], shortest first, left to right within each length.
    Duplicates are kept."""
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    if not word:
        raise ValueError("word must be non-empty")
    wrapped = f"<{word}>"
    L = len(wrapped)
    out = []
    for n in range(n_min, min(n_max, L) + 1):
        for i in range(L - n + 1):
            out.append(wrapped[i:i + n])
    return tuple(out)


@dataclass(frozen=True)
class CharNgramSegmenter:
    n_min: int = 3
    n_max: int = 6

    def segment(self, word: str) -> tuple[str, ...]:
        return char_ngrams(word, self.n_min, self.n_max)


@dataclass(frozen=True)
class WholeWordSegmenter:
    """Degenerate segmenter: one subword, the word itself. With w-/p- this
    reduces the trainer to plain word-level skip-gram."""

    def segment(self, word: str) -> tuple[str, ...]:
        if not word:
            raise ValueError("word must be non-empty")
        return (word,)


# ---------------------------------------------------------------------------
# Morfessor-lite: recursive binary MDL splitting
# ---------------------------------------------------------------------------


@dataclass
class MorfModel:
    """Simplified MDL morph model: a morph lexicon with counts and the final
    two-part cost (token cost + lexicon character cost)."""

    morph_lexicon: dict[str, int]
    corpus_cost: float
    cost_history: list[float] = field(default_factory=list)
    lam: float = 1.0
    _cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
    _denom: int = field(init=False, repr=False)

    def __post_init__(self):
        # the lexicon is fixed once learned or loaded
        self._denom = (sum(self.morph_lexicon.values())
                       + len(self.morph_lexicon) + 1)

    def segment(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is None:
            cached = _viterbi_segment(word, self.morph_lexicon, self.lam,
                                      self._denom)
            self._cache[word] = cached
        return cached

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for morph in sorted(self.morph_lexicon):
                fh.write(f"{morph}\t{self.morph_lexicon[morph]}\n")

    @classmethod
    def load(cls, path: str | Path, lam: float = 1.0) -> "MorfModel":
        lexicon = {morph: nonnegative_int(count, "morph count", ln)
                   for ln, (morph, count) in read_fields(
                       path, "morph model", "\t", 2,
                       "expected morph<TAB>count")}
        model = cls(morph_lexicon=lexicon, corpus_cost=0.0, lam=lam)
        model.corpus_cost = _total_cost_from_counts(lexicon, lam)
        return model


def _total_cost_from_counts(counts: dict[str, int], lam: float) -> float:
    """Two-part cost: sum over morph tokens of -log p(morph) with add-one
    smoothing, plus lam * total characters in the lexicon."""
    total = sum(counts.values())
    lex = len(counts)
    denom = total + lex
    cost = 0.0
    for m, c in counts.items():
        cost += c * -math.log((c + 1) / denom)
    cost += lam * sum(len(m) for m in counts)
    return cost


def _analyses_cost(analyses: dict[str, tuple[str, ...]],
                   freqs: dict[str, int], lam: float) -> float:
    counts: Counter = Counter()
    for w, morphs in analyses.items():
        f = freqs[w]
        for m in morphs:
            counts[m] += f
    return _total_cost_from_counts(counts, lam)


def _best_split(word: str, morph_cost) -> tuple[float, tuple[str, ...]]:
    """Cheapest segmentation of `word` under a per-morph cost function,
    over all ordered partitions. Each substring, shortest first, keeps its
    own cost unless some binary split into two cheapest halves costs
    strictly less (split points left to right, first strict minimum wins);
    both halves are shorter, so they are already in the memo."""
    n = len(word)
    memo: dict[str, tuple[float, tuple[str, ...]]] = {}
    for length in range(1, n + 1):
        for start in range(n - length + 1):
            sub = word[start:start + length]
            if sub in memo:
                continue
            best_cost = morph_cost(sub)
            best_seg = (sub,)
            for i in range(1, length):
                lc, lseg = memo[sub[:i]]
                rc, rseg = memo[sub[i:]]
                if lc + rc < best_cost:
                    best_cost = lc + rc
                    best_seg = lseg + rseg
            memo[sub] = (best_cost, best_seg)
    return memo[word]


def learn_morfessor_lite(vocab: Vocab, max_iters: int = 10,
                         lam: float = 1.0) -> MorfModel:
    """Iterative re-estimation of word analyses. Each pass re-segments every
    word type (optimal partition under the current morph statistics, with an
    amortized lexicon penalty for novel morphs); a pass that fails to lower
    the total cost is reverted and training stops."""
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if len(vocab) == 0:
        raise ValueError("vocab must be non-empty")

    freqs = {w: int(c) for w, c in zip(vocab.words, vocab.counts)}
    analyses: dict[str, tuple[str, ...]] = {w: (w,) for w in vocab.words}
    counts: Counter = Counter({w: freqs[w] for w in vocab.words})
    total = sum(counts.values())  # morph tokens, kept exact as counts change

    cost_history = [_analyses_cost(analyses, freqs, lam)]

    for _ in range(max_iters):
        prev_analyses = dict(analyses)
        for w in vocab.words:
            f = freqs[w]
            # remove this word's current contribution
            old = analyses[w]
            for m in old:
                counts[m] -= f
                if counts[m] <= 0:
                    del counts[m]
            total -= f * len(old)
            denom = total + len(counts) + 1  # +1: room for one novel morph
            novel = f * -math.log(1 / denom)

            def morph_cost(m, _f=f, _counts=counts, _denom=denom,
                           _novel=novel):
                c = _counts.get(m, 0)
                if c == 0:
                    return _novel + lam * len(m)  # lexicon growth penalty
                return _f * -math.log((c + 1) / _denom)

            _, seg = _best_split(w, morph_cost)
            analyses[w] = seg
            for m in seg:
                counts[m] += f
            total += f * len(seg)

        cost = _analyses_cost(analyses, freqs, lam)
        if cost < cost_history[-1] - 1e-6:
            cost_history.append(cost)
        else:
            if cost > cost_history[-1]:
                analyses = prev_analyses
            else:
                cost_history.append(cost)
            break

    final_counts: Counter = Counter()
    for w, morphs in analyses.items():
        for m in morphs:
            final_counts[m] += freqs[w]
    model = MorfModel(morph_lexicon=dict(final_counts),
                      corpus_cost=cost_history[-1],
                      cost_history=cost_history, lam=lam)
    model._cache.update(analyses)
    return model


def _viterbi_segment(word: str, lexicon: dict[str, int], lam: float,
                     denom: int) -> tuple[str, ...]:
    """Segment an arbitrary word with the learned lexicon, whose add-one
    denominator `denom` is its token total + its size + 1; substrings
    absent from the lexicon fall back to a high per-character cost so known
    morphs are preferred."""
    if not word:
        raise ValueError("word must be non-empty")
    unk_char_cost = -math.log(1.0 / denom) + lam

    def morph_cost(m):
        c = lexicon.get(m, 0)
        if c > 0:
            return -math.log((c + 1) / denom)
        return len(m) * unk_char_cost

    n = len(word)
    best = [0.0] + [math.inf] * n
    back = [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(max(0, j - 30), j):
            c = best[i] + morph_cost(word[i:j])
            if c < best[j]:
                best[j] = c
                back[j] = i
    out = []
    j = n
    while j > 0:
        i = back[j]
        out.append(word[i:j])
        j = i
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Shared segmentation surface
# ---------------------------------------------------------------------------

Segmenter = BpeModel | MorfModel | CharNgramSegmenter | WholeWordSegmenter


def segment_word(segmenter, word: str,
                 include_word_token: bool) -> Segmentation:
    """Delegate to the configured segmenter; with include_word_token the
    whole word is appended as a word-token unit in its own namespace."""
    if not word:
        raise ValueError("word must be non-empty")
    return Segmentation(word=word, subwords=tuple(segmenter.segment(word)),
                        includes_word_token=include_word_token)


@dataclass
class SubwordVocab:
    """Dense ids for (namespace, string) keys; word-token keys never collide
    with identical subword strings."""

    entries: dict[tuple[str, str], int]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.entries

    def get(self, key: tuple[str, str], default=None):
        return self.entries.get(key, default)

    def save_tsv(self, path: str | Path) -> None:
        items = sorted(self.entries.items(), key=lambda kv: kv[1])
        with open(path, "w", encoding="utf-8") as fh:
            for (ns, s), i in items:
                fh.write(f"{ns}\t{s}\t{i}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "SubwordVocab":
        entries: dict[tuple[str, str], int] = {}
        for ln, (ns, s, i) in read_fields(path, "subword vocab file", "\t", 3,
                                          "expected ns<TAB>key<TAB>id"):
            if ns not in (NS_SUBWORD, NS_WORD_TOKEN):
                raise FormatError(f"unknown namespace {ns!r}", ln)
            entries[(ns, s)] = nonnegative_int(i, "subword id", ln)
        return cls(entries=entries)


def build_subword_vocab(vocab: Vocab, segmenter,
                        include_word_token: bool) -> SubwordVocab:
    """Union of subword keys over all vocab words (plus word-token keys when
    requested), ids assigned by first occurrence in vocab id order."""
    if len(vocab) == 0:
        raise ValueError("vocab must be non-empty")
    entries: dict[tuple[str, str], int] = {}
    for w in vocab.words:
        seg = segment_word(segmenter, w, include_word_token)
        for key in seg.keys():
            if key not in entries:
                entries[key] = len(entries)
    return SubwordVocab(entries=entries)
