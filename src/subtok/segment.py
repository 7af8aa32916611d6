"""Unsupervised segmentation of word types into ordered subword sequences:
BPE, character n-grams, a simplified MDL morph splitter, and the degenerate
whole-word segmenter used by the skip-gram baseline."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subtok.corpus import Vocab
from subtok.errors import (
    ConfigError,
    FormatError,
    SubtokError,
    nonnegative_int,
    read_fields,
    read_lines,
)

# BPE's end-of-word marker: the noncharacter U+10FFFF, which Unicode keeps
# for internal use. No word may contain it, so no merge can spell it, and
# as the largest code point it sorts after every other symbol.
END_OF_WORD = "\U0010ffff"

# Morfessor-lite stops after this many passes if the cost still falls
MORF_MAX_ITERS = 10

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
            fh.write(f"#bpe v2 {self.num_merges}\n")
            for left, right in self.merges:
                fh.write(f"{left} {right}\n")

    @classmethod
    def load(cls, path: str | Path) -> "BpeModel":
        lines = read_lines(path, "BPE model")
        header = next(lines, "").rstrip("\n")
        if not header.startswith("#bpe v2 "):
            raise FormatError(f"bad BPE header {header!r}", 1)
        num_merges = nonnegative_int(header[len("#bpe v2 "):], "merge count",
                                     1)
        merges = []
        for ln, (left, right) in read_fields(
                lines, "BPE model", " ", 2, "expected `left<SPACE>right`",
                first_line=2):
            if not (left and right):
                raise FormatError("merge with an empty side", ln)
            merges.append((left, right))
        return cls(merges=merges, num_merges=num_merges)


def _word_symbols(word: str) -> tuple[str, ...]:
    if END_OF_WORD in word:
        raise SubtokError(f"word {word!r} contains the BPE end-of-word "
                          "marker U+10FFFF")
    return tuple(word) + (END_OF_WORD,)


def learn_bpe(vocab: Vocab, num_merges: int) -> BpeModel:
    """Greedy frequency-based merging over the vocab's word types, each a
    character sequence plus a terminal end-of-word marker. Ties on pair count
    go to the lexicographically smallest pair; learning stops early when no
    pair occurs at least twice.

    Each merge is picked from a heap of (-count, pair) entries with lazy
    invalidation: an entry counts only while its count equals the pair's
    current count, and every pair whose count a merge changes is pushed
    again. The top valid entry is the pair a full scan would pick.

    A merge changes only the pairs that overlap a merged occurrence and the
    pairs that touch a merged symbol, so only those are recounted. The
    index of words per pair is a superset: a word stays listed under a pair
    it lost, and merging skips it.

    The model's cache is seeded with each training word's final symbols,
    which equal `apply_bpe`."""
    if num_merges < 1:
        raise ConfigError("num_merges must be >= 1")

    words = [list(_word_symbols(w)) for w in vocab.words]
    freqs = [int(c) for c in vocab.counts]

    # pair -> weighted count, plus an index of which words contain the pair
    stats: Counter = Counter()
    index: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, (syms, f) in enumerate(zip(words, freqs)):
        for a, b in zip(syms, syms[1:]):
            stats[(a, b)] += f
            index[(a, b)].add(wi)
    heap = [(-c, p) for p, c in stats.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        while heap and stats.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        best = heap[0][1]
        merges.append(best)
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
                        last = j
            words[wi] = out
        for pair, d in delta.items():
            if not d:
                continue
            count = stats[pair] + d
            if count > 0:
                stats[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del stats[pair]

    model = BpeModel(merges=merges, num_merges=num_merges)
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
    """`char_ngrams` in [n_min, n_max]. One made by `keeping` keeps the
    n-grams of the words given, as the learned segmenters keep their
    training words' segmentations, and computes any other word's anew."""

    n_min: int = 3
    n_max: int = 6
    _kept: dict[str, tuple[str, ...]] = field(default_factory=dict,
                                              repr=False, compare=False)

    @classmethod
    def keeping(cls, words, n_min: int, n_max: int) -> "CharNgramSegmenter":
        segmenter = cls(n_min, n_max)
        segmenter._kept.update((w, char_ngrams(w, n_min, n_max))
                               for w in words)
        return segmenter

    def segment(self, word: str) -> tuple[str, ...]:
        kept = self._kept.get(word)
        if kept is None:
            return char_ngrams(word, self.n_min, self.n_max)
        return kept


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
    """Simplified MDL morph model: a morph lexicon with counts, the final
    two-part cost (token cost + lexicon character cost), and the analyses
    of the words it was trained on. A training word splits as its analysis,
    any other word by Viterbi over the lexicon."""

    morph_lexicon: dict[str, int]
    corpus_cost: float
    cost_history: list[float] = field(default_factory=list)
    analyses: dict[str, tuple[str, ...]] = field(default_factory=dict,
                                                 repr=False)
    _cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
    _denom: int = field(init=False, repr=False)
    _longest: int = field(init=False, repr=False)

    def __post_init__(self):
        # the lexicon is fixed once learned or loaded
        self._denom = (sum(self.morph_lexicon.values())
                       + len(self.morph_lexicon) + 1)
        self._longest = max(map(len, self.morph_lexicon), default=0)
        self._cache.update(self.analyses)

    def segment(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is None:
            cached = _viterbi_segment(word, self.morph_lexicon, self._denom,
                                      self._longest)
            self._cache[word] = cached
        return cached

    def save(self, path: str | Path) -> None:
        """`#morf v2 <morphs>`, that many `morph<TAB>count` lexicon lines,
        then a `word<TAB>morph morph ...` line per training word: the
        analyses are kept, as Morfessor 2.0 keeps them."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#morf v2 {len(self.morph_lexicon)}\n")
            for morph in sorted(self.morph_lexicon):
                fh.write(f"{morph}\t{self.morph_lexicon[morph]}\n")
            for word in sorted(self.analyses):
                fh.write(f"{word}\t{' '.join(self.analyses[word])}\n")

    @classmethod
    def load(cls, path: str | Path) -> "MorfModel":
        """The model that `save` wrote. A file without the header holds a
        lexicon alone, as files did before analyses were kept, and every
        word of such a model splits by Viterbi."""
        lines = read_lines(path, "morph model")
        header = next(lines, "")
        n_morphs, first_line = math.inf, 2
        if header.startswith("#morf v2 "):
            n_morphs = nonnegative_int(header[len("#morf v2 "):].rstrip("\n"),
                                       "lexicon size", 1)
        else:
            first_line = 1
            lines = itertools.chain([header], lines)
        lexicon: dict[str, int] = {}
        analyses: dict[str, tuple[str, ...]] = {}
        for ln, (key, value) in read_fields(
                lines, "morph model", "\t", 2,
                "expected morph<TAB>count or word<TAB>morph morph ...",
                first_line=first_line):
            if not key:
                raise FormatError("empty morph", ln)
            if len(lexicon) < n_morphs:
                if key in lexicon:
                    raise FormatError(f"repeated morph {key!r}", ln)
                lexicon[key] = nonnegative_int(value, "morph count", ln)
            else:
                morphs = tuple(value.split(" "))
                if key in analyses or not all(morphs) or \
                        "".join(morphs) != key:
                    raise FormatError(f"bad analysis of {key!r}", ln)
                analyses[key] = morphs
        return cls(morph_lexicon=lexicon,
                   corpus_cost=_total_cost_from_counts(lexicon),
                   analyses=analyses)


def _total_cost_from_counts(counts: dict[str, int]) -> float:
    """Two-part cost: sum over morph tokens of -log p(morph) with add-one
    smoothing, plus 1 nat per character in the lexicon."""
    total = sum(counts.values())
    lex = len(counts)
    denom = total + lex
    cost = 0.0
    for m, c in counts.items():
        cost += c * -math.log((c + 1) / denom)
    cost += sum(len(m) for m in counts)
    return cost


def _analyses_cost(analyses: dict[str, tuple[str, ...]],
                   freqs: dict[str, int]) -> float:
    counts: Counter = Counter()
    for w, morphs in analyses.items():
        f = freqs[w]
        for m in morphs:
            counts[m] += f
    return _total_cost_from_counts(counts)


def _holds_known_morph(word: str, counts: dict[str, int]) -> bool:
    """Whether some substring of `word` is a key of `counts`."""
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            if word[i:j] in counts:
                return True
    return False


def _best_split(word: str, counts: dict[str, int], f: int,
                denom: int) -> tuple[float, tuple[str, ...]]:
    """Cheapest segmentation of a word of frequency `f` over all ordered
    partitions, where a morph with count c > 0 in `counts` costs
    f * -log((c + 1) / denom) and any other morph costs
    novel = f * -log(1 / denom) plus one per letter. Each substring,
    shortest first, keeps its own cost unless some binary split into two
    cheapest halves costs strictly less (split points left to right, first
    strict minimum wins); both halves are shorter, so they are already in
    the memo.

    A substring is plain when none of its substrings has a count. Two plain
    halves cost novel twice plus the substring's letters, with novel >= 0.
    That is no less than the substring's own cost, novel + length without a
    count and at most novel with one, so such a split never wins the
    strict < (when denom is 1, novel is -0.0 and the split ties, which also
    loses). Only split points with a half that is not plain are tried, and
    a word with no known morph in it is returned whole at once. A substring
    is plain when it has no count and its two substrings one letter shorter
    are plain."""
    novel = f * -math.log(1 / denom)
    n = len(word)
    if not _holds_known_morph(word, counts):
        return novel + n, (word,)
    # substring -> (cost, segmentation, plain)
    memo: dict[str, tuple[float, tuple[str, ...], bool]] = {}
    for length in range(1, n + 1):
        for start in range(n - length + 1):
            sub = word[start:start + length]
            if sub in memo:
                continue
            c = counts.get(sub, 0)
            if c:
                best_cost = f * -math.log((c + 1) / denom)
                plain = False
            else:
                best_cost = novel + length  # lexicon growth penalty
                plain = length == 1 or (memo[sub[:-1]][2]
                                        and memo[sub[1:]][2])
            best_seg = (sub,)
            if not plain:
                for i in range(1, length):
                    lc, lseg, lplain = memo[sub[:i]]
                    rc, rseg, rplain = memo[sub[i:]]
                    if not (lplain and rplain) and lc + rc < best_cost:
                        best_cost = lc + rc
                        best_seg = lseg + rseg
            memo[sub] = (best_cost, best_seg, plain)
    return memo[word][:2]


def learn_morfessor_lite(vocab: Vocab,
                         max_iters: int = MORF_MAX_ITERS) -> MorfModel:
    """Iterative re-estimation of word analyses. Each pass re-segments every
    word type (optimal partition under the current morph statistics, with an
    amortized lexicon penalty for novel morphs); a pass that fails to lower
    the total cost is reverted and training stops."""
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")

    freqs = {w: int(c) for w, c in zip(vocab.words, vocab.counts)}
    analyses: dict[str, tuple[str, ...]] = {w: (w,) for w in vocab.words}
    counts: Counter = Counter({w: freqs[w] for w in vocab.words})
    total = sum(counts.values())  # morph tokens, kept exact as counts change

    cost_history = [_analyses_cost(analyses, freqs)]

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
            _, seg = _best_split(w, counts, f, denom)
            analyses[w] = seg
            for m in seg:
                counts[m] += f
            total += f * len(seg)

        cost = _analyses_cost(analyses, freqs)
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
    return MorfModel(morph_lexicon=dict(final_counts),
                     corpus_cost=cost_history[-1],
                     cost_history=cost_history, analyses=analyses)


def _viterbi_segment(word: str, lexicon: dict[str, int], denom: int,
                     longest: int) -> tuple[str, ...]:
    """Segment an arbitrary word with the learned lexicon, whose add-one
    denominator `denom` is its token total + its size + 1; substrings
    absent from the lexicon fall back to a high per-character cost so known
    morphs are preferred, and the first strictly cheapest start wins. No
    span longer than the `longest` morph is known, so such spans are scored
    in one numpy expression, without slicing or lookup."""
    if not word:
        raise ValueError("word must be non-empty")
    unk_char_cost = -math.log(1.0 / denom) + 1.0

    def morph_cost(m):
        c = lexicon.get(m, 0)
        if c > 0:
            return -math.log((c + 1) / denom)
        return len(m) * unk_char_cost

    n = len(word)
    best = [0.0] + [math.inf] * n
    best_np = np.zeros(n + 1)  # best, filled in as the scan passes
    back = [0] * (n + 1)
    for j in range(1, n + 1):
        lo = max(0, j - longest)
        if lo:  # the float expression below; argmin takes the first minimum
            costs = best_np[:lo] + (j - np.arange(lo)) * unk_char_cost
            back[j] = int(costs.argmin())
            best[j] = float(costs[back[j]])
        for i in range(lo, j):
            c = best[i] + morph_cost(word[i:j])
            if c < best[j]:
                best[j] = c
                back[j] = i
        best_np[j] = best[j]
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
            if nonnegative_int(i, "subword id", ln) != len(entries):
                raise FormatError(f"non-contiguous id {i}", ln)
            if (ns, s) in entries:
                raise FormatError(f"repeated key {ns} {s!r}", ln)
            entries[(ns, s)] = len(entries)
        return cls(entries=entries)


def build_subword_vocab(vocab: Vocab, segmenter,
                        include_word_token: bool) -> SubwordVocab:
    """Union of subword keys over all vocab words (plus word-token keys when
    requested), ids assigned by first occurrence in vocab id order. A
    segmenter that yields no key for any vocab word raises SubtokError."""
    entries: dict[tuple[str, str], int] = {}
    for w in vocab.words:
        seg = segment_word(segmenter, w, include_word_token)
        for key in seg.keys():
            if key not in entries:
                entries[key] = len(entries)
    if not entries:
        raise SubtokError(f"the segmenter yields no subword for any of the "
                          f"{len(vocab)} vocab words")
    return SubwordVocab(entries=entries)
