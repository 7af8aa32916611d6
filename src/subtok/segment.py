"""Unsupervised segmentation of word types into ordered subword sequences:
BPE, character n-grams, a simplified MDL morph splitter, and the degenerate
whole-word segmenter used by the skip-gram baseline."""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subtok.corpus import Vocab
from subtok.errors import (
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

# CharNgramSegmenter cuts the n-grams of these lengths, fastText's
# (Bojanowski et al. 2017)
NGRAM_MIN, NGRAM_MAX = 3, 6

# Morfessor-lite stops after this many passes if the cost still falls
MORF_MAX_ITERS = 10

# namespaces of the rows in a subwords.tsv file; in a SubwordVocab a
# subword is keyed by its plain string, a word token by (NS_WORD_TOKEN, word)
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
        """SubwordVocab keys in sequence order: each subword's string, then
        (NS_WORD_TOKEN, word) when the word token is included."""
        if self.includes_word_token:
            return [*self.subwords, (NS_WORD_TOKEN, self.word)]
        return list(self.subwords)


# ---------------------------------------------------------------------------
# BPE
# ---------------------------------------------------------------------------


@dataclass
class BpeModel:
    """Ordered merge list learned by greedy pair counting over a word
    frequency dictionary."""

    merges: list[tuple[str, str]]
    num_merges: int
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False)
    _cache: dict[str, tuple[str, ...]] = field(
        init=False, default_factory=dict, repr=False)

    def __post_init__(self):
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
        merges: dict[tuple[str, str], None] = {}  # a dict to find repeats
        made: set[str] = set()  # the symbols that the merges so far make
        for ln, (left, right) in read_fields(
                lines, "BPE model", " ", 2, "expected `left<SPACE>right`",
                first_line=2):
            if not (left and right):
                raise FormatError("merge with an empty side", ln)
            if (left, right) in merges:
                raise FormatError(f"repeated merge {left!r} {right!r}", ln)
            # each side is one code point or an earlier merge's result, as
            # in every file `save` writes; apply_bpe's ranks would join a
            # later merge's result, which a replay in order never makes
            for side in (left, right):
                if len(side) > 1 and side not in made:
                    raise FormatError(f"merge {left!r} {right!r} uses "
                                      f"{side!r}, which no earlier merge "
                                      "makes", ln)
            merges[left, right] = None
            made.add(left + right)
        return cls(merges=list(merges), num_merges=num_merges)


def _word_symbols(word: str) -> tuple[str, ...]:
    if END_OF_WORD in word:
        raise SubtokError(f"word {word!r} contains the BPE end-of-word "
                          "marker U+10FFFF")
    return tuple(word) + (END_OF_WORD,)


def _pair_census(cps: np.ndarray, freq: np.ndarray) -> tuple[
        dict[tuple[str, str], int], defaultdict[tuple[str, str], array]]:
    """The weighted count of each pair of adjacent code points in `cps`,
    words joined end to end, each slot weighted by its `freq`, and the
    slots where the pair starts, in increasing order. No pair starts at a
    word's end-of-word marker."""
    left = np.flatnonzero(cps[:-1] != ord(END_OF_WORD))
    keys = (cps[left] << 21) | cps[left + 1]  # code points are < 2**21
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.add.reduceat(freq[left[order]], starts)
    slots = array("q", left[order].tobytes())
    bounds = [*starts.tolist(), len(slots)]
    pairs = [(chr(k >> 21), chr(k & 0x1FFFFF))
             for k in keys[starts].tolist()]
    index: defaultdict[tuple[str, str], array] = defaultdict(
        lambda: array("q"))
    index.update((p, slots[s:e]) for p, s, e in zip(pairs, bounds,
                                                     bounds[1:]))
    return dict(zip(pairs, counts.tolist())), index


def learn_bpe(vocab: Vocab, num_merges: int) -> BpeModel:
    """Greedy frequency-based merging over the vocab's word types, each a
    character sequence plus a terminal end-of-word marker. Ties on pair count
    go to the lexicographically smallest pair; learning stops early when no
    pair occurs at least twice.

    Each merge is picked from a heap of (-count, pair) entries with lazy
    invalidation: an entry counts only while its count equals the pair's
    current count, and every pair whose count a merge changes is pushed
    again. The top valid entry is the pair a full scan would pick.

    The words lie end to end in one flat list of symbol slots, and `nxt` and
    `prv` link the live slots of a word. A pair occurrence is named by its
    left slot. A merge of (a, b) writes a + b into the left slot, empties
    the right one, and recounts only that occurrence's neighbours:
    (left, a) becomes (left, ab) and (b, right) becomes (ab, right). The
    index of left slots per pair is a superset: a slot stays listed under a
    pair it lost, and merging skips any slot that no longer spells the pair.
    Slots are merged in increasing order, which is word by word and left to
    right, so a run like `aaa` merges as a full rescan would.

    The initial counts and index come from one numpy pass over the code
    points. The model's cache is seeded with each training word's final
    symbols, which equal `apply_bpe`. `num_merges` is >= 1, as
    `ModelConfig` requires."""
    words = vocab.words
    text = END_OF_WORD.join(words) + END_OF_WORD
    if text.count(END_OF_WORD) > len(words):
        for w in words:
            _word_symbols(w)  # raises for the first word with the marker
    cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                        dtype="<u4").astype(np.int64)
    n = len(cps)
    ends = np.flatnonzero(cps == ord(END_OF_WORD))
    freq = np.repeat(vocab.counts.astype(np.int64),
                     np.diff(ends, prepend=-1))
    stats, index = _pair_census(cps, freq)
    wf = freq.tolist()
    # slot n, reached as index -1, is a sentinel: its empty symbol spells
    # no pair, so a word's first and last slots need no bounds check
    sym = list(text) + [""]
    prv = np.arange(-1, n)
    prv[ends + 1] = -1
    nxt = np.arange(1, n + 2)
    nxt[ends] = -1
    prv, nxt = array("q", prv.tobytes()), array("q", nxt.tobytes())
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
        # every occurrence of `best` is merged, and no merge recreates its
        # own pair (merged_sym differs from a), so it leaves stats and index
        del stats[best]
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for i in sorted(index.pop(best)):
            j = nxt[i]
            if sym[i] != a or sym[j] != b:
                continue
            f = wf[i]
            lo, hi = prv[i], nxt[j]
            left, right = sym[lo], sym[hi]
            if left:
                delta[(left, a)] -= f
                pair = (left, merged_sym)
                delta[pair] += f
                index[pair].append(lo)
            if right:
                delta[(b, right)] -= f
                pair = (merged_sym, right)
                delta[pair] += f
                index[pair].append(i)
            sym[i] = merged_sym
            sym[j] = ""
            nxt[i] = hi
            prv[hi] = i
        # in a run like `aaa` the (b, right) of one occurrence is `best`
        delta.pop(best, None)
        for pair, d in delta.items():
            if not d:  # added and taken back, as (ab, a) in `abab`
                continue
            count = stats.get(pair, 0) + d
            if count > 0:
                stats[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del stats[pair]

    model = BpeModel(merges=merges, num_merges=num_merges)
    bounds = [0, *(ends + 1).tolist()]
    model._cache.update(zip(words, [tuple(filter(None, sym[s:e]))
                                    for s, e in zip(bounds, bounds[1:])]))
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


@functools.lru_cache(maxsize=64)
def _ngram_cutter(length: int):
    """A function that cuts every n-gram in [NGRAM_MIN, NGRAM_MAX] out of a
    string of `length` and returns them as a tuple, in `char_ngrams` order:
    an `itemgetter` of the table of slices, which slices in C and returns a
    tuple when it holds two or more (a table of none or one is mapped). A
    table holds about (NGRAM_MAX - NGRAM_MIN + 1) * length slices, so only
    the most recent 64 are kept."""
    slices = tuple(slice(i, i + n)
                   for n in range(NGRAM_MIN, min(NGRAM_MAX, length) + 1)
                   for i in range(length - n + 1))
    if len(slices) > 1:
        return operator.itemgetter(*slices)
    return lambda text: tuple(map(text.__getitem__, slices))


def char_ngrams(word: str) -> tuple[str, ...]:
    """All contiguous substrings of the '<'-word-'>' wrapped form with length
    in [NGRAM_MIN, NGRAM_MAX], shortest first, left to right within each
    length. Duplicates are kept. The wrapped form is cut by the cached
    cutter of its length."""
    wrapped = f"<{word}>"
    return _ngram_cutter(len(wrapped))(wrapped)


@dataclass(frozen=True)
class CharNgramSegmenter:
    """`char_ngrams`. One made by `keeping` keeps the n-grams of the words
    given, as the learned segmenters keep their training words'
    segmentations, and computes any other word's anew."""

    _kept: dict[str, tuple[str, ...]] = field(
        init=False, default_factory=dict, repr=False, compare=False)

    @classmethod
    def keeping(cls, words) -> "CharNgramSegmenter":
        segmenter = cls()
        segmenter._kept.update((w, char_ngrams(w)) for w in words)
        return segmenter

    def segment(self, word: str) -> tuple[str, ...]:
        kept = self._kept.get(word)
        if kept is None:
            return char_ngrams(word)
        return kept


@dataclass(frozen=True)
class WholeWordSegmenter:
    """Degenerate segmenter: one subword, the word itself. With w-/p- this
    reduces the trainer to plain word-level skip-gram."""

    def segment(self, word: str) -> tuple[str, ...]:
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
    _cache: dict[str, tuple[str, ...]] = field(
        init=False, default_factory=dict, repr=False)
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
        """The model that `save` wrote; a file without its header is
        refused."""
        lines = read_lines(path, "morph model")
        header = next(lines, "").rstrip("\n")
        if not header.startswith("#morf v2 "):
            raise FormatError(f"bad morph model header {header!r}", 1)
        n_morphs = nonnegative_int(header[len("#morf v2 "):], "lexicon size",
                                   1)
        lexicon: dict[str, int] = {}
        analyses: dict[str, tuple[str, ...]] = {}
        for ln, (key, value) in read_fields(
                lines, "morph model", "\t", 2,
                "expected morph<TAB>count or word<TAB>morph morph ...",
                first_line=2):
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


def _morph_counts(analyses: dict[str, tuple[str, ...]],
                  freqs: dict[str, int]) -> dict[str, int]:
    """Each morph's token count: the frequency of every word whose analysis
    holds it, once per occurrence, keyed in order of first occurrence."""
    counts: dict[str, int] = {}
    get = counts.get
    for w, morphs in analyses.items():
        f = freqs[w]
        for m in morphs:
            counts[m] = get(m, 0) + f
    return counts


def _holds_known_morph(word: str, counts: dict[str, int],
                       lengths: set[int]) -> bool:
    """Whether some substring of `word` is a key of `counts`. `lengths`
    holds the length of every key (it may hold more), so only substrings
    of those lengths are sliced and looked up."""
    n = len(word)
    for k in lengths:
        for i in range(n - k + 1):
            if word[i:i + k] in counts:
                return True
    return False


def _best_split(word: str, counts: dict[str, int], f: int, denom: int,
                lengths: set[int]) -> tuple[float, tuple[str, ...]]:
    """Cheapest segmentation of a word of frequency `f` over all ordered
    partitions, where a morph with count c > 0 in `counts` costs
    f * -log((c + 1) / denom) and any other morph costs
    novel = f * -log(1 / denom) plus one per letter. Each substring,
    shortest first, keeps its own cost unless some binary split into two
    cheapest halves costs strictly less (split points left to right, first
    strict minimum wins); both halves are shorter, so they are already in
    the memo.

    A word with no known morph in it is returned whole at once, as the
    search would return it: each of its substrings is novel and, by
    induction on length, keeps its own cost, since two halves that keep
    theirs cost novel twice plus the substring's letters, with novel >= 0,
    no less than the substring's own novel plus letters. No split wins the
    strict < (when denom is 1, novel is -0.0 and the split ties, which also
    loses). `lengths` is as for `_holds_known_morph`."""
    novel = f * -math.log(1 / denom)
    n = len(word)
    if not _holds_known_morph(word, counts, lengths):
        return novel + n, (word,)
    memo: dict[str, tuple[float, tuple[str, ...]]] = {}
    for length in range(1, n + 1):
        for start in range(n - length + 1):
            sub = word[start:start + length]
            if sub in memo:
                continue
            c = counts.get(sub, 0)
            if c:
                best_cost = f * -math.log((c + 1) / denom)
            else:
                best_cost = novel + length  # lexicon growth penalty
            best_seg = (sub,)
            for i in range(1, length):
                lc, lseg = memo[sub[:i]]
                rc, rseg = memo[sub[i:]]
                if lc + rc < best_cost:
                    best_cost = lc + rc
                    best_seg = lseg + rseg
            memo[sub] = (best_cost, best_seg)
    return memo[word]


def learn_morfessor_lite(vocab: Vocab,
                         max_iters: int = MORF_MAX_ITERS) -> MorfModel:
    """Iterative re-estimation of word analyses. Each pass re-segments every
    word type (optimal partition under the current morph statistics, with an
    amortized lexicon penalty for novel morphs); a pass that fails to lower
    the total cost is reverted and training stops, after at most
    `max_iters` (>= 1) passes."""
    freqs = {w: int(c) for w, c in zip(vocab.words, vocab.counts)}
    analyses: dict[str, tuple[str, ...]] = {w: (w,) for w in vocab.words}
    counts = dict(freqs)
    get = counts.get
    total = sum(counts.values())  # morph tokens, kept exact as counts change
    # every length a key of counts has had: grow-only, so a superset
    lengths = set(map(len, counts))

    # the morph counts of the last accepted analyses; the whole words give
    # `_morph_counts`' keys in its order
    lexicon = dict(counts)
    cost_history = [_total_cost_from_counts(lexicon)]

    for _ in range(max_iters):
        prev_analyses = dict(analyses)
        for w in vocab.words:
            f = freqs[w]
            # remove this word's current contribution
            old = analyses[w]
            for m in old:
                c = counts[m] - f
                if c:
                    counts[m] = c
                else:  # 0: counts hold the analysis, so never below
                    del counts[m]
            total -= f * len(old)
            denom = total + len(counts) + 1  # +1: room for one novel morph
            _, seg = _best_split(w, counts, f, denom, lengths)
            analyses[w] = seg
            for m in seg:
                counts[m] = get(m, 0) + f
            lengths.update(map(len, seg))
            total += f * len(seg)

        recount = _morph_counts(analyses, freqs)
        cost = _total_cost_from_counts(recount)
        if cost > cost_history[-1]:
            analyses = prev_analyses
            break
        lexicon = recount
        cost_history.append(cost)
        if cost >= cost_history[-2] - 1e-6:
            break

    return MorfModel(morph_lexicon=lexicon,
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
    whole word is appended as a word-token unit in its own namespace. The
    word is non-empty: vocab words are, and `segment-apply` refuses an
    empty one."""
    return Segmentation(word=word, subwords=tuple(segmenter.segment(word)),
                        includes_word_token=include_word_token)


@dataclass
class SubwordVocab:
    """Dense ids for subword keys: a subword's own string, or
    (NS_WORD_TOKEN, word) for a word token. A str never equals a tuple, so
    a word token never collides with an identical subword string."""

    entries: dict[str | tuple[str, str], int]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str | tuple[str, str]) -> bool:
        return key in self.entries

    def save_tsv(self, path: str | Path) -> None:
        """One `ns<TAB>string<TAB>id` line per key, in id order."""
        items = sorted(self.entries.items(), key=lambda kv: kv[1])
        with open(path, "w", encoding="utf-8") as fh:
            for key, i in items:
                if isinstance(key, str):
                    fh.write(f"{NS_SUBWORD}\t{key}\t{i}\n")
                else:
                    fh.write(f"{key[0]}\t{key[1]}\t{i}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "SubwordVocab":
        entries: dict[str | tuple[str, str], int] = {}
        for ln, (ns, s, i) in read_fields(path, "subword vocab file", "\t", 3,
                                          "expected ns<TAB>key<TAB>id"):
            if ns == NS_SUBWORD:
                key = s
            elif ns == NS_WORD_TOKEN:
                key = (ns, s)
            else:
                raise FormatError(f"unknown namespace {ns!r}", ln)
            if nonnegative_int(i, "subword id", ln) != len(entries):
                raise FormatError(f"non-contiguous id {i}", ln)
            if key in entries:
                raise FormatError(f"repeated key {ns} {s!r}", ln)
            entries[key] = len(entries)
        return cls(entries=entries)


def build_subword_vocab(vocab: Vocab, segmenter,
                        include_word_token: bool) -> SubwordVocab:
    """Union of subword keys over all vocab words (plus word-token keys when
    requested), ids assigned by first occurrence in vocab id order. One
    pass: `dict.fromkeys` dedupes the segmenter's own strings and the
    word-token tuples, which are already the vocab's keys."""
    def units(w):
        return (*segmenter.segment(w), (NS_WORD_TOKEN, w))

    first = dict.fromkeys(itertools.chain.from_iterable(map(
        units if include_word_token else segmenter.segment, vocab.words)))
    return SubwordVocab(entries=dict(zip(first, itertools.count())))
