"""Parameter tables and the additive composition that turns a word's subword
sequence into its vector, plus export and checkpoint formats. The
composition is written once, in `_WordCSR.compose`: training, `compose`,
`word_vector`, `vectors`, export and the probes all call it."""

from __future__ import annotations

import copy
import dataclasses
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from subtok.corpus import Vocab
from subtok.errors import (
    ConfigError,
    FormatError,
    SubtokError,
    load_file,
    nonnegative_int,
    read_fields,
    read_lines,
)
from subtok.segment import (
    MORF_MAX_ITERS,
    NS_SUBWORD,
    NS_WORD_TOKEN,
    BpeModel,
    CharNgramSegmenter,
    MorfModel,
    SubwordVocab,
    WholeWordSegmenter,
    build_subword_vocab,
    learn_bpe,
    learn_morfessor_lite,
)

SEGMENTER_KINDS = ("morf", "bpe", "charn", "word")

# learned segmenter kind -> (its file's default name, the file's loader)
SEGMENTER_FILES = {"bpe": ("bpe.txt", BpeModel.load),
                   "morf": ("morf.tsv", MorfModel.load)}

MATRIX_MAGIC = b"STM1"


@dataclass(frozen=True)
class ModelConfig:
    """Which segmenter, whether the word token (w+) and additive positions
    (p+) are used, and the table dimensions. Composition is always addition;
    the context dimension equals d."""

    segmenter: str = "charn"  # morf | bpe | charn | word
    num_merges: int = 10_000  # bpe only
    ngram_min: int = 3  # charn only
    ngram_max: int = 6
    word_token: bool = False
    position: bool = False
    dim: int = 100
    max_positions: int = 20
    seed: int = 1

    def __post_init__(self):
        if self.segmenter not in SEGMENTER_KINDS:
            raise ConfigError(f"unknown segmenter {self.segmenter!r}")
        if self.dim < 1 or self.max_positions < 1:
            raise ConfigError("dim and max_positions must be >= 1")
        if self.num_merges < 1:
            raise ConfigError("num_merges must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ConfigError("need 1 <= ngram_min <= ngram_max")

    @property
    def label(self) -> str:
        """Config label like `bpe1e4:w+:p-`."""
        seg = self.segmenter
        if seg == "bpe":
            exp = np.log10(self.num_merges)
            if exp == int(exp):
                seg = f"bpe1e{int(exp)}"
            else:
                seg = f"bpe{self.num_merges}"
        w = "w+" if self.word_token else "w-"
        p = "p+" if self.position else "p-"
        return f"{seg}:{w}:{p}"


@dataclass
class ParamTables:
    """Subword embeddings (|S| x d), additive position table
    (max_positions x d), and the word-level context matrix (|V| x d)."""

    subword: np.ndarray
    position: np.ndarray
    context: np.ndarray

    def copy(self) -> "ParamTables":
        return ParamTables(self.subword.copy(), self.position.copy(),
                           self.context.copy())

    @classmethod
    def stack(cls, tables: list["ParamTables"]) -> "ParamTables":
        """Each table of `tables`, stacked row-wise in list order."""
        return cls(*(np.vstack([getattr(t, name) for t in tables])
                     for name in ("subword", "position", "context")))

    def all_finite(self) -> bool:
        return (np.isfinite(self.subword).all()
                and np.isfinite(self.position).all()
                and np.isfinite(self.context).all())

    def subtract_composed(self, grad, step, counts, sub_ids, pos_ids,
                          wt_ids) -> None:
        """SGD step through additive composition: word i's gradient row
        grad[i] goes unchanged into each of its counts[i] rows of `sub_ids`,
        into the aligned `pos_ids` rows unless pos_ids is None (p-), and
        into its word-token row unless wt_ids is None or wt_ids[i] is -1.
        `step` is one learning rate or a column of one per word."""
        upd = step * grad
        per_row = np.repeat(upd, counts, axis=0)
        scatter_subtract(self.subword, sub_ids, per_row)
        if pos_ids is not None:
            scatter_subtract(self.position, pos_ids, per_row)
        if wt_ids is not None:
            has_wt = wt_ids >= 0
            scatter_subtract(self.subword, wt_ids[has_wt], upd[has_wt])


# float dtype -> the complex dtype that holds two of its values
_PAIR_DTYPES = {np.dtype(np.float32): np.dtype(np.complex64),
                np.dtype(np.float64): np.dtype(np.complex128)}


def scatter_subtract(table: np.ndarray, rows: np.ndarray,
                     vals: np.ndarray) -> None:
    """table[rows[i]] -= vals[i] for each i in turn, repeated rows included.

    The C-contiguous table is updated through its flat view with one index
    per element, which keeps `np.subtract.at` on numpy's fast 1-D path; the
    2-D form does the same subtractions in the same order several times
    slower.

    When the width is even and `vals` has the table's dtype (float32 or
    float64), the flat table and `vals` are viewed as column pairs: complex
    numbers of twice the item size. That halves both the index array and
    the elements `np.subtract.at` visits. It is exact: complex subtraction
    subtracts the real parts and the imaginary parts separately, and
    `ufunc.at` keeps its element order, so every float gets the same
    subtractions in the same order. An odd width or another dtype of `vals`
    takes the float path; values of another dtype also take numpy's slower
    casting path. `_WordCSR.compose` keeps float rows: its `np.add.reduceat`
    over the pair view is not exact and changes the trained tables."""
    d = table.shape[1]
    flat_table, flat_vals = table.reshape(-1, copy=False), vals.reshape(-1)
    pair = _PAIR_DTYPES.get(table.dtype)
    if d % 2 == 0 and pair is not None and vals.dtype == table.dtype:
        d //= 2
        flat_table = flat_table.view(pair)
        flat_vals = np.ascontiguousarray(flat_vals).view(pair)
    flat = (rows * d)[:, None] + np.arange(d)
    np.subtract.at(flat_table, flat.reshape(-1), flat_vals)


def init_params(config: ModelConfig, subword_vocab: SubwordVocab,
                vocab: Vocab) -> ParamTables:
    """Subword and position rows i.i.d. uniform on [-0.5/d, +0.5/d] from the
    seeded generator; context rows zero."""
    d = config.dim
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / d
    sub = rng.uniform(-bound, bound, size=(len(subword_vocab), d))
    pos = rng.uniform(-bound, bound, size=(config.max_positions, d))
    ctx = np.zeros((len(vocab), d))
    return ParamTables(subword=sub.astype(np.float32),
                       position=pos.astype(np.float32),
                       context=ctx.astype(np.float32))


def build_segmenter(config: ModelConfig, vocab: Vocab | None,
                    max_iters: int = MORF_MAX_ITERS):
    if config.segmenter == "bpe":
        return learn_bpe(vocab, config.num_merges)
    if config.segmenter == "morf":
        return learn_morfessor_lite(vocab, max_iters=max_iters)
    if config.segmenter == "charn":
        # building the subword vocab and resolving the model's rows both
        # read every vocab word's n-grams; with no vocab it keeps none
        words = vocab.words if vocab is not None else ()
        return CharNgramSegmenter.keeping(words, config.ngram_min,
                                          config.ngram_max)
    return WholeWordSegmenter()


def build_segmentation(config: ModelConfig, vocab: Vocab):
    """(segmenter, subword vocab) of `config` over `vocab`. They depend only
    on the segmenter fields and `word_token`, not on the seed or the
    tables, so models that differ in nothing else can share them."""
    segmenter = build_segmenter(config, vocab)
    return segmenter, build_subword_vocab(vocab, segmenter,
                                          config.word_token)


@dataclass(frozen=True)
class WordIndices:
    """Resolved table rows for one word: subword row ids, aligned position
    row ids, the word-token row (or -1), and how many segmentation elements
    were unknown."""

    sub_ids: np.ndarray  # int64
    pos_ids: np.ndarray  # int64, aligned with sub_ids
    word_token_id: int
    unknown: int


class _WordCSR:
    """Flattened per-word subword/position row ids (CSR layout) and
    word-token rows for batched gathering; `position` says whether the
    position rows take part (p+), `word_token` whether any word has a
    word-token row (w+ in practice)."""

    def __init__(self, words, indices: list[WordIndices], position: bool):
        self.words = words
        self.position = position
        empty = np.empty(0, dtype=np.int64)
        self.flat_sub = np.concatenate([empty] + [i.sub_ids for i in indices])
        self.flat_pos = np.concatenate([empty] + [i.pos_ids for i in indices])
        self.lens = np.asarray([i.sub_ids.size for i in indices],
                               dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.lens)[:-1]))
        self.wt_ids = np.asarray([i.word_token_id for i in indices],
                                 dtype=np.int64)
        self.word_token = bool((self.wt_ids >= 0).any())

    @classmethod
    def of_model(cls, model: "SubwordModel", words=None) -> "_WordCSR":
        words = model.vocab.words if words is None else words
        return cls(words, model.indices_of(words), model.config.position)

    def stacked(self, copies: int, sub_rows: int,
                pos_rows: int) -> "_WordCSR":
        """This layout `copies` times over, for tables stacked row-wise:
        copy m's word i is row m * len(words) + i, and its subword,
        word-token and position ids are shifted by m * sub_rows and
        m * pos_rows."""
        out = copy.copy(self)
        shift = np.arange(copies)[:, None]
        out.words = list(self.words) * copies
        out.flat_sub = (self.flat_sub + shift * sub_rows).reshape(-1)
        out.flat_pos = (self.flat_pos + shift * pos_rows).reshape(-1)
        out.lens = np.tile(self.lens, copies)
        out.starts = np.concatenate(([0], np.cumsum(out.lens)[:-1]))
        out.wt_ids = np.where(self.wt_ids >= 0, self.wt_ids + shift * sub_rows,
                              -1).reshape(-1)
        return out

    def gather(self, words: np.ndarray):
        """The table rows of `words` (row numbers of this layout), word by
        word in the order given: (counts, sub_ids, pos_ids, wt_ids), the
        layout that `ParamTables.subtract_composed` takes, pos_ids None
        under p- and wt_ids None when no word has a word-token row."""
        counts = self.lens[words]
        heads = np.cumsum(counts) - counts
        gather = (np.arange(counts.sum())
                  + np.repeat(self.starts[words] - heads, counts))
        pos_ids = self.flat_pos[gather] if self.position else None
        wt_ids = self.wt_ids[words] if self.word_token else None
        return counts, self.flat_sub[gather], pos_ids, wt_ids

    def compose(self, params: ParamTables, words: np.ndarray):
        """(vectors, rows) of `words` (row numbers of this layout): vector
        i is the sum of word i's subword rows, plus the sum of its position
        rows under p+, plus its word-token row under w+; a word with no
        rows composes to zero. `rows` is `gather(words)`."""
        rows = counts, sub_ids, pos_ids, wt_ids = self.gather(words)
        # reduceat would give an empty word the next word's first row
        filled = counts > 0
        heads = (np.cumsum(counts) - counts)[filled]
        vecs = np.zeros((words.size, params.subword.shape[1]),
                        dtype=params.subword.dtype)
        vecs[filled] = np.add.reduceat(params.subword[sub_ids], heads, axis=0)
        if pos_ids is not None:
            vecs[filled] += np.add.reduceat(params.position[pos_ids], heads,
                                            axis=0)
        if wt_ids is not None:
            has_wt = wt_ids >= 0
            vecs[has_wt] += params.subword[wt_ids[has_wt]]
        return vecs, rows


class SubwordModel:
    """Bundle of config, vocabularies, segmenter, and parameter tables with
    the composition surface used by training and probing."""

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 subword_vocab: SubwordVocab, segmenter,
                 params: ParamTables | None = None):
        self.config = config
        self.vocab = vocab
        self.subword_vocab = subword_vocab
        self.segmenter = segmenter
        self.params = params if params is not None else init_params(
            config, subword_vocab, vocab)
        self._index_cache: dict[str, WordIndices] = {}

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocab) -> "SubwordModel":
        segmenter, svocab = build_segmentation(config, vocab)
        return cls(config, vocab, svocab, segmenter)

    def with_seed(self, seed: int) -> "SubwordModel":
        """A sibling: this model's vocab, subword vocab, segmenter and
        resolved word indices, and fresh tables from `seed`."""
        sibling = SubwordModel(dataclasses.replace(self.config, seed=seed),
                               self.vocab, self.subword_vocab, self.segmenter)
        sibling._index_cache = self._index_cache
        return sibling

    # -- index resolution ---------------------------------------------------

    def indices_of(self, words) -> list[WordIndices]:
        """The WordIndices of each of `words`, resolving in one pass every
        word the cache lacks."""
        cache = self._index_cache
        new = [w for w in dict.fromkeys(words) if w not in cache]
        if new:
            self._resolve(new)
        return [cache[w] for w in words]

    def _resolve(self, words: list[str]) -> None:
        """Cache the WordIndices of each of `words`, as views of arrays
        shared by the batch. Each word is segmented once. A subword that the
        vocab has gets its row and, as position, its index in the word's
        full segmentation (unknown subwords count) clipped to
        max_positions - 1; an unknown subword or word token counts in
        `unknown`."""
        if not all(words):
            raise ValueError("word must be non-empty")
        segs = [self.segmenter.segment(w) for w in words]
        get = self.subword_vocab.entries.get
        ids = np.array([get((NS_SUBWORD, s), -1) for seg in segs for s in seg],
                       dtype=np.int64)
        seg_lens = np.array([len(seg) for seg in segs], dtype=np.int64)
        offsets = np.arange(ids.size) - np.repeat(np.cumsum(seg_lens)
                                                  - seg_lens, seg_lens)
        known = ids >= 0
        sub_ids = ids[known]
        pos_ids = np.minimum(offsets[known], self.config.max_positions - 1)
        lens = np.bincount(np.repeat(np.arange(len(words)), seg_lens)[known],
                           minlength=len(words))
        unknown = seg_lens - lens
        wt_ids = np.full(len(words), -1, dtype=np.int64)
        if self.config.word_token:
            wt_ids[:] = [get((NS_WORD_TOKEN, w), -1) for w in words]
            unknown += wt_ids < 0
        ends = np.cumsum(lens).tolist()
        spans = [slice(start, end)
                 for start, end in zip([0] + ends[:-1], ends)]
        self._index_cache.update(zip(words, map(
            WordIndices, [sub_ids[s] for s in spans],
            [pos_ids[s] for s in spans], wt_ids.tolist(), unknown.tolist())))

    # -- composition --------------------------------------------------------

    def vectors(self, words) -> np.ndarray:
        """Composed vectors of `words`, one row each, in one batched call. A
        vector that is not finite raises SubtokError naming its word."""
        csr = _WordCSR.of_model(self, words)
        vecs = csr.compose(self.params, np.arange(len(words)))[0]
        bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
        if bad.size:
            raise SubtokError(f"the vector of {words[bad[0]]!r} is not finite")
        return vecs

    def compose(self, idx: WordIndices) -> np.ndarray:
        """The composed vector of one word's resolved rows."""
        csr = _WordCSR([None], [idx], self.config.position)
        return csr.compose(self.params, np.zeros(1, dtype=np.int64))[0][0]

    def word_vector(self, word: str) -> np.ndarray:
        return self.vectors([word])[0]


# ---------------------------------------------------------------------------
# Text vector export
# ---------------------------------------------------------------------------


def export_vectors(model: SubwordModel, path: str | Path) -> None:
    """word2vec-style text format: header `|V| d`, then one line per word in
    vocab-id order with 6-decimal fixed notation."""
    vocab = model.vocab
    d = model.config.dim
    # one %-format per row over Python floats, each exactly its float32
    row_format = "%s " + " ".join(["%.6f"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {d}\n")
        for w, vec in zip(vocab.words, model.vectors(vocab.words)):
            fh.write(row_format % (w, *vec.tolist()))


def load_vectors(path: str | Path) -> tuple[list[str], np.ndarray]:
    lines = read_lines(path, "vectors file")
    header = next(lines, "").split()
    if len(header) != 2:
        raise FormatError("expected `<count> <dim>` header", 1)
    n = nonnegative_int(header[0], "row count", 1)
    d = nonnegative_int(header[1], "dimension", 1)
    words, rows = [], []
    for ln, parts in read_fields(lines, "vectors file", " ", d + 1,
                                 f"expected word + {d} values", first_line=2):
        words.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise FormatError(str(exc), ln) from None
    if len(words) != n:
        raise FormatError(f"header says {n} rows, file has {len(words)}")
    return words, np.asarray(rows, dtype=np.float32)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    mat = np.ascontiguousarray(mat, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<III", mat.shape[0], mat.shape[1], 0))
        fh.write(mat.tobytes())


def _read_matrix(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != MATRIX_MAGIC:
            raise FormatError(f"bad matrix header in {path}")
        rows, cols, _ = struct.unpack("<III", header[4:])
        data = np.frombuffer(fh.read(rows * cols * 4), dtype="<f4")
    if data.size != rows * cols:
        raise FormatError(f"truncated matrix file {path}")
    return data.reshape(rows, cols).copy()


def _config_to_text(config: ModelConfig) -> str:
    return "".join(f"{f.name}={getattr(config, f.name)}\n"
                   for f in fields(config))


# config.txt spellings of a bool; _config_to_text writes True and False
_BOOLS = {"True": True, "true": True, "1": True, "yes": True,
          "False": False, "false": False, "0": False, "no": False}


def _read_config(path: Path) -> ModelConfig:
    """The ModelConfig of a `key=value` config.txt: every field must be
    given, ints as non-negative numbers and bools spelled as in _BOOLS;
    comment lines start with #. An out-of-range value is a FormatError."""
    kv = {}
    for ln, line in enumerate(read_lines(path, "checkpoint config"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"bad config line {line!r}", ln)
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip(), ln
    keys = fields(ModelConfig)
    missing = [f.name for f in keys if f.name not in kv]
    if missing:
        raise FormatError("missing " + ", ".join(f"{k}=" for k in missing))
    values = {}
    for f in keys:
        value, ln = kv[f.name]
        if isinstance(f.default, bool):
            if value not in _BOOLS:
                raise FormatError(f"{f.name} must be one of "
                                  f"{'/'.join(_BOOLS)}, got {value!r}", ln)
            value = _BOOLS[value]
        elif isinstance(f.default, int):
            value = nonnegative_int(value, f.name, ln)
        values[f.name] = value
    try:
        return ModelConfig(**values)
    except ConfigError as exc:
        raise FormatError(str(exc)) from exc


def save_checkpoint(model: SubwordModel, ckpt_dir: str | Path) -> None:
    """Checkpoint directory: key=value config, vocab and subword-vocab TSVs,
    the segmenter model file (when the segmenter is learned), and three
    binary float32 matrices."""
    ckpt = Path(ckpt_dir)
    ckpt.mkdir(parents=True, exist_ok=True)
    (ckpt / "config.txt").write_text(_config_to_text(model.config),
                                     encoding="utf-8")
    model.vocab.save_tsv(ckpt / "vocab.tsv")
    model.subword_vocab.save_tsv(ckpt / "subwords.tsv")
    if model.config.segmenter in SEGMENTER_FILES:
        model.segmenter.save(ckpt / SEGMENTER_FILES[model.config.segmenter][0])
    _write_matrix(ckpt / "subword.mat", model.params.subword)
    _write_matrix(ckpt / "position.mat", model.params.position)
    _write_matrix(ckpt / "context.mat", model.params.context)


def load_checkpoint(ckpt_dir: str | Path) -> SubwordModel:
    ckpt = Path(ckpt_dir)
    if not (ckpt / "config.txt").exists():
        raise FormatError(f"no checkpoint at {ckpt_dir} (missing config.txt)")
    config = load_file(_read_config, ckpt / "config.txt")
    vocab = load_file(Vocab.load_tsv, ckpt / "vocab.tsv")
    svocab = load_file(SubwordVocab.load_tsv, ckpt / "subwords.tsv")
    if config.segmenter in SEGMENTER_FILES:
        name, load = SEGMENTER_FILES[config.segmenter]
        segmenter = load_file(load, ckpt / name)
    else:  # a loaded subword vocab is not built again, so no vocab word's
        # n-grams are read twice: the segmenter need keep none
        segmenter = build_segmenter(config, None)
    params = ParamTables(subword=_read_matrix(ckpt / "subword.mat"),
                         position=_read_matrix(ckpt / "position.mat"),
                         context=_read_matrix(ckpt / "context.mat"))
    # rows: subword vocab, config max_positions, word vocab; columns: dim
    for name, rows in (("subword", len(svocab)),
                       ("position", config.max_positions),
                       ("context", len(vocab))):
        shape = getattr(params, name).shape
        if shape != (rows, config.dim):
            raise FormatError(f"{name} matrix is {shape[0]}x{shape[1]}; "
                              f"config and vocab need {rows}x{config.dim}")
    return SubwordModel(config, vocab, svocab, segmenter, params)
