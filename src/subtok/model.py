"""Parameter tables and the additive composition that turns a word's subword
sequence into its vector, plus export and checkpoint formats."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subtok.corpus import Vocab
from subtok.errors import ConfigError, FormatError, SubtokError
from subtok.segment import (
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
    segment_word,
)

SEGMENTER_KINDS = ("morf", "bpe", "charn", "word")

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

    def all_finite(self) -> bool:
        return (np.isfinite(self.subword).all()
                and np.isfinite(self.position).all()
                and np.isfinite(self.context).all())

    def subtract_composed(self, grad, step, counts, sub_ids, pos_ids,
                          wt_ids) -> None:
        """SGD step through additive composition: word i's gradient row
        grad[i] goes unchanged into each of its counts[i] rows of `sub_ids`,
        into the aligned `pos_ids` rows unless pos_ids is None (p-), and
        into its word-token row unless wt_ids[i] is -1."""
        upd = step * grad
        per_row = np.repeat(upd, counts, axis=0)
        scatter_subtract(self.subword, sub_ids, per_row)
        if pos_ids is not None:
            scatter_subtract(self.position, pos_ids, per_row)
        has_wt = wt_ids >= 0
        scatter_subtract(self.subword, wt_ids[has_wt], upd[has_wt])


def scatter_subtract(table: np.ndarray, rows: np.ndarray,
                     vals: np.ndarray) -> None:
    """table[rows[i]] -= vals[i] for each i in turn, repeated rows included.

    The C-contiguous table is updated through its flat view with one index
    per element, which keeps `np.subtract.at` on numpy's fast 1-D path; the
    2-D form does the same subtractions in the same order several times
    slower. `vals` should have the table's dtype: values of another dtype
    take numpy's slower casting path."""
    d = table.shape[1]
    flat = (rows * d)[:, None] + np.arange(d)
    np.subtract.at(table.reshape(-1, copy=False), flat.reshape(-1),
                   vals.reshape(-1))


def init_params(config: ModelConfig, subword_vocab: SubwordVocab,
                vocab: Vocab) -> ParamTables:
    """Subword and position rows i.i.d. uniform on [-0.5/d, +0.5/d] from the
    seeded generator; context rows zero."""
    if len(subword_vocab) == 0 or len(vocab) == 0:
        raise ValueError("vocabularies must be non-empty")
    d = config.dim
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / d
    sub = rng.uniform(-bound, bound, size=(len(subword_vocab), d))
    pos = rng.uniform(-bound, bound, size=(config.max_positions, d))
    ctx = np.zeros((len(vocab), d))
    return ParamTables(subword=sub.astype(np.float32),
                       position=pos.astype(np.float32),
                       context=ctx.astype(np.float32))


def build_segmenter(config: ModelConfig, vocab: Vocab, max_iters: int = 10):
    if config.segmenter == "bpe":
        return learn_bpe(vocab, config.num_merges)
    if config.segmenter == "morf":
        return learn_morfessor_lite(vocab, max_iters=max_iters)
    if config.segmenter == "charn":
        return CharNgramSegmenter(config.ngram_min, config.ngram_max)
    return WholeWordSegmenter()


def build_segmentation(config: ModelConfig, vocab: Vocab,
                       morf_max_iters: int = 10):
    """(segmenter, subword vocab) of `config` over `vocab`. They depend only
    on the segmenter fields and `word_token`, not on the seed or the
    tables, so models that differ in nothing else can share them."""
    segmenter = build_segmenter(config, vocab, max_iters=morf_max_iters)
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

    @property
    def all_unknown(self) -> bool:
        return self.sub_ids.size == 0 and self.word_token_id < 0


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
    def build(cls, config: ModelConfig, vocab: Vocab,
              morf_max_iters: int = 10) -> "SubwordModel":
        segmenter, svocab = build_segmentation(config, vocab, morf_max_iters)
        return cls(config, vocab, svocab, segmenter)

    # -- segmentation / index resolution ------------------------------------

    def segmentation(self, word: str):
        return segment_word(self.segmenter, word, self.config.word_token)

    def word_indices(self, word: str) -> WordIndices:
        hit = self._index_cache.get(word)
        if hit is None:
            hit = self._resolve(word)
            self._index_cache[word] = hit
        return hit

    def _resolve(self, word: str) -> WordIndices:
        seg = self.segmentation(word)
        sub_ids, pos_ids = [], []
        unknown = 0
        maxpos = self.config.max_positions
        for i, s in enumerate(seg.subwords):
            sid = self.subword_vocab.get((NS_SUBWORD, s))
            if sid is None:
                unknown += 1
            else:
                sub_ids.append(sid)
                pos_ids.append(min(i, maxpos - 1))
        wt_id = -1
        if seg.includes_word_token:
            wt = self.subword_vocab.get((NS_WORD_TOKEN, word))
            if wt is None:
                unknown += 1
            else:
                wt_id = wt
        return WordIndices(sub_ids=np.asarray(sub_ids, dtype=np.int64),
                           pos_ids=np.asarray(pos_ids, dtype=np.int64),
                           word_token_id=wt_id, unknown=unknown)

    # -- composition --------------------------------------------------------

    def compose(self, idx: WordIndices) -> np.ndarray:
        """Sum of subword rows (plus clamped position rows under p+) plus the
        word-token row under w+. All-unknown words compose to zero."""
        vec = np.zeros(self.config.dim, dtype=np.float32)
        if idx.sub_ids.size:
            vec += self.params.subword[idx.sub_ids].sum(axis=0)
            if self.config.position:
                vec += self.params.position[idx.pos_ids].sum(axis=0)
        if idx.word_token_id >= 0:
            vec += self.params.subword[idx.word_token_id]
        return vec

    def word_vector(self, word: str) -> np.ndarray:
        return self.compose(self.word_indices(word))

    def word_vector_checked(self, word: str) -> tuple[np.ndarray, bool]:
        """(vector, all_unknown). All-unknown words yield the zero vector."""
        idx = self.word_indices(word)
        return self.compose(idx), idx.all_unknown

    def apply_composed_grad(self, idx: WordIndices, grad: np.ndarray,
                            lr: float) -> None:
        """SGD step distributing a gradient w.r.t. the composed vector
        unchanged to every constituent row (chain rule through addition)."""
        self.params.subtract_composed(
            grad[None], lr, [idx.sub_ids.size], idx.sub_ids,
            idx.pos_ids if self.config.position else None,
            np.array([idx.word_token_id]))


# ---------------------------------------------------------------------------
# Text vector export
# ---------------------------------------------------------------------------


def export_vectors(model: SubwordModel, sink) -> None:
    """word2vec-style text format: header `|V| d`, then one line per word in
    vocab-id order with 6-decimal fixed notation."""
    vocab = model.vocab
    if len(vocab) == 0:
        raise SubtokError("refusing to export an empty vocabulary")
    close = False
    if isinstance(sink, (str, Path)):
        path = sink
        try:
            sink = open(sink, "w", encoding="utf-8")
        except OSError as exc:
            raise SubtokError(f"cannot write vectors to {path}: {exc}") from exc
        close = True
    try:
        sink.write(f"{len(vocab)} {model.config.dim}\n")
        for w in vocab.words:
            vec = model.word_vector(w)
            sink.write(w + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    finally:
        if close:
            sink.close()


def load_vectors(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("expected `<count> <dim>` header", 1)
        n, d = int(header[0]), int(header[1])
        words, rows = [], []
        for ln, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise FormatError(f"expected word + {d} values", ln)
            words.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
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


CONFIG_KEYS = ("segmenter", "num_merges", "ngram_min", "ngram_max",
               "word_token", "position", "dim", "max_positions", "seed")


def _config_to_text(config: ModelConfig) -> str:
    lines = []
    for key in CONFIG_KEYS:
        lines.append(f"{key}={getattr(config, key)}")
    return "\n".join(lines) + "\n"


def _config_from_text(text: str) -> ModelConfig:
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"bad config line {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    missing = [k for k in CONFIG_KEYS if k not in kv]
    if missing:
        raise FormatError("config.txt lacks "
                          + ", ".join(f"{k}=" for k in missing))
    def as_bool(s):
        return s in ("True", "true", "1", "yes")
    return ModelConfig(
        segmenter=kv["segmenter"],
        num_merges=int(kv["num_merges"]),
        ngram_min=int(kv["ngram_min"]),
        ngram_max=int(kv["ngram_max"]),
        word_token=as_bool(kv["word_token"]),
        position=as_bool(kv["position"]),
        dim=int(kv["dim"]),
        max_positions=int(kv["max_positions"]),
        seed=int(kv["seed"]),
    )


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
    if isinstance(model.segmenter, BpeModel):
        model.segmenter.save(ckpt / "bpe.txt")
    elif isinstance(model.segmenter, MorfModel):
        model.segmenter.save(ckpt / "morf.tsv")
    _write_matrix(ckpt / "subword.mat", model.params.subword)
    _write_matrix(ckpt / "position.mat", model.params.position)
    _write_matrix(ckpt / "context.mat", model.params.context)


def load_checkpoint(ckpt_dir: str | Path) -> SubwordModel:
    ckpt = Path(ckpt_dir)
    if not (ckpt / "config.txt").exists():
        raise FormatError(f"no checkpoint at {ckpt_dir} (missing config.txt)")
    config = _config_from_text((ckpt / "config.txt").read_text("utf-8"))
    vocab = Vocab.load_tsv(ckpt / "vocab.tsv")
    svocab = SubwordVocab.load_tsv(ckpt / "subwords.tsv")
    if config.segmenter == "bpe":
        segmenter = BpeModel.load(ckpt / "bpe.txt")
    elif config.segmenter == "morf":
        segmenter = MorfModel.load(ckpt / "morf.tsv")
    elif config.segmenter == "charn":
        segmenter = CharNgramSegmenter(config.ngram_min, config.ngram_max)
    else:
        segmenter = WholeWordSegmenter()
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
