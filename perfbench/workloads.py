"""The three workloads: seeded input generation (set-up) and one repetition
of each timed pipeline, with the checks on its outputs.

Every call into subtok goes through a module or class attribute looked up at
call time, so the wrappers of the traced run see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import statistics
import string
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# importlib, because `import subtok.train` yields the re-exported function
corpus_mod = importlib.import_module("subtok.corpus")
segment_mod = importlib.import_module("subtok.segment")
model_mod = importlib.import_module("subtok.model")
train_mod = importlib.import_module("subtok.train")
probe_mod = importlib.import_module("subtok.probe")
synth_mod = importlib.import_module("subtok.synth")
cli_mod = importlib.import_module("subtok.cli")

# train-200k: G2's batch and min_count, one epoch per config.
TRAIN_TOKENS = 200_000
TRAIN_DIM = 100
TRAIN_EPOCHS = 1
TRAIN_SUBSAMPLE = 1e-3
TRAIN_CONFIGS = {
    "ft": {"segmenter": "charn", "word_token": True},
    "ft-pos": {"segmenter": "charn", "word_token": True, "position": True},
    "w2v": {"segmenter": "word"},
}
# Starting learning rate per config. At the default 0.025, charn:w+:p+
# diverges: every n-gram of every word in a batch adds its gradient to the
# same few position rows, and the loss EMA climbs from 24.6 to 32.4 nats
# (seed 1). At 0.005 its loss falls from 3.6 to 1.8 nats like ft's.
TRAIN_LR = {"ft": 0.025, "ft-pos": 0.005, "w2v": 0.025}

# segment-zipf19k: every stem x suffix type once, plus Zipfian draws.
SEG_STEMS = 1200
SEG_SUFFIXES = 16
SEG_HELD_OUT_STEMS = 64
SEG_ZIPF_TOKENS = 100_000
SEG_LINE_TOKENS = 12
SEG_BPE_MERGES = 500
# Morfessor-lite repeats its pass while the cost falls, and how often that
# happens depends on the seed: 1 to 4 passes on 20 seeds (seed 208 took
# 25.7 s, seed 201 8.3 s). One pass gives every seed the same work.
SEG_MORF_ITERS = 1

# simulate-grid: 2 WE sizes x 2 task sizes x 3 configs x 2 seeds = 24 cells.
SIM_TOKENS = 50_000
SIM_WE_TOKENS = "10000,50000"
SIM_TASK_INSTANCES = "200,1200"
SIM_CONFIGS = "ft,w2v,bpe1e3:w+:p+"
SIM_SEEDS = "1,2"
SIM_TRAIN_EPOCHS = 1
SIM_DIM = 32


class Checks:
    """Counts checked operations and keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Timer:
    """Accumulates the time spent inside program calls; a named part is also
    kept on its own."""

    def __init__(self):
        self.wall = 0.0
        self.parts: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, part: str | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.wall += elapsed
            if part:
                self.parts[part] = self.parts.get(part, 0.0) + elapsed


@dataclass
class Rep:
    """One repetition: its program time, the values it measured, and the
    counts and digests that every repetition must reproduce exactly."""

    wall_s: float
    values: dict[str, float] = field(default_factory=dict)
    exact: dict[str, object] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_fingerprints(params, prefix: str) -> dict[str, str]:
    return {f"{prefix}.{name}": sha256(np.ascontiguousarray(table).tobytes())
            for name, table in (("subword", params.subword),
                                ("position", params.position),
                                ("context", params.context))}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# train-200k
# ---------------------------------------------------------------------------


def setup_train(seed: int, inputs: Path) -> None:
    bench = synth_mod.make_suffix_benchmark(seed, n_tokens=TRAIN_TOKENS)
    _write(inputs / "corpus.txt", bench.corpus_text())
    _write(inputs / "mentions.tsv", bench.mentions_tsv())
    # the held-out-stem split, which a plain mentions file cannot carry
    _write(inputs / "splits.json", json.dumps(bench.mentions.splits))


def _train_config(name: str, seed: int, threads: int = 1):
    group = corpus_mod.data_group_for(TRAIN_TOKENS)
    return train_mod.TrainConfig(lr_start=TRAIN_LR[name],
                                 epochs=TRAIN_EPOCHS,
                                 batch_size=group.batch_size,
                                 min_count=group.min_count,
                                 subsample_t=TRAIN_SUBSAMPLE, threads=threads,
                                 seed=seed)


def _load_train_inputs(inputs: Path, timer: Timer):
    splits = json.loads((inputs / "splits.json").read_text("utf-8"))
    with timer():
        corpus = corpus_mod.load_corpus(inputs / "corpus.txt")
        vocab = corpus_mod.build_vocab(
            corpus, corpus_mod.data_group_for(TRAIN_TOKENS).min_count)
        loaded = probe_mod.load_mentions(inputs / "mentions.tsv")
        data = probe_mod.MentionDataset.from_examples(loaded.examples,
                                                      splits=splits)
    return corpus, vocab, data


def run_train(seed: int, inputs: Path, work: Path, timer: Timer,
              checks: Checks) -> Rep:
    corpus, vocab, data = _load_train_inputs(inputs, timer)
    exact: dict[str, object] = {}
    pairs, accs = 0, []
    for name, flags in TRAIN_CONFIGS.items():
        config = model_mod.ModelConfig(dim=TRAIN_DIM, seed=seed, **flags)
        ckpt = work / name
        with timer():
            model = model_mod.SubwordModel.build(config, vocab)
        with timer("train"):
            result = train_mod.train(corpus, model, _train_config(name, seed))
        with timer():
            model_mod.save_checkpoint(model, ckpt)
            reloaded = model_mod.load_checkpoint(ckpt)
            model_mod.export_vectors(reloaded, work / f"{name}.vec")
            probe = probe_mod.train_mention_probe(reloaded, data, seed=seed)
            acc = probe_mod.eval_mention_accuracy(probe, reloaded, data,
                                                  "test")
        pairs += result.processed_pairs
        accs.append(acc)

        trace = result.loss_trace
        checks.check(model.params.all_finite(), f"{name}: tables are finite")
        checks.check(len(trace) >= 2 and trace[-1][2] < trace[0][2],
                     f"{name}: last loss-EMA row is below the first "
                     f"({trace[0][2] if trace else None} -> "
                     f"{trace[-1][2] if trace else None})")
        trained = table_fingerprints(model.params, f"fingerprint.{name}")
        checks.check(
            table_fingerprints(reloaded.params, f"fingerprint.{name}")
            == trained, f"{name}: reloaded tables equal the trained ones")
        checks.check(
            all(np.array_equal(probe_mod.mention_features(reloaded, toks),
                               probe_mod.mention_features(model, toks))
                for toks, _ in data.examples),
            f"{name}: the probe's vectors equal the checkpoint's")
        with open(work / f"{name}.vec", encoding="utf-8") as fh:
            checks.check(sum(1 for _ in fh) == len(vocab) + 1,
                         f"{name}: export has one row per vocab word")
        checks.check(0.0 <= acc <= 1.0, f"{name}: accuracy is in [0, 1]")
        exact.update(trained)
        exact[f"train.pairs.{name}"] = result.processed_pairs
        exact[f"oov_test_acc.{name}"] = acc
    values = {"train_pairs_per_s": pairs / timer.parts["train"],
              "oov_test_acc": statistics.fmean(accs)}
    return Rep(timer.wall, values, exact)


def hogwild_train(seed: int, inputs: Path, checks: Checks) -> float:
    """pairs/s of `ft` trained with two lock-free threads. The run is not
    deterministic, so it is neither fingerprinted nor probed."""
    timer = Timer()
    corpus, vocab, _ = _load_train_inputs(inputs, timer)
    config = model_mod.ModelConfig(dim=TRAIN_DIM, seed=seed,
                                   **TRAIN_CONFIGS["ft"])
    model = model_mod.SubwordModel.build(config, vocab)
    with timer("train"):
        result = train_mod.train(corpus, model,
                                 _train_config("ft", seed, threads=2))
    checks.check(model.params.all_finite(), "ft threads=2: tables are finite")
    return result.processed_pairs / timer.parts["train"]


# ---------------------------------------------------------------------------
# segment-zipf19k
# ---------------------------------------------------------------------------


def _random_words(rng, n: int, lo: int, hi: int, taken: set[str]):
    out = []
    while len(out) < n:
        length = int(rng.integers(lo, hi + 1))
        word = "".join(string.ascii_lowercase[i]
                       for i in rng.integers(0, 26, size=length))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _zipf(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def setup_segment(seed: int, inputs: Path) -> None:
    """A stem+suffix corpus in which every stem x suffix type occurs once and
    SEG_ZIPF_TOKENS more tokens draw stem and suffix by Zipf's law; held-out
    words join unseen stems to the same suffixes. The corpus is built as a
    subtok Corpus and written from it, as `subtok.synth` does for the other
    workloads."""
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    suffixes = _random_words(rng, SEG_SUFFIXES, 2, 4, taken)
    stems = _random_words(rng, SEG_STEMS, 4, 7, taken)
    held_stems = _random_words(rng, SEG_HELD_OUT_STEMS, 4, 7, taken)

    gold: dict[str, int] = {}  # word -> stem length; first analysis wins
    for stem in stems:
        for suffix in suffixes:
            gold.setdefault(stem + suffix, len(stem))
    tokens = list(gold)
    si = rng.choice(SEG_STEMS, size=SEG_ZIPF_TOKENS, p=_zipf(SEG_STEMS))
    fi = rng.choice(SEG_SUFFIXES, size=SEG_ZIPF_TOKENS, p=_zipf(SEG_SUFFIXES))
    tokens += [stems[s] + suffixes[f] for s, f in zip(si, fi)]
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    corpus = corpus_mod.Corpus.from_sentences(
        tokens[i:i + SEG_LINE_TOKENS]
        for i in range(0, len(tokens), SEG_LINE_TOKENS))
    held = [s + f for s in held_stems for f in suffixes
            if s + f not in gold]

    _write(inputs / "corpus.txt",
           "".join(" ".join(sent) + "\n" for sent in corpus.sentences))
    _write(inputs / "held_out.txt", "\n".join(held) + "\n")
    _write(inputs / "gold.tsv",
           "".join(f"{w}\t{n}\n" for w, n in gold.items()))


def read_back(subwords: tuple[str, ...]) -> str | None:
    """The word a reader recovers from its BPE subwords: a word ends with
    the subword that ends in the end-of-word marker, which is dropped. None
    when the marker ends any subword but the last, where a reader would
    break the word in two."""
    marker = segment_mod.END_OF_WORD
    if any(s.endswith(marker) for s in subwords[:-1]):
        return None
    return "".join(subwords).removesuffix(marker)


def boundary_f1(analyses: dict[str, tuple[str, ...]],
                gold: dict[str, int]) -> float:
    """F1 of predicted morph boundaries against the gold stem|suffix
    boundary; 0 when nothing is split."""
    hits = predicted = 0
    for word, morphs in analyses.items():
        cuts = set(np.cumsum([len(m) for m in morphs[:-1]]).tolist())
        predicted += len(cuts)
        hits += gold[word] in cuts
    if hits == 0:
        return 0.0
    precision, recall = hits / predicted, hits / len(analyses)
    return 2 * precision * recall / (precision + recall)


def run_segment(seed: int, inputs: Path, work: Path, timer: Timer,
                checks: Checks) -> Rep:
    held = (inputs / "held_out.txt").read_text("utf-8").split()
    gold = {}
    for line in (inputs / "gold.tsv").read_text("utf-8").splitlines():
        word, stem_len = line.split("\t")
        gold[word] = int(stem_len)

    with timer():
        corpus = corpus_mod.load_corpus(inputs / "corpus.txt")
        vocab = corpus_mod.build_vocab(corpus, 1)
        bpe = segment_mod.learn_bpe(vocab, SEG_BPE_MERGES)
        morf = segment_mod.learn_morfessor_lite(vocab, SEG_MORF_ITERS)
        segmenters = {"bpe": bpe, "morf": morf,
                      "charn": segment_mod.CharNgramSegmenter()}
        subword_vocabs = {
            name: segment_mod.build_subword_vocab(vocab, seg, False)
            for name, seg in segmenters.items()}
    with timer("apply_oov"):
        held_segs = {name: [segment_mod.segment_word(seg, w, False)
                            for w in held]
                     for name, seg in segmenters.items()}

    # morf has no end-of-word marker: its morphs simply concatenate
    for name, reader in (("bpe", read_back), ("morf", "".join)):
        wrong = [s.word for s in held_segs[name]
                 if reader(s.subwords) != s.word]
        checks.check(not wrong, f"{name}: held-out segmentations read back "
                     f"to the word ({len(wrong)} do not, e.g. {wrong[:3]})")
    units = unknown = 0
    for name, segs in held_segs.items():
        for seg in segs:
            keys = seg.keys()
            units += len(keys)
            unknown += sum(k not in subword_vocabs[name] for k in keys)
    analyses = {w: morf.segment(w) for w in vocab.words}

    rep = Rep(wall_s=timer.wall)
    rep.values["segment.apply_oov_s"] = timer.parts["apply_oov"]
    rep.values["segment.oov_unknown_rate"] = unknown / units
    rep.values["morf_boundary_f1"] = boundary_f1(analyses, gold)
    rep.exact["vocab.types"] = len(vocab)
    rep.exact["bpe.merges.sha256"] = sha256(repr(bpe.merges).encode())
    rep.exact["morf.lexicon.sha256"] = sha256(
        repr(sorted(morf.morph_lexicon.items())).encode())
    rep.exact["held_out.segmentations.sha256"] = sha256(
        repr({n: [s.subwords for s in segs]
              for n, segs in held_segs.items()}).encode())
    return rep


# ---------------------------------------------------------------------------
# simulate-grid
# ---------------------------------------------------------------------------


def setup_simulate(seed: int, inputs: Path) -> None:
    bench = synth_mod.make_suffix_benchmark(seed, n_tokens=SIM_TOKENS)
    _write(inputs / "corpus.txt", bench.corpus_text())
    _write(inputs / "mentions.tsv", bench.mentions_tsv())


def run_simulate(seed: int, inputs: Path, work: Path, timer: Timer,
                 checks: Checks) -> Rep:
    out = work / "sim"
    argv = ["simulate", "--corpus", str(inputs / "corpus.txt"),
            "--mentions", str(inputs / "mentions.tsv"),
            "--we-tokens", SIM_WE_TOKENS,
            "--task-instances", SIM_TASK_INSTANCES,
            "--configs", SIM_CONFIGS, "--seeds", SIM_SEEDS,
            "--train-epochs", str(SIM_TRAIN_EPOCHS), "--dim", str(SIM_DIM),
            "--subsample-t", "1e-3", "--out", str(out)]
    with timer():
        code = cli_mod.main(argv)
    checks.check(code == 0, f"subtok simulate exits with 0 (got {code})")

    expected = {(we, task, cli_mod.parse_config_label(label).label, seed_)
                for we in SIM_WE_TOKENS.split(",")
                for task in SIM_TASK_INSTANCES.split(",")
                for label in SIM_CONFIGS.split(",")
                for seed_ in SIM_SEEDS.split(",")}
    metrics = out / "metrics.tsv"
    lines = metrics.read_text("utf-8").splitlines() if metrics.exists() \
        else []
    rows = [dict(zip(cli_mod.SIMULATE_COLUMNS, line.split("\t")))
            for line in lines[1:]]
    values = []
    for row in rows:
        ok = row.get("status") == "ok"
        checks.check(ok, f"simulate row is ok: {row}")
        if ok:
            value = float(row["value"])
            checks.check(0.0 <= value <= 1.0,
                         f"simulate accuracy is in [0, 1]: {row}")
            values.append(value)
    cells = [(r.get("we_tokens"), r.get("task_instances"), r.get("config"),
              r.get("seed")) for r in rows if r.get("status") == "ok"]
    checks.check(sorted(cells) == sorted(expected),
                 f"one ok row per cell ({len(cells)} rows for "
                 f"{len(expected)} cells)")

    rep = Rep(wall_s=timer.wall)
    rep.values["grid_test_acc"] = statistics.fmean(values) if values else 0.0
    rep.exact["metrics.tsv.sha256"] = sha256(metrics.read_bytes()) \
        if metrics.exists() else None
    return rep


class Workload(NamedTuple):
    setup: Callable[[int, Path], None]
    run: Callable[[int, Path, Path, Timer, Checks], Rep]


WORKLOADS = {
    "train-200k": Workload(setup_train, run_train),
    "segment-zipf19k": Workload(setup_segment, run_segment),
    "simulate-grid": Workload(setup_simulate, run_simulate),
}

# Values a repetition measures itself; a workload that does not measure one
# reports 0, meaning "not exercised here". The first four are workload-level
# quality and throughput values that an untraced run also prints.
RUN_VALUES = ("train_pairs_per_s", "oov_test_acc", "grid_test_acc",
              "morf_boundary_f1")
LAYER_VALUES = ("segment.apply_oov_s", "segment.oov_unknown_rate")
