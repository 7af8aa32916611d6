"""Command-line orchestration: vocab building, segmenter training, embedding
training, probing, and the data-scarcity simulation grid.

Exit codes: 0 success, 1 bad input (single-line diagnostic), including a
file that cannot be read or written, 2 internal error. Partial artifacts
are removed when a command fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import multiprocessing
import os
import shutil
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from subtok.corpus import (
    build_vocab,
    data_group_for,
    load_corpus,
    sample_tokens,
)
from subtok.errors import FormatError, SubtokError, load_file, read_lines
from subtok.model import (
    ModelConfig,
    SubwordModel,
    build_segmentation,
    build_segmenter,
    export_vectors,
    load_checkpoint,
    save_checkpoint,
)
from subtok.probe import (
    eval_mention_accuracy,
    eval_tag_accuracy,
    load_conll,
    load_mentions,
    span_f1,
    tag_sentences,
    train_mention_probe,
    train_tagger_probe,
    write_metrics,
)
from subtok.segment import BpeModel, MorfModel, segment_word
from subtok.train import TrainConfig, train

SIMULATE_COLUMNS = [
    "we_tokens", "task_instances", "config", "seed", "group", "batch_size",
    "epochs", "min_count", "task", "split", "metric", "value", "status",
]

CONFIG_ALIASES = {
    "w2v": "word:w-:p-",  # subword-agnostic skip-gram baseline
    "ft": "charn:w+:p-",  # fastText-style configuration
}


class ArtifactGuard:
    """Tracks artifacts written by a command so they can be removed if the
    command fails part-way."""

    def __init__(self):
        self.paths: list[Path] = []

    def register(self, path) -> Path:
        p = Path(path)
        self.paths.append(p)
        return p

    def cleanup(self):
        for p in self.paths:
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            elif p.exists():
                p.unlink(missing_ok=True)


def data_dir() -> Path:
    return Path(os.environ.get("SUBTOK_DATA_DIR", "."))


def default_out(args, name: str) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return data_dir() / name


def parse_config_label(label: str) -> ModelConfig:
    """Parse `seg[:w+|w-][:p+|p-]` (seg in morf|charn|word|bpeN|bpe1eK) or
    the aliases w2v / ft into a ModelConfig."""
    label = CONFIG_ALIASES.get(label, label)
    parts = label.split(":")
    seg = parts[0]
    kwargs: dict = {"word_token": False, "position": False}
    if seg.startswith("bpe"):
        kwargs["segmenter"] = "bpe"
        suffix = seg[3:]
        try:
            merges = float(suffix)
        except ValueError:
            merges = math.nan
        if not merges.is_integer():
            raise SubtokError(
                f"bpe config label needs a whole merge count: {label!r}")
        kwargs["num_merges"] = int(merges)
    elif seg in ("morf", "charn", "word"):
        kwargs["segmenter"] = seg
    else:
        raise SubtokError(f"unknown config label {label!r}")
    for part in parts[1:]:
        if part == "w+":
            kwargs["word_token"] = True
        elif part == "w-":
            kwargs["word_token"] = False
        elif part == "p+":
            kwargs["position"] = True
        elif part == "p-":
            kwargs["position"] = False
        else:
            raise SubtokError(f"unknown config flag {part!r} in {label!r}")
    return ModelConfig(**kwargs)


def model_config_from_args(args) -> ModelConfig:
    return ModelConfig(
        segmenter=args.seg,
        num_merges=args.merges,
        ngram_min=args.ngram_min,
        ngram_max=args.ngram_max,
        word_token=args.word_token,
        position=args.position,
        dim=args.dim,
        max_positions=args.max_positions,
        seed=args.seed,
    )


def train_config(args, group, seed: int, epochs=None, batch_size=None,
                 min_count=None) -> TrainConfig:
    """TrainConfig from the shared training flags. An epoch count of None
    falls back to the data group's (0 epochs is honoured); a batch size or
    min count of None or 0 falls back to the group's."""
    return TrainConfig(
        window=args.window, negatives=args.negatives, lr_start=args.lr,
        epochs=group.epochs if epochs is None else epochs,
        batch_size=batch_size or group.batch_size,
        min_count=min_count or group.min_count,
        subsample_t=args.subsample_t, seed=seed)


def add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--seg", choices=("morf", "bpe", "charn", "word"),
                   default="charn")
    p.add_argument("--merges", type=int, default=10_000,
                   help="BPE merge operations (bpe only)")
    p.add_argument("--ngram-min", type=int, default=3)
    p.add_argument("--ngram-max", type=int, default=6)
    p.add_argument("--word-token", action=argparse.BooleanOptionalAction,
                   default=False, help="append the word itself (w+/w-)")
    p.add_argument("--position", action=argparse.BooleanOptionalAction,
                   default=False, help="additive position embeddings (p+/p-)")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--max-positions", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)


def add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--subsample-t", type=float, default=1e-5)
    p.add_argument("--epochs", type=int, default=None,
                   help="override the data-group epoch count")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--min-count", type=int, default=None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _corpus_prefix(corpus, we_tokens):
    """The first `we_tokens` tokens of the corpus, or all of it for None."""
    if we_tokens is None:
        return corpus
    if we_tokens < 1:
        raise SubtokError("--we-tokens must be >= 1")
    return sample_tokens(corpus, we_tokens)


def cmd_vocab(args, guard: ArtifactGuard) -> int:
    corpus = _corpus_prefix(load_corpus(args.corpus), args.we_tokens)
    vocab = build_vocab(corpus, args.min_count)
    out = guard.register(default_out(args, "vocab.tsv"))
    vocab.save_tsv(out)
    print(f"wrote {len(vocab)} entries to {out}")
    return 0


def cmd_segment_learn(args, guard: ArtifactGuard) -> int:
    corpus = load_corpus(args.corpus)
    vocab = build_vocab(corpus, args.min_count)
    if args.seg == "bpe":
        model = build_segmenter(
            ModelConfig(segmenter="bpe", num_merges=args.merges), vocab)
        out = guard.register(default_out(args, "bpe.txt"))
        model.save(out)
        print(f"learned {len(model.merges)} merges -> {out}")
    elif args.seg == "morf":
        model = build_segmenter(ModelConfig(segmenter="morf"), vocab,
                                max_iters=args.max_iters)
        out = guard.register(default_out(args, "morf.tsv"))
        model.save(out)
        print(f"learned {len(model.morph_lexicon)} morphs "
              f"(cost {model.corpus_cost:.2f}) -> {out}")
    else:
        raise SubtokError(f"segmenter {args.seg!r} requires no learning")
    return 0


def _load_segmenter(args):
    if args.seg in ("bpe", "morf"):
        if not args.model:
            raise SubtokError(f"--model is required for --seg {args.seg}")
        load = BpeModel.load if args.seg == "bpe" else MorfModel.load
        return load_file(load, args.model)
    cfg = ModelConfig(segmenter=args.seg, ngram_min=args.ngram_min,
                      ngram_max=args.ngram_max)
    return build_segmenter(cfg, vocab=None)


def cmd_segment_apply(args, guard: ArtifactGuard) -> int:
    segmenter = _load_segmenter(args)
    words = args.words or [w for line in sys.stdin for w in line.split()]
    for word in words:
        seg = segment_word(segmenter, word, args.word_token)
        parts = list(seg.subwords)
        if seg.includes_word_token:
            parts.append(f"[{word}]")
        print(word + "\t" + " ".join(parts))
    return 0


def cmd_train(args, guard: ArtifactGuard) -> int:
    corpus = _corpus_prefix(load_corpus(args.corpus), args.we_tokens)
    group = data_group_for(corpus.token_count)
    tcfg = train_config(args, group, args.seed, epochs=args.epochs,
                        batch_size=args.batch_size, min_count=args.min_count)

    vocab = build_vocab(corpus, tcfg.min_count)
    config = model_config_from_args(args)
    model = SubwordModel.build(config, vocab)
    result = train(corpus, model, tcfg)
    out = guard.register(default_out(args, "checkpoint"))
    save_checkpoint(model, out)
    result.save_trace(Path(out) / "trace.tsv")
    print(f"trained {config.label} on {corpus.token_count} tokens "
          f"({group.label}: batch {tcfg.batch_size}, {tcfg.epochs} epochs, "
          f"min_count {tcfg.min_count}); {result.processed_pairs} updates "
          f"-> {out}")
    return 0


def cmd_export(args, guard: ArtifactGuard) -> int:
    model = load_checkpoint(args.checkpoint)
    out = guard.register(default_out(args, "vectors.txt"))
    export_vectors(model, out)
    print(f"wrote {len(model.vocab)} vectors to {out}")
    return 0


def _truncate_train_split(data, n: int | None):
    """`data` with its train split cut to the first `n` examples. The cut
    is made on a copy, so a dataset shared by several task points keeps
    its full split."""
    if n is None:
        return data
    if n < 1:
        raise SubtokError("--task-instances must be >= 1")
    return dataclasses.replace(
        data, splits={**data.splits, "train": data.splits["train"][:n]})


def load_task_data(task: str, data_path, seed: int):
    """The mentions or CoNLL dataset in `data_path`, split by `seed`."""
    loaders = {"mentions": load_mentions, "conll": load_conll}
    if task not in loaders:
        raise SubtokError(f"unknown task {task!r}")
    return load_file(loaders[task], data_path, seed=seed)


def run_probe(model, task: str, data, task_instances=None,
              window: int = 1, seed: int = 0):
    """Train and evaluate one probe; returns metric rows. `data` is the task
    file, or the dataset that load_task_data read from it with `seed`."""
    if isinstance(data, (str, Path)):
        data = load_task_data(task, data, seed)
    data = _truncate_train_split(data, task_instances)
    label = model.config.label
    rows = []
    if task == "mentions":
        probe = train_mention_probe(model, data, seed=seed)
        for split in ("dev", "test"):
            acc = eval_mention_accuracy(probe, model, data, split)
            rows.append(("fget", label, split, "accuracy", acc))
        return rows
    probe = train_tagger_probe(model, data, window=window)
    task_name = "ner" if data.scheme == "BIO" else "mtag"
    for split in ("dev", "test"):
        sents = data.split_sentences(split)
        if data.scheme == "BIO":
            preds = tag_sentences(probe, model, sents)
            p, r, f1 = span_f1([labs for _, labs in sents], preds)
            rows.append((task_name, label, split, "precision", p))
            rows.append((task_name, label, split, "recall", r))
            rows.append((task_name, label, split, "f1", f1))
        else:
            acc = eval_tag_accuracy(probe, model, data, split)
            rows.append((task_name, label, split, "accuracy", acc))
    return rows


def cmd_probe(args, guard: ArtifactGuard) -> int:
    model = load_checkpoint(args.checkpoint)
    rows = run_probe(model, args.task, args.data,
                     task_instances=args.task_instances,
                     window=args.probe_window, seed=args.seed)
    out = guard.register(default_out(args, "metrics.tsv"))
    write_metrics(out, rows)
    for row in rows:
        print("\t".join(str(x) for x in row))
    return 0


# -- simulate ---------------------------------------------------------------


def _metrics_rows(path: Path):
    """(line number, column -> field) for every row of a simulate metrics
    table. A wrong header, or a line without its newline or with the wrong
    number of fields, as a run cut off mid-write leaves, raises
    FormatError."""
    lines = read_lines(path, "metrics table")
    if next(lines, "").rstrip("\n").split("\t") != SIMULATE_COLUMNS:
        raise FormatError(f"unexpected metrics header in {path}")
    for ln, line in enumerate(lines, start=2):
        fields = line.rstrip("\n").split("\t")
        if not line.endswith("\n") or len(fields) != len(SIMULATE_COLUMNS):
            raise FormatError(f"half-written row in {path}", ln)
        yield ln, dict(zip(SIMULATE_COLUMNS, fields))


def _read_existing_cells(path: Path) -> set[tuple]:
    """(we_tokens, task_instances, config, seed) of every row of an existing
    metrics table; a malformed row raises FormatError, so no row is appended
    after it."""
    if not path.exists():
        return set()
    return {tuple(row[c] for c in SIMULATE_COLUMNS[:4])
            for _, row in _metrics_rows(path)}


def _int_list(text: str, flag: str, minimum: int) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise SubtokError(f"{flag} needs a comma list of integers, "
                          f"got {text!r}") from None
    if min(values) < minimum:
        raise SubtokError(f"{flag} values must be >= {minimum}")
    _refuse_repeats(flag, values, values)
    return values


def _refuse_repeats(flag: str, values: list, keys: list) -> None:
    """Raise SubtokError naming `flag` and the first value whose key an
    earlier value already has: a simulate list must not name a cell
    twice."""
    first: dict = {}
    for value, key in zip(values, keys):
        if key in first:
            also = "" if first[key] == value else f" ({value} is the same)"
            raise SubtokError(f"{flag} repeats {first[key]}{also}")
        first[key] = value


def cmd_simulate(args, guard: ArtifactGuard) -> int:
    """Run the grid WE point by WE point. Each (WE point, config, seed) with
    a task point still missing from the table is a job: it is trained once
    and probed once per missing task point. Rows are written in grid order
    (task, then config, then seed) and flushed once per WE point."""
    we_points = _int_list(args.we_tokens, "--we-tokens", 1)
    task_points = _int_list(args.task_instances, "--task-instances", 1)
    configs = args.configs.split(",")
    seeds = _int_list(args.seeds, "--seeds", 0)
    corpus = load_corpus(args.corpus)
    if corpus.token_count < max(we_points):
        raise SubtokError(
            f"corpus has {corpus.token_count} tokens; largest WE point is "
            f"{max(we_points)}")
    # a label or flag out of range fails the command before a file is written
    labels = [_cell_configs(args, label, we_points[0], seeds[0])[0].label
              for label in configs]
    _refuse_repeats("--configs", configs, labels)

    out_dir = Path(args.out) if args.out else data_dir() / "simulate"
    metrics_path = out_dir / "metrics.tsv"
    done = _read_existing_cells(metrics_path)
    # WE point -> its jobs: (config index, seed index, indices of the task
    # points missing from the table)
    jobs = {we_n: [] for we_n in we_points}
    for we_n, ci, si in itertools.product(we_points, range(len(configs)),
                                          range(len(seeds))):
        todo = [ti for ti, task_n in enumerate(task_points)
                if (str(we_n), str(task_n), labels[ci], str(seeds[si]))
                not in done]
        if todo:
            jobs[we_n].append((ci, si, todo))
    # a bad task file fails the command before anything is trained or
    # written
    task = "mentions" if args.mentions else "conll"
    task_seeds = dict.fromkeys(seeds[si] for we_jobs in jobs.values()
                               for _, si, _ in we_jobs)
    task_data = {seed: load_task_data(task, args.mentions or args.conll, seed)
                 for seed in task_seeds}

    out_dir.mkdir(parents=True, exist_ok=True)
    new_file = not metrics_path.exists()
    n_run = n_skipped = 0
    with open(metrics_path, "a", encoding="utf-8") as fh:
        if new_file:
            fh.write("\t".join(SIMULATE_COLUMNS) + "\n")
        for we_n in we_points:
            cell_rows = _simulate_we_point(
                args, corpus, task_data, we_n,
                [([task_points[ti] for ti in todo], configs[ci], seeds[si])
                 for ci, si, todo in jobs[we_n]])
            rows = {}  # (task, config, seed) index -> the cell's rows
            for (ci, si, todo), job_rows in zip(jobs[we_n], cell_rows):
                rows.update(((ti, ci, si), r)
                            for ti, r in zip(todo, job_rows))
            for key in itertools.product(range(len(task_points)),
                                         range(len(configs)),
                                         range(len(seeds))):
                if key not in rows:
                    n_skipped += 1
                    continue
                for row in rows[key]:
                    fh.write("\t".join(str(x) for x in row) + "\n")
                n_run += 1
            fh.flush()
    print(f"simulate: {n_run} cells computed, {n_skipped} skipped -> "
          f"{metrics_path}")
    return 0


def _cell_configs(args, label, we_n, seed):
    """(ModelConfig, data group, TrainConfig) of one simulate cell."""
    cfg = dataclasses.replace(parse_config_label(label), dim=args.dim,
                              seed=seed)
    group = data_group_for(we_n)
    return cfg, group, train_config(args, group, seed,
                                    epochs=args.train_epochs)


def _seg_key(cfg: ModelConfig) -> tuple:
    """The fields that build_segmentation reads."""
    return (cfg.segmenter, cfg.num_merges, cfg.ngram_min, cfg.ngram_max,
            cfg.word_token)


def _shared_work(args, corpus, we_n, jobs) -> dict:
    """What the jobs of one WE point have in common, built once: the corpus
    prefix and its vocab under "vocab", and a segmenter and subword vocab
    per segmenter setting and w+/w-, which are the same for every seed. A
    part that fails is kept as its SubtokError, which every cell that needs
    it reports as its failed row."""
    shared: dict = {}
    for _, label, seed in jobs:
        # min_count comes from the WE point's data group
        cfg, _, tcfg = _cell_configs(args, label, we_n, seed)
        try:
            if "vocab" not in shared:
                sample = sample_tokens(corpus, we_n)
                shared["vocab"] = sample, build_vocab(sample, tcfg.min_count)
            if _seg_key(cfg) not in shared:
                vocab = _shared(shared, "vocab")[1]
                shared[_seg_key(cfg)] = build_segmentation(cfg, vocab)
        except SubtokError as exc:
            shared.setdefault("vocab", exc)
            shared.setdefault(_seg_key(cfg), exc)
    return shared


def _shared(shared: dict, key):
    """shared[key], or its SubtokError raised."""
    value = shared[key]
    if isinstance(value, SubtokError):
        raise value
    return value


def _simulate_we_point(args, corpus, task_data, we_n, jobs) -> list:
    """The rows of each job (task points, config label, seed) of one WE
    point, in job order. The shared work is built here first; then one
    worker per CPU this process may run on, and no more than there are
    jobs, trains and probes the jobs. Workers are forked, so they inherit
    the shared work and the task data, and only jobs and rows are pickled.
    With one worker the jobs run in this process."""
    state = (args, _shared_work(args, corpus, we_n, jobs), task_data, we_n)
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers <= 1:
        return [_simulate_cell(*state, *job) for job in jobs]
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_state, initargs=(state,))
    try:
        # a worker that dies raises BrokenProcessPool here instead of
        # leaving the command waiting
        return list(pool.map(_run_job, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


# A worker's copy of _simulate_we_point's state, set by the pool's
# initializer in the worker only: with fork, initargs reach the worker
# without being pickled.
_worker_state: tuple = ()


def _set_worker_state(state: tuple) -> None:
    global _worker_state
    _worker_state = state


def _run_job(job: tuple) -> list:
    return _simulate_cell(*_worker_state, *job)


def _failed(exc: SubtokError) -> list[str]:
    msg = str(exc).translate(str.maketrans("\t\r\n", "   "))
    return ["-", "-", "-", "0", f"failed:{msg}"]


def _simulate_cell(args, shared, task_data, we_n, task_points, label,
                   seed):
    """Train one (WE point, config, seed) and probe it once per task point;
    returns one list of metric rows per task point. `shared` is the WE
    point's _shared_work, and `task_data` maps a seed to the task dataset
    split by it."""
    cfg, group, tcfg = _cell_configs(args, label, we_n, seed)
    cells = [[str(we_n), str(task_n), cfg.label, str(seed), group.label,
              str(tcfg.batch_size), str(tcfg.epochs), str(tcfg.min_count)]
             for task_n in task_points]
    try:
        sample, vocab = _shared(shared, "vocab")
        segmenter, svocab = _shared(shared, _seg_key(cfg))
        model = SubwordModel(cfg, vocab, svocab, segmenter)
        train(sample, model, tcfg)
    except SubtokError as exc:
        return [[cell + _failed(exc)] for cell in cells]
    task = "mentions" if args.mentions else "conll"
    out = []
    for task_n, cell in zip(task_points, cells):
        try:
            rows = run_probe(model, task, task_data[seed],
                             task_instances=task_n, seed=seed)
        except SubtokError as exc:
            out.append([cell + _failed(exc)])
            continue
        out.append([cell + [task_name, split, metric, f"{value:.6f}", "ok"]
                    for task_name, _, split, metric, value in rows
                    if split == "test"])
    return out


def cmd_report(args, guard: ArtifactGuard) -> int:
    path = Path(args.metrics)
    if not path.exists():
        raise SubtokError(f"no metrics table at {path}")
    groups: dict[tuple, list[float]] = {}
    failed: dict[tuple, int] = {}
    for ln, vals in _metrics_rows(path):
        key = (vals["we_tokens"], vals["task_instances"], vals["config"],
               vals["task"], vals["split"], vals["metric"])
        if vals["status"] == "ok":
            try:
                value = float(vals["value"])
            except ValueError:
                raise FormatError(f"value {vals['value']!r} in {path} is "
                                  "not a number", ln) from None
            groups.setdefault(key, []).append(value)
        else:
            fkey = key[:3] + ("-", "-", "-")
            failed[fkey] = failed.get(fkey, 0) + 1
    if not groups and not failed:
        raise SubtokError(f"metrics table {path} is empty")
    out = guard.register(default_out(args, "summary.tsv"))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("we_tokens\ttask_instances\tconfig\ttask\tsplit\tmetric"
                 "\tmean\tstdev\tn\tn_failed\n")
        all_keys = sorted(set(groups) | set(failed))
        for key in all_keys:
            vals = groups.get(key, [])
            n_failed = failed.get(key[:3] + ("-", "-", "-"), 0)
            if vals:
                mean = statistics.mean(vals)
                stdev = statistics.pstdev(vals)
                fh.write("\t".join(key) +
                         f"\t{mean:.6f}\t{stdev:.6f}\t{len(vals)}"
                         f"\t{n_failed}\n")
            else:
                fh.write("\t".join(key) + f"\t-\t-\t0\t{n_failed}\n")
    print(f"wrote summary to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtok",
        description="Subword-informed word embeddings and probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="build a vocabulary TSV from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--we-tokens", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("segment-learn", help="train a BPE or morph model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seg", choices=("bpe", "morf"), required=True)
    p.add_argument("--merges", type=int, default=10_000)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_segment_learn)

    p = sub.add_parser("segment-apply", help="segment words to stdout")
    p.add_argument("--seg", choices=("morf", "bpe", "charn", "word"),
                   required=True)
    p.add_argument("--model", help="segmenter model file (bpe/morf)")
    p.add_argument("--ngram-min", type=int, default=3)
    p.add_argument("--ngram-max", type=int, default=6)
    p.add_argument("--word-token", action=argparse.BooleanOptionalAction,
                   default=False)
    p.add_argument("words", nargs="*")
    p.set_defaults(func=cmd_segment_apply)

    p = sub.add_parser("train", help="train subword-informed embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--we-tokens", type=int, default=None,
                   help="train on the first N tokens only")
    add_model_flags(p)
    add_train_flags(p)
    p.add_argument("--out", help="checkpoint directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="export vectors in text format")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("probe", help="train/evaluate a probe on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", choices=("mentions", "conll"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task-instances", type=int, default=None)
    p.add_argument("--probe-window", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("simulate", help="run the data-scarcity grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mentions", help="mention TSV for the fget probe")
    p.add_argument("--conll", help="CoNLL TSV for the ner/mtag probe")
    p.add_argument("--we-tokens", required=True,
                   help="comma list of WE token counts")
    p.add_argument("--task-instances", required=True,
                   help="comma list of task training sizes")
    p.add_argument("--configs", required=True,
                   help="comma list of config labels (e.g. charn:w+:p-,w2v)")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--subsample-t", type=float, default=1e-5)
    p.add_argument("--train-epochs", type=int, default=None,
                   help="desk-scale override of the group epoch count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate simulate metrics over seeds")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not (args.mentions or args.conll):
        print("subtok: simulate needs --mentions or --conll", file=sys.stderr)
        return 1
    guard = ArtifactGuard()
    try:
        return args.func(args, guard)
    except Exception as exc:
        guard.cleanup()
        # an OSError that names a file is a path that cannot be read or
        # written; one without a file name (fork, memory) is internal
        if isinstance(exc, SubtokError) or (
                isinstance(exc, OSError) and exc.filename is not None):
            print(f"subtok: {exc}", file=sys.stderr)
            return 1
        print(f"subtok: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
