"""Command-line orchestration: vocab building, segmenter training, embedding
training, probing, and the data-scarcity simulation grid.

Exit codes: 0 success, 1 bad input (single-line diagnostic), including a
file that cannot be read or written, 2 internal error. Every output is
written under a temporary name and renamed into place (`write_files`), so
a failed command leaves every path as it was; simulate's metrics table is
the exception, appended to and flushed row by row for resume.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import multiprocessing
import os
import re
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

from subtok.corpus import (
    build_vocab,
    data_group_for,
    load_corpus,
    sample_tokens,
)
from subtok.errors import (
    FormatError,
    SubtokError,
    load_file,
    nonnegative_int,
    read_lines,
    write_files,
)
from subtok.model import (
    SEGMENTER_FILES,
    SEGMENTER_KINDS,
    ModelConfig,
    SubwordModel,
    build_segmentation,
    build_segmenter,
    export_vectors,
    load_checkpoint,
    load_segmenter,
    save_checkpoint,
    segmentation_key,
)
from subtok.probe import (
    TaskFeatures,
    eval_mention_accuracy,  # noqa: F401 -- perfbench/tracer.py wraps it here
    load_conll,
    load_mentions,
    train_mention_probe,  # noqa: F401 -- perfbench/tracer.py wraps it here
    write_metrics,
)
from subtok.segment import segment_word
from subtok.train import LOCKSTEP_ROWS, TrainConfig, train, train_lockstep

SIMULATE_COLUMNS = [
    "we_tokens", "task_instances", "config", "seed", "group", "batch_size",
    "epochs", "min_count", "task", "split", "metric", "value", "status",
]

CONFIG_ALIASES = {
    "w2v": "word:w-:p-",  # subword-agnostic skip-gram baseline
    "ft": "charn:w+:p-",  # fastText-style configuration
}

# config label flag -> (the ModelConfig field it sets, its value)
CONFIG_FLAGS = {"w+": ("word_token", True), "w-": ("word_token", False),
                "p+": ("position", True), "p-": ("position", False)}


def data_dir() -> Path:
    return Path(os.environ.get("SUBTOK_DATA_DIR", "."))


def default_out(args, name: str) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return data_dir() / name


def parse_config_label(label: str) -> ModelConfig:
    """Parse `seg[:w+|w-][:p+|p-]` (seg in morf|charn|word|bpeN|bpe1eK, N
    and K in ASCII digits) or the aliases w2v / ft into a ModelConfig: the
    one parser of a config from user text."""
    label = CONFIG_ALIASES.get(label, label)
    seg, *flags = label.split(":")
    kwargs: dict = {"segmenter": seg}
    if seg.startswith("bpe"):
        # a count too large for a float is refused
        count = re.fullmatch(r"([0-9]+)|1e([0-9]+)", seg[3:])
        if count is None or math.isinf(float(seg[3:])):
            raise SubtokError(
                f"bpe config label needs a whole merge count: {label!r}")
        kwargs.update(segmenter="bpe", num_merges=int(count[1]) if count[1]
                      else 10 ** int(count[2]))
    elif seg not in SEGMENTER_KINDS:
        raise SubtokError(f"unknown config label {label!r}")
    for flag in flags:
        if flag not in CONFIG_FLAGS:
            raise SubtokError(f"unknown config flag {flag!r} in {label!r}")
        name, value = CONFIG_FLAGS[flag]
        kwargs[name] = value
    return ModelConfig(**kwargs)


def train_config(args, group, seed: int, epochs=None, batch_size=None,
                 min_count=None) -> TrainConfig:
    """TrainConfig from the shared training flags. An epoch count, batch
    size or min count of None falls back to the data group's; any other
    value, 0 included, is used as given and checked by TrainConfig."""
    return TrainConfig(
        window=args.window, negatives=args.negatives, lr_start=args.lr,
        epochs=group.epochs if epochs is None else epochs,
        batch_size=group.batch_size if batch_size is None else batch_size,
        min_count=group.min_count if min_count is None else min_count,
        subsample_t=args.subsample_t, seed=seed)


def add_model_flags(p: argparse.ArgumentParser):
    """The ModelConfig flags: a config label and the fields it does not
    name. Here and in the other flag helpers a default is read from
    ModelConfig or TrainConfig, so it is written once."""
    p.add_argument("--config", default=ModelConfig().label,
                   help="config label seg[:w+|w-][:p+|p-] (seg in "
                   "morf|charn|word|bpeN|bpe1eK) or w2v / ft")
    p.add_argument("--dim", type=int, default=ModelConfig.dim)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)


def add_sgns_flags(p: argparse.ArgumentParser):
    """The SGNS settings that train and simulate share."""
    p.add_argument("--window", type=int, default=TrainConfig.window)
    p.add_argument("--negatives", type=int, default=TrainConfig.negatives)
    p.add_argument("--lr", type=float, default=TrainConfig.lr_start)
    p.add_argument("--subsample-t", type=float,
                   default=TrainConfig.subsample_t)


def add_train_flags(p: argparse.ArgumentParser):
    add_sgns_flags(p)
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


def _vocab(corpus, min_count):
    """The vocab of `corpus` at `min_count`; at its data group's min count,
    as `train` builds it, for None."""
    if min_count is None:
        min_count = data_group_for(corpus.token_count).min_count
    return build_vocab(corpus, min_count)


def cmd_vocab(args) -> int:
    corpus = _corpus_prefix(load_corpus(args.corpus), args.we_tokens)
    vocab = _vocab(corpus, args.min_count)
    out = default_out(args, "vocab.tsv")
    write_files({out: vocab.save_tsv})
    print(f"wrote {len(vocab)} entries to {out}")
    return 0


def cmd_segment_learn(args) -> int:
    vocab = _vocab(load_corpus(args.corpus), args.min_count)
    merges = args.merges if args.seg == "bpe" else ModelConfig.num_merges
    model = build_segmenter(ModelConfig(segmenter=args.seg,
                                        num_merges=merges), vocab)
    out = default_out(args, SEGMENTER_FILES[args.seg][0])
    write_files({out: model.save})
    if args.seg == "bpe":
        print(f"learned {len(model.merges)} merges -> {out}")
    else:
        print(f"learned {len(model.morph_lexicon)} morphs "
              f"(cost {model.corpus_cost:.2f}) -> {out}")
    return 0


def cmd_segment_apply(args) -> int:
    if args.seg in SEGMENTER_FILES and not args.model:
        raise SubtokError(f"--model is required for --seg {args.seg}")
    segmenter = load_segmenter(ModelConfig(segmenter=args.seg), args.model)
    words = args.words or [w for line in sys.stdin for w in line.split()]
    if not all(words):
        raise SubtokError("cannot segment an empty word")
    for word in words:
        seg = segment_word(segmenter, word, args.word_token)
        parts = list(seg.subwords)
        if seg.includes_word_token:
            parts.append(f"[{word}]")
        print(word + "\t" + " ".join(parts))
    return 0


def cmd_train(args) -> int:
    config = dataclasses.replace(parse_config_label(args.config),
                                 dim=args.dim, seed=args.seed)
    corpus = _corpus_prefix(load_corpus(args.corpus), args.we_tokens)
    group = data_group_for(corpus.token_count)
    tcfg = train_config(args, group, args.seed, epochs=args.epochs,
                        batch_size=args.batch_size, min_count=args.min_count)

    vocab = build_vocab(corpus, tcfg.min_count)
    model = SubwordModel.build(config, vocab)
    result = train(corpus, model, tcfg)
    out = default_out(args, "checkpoint")
    save_checkpoint(model, out, {"trace.tsv": result.save_trace})
    print(f"trained {config.label} on {corpus.token_count} tokens "
          f"({group.label}: batch {tcfg.batch_size}, {tcfg.epochs} epochs, "
          f"min_count {tcfg.min_count}); {result.processed_pairs} updates "
          f"-> {out}")
    return 0


def cmd_export(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = default_out(args, "vectors.txt")
    write_files({out: lambda p: export_vectors(model, p)})
    print(f"wrote {len(model.vocab)} vectors to {out}")
    return 0


def _train_items(data, n: int | None) -> list[int]:
    """The train split of `data` cut to its first `n` items; all of it for
    None."""
    if n is None:
        return data.splits["train"]
    if n < 1:
        raise SubtokError("--task-instances must be >= 1")
    return data.splits["train"][:n]


def load_task_data(task: str, data_path, seed: int):
    """The mentions or CoNLL dataset in `data_path`, split by `seed`."""
    load = {"mentions": load_mentions, "conll": load_conll}[task]
    return load_file(load, data_path, seed=seed)


def run_probe(model, data, task_instances: list) -> list[list[tuple]]:
    """Train and evaluate a probe on the dataset that load_task_data read,
    once per task point of `task_instances`, its train split cut to the
    first that many items (None: all); returns one list of metric rows per
    point, each row named by the dataset's task. The features of the
    largest point's train items, then dev, then test are built once, and
    each point slices its runs of them."""
    train_items = _train_items(
        data, None if None in task_instances else max(task_instances))
    feats = TaskFeatures.of(model, data, train_items + data.splits["dev"]
                            + data.splits["test"])
    dev_end = len(train_items) + len(data.splits["dev"])
    ends = {"dev": (len(train_items), dev_end),
            "test": (dev_end, len(feats.bounds) - 1)}
    label = model.config.label
    out = []
    for n in task_instances:
        probe = feats.probe(slice(0, len(_train_items(data, n))),
                            slice(*ends["dev"]))
        out.append([(data.task, label, split, metric, value)
                    for split in ("dev", "test")
                    for metric, value in feats.metrics(probe, *ends[split])])
    return out


def _short_split(data, task_n) -> int | None:
    """The size of the train split of `data` if task point `task_n` exceeds
    it, so that its probe trains on fewer items than the point says."""
    n_train = len(data.splits["train"])
    return n_train if task_n is not None and task_n > n_train else None


def cmd_probe(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data = load_task_data(args.task, args.data, args.seed)
    n_train = _short_split(data, args.task_instances)
    if n_train is not None:
        print(f"probe: --task-instances {args.task_instances} exceeds the "
              f"train split of seed {args.seed} ({n_train} examples); the "
              f"probe trains on all {n_train}", file=sys.stderr)
    rows, = run_probe(model, data, task_instances=[args.task_instances])
    out = default_out(args, "metrics.tsv")
    write_files({out: lambda p: write_metrics(p, rows)})
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


class _Cell(NamedTuple):
    """One (WE point, config, seed) of the grid with task points still to
    run, its settings resolved once, in the command's own process."""

    we_n: int
    model: ModelConfig
    train: TrainConfig
    todo: list[int]  # task points that the metrics table lacks

    def row(self, task_n) -> list[str]:
        """The first columns of a row of task point `task_n`; the first
        four are the cell's key, for resume and for grid order."""
        return [str(self.we_n), str(task_n), self.model.label,
                str(self.model.seed), data_group_for(self.we_n).label,
                str(self.train.batch_size), str(self.train.epochs),
                str(self.train.min_count)]


def cmd_simulate(args) -> int:
    """Run the grid. Each WE point's cells still missing from the table are
    grouped into jobs, one per segmentation (`segmentation_key`): a job
    builds it, trains each of its configs' seeds in one lockstep call, and
    probes each model once for all of its missing task points. Jobs run
    largest WE point first, then by config. Rows are written WE point by WE
    point in that order, each WE point's rows in grid order (task, then
    config, then seed), and flushed once per WE point."""
    we_points = _int_list(args.we_tokens, "--we-tokens", 1)
    task_points = _int_list(args.task_instances, "--task-instances", 1)
    seeds = _int_list(args.seeds, "--seeds", 0)
    corpus = load_corpus(args.corpus)
    if corpus.token_count < max(we_points):
        raise SubtokError(
            f"corpus has {corpus.token_count} tokens; largest WE point is "
            f"{max(we_points)}")
    labels = args.configs.split(",")
    configs = [parse_config_label(label) for label in labels]
    _refuse_repeats("--configs", labels, [cfg.label for cfg in configs])

    out_dir = Path(args.out) if args.out else data_dir() / "simulate"
    metrics_path = out_dir / "metrics.tsv"
    # a run killed before its header reached the disk leaves 0 bytes
    new_file = not metrics_path.exists() or metrics_path.stat().st_size == 0
    done = set() if new_file else _read_existing_cells(metrics_path)
    # a cell's key is its rows' first four columns; in this order
    grid = {key: i for i, key in enumerate(itertools.product(
        map(str, we_points), map(str, task_points),
        [cfg.label for cfg in configs], map(str, seeds)))}
    # every cell is resolved here, so a flag out of range fails the command
    # before a file is written. A job is a list of one WE point's cells
    # that share a segmentation. The largest WE point's jobs take longest,
    # so starting them first keeps the tail of the run, where workers wait
    # for the last job, short.
    jobs = []
    for we_n in sorted(we_points, reverse=True):
        by_seg: dict[tuple, list] = {}
        for cfg, seed in itertools.product(configs, seeds):
            cell = _Cell(we_n, dataclasses.replace(cfg, dim=args.dim,
                                                   seed=seed),
                         train_config(args, data_group_for(we_n), seed,
                                      epochs=args.train_epochs), task_points)
            todo = [task_n for task_n in task_points
                    if tuple(cell.row(task_n)[:4]) not in done]
            if todo:
                by_seg.setdefault(segmentation_key(cell.model), []).append(
                    cell._replace(todo=todo))
        jobs += by_seg.values()
    cpus = len(os.sched_getaffinity(0))
    jobs = _split_seeds(jobs, cpus)
    # a bad task file fails the command before anything is trained or
    # written
    task = "mentions" if args.mentions else "conll"
    wanted = {(task_n, cell.model.seed) for job in jobs for cell in job
              for task_n in cell.todo}
    task_data = {seed: load_task_data(task, args.mentions or args.conll, seed)
                 for seed in dict.fromkeys(seed for _, seed in wanted)}
    for task_n, seed in itertools.product(task_points, seeds):
        n_train = (_short_split(task_data[seed], task_n)
                   if (task_n, seed) in wanted else None)
        if n_train is not None:
            print(f"simulate: task point {task_n} exceeds the train split "
                  f"of seed {seed} ({n_train} examples); its cells train on "
                  f"all {n_train}", file=sys.stderr)

    out_dir.mkdir(parents=True, exist_ok=True)
    n_run = 0
    state = (_shared_work(corpus, {job[0].we_n: job[0].train.min_count
                                   for job in jobs}), task_data)
    with open(metrics_path, "a", encoding="utf-8") as fh:
        if new_file:
            # on disk before any job starts, so that a run killed during
            # its first WE point leaves a table that resumes
            fh.write("\t".join(SIMULATE_COLUMNS) + "\n")
            fh.flush()
        with _job_rows(state, jobs, min(cpus, len(jobs))) as job_rows:
            for _, we_jobs in itertools.groupby(
                    zip(jobs, job_rows), key=lambda pair: pair[0][0].we_n):
                rows = sorted((row for _, rows in we_jobs for row in rows),
                              key=lambda row: grid[tuple(row[:4])])
                fh.writelines("\t".join(row) + "\n" for row in rows)
                fh.flush()
                n_run += len({tuple(row[:4]) for row in rows})
    print(f"simulate: {n_run} cells computed, {len(grid) - n_run} skipped -> "
          f"{metrics_path}")
    return 0


def _split_seeds(jobs: list, workers: int) -> list:
    """While there are fewer jobs than workers, split the job with the most
    seeds (the first such) in two by seed, its first half of seeds first; a
    job of one seed is not split."""
    jobs = list(jobs)
    while 0 < len(jobs) < workers:
        seeds = [list(dict.fromkeys(cell.model.seed for cell in job))
                 for job in jobs]
        i = max(range(len(jobs)), key=lambda j: len(seeds[j]))
        if len(seeds[i]) < 2:
            break
        first = set(seeds[i][:(len(seeds[i]) + 1) // 2])
        jobs[i:i + 1] = [[c for c in jobs[i] if c.model.seed in first],
                         [c for c in jobs[i] if c.model.seed not in first]]
    return jobs


def _shared_work(corpus, min_counts: dict) -> dict:
    """Per WE point of `min_counts` (a WE point -> the min count that its
    cells record), what all of its jobs read: the corpus prefix and its
    vocab at that min count. A WE point whose vocab fails keeps the
    SubtokError, which each of its cells reports as its failed row."""
    shared: dict = {}
    for we_n, min_count in min_counts.items():
        try:
            sample = sample_tokens(corpus, we_n)
            shared[we_n] = sample, build_vocab(sample, min_count)
        except SubtokError as exc:
            shared[we_n] = exc
    return shared


# _job_rows's state (the shared work and the task data) while its jobs run
_job_state: tuple = ()


@contextlib.contextmanager
def _job_rows(state: tuple, jobs: list, workers: int):
    """Yields an iterator over the rows of each job, in job order, each job
    run by `_run_job`. One pool of `workers` workers runs the jobs in the
    order given; with one worker they run in this process, each when its
    rows are asked for."""
    global _job_state
    # set before the pool forks: the workers inherit the state through
    # fork, so only jobs and rows are pickled, never the state
    _job_state = state
    pool = None if workers <= 1 else ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    # a worker that dies raises BrokenProcessPool from pool.map's iterator
    # instead of leaving the command waiting
    run = map if pool is None else pool.map
    try:
        yield run(_run_job, jobs)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _job_state = ()


def _run_job(job: list) -> list:
    return _simulate_job(*_job_state, job)


def _simulate_job(shared, task_data, cells) -> list:
    """Rows of one job: `cells` of one WE point, whose configs share one
    segmentation, which is built here. Each config's seeds are siblings,
    trained in `train_lockstep` calls of as many seeds as LOCKSTEP_ROWS
    allows at the data group's batch size: all of a G1 point's five, one
    at a time at G2 and G3. A SubtokError fails the cells it stops: all of
    them for the WE point's shared work or the segmentation, one seed's for
    its training or probes."""
    work = shared[cells[0].we_n]
    try:
        if isinstance(work, SubtokError):
            raise work
        sample, vocab = work
        segmentation = build_segmentation(cells[0].model, vocab)
    except SubtokError as exc:
        return _failed_rows(cells, exc)
    rows = []
    for _, siblings in itertools.groupby(cells,
                                         key=lambda c: c.model.label):
        siblings = list(siblings)
        per_call = max(1, LOCKSTEP_ROWS // siblings[0].train.batch_size)
        for lo in range(0, len(siblings), per_call):
            rows += _lockstep_cells(task_data, sample, vocab, segmentation,
                                    siblings[lo:lo + per_call])
    return rows


def _failed_rows(cells, exc: SubtokError) -> list:
    """A row per task point of `cells`, each failed with `exc`."""
    tail = ["-", "-", "-", "0", "failed:" + str(exc).translate(
        str.maketrans("\t\r\n", "   "))]
    return [cell.row(task_n) + tail for cell in cells
            for task_n in cell.todo]


def _lockstep_cells(task_data, sample, vocab, segmentation, cells) -> list:
    """Rows of `cells`, seeds of one config that train in one
    `train_lockstep` call on `sample` and are then probed; the models are
    dropped on return. A failed call of several seeds is run again one
    seed per call, so that only a failing seed's cells fail, each with the
    message that seed gives alone."""
    segmenter, svocab = segmentation
    first = SubwordModel(cells[0].model, vocab, svocab, segmenter)
    models = [first] + [first.with_seed(cell.model.seed)
                        for cell in cells[1:]]
    try:
        train_lockstep(sample, models, [cell.train for cell in cells])
    except SubtokError as exc:
        if len(cells) == 1:
            return _failed_rows(cells, exc)
        models = None  # the traceback holds the stacked tables until here
    if models is None:
        return [row for cell in cells for row in _lockstep_cells(
            task_data, sample, vocab, segmentation, [cell])]
    return [row for cell, model in zip(cells, models)
            for row in _simulate_cell(task_data[cell.model.seed], cell,
                                      model)]


def _simulate_cell(data, cell, model) -> list:
    """Rows of `cell`'s trained model: one `run_probe` call on `data`
    probes every task point, and a SubtokError fails each of them."""
    try:
        probes = run_probe(model, data, task_instances=cell.todo)
    except SubtokError as exc:
        return _failed_rows([cell], exc)
    return [cell.row(task_n)
            + [task_name, split, metric, f"{value:.6f}", "ok"]
            for task_n, rows in zip(cell.todo, probes)
            for task_name, _, split, metric, value in rows
            if split == "test"]


def cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.exists():
        raise SubtokError(f"no metrics table at {path}")
    groups: dict[tuple, list[float]] = {}
    failed: dict[tuple, int] = {}
    for ln, vals in _metrics_rows(path):
        for column in ("we_tokens", "task_instances"):
            nonnegative_int(vals[column], f"{column} in {path}", ln)
        key = (vals["we_tokens"], vals["task_instances"], vals["config"],
               vals["task"], vals["split"], vals["metric"])
        if vals["status"] == "ok":
            try:
                value = float(vals["value"])
            except ValueError:
                raise FormatError(f"value {vals['value']!r} in {path} is "
                                  "not a number", ln) from None
            groups.setdefault(key, []).append(value)
        else:  # a failed row's task, split and metric are each `-`
            failed[key] = failed.get(key, 0) + 1
    if not groups and not failed:
        raise SubtokError(f"metrics table {path} is empty")
    lines = ["we_tokens\ttask_instances\tconfig\ttask\tsplit\tmetric"
             "\tmean\tstdev\tn\tn_failed\n"]
    # a failed count is given on the metric lines of its (WE point, task
    # point, config), and on a `- - -` line only where it has no ok row;
    # WE and task points in numeric order, whatever the row order
    ok = {key[:3] for key in groups}
    all_keys = sorted(set(groups) | {k for k in failed if k[:3] not in ok},
                      key=lambda k: (int(k[0]), int(k[1]), *k[2:]))
    for key in all_keys:
        vals = groups.get(key, [])
        n_failed = failed.get(key[:3] + ("-", "-", "-"), 0)
        if vals:
            mean = statistics.mean(vals)
            stdev = statistics.pstdev(vals)
            lines.append("\t".join(key) +
                         f"\t{mean:.6f}\t{stdev:.6f}\t{len(vals)}"
                         f"\t{n_failed}\n")
        else:
            lines.append("\t".join(key) + f"\t-\t-\t0\t{n_failed}\n")
    out = default_out(args, "summary.tsv")
    write_files({out: lambda p: p.write_text("".join(lines),
                                             encoding="utf-8")})
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
    p.add_argument("--min-count", type=int, default=None,
                   help="default: the corpus-size group's, as for train")
    p.add_argument("--we-tokens", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("segment-learn", help="train a BPE or morph model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seg", choices=tuple(SEGMENTER_FILES), required=True)
    p.add_argument("--merges", type=int, default=ModelConfig.num_merges)
    p.add_argument("--min-count", type=int, default=None,
                   help="default: the corpus-size group's, as for train")
    p.add_argument("--out")
    p.set_defaults(func=cmd_segment_learn)

    p = sub.add_parser("segment-apply", help="segment words to stdout")
    p.add_argument("--seg", choices=SEGMENTER_KINDS, required=True)
    p.add_argument("--model", help="segmenter model file (bpe/morf)")
    p.add_argument("--word-token", action=argparse.BooleanOptionalAction,
                   default=ModelConfig.word_token)
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
    p.add_argument("--dim", type=int, default=ModelConfig.dim)
    add_sgns_flags(p)
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
    if args.command == "simulate" and bool(args.mentions) == bool(args.conll):
        print("subtok: simulate needs exactly one of --mentions and --conll",
              file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:
        # an OSError that names a file is a path that cannot be read or
        # written; one without a file name (fork, memory) is internal
        if isinstance(exc, SubtokError) or (
                isinstance(exc, OSError) and exc.filename is not None):
            print(f"subtok: {exc}", file=sys.stderr)
            return 1
        print(f"subtok: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
