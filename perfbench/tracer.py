"""Outside-in tracing: spans recorded by wrappers that the benchmark installs
on subtok's module and class attributes for the traced run only.

Nothing in the package knows about the tracer. A wrapper records one span per
call (name, start, end, parent span) and, through an optional hook, a few
facts about the call's arguments and result. `restore` puts every original
attribute back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import table_fingerprints


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func, name, hook):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            with tracer._lock:  # threaded training records spans too
                tracer.spans.append(span)
                stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr (a module function, a method or a classmethod)
        with a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapper(original.__func__, name, hook))
        else:
            replacement = self._wrapper(original, name, hook)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- span arithmetic ----------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children
        cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + \
                    s.duration
        return sum(s.duration - child_time.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s.name == name)

    def under(self, span: Span, ancestor: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False


def _ckpt_facts(args, kwargs, result):
    ckpt = Path(args[1] if len(args) > 1 else kwargs["ckpt_dir"])
    return {"bytes": sum(f.stat().st_size for f in ckpt.iterdir())}


def _train_facts(args, kwargs, result):
    model = args[1]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"model": model, "threads": config.threads, "result": result}


# (span name, hook, wrapped attributes as "module:attribute"). `subtok.cli`
# binds several names at import, so its bindings are wrapped beside the
# defining module's; `subtok.model` binds the segmenter learners the same
# way. Modules are fetched with importlib because the package re-exports the
# function `train` under the name of the module `subtok.train`.
TARGETS = [
    ("corpus.load", lambda a, k, r: {"tokens": r.token_count},
     ["subtok.corpus:load_corpus", "subtok.cli:load_corpus"]),
    ("corpus.build_vocab", lambda a, k, r: {"types": len(r)},
     ["subtok.corpus:build_vocab", "subtok.cli:build_vocab"]),
    ("corpus.sample", None,
     ["subtok.corpus:sample_tokens", "subtok.cli:sample_tokens"]),
    ("segment.learn_bpe", lambda a, k, r: {"merges": len(r.merges)},
     ["subtok.segment:learn_bpe", "subtok.model:learn_bpe"]),
    ("segment.learn_morf", lambda a, k, r: {"vocab": a[0], "model": r},
     ["subtok.segment:learn_morfessor_lite",
      "subtok.model:learn_morfessor_lite"]),
    ("segment.subword_vocab", lambda a, k, r: {"size": len(r)},
     ["subtok.segment:build_subword_vocab",
      "subtok.model:build_subword_vocab"]),
    ("model.build", None, ["subtok.model:SubwordModel.build"]),
    ("model.save_ckpt", _ckpt_facts,
     ["subtok.model:save_checkpoint", "subtok.cli:save_checkpoint"]),
    ("model.load_ckpt", None,
     ["subtok.model:load_checkpoint", "subtok.cli:load_checkpoint"]),
    ("model.export", None,
     ["subtok.model:export_vectors", "subtok.cli:export_vectors"]),
    ("train.train", _train_facts, ["subtok.train:train", "subtok.cli:train"]),
    ("train.init", None, ["subtok.train:Trainer.__init__"]),
    ("train.run", None, ["subtok.train:Trainer.run"]),
    ("train.epoch_pairs", None, ["subtok.train:_epoch_pairs"]),
    ("train.span", None, ["subtok.train:Trainer._run_span"]),
    ("probe.fit", None,
     ["subtok.probe:train_mention_probe", "subtok.cli:train_mention_probe"]),
    ("probe.eval", None,
     ["subtok.probe:eval_mention_accuracy",
      "subtok.cli:eval_mention_accuracy"]),
    ("cli.run_probe", None, ["subtok.cli:run_probe"]),
    ("cli.simulate.cell", None, ["subtok.cli:_simulate_cell"]),
    ("cli.main", None, ["subtok.cli:main"]),
]


def install(tracer: Tracer) -> None:
    for name, hook, targets in TARGETS:
        for target in targets:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            tracer.wrap(owner, attr, name, hook)


# Config labels of the deterministic trainings whose pairs/s and final loss
# EMA are reported by name.
CONFIG_NAMES = {"charn:w+:p-": "ft", "charn:w+:p+": "ft-pos",
                "word:w-:p-": "w2v"}


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer metrics of one traced repetition, and the exact counts and
    table fingerprints that every repetition must reproduce. A layer that the
    repetition never called reports 0."""
    m: dict[str, float] = {}
    for name in ("corpus.load", "corpus.build_vocab", "corpus.sample",
                 "segment.learn_bpe", "segment.learn_morf",
                 "segment.subword_vocab", "model.build", "model.save_ckpt",
                 "model.load_ckpt", "model.export", "train.init",
                 "train.run", "train.epoch_pairs", "probe.fit",
                 "probe.eval"):
        m[name + "_s"] = tr.total(name)
    m["train.span_s"] = tr.self_time("train.span")

    exact: dict[str, object] = {
        "corpus.tokens": sum(s.info["tokens"]
                             for s in tr.named("corpus.load")),
        "corpus.types": sum(s.info["types"]
                            for s in tr.named("corpus.build_vocab")),
        "segment.bpe_merges": sum(s.info["merges"]
                                  for s in tr.named("segment.learn_bpe")),
        "segment.subword_vocab_size": sum(
            s.info["size"] for s in tr.named("segment.subword_vocab")),
        "model.ckpt_bytes": sum(s.info["bytes"]
                                for s in tr.named("model.save_ckpt")),
        "probe.fits": len(tr.named("probe.fit")),
    }
    morf = tr.named("segment.learn_morf")
    types = sum(len(s.info["vocab"]) for s in morf)
    exact["segment.morf_iters"] = sum(
        len(s.info["model"].cost_history) - 1 for s in morf)
    exact["segment.morf_split_frac"] = sum(
        len(s.info["model"].segment(w)) > 1
        for s in morf for w in s.info["vocab"].words) / types if types else 0

    trainings = tr.named("train.train")
    # per training: 2 x epochs while Trainer counts its pairs in advance
    exact["train.epoch_pairs_calls"] = (
        len(tr.named("train.epoch_pairs")) / len(trainings) if trainings
        else 0)
    exact["train.pairs"] = sum(s.info["result"].processed_pairs
                               for s in trainings)
    for label, short in CONFIG_NAMES.items():
        mine = [s for s in trainings if s.info["model"].config.label == label]
        pairs = sum(s.info["result"].processed_pairs for s in mine)
        m[f"train.pairs_per_s.{short}"] = (
            pairs / sum(s.duration for s in mine) if mine else 0.0)
        m[f"train.final_loss_ema.{short}"] = (
            float(np.mean([s.info["result"].loss_trace[-1][2]
                           for s in mine if s.info["result"].loss_trace]))
            if mine else 0.0)
    for i, s in enumerate(trainings):
        if s.info["threads"] == 1:
            label = s.info["model"].config.label
            exact.update(table_fingerprints(
                s.info["model"].params, f"fingerprint.training{i}.{label}"))

    cells = tr.named("cli.simulate.cell")
    exact["cli.simulate.cells"] = len(cells)
    m["cli.simulate.cell_s"] = (statistics.median(s.duration for s in cells)
                                if cells else 0.0)
    in_cells = {name: [s for s in tr.named(name)
                       if tr.under(s, "cli.simulate.cell")]
                for name in ("train.train", "model.build", "cli.run_probe")}
    exact["cli.simulate.trainings"] = len(in_cells["train.train"])
    exact["cli.simulate.model_builds"] = len(in_cells["model.build"])
    m["cli.simulate.train_s"] = sum(s.duration
                                    for s in in_cells["train.train"])
    m["cli.simulate.build_s"] = sum(s.duration
                                    for s in in_cells["model.build"])
    m["cli.simulate.probe_s"] = sum(s.duration
                                    for s in in_cells["cli.run_probe"])
    return m, exact
