"""Acceptance suite: ten end-to-end criteria, one test each. Every test
prints a single `[criterion N] name: PASS|FAIL` line (run with -s to see
them on success)."""

import random
import time

import numpy as np
import pytest

from oracles import (
    bpe_reference_learn,
    morf_exhaustive_minimum,
    ngram_enumeration,
)
from subtok.cli import main as cli_main
from subtok.corpus import (
    Corpus,
    Vocab,
    build_vocab,
    data_group_for,
    sample_tokens,
    tokenize_corpus,
)
from subtok.model import (
    ModelConfig,
    SubwordModel,
    _WordCSR,
    export_vectors,
    load_checkpoint,
    load_vectors,
    save_checkpoint,
)
from subtok.probe import (
    eval_mention_accuracy,
    per_label_accuracy,
    span_f1,
    train_mention_probe,
)
from subtok.segment import char_ngrams, learn_bpe, learn_morfessor_lite
from subtok.synth import make_suffix_benchmark
from subtok.train import (
    NegativeSampler,
    TrainConfig,
    grad_check,
    sgns_step,
    train,
    train_lockstep,
)


def _report(number: int, name: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def _mention_train_config(seed):
    return TrainConfig(window=5, negatives=5, epochs=3, batch_size=32,
                       subsample_t=1e-3, seed=seed)


def _train_charn_mentions(bench, corpus, seed, word_token=True,
                          segmenter="charn"):
    vocab = build_vocab(corpus, 2)
    cfg = ModelConfig(segmenter=segmenter, word_token=word_token, dim=32,
                      seed=seed)
    model = SubwordModel.build(cfg, vocab)
    train(corpus, model, _mention_train_config(seed))
    return model


def _train_charn_seeds(corpus, seeds):
    """The models `_train_charn_mentions` trains for `seeds`, trained as
    siblings in one lockstep call, which gives each the same tables."""
    base = SubwordModel.build(ModelConfig(segmenter="charn", word_token=True,
                                          dim=32, seed=seeds[0]),
                              build_vocab(corpus, 2))
    models = [base.with_seed(seed) for seed in seeds]
    train_lockstep(corpus, models, [_mention_train_config(s) for s in seeds])
    return models


def test_criterion_1_gradient_correctness():
    failures = []
    t0 = time.time()
    report = grad_check(dim=10, trials=100, seed=0)
    elapsed = time.time() - t0
    if report.max_rel_error >= 1e-4:
        failures.append(f"max rel error {report.max_rel_error:.2e} >= 1e-4")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(1, "gradient correctness", failures)


def test_criterion_2_bpe_oracle_equivalence():
    failures = []
    t0 = time.time()
    classic = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    learned = learn_bpe(_vocab_from_freqs(classic), 200)
    if not learned.merges or learned.merges[0] != ("e", "s"):
        failures.append(f"classic first merge is {learned.merges[:1]}, "
                        "expected ('e', 's')")
    if list(learned.merges) != bpe_reference_learn(classic, 200):
        failures.append("classic dictionary diverges from oracle")
    rng = random.Random(42)
    for trial in range(20):
        n_types = rng.randint(3, 50)
        freqs = {}
        while len(freqs) < n_types:
            w = "".join(rng.choice("abcdefgh")
                        for _ in range(rng.randint(1, 8)))
            freqs[w] = rng.randint(1, 40)
        n_merges = rng.randint(1, 200)
        got = list(learn_bpe(_vocab_from_freqs(freqs), n_merges).merges)
        want = bpe_reference_learn(freqs, n_merges)
        if got != want:
            failures.append(f"trial {trial}: learned merges diverge")
            break
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(2, "BPE oracle equivalence", failures)


def _vocab_from_freqs(freqs: dict) -> Vocab:
    sents = [[w] * f for w, f in freqs.items()]
    return build_vocab(Corpus.from_sentences(sents), 1)


def test_criterion_3_char_ngram_oracle():
    failures = []
    rng = random.Random(7)
    pools = ("abcdefghij", "äöüßéñç", "αβγδε", "汉字测试词", "😀🙂🚀")
    for trial in range(1000):
        pool = pools[rng.randrange(len(pools))]
        word = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        got = char_ngrams(word)
        want = ngram_enumeration(word, 3, 6)
        if tuple(got) != tuple(want):
            failures.append(f"trial {trial}: {word!r} -> {got} != {want}")
            break
    _report(3, "char n-gram oracle equivalence", failures)


def test_criterion_4_group_fidelity(tmp_path):
    failures = []
    expected = {10_000: ("G1", 32, 60, 2), 100_000: ("G2", 128, 30, 3),
                1_000_000: ("G3", 512, 15, 5)}
    for n, (label, batch, epochs, mc) in expected.items():
        g = data_group_for(n)
        if (g.label, g.batch_size, g.epochs, g.min_count) != \
                (label, batch, epochs, mc):
            failures.append(f"data_group_for({n}) -> {g}")

    # end-to-end: a simulate run must record the group parameters it used
    bench = make_suffix_benchmark(seed=0, n_tokens=10_000,
                                  n_train_mentions=120, n_dev_mentions=40,
                                  n_test_mentions=40)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text(bench.corpus_text(), encoding="utf-8")
    mentions_path = tmp_path / "mentions.tsv"
    mentions_path.write_text(bench.mentions_tsv(), encoding="utf-8")
    out_dir = tmp_path / "sim"
    rc = cli_main([
        "simulate", "--corpus", str(corpus_path),
        "--mentions", str(mentions_path),
        "--we-tokens", "10000", "--task-instances", "50",
        "--configs", "w2v", "--seeds", "1", "--dim", "8",
        "--out", str(out_dir)])
    if rc != 0:
        failures.append(f"simulate exit code {rc}")
    else:
        lines = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()
        header = lines[0].split("\t")
        row = dict(zip(header, lines[1].split("\t")))
        got = (row["group"], int(row["batch_size"]), int(row["epochs"]),
               int(row["min_count"]))
        if got != ("G1", 32, 60, 2):
            failures.append(f"simulate recorded group triple {got}")
        if row["status"] != "ok":
            failures.append(f"simulate cell status {row['status']}")
    _report(4, "hyper-parameter group fidelity", failures)


def test_criterion_5_subword_advantage():
    failures = []
    t0 = time.time()
    bench = make_suffix_benchmark(seed=0, n_tokens=50_000)
    gaps = []
    for seed in range(1, 6):
        charn = _train_charn_mentions(bench, bench.corpus, seed)
        base = _train_charn_mentions(bench, bench.corpus, seed,
                                     word_token=False, segmenter="word")
        accs = {}
        for name, model in (("charn", charn), ("word", base)):
            probe = train_mention_probe(model, bench.mentions, seed=seed)
            accs[name] = eval_mention_accuracy(probe, model, bench.mentions,
                                               "test")
        gaps.append(accs["charn"] - accs["word"])
    mean_gap = float(np.mean(gaps))
    if mean_gap < 0.15:
        failures.append(f"mean accuracy gap {mean_gap:.3f} < 0.15 "
                        f"(per-seed gaps {[f'{g:.3f}' for g in gaps]})")
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(5, "subword advantage on OOV mentions", failures)


def test_criterion_6_scarcity_monotonicity():
    failures = []
    bench = make_suffix_benchmark(seed=0, n_tokens=200_000,
                                  n_train_mentions=2000, n_dev_mentions=300,
                                  n_test_mentions=400)
    we_sizes = (10_000, 50_000, 200_000)
    task_sizes = (200, 2000)
    grid: dict[tuple, list] = {}
    full_train = list(bench.mentions.splits["train"])
    for we in we_sizes:
        sample = sample_tokens(bench.corpus, we)
        seeds = list(range(1, 6))
        for seed, model in zip(seeds, _train_charn_seeds(sample, seeds)):
            for task_n in task_sizes:
                bench.mentions.splits["train"] = full_train[:task_n]
                probe = train_mention_probe(model, bench.mentions,
                                            seed=seed)
                acc = eval_mention_accuracy(probe, model, bench.mentions,
                                            "test")
                bench.mentions.splits["train"] = full_train
                grid.setdefault((we, task_n), []).append(acc)
    means = {k: float(np.mean(v)) for k, v in grid.items()}

    inversions = []
    for task_n in task_sizes:
        for lo, hi in zip(we_sizes, we_sizes[1:]):
            drop = means[(lo, task_n)] - means[(hi, task_n)]
            if drop > 0:
                inversions.append((f"WE {lo}->{hi} @task {task_n}", drop))
    for we in we_sizes:
        drop = means[(we, task_sizes[0])] - means[(we, task_sizes[1])]
        if drop > 0:
            inversions.append((f"task {task_sizes[0]}->{task_sizes[1]} "
                               f"@WE {we}", drop))
    big = [(w, d) for w, d in inversions if d > 0.01]
    if big or len(inversions) > 1:
        failures.append(f"inversions {inversions} (means {means})")
    _report(6, "scarcity monotonicity", failures)


def test_criterion_7_baseline_reduction():
    failures = []
    corpus = tokenize_corpus("aa bb cc dd ee\n" * 5)
    vocab = build_vocab(corpus, 1)

    word_m = SubwordModel.build(ModelConfig(segmenter="word", dim=8, seed=2),
                                vocab)
    word_m.params.context[:] = 0.01
    before = word_m.params.subword.copy()
    sgns_step(word_m, "aa", "bb", 0.1, 2, NegativeSampler(vocab),
              np.random.default_rng(0))
    changed = np.flatnonzero(
        np.abs(word_m.params.subword - before).sum(axis=1)).tolist()
    expected_row = _WordCSR.of_model(word_m, ["aa"]).flat_sub[0]
    if changed != [expected_row]:
        failures.append(f"whole-word step touched rows {changed}, "
                        f"expected [{expected_row}]")

    corpus2 = tokenize_corpus("cats dogs bird fish\n" * 5)
    vocab2 = build_vocab(corpus2, 1)
    charn_m = SubwordModel.build(
        ModelConfig(segmenter="charn", word_token=True, dim=8, seed=2),
        vocab2)
    charn_m.params.context[:] = 0.01
    before = charn_m.params.subword.copy()
    sgns_step(charn_m, "cats", "dogs", 0.1, 2, NegativeSampler(vocab2),
              np.random.default_rng(1))
    changed = set(np.flatnonzero(
        np.abs(charn_m.params.subword - before).sum(axis=1)).tolist())
    cats = _WordCSR.of_model(charn_m, ["cats"])
    expected = set(cats.flat_sub.tolist()) | set(cats.wt_ids.tolist())
    if changed != expected:
        failures.append(f"charn/w+ step touched {changed}, "
                        f"expected {expected}")
    _report(7, "baseline reduction / update locality", failures)


def test_criterion_8_metric_correctness():
    failures = []
    cases = [
        # (gold, pred, expected p, r, f1)
        ([("B-PER", "I-PER", "O")], [("B-PER", "O", "O")], 0.0, 0.0, 0.0),
        ([("B-PER", "O")], [("O", "O")], 0.0, 0.0, 0.0),
        ([("B-PER", "I-PER", "O", "B-LOC")],
         [("B-PER", "I-PER", "O", "B-LOC")], 1.0, 1.0, 1.0),
        ([("B-PER", "O", "B-LOC", "I-LOC")],
         [("B-PER", "O", "B-LOC", "O")], 0.5, 0.5, 0.5),
        ([("B-PER", "O", "B-LOC"), ("B-ORG", "I-ORG", "O")],
         [("B-PER", "O", "O"), ("B-ORG", "I-ORG", "B-LOC")],
         2 / 3, 2 / 3, 2 / 3),
    ]
    for i, (gold, pred, ep, er, ef) in enumerate(cases):
        p, r, f1 = span_f1(gold, pred)
        if abs(p - ep) > 1e-9 or abs(r - er) > 1e-9 or abs(f1 - ef) > 1e-9:
            failures.append(f"case {i}: got {(p, r, f1)}, "
                            f"expected {(ep, er, ef)}")
    acc = per_label_accuracy([("POS=V|Tense=Past", "POS=N|Num=Sg")],
                             [("POS=V|Tense=Pres", "POS=N|Num=Sg")])
    if abs(acc - 0.5) > 1e-9:
        failures.append(f"partial tag bundle scored {acc}, expected 0.5 "
                        "(no partial credit)")
    _report(8, "metric correctness", failures)


def test_criterion_9_determinism_serialization(tmp_path):
    failures = []
    corpus = tokenize_corpus("red blue green yellow pink\n" * 200)
    vocab = build_vocab(corpus, 1)
    cfg = ModelConfig(segmenter="charn", word_token=True, position=True,
                      dim=12, seed=6)
    tcfg = TrainConfig(window=3, negatives=3, epochs=2, batch_size=16,
                       subsample_t=0, seed=6)
    from subtok.train import train
    m1 = SubwordModel.build(cfg, vocab)
    train(corpus, m1, tcfg)
    m2 = SubwordModel.build(cfg, vocab)
    train(corpus, m2, tcfg)
    if not (np.array_equal(m1.params.subword, m2.params.subword)
            and np.array_equal(m1.params.position, m2.params.position)
            and np.array_equal(m1.params.context, m2.params.context)):
        failures.append("fixed-seed training is not bit-reproducible")

    vec_path = tmp_path / "vec.txt"
    export_vectors(m1, vec_path)
    words, mat = load_vectors(vec_path)
    worst = max(np.abs(mat[i] - m1.word_vector(w)).max()
                for i, w in enumerate(words))
    if worst >= 1e-5:
        failures.append(f"export roundtrip error {worst:.2e} >= 1e-5")

    ckpt = tmp_path / "ckpt"
    save_checkpoint(m1, ckpt)
    loaded = load_checkpoint(ckpt)
    for w in vocab.words + ["oovword"]:
        if not np.array_equal(loaded.word_vector(w), m1.word_vector(w)):
            failures.append(f"checkpoint reload changes compose({w!r})")
            break
    _report(9, "determinism and serialization", failures)


def test_criterion_10_morfessor_sanity():
    failures = []
    rng = random.Random(13)
    for trial in range(10):
        freqs = {}
        while len(freqs) < rng.randint(3, 8):
            w = "".join(rng.choice("abcde")
                        for _ in range(rng.randint(2, 7)))
            freqs[w] = rng.randint(1, 12)
        model = learn_morfessor_lite(_vocab_from_freqs(freqs), max_iters=10)
        costs = model.cost_history
        if any(b > a + 1e-9 for a, b in zip(costs, costs[1:])):
            failures.append(f"trial {trial}: cost history increases {costs}")
            break

    walk = {"walk": 10, "walked": 5, "walking": 5}
    model = learn_morfessor_lite(_vocab_from_freqs(walk), max_iters=10)
    learned = {w: tuple(model.segment(w)) for w in walk}
    best, best_cost = morf_exhaustive_minimum(walk)
    if learned != best:
        failures.append(f"walk family: learned {learned}, exhaustive "
                        f"minimum {best} (cost {best_cost:.3f})")
    _report(10, "morfessor-lite sanity", failures)
