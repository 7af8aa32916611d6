import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subtok.cli
import subtok.model
import subtok.probe as probe_mod
from subtok.cli import (
    ArtifactGuard,
    _cell_configs,
    build_parser,
    load_task_data,
    main,
    parse_config_label,
    run_probe,
)
from subtok.corpus import build_vocab, load_corpus, sample_tokens
from subtok.errors import SubtokError
from subtok.model import (
    SEGMENTER_FILES,
    ModelConfig,
    SubwordModel,
    build_segmenter,
)
from subtok.probe import (
    TAGGER_WINDOW,
    TaskFeatures,
    eval_mention_accuracy,
    load_conll,
    load_mentions,
    per_label_accuracy,
    span_f1,
    train_mention_probe,
)
from subtok.segment import (
    END_OF_WORD,
    MORF_MAX_ITERS,
    learn_morfessor_lite,
)
from subtok.synth import make_suffix_benchmark
from subtok.train import TrainConfig, train, train_lockstep


@pytest.fixture
def corpus_file(tmp_path):
    words = ["red", "blue", "green", "yellow", "pink", "black"]
    lines = []
    for i in range(400):
        lines.append(" ".join(words[(i + j) % 6] for j in range(6)))
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def mentions_file(tmp_path):
    lines = []
    for i in range(40):
        w = ["red", "blue", "green", "yellow"][i % 4]
        label = "/warm" if w in ("red", "yellow") else "/cool"
        lines.append(f"{w}\t{label}")
    path = tmp_path / "mentions.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


SRC = Path(subtok.cli.__file__).resolve().parents[1]


class FileLog:
    """A list kept as JSON lines in a file, so that what forked simulate
    workers append shows up in the test process too."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def append(self, item):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(item) + "\n")

    def clear(self):
        self.path.write_text("", encoding="utf-8")

    def _items(self):
        return [json.loads(line) for line in
                self.path.read_text("utf-8").splitlines()]

    def __iter__(self):
        return iter(self._items())

    def __len__(self):
        return len(self._items())


class CallCounts(FileLog):
    """A FileLog of [name, pid] per training (one per model of a lockstep
    call) and per learn_bpe call; equal to the {name: count} dict of
    them."""

    def counts(self):
        names = [name for name, _ in self]
        return {n: names.count(n) for n in ("train", "learn_bpe")}

    def __eq__(self, other):
        return self.counts() == other

    def __repr__(self):
        return repr(self.counts())


class TestConfigLabels:
    def test_aliases(self):
        assert parse_config_label("w2v").label == "word:w-:p-"
        assert parse_config_label("ft").label == "charn:w+:p-"

    def test_bpe_merge_counts(self):
        assert parse_config_label("bpe1e3").num_merges == 1000
        assert parse_config_label("bpe500").num_merges == 500

    def test_flags(self):
        cfg = parse_config_label("morf:w+:p+")
        assert (cfg.segmenter, cfg.word_token, cfg.position) == \
            ("morf", True, True)

    def test_unknown_label(self):
        with pytest.raises(SubtokError):
            parse_config_label("wordpiece")
        with pytest.raises(SubtokError):
            parse_config_label("charn:x+")

    @pytest.mark.parametrize("label", ["bpex", "bpe", "bpe1.5", "bpe1e999"])
    def test_merge_count_not_a_whole_number(self, label):
        with pytest.raises(SubtokError, match=label):
            parse_config_label(label)

    @pytest.mark.parametrize("label,message", [
        ("bpe0", "num_merges must be >= 1"),
        ("bpex", "bpe config label needs a whole merge count: 'bpex'")])
    def test_bad_merge_count_exit_1_before_any_file(
            self, corpus_file, mentions_file, tmp_path, capsys, label,
            message):
        out_dir = tmp_path / "sim"
        rc = main(["simulate", "--corpus", str(corpus_file),
                   "--mentions", str(mentions_file), "--we-tokens", "2000",
                   "--task-instances", "10", "--configs", f"w2v,{label}",
                   "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert not out_dir.exists()


class TestVocabCommand:
    def test_writes_tsv(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "vocab.tsv"
        rc = main(["vocab", "--corpus", str(corpus_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text("utf-8").splitlines()
        assert len(lines) == 6
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_missing_corpus_exit_1(self, tmp_path, capsys):
        rc = main(["vocab", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "v.tsv")])
        assert rc == 1
        assert "subtok:" in capsys.readouterr().err
        assert not (tmp_path / "v.tsv").exists()

    def test_min_count_0_exit_1(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "v.tsv"
        rc = main(["vocab", "--corpus", str(corpus_file), "--min-count", "0",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "min_count must be >= 1" in err
        assert "internal error" not in err
        assert not out.exists()

    def test_we_tokens_reads_a_prefix(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "v.tsv"
        assert main(["vocab", "--corpus", str(corpus_file), "--we-tokens",
                     "5", "--out", str(out)]) == 0
        # the corpus's first line without its last word, `black`
        assert out.read_text("utf-8") == "".join(
            f"{w}\t{i}\t1\n"
            for i, w in enumerate(["blue", "green", "pink", "red", "yellow"]))

    def test_data_dir_default_out(self, corpus_file, tmp_path, monkeypatch):
        root = tmp_path / "artifacts"
        root.mkdir()
        monkeypatch.setenv("SUBTOK_DATA_DIR", str(root))
        assert main(["vocab", "--corpus", str(corpus_file)]) == 0
        assert (root / "vocab.tsv").exists()


class TestSegmentCommands:
    def test_bpe_learn_and_apply(self, corpus_file, tmp_path, capsys):
        model_path = tmp_path / "bpe.txt"
        rc = main(["segment-learn", "--corpus", str(corpus_file),
                   "--seg", "bpe", "--merges", "20",
                   "--out", str(model_path)])
        assert rc == 0
        assert model_path.read_text("utf-8").startswith("#bpe v2 ")
        capsys.readouterr()
        rc = main(["segment-apply", "--seg", "bpe",
                   "--model", str(model_path), "red", "blueish"])
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("red\t")
        assert out_lines[1].startswith("blueish\t")

    @pytest.mark.parametrize("seg", sorted(SEGMENTER_FILES))
    def test_learn_writes_the_default_file_and_apply_reads_it(
            self, corpus_file, tmp_path, monkeypatch, capsys, seg):
        """Without --out the model file takes its kind's default name under
        SUBTOK_DATA_DIR; --merges is read for bpe only."""
        monkeypatch.setenv("SUBTOK_DATA_DIR", str(tmp_path))
        merges = "20" if seg == "bpe" else "0"
        assert main(["segment-learn", "--corpus", str(corpus_file),
                     "--seg", seg, "--merges", merges]) == 0
        written = tmp_path / SEGMENTER_FILES[seg][0]
        assert [p.name for p in tmp_path.iterdir()
                if p.name != corpus_file.name] == [written.name]
        capsys.readouterr()
        assert main(["segment-apply", "--seg", seg, "--model", str(written),
                     "red", "blueish"]) == 0
        model = SEGMENTER_FILES[seg][1](written)
        assert capsys.readouterr().out == "".join(
            f"{w}\t{' '.join(model.segment(w))}\n" for w in ("red", "blueish"))

    def test_charn_apply(self, capsys):
        rc = main(["segment-apply", "--seg", "charn", "cats"])
        assert rc == 0
        word, parts = capsys.readouterr().out.strip().split("\t")
        assert word == "cats"
        assert "<ca" in parts.split()

    def test_apply_word_token(self, capsys):
        assert main(["segment-apply", "--seg", "word", "--word-token",
                     "cats"]) == 0
        assert capsys.readouterr().out == "cats\tcats [cats]\n"

    def test_apply_bpe_without_model(self, capsys):
        assert main(["segment-apply", "--seg", "bpe", "cats"]) == 1

    def test_apply_empty_word_exit_1(self, capsys):
        assert main(["segment-apply", "--seg", "charn", "cats", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err == "subtok: cannot segment an empty word\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seg,flag,message", [
        ("bpe", "--min-count", "min_count must be >= 1"),
        ("morf", "--min-count", "min_count must be >= 1"),
        ("bpe", "--merges", "num_merges must be >= 1"),
        ("morf", "--max-iters", "max_iters must be >= 1")])
    def test_learn_count_0_exit_1(self, corpus_file, tmp_path, capsys, seg,
                                  flag, message):
        out = tmp_path / "model.txt"
        rc = main(["segment-learn", "--corpus", str(corpus_file),
                   "--seg", seg, flag, "0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert not out.exists()

    def test_bpe_marker_in_a_word_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"red red b{END_OF_WORD} blue\n", encoding="utf-8")
        out = tmp_path / "bpe.txt"
        rc = main(["segment-learn", "--corpus", str(corpus), "--seg", "bpe",
                   "--out", str(out)])
        assert rc == 1
        assert "U+10FFFF" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("#bpe v2 1\nr e\n", encoding="utf-8")
        rc = main(["segment-apply", "--seg", "bpe", "--model", str(out),
                   "red", f"b{END_OF_WORD}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "U+10FFFF" in err and "internal error" not in err

    @pytest.mark.parametrize("argv,rc,stdout", [
        (["segment-apply", "--seg", "word", "cats"], 0, "cats\tcats\n"),
        (["segment-apply", "--seg", "bpe", "cats"], 1, "")])
    def test_python_dash_m(self, argv, rc, stdout):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "subtok", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (rc, stdout), proc.stderr

    def test_charn_learn_rejected(self, corpus_file, capsys):
        # argparse rejects the choice before dispatch
        with pytest.raises(SystemExit):
            main(["segment-learn", "--corpus", str(corpus_file),
                  "--seg", "charn"])


class TestTrainExportProbe:
    def _train(self, corpus_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--seg", "charn",
                   "--dim", "16", "--epochs", "1", "--seed", "3",
                   "--out", str(ckpt)])
        assert rc == 0
        return ckpt

    def test_train_checkpoint_layout(self, corpus_file, tmp_path, capsys):
        ckpt = self._train(corpus_file, tmp_path, capsys)
        for name in ("config.txt", "vocab.tsv", "subwords.tsv",
                     "subword.mat", "context.mat", "trace.tsv"):
            assert (ckpt / name).exists()

    # a batch size or min count of 0 is checked, not replaced by the group's
    @pytest.mark.parametrize("flag", ["--window", "--negatives", "--dim",
                                      "--batch-size", "--min-count"])
    def test_out_of_range_flag_exit_1(self, corpus_file, tmp_path, capsys,
                                      flag):
        ckpt = tmp_path / "ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--epochs", "1",
                   flag, "0", "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "must be >= 1" in err
        assert "internal error" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--batch-size", "-5", "batch_size and min_count must be >= 1"),
        ("--epochs", "-2", "epochs must be >= 0"),
        ("--min-count", "-1", "batch_size and min_count must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--we-tokens", "-5", "--we-tokens must be >= 1")])
    def test_negative_flag_exit_1(self, corpus_file, tmp_path, capsys, flag,
                                  value, message):
        ckpt = tmp_path / "ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--epochs", "1",
                   flag, value, "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert not ckpt.exists()

    def test_we_tokens_trains_on_a_prefix(self, corpus_file, tmp_path,
                                          capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(corpus_file), "--we-tokens",
                     "1200", "--dim", "8", "--epochs", "1", "--out",
                     str(ckpt)]) == 0
        assert " on 1200 tokens " in capsys.readouterr().out
        vocab = subtok.model.load_checkpoint(ckpt).vocab
        assert vocab.counts.tolist() == [200] * 6

    def test_export_names_missing_config_key(self, corpus_file, tmp_path,
                                             capsys):
        ckpt = self._train(corpus_file, tmp_path, capsys)
        config = ckpt / "config.txt"
        config.write_text("".join(
            line for line in config.read_text("utf-8").splitlines(True)
            if not line.startswith("seed=")), encoding="utf-8")
        rc = main(["export", "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "vec.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "seed=" in err and "internal error" not in err
        assert not (tmp_path / "vec.txt").exists()

    def test_export(self, corpus_file, tmp_path, capsys):
        ckpt = self._train(corpus_file, tmp_path, capsys)
        vec = tmp_path / "vec.txt"
        rc = main(["export", "--checkpoint", str(ckpt), "--out", str(vec)])
        assert rc == 0
        header = vec.read_text("utf-8").splitlines()[0]
        assert header.endswith(" 16")

    def test_probe_mentions(self, corpus_file, mentions_file, tmp_path,
                            capsys):
        ckpt = self._train(corpus_file, tmp_path, capsys)
        out = tmp_path / "metrics.tsv"
        rc = main(["probe", "--checkpoint", str(ckpt), "--task", "mentions",
                   "--data", str(mentions_file), "--out", str(out)])
        assert rc == 0
        rows = [l.split("\t") for l in
                out.read_text("utf-8").splitlines()]
        assert {r[2] for r in rows} == {"dev", "test"}
        assert all(r[0] == "fget" and r[3] == "accuracy" for r in rows)

    def test_probe_conll_ner(self, corpus_file, tmp_path, capsys):
        ckpt = self._train(corpus_file, tmp_path, capsys)
        conll = tmp_path / "ner.tsv"
        lines = []
        for i in range(30):
            lines += ["red\tB-PER", "blue\tO", "green\tB-LOC", ""]
        conll.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m.tsv"
        rc = main(["probe", "--checkpoint", str(ckpt), "--task", "conll",
                   "--data", str(conll), "--out", str(out)])
        assert rc == 0
        rows = [l.split("\t") for l in out.read_text("utf-8").splitlines()]
        assert {r[3] for r in rows} == {"precision", "recall", "f1"}
        assert all(r[0] == "ner" for r in rows)


class TestProbeNeedsDev:
    def test_empty_dev_split_exit_1_without_metrics(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("cats dogs walked talked\n" * 30, encoding="utf-8")
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(corpus), "--dim", "8",
                     "--epochs", "1", "--out", str(ckpt)]) == 0
        # 4 mentions split 2/0/2
        data = tmp_path / "mentions.tsv"
        data.write_text("cats\tA\ndogs\tB\nwalked\tA\ntalked\tB\n",
                        encoding="utf-8")
        out = tmp_path / "metrics.tsv"
        capsys.readouterr()
        rc = main(["probe", "--checkpoint", str(ckpt), "--task", "mentions",
                   "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "empty dev split" in err and "internal error" not in err
        assert not out.exists()


class TestSimulate:
    def _run(self, corpus_file, mentions_file, out_dir, seeds, *extra):
        return main([
            "simulate", "--corpus", str(corpus_file),
            "--mentions", str(mentions_file),
            "--we-tokens", "2000", "--task-instances", "10",
            "--configs", "w2v", "--seeds", seeds,
            "--dim", "8", "--train-epochs", "1",
            "--out", str(out_dir), *extra])

    def test_grid_rows(self, corpus_file, mentions_file, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir, "1") == 0
        lines = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()
        header = lines[0].split("\t")
        assert header[:5] == ["we_tokens", "task_instances", "config",
                              "seed", "group"]
        assert header[-1] == "status"
        row = dict(zip(header, lines[1].split("\t")))
        assert row["group"] == "G1"
        assert row["config"] == "word:w-:p-"
        assert row["status"] == "ok"

    def test_rows_record_the_epochs_that_ran(self, corpus_file,
                                             mentions_file, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir, "1") == 0
        lines = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert (row["batch_size"], row["epochs"], row["min_count"]) == \
            ("32", "1", "2")

    def test_failed_message_stays_in_one_row(self, corpus_file,
                                             mentions_file, tmp_path,
                                             monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SubtokError("bad\tvalue\nline")

        monkeypatch.setattr("subtok.cli.train_lockstep", fail)
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir, "1") == 0
        lines = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()
        assert len(lines) == 2
        fields = lines[1].split("\t")
        assert len(fields) == 13
        assert fields[-1] == "failed:bad value line"
        summary = tmp_path / "summary.tsv"
        assert main(["report", "--metrics", str(out_dir / "metrics.tsv"),
                     "--out", str(summary)]) == 0
        srows = summary.read_text("utf-8").splitlines()
        row = dict(zip(srows[0].split("\t"), srows[1].split("\t")))
        assert row["n_failed"] == "1"

    @pytest.mark.parametrize("flag", ["--window", "--negatives", "--dim"])
    def test_out_of_range_flag_exit_1_before_any_row(
            self, corpus_file, mentions_file, tmp_path, capsys, flag):
        out_dir = tmp_path / "sim"
        rc = self._run(corpus_file, mentions_file, out_dir, "1", flag, "0")
        assert rc == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_resume_skips_done_cells(self, corpus_file, mentions_file,
                                     tmp_path, capsys):
        out_dir = tmp_path / "sim"
        self._run(corpus_file, mentions_file, out_dir, "1")
        capsys.readouterr()
        assert self._run(corpus_file, mentions_file, out_dir, "1,2") == 0
        msg = capsys.readouterr().out
        assert "1 cells computed, 1 skipped" in msg

    @pytest.mark.parametrize("we,task", [("0", "10"), ("2000,-1", "10"),
                                         ("2000", "0"), ("2000", "10,0")])
    def test_grid_point_below_1_exit_1_before_any_file(
            self, corpus_file, mentions_file, tmp_path, capsys, we, task):
        out_dir = tmp_path / "sim"
        rc = main(["simulate", "--corpus", str(corpus_file),
                   "--mentions", str(mentions_file), "--we-tokens", we,
                   "--task-instances", task, "--configs", "w2v",
                   "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "must be >= 1" in err and "internal error" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--seeds", "1,1", "--seeds repeats 1"),
        ("--we-tokens", "2000,2000", "--we-tokens repeats 2000"),
        ("--task-instances", "10,10", "--task-instances repeats 10"),
        ("--configs", "ft,charn:w+:p-",
         "--configs repeats ft (charn:w+:p- is the same)"),
        ("--configs", "bpe1e3,bpe1000",
         "--configs repeats bpe1e3 (bpe1000 is the same)")])
    def test_repeated_value_exit_1_before_any_file(
            self, corpus_file, mentions_file, tmp_path, capsys, flag, value,
            message):
        argv = {"--we-tokens": "2000", "--task-instances": "10",
                "--configs": "w2v", "--seeds": "1", flag: value}
        out_dir = tmp_path / "sim"
        rc = main(["simulate", "--corpus", str(corpus_file),
                   "--mentions", str(mentions_file), "--dim", "8",
                   "--train-epochs", "1", "--out", str(out_dir),
                   *[x for pair in argv.items() for x in pair]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"subtok: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("cut", ["newline", "fields"])
    def test_half_written_last_line_stops_resume(
            self, corpus_file, mentions_file, tmp_path, capsys, cut):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir, "1,2") == 0
        metrics = out_dir / "metrics.tsv"
        text = metrics.read_text("utf-8")
        if cut == "newline":
            text = text[:-1]
        else:
            text = text[:text.rindex("\t")] + "\n"
        metrics.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert self._run(corpus_file, mentions_file, out_dir, "1,2,3") == 1
        err = capsys.readouterr().err
        assert f"line 3: half-written row in {metrics}" in err
        assert metrics.read_text("utf-8") == text

    def test_oversized_we_point(self, corpus_file, mentions_file, tmp_path,
                                capsys):
        rc = main([
            "simulate", "--corpus", str(corpus_file),
            "--mentions", str(mentions_file),
            "--we-tokens", "10000000", "--task-instances", "10",
            "--configs", "w2v", "--seeds", "1",
            "--out", str(tmp_path / "sim")])
        assert rc == 1

    @pytest.mark.parametrize("content", [None, b"red\t/warm\n\xff\t/x\n"])
    def test_unreadable_task_file_exit_1_before_any_file(
            self, corpus_file, tmp_path, capsys, content):
        task_file = tmp_path / "mentions.tsv"
        if content is not None:
            task_file.write_bytes(content)
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, task_file, out_dir, "1") == 1
        err = capsys.readouterr().err
        assert f"cannot read task file {task_file}" in err
        assert "internal error" not in err
        assert not out_dir.exists()

    def test_failed_we_point_fails_only_its_cells(
            self, corpus_file, mentions_file, tmp_path, capsys):
        """The first 1200 tokens are distinct words, so no type of WE 1200
        reaches G1's min_count 2; the next are corpus_file's."""
        corpus = tmp_path / "mixed.txt"
        corpus.write_text("".join(
            " ".join(f"u{i + j}" for j in range(6)) + "\n"
            for i in range(0, 1200, 6)) + corpus_file.read_text("utf-8"),
            encoding="utf-8")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--corpus", str(corpus),
                     "--mentions", str(mentions_file),
                     "--we-tokens", "1200,2400", "--task-instances", "10",
                     "--configs", "w2v,ft", "--seeds", "1",
                     "--dim", "8", "--train-epochs", "1",
                     "--out", str(out_dir)]) == 0
        rows = [line.split("\t") for line in
                (out_dir / "metrics.tsv").read_text("utf-8").splitlines()[1:]]
        assert sorted((r[0], r[2], r[-1]) for r in rows) == [
            ("1200", config, "failed:no word type reaches min_count=2 "
                             "(1200 types in corpus)")
            for config in ("charn:w+:p-", "word:w-:p-")] + [
            ("2400", config, "ok")
            for config in ("charn:w+:p-", "word:w-:p-")]

    def test_needs_task_data(self, corpus_file, tmp_path, capsys):
        rc = main(["simulate", "--corpus", str(corpus_file),
                   "--we-tokens", "2000", "--task-instances", "10",
                   "--configs", "w2v", "--out", str(tmp_path / "s")])
        assert rc == 1

    def test_refuses_both_task_files(self, corpus_file, mentions_file,
                                     tmp_path, capsys):
        conll = tmp_path / "tags.tsv"
        conll.write_text("red\tADJ\n\nblue\tADJ\n", encoding="utf-8")
        rc = main(["simulate", "--corpus", str(corpus_file), "--mentions",
                   str(mentions_file), "--conll", str(conll),
                   "--we-tokens", "2000", "--task-instances", "10",
                   "--configs", "w2v", "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "needs exactly one of" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestProbeStability:
    def test_rounding_the_tables_moves_no_row(self, tmp_path, monkeypatch,
                                              capsys):
        """Scaling each trained subword table by (1 + 1e-7) changes only
        its low bits, and leaves every row of the grid as it was. A probe
        trained by SGD at lr 0.5 moved two bpe1e3:w+:p+ rows of this grid
        by 0.155 and 0.111."""
        bench = make_suffix_benchmark(1, n_tokens=50_000)
        corpus, mentions = tmp_path / "corpus.txt", tmp_path / "mentions.tsv"
        corpus.write_text(bench.corpus_text(), encoding="utf-8")
        mentions.write_text(bench.mentions_tsv(), encoding="utf-8")
        argv = ["simulate", "--corpus", str(corpus), "--mentions",
                str(mentions), "--we-tokens", "10000,50000",
                "--task-instances", "200,1200", "--configs",
                "ft,bpe1e3:w+:p+", "--seeds", "1,2", "--train-epochs", "1",
                "--dim", "32", "--subsample-t", "1e-3"]
        assert main(argv + ["--out", str(tmp_path / "exact")]) == 0

        scaled = FileLog(tmp_path / "scaled.jsonl")

        def rounded(sample, models, tcfgs):
            out = train_lockstep(sample, models, tcfgs)
            for model in models:
                model.params.subword *= 1 + 1e-7
                scaled.append(model.config.label)
            return out

        monkeypatch.setattr(subtok.cli, "train_lockstep", rounded)
        assert main(argv + ["--out", str(tmp_path / "rounded")]) == 0
        exact, rounded = ((tmp_path / run / "metrics.tsv").read_text("utf-8")
                          for run in ("exact", "rounded"))
        assert len(scaled) == 8  # 2 WE points x 2 configs x 2 seeds
        assert exact.count("\tok\n") == 16
        assert rounded == exact


class TestSimulateReuse:
    """A 2 WE x 2 task x 2 config x 2 seed grid with one bpe config."""

    ARGV = ["--we-tokens", "1200,2400", "--task-instances", "5,10",
            "--configs", "w2v,bpe1e1:w+:p-", "--seeds", "1,2", "--dim", "8",
            "--train-epochs", "1"]

    def _run(self, corpus_file, mentions_file, out_dir):
        return main(["simulate", "--corpus", str(corpus_file),
                     "--mentions", str(mentions_file), *self.ARGV,
                     "--out", str(out_dir)])

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        calls = CallCounts(tmp_path / "calls.jsonl")

        def counted(name, func, per=lambda *args: [None]):
            def wrapper(*args, **kwargs):
                for _ in per(*args):
                    calls.append([name, os.getpid()])
                return func(*args, **kwargs)
            return wrapper

        # one training per model of a lockstep call
        monkeypatch.setattr(subtok.cli, "train_lockstep", counted(
            "train", subtok.cli.train_lockstep, lambda _, models, __: models))
        monkeypatch.setattr(subtok.model, "learn_bpe",
                            counted("learn_bpe", subtok.model.learn_bpe))
        return calls

    def test_trains_each_triple_and_learns_bpe_once_per_we_point(
            self, corpus_file, mentions_file, tmp_path, calls, capsys):
        assert self._run(corpus_file, mentions_file, tmp_path / "sim") == 0
        assert calls == {"train": 8, "learn_bpe": 2}
        assert "16 cells computed, 0 skipped" in capsys.readouterr().out

    def test_rows_equal_a_per_cell_rebuild(self, corpus_file, mentions_file,
                                           tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        args = build_parser().parse_args(
            ["simulate", "--corpus", str(corpus_file),
             "--mentions", str(mentions_file), *self.ARGV])
        corpus = load_corpus(corpus_file)
        lines = ["\t".join(subtok.cli.SIMULATE_COLUMNS)]
        for we in (2400, 1200):  # largest WE point first
            for task_n in (5, 10):
                for label in ("w2v", "bpe1e1:w+:p-"):
                    for seed in (1, 2):
                        cfg, group, tcfg = _cell_configs(args, label, we,
                                                         seed)
                        sample = sample_tokens(corpus, we)
                        model = SubwordModel.build(
                            cfg, build_vocab(sample, tcfg.min_count))
                        train(sample, model, tcfg)
                        data = load_task_data("mentions", mentions_file,
                                              seed)
                        rows, = run_probe(model, data,
                                          task_instances=[task_n])
                        for task, _, split, metric, value in rows:
                            if split == "test":
                                lines.append("\t".join(map(str, [
                                    we, task_n, cfg.label, seed, group.label,
                                    tcfg.batch_size, tcfg.epochs,
                                    tcfg.min_count, task, split, metric,
                                    f"{value:.6f}", "ok"])))
        assert (out_dir / "metrics.tsv").read_text("utf-8") == \
            "\n".join(lines) + "\n"

    def test_resume_retrains_only_the_missing_triple(
            self, corpus_file, mentions_file, tmp_path, calls, capsys):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        metrics = out_dir / "metrics.tsv"
        full = metrics.read_text("utf-8").splitlines(True)
        # drop task point 10 of (WE 2400, bpe1e1:w+:p-, seed 2)
        gone = [l for l in full
                if l.startswith("2400\t10\tbpe1e1:w+:p-\t2\t")]
        assert gone
        metrics.write_text("".join(l for l in full if l not in gone),
                           encoding="utf-8")
        calls.clear()
        capsys.readouterr()
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        assert calls == {"train": 1, "learn_bpe": 1}
        assert "1 cells computed, 15 skipped" in capsys.readouterr().out
        resumed = metrics.read_text("utf-8").splitlines(True)
        assert resumed[-len(gone):] == gone
        assert sorted(resumed) == sorted(full)

    def test_lockstep_calls_stay_within_lockstep_rows(
            self, corpus_file, mentions_file, tmp_path, monkeypatch, capsys):
        """A config's seeds share a lockstep call as far as LOCKSTEP_ROWS
        allows at the group's batch size; with room for one G1 batch,
        each seed trains alone, and the rows stay the same."""
        monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                            lambda pid: {0})
        sizes, real = FileLog(tmp_path / "sizes.jsonl"), train_lockstep

        def recorded(sample, models, tcfgs):
            sizes.append([len(models), tcfgs[0].batch_size])
            return real(sample, models, tcfgs)

        monkeypatch.setattr(subtok.cli, "train_lockstep", recorded)
        assert self._run(corpus_file, mentions_file, tmp_path / "two") == 0
        assert list(sizes) == [[2, 32]] * 4
        sizes.clear()
        monkeypatch.setattr(subtok.cli, "LOCKSTEP_ROWS", 32)
        assert self._run(corpus_file, mentions_file, tmp_path / "one") == 0
        assert list(sizes) == [[1, 32]] * 8
        assert (tmp_path / "two" / "metrics.tsv").read_bytes() == \
            (tmp_path / "one" / "metrics.tsv").read_bytes()

    def test_a_diverging_seed_fails_only_its_cells(
            self, corpus_file, mentions_file, tmp_path, monkeypatch, capsys):
        """Seed 2's context row of the most frequent word is inf before
        every call it trains in. Each two-seed G1 call fails and is run
        again one seed per call; seed 2's cells fail with the message it
        gives alone, and every other row equals a run without the fault."""
        monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                            lambda pid: {0})
        assert self._run(corpus_file, mentions_file, tmp_path / "clean") == 0
        calls, real = FileLog(tmp_path / "calls.jsonl"), train_lockstep

        def diverging(sample, models, tcfgs):
            calls.append([model.config.seed for model in models])
            for model in models:
                if model.config.seed == 2:
                    model.params.context[0] = np.inf
            return real(sample, models, tcfgs)

        monkeypatch.setattr(subtok.cli, "train_lockstep", diverging)
        assert self._run(corpus_file, mentions_file, tmp_path / "fault") == 0
        assert list(calls) == [[1, 2], [1], [2]] * 4
        clean, fault = ((tmp_path / run / "metrics.tsv").read_text(
            "utf-8").splitlines() for run in ("clean", "fault"))
        args = build_parser().parse_args(
            ["simulate", "--corpus", str(corpus_file),
             "--mentions", str(mentions_file), *self.ARGV])
        corpus = load_corpus(corpus_file)
        assert len(fault) == len(clean) == 17
        for expected, row in zip(clean, fault):
            cell = expected.split("\t")[:8]
            if cell[3] == "2":
                cfg, _, tcfg = _cell_configs(args, cell[2], int(cell[0]), 2)
                sample = sample_tokens(corpus, int(cell[0]))
                model = SubwordModel.build(
                    cfg, build_vocab(sample, tcfg.min_count))
                model.params.context[0] = np.inf
                with pytest.raises(SubtokError) as alone:
                    train(sample, model, tcfg)
                expected = "\t".join(cell + ["-", "-", "-", "0",
                                             f"failed:{alone.value}"])
            assert row == expected

    def test_task_file_parsed_once_per_seed(self, corpus_file, mentions_file,
                                            tmp_path, monkeypatch, capsys):
        loads = FileLog(tmp_path / "loads.jsonl")
        real_load, real_probe = subtok.cli.load_mentions, subtok.cli.run_probe
        seed_of = {}  # id of a loaded dataset -> the seed that split it

        def load(*args, **kwargs):
            loads.append(kwargs["seed"])
            data = real_load(*args, **kwargs)
            seed_of[id(data)] = kwargs["seed"]
            return data

        monkeypatch.setattr(subtok.cli, "load_mentions", load)
        assert self._run(corpus_file, mentions_file, tmp_path / "once") == 0
        assert sorted(loads) == [1, 2]

        def probe_from_file(model, data, **kwargs):
            # each model parses the file itself; workers are forked
            # after the once-per-seed loads, so they see seed_of filled
            return real_probe(model, subtok.cli.load_task_data(
                "mentions", mentions_file, seed_of[id(data)]), **kwargs)

        monkeypatch.setattr(subtok.cli, "run_probe", probe_from_file)
        loads.clear()
        assert self._run(corpus_file, mentions_file, tmp_path / "each") == 0
        assert len(loads) == 2 + 8  # once per seed, then per model
        assert (tmp_path / "once" / "metrics.tsv").read_bytes() == \
            (tmp_path / "each" / "metrics.tsv").read_bytes()

    def test_rows_equal_for_one_and_two_workers(
            self, corpus_file, mentions_file, tmp_path, calls, monkeypatch,
            capsys):
        texts = {}
        for workers in (1, 2):
            monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                                lambda pid, n=workers: set(range(n)))
            out_dir = tmp_path / f"workers{workers}"
            calls.clear()
            assert self._run(corpus_file, mentions_file, out_dir) == 0
            train_pids = {pid for name, pid in calls if name == "train"}
            if workers == 1:
                assert train_pids == {os.getpid()}
            else:
                # trained in forked workers; how the jobs spread over
                # them is up to the scheduler
                assert train_pids and os.getpid() not in train_pids
            metrics = out_dir / "metrics.tsv"
            texts[workers] = metrics.read_bytes()
            # resume with task point 10 of seed 2 missing: 2 jobs per WE
            # point
            metrics.write_text("".join(
                line for line in metrics.read_text("utf-8").splitlines(True)
                if "\t10\t" not in line or "\t2\tG" not in line),
                encoding="utf-8")
            assert self._run(corpus_file, mentions_file, out_dir) == 0
            assert "4 cells computed, 12 skipped" in capsys.readouterr().out
            texts[workers, "resumed"] = metrics.read_bytes()
        assert texts[1] == texts[2]
        assert texts[1, "resumed"] == texts[2, "resumed"]

    def test_failed_segmentation_fails_only_its_cells(
            self, corpus_file, mentions_file, tmp_path, calls, monkeypatch,
            capsys):
        real_build = subtok.cli.build_segmentation

        def build(cfg, vocab):
            if cfg.segmenter == "bpe":
                raise SubtokError("no merges")
            return real_build(cfg, vocab)

        monkeypatch.setattr(subtok.cli, "build_segmentation", build)
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        rows = [line.split("\t") for line in
                (out_dir / "metrics.tsv").read_text("utf-8").splitlines()[1:]]
        assert len(rows) == 16
        assert {(r[2], r[-1]) for r in rows} == {
            ("word:w-:p-", "ok"), ("bpe1e1:w+:p-", "failed:no merges")}
        assert calls == {"train": 4, "learn_bpe": 0}

    def test_one_pool_runs_the_largest_we_point_first(
            self, corpus_file, mentions_file, tmp_path, monkeypatch, capsys):
        pools, submitted = [], []

        class Pool(subtok.cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                we_n, cells = args[0]
                submitted.append((we_n, [cell[:2] for cell in cells]))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(subtok.cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        assert len(pools) == 1
        # one job per WE point and segmentation, holding both seeds
        assert submitted == [(we, [(label, 1), (label, 2)])
                             for we in (2400, 1200)
                             for label in ("w2v", "bpe1e1:w+:p-")]
        rows = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()[1:]
        assert [r.split("\t")[0] for r in rows] == ["2400"] * 8 + ["1200"] * 8

    def test_failed_segmentation_at_one_we_point_fails_only_its_cells(
            self, corpus_file, mentions_file, tmp_path, calls, monkeypatch,
            capsys):
        real_build = subtok.cli.build_segmentation

        def build(cfg, vocab):
            if cfg.segmenter == "bpe" and vocab.total_tokens == 1200:
                raise SubtokError("no merges")
            return real_build(cfg, vocab)

        monkeypatch.setattr(subtok.cli, "build_segmentation", build)
        monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        rows = [line.split("\t") for line in
                (out_dir / "metrics.tsv").read_text("utf-8").splitlines()[1:]]
        assert len(rows) == 16
        failed = {(r[0], r[2]) for r in rows if r[-1] != "ok"}
        assert failed == {("1200", "bpe1e1:w+:p-")}
        assert {r[-1] for r in rows if r[-1] != "ok"} == {"failed:no merges"}
        assert calls == {"train": 6, "learn_bpe": 1}

    def test_worker_crash_exit_2(self, corpus_file, mentions_file,
                                 tmp_path):
        script = (
            "import os, sys\n"
            "import subtok.cli as cli\n"
            "parent, real_train = os.getpid(), cli.train_lockstep\n"
            "def train(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real_train(*args, **kwargs)\n"
            "cli.train_lockstep = train\n"
            "cli.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate",
             "--corpus", str(corpus_file), "--mentions", str(mentions_file),
             *self.ARGV, "--out", str(tmp_path / "sim")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "internal error: BrokenProcessPool" in proc.stderr

    def test_bad_task_file_exit_1_before_training(
            self, corpus_file, tmp_path, calls, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("red\t/warm\nblue /cool\ngreen\t/cool\n",
                       encoding="utf-8")
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, bad, out_dir) == 1
        err = capsys.readouterr().err
        assert f"line 2: expected `token token ...<TAB>label` in {bad}" in err
        assert calls == {"train": 0, "learn_bpe": 0}
        assert not (out_dir / "metrics.tsv").exists()


    def test_resume_with_seeds_missing_different_task_points(
            self, corpus_file, mentions_file, tmp_path, calls, capsys):
        out_dir = tmp_path / "sim"
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        metrics = out_dir / "metrics.tsv"
        full = metrics.read_text("utf-8").splitlines(True)
        # seed 1 misses task point 5 and seed 2 task point 10, of one model
        gone = ("2400\t5\tword:w-:p-\t1\t", "2400\t10\tword:w-:p-\t2\t")
        metrics.write_text("".join(l for l in full if not l.startswith(gone)),
                           encoding="utf-8")
        calls.clear()
        capsys.readouterr()
        assert self._run(corpus_file, mentions_file, out_dir) == 0
        assert calls == {"train": 2, "learn_bpe": 0}
        assert "2 cells computed, 14 skipped" in capsys.readouterr().out
        assert sorted(metrics.read_text("utf-8").splitlines(True)) == \
            sorted(full)

    def test_one_job_of_two_seeds_is_split_over_two_workers(
            self, corpus_file, mentions_file, tmp_path, monkeypatch, capsys):
        pools, submitted = [], []

        class Pool(subtok.cli.ProcessPoolExecutor):
            def __init__(self, workers, *args, **kwargs):
                pools.append(workers)
                super().__init__(workers, *args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                we_n, cells = args[0]
                submitted.append((we_n, [cell[:2] for cell in cells]))
                return super().submit(fn, *args, **kwargs)

        argv = ["simulate", "--corpus", str(corpus_file), "--mentions",
                str(mentions_file), "--we-tokens", "2400",
                "--task-instances", "5,10", "--configs", "w2v", "--seeds",
                "1,2", "--dim", "8", "--train-epochs", "1"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(subtok.cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        assert main(argv + ["--out", str(tmp_path / "two")]) == 0
        assert pools == [2]
        assert submitted == [(2400, [("w2v", 1)]), (2400, [("w2v", 2)])]
        assert (tmp_path / "one" / "metrics.tsv").read_bytes() == \
            (tmp_path / "two" / "metrics.tsv").read_bytes()

    def test_a_task_point_above_the_train_split_is_named_once(
            self, corpus_file, mentions_file, tmp_path, capsys):
        """40 mentions split 60/20/20 leave 24 to train on for every seed;
        task point 30 is kept in its rows and named on stderr."""
        argv = ["simulate", "--corpus", str(corpus_file), "--mentions",
                str(mentions_file), "--we-tokens", "1200,2400",
                "--task-instances", "10,30", "--configs", "w2v,ft",
                "--seeds", "1,2", "--dim", "8", "--train-epochs", "1",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"simulate: task point 30 exceeds the train split of seed {seed} "
            "(24 examples); its cells train on all 24" for seed in (1, 2)]
        rows = (tmp_path / "sim" / "metrics.tsv").read_text("utf-8")
        assert rows.count("\t30\t") == 8
        assert main(argv) == 0  # nothing left to run, nothing to name
        assert capsys.readouterr().err == ""

    def test_probe_names_a_task_point_above_the_train_split(
            self, corpus_file, mentions_file, tmp_path, capsys):
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        capsys.readouterr()
        for n, err in ((10, ""), (30, "probe: --task-instances 30 exceeds "
                       "the train split of seed 0 (24 examples); the probe "
                       "trains on all 24\n")):
            assert main(["probe", "--checkpoint", str(ckpt), "--task",
                         "mentions", "--data", str(mentions_file),
                         "--task-instances", str(n), "--out",
                         str(tmp_path / f"m{n}.tsv")]) == 0
            assert capsys.readouterr().err == err


class TestRunProbeAllTaskPoints:
    """run_probe given a list of task points equals one probe per point,
    trained and scored by the probe module's own functions."""

    POINTS = [5, 40, None, 10_000]

    @pytest.fixture(scope="class")
    def bench_model(self):
        bench = make_suffix_benchmark(2, n_tokens=8_000, n_train_mentions=90,
                                      n_dev_mentions=30, n_test_mentions=30)
        model = SubwordModel.build(
            ModelConfig(segmenter="charn", word_token=True, dim=12, seed=2),
            build_vocab(bench.corpus, 2))
        train(bench.corpus, model, TrainConfig(epochs=1, min_count=2,
                                               subsample_t=1e-3, seed=2))
        return bench, model

    @staticmethod
    def _one_point(model, task, data, n):
        data = dataclasses.replace(data, splits={
            **data.splits, "train": data.splits["train"][:n]})
        label = model.config.label
        if task == "mentions":
            probe = train_mention_probe(model, data)
            return [("fget", label, split, "accuracy",
                     eval_mention_accuracy(probe, model, data, split))
                    for split in ("dev", "test")]
        train_items, dev = data.splits["train"], data.splits["dev"]
        probe = TaskFeatures.of(model, data, train_items + dev).probe(
            train_items, dev)
        rows = []
        for split in ("dev", "test"):
            items = data.splits[split]
            preds = iter(TaskFeatures.of(model, data, items).predict(probe,
                                                                     items))
            sents = data.split_sentences(split)
            gold = [labs for _, labs in sents]
            pred = [tuple(probe.labels[next(preds)] for _ in toks)
                    for toks, _ in sents]
            if data.scheme == "BIO":
                rows += [("ner", label, split, metric, value) for metric, value
                         in zip(("precision", "recall", "f1"),
                                span_f1(gold, pred))]
            else:
                rows.append(("mtag", label, split, "accuracy",
                             per_label_accuracy(gold, pred)))
        return rows

    @pytest.mark.parametrize("task", ["mentions", "BIO", "full-tag"])
    def test_equals_one_probe_per_point(self, bench_model, task):
        bench, model = bench_model
        if task == "mentions":
            data = load_mentions(bench.mentions_tsv().splitlines(True),
                                 seed=3)
        else:
            lines = []
            for sent in bench.corpus.sentences[:80]:
                for tok in sent[:9]:
                    tag = (("B-" if len(tok) % 2 else "I-") + tok[-1]
                           if task == "BIO" else f"{tok[-1]}|{len(tok) % 3}")
                    lines.append(f"{tok}\t{tag}\n")
                lines.append("\n")
            data = load_conll(lines, seed=3)
            assert data.scheme == task
        rows = run_probe(model, data, task_instances=self.POINTS)
        expected = [self._one_point(model, task, data, n)
                    for n in self.POINTS]
        assert rows == expected
        assert len({tuple(r) for r in rows}) > 1  # the points differ
        assert run_probe(model, data, task_instances=[5]) == \
            expected[:1]

    def test_features_cover_the_largest_point_dev_and_test(
            self, bench_model, monkeypatch):
        """Train items past the largest task point are not featurized."""
        bench, model = bench_model
        data = load_mentions(bench.mentions_tsv().splitlines(True), seed=3)
        built, real = [], probe_mod._features
        monkeypatch.setattr(probe_mod, "_features", lambda model, items: (
            built.append(len(items)) or real(model, items)))
        run_probe(model, data, task_instances=[5, 40])
        assert built == [40 + len(data.splits["dev"])
                         + len(data.splits["test"])]
        assert len(data.splits["train"]) > 40


class TestSimulateConll:
    """simulate on a CoNLL file: BIO labels give ner precision, recall and
    F1 rows; full tags give mtag accuracy rows."""

    ARGV = ["--we-tokens", "1200,2400", "--task-instances", "5,10",
            "--configs", "w2v,ft", "--dim", "8", "--train-epochs", "1"]
    SENTENCES = {
        "BIO": [["red\tB-PER", "blue\tO", "green\tB-LOC"],
                ["yellow\tB-LOC", "pink\tO", "black\tB-PER"]],
        "tags": [["red\tADJ|Warm", "blue\tADJ|Cool", "green\tNOUN"],
                 ["yellow\tADJ|Warm", "pink\tNOUN", "black\tADJ|Cool"]],
    }
    EXPECTED = {"BIO": ("ner", {"precision", "recall", "f1"}),
                "tags": ("mtag", {"accuracy"})}

    def _run(self, corpus_file, conll, out_dir, seeds):
        return main(["simulate", "--corpus", str(corpus_file),
                     "--conll", str(conll), *self.ARGV, "--seeds", seeds,
                     "--out", str(out_dir)])

    def _conll(self, tmp_path, scheme):
        path = tmp_path / f"{scheme}.tsv"
        lines = []
        for i in range(30):
            lines += self.SENTENCES[scheme][i % 2] + [""]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("scheme", ["BIO", "tags"])
    def test_rows_for_one_and_two_workers_and_resume(
            self, corpus_file, tmp_path, monkeypatch, capsys, scheme):
        conll = self._conll(tmp_path, scheme)
        task, metrics = self.EXPECTED[scheme]
        texts = {}
        for workers in (1, 2):
            monkeypatch.setattr(subtok.cli.os, "sched_getaffinity",
                                lambda pid, n=workers: set(range(n)))
            out_dir = tmp_path / f"workers{workers}"
            assert self._run(corpus_file, conll, out_dir, "1,2") == 0
            texts[workers] = (out_dir / "metrics.tsv").read_text("utf-8")
        assert texts[1] == texts[2]
        header, *lines = texts[1].splitlines()
        rows = [dict(zip(header.split("\t"), line.split("\t")))
                for line in lines]
        assert len(rows) == 16 * len(metrics)
        assert {(r["task"], r["split"], r["status"]) for r in rows} == \
            {(task, "test", "ok")}
        assert {r["metric"] for r in rows} == metrics
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)

        out_dir = tmp_path / "resumed"
        assert self._run(corpus_file, conll, out_dir, "1") == 0
        capsys.readouterr()
        assert self._run(corpus_file, conll, out_dir, "1,2") == 0
        assert "8 cells computed, 8 skipped" in capsys.readouterr().out
        resumed = (out_dir / "metrics.tsv").read_text("utf-8").splitlines()
        assert sorted(resumed) == sorted(texts[1].splitlines())


class TestReport:
    def test_aggregates_over_seeds(self, corpus_file, mentions_file,
                                   tmp_path, capsys):
        out_dir = tmp_path / "sim"
        main(["simulate", "--corpus", str(corpus_file),
              "--mentions", str(mentions_file),
              "--we-tokens", "2000", "--task-instances", "10",
              "--configs", "w2v", "--seeds", "1,2",
              "--dim", "8", "--train-epochs", "1",
              "--out", str(out_dir)])
        summary = tmp_path / "summary.tsv"
        rc = main(["report", "--metrics", str(out_dir / "metrics.tsv"),
                   "--out", str(summary)])
        assert rc == 0
        lines = summary.read_text("utf-8").splitlines()
        header = lines[0].split("\t")
        assert header[-4:] == ["mean", "stdev", "n", "n_failed"]
        row = dict(zip(header, lines[1].split("\t")))
        assert row["n"] == "2"
        assert row["n_failed"] == "0"
        assert 0.0 <= float(row["mean"]) <= 1.0

    def test_sorts_grid_points_as_numbers(self, corpus_file, mentions_file,
                                          tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--corpus", str(corpus_file),
                     "--mentions", str(mentions_file),
                     *TestSimulateReuse.ARGV, "--out", str(out_dir)]) == 0
        summary = tmp_path / "summary.tsv"
        assert main(["report", "--metrics", str(out_dir / "metrics.tsv"),
                     "--out", str(summary)]) == 0
        points = [tuple(line.split("\t")[:2]) for line in
                  summary.read_text("utf-8").splitlines()[1:]]
        assert points == [(we, task) for we in ("1200", "2400")
                          for task in ("5", "10") for _ in range(2)]

    def test_missing_metrics_exit_1(self, tmp_path, capsys):
        assert main(["report", "--metrics", str(tmp_path / "x.tsv")]) == 1


class TestArtifactGuard:
    def test_cleanup_removes_files_and_dirs(self, tmp_path):
        guard = ArtifactGuard()
        f = guard.register(tmp_path / "a.txt")
        d = guard.register(tmp_path / "ckpt")
        f.write_text("partial")
        d.mkdir()
        (d / "x").write_text("partial")
        guard.cleanup()
        assert not f.exists() and not d.exists()

    def test_cleanup_tolerates_missing(self, tmp_path):
        guard = ArtifactGuard()
        guard.register(tmp_path / "never-created")
        guard.cleanup()


def _train_checkpoint(corpus_file, ckpt):
    assert main(["train", "--corpus", str(corpus_file), "--seg", "charn",
                 "--word-token", "--position", "--dim", "8", "--epochs",
                 "1", "--seed", "3", "--out", str(ckpt)]) == 0
    return ckpt


def _ner_file(tmp_path):
    conll = tmp_path / "ner.tsv"
    lines = []
    for i in range(30):
        lines += ["red\tB-PER", "blue\tI-PER", "green\tO", "pink\tB-LOC", ""]
    conll.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conll


class TestNoRowWords:
    @pytest.mark.parametrize("flag", ["--no-word-token", "--word-token"])
    def test_train_word_shorter_than_ngram_min(self, tmp_path, capsys, flag):
        # `<ab>` has no 5-grams, so `ab` has no subword rows
        words = ["red", "blue", "green", "yellow", "pink", "ab"]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(
            " ".join(words[(i + j) % 6] for j in range(6)) + "\n"
            for i in range(400)), encoding="utf-8")
        ckpt = tmp_path / "ckpt"
        rc = main(["train", "--corpus", str(corpus), "--seg", "charn",
                   "--ngram-min", "5", flag, "--dim", "8", "--epochs", "1",
                   "--subsample-t", "0", "--out", str(ckpt)])
        assert rc == 0
        model = subtok.model.load_checkpoint(ckpt)
        assert model.indices_of(["ab"])[0].sub_ids.size == 0
        assert model.params.all_finite()


class TestRefusedInputExit1:
    """Input that no command can use exits 1 with one stderr line and
    writes nothing."""

    def case(self, name, corpus_file, tmp_path):
        """(argv, the message)."""
        train = ["train", "--corpus", str(corpus_file), "--dim", "8",
                 "--epochs", "1", "--out", str(tmp_path / "out")]
        if name == "corpus-not-utf8":
            corpus_file.write_bytes(b"red blue\n\xff pink\n")
            return train, "invalid UTF-8 at byte offset 9: invalid start byte"
        if name == "min-count-no-type-reaches":
            return (train + ["--min-count", "401"],
                    "no word type reaches min_count=401 (6 types in corpus)")
        if name == "we-tokens-above-corpus":
            return (train + ["--we-tokens", "2401"],
                    "requested 2401 tokens but only 2400 are available")
        if name == "ngram-range-without-subword":
            # neither `<a>` nor `<b>` has an n-gram of 5 or 6 letters
            corpus_file.write_text("a b " * 600 + "\n", encoding="utf-8")
            return (train + ["--ngram-min", "5", "--ngram-max", "6"],
                    "the segmenter yields no subword for any of the 2 "
                    "vocab words")
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        path = ckpt / "vocab.tsv"
        lines = path.read_text("utf-8").splitlines(True)
        if name == "vocab-tsv-empty":
            lines, message = [], f"no vocabulary entries in {path}"
        elif name == "vocab-tsv-empty-word":
            lines[0] = lines[0][lines[0].index("\t"):]
            message = f"line 1: empty word in {path}"
        elif name == "vocab-tsv-repeated-word":
            word = lines[0].split("\t")[0]
            lines[1] = word + lines[1][lines[1].index("\t"):]
            message = f"line 2: repeated word {word!r} in {path}"
        else:
            # `export` once wrote `re d` into a vectors file that
            # `load_vectors` refuses
            assert name.startswith("vocab-tsv-whitespace-word")
            lines[0] = "re d" + lines[0][lines[0].index("\t"):]
            message = f"line 1: word 're d' holds whitespace in {path}"
        path.write_text("".join(lines), encoding="utf-8")
        if name.endswith("-probe"):
            return ["probe", "--checkpoint", str(ckpt), "--task", "conll",
                    "--data", str(_ner_file(tmp_path)), "--out",
                    str(tmp_path / "metrics.tsv")], message
        return ["export", "--checkpoint", str(ckpt), "--out",
                str(tmp_path / "vec.txt")], message

    @pytest.mark.parametrize("name", [
        "corpus-not-utf8", "min-count-no-type-reaches",
        "we-tokens-above-corpus", "ngram-range-without-subword",
        "vocab-tsv-empty", "vocab-tsv-empty-word",
        "vocab-tsv-repeated-word", "vocab-tsv-whitespace-word",
        "vocab-tsv-whitespace-word-probe"])
    def test_exit_1_writing_nothing(self, corpus_file, tmp_path, capsys,
                                    name):
        argv, message = self.case(name, corpus_file, tmp_path)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"subtok: {message}\n")
        assert _tree(tmp_path) == before


class TestBadNumbersExit1:
    def test_negative_probe_window(self, corpus_file, tmp_path, capsys):
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        out = tmp_path / "metrics.tsv"
        rc = main(["probe", "--checkpoint", str(ckpt), "--task", "conll",
                   "--data", str(_ner_file(tmp_path)), "--probe-window",
                   "-1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "window must be >= 0" in err and "internal error" not in err
        assert not out.exists()

    def test_negative_probe_seed(self, corpus_file, mentions_file, tmp_path,
                                 capsys):
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        out = tmp_path / "metrics.tsv"
        rc = main(["probe", "--checkpoint", str(ckpt), "--task", "mentions",
                   "--data", str(mentions_file), "--seed", "-1", "--out",
                   str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "internal error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--ngram-min", "0"],
                                       ["--ngram-min", "5", "--ngram-max",
                                        "3"]])
    def test_train_ngram_range(self, corpus_file, tmp_path, capsys, flags):
        ckpt = tmp_path / "ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--epochs", "1",
                   *flags, "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "need 1 <= ngram_min <= ngram_max" in err
        assert "internal error" not in err
        assert not ckpt.exists()

    def test_segment_apply_ngram_range(self, capsys):
        rc = main(["segment-apply", "--seg", "charn", "--ngram-min", "5",
                   "--ngram-max", "3", "walking"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "need 1 <= ngram_min <= ngram_max" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("seg,text,message", [
        ("bpe", "#bpe v2 x\na b\n", "line 1: merge count"),
        ("morf", "walk\t3\nab\tx\n", "line 2: morph count"),
        ("morf", "walk\t3\nab\t-5\n", "line 2: morph count"),
        ("morf", "#morf v2 x\nwalk\t3\n", "line 1: lexicon size")])
    def test_segment_apply_bad_model_numbers(self, tmp_path, capsys, seg,
                                             text, message):
        model = tmp_path / "model.txt"
        model.write_text(text, encoding="utf-8")
        rc = main(["segment-apply", "--seg", seg, "--model", str(model),
                   "walking"])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    # lines that `save` never writes
    @pytest.mark.parametrize("seg,text,message", [
        ("morf", "walk\t3\n\t400\n", "line 2: empty morph"),
        ("morf", "walk\t3\ned\t2\nwalk\t4\n",
         "line 3: repeated morph 'walk'"),
        ("morf", "#morf v2 2\nwalk\t3\ned\t2\nwalked\twalk e d x\n",
         "line 4: bad analysis of 'walked'"),
        ("morf", "#morf v2 1\nwalk\t3\nwalk\twalk\nwalk\twa lk\n",
         "line 4: bad analysis of 'walk'"),
        ("bpe", "#bpe v2 2\na b\n x\n", "line 3: merge with an empty side"),
        ("bpe", "#bpe v2 2\nx \n", "line 2: merge with an empty side"),
        # files from before the marker was U+10FFFF spell it '</w>'
        ("bpe", "#bpe v1 1\nd </w>\n",
         "line 1: bad BPE header '#bpe v1 1'")])
    def test_segment_apply_model_save_cannot_write(self, tmp_path, capsys,
                                                   seg, text, message):
        model = tmp_path / "model.txt"
        model.write_text(text, encoding="utf-8")
        rc = main(["segment-apply", "--seg", seg, "--model", str(model),
                   "walked"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{message} in {model}" in err

    @pytest.mark.parametrize("table,column", [("vocab.tsv", 1),
                                              ("vocab.tsv", 2),
                                              ("subwords.tsv", 2)])
    def test_export_bad_checkpoint_numbers(self, corpus_file, tmp_path,
                                           capsys, table, column):
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        lines = (ckpt / table).read_text("utf-8").splitlines(True)
        fields = lines[1].rstrip("\n").split("\t")
        fields[column] = "x"
        lines[1] = "\t".join(fields) + "\n"
        (ckpt / table).write_text("".join(lines), encoding="utf-8")
        vec = tmp_path / "vec.txt"
        rc = main(["export", "--checkpoint", str(ckpt), "--out", str(vec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2: " in err and "internal error" not in err
        assert not vec.exists()


_SUBSAMPLE_T = "subsample_t must be a finite number >= 0"


class TestBadSettingsExit1:
    """Training settings out of range exit 1 before anything is trained or
    written."""

    @pytest.mark.parametrize("command,flag,value,message", [
        ("simulate", "--lr", "nan", "lr_start must be a finite number > 0"),
        ("train", "--lr", "nan", "lr_start must be a finite number > 0"),
        ("train", "--lr", "inf", "lr_start must be a finite number > 0"),
        ("simulate", "--subsample-t", "nan", _SUBSAMPLE_T),
        ("train", "--subsample-t", "nan", _SUBSAMPLE_T),
        ("train", "--subsample-t", "inf", _SUBSAMPLE_T),
        ("train", "--subsample-t", "-0.5", _SUBSAMPLE_T)],
        ids=["simulate-lr-nan", "train-lr-nan", "train-lr-inf",
             "simulate-subsample-t-nan", "train-subsample-t-nan",
             "train-subsample-t-inf", "train-subsample-t-negative"])
    def test_exit_1_writing_nothing(self, corpus_file, mentions_file,
                                    tmp_path, capsys, command, flag, value,
                                    message):
        if command == "simulate":
            argv = ["simulate", "--corpus", str(corpus_file), "--mentions",
                    str(mentions_file), "--we-tokens", "2000",
                    "--task-instances", "10", "--configs", "w2v", "--seeds",
                    "1", "--dim", "8", "--train-epochs", "1"]
        else:
            argv = ["train", "--corpus", str(corpus_file), "--dim", "8",
                    "--epochs", "1"]
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv + [flag, value, "--out", str(tmp_path / "out")]) \
            == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err
        assert _tree(tmp_path) == before


class TestNonFiniteVectors:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["probe", "export"])
    def test_exit_1_naming_the_word(self, corpus_file, mentions_file,
                                    tmp_path, capsys, command):
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        model = subtok.model.load_checkpoint(ckpt)
        # a sum of two such rows overflows float32
        model.params.subword[:] = np.where(model.params.subword < 0, -3e38,
                                           3e38)
        subtok.model.save_checkpoint(model, ckpt)
        argv = (["probe", "--checkpoint", str(ckpt), "--task", "mentions",
                 "--data", str(mentions_file)] if command == "probe"
                else ["export", "--checkpoint", str(ckpt)])
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        word = re.search(r"the vector of '(\w+)' is not finite", err)
        assert word and word[1] in model.vocab.words
        assert "internal error" not in err
        assert not out.exists()


class TestCheckpointErrorsNameTheFile:
    @pytest.mark.parametrize("name", ["config.txt", "vocab.tsv",
                                      "subwords.tsv", "bpe.txt", "morf.tsv",
                                      "word_token=ture", "dim=0",
                                      "segmenter=xyz"])
    def test_export_names_the_file_once(self, corpus_file, tmp_path, capsys,
                                        name):
        """`name` is a checkpoint file whose line 2 gets a bad field, or a
        config.txt value that is not a bool or is out of range."""
        seg = {"bpe.txt": "bpe", "morf.tsv": "morf"}.get(name, "charn")
        sep = {"config.txt": "=", "bpe.txt": " "}.get(name, "\t")
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(corpus_file), "--seg", seg,
                     "--merges", "10", "--dim", "8", "--epochs", "1",
                     "--out", str(ckpt)]) == 0
        if "=" in name:
            path = ckpt / "config.txt"
            key = name.split("=")[0]
            path.write_text(re.sub(rf"(?m)^{key}=.*$", name,
                                   path.read_text("utf-8")), encoding="utf-8")
            prefix = "subtok: line 5: " if key == "word_token" else "subtok: "
        else:
            path = ckpt / name
            lines = path.read_text("utf-8").splitlines(True)
            lines[1] = lines[1].rstrip("\n") + sep + "x\n"
            path.write_text("".join(lines), encoding="utf-8")
            prefix = "subtok: line 2: "
        vec = tmp_path / "vec.txt"
        rc = main(["export", "--checkpoint", str(ckpt), "--out", str(vec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.endswith(f" in {path}\n")
        assert err.count(str(path)) == 1 and err.count(str(ckpt)) == 1
        assert "internal error" not in err
        assert not vec.exists()


    @pytest.mark.parametrize("case", ["id-past-the-table", "repeated-id",
                                      "repeated-key"])
    def test_export_refuses_subword_lines_save_never_writes(
            self, corpus_file, tmp_path, capsys, case):
        """At line 3 of subwords.tsv, an id past the table once made export
        exit 2 (IndexError), and a repeated id exported wrong vectors."""
        ckpt = _train_checkpoint(corpus_file, tmp_path / "ckpt")
        path = ckpt / "subwords.tsv"
        lines = [line.split("\t") for line in
                 path.read_text("utf-8").splitlines(True)]
        lines[2][2] = {"id-past-the-table": f"{len(lines)}\n",
                       "repeated-id": lines[1][2]}.get(case, lines[2][2])
        if case == "repeated-key":
            lines[2][:2] = lines[1][:2]
        path.write_text("".join("\t".join(line) for line in lines),
                        encoding="utf-8")
        vec = tmp_path / "vec.txt"
        rc = main(["export", "--checkpoint", str(ckpt), "--out", str(vec)])
        assert rc == 1
        err = capsys.readouterr().err
        message = (f"repeated key sub {lines[1][1]!r}"
                   if case == "repeated-key"
                   else f"non-contiguous id {lines[2][2].strip()}")
        assert err == f"subtok: line 3: {message} in {path}\n"
        assert not vec.exists()


class TestReportChecksRows:
    def _metrics(self, corpus_file, mentions_file, tmp_path):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--corpus", str(corpus_file),
                     "--mentions", str(mentions_file),
                     "--we-tokens", "2000", "--task-instances", "10",
                     "--configs", "w2v", "--seeds", "1,2",
                     "--dim", "8", "--train-epochs", "1",
                     "--out", str(out_dir)]) == 0
        return out_dir / "metrics.tsv"

    @pytest.mark.parametrize("cut", ["newline", "fields"])
    def test_half_written_last_line(self, corpus_file, mentions_file,
                                    tmp_path, capsys, cut):
        metrics = self._metrics(corpus_file, mentions_file, tmp_path)
        text = metrics.read_text("utf-8")
        text = text[:-1] if cut == "newline" else \
            text[:text.rindex("\t")] + "\n"
        metrics.write_text(text, encoding="utf-8")
        summary = tmp_path / "summary.tsv"
        rc = main(["report", "--metrics", str(metrics), "--out",
                   str(summary)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"line 3: half-written row in {metrics}" in err
        assert not summary.exists()

    def test_ok_value_not_a_number(self, corpus_file, mentions_file,
                                   tmp_path, capsys):
        metrics = self._metrics(corpus_file, mentions_file, tmp_path)
        lines = metrics.read_text("utf-8").splitlines(True)
        fields = lines[1].split("\t")
        assert fields[-1] == "ok\n"
        fields[-2] = "high"
        lines[1] = "\t".join(fields)
        metrics.write_text("".join(lines), encoding="utf-8")
        summary = tmp_path / "summary.tsv"
        rc = main(["report", "--metrics", str(metrics), "--out",
                   str(summary)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"line 2: value 'high' in {metrics} is not a number" in err
        assert not summary.exists()

    @pytest.mark.parametrize("column", [0, 1])
    def test_grid_point_not_a_number(self, corpus_file, mentions_file,
                                     tmp_path, capsys, column):
        """The summary sorts WE and task points as numbers, so a field
        there that is not one exits 1 naming the line and the table."""
        metrics = self._metrics(corpus_file, mentions_file, tmp_path)
        lines = metrics.read_text("utf-8").splitlines(True)
        fields = lines[2].split("\t")
        fields[column] = "2k"
        lines[2] = "\t".join(fields)
        metrics.write_text("".join(lines), encoding="utf-8")
        summary = tmp_path / "summary.tsv"
        rc = main(["report", "--metrics", str(metrics), "--out",
                   str(summary)])
        assert rc == 1
        name = ("we_tokens", "task_instances")[column]
        assert capsys.readouterr().err == (
            f"subtok: line 3: {name} in {metrics} must be a non-negative "
            "integer, got '2k'\n")
        assert not summary.exists()



def _tree(root):
    """Every path under `root`, with its bytes if it is a file."""
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestUnreadableFilesExit1:
    """An input that cannot be opened, decoded or parsed, and an output that
    cannot be written, exit 1 with one stderr line that names the file,
    write nothing and change no input."""

    def _export_without(self, corpus_file, tmp_path, name, *flags):
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(corpus_file), "--dim", "8",
                     "--epochs", "1", *flags, "--out", str(ckpt)]) == 0
        if name.startswith("dim="):
            config = ckpt / "config.txt"
            config.write_text(config.read_text("utf-8").replace(
                "dim=8", name), encoding="utf-8")
            name = "config.txt"
        else:
            (ckpt / name).unlink()
        return (["export", "--checkpoint", str(ckpt), "--out",
                 str(tmp_path / "vec.txt")], ckpt / name)

    def _simulate(self, corpus_file, mentions_file, tmp_path, seeds):
        return ["simulate", "--corpus", str(corpus_file), "--mentions",
                str(mentions_file), "--we-tokens", "2000",
                "--task-instances", "10", "--configs", "w2v", "--seeds",
                seeds, "--dim", "8", "--train-epochs", "1",
                "--out", str(tmp_path / "sim")]

    def case(self, name, corpus_file, mentions_file, tmp_path):
        """(argv, the file that the message must name)."""
        if name in ("vocab.tsv", "subwords.tsv", "subword.mat", "dim=abc"):
            return self._export_without(corpus_file, tmp_path, name)
        if name == "bpe.txt":
            return self._export_without(corpus_file, tmp_path, name,
                                        "--seg", "bpe", "--merges", "10")
        if name.startswith("apply-"):
            seg = name.split("-")[1]
            model = tmp_path / "model.txt"
            if seg == "morf":  # not UTF-8
                model.write_bytes(b"walk\t3\n\xffing\t2\n")
            return (["segment-apply", "--seg", seg, "--model", str(model),
                     "walking"], model)
        if name.endswith("-metrics"):
            assert main(self._simulate(corpus_file, mentions_file, tmp_path,
                                       "1")) == 0
            metrics = tmp_path / "sim" / "metrics.tsv"
            lines = metrics.read_bytes().splitlines(True)
            metrics.write_bytes(lines[0] + b"\xff" + lines[1])
            if name == "report-metrics":
                return (["report", "--metrics", str(metrics), "--out",
                         str(tmp_path / "summary.tsv")], metrics)
            return self._simulate(corpus_file, mentions_file, tmp_path,
                                  "1,2"), metrics
        if name == "out-parent-missing":
            out = tmp_path / "missing" / "vocab.tsv"
            return ["vocab", "--corpus", str(corpus_file), "--out",
                    str(out)], out
        assert name == "out-parent-is-a-file"
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "ckpt"
        return (["train", "--corpus", str(corpus_file), "--dim", "8",
                 "--epochs", "1", "--out", str(out)], out)

    @pytest.mark.parametrize("name", [
        "apply-bpe-missing", "apply-morf-non-utf8", "vocab.tsv",
        "subwords.tsv", "bpe.txt", "dim=abc", "report-metrics",
        "resume-metrics", "subword.mat", "out-parent-missing",
        "out-parent-is-a-file"])
    def test_exit_1_naming_the_file(self, corpus_file, mentions_file,
                                    tmp_path, capsys, name):
        argv, named = self.case(name, corpus_file, mentions_file, tmp_path)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert err.count("\n") == 1 and err.startswith("subtok: ")
        assert str(named) in err
        assert "internal error" not in err
        assert stdout == ""
        assert _tree(tmp_path) == before


class TestParserDefaults:
    """The flag defaults of train and simulate are the config dataclasses'
    defaults."""

    def test_train_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c.txt"])
        assert subtok.cli.model_config_from_args(args) == ModelConfig()
        assert (args.window, args.negatives, args.lr, args.subsample_t) == (
            TrainConfig.window, TrainConfig.negatives, TrainConfig.lr_start,
            TrainConfig.subsample_t)

    def test_morf_passes_and_probe_window_have_one_default(self):
        parser = build_parser()
        args = parser.parse_args(["segment-learn", "--corpus", "c.txt",
                                  "--seg", "morf"])
        assert args.max_iters == MORF_MAX_ITERS
        args = parser.parse_args(["probe", "--checkpoint", "c",
                                  "--task", "conll", "--data", "d"])
        assert args.probe_window == TAGGER_WINDOW
        for fn, name, value in (
                (learn_morfessor_lite, "max_iters", MORF_MAX_ITERS),
                (build_segmenter, "max_iters", MORF_MAX_ITERS),
                (run_probe, "window", TAGGER_WINDOW)):
            default = inspect.signature(fn).parameters[name].default
            assert default == value, fn.__name__

    def test_simulate_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(
            ["simulate", "--corpus", "c.txt", "--we-tokens", "1",
             "--task-instances", "1", "--configs", "w2v"])
        assert (args.dim, args.window, args.negatives, args.lr,
                args.subsample_t) == (
            ModelConfig.dim, TrainConfig.window, TrainConfig.negatives,
            TrainConfig.lr_start, TrainConfig.subsample_t)
