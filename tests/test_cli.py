import os

import pytest

from subtok.cli import ArtifactGuard, main, parse_config_label
from subtok.errors import SubtokError


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
        assert model_path.read_text("utf-8").startswith("#bpe v1 ")
        capsys.readouterr()
        rc = main(["segment-apply", "--seg", "bpe",
                   "--model", str(model_path), "red", "blueish"])
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("red\t")
        assert out_lines[1].startswith("blueish\t")

    def test_charn_apply(self, capsys):
        rc = main(["segment-apply", "--seg", "charn", "cats"])
        assert rc == 0
        word, parts = capsys.readouterr().out.strip().split("\t")
        assert word == "cats"
        assert "<ca" in parts.split()

    def test_apply_bpe_without_model(self, capsys):
        assert main(["segment-apply", "--seg", "bpe", "cats"]) == 1

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

    @pytest.mark.parametrize("flag", ["--window", "--negatives", "--dim"])
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
                   "--data", str(mentions_file), "--epochs", "5",
                   "--out", str(out)])
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
                   "--data", str(conll), "--epochs", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = [l.split("\t") for l in out.read_text("utf-8").splitlines()]
        assert {r[3] for r in rows} == {"precision", "recall", "f1"}
        assert all(r[0] == "ner" for r in rows)


class TestSimulate:
    def _run(self, corpus_file, mentions_file, out_dir, seeds, *extra):
        return main([
            "simulate", "--corpus", str(corpus_file),
            "--mentions", str(mentions_file),
            "--we-tokens", "2000", "--task-instances", "10",
            "--configs", "w2v", "--seeds", seeds,
            "--dim", "8", "--train-epochs", "1", "--probe-epochs", "3",
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

        monkeypatch.setattr("subtok.cli.train", fail)
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

    def test_oversized_we_point(self, corpus_file, mentions_file, tmp_path,
                                capsys):
        rc = main([
            "simulate", "--corpus", str(corpus_file),
            "--mentions", str(mentions_file),
            "--we-tokens", "10000000", "--task-instances", "10",
            "--configs", "w2v", "--seeds", "1",
            "--out", str(tmp_path / "sim")])
        assert rc == 1

    def test_needs_task_data(self, corpus_file, tmp_path, capsys):
        rc = main(["simulate", "--corpus", str(corpus_file),
                   "--we-tokens", "2000", "--task-instances", "10",
                   "--configs", "w2v", "--out", str(tmp_path / "s")])
        assert rc == 1


class TestReport:
    def test_aggregates_over_seeds(self, corpus_file, mentions_file,
                                   tmp_path, capsys):
        out_dir = tmp_path / "sim"
        main(["simulate", "--corpus", str(corpus_file),
              "--mentions", str(mentions_file),
              "--we-tokens", "2000", "--task-instances", "10",
              "--configs", "w2v", "--seeds", "1,2",
              "--dim", "8", "--train-epochs", "1", "--probe-epochs", "3",
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
