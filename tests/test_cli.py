import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from copysum.bpe import train_bpe
from copysum.cli import _merge_options, build_parser, main
from copysum.data import SynthConfig, synth_generate, write_pairs


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    splits = synth_generate(
        SynthConfig(
            content_words=40, n_train=24, n_valid=6, n_test=6,
            source_len=(8, 12), summary_len=(3, 5),
            paraphrase_fraction=0.3, seed=17,
        )
    )
    for split, records in splits.items():
        write_pairs(records, root / f"{split}.jsonl")
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    """Vocabulary + checkpoint trained once and reused by decode tests."""
    root = tmp_path_factory.mktemp("trained")
    vocab_path = root / "vocab.txt"
    ckpt_path = root / "model.bin"
    assert main([
        "build-vocab", "--corpus", str(corpus_dir / "train.jsonl"),
        "--size", "160", "--output", str(vocab_path),
    ]) == 0
    assert main([
        "train", "--train", str(corpus_dir / "train.jsonl"),
        "--valid", str(corpus_dir / "valid.jsonl"),
        "--vocab", str(vocab_path), "--checkpoint", str(ckpt_path),
        "--report", str(root / "report.jsonl"),
        "--preset", "case-c", "--model-preset", "tiny",
        "--max-positions", "96", "--epochs", "2", "--lr", "3e-3", "--seed", "3",
    ]) == 0
    return root, vocab_path, ckpt_path


class TestBuildVocab:
    def test_deterministic_output(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            rc = main([
                "build-vocab", "--corpus", str(corpus_dir / "train.jsonl"),
                "--size", "120", "--output", str(out),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_fails(self, tmp_path, capsys):
        rc = main([
            "build-vocab", "--corpus", str(tmp_path / "absent.jsonl"),
            "--size", "64", "--output", str(tmp_path / "v.txt"),
        ])
        assert rc == 1
        assert "absent.jsonl" in capsys.readouterr().err

    def test_size_below_minimum_is_config_error(self, corpus_dir, tmp_path):
        rc = main([
            "build-vocab", "--corpus", str(corpus_dir / "train.jsonl"),
            "--size", "4", "--output", str(tmp_path / "v.txt"),
        ])
        assert rc == 2

    def test_missing_required_flag(self):
        assert main(["build-vocab", "--size", "64"]) == 2


class TestTrain:
    def test_report_written(self, trained):
        root, _, ckpt = trained
        assert ckpt.exists()
        rows = [json.loads(l) for l in (root / "report.jsonl").read_text().splitlines()]
        assert any(r.get("split") == "train" for r in rows)
        assert any(r.get("split") == "valid" for r in rows)

    def test_invalid_probability_is_config_error(self, corpus_dir, trained, tmp_path):
        _, vocab_path, _ = trained
        rc = main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--vocab", str(vocab_path),
            "--checkpoint", str(tmp_path / "m.bin"),
            "--p-seen", "1.5", "--model-preset", "tiny", "--epochs", "1",
        ])
        assert rc == 2

    def test_unknown_preset_is_config_error(self, corpus_dir, trained, tmp_path):
        _, vocab_path, _ = trained
        rc = main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--vocab", str(vocab_path),
            "--checkpoint", str(tmp_path / "m.bin"),
            "--preset", "case-z", "--model-preset", "tiny", "--epochs", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--epochs", "0"), ("--epochs", "-1"),
        ("--plateau-patience", "0"), ("--lr", "-0.001"), ("--weight-decay", "-0.01"),
        ("--plateau-min-delta", "-1"), ("--dropout", "-0.1"), ("--dropout", "1"),
        ("--mask-frac", "nan"),
    ])
    def test_bad_training_option_is_a_config_error(self, corpus_dir, trained, tmp_path,
                                                    capsys, flag, value):
        """Refused in one line before training, with no checkpoint written."""
        _, vocab_path, _ = trained
        ckpt = tmp_path / "m.bin"
        rc = main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--vocab", str(vocab_path), "--checkpoint", str(ckpt),
            "--model-preset", "tiny", "--epochs", "1", flag, value,
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert not ckpt.exists()


class TestDecode:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--search", "best-first", "--k", "5"],
            ["--search", "beam", "--k", "5", "--rerank", "bp_norm", "--c", "0.55"],
            ["--search", "beam", "--k", "3", "--rerank", "sbwr", "--r", "0.25"],
            ["--search", "beam", "--k", "3", "--rerank", "length_norm"],
        ],
    )
    def test_one_summary_per_input(self, corpus_dir, trained, tmp_path, extra):
        _, vocab_path, ckpt = trained
        out = tmp_path / "decoded.jsonl"
        rc = main([
            "decode", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
            "--input", str(corpus_dir / "test.jsonl"), "--output", str(out),
            "--max-len", "24", *extra,
        ])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 6
        for row in rows:
            assert set(row) >= {"id", "summary", "score", "rerank_score", "copy_rate", "length"}

    def test_unknown_reranker_is_usage_error(self, trained, corpus_dir, tmp_path):
        _, vocab_path, ckpt = trained
        with pytest.raises(SystemExit) as exc:
            main([
                "decode", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                "--input", str(corpus_dir / "test.jsonl"),
                "--output", str(tmp_path / "x.jsonl"), "--rerank", "mystery",
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--pool-size", "0"), ("--pool-size", "-1"), ("--max-len", "0"), ("--max-len", "-2"),
    ])
    def test_search_size_below_one_is_a_config_error(self, tmp_path, capsys, flag, value):
        """A search that can keep or grow no summary is refused, not run."""
        out = tmp_path / "decoded.jsonl"
        rc = main([
            "decode", "--checkpoint", str(FIXTURES / "checkpoint.bin"),
            "--vocab", str(FIXTURES / "vocab.txt"), "--input", str(FIXTURES / "test.jsonl"),
            "--output", str(out), flag, value,
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--c", "--r"])
    def test_nan_rerank_setting_is_a_config_error(self, tmp_path, capsys, flag):
        """Refused before any file is read: none of the files named here exists."""
        missing = tmp_path / "missing"
        rc = main([
            "decode", "--checkpoint", str(missing / "m.bin"), "--vocab", str(missing / "v.txt"),
            "--input", str(missing / "test.jsonl"), "--output", str(tmp_path / "out.jsonl"),
            "--rerank", "sbwr", flag, "nan",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("configuration error: ")

    def test_summaries_text_output(self, corpus_dir, trained, tmp_path):
        _, vocab_path, ckpt = trained
        out = tmp_path / "d.jsonl"
        txt = tmp_path / "d.txt"
        rc = main([
            "decode", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
            "--input", str(corpus_dir / "test.jsonl"), "--output", str(out),
            "--summaries-out", str(txt), "--max-len", "24",
        ])
        assert rc == 0
        assert len(txt.read_text().splitlines()) == 6


class TestEvaluate:
    def test_identical_files_score_one(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b c\nx y z\n")
        src = tmp_path / "src.txt"
        src.write_text("a b c d\nx y z w\n")
        out = tmp_path / "report.jsonl"
        rc = main([
            "evaluate", "--hypotheses", str(hyp), "--references", str(hyp),
            "--sources", str(src), "--output", str(out),
        ])
        assert rc == 0
        row = json.loads(out.read_text())
        assert row["rouge_1_f"] == 1.0
        assert row["rouge_2_f"] == 1.0
        assert row["rouge_l_f"] == 1.0
        header = capsys.readouterr().out.splitlines()[0]
        for column in ("1-gram", "2-gram", "3-gram", "4-gram", "Average"):
            assert column in header

    def test_mismatched_line_counts_fatal(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a\nb\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n")
        rc = main([
            "evaluate", "--hypotheses", str(hyp), "--references", str(ref),
            "--sources", str(hyp),
        ])
        assert rc == 1

    def test_corpus_supplies_references_and_sources(self, corpus_dir, tmp_path):
        records = [json.loads(l) for l in (corpus_dir / "test.jsonl").read_text().splitlines()]
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join(r["summary"] for r in records) + "\n")
        rc = main([
            "evaluate", "--hypotheses", str(hyp),
            "--corpus", str(corpus_dir / "test.jsonl"),
        ])
        assert rc == 0


class TestSweep:
    def test_empty_preset_list_is_usage_error(self, corpus_dir, tmp_path):
        rc = main([
            "sweep", "--output-dir", str(tmp_path / "out"),
            "--corpus-dir", str(corpus_dir), "--presets", "",
        ])
        assert rc == 2

    def test_needs_corpus_or_synth(self, tmp_path):
        rc = main(["sweep", "--output-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_search_size_below_one_fails_before_training(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--output-dir", str(out), "--corpus-dir", str(corpus_dir),
            "--presets", "case-a", "--vocab-size", "160", "--max-len", "0",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (out / "case-a").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--batch-size", "0"), ("--dropout", "-0.1"),
        ("--presets", "case-a,case-z"),
    ])
    def test_bad_training_option_fails_before_training(self, corpus_dir, tmp_path, capsys,
                                                        flag, value):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--output-dir", str(out), "--corpus-dir", str(corpus_dir),
            "--presets", "case-a", "--vocab-size", "160", "--model-preset", "tiny", flag, value,
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert not (out / "case-a").exists()

    @pytest.mark.parametrize("flag, value", [("--model-preset", "nope"),
                                             ("--max-positions", "0")])
    def test_bad_model_setting_fails_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--output-dir", str(out), "--synth", "--train-pairs", "40",
            "--presets", "case-a", flag, value,
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert not (out / "corpus").exists() and not (out / "vocab.txt").exists()

    def test_single_preset_equals_composition(self, corpus_dir, tmp_path):
        """sweep == build-vocab + train + decode chained by hand."""
        sweep_out = tmp_path / "sweep"
        rc = main([
            "sweep", "--output-dir", str(sweep_out),
            "--corpus-dir", str(corpus_dir), "--presets", "case-a",
            "--vocab-size", "160", "--model-preset", "tiny",
            "--max-positions", "96", "--epochs", "1", "--lr", "3e-3",
            "--k", "5", "--max-len", "24", "--seed", "11",
        ])
        assert rc == 0

        manual = tmp_path / "manual"
        manual.mkdir()
        vocab_path = manual / "vocab.txt"
        assert main([
            "build-vocab", "--corpus", str(corpus_dir / "train.jsonl"),
            "--size", "160", "--output", str(vocab_path),
        ]) == 0
        assert vocab_path.read_bytes() == (sweep_out / "vocab.txt").read_bytes()

        ckpt = manual / "model.bin"
        assert main([
            "train", "--train", str(corpus_dir / "train.jsonl"),
            "--valid", str(corpus_dir / "valid.jsonl"),
            "--vocab", str(vocab_path), "--checkpoint", str(ckpt),
            "--preset", "case-a", "--model-preset", "tiny",
            "--max-positions", "96", "--epochs", "1", "--lr", "3e-3", "--seed", "11",
        ]) == 0
        assert ckpt.read_bytes() == (sweep_out / "case-a" / "checkpoint.bin").read_bytes()

        decoded = manual / "decoded.jsonl"
        summaries = manual / "summaries.txt"
        assert main([
            "decode", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
            "--input", str(corpus_dir / "test.jsonl"), "--output", str(decoded),
            "--summaries-out", str(summaries),
            "--search", "beam", "--k", "5", "--rerank", "none", "--max-len", "24",
        ]) == 0
        assert summaries.read_bytes() == (sweep_out / "case-a" / "summaries.txt").read_bytes()

    def test_synth_sweep_reproducible(self, tmp_path):
        args = [
            "--synth", "--train-pairs", "16", "--valid-pairs", "4",
            "--test-pairs", "4", "--content-words", "30",
            "--vocab-size", "120", "--model-preset", "tiny",
            "--max-positions", "96", "--epochs", "1",
            "--presets", "case-a,case-c", "--max-len", "16", "--seed", "23",
        ]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["sweep", "--output-dir", str(out1), *args]) == 0
        assert main(["sweep", "--output-dir", str(out2), *args]) == 0
        for rel in (
            "report.jsonl", "report.txt", "vocab.txt",
            "case-a/summaries.txt", "case-c/summaries.txt",
            "case-a/records.jsonl", "case-c/records.jsonl",
        ):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 120, "format": "pairs"}))
        out = tmp_path / "v.txt"
        rc = main([
            "build-vocab", "--config", str(cfg),
            "--corpus", str(corpus_dir / "train.jsonl"), "--output", str(out),
        ])
        assert rc == 0
        header = out.read_text().splitlines()
        n_tokens = int(header[2].split(" ")[1])
        assert n_tokens <= 120

        rc = main([
            "build-vocab", "--config", str(cfg), "--size", "60",
            "--corpus", str(corpus_dir / "train.jsonl"), "--output", str(out),
        ])
        assert rc == 0
        n_tokens = int(out.read_text().splitlines()[2].split(" ")[1])
        assert n_tokens <= 60

    def test_unknown_config_key_rejected(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizzle": 1}))
        rc = main([
            "build-vocab", "--config", str(cfg),
            "--corpus", str(corpus_dir / "train.jsonl"),
            "--output", str(tmp_path / "v.txt"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command, text", [
        ("build-vocab", '{"size": 60,}'),
        ("build-vocab", "null"),
        ("build-vocab", '{"size": "60"}'),
        ("build-vocab", '{"format": "xml"}'),
        ("decode", '{"k": "5"}'),
        ("decode", '{"k": true}'),
        ("decode", '{"trigram_blocking": 0}'),
        ("decode", '{"c": null}'),
    ])
    def test_bad_config_is_one_line(self, tmp_path, capsys, command, text):
        """A bad config file is checked like a flag: one line, exit 2."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        # real inputs, so that a value let through would reach the program
        data = {
            "build-vocab": ["--corpus", str(FIXTURES / "test.jsonl")],
            "decode": ["--checkpoint", str(FIXTURES / "checkpoint.bin"),
                       "--vocab", str(FIXTURES / "vocab.txt"),
                       "--input", str(FIXTURES / "test.jsonl")],
        }[command]
        rc = main([command, "--config", str(cfg), *data, "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith(f"configuration error: {cfg}: ")

    def test_config_values_resolve_as_flags_do(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "valid": None, "preset": "case-a"}))
        opts = _merge_options(build_parser().parse_args([
            "train", "--config", str(cfg), "--train", "t", "--vocab", "v", "--checkpoint", "c",
        ]))
        assert (opts.lr, opts.valid, opts.preset) == (1.0, None, "case-a")
        assert type(opts.lr) is float  # as --lr 1 gives


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


class TestBadInputFiles:
    """A cut or corrupt checkpoint or vocabulary is a one-line error, exit 1."""

    @staticmethod
    def cut(src, tmp_path, size):
        out = tmp_path / f"cut-{size}-{src.name}"
        out.write_bytes(src.read_bytes()[:size])
        return out

    def decode(self, tmp_path, capsys, checkpoint, vocab):
        rc = main([
            "decode", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
            "--input", str(FIXTURES / "test.jsonl"), "--output", str(tmp_path / "out.jsonl"),
        ])
        err = capsys.readouterr().err
        return rc, err

    @pytest.mark.parametrize("size", [300_000, 40, 6])
    def test_cut_checkpoint(self, tmp_path, capsys, size):
        ckpt = self.cut(FIXTURES / "checkpoint.bin", tmp_path, size)
        rc, err = self.decode(tmp_path, capsys, ckpt, FIXTURES / "vocab.txt")
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {ckpt}: ")

    @pytest.mark.parametrize("before, after", [
        (b'"num_heads": 4', b'"num_heads": 0'),  # hidden_size over zero heads
        (b'"hidden_size": 64', b'"hidden_size": 65'),  # fails ModelConfig's checks
        (b"\x07\x00tok_emb", b"\x05\x00tok_emb"),  # the first name cut: 98 axes
    ])
    def test_checkpoint_with_a_flipped_bit(self, tmp_path, capsys, before, after):
        raw = (FIXTURES / "checkpoint.bin").read_bytes()
        assert raw.count(before) == 1
        assert sum(bin(x ^ y).count("1") for x, y in zip(before, after)) == 1
        ckpt = tmp_path / "flipped.bin"
        ckpt.write_bytes(raw.replace(before, after))
        rc, err = self.decode(tmp_path, capsys, ckpt, FIXTURES / "vocab.txt")
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {ckpt}: ")

    def test_vocab_cut_inside_a_character(self, tmp_path, capsys):
        vocab = self.cut(FIXTURES / "vocab.txt", tmp_path, 200)
        assert vocab.read_bytes()[-1] >= 0x80  # the cut splits a multi-byte character
        rc, err = self.decode(tmp_path, capsys, FIXTURES / "checkpoint.bin", vocab)
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {vocab}: ")

    def test_vocab_header_over_a_short_body(self, tmp_path, capsys):
        vocab = tmp_path / "short.txt"
        vocab.write_text("\n".join((FIXTURES / "vocab.txt").read_text().split("\n")[:5]))
        rc, err = self.decode(tmp_path, capsys, FIXTURES / "checkpoint.bin", vocab)
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {vocab}: ")

    @pytest.mark.parametrize("saved_policy, header", [
        ("replace", "#unk_policy skip"),  # no such policy
        ("error", "#unk_policy replace"),  # replace, with no [UNK] to replace with
    ])
    def test_vocab_whose_unk_policy_cannot_work(self, tmp_path, capsys, saved_policy, header):
        vocab = tmp_path / "vocab.txt"
        train_bpe(["bad keg lim", "fad gem kid"], target_size=40,
                  unk_policy=saved_policy).save(vocab)
        lines = vocab.read_text().split("\n")
        assert lines[1].startswith("#unk_policy ")
        vocab.write_text("\n".join([lines[0], header, *lines[2:]]))
        rc, err = self.decode(tmp_path, capsys, FIXTURES / "checkpoint.bin", vocab)
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {vocab}: ")


class TestUnreadableTextInputs:
    """Input text that is not UTF-8, or a hypotheses row that is not a JSON
    object, is a one-line error naming the file, exit 1."""

    NOT_UTF8 = b'{"source": "a b c", "summary": "a b"}\n\xff\xfe not text\n'
    VOCAB, CHECKPOINT = str(FIXTURES / "vocab.txt"), str(FIXTURES / "checkpoint.bin")

    @pytest.mark.parametrize("argv", [
        ["build-vocab", "--corpus", "BAD", "--output", "OUT"],
        ["build-vocab", "--corpus", "BAD", "--format", "article", "--output", "OUT"],
        ["build-vocab", "--corpus", "BAD", "--format", "text", "--output", "OUT"],
        ["train", "--train", "BAD", "--vocab", VOCAB, "--checkpoint", "OUT"],
        ["decode", "--checkpoint", CHECKPOINT, "--vocab", VOCAB, "--input", "BAD",
         "--output", "OUT"],
        ["evaluate", "--hypotheses", "BAD", "--corpus", "GOOD"],
        ["evaluate", "--hypotheses", "GOOD", "--corpus", "BAD"],
        ["evaluate", "--hypotheses", "GOOD", "--references", "BAD", "--sources", "GOOD"],
        ["sweep", "--corpus-dir", "DIR", "--output-dir", "OUT"],
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, capsys, argv):
        (tmp_path / "dir").mkdir()
        bad = tmp_path / "dir" / "train.jsonl"
        bad.write_bytes(self.NOT_UTF8)
        good = tmp_path / "good.jsonl"
        good.write_text('{"source": "a b c", "summary": "a b"}\n')
        names = {"BAD": bad, "GOOD": good, "DIR": tmp_path / "dir", "OUT": tmp_path / "out"}
        rc = main([str(names.get(arg, arg)) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: unreadable ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, problem", [
        ("not json", "not JSON"),
        ('["a list"]', "not a JSON object"),
        ('"a string"', "not a JSON object"),
    ])
    def test_hypotheses_row_that_is_not_an_object(self, tmp_path, capsys, row, problem):
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text('{"summary": "a b"}\n' + row + "\n")
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\na c\n")
        rc = main(["evaluate", "--hypotheses", str(hyps), "--references", str(refs),
                   "--sources", str(refs)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {hyps}: line 2: {problem}")
        assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "copysum", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "decode" in done.stdout and "sweep" in done.stdout
