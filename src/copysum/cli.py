"""Command-line entry point: build-vocab, train, decode, evaluate, sweep.

Options resolve in three layers: built-in defaults, then a JSON config file
passed with --config, then explicit flags. Every random choice flows from
--seed through named substreams, so any subcommand rerun with the same
inputs and seed reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics
from .bpe import Vocabulary, train_bpe
from .data import CorpusRecord, SynthConfig, ingest, synth_generate, write_pairs
from .decoding import RerankConfig, SearchConfig, decode_record
from .errors import ConfigError, ContractError, CorpusError, NumericError
from .model import ModelConfig, PrefixLM
from .seeding import seed_key
from .training import (
    SamplingConfig,
    TrainConfig,
    TrainingExample,
    sampling_preset,
    train,
)

REQUIRED = object()

DEFAULTS: dict[str, dict] = {
    "build-vocab": {
        "corpus": REQUIRED, "format": "pairs", "size": 512,
        "output": REQUIRED, "unk_policy": "replace",
    },
    "train": {
        "train": REQUIRED, "valid": None, "vocab": REQUIRED,
        "checkpoint": REQUIRED, "report": None,
        "preset": "case-g", "p_seen": None, "p_unseen": None, "p_source": None,
        "mask_frac": None, "random_frac": None, "keep_frac": None,
        "model_preset": "desk", "max_positions": 160, "dropout": 0.1,
        "epochs": 14, "batch_size": 16, "lr": 1.5e-3, "weight_decay": 0.01,
        "plateau_patience": 2, "plateau_min_delta": 1e-4, "seed": 0,
    },
    "decode": {
        "checkpoint": REQUIRED, "vocab": REQUIRED, "input": REQUIRED,
        "output": REQUIRED, "summaries_out": None,
        "search": "beam", "k": 5, "rerank": "none", "c": 0.55, "r": 0.25,
        "length_offset": 3, "max_len": 32, "pool_size": None,
        "heap_capacity": 100_000, "trigram_blocking": True, "seed": 0,
    },
    "evaluate": {
        "hypotheses": REQUIRED, "references": None, "sources": None,
        "corpus": None, "system": "system", "output": None,
    },
    "sweep": {
        "output_dir": REQUIRED, "corpus_dir": None, "synth": False,
        "train_pairs": 2000, "valid_pairs": 200, "test_pairs": 200,
        "paraphrase_fraction": 0.33, "content_words": 80,
        "vocab_size": 512, "model_preset": "desk", "max_positions": 160,
        "dropout": 0.1, "epochs": 14, "batch_size": 16, "lr": 1.5e-3,
        "weight_decay": 0.01,
        "presets": "case-a,case-b,case-c", "k": 5, "max_len": 32, "seed": 0,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copysum",
        description="Summarization with control over verbatim copying.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    def sub(name, help_text):
        p = subs.add_parser(name, help=help_text, argument_default=S)
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--seed", type=int, help="root random seed")
        return p

    p = sub("build-vocab", "train a BPE vocabulary from a corpus")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["pairs", "article", "text"])
    p.add_argument("--size", type=int)
    p.add_argument("--unk-policy", dest="unk_policy", choices=["replace", "error"])
    p.add_argument("--output")

    p = sub("train", "train a summarizer checkpoint")
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--vocab")
    p.add_argument("--checkpoint")
    p.add_argument("--report")
    p.add_argument("--preset", help="sampling preset, e.g. case-a or seen-only")
    p.add_argument("--p-seen", dest="p_seen", type=float)
    p.add_argument("--p-unseen", dest="p_unseen", type=float)
    p.add_argument("--p-source", dest="p_source", type=float)
    p.add_argument("--mask-frac", dest="mask_frac", type=float)
    p.add_argument("--random-frac", dest="random_frac", type=float)
    p.add_argument("--keep-frac", dest="keep_frac", type=float)
    p.add_argument("--model-preset", dest="model_preset")
    p.add_argument("--max-positions", dest="max_positions", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--plateau-patience", dest="plateau_patience", type=int)
    p.add_argument("--plateau-min-delta", dest="plateau_min_delta", type=float)

    p = sub("decode", "generate summaries from a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--summaries-out", dest="summaries_out")
    p.add_argument("--search", choices=["beam", "best-first"])
    p.add_argument("--k", type=int)
    p.add_argument("--rerank", choices=["none", "length_norm", "bp_norm", "sbwr"])
    p.add_argument("--c", type=float, help="bp_norm copy-rate scale")
    p.add_argument("--r", type=float, help="sbwr reward coefficient")
    p.add_argument("--length-offset", dest="length_offset", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--pool-size", dest="pool_size", type=int)
    p.add_argument("--heap-capacity", dest="heap_capacity", type=int)
    p.add_argument(
        "--no-trigram-blocking", dest="trigram_blocking", action="store_false"
    )

    p = sub("evaluate", "score hypotheses against references and sources")
    p.add_argument("--hypotheses")
    p.add_argument("--references")
    p.add_argument("--sources")
    p.add_argument("--corpus", help="pairs file supplying references and sources")
    p.add_argument("--system")
    p.add_argument("--output")

    p = sub("sweep", "train/decode/evaluate one model per sampling preset")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--corpus-dir", dest="corpus_dir")
    p.add_argument("--synth", action="store_true")
    p.add_argument("--train-pairs", dest="train_pairs", type=int)
    p.add_argument("--valid-pairs", dest="valid_pairs", type=int)
    p.add_argument("--test-pairs", dest="test_pairs", type=int)
    p.add_argument("--paraphrase-fraction", dest="paraphrase_fraction", type=float)
    p.add_argument("--content-words", dest="content_words", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--model-preset", dest="model_preset")
    p.add_argument("--max-positions", dest="max_positions", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--presets", help="comma-separated sampling presets")
    p.add_argument("--k", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)

    return parser


def _merge_options(args: argparse.Namespace) -> argparse.Namespace:
    defaults = dict(DEFAULTS[args.command])
    defaults["seed"] = defaults.get("seed", 0)
    provided = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {unknown}")
        defaults.update(loaded)
    defaults.update(provided)
    missing = sorted(k for k, v in defaults.items() if v is REQUIRED)
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return argparse.Namespace(**defaults)


def _round_floats(value, digits=6):
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v, digits) for v in value]
    return value


def _write_jsonl(path, rows: list[dict]) -> None:
    lines = [json.dumps(_round_floats(row), sort_keys=True) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _corpus_lines(records: list[CorpusRecord]):
    for r in records:
        yield r.source
        yield r.summary


def _examples(vocab: Vocabulary, records: list[CorpusRecord]) -> list[TrainingExample]:
    return [TrainingExample.from_texts(vocab, r.source, r.summary) for r in records]


def _resolve_sampling(opts) -> SamplingConfig:
    base = sampling_preset(opts.preset)
    overrides = {
        key: getattr(opts, key, None)
        for key in ("p_seen", "p_unseen", "p_source", "mask_frac", "random_frac", "keep_frac")
        if getattr(opts, key, None) is not None
    }
    if overrides:
        values = asdict(base)
        values.update(overrides)
        base = SamplingConfig(**values)
    return base


# -- subcommands -------------------------------------------------------------


def cmd_build_vocab(opts) -> int:
    if opts.format == "text":
        try:
            lines = Path(opts.corpus).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CorpusError(f"{opts.corpus}: unreadable ({exc})") from exc
    else:
        records, _ = ingest(opts.corpus, opts.format)
        lines = list(_corpus_lines(records))
    vocab = train_bpe(lines, opts.size, unk_policy=opts.unk_policy)
    vocab.save(opts.output)
    print(f"wrote {len(vocab)} tokens, {len(vocab.merges)} merges -> {opts.output}")
    return 0


def _train_one(
    vocab: Vocabulary,
    train_records: list[CorpusRecord],
    valid_records: list[CorpusRecord],
    sampling: SamplingConfig,
    opts,
) -> tuple[PrefixLM, list[dict]]:
    model_config = ModelConfig.preset(
        opts.model_preset,
        vocab_size=len(vocab),
        max_positions=opts.max_positions,
        dropout=getattr(opts, "dropout", 0.0),
    )
    model = PrefixLM(model_config, seed=seed_key(opts.seed, "init"))
    config = TrainConfig(
        epochs=opts.epochs,
        batch_size=opts.batch_size,
        lr=opts.lr,
        weight_decay=opts.weight_decay,
        plateau_patience=getattr(opts, "plateau_patience", 2),
        plateau_min_delta=getattr(opts, "plateau_min_delta", 1e-4),
        seed=opts.seed,
    )
    report = train(
        model,
        _examples(vocab, train_records),
        _examples(vocab, valid_records),
        sampling,
        config,
        vocab,
    )
    rows = list(report.records)
    rows.append(
        {
            "summary": "run",
            "skipped_examples": report.skipped_examples,
            "valid_skipped": report.valid_skipped,
            "truncated": report.truncation_stats.get("truncated", 0),
            "sampling": asdict(sampling),
        }
    )
    return model, rows


def cmd_train(opts) -> int:
    vocab = Vocabulary.load(opts.vocab)
    train_records, _ = ingest(opts.train, "pairs")
    valid_records = ingest(opts.valid, "pairs")[0] if opts.valid else []
    sampling = _resolve_sampling(opts)
    model, rows = _train_one(vocab, train_records, valid_records, sampling, opts)
    model.save(opts.checkpoint)
    if opts.report:
        _write_jsonl(opts.report, rows)
    for row in rows:
        if row.get("split"):
            print(
                f"epoch {row['epoch']} {row['split']}: loss {row['loss_mean']:.4f} "
                f"(lr {row['lr']:.2e})"
            )
    print(f"checkpoint -> {opts.checkpoint}")
    return 0


def _search_config(vocab: Vocabulary, opts) -> SearchConfig:
    banned = tuple(sorted(set(vocab.special_ids) - {vocab.end_id}))
    return SearchConfig(
        end_id=vocab.end_id,
        k=opts.k,
        heap_capacity=getattr(opts, "heap_capacity", 100_000),
        answer_pool_size=getattr(opts, "pool_size", None),
        max_summary_len=opts.max_len,
        trigram_blocking=getattr(opts, "trigram_blocking", True),
        banned_ids=banned,
    )


def cmd_decode(opts) -> int:
    vocab = Vocabulary.load(opts.vocab)
    model = PrefixLM.load(opts.checkpoint)
    records, _ = ingest(opts.input, "pairs")
    search_config = _search_config(vocab, opts)
    rerank_config = RerankConfig(
        method=opts.rerank, c=opts.c, r_sbwr=opts.r, length_offset=opts.length_offset
    )
    rows = [
        decode_record(
            model, vocab, r.id, r.source, opts.search, search_config, rerank_config
        )
        for r in records
    ]
    _write_jsonl(opts.output, rows)
    if opts.summaries_out:
        Path(opts.summaries_out).write_text(
            "\n".join(row["summary"] for row in rows) + "\n", encoding="utf-8"
        )
    failures = sum(1 for row in rows if row["failed"])
    print(f"decoded {len(rows)} inputs ({failures} failed) -> {opts.output}")
    return 0


def _read_lines(path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"{path}: unreadable ({exc})") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _read_hypotheses(path) -> list[str]:
    lines = _read_lines(path)
    if str(path).endswith(".jsonl"):
        return [str(json.loads(line).get("summary", "")) for line in lines]
    return lines


def cmd_evaluate(opts) -> int:
    hypotheses = _read_hypotheses(opts.hypotheses)
    if opts.corpus:
        records, _ = ingest(opts.corpus, "pairs")
        references = [r.summary for r in records]
        sources = [r.source for r in records]
    elif opts.references and opts.sources:
        references = _read_lines(opts.references)
        sources = _read_lines(opts.sources)
    else:
        raise ConfigError("evaluate needs --corpus, or both --references and --sources")
    row, stats = metrics.evaluate_system(opts.system, hypotheses, references, sources)
    print(metrics.format_report([row]))
    if stats["empty_references"]:
        print(f"warning: {stats['empty_references']} empty references", file=sys.stderr)
    if opts.output:
        _write_jsonl(opts.output, [row])
    return 0


def cmd_sweep(opts) -> int:
    preset_names = [p for p in opts.presets.split(",") if p]
    if not preset_names:
        raise ConfigError("sweep needs at least one preset")
    out_dir = Path(opts.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if opts.synth:
        synth = SynthConfig(
            content_words=opts.content_words,
            n_train=opts.train_pairs,
            n_valid=opts.valid_pairs,
            n_test=opts.test_pairs,
            paraphrase_fraction=opts.paraphrase_fraction,
            seed=opts.seed,
        )
        splits = synth_generate(synth)
        corpus_dir = out_dir / "corpus"
        corpus_dir.mkdir(exist_ok=True)
        for split, records in splits.items():
            write_pairs(records, corpus_dir / f"{split}.jsonl")
    elif opts.corpus_dir:
        corpus_dir = Path(opts.corpus_dir)
        splits = {
            split: ingest(corpus_dir / f"{split}.jsonl", "pairs")[0]
            for split in ("train", "valid", "test")
        }
    else:
        raise ConfigError("sweep needs --synth or --corpus-dir")

    vocab = train_bpe(list(_corpus_lines(splits["train"])), opts.vocab_size)
    vocab.save(out_dir / "vocab.txt")

    rows: list[dict] = []
    try:
        for preset_name in preset_names:
            sampling = sampling_preset(preset_name)
            preset_dir = out_dir / preset_name
            preset_dir.mkdir(exist_ok=True)
            model, train_rows = _train_one(
                vocab, splits["train"], splits["valid"], sampling, opts
            )
            model.save(preset_dir / "checkpoint.bin")
            _write_jsonl(preset_dir / "train_report.jsonl", train_rows)

            # matched measurement setting: beam, no reranking
            search_config = SearchConfig(
                end_id=vocab.end_id,
                k=opts.k,
                max_summary_len=opts.max_len,
                trigram_blocking=True,
                banned_ids=tuple(sorted(set(vocab.special_ids) - {vocab.end_id})),
            )
            rerank_config = RerankConfig(method="none")
            decode_rows = [
                decode_record(
                    model, vocab, r.id, r.source, "beam", search_config, rerank_config
                )
                for r in splits["test"]
            ]
            _write_jsonl(preset_dir / "records.jsonl", decode_rows)
            summaries = [row["summary"] for row in decode_rows]
            (preset_dir / "summaries.txt").write_text(
                "\n".join(summaries) + "\n", encoding="utf-8"
            )
            row, _ = metrics.evaluate_system(
                preset_name,
                summaries,
                [r.summary for r in splits["test"]],
                [r.source for r in splits["test"]],
            )
            rows.append(row)
            print(f"[{preset_name}] done", file=sys.stderr)
    finally:
        # partial results stay on disk if a preset fails mid-sweep
        _write_jsonl(out_dir / "report.jsonl", rows)
        (out_dir / "report.txt").write_text(
            metrics.format_report(rows) + "\n", encoding="utf-8"
        )
    print(metrics.format_report(rows))
    return 0


COMMANDS = {
    "build-vocab": cmd_build_vocab,
    "train": cmd_train,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        return COMMANDS[args.command](opts)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, CorpusError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
