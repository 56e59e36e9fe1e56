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
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple

from . import metrics
from .bpe import Vocabulary, train_bpe
from .data import CorpusRecord, SynthConfig, ingest, read_text, synth_generate, write_pairs
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


class Option(NamedTuple):
    """A row of OPTIONS; its flag is ``--name`` with ``-`` for ``_``."""

    name: str
    kind: type | list[str]  # int, float, str, bool (a switch) or the allowed strings
    default: object  # REQUIRED when the option has none
    help: str | None = None


# Each option is declared once, as (name, type or choices, default[, help]).
# A bool option is a switch: --name turns a False default on, --no-name a
# True one off. Config-file values are checked against the same type or
# choices; null passes only where the default is None. An option named
# after a field of SamplingConfig, TrainConfig or SearchConfig reaches that
# field by its name (_fields).
SEED = ("seed", int, 0, "root random seed")
K, MAX_LEN = ("k", int, 5), ("max_len", int, 32)  # shared by decode and sweep
TRAINING = [  # shared by train and sweep
    ("model_preset", str, "desk"), ("max_positions", int, 160), ("dropout", float, 0.1),
    ("epochs", int, 14), ("batch_size", int, 16), ("lr", float, 1.5e-3),
    ("weight_decay", float, 0.01),
]

# command -> (help, option rows), in the order --help lists them
OPTIONS: dict[str, tuple[str, list[tuple]]] = {
    "build-vocab": ("train a BPE vocabulary from a corpus", [
        SEED, ("corpus", str, REQUIRED), ("format", ["pairs", "article", "text"], "pairs"),
        ("size", int, 512), ("unk_policy", ["replace", "error"], "replace"),
        ("output", str, REQUIRED),
    ]),
    "train": ("train a summarizer checkpoint", [
        SEED, ("train", str, REQUIRED), ("valid", str, None), ("vocab", str, REQUIRED),
        ("checkpoint", str, REQUIRED), ("report", str, None),
        ("preset", str, "case-g", "sampling preset, e.g. case-a or seen-only"),
        ("p_seen", float, None), ("p_unseen", float, None), ("p_source", float, None),
        ("mask_frac", float, None), ("random_frac", float, None), ("keep_frac", float, None),
        *TRAINING, ("plateau_patience", int, 2), ("plateau_min_delta", float, 1e-4),
    ]),
    "decode": ("generate summaries from a checkpoint", [
        SEED, ("checkpoint", str, REQUIRED), ("vocab", str, REQUIRED),
        ("input", str, REQUIRED), ("output", str, REQUIRED), ("summaries_out", str, None),
        ("search", ["beam", "best-first"], "beam"), K,
        ("rerank", ["none", "length_norm", "bp_norm", "sbwr"], "none"),
        ("c", float, 0.55, "bp_norm copy-rate scale"),
        ("r", float, 0.25, "sbwr reward coefficient"),
        ("length_offset", int, 3), MAX_LEN, ("pool_size", int, None),
        ("heap_capacity", int, 100_000), ("trigram_blocking", bool, True),
    ]),
    "evaluate": ("score hypotheses against references and sources", [
        SEED, ("hypotheses", str, REQUIRED), ("references", str, None),
        ("sources", str, None),
        ("corpus", str, None, "pairs file supplying references and sources"),
        ("system", str, "system"), ("output", str, None),
    ]),
    "sweep": ("train/decode/evaluate one model per sampling preset", [
        SEED, ("output_dir", str, REQUIRED), ("corpus_dir", str, None),
        ("synth", bool, False), ("train_pairs", int, 2000), ("valid_pairs", int, 200),
        ("test_pairs", int, 200), ("paraphrase_fraction", float, 0.33),
        ("content_words", int, 80), ("vocab_size", int, 512), *TRAINING,
        ("presets", str, "case-a,case-b,case-c", "comma-separated sampling presets"),
        K, MAX_LEN,
    ]),
}


def _options(command: str) -> dict[str, Option]:
    return {row[0]: Option(*row) for row in OPTIONS[command][1]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copysum",
        description="Summarization with control over verbatim copying.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in OPTIONS.items():
        # flags left out stay out of the namespace, so _merge_options can
        # tell them from the defaults and the config file
        p = subs.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON file with option defaults")
        for opt in _options(command).values():
            flag = "--" + opt.name.replace("_", "-")
            if opt.kind is bool:
                action = "store_false" if opt.default else "store_true"
                flag = "--no-" + flag[2:] if opt.default else flag
                p.add_argument(flag, dest=opt.name, action=action, help=opt.help)
            else:
                choices = opt.kind if isinstance(opt.kind, list) else None
                kind = opt.kind if opt.kind in (int, float) else None
                p.add_argument(flag, type=kind, choices=choices, help=opt.help)
    return parser


def _checked(opt: Option, value, path):
    """``value`` from config file ``path`` as the flag would give it."""
    if value is None and opt.default is None:
        return value
    if isinstance(opt.kind, list):
        ok, expected = value in opt.kind, "one of " + ", ".join(opt.kind)
    else:
        # JSON true and false are Python ints too; only a switch takes them
        allowed = (int, float) if opt.kind is float else opt.kind
        ok = isinstance(value, allowed) and isinstance(value, bool) == (opt.kind is bool)
        expected = opt.kind.__name__
    if not ok:
        raise ConfigError(f"{path}: {opt.name}: expected {expected}, got {value!r}")
    return float(value) if opt.kind is float else value


def _merge_options(args: argparse.Namespace) -> argparse.Namespace:
    """Table defaults, then the --config file, then the flags given."""
    provided = dict(vars(args))
    command = provided.pop("command")
    options = _options(command)
    values = {name: opt.default for name, opt in options.items()}
    path = provided.pop("config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(loaded).__name__}")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys for {command}: {unknown}")
        values.update({name: _checked(options[name], v, path) for name, v in loaded.items()})
    values.update(provided)
    missing = sorted(name for name, value in values.items() if value is REQUIRED)
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ConfigError(f"missing required option(s): {flags}")
    return argparse.Namespace(**values)


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


def _fields(cls, opts) -> dict:
    """The options named after fields of dataclass ``cls``."""
    names = {field.name for field in fields(cls)}
    return {name: value for name, value in vars(opts).items() if name in names}


def _resolve_sampling(opts) -> SamplingConfig:
    overrides = {k: v for k, v in _fields(SamplingConfig, opts).items() if v is not None}
    return replace(sampling_preset(opts.preset), **overrides)


# -- subcommands -------------------------------------------------------------


def cmd_build_vocab(opts) -> int:
    if opts.format == "text":
        lines = read_text(opts.corpus).splitlines()
    else:
        records, _ = ingest(opts.corpus, opts.format)
        lines = list(_corpus_lines(records))
    vocab = train_bpe(lines, opts.size, unk_policy=opts.unk_policy)
    vocab.save(opts.output)
    print(f"wrote {len(vocab)} tokens, {len(vocab.merges)} merges -> {opts.output}")
    return 0


def _model_config(opts) -> ModelConfig:
    """The model settings of ``opts``, checked before any file is read or
    written; the caller sets ``vocab_size`` once it has the vocabulary."""
    return ModelConfig.preset(
        opts.model_preset,
        vocab_size=1,
        max_positions=opts.max_positions,
        dropout=opts.dropout,
    )


def _train_one(
    vocab: Vocabulary,
    train_records: list[CorpusRecord],
    valid_records: list[CorpusRecord],
    sampling: SamplingConfig,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[PrefixLM, list[dict]]:
    model = PrefixLM(model_config, seed=seed_key(train_config.seed, "init"))
    report = train(
        model,
        _examples(vocab, train_records),
        _examples(vocab, valid_records),
        sampling,
        train_config,
        vocab,
    )
    rows = list(report.records)
    rows.append(
        {
            "summary": "run",
            "skipped_examples": report.skipped_examples,
            "valid_skipped": report.valid_skipped,
            "truncated": report.truncated,
            "sampling": asdict(sampling),
        }
    )
    return model, rows


def cmd_train(opts) -> int:
    train_config = TrainConfig(**_fields(TrainConfig, opts))
    model_config = _model_config(opts)
    sampling = _resolve_sampling(opts)
    vocab = Vocabulary.load(opts.vocab)
    train_records, _ = ingest(opts.train, "pairs")
    valid_records = ingest(opts.valid, "pairs")[0] if opts.valid else []
    model, rows = _train_one(vocab, train_records, valid_records, sampling,
                             replace(model_config, vocab_size=len(vocab)), train_config)
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


def _search_config(vocab: Vocabulary, opts, **search_config) -> SearchConfig:
    """Options named after SearchConfig fields, --max-len and ``search_config``."""
    banned = tuple(sorted(set(vocab.special_ids) - {vocab.end_id}))
    return SearchConfig(
        end_id=vocab.end_id,
        max_summary_len=opts.max_len,
        banned_ids=banned,
        **_fields(SearchConfig, opts),
        **search_config,
    )


def _decode_all(model, vocab, records, search, search_config, rerank_config, output,
                summaries_out=None) -> list[dict]:
    """Decode ``records``, writing the rows to ``output`` and, when given, one
    summary per line to ``summaries_out``; returns the rows."""
    rows = [
        decode_record(model, vocab, r.id, r.source, search, search_config, rerank_config)
        for r in records
    ]
    _write_jsonl(output, rows)
    if summaries_out:
        Path(summaries_out).write_text(
            "\n".join(row["summary"] for row in rows) + "\n", encoding="utf-8"
        )
    return rows


def cmd_decode(opts) -> int:
    rerank_config = RerankConfig(
        method=opts.rerank, c=opts.c, r_sbwr=opts.r, length_offset=opts.length_offset
    )
    vocab = Vocabulary.load(opts.vocab)
    model = PrefixLM.load(opts.checkpoint)
    if model.config.vocab_size != len(vocab):
        raise ContractError(
            f"{opts.checkpoint} has a vocabulary of {model.config.vocab_size} tokens, "
            f"but {opts.vocab} has {len(vocab)}"
        )
    records, _ = ingest(opts.input, "pairs")
    search_config = _search_config(vocab, opts, answer_pool_size=opts.pool_size)
    rows = _decode_all(model, vocab, records, opts.search, search_config, rerank_config,
                       opts.output, opts.summaries_out)
    failures = sum(1 for row in rows if row["failed"])
    print(f"decoded {len(rows)} inputs ({failures} failed) -> {opts.output}")
    return 0


def _read_lines(path) -> list[str]:
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _read_hypotheses(path) -> list[str]:
    """Lines of ``path``, or each row's "summary" when it is a .jsonl file."""
    lines = _read_lines(path)
    if not str(path).endswith(".jsonl"):
        return lines
    summaries = []
    for line_no, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {line_no}: not JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise CorpusError(f"{path}: line {line_no}: not a JSON object")
        summaries.append(str(row.get("summary", "")))
    return summaries


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
    samplings = [sampling_preset(name) for name in preset_names]
    train_config = TrainConfig(**_fields(TrainConfig, opts))
    model_config = _model_config(opts)
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

    model_config = replace(model_config, vocab_size=len(vocab))
    # matched measurement setting: beam, no reranking
    search_config = _search_config(vocab, opts)
    rerank_config = RerankConfig(method="none")
    rows: list[dict] = []
    try:
        for preset_name, sampling in zip(preset_names, samplings):
            preset_dir = out_dir / preset_name
            preset_dir.mkdir(exist_ok=True)
            model, train_rows = _train_one(
                vocab, splits["train"], splits["valid"], sampling, model_config, train_config
            )
            model.save(preset_dir / "checkpoint.bin")
            _write_jsonl(preset_dir / "train_report.jsonl", train_rows)

            decode_rows = _decode_all(model, vocab, splits["test"], "beam", search_config,
                                      rerank_config, preset_dir / "records.jsonl",
                                      preset_dir / "summaries.txt")
            row, _ = metrics.evaluate_system(
                preset_name,
                [decoded["summary"] for decoded in decode_rows],
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
