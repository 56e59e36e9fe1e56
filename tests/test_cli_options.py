"""Parity pins for the command line: every flag and every resolved default.

Each row is ``(option strings, dest, type, choices, action, help)`` as
argparse holds it. The pins were taken from the hand-written parser that
the option table replaced, so a change to any flag, type, choice, help
text or default shows up here.
"""

import argparse

import pytest

from copysum.cli import _merge_options, build_parser
from copysum.errors import ConfigError

COMMON = [
    (("--config",), "config", None, None, "Store", "JSON file with option defaults"),
    (("--seed",), "seed", "int", None, "Store", "root random seed"),
]

FLAGS = {
    "build-vocab": COMMON + [
        (("--corpus",), "corpus", None, None, "Store", None),
        (("--format",), "format", None, ["pairs", "article", "text"], "Store", None),
        (("--size",), "size", "int", None, "Store", None),
        (("--unk-policy",), "unk_policy", None, ["replace", "error"], "Store", None),
        (("--output",), "output", None, None, "Store", None),
    ],
    "train": COMMON + [
        (("--train",), "train", None, None, "Store", None),
        (("--valid",), "valid", None, None, "Store", None),
        (("--vocab",), "vocab", None, None, "Store", None),
        (("--checkpoint",), "checkpoint", None, None, "Store", None),
        (("--report",), "report", None, None, "Store", None),
        (("--preset",), "preset", None, None, "Store", "sampling preset, e.g. case-a or seen-only"),
        (("--p-seen",), "p_seen", "float", None, "Store", None),
        (("--p-unseen",), "p_unseen", "float", None, "Store", None),
        (("--p-source",), "p_source", "float", None, "Store", None),
        (("--mask-frac",), "mask_frac", "float", None, "Store", None),
        (("--random-frac",), "random_frac", "float", None, "Store", None),
        (("--keep-frac",), "keep_frac", "float", None, "Store", None),
        (("--model-preset",), "model_preset", None, None, "Store", None),
        (("--max-positions",), "max_positions", "int", None, "Store", None),
        (("--dropout",), "dropout", "float", None, "Store", None),
        (("--epochs",), "epochs", "int", None, "Store", None),
        (("--batch-size",), "batch_size", "int", None, "Store", None),
        (("--lr",), "lr", "float", None, "Store", None),
        (("--weight-decay",), "weight_decay", "float", None, "Store", None),
        (("--plateau-patience",), "plateau_patience", "int", None, "Store", None),
        (("--plateau-min-delta",), "plateau_min_delta", "float", None, "Store", None),
    ],
    "decode": COMMON + [
        (("--checkpoint",), "checkpoint", None, None, "Store", None),
        (("--vocab",), "vocab", None, None, "Store", None),
        (("--input",), "input", None, None, "Store", None),
        (("--output",), "output", None, None, "Store", None),
        (("--summaries-out",), "summaries_out", None, None, "Store", None),
        (("--search",), "search", None, ["beam", "best-first"], "Store", None),
        (("--k",), "k", "int", None, "Store", None),
        (("--rerank",), "rerank", None, ["none", "length_norm", "bp_norm", "sbwr"], "Store", None),
        (("--c",), "c", "float", None, "Store", "bp_norm copy-rate scale"),
        (("--r",), "r", "float", None, "Store", "sbwr reward coefficient"),
        (("--length-offset",), "length_offset", "int", None, "Store", None),
        (("--max-len",), "max_len", "int", None, "Store", None),
        (("--pool-size",), "pool_size", "int", None, "Store", None),
        (("--heap-capacity",), "heap_capacity", "int", None, "Store", None),
        (("--no-trigram-blocking",), "trigram_blocking", None, None, "StoreFalse", None),
    ],
    "evaluate": COMMON + [
        (("--hypotheses",), "hypotheses", None, None, "Store", None),
        (("--references",), "references", None, None, "Store", None),
        (("--sources",), "sources", None, None, "Store", None),
        (("--corpus",), "corpus", None, None, "Store", "pairs file supplying references and sources"),
        (("--system",), "system", None, None, "Store", None),
        (("--output",), "output", None, None, "Store", None),
    ],
    "sweep": COMMON + [
        (("--output-dir",), "output_dir", None, None, "Store", None),
        (("--corpus-dir",), "corpus_dir", None, None, "Store", None),
        (("--synth",), "synth", None, None, "StoreTrue", None),
        (("--train-pairs",), "train_pairs", "int", None, "Store", None),
        (("--valid-pairs",), "valid_pairs", "int", None, "Store", None),
        (("--test-pairs",), "test_pairs", "int", None, "Store", None),
        (("--paraphrase-fraction",), "paraphrase_fraction", "float", None, "Store", None),
        (("--content-words",), "content_words", "int", None, "Store", None),
        (("--vocab-size",), "vocab_size", "int", None, "Store", None),
        (("--model-preset",), "model_preset", None, None, "Store", None),
        (("--max-positions",), "max_positions", "int", None, "Store", None),
        (("--dropout",), "dropout", "float", None, "Store", None),
        (("--epochs",), "epochs", "int", None, "Store", None),
        (("--batch-size",), "batch_size", "int", None, "Store", None),
        (("--lr",), "lr", "float", None, "Store", None),
        (("--weight-decay",), "weight_decay", "float", None, "Store", None),
        (("--presets",), "presets", None, None, "Store", "comma-separated sampling presets"),
        (("--k",), "k", "int", None, "Store", None),
        (("--max-len",), "max_len", "int", None, "Store", None),
    ],
}

SUBCOMMAND_HELP = [
    ("build-vocab", "train a BPE vocabulary from a corpus"),
    ("train", "train a summarizer checkpoint"),
    ("decode", "generate summaries from a checkpoint"),
    ("evaluate", "score hypotheses against references and sources"),
    ("sweep", "train/decode/evaluate one model per sampling preset"),
]

# Values resolved when only the required options are given (each as "R").
RESOLVED = {
    "build-vocab": {
        "corpus": "R", "format": "pairs", "size": 512, "output": "R",
        "unk_policy": "replace", "seed": 0,
    },
    "train": {
        "train": "R", "valid": None, "vocab": "R", "checkpoint": "R", "report": None,
        "preset": "case-g", "p_seen": None, "p_unseen": None, "p_source": None,
        "mask_frac": None, "random_frac": None, "keep_frac": None,
        "model_preset": "desk", "max_positions": 160, "dropout": 0.1, "epochs": 14,
        "batch_size": 16, "lr": 0.0015, "weight_decay": 0.01,
        "plateau_patience": 2, "plateau_min_delta": 0.0001, "seed": 0,
    },
    "decode": {
        "checkpoint": "R", "vocab": "R", "input": "R", "output": "R",
        "summaries_out": None, "search": "beam", "k": 5, "rerank": "none",
        "c": 0.55, "r": 0.25, "length_offset": 3, "max_len": 32, "pool_size": None,
        "heap_capacity": 100000, "trigram_blocking": True, "seed": 0,
    },
    "evaluate": {
        "hypotheses": "R", "references": None, "sources": None, "corpus": None,
        "system": "system", "output": None, "seed": 0,
    },
    "sweep": {
        "output_dir": "R", "corpus_dir": None, "synth": False, "train_pairs": 2000,
        "valid_pairs": 200, "test_pairs": 200, "paraphrase_fraction": 0.33,
        "content_words": 80, "vocab_size": 512, "model_preset": "desk",
        "max_positions": 160, "dropout": 0.1, "epochs": 14, "batch_size": 16,
        "lr": 0.0015, "weight_decay": 0.01, "presets": "case-a,case-b,case-c",
        "k": 5, "max_len": 32, "seed": 0,
    },
}

MISSING = {
    "build-vocab": "--corpus, --output",
    "train": "--checkpoint, --train, --vocab",
    "decode": "--checkpoint, --input, --output, --vocab",
    "evaluate": "--hypotheses",
    "sweep": "--output-dir",
}


def _rows(parser):
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        rows.append((
            tuple(action.option_strings),
            action.dest,
            action.type.__name__ if action.type else None,
            None if action.choices is None else list(action.choices),
            type(action).__name__.strip("_").replace("Action", ""),
            action.help,
        ))
    return rows


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_top_level_parser():
    parser = build_parser()
    assert parser.prog == "copysum"
    assert parser.description == "Summarization with control over verbatim copying."
    assert _rows(parser) == []
    subs = _subparsers(parser)
    assert subs.dest == "command" and subs.required
    assert [(a.dest, a.help) for a in subs._choices_actions] == SUBCOMMAND_HELP
    assert list(subs.choices) == [name for name, _ in SUBCOMMAND_HELP]


@pytest.mark.parametrize("command", list(FLAGS))
def test_subcommand_flags(command):
    sub = _subparsers(build_parser()).choices[command]
    assert _rows(sub) == FLAGS[command]
    # nothing given on the command line appears in the namespace
    assert vars(sub.parse_args([])) == {}


@pytest.mark.parametrize("command", list(RESOLVED))
def test_resolved_defaults(command):
    argv = [command]
    for name, value in RESOLVED[command].items():
        if value == "R":
            argv += ["--" + name.replace("_", "-"), "R"]
    resolved = vars(_merge_options(build_parser().parse_args(argv)))
    assert resolved == RESOLVED[command]
    assert {k: type(v) for k, v in resolved.items()} == {
        k: type(v) for k, v in RESOLVED[command].items()
    }


@pytest.mark.parametrize("command", list(MISSING))
def test_required_options_named_when_missing(command):
    with pytest.raises(ConfigError, match=f"missing required option\\(s\\): {MISSING[command]}$"):
        _merge_options(build_parser().parse_args([command]))
