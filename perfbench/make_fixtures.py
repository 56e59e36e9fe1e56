"""Rebuild the decode workloads' fixed inputs from seeds.

Writes into ``perfbench/fixtures`` (or ``--out``):

* ``vocab.txt``      BPE vocabulary (512 tokens) trained on the synthetic
                     training split, as ``copysum sweep`` does;
* ``checkpoint.bin`` a ``desk`` model trained with the sweep's settings
                     (preset case-g, dropout 0.1, batch 16, 14 epochs);
* ``test.jsonl``     the 200 synthetic test records the decode workloads
                     decode (the sweep's seed-7 test split);
* ``MANIFEST.json``  the seeds, settings and SHA-256 of each file.

Everything goes through the public ``copysum`` CLI, so the files are what
a user running the same commands would get. Takes about two minutes on a
2-CPU box (training dominates)::

    python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as in the benchmark runs; must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from copysum.cli import main as cli_main  # noqa: E402
from copysum.data import SynthConfig, synth_generate, write_pairs  # noqa: E402

CORPUS_SEED = 7
TRAIN_SEED = 7
TRAIN_ARGS = [
    "--preset", "case-g", "--model-preset", "desk", "--max-positions", "160",
    "--dropout", "0.1", "--batch-size", "16", "--epochs", "14",
    "--lr", "1.5e-3", "--weight-decay", "0.01",
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "fixtures"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    splits = synth_generate(SynthConfig(seed=CORPUS_SEED))
    write_pairs(splits["test"], out / "test.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        write_pairs(splits["train"], corpus / "train.jsonl")
        write_pairs(splits["valid"], corpus / "valid.jsonl")
        steps = [
            ["build-vocab", "--corpus", str(corpus / "train.jsonl"), "--size", "512",
             "--output", str(out / "vocab.txt")],
            ["train", "--train", str(corpus / "train.jsonl"),
             "--valid", str(corpus / "valid.jsonl"), "--vocab", str(out / "vocab.txt"),
             "--checkpoint", str(out / "checkpoint.bin"), "--seed", str(TRAIN_SEED),
             *TRAIN_ARGS],
        ]
        for step in steps:
            code = cli_main(step)
            if code != 0:
                print(f"copysum {step[0]} failed with exit code {code}", file=sys.stderr)
                return code

    manifest = {
        "corpus": {"generator": "SynthConfig defaults", "seed": CORPUS_SEED,
                   "n_train": 2000, "n_valid": 200, "n_test": 200},
        "vocab": {"size": 512, "trained_on": "train split"},
        "train": {"seed": TRAIN_SEED, "args": TRAIN_ARGS},
        "sha256": {name: _sha256(out / name)
                   for name in ("checkpoint.bin", "vocab.txt", "test.jsonl")},
    }
    (out / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"fixtures -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
