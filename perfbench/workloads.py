"""The three workloads: inputs from the seed, one round of work, checks.

A run does whole rounds. A round is a fixed unit of work that repeats
exactly, so counts taken over whole rounds repeat from run to run:

* training: one ``train()`` epoch over the first 320 training and 32
  validation examples of a corpus made from the seed, with the same
  corruption draws every round;
* decoding: one pass of ``decode_record`` over a fixed record set.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
from copysum import bpe, data, decoding, metrics, training
from copysum.decoding import RerankConfig, SearchConfig
from copysum.model import ModelConfig, PrefixLM
from copysum.seeding import named_rng, seed_key
from copysum.text import WORD_END

FIXTURES = Path(__file__).resolve().parent / "fixtures"

TRAIN_ROUND_EXAMPLES = 320  # 20 optimizer steps of 16
VALID_ROUND_EXAMPLES = 32
# Decode sets; p90 over >=100 records has 10 records above it.
BEAM_SET = 200
BEST_FIRST_SET = 100
K = 5
MAX_SUMMARY_LEN = 32
LOSS_CHECK_EXAMPLES = 4
GRAD_SAMPLES = 12
FD_STEP = 1e-5


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


class TrainWorkload:
    """The sweep's training settings on a synthetic corpus made from the seed."""

    item = "training example"
    items_per_round = TRAIN_ROUND_EXAMPLES
    min_rounds = 2  # the loss-trend check compares the first and last epoch

    def __init__(self, seed: int):
        corpus = data.synth_generate(data.SynthConfig(seed=seed))
        lines = [text for r in corpus["train"] for text in (r.source, r.summary)]
        self.vocab = bpe.train_bpe(lines, 512)
        self.train_examples = [
            training.TrainingExample.from_texts(self.vocab, r.source, r.summary)
            for r in corpus["train"][:TRAIN_ROUND_EXAMPLES]
        ]
        self.valid_examples = [
            training.TrainingExample.from_texts(self.vocab, r.source, r.summary)
            for r in corpus["valid"][:VALID_ROUND_EXAMPLES]
        ]
        config = ModelConfig.preset("desk", vocab_size=len(self.vocab), max_positions=160,
                                    dropout=0.1)
        self.model = PrefixLM(config, seed=seed_key(seed, "init"))
        self.sampling = training.sampling_preset("case-g")
        self.config = training.TrainConfig(epochs=1, batch_size=16, lr=1.5e-3,
                                           weight_decay=0.01, seed=seed)
        self.seed = seed
        self.losses: list[float] = []
        self.attempted = 0

    def round(self, epoch_ms: list[float]) -> float:
        """One epoch; returns its wall time and appends it, in ms, to ``epoch_ms``.

        The epoch, not the optimizer step, is the timed operation: step
        times are bimodal (a cyclic garbage collection adds ~12 ms to about
        one step in ten), so a p90 over steps flips between the two modes
        from run to run.
        """
        start = time.perf_counter()
        report = training.train(self.model, self.train_examples, self.valid_examples,
                                self.sampling, self.config, self.vocab)
        elapsed = time.perf_counter() - start
        self.attempted += TRAIN_ROUND_EXAMPLES
        epoch_ms.append(elapsed * 1e3)
        self.losses += [r["loss_mean"] for r in report.records if r["split"] == "train"]
        return elapsed

    def operations(self) -> tuple[int, int]:
        # train() raises on a diverged loss, which ends the run
        return self.attempted, 0

    def evaluate(self) -> int:
        return 0

    def check(self) -> list[str]:
        faults = checks.check_loss_trend(self.losses[0], self.losses[-1], len(self.vocab))
        model, cfg = self.model, self.model.config
        params = reference.params_of(model)

        def ref_loss(seq, corrupted, record):
            return reference.masked_lm_loss(params, cfg.num_layers, cfg.num_heads, corrupted,
                                            seq.source_len, record.positions,
                                            record.original_ids)

        rng = named_rng(self.seed, "perfbench-check")
        cases = []
        for example in self.train_examples[:LOSS_CHECK_EXAMPLES]:
            seq = training.build_joint_sequence(example, self.vocab, cfg.max_positions)
            categories = training.categorize_tokens(seq, self.vocab)
            corrupted, record = training.sample_and_corrupt(seq, categories, self.sampling,
                                                            rng, self.vocab)
            if len(record.positions):
                cases.append((seq, corrupted, record))
                loss = training.compute_loss(model, seq, corrupted, record, reduction="sum")
                faults += checks.check_loss(loss.item(), ref_loss(seq, corrupted, record))
        if not cases:
            return faults + ["no checked example selected a position"]

        seq, corrupted, record = cases[0]
        model.zero_grad()
        training.compute_loss(model, seq, corrupted, record, reduction="sum").backward()
        names = sorted(model.params)
        samples = []
        for _ in range(GRAD_SAMPLES):
            name = names[int(rng.integers(len(names)))]
            shape = params[name].shape
            if name == "tok_emb":  # rows the example reads, not untouched ones
                index = (int(rng.choice(corrupted)), int(rng.integers(shape[1])))
            elif name == "pos_emb":
                index = (int(rng.integers(len(seq))), int(rng.integers(shape[1])))
            else:
                index = np.unravel_index(int(rng.integers(params[name].size)), shape)
            original = params[name][index]
            sides = []
            for delta in (FD_STEP, -FD_STEP):
                params[name][index] = original + delta
                sides.append(ref_loss(seq, corrupted, record))
            params[name][index] = original
            numeric = (sides[0] - sides[1]) / (2 * FD_STEP)
            samples.append((name, index, float(model.params[name].grad[index]), numeric))
        return faults + checks.check_gradients(samples)


class DecodeWorkload:
    """Passes over a fixed record set, in a fresh seeded order each pass.

    The set is the first ``set_size`` records of the fixture pool, the same
    for every seed: seed-drawn sets of ~120 best-first records gave p90s
    that differ by 10-19% between seeds, so the seed sets the order only.
    """

    item = "test record"
    min_rounds = 1

    def __init__(self, seed: int, search: str, rerank: str, set_size: int):
        for name in ("checkpoint.bin", "vocab.txt", "test.jsonl"):
            if not (FIXTURES / name).is_file():
                raise SetupError(f"missing fixture {FIXTURES / name}")
        self.vocab = bpe.Vocabulary.load(FIXTURES / "vocab.txt")
        self.model = PrefixLM.load(FIXTURES / "checkpoint.bin")
        pool, _ = data.ingest(FIXTURES / "test.jsonl", "pairs")
        self.records = pool[:set_size]
        self.items_per_round = len(self.records)
        self.order_rng = named_rng(seed, "perfbench-order")
        self.search = search
        self.search_config = SearchConfig(
            end_id=self.vocab.end_id, k=K, max_summary_len=MAX_SUMMARY_LEN,
            trigram_blocking=True,
            banned_ids=tuple(sorted(set(self.vocab.special_ids) - {self.vocab.end_id})),
        )
        self.rerank_config = RerankConfig(method=rerank)
        self.outputs: dict[str, tuple[dict, tuple]] = {}
        self.nondeterministic: list[str] = []
        self.attempted = self.failed = 0
        self.evaluation = None

    def decode(self, record, latency_ms: list[float]) -> None:
        """Decode one record, keeping its row and the token ids it scored."""
        chosen = []
        rerank = decoding.rerank

        def kept_rerank(pool, *args, **kwargs):
            ranked = rerank(pool, *args, **kwargs)
            chosen.append(ranked[0].hypothesis.ids)
            return ranked

        decoding.rerank = kept_rerank
        self.attempted += 1
        try:
            start = time.perf_counter()
            row = decoding.decode_record(self.model, self.vocab, record.id, record.source,
                                         self.search, self.search_config, self.rerank_config)
            latency_ms.append((time.perf_counter() - start) * 1e3)
        except Exception as exc:  # one record's fault is counted, not fatal
            print(f"{record.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        finally:
            decoding.rerank = rerank
        if row["failed"]:
            self.failed += 1
            return
        entry = (row, chosen[-1] if chosen else ())
        if self.outputs.setdefault(record.id, entry) != entry:
            self.nondeterministic.append(record.id)

    def round(self, latency_ms: list[float]) -> float:
        """One pass over the set; returns its wall time."""
        order = self.order_rng.permutation(len(self.records))
        start = time.perf_counter()
        for i in order:
            self.decode(self.records[i], latency_ms)
        return time.perf_counter() - start

    def operations(self) -> tuple[int, int]:
        return self.attempted, self.failed

    def evaluate(self) -> int:
        """``evaluate_system`` over the set's outputs; returns the record count."""
        done = [r for r in self.records if r.id in self.outputs]
        hyps = [self.outputs[r.id][0]["summary"] for r in done]
        row, _ = metrics.evaluate_system("perfbench", hyps, [r.summary for r in done],
                                         [r.source for r in done])
        self.evaluation = (row, hyps, [r.summary for r in done], [r.source for r in done])
        return len(done)

    def check(self) -> list[str]:
        faults = [f"{rid}: two decodes of one record differ" for rid in self.nondeterministic]
        params = reference.params_of(self.model)
        cfg = self.model.config
        tokens, specials = self.vocab.id_to_token, self.vocab.special_ids
        sources = {r.id: r.source for r in self.records}
        for rid, (row, ids) in self.outputs.items():
            prompt = [self.vocab.start_id, *self.vocab.encode(sources[rid]), self.vocab.end_id]
            score = reference.summary_log_prob(params, cfg.num_layers, cfg.num_heads, prompt,
                                               ids, self.vocab.mask_id)
            text = "".join(tokens[i] for i in ids if i not in specials)
            text = text.replace(WORD_END, " ").strip()
            faults += checks.check_record(row, sources[rid], ids, text, score)
        if self.evaluation is not None:
            faults += checks.check_evaluation(*self.evaluation)
        return faults


WORKLOADS = {
    "train-case-g": TrainWorkload,
    "decode-beam": lambda seed: DecodeWorkload(seed, "beam", "none", BEAM_SET),
    "decode-best-first-sbwr": lambda seed: DecodeWorkload(seed, "best-first", "sbwr",
                                                          BEST_FIRST_SET),
}
