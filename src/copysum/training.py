"""Training-time copy control: category sampling, corruption, masked loss.

Every target token falls into one of three categories - summary tokens also
present in the source, summary tokens absent from it, and source tokens.
Sampling each category at its own Bernoulli rate decides which positions are
corrupted and predicted, which is the knob that steers the trained model
toward copying or generating.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import Vocabulary
from .errors import ConfigError, ContractError, NumericError
from .model import JointBatch, JointSequence, PrefixLM, fit_source, pad_rows
from .optim import AdamW, PlateauHalver
from .seeding import named_rng


class TokenCategory(IntEnum):
    SOURCE = 0
    SEEN_SUMMARY = 1
    UNSEEN_SUMMARY = 2


@dataclass
class TrainingExample:
    source_ids: np.ndarray
    summary_ids: np.ndarray

    @classmethod
    def from_texts(cls, vocab: Vocabulary, source: str, summary: str) -> "TrainingExample":
        return cls(
            source_ids=np.asarray(vocab.encode(source), dtype=np.int64),
            summary_ids=np.asarray(vocab.encode(summary), dtype=np.int64),
        )


@dataclass
class SamplingConfig:
    """Per-category selection rates plus the corruption action mix."""

    p_seen: float
    p_unseen: float
    p_source: float
    mask_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1

    def __post_init__(self):
        for name in ("p_seen", "p_unseen", "p_source"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name}={p} outside [0, 1]")
        total = self.mask_frac + self.random_frac + self.keep_frac
        if abs(total - 1.0) > 1e-9 or min(self.mask_frac, self.random_frac, self.keep_frac) < 0:
            raise ConfigError(f"corruption mix must be non-negative and sum to 1, got {total}")


# Mix-and-match presets: rates are relative token budgets, anchored at 0.9
# for the dominant summary category and 0.1 for source tokens.
SAMPLING_PRESETS = {
    "case-a": dict(p_seen=0.9, p_unseen=0.0, p_source=0.0),
    "case-b": dict(p_seen=0.9, p_unseen=0.45, p_source=0.0),
    "case-c": dict(p_seen=0.9, p_unseen=0.9, p_source=0.0),
    "case-d": dict(p_seen=0.45, p_unseen=0.9, p_source=0.0),
    "case-e": dict(p_seen=0.9, p_unseen=0.0, p_source=0.1),
    "case-f": dict(p_seen=0.9, p_unseen=0.45, p_source=0.1),
    "case-g": dict(p_seen=0.9, p_unseen=0.9, p_source=0.1),
    "case-h": dict(p_seen=0.45, p_unseen=0.9, p_source=0.1),
}
PRESET_ALIASES = {
    "seen-only": "case-a",
    "mixed-2:1": "case-b",
    "all-summary": "case-c",
    "unseen-heavy": "case-d",
}


def sampling_preset(name: str) -> SamplingConfig:
    key = PRESET_ALIASES.get(name, name)
    if key not in SAMPLING_PRESETS:
        known = sorted(SAMPLING_PRESETS) + sorted(PRESET_ALIASES)
        raise ConfigError(f"unknown sampling preset {name!r} (have {known})")
    return SamplingConfig(**SAMPLING_PRESETS[key])


# Corruption actions recorded per selected position.
ACTION_MASK = 0
ACTION_RANDOM = 1
ACTION_KEEP = 2


@dataclass
class SelectionRecord:
    """Which positions were selected, their original ids, and the action."""

    positions: np.ndarray
    original_ids: np.ndarray
    actions: np.ndarray


def build_joint_sequence(
    example: TrainingExample,
    vocab: Vocabulary,
    max_positions: int,
    stats: dict | None = None,
) -> JointSequence:
    """[START, source..., END, summary..., END] with source-tail truncation."""
    if len(example.source_ids) == 0 or len(example.summary_ids) == 0:
        raise ContractError("source and summary must both be non-empty")
    source = fit_source(example.source_ids, len(example.summary_ids), max_positions)
    if len(source) < len(example.source_ids) and stats is not None:
        stats["truncated"] = stats.get("truncated", 0) + 1
    ids = np.concatenate(
        (
            [vocab.start_id],
            source,
            [vocab.end_id],
            example.summary_ids,
            [vocab.end_id],
        )
    ).astype(np.int64)
    return JointSequence.build(ids, source_len=len(source) + 2)


def categorize_tokens(seq: JointSequence, vocab: Vocabulary) -> np.ndarray:
    """Category per position; summary membership is exact id match."""
    categories = np.full(len(seq), TokenCategory.UNSEEN_SUMMARY, dtype=np.int64)
    categories[: seq.source_len] = TokenCategory.SOURCE
    source_members = set(seq.ids[: seq.source_len].tolist()) - set(vocab.special_ids)
    for i in range(seq.source_len, len(seq)):
        tok = int(seq.ids[i])
        # the trailing END counts as seen so pure-copy training still
        # learns to terminate
        if tok == vocab.end_id or tok in source_members:
            categories[i] = TokenCategory.SEEN_SUMMARY
    return categories


def sample_and_corrupt(
    seq: JointSequence,
    categories: np.ndarray,
    config: SamplingConfig,
    rng: np.random.Generator,
    vocab: Vocabulary,
) -> tuple[np.ndarray, SelectionRecord]:
    """Independently select positions by category rate, then corrupt them."""
    rates = np.array([config.p_source, config.p_seen, config.p_unseen])
    selected = rng.random(len(seq)) < rates[categories]
    positions = np.flatnonzero(selected)
    draws = rng.random(len(positions))
    actions = np.full(len(positions), ACTION_KEEP, dtype=np.int64)
    actions[draws < config.mask_frac + config.random_frac] = ACTION_RANDOM
    actions[draws < config.mask_frac] = ACTION_MASK

    corrupted = seq.ids.copy()
    corrupted[positions[actions == ACTION_MASK]] = vocab.mask_id
    random_positions = positions[actions == ACTION_RANDOM]
    if len(random_positions):
        corrupted[random_positions] = rng.choice(
            vocab.ordinary_ids, size=len(random_positions)
        )
    record = SelectionRecord(
        positions=positions,
        original_ids=seq.ids[positions].copy(),
        actions=actions,
    )
    return corrupted, record


def collate(
    items: list[tuple[JointSequence, np.ndarray, SelectionRecord]],
) -> tuple[JointBatch, np.ndarray, SelectionRecord]:
    """One padded batch from (sequence, corrupted ids, record) triples.

    Positions become flat row indices ``b * T + i`` into the batch's
    (B*T, h) states, so the record counts every selected position.
    """
    batch = JointBatch.pad([seq for seq, _, _ in items])
    width = batch.ids.shape[1]
    corrupted = pad_rows([ids for _, ids, _ in items], width)
    records = [record for _, _, record in items]
    record = SelectionRecord(
        positions=np.concatenate([r.positions + b * width for b, r in enumerate(records)]),
        original_ids=np.concatenate([r.original_ids for r in records]),
        actions=np.concatenate([r.actions for r in records]),
    )
    return batch, corrupted, record


def compute_loss(
    model: PrefixLM,
    seq: JointSequence | JointBatch,
    corrupted_ids: np.ndarray,
    record: SelectionRecord,
    reduction: str = "mean",
    rng: np.random.Generator | None = None,
) -> Tensor | None:
    """Negative log-likelihood of the original tokens at selected positions.

    ``seq`` is one sequence or a padded batch from ``collate``. States come
    from the corrupted ids under the standard prefix mask; returns None when
    nothing was selected (the caller counts skips).
    """
    if len(record.positions) == 0:
        return None
    corrupted = replace(seq, ids=corrupted_ids)
    states = model.forward(corrupted, corrupted.attention_mask(), rng=rng)
    picked = ad.take_rows(states, record.positions)
    logits = model.predict_logits(picked)
    return ad.cross_entropy_from_logits(logits, record.original_ids, reduction)


@dataclass
class TrainConfig:
    epochs: int = 14
    batch_size: int = 16
    lr: float = 1.5e-3
    weight_decay: float = 0.01
    plateau_patience: int = 2
    plateau_min_delta: float = 1e-4
    seed: int = 0


@dataclass
class TrainReport:
    """Per-epoch loss rows plus run totals.

    ``skipped_examples`` counts training examples that selected no position,
    over all epochs; ``valid_skipped`` counts those of the validation draw,
    which is the same every epoch.
    """

    records: list[dict] = field(default_factory=list)
    skipped_examples: int = 0
    valid_skipped: int = 0
    truncation_stats: dict = field(default_factory=dict)

    def log(self, **kv) -> None:
        self.records.append(kv)


def _batches(sequences, order, batch_size, sampling, rng, vocab):
    """Corrupt ``sequences`` in ``order`` and collate them ``batch_size`` at a time.

    Yields ``(collated, skipped)`` per chunk: ``collate``'s triple over the
    examples that selected a position (None if none did), and the number
    that selected nothing. Corruption draws from ``rng`` example by example,
    in ``order``.
    """
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        picked = []
        for idx in chunk:
            seq, categories = sequences[idx]
            corrupted, record = sample_and_corrupt(seq, categories, sampling, rng, vocab)
            if len(record.positions):
                picked.append((seq, corrupted, record))
        yield (collate(picked) if picked else None), len(chunk) - len(picked)


def prepare_sequences(
    examples: list[TrainingExample],
    vocab: Vocabulary,
    max_positions: int,
    report: TrainReport,
) -> list[tuple[JointSequence, np.ndarray]]:
    out = []
    for ex in examples:
        seq = build_joint_sequence(ex, vocab, max_positions, report.truncation_stats)
        out.append((seq, categorize_tokens(seq, vocab)))
    return out


def train(
    model: PrefixLM,
    train_examples: list[TrainingExample],
    valid_examples: list[TrainingExample],
    sampling: SamplingConfig,
    config: TrainConfig,
    vocab: Vocabulary,
) -> TrainReport:
    """Run the optimization loop; deterministic for a fixed seed."""
    report = TrainReport()
    max_pos = model.config.max_positions
    train_seqs = prepare_sequences(train_examples, vocab, max_pos, report)
    valid_seqs = prepare_sequences(valid_examples, vocab, max_pos, report)

    optimizer = AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    halver = PlateauHalver(config.plateau_patience, config.plateau_min_delta)
    corrupt_rng = named_rng(config.seed, "corruption")
    order_rng = named_rng(config.seed, "data-order")
    dropout_rng = named_rng(config.seed, "dropout") if model.config.dropout > 0 else None
    # one corruption draw of the validation set, scored every epoch, so the
    # plateau rule compares like with like
    valid_rng = named_rng(config.seed, "valid-corruption")
    valid_batches = []
    for collated, skipped in _batches(valid_seqs, np.arange(len(valid_seqs)),
                                      config.batch_size, sampling, valid_rng, vocab):
        report.valid_skipped += skipped
        if collated is not None:
            valid_batches.append(collated)

    for epoch in range(config.epochs):
        order = order_rng.permutation(len(train_seqs))
        epoch_total, epoch_count = 0.0, 0
        batches = _batches(train_seqs, order, config.batch_size, sampling, corrupt_rng, vocab)
        for step, (collated, skipped) in enumerate(batches):
            report.skipped_examples += skipped
            if collated is None:
                continue
            batch_loss = compute_loss(model, *collated, reduction="sum", rng=dropout_rng)
            n_positions = len(collated[2].positions)
            batch_loss = batch_loss * (1.0 / n_positions)
            value = batch_loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"training diverged: loss={value} at epoch {epoch}, "
                    f"batch starting {step * config.batch_size}"
                )
            optimizer.zero_grad()
            batch_loss.backward()
            optimizer.step()
            del batch_loss  # free this step's graph before the next one is built
            epoch_total += value * n_positions
            epoch_count += n_positions

        train_mean = epoch_total / max(epoch_count, 1)
        report.log(
            epoch=epoch, split="train", loss_mean=round(train_mean, 6),
            loss_sum=round(epoch_total, 6), lr=optimizer.lr,
        )
        if valid_seqs:
            val_sum = sum(compute_loss(model, *b, reduction="sum").item() for b in valid_batches)
            val_mean = val_sum / max(sum(len(b[2].positions) for b in valid_batches), 1)
            report.log(
                epoch=epoch, split="valid", loss_mean=round(val_mean, 6),
                loss_sum=round(val_sum, 6), lr=optimizer.lr,
            )
            halver.update(optimizer, val_mean)
    return report
