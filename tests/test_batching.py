"""A padded batch computes what its examples compute one at a time.

Training builds one autodiff graph per optimizer step over a right-padded
``(B, T)`` batch. These tests hold it to the per-example results: the same
summed loss and gradients, the same states for every real row, the same
dropout draws, and a graph whose size does not grow with ``B``.
"""

import numpy as np
import pytest

from copysum.bpe import train_bpe
from copysum.model import ModelConfig, PrefixLM, build_attention_mask
from copysum.optim import AdamW
from copysum.seeding import named_rng
from copysum.training import (
    TrainConfig,
    TrainingExample,
    build_joint_sequence,
    categorize_tokens,
    collate,
    compute_loss,
    sample_and_corrupt,
    sampling_preset,
    train,
)

LEXICON = ["bad", "keg", "lim", "fad", "gem", "kid", "mab", "del", "bag", "dim"]
# Graph nodes (leaves included) reachable from one batch's summed loss for
# the `desk` model with dropout; one example's graph had 120 before
# batching, and sixteen examples' had 1380.
DESK_BATCH_GRAPH_NODES = 108


def _examples(n, seed):
    """Pairs whose sources run from 3 to 14 words, so batches need padding."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        words = [LEXICON[j] for j in rng.integers(0, len(LEXICON), 3 + (5 * i) % 12)]
        summary = words[: 1 + len(words) // 3] + [LEXICON[int(rng.integers(len(LEXICON)))]]
        pairs.append((" ".join(words), " ".join(summary)))
    vocab = train_bpe([f"{s} {t}" for s, t in pairs], target_size=120)
    return vocab, [TrainingExample.from_texts(vocab, s, t) for s, t in pairs]


def _corrupted(vocab, examples, seed, max_positions=64):
    """(sequence, corrupted ids, record) for each example that selected a position."""
    rng = np.random.default_rng(seed)
    items = []
    for ex in examples:
        seq = build_joint_sequence(ex, vocab, max_positions)
        corrupted, record = sample_and_corrupt(
            seq, categorize_tokens(seq, vocab), sampling_preset("case-g"), rng, vocab
        )
        if len(record.positions):
            items.append((seq, corrupted, record))
    return items


def _model(vocab, dropout=0.1, preset=None, seed=4):
    if preset is not None:
        config = ModelConfig.preset(preset, vocab_size=len(vocab), max_positions=64,
                                    dropout=dropout)
    else:
        config = ModelConfig(
            num_layers=2, hidden_size=16, num_heads=2, vocab_size=len(vocab),
            max_positions=64, feed_forward_size=32, dropout=dropout,
        )
    return PrefixLM(config, seed=seed)


def _graph_nodes(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.fixture(scope="module")
def corpus():
    return _examples(12, seed=3)


def test_batched_loss_and_grads_equal_sum_of_single_examples(corpus):
    vocab, examples = corpus
    items = _corrupted(vocab, examples, seed=8)
    lengths = {len(seq) for seq, _, _ in items}
    assert len(items) >= 8 and len(lengths) >= 4
    model = _model(vocab)

    single_rng = np.random.default_rng(5)
    model.zero_grad()
    single_total = 0.0
    for seq, corrupted, record in items:
        loss = compute_loss(model, seq, corrupted, record, reduction="sum", rng=single_rng)
        loss.backward()
        single_total += loss.item()
    single_grads = {name: p.grad.copy() for name, p in model.params.items()}

    batch_rng = np.random.default_rng(5)
    model.zero_grad()
    batch, corrupted, record = collate(items)
    assert batch.ids.shape == (len(items), max(lengths))
    assert len(record.positions) == sum(len(r.positions) for _, _, r in items)
    loss = compute_loss(model, batch, corrupted, record, reduction="sum", rng=batch_rng)
    loss.backward()

    assert abs(loss.item() - single_total) <= 1e-10
    for name, p in model.params.items():
        assert np.max(np.abs(p.grad - single_grads[name])) <= 1e-10, name
    # the batch drew its dropout masks exactly as the examples did in turn
    assert batch_rng.random() == single_rng.random()


def test_padding_changes_no_real_row(corpus):
    vocab, examples = corpus
    items = _corrupted(vocab, examples, seed=9)
    model = _model(vocab, dropout=0.0)
    batch, _, _ = collate(items)
    width = batch.ids.shape[1]
    states = model.forward(batch, batch.attention_mask()).data
    assert states.shape == (len(items) * width, model.config.hidden_size)
    for b, (seq, _, _) in enumerate(items):
        alone = model.forward(seq, build_attention_mask(seq.source_len, len(seq))).data
        rows = states[b * width : b * width + len(seq)]
        assert np.max(np.abs(rows - alone)) <= 1e-12


def test_batched_training_follows_the_one_example_at_a_time_trajectory(corpus):
    """``train`` against the loop it replaced: one graph per example, summed."""
    vocab, examples = corpus
    sampling = sampling_preset("case-g")
    config = TrainConfig(epochs=2, batch_size=4, lr=3e-3, seed=6)

    batched = _model(vocab)
    train(batched, examples, [], sampling, config, vocab)

    looped = _model(vocab)
    optimizer = AdamW(looped.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    corrupt_rng = named_rng(config.seed, "corruption")
    order_rng = named_rng(config.seed, "data-order")
    dropout_rng = named_rng(config.seed, "dropout")
    seqs = [build_joint_sequence(ex, vocab, 64) for ex in examples]
    for _ in range(config.epochs):
        order = order_rng.permutation(len(seqs))
        for start in range(0, len(order), config.batch_size):
            losses, n_positions = [], 0
            for idx in order[start : start + config.batch_size]:
                seq = seqs[idx]
                corrupted, record = sample_and_corrupt(
                    seq, categorize_tokens(seq, vocab), sampling, corrupt_rng, vocab
                )
                if len(record.positions):
                    losses.append(compute_loss(looped, seq, corrupted, record,
                                               reduction="sum", rng=dropout_rng))
                    n_positions += len(record.positions)
            if not losses:
                continue
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            optimizer.zero_grad()
            (total * (1.0 / n_positions)).backward()
            optimizer.step()

    for name, p in batched.params.items():
        assert np.max(np.abs(p.data - looped.params[name].data)) <= 1e-10, name


def test_desk_batch_graph_size_does_not_grow_with_batch():
    vocab, examples = _examples(40, seed=5)
    items = _corrupted(vocab, examples, seed=2)
    assert len(items) >= 16
    model = _model(vocab, preset="desk")
    rng = np.random.default_rng(0)
    counts = {
        size: _graph_nodes(compute_loss(model, *collate(items[:size]), reduction="sum", rng=rng))
        for size in (1, 4, 16)
    }
    assert len(set(counts.values())) == 1, counts
    assert counts[16] <= DESK_BATCH_GRAPH_NODES
