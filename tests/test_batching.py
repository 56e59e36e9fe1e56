"""A padded batch computes what its examples compute one at a time.

Training builds one autodiff graph per optimizer step over a right-padded
``(B, T)`` batch. These tests hold it to the per-example results: the same
summed loss and gradients, the same states for every real row, the same
dropout draws, and a graph whose size does not grow with ``B``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from copysum import autodiff as ad
from copysum.bpe import train_bpe
from copysum.errors import NumericError
from copysum.model import MASK_BIAS, ModelConfig, PrefixLM, build_attention_mask
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
# batching, and sixteen examples' had 1380; the batch graph had 108 before
# each attention sublayer and each residual layer norm became one node.
DESK_BATCH_GRAPH_NODES = 69
# Rows each layer's feed-forward GELU gets for that batch of 16 (B*T = 368,
# 90 selected positions); every layer ran all 368 before the last layer ran
# the selected rows only.
DESK_BATCH_GELU_ROWS = [368, 90]


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


def test_a_nan_weight_is_a_numeric_error_from_the_attention_node(corpus):
    vocab, examples = corpus
    batch, corrupted, record = collate(_corrupted(vocab, examples, seed=8))
    model = _model(vocab)
    model.params["layer0.attn_k_weight"].data[0, 0] = np.nan
    with pytest.raises(NumericError, match="attention"):
        compute_loss(model, batch, corrupted, record, rng=np.random.default_rng(0))


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


def _oracle_loss(model, batch, corrupted, record, rng):
    """The loss as full states, then a gather of the selected rows."""
    states = model.forward(replace(batch, ids=corrupted), batch.attention_mask(), rng=rng)
    logits = model.predict_logits(ad.take_rows(states, record.positions))
    return ad.cross_entropy_from_logits(logits, record.original_ids)


@pytest.mark.parametrize("seed", range(6))
def test_loss_and_grads_equal_the_full_states_oracle(seed):
    """``compute_loss`` against every row's states gathered afterwards."""
    pick = np.random.default_rng(seed)
    vocab, examples = _examples(int(pick.integers(6, 15)), seed=20 + seed)
    items = _corrupted(vocab, examples, seed=30 + seed)
    items = [items[i] for i in pick.permutation(len(items))[: int(pick.integers(1, 9))]]
    batch, corrupted, record = collate(items)
    model = _model(vocab, preset="desk" if seed % 2 else None, seed=seed)

    results = []
    for loss_of in (lambda rng: compute_loss(model, batch, corrupted, record, rng=rng),
                    lambda rng: _oracle_loss(model, batch, corrupted, record, rng)):
        rng = np.random.default_rng(100 + seed)
        model.zero_grad()
        loss = loss_of(rng)
        loss.backward()
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        results.append((loss.item(), grads, rng.bit_generator.state))

    (loss, grads, state), (oracle_loss, oracle_grads, oracle_state) = results
    assert abs(loss - oracle_loss) <= 1e-12
    for name, grad in grads.items():
        assert np.max(np.abs(grad - oracle_grads[name])) <= 1e-12, name
    assert state == oracle_state


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_forward_rows_are_the_full_forwards_rows(corpus, dropout):
    vocab, examples = corpus
    batch, _, record = collate(_corrupted(vocab, examples, seed=10))
    model = _model(vocab, dropout=dropout)
    rows = np.random.default_rng(3).permutation(batch.ids.size)[:7]
    for picked in (rows, np.repeat(rows[:2], 2), record.positions):
        full_rng, rows_rng = np.random.default_rng(11), np.random.default_rng(11)
        full = model.forward(batch, batch.attention_mask(), rng=full_rng).data
        states = model.forward(batch, batch.attention_mask(), rng=rows_rng, rows=picked).data
        assert states.shape == (len(picked), model.config.hidden_size)
        # to rounding: BLAS may group a block's rows differently by its row count
        assert np.max(np.abs(states - full[picked])) <= 1e-12
        assert rows_rng.bit_generator.state == full_rng.bit_generator.state


def test_last_layer_runs_only_the_selected_rows(monkeypatch):
    """Work count: the rows each layer's GELU gets for one desk batch."""
    vocab, examples = _examples(40, seed=5)
    batch, corrupted, record = collate(_corrupted(vocab, examples, seed=2)[:16])
    model = _model(vocab, preset="desk")
    gelu_rows = []
    gelu = ad.gelu

    def counted(a):
        gelu_rows.append(a.shape[0])
        return gelu(a)

    monkeypatch.setattr(ad, "gelu", counted)
    compute_loss(model, batch, corrupted, record, rng=np.random.default_rng(0))
    assert gelu_rows == [batch.ids.size, len(record.positions)] == DESK_BATCH_GELU_ROWS


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


def _reference_keeps(model, batch, rng):
    """Dropout masks drawn one example at a time, one ``rng.random`` call per
    site, in forward order: embedding, then per layer probabilities,
    attention output and feed-forward."""
    cfg = model.config
    if rng is None or cfg.dropout <= 0.0:
        return None, [(None, None, None)] * cfg.num_layers
    size, width = batch.ids.shape
    h, n_heads, rate = cfg.hidden_size, cfg.num_heads, cfg.dropout
    emb = np.zeros((size, width, h), dtype=bool)
    layers = [(np.zeros((size, n_heads, width, width), dtype=bool),
               np.zeros((size, width, h), dtype=bool), np.zeros((size, width, h), dtype=bool))
              for _ in range(cfg.num_layers)]
    for b, t in enumerate(batch.lengths):
        emb[b, :t] = rng.random((t, h)) >= rate
        for probs, attn, ff in layers:
            probs[b, :, :t, :t] = rng.random((n_heads, t, t)) >= rate
            attn[b, :t] = rng.random((t, h)) >= rate
            ff[b, :t] = rng.random((t, h)) >= rate
    rows = (size * width, h)
    return emb.reshape(rows), [(p, a.reshape(rows), f.reshape(rows)) for p, a, f in layers]


def _reference_forward(model, batch, mask, rng=None, rows=None):
    """``PrefixLM.forward`` one graph op at a time: heads split by reshape and
    transpose, ``softmax``, ``dropout``, and ``layer_norm(x + dropout(y))``."""
    cfg = model.config
    size, width = batch.ids.shape
    n_heads, rate = cfg.num_heads, cfg.dropout
    head = cfg.hidden_size // n_heads
    mask_bias = ad.Tensor(((1.0 - mask) * MASK_BIAS).reshape(size, 1, width, width))

    def split_heads(m):
        return ad.transpose(ad.reshape(m, (size, width, n_heads, head)), (0, 2, 1, 3))

    keep_emb, keep_layers = _reference_keeps(model, batch, rng)
    x = ad.dropout(ad.layer_norm(model.embed(batch), *model.emb_ln), keep_emb, rate)
    for w, (keep_probs, keep_attn, keep_ff) in zip(model.layers, keep_layers):
        q, k, v = (split_heads(ad.matmul(x, w[f"attn_{n}_weight"], w[f"attn_{n}_bias"]))
                   for n in "qkv")
        scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(head))
        probs = ad.dropout(ad.softmax(scores + mask_bias), keep_probs, rate)
        ctx = ad.reshape(ad.transpose(probs @ v, (0, 2, 1, 3)), (size * width, cfg.hidden_size))
        if rows is not None and w is model.layers[-1]:
            x, ctx = ad.take_rows(x, rows), ad.take_rows(ctx, rows)
            keep_attn, keep_ff = (None if m is None else m[rows] for m in (keep_attn, keep_ff))
        attn = ad.matmul(ctx, w["attn_out_weight"], w["attn_out_bias"])
        x = ad.layer_norm(x + ad.dropout(attn, keep_attn, rate),
                          w["attn_ln_gain"], w["attn_ln_bias"])
        ff = ad.gelu(ad.matmul(x, w["ff_in_weight"], w["ff_in_bias"]))
        ff = ad.matmul(ff, w["ff_out_weight"], w["ff_out_bias"])
        x = ad.layer_norm(x + ad.dropout(ff, keep_ff, rate), w["ff_ln_gain"], w["ff_ln_bias"])
    return x


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("use_rows", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("preset", ["tiny", "desk"])
def test_forward_equals_the_unfused_reference_bit_for_bit(preset, dropout, use_rows, seed):
    """States, loss, every gradient and the dropout generator's end state are
    equal (``==``) to ``_reference_forward``'s on a random ragged batch."""
    pick = np.random.default_rng([seed, int(dropout * 10), int(use_rows), int(preset == "desk")])
    vocab, examples = _examples(int(pick.integers(6, 15)), seed=int(pick.integers(1000)))
    items = _corrupted(vocab, examples, seed=int(pick.integers(1000)))
    items = [items[i] for i in pick.permutation(len(items))[: int(pick.integers(1, 9))]]
    batch, corrupted, record = collate(items)
    inputs = replace(batch, ids=corrupted)
    model = _model(vocab, dropout=dropout, preset=preset, seed=seed)
    rows = record.positions if use_rows else None

    results = []
    for forward in (model.forward, lambda *args, **kw: _reference_forward(model, *args, **kw)):
        rng = np.random.default_rng(200 + seed)
        model.zero_grad()
        states = forward(inputs, inputs.attention_mask(), rng=rng, rows=rows)
        picked = states if use_rows else ad.take_rows(states, record.positions)
        loss = ad.cross_entropy_from_logits(model.predict_logits(picked), record.original_ids)
        loss.backward()
        grads = {name: p.grad.copy() for name, p in model.params.items()}
        results.append((states.data, loss.item(), grads, rng.bit_generator.state))

    (states, loss, grads, state), (ref_states, ref_loss, ref_grads, ref_state) = results
    assert np.array_equal(states, ref_states)
    assert loss == ref_loss
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name
    assert state == ref_state
