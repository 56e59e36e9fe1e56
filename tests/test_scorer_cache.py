"""The cached decode scorer against a full recompute of every prompt.

``full_recompute_scorer`` is the scorer as it was before the K/V cache: it
builds ``[START] source [END] prefix [MASK]`` and runs the whole prompt
through ``PrefixLM.forward`` on every call. It is the oracle here, for
log-probabilities and for whole decoded rows.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from copysum import decoding
from copysum.autodiff import log_softmax_values
from copysum.bpe import Vocabulary, train_bpe
from copysum.data import ingest
from copysum.decoding import (
    RerankConfig,
    SearchConfig,
    decode_record,
    make_model_scorer,
    rowwise,
)
from copysum.errors import ContractError
from copysum.training import TrainConfig, TrainingExample, sampling_preset, train
from copysum.model import (
    JointSequence,
    ModelConfig,
    PrefixLM,
    build_attention_mask,
    fit_source,
)

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

# Transformer rows the cached scorer runs, pinned (see test_row_count_pins);
# a full recompute of every prompt runs the figure in the comment.
TINY_BEAM_ROWS = 72  # 261
TINY_BEST_FIRST_ROWS = 68  # 346
FIXTURE20_BEAM_ROWS = 1283  # 9405
FIXTURE20_BEST_FIRST_ROWS = 5207  # 48543
# Scorer calls under beam, pinned beside the rows: one call per step scores
# the whole beam; one call per hypothesis makes the figure in the comment.
TINY_BEAM_CALLS = 11  # 27
FIXTURE20_BEAM_CALLS = 124  # 502


def full_recompute_scorer(model, vocab, source_ids, max_summary_len=0):
    """Next-token log-probabilities from a fresh forward over the whole prompt."""
    limit = model.config.max_positions
    source_ids = fit_source(np.asarray(source_ids, dtype=np.int64), max_summary_len, limit)
    base = [vocab.start_id] + [int(t) for t in source_ids] + [vocab.end_id]
    source_len = len(base)

    def scorer(prefix_ids):
        ids = base + list(prefix_ids) + [vocab.mask_id]
        if len(ids) > limit:
            raise ContractError(f"prompt of {len(ids)} tokens exceeds max_positions {limit}")
        seq = JointSequence.build(np.asarray(ids, dtype=np.int64), source_len)
        states = model.forward(seq, build_attention_mask(source_len, len(seq)))
        return log_softmax_values(model.predict_logits(states).data[-1])

    return rowwise(scorer)


def random_model(rng, trial, max_positions=40):
    config = ModelConfig(
        num_layers=int(rng.integers(1, 4)),
        hidden_size=int(rng.choice([8, 16])),
        num_heads=int(rng.choice([1, 2, 4])),
        vocab_size=int(rng.integers(8, 30)),
        max_positions=max_positions,
        feed_forward_size=int(rng.integers(8, 33)),
        tie_embeddings=bool(rng.integers(0, 2)),
    )
    lm = PrefixLM(config, seed=trial)
    for p in lm.params.values():  # large weights, so a wrong row cannot hide in noise
        p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
    return lm


STUB_VOCAB = SimpleNamespace(start_id=1, end_id=2, mask_id=3)


def prefix_tree(rng, vocab_size, count, max_len):
    """``count`` distinct prefixes, each one token longer than an earlier one."""
    prefixes = [()]
    while len(prefixes) < count:
        parent = prefixes[int(rng.integers(len(prefixes)))]
        if len(parent) < max_len:
            child = parent + (int(rng.integers(vocab_size)),)
            if child not in prefixes:
                prefixes.append(child)
    return prefixes


def children(rng, parents, count, vocab_size):
    """``count`` distinct one-token extensions of randomly drawn ``parents``."""
    out = []
    while len(out) < count:
        child = parents[int(rng.integers(len(parents)))] + (int(rng.integers(vocab_size)),)
        if child not in out:
            out.append(child)
    return out


class TestLogProbParity:
    def test_random_configs_in_best_first_order(self):
        """Parents before children, as the searches score them."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            lm = random_model(rng, trial)
            source = rng.integers(0, lm.config.vocab_size, int(rng.integers(1, 15)))
            cached = make_model_scorer(lm, STUB_VOCAB, source)
            oracle = full_recompute_scorer(lm, STUB_VOCAB, source)
            for prefix in prefix_tree(rng, lm.config.vocab_size, 30, 40 - len(source) - 3):
                np.testing.assert_allclose(cached(prefix), oracle(prefix), rtol=0, atol=1e-12)

    def test_out_of_order_and_repeated_prefixes(self):
        """Children before parents, deep prefixes first, and repeats."""
        rng = np.random.default_rng(22)
        for trial in range(20):
            lm = random_model(rng, 100 + trial)
            source = rng.integers(0, lm.config.vocab_size, int(rng.integers(1, 12)))
            cached = make_model_scorer(lm, STUB_VOCAB, source)
            oracle = full_recompute_scorer(lm, STUB_VOCAB, source)
            prefixes = prefix_tree(rng, lm.config.vocab_size, 25, 40 - len(source) - 3)
            order = rng.permutation(len(prefixes))
            for i in [*order, *order[:5]]:
                np.testing.assert_allclose(
                    cached(prefixes[i]), oracle(prefixes[i]), rtol=0, atol=1e-12
                )

    def test_same_calls_give_the_same_bits(self):
        """Two scorers fed one call sequence agree exactly: decodes repeat.

        A prefix is scored once, so a repeated call returns its first
        score (``TestBlocks.test_a_prefix_is_scored_once``).
        """
        lm = random_model(np.random.default_rng(23), 0)
        calls = [(), (7,), (7, 8), (7, 8), (9, 9, 9), (7,), ()]
        first, second = (make_model_scorer(lm, STUB_VOCAB, [4, 5, 6]) for _ in range(2))
        for prefix in calls:
            assert np.array_equal(first(prefix), second(prefix))

    def test_truncated_long_source(self):
        rng = np.random.default_rng(24)
        lm = random_model(rng, 7, max_positions=32)
        source = rng.integers(0, lm.config.vocab_size, 96)
        cached = make_model_scorer(lm, STUB_VOCAB, source, max_summary_len=8)
        oracle = full_recompute_scorer(lm, STUB_VOCAB, source, max_summary_len=8)
        for prefix in prefix_tree(rng, lm.config.vocab_size, 20, 8):
            np.testing.assert_allclose(cached(prefix), oracle(prefix), rtol=0, atol=1e-12)

    def test_overflow_and_bad_ids_rejected(self):
        lm = random_model(np.random.default_rng(25), 3, max_positions=16)
        scorer = make_model_scorer(lm, STUB_VOCAB, [4] * 10)  # 12 prompt rows
        scorer((5, 6, 7))  # 16 rows with [MASK]: fits exactly
        with pytest.raises(ContractError):
            scorer((5, 6, 7, 8))
        with pytest.raises(ContractError):
            scorer((lm.config.vocab_size,))
        with pytest.raises(ContractError):
            scorer((-1,))
        np.testing.assert_allclose(
            scorer((5, 6)), full_recompute_scorer(lm, STUB_VOCAB, [4] * 10)((5, 6)),
            rtol=0, atol=1e-12,
        )


class TestBlocks:
    """A list of prefixes against the same prefixes scored one at a time."""

    def test_rows_match_one_prefix_at_a_time(self):
        rng = np.random.default_rng(26)
        for trial in range(40):
            lm = random_model(rng, 200 + trial)
            vocab_size = lm.config.vocab_size
            source = rng.integers(0, vocab_size, int(rng.integers(1, 12)))
            scorer = make_model_scorer(lm, STUB_VOCAB, source)
            alone = make_model_scorer(lm, STUB_VOCAB, source)
            oracle = full_recompute_scorer(lm, STUB_VOCAB, source)
            k = int(rng.integers(2, 6))
            first = children(rng, [()], k, vocab_size)
            second = children(rng, first, k, vocab_size)
            # two tokens past ``second``: their parents were never scored
            deep = children(rng, children(rng, second, k, vocab_size), k, vocab_size)
            blocks = [
                [()],  # the empty prefix, n = 1
                first,  # n = k, as beam's second step
                second,
                second[:1],  # n = 1, scored before
                deep,  # unscored parents, scored first in one pass
                deep,  # scored before: the kept rows, nothing runs
            ]
            for block in blocks:
                got = scorer(block)
                assert isinstance(got, list) and len(got) == len(block)
                for row, prefix in zip(got, block):
                    assert row.shape == (vocab_size,)
                    np.testing.assert_allclose(row, alone(prefix), rtol=0, atol=1e-12)
                    np.testing.assert_allclose(row, oracle(prefix), rtol=0, atol=1e-12)

    def test_bad_blocks_rejected(self):
        """New prefixes of mixed lengths are refused; an empty list scores nothing."""
        lm = random_model(np.random.default_rng(27), 5)
        scorer = make_model_scorer(lm, STUB_VOCAB, [4, 5, 6])
        scorer((7,))
        assert scorer([]) == []
        with pytest.raises(ContractError):
            scorer([(8,), (8, 9)])
        # only the new prefixes need one length
        assert len(scorer([(), (7,), (7, 8)])) == 3

    def test_a_prefix_is_scored_once(self):
        """Alone, in a list, repeated in a list or mixed with new prefixes,
        in any order, a prefix gets its first score's bits and runs no rows
        again; only a list's new prefixes run, two rows each."""
        rng = np.random.default_rng(28)
        lm = random_model(rng, 6)
        source = [4, 5, 6]
        oracle = full_recompute_scorer(lm, STUB_VOCAB, source)
        calls = [
            [(7,), [(7,), (8,)], (8,), [(8,), (8,), (7,)], [(9,)], (7,)],
            [[(8,), (7,), (8,)], (7,), [(9,), (7,)], (9,), [(8,)]],
            [(9,), [(7,), (9,), (8,)], [(9,), (8,)], (8,), [(7,)]],
        ]
        for order in calls:
            scorer = make_model_scorer(lm, STUB_VOCAB, source)
            first = {(): scorer(())}
            for call in order:
                rows = scorer.rows
                prefixes = call if isinstance(call, list) else [call]
                new = set(prefixes) - set(first)
                got = scorer(call)
                assert scorer.rows == rows + 2 * len(new), (order, call)
                for row, prefix in zip(got if isinstance(call, list) else [got], prefixes):
                    first.setdefault(prefix, row.copy())
                    assert np.array_equal(row, first[prefix]), (order, call, prefix)
                    np.testing.assert_allclose(row, oracle(prefix), rtol=0, atol=1e-12)
            kept = scorer((7,))
            with pytest.raises(ValueError):  # kept rows are read-only
                kept[0] = 0.0
            assert scorer([(7,)])[0] is kept  # a list hands back the kept row, not a copy


# -- whole decodes --------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_decode():
    vocab = Vocabulary.load(FIXTURES / "vocab.txt")
    model = PrefixLM.load(FIXTURES / "checkpoint.bin")
    records, _ = ingest(FIXTURES / "test.jsonl", "pairs")
    config = SearchConfig(
        end_id=vocab.end_id, k=5, max_summary_len=32, trigram_blocking=True,
        banned_ids=tuple(sorted(set(vocab.special_ids) - {vocab.end_id})),
    )
    return model, vocab, records, config


SEARCHES = [("beam", "none"), ("best-first", "sbwr")]


def decode_rows(setup, records, search, rerank, make_scorer):
    """Decoded rows, the scorers that made them and the number of calls to
    them, with ``make_scorer`` in use."""
    model, vocab, _, config = setup
    scorers, calls = [], []

    def recording(*args, **kwargs):
        scorer = make_scorer(*args, **kwargs)
        scorers.append(scorer)

        def counted(prefixes):
            calls.append(prefixes)
            return scorer(prefixes)

        return counted

    saved = decoding.make_model_scorer
    decoding.make_model_scorer = recording
    try:
        rows = [
            decode_record(model, vocab, r.id, r.source, search, config,
                          RerankConfig(method=rerank))
            for r in records
        ]
    finally:
        decoding.make_model_scorer = saved
    return rows, scorers, len(calls)


def assert_rows_match_oracle(setup, records):
    for search, rerank in SEARCHES:
        cached, _, _ = decode_rows(setup, records, search, rerank, make_model_scorer)
        oracle, _, _ = decode_rows(setup, records, search, rerank, full_recompute_scorer)
        assert json.dumps(cached) == json.dumps(oracle), search


def test_fixture_rows_match_oracle(fixture_decode):
    assert_rows_match_oracle(fixture_decode, fixture_decode[2][:20])


@pytest.mark.slow
def test_all_fixture_rows_match_oracle(fixture_decode):
    assert_rows_match_oracle(fixture_decode, fixture_decode[2])


@pytest.fixture(scope="module")
def tiny_decode():
    """A ``tiny`` model trained for a moment on three pairs."""
    pairs = [("bad keg lim fad gem", "keg lim fad"), ("gem kid mab del bad", "kid mab"),
             ("lim fad del keg kid", "fad del keg")]
    vocab = train_bpe([text for pair in pairs for text in pair] * 2, target_size=40)
    examples = [TrainingExample.from_texts(vocab, s, t) for s, t in pairs] * 8
    model = PrefixLM(ModelConfig.preset("tiny", vocab_size=len(vocab), max_positions=48),
                     seed=5)
    train(model, examples, [], sampling_preset("case-g"),
          TrainConfig(epochs=40, batch_size=8, lr=3e-3, seed=1), vocab)
    config = SearchConfig(end_id=vocab.end_id, k=3, max_summary_len=12, max_expansions=400,
                          banned_ids=(vocab.start_id, vocab.mask_id))
    records = [SimpleNamespace(id=str(i), source=s) for i, (s, _) in enumerate(pairs)]
    return model, vocab, records, config


def test_row_count_pins(tiny_decode, fixture_decode):
    """Transformer rows and scorer calls per decode: exact counts that repeat, pinned.

    The cache runs the source and [MASK] once, then per new prefix its
    last token and [MASK], and nothing for a prefix scored before (the
    greedy rerun of sbwr); beam scores its whole beam in one call. A change
    that lowers a count lowers its pin.
    """
    pins = [
        (tiny_decode, "beam", TINY_BEAM_ROWS, TINY_BEAM_CALLS),
        (tiny_decode, "best-first", TINY_BEST_FIRST_ROWS, None),
        (fixture_decode, "beam", FIXTURE20_BEAM_ROWS, FIXTURE20_BEAM_CALLS),
        (fixture_decode, "best-first", FIXTURE20_BEST_FIRST_ROWS, None),
    ]
    for setup, search, row_pin, call_pin in pins:
        rerank = dict(SEARCHES)[search]
        _, scorers, calls = decode_rows(setup, setup[2][:20], search, rerank,
                                        make_model_scorer)
        rows = sum(scorer.rows for scorer in scorers)
        assert rows <= row_pin, (search, rows, row_pin)
        if call_pin is not None:
            assert calls <= call_pin, (search, calls, call_pin)
