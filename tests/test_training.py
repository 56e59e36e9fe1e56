import math

import numpy as np
import pytest

from copysum.bpe import train_bpe
from copysum.errors import ConfigError, ContractError, NumericError
from copysum.model import JointSequence, ModelConfig, PrefixLM
from copysum.training import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    SamplingConfig,
    SelectionRecord,
    TokenCategory,
    TrainConfig,
    TrainingExample,
    TrainReport,
    build_joint_sequence,
    categorize_tokens,
    compute_loss,
    prepare_sequences,
    sample_and_corrupt,
    sampling_preset,
    train,
)

SOURCE_TEXT = "elizabeth was taken to the hospital"
SUMMARY_TEXT = "elizabeth was hospitalized"


@pytest.fixture(scope="module")
def word_vocab():
    """A vocabulary where each corpus word is a single token."""
    words = (SOURCE_TEXT + " " + SUMMARY_TEXT).split()
    vocab = train_bpe([" ".join(words)] * 3, target_size=400)
    for w in set(words):
        assert len(vocab.encode(w)) == 1, w
    return vocab


def example(vocab, source=SOURCE_TEXT, summary=SUMMARY_TEXT):
    return TrainingExample.from_texts(vocab, source, summary)


class TestJointSequence:
    def test_worked_sentence_layout(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, max_positions=64)
        assert seq.source_len == 8  # START + 6 words + END
        assert len(seq) == 12  # ... + 3 summary words + END
        assert seq.ids[0] == word_vocab.start_id
        assert seq.ids[seq.source_len - 1] == word_vocab.end_id
        assert seq.ids[-1] == word_vocab.end_id
        model = PrefixLM(ModelConfig.preset("tiny", vocab_size=len(word_vocab)), seed=0)
        p = {name: model.params[name].data for name in ("tok_emb", "pos_emb", "seg_emb")}
        segments = np.repeat([0, 1], [8, 4])  # source, then summary
        np.testing.assert_allclose(
            model.embed(seq).data,
            p["tok_emb"][seq.ids] + p["pos_emb"][:12] + p["seg_emb"][segments],
            rtol=0, atol=1e-15,
        )

    def test_empty_summary_rejected(self, word_vocab):
        bad = TrainingExample(
            source_ids=np.array([5, 6]), summary_ids=np.array([], dtype=np.int64)
        )
        with pytest.raises(ContractError):
            build_joint_sequence(bad, word_vocab, max_positions=64)

    def test_truncation_drops_source_tail_only(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, max_positions=10)
        assert len(seq) == 10
        report = TrainReport()
        short = example(word_vocab, source="elizabeth was taken")
        prepare_sequences([example(word_vocab), short], word_vocab, 10, report)
        assert report.truncated == 1
        summary_ids = word_vocab.encode(SUMMARY_TEXT)
        np.testing.assert_array_equal(seq.ids[seq.source_len : -1], summary_ids)
        # source kept its head
        np.testing.assert_array_equal(
            seq.ids[1 : seq.source_len - 1], word_vocab.encode(SOURCE_TEXT)[:4]
        )

    def test_infeasible_budget_rejected(self, word_vocab):
        with pytest.raises(ContractError):
            build_joint_sequence(example(word_vocab), word_vocab, max_positions=5)


class TestCategorize:
    def test_worked_sentence_categories(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, max_positions=64)
        cats = categorize_tokens(seq, word_vocab)
        assert all(c == TokenCategory.SOURCE for c in cats[:8])
        by_word = dict(zip(SUMMARY_TEXT.split(), cats[8:11]))
        assert by_word["elizabeth"] == TokenCategory.SEEN_SUMMARY
        assert by_word["was"] == TokenCategory.SEEN_SUMMARY
        assert by_word["hospitalized"] == TokenCategory.UNSEEN_SUMMARY
        assert cats[11] == TokenCategory.SEEN_SUMMARY  # trailing END

    def test_summary_equal_to_source_is_all_seen(self, word_vocab):
        seq = build_joint_sequence(
            example(word_vocab, SOURCE_TEXT, SOURCE_TEXT), word_vocab, 64
        )
        cats = categorize_tokens(seq, word_vocab)
        assert all(c == TokenCategory.SEEN_SUMMARY for c in cats[seq.source_len :])

    def test_disjoint_summary_unseen_except_end(self, word_vocab):
        seq = build_joint_sequence(
            example(word_vocab, "taken to the hospital", "elizabeth was"), word_vocab, 64
        )
        cats = categorize_tokens(seq, word_vocab)
        assert all(c == TokenCategory.UNSEEN_SUMMARY for c in cats[seq.source_len : -1])
        assert cats[-1] == TokenCategory.SEEN_SUMMARY

    def test_partition_is_exhaustive_and_exclusive(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        assert len(cats) == len(seq)
        assert set(cats.tolist()) <= {0, 1, 2}


class TestSampleAndCorrupt:
    def test_zero_rates_change_nothing(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        cfg = SamplingConfig(p_seen=0.0, p_unseen=0.0, p_source=0.0)
        corrupted, record = sample_and_corrupt(
            seq, cats, cfg, np.random.default_rng(0), word_vocab
        )
        np.testing.assert_array_equal(corrupted, seq.ids)
        assert len(record.positions) == 0

    def test_rate_one_selects_everything(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        cfg = SamplingConfig(p_seen=1.0, p_unseen=1.0, p_source=1.0)
        _, record = sample_and_corrupt(
            seq, cats, cfg, np.random.default_rng(0), word_vocab
        )
        assert len(record.positions) == len(seq)

    def test_seen_only_never_selects_unseen(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        cfg = sampling_preset("seen-only")
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, record = sample_and_corrupt(seq, cats, cfg, rng, word_vocab)
            assert not any(
                cats[p] == TokenCategory.UNSEEN_SUMMARY for p in record.positions
            )
            assert not any(cats[p] == TokenCategory.SOURCE for p in record.positions)

    def test_corruption_actions_applied(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        cfg = SamplingConfig(p_seen=1.0, p_unseen=1.0, p_source=1.0)
        rng = np.random.default_rng(3)
        corrupted, record = sample_and_corrupt(seq, cats, cfg, rng, word_vocab)
        for pos, act, orig in zip(
            record.positions, record.actions, record.original_ids
        ):
            assert orig == seq.ids[pos]
            if act == ACTION_MASK:
                assert corrupted[pos] == word_vocab.mask_id
            elif act == ACTION_KEEP:
                assert corrupted[pos] == seq.ids[pos]
            else:
                assert act == ACTION_RANDOM
                assert corrupted[pos] not in word_vocab.special_ids

    def test_selection_and_mix_statistics(self, word_vocab):
        """Binomial check over >=1e5 positions at p=0.9."""
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        cats = categorize_tokens(seq, word_vocab)
        cfg = SamplingConfig(p_seen=0.9, p_unseen=0.9, p_source=0.9)
        rng = np.random.default_rng(11)
        selected = 0
        total = 0
        action_counts = np.zeros(3)
        while total < 120_000:
            _, record = sample_and_corrupt(seq, cats, cfg, rng, word_vocab)
            total += len(seq)
            selected += len(record.positions)
            for a in record.actions:
                action_counts[a] += 1
        rate = selected / total
        sigma = math.sqrt(0.9 * 0.1 / total)
        assert abs(rate - 0.9) < 3 * sigma
        mix = action_counts / action_counts.sum()
        assert abs(mix[ACTION_MASK] - 0.8) < 0.01
        assert abs(mix[ACTION_RANDOM] - 0.1) < 0.01
        assert abs(mix[ACTION_KEEP] - 0.1) < 0.01

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SamplingConfig(p_seen=1.2, p_unseen=0.0, p_source=0.0)
        with pytest.raises(ConfigError):
            SamplingConfig(0.5, 0.5, 0.5, mask_frac=0.5, random_frac=0.1, keep_frac=0.1)


class _FixedLogitsModel:
    """Stand-in exposing the two methods compute_loss touches."""

    def __init__(self, vocab_size, logits_fn):
        self.vocab_size = vocab_size
        self._fn = logits_fn
        self.config = ModelConfig(
            num_layers=1, hidden_size=4, num_heads=1,
            vocab_size=vocab_size, max_positions=64, feed_forward_size=4,
        )

    def forward(self, seq, mask, rng=None, rows=None):
        from copysum import autodiff as ad

        return ad.Tensor(np.zeros((len(rows), 4)))

    def predict_logits(self, states):
        from copysum import autodiff as ad

        n = states.shape[0]
        return ad.Tensor(self._fn(n))


class TestComputeLoss:
    def test_near_one_hot_model_gives_zero_loss(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        record = SelectionRecord(
            positions=np.array([9, 10]),
            original_ids=seq.ids[[9, 10]],
            actions=np.array([ACTION_MASK, ACTION_MASK]),
        )
        v = len(word_vocab)
        targets = seq.ids[[9, 10]]

        def one_hot_logits(n):
            logits = np.zeros((n, v))
            logits[np.arange(n), targets[:n]] = 1000.0
            return logits

        loss = compute_loss(
            _FixedLogitsModel(v, one_hot_logits), seq, seq.ids.copy(), record
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_model_gives_log_vocab(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        record = SelectionRecord(
            positions=np.array([8, 9, 10]),
            original_ids=seq.ids[[8, 9, 10]],
            actions=np.zeros(3, dtype=int),
        )
        v = len(word_vocab)
        loss = compute_loss(
            _FixedLogitsModel(v, lambda n: np.zeros((n, v))), seq, seq.ids.copy(), record
        )
        assert loss.item() == pytest.approx(math.log(v), rel=1e-12)

    def test_two_token_hand_computed_cross_entropy(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        record = SelectionRecord(
            positions=np.array([9]),
            original_ids=np.array([0]),
            actions=np.array([ACTION_MASK]),
        )

        def logits(n):
            return np.array([[0.3, -0.2]])

        loss = compute_loss(_FixedLogitsModel(2, logits), seq, seq.ids.copy(), record)
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-0.5)), rel=1e-12)

    def test_no_selection_skips_example(self, word_vocab):
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        record = SelectionRecord(
            positions=np.array([], dtype=int),
            original_ids=np.array([], dtype=int),
            actions=np.array([], dtype=int),
        )
        model = PrefixLM(
            ModelConfig(
                num_layers=1, hidden_size=8, num_heads=2,
                vocab_size=len(word_vocab), max_positions=64, feed_forward_size=16,
            ),
            seed=0,
        )
        assert compute_loss(model, seq, seq.ids.copy(), record) is None

    def test_loss_blind_to_tokens_after_selected_position(self, word_vocab):
        """Conditioning stops at the selected position for summary tokens."""
        model = PrefixLM(
            ModelConfig(
                num_layers=2, hidden_size=16, num_heads=2,
                vocab_size=len(word_vocab), max_positions=64, feed_forward_size=32,
            ),
            seed=21,
        )
        seq = build_joint_sequence(example(word_vocab), word_vocab, 64)
        record = SelectionRecord(
            positions=np.array([9]),
            original_ids=seq.ids[[9]],
            actions=np.array([ACTION_MASK]),
        )
        corrupted = seq.ids.copy()
        corrupted[9] = word_vocab.mask_id
        base = compute_loss(model, seq, corrupted, record).item()
        corrupted[10] = (corrupted[10] + 1) % len(word_vocab)
        shifted = compute_loss(model, seq, corrupted, record).item()
        assert shifted == pytest.approx(base, abs=1e-12)


def _memorization_setup(n=30, seed=0):
    rng = np.random.default_rng(seed)
    lexicon = ["bad", "keg", "lim", "fad", "gem", "kid", "mab", "del"]
    sources, summaries = [], []
    for _ in range(n):
        words = [lexicon[i] for i in rng.integers(0, len(lexicon), 6)]
        sources.append(" ".join(words))
        summaries.append(" ".join(words[1:4]))
    corpus = [f"{s} {t}" for s, t in zip(sources, summaries)]
    vocab = train_bpe(corpus, target_size=120)
    examples = [
        TrainingExample.from_texts(vocab, s, t) for s, t in zip(sources, summaries)
    ]
    return vocab, examples


class TestTrainLoop:
    def test_memorization_loss_decreases(self):
        vocab, examples = _memorization_setup()
        model = PrefixLM(
            ModelConfig(
                num_layers=2, hidden_size=32, num_heads=4,
                vocab_size=len(vocab), max_positions=64, feed_forward_size=64,
            ),
            seed=1,
        )
        report = train(
            model,
            examples,
            [],
            sampling_preset("all-summary"),
            TrainConfig(epochs=3, batch_size=8, lr=3e-3, seed=4),
            vocab,
        )
        losses = [r["loss_mean"] for r in report.records if r["split"] == "train"]
        assert len(losses) == 3
        assert losses[0] > losses[1] > losses[2]

    def test_zero_lr_leaves_parameters_unchanged(self):
        vocab, examples = _memorization_setup(n=6)
        model = PrefixLM(
            ModelConfig(
                num_layers=1, hidden_size=16, num_heads=2,
                vocab_size=len(vocab), max_positions=64, feed_forward_size=32,
            ),
            seed=2,
        )
        before = {n: p.data.copy() for n, p in model.params.items()}
        train(
            model, examples, [], sampling_preset("case-g"),
            TrainConfig(epochs=1, batch_size=4, lr=0.0, weight_decay=0.0, seed=0),
            vocab,
        )
        for name, p in model.params.items():
            assert np.array_equal(before[name], p.data), name

    def test_same_seed_reproduces_checkpoint_bitwise(self):
        vocab, examples = _memorization_setup(n=10)

        def run():
            model = PrefixLM(
                ModelConfig(
                    num_layers=1, hidden_size=16, num_heads=2,
                    vocab_size=len(vocab), max_positions=64, feed_forward_size=32,
                ),
                seed=3,
            )
            train(
                model, examples[:8], examples[8:], sampling_preset("case-b"),
                TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=9),
                vocab,
            )
            return {n: p.data.copy() for n, p in model.params.items()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_skip_counts_keep_train_and_valid_apart(self):
        """Validation draws the same corruption every epoch: counted once."""
        vocab, examples = _memorization_setup(n=15)
        model = PrefixLM(
            ModelConfig(
                num_layers=1, hidden_size=16, num_heads=2,
                vocab_size=len(vocab), max_positions=64, feed_forward_size=32,
            ),
            seed=2,
        )
        nothing = SamplingConfig(p_seen=0.0, p_unseen=0.0, p_source=0.0)
        report = train(
            model, examples[:10], examples[10:], nothing,
            TrainConfig(epochs=3, batch_size=4, seed=0), vocab,
        )
        assert (report.skipped_examples, report.valid_skipped) == (30, 5)

    def test_divergence_aborts_with_diagnostic(self):
        vocab, examples = _memorization_setup(n=4)
        model = PrefixLM(
            ModelConfig(
                num_layers=1, hidden_size=16, num_heads=2,
                vocab_size=len(vocab), max_positions=64, feed_forward_size=32,
            ),
            seed=2,
        )
        model.params["tok_emb"].data[0, 0] = np.nan
        with pytest.raises(NumericError):
            train(
                model, examples, [], sampling_preset("case-g"),
                TrainConfig(epochs=1, batch_size=2, seed=0), vocab,
            )


class TestPresets:
    def test_named_cases(self):
        a = sampling_preset("case-a")
        assert (a.p_seen, a.p_unseen, a.p_source) == (0.9, 0.0, 0.0)
        assert sampling_preset("seen-only") == a
        g = sampling_preset("case-g")
        assert (g.p_seen, g.p_unseen, g.p_source) == (0.9, 0.9, 0.1)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            sampling_preset("case-z")


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("plateau_patience", 0),
        ("lr", -1e-3), ("weight_decay", -0.01), ("lr", float("nan")),
        ("plateau_min_delta", -1.0),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_zero_rate_and_decay_allowed(self):
        config = TrainConfig(epochs=1, batch_size=1, lr=0.0, weight_decay=0.0,
                             plateau_patience=1)
        assert (config.lr, config.weight_decay) == (0.0, 0.0)

    @pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, dropout):
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig.preset("tiny", vocab_size=10, dropout=dropout)

    def test_dropout_zero_allowed(self):
        assert ModelConfig.preset("tiny", vocab_size=10, dropout=0.0).dropout == 0.0
