import numpy as np
import pytest

from copysum import autodiff as ad
from copysum.errors import ConfigError, ContractError
from copysum.model import (
    JointBatch,
    JointSequence,
    ModelConfig,
    PrefixLM,
    build_attention_mask,
)

from conftest import assert_grads_close


def mask_oracle(source_len: int, total_len: int) -> np.ndarray:
    """Direct 1-indexed evaluation: row i sees column j iff j <= max(i, |x|)."""
    m = np.zeros((total_len, total_len))
    for i in range(1, total_len + 1):
        for j in range(1, total_len + 1):
            if j <= max(i, source_len):
                m[i - 1, j - 1] = 1.0
    return m


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        num_layers=1, hidden_size=8, num_heads=2, vocab_size=11,
        max_positions=24, feed_forward_size=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_sequence(rng, total_len=9, source_len=5, vocab_size=11):
    ids = rng.integers(0, vocab_size, size=total_len)
    return JointSequence.build(ids, source_len=source_len)


class TestAttentionMask:
    def test_worked_example(self):
        m = build_attention_mask(3, 5)
        expected = np.array(
            [
                [1, 1, 1, 0, 0],
                [1, 1, 1, 0, 0],
                [1, 1, 1, 0, 0],
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 1],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(m, expected)

    def test_no_summary_is_all_ones(self):
        np.testing.assert_array_equal(build_attention_mask(4, 4), np.ones((4, 4)))

    def test_matches_direct_evaluation_on_random_sizes(self, rng):
        for _ in range(100):
            total = int(rng.integers(1, 40))
            source = int(rng.integers(1, total + 1))
            np.testing.assert_array_equal(
                build_attention_mask(source, total), mask_oracle(source, total)
            )

    def test_rows_monotone_past_source(self, rng):
        m = build_attention_mask(4, 12)
        for i in range(5, 12):
            assert np.all(m[i] >= m[i - 1])

    def test_source_len_beyond_total_rejected(self):
        with pytest.raises(ContractError):
            build_attention_mask(6, 5)
        with pytest.raises(ContractError):
            build_attention_mask(0, 5)

    def test_batch_masks_equal_per_example_masks(self, rng):
        """Each padded batch row holds its example's mask, zeros elsewhere."""
        for _ in range(200):
            lengths = rng.integers(1, 20, size=int(rng.integers(1, 7)))
            seqs = [make_sequence(rng, int(t), int(rng.integers(1, t + 1))) for t in lengths]
            mask = JointBatch.pad(seqs).attention_mask()
            width = int(lengths.max())
            assert mask.shape == (len(seqs), width, width)
            for b, seq in enumerate(seqs):
                expected = np.zeros((width, width))
                expected[: len(seq), : len(seq)] = build_attention_mask(seq.source_len, len(seq))
                np.testing.assert_array_equal(mask[b], expected)


class TestEmbedding:
    def test_pure_token_embeddings_when_others_zero(self, rng):
        model = PrefixLM(tiny_config(), seed=0)
        model.params["pos_emb"].data[...] = 0.0
        model.params["seg_emb"].data[...] = 0.0
        seq = make_sequence(rng)
        out = model.embed(seq)
        np.testing.assert_array_equal(out.data, model.tok_emb.data[seq.ids])

    def test_same_token_differs_by_position_rows(self, rng):
        model = PrefixLM(tiny_config(), seed=0)
        seq = JointSequence.build(np.array([4, 4, 4]), source_len=3)
        out = model.embed(seq).data
        pos = model.params["pos_emb"].data
        np.testing.assert_allclose(out[1] - out[0], pos[1] - pos[0], atol=1e-12)

    def test_output_shape(self, rng):
        model = PrefixLM(tiny_config(), seed=0)
        seq = make_sequence(rng, total_len=7)
        assert model.embed(seq).shape == (7, 8)

    def test_position_overflow_rejected(self, rng):
        model = PrefixLM(tiny_config(max_positions=6), seed=0)
        seq = make_sequence(rng, total_len=7)
        with pytest.raises(ContractError):
            model.embed(seq)


class TestForward:
    def test_future_summary_perturbation_invisible(self, rng):
        model = PrefixLM(tiny_config(num_layers=2), seed=3)
        seq = make_sequence(rng, total_len=10, source_len=5)
        mask = build_attention_mask(seq.source_len, len(seq))
        base = model.forward(seq, mask).data
        j = 8  # a late summary position
        changed = seq.ids.copy()
        changed[j] = (changed[j] + 1) % model.config.vocab_size
        perturbed = model.forward(
            JointSequence.build(changed, seq.source_len), mask
        ).data
        assert np.max(np.abs(perturbed[:j] - base[:j])) < 1e-10
        assert np.max(np.abs(perturbed[j:] - base[j:])) > 0

    def test_source_perturbation_reaches_everything(self, rng):
        model = PrefixLM(tiny_config(num_layers=2), seed=3)
        seq = make_sequence(rng, total_len=10, source_len=5)
        mask = build_attention_mask(seq.source_len, len(seq))
        base = model.forward(seq, mask).data
        changed = seq.ids.copy()
        changed[2] = (changed[2] + 1) % model.config.vocab_size
        perturbed = model.forward(
            JointSequence.build(changed, seq.source_len), mask
        ).data
        deltas = np.abs(perturbed - base).max(axis=1)
        assert np.all(deltas > 0)

    def test_single_token_input_finite(self):
        model = PrefixLM(tiny_config(), seed=1)
        seq = JointSequence.build(np.array([3]), source_len=1)
        out = model.forward(seq, build_attention_mask(1, 1))
        assert np.all(np.isfinite(out.data))

    def test_mask_shape_mismatch_rejected(self, rng):
        model = PrefixLM(tiny_config(), seed=1)
        seq = make_sequence(rng, total_len=6)
        with pytest.raises(ContractError):
            model.forward(seq, build_attention_mask(3, 5))

    def test_forward_deterministic_across_fresh_models(self, rng):
        seq = make_sequence(rng)
        mask = build_attention_mask(seq.source_len, len(seq))
        a = PrefixLM(tiny_config(), seed=11).forward(seq, mask).data
        b = PrefixLM(tiny_config(), seed=11).forward(seq, mask).data
        assert np.array_equal(a, b)  # bit-identical


class TestLogits:
    def test_zero_state_gives_uniform(self):
        model = PrefixLM(tiny_config(), seed=0)
        logits = model.predict_logits(ad.Tensor(np.zeros((2, 8))))
        np.testing.assert_array_equal(logits.data, np.zeros((2, 11)))

    def test_logit_width_is_vocab_size(self, rng):
        model = PrefixLM(tiny_config(), seed=0)
        seq = make_sequence(rng)
        h = model.forward(seq, build_attention_mask(seq.source_len, len(seq)))
        assert model.predict_logits(h).shape == (len(seq), 11)

    def test_tying_routes_output_gradient_into_token_table(self, rng):
        """The tied table gets gradient at vocab rows an untied input table
        never sees; the untied control keeps those rows exactly zero."""
        seq = make_sequence(rng, total_len=8, source_len=4, vocab_size=11)
        absent = [t for t in range(11) if t not in set(seq.ids.tolist())]
        assert absent

        def loss_for(model):
            mask = build_attention_mask(seq.source_len, len(seq))
            h = model.forward(seq, mask)
            logits = model.predict_logits(ad.take_rows(h, np.array([6])))
            return ad.cross_entropy_from_logits(logits, seq.ids[6:7])

        tied = PrefixLM(tiny_config(), seed=5)
        loss_for(tied).backward()
        untied = PrefixLM(tiny_config(tie_embeddings=False), seed=5)
        loss_for(untied).backward()

        tied_rows = np.abs(tied.tok_emb.grad[absent]).max(axis=1)
        untied_rows = np.abs(untied.tok_emb.grad[absent]).max(axis=1)
        assert np.all(tied_rows > 0)
        np.testing.assert_array_equal(untied_rows, 0.0)

    def test_tied_parameter_count_difference(self):
        cfg = tiny_config()
        tied = PrefixLM(cfg, seed=0).num_params()
        untied = PrefixLM(tiny_config(tie_embeddings=False), seed=0).num_params()
        assert untied - tied == cfg.vocab_size * cfg.hidden_size


class TestGradients:
    def test_full_model_matches_finite_differences(self, rng):
        model = PrefixLM(tiny_config(), seed=9)
        seq = make_sequence(rng, total_len=7, source_len=4)
        mask = build_attention_mask(seq.source_len, len(seq))
        targets = seq.ids[np.array([4, 5, 6])]

        def loss_fn():
            h = model.forward(seq, mask)
            logits = model.predict_logits(ad.take_rows(h, np.array([4, 5, 6])))
            return ad.cross_entropy_from_logits(logits, targets)

        assert_grads_close(model.parameters(), loss_fn, rtol=1e-4)


class TestConfigAndPersistence:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_config(hidden_size=10, num_heads=4)

    def test_decay_exemptions(self):
        model = PrefixLM(tiny_config(), seed=0)
        exempt = {n for n, p in model.params.items() if p.decay_exempt}
        assert "emb_ln_gain" in exempt
        assert "layer0.attn_q_bias" in exempt
        assert "tok_emb" not in exempt
        assert "layer0.ff_in_weight" not in exempt

    def test_checkpoint_round_trip_preserves_forward(self, rng, tmp_path):
        model = PrefixLM(tiny_config(num_layers=2), seed=13)
        seq = make_sequence(rng)
        mask = build_attention_mask(seq.source_len, len(seq))
        before = model.forward(seq, mask).data
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = PrefixLM.load(path)
        assert loaded.config == model.config
        after = loaded.forward(seq, mask).data
        assert np.array_equal(before, after)
