"""Tests of the benchmark's own parts: the reference forward and the checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from copysum import autodiff, decoding, model as model_module  # noqa: E402
from copysum.autodiff import log_softmax_values  # noqa: E402
from copysum.bpe import train_bpe  # noqa: E402
from copysum.decoding import make_model_scorer  # noqa: E402
from copysum.model import JointSequence, ModelConfig, PrefixLM, build_attention_mask  # noqa: E402
from copysum.training import SelectionRecord, compute_loss  # noqa: E402
from tracing import Tracer  # noqa: E402


def random_model(rng, trial):
    config = ModelConfig(
        num_layers=int(rng.integers(1, 4)),
        hidden_size=int(rng.choice([8, 16])),
        num_heads=int(rng.choice([1, 2, 4])),
        vocab_size=int(rng.integers(8, 30)),
        max_positions=40,
        feed_forward_size=int(rng.integers(8, 33)),
        tie_embeddings=bool(rng.integers(0, 2)),
    )
    lm = PrefixLM(config, seed=trial)
    for p in lm.params.values():  # large weights so faults cannot hide in 0.02-scale noise
        p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
    return lm


# -- reference forward --------------------------------------------------------


def test_reference_matches_prefixlm_on_random_tiny_configs():
    rng = np.random.default_rng(5)
    for trial in range(25):
        lm = random_model(rng, trial)
        total = int(rng.integers(2, 30))
        source_len = int(rng.integers(1, total + 1))
        ids = rng.integers(0, lm.config.vocab_size, total)
        seq = JointSequence.build(ids, source_len)
        states = lm.forward(seq, build_attention_mask(source_len, total))
        program_lp = log_softmax_values(lm.predict_logits(states).data)

        params = reference.params_of(lm)
        ref_states = reference.forward_states(params, lm.config.num_layers,
                                              lm.config.num_heads, ids, source_len)
        np.testing.assert_allclose(ref_states, states.data, rtol=0, atol=1e-10)
        np.testing.assert_allclose(reference.log_probs(params, ref_states), program_lp,
                                   rtol=0, atol=1e-9)


def test_reference_disagrees_with_a_faulty_mask():
    """A summary position that sees the future changes the reference's answer."""
    rng = np.random.default_rng(6)
    lm = random_model(rng, 0)
    ids = rng.integers(0, lm.config.vocab_size, 12)
    seq = JointSequence.build(ids, 5)
    leaky = np.ones((12, 12))
    states = lm.forward(seq, leaky).data
    ref = reference.forward_states(reference.params_of(lm), lm.config.num_layers,
                                   lm.config.num_heads, ids, 5)
    assert np.abs(ref[5:-1] - states[5:-1]).max() > 1e-3


def test_reference_loss_and_summary_score_match_the_program():
    rng = np.random.default_rng(7)
    lm = random_model(rng, 1)
    cfg = lm.config
    params = reference.params_of(lm)
    ids = rng.integers(0, cfg.vocab_size, 14)
    seq = JointSequence.build(ids, 6)
    positions = np.array([6, 9, 13])
    record = SelectionRecord(positions=positions, original_ids=ids[positions],
                             actions=np.zeros(3, dtype=np.int64))
    corrupted = ids.copy()
    corrupted[positions] = 0
    program = compute_loss(lm, seq, corrupted, record, reduction="sum").item()
    ref = reference.masked_lm_loss(params, cfg.num_layers, cfg.num_heads, corrupted, 6,
                                   positions, record.original_ids)
    assert checks.check_loss(program, ref) == []

    vocab = train_bpe(["bad keg lim fad gem kid mab del"] * 3, target_size=24)
    lm = PrefixLM(ModelConfig.preset("tiny", vocab_size=len(vocab), max_positions=40), seed=3)
    for p in lm.params.values():
        p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
    source = vocab.encode("bad keg lim fad")
    summary = tuple(vocab.encode("keg fad")) + (vocab.end_id,)
    scorer = make_model_scorer(lm, vocab, source)
    program = sum(scorer(summary[:j])[tok] for j, tok in enumerate(summary))
    prompt = [vocab.start_id, *source, vocab.end_id]
    ref = reference.summary_log_prob(reference.params_of(lm), lm.config.num_layers,
                                     lm.config.num_heads, prompt, summary, vocab.mask_id)
    assert abs(program - ref) < 1e-10


# -- decode checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def decoded():
    work = workloads.DecodeWorkload(0, "beam", "none", 4)
    latencies = []
    for record in work.records:
        work.decode(record, latencies)
    work.evaluate()
    return work


def test_decode_checks_pass_on_program_output(decoded):
    assert len(decoded.outputs) == 4
    assert decoded.check() == []


def _corrupt_first(work, change):
    rid = next(iter(work.outputs))
    row, ids = work.outputs[rid]
    saved = work.outputs[rid]
    work.outputs[rid] = change(dict(row), ids)
    try:
        return work.check()
    finally:
        work.outputs[rid] = saved


def test_decode_check_rejects_a_perturbed_score(decoded):
    def change(row, ids):
        row["score"] = round(row["score"] + 2e-6, 6)
        return row, ids

    assert any("reference log-prob" in f for f in _corrupt_first(decoded, change))


def test_decode_check_rejects_a_dropped_word(decoded):
    def change(row, ids):
        row["summary"] = " ".join(row["summary"].split()[1:])
        return row, ids

    assert any("not the text of its tokens" in f for f in _corrupt_first(decoded, change))


def test_decode_check_rejects_a_wrong_copy_rate(decoded):
    def change(row, ids):
        row["copy_rate"] = round(row["copy_rate"] - 0.01, 2)
        return row, ids

    assert any("copy_rate" in f for f in _corrupt_first(decoded, change))


def test_record_check_rejects_a_repeated_trigram():
    row = {"id": "r", "failed": False, "summary": "ba de fi ba de fi", "score": -1.0,
           "copy_rate": 100.0, "length": 6}
    ids = (1, 2, 3, 1, 2, 3, 0)
    faults = checks.check_record(row, "ba de fi", ids, row["summary"], -1.0)
    assert [f for f in faults if "repeated trigram" in f]
    clean = dict(row, summary="ba de fi", length=3)
    assert checks.check_record(clean, "ba de fi", (1, 2, 3, 0), "ba de fi", -1.0) == []


def test_evaluation_check_rejects_perturbed_corpus_figures(decoded):
    row, hyps, refs, srcs = decoded.evaluation
    for key in ("copy_1", "copy_3_macro", "copy_avg", "rouge_1_f"):
        bad = dict(row, **{key: row[key] + 1e-6})
        assert checks.check_evaluation(bad, hyps, refs, srcs), key


def test_own_copy_rate_counts():
    assert checks.own_copy_rate("a b c d", "x a b c", 1) == 75.0
    assert checks.own_copy_rate("a b c d", "x a b c", 2) == pytest.approx(200.0 / 3.0)
    assert checks.own_copy_rate("a", "a", 2) is None


# -- training checks ----------------------------------------------------------


def test_training_checks_reject_faults():
    assert checks.check_loss(1.0, 1.0 + 5e-10) == []
    assert checks.check_loss(1.0, 1.0 + 2e-9)
    assert checks.check_gradients([("w", (0,), 0.5, 0.5 + 1e-7)]) == []
    assert checks.check_gradients([("w", (0,), 0.5, 0.5 + 1e-4)])
    assert checks.check_loss_trend(4.0, 3.0, 100) == []
    assert checks.check_loss_trend(4.0, 4.1, 100)
    assert checks.check_loss_trend(6.0, 5.0, 100)  # above ln(100)
    assert checks.check_loss_trend(4.0, math.nan, 100)


@pytest.fixture(scope="module")
def trained():
    work = workloads.TrainWorkload(3)
    work.train_examples = work.train_examples[:64]
    work.valid_examples = work.valid_examples[:8]
    steps = []
    for _ in range(4):
        work.round(steps)
    return work


def test_train_checks_pass_on_program_output(trained):
    assert trained.check() == []


def test_train_check_rejects_a_wrong_gradient(trained, monkeypatch):
    backward = autodiff.Tensor.backward

    def faulty_backward(self):
        backward(self)
        for p in trained.model.parameters():
            p.grad *= 1.001

    monkeypatch.setattr(autodiff.Tensor, "backward", faulty_backward)
    assert any(f.startswith("grad") for f in trained.check())


def test_train_check_rejects_a_wrong_forward(trained, monkeypatch):
    gelu = autodiff.gelu
    monkeypatch.setattr(autodiff, "gelu", lambda a: gelu(a) * 1.0000001)
    assert any(f.startswith("loss") for f in trained.check())


# -- tracer -------------------------------------------------------------------


def test_tracer_counts_and_restores():
    before = (model_module.PrefixLM.forward, autodiff.matmul, decoding.beam_search)
    rng = np.random.default_rng(8)
    lm = random_model(rng, 2)
    seq = JointSequence.build(np.arange(6) % lm.config.vocab_size, 3)
    with Tracer() as tracer:
        lm.forward(seq, build_attention_mask(3, 6))
    assert tracer.counts["model.forward"] == 1
    assert tracer.counts["autodiff.matmul"] > 0 and tracer.seconds["model.forward"] > 0
    assert tracer.missing == []
    assert (model_module.PrefixLM.forward, autodiff.matmul, decoding.beam_search) == before
