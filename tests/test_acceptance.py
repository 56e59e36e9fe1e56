"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The copy-control experiments (criteria 4, 5, 8) share one
four-preset sweep that trains real models and take a few minutes on CPU;
deselect them with ``-m "not slow"`` while iterating.
"""

import json
import math

import numpy as np
import pytest

from copysum import autodiff as ad
from copysum.bpe import train_bpe
from copysum.cli import main as cli_main
from copysum.decoding import (
    Hypothesis,
    RerankConfig,
    SearchConfig,
    beam_search,
    best_first_search,
    brevity_penalty,
    hypothesis_text,
    rerank,
)
from copysum.metrics import copy_rate, rouge_l, rouge_n
from copysum.model import JointSequence, ModelConfig, PrefixLM, build_attention_mask
from copysum.training import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    SamplingConfig,
    TrainingExample,
    build_joint_sequence,
    categorize_tokens,
    sample_and_corrupt,
)

from conftest import TableLM, assert_grads_close, exhaustive_best

SWEEP_SEED = 7


# -- criterion 1: mask exactness ---------------------------------------------


def test_criterion_01_mask_exactness():
    """build_attention_mask equals the cell-by-cell rule on 100 random sizes."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        total = int(rng.integers(1, 48))
        source = int(rng.integers(1, total + 1))
        direct = np.zeros((total, total))
        for i in range(1, total + 1):  # 1-indexed, as stated
            for j in range(1, total + 1):
                if j <= max(i, source):
                    direct[i - 1, j - 1] = 1.0
        np.testing.assert_array_equal(build_attention_mask(source, total), direct)


# -- criterion 2: causality ---------------------------------------------------


def test_criterion_02_causality():
    """Perturbing summary position j moves no logit at i<j and no source state."""
    rng = np.random.default_rng(202)
    for trial in range(8):
        config = ModelConfig(
            num_layers=int(rng.integers(1, 3)),
            hidden_size=16,
            num_heads=int(rng.choice([2, 4])),
            vocab_size=13,
            max_positions=32,
            feed_forward_size=24,
        )
        model = PrefixLM(config, seed=trial)
        total = int(rng.integers(6, 14))
        source_len = int(rng.integers(2, total - 1))
        ids = rng.integers(0, 13, size=total)
        seq = JointSequence.build(ids, source_len)
        mask = build_attention_mask(source_len, total)
        states = model.forward(seq, mask)
        logits = model.predict_logits(states).data
        j = int(rng.integers(source_len + 1, total))
        changed = ids.copy()
        changed[j] = (changed[j] + 1 + rng.integers(0, 11)) % 13
        states2 = model.forward(JointSequence.build(changed, source_len), mask)
        logits2 = model.predict_logits(states2).data
        assert np.max(np.abs(logits2[:j] - logits[:j])) < 1e-10
        assert np.max(np.abs(states2.data[:source_len] - states.data[:source_len])) < 1e-10


# -- criterion 3: gradient check ---------------------------------------------


def test_criterion_03_gradient_check():
    """Analytic vs central-difference gradients, every parameter, rel < 1e-4."""
    vocab_size = 10
    model = PrefixLM(
        ModelConfig(
            num_layers=2, hidden_size=16, num_heads=2,
            vocab_size=vocab_size, max_positions=12, feed_forward_size=32,
        ),
        seed=33,
    )
    rng = np.random.default_rng(303)
    ids = rng.integers(0, vocab_size, size=10)
    seq = JointSequence.build(ids, source_len=6)
    mask = build_attention_mask(seq.source_len, len(seq))
    positions = np.array([3, 6, 8])
    targets = seq.ids[positions]

    def loss_fn():
        states = model.forward(seq, mask)
        logits = model.predict_logits(ad.take_rows(states, positions))
        return ad.cross_entropy_from_logits(logits, targets)

    assert_grads_close(model.parameters(), loss_fn, h=1e-5, rtol=1e-4)


# -- criteria 4, 5, 8: the copy-control sweep ---------------------------------


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One sweep over the trend presets plus case-g, shared seed, defaults."""
    out = tmp_path_factory.mktemp("sweep")
    rc = cli_main([
        "sweep", "--output-dir", str(out), "--synth",
        "--presets", "case-a,case-b,case-c,case-g",
        "--seed", str(SWEEP_SEED),
    ])
    assert rc == 0
    rows = {}
    for line in (out / "report.jsonl").read_text().splitlines():
        row = json.loads(line)
        rows[row["system"]] = row
    return out, rows


@pytest.mark.slow
def test_criterion_04_copy_control_trend(sweep_run):
    """seen-only > mixed-2:1 > all-summary in average copy rate; a >= 95%."""
    _, rows = sweep_run
    averages = [rows[p]["copy_avg"] for p in ("case-a", "case-b", "case-c")]
    assert averages[0] > averages[1] > averages[2], averages
    assert rows["case-a"]["copy_1"] >= 95.0, rows["case-a"]["copy_1"]


@pytest.mark.slow
def test_criterion_05_source_tokens_do_not_hurt(sweep_run):
    """Adding p_source=0.1 must not cost more than 0.5 ROUGE-2 points."""
    _, rows = sweep_run
    with_source = 100.0 * rows["case-g"]["rouge_2_f"]
    without = 100.0 * rows["case-c"]["rouge_2_f"]
    assert with_source >= without - 0.5, (with_source, without)


@pytest.mark.slow
def test_criterion_08_no_repeated_trigrams_in_sweep_outputs(sweep_run):
    """Every decoded summary in the sweep is free of repeated trigrams."""
    out, _ = sweep_run
    vocab_lines = (out / "vocab.txt").read_text()
    checked = 0
    for preset_dir in sorted(out.glob("case-*")):
        for line in (preset_dir / "summaries.txt").read_text().splitlines():
            words = line.split()
            trigrams = [tuple(words[i : i + 3]) for i in range(len(words) - 2)]
            assert len(trigrams) == len(set(trigrams)), line
            checked += 1
    assert checked == 4 * 200
    assert vocab_lines  # sweep artifacts complete


# -- criterion 6: search optimality oracle ------------------------------------


def test_criterion_06_search_matches_exhaustive_oracle():
    """Best-first top-1 and full-width beam equal brute force on 120 toy LMs."""
    mismatches = []
    for s in range(120):
        inst = np.random.default_rng([13, s])
        vocab = int(inst.integers(3, 6))  # vocab <= 5 including END
        max_len = int(inst.integers(2, 6))  # max length <= 5
        lm = TableLM(vocab, seed=13 * 100000 + s, alpha=0.5)
        oracle_ids, oracle_score = exhaustive_best(lm, vocab, 0, max_len)

        bf_cfg = SearchConfig(
            end_id=0, k=vocab, answer_pool_size=1,
            max_summary_len=max_len, trigram_blocking=False,
        )
        pool, _ = best_first_search(lm, bf_cfg)
        if not pool or abs(pool[0].score - oracle_score) > 1e-9:
            mismatches.append(("best-first", s))

        beam_cfg = SearchConfig(
            end_id=0, k=vocab, answer_pool_size=64,
            max_summary_len=max_len, trigram_blocking=False,
        )
        beam_pool, _ = beam_search(lm, beam_cfg)
        best = max((h.score for h in beam_pool), default=None)
        if best is None or abs(best - oracle_score) > 1e-9:
            mismatches.append(("beam", s))
    assert mismatches == []


# -- criterion 7: reranker identities -----------------------------------------


def test_criterion_07_reranker_identities():
    corpus = ["bad keg lim fad gem kid mab del"] * 3
    vocab = train_bpe(corpus, target_size=200)
    lexicon = ["bad", "keg", "lim", "fad", "gem", "kid", "mab", "del"]
    source = "bad keg lim fad gem"
    rng = np.random.default_rng(707)

    # exp(S_bp) == bp * (prod P)^(1/|y|) within 1e-9 on random pools
    config = RerankConfig(method="bp_norm", c=0.55)
    for _ in range(100):
        n_words = int(rng.integers(1, 7))
        ids = []
        for i in rng.integers(0, len(lexicon), n_words):
            ids.extend(vocab.encode(lexicon[i]))
        hyp = Hypothesis(
            ids=tuple(ids) + (vocab.end_id,),
            score=float(-rng.uniform(0.05, 9.0)),
        )
        ranked = rerank([hyp], config, vocab=vocab, source_text=source)
        words = hypothesis_text(vocab, hyp).split()
        in_source = sum(1 for w in words if w in source.split())
        bp = brevity_penalty((in_source / len(words)) / config.c)
        rhs = bp * math.exp(hyp.score) ** (1.0 / len(hyp.ids))
        assert abs(math.exp(ranked[0].rerank_score) - rhs) < 1e-9

    # unit copy rate drops the penalty term to zero
    assert brevity_penalty(1.0) == 1.0
    assert math.log(brevity_penalty(1.0)) == 0.0

    # sbwr with r=0 preserves the raw ranking exactly
    pool = []
    for _ in range(16):
        n_words = int(rng.integers(1, 5))
        ids = []
        for i in rng.integers(0, len(lexicon), n_words):
            ids.extend(vocab.encode(lexicon[i]))
        pool.append(
            Hypothesis(
                ids=tuple(ids) + (vocab.end_id,),
                score=float(-rng.uniform(0, 6)),
            )
        )
    plain = rerank(pool, RerankConfig(method="none"))
    zero = rerank(
        pool, RerankConfig(method="sbwr", r_sbwr=0.0), vocab=vocab, predicted_length=5
    )
    assert [r.hypothesis.ids for r in plain] == [r.hypothesis.ids for r in zero]

    # length normalization worked example
    ranked = rerank(
        [Hypothesis(ids=(5, vocab.end_id), score=-4.0)],
        RerankConfig(method="length_norm"),
    )
    assert ranked[0].rerank_score == pytest.approx(-2.0)


# -- criterion 9: corruption statistics ---------------------------------------


def test_criterion_09_corruption_statistics():
    """Selection rate within 3 binomial sigma at p=0.9; mix within 0.01."""
    corpus = ["da fa ga ka la ma ba dee fee gee"] * 3
    vocab = train_bpe(corpus, target_size=160)
    example = TrainingExample.from_texts(
        vocab, "da fa ga ka la ma ba dee", "fa ga ka la"
    )
    seq = build_joint_sequence(example, vocab, max_positions=64)
    categories = categorize_tokens(seq, vocab)
    config = SamplingConfig(p_seen=0.9, p_unseen=0.9, p_source=0.9)
    rng = np.random.default_rng(909)
    total = selected = 0
    counts = np.zeros(3)
    while total < 100_000:
        _, record = sample_and_corrupt(seq, categories, config, rng, vocab)
        total += len(seq)
        selected += len(record.positions)
        for action in record.actions:
            counts[action] += 1
    sigma = math.sqrt(0.9 * 0.1 / total)
    assert abs(selected / total - 0.9) < 3 * sigma
    mix = counts / counts.sum()
    assert abs(mix[ACTION_MASK] - 0.80) < 0.01
    assert abs(mix[ACTION_RANDOM] - 0.10) < 0.01
    assert abs(mix[ACTION_KEEP] - 0.10) < 0.01


# -- criterion 10: metric oracles ----------------------------------------------


def test_criterion_10_metric_oracles():
    assert copy_rate("a b c", "x a b y", 1) == pytest.approx(66.67, abs=0.01)
    assert copy_rate("a b c", "x a b y", 2) == pytest.approx(50.0, abs=1e-9)
    assert rouge_n("a b d", "a b c", 1).f1 == pytest.approx(0.6667, abs=1e-4)
    assert rouge_l("c b a", "a b c").f1 == pytest.approx(0.3333, abs=1e-4)


# -- criterion 11: end-to-end reproducibility ----------------------------------


@pytest.mark.slow
def test_criterion_11_sweep_reproducibility(tmp_path):
    """The sweep rerun with one seed emits byte-identical summaries/reports."""
    args = [
        "--synth", "--train-pairs", "150", "--valid-pairs", "30",
        "--test-pairs", "30", "--presets", "case-a,case-c",
        "--epochs", "3", "--seed", "29",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_main(["sweep", "--output-dir", str(first), *args]) == 0
    assert cli_main(["sweep", "--output-dir", str(second), *args]) == 0
    for rel in (
        "report.jsonl", "report.txt", "vocab.txt",
        "case-a/summaries.txt", "case-a/records.jsonl",
        "case-c/summaries.txt", "case-c/records.jsonl",
    ):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
