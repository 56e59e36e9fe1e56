import math

import numpy as np
import pytest

from copysum.bpe import train_bpe
from copysum.decoding import (
    Hypothesis,
    RerankConfig,
    SearchConfig,
    beam_search,
    best_first_search,
    block_trigrams,
    brevity_penalty,
    decode_record,
    hypothesis_text,
    make_model_scorer,
    predict_length,
    rerank,
    rowwise,
)
from copysum.errors import ConfigError, ContractError
from copysum.metrics import copy_rate
from copysum.model import ModelConfig, PrefixLM
from copysum.text import WORD_END, split_words
from copysum.training import TrainConfig, TrainingExample, sampling_preset, train

from conftest import TableLM, exhaustive_best

END = 0


def scripted_scorer(script, vocab_size, end_id=END, margin=8.0):
    """Deterministic LM that walks ``script`` then emits END."""

    def scorer(prefix):
        logits = np.zeros(vocab_size)
        nxt = script[len(prefix)] if len(prefix) < len(script) else end_id
        logits[nxt] = margin
        shifted = logits - logits.max()
        return shifted - math.log(np.exp(shifted).sum())

    return rowwise(scorer)


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [
        ("k", 0), ("answer_pool_size", 0), ("answer_pool_size", -1),
        ("max_summary_len", 0), ("max_summary_len", -2),
    ])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SearchConfig(end_id=END, **{field: value})


class TestBestFirst:
    def test_matches_exhaustive_oracle(self):
        for s in range(30):
            inst = np.random.default_rng([41, s])
            vocab = int(inst.integers(3, 6))
            max_len = int(inst.integers(2, 6))
            lm = TableLM(vocab, seed=1000 + s, alpha=0.5)
            oracle_ids, oracle_score = exhaustive_best(lm, vocab, END, max_len)
            cfg = SearchConfig(
                end_id=END, k=vocab, answer_pool_size=1,
                max_summary_len=max_len, trigram_blocking=False,
            )
            pool, _ = best_first_search(lm, cfg)
            assert pool, f"instance {s} returned nothing"
            assert pool[0].score == pytest.approx(oracle_score, abs=1e-12)
            assert pool[0].ids == oracle_ids

    def test_immediate_end_returns_empty_summary(self):
        lm = scripted_scorer((), vocab_size=4, margin=50.0)
        cfg = SearchConfig(end_id=END, k=2, answer_pool_size=1, trigram_blocking=False)
        pool, _ = best_first_search(lm, cfg)
        assert pool[0].ids == (END,)

    def test_all_results_end_terminated_with_monotone_scores(self):
        lm = TableLM(4, seed=77, alpha=0.8)
        cfg = SearchConfig(
            end_id=END, k=3, answer_pool_size=5, max_summary_len=6,
            trigram_blocking=False,
        )
        pool, _ = best_first_search(lm, cfg)
        assert pool
        assert all(h.ids[-1] == END for h in pool)
        assert all(h.score <= 0 for h in pool)
        # first-completed is best: pop order is score order at full capacity
        scores = [h.score for h in pool]
        assert scores == sorted(scores, reverse=True)

    def test_empty_pool_when_nothing_terminates(self):
        @rowwise
        def never_ends(prefix):
            logits = np.full(3, -50.0)
            logits[1] = 0.0
            return logits - math.log(np.exp(logits).sum())

        cfg = SearchConfig(
            end_id=END, k=1, answer_pool_size=1, max_summary_len=4,
            trigram_blocking=False, banned_ids=(0,),
        )
        pool, diag = best_first_search(never_ends, cfg)
        assert pool == []
        assert diag.overlong > 0

    def test_heap_eviction_counts(self):
        lm = TableLM(5, seed=5, alpha=1.0)
        cfg = SearchConfig(
            end_id=END, k=5, heap_capacity=5, answer_pool_size=3,
            max_summary_len=5, trigram_blocking=False,
        )
        pool, diag = best_first_search(lm, cfg)
        assert diag.evictions > 0
        assert all(h.ids[-1] == END for h in pool)

    def test_expansion_cap_reported(self):
        lm = TableLM(4, seed=9, alpha=1.0)
        cfg = SearchConfig(
            end_id=END, k=4, answer_pool_size=64, max_summary_len=5,
            trigram_blocking=False, max_expansions=3,
        )
        _, diag = best_first_search(lm, cfg)
        assert diag.hit_expansion_cap


class TestBeam:
    def test_k1_is_greedy(self):
        for s in range(20):
            lm = TableLM(4, seed=300 + s, alpha=0.7)
            cfg = SearchConfig(
                end_id=END, k=1, answer_pool_size=1, max_summary_len=6,
                trigram_blocking=False,
            )
            pool, _ = beam_search(lm, cfg)
            ids, score = (), 0.0
            for _ in range(6):
                lp = lm(ids)
                tok = int(np.argmax(lp))
                score += lp[tok]
                ids = ids + (tok,)
                if tok == END:
                    break
            if ids and ids[-1] == END:
                assert pool and pool[0].ids == ids
                assert pool[0].score == pytest.approx(score, abs=1e-12)
            else:
                assert not pool

    def test_full_width_full_length_matches_exhaustive(self):
        for s in range(30):
            inst = np.random.default_rng([13, s])
            vocab = int(inst.integers(3, 6))
            max_len = int(inst.integers(2, 6))
            lm = TableLM(vocab, seed=13 * 100000 + s, alpha=0.5)
            _, oracle_score = exhaustive_best(lm, vocab, END, max_len)
            cfg = SearchConfig(
                end_id=END, k=vocab, answer_pool_size=64,
                max_summary_len=max_len, trigram_blocking=False,
            )
            pool, _ = beam_search(lm, cfg)
            best = max(h.score for h in pool)
            assert best == pytest.approx(oracle_score, abs=1e-12)

    def test_pool_scores_non_increasing_per_step(self):
        lm = TableLM(5, seed=23, alpha=0.6)
        cfg = SearchConfig(
            end_id=END, k=4, answer_pool_size=8, max_summary_len=6,
            trigram_blocking=False,
        )
        pool, _ = beam_search(lm, cfg)
        by_len = {}
        for h in pool:
            by_len.setdefault(len(h.ids), []).append(h.score)
        for scores in by_len.values():
            assert scores == sorted(scores, reverse=True)

    def test_all_end_terminated(self):
        lm = TableLM(4, seed=31, alpha=0.6)
        cfg = SearchConfig(end_id=END, k=3, max_summary_len=6, trigram_blocking=False)
        pool, _ = beam_search(lm, cfg)
        assert all(h.ids[-1] == END for h in pool)


class TestTrigramBlocking:
    def test_repeat_blocked(self):
        assert block_trigrams((1, 2, 3, 1, 2), 3) is False

    def test_fresh_trigram_allowed(self):
        assert block_trigrams((1, 2, 3, 1, 2), 4) is True

    def test_short_hypotheses_never_blocked(self):
        assert block_trigrams((), 1)
        assert block_trigrams((1,), 1)
        assert block_trigrams((1, 1), 1)

    def test_search_outputs_have_no_repeated_trigram(self):
        # a model that loves the cycle 1,2,3,1,2,3,... unless blocked
        @rowwise
        def cyclic(prefix):
            logits = np.full(4, -10.0)
            logits[(len(prefix) % 3) + 1] = 0.0
            logits[END] = -4.0
            return logits - math.log(np.exp(logits).sum())

        cfg = SearchConfig(end_id=END, k=2, answer_pool_size=3, max_summary_len=12)
        for runner in (beam_search, best_first_search):
            pool, _ = runner(cyclic, cfg)
            for h in pool:
                trigrams = [h.ids[i : i + 3] for i in range(len(h.ids) - 2)]
                assert len(trigrams) == len(set(trigrams))

    def test_blocking_changes_cyclic_output(self):
        @rowwise
        def cyclic(prefix):
            logits = np.full(4, -10.0)
            logits[(len(prefix) % 3) + 1] = 0.0
            logits[END] = -4.0
            return logits - math.log(np.exp(logits).sum())

        on = SearchConfig(end_id=END, k=1, answer_pool_size=1, max_summary_len=12)
        off = SearchConfig(
            end_id=END, k=1, answer_pool_size=1, max_summary_len=12,
            trigram_blocking=False,
        )
        blocked_pool, _ = beam_search(cyclic, on)
        free_pool, _ = beam_search(cyclic, off)
        assert not free_pool  # unblocked greedy cycles forever, never ends
        assert blocked_pool and len(blocked_pool[0].ids) <= 8


class TestScorerContract:
    def test_every_search_call_is_a_list_of_equal_length_tuples(self, tiny_vocab):
        """Beam, best-first and the greedy rerun of predict_length call the
        scorer only with a list of prefix tuples of one length."""
        lm = TableLM(len(tiny_vocab), seed=3, alpha=0.6)
        calls = []

        def recording(prefixes):
            calls.append(prefixes)
            return lm(prefixes)

        cfg = SearchConfig(end_id=tiny_vocab.end_id, k=3, max_summary_len=5)
        runs = {
            "beam": lambda: beam_search(recording, cfg),
            "best-first": lambda: best_first_search(recording, cfg),
            "predict_length": lambda: predict_length(recording, cfg, RerankConfig(), tiny_vocab),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert calls, name
            for call in calls:
                assert isinstance(call, list) and call, (name, call)
                assert all(isinstance(prefix, tuple) for prefix in call), (name, call)
                assert len({len(prefix) for prefix in call}) == 1, (name, call)
            if name == "beam":  # the whole beam in one call
                assert max(map(len, calls)) > 1


@pytest.fixture(scope="module")
def tiny_vocab():
    corpus = ["bad keg lim fad gem kid mab del"] * 3
    return train_bpe(corpus, target_size=200)


class TestPredictLength:
    def test_offset_added_to_greedy_words(self, tiny_vocab):
        words = ["bad", "keg", "lim", "fad", "gem"]
        script = []
        for w in words:
            script.extend(tiny_vocab.encode(w))
        scorer = scripted_scorer(tuple(script), len(tiny_vocab), tiny_vocab.end_id)
        cfg = SearchConfig(
            end_id=tiny_vocab.end_id, k=4, max_summary_len=24, trigram_blocking=False
        )
        assert predict_length(scorer, cfg, RerankConfig(length_offset=3), tiny_vocab) == 8
        assert predict_length(scorer, cfg, RerankConfig(length_offset=0), tiny_vocab) == 5

    def test_fallback_on_greedy_failure(self, tiny_vocab):
        @rowwise
        def never_ends(prefix):
            logits = np.full(len(tiny_vocab), -30.0)
            logits[tiny_vocab.encode("bad")[0]] = 0.0
            return logits - math.log(np.exp(logits).sum())

        cfg = SearchConfig(
            end_id=tiny_vocab.end_id, k=2, max_summary_len=4, trigram_blocking=False
        )
        rr = RerankConfig(fallback_length=11)
        assert predict_length(never_ends, cfg, rr, tiny_vocab) == 11


class TestRerank:
    def test_length_norm_example(self):
        hyp = Hypothesis(ids=(5, END), score=-4.0)
        ranked = rerank([hyp], RerankConfig(method="length_norm"))
        assert ranked[0].rerank_score == pytest.approx(-2.0)

    def test_bp_norm_unit_rate_drops_penalty(self, tiny_vocab):
        ids = tuple(tiny_vocab.encode("bad keg")) + (tiny_vocab.end_id,)
        hyp = Hypothesis(ids=ids, score=-1.5)
        cfg = RerankConfig(method="bp_norm", c=1.0)
        ranked = rerank([hyp], cfg, vocab=tiny_vocab, source_text="bad keg lim")
        # fully copied, c=1 -> r=1 -> log bp = 0 -> plain length norm
        assert ranked[0].rerank_score == pytest.approx(-1.5 / len(ids))

    def test_bp_norm_splits_source_words_as_metrics_do(self, tiny_vocab):
        """A source word joined by the tokenizer's end-of-word marker is two words."""
        ids = tuple(tiny_vocab.encode("bad keg")) + (tiny_vocab.end_id,)
        hyp = Hypothesis(ids=ids, score=-1.5)
        source = f"Bad{WORD_END}KEG lim"
        assert split_words(source)[:2] == ["bad", "keg"] != source.lower().split()[:2]
        assert copy_rate("bad keg", source, 1) == 100.0
        ranked = rerank([hyp], RerankConfig(method="bp_norm", c=1.0),
                        vocab=tiny_vocab, source_text=source)
        # fully copied, c=1 -> r=1 -> log bp = 0 -> plain length norm
        assert ranked[0].rerank_score == pytest.approx(-1.5 / len(ids))

    def test_brevity_penalty_closed_form(self):
        assert brevity_penalty(1.0) == pytest.approx(1.0)
        assert brevity_penalty(0.5) == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert brevity_penalty(2.0) == 1.0  # capped
        assert brevity_penalty(0.0) == 0.0

    def test_bp_norm_exp_identity_on_random_pools(self, tiny_vocab):
        rng = np.random.default_rng(17)
        lexicon = ["bad", "keg", "lim", "fad", "gem", "kid", "mab", "del"]
        source = "bad keg lim fad"
        cfg = RerankConfig(method="bp_norm", c=0.55)
        for _ in range(50):
            words = [lexicon[i] for i in rng.integers(0, len(lexicon), rng.integers(1, 6))]
            ids = []
            for w in words:
                ids.extend(tiny_vocab.encode(w))
            hyp = Hypothesis(
                ids=tuple(ids) + (tiny_vocab.end_id,),
                score=float(-rng.uniform(0.1, 8.0)),
            )
            ranked = rerank([hyp], cfg, vocab=tiny_vocab, source_text=source)
            got = ranked[0].rerank_score
            text_words = hypothesis_text(tiny_vocab, hyp).split()
            in_src = sum(1 for w in text_words if w in source.split())
            bp = brevity_penalty((in_src / len(text_words)) / 0.55)
            expected = bp * math.exp(hyp.score) ** (1.0 / len(hyp.ids))
            assert math.exp(got) == pytest.approx(expected, abs=1e-9)

    def test_sbwr_zero_coefficient_matches_raw_ranking(self, tiny_vocab):
        rng = np.random.default_rng(4)
        pool = []
        for i in range(12):
            ids = tuple(tiny_vocab.encode("bad keg lim"[: 3 + (i % 3) * 4])) + (
                tiny_vocab.end_id,
            )
            pool.append(Hypothesis(ids=ids, score=float(-rng.uniform(0, 5))))
        plain = rerank(pool, RerankConfig(method="none"))
        zero = rerank(
            pool, RerankConfig(method="sbwr", r_sbwr=0.0),
            vocab=tiny_vocab, predicted_length=4,
        )
        assert [r.hypothesis.ids for r in plain] == [r.hypothesis.ids for r in zero]

    def test_sbwr_logistic_reward_value(self, tiny_vocab):
        ids = tuple(tiny_vocab.encode("bad keg lim")) + (tiny_vocab.end_id,)
        hyp = Hypothesis(ids=ids, score=-2.0)
        cfg = RerankConfig(method="sbwr", r_sbwr=0.25)
        ranked = rerank([hyp], cfg, vocab=tiny_vocab, predicted_length=2)
        # sigma(1) + sigma(0) + sigma(-1) = 1.5 exactly by symmetry
        assert ranked[0].rerank_score == pytest.approx(-2.0 + 0.25 * 1.5, abs=1e-12)

    def test_wordless_hypothesis_excluded_from_bp_norm(self, tiny_vocab):
        empty = Hypothesis(ids=(tiny_vocab.end_id,), score=-0.1)
        real_ids = tuple(tiny_vocab.encode("bad")) + (tiny_vocab.end_id,)
        real = Hypothesis(ids=real_ids, score=-3.0)
        ranked = rerank(
            [empty, real], RerankConfig(method="bp_norm"),
            vocab=tiny_vocab, source_text="bad keg",
        )
        assert ranked[0].hypothesis.ids == real.ids
        assert ranked[-1].excluded

    def test_rerank_is_pure(self, tiny_vocab):
        rng = np.random.default_rng(8)
        pool = [
            Hypothesis(
                ids=tuple(tiny_vocab.encode("gem kid")) + (tiny_vocab.end_id,),
                score=float(-rng.uniform(0, 5)),
            )
            for _ in range(6)
        ]
        cfg = RerankConfig(method="length_norm")
        once = rerank(pool, cfg)
        twice = rerank(pool, cfg)
        assert [(r.hypothesis.ids, r.rerank_score) for r in once] == [
            (r.hypothesis.ids, r.rerank_score) for r in twice
        ]

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractError):
            rerank([], RerankConfig(method="none"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RerankConfig(method="mystery")


@pytest.fixture(scope="module")
def memorizer():
    """A tiny model trained to reproduce one summary verbatim."""
    corpus = ["bad keg lim fad gem kid"] * 2
    vocab = train_bpe(corpus, target_size=160)
    source = "bad keg lim fad"
    summary = "keg lim fad"
    examples = [TrainingExample.from_texts(vocab, source, summary)] * 24
    model = PrefixLM(
        ModelConfig(
            num_layers=2, hidden_size=32, num_heads=4,
            vocab_size=len(vocab), max_positions=64, feed_forward_size=64,
        ),
        seed=6,
    )
    train(
        model, examples, [], sampling_preset("all-summary"),
        TrainConfig(epochs=8, batch_size=8, lr=3e-3, seed=1), vocab,
    )
    return model, vocab, source, summary


class TestModelScorer:
    def test_distribution_normalized_and_deterministic(self, memorizer):
        model, vocab, source, _ = memorizer
        scorer = make_model_scorer(model, vocab, vocab.encode(source))
        a = scorer(())
        b = scorer(())
        assert np.exp(a).sum() == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(a, b)

    def test_memorized_continuation_is_argmax(self, memorizer):
        model, vocab, source, summary = memorizer
        scorer = make_model_scorer(model, vocab, vocab.encode(source))
        target = vocab.encode(summary) + [vocab.end_id]
        prefix: tuple[int, ...] = ()
        for tok in target:
            lp = scorer(prefix)
            assert int(np.argmax(lp)) == tok
            prefix = prefix + (tok,)

    def test_prompt_overflow_rejected(self, memorizer):
        model, vocab, source, _ = memorizer
        scorer = make_model_scorer(model, vocab, vocab.encode(source))
        with pytest.raises(ContractError):
            scorer(tuple(vocab.encode("bad")) * 80)


class TestLongSource:
    """A source past ``max_positions`` is tail-truncated as in training."""

    @pytest.fixture(scope="class")
    def tiny_model(self):
        words = "bad keg lim fad gem kid".split()
        vocab = train_bpe([" ".join(words)] * 2, target_size=20)
        model = PrefixLM(ModelConfig.preset("tiny", vocab_size=len(vocab), max_positions=32),
                         seed=3)
        source = " ".join(words[i % len(words)] for i in range(96))
        return model, vocab, source

    def test_decode_returns_a_row(self, tiny_model):
        model, vocab, source = tiny_model
        config = SearchConfig(end_id=vocab.end_id, k=2, max_summary_len=8)
        row = decode_record(model, vocab, "long", source, "beam", config, RerankConfig())
        assert row["id"] == "long"

    def test_scorer_reads_the_source_head(self, tiny_model):
        model, vocab, source = tiny_model
        ids = vocab.encode(source)
        keep = 32 - 3 - 8  # START, END, 8 summary tokens and [MASK]
        long = make_model_scorer(model, vocab, ids, max_summary_len=8)
        head = make_model_scorer(model, vocab, ids[:keep], max_summary_len=8)
        assert np.array_equal(long(()), head(()))
        assert np.array_equal(long((5, 6, 7)), head((5, 6, 7)))
