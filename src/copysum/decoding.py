"""Summary generation: best-first and beam search plus copy-aware reranking.

Both searches score a candidate by its summed token log-likelihood and only
ever return sequences that terminate with the end token. They consume a
scorer callable so toy language models can drive them in tests exactly like
the trained transformer does in production. Called with one prefix, a tuple
of ids, a scorer returns its ``(V,)`` next-token log-probabilities; called
with an ``(n, t)`` int array of ``n`` prefixes of one length, it returns
``(n, V)``, row by row. Best-first scores one prefix per call, beam search
its whole beam per step (a beam of one as one prefix); ``rowwise`` gives a
one-prefix scorer the block form.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .bpe import Vocabulary
from .errors import ConfigError, ContractError
from .metrics import copy_counts, copy_rate
from .model import PrefixLM, PromptCache, fit_source
from .text import split_words

NEG_INF = float("-inf")


@dataclass
class Hypothesis:
    """A completed summary (its last id is the end token) and its summed log-probability."""

    ids: tuple[int, ...]
    score: float


@dataclass
class SearchConfig:
    end_id: int
    k: int = 5
    heap_capacity: int = 100_000
    answer_pool_size: int | None = None  # defaults to k
    max_summary_len: int = 32
    trigram_blocking: bool = True
    banned_ids: tuple = ()
    max_expansions: int = 100_000

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.heap_capacity < self.k:
            raise ConfigError("heap_capacity must be >= k")
        if self.pool_size < 1:
            raise ConfigError(f"pool size must be >= 1, got {self.pool_size}")
        if self.max_summary_len < 1:
            raise ConfigError(f"max_summary_len must be >= 1, got {self.max_summary_len}")

    @property
    def pool_size(self) -> int:
        return self.answer_pool_size if self.answer_pool_size is not None else self.k


@dataclass
class RerankConfig:
    method: str = "none"  # none | length_norm | bp_norm | sbwr
    c: float = 0.55
    r_sbwr: float = 0.25
    length_offset: int = 3
    fallback_length: int = 8

    def __post_init__(self):
        if self.method not in ("none", "length_norm", "bp_norm", "sbwr"):
            raise ConfigError(f"unknown rerank method {self.method!r}")
        if self.c <= 0:
            raise ConfigError("bp-norm scale c must be > 0")
        if self.r_sbwr < 0:
            raise ConfigError("sbwr coefficient must be >= 0")


@dataclass
class SearchDiagnostics:
    expansions: int = 0
    evictions: int = 0
    overlong: int = 0
    hit_expansion_cap: bool = False


def make_model_scorer(model: PrefixLM, vocab: Vocabulary, source_ids, max_summary_len: int = 0):
    """Next-token log-probabilities with the mask token as the prompt.

    The source is tail-truncated as in training, so that summaries of up
    to ``max_summary_len`` tokens plus the prompt fit in the model's
    positions; a longer prefix is rejected. The scorer runs the source
    once and keeps every scored prefix's keys and values (``PromptCache``),
    so a call runs at most two new rows per prefix, its last token and
    ``[MASK]``; ``scorer.rows`` counts the rows run.
    """
    limit = model.config.max_positions
    source_ids = fit_source(np.asarray(source_ids, dtype=np.int64), max_summary_len, limit)
    prompt = [vocab.start_id, *(int(t) for t in source_ids), vocab.end_id]
    return PromptCache(model, prompt, vocab.mask_id)


def rowwise(score_one):
    """A scorer that takes a block too, scoring its rows one at a time.

    ``score_one`` maps one prefix tuple to its ``(V,)`` log-probabilities.
    """

    def scorer(prefixes):
        if isinstance(prefixes, np.ndarray) and prefixes.ndim == 2:
            return np.array([score_one(tuple(row)) for row in prefixes.tolist()])
        return score_one(prefixes)

    return scorer


def _trigram_bans(ids: tuple[int, ...]) -> list[int]:
    """The tokens that, appended to ``ids``, would repeat one of its trigrams."""
    if len(ids) < 2:
        return []
    a, b = ids[-2:]
    return [z for x, y, z in zip(ids, ids[1:], ids[2:]) if x == a and y == b]


def block_trigrams(hypothesis_ids: tuple[int, ...], candidate: int) -> bool:
    """False iff appending ``candidate`` repeats a trigram already emitted."""
    return candidate not in _trigram_bans(hypothesis_ids)


def _top_extensions(ids: tuple[int, ...], log_probs: np.ndarray, config: SearchConfig):
    """The k best (token, logp) continuations after bans and blocking."""
    scores = log_probs.astype(np.float64, copy=True)
    for banned in config.banned_ids:
        scores[banned] = NEG_INF
    if config.trigram_blocking:
        for banned in _trigram_bans(ids):
            scores[banned] = NEG_INF
    # stable order: by descending logp, then token id
    order = np.lexsort((np.arange(len(scores)), -scores))
    out = []
    for tok in order[: config.k]:
        if scores[tok] == NEG_INF:
            break
        out.append((int(tok), float(scores[tok])))
    return out


def best_first_search(scorer, config: SearchConfig):
    """Expand the globally best partial summary from a capped priority heap.

    Completed pops go to the answer pool; the search ends when the pool is
    full or the heap runs dry. Entries past capacity evict the lowest score.
    Returns (pool, diagnostics); scores in the pool are non-increasing while
    the capacity does not bind.
    """
    diag = SearchDiagnostics()
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, ())]
    pool: list[Hypothesis] = []
    while heap and len(pool) < config.pool_size:
        neg_score, _, ids = heapq.heappop(heap)
        score = -neg_score
        if ids and ids[-1] == config.end_id:
            pool.append(Hypothesis(ids=ids, score=score))
            continue
        if len(ids) >= config.max_summary_len:
            diag.overlong += 1  # finalized as failed, never enters the pool
            continue
        if diag.expansions >= config.max_expansions:
            diag.hit_expansion_cap = True
            break
        diag.expansions += 1
        for tok, logp in _top_extensions(ids, scorer(ids), config):
            heapq.heappush(heap, (-(score + logp), len(ids) + 1, ids + (tok,)))
        if len(heap) > config.heap_capacity:
            # keep the best: a sorted list is a heap, and entries are unique
            diag.evictions += len(heap) - config.heap_capacity
            heap = heapq.nsmallest(config.heap_capacity, heap)
    return pool, diag


def beam_search(scorer, config: SearchConfig):
    """Breadth-first search keeping the k best same-length partials.

    Each step scores the beam in one scorer call, forms k*k one-token
    extensions, keeps the best k, and moves completed candidates out of
    the beam into the answer pool.
    """
    diag = SearchDiagnostics()
    beam: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    pool: list[Hypothesis] = []
    for _ in range(config.max_summary_len):
        if not beam or len(pool) >= config.pool_size:
            break
        candidates: list[tuple[float, tuple[int, ...]]] = []
        prefixes = [ids for ids, _ in beam]
        rows = scorer(np.array(prefixes)) if len(beam) > 1 else [scorer(prefixes[0])]
        for (ids, score), log_probs in zip(beam, rows):
            diag.expansions += 1
            for tok, logp in _top_extensions(ids, log_probs, config):
                candidates.append((score + logp, ids + (tok,)))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        beam = []
        for score, ids in candidates[: config.k]:
            if ids[-1] == config.end_id:
                if len(pool) < config.pool_size:
                    pool.append(Hypothesis(ids=ids, score=score))
            else:
                beam.append((ids, score))
    return pool, diag


def hypothesis_text(vocab: Vocabulary, hyp: Hypothesis) -> str:
    """Detokenized summary with special ids stripped."""
    ordinary = [i for i in hyp.ids if i not in vocab.special_ids]
    return vocab.decode(ordinary)


def predict_length(scorer, config: SearchConfig, rerank: RerankConfig, vocab: Vocabulary) -> int:
    """Greedy-decode word count plus the configured offset."""
    greedy = replace(config, k=1, answer_pool_size=1)
    pool, _ = beam_search(scorer, greedy)
    if not pool:
        return rerank.fallback_length
    words = hypothesis_text(vocab, pool[0]).split()
    return len(words) + rerank.length_offset


@dataclass
class RankedHypothesis:
    hypothesis: Hypothesis
    rerank_score: float
    excluded: bool = False


def brevity_penalty(scaled_rate: float) -> float:
    """min(e^(1 - 1/r), 1); full copying drops the penalty to zero (log-space)."""
    if scaled_rate <= 0.0:
        return 0.0
    return min(math.exp(1.0 - 1.0 / scaled_rate), 1.0)


def rerank(
    pool: list[Hypothesis],
    config: RerankConfig,
    vocab: Vocabulary | None = None,
    source_text: str | None = None,
    predicted_length: int | None = None,
) -> list[RankedHypothesis]:
    """Sort a completed pool under the configured scoring function.

    bp_norm needs ``vocab`` and ``source_text``; sbwr needs ``vocab`` and
    ``predicted_length``. Candidates a method cannot score (no words) are
    excluded and ranked last. Pure: same pool in, same order out.
    """
    if not pool:
        raise ContractError("rerank requires a non-empty pool")
    if config.method in ("bp_norm", "sbwr") and vocab is None:
        raise ContractError(f"{config.method} reranking requires the vocabulary")
    if config.method == "bp_norm" and source_text is None:
        raise ContractError("bp_norm reranking requires the source text")
    if config.method == "sbwr" and predicted_length is None:
        raise ContractError("sbwr reranking requires a predicted length")

    ranked: list[RankedHypothesis] = []
    for hyp in pool:
        token_len = len(hyp.ids)
        text = hypothesis_text(vocab, hyp) if vocab is not None else ""
        if config.method == "none":
            score = hyp.score
        elif config.method == "length_norm":
            score = hyp.score / token_len
        elif config.method == "bp_norm":
            hits, n_words = copy_counts(text, source_text, 1)
            if n_words < 1:
                ranked.append(RankedHypothesis(hyp, NEG_INF, excluded=True))
                continue
            bp = brevity_penalty(hits / n_words / config.c)  # the copy rate over c
            score = (math.log(bp) if bp > 0 else NEG_INF) + hyp.score / token_len
        else:  # sbwr
            reward = sum(
                1.0 / (1.0 + math.exp(-(predicted_length - i)))
                for i in range(1, len(split_words(text)) + 1)
            )
            score = hyp.score + config.r_sbwr * reward
        ranked.append(RankedHypothesis(hyp, score))
    ranked.sort(
        key=lambda r: (
            r.excluded,
            -r.rerank_score,
            -r.hypothesis.score,
            len(r.hypothesis.ids),
            r.hypothesis.ids,
        )
    )
    return ranked


def decode_record(
    model: PrefixLM,
    vocab: Vocabulary,
    record_id: str,
    source: str,
    search: str,
    search_config: SearchConfig,
    rerank_config: RerankConfig,
) -> dict:
    """One summary for one input; returns the line-record for the output file."""
    if search not in ("beam", "best-first"):
        raise ConfigError(f"unknown search method {search!r}")
    scorer = make_model_scorer(
        model, vocab, vocab.encode(source), max_summary_len=search_config.max_summary_len
    )
    runner = beam_search if search == "beam" else best_first_search
    pool, diag = runner(scorer, search_config)
    if not pool:
        return {
            "id": record_id, "summary": "", "score": None, "rerank_score": None,
            "copy_rate": None, "length": 0, "failed": True,
        }
    predicted = None
    if rerank_config.method == "sbwr":
        predicted = predict_length(scorer, search_config, rerank_config, vocab)
    ranked = rerank(
        pool, rerank_config, vocab=vocab, source_text=source, predicted_length=predicted
    )
    best = ranked[0]
    text = hypothesis_text(vocab, best.hypothesis)
    rate = copy_rate(text, source, 1)
    return {
        "id": record_id,
        "summary": text,
        "score": round(best.hypothesis.score, 6),
        "rerank_score": (
            round(best.rerank_score, 6) if math.isfinite(best.rerank_score) else None
        ),
        "copy_rate": None if rate is None else round(rate, 2),
        "length": len(text.split()),
        "failed": False,
    }
