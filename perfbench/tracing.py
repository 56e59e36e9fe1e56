"""Timers and counters wrapped around copysum's public functions.

The program itself carries no spans yet, so the benchmark measures each
layer from outside: ``Tracer.install`` swaps the module attributes (and
class methods) that the program looks up at call time for timed wrappers,
and ``uninstall`` puts the originals back. Times are inclusive wall time;
``decoding.search_self_s`` subtracts the scorer time spent inside the
search. A target that a later version of the program no longer has is
skipped and listed in ``missing``, so the end-to-end runs keep working.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from copysum import autodiff, bpe, checkpoint, data, decoding, metrics, model, optim, training

# (owner, attribute, span name); each call adds its time and one count.
TIMED = [
    (model.PrefixLM, "forward", "model.forward"),
    (model.PrefixLM, "embed", "model.embed"),
    (model.PrefixLM, "predict_logits", "model.logits"),
    (autodiff, "matmul", "autodiff.matmul"),
    (autodiff, "softmax", "autodiff.softmax"),
    (autodiff, "layer_norm", "autodiff.layer_norm"),
    (autodiff, "gelu", "autodiff.gelu"),
    (autodiff, "cross_entropy_from_logits", "autodiff.cross_entropy"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (optim.AdamW, "step", "optim.step"),
    (training, "sample_and_corrupt", "training.sample_corrupt"),
    (decoding, "rerank", "decoding.rerank"),
    (bpe.Vocabulary, "encode", "bpe.encode"),
    (bpe, "train_bpe", "bpe.train"),
    (metrics, "evaluate_system", "metrics.evaluate"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (model, "load_checkpoint", "checkpoint.load"),
    (data, "synth_generate", "data.synth"),
]


class Tracer:
    """Accumulates per-span seconds and counts while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._in_predict_length = False

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        seconds, counts = self.seconds, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1

        return wrapper

    def _compute_loss(self, fn):
        timed = self._timed("training.compute_loss", fn)

        @functools.wraps(fn)
        def wrapper(model_, seq, corrupted_ids, record, *args, **kwargs):
            self.counts["training.selected_positions"] += len(record.positions)
            return timed(model_, seq, corrupted_ids, record, *args, **kwargs)

        return wrapper

    def _make_scorer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed("decoding.scorer", fn(*args, **kwargs))

        return wrapper

    def _search(self, fn):
        """Self time and diagnostics of the main search of a record.

        The greedy rerun inside ``predict_length`` is left to that span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_predict_length:
                return fn(*args, **kwargs)
            scorer_before = self.seconds["decoding.scorer"]
            start = perf_counter()
            pool, diag = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            self.seconds["decoding.search_self"] += (
                elapsed - (self.seconds["decoding.scorer"] - scorer_before)
            )
            self.counts["decoding.expansions"] += diag.expansions
            self.counts["decoding.overlong"] += diag.overlong
            self.counts["decoding.completed"] += len(pool)
            return pool, diag

        return wrapper

    def _predict_length(self, fn):
        timed = self._timed("decoding.predict_length", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_predict_length = True
            try:
                return timed(*args, **kwargs)
            finally:
                self._in_predict_length = False

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner).get(attr)  # a class's own attribute, not an inherited one
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        self.missing = []
        for owner, attr, name in TIMED:
            self._patch(owner, attr, functools.partial(self._timed, name))
        self._patch(training, "compute_loss", self._compute_loss)
        self._patch(decoding, "make_model_scorer", self._make_scorer)
        self._patch(decoding, "beam_search", self._search)
        self._patch(decoding, "best_first_search", self._search)
        self._patch(decoding, "predict_length", self._predict_length)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
