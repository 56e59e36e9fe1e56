"""Shared oracles and fixtures."""

import numpy as np
import pytest

from copysum.autodiff import Parameter
from copysum.decoding import rowwise


def finite_difference_grads(params, loss_fn, h=1e-5):
    """Central-difference gradient of loss_fn wrt every parameter component.

    Independent of the autodiff graph: it only re-evaluates the forward
    pass at perturbed parameter values.
    """
    grads = {}
    for p in params:
        flat = p.data.reshape(-1)
        out = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = loss_fn().item()
            flat[i] = original - h
            f_minus = loss_fn().item()
            flat[i] = original
            out[i] = (f_plus - f_minus) / (2.0 * h)
        grads[p.name] = out.reshape(p.data.shape)
    return grads


def assert_grads_close(params, loss_fn, h=1e-5, rtol=1e-4, floor=1e-3):
    """Analytic vs finite-difference gradients, componentwise relative error."""
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}
    numeric = finite_difference_grads(params, loss_fn, h=h)
    for p in params:
        a = analytic[p.name].reshape(-1)
        n = numeric[p.name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = np.abs(a - n) / denom
        worst = int(np.argmax(rel))
        assert rel[worst] < rtol, (
            f"{p.name}[{worst}]: analytic {a[worst]:.8g} vs "
            f"finite-difference {n[worst]:.8g} (rel {rel[worst]:.3g})"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_parameter(rng, shape, name, scale=0.5):
    return Parameter(rng.normal(0.0, scale, size=shape), name=name)


class TableLM:
    """Random context-dependent toy language model over a tiny vocabulary.

    Each prefix gets its own Dirichlet-drawn next-token distribution,
    deterministically derived from (seed, prefix). Small alpha makes the
    distributions peaked.
    """

    def __init__(self, vocab_size: int, seed: int, alpha: float = 0.35):
        self.vocab_size = vocab_size
        self.seed = seed
        self.alpha = alpha
        self._cache: dict[tuple, np.ndarray] = {}

    def __call__(self, prefixes) -> np.ndarray:
        return rowwise(self.distribution)(prefixes)

    def distribution(self, prefix: tuple) -> np.ndarray:
        dist = self._cache.get(prefix)
        if dist is None:
            gen = np.random.default_rng([self.seed, len(prefix), *prefix])
            probs = gen.dirichlet(np.full(self.vocab_size, self.alpha))
            dist = np.log(np.maximum(probs, 1e-300))
            self._cache[prefix] = dist
        return dist


def exhaustive_best(lm, vocab_size: int, end_id: int, max_len: int):
    """Brute-force argmax of summed log-probs over END-terminated sequences.

    Enumerates every sequence of length <= max_len whose only END is the
    final token. Independent of the search implementations.
    """
    best_ids, best_score = None, -float("inf")
    stack = [((), 0.0)]
    while stack:
        prefix, score = stack.pop()
        log_probs = lm(prefix)
        completed = score + log_probs[end_id]
        if completed > best_score:
            best_ids, best_score = prefix + (end_id,), completed
        if len(prefix) + 1 < max_len:
            for tok in range(vocab_size):
                if tok != end_id:
                    stack.append((prefix + (tok,), score + log_probs[tok]))
    return best_ids, best_score
