"""Plain-numpy reference forward for the prefix-LM, used by the checks.

Written from the model's description, not from its code: no autodiff
graph, no ``PrefixLM.forward``, and forbidden attention edges are removed
with ``-inf`` rather than the program's additive bias. It reads only the
parameter arrays and the architecture numbers, so a fault in the
program's forward, its masks or its autodiff ops shows as a disagreement.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6


def params_of(model) -> dict[str, np.ndarray]:
    """Name -> float64 array, copied out of a ``PrefixLM``."""
    return {name: np.array(p.data, dtype=np.float64) for name, p in model.params.items()}


def _layer_norm(x, gain, bias):
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered**2).mean(axis=-1, keepdims=True) + LN_EPS)
    return centered / std * gain + bias


def _softmax_rows(scores):
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=-1, keepdims=True)


def forward_states(params, num_layers: int, num_heads: int, ids, source_len: int):
    """Final hidden states (T, H) of ``ids`` whose first ``source_len`` are source.

    Position i (0-based) attends to j when j <= i, or when j lies in the
    source; source positions therefore see the whole source.
    """
    ids = np.asarray(ids, dtype=np.int64)
    t = len(ids)
    hidden = params["tok_emb"].shape[1]
    head = hidden // num_heads
    segments = (np.arange(t) >= source_len).astype(np.int64)
    x = params["tok_emb"][ids] + params["pos_emb"][:t] + params["seg_emb"][segments]
    x = _layer_norm(x, params["emb_ln_gain"], params["emb_ln_bias"])
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    allowed = (j <= i) | (j < source_len)
    for layer in range(num_layers):
        w = {k[len(f"layer{layer}."):]: v for k, v in params.items()
             if k.startswith(f"layer{layer}.")}

        def heads(name):
            proj = x @ w[f"attn_{name}_weight"] + w[f"attn_{name}_bias"]
            return proj.reshape(t, num_heads, head)

        q, k, v = heads("q"), heads("k"), heads("v")
        scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(head)
        scores = np.where(allowed[None], scores, -np.inf)
        ctx = np.einsum("hts,shd->thd", _softmax_rows(scores), v).reshape(t, hidden)
        attn = ctx @ w["attn_out_weight"] + w["attn_out_bias"]
        x = _layer_norm(x + attn, w["attn_ln_gain"], w["attn_ln_bias"])
        pre = x @ w["ff_in_weight"] + w["ff_in_bias"]
        ff = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
        ff = ff @ w["ff_out_weight"] + w["ff_out_bias"]
        x = _layer_norm(x + ff, w["ff_ln_gain"], w["ff_ln_bias"])
    return x


def log_probs(params, states):
    """Row-wise log-softmax of the vocabulary logits of ``states``."""
    out = params.get("out_emb", params["tok_emb"])
    logits = states @ out.T
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def masked_lm_loss(params, num_layers, num_heads, corrupted_ids, source_len,
                   positions, targets) -> float:
    """Summed negative log-likelihood of ``targets`` at ``positions``."""
    states = forward_states(params, num_layers, num_heads, corrupted_ids, source_len)
    lp = log_probs(params, states[np.asarray(positions, dtype=np.int64)])
    return float(-lp[np.arange(len(targets)), np.asarray(targets)].sum())


def summary_log_prob(params, num_layers, num_heads, prompt_ids, summary_ids,
                     mask_id: int) -> float:
    """Sum over steps of log p(summary[j] | prompt + summary[:j] + [MASK]).

    ``prompt_ids`` is ``[START] source [END]``; each step reads the
    prediction at the trailing mask token, which is how the decoder scores.
    """
    total = 0.0
    source_len = len(prompt_ids)
    for step, token in enumerate(summary_ids):
        ids = list(prompt_ids) + list(summary_ids[:step]) + [mask_id]
        states = forward_states(params, num_layers, num_heads, ids, source_len)
        total += float(log_probs(params, states[-1:])[0, token])
    return total
