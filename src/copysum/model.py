"""Decoder-only Transformer over the joint source+summary sequence.

One stack both encodes and generates: source positions attend to the whole
source bidirectionally while summary positions attend causally, which is
what the binary attention mask encodes. The output projection shares
storage with the token embedding (structural tying, not a copy).
``PromptCache`` runs the same stack for decoding without an autodiff graph,
keeping each record's keys and values between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import erf

from . import autodiff as ad
from .autodiff import Parameter, Tensor, log_softmax_values
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, ContractError

# Additive attention bias for forbidden edges. exp(-1e9) underflows to an
# exact 0.0 in float64, so masked positions contribute nothing at all.
MASK_BIAS = -1e9

ARCH_PRESETS = {
    "tiny": dict(num_layers=2, hidden_size=16, num_heads=2, feed_forward_size=32),
    "desk": dict(num_layers=2, hidden_size=64, num_heads=4, feed_forward_size=128),
    "paper": dict(num_layers=12, hidden_size=768, num_heads=12, feed_forward_size=3072),
}


@dataclass
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    vocab_size: int
    max_positions: int
    feed_forward_size: int
    dropout: float = 0.0
    tie_embeddings: bool = True
    init_scale: float = 0.02
    decay_exempt_markers: tuple = ("bias", "_ln_")

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if min(self.num_layers, self.vocab_size, self.max_positions) < 1:
            raise ConfigError("model dimensions must be positive")

    @classmethod
    def preset(cls, name: str, vocab_size: int, max_positions: int = 256, **overrides):
        if name not in ARCH_PRESETS:
            raise ConfigError(f"unknown model preset {name!r} (have {sorted(ARCH_PRESETS)})")
        kwargs = dict(ARCH_PRESETS[name])
        kwargs.update(overrides)
        return cls(vocab_size=vocab_size, max_positions=max_positions, **kwargs)


@dataclass
class JointSequence:
    """The concatenated token sequence the model consumes."""

    ids: np.ndarray
    source_len: int

    @classmethod
    def build(cls, ids, source_len: int) -> "JointSequence":
        ids = np.asarray(ids, dtype=np.int64)
        if not 0 < source_len <= len(ids):
            raise ContractError(f"source_len {source_len} invalid for length {len(ids)}")
        return cls(ids=ids, source_len=source_len)

    def __len__(self) -> int:
        return len(self.ids)

    def attention_mask(self) -> np.ndarray:
        return build_attention_mask(self.source_len, len(self))


def pad_rows(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Integer rows right-padded with 0 into one (len(rows), width) array."""
    out = np.zeros((len(rows), width), dtype=np.int64)
    for target, row in zip(out, rows):
        target[: len(row)] = row
    return out


@dataclass
class JointBatch:
    """Joint sequences right-padded to one width ``T``: ``ids`` is (B, T).

    Row ``b`` holds ``lengths[b]`` real tokens. Pad positions carry id 0;
    the attention mask hides their keys from every real row, so they change
    no real state, and no loss ever selects them.
    """

    ids: np.ndarray
    source_lens: np.ndarray
    lengths: np.ndarray

    @classmethod
    def pad(cls, seqs: list[JointSequence]) -> "JointBatch":
        if not seqs:
            raise ContractError("a batch needs at least one sequence")
        width = max(len(seq) for seq in seqs)
        return cls(
            ids=pad_rows([seq.ids for seq in seqs], width),
            source_lens=np.array([seq.source_len for seq in seqs], dtype=np.int64),
            lengths=np.array([len(seq) for seq in seqs], dtype=np.int64),
        )

    @classmethod
    def of(cls, seq: "JointSequence | JointBatch") -> "JointBatch":
        """``seq`` itself if it is a batch, else a batch of one."""
        return seq if isinstance(seq, JointBatch) else cls.pad([seq])

    def attention_mask(self) -> np.ndarray:
        """(B, T, T) prefix masks; rows and columns past a length are all 0."""
        cols = np.arange(self.ids.shape[1])
        # build_attention_mask's rule: row i sees column j iff j <= max(i, source_len - 1)
        row_limit = np.maximum(cols, self.source_lens[:, None] - 1)
        row_limit[cols >= self.lengths[:, None]] = -1  # a pad row sees nothing
        return (cols <= row_limit[:, :, None]).astype(np.float64)


def fit_source(source_ids: np.ndarray, summary_len: int, max_positions: int) -> np.ndarray:
    """The head of ``source_ids`` that fits beside ``summary_len`` summary tokens.

    The joint sequence spends three positions on START, the source's END and
    one closing token (the summary's END in training, [MASK] in decoding);
    the source keeps its first tokens and loses its tail.
    """
    keep = max_positions - 3 - summary_len
    if keep < 1:
        raise ContractError(
            f"summary of {summary_len} tokens cannot fit in {max_positions} positions"
        )
    return source_ids[:keep]


def build_attention_mask(source_len: int, total_len: int) -> np.ndarray:
    """Binary (total, total) matrix; row i sees column j iff j <= max(i, source_len).

    Indices in that rule are 1-based; source rows see the whole source,
    summary rows see everything up to and including themselves.
    """
    if not 0 < source_len <= total_len:
        raise ContractError(
            f"source_len {source_len} must be in 1..total_len {total_len}"
        )
    cols = np.arange(total_len)
    row_limit = np.maximum(np.arange(total_len), source_len - 1)
    return (cols[None, :] <= row_limit[:, None]).astype(np.float64)


class PrefixLM:
    """Transformer with per-sequence prefix-bidirectional attention."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        h, f = config.hidden_size, config.feed_forward_size

        def param(name, shape, init="normal"):
            if init == "normal":
                values = rng.normal(0.0, config.init_scale, size=shape)
            elif init == "zeros":
                values = np.zeros(shape)
            else:
                values = np.ones(shape)
            p = Parameter(values, name=name, decay_exempt=self._exempt(name))
            self.params[name] = p
            return p

        self.tok_emb = param("tok_emb", (config.vocab_size, h))
        self.pos_emb = param("pos_emb", (config.max_positions, h))
        self.seg_emb = param("seg_emb", (2, h))
        param("emb_ln_gain", (h,), "ones")
        param("emb_ln_bias", (h,), "zeros")
        for i in range(config.num_layers):
            for proj in ("q", "k", "v", "out"):
                param(f"layer{i}.attn_{proj}_weight", (h, h))
                param(f"layer{i}.attn_{proj}_bias", (h,), "zeros")
            param(f"layer{i}.attn_ln_gain", (h,), "ones")
            param(f"layer{i}.attn_ln_bias", (h,), "zeros")
            param(f"layer{i}.ff_in_weight", (h, f))
            param(f"layer{i}.ff_in_bias", (f,), "zeros")
            param(f"layer{i}.ff_out_weight", (f, h))
            param(f"layer{i}.ff_out_bias", (h,), "zeros")
            param(f"layer{i}.ff_ln_gain", (h,), "ones")
            param(f"layer{i}.ff_ln_bias", (h,), "zeros")
        if not config.tie_embeddings:
            param("out_emb", (config.vocab_size, h))

    def _exempt(self, name: str) -> bool:
        return any(marker in name for marker in self.config.decay_exempt_markers)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward pieces ----------------------------------------------------

    def embed(self, seq: "JointSequence | JointBatch") -> Tensor:
        """Sum of token, position, and segment embedding rows, (B*T, h)."""
        batch = JointBatch.of(seq)
        size, width = batch.ids.shape
        if width > self.config.max_positions:
            raise ContractError(
                f"sequence length {width} exceeds max_positions {self.config.max_positions}"
            )
        if batch.ids.size and batch.ids.max() >= self.config.vocab_size:
            raise ContractError("token id out of vocabulary range")
        positions = np.arange(width)
        segments = positions >= batch.source_lens[:, None]  # the summary is segment 1
        tok = ad.embedding(self.tok_emb, batch.ids.reshape(-1))
        pos = ad.embedding(self.pos_emb, np.tile(positions, size))
        seg = ad.embedding(self.seg_emb, segments.reshape(-1))
        return tok + pos + seg

    def _dropout_keeps(self, batch: JointBatch, rng) -> tuple:
        """Boolean keep masks for every dropout site, padded into the batch.

        Each example draws its masks in turn, in forward order and at its
        own length (embedding ``(t, h)``; then per layer attention
        probabilities ``(H, t, t)``, attention output and feed-forward
        ``(t, h)``), so a batch consumes ``rng`` exactly as its examples
        run one at a time would. Returns ``(embedding, [(probs, attn, ff)
        per layer])``, all None when dropout is off.
        """
        cfg = self.config
        if rng is None or cfg.dropout <= 0.0:
            return None, [(None, None, None)] * cfg.num_layers
        size, width = batch.ids.shape
        h, n_heads, rate = cfg.hidden_size, cfg.num_heads, cfg.dropout
        emb = np.zeros((size, width, h), dtype=bool)
        layers = [
            (
                np.zeros((size, n_heads, width, width), dtype=bool),
                np.zeros((size, width, h), dtype=bool),
                np.zeros((size, width, h), dtype=bool),
            )
            for _ in range(cfg.num_layers)
        ]
        for b, t in enumerate(batch.lengths):
            emb[b, :t] = rng.random((t, h)) >= rate
            for probs, attn, ff in layers:
                probs[b, :, :t, :t] = rng.random((n_heads, t, t)) >= rate
                attn[b, :t] = rng.random((t, h)) >= rate
                ff[b, :t] = rng.random((t, h)) >= rate
        rows = (size * width, h)
        return emb.reshape(rows), [
            (probs, attn.reshape(rows), ff.reshape(rows)) for probs, attn, ff in layers
        ]

    def _attention(self, x: Tensor, mask_bias: np.ndarray, i: int, keep) -> Tensor:
        """Self-attention over (B*T, h) rows; heads work on (B, H, T, d)."""
        cfg = self.config
        n_heads = cfg.num_heads
        head = cfg.hidden_size // n_heads
        size, _, width, _ = mask_bias.shape
        p = self.params

        def project(m: Tensor, name: str) -> Tensor:
            return ad.matmul(m, p[f"layer{i}.attn_{name}_weight"], p[f"layer{i}.attn_{name}_bias"])

        def split_heads(m: Tensor) -> Tensor:
            return ad.transpose(ad.reshape(m, (size, width, n_heads, head)), (0, 2, 1, 3))

        q, k, v = (split_heads(project(x, name)) for name in ("q", "k", "v"))
        scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(head))
        probs = ad.dropout(ad.softmax(scores + mask_bias, axis=-1), keep, cfg.dropout)
        ctx = ad.reshape(ad.transpose(probs @ v, (0, 2, 1, 3)), (size * width, cfg.hidden_size))
        return project(ctx, "out")

    def forward(self, seq: "JointSequence | JointBatch", mask: np.ndarray, rng=None) -> Tensor:
        """Contextual states for every position of ``seq`` under ``mask``.

        ``seq`` is one sequence with a (T, T) mask or a padded batch with a
        (B, T, T) mask; either way the states come back as (B*T, h) rows,
        example ``b``'s position ``i`` at row ``b * T + i``. ``rng`` enables
        dropout (training); inference passes None.
        """
        batch = JointBatch.of(seq)
        size, width = batch.ids.shape
        expected = (width, width) if isinstance(seq, JointSequence) else (size, width, width)
        if mask.shape != expected:
            raise ContractError(f"mask shape {mask.shape} does not match {expected}")
        p, rate = self.params, self.config.dropout
        # 0 where allowed, -1e9 where not; one row of keys per example,
        # broadcast over the heads
        mask_bias = ((1.0 - mask) * MASK_BIAS).reshape(size, 1, width, width)
        keep_emb, keep_layers = self._dropout_keeps(batch, rng)
        x = ad.layer_norm(self.embed(batch), p["emb_ln_gain"], p["emb_ln_bias"])
        x = ad.dropout(x, keep_emb, rate)
        for i, (keep_probs, keep_attn, keep_ff) in enumerate(keep_layers):
            attn = ad.dropout(self._attention(x, mask_bias, i, keep_probs), keep_attn, rate)
            x = ad.layer_norm(
                x + attn, p[f"layer{i}.attn_ln_gain"], p[f"layer{i}.attn_ln_bias"]
            )
            ff = ad.gelu(ad.matmul(x, p[f"layer{i}.ff_in_weight"], p[f"layer{i}.ff_in_bias"]))
            ff = ad.matmul(ff, p[f"layer{i}.ff_out_weight"], p[f"layer{i}.ff_out_bias"])
            x = ad.layer_norm(
                x + ad.dropout(ff, keep_ff, rate),
                p[f"layer{i}.ff_ln_gain"],
                p[f"layer{i}.ff_ln_bias"],
            )
        return x

    def predict_logits(self, states: Tensor) -> Tensor:
        """Vocabulary logits, sharing the embedding matrix when tied."""
        out = self.params["out_emb"] if not self.config.tie_embeddings else self.tok_emb
        return states @ ad.transpose(out, (1, 0))

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        meta = {"schema_version": 1, "model_config": asdict(self.config)}
        meta["model_config"]["decay_exempt_markers"] = list(
            self.config.decay_exempt_markers
        )
        save_checkpoint(path, self.parameters(), meta)

    @classmethod
    def load(cls, path) -> "PrefixLM":
        params, meta = load_checkpoint(path)
        try:
            cfg_dict = dict(meta["model_config"])
            cfg_dict["decay_exempt_markers"] = tuple(cfg_dict["decay_exempt_markers"])
            config = ModelConfig(**cfg_dict)
        except (KeyError, TypeError) as exc:
            raise ContractError(f"{path}: checkpoint has no usable model_config ({exc})") from exc
        model = cls(config)
        if set(params) != set(model.params):
            raise ContractError("checkpoint parameter names do not match the model")
        for name, loaded in params.items():
            if loaded.data.shape != model.params[name].data.shape:
                raise ContractError(f"checkpoint shape mismatch for {name!r}")
            model.params[name].data[...] = loaded.data
        return model


# -- graph-free inference ------------------------------------------------------
# The ops of ``PrefixLM.forward`` on plain arrays, for one record's decode
# steps: a step runs one or two rows, so each costs about the per-call
# overhead of the numpy functions it calls, and they are kept few.


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, mean: np.ndarray):
    """Layer norm (eps 1e-6) over the last axis; ``mean`` is a (h, 1) column of 1/h.

    The row means are matrix products with ``mean``, which costs less than
    numpy's reductions on the one or two rows a decode step runs.
    """
    xhat = x - x @ mean
    var = (xhat * xhat) @ mean
    var += 1e-6
    xhat /= np.sqrt(var)
    xhat *= gain
    xhat += bias
    return xhat


def _gelu(x: np.ndarray) -> np.ndarray:
    """``autodiff.gelu`` (exact erf form) without the graph."""
    cdf = x / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """``autodiff.softmax`` over the last axis, in place."""
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


# Attention bias between a scorer call's token row and [MASK]: the token does not see it
_PAIR_BIAS = np.array([[0.0, MASK_BIAS], [0.0, 0.0]])


class PromptCache:
    """Decode scorer of one record: ``PrefixLM.forward`` without a graph, cached.

    Calling it with a summary prefix returns the log-softmax of the
    vocabulary logits at the ``[MASK]`` row of ``prompt_ids + prefix +
    [MASK]``, where ``prompt_ids`` is ``[START] source [END]``: the same
    numbers as ``forward`` with dropout off and ``predict_logits`` on the
    whole prompt, to rounding.

    Source rows attend to the source only and summary rows causally, so
    the keys and values a row feeds to attention never depend on the rows
    after it. The source rows run once, here, into ``_source``. A prefix
    token's keys and values, for every layer, are kept in a ``(1, layers,
    2h)`` array once a call has run that token's row, and ``_paths`` maps
    each scored prefix to the tuple of its tokens' arrays. A call runs
    ``[MASK]`` and, for a prefix not scored before, its last token: an
    unscored parent (never, in the searches) is scored first. Only the
    ``[MASK]`` row goes through the last layer's attention and
    feed-forward and gets logits. ``rows`` counts the rows run.
    """

    __slots__ = ("rows", "_mask_id", "_limit", "_embed", "_layers", "_heads", "_mean",
                 "_out", "_source", "_paths")

    def __init__(self, model: PrefixLM, prompt_ids, mask_id: int):
        cfg, p = model.config, model.params
        ids = np.asarray(prompt_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
            raise ContractError("token id out of vocabulary range")
        if len(ids) + 1 > cfg.max_positions:
            raise ContractError(
                f"prompt of {len(ids) + 1} tokens exceeds max_positions {cfg.max_positions}"
            )
        self._mask_id = mask_id
        self._limit = cfg.max_positions
        self._embed = (p["tok_emb"].data, p["pos_emb"].data, p["seg_emb"].data,
                       p["emb_ln_gain"].data, p["emb_ln_bias"].data)
        self._layers = []
        for i in range(cfg.num_layers):
            w = {name[len(f"layer{i}."):]: t.data for name, t in p.items()
                 if name.startswith(f"layer{i}.")}
            # q, k and v in one (h, 3h) projection
            qkv_w = np.concatenate([w[f"attn_{n}_weight"] for n in "qkv"], axis=1)
            qkv_b = np.concatenate([w[f"attn_{n}_bias"] for n in "qkv"])
            self._layers.append((
                qkv_w, qkv_b, w["attn_out_weight"], w["attn_out_bias"],
                w["attn_ln_gain"], w["attn_ln_bias"], w["ff_in_weight"], w["ff_in_bias"],
                w["ff_out_weight"], w["ff_out_bias"], w["ff_ln_gain"], w["ff_ln_bias"],
            ))
        self._heads = cfg.num_heads
        self._mean = np.full((cfg.hidden_size, 1), 1.0 / cfg.hidden_size)
        self._out = (p["out_emb"] if not cfg.tie_embeddings else p["tok_emb"]).data
        self.rows = 0
        # per row and layer, its keys then its values: the k and v columns
        # of the fused projection
        self._source = np.empty((len(ids), cfg.num_layers, 2 * cfg.hidden_size))
        self._run(self._rows_in(ids, 0, 0), self._source, causal=False)
        self._paths: dict[tuple, tuple] = {(): ()}

    def __call__(self, prefix_ids) -> np.ndarray:
        prefix = tuple(prefix_ids)
        total = len(self._source) + len(prefix) + 1
        if total > self._limit:
            raise ContractError(f"prompt of {total} tokens exceeds max_positions {self._limit}")
        if prefix in self._paths:
            kept, new = self._paths[prefix], ()
        else:
            if not 0 <= prefix[-1] < len(self._embed[0]):
                raise ContractError("token id out of vocabulary range")
            if prefix[:-1] not in self._paths:
                self(prefix[:-1])
            kept, new = self._paths[prefix[:-1]], prefix[-1:]
        past = len(self._source) + len(kept)
        kv = np.empty((past + len(new) + 1,) + self._source.shape[1:])
        np.concatenate((self._source, *kept), out=kv[:past])
        ids = np.array([*new, self._mask_id], dtype=np.int64)
        state = self._run(self._rows_in(ids, past, 1), kv, causal=True)
        if new:
            self._paths[prefix] = (*kept, kv[past:-1].copy())
        return log_softmax_values(self._out @ state)

    def _rows_in(self, ids: np.ndarray, position: int, segment: int) -> np.ndarray:
        """Normalized embeddings of ``ids`` placed from ``position`` on."""
        tok, pos, seg, gain, bias = self._embed
        x = tok[ids]
        x += pos[position : position + len(ids)]
        x += seg[segment]
        return _layer_norm(x, gain, bias, self._mean)

    def _run(self, x: np.ndarray, kv: np.ndarray, causal: bool):
        """Run the rows ``x`` through the stack, writing their keys and values.

        ``kv`` is ``(rows attended to, layers, 2h)``: the stored rows, then
        one row for each row of ``x``, which this fills in. Every row of
        ``x`` attends to the stored rows and to the new ones: to all of
        them, or with ``causal`` (at most a token, then ``[MASK]``) to
        those up to itself. A causal call returns the last row's final
        state; the source (``causal`` off) needs only its keys and values,
        and returns None.
        """
        n_layers, width = kv.shape[1:]
        hidden = width // 2
        heads = self._heads
        size = hidden // heads
        past = len(kv) - len(x)
        self.rows += len(x)
        # (row, layer, keys or values, head, d)
        heads_kv = kv.reshape(len(kv), n_layers, 2, heads, size)
        for i, layer in enumerate(self._layers):
            qkv_w, qkv_b, out_w, out_b, ln1_g, ln1_b, in_w, in_b, ff_w, ff_b, ln2_g, ln2_b = layer
            qkv = x @ qkv_w
            qkv += qkv_b
            kv[past:, i] = qkv[:, hidden:]
            if i == n_layers - 1:  # past here only the last row is read
                if not causal:
                    return None
                x, qkv = x[-1:], qkv[-1:]
            q = qkv[:, :hidden].reshape(len(x), heads, size).transpose(1, 0, 2)
            scores = q @ heads_kv[:, i, 0].transpose(1, 2, 0)
            scores *= 1.0 / math.sqrt(size)
            if causal and len(x) == 2:
                scores[..., past:] += _PAIR_BIAS
            probs = _softmax_rows(scores)
            ctx = probs @ heads_kv[:, i, 1].transpose(1, 0, 2)
            attn = ctx.transpose(1, 0, 2).reshape(len(x), hidden) @ out_w
            attn += out_b
            x = _layer_norm(x + attn, ln1_g, ln1_b, self._mean)
            ff = x @ in_w
            ff += in_b
            ff = _gelu(ff) @ ff_w
            ff += ff_b
            x = _layer_norm(x + ff, ln2_g, ln2_b, self._mean)
        return x[-1]
