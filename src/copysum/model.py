"""Decoder-only Transformer over the joint source+summary sequence.

One stack both encodes and generates: source positions attend to the whole
source bidirectionally while summary positions attend causally, which is
what the binary attention mask encodes. The output projection shares
storage with the token embedding (structural tying, not a copy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
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
    position_ids: np.ndarray
    segment_ids: np.ndarray

    @classmethod
    def build(cls, ids, source_len: int) -> "JointSequence":
        ids = np.asarray(ids, dtype=np.int64)
        total = len(ids)
        if not 0 < source_len <= total:
            raise ContractError(f"source_len {source_len} invalid for length {total}")
        segments = np.zeros(total, dtype=np.int64)
        segments[source_len:] = 1
        return cls(
            ids=ids,
            source_len=source_len,
            position_ids=np.arange(total, dtype=np.int64),
            segment_ids=segments,
        )

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
    """Joint sequences right-padded to one width ``T``: every array is (B, T).

    Row ``b`` holds ``lengths[b]`` real tokens. Pad positions carry id 0;
    the attention mask hides their keys from every real row, so they change
    no real state, and no loss ever selects them.
    """

    ids: np.ndarray
    position_ids: np.ndarray
    segment_ids: np.ndarray
    source_lens: np.ndarray
    lengths: np.ndarray

    @classmethod
    def pad(cls, seqs: list[JointSequence]) -> "JointBatch":
        if not seqs:
            raise ContractError("a batch needs at least one sequence")
        width = max(len(seq) for seq in seqs)
        return cls(
            ids=pad_rows([seq.ids for seq in seqs], width),
            position_ids=pad_rows([seq.position_ids for seq in seqs], width),
            segment_ids=pad_rows([seq.segment_ids for seq in seqs], width),
            source_lens=np.array([seq.source_len for seq in seqs], dtype=np.int64),
            lengths=np.array([len(seq) for seq in seqs], dtype=np.int64),
        )

    @classmethod
    def of(cls, seq: "JointSequence | JointBatch") -> "JointBatch":
        """``seq`` itself if it is a batch, else a batch of one."""
        return seq if isinstance(seq, JointBatch) else cls.pad([seq])

    def attention_mask(self) -> np.ndarray:
        """(B, T, T) prefix masks; rows and columns past a length are all 0."""
        size, width = self.ids.shape
        mask = np.zeros((size, width, width))
        for b in range(size):
            t = int(self.lengths[b])
            mask[b, :t, :t] = build_attention_mask(int(self.source_lens[b]), t)
        return mask


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
        if batch.ids.shape[1] > self.config.max_positions:
            raise ContractError(
                f"sequence length {batch.ids.shape[1]} exceeds max_positions "
                f"{self.config.max_positions}"
            )
        if batch.ids.size and batch.ids.max() >= self.config.vocab_size:
            raise ContractError("token id out of vocabulary range")
        tok = ad.embedding(self.tok_emb, batch.ids.reshape(-1))
        pos = ad.embedding(self.pos_emb, batch.position_ids.reshape(-1))
        seg = ad.embedding(self.seg_emb, batch.segment_ids.reshape(-1))
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
        cfg_dict = dict(meta["model_config"])
        cfg_dict["decay_exempt_markers"] = tuple(cfg_dict["decay_exempt_markers"])
        model = cls(ModelConfig(**cfg_dict))
        if set(params) != set(model.params):
            raise ContractError("checkpoint parameter names do not match the model")
        for name, loaded in params.items():
            if loaded.data.shape != model.params[name].data.shape:
                raise ContractError(f"checkpoint shape mismatch for {name!r}")
            model.params[name].data[...] = loaded.data
        return model
