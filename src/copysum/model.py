"""Decoder-only Transformer over the joint source+summary sequence.

One stack both encodes and generates: source positions attend to the whole
source bidirectionally while summary positions attend causally, which is
what the binary attention mask encodes. ``PrefixLM.__init__`` alone lays
out the parameters, and decides whether the output projection shares
storage with the token embedding (structural tying, not a copy).
``PromptCache`` runs the same stack for decoding without an autodiff graph,
keeping each record's keys and values between calls; its layer norm, GELU
and softmax are autodiff's own plain-array kernels, the ones the graph ops
of ``forward`` wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, log_softmax_values
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, ContractError

# Additive attention bias for forbidden edges. exp(-1e9) underflows to an
# exact 0.0 in float64, so masked positions contribute nothing at all.
MASK_BIAS = -1e9

# Standard deviation of the normal initial weights
INIT_SCALE = 0.02

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

    def __post_init__(self):
        if min(self.num_layers, self.hidden_size, self.num_heads, self.vocab_size,
               self.max_positions, self.feed_forward_size) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )

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
        """(B, T, T) prefix masks; rows and columns past a length are all 0.

        Row i of example b sees column j iff j <= max(i, source_lens[b] - 1)
        (0-based): source rows see the whole source, summary rows everything
        up to and including themselves.
        """
        cols = np.arange(self.ids.shape[1])
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
    """Binary (total, total) mask of one unpadded sequence: ``JointBatch``'s rule.

    Row i sees column j iff j <= max(i, source_len), indices 1-based.
    """
    if not 0 < source_len <= total_len:
        raise ContractError(
            f"source_len {source_len} must be in 1..total_len {total_len}"
        )
    one = JointBatch(np.zeros((1, total_len), dtype=np.int64), np.array([source_len]),
                     np.array([total_len]))
    return one.attention_mask()[0]


class PrefixLM:
    """Transformer with per-sequence prefix-bidirectional attention.

    ``params`` holds every parameter by name, in creation order; ``emb_ln``
    (gain, bias), ``layers`` (per layer, keyed by the name after ``layer{i}.``)
    and ``out_emb`` (``tok_emb`` itself when tied) hold them by role.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        h, f = config.hidden_size, config.feed_forward_size

        def param(name, shape, init="normal"):
            if init == "normal":
                values = rng.normal(0.0, INIT_SCALE, size=shape)
            elif init == "zeros":
                values = np.zeros(shape)
            else:
                values = np.ones(shape)
            # weights decay; biases and layer-norm gains, which start constant, do not
            p = Parameter(values, name=name, decay_exempt=init != "normal")
            self.params[name] = p
            return p

        self.tok_emb = param("tok_emb", (config.vocab_size, h))
        self.pos_emb = param("pos_emb", (config.max_positions, h))
        self.seg_emb = param("seg_emb", (2, h))
        self.emb_ln = (param("emb_ln_gain", (h,), "ones"), param("emb_ln_bias", (h,), "zeros"))
        layer_layout = []
        for proj in ("q", "k", "v", "out"):
            layer_layout += [(f"attn_{proj}_weight", (h, h), "normal"),
                             (f"attn_{proj}_bias", (h,), "zeros")]
        layer_layout += [
            ("attn_ln_gain", (h,), "ones"), ("attn_ln_bias", (h,), "zeros"),
            ("ff_in_weight", (h, f), "normal"), ("ff_in_bias", (f,), "zeros"),
            ("ff_out_weight", (f, h), "normal"), ("ff_out_bias", (h,), "zeros"),
            ("ff_ln_gain", (h,), "ones"), ("ff_ln_bias", (h,), "zeros"),
        ]
        self.layers = [
            {name: param(f"layer{i}.{name}", shape, init) for name, shape, init in layer_layout}
            for i in range(config.num_layers)
        ]
        if config.tie_embeddings:
            self.out_emb = self.tok_emb
        else:
            self.out_emb = param("out_emb", (config.vocab_size, h))

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

    def _attention(self, x: Tensor, mask_bias: np.ndarray, layer: dict, keep) -> Tensor:
        """Self-attention over (B*T, h) rows; heads work on (B, H, T, d)."""
        cfg = self.config
        n_heads = cfg.num_heads
        head = cfg.hidden_size // n_heads
        size, _, width, _ = mask_bias.shape

        def project(m: Tensor, name: str) -> Tensor:
            return ad.matmul(m, layer[f"attn_{name}_weight"], layer[f"attn_{name}_bias"])

        def split_heads(m: Tensor) -> Tensor:
            return ad.transpose(ad.reshape(m, (size, width, n_heads, head)), (0, 2, 1, 3))

        q, k, v = (split_heads(project(x, name)) for name in ("q", "k", "v"))
        scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(head))
        probs = ad.dropout(ad.softmax(scores + mask_bias), keep, cfg.dropout)
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
        rate = self.config.dropout
        # 0 where allowed, -1e9 where not; one row of keys per example,
        # broadcast over the heads
        mask_bias = ((1.0 - mask) * MASK_BIAS).reshape(size, 1, width, width)
        keep_emb, keep_layers = self._dropout_keeps(batch, rng)
        x = ad.layer_norm(self.embed(batch), *self.emb_ln)
        x = ad.dropout(x, keep_emb, rate)
        for w, (keep_probs, keep_attn, keep_ff) in zip(self.layers, keep_layers):
            attn = ad.dropout(self._attention(x, mask_bias, w, keep_probs), keep_attn, rate)
            x = ad.layer_norm(x + attn, w["attn_ln_gain"], w["attn_ln_bias"])
            ff = ad.gelu(ad.matmul(x, w["ff_in_weight"], w["ff_in_bias"]))
            ff = ad.matmul(ff, w["ff_out_weight"], w["ff_out_bias"])
            x = ad.layer_norm(x + ad.dropout(ff, keep_ff, rate), w["ff_ln_gain"], w["ff_ln_bias"])
        return x

    def predict_logits(self, states: Tensor) -> Tensor:
        """Vocabulary logits from the output projection ``out_emb``."""
        return states @ ad.transpose(self.out_emb, (1, 0))

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        meta = {"schema_version": 1, "model_config": asdict(self.config)}
        save_checkpoint(path, {name: p.data for name, p in self.params.items()}, meta)

    @classmethod
    def load(cls, path) -> "PrefixLM":
        arrays, meta = load_checkpoint(path)
        try:
            cfg_dict = dict(meta["model_config"])
            # older checkpoints also carry INIT_SCALE and DECAY_EXEMPT_MARKERS
            cfg_dict.pop("init_scale", None)
            cfg_dict.pop("decay_exempt_markers", None)
            config = ModelConfig(**cfg_dict)
        except (KeyError, TypeError, ConfigError) as exc:
            raise ContractError(f"{path}: checkpoint has no usable model_config ({exc})") from exc
        model = cls(config)
        if set(arrays) != set(model.params):
            raise ContractError(f"{path}: checkpoint parameter names do not match the model")
        for name, values in arrays.items():
            if values.shape != model.params[name].data.shape:
                raise ContractError(f"{path}: checkpoint shape mismatch for {name!r}")
            model.params[name].data[...] = values
        return model


# -- graph-free inference ------------------------------------------------------

# The per-layer weights ``PromptCache._run`` uses after the fused q/k/v projection
_RUN_WEIGHTS = ("attn_out_weight", "attn_out_bias", "attn_ln_gain", "attn_ln_bias",
                "ff_in_weight", "ff_in_bias", "ff_out_weight", "ff_out_bias",
                "ff_ln_gain", "ff_ln_bias")


class PromptCache:
    """Decode scorer of one record: ``PrefixLM.forward`` without a graph, cached.

    Calling it with a summary prefix (a tuple, or any 1-D sequence of ids)
    returns the ``(V,)`` log-softmax of the vocabulary logits at the
    ``[MASK]`` row of ``prompt_ids + prefix + [MASK]``, where ``prompt_ids``
    is ``[START] source [END]``: the same numbers as ``forward`` with
    dropout off and ``predict_logits`` on the whole prompt, to rounding.
    Calling it with a 2-D block of ``n`` prefixes of one length returns
    ``(n, V)``, row ``j`` for prefix ``j``, from one pass for all of them.

    Source rows attend to the source only and summary rows causally, so
    the keys and values a row feeds to attention never depend on the rows
    after it. The source rows run once, here. A prefix token's keys and
    values, for every layer, are kept in a ``(1, layers, 2h)`` array once a
    call has run that token's row, and ``_paths`` maps each scored prefix
    to the tuple of its tokens' arrays. ``_kv`` has one slot per prompt of
    a call: the source's keys and values, written once per slot, then the
    call's prefix rows and new rows. A call runs ``[MASK]`` and, for
    prefixes not scored before, their last tokens: unscored parents (never,
    in the searches) are scored first, as one block. A block's prefixes
    are all new or all scored before. Only the ``[MASK]`` rows go through
    the last layer's attention and feed-forward and get logits. ``rows``
    counts the rows run.
    """

    __slots__ = ("rows", "_mask_id", "_limit", "_embed", "_layers", "_heads", "_out",
                 "_prompt_len", "_kv", "_paths")

    def __init__(self, model: PrefixLM, prompt_ids, mask_id: int):
        cfg = model.config
        ids = np.asarray(prompt_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
            raise ContractError("token id out of vocabulary range")
        if len(ids) + 1 > cfg.max_positions:
            raise ContractError(
                f"prompt of {len(ids) + 1} tokens exceeds max_positions {cfg.max_positions}"
            )
        self._mask_id = mask_id
        self._limit = cfg.max_positions
        self._embed = tuple(t.data for t in (model.tok_emb, model.pos_emb, model.seg_emb,
                                             *model.emb_ln))
        self._layers = []
        for layer in model.layers:
            w = {name: t.data for name, t in layer.items()}
            # q, k and v in one (h, 3h) projection, then the weights in _run's order
            qkv_w = np.concatenate([w[f"attn_{n}_weight"] for n in "qkv"], axis=1)
            qkv_b = np.concatenate([w[f"attn_{n}_bias"] for n in "qkv"])
            self._layers.append((qkv_w, qkv_b, *(w[name] for name in _RUN_WEIGHTS)))
        self._heads = cfg.num_heads
        self._out = model.out_emb.data
        self.rows = 0
        # (slot, row, layer, keys then values): the k and v columns of the
        # fused projection
        self._prompt_len = len(ids)
        self._kv = np.empty((1, cfg.max_positions, cfg.num_layers, 2 * cfg.hidden_size))
        self._run(self._rows_in(ids, len(ids), 0, 0), self._kv[:, : len(ids)], causal=False)
        self._paths: dict[tuple, tuple] = {(): ()}

    def __call__(self, prefixes) -> np.ndarray:
        if isinstance(prefixes, tuple):
            return log_softmax_values(self._out @ self._states([prefixes])[0])
        try:
            block = np.asarray(prefixes, dtype=np.int64)
        except ValueError as exc:  # ragged rows, or not ids at all
            raise ContractError("a block's prefixes must be ids of one length") from exc
        if block.ndim == 1:
            return self(tuple(block.tolist()))
        if block.ndim != 2 or not len(block):
            raise ContractError(f"a block of prefixes is 2-D and not empty, got {block.shape}")
        return log_softmax_values(self._states(list(map(tuple, block.tolist()))) @ self._out.T)

    def _states(self, prefixes: list[tuple]) -> np.ndarray:
        """Final ``[MASK]`` states after each of ``prefixes`` (one length), ``(n, h)``.

        The prefixes were all scored before, and only their ``[MASK]`` rows
        run, or none was, and their last tokens run too.
        """
        paths = self._paths
        source = self._prompt_len
        past = source + len(prefixes[0])  # rows before [MASK]
        if past >= self._limit:
            raise ContractError(f"prompt of {past + 1} tokens exceeds max_positions {self._limit}")
        kept = [paths.get(prefix) for prefix in prefixes]
        if None not in kept:  # [MASK] rows only
            ids, rows = [self._mask_id] * len(prefixes), 1
        elif kept.count(None) < len(prefixes):
            raise ContractError("a block mixes prefixes scored before with new ones")
        else:  # each prefix's last token, then [MASK]
            kept = [paths.get(prefix[:-1]) for prefix in prefixes]
            if None in kept:
                self._states(list(dict.fromkeys(
                    prefix[:-1] for prefix, path in zip(prefixes, kept) if path is None)))
                kept = [paths[prefix[:-1]] for prefix in prefixes]
            ids, rows = [i for prefix in prefixes for i in (prefix[-1], self._mask_id)], 2
            if min(ids) < 0 or max(ids) >= len(self._embed[0]):
                raise ContractError("token id out of vocabulary range")
            past -= 1
        if len(self._kv) < len(prefixes):
            slots = np.empty((len(prefixes),) + self._kv.shape[1:])
            slots[:, :source] = self._kv[0, :source]
            self._kv = slots
        kv = self._kv[: len(prefixes), : past + rows]
        for j, path in enumerate(kept):
            if path:  # the prefix's own rows, after the source's
                np.concatenate(path, out=kv[j, source:past])
        states = self._run(self._rows_in(ids, rows, past, 1), kv, causal=True)
        if rows == 2:
            for j, (prefix, path) in enumerate(zip(prefixes, kept)):
                paths[prefix] = (*path, kv[j, past:-1].copy())
        return states

    def _rows_in(self, ids, rows: int, position: int, segment: int) -> np.ndarray:
        """Normalized embeddings of ``ids``: prompts' ``rows`` new rows, one
        prompt after another, each prompt's placed from ``position`` on."""
        tok, pos, seg, gain, bias = self._embed
        x = tok.take(ids, axis=0)
        per_prompt = x.reshape(-1, rows, x.shape[1])
        per_prompt += pos[position : position + rows]
        x += seg[segment]
        return ad.layer_norm_values(x, gain, bias)[0]

    def _run(self, x: np.ndarray, kv: np.ndarray, causal: bool):
        """Run the rows ``x`` of n prompts through the stack, writing their keys and values.

        ``kv`` is ``(n, rows attended to, layers, 2h)``: per prompt, its
        stored rows, then one row for each of its new rows, which this
        fills in. ``x`` holds the ``(n * r, h)`` new rows, prompt by prompt.
        Every new row attends to its prompt's stored rows and new ones: to
        all of them, or with ``causal`` (at most a token, then ``[MASK]``)
        to those up to itself. A causal call returns each prompt's last
        row's final state, ``(n, h)``; the source (``causal`` off, one
        prompt) needs only its keys and values, and returns None.
        """
        n, length, n_layers, width = kv.shape
        hidden = width // 2
        heads = self._heads
        size = hidden // heads
        rows = len(x) // n
        past = length - rows
        self.rows += len(x)
        scale = 1.0 / math.sqrt(size)
        # (prompt, row, layer, keys or values, head, d)
        heads_kv = kv.reshape(n, length, n_layers, 2, heads, size)
        for i, (qkv_w, qkv_b, out_w, out_b, attn_gain, attn_bias, in_w, in_b, ff_w, ff_b,
                ff_gain, ff_bias) in enumerate(self._layers):
            qkv = x @ qkv_w
            qkv += qkv_b
            kv[:, past:, i] = qkv[:, hidden:].reshape(n, rows, width)
            if i == n_layers - 1:  # past here only each prompt's last row is read
                if not causal:
                    return None
                x, qkv, rows = x[rows - 1 :: rows], qkv[rows - 1 :: rows], 1
            q = qkv[:, :hidden].reshape(n, rows, heads, size).transpose(0, 2, 1, 3)
            scores = q @ heads_kv[:, :, i, 0].transpose(0, 2, 3, 1)
            scores *= scale
            if causal and rows == 2:  # a prompt's token row does not see its [MASK]
                scores[:, :, 0, -1] += MASK_BIAS
            probs = ad.softmax_values(scores)
            ctx = probs @ heads_kv[:, :, i, 1].transpose(0, 2, 1, 3)
            attn = ctx.transpose(0, 2, 1, 3).reshape(len(x), hidden) @ out_w
            attn += out_b
            attn += x
            x = ad.layer_norm_values(attn, attn_gain, attn_bias)[0]
            ff = x @ in_w
            ff += in_b
            ff = ad.gelu_values(ff)[0] @ ff_w
            ff += ff_b
            ff += x
            x = ad.layer_norm_values(ff, ff_gain, ff_bias)[0]
        return x
