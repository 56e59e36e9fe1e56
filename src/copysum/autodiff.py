"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and single-threaded: an op builds one graph node
holding a vector-Jacobian-product closure, and ``backward`` on a scalar loss
walks the graph once in reverse topological order. Gradients accumulate into
leaf ``Parameter`` objects; intermediate nodes keep nothing between passes,
so calling ``backward`` twice without ``zero_grad`` doubles parameter grads
(and nothing else).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that numpy broadcasting introduced, back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 ndarray. ``_vjp`` maps the upstream gradient
    to per-parent gradients; it is None for leaves and constants.
    """

    __slots__ = ("data", "_parents", "_vjp")

    def __init__(self, values):
        self.data = np.asarray(values, dtype=np.float64)
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Add this scalar's gradient into every reachable ``Parameter``."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        upstream: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            grad = upstream.pop(id(node), None)
            if grad is None:
                continue
            if isinstance(node, Parameter):
                node.grad += grad
            if node._vjp is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(grad)):
                if pgrad is None:
                    continue
                key = id(parent)
                # never in place: a vjp may hand out views of its upstream
                # gradient, so one parent's stored gradient can alias another's
                upstream[key] = upstream[key] + pgrad if key in upstream else pgrad

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """A trainable leaf: named, decay-exempt or not, and the only holder of a
    gradient, which ``backward`` adds into and ``zero_grad`` clears."""

    __slots__ = ("name", "decay_exempt", "grad")

    def __init__(self, values, name: str = "", decay_exempt: bool = False):
        super().__init__(values)
        self.name = name
        self.decay_exempt = decay_exempt
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _on_grad_path(t: Tensor) -> bool:
    return isinstance(t, Parameter) or bool(t._parents)


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Wrap an op result; ops off the grad path stay leaf-like constants."""
    out = Tensor(data)
    if any(_on_grad_path(p) for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    data = a.data + b.data

    def vjp(u):
        return tuple(
            _unbroadcast(u, t.data.shape) if _on_grad_path(t) else None for t in (a, b)
        )

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    data = a.data * b.data

    def vjp(u):
        return (
            _unbroadcast(u * b.data, a.data.shape) if _on_grad_path(a) else None,
            _unbroadcast(u * a.data, b.data.shape) if _on_grad_path(b) else None,
        )

    return _make(data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` broadcast over the rows when given."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError("matmul operands must be at least 2-D")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        data += bias.data
        parents = (a, b, bias)

    def vjp(u):
        ga = _unbroadcast(u @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ u, b.data.shape)
        if bias is None:
            return (ga, gb)
        return (ga, gb, _unbroadcast(u, bias.data.shape))

    return _make(data, parents, vjp)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(u):
        return (np.transpose(u, inverse),)

    return _make(data, (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)
    original = a.data.shape

    def vjp(u):
        return (u.reshape(original),)

    return _make(data, (a,), vjp)


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())
    shape = a.data.shape

    def vjp(u):
        return (np.broadcast_to(u, shape).copy(),)

    return _make(data, (a,), vjp)


# -- nonlinearities and normalization -------------------------------------
# Each op's forward is a plain-array kernel (``*_values``); the graph ops
# wrap them, and the graph-free decode scorer calls them directly.


def gelu_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (erf) GELU of ``x`` and the normal CDF at ``x``, ``(out, cdf)``."""
    cdf = x / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu(a: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact (erf) form."""
    x = a.data
    data, cdf = gelu_values(x)

    def vjp(u):
        grad = -0.5 * x
        grad *= x
        np.exp(grad, out=grad)
        grad /= math.sqrt(2.0 * math.pi)  # the normal pdf at x
        grad *= x
        grad += cdf
        grad *= u
        return (grad,)

    return _make(data, (a,), vjp)


def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x`` less its row maxima, their exponentials, and those summed per row.

    Rows run along the last axis; the sums keep it, with length 1.
    """
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return shifted, exp, np.add.reduce(exp, axis=-1, keepdims=True)


def _require_finite(x: np.ndarray, op: str) -> None:
    # count_nonzero costs less than .all() on the few scores a decode step checks
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NumericError(f"{op} input contains non-finite values")


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Normalized exponentials of ``x`` along its last axis, unchecked."""
    _, out, total = _shifted_exp(x)
    out /= total
    return out


def _softmax_vjp(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient at the input of ``softmax_values`` with output ``out``, for upstream ``u``."""
    inner = (u * out).sum(axis=-1, keepdims=True)
    return out * (u - inner)


def softmax(a: Tensor) -> Tensor:
    """Normalized exponentials along the last axis; rejects non-finite input."""
    _require_finite(a.data, "softmax")
    data = softmax_values(a.data)
    return _make(data, (a,), lambda u: (_softmax_vjp(u, data),))


def log_softmax_values(logits: np.ndarray) -> np.ndarray:
    """Plain-array log-softmax along the last axis; rejects non-finite input."""
    _require_finite(logits, "log_softmax")
    shifted, _, total = _shifted_exp(logits)
    shifted -= np.log(total)
    return shifted


LN_EPS = 1e-6  # added to the variance before its square root


@functools.lru_cache(maxsize=None)
def _mean_column(n: int) -> np.ndarray:
    """A read-only (n, 1) column of 1/n: ``x @ it`` is the mean of x's rows."""
    column = np.full((n, 1), 1.0 / n)
    column.flags.writeable = False
    return column


def layer_norm_values(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis, ``(out, xhat, std)``.

    ``xhat`` is ``x`` at zero mean and unit variance, ``std`` the
    ``sqrt(var + LN_EPS)`` it was divided by, and ``out = xhat * gain + bias``.
    Row means are matrix products with a column of 1/n, which costs less
    than numpy's reductions on the one or two rows a decode step runs.
    """
    column = _mean_column(x.shape[-1])
    xhat = x - x @ column
    std = (xhat * xhat) @ column
    std += LN_EPS
    np.sqrt(std, out=std)
    xhat /= std
    out = xhat * gain
    out += bias
    return out, xhat, std


def _layer_norm_vjp(u: np.ndarray, xhat: np.ndarray, std: np.ndarray, gain: np.ndarray):
    """Gradients of ``layer_norm_values`` for upstream ``u``: ``(input, gain, bias)``."""
    lead = tuple(range(u.ndim - 1))
    ggain = (u * xhat).sum(axis=lead) if lead else u * xhat
    gbias = u.sum(axis=lead) if lead else u.copy()
    column = _mean_column(xhat.shape[-1])
    dxhat = u * gain
    dx = dxhat - dxhat @ column
    dx -= xhat * ((dxhat * xhat) @ column)
    dx /= std
    return dx, ggain, gbias


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    data, xhat, std = layer_norm_values(a.data, gain.data, bias.data)
    return _make(data, (a, gain, bias), lambda u: _layer_norm_vjp(u, xhat, std, gain.data))


def _dropped(x: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    """``x`` scaled by 1 / (1 - rate) where ``keep`` holds and 0 elsewhere, as a
    new array; ``x`` itself when ``keep`` is None. Dropout's forward and its
    gradient both."""
    if keep is None:
        return x
    out = x * (1.0 / (1.0 - rate))
    out *= keep
    return out


def _check_keep(keep: np.ndarray | None, shape: tuple, rate: float) -> None:
    if keep is None:
        return
    if not 0.0 < rate < 1.0:
        raise ContractError("dropout rate must be in (0, 1)")
    if keep.shape != shape:
        raise ContractError(f"dropout mask {keep.shape} does not match {shape}")


def dropout(a: Tensor, keep: np.ndarray | None, rate: float) -> Tensor:
    """Inverted dropout under a drawn boolean ``keep`` mask; identity when None.

    Kept entries are scaled by 1 / (1 - rate). The mask is a constant: it
    gets no gradient, and only its booleans are held for the backward pass.
    """
    if keep is None:
        return a
    _check_keep(keep, a.data.shape, rate)
    return _make(_dropped(a.data, keep, rate), (a,), lambda u: (_dropped(u, keep, rate),))


def residual_layer_norm(x: Tensor, y: Tensor, keep: np.ndarray | None, rate: float,
                        gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm(x + dropout(y, keep, rate), gain, bias)`` as one node.

    The same array operations, in the same order, as those three ops, so
    the same bits forward and backward; the backward pass holds the
    normalized sum, not the sum or the dropped ``y``.
    """
    if x.data.shape != y.data.shape:
        raise ContractError(f"residual shapes differ: {x.data.shape} and {y.data.shape}")
    _check_keep(keep, y.data.shape, rate)
    data, xhat, std = layer_norm_values(x.data + _dropped(y.data, keep, rate), gain.data,
                                        bias.data)

    def vjp(u):
        dx, ggain, gbias = _layer_norm_vjp(u, xhat, std, gain.data)
        return (dx, _dropped(dx, keep, rate), ggain, gbias)

    return _make(data, (x, y, gain, bias), vjp)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, T, h) rows as (B, heads, T, h / heads) views, one per head."""
    size, width, hidden = x.shape
    return x.reshape(size, width, heads, hidden // heads).transpose(0, 2, 1, 3)


def _merge_heads(m: np.ndarray) -> np.ndarray:
    """``_split_heads`` undone, with the prompts' rows stacked: (B * T, h)."""
    size, heads, width, head = m.shape
    return m.transpose(0, 2, 1, 3).reshape(size * width, heads * head)


def attention_values(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias: np.ndarray,
                     heads: int, keep: np.ndarray | None = None, rate: float = 0.0):
    """Multi-head scaled dot-product attention, ``(context, probs, dropped)``.

    ``q`` is (B, Tq, h), ``k`` and ``v`` (B, Tk, h), Tq <= Tk; ``bias``
    (0 where a row may attend, ``MASK_BIAS`` where not) broadcasts against
    the (B, heads, Tq, Tk) scores, and ``keep``, of their shape or None,
    drops probabilities. The context has its heads merged, (B * Tq, h).
    Non-finite scores raise ``NumericError``.
    """
    q4, k4, v4 = _split_heads(q, heads), _split_heads(k, heads), _split_heads(v, heads)
    scores = q4 @ k4.transpose(0, 1, 3, 2)
    scores *= 1.0 / math.sqrt(q4.shape[-1])
    scores += bias
    _require_finite(scores, "attention")
    probs = softmax_values(scores)
    dropped = _dropped(probs, keep, rate)
    return _merge_heads(dropped @ v4), probs, dropped


def attention(q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray,
              keep: np.ndarray | None, rate: float, heads: int) -> Tensor:
    """``attention_values`` as one graph node over (B*T, h) projections.

    ``q``, ``k`` and ``v`` hold example ``b``'s position ``i`` at row
    ``b * T + i``; ``mask_bias`` is (B, 1, T, T). The backward pass runs
    the array operations of the separate reshape, transpose, matmul, scale,
    add, softmax and dropout ops, in their order, so the bits match.
    """
    size, _, width, _ = mask_bias.shape
    rows, hidden = q.data.shape
    head = hidden // heads
    if rows != size * width or hidden != head * heads or not (
            q.data.shape == k.data.shape == v.data.shape):
        raise ContractError(
            f"attention over {q.data.shape}, {k.data.shape}, {v.data.shape} projections "
            f"does not fit a {mask_bias.shape} mask and {heads} heads"
        )
    _check_keep(keep, (size, heads, width, width), rate)
    q3, k3, v3 = (t.data.reshape(size, width, hidden) for t in (q, k, v))
    data, probs, dropped = attention_values(q3, k3, v3, mask_bias, heads, keep, rate)

    def vjp(u):
        q4, k4, v4, g = (_split_heads(t, heads) for t in (q3, k3, v3, u.reshape(q3.shape)))
        gv = np.swapaxes(dropped, -1, -2) @ g
        gscores = _softmax_vjp(_dropped(g @ np.swapaxes(v4, -1, -2), keep, rate), probs)
        gscores *= 1.0 / math.sqrt(head)
        gq = gscores @ k4
        gk = np.swapaxes(q4, -1, -2) @ gscores
        return (_merge_heads(gq), _merge_heads(np.swapaxes(gk, -1, -2)), _merge_heads(gv))

    return _make(data, (q, k, v), vjp)


# -- lookups and gathers ---------------------------------------------------


def _scatter_add_rows(u: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """``n_rows`` rows of zeros with row ``j`` of ``u`` added into row ``idx[j]``.

    ``np.add.at``'s result bit for bit: ``bincount`` also adds its weights
    in input order, here over one flat index per element, at a fraction of
    ``np.add.at``'s cost.
    """
    rest = u.shape[idx.ndim:]
    width = math.prod(rest)
    flat = idx.reshape(-1, 1) * width + np.arange(width)
    sums = np.bincount(flat.reshape(-1), weights=u.reshape(-1), minlength=n_rows * width)
    return sums.reshape((n_rows,) + rest)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise ContractError("embedding id out of range")
    data = weight.data[ids]

    def vjp(u):
        return (_scatter_add_rows(u, ids, weight.data.shape[0]),)

    return _make(data, (weight,), vjp)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0 (duplicates allowed)."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def vjp(u):
        return (_scatter_add_rows(u, idx, a.data.shape[0]),)

    return _make(data, (a,), vjp)


def cross_entropy_from_logits(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Negative log-likelihood of ``targets`` under row-wise softmax(logits).

    ``logits`` is (N, V), ``targets`` (N,) integer ids. Reduction is "mean"
    or "sum" over the N rows. The loss is ``-log_softmax_values`` at the
    targets and its gradient ``softmax_values`` minus the one-hot targets,
    both from one ``_shifted_exp`` of the logits.
    """
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise ContractError("cross entropy expects (N, V) logits and (N,) targets")
    if targets.size == 0:
        raise ContractError("cross entropy over zero rows")
    _require_finite(x, "cross entropy")
    shifted, exp, total = _shifted_exp(x)
    n = x.shape[0]
    rows = np.arange(n)
    losses = np.log(total[:, 0]) - shifted[rows, targets]
    data = np.asarray(losses.mean() if reduction == "mean" else losses.sum())

    def vjp(u):
        p = exp / total
        p[rows, targets] -= 1.0
        scale = u / n if reduction == "mean" else u
        return (p * scale,)

    return _make(data, (logits,), vjp)
