"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is numpy-backed and single-threaded: an op builds one graph node
holding a vector-Jacobian-product closure, and ``backward`` on a scalar loss
walks the graph once in reverse topological order. Gradients accumulate into
leaf ``Parameter`` objects; intermediate nodes keep nothing between passes,
so calling ``backward`` twice without ``zero_grad`` doubles parameter grads
(and nothing else).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
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

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        """Populate gradients of every reachable leaf for this scalar."""
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
            if node.grad is not None:
                node.grad += grad
            if node._vjp is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(grad)):
                if pgrad is None:
                    continue
                key = id(parent)
                if key in upstream:
                    upstream[key] += pgrad
                else:
                    upstream[key] = pgrad

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(ensure_tensor(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """A trainable leaf: named, gradient-carrying, optionally decay-exempt."""

    __slots__ = ("name", "decay_exempt")

    def __init__(self, values, name: str = "", decay_exempt: bool = False):
        super().__init__(values, requires_grad=True)
        self.name = name
        self.decay_exempt = decay_exempt

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Wrap an op result; ops off the grad path stay leaf-like constants."""
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


# -- arithmetic ----------------------------------------------------------


def _on_grad_path(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


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
    a, b = ensure_tensor(a), ensure_tensor(b)
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
    a = ensure_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(u):
        return (np.transpose(u, inverse),)

    return _make(data, (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = ensure_tensor(a)
    data = a.data.reshape(shape)
    original = a.data.shape

    def vjp(u):
        return (u.reshape(original),)

    return _make(data, (a,), vjp)


def tensor_sum(a: Tensor) -> Tensor:
    a = ensure_tensor(a)
    data = np.asarray(a.data.sum())
    shape = a.data.shape

    def vjp(u):
        return (np.broadcast_to(u, shape).copy(),)

    return _make(data, (a,), vjp)


def tensor_mean(a: Tensor) -> Tensor:
    a = ensure_tensor(a)
    n = a.data.size
    data = np.asarray(a.data.mean())
    shape = a.data.shape

    def vjp(u):
        return (np.broadcast_to(u / n, shape).copy(),)

    return _make(data, (a,), vjp)


# -- nonlinearities and normalization -------------------------------------


def gelu(a: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact (erf) form."""
    a = ensure_tensor(a)
    x = a.data
    cdf = x / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``; rejects non-finite input."""
    a = ensure_tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax input contains non-finite values")
    data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def vjp(u):
        inner = (u * data).sum(axis=axis, keepdims=True)
        return (data * (u - inner),)

    return _make(data, (a,), vjp)


def log_softmax_values(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-array log-softmax (no graph); used on the inference path."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("log_softmax input contains non-finite values")
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a = ensure_tensor(a)
    x = a.data
    n = x.shape[-1]
    # sums divided by n are numpy's means, without their per-call overhead
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(u):
        lead = tuple(range(u.ndim - 1))
        ggain = (u * xhat).sum(axis=lead) if lead else u * xhat
        gbias = u.sum(axis=lead) if lead else u.copy()
        dxhat = u * gain.data
        dx = dxhat - dxhat.sum(axis=-1, keepdims=True) / n
        dx -= xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / n)
        dx *= inv
        return (dx, ggain, gbias)

    return _make(data, (a, gain, bias), vjp)


def dropout(a: Tensor, keep: np.ndarray | None, rate: float) -> Tensor:
    """Inverted dropout under a drawn boolean ``keep`` mask; identity when None.

    Kept entries are scaled by 1 / (1 - rate). The mask is a constant: it
    gets no gradient, and only its booleans are held for the backward pass.
    """
    if keep is None:
        return a
    if not 0.0 < rate < 1.0:
        raise ContractError("dropout rate must be in (0, 1)")
    a = ensure_tensor(a)
    if keep.shape != a.data.shape:
        raise ContractError(f"dropout mask {keep.shape} does not match {a.data.shape}")
    scale = 1.0 / (1.0 - rate)
    data = a.data * scale
    data *= keep

    def vjp(u):
        grad = u * scale
        grad *= keep
        return (grad,)

    return _make(data, (a,), vjp)


# -- lookups and gathers ---------------------------------------------------


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise ContractError("embedding id out of range")
    data = weight.data[ids]

    def vjp(u):
        g = np.zeros_like(weight.data)
        np.add.at(g, ids, u)
        return (g,)

    return _make(data, (weight,), vjp)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0 (duplicates allowed)."""
    a = ensure_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def vjp(u):
        g = np.zeros_like(a.data)
        np.add.at(g, idx, u)
        return (g,)

    return _make(data, (a,), vjp)


def cross_entropy_from_logits(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Negative log-likelihood of ``targets`` under row-wise softmax(logits).

    ``logits`` is (N, V), ``targets`` (N,) integer ids. Reduction is "mean"
    or "sum" over the N rows.
    """
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise ContractError("cross entropy expects (N, V) logits and (N,) targets")
    if targets.size == 0:
        raise ContractError("cross entropy over zero rows")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    lse = np.log(e.sum(axis=-1)) + x.max(axis=-1)
    rows = np.arange(x.shape[0])
    losses = lse - x[rows, targets]
    data = np.asarray(losses.mean() if reduction == "mean" else losses.sum())
    n = x.shape[0]

    def vjp(u):
        p = e / e.sum(axis=-1, keepdims=True)
        p[rows, targets] -= 1.0
        scale = u / n if reduction == "mean" else u
        return (p * scale,)

    return _make(data, (logits,), vjp)
