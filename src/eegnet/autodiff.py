"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is built eagerly.  An op is its forward value plus one
vector-Jacobian product (VJP) per input, a function from the upstream
gradient to that input's gradient.  The op hands both to :func:`_op`, which
alone decides whether the result joins the tape (only when some input
requires a gradient) and how each input's gradient is summed: its one
backward closure calls the VJPs of the inputs that require a gradient, in
input order, and adds each result to that input's ``.grad``.  Work that
all of an op's VJPs share goes in `_op`'s `upstream` function, run once per
backward; VJPs keep no state between calls.  A whole LSTM layer is one
such op, :func:`lstm`, whose backward through time is its `upstream`.
Calling :func:`backward` on a scalar node walks the graph once in reverse
topological order, so shared subexpressions accumulate correctly.

Convention: training runs in float32, verification (finite-difference
checking) builds float64 tensors throughout.  Tensors are treated as
immutable once constructed; gradient buffers are rebuilt on every backward
pass, so graphs and parameters can be reused across calls.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_KINDS = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense n-dimensional float array, optionally part of the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_KINDS:
            arr = arr.astype(DEFAULT_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite (got NaN or Inf)")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @classmethod
    def constant(cls, data: np.ndarray) -> "Tensor":
        out = object.__new__(cls)
        out.data = np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    @classmethod
    def parameter(cls, data: np.ndarray) -> "Tensor":
        """Leaf tensor that receives gradients (no validation; internal)."""
        out = cls.constant(data)
        out.requires_grad = True
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def _lift(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor.constant(np.asarray(x, dtype=dtype or DEFAULT_DTYPE))


def _op(out, parents: tuple, *vjps: Callable, upstream: Callable | None = None) -> Tensor:
    """The result of an op with value `out`, inputs `parents` and one VJP
    per input.  With no input requiring a gradient it is a constant, off the
    tape.  Otherwise it is a tape node whose backward adds ``vjps[i](g)`` to
    the gradient of each input i that requires one, in input order; if
    given, ``upstream(g)``, computed once before the VJPs, replaces ``g``
    as their argument.  VJPs must not keep state between calls.  Op results
    skip the finiteness scan, which would dominate training time."""
    # A loop, not any() over a generator: this runs for every op, and the
    # generator alone costs about 0.8 us a call on CPython 3.11.
    for p in parents:
        if p.requires_grad:
            break
    else:
        return Tensor.constant(out)

    def backward(g):
        if upstream is not None:
            g = upstream(g)
        for p, vjp in zip(parents, vjps):
            if p.requires_grad:
                d = vjp(g)
                p.grad = d if p.grad is None else p.grad + d

    node = object.__new__(Tensor)
    node.data = out
    node.grad = None
    node.requires_grad = True
    node._parents = parents
    node._backward = backward
    return node


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a = _lift(a)
    b = _lift(b, a.dtype)
    return _op(a.data + b.data, (a, b),
               lambda g: _unbroadcast(g, a.data.shape),
               lambda g: _unbroadcast(g, b.data.shape))


def mul(a, b) -> Tensor:
    a = _lift(a)
    b = _lift(b, a.dtype)
    return _op(a.data * b.data, (a, b),
               lambda g: _unbroadcast(g * b.data, a.data.shape),
               lambda g: _unbroadcast(g * a.data, b.data.shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer ``x @ w.T + b`` as one node, the weight stored (out, in).

    The product runs as ``(w @ x.T).T``: for a few rows of x, as in one-window
    prediction, OpenBLAS runs this form faster than ``x @ w`` with w stored
    (in, out), or than ``x @ w.T``; a GEMM's speed depends on how its operands
    pack (Goto & van de Geijn 2008).  At training batch sizes all three match."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise ValueError(f"linear shape mismatch: {x.shape} x {w.shape}.T + {b.shape}")
    return _op((w.data @ x.data.T).T + b.data, (x, w, b),
               lambda g: g @ w.data, lambda g: g.T @ x.data, lambda g: g.sum(axis=0))


# ---------------------------------------------------------------------------
# activations
#
# Backward rules live in module-level helpers, looked up when the backward
# runs, so verification harnesses can substitute them (fault injection in
# tests).

def _elu_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """maximum(x, 0) + expm1(minimum(x, 0)), exact on both branches; `out`
    may be `x` itself."""
    neg = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(neg, out=neg)
    out = np.maximum(x, 0.0, out=np.empty_like(x) if out is None else out)
    out += neg
    return out


def _elu_grad(out: np.ndarray) -> np.ndarray:
    """The ELU derivative from its output: 1 where x > 0, exp(x) = out + 1
    elsewhere."""
    d = np.add(out, 1.0, out=np.empty_like(out))
    return np.minimum(d, 1.0, out=d)


def _sigmoid_grad(out: np.ndarray) -> np.ndarray:
    return out * (1.0 - out)


def _tanh_grad(out: np.ndarray) -> np.ndarray:
    return 1.0 - out * out


def elu(x) -> Tensor:
    """Exponential linear unit with alpha = 1."""
    x = _lift(x)
    out = _elu_values(x.data)
    return _op(out, (x,), lambda g: g * _elu_grad(out))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# recurrence

def lstm(xw: Tensor, u: Tensor) -> Tensor:
    """One LSTM layer over a sequence as one node: every step's hidden state,
    (B, S, d), from a zero state.  `xw` (B, S, 4d) is the input projection of
    all steps plus the bias, run before as one :func:`linear` (Appleyard,
    Kočiský & Blunsom 2016); `u` (d, 4d) is the recurrent weight.  The gate
    blocks are input, forget, candidate, output.  Backward through time runs
    once, as `_op`'s `upstream`, and yields both inputs' gradients."""
    xw, u = _lift(xw), _lift(u)
    d = u.shape[0]
    if xw.ndim != 3 or u.shape != (d, 4 * d) or xw.shape[2] != 4 * d:
        raise ValueError(f"lstm shape mismatch: {xw.shape} with recurrent weight {u.shape}")
    batch, steps = xw.shape[:2]
    gates = np.empty_like(xw.data)
    cells = np.empty((batch, steps, d), xw.dtype)
    tanh_cells = np.empty_like(cells)
    hidden = np.empty_like(cells)
    i, f, cand, o = (gates[..., k * d:(k + 1) * d] for k in range(4))
    for s in range(steps):
        z = xw.data[:, s] if s == 0 else xw.data[:, s] + hidden[:, s - 1] @ u.data
        gates[:, s] = _sigmoid_values(z)
        cand[:, s] = np.tanh(z[:, 2 * d:3 * d])
        cells[:, s] = i[:, s] * cand[:, s] + (f[:, s] * cells[:, s - 1] if s else 0.0)
        tanh_cells[:, s] = np.tanh(cells[:, s])
        hidden[:, s] = o[:, s] * tanh_cells[:, s]

    def bptt(g):
        slope = _sigmoid_grad(gates)
        slope[..., 2 * d:3 * d] = _tanh_grad(cand)
        tanh_slope = _tanh_grad(tanh_cells)
        dz = np.empty_like(gates)
        dc = np.zeros((batch, d), gates.dtype)
        for s in range(steps - 1, -1, -1):
            dh = g[:, s] if s == steps - 1 else g[:, s] + dz[:, s + 1] @ u.data.T
            dc += dh * o[:, s] * tanh_slope[:, s]
            dzs = dz[:, s]
            dzs[:, :d] = dc * cand[:, s]
            dzs[:, d:2 * d] = dc * cells[:, s - 1] if s else 0.0
            dzs[:, 2 * d:3 * d] = dc * i[:, s]
            dzs[:, 3 * d:] = dh * tanh_cells[:, s]
            dzs *= slope[:, s]
            dc *= f[:, s]
        du = hidden[:, :-1].reshape(-1, d).T @ dz[:, 1:].reshape(-1, 4 * d)
        return dz, du

    return _op(hidden, (xw, u), lambda grads: grads[0], lambda grads: grads[1], upstream=bptt)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(x: Tensor, shape) -> Tensor:
    x = _lift(x)
    return _op(x.data.reshape(shape), (x,), lambda g: g.reshape(x.data.shape))


def getitem(x: Tensor, idx) -> Tensor:
    """Basic (non-fancy) indexing; backward scatters into zeros."""
    x = _lift(x)

    def vjp(g):
        buf = np.zeros_like(x.data)
        buf[idx] = g
        return buf

    return _op(x.data[idx], (x,), vjp)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows of `x` picked by an int array `index` along axis 0, which may
    repeat a row or leave one out.  The VJP sums the upstream rows of each
    picked row in one fixed order, that of their positions in `index`, so
    the gradient is the same bits on every call: the first of each row's
    occurrences is copied, then the r-th, for r = 1, 2, ..., added as one
    scatter over the rows picked more than r times."""
    x = _lift(x)
    index = np.asarray(index)

    def vjp(g):
        order = np.argsort(index, kind="stable")
        picked, starts, counts = np.unique(index[order], return_index=True, return_counts=True)
        grad = np.zeros(x.data.shape, g.dtype)
        grad[picked] = np.take(g, order[starts], axis=0)
        for r in range(1, counts.max(initial=0)):
            more = counts > r
            grad[picked[more]] += np.take(g, order[starts[more] + r], axis=0)
        return grad

    return _op(np.take(x.data, index, axis=0), (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(_lift(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])
    pieces = [lead + (slice(end - t.data.shape[axis], end),) for t, end in zip(tensors, ends)]
    return _op(out, tensors, *(lambda g, piece=piece: g[piece] for piece in pieces))


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    x = _lift(x)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.data.shape)

    return _op(x.data.sum(axis=axis), (x,), vjp)


def dropout(x: Tensor, keep_prob: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/keep so evaluation needs
    no rescaling.  Callers skip this entirely in eval mode."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep probability must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x
    mask = (rng.random(x.shape) < keep_prob).astype(x.dtype) / x.dtype.type(keep_prob)
    return mul(x, Tensor.constant(mask))


# ---------------------------------------------------------------------------
# softmax cross-entropy

_LOG_CLAMP = 1e-12


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, label: int):
    """Loss and probabilities for a single K-way prediction.

    Returns ``(loss, probs)`` where ``loss`` is a scalar tensor on the tape
    and ``probs`` is a plain array (it does not join the graph).
    """
    logits = _lift(logits)
    z = logits.data
    if z.ndim != 1:
        raise ValueError(f"expected 1-d logits, got shape {z.shape}")
    k = z.shape[0]
    if not 0 <= int(label) < k:
        raise ValueError(f"label {label} out of range for {k} classes")
    label = int(label)
    probs = _softmax_rows(z)
    loss = -np.log(max(probs[label], _LOG_CLAMP))

    def vjp(g):
        d = probs.copy()
        d[label] -= 1.0
        return d * g

    return _op(np.asarray(loss, dtype=z.dtype), (logits,), vjp), probs


def softmax_cross_entropy_batch(logits: Tensor, labels: np.ndarray):
    """Mean cross-entropy over a batch of logits (B, K)."""
    logits = _lift(logits)
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"expected 2-d batched logits, got shape {z.shape}")
    batch, k = z.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels out of range for {k} classes")
    probs = _softmax_rows(z)
    picked = np.clip(probs[np.arange(batch), labels], _LOG_CLAMP, None)

    def vjp(g):
        d = probs.copy()
        d[np.arange(batch), labels] -= 1.0
        return d * (g / batch)

    return _op(np.asarray(-np.log(picked).mean(), dtype=z.dtype), (logits,), vjp), probs


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every tensor reachable from a scalar loss.

    Gradients in the reachable subgraph are reset first, so repeated calls
    (and parameter reuse across training steps) are safe.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {loss.shape}")
    # Iterative post-order DFS: a node joins `topo` only after every one of
    # its parents has joined, so the reversed order runs each node's backward
    # after all of its consumers' backwards (correct for diamond graphs).
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
