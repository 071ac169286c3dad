"""Adam optimizer with bias correction.

The decay rates and epsilon are Kingma & Ba's fixed values, the module
constants ``BETA1``, ``BETA2`` and ``EPSILON``; the state holds the step,
the two moments and the learning rate.

``adam_step`` updates in place, as Kingma & Ba's Algorithm 1 does: each
new parameter value is written into the array it replaces, both moments are
updated where they lie, and ``state.step`` advances.  A step allocates no
parameter or moment array, only two block-sized scratch buffers, and walks
each tensor in blocks of ``_BLOCK`` elements, so all of a block's passes run
in cache and each element of the gradient, moments and parameter is read
from memory once.  The result is bitwise equal to the whole-array formula.
Parameters change between steps only: a caller whose arrays must stay as
they are steps a copy (``training.train`` copies any parameters it is
given).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Elements per block.  A block's six operands (gradient, both moments, the
# parameter and two scratch buffers) take 1.5 MiB at f32 and 3 MiB at f64,
# so they stay in a 4 MiB L2 cache across all its passes.
_BLOCK = 1 << 16

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    learning_rate: float = 1e-4


def init_adam(params: dict, learning_rate: float = 1e-4) -> AdamState:
    """Fresh state at step 0 with zero moments, allocated zeroed (their
    pages stay untouched until the first update)."""
    return AdamState(
        first_moment={name: np.zeros(p.data.shape, p.data.dtype) for name, p in params.items()},
        second_moment={name: np.zeros(p.data.shape, p.data.dtype) for name, p in params.items()},
        learning_rate=learning_rate,
    )


def _check(params: dict, grads: dict, state: AdamState) -> None:
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient name mismatch: {sorted(missing)}")
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None or v is None:
            raise ValueError(f"no Adam moments for '{name}'")
        if not (p.data.shape == g.shape == m.shape == v.shape):
            raise ValueError(
                f"shape mismatch for '{name}': param {p.data.shape}, grad {g.shape}, "
                f"moments {m.shape}/{v.shape}"
            )
        if not (p.data.dtype == g.dtype == m.dtype == v.dtype):
            raise ValueError(
                f"dtype mismatch for '{name}': param {p.data.dtype}, grad {g.dtype}, "
                f"moments {m.dtype}/{v.dtype}"
            )


def _writable(a: np.ndarray) -> np.ndarray:
    """``a``, or a copy of it if no flat view can write it (not C-contiguous,
    or read-only); the caller puts the result back where ``a`` was held."""
    return a if a.flags.c_contiguous and a.flags.writeable else a.copy()


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update in place; returns (params, state), the
    objects it was given.

    Missing gradients or moments are rejected, as are any shape or dtype
    disagreements between a parameter, its gradient and its moment buffers.
    Every tensor is checked before anything changes, so a rejected call
    leaves the parameters and ``state`` as they were.

    Each parameter's array and both of its moments are updated in place,
    block by block, in the same order of operations as
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p = p - lr*(m/bias1) / (sqrt(v/bias2) + eps)``, so the results are
    bitwise those of that whole-array formula.  An array that no flat view
    can write (not C-contiguous, or read-only) is first replaced by an
    updated copy, on its tensor or in its moment store; the array given is
    then left as it was.

    Zero-gradient rule: wherever an element's gradient is exactly zero, that
    element's parameter and both of its moments stay as they are, as in lazy
    (sparse) Adam; ``state.step`` still advances.  Every other element gets the
    dense update.
    """
    _check(params, grads, state)
    state.step += 1
    t = state.step
    b1, b2, eps = BETA1, BETA2, EPSILON
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    lr = state.learning_rate
    first, second = state.first_moment, state.second_moment
    for name, p in params.items():
        g = grads[name].reshape(-1)
        p.data = _writable(p.data)
        first[name], second[name] = _writable(first[name]), _writable(second[name])
        x, m, v = p.data.reshape(-1), first[name].reshape(-1), second[name].reshape(-1)
        scratch_a = np.empty(min(g.size, _BLOCK), dtype=g.dtype)
        scratch_b = np.empty_like(scratch_a)
        for lo in range(0, g.size, _BLOCK):
            hi = min(lo + _BLOCK, g.size)
            gg, mm, vv = g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            idle = None if gg.all() else np.flatnonzero(gg == 0)
            if idle is not None:
                idle_m, idle_v = mm[idle], vv[idle]
            np.multiply(mm, b1, out=mm)
            np.multiply(gg, 1.0 - b1, out=a)
            np.add(mm, a, out=mm)
            np.multiply(vv, b2, out=vv)
            np.multiply(gg, gg, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(vv, a, out=vv)
            np.divide(mm, bias1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(vv, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            if idle is not None:
                mm[idle], vv[idle], a[idle] = idle_m, idle_v, 0.0
            np.subtract(x[lo:hi], a, out=x[lo:hi])
    return params, state
