"""Adam optimizer with bias correction.

Updates are functional: ``adam_step`` returns fresh parameter tensors and
mutates only the optimizer state, keeping parameter tensors immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class AdamState:
    step: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: dict, learning_rate: float = 1e-4) -> AdamState:
    """Fresh state with zero moments and the ``AdamState`` defaults
    beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-8."""
    return AdamState(
        first_moment={name: np.zeros_like(p.data) for name, p in params.items()},
        second_moment={name: np.zeros_like(p.data) for name, p in params.items()},
        learning_rate=learning_rate,
    )


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update; returns (new params, state).

    Missing gradients are rejected, as are any shape disagreements between a
    parameter, its gradient and its moment buffers.

    Zero-gradient rule: wherever an element's gradient is exactly zero, that
    element's parameter and both of its moments stay as they are, as in lazy
    (sparse) Adam; ``state.step`` still advances.  Every other element gets the
    dense update.
    """
    if set(params) != set(grads):
        missing = set(params) ^ set(grads)
        raise ValueError(f"parameter/gradient name mismatch: {sorted(missing)}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    updated = {}
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        if not (p.data.shape == g.shape == m.shape == v.shape):
            raise ValueError(
                f"shape mismatch for '{name}': param {p.data.shape}, grad {g.shape}, "
                f"moments {m.shape}/{v.shape}"
            )
        m_next = b1 * m + (1.0 - b1) * g
        v_next = b2 * v + (1.0 - b2) * (g * g)
        step = state.learning_rate * (m_next / bias1) / (np.sqrt(v_next / bias2) + state.epsilon)
        if not g.all():
            idle = g == 0
            m_next = np.where(idle, m, m_next)
            v_next = np.where(idle, v, v_next)
            step = np.where(idle, 0.0, step)
        state.first_moment[name] = m_next
        state.second_moment[name] = v_next
        updated[name] = Tensor.parameter((p.data - step).astype(p.data.dtype, copy=False))
    return updated, state
