"""Finite-difference verification of every differentiable operation and
architecture.

All checks run in float64 at reduced dimensions (window 3, mesh 4x5,
feature width 8, hidden 6/4, 3 classes, conv maps 2/3/4) so the whole suite
finishes in seconds on a laptop CPU.  Each model check runs
:func:`models.forward_windows` as training does, on two windows over S + 1
frames that share S - 1 of them, given as the frames and a (2, S) index.  The
relative-error metric is |a - b| / max(1e-8, |a| + |b|) per coordinate,
maximized over all inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import convolution, models
from .autodiff import Tensor, backward, softmax_cross_entropy
from .models import ModelConfig, param_init


def finite_diff_check(fn, inputs, eps: float = 1e-4) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn(*inputs)`` must return a scalar tensor and rebuild its graph on
    every call; each input coordinate is perturbed in place by +/-eps and
    restored.
    """
    loss = fn(*inputs)
    if loss.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    backward(loss)
    analytic = [
        (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for t in inputs
    ]
    worst = 0.0
    for t, grad in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(fn(*inputs).data)
            flat[i] = saved - eps
            f_minus = float(fn(*inputs).data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[i]
            worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
    return worst


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


REDUCED = dict(classes=3, window=3, channels=6, mesh_h=4, mesh_w=5,
               fc_width=8, conv_depth=3, lstm_depth=2, conv_maps=(2, 3, 4))


def reduced_config(arch: str, **overrides) -> ModelConfig:
    kw = dict(REDUCED, hidden=4 if arch == "parallel" else 6)
    kw.update(overrides)
    return ModelConfig(arch=arch, **kw)


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    return ad.tensor_sum(ad.mul(out, Tensor.constant(weights)))


def _check_linear(rng):
    x, w, b = _t(rng, 4, 3), _t(rng, 2, 3), _t(rng, 2)
    c = rng.standard_normal((4, 2))
    return finite_diff_check(lambda x, w, b: _weighted_sum(ad.linear(x, w, b), c), [x, w, b])


def _check_gather(rng):
    # row 1 picked three times, row 3 never
    x = _t(rng, 4, 3)
    index = np.array([1, 0, 1, 2, 1])
    c = rng.standard_normal((5, 3))
    return finite_diff_check(lambda x: _weighted_sum(ad.gather(x, index), c), [x])


def _check_conv(nd):
    # one fused conv + bias + ELU node, channels-last in and out
    spatial = {1: (7,), 2: (4, 5), 3: (3, 4, 4)}[nd]

    def run(rng):
        x = _t(rng, 2, *spatial, 2)
        k = _t(rng, 3, 2, *(3,) * nd)
        b = _t(rng, 3)
        c = np.random.default_rng(7).standard_normal((2, *spatial, 3))

        def fn(x, k, b):
            return _weighted_sum(convolution._conv(x, k, b), c)

        # the runs that fail have a coordinate whose gradient nearly cancels
        # (about 1e-7 to 1e-4), where the central difference's rounding
        # error, about 1e-16 |f| / eps, or its eps**2 error is too large a
        # share.  Failed runs of the three ranks by eps, seeds 0-199 (of
        # 600): 3e-6 9, 1e-5 3, 1.5e-5 1, 2e-5 0, 3e-5 2, 5e-5 8, 1e-4 31;
        # seeds 200-599 (of 1200): 1e-5 10, 2e-5 8
        return finite_diff_check(fn, [x, k, b], eps=2e-5)

    return run


def _check_conv_elu(rng):
    # two fused conv + bias + ELU nodes chained as the models chain them
    x = _t(rng, 2, 4, 5, 2)
    k0, b0 = _t(rng, 3, 2, 3, 3), _t(rng, 3)
    k1, b1 = _t(rng, 2, 3, 3, 3), _t(rng, 2)
    c = rng.standard_normal((2, 4, 5, 2))

    def fn(x, k0, b0, k1, b1):
        return _weighted_sum(convolution._conv(convolution._conv(x, k0, b0), k1, b1), c)

    # eps 1e-5: through two ELUs the central differences' eps**2 error at the
    # default 1e-4 reaches a few 1e-6 on some seeds (40 seeds: at most 7e-8 here)
    return finite_diff_check(fn, [x, k0, b0, k1, b1], eps=1e-5)


def _check_elu(rng):
    x = _t(rng, 20)
    c = rng.standard_normal(20)
    return finite_diff_check(lambda x: _weighted_sum(ad.elu(x), c), [x])


def _check_softmax(rng):
    x = _t(rng, 5)
    return finite_diff_check(lambda x: softmax_cross_entropy(x, 2)[0], [x])


def _check_lstm(rng):
    xw, u = _t(rng, 2, 3, 16), _t(rng, 4, 16)
    c = rng.standard_normal((2, 3, 4))
    return finite_diff_check(lambda xw, u: _weighted_sum(ad.lstm(xw, u), c), [xw, u])


def _check_lstm_sequence(rng):
    config = reduced_config("rnn", mid_fc=False, final_fc=False)
    params = param_init(config, seed=5, dtype=np.float64)
    seq = Tensor.constant(rng.standard_normal((2, 3, config.channels)))
    c = rng.standard_normal((2, config.hidden))

    def fn(*_):
        return _weighted_sum(models._lstm_stack(config, params.tensors, seq), c)

    lstm_only = [params.tensors[k] for k in params.tensors if k.startswith("rnn.")]
    return finite_diff_check(fn, lstm_only)


def _check_conv_stack(rng):
    config = reduced_config("cascade")
    params = param_init(config, seed=3, dtype=np.float64)
    # one frame, channels-last (1, h, w, 1)
    frame = Tensor.constant(rng.standard_normal((1, config.mesh_h, config.mesh_w, 1)))
    c = rng.standard_normal((1, config.fc_width))
    stack = [params.tensors[k] for k in params.tensors if k.startswith("cnn.")]

    def fn(*_):
        return _weighted_sum(models._conv_stack(config, params.tensors, frame, None), c)

    return finite_diff_check(fn, stack)


def _check_model(arch: str, values: dict | None = None, **overrides):
    # two windows sharing frames, as overlapping windows do: the conv stack
    # runs each distinct frame once and its gather's VJP sums the shared rows.
    # `values` sets named parameters after param_init
    def run(rng):
        config = reduced_config(arch, **overrides)
        params = param_init(config, seed=11, dtype=np.float64)
        for name, value in (values or {}).items():
            params.tensors[name].data[...] = value
        steps = config.window
        meshes = rng.standard_normal((steps + 1, config.mesh_h, config.mesh_w))
        raw = rng.standard_normal((steps + 1, config.channels))
        index = np.arange(steps) + np.arange(2)[:, None]

        def fn(*_):
            logits = models.forward_windows(params, raw, meshes, mode="eval", index=index)
            return ad.softmax_cross_entropy_batch(logits, np.array([1, 2]))[0]

        return finite_diff_check(fn, list(params.tensors.values()))

    return run


# name -> (runner, tolerance); model checks get the architecture-level bound
CHECKS = {
    "linear": (_check_linear, 1e-6),
    "gather": (_check_gather, 1e-6),
    "conv1d": (_check_conv(1), 1e-6),
    "conv2d": (_check_conv(2), 1e-6),
    "conv3d": (_check_conv(3), 1e-6),
    "conv_elu": (_check_conv_elu, 1e-6),
    "elu": (_check_elu, 1e-6),
    "softmax_ce": (_check_softmax, 1e-6),
    "lstm": (_check_lstm, 1e-5),
    "lstm_sequence": (_check_lstm_sequence, 1e-5),
    "conv_stack": (_check_conv_stack, 1e-4),
    "cascade": (_check_model("cascade"), 1e-4),
    "parallel_cat": (_check_model("parallel", fusion="cat"), 1e-4),
    "parallel_add": (_check_model("parallel", fusion="add"), 1e-4),
    "parallel_cat_fc": (_check_model("parallel", fusion="cat-fc"), 1e-4),
    # param_init starts fuse.weight at zero, where no gradient reaches the
    # spatial path; the check runs at a fixed non-zero weight instead
    "parallel_cat_conv": (_check_model("parallel", {"fuse.weight": (0.7, -1.3)},
                                       fusion="cat-conv"), 1e-4),
    "cnn1d": (_check_model("cnn1d"), 1e-4),
    "cnn2d": (_check_model("cnn2d"), 1e-4),
    "cnn3d": (_check_model("cnn3d"), 1e-4),
    "rnn": (_check_model("rnn"), 1e-4),
}


def run_check(name: str, seed: int = 0) -> CheckResult:
    """Run one finite-difference check, seeded from `seed` and its name."""
    runner, tolerance = CHECKS[name]
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
    return CheckResult(name=name, max_rel_err=runner(rng), tolerance=tolerance)


def run_checks(only: str | None = None, seed: int = 0) -> list:
    """Run the named finite-difference checks (all by prefix match)."""
    names = [n for n in CHECKS if only is None or n.startswith(only)]
    if not names:
        raise ValueError(f"no gradient check matches {only!r}; known: {sorted(CHECKS)}")
    return [run_check(name, seed) for name in names]
