"""Same-padding convolutions in 1, 2 and 3 dimensions.

All kernels have spatial extent 3 along every convolved axis, stride 1, and
zero padding of 1 per border, so output spatial extents always equal input
extents.  The forward pass lowers to a single matrix product via im2col;
the input gradient is itself a same-padding convolution with the kernel
channel-swapped and spatially flipped, so forward and backward share the
same lowering.

Inputs may be single samples ``(C_in, *spatial)`` or batches
``(B, C_in, *spatial)``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _lift, _op

KERNEL_EXTENT = 3


def _lower(x: np.ndarray, nd: int) -> np.ndarray:
    """im2col: (B, C, *spatial) -> (B * prod(spatial), C * 3**nd)."""
    batch, cin = x.shape[:2]
    spatial = x.shape[2:]
    pad = [(0, 0), (0, 0)] + [(1, 1)] * nd
    xp = np.pad(x, pad)
    win = sliding_window_view(xp, (KERNEL_EXTENT,) * nd, axis=tuple(range(2, 2 + nd)))
    # win: (B, C, *spatial, *kernel) -> (B, *spatial, C, *kernel)
    order = (0,) + tuple(range(2, 2 + nd)) + (1,) + tuple(range(2 + nd, 2 + 2 * nd))
    return win.transpose(order).reshape(batch * int(np.prod(spatial)), cin * KERNEL_EXTENT**nd)


def _conv_same_values(x: np.ndarray, k: np.ndarray, nd: int):
    cols = _lower(x, nd)
    out = cols @ k.reshape(k.shape[0], -1).T
    spatial = x.shape[2:]
    out = out.reshape((x.shape[0],) + spatial + (k.shape[0],))
    return np.ascontiguousarray(np.moveaxis(out, -1, 1)), cols


def _validate(x: Tensor, k: Tensor, b: Tensor, nd: int) -> bool:
    if k.ndim != 2 + nd or any(e != KERNEL_EXTENT for e in k.shape[2:]):
        raise ValueError(
            f"conv{nd}d kernel must be (C_out, C_in{', 3' * nd}), got {k.shape}"
        )
    batched = x.ndim == 2 + nd
    if not batched and x.ndim != 1 + nd:
        raise ValueError(f"conv{nd}d input must have {1 + nd} or {2 + nd} dims, got {x.ndim}")
    cin = x.shape[1] if batched else x.shape[0]
    if cin != k.shape[1]:
        raise ValueError(
            f"conv{nd}d channel mismatch: input has {cin} channels, kernel expects {k.shape[1]}"
        )
    if b.shape != (k.shape[0],):
        raise ValueError(f"conv{nd}d bias must have shape ({k.shape[0]},), got {b.shape}")
    return batched


def _conv_same(x, k, b, nd: int) -> Tensor:
    x, k, b = _lift(x), _lift(k), _lift(b)
    batched = _validate(x, k, b, nd)
    xd = x.data if batched else x.data[None]
    kd = k.data
    out, cols = _conv_same_values(xd, kd, nd)
    out += b.data.reshape((k.shape[0],) + (1,) * nd)
    spatial_axes = tuple(range(2, 2 + nd))

    def batch(g):
        return g if batched else g[None]

    def x_vjp(g):
        flipped = np.flip(kd, axis=spatial_axes).swapaxes(0, 1)
        dx = _conv_same_values(np.ascontiguousarray(batch(g)), np.ascontiguousarray(flipped), nd)[0]
        return dx if batched else dx[0]

    def k_vjp(g):
        gmat = np.moveaxis(batch(g), 1, -1).reshape(-1, kd.shape[0])
        return (gmat.T @ cols).reshape(kd.shape)

    return _op(out if batched else out[0], (x, k, b), x_vjp, k_vjp,
               lambda g: batch(g).sum(axis=(0,) + spatial_axes))


def conv1d_same(x, kernels, bias) -> Tensor:
    """(C_in, L) * (C_out, C_in, 3) -> (C_out, L); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 1)


def conv2d_same(x, kernels, bias) -> Tensor:
    """(C_in, H, W) * (C_out, C_in, 3, 3) -> (C_out, H, W); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 2)


def conv3d_same(x, kernels, bias) -> Tensor:
    """(C_in, D, H, W) * (C_out, C_in, 3, 3, 3) -> (C_out, D, H, W); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 3)
