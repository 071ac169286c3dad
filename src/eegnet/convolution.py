"""Same-padding convolution + bias + ELU in 1, 2 and 3 dimensions.

One op, :func:`_conv`, does all of it, as one tape node: every conv layer of
the models is a convolution followed by its ELU, so the ELU is always
applied and there is no bare convolution.  All kernels have spatial extent
3 along every convolved axis, stride 1, and zero padding of 1 per border, so
output spatial extents always equal input extents.  Kernels are
``(C_out, C_in, 3, ...)``.

The input and the output are channels-last, ``(B, *spatial, C)``, the
layout the lowering reads and its matrix product writes: one layer's output
is the next layer's input as it stands, and the last layer's flattens to
features ordered (*spatial, C).

Every one of the B frames is convolved on its own, so the op walks the
batch in blocks of whole frames.  Each block is lowered (im2col,
Chellapilla et al. 2006): copied into a zero-padded buffer and from there
into an ``(n * P, 3**nd * C)`` matrix, n being the block's frames and P the
positions per frame.  In the padded buffer the last spatial axis and the
channels are contiguous, so each position's taps along that axis are one
strip of ``3 * C`` floats; the copy moves ``3**(nd - 1)`` such strips per
position.  Both buffers are allocated once per walk and reused by every
block, which is sized so that its columns take about ``_BLOCK_BYTES``: the
lowered matrix of the whole batch never exists, in the spirit of the
low-memory GEMM convolution of Anderson et al. 2017 (arXiv:1709.03395).

All three products go through that one lowering:

- forward: one matrix product per block, written into the block's frames
  of the output, then the bias and the ELU in place there;
- kernel gradient: the block's input is lowered again and ``dz.T @ cols``
  is added into the gradient.  Recomputing the lowering instead of storing
  it trades a copy for memory, as Chen et al. 2016 (arXiv:1604.06174) do
  for whole layers;
- input gradient: the correlation of the zero-padded pre-activation
  gradient with the flipped kernel, its channels swapped; the block's
  ``dz`` is lowered like an input and multiplied by that kernel once.

The node keeps only its output; its input is on the tape anyway.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor, _op

KERNEL_EXTENT = 3

# Bytes of lowered columns per block.  The canonical conv2 lowers 64 channels
# over a 10x11 mesh, so its forward walks 16 frames at a time at f32; its
# backward, which also lowers the 128 channels of `dz`, walks 8.  Of 1 to
# 16 MiB, 4 MiB ran the canonical conv1 and conv2 fastest on 2 cores.
_BLOCK_BYTES = 4 << 20


def _block_frames(batch: int, spatial: tuple, channels: int, itemsize: int) -> int:
    """Frames per block of a `batch`: as many as keep the lowered columns of
    `channels` within `_BLOCK_BYTES`, at least one and at most `batch`."""
    frame = int(np.prod(spatial)) * KERNEL_EXTENT ** len(spatial) * channels * itemsize
    return max(1, min(batch, _BLOCK_BYTES // frame))


def _lowering(frames: int, spatial: tuple, channels: int, dtype):
    """im2col for up to `frames` channels-last frames at a time: a function
    from (n, *spatial, C), n <= `frames` and any strides, to its
    (n * P, 3**nd * C) lowered matrix, columns ordered (*offset, C).  All
    calls share one zero-padded buffer and one column buffer, so each result
    is valid until the next call."""
    positions = int(np.prod(spatial))
    padded = np.zeros((frames,) + tuple(s + 2 for s in spatial) + (channels,), dtype)
    interior = (slice(None),) + (slice(1, -1),) * len(spatial)
    cols = np.empty((frames * positions, KERNEL_EXTENT ** len(spatial) * channels), dtype)
    # taps along the last spatial axis and the channels form one contiguous
    # strip of 3 * C floats in the padded buffer; a view of every position's
    # strip for every offset along the leading spatial axes
    strips = (*spatial, *(KERNEL_EXTENT,) * (len(spatial) - 1), KERNEL_EXTENT * channels)
    strides = padded.strides[:-1] + padded.strides[1:-2] + padded.strides[-1:]

    def lower(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        padded[:n][interior] = x
        view = as_strided(padded, shape=(n,) + strips, strides=strides, writeable=False)
        out = cols[:n * positions]
        out.reshape(view.shape)[...] = view
        return out

    return lower


def _input_grad(dz: np.ndarray, flipped: np.ndarray, lower) -> np.ndarray:
    """The input gradient (n, *spatial, C_in) of a block from its
    pre-activation gradient `dz` (n, *spatial, C_out): the correlation of the
    zero-padded `dz` with the flipped kernel `flipped` (C_in, 3**nd * C_out),
    one matrix product over `dz`'s lowering by `lower`."""
    return (lower(dz) @ flipped.T).reshape(dz.shape[:-1] + flipped.shape[:1])


def _conv(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """``x`` (B, *spatial, C_in) to ``elu(conv(x, k) + b)`` (B, *spatial,
    C_out) as one tape node, computed in the promoted dtype of `x`, `k` and
    `b`.  The node keeps its output and nothing else.  Its backward runs as
    `_op`'s `upstream`, one walk over the blocks that yields
    ``(dx, dk, db)``; ``dx`` is computed only if `x` requires a gradient."""
    kd = k.data
    batch, *spatial, cin = x.shape
    nd, cout = len(spatial), kd.shape[0]
    # as `autodiff.linear`'s product
    dtype = np.result_type(x.dtype, kd.dtype, b.dtype)
    # the kernel as (C_out, 3**nd * C_in), columns ordered (*offset, C_in) as
    # in the lowering
    kmat = np.moveaxis(kd, 1, -1).reshape(cout, -1)
    out = np.empty((batch, *spatial, cout), dtype)
    frames = _block_frames(batch, spatial, cin, dtype.itemsize)
    lower_x = _lowering(frames, spatial, cin, dtype)
    for lo in range(0, batch, frames):
        z = out[lo:lo + frames].reshape(-1, cout)
        np.matmul(lower_x(x.data[lo:lo + frames]), kmat.T, out=z)
        z += b.data
        ad._elu_values(z, out=z)

    def walk(g):
        frames = _block_frames(batch, spatial, max(cin, cout) if x.requires_grad else cin,
                               dtype.itemsize)
        lower_x = _lowering(frames, spatial, cin, dtype)
        dk = np.zeros((cout, kd[0].size), dtype)
        db = np.zeros(cout, dtype)
        dx = None
        if x.requires_grad:
            dx = np.empty(x.shape, dtype)
            lower_dz = _lowering(frames, spatial, cout, dtype)
            # (C_in, 3**nd * C_out), columns ordered (*offset, C_out)
            flipped = np.moveaxis(np.flip(kd, tuple(range(2, 2 + nd))), 0, -1).reshape(cin, -1)
        for lo in range(0, batch, frames):
            block = slice(lo, lo + frames)
            dz = ad._elu_grad(out[block]) * g[block]
            rows = dz.reshape(-1, cout)
            db += rows.sum(axis=0)
            dk += rows.T @ lower_x(x.data[block])
            if dx is not None:
                dx[block] = _input_grad(dz, flipped, lower_dz)
        dk = np.moveaxis(dk.reshape((cout,) + (KERNEL_EXTENT,) * nd + (cin,)), -1, 1)
        return dx, dk, db

    return _op(out, (x, k, b), lambda grads: grads[0], lambda grads: grads[1],
               lambda grads: grads[2], upstream=walk)
