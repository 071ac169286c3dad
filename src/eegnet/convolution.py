"""Same-padding convolutions in 1, 2 and 3 dimensions.

All kernels have spatial extent 3 along every convolved axis, stride 1, and
zero padding of 1 per border, so output spatial extents always equal input
extents.  Kernels are ``(C_out, C_in, 3, ...)``.

One channels-last core does the work.  Activations are ``(B, *spatial, C)``.
The lowering (im2col, Chellapilla et al. 2006) copies the input into a
zero-padded buffer and from there into a ``(B * P, 3**nd * C)`` matrix, P
being the number of positions.  In the padded buffer the last spatial axis
and the channels are contiguous, so each position's taps along that axis
are one strip of ``3 * C`` floats; the copy moves ``3**(nd - 1)`` such
strips per position.  The forward pass is then one matrix product whose
output is already channels-last, and the kernel gradient is
``g.T @ cols``.  The input gradient is never lowered: for each of the
``3**nd`` kernel offsets, ``g @ k[:, :, offset]`` is added into the slice of
a padded buffer that offset read from (col2im, as in the accumulating GEMM
scheme of Anderson et al. 2017, arXiv:1709.03395).

The public ``conv{1,2,3}d_same`` keep a channels-first contract: they take
``(C_in, *spatial)`` or a batch ``(B, C_in, *spatial)`` and return the same
layout, C-contiguous.  The models call the core directly, fused with the
ELU that follows each of their conv layers.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import Tensor, _lift, _op

KERNEL_EXTENT = 3


def _padded(shape: tuple, dtype) -> tuple:
    """A zero channels-last buffer one position larger on every border of
    `shape` = (B, *spatial, C), and the index of its interior."""
    spatial = shape[1:-1]
    buf = np.zeros((shape[0],) + tuple(s + 2 for s in spatial) + (shape[-1],), dtype)
    return buf, (slice(None),) + (slice(1, -1),) * len(spatial)


def _lower(x: np.ndarray) -> np.ndarray:
    """im2col: (B, *spatial, C) -> (B * P, 3**nd * C), columns ordered
    (*offset, C).  `x` may have any strides."""
    batch, *spatial, cin = x.shape
    xp, interior = _padded(x.shape, x.dtype)
    xp[interior] = x
    # taps along the last spatial axis and the channels form one contiguous
    # strip of 3 * C floats in the padded buffer; a view of every position's
    # strip for every offset along the leading spatial axes
    lead = spatial[:-1]
    strips = as_strided(
        xp,
        shape=(batch, *spatial, *(KERNEL_EXTENT,) * len(lead), KERNEL_EXTENT * cin),
        strides=xp.strides[:-1] + xp.strides[1:-2] + xp.strides[-1:],
        writeable=False,
    )
    return strips.reshape(batch * int(np.prod(spatial)), -1)


def _input_grad(g: np.ndarray, k: np.ndarray, spatial: tuple) -> np.ndarray:
    """col2im: the channels-last input gradient (B, *spatial, C_in) from the
    pre-activation gradient `g` (B * P, C_out), one matrix product per kernel
    offset, each added into the padded slice that offset read."""
    batch = g.shape[0] // int(np.prod(spatial))
    per_offset = np.moveaxis(k, (0, 1), (-2, -1))  # (*kernel, C_out, C_in)
    dxp, interior = _padded((batch,) + tuple(spatial) + (k.shape[1],), g.dtype)
    part = np.empty((g.shape[0], k.shape[1]), g.dtype)
    shaped = part.reshape(dxp[interior].shape)
    for offset in np.ndindex(per_offset.shape[:-2]):
        np.matmul(g, per_offset[offset], out=part)
        dxp[(slice(None),) + tuple(slice(o, o + s) for o, s in zip(offset, spatial))] += shaped
    return dxp[interior]


def _conv(x: Tensor, k: Tensor, b: Tensor, *, elu: bool, channels_first: bool) -> Tensor:
    """The channels-last core as one tape op: ``x`` (B, *spatial, C_in) to
    ``elu(conv(x, k) + b)`` (ELU only if `elu`), channels-last or, if
    `channels_first`, as a C-contiguous (B, C_out, *spatial).  The node keeps
    the output and the lowered input, not the pre-activation."""
    kd = k.data
    batch, *spatial = x.shape[:-1]
    cout = kd.shape[0]
    cols = _lower(x.data)
    # the kernel as (C_out, 3**nd * C_in), columns ordered (*offset, C_in) as in `cols`
    z = cols @ np.moveaxis(kd, 1, -1).reshape(cout, -1).T
    z += b.data
    if elu:
        ad._elu_values(z, out=z)
    out = z.reshape(batch, *spatial, cout)
    if channels_first:
        out = np.ascontiguousarray(np.moveaxis(out, -1, 1))
    shared = []  # [g, dz]: this backward's upstream and pre-activation gradients

    def dz(g):
        """The (B * P, C_out) pre-activation gradient, once per backward."""
        if not shared or shared[0] is not g:
            d = g
            if elu:
                d = ad._elu_grad(out)
                d *= g
            if channels_first:
                d = np.moveaxis(d, 1, -1)
            shared[:] = [g, np.ascontiguousarray(d).reshape(-1, cout)]
        return shared[1]

    def k_vjp(g):
        dk = (dz(g).T @ cols).reshape((cout,) + (KERNEL_EXTENT,) * len(spatial) + (kd.shape[1],))
        return np.moveaxis(dk, -1, 1)

    def b_vjp(g):
        db = dz(g).sum(axis=0)
        shared.clear()  # b's VJP runs last (_op calls them in input order)
        return db

    return _op(out, (x, k, b), lambda g: _input_grad(dz(g), kd, spatial), k_vjp, b_vjp)


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


def _channels_last(x: Tensor, nd: int) -> Tensor:
    """(B, C, *spatial) -> (B, *spatial, C), as a view."""
    return ad.transpose(x, (0,) + tuple(range(2, 2 + nd)) + (1,))


def _conv_same(x, k, b, nd: int) -> Tensor:
    x, k, b = _lift(x), _lift(k), _lift(b)
    batched = _validate(x, k, b, nd)
    xb = x if batched else ad.reshape(x, (1,) + x.shape)
    out = _conv(_channels_last(xb, nd), k, b, elu=False, channels_first=True)
    return out if batched else ad.reshape(out, out.shape[1:])


def conv1d_same(x, kernels, bias) -> Tensor:
    """(C_in, L) * (C_out, C_in, 3) -> (C_out, L); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 1)


def conv2d_same(x, kernels, bias) -> Tensor:
    """(C_in, H, W) * (C_out, C_in, 3, 3) -> (C_out, H, W); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 2)


def conv3d_same(x, kernels, bias) -> Tensor:
    """(C_in, D, H, W) * (C_out, C_in, 3, 3, 3) -> (C_out, D, H, W); batched with a leading axis."""
    return _conv_same(x, kernels, bias, 3)
