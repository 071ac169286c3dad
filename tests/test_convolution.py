import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegnet import convolution
from eegnet.autodiff import Tensor

from conftest import conv1d_loops, conv2d_loops, conv3d_loops


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def elu(z):
    return np.where(z > 0, z, np.expm1(z))


def conv_frames(x, k, b):
    """`convolution._conv` on channels-first frames (B, C_in, *spatial), fed
    to it channels-last; the result moved back to (B, C_out, *spatial)."""
    return np.moveaxis(convolution._conv(t64(np.moveaxis(x, 1, -1)), t64(k), t64(b)).data, -1, 1)


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 4, 6))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv_frames(x, k, np.zeros(1))
        np.testing.assert_allclose(out, elu(x), atol=1e-15)

    def test_ones_kernel_counts_overlap(self):
        out = conv_frames(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1))[0, 0]
        assert out[1, 1] == 9.0
        for corner in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[corner] == 4.0

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = conv_frames(x[None], k, b)[0]
        assert np.abs(out - elu(conv2d_loops(x, k, b))).max() <= 1e-12

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        batched = conv_frames(x, k, b)
        for i in range(4):
            single = conv_frames(x[i:i + 1], k, b)[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


class TestConv1dConv3d:
    def test_conv1d_delta_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 9))
        k = np.zeros((2, 2, 3))
        k[0, 0, 1] = 1.0
        k[1, 1, 1] = 1.0
        out = conv_frames(x, k, np.zeros(2))
        np.testing.assert_allclose(out, elu(x), atol=1e-15)

    def test_conv3d_ones_center(self):
        out = conv_frames(np.ones((1, 1, 3, 3, 3)), np.ones((1, 1, 3, 3, 3)), np.zeros(1))
        assert out[0, 0, 1, 1, 1] == 27.0

    def test_conv1d_matches_loops(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8))
        k = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal(2)
        out = conv_frames(x[None], k, b)[0]
        assert np.abs(out - elu(conv1d_loops(x, k, b))).max() <= 1e-12

    def test_conv3d_matches_loops(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        k = rng.standard_normal((2, 2, 3, 3, 3))
        b = rng.standard_normal(2)
        out = conv_frames(x[None], k, b)[0]
        assert np.abs(out - elu(conv3d_loops(x, k, b))).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    spatial=st.lists(st.integers(1, 7), min_size=1, max_size=3),
)
def test_same_padding_preserves_spatial_extents(cin, cout, spatial):
    nd = len(spatial)
    rng = np.random.default_rng(42)
    x = t64(rng.standard_normal((2, *spatial, cin)))
    k = t64(rng.standard_normal((cout, cin) + (3,) * nd))
    b = t64(np.zeros(cout))
    assert convolution._conv(x, k, b).shape == (2, *spatial, cout)


def test_time_constant_3d_kernel_reduces_to_2d():
    """A 3D conv whose kernel is constant along time, applied to a window of
    identical frames, is the 2D conv scaled by the number of time taps that
    land on data: 3 at interior steps, 2 at the window's first/last step.  A
    positive frame and kernel keep every pre-activation positive, where the
    ELU is the identity."""
    rng = np.random.default_rng(6)
    frame = np.abs(rng.standard_normal((4, 5)))
    k2 = np.abs(rng.standard_normal((2, 1, 3, 3)))
    k3 = np.repeat(k2[:, :, None, :, :], 3, axis=2)  # (2, 1, 3, 3, 3)
    steps = 6
    window = np.broadcast_to(frame, (steps, 4, 5))[None, None]  # (1, 1, S, h, w)
    out3 = conv_frames(window, k3, np.zeros(2))[0]
    out2 = conv_frames(frame[None, None], k2, np.zeros(2))[0]
    for s in range(steps):
        factor = 2.0 if s in (0, steps - 1) else 3.0
        np.testing.assert_allclose(out3[:, s], factor * out2, atol=1e-12)


class TestBlockedCore:
    """The core walks the batch in blocks of frames sized by
    `_BLOCK_BYTES`; the blocks must change neither the results nor the
    dtype, and the node must not keep a lowered matrix.  Given `strided`,
    the input and the output gradient arrive as non-contiguous views,
    channels-first arrays seen channels-last."""

    SPATIAL = {1: (5,), 2: (4, 5), 3: (3, 4, 4)}

    @staticmethod
    def _run(nd, x_grad, strided, dtype, batch=7, cin=2, cout=3):
        rng = np.random.default_rng(30 + nd)
        spatial = TestBlockedCore.SPATIAL[nd]

        def draw(channels):
            a = rng.standard_normal((batch, channels, *spatial) if strided
                                    else (batch, *spatial, channels))
            return np.moveaxis(a, 1, -1) if strided else a

        x = Tensor(draw(cin), dtype, requires_grad=x_grad)
        k = Tensor(rng.standard_normal((cout, cin) + (3,) * nd), dtype, requires_grad=True)
        b = Tensor(rng.standard_normal(cout), dtype, requires_grad=True)
        assert x.data.flags.c_contiguous != strided
        out = convolution._conv(x, k, b)
        out._backward(draw(cout).astype(dtype))
        return out.data, x.grad, k.grad, b.grad

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_blocks_do_not_change_results(self, monkeypatch, nd, x_grad, strided, frames):
        monkeypatch.setattr(convolution, "_BLOCK_BYTES", 1 << 40)
        whole = self._run(nd, x_grad, strided, np.float64)
        # `frames` frames of the lowered 3 output channels: the forward,
        # lowering 2 channels, walks blocks of 1 or 4, and so does the
        # backward of a constant x; given x_grad, the backward also lowers
        # the 3 channels of dz and walks blocks of `frames`
        frame = int(np.prod(self.SPATIAL[nd])) * 3 ** nd * 3 * 8
        monkeypatch.setattr(convolution, "_BLOCK_BYTES", frames * frame)
        blocked = self._run(nd, x_grad, strided, np.float64)
        assert (blocked[1] is None) == (whole[1] is None) == (not x_grad)
        for name, got, want in zip(("out", "dx", "dk", "db"), blocked, whole):
            if want is None:
                continue
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("strided", [False, True])
    def test_float32_stays_float32(self, monkeypatch, strided):
        monkeypatch.setattr(convolution, "_BLOCK_BYTES", 1)
        for array in self._run(2, True, strided, np.float32):
            assert array.dtype == np.float32

    def test_float32_input_with_float64_kernel_runs_in_float64(self):
        # the promoted dtype, as autodiff.linear's product: an f32 window
        # through an f64 model is computed, not only returned, in f64
        rng = np.random.default_rng(50)
        x64 = rng.standard_normal((2, 4, 5, 2))
        x = Tensor.constant(x64.astype(np.float32))
        k = Tensor.parameter(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor.parameter(rng.standard_normal(3))
        out = convolution._conv(x, k, b)
        assert out.dtype == np.float64
        want = convolution._conv(Tensor.constant(x64.astype(np.float32).astype(np.float64)), k, b)
        np.testing.assert_array_equal(out.data, want.data)
        out._backward(np.ones(out.shape))
        assert k.grad.dtype == b.grad.dtype == np.float64

    @staticmethod
    def _traced(batch):
        """Bytes retained by a (batch, 10, 11) 32 -> 64 channel fused conv
        after its forward, the traced peak of its forward and backward, and
        its output's bytes."""
        rng = np.random.default_rng(40)
        x = Tensor.parameter(rng.standard_normal((batch, 10, 11, 32)).astype(np.float32))
        k = Tensor.parameter((0.1 * rng.standard_normal((64, 32, 3, 3))).astype(np.float32))
        b = Tensor.parameter(np.zeros(64, np.float32))
        g = rng.standard_normal((batch, 10, 11, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            out = convolution._conv(x, k, b)
            retained = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return retained, peak, out.data.nbytes

    def test_node_keeps_no_lowered_matrix(self):
        retained, _, out_bytes = self._traced(64)
        # the lowered input would be 4.5 times the output
        assert retained <= out_bytes + (64 << 10)

    def test_peak_grows_with_the_output_not_the_lowering(self):
        _, small, _ = self._traced(64)
        _, large, out_bytes = self._traced(256)
        per_frame = (large - small) / 192
        # what grows is the output and the input gradient, 1.5 outputs per
        # frame; a stored lowering would add 4.5 more
        assert per_frame <= 2 * out_bytes / 256
