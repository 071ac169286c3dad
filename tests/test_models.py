import tracemalloc

import numpy as np
import pytest

from eegnet import autodiff as ad
from eegnet import convolution, models
from eegnet.autodiff import Tensor, backward
from eegnet.gradcheck import reduced_config
from eegnet.models import ModelConfig, canonical_config, param_init

from conftest import CONV_LOOPS


def make_segment(config, seed=0, dtype=np.float64):
    """One window's (raw, meshes) arrays, (S, n) and (S, h, w)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((config.window, config.channels)).astype(dtype)
    meshes = rng.standard_normal((config.window, config.mesh_h, config.mesh_w)).astype(dtype)
    return raw, meshes


def one_window(config):
    """The (1, S) frame index of a batch that is one window's S frames."""
    return np.arange(config.window)[None]


def frame_features(params, frame):
    """The conv stack's (F,) features of one (h, w) frame, in eval mode."""
    x = Tensor.constant(np.asarray(frame)[None, ..., None])
    return models._conv_stack(params.config, params.tensors, x, None).data[0]


def zero_biases(params):
    for name, t in params.tensors.items():
        if name.endswith(".bias") or name.endswith(".b"):
            params.tensors[name] = Tensor.parameter(np.zeros_like(t.data))
    return params


class TestModelConfig:
    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelConfig(arch="mlp")

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            ModelConfig(arch="parallel", fusion="mean")

    def test_keep_prob_bounds(self):
        with pytest.raises(ValueError, match="keep"):
            ModelConfig(arch="cascade", keep_prob=0.0)
        with pytest.raises(ValueError, match="keep"):
            ModelConfig(arch="cascade", keep_prob=1.2)

    def test_conv_maps_must_be_positive(self):
        with pytest.raises(ValueError, match="conv_maps entries must be >= 1"):
            ModelConfig(arch="cascade", conv_maps=(0, 3, 4))

    def test_conv_depth_needs_map_counts(self):
        with pytest.raises(ValueError, match="feature-map"):
            ModelConfig(arch="cascade", conv_depth=4)

    def test_canonical_hidden_sizes(self):
        assert canonical_config("cascade").hidden == 64
        assert canonical_config("parallel").hidden == 16
        assert canonical_config("cascade").fc_width == 1024
        assert canonical_config("cascade").conv_maps == (32, 64, 128)

    def test_conv_maps_stored_as_tuple(self):
        # a JSON config or checkpoint header gives a list
        config = ModelConfig(arch="cascade", conv_maps=[2, 3, 4])
        assert config.conv_maps == (2, 3, 4) and isinstance(config.conv_maps, tuple)
        assert config == ModelConfig(arch="cascade", conv_maps=(2, 3, 4))


class TestParamInit:
    def test_same_seed_bitwise_identical(self):
        config = reduced_config("cascade")
        a = param_init(config, seed=7)
        b = param_init(config, seed=7)
        assert a.tensors.keys() == b.tensors.keys()
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_different_seed_differs(self):
        config = reduced_config("cascade")
        a = param_init(config, seed=1)
        b = param_init(config, seed=2)
        assert any(not np.array_equal(a.tensors[k].data, b.tensors[k].data)
                   for k in a.tensors)

    def test_canonical_cascade_parameter_count_frozen(self):
        # independent shape walk over the published structure:
        # conv 1->32->64->128 (3x3 kernels), FC 128*10*11 -> 1024,
        # 2 LSTM layers of hidden 64 (4 fused gates), FC 64 -> 1024, 1024 -> 5
        conv = (32 * 1 * 9 + 32) + (64 * 32 * 9 + 64) + (128 * 64 * 9 + 128)
        fc = 128 * 10 * 11 * 1024 + 1024
        lstm1 = 1024 * 4 * 64 + 64 * 4 * 64 + 4 * 64
        lstm2 = 64 * 4 * 64 + 64 * 4 * 64 + 4 * 64
        head = (64 * 1024 + 1024) + (1024 * 5 + 5)
        expected = conv + fc + lstm1 + lstm2 + head
        assert expected == 14_895_109
        params = param_init(canonical_config("cascade"), seed=0)
        assert sum(t.size for t in params.tensors.values()) == expected

    def test_forget_gate_bias_one_other_biases_zero(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=0)
        d = config.hidden
        b = params.tensors["rnn.l0.b"].data
        np.testing.assert_array_equal(b[d:2 * d], np.ones(d))
        np.testing.assert_array_equal(b[:d], np.zeros(d))
        np.testing.assert_array_equal(b[2 * d:], np.zeros(2 * d))
        np.testing.assert_array_equal(params.tensors["cnn.fc.bias"].data, 0.0)

    def test_values_finite_and_within_bounds(self):
        config = reduced_config("parallel", fusion="cat-fc")
        params = param_init(config, seed=3)
        for name, t in params.tensors.items():
            assert np.all(np.isfinite(t.data)), name
            if name.endswith(".bias") or name.endswith(".b"):
                continue
            if name.endswith(".kernel"):
                recept = int(np.prod(t.data.shape[2:]))
                bound = np.sqrt(6.0 / (t.data.shape[1] * recept + t.data.shape[0] * recept))
            elif ".l" in name and name.endswith(".w"):  # stored (4·hidden, in)
                bound = np.sqrt(6.0 / (t.data.shape[1] + config.hidden))
            elif ".l" in name and name.endswith(".u"):
                bound = np.sqrt(6.0 / (2 * config.hidden))
            else:
                bound = np.sqrt(6.0 / (t.data.shape[0] + t.data.shape[1]))
            assert np.abs(t.data).max() <= bound, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("arch, fusion", [(a, "cat") for a in models.ARCHITECTURES
                                              if a != "parallel"]
                             + [("parallel", f) for f in models.FUSIONS])
    def test_chunked_draws_equal_whole_array_draws(self, monkeypatch, arch, fusion, dtype):
        # reference: each weight drawn as one float64 array, then cast; 7
        # values a chunk splits the tensors mid-way
        config = reduced_config(arch, fusion=fusion)
        monkeypatch.setattr(models, "_DRAW_CHUNK", 7)
        params = param_init(config, seed=11, dtype=dtype)
        rng = np.random.default_rng(11)
        d = config.hidden
        for name, shape, kind in models._plan(config):
            want = np.zeros(shape)
            if kind == "forget_bias":
                want[d:2 * d] = 1.0
            elif kind != "bias":
                fan_in, fan_out = shape[1], shape[0]
                if kind == "conv":
                    receptive = int(np.prod(shape[2:]))
                    fan_in, fan_out = fan_in * receptive, fan_out * receptive
                elif kind == "lstm_w":
                    fan_out = d
                elif kind == "lstm_u":
                    fan_in, fan_out = d, d
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                if kind == "window_dense":
                    bound /= config.window
                want = rng.uniform(-bound, bound, size=shape)
            got = params.tensors[name].data
            assert got.dtype == dtype and got.tobytes() == want.astype(dtype).tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_peak_is_its_arrays(self, dtype):
        # a whole-array float64 draw and its cast came to 3x the float32
        # arrays and 2x the float64 ones
        config = ModelConfig(arch="cascade", fc_width=2048, hidden=8, conv_maps=(2, 3, 16))
        tracemalloc.start()
        try:
            params = param_init(config, seed=0, dtype=dtype)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(t.data.nbytes for t in params.tensors.values())

    def test_add_fusion_with_unequal_sizes_rejected(self):
        with pytest.raises(ValueError, match="equal feature sizes"):
            reduced_config("parallel", fusion="add", mid_fc=False)


class TestConvStack:
    def test_zero_mesh_zero_biases_gives_zero_features(self):
        config = reduced_config("cascade")
        params = zero_biases(param_init(config, seed=0))
        out = models._step_features(params, np.zeros((1, config.mesh_h, config.mesh_w)),
                                    np.zeros((1, 1), np.intp), None)
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, config.fc_width)))

    def test_output_length_is_fc_width(self):
        params = param_init(canonical_config("cascade"), seed=0)
        rng = np.random.default_rng(0)
        meshes = rng.standard_normal((1, 10, 11)).astype(np.float32)
        out = models._step_features(params, meshes, np.zeros((1, 1), np.intp), None)
        assert out.shape == (1, 1, 1024)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("arch", ["cnn1d", "cnn2d", "cnn3d"])
    def test_matches_composed_public_convs(self, arch, dtype, tol):
        # the fused channels-last stack against elu(convNd_loops(...)) layer
        # by layer, channels-first, then moved channels-last and flattened:
        # the stack cut after each depth, values and gradients
        spatial = models._conv_spatial(reduced_config(arch))
        rng = np.random.default_rng(len(spatial))
        frames = rng.standard_normal((2,) + spatial).astype(dtype)
        x = Tensor.parameter(frames[..., None])
        x_first = Tensor.parameter(frames[:, None])
        for depth in (1, 2, 3):
            config = reduced_config(arch, conv_depth=depth)
            tensors = {name: Tensor.parameter(rng.standard_normal(shape).astype(dtype))
                       for name, shape, _ in models._plan(config) if name.startswith("cnn.conv")}
            width = config.maps[-1] * int(np.prod(spatial))
            weights = Tensor.constant(rng.standard_normal((2, width)).astype(dtype))

            def grads(out, x):
                backward(ad.tensor_sum(ad.mul(out, weights)))
                return [x.grad.reshape(frames.shape)] + [t.grad for t in tensors.values()]

            fused = models._conv_stack(config, tensors, x, None)
            fused_grads = grads(fused, x)
            h = x_first
            for i in range(depth):
                h = loop_conv(h, tensors[f"cnn.conv{i}.kernel"], tensors[f"cnn.conv{i}.bias"])
                h = ad.elu(h)
            composed = ad.reshape(channels_last(h), (2, -1))
            assert fused.data.dtype == fused_grads[0].dtype == dtype
            want = [composed.data] + grads(composed, x_first)
            for a, b in zip([fused.data] + fused_grads, want):
                assert np.abs(a - b).max() <= tol * np.abs(b).max()


def loop_conv(x, k, b):
    """The nested-loop oracle over a channels-first (B, C_in, *spatial) batch
    as a tape op, in float64.  Its VJPs are the oracle's adjoints: the input
    gradient is the oracle run on the upstream gradient with the flipped
    kernel, its channels swapped; the kernel gradient correlates the
    zero-padded input with the upstream gradient, one kernel offset at a
    time."""
    nd = k.ndim - 2
    loops = CONV_LOOPS[nd]
    spatial = x.shape[2:]
    flipped = np.flip(k.data, tuple(range(2, 2 + nd))).swapaxes(0, 1)
    padded = np.pad(x.data, ((0, 0), (0, 0)) + ((1, 1),) * nd)
    axes = [0] + list(range(2, 2 + nd))

    def dk(g):
        out = np.empty(k.shape)
        for offset in np.ndindex(*k.shape[2:]):
            shifted = padded[(slice(None), slice(None))
                             + tuple(slice(o, o + n) for o, n in zip(offset, spatial))]
            out[(slice(None), slice(None)) + offset] = np.tensordot(g, shifted, (axes, axes))
        return out

    return ad._op(np.stack([loops(f, k.data, b.data) for f in x.data]), (x, k, b),
                  lambda g: np.stack([loops(f, flipped, np.zeros(k.shape[1])) for f in g]),
                  dk, lambda g: g.sum(axis=tuple(axes)))


def channels_last(h):
    """A channels-first (B, C, *spatial) tape value moved to (B, *spatial, C)."""
    return ad._op(np.moveaxis(h.data, 1, -1), (h,), lambda g: np.moveaxis(g, -1, 1))


def lstm_reference(steps, tensors, depth, hidden):
    """Hand-unrolled two-gate-matrix LSTM recurrence (independent oracle)."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    seq = [np.asarray(s, dtype=np.float64) for s in steps]
    h = None
    for j in range(depth):
        w = tensors[f"rnn.l{j}.w"].data
        u = tensors[f"rnn.l{j}.u"].data
        b = tensors[f"rnn.l{j}.b"].data
        h = np.zeros((seq[0].shape[0], hidden))
        c = np.zeros_like(h)
        out = []
        for x in seq:
            z = x @ w.T + h @ u + b
            i = sig(z[:, :hidden])
            f = sig(z[:, hidden:2 * hidden])
            g = np.tanh(z[:, 2 * hidden:3 * hidden])
            o = sig(z[:, 3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out.append(h)
        seq = out
    return h


class TestLstm:
    def _params(self, seed=0):
        config = reduced_config("rnn", mid_fc=False, final_fc=False)
        return config, param_init(config, seed=seed, dtype=np.float64)

    @staticmethod
    def _run(steps, params):
        """The stacked LSTM over a list of (B, in) steps."""
        seq = Tensor.constant(np.stack(steps, axis=1))
        return models._lstm_stack(params.config, params.tensors, seq)

    def test_zero_inputs_zero_biases_fixed_point(self):
        config, params = self._params()
        zero_biases(params)
        steps = [np.zeros((2, config.channels)) for _ in range(4)]
        out = self._run(steps, params)
        np.testing.assert_array_equal(out.data, np.zeros((2, config.hidden)))

    def test_single_step_degenerates_to_one_cell_update(self):
        config, params = self._params(seed=2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, config.channels))
        seq_out = self._run([x], params)
        ref = lstm_reference([x], params.tensors, config.lstm_depth, config.hidden)
        np.testing.assert_allclose(seq_out.data, ref, atol=1e-12)

    def test_three_step_sequence_matches_unrolled_oracle(self):
        config, params = self._params(seed=3)
        rng = np.random.default_rng(2)
        steps = [rng.standard_normal((2, config.channels)) for _ in range(3)]
        out = self._run(steps, params)
        ref = lstm_reference(steps, params.tensors, config.lstm_depth, config.hidden)
        assert np.abs(out.data - ref).max() <= 1e-10

    def test_empty_sequence_rejected(self):
        config, params = self._params()
        seq = Tensor.constant(np.zeros((2, 0, config.channels)))
        with pytest.raises(ValueError, match="at least one step"):
            models._lstm_stack(config, params.tensors, seq)


def rows(*vectors):
    """Each vector as a one-row (1, F) constant batch."""
    return [Tensor.constant(np.asarray(v, dtype=np.float64)[None]) for v in vectors]


class TestFuse:
    def _params(self, fusion):
        config = reduced_config("parallel", fusion=fusion)
        return param_init(config, seed=0, dtype=np.float64)

    def test_add_of_opposites_is_zero(self):
        x = np.arange(4.0)
        out = models._fuse(self._params("add"), *rows(x, -x))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_add_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        out = models._fuse(self._params("add"), *rows(x, np.zeros(6)))
        np.testing.assert_array_equal(out.data[0], x)

    def test_concatenate_preserves_inputs_in_order(self):
        a, b = np.arange(3.0), np.arange(10.0, 14.0)
        out = models._fuse(self._params("cat"), *rows(a, b))
        np.testing.assert_array_equal(out.data[0, :3], a)
        np.testing.assert_array_equal(out.data[0, 3:], b)

    def test_concatenate_doubles_size(self):
        out = models._fuse(self._params("cat"), *rows(np.ones(8), np.ones(8)))
        assert out.shape == (1, 16)

    def test_pointwise_conv_with_unit_weights_is_sum(self):
        params = self._params("cat-conv")
        params.tensors["fuse.weight"] = Tensor.parameter(np.array([1.0, 1.0]))
        params.tensors["fuse.bias"] = Tensor.parameter(np.zeros(1))
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        out = models._fuse(params, *rows(a, b))
        np.testing.assert_allclose(out.data[0], a + b, atol=1e-12)

    def test_cat_fc_shape_and_elu(self):
        params = self._params("cat-fc")
        size = 8
        a = np.zeros(size)
        out = models._fuse(params, *rows(a, a))
        assert out.shape == (1, params.config.fc_width)


class TestCascade:
    def test_logit_count_canonical(self):
        config = canonical_config("cascade", window=3)  # short window to keep it fast
        params = param_init(config, seed=0)
        raw, meshes = make_segment(config, dtype=np.float32)
        out = models.forward_windows(params, raw[None], meshes[None])
        assert out.shape == (1, 5)

    def test_eval_mode_deterministic_bitwise(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=1, dtype=np.float64)
        raw, meshes = make_segment(config, seed=5)
        a = models.forward_windows(params, raw[None], meshes[None])
        b = models.forward_windows(params, raw[None], meshes[None])
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_requires_rng(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=1)
        raw, meshes = make_segment(config, dtype=np.float32)
        with pytest.raises(ValueError, match="rng"):
            models.forward_windows(params, raw[None], meshes[None], mode="train")

    def test_degenerates_to_conv_fc_pipeline_when_lstm_is_passthrough(self, monkeypatch):
        # window of 1 with the recurrent stage replaced by identity: the
        # cascade must equal conv stack -> head FC -> logits
        config = reduced_config("cascade", window=1, hidden=8)  # hidden == fc_width
        params = param_init(config, seed=2, dtype=np.float64)
        raw, meshes = make_segment(config, seed=7)
        monkeypatch.setattr(models, "_lstm_stack",
                            lambda config, tensors, seq: seq[:, -1])
        got = models.forward_windows(params, raw[None], meshes[None])
        feats = frame_features(params, meshes[0])
        t = {name: p.data for name, p in params.tensors.items()}
        # dense weights are stored (out, in)
        z = feats @ t["head.fc.weight"].T + t["head.fc.bias"]
        hidden = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
        expected = hidden @ t["head.out.weight"].T + t["head.out.bias"]
        np.testing.assert_allclose(got.data[0], expected, atol=1e-12)

    def test_tape_size_does_not_grow_with_window(self):
        # each LSTM layer is two tape nodes however many steps the window has
        def nodes(window):
            config = reduced_config("cascade", window=window)
            params = param_init(config, seed=0)
            raw, meshes = make_segment(config, dtype=np.float32)
            return tape_nodes(models.forward_windows(params, raw[None], meshes[None],
                                                     mode="train", rng=np.random.default_rng(0)))

        assert nodes(3) == nodes(10)


def tape_nodes(out):
    """The number of tape nodes `out` is built from, itself included."""
    nodes, stack = {}, [out]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    return len(nodes)


def every_frame_conv_stack(config, tensors, x, rng, rows=None):
    """The conv stack run on every window step, shared frames or not: the
    rows of `x` are copied out to the steps first, then the conv layers, the
    flatten, ``elu(cnn.fc)`` and dropout (reference)."""
    if rows is not None:
        x = Tensor.constant(x.data[rows])
    h = x
    for i in range(config.conv_depth):
        h = convolution._conv(h, tensors[f"cnn.conv{i}.kernel"], tensors[f"cnn.conv{i}.bias"])
    feats = ad.elu(ad.linear(ad.reshape(h, (x.shape[0], -1)), tensors["cnn.fc.weight"],
                             tensors["cnn.fc.bias"]))
    return feats if rng is None else ad.dropout(feats, config.keep_prob, rng)


def shared_frame_windows(config, starts, dtype, seed=0):
    """One run of raw and mesh frames, (F, ...), and the (len(starts), S)
    index of the windows cut from it at `starts`, so overlapping starts
    share frames."""
    rng = np.random.default_rng(seed)
    span = max(starts) + config.window
    raw = rng.standard_normal((span, config.channels)).astype(dtype)
    meshes = rng.standard_normal((span, config.mesh_h, config.mesh_w)).astype(dtype)
    return raw, meshes, np.asarray(starts)[:, None] + np.arange(config.window)


class TestDistinctFrames:
    """Given a frame index, the conv stack runs each distinct frame index of
    the batch once and gathers the rows back; results equal running every
    step's frame."""

    @staticmethod
    def _count_conv_frames(monkeypatch):
        seen = []
        conv = convolution._conv

        def counted(x, *args, **kwargs):
            seen.append(x.shape[0])
            return conv(x, *args, **kwargs)

        monkeypatch.setattr(convolution, "_conv", counted)
        return seen

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("arch", ["cascade", "parallel", "cnn2d"])
    def test_matches_every_frame_reference(self, monkeypatch, arch, mode, dtype, tol):
        config = reduced_config(arch, window=10)
        params = param_init(config, seed=4, dtype=dtype)
        # 60 steps in six windows, 30 distinct frames; window 5 repeats window 1
        raw, meshes, index = shared_frame_windows(config, [0, 5, 10, 20, 15, 5], dtype)
        labels = np.arange(6) % config.classes

        def run(params, raw, meshes):
            logits = models.forward_windows(params, raw, meshes, mode,
                                            np.random.default_rng(9) if mode == "train" else None,
                                            index=index)
            backward(ad.softmax_cross_entropy_batch(logits, labels)[0])
            return [logits.data] + [t.grad for t in params.tensors.values()]

        seen = self._count_conv_frames(monkeypatch)
        got = run(params, raw, meshes)
        assert seen[0] == 30
        monkeypatch.setattr(models, "_conv_stack", every_frame_conv_stack)
        want = run(params, raw, meshes)
        assert seen[config.conv_depth] == 60
        # the reference on the same values in f64: in f32 a conv bias
        # gradient that sums cancelling terms is only as close to it as f32
        # rounding allows, for the reference as for the deduplicated stack
        exact = run(models.ModelParams(config, {name: Tensor.parameter(t.data.astype(np.float64))
                                                for name, t in params.tensors.items()}),
                    raw.astype(np.float64), meshes.astype(np.float64))
        for name, a, b, e in zip(["logits", *params.tensors], got, want, exact):
            assert a.dtype == b.dtype == dtype, name
            rounding = np.abs(b - e).max()
            assert np.abs(a - b).max() <= tol * np.abs(b).max() + 2 * rounding, name

    @pytest.mark.parametrize("arch", ["cascade", "parallel", "cnn1d", "cnn2d", "cnn3d", "rnn"])
    def test_index_matches_dense_windows(self, arch):
        # the windows as (B, S, ...) arrays, copied out of the frames
        config = reduced_config(arch, window=4)
        params = param_init(config, seed=5, dtype=np.float64)
        raw, meshes, index = shared_frame_windows(config, [2, 0, 4, 2], np.float64)
        dense = models.forward_windows(params, raw[index], meshes[index])
        got = models.forward_windows(params, raw, meshes, index=index)
        np.testing.assert_allclose(got.data, dense.data, rtol=1e-12, atol=1e-12)

    def test_conv_sees_only_distinct_frames(self, monkeypatch):
        # three chained windows of 4 frames, each sharing half with the last
        config = reduced_config("cascade", window=4)
        params = param_init(config, seed=0)
        raw, meshes, index = shared_frame_windows(config, [0, 2, 4], np.float32)
        seen = self._count_conv_frames(monkeypatch)
        models.forward_windows(params, raw, meshes, index=index)
        assert seen == [8] * config.conv_depth

    def test_input_requiring_gradient_runs_every_row(self, monkeypatch):
        # merging rows would leave the merged rows without their own x.grad
        config = reduced_config("cnn2d")
        tensors = param_init(config, seed=0, dtype=np.float64).tensors
        x = Tensor.parameter(np.ones((4, config.mesh_h, config.mesh_w, 1)))
        seen = self._count_conv_frames(monkeypatch)
        backward(ad.tensor_sum(models._conv_stack(config, tensors, x, None)))
        assert seen[0] == 4
        assert x.grad.shape == x.shape
        np.testing.assert_array_equal(x.grad, np.broadcast_to(x.grad[:1], x.shape))

    def test_negative_zero_frame_not_merged_with_zero(self, monkeypatch):
        # frames merge by index only: equal frames, and a -0.0 frame next to
        # a 0.0 one, at three indices run three times
        config = reduced_config("cnn2d", window=3)
        params = param_init(config, seed=0)
        meshes = np.zeros((3, config.mesh_h, config.mesh_w), np.float32)
        meshes[1, 2, 3] = -0.0
        seen = self._count_conv_frames(monkeypatch)
        models.forward_windows(params, meshes, meshes, index=np.array([[0, 1, 2]]))
        models.forward_windows(params, meshes[None], meshes[None])
        models.forward_windows(params, meshes, meshes, index=np.array([[0, 0, 2]]))
        assert seen[::config.conv_depth] == [3, 3, 2]

    def test_shared_frames_add_one_tape_node(self):
        config = reduced_config("cascade", window=4)
        params = param_init(config, seed=0)

        def nodes(starts):
            raw, meshes, index = shared_frame_windows(config, starts, np.float32)
            return tape_nodes(models.forward_windows(params, raw, meshes, mode="train",
                                                     rng=np.random.default_rng(0), index=index))

        assert nodes([0, 2, 4]) == nodes([0, 4, 8]) + 1


class TestParallel:
    def test_concatenate_feature_length_doubles(self):
        config = reduced_config("parallel", fusion="cat")
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        spatial, temporal = models._parallel_paths(params, raw, meshes, one_window(config), None)
        fused = models._fuse(params, spatial, temporal)
        assert fused.shape == (1, 2 * config.fc_width)
        assert params.tensors["head.out.weight"].shape == (config.classes, 2 * config.fc_width)

    def test_spatial_features_equal_per_step_sum(self):
        config = reduced_config("parallel")
        params = param_init(config, seed=3, dtype=np.float64)
        raw, meshes = make_segment(config, seed=11)
        spatial, _ = models._parallel_paths(params, raw, meshes, one_window(config), None)
        total = np.zeros(config.fc_width)
        for k in range(config.window):
            total += frame_features(params, meshes[k])
        np.testing.assert_allclose(spatial.data[0], total, atol=1e-10)

    def test_frame_shuffle_keeps_spatial_changes_temporal(self):
        config = reduced_config("parallel")
        params = param_init(config, seed=4, dtype=np.float64)
        raw, meshes = make_segment(config, seed=13)
        spatial, temporal = models._parallel_paths(params, raw, meshes, one_window(config), None)
        perm = np.array([2, 0, 1])
        spatial2, temporal2 = models._parallel_paths(params, raw[perm], meshes[perm],
                                                     one_window(config), None)
        np.testing.assert_allclose(spatial2.data, spatial.data, atol=1e-10)
        assert not np.allclose(temporal2.data, temporal.data)

    @pytest.mark.parametrize("fusion", ["cat", "add", "cat-fc", "cat-conv"])
    def test_all_fusions_emit_k_logits(self, fusion):
        config = reduced_config("parallel", fusion=fusion)
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        out = models.forward_windows(params, raw[None], meshes[None])
        assert out.shape == (1, config.classes)


class TestBaselines:
    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d", "cnn3d", "rnn"])
    def test_each_kind_emits_k_logits(self, kind):
        config = reduced_config(kind)
        params = param_init(config, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        # one input of each kind as a one-window batch: a single cnn1d sample
        # or cnn2d mesh is a one-step window.  Each kind reads only its own
        # input, so x serves as raw and meshes.
        shapes = {
            "cnn1d": (1, 1, config.channels),
            "cnn2d": (1, 1, config.mesh_h, config.mesh_w),
            "cnn3d": (1, config.window, config.mesh_h, config.mesh_w),
            "rnn": (1, config.window, config.channels),
        }
        x = rng.standard_normal(shapes[kind])
        out = models.forward_windows(params, x, x)
        assert out.shape == (1, config.classes)

    def test_window_adapter_is_order_invariant_for_per_sample_kinds(self):
        # mean-logit pooling: shuffling frames cannot change 1D/2D decisions
        config = reduced_config("cnn1d")
        params = param_init(config, seed=1, dtype=np.float64)
        raw, meshes = make_segment(config, seed=3)
        logits = models.forward_windows(params, raw[None], meshes[None])
        perm = np.array([1, 2, 0])
        shuffled = models.forward_windows(params, raw[perm][None], meshes[perm][None])
        np.testing.assert_allclose(logits.data, shuffled.data, atol=1e-12)


# Table rows expressed as config variants: cascade conv/FC/LSTM ablations and
# parallel fusion/depth ablations.
CASCADE_VARIANTS = [
    dict(conv_depth=1), dict(conv_depth=2), dict(conv_depth=3),
    dict(mid_fc=False), dict(final_fc=False), dict(lstm_depth=1),
]
PARALLEL_VARIANTS = [
    dict(fusion="cat"), dict(fusion="add"), dict(fusion="cat-fc"),
    dict(fusion="cat-conv"), dict(conv_depth=1), dict(conv_depth=2),
    dict(lstm_depth=1),
]


class TestShapeContract:
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("variant", CASCADE_VARIANTS)
    def test_cascade_variants(self, variant, window):
        config = reduced_config("cascade", window=window, **variant)
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        out = models.forward_windows(params, raw[None], meshes[None])
        assert out.shape == (1, config.classes)

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("variant", PARALLEL_VARIANTS)
    def test_parallel_variants(self, variant, window):
        config = reduced_config("parallel", window=window, **variant)
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        out = models.forward_windows(params, raw[None], meshes[None])
        assert out.shape == (1, config.classes)

    @pytest.mark.parametrize("arch", ["cnn1d", "cnn2d", "cnn3d", "rnn"])
    @pytest.mark.parametrize("window", [1, 4])
    def test_baseline_windows(self, arch, window):
        config = reduced_config(arch, window=window)
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        out = models.forward_windows(params, raw[None], meshes[None])
        assert out.shape == (1, config.classes)

    def test_train_mode_matches_eval_shape(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=0, dtype=np.float64)
        raw, meshes = make_segment(config)
        rng = np.random.default_rng(0)
        out = models.forward_windows(params, raw[None], meshes[None], mode="train", rng=rng)
        assert out.shape == (1, config.classes)
