import numpy as np
import pytest

from eegnet import autodiff as ad
from eegnet import models
from eegnet.autodiff import Tensor, backward
from eegnet.convolution import conv1d_same, conv2d_same, conv3d_same
from eegnet.dataset import WindowSegment
from eegnet.gradcheck import reduced_config
from eegnet.models import (
    ModelConfig,
    baseline_forward,
    canonical_config,
    cascade_forward,
    conv_stack_forward,
    fuse,
    lstm_sequence,
    parallel_features,
    parallel_forward,
    param_init,
)


def make_segment(config, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return WindowSegment(
        raw=rng.standard_normal((config.window, config.channels)).astype(dtype),
        meshes=rng.standard_normal((config.window, config.mesh_h, config.mesh_w)).astype(dtype),
        label=0,
    )


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
        assert params.n_params == expected

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
            elif ".l" in name and name.endswith(".w"):
                bound = np.sqrt(6.0 / (t.data.shape[0] + config.hidden))
            elif ".l" in name and name.endswith(".u"):
                bound = np.sqrt(6.0 / (2 * config.hidden))
            else:
                bound = np.sqrt(6.0 / (t.data.shape[0] + t.data.shape[1]))
            assert np.abs(t.data).max() <= bound, name

    def test_add_fusion_with_unequal_sizes_rejected(self):
        config = reduced_config("parallel", fusion="add", mid_fc=False)
        with pytest.raises(ValueError, match="equal feature sizes"):
            param_init(config, seed=0)


class TestConvStack:
    def test_zero_mesh_zero_biases_gives_zero_features(self):
        config = reduced_config("cascade")
        params = zero_biases(param_init(config, seed=0))
        out = conv_stack_forward(np.zeros((1, config.mesh_h, config.mesh_w)), params)
        np.testing.assert_array_equal(out.data, np.zeros(config.fc_width))

    def test_output_length_is_fc_width(self):
        params = param_init(canonical_config("cascade"), seed=0)
        rng = np.random.default_rng(0)
        out = conv_stack_forward(rng.standard_normal((1, 10, 11)).astype(np.float32), params)
        assert out.shape == (1024,)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("arch", ["cnn1d", "cnn2d", "cnn3d"])
    def test_matches_composed_public_convs(self, arch, dtype, tol):
        # the fused channels-last stack against elu(convNd_same(...)) layer by
        # layer: the stack cut after each depth, values and gradients
        spatial = models._conv_spatial(reduced_config(arch), arch)
        nd = len(spatial)
        conv = {1: conv1d_same, 2: conv2d_same, 3: conv3d_same}[nd]
        rng = np.random.default_rng(nd)
        x = Tensor.parameter(rng.standard_normal((2, 1) + spatial).astype(dtype))
        for depth in (1, 2, 3):
            config = reduced_config(arch, conv_depth=depth)
            tensors = {name: Tensor.parameter(rng.standard_normal(shape).astype(dtype))
                       for name, shape, _ in models._plan(config) if name.startswith("cnn.conv")}
            width = config.maps[-1] * int(np.prod(spatial))
            weights = Tensor.constant(rng.standard_normal((2, width)).astype(dtype))

            def grads(out):
                backward(ad.tensor_sum(ad.mul(out, weights)))
                return [x.grad] + [t.grad for t in tensors.values()]

            fused = models._conv_stack(config, tensors, x, None)
            fused_grads = grads(fused)
            h = x
            for i in range(depth):
                h = ad.elu(conv(h, tensors[f"cnn.conv{i}.kernel"], tensors[f"cnn.conv{i}.bias"]))
            composed = ad.reshape(h, (2, -1))
            assert fused.data.dtype == fused_grads[0].dtype == dtype
            for a, b in zip([fused.data] + fused_grads, [composed.data] + grads(composed)):
                assert np.abs(a - b).max() <= tol * np.abs(b).max()

    def test_wrong_mesh_shape_rejected(self):
        params = param_init(reduced_config("cascade"), seed=0)
        with pytest.raises(ValueError, match="mesh"):
            conv_stack_forward(np.zeros((1, 9, 9)), params)


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
            z = x @ w + h @ u + b
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

    def test_zero_inputs_zero_biases_fixed_point(self):
        config, params = self._params()
        zero_biases(params)
        steps = [np.zeros((2, config.channels)) for _ in range(4)]
        out = lstm_sequence(steps, params)
        np.testing.assert_array_equal(out.data, np.zeros((2, config.hidden)))

    def test_single_step_degenerates_to_one_cell_update(self):
        config, params = self._params(seed=2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, config.channels))
        seq_out = lstm_sequence([x], params)
        ref = lstm_reference([x], params.tensors, config.lstm_depth, config.hidden)
        np.testing.assert_allclose(seq_out.data, ref, atol=1e-12)

    def test_three_step_sequence_matches_unrolled_oracle(self):
        config, params = self._params(seed=3)
        rng = np.random.default_rng(2)
        steps = [rng.standard_normal((2, config.channels)) for _ in range(3)]
        out = lstm_sequence(steps, params)
        ref = lstm_reference(steps, params.tensors, config.lstm_depth, config.hidden)
        assert np.abs(out.data - ref).max() <= 1e-10

    def test_single_vector_inputs_supported(self):
        config, params = self._params(seed=4)
        rng = np.random.default_rng(3)
        steps = [rng.standard_normal(config.channels) for _ in range(3)]
        out = lstm_sequence(steps, params)
        assert out.shape == (config.hidden,)
        ref = lstm_reference([s[None] for s in steps], params.tensors,
                             config.lstm_depth, config.hidden)
        np.testing.assert_allclose(out.data, ref[0], atol=1e-10)

    def test_empty_sequence_rejected(self):
        _, params = self._params()
        with pytest.raises(ValueError, match="at least one step"):
            lstm_sequence([], params)


class TestFuse:
    def _params(self, fusion):
        config = reduced_config("parallel", fusion=fusion)
        return param_init(config, seed=0, dtype=np.float64)

    def test_add_of_opposites_is_zero(self):
        x = np.arange(4.0)
        out = fuse(x, -x, "add")
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_add_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        out = fuse(x, np.zeros(6), "add")
        np.testing.assert_array_equal(out.data, x)

    def test_concatenate_preserves_inputs_in_order(self):
        a, b = np.arange(3.0), np.arange(10.0, 14.0)
        out = fuse(a, b, "cat")
        np.testing.assert_array_equal(out.data[:3], a)
        np.testing.assert_array_equal(out.data[3:], b)

    def test_concatenate_doubles_size(self):
        out = fuse(np.ones(8), np.ones(8), "cat")
        assert out.shape == (16,)

    def test_pointwise_conv_with_unit_weights_is_sum(self):
        params = self._params("cat-conv")
        params.tensors["fuse.weight"] = Tensor.parameter(np.array([1.0, 1.0]))
        params.tensors["fuse.bias"] = Tensor.parameter(np.zeros(1))
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        out = fuse(a, b, "cat-conv", params)
        np.testing.assert_allclose(out.data, a + b, atol=1e-12)

    def test_cat_fc_shape_and_elu(self):
        params = self._params("cat-fc")
        size = 8
        a = np.zeros(size)
        out = fuse(a, a, "cat-fc", params)
        assert out.shape == (params.config.fc_width,)

    def test_size_violation_rejected(self):
        with pytest.raises(ValueError, match="equal sizes"):
            fuse(np.ones(3), np.ones(4), "add")
        with pytest.raises(ValueError, match="equal sizes"):
            fuse(np.ones(3), np.ones(4), "cat-conv")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            fuse(np.ones(3), np.ones(3), "mean")


class TestCascade:
    def test_logit_count_canonical(self):
        config = canonical_config("cascade", window=3)  # short window to keep it fast
        params = param_init(config, seed=0)
        segment = make_segment(config, dtype=np.float32)
        out = cascade_forward(segment, params)
        assert out.shape == (5,)

    def test_eval_mode_deterministic_bitwise(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=1, dtype=np.float64)
        segment = make_segment(config, seed=5)
        a = cascade_forward(segment, params)
        b = cascade_forward(segment, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_requires_rng(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=1)
        segment = make_segment(config, dtype=np.float32)
        with pytest.raises(ValueError, match="rng"):
            cascade_forward(segment, params, mode="train")

    def test_wrong_arch_params_rejected(self):
        config = reduced_config("parallel")
        params = param_init(config, seed=0)
        with pytest.raises(ValueError, match="cascade"):
            cascade_forward(make_segment(config), params)

    def test_degenerates_to_conv_fc_pipeline_when_lstm_is_passthrough(self, monkeypatch):
        # window of 1 with the recurrent stage replaced by identity: the
        # cascade must equal conv stack -> head FC -> logits
        config = reduced_config("cascade", window=1, hidden=8)  # hidden == fc_width
        params = param_init(config, seed=2, dtype=np.float64)
        segment = make_segment(config, seed=7)
        monkeypatch.setattr(models, "_lstm_stack",
                            lambda steps, tensors, depth, hidden: steps[-1])
        got = cascade_forward(segment, params)
        feats = conv_stack_forward(segment.meshes[0][None], params)
        t = params.tensors
        hidden = ad.elu(ad.add(ad.matmul(ad.reshape(feats, (1, -1)), t["head.fc.weight"]),
                               t["head.fc.bias"]))
        expected = ad.add(ad.matmul(hidden, t["head.out.weight"]), t["head.out.bias"])
        np.testing.assert_allclose(got.data, expected.data.reshape(-1), atol=1e-12)


class TestParallel:
    def test_concatenate_feature_length_doubles(self):
        config = reduced_config("parallel", fusion="cat")
        params = param_init(config, seed=0, dtype=np.float64)
        segment = make_segment(config)
        spatial, temporal = parallel_features(segment, params)
        fused = fuse(spatial, temporal, "cat", params)
        assert fused.shape == (2 * config.fc_width,)
        assert params.tensors["head.out.weight"].shape == (2 * config.fc_width, config.classes)

    def test_spatial_features_equal_per_step_sum(self):
        config = reduced_config("parallel")
        params = param_init(config, seed=3, dtype=np.float64)
        segment = make_segment(config, seed=11)
        spatial, _ = parallel_features(segment, params)
        total = np.zeros(config.fc_width)
        for k in range(config.window):
            total += conv_stack_forward(segment.meshes[k][None], params).data
        np.testing.assert_allclose(spatial.data, total, atol=1e-10)

    def test_frame_shuffle_keeps_spatial_changes_temporal(self):
        config = reduced_config("parallel")
        params = param_init(config, seed=4, dtype=np.float64)
        segment = make_segment(config, seed=13)
        spatial, temporal = parallel_features(segment, params)
        perm = np.array([2, 0, 1])
        shuffled = WindowSegment(raw=segment.raw[perm], meshes=segment.meshes[perm],
                                 label=segment.label)
        spatial2, temporal2 = parallel_features(shuffled, params)
        np.testing.assert_allclose(spatial2.data, spatial.data, atol=1e-10)
        assert not np.allclose(temporal2.data, temporal.data)

    def test_features_of_other_arch_params_rejected(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=0)
        with pytest.raises(ValueError, match="'cascade', not 'parallel'"):
            parallel_features(make_segment(config), params)

    @pytest.mark.parametrize("fusion", ["cat", "add", "cat-fc", "cat-conv"])
    def test_all_fusions_emit_k_logits(self, fusion):
        config = reduced_config("parallel", fusion=fusion)
        params = param_init(config, seed=0, dtype=np.float64)
        out = parallel_forward(make_segment(config), params)
        assert out.shape == (config.classes,)


class TestBaselines:
    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d", "cnn3d", "rnn"])
    def test_each_kind_emits_k_logits(self, kind):
        config = reduced_config(kind)
        params = param_init(config, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        shapes = {
            "cnn1d": (config.channels,),
            "cnn2d": (config.mesh_h, config.mesh_w),
            "cnn3d": (config.window, config.mesh_h, config.mesh_w),
            "rnn": (config.window, config.channels),
        }
        out = baseline_forward(rng.standard_normal(shapes[kind]), params, kind)
        assert out.shape == (config.classes,)

    def test_kind_params_mismatch_rejected(self):
        params = param_init(reduced_config("cnn2d"), seed=0)
        with pytest.raises(ValueError, match="cnn1d"):
            baseline_forward(np.zeros(6), params, "cnn1d")

    def test_wrong_input_shape_rejected(self):
        params = param_init(reduced_config("cnn1d"), seed=0)
        with pytest.raises(ValueError, match="shape"):
            baseline_forward(np.zeros(7), params, "cnn1d")

    def test_window_adapter_is_order_invariant_for_per_sample_kinds(self):
        # mean-logit pooling: shuffling frames cannot change 1D/2D decisions
        config = reduced_config("cnn1d")
        params = param_init(config, seed=1, dtype=np.float64)
        segment = make_segment(config, seed=3)
        logits = models.forward_windows(params, segment.raw[None], segment.meshes[None])
        perm = np.array([1, 2, 0])
        shuffled = models.forward_windows(params, segment.raw[perm][None],
                                          segment.meshes[perm][None])
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
        out = cascade_forward(make_segment(config), params)
        assert out.shape == (config.classes,)

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("variant", PARALLEL_VARIANTS)
    def test_parallel_variants(self, variant, window):
        config = reduced_config("parallel", window=window, **variant)
        params = param_init(config, seed=0, dtype=np.float64)
        out = parallel_forward(make_segment(config), params)
        assert out.shape == (config.classes,)

    @pytest.mark.parametrize("arch", ["cnn1d", "cnn2d", "cnn3d", "rnn"])
    @pytest.mark.parametrize("window", [1, 4])
    def test_baseline_windows(self, arch, window):
        config = reduced_config(arch, window=window)
        params = param_init(config, seed=0, dtype=np.float64)
        segment = make_segment(config)
        out = models.forward_windows(params, segment.raw[None], segment.meshes[None])
        assert out.shape == (1, config.classes)

    def test_train_mode_matches_eval_shape(self):
        config = reduced_config("cascade")
        params = param_init(config, seed=0, dtype=np.float64)
        segment = make_segment(config)
        rng = np.random.default_rng(0)
        out = cascade_forward(segment, params, mode="train", rng=rng)
        assert out.shape == (config.classes,)
