import math
import weakref

import numpy as np
import pytest

from eegnet import autodiff as ad
from eegnet import convolution
from eegnet.autodiff import Tensor, backward, softmax_cross_entropy
from eegnet.gradcheck import finite_diff_check


def t64(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32


class TestLinear:
    @staticmethod
    def _grads(fn, *arrays):
        inputs = [Tensor.parameter(a.copy()) for a in arrays]
        out = fn(*inputs)
        weights = Tensor.constant(np.arange(out.size, dtype=np.float64).reshape(out.shape))
        backward(ad.tensor_sum(ad.mul(out, weights)))
        return out.data, [t.grad for t in inputs]

    def test_equals_matmul_with_transposed_weight(self):
        rng = np.random.default_rng(2)
        x, w, b = rng.standard_normal((4, 5)), rng.standard_normal((3, 5)), rng.standard_normal(3)
        got, got_grads = self._grads(ad.linear, x, w, b)
        # numpy reference: out = x @ w.T + b; upstream g is _grads' weights
        g = np.arange(12, dtype=np.float64).reshape(4, 3)
        np.testing.assert_allclose(got, x @ w.T + b, rtol=1e-12, atol=1e-12)
        assert [d.shape for d in got_grads] == [(4, 5), (3, 5), (3,)]
        for d, want in zip(got_grads, (g @ w, g.T @ x, g.sum(axis=0))):
            np.testing.assert_allclose(d, want, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_reports_all_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\).*\(4,\)"):
            ad.linear(t64(np.ones((2, 3))), t64(np.ones((4, 2))), t64(np.ones(4)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            ad.linear(t64(np.ones((2, 3))), t64(np.ones((4, 3))), t64(np.ones(3)))


def _gate(x, values, grad):
    """An op made of one LSTM gate's value function and the derivative
    helper that `ad.lstm`'s backward applies to its output."""
    out = values(x.data)
    return ad._op(out, (x,), lambda g: g * grad(out))


class TestActivations:
    def test_values_at_zero(self):
        zero = t64([0.0])
        assert ad.elu(zero).data[0] == 0.0
        assert ad._sigmoid_values(zero.data)[0] == 0.5

    def test_elu_asymptote(self):
        assert abs(ad.elu(t64([-30.0])).data[0] - (-1.0)) <= 1e-9

    def test_elu_negative_branch(self):
        x = t64([-1.5])
        assert np.isclose(ad.elu(x).data[0], math.expm1(-1.5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_bitwise_equals_where_forms(self, dtype):
        # reference: the np.where forms of the value and the derivative
        grid = np.array([0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1.0, -1.0], dtype)
        x = np.concatenate([grid, np.linspace(-90.0, 90.0, 4001, dtype=dtype)])
        w = np.random.default_rng(15).standard_normal(x.shape).astype(dtype)
        ref_out = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        ref_grad = w * np.where(x > 0, np.asarray(1.0, dtype=dtype), ref_out + 1.0)
        t = Tensor.parameter(x.copy())
        out = ad.elu(t)
        backward(ad.tensor_sum(ad.mul(out, Tensor.constant(w))))
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert t.grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_masked_form(self, dtype):
        # reference: each sign's branch evaluated on its own elements only
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        grid = np.array([0.0, -0.0, 1e-30, -1e-30, 1.0, -1.0, 300.0, -300.0], dtype)
        rng = np.random.default_rng(16)
        for x in (np.concatenate([grid, np.linspace(-400.0, 400.0, 8001, dtype=dtype)]),
                  rng.standard_normal((64, 64)).astype(dtype) * 20,
                  rng.standard_normal((1, 16)).astype(dtype)):
            out = ad._sigmoid_values(x)
            assert out.dtype == dtype and out.shape == x.shape
            assert out.tobytes() == masked(x).tobytes()

    @pytest.mark.parametrize("op", [
        ad.elu,
        lambda x: _gate(x, ad._sigmoid_values, ad._sigmoid_grad),
        lambda x: _gate(x, np.tanh, ad._tanh_grad),
    ], ids=["elu", "sigmoid", "tanh"])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal(20))
        c = rng.standard_normal(20)
        err = finite_diff_check(
            lambda x: ad.tensor_sum(ad.mul(op(x), Tensor.constant(c))), [x]
        )
        assert err <= 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_case(self):
        loss, probs = softmax_cross_entropy(t64(np.zeros(5)), 3)
        np.testing.assert_allclose(probs, 0.2)
        assert abs(loss.item() - math.log(5)) <= 1e-12

    def test_saturated_case(self):
        loss, _ = softmax_cross_entropy(t64([10.0, -10.0]), 0)
        assert loss.item() < 1e-4

    def test_probabilities_are_a_distribution(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            _, probs = softmax_cross_entropy(t64(rng.standard_normal(5)), 0)
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(6)
        logits = t64(rng.standard_normal(4))
        loss, probs = softmax_cross_entropy(logits, 2)
        backward(loss)
        expected = probs.copy()
        expected[2] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)
        err = finite_diff_check(lambda x: softmax_cross_entropy(x, 2)[0],
                                [t64(rng.standard_normal(4))])
        assert err <= 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(t64(np.zeros(3)), 3)
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(t64(np.zeros(3)), -1)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 1, 0])
        loss_b, probs_b = ad.softmax_cross_entropy_batch(t64(z), labels)
        singles = [softmax_cross_entropy(t64(z[i]), labels[i]) for i in range(6)]
        np.testing.assert_allclose(loss_b.item(), np.mean([s[0].item() for s in singles]),
                                   atol=1e-12)
        np.testing.assert_allclose(probs_b, np.stack([s[1] for s in singles]), atol=1e-12)

    def test_batched_label_validation(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy_batch(t64(np.zeros((2, 3))), np.array([0, 3]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0])
        backward(ad.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_fanout_accumulation(self):
        x = t64([1.5])
        backward(ad.tensor_sum(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_shared_subexpression_matches_symbolic(self):
        # loss = (x*x) + (x*x) = 2x^2 -> d/dx = 4x
        x = t64([3.0])
        y = ad.mul(x, x)
        backward(ad.tensor_sum(ad.add(y, y)))
        np.testing.assert_allclose(x.grad, [12.0])
        # loss = x * (x + y) -> d/dx = 2x + y, d/dy = x
        x, y = t64([2.0]), t64([5.0])
        backward(ad.tensor_sum(ad.mul(x, ad.add(x, y))))
        np.testing.assert_allclose(x.grad, [9.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(t64([1.0, 2.0]))

    def test_repeated_backward_resets_gradients(self):
        x = t64([1.0, 1.0])
        loss = ad.tensor_sum(x)
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_linear_function_near_exact(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal(6))
        c = rng.standard_normal(6)
        err = finite_diff_check(lambda x: ad.tensor_sum(ad.mul(x, Tensor.constant(c))), [x])
        assert err <= 1e-9


class TestShapeOps:
    def test_broadcast_add_and_mul_gradients(self):
        rng = np.random.default_rng(9)
        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal(4))
        c = rng.standard_normal((3, 4))
        weighted = Tensor.constant(c)
        err = finite_diff_check(
            lambda a, b: ad.tensor_sum(ad.mul(ad.add(a, b), weighted)), [a, b]
        )
        assert err <= 1e-8

    def test_reshape_getitem_concat_gradients(self):
        rng = np.random.default_rng(10)
        x = t64(rng.standard_normal((2, 6)))
        y = t64(rng.standard_normal((2, 3)))
        c = rng.standard_normal((2, 7))
        weighted = Tensor.constant(c)

        for axis in (1, -1):
            def fn(x, y):
                xr = ad.reshape(x, (3, 4))
                part = xr[1:3, 0:3]  # (2, 3)
                joined = ad.concat([part, y, part[:, 0:1]], axis=axis)  # (2, 7)
                return ad.tensor_sum(ad.mul(joined, weighted))

            assert finite_diff_check(fn, [x, y]) <= 1e-8

    def test_sum_axis_gradients(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((4, 3)))
        c = rng.standard_normal(3)
        weighted = Tensor.constant(c)
        err = finite_diff_check(
            lambda x: ad.tensor_sum(ad.mul(ad.tensor_sum(x, axis=0), weighted)), [x]
        )
        assert err <= 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_sums_repeats_in_position_order(self, dtype):
        # row 2 picked four times, row 1 never; np.add.at adds the upstream
        # rows one by one in their order in `index`, the VJP's fixed order
        rng = np.random.default_rng(12)
        x = Tensor.parameter(rng.standard_normal((5, 3)).astype(dtype))
        index = np.array([2, 0, 4, 2, 3, 2, 0, 2])
        g = (rng.standard_normal((8, 3)) * 10.0 ** rng.integers(-6, 6, (8, 1))).astype(dtype)
        out = ad.gather(x, index)
        np.testing.assert_array_equal(out.data, x.data[index])
        out._backward(g)
        want = np.zeros_like(x.data)
        np.add.at(want, index, g)
        np.testing.assert_array_equal(x.grad, want)
        assert x.grad.dtype == dtype

    def test_gather_of_constant_is_constant(self):
        out = ad.gather(Tensor.constant(np.ones((3, 2))), np.array([0, 0]))
        assert not out.requires_grad and out._backward is None


class TestOpProtocol:
    @pytest.mark.parametrize("op", [
        lambda c: ad.mul(c, 2.0),
        ad.elu,
        lambda c: convolution._conv(c, Tensor.constant(np.ones((2, 5, 3))),
                                    Tensor.constant(np.zeros(2))),
    ], ids=["mul", "elu", "conv"])
    def test_constant_inputs_give_a_constant(self, op):
        out = op(Tensor.constant(np.arange(60.0).reshape(3, 4, 5)))
        assert out.requires_grad is False
        assert out._backward is None

    @pytest.mark.parametrize("x_is_parameter, calls", [(False, 0), (True, 1)])
    def test_conv_input_gradient_only_when_required(self, monkeypatch, x_is_parameter, calls):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 4, 5, 2))
        x = t64(x) if x_is_parameter else Tensor.constant(x)
        k, b = t64(rng.standard_normal((3, 2, 3, 3))), t64(rng.standard_normal(3))
        original = convolution._input_grad
        seen = []

        def counted(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(convolution, "_input_grad", counted)
        backward(ad.tensor_sum(convolution._conv(x, k, b)))
        assert len(seen) == calls
        assert k.grad is not None and b.grad is not None
        assert (x.grad is not None) == x_is_parameter

    def test_upstream_runs_once_and_feeds_every_vjp(self):
        a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
        made, seen = [], []

        def upstream(g):
            made.append(g * 10.0)
            return made[-1]

        def vjp(g):
            seen.append(g)
            return g

        loss = ad.tensor_sum(ad._op(a.data + b.data, (a, b), vjp, vjp, upstream=upstream))
        for n in (1, 2):
            backward(loss)
            assert len(made) == n
            assert seen[-2] is made[-1] and seen[-1] is made[-1]
        np.testing.assert_array_equal(a.grad, [10.0, 10.0])
        np.testing.assert_array_equal(b.grad, [10.0, 10.0])

    def test_upstream_never_runs_without_a_gradient(self):
        calls = []

        def upstream(g):
            calls.append(g)
            return g

        a, b = Tensor.constant(np.ones(2)), Tensor.constant(np.ones(2))
        out = ad._op(a.data + b.data, (a, b), lambda g: g, lambda g: g, upstream=upstream)
        assert out.requires_grad is False and out._backward is None
        w = t64([1.0, 2.0])
        backward(ad.tensor_sum(ad.mul(out, w)))
        assert calls == []
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    @staticmethod
    def _chained_conv_elu(parameters):
        """Two fused nodes chained as gradcheck's conv_elu check chains them,
        with only the inputs named in `parameters` ('x', 'k', 'b') requiring
        a gradient; returns the loss and the inputs by name."""
        rng = np.random.default_rng(21)
        shapes = {"x": (2, 4, 5, 2), "k0": (3, 2, 3, 3), "b0": (3,), "k1": (2, 3, 3, 3), "b1": (2,)}
        inputs = {name: Tensor(rng.standard_normal(shape), requires_grad=name[0] in parameters)
                  for name, shape in shapes.items()}
        c = Tensor.constant(rng.standard_normal((2, 4, 5, 2)))
        h = convolution._conv(inputs["x"], inputs["k0"], inputs["b0"])
        out = convolution._conv(h, inputs["k1"], inputs["b1"])
        return ad.tensor_sum(ad.mul(out, c)), inputs

    @pytest.mark.parametrize("parameters", ["x", "k", "b", "xk", "xb", "kb", "xkb"])
    def test_fused_conv_shares_one_elu_grad_per_node(self, monkeypatch, parameters):
        reference_loss, reference = self._chained_conv_elu("xkb")
        backward(reference_loss)
        loss, inputs = self._chained_conv_elu(parameters)
        original = ad._elu_grad
        calls = []

        def counted(out):
            calls.append(out)
            return original(out)

        monkeypatch.setattr(ad, "_elu_grad", counted)
        backward(loss)
        assert len(calls) == 2
        for name, t in inputs.items():
            if name[0] in parameters:
                assert t.grad.tobytes() == reference[name].grad.tobytes(), name
            else:
                assert t.grad is None, name

    def test_constant_bias_keeps_no_gradient_alive(self, monkeypatch):
        rng = np.random.default_rng(22)
        x, k = t64(rng.standard_normal((2, 4, 5, 2))), t64(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor.constant(rng.standard_normal(3))
        original = ad._elu_grad
        refs = []

        def tracked(out):
            d = original(out)
            refs.append(weakref.ref(d))
            return d

        monkeypatch.setattr(ad, "_elu_grad", tracked)
        out = convolution._conv(x, k, b)
        backward(ad.tensor_sum(out))
        assert len(refs) == 1
        assert out._backward is not None  # the graph is still alive
        assert refs[0]() is None

    def test_fused_conv_looks_up_elu_grad_at_backward_time(self, monkeypatch):
        rng = np.random.default_rng(23)
        x, k, b = (t64(rng.standard_normal(shape)) for shape in ((2, 4, 5, 2), (3, 2, 3, 3), (3,)))
        out = convolution._conv(x, k, b)
        monkeypatch.setattr(ad, "_elu_grad", np.zeros_like)
        backward(ad.tensor_sum(out))
        for t in (x, k, b):
            assert not t.grad.any()

    def test_lstm_looks_up_gate_grads_at_backward_time(self, monkeypatch):
        rng = np.random.default_rng(24)
        xw, u = t64(rng.standard_normal((2, 3, 8))), t64(rng.standard_normal((2, 8)))
        out = ad.lstm(xw, u)
        monkeypatch.setattr(ad, "_sigmoid_grad", np.zeros_like)
        monkeypatch.setattr(ad, "_tanh_grad", np.zeros_like)
        backward(ad.tensor_sum(out))
        assert not xw.grad.any() and not u.grad.any()

    def test_lstm_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"lstm shape mismatch: \(2, 3, 8\).*\(2, 6\)"):
            ad.lstm(t64(np.ones((2, 3, 8))), t64(np.ones((2, 6))))
        with pytest.raises(ValueError, match="lstm shape mismatch"):
            ad.lstm(t64(np.ones((2, 3, 12))), t64(np.ones((2, 8))))


class TestDropout:
    def test_keep_one_is_identity(self):
        x = t64([1.0, 2.0])
        assert ad.dropout(x, 1.0, np.random.default_rng(0)) is x

    def test_invalid_keep_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(t64([1.0]), bad, np.random.default_rng(0))

    def test_expectation_matches_identity(self):
        # inverted dropout: E[mask * x] == x; 10,000 masks, 2% band
        rng = np.random.default_rng(12)
        x = Tensor(np.full(8, 3.0))
        total = np.zeros(8)
        n = 10_000
        for _ in range(n):
            total += ad.dropout(x, 0.5, rng).data
        np.testing.assert_allclose(total / n, x.data, rtol=0.02)

    def test_mask_values_are_zero_or_scaled(self):
        rng = np.random.default_rng(13)
        out = ad.dropout(Tensor(np.ones(1000)), 0.5, rng).data
        assert set(np.unique(out)) <= {0.0, 2.0}
