import tracemalloc

import numpy as np
import pytest

from eegnet import autodiff as ad
from eegnet.autodiff import Tensor, backward
from eegnet.optim import _BLOCK, BETA1, BETA2, EPSILON, adam_step, init_adam


def params_of(**arrays):
    return {k: Tensor.parameter(np.asarray(v, dtype=np.float64)) for k, v in arrays.items()}


def reference_adam_step(params, grads, state):
    """The whole-array Adam update with fresh moment arrays, kept as the
    oracle for ``adam_step``'s in-place, blocked one."""
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    updated = {}
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m_next = b1 * m + (1.0 - b1) * g
        v_next = b2 * v + (1.0 - b2) * (g * g)
        step = state.learning_rate * (m_next / bias1) / (np.sqrt(v_next / bias2) + EPSILON)
        if not g.all():
            idle = g == 0
            m_next = np.where(idle, m, m_next)
            v_next = np.where(idle, v, v_next)
            step = np.where(idle, 0.0, step)
        state.first_moment[name] = m_next
        state.second_moment[name] = v_next
        updated[name] = Tensor.parameter((p.data - step).astype(p.data.dtype, copy=False))
    return updated, state


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = params_of(w=[1.0, -2.0], b=[[0.5]])
        state = init_adam(params, learning_rate=1e-2)
        # warm the state with a non-zero step first, then feed zeros
        grads = {"w": np.array([0.3, -0.1]), "b": np.array([[1.0]])}
        params, state = adam_step(params, grads, state)
        snapshot = {k: p.data.copy() for k, p in params.items()}
        zeros = {k: np.zeros_like(p.data) for k, p in params.items()}
        params, state = adam_step(params, zeros, state)
        for k in params:
            np.testing.assert_array_equal(params[k].data, snapshot[k])

    def test_partly_zero_gradient_freezes_only_zero_elements(self):
        def two_steps(second):
            params = params_of(w=[1.0, -2.0, 0.5, 3.0])
            state = init_adam(params, learning_rate=1e-2)
            params, state = adam_step(params, {"w": np.array([0.3, -0.1, 0.2, 0.7])}, state)
            warm = tuple(a.copy() for a in (params["w"].data, state.first_moment["w"],
                                            state.second_moment["w"]))
            params, state = adam_step(params, {"w": second}, state)
            assert state.step == 2
            return warm, (params["w"].data, state.first_moment["w"], state.second_moment["w"])

        partial = np.array([0.4, 0.0, -0.6, 0.0])
        idle = partial == 0
        warm, got = two_steps(partial)
        # the reference fills the zeros in, so every element takes the dense update
        _, dense = two_steps(np.where(idle, 1.0, partial))
        for got_arr, dense_arr, warm_arr in zip(got, dense, warm):
            np.testing.assert_array_equal(got_arr[~idle], dense_arr[~idle])
            np.testing.assert_array_equal(got_arr[idle], warm_arr[idle])

    def test_first_step_magnitude_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so the update is
        # lr * 1 / (1 + eps)
        lr = 1e-4
        params = params_of(w=[0.0])
        state = init_adam(params, learning_rate=lr)
        params, state = adam_step(params, {"w": np.array([1.0])}, state)
        expected = lr * 1.0 / (1.0 + EPSILON)
        assert abs(abs(params["w"].data[0]) - expected) <= 1e-18
        assert params["w"].data[0] == -expected

    def test_ten_steps_on_quadratic_strictly_decrease(self):
        params = params_of(w=[1.0])
        state = init_adam(params, learning_rate=1e-4)
        values = []
        for _ in range(10):
            w = params["w"]
            loss = ad.tensor_sum(ad.mul(w, w))
            values.append(loss.item())
            backward(loss)
            params, state = adam_step(params, {"w": w.grad}, state)
        final = ad.tensor_sum(ad.mul(params["w"], params["w"])).item()
        values.append(final)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_step_count_increments(self):
        params = params_of(w=[1.0])
        state = init_adam(params)
        for expected in (1, 2, 3):
            params, state = adam_step(params, {"w": np.zeros(1)}, state)
            assert state.step == expected

    def test_shape_mismatch_rejected(self):
        params = params_of(w=[1.0, 2.0])
        state = init_adam(params)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, {"w": np.zeros(3)}, state)

    def test_name_mismatch_rejected(self):
        params = params_of(w=[1.0])
        state = init_adam(params)
        with pytest.raises(ValueError, match="name mismatch"):
            adam_step(params, {"v": np.zeros(1)}, state)

    def test_moment_shapes_match_parameters(self):
        params = params_of(w=np.ones((2, 3)), b=np.ones(4))
        state = init_adam(params)
        for k, p in params.items():
            assert state.first_moment[k].shape == p.data.shape
            assert state.second_moment[k].shape == p.data.shape


class TestInPlaceBlockedAdam:
    # one tensor larger than a block and not a multiple of it, one with an
    # all-zero gradient, and one whose zero run crosses a block boundary
    SHAPES = {"big": (2 * _BLOCK + 77,), "still": (3, 5), "partly": (2, _BLOCK // 2 + 9)}

    def _problem(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        params = {k: Tensor.parameter(rng.standard_normal(s).astype(dtype))
                  for k, s in self.SHAPES.items()}
        grads = []
        for _ in range(6):
            g = {k: rng.standard_normal(s).astype(dtype) for k, s in self.SHAPES.items()}
            g["still"][...] = 0
            flat = g["partly"].reshape(-1)
            flat[_BLOCK - 5:_BLOCK + 5] = 0
            flat[::7] = 0
            grads.append(g)
        return params, grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_whole_array_formula(self, dtype):
        params, grads = self._problem(dtype)
        ours, ours_state = params, init_adam(params, learning_rate=1e-2)
        ref, ref_state = params, init_adam(params, learning_rate=1e-2)
        for g in grads:
            ours, ours_state = adam_step(ours, g, ours_state)
            ref, ref_state = reference_adam_step(ref, g, ref_state)
            assert ours_state.step == ref_state.step
            for k in params:
                assert ours[k].data.dtype == dtype
                assert ours[k].data.tobytes() == ref[k].data.tobytes(), k
                for mine, theirs in ((ours_state.first_moment, ref_state.first_moment),
                                     (ours_state.second_moment, ref_state.second_moment)):
                    assert mine[k].dtype == dtype
                    assert mine[k].tobytes() == theirs[k].tobytes(), k
        np.testing.assert_array_equal(ours["still"].data, params["still"].data)

    def test_moments_in_place_and_params_untouched(self):
        params, grads = self._problem(np.float32)
        state = init_adam(params)
        moments = [(state.first_moment[k], state.second_moment[k]) for k in params]
        before = {k: p.data.copy() for k, p in params.items()}
        new, state = adam_step(params, grads[0], state)
        after = [(state.first_moment[k], state.second_moment[k]) for k in params]
        assert all(a is b for pair, later in zip(moments, after) for a, b in zip(pair, later))
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])
            assert new[k].data is not p.data
        assert np.any(state.first_moment["big"] != 0)

    def test_traced_peak_is_about_one_parameter(self):
        n = 4_000_000
        rng = np.random.default_rng(1)
        params = {"w": Tensor.parameter(rng.standard_normal(n).astype(np.float32))}
        grads = {"w": rng.standard_normal(n).astype(np.float32)}
        state = init_adam(params)
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the new parameter itself plus two block-sized scratch buffers
        assert peak < 1.25 * params["w"].data.nbytes

    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_rejected_call_leaves_state_unchanged(self, bad):
        params, grads = self._problem(np.float64)
        state = init_adam(params, learning_rate=1e-2)
        params, state = adam_step(params, grads[0], state)
        snapshot = {k: (state.first_moment[k].copy(), state.second_moment[k].copy())
                    for k in params}
        wrong = dict(grads[1])
        last = list(params)[-1]
        wrong[last] = (np.zeros(3) if bad == "shape"
                       else wrong[last].astype(np.float32))
        with pytest.raises(ValueError, match=f"{bad} mismatch for '{last}'"):
            adam_step(params, wrong, state)
        assert state.step == 1
        for k, (m, v) in snapshot.items():
            assert state.first_moment[k].tobytes() == m.tobytes()
            assert state.second_moment[k].tobytes() == v.tobytes()

    def test_missing_moment_rejected(self):
        params = params_of(w=[1.0], b=[2.0])
        state = init_adam(params)
        del state.second_moment["b"]
        with pytest.raises(ValueError, match="no Adam moments for 'b'"):
            adam_step(params, {"w": np.ones(1), "b": np.ones(1)}, state)
        assert state.step == 0

    def test_read_only_or_strided_moments_still_updated(self):
        params = params_of(w=np.arange(6.0).reshape(2, 3) + 1.0)
        grads = {"w": np.full((2, 3), 0.5)}
        state = init_adam(params)
        ref_state = init_adam(params)
        state.first_moment["w"] = np.zeros((3, 2)).T  # not C-contiguous
        state.second_moment["w"].flags.writeable = False
        new, state = adam_step(params, grads, state)
        ref, ref_state = reference_adam_step(params, grads, ref_state)
        np.testing.assert_array_equal(new["w"].data, ref["w"].data)
        np.testing.assert_array_equal(state.first_moment["w"], ref_state.first_moment["w"])
        np.testing.assert_array_equal(state.second_moment["w"], ref_state.second_moment["w"])
