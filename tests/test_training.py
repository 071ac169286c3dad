import csv
import json
import math
import os
import re
import struct
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from eegnet import container, dataset, models, training
from eegnet.autodiff import Tensor, backward, softmax_cross_entropy_batch
from eegnet.gradcheck import reduced_config
from eegnet.layout import normalized_meshes
from eegnet.models import param_init
from eegnet.optim import adam_step, init_adam
from eegnet.training import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    EpochStats,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    metrics_from_confusion,
    predict,
    save_checkpoint,
    train,
    write_history,
)

from conftest import build_prepared, rewrite_header


def tiny_config(arch="cascade", **kw):
    defaults = dict(classes=5, window=10, fc_width=16, hidden=8, conv_maps=(2, 3, 4))
    defaults.update(kw)
    return models.ModelConfig(arch=arch, **defaults)


def poison_gradient(monkeypatch, name, at, value):
    """After each backward, set element `at` of the gradient of `name` in the
    parameters that `train` feeds its forward."""
    fed = []

    def forward(params, *args, **kwargs):
        fed.append(params)
        return real_forward(params, *args, **kwargs)

    def poisoned(loss):
        real_backward(loss)
        fed[-1].tensors[name].grad.flat[at] = value

    real_forward, real_backward = models.forward_windows, training.backward
    monkeypatch.setattr(models, "forward_windows", forward)
    monkeypatch.setattr(training, "backward", poisoned)


@pytest.fixture(scope="module")
def tiny_sets():
    prepared = build_prepared(windows_per_class=12, noise=0.25, seed=1, split_seed=2)
    return prepared.train_test()


class TestMetrics:
    def test_perfect_predictor(self):
        confusion = np.diag([10, 5, 8])
        m = metrics_from_confusion(confusion, 0.0)
        assert m.accuracy == 1.0
        np.testing.assert_array_equal(m.precision, np.ones(3))
        np.testing.assert_array_equal(m.recall, np.ones(3))
        np.testing.assert_array_equal(m.f1, np.ones(3))

    def test_constant_predictor_on_balanced_set(self):
        # everything predicted as class 0, 5 balanced classes
        confusion = np.zeros((5, 5), dtype=int)
        confusion[:, 0] = 20
        m = metrics_from_confusion(confusion, 1.0)
        assert m.accuracy == 0.2
        assert m.recall[0] == 1.0 and np.all(m.recall[1:] == 0.0)
        assert m.precision[0] == 0.2

    def test_zero_support_classes_use_zero_convention(self):
        confusion = np.array([[3, 0], [0, 0]])
        m = metrics_from_confusion(confusion, 0.0)
        assert m.precision[1] == 0.0 and m.recall[1] == 0.0 and m.f1[1] == 0.0

    def test_recomputation_from_emitted_confusion(self):
        rng = np.random.default_rng(0)
        confusion = rng.integers(0, 30, size=(4, 4))
        m = metrics_from_confusion(confusion, 0.5)
        diag = np.diag(confusion).astype(float)
        for k in range(4):
            col = confusion[:, k].sum()
            row = confusion[k].sum()
            p = diag[k] / col if col else 0.0
            r = diag[k] / row if row else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(m.precision[k] - p) <= 1e-12
            assert abs(m.recall[k] - r) <= 1e-12
            assert abs(m.f1[k] - f) <= 1e-12
        assert abs(m.accuracy - diag.sum() / confusion.sum()) <= 1e-12

    def test_confusion_row_sums_are_support(self, tiny_sets):
        train_set, test_set = tiny_sets
        params = param_init(tiny_config(), seed=0)
        m = evaluate(params, test_set)
        np.testing.assert_array_equal(
            m.confusion.sum(axis=1), np.bincount(test_set.labels, minlength=5)
        )
        assert m.confusion.sum() == test_set.count


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_untrained_loss_near_log_k(self, tiny_sets, arch, seed):
        train_set, _ = tiny_sets
        m = evaluate(param_init(tiny_config(arch), seed=seed), train_set)
        assert abs(m.mean_loss - math.log(5)) <= 0.1

    def test_deterministic(self, tiny_sets):
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=1)
        a = evaluate(params, test_set)
        b = evaluate(params, test_set)
        assert a.accuracy == b.accuracy and a.mean_loss == b.mean_loss
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_empty_dataset_rejected(self, tiny_sets):
        _, test_set = tiny_sets
        with pytest.raises(ValueError, match="empty"):
            evaluate(param_init(tiny_config(), seed=0), test_set.subset([]))

    def test_loaded_dataset_holds_each_frame_once(self, tmp_path):
        # 50%-overlapping windows: the loaded set holds about half the size
        # of its dense (q, S, ...) raw and mesh windows, and its split sides
        # and an evaluation of each keep nothing more
        prepared = build_prepared(windows_per_class=40, noise=0.25, seed=3)
        path = tmp_path / "d.eegw"
        dataset.save_prepared(path, prepared)
        q, s = prepared.count, prepared.window
        dense = q * s * (64 + 10 * 11) * 4
        params = param_init(tiny_config(), seed=0)
        tracemalloc.start()
        try:
            loaded = dataset.load_prepared(path)
            held, _ = tracemalloc.get_traced_memory()
            train_set, test_set = loaded.train_test()
            evaluate(params, train_set)
            evaluate(params, test_set)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.frames) < 0.6 * q * s
        assert train_set.frames is loaded.frames and test_set.frames is loaded.frames
        assert held < 0.6 * dense
        assert current - held < 0.05 * dense

    def test_cast_copies_only_the_frames_a_subset_uses(self):
        # float64 metrics of four windows of a 1,000-window float32 set: the
        # same as for the four windows on their own, without a float64 copy
        # of every frame of the set
        prepared = build_prepared(windows_per_class=200, seed=4)
        subset = prepared.subset([7, 900, 8, 3])
        steps = [slice(s, s + 10) for s in subset.starts]
        alone = dataset.PreparedDataset(
            frames=np.concatenate([prepared.frames[s] for s in steps]),
            starts=np.arange(0, 40, 10), labels=subset.labels, window=10, meta=subset.meta)
        params = param_init(tiny_config(), seed=0, dtype=np.float64)
        tracemalloc.start()
        try:
            got = evaluate(params, subset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = evaluate(params, alone)
        assert got.mean_loss == pytest.approx(want.mean_loss, rel=1e-12)
        np.testing.assert_array_equal(got.confusion, want.confusion)
        assert peak < len(prepared.frames) * (64 + 10 * 11) * 8 / 4

    def test_full_batch_peak_memory(self):
        # one full 256-window batch through conv maps 32/64/128: conv1's and
        # conv2's outputs, live together, take 216 MB; lowering conv2's whole
        # input at once added 649 MB
        config = models.canonical_config("cascade", fc_width=8)
        rng = np.random.default_rng(0)
        windows = dataset.PreparedDataset(
            frames=rng.standard_normal((2560, 64)).astype(np.float32),
            starts=np.arange(0, 2560, 10),
            labels=rng.integers(0, 5, 256).astype(np.uint8),
            window=10,
            meta={"label_names": {str(i): f"c{i}" for i in range(5)}},
        )
        params = param_init(config, seed=0)
        tracemalloc.start()
        try:
            evaluate(params, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 450e6


class TestTrainLoop:
    def test_single_adam_step_decreases_loss_float64(self, tiny_sets):
        train_set, _ = tiny_sets
        config = tiny_config()
        params = param_init(config, seed=0, dtype=np.float64)
        raw = train_set.raw[:16].astype(np.float64)
        meshes = train_set.meshes[:16].astype(np.float64)
        labels = train_set.labels[:16].astype(np.int64)

        def batch_loss(p):
            logits = models.forward_windows(p, raw, meshes, mode="eval")
            return softmax_cross_entropy_batch(logits, labels)[0]

        loss0 = batch_loss(params)
        backward(loss0)
        grads = {k: t.grad for k, t in params.tensors.items()}
        state = init_adam(params.tensors, learning_rate=1e-4)
        new_tensors, _ = adam_step(params.tensors, grads, state)
        params2 = models.ModelParams(config=config, tensors=new_tensors)
        assert batch_loss(params2).item() < loss0.item()

    def test_first_steps_nonincreasing_on_noiseless_set(self):
        # full-batch steps on a separable set: at most 2 non-monotone steps.
        # Dropout is off: the recorded train loss is taken in dropout mode, so
        # with keep_prob < 1 it carries mask noise on top of the descent.
        prepared = build_prepared(windows_per_class=8, noise=0.0, seed=3, split_seed=0)
        train_set, test_set = prepared.train_test()
        config = tiny_config(keep_prob=1.0)
        tc = TrainConfig(epochs=10, batch_size=train_set.count, learning_rate=1e-3,
                         seed=0, patience=None)
        result = train(config, tc, train_set, test_set)
        losses = [h.train_loss for h in result.history]
        violations = sum(b > a for a, b in zip(losses, losses[1:]))
        assert violations <= 2

    def test_bitwise_determinism(self, tiny_sets):
        train_set, test_set = tiny_sets
        config = tiny_config("parallel", hidden=4)
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=9,
                         patience=None)
        a = train(config, tc, train_set, test_set)
        b = train(config, tc, train_set, test_set)
        assert [h.__dict__ for h in a.history] == [h.__dict__ for h in b.history]
        for k in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[k].data, b.params.tensors[k].data)

    def test_step_tape_released_before_adam(self, tiny_sets, monkeypatch):
        # a Tensor takes no weakref (__slots__), its value array does
        train_set, test_set = tiny_sets
        logits_refs, dead_at_adam = [], []

        def forward(*args, **kwargs):
            logits = original_forward(*args, **kwargs)
            if kwargs.get("mode") == "train":
                logits_refs.append(weakref.ref(logits.data))
            return logits

        def step(*args, **kwargs):
            dead_at_adam.append(logits_refs[-1]() is None)
            return original_step(*args, **kwargs)

        original_forward, original_step = models.forward_windows, training.adam_step
        monkeypatch.setattr(models, "forward_windows", forward)
        monkeypatch.setattr(training, "adam_step", step)
        train(tiny_config(), TrainConfig(epochs=1, batch_size=32), train_set, test_set)
        assert dead_at_adam and all(dead_at_adam)

    def test_no_gradient_outlives_its_update(self, tiny_sets):
        # at each epoch's end neither the given nor the current parameters
        # hold a gradient, and what is traced beyond the current parameters
        # stays as it was after epoch 1, far below one gradient set
        train_set, test_set = tiny_sets
        config = tiny_config(fc_width=1024)
        params = param_init(config, seed=0)
        state = init_adam(params.tensors, learning_rate=1e-3)
        param_bytes = sum(t.data.nbytes for t in params.tensors.values())
        beyond = []

        def on_epoch(stats, current):
            for t in (*params.tensors.values(), *current.tensors.values()):
                assert t.grad is None
            held, _ = tracemalloc.get_traced_memory()
            beyond.append(held - param_bytes)

        tc = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, patience=None)
        tracemalloc.start()
        try:
            train(config, tc, train_set, test_set, params=params, adam_state=state,
                  on_epoch=on_epoch)
        finally:
            tracemalloc.stop()
        assert train_set.count > 3 * tc.batch_size and len(beyond) == 3
        assert all(abs(b - beyond[0]) < 0.05 * param_bytes for b in beyond)
        assert beyond[0] < 0.25 * param_bytes

    @pytest.mark.parametrize("history", [[], [EpochStats(1, 1.0, 0.5, 1.0, 0.5)]],
                             ids=["trained", "resumed-at-end"])
    def test_given_params_untouched_and_unshared(self, tiny_sets, history):
        train_set, test_set = tiny_sets
        config = tiny_config()
        params = param_init(config, seed=0)
        marker = np.ones_like(params.tensors["head.out.bias"].data)
        params.tensors["head.out.bias"].grad = marker
        before = {k: t.data.tobytes() for k, t in params.tensors.items()}
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=1e-2, patience=None)
        result = train(config, tc, train_set, test_set, params=params, history=history)
        assert params.tensors["head.out.bias"].grad is marker
        assert np.all(marker == 1)
        for k, t in params.tensors.items():
            assert t.data.tobytes() == before[k], k
            assert not np.shares_memory(result.params.tensors[k].data, t.data), k
        trained = any(t.data.tobytes() != before[k] for k, t in result.params.tensors.items())
        assert trained == (not history)

    def test_adam_step_allocates_no_parameter_set(self, tiny_sets, monkeypatch):
        # fc_width 4096 makes one parameter set 7.9 MB, so 0.1 of it leaves
        # room for Adam's two f32 scratch blocks (0.5 MB) and nothing more
        train_set, test_set = tiny_sets
        peaks = []

        def step(*args):
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = real_step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        real_step = training.adam_step
        monkeypatch.setattr(training, "adam_step", step)
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, patience=None)
        tracemalloc.start()
        try:
            result = train(tiny_config(fc_width=4096), tc, train_set, test_set)
        finally:
            tracemalloc.stop()
        param_bytes = sum(t.data.nbytes for t in result.params.tensors.values())
        assert len(peaks) == 2 * math.ceil(train_set.count / 16)
        assert max(peaks) < 0.1 * param_bytes

    def test_empty_training_set_rejected(self, tiny_sets):
        train_set, test_set = tiny_sets
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config(), TrainConfig(epochs=1), train_set.subset([]), test_set)

    def test_empty_test_set_rejected_before_training(self, tiny_sets, monkeypatch):
        train_set, test_set = tiny_sets
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        forward = models.forward_windows
        monkeypatch.setattr(training.models, "forward_windows", counted)
        with pytest.raises(ValueError, match="test set"):
            train(tiny_config(), TrainConfig(epochs=1), train_set, test_set.subset([]))
        assert calls == []

    def test_nan_loss_aborts_with_diagnostic(self, tiny_sets, monkeypatch):
        train_set, test_set = tiny_sets

        def poisoned(logits, labels):
            return Tensor.constant(np.float64("nan")), np.full((len(labels), 5), 0.2)

        monkeypatch.setattr(training, "softmax_cross_entropy_batch", poisoned)
        with pytest.raises(TrainingDiverged, match="epoch 1, step 1"):
            train(tiny_config(), TrainConfig(epochs=1, batch_size=8), train_set, test_set)

    def test_nan_gradient_aborts_before_adam(self, tiny_sets, monkeypatch):
        train_set, test_set = tiny_sets
        config = tiny_config()
        params = param_init(config, seed=0)
        state = init_adam(params.tensors, learning_rate=1e-3)
        before = {k: (t.data.copy(), state.first_moment[k].copy(),
                      state.second_moment[k].copy()) for k, t in params.tensors.items()}
        poison_gradient(monkeypatch, "rnn.l1.u", 3, np.nan)
        with pytest.raises(TrainingDiverged, match="rnn.l1.u .*epoch 1, step 1"):
            train(config, TrainConfig(epochs=1, batch_size=8), train_set, test_set,
                  params=params, adam_state=state)
        assert state.step == 0
        for k, (p, m, v) in before.items():
            assert params.tensors[k].data.tobytes() == p.tobytes()
            assert state.first_moment[k].tobytes() == m.tobytes()
            assert state.second_moment[k].tobytes() == v.tobytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_gradient_aborts(self, tiny_sets, monkeypatch, value):
        train_set, test_set = tiny_sets
        config = tiny_config()
        params = param_init(config, seed=0)
        poison_gradient(monkeypatch, "cnn.fc.weight", 7, value)
        with pytest.raises(TrainingDiverged, match="cnn.fc.weight .*epoch 1, step 1"):
            train(config, TrainConfig(epochs=1, batch_size=8), train_set, test_set,
                  params=params)

    def test_early_stopping_respects_patience(self, tiny_sets):
        train_set, test_set = tiny_sets
        tc = TrainConfig(epochs=50, batch_size=32, learning_rate=0.0, seed=0, patience=2)
        result = train(tiny_config(), tc, train_set, test_set)
        # zero learning rate: test loss never improves after epoch 1
        assert len(result.history) == 4  # best at 1, patience 2 exhausted at 4

    @pytest.mark.parametrize("epochs, patience, stop_at", [
        (3, None, None), (50, 0, None), (10, None, 2),
    ], ids=["by-epochs", "by-patience", "by-on-epoch"])
    def test_returned_metrics_are_final_evaluation(self, tiny_sets, epochs, patience,
                                                   stop_at):
        train_set, test_set = tiny_sets
        # zero learning rate makes patience 0 stop the run at epoch 2
        tc = TrainConfig(epochs=epochs, batch_size=32, seed=3, patience=patience,
                         learning_rate=0.0 if patience == 0 else 1e-3)
        result = train(tiny_config(), tc, train_set, test_set,
                       on_epoch=lambda stats, _: stats.epoch == stop_at)
        assert len(result.history) == (2 if patience == 0 or stop_at else epochs)
        assert result.metrics.to_dict() == evaluate(result.params, test_set).to_dict()
        assert result.metrics.mean_loss == result.history[-1].test_loss

    def test_resume_past_last_epoch_still_returns_metrics(self, tiny_sets):
        train_set, test_set = tiny_sets
        params = param_init(tiny_config(), seed=0)
        history = [EpochStats(1, 1.0, 0.5, 1.0, 0.5), EpochStats(2, 0.9, 0.5, 0.9, 0.5)]
        result = train(tiny_config(), TrainConfig(epochs=2), train_set, test_set,
                       params=params, history=history)
        assert result.history == history
        assert result.metrics.to_dict() == evaluate(params, test_set).to_dict()

    def test_invalid_train_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(precision="f16")
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)

    def test_params_of_another_config_rejected_before_training(self, tiny_sets):
        train_set, test_set = tiny_sets
        params = param_init(tiny_config("cascade"), seed=0)
        epochs = []
        with pytest.raises(ValueError, match="differ in arch"):
            train(tiny_config("cnn2d"), TrainConfig(epochs=1), train_set, test_set,
                  params=params, on_epoch=lambda stats, _: epochs.append(stats))
        assert epochs == []


class TestPredict:
    def test_probabilities_sum_to_one(self, tiny_sets):
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=2)
        probs, cls = predict(params, test_set.raw[0], test_set.meshes[0])
        # K probabilities, each rounded once in their own dtype, and their sum
        assert abs(probs.sum() - 1.0) <= probs.size * np.finfo(probs.dtype).eps
        assert cls == int(probs.argmax())

    def test_argmax_invariant_to_logit_shift(self, tiny_sets, monkeypatch):
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=2)
        base_logits = np.array([[0.3, -1.0, 2.0, 0.1, 0.5]])

        def fixed(params, raw, meshes, mode="eval", rng=None):
            return Tensor.constant(fixed.logits)

        monkeypatch.setattr(training.models, "forward_windows", fixed)
        fixed.logits = base_logits
        p1, c1 = predict(params, test_set.raw[0], test_set.meshes[0])
        fixed.logits = base_logits + 7.0
        p2, c2 = predict(params, test_set.raw[0], test_set.meshes[0])
        assert c1 == c2 == 2
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_tie_breaks_to_lowest_index(self, tiny_sets, monkeypatch):
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=2)
        monkeypatch.setattr(training.models, "forward_windows",
                            lambda *a, **k: Tensor.constant(np.zeros((1, 5))))
        _, cls = predict(params, test_set.raw[0], test_set.meshes[0])
        assert cls == 0

    def test_agreement_with_evaluate_decisions(self, tiny_sets):
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=3)
        confusion = np.zeros((5, 5), dtype=np.int64)
        for i in range(test_set.count):
            _, cls = predict(params, test_set.raw[i], test_set.meshes[i])
            confusion[test_set.labels[i], cls] += 1
        m = evaluate(params, test_set)
        np.testing.assert_array_equal(confusion, m.confusion)

    def test_float64_params_match_evaluate(self, tiny_sets):
        # the f32 stored window is cast to the parameters' dtype, as evaluate
        # casts it: the mean -log p(label) over predict's probabilities is
        # evaluate's loss, where an f32 conv stack differed by about 2e-9
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=3, dtype=np.float64)
        nll = []
        for i in range(test_set.count):
            probs, _ = predict(params, test_set.raw[i], test_set.meshes[i])
            assert probs.dtype == np.float64
            nll.append(-np.log(probs[test_set.labels[i]]))
        assert test_set.raw.dtype == np.float32
        assert abs(np.mean(nll) - evaluate(params, test_set).mean_loss) <= 1e-12


    def test_probabilities_are_evaluates_pass(self, monkeypatch):
        # 300 windows, two batches: the rows are the probabilities that
        # evaluate scores, bit for bit and in window order
        prepared = build_prepared(windows_per_class=60, seed=6)
        params = param_init(tiny_config(), seed=3)
        probs = training.probabilities(params, prepared)
        seen = []
        real = training.softmax_cross_entropy_batch

        def record(logits, labels):
            seen.append(real(logits, labels))
            return seen[-1]

        monkeypatch.setattr(training, "softmax_cross_entropy_batch", record)
        metrics = evaluate(params, prepared)
        assert [len(p) for _, p in seen] == [256, 44]
        assert probs.tobytes() == np.concatenate([p for _, p in seen]).tobytes()
        confusion = np.zeros((5, 5), dtype=np.int64)
        np.add.at(confusion, (prepared.labels, probs.argmax(axis=1)), 1)
        np.testing.assert_array_equal(confusion, metrics.confusion)

    def test_probabilities_of_no_windows(self, tiny_sets):
        _, test_set = tiny_sets
        probs = training.probabilities(param_init(tiny_config(), seed=0), test_set.subset([]))
        assert probs.shape == (0, 5) and probs.dtype == np.float32

    def test_float64_reads_the_float32_meshes(self, tiny_sets):
        # the meshes are computed from the float32 frames, then cast: an f64
        # evaluation is a forward on the float32 meshes, about 1e-9 away from
        # one on meshes computed in float64
        _, test_set = tiny_sets
        params = param_init(tiny_config(), seed=3, dtype=np.float64)
        raw = test_set.raw.astype(np.float64)

        def loss_on(meshes):
            logits = models.forward_windows(params.frozen(), raw, meshes, mode="eval")
            return float(softmax_cross_entropy_batch(logits, test_set.labels)[0].data)

        got = evaluate(params, test_set).mean_loss
        assert got == pytest.approx(
            loss_on(test_set.meshes.astype(np.float32).astype(np.float64)), rel=1e-13)
        assert abs(got - loss_on(normalized_meshes(raw))) > 1e-11


class TestTapeFreeInference:
    """`predict` and `evaluate` run on frozen parameters: their forwards
    build no tape and give the tape-building forward's values bit for bit."""

    @pytest.fixture
    def captured(self, monkeypatch):
        """The unpatched `forward_windows`, and every logits tensor it returns
        from then on, in call order."""
        logits = []
        real = models.forward_windows

        def capture(*args, **kwargs):
            logits.append(real(*args, **kwargs))
            return logits[-1]

        monkeypatch.setattr(training.models, "forward_windows", capture)
        return real, logits

    @pytest.mark.parametrize("arch", models.ARCHITECTURES)
    def test_logits_off_tape_and_no_gradient(self, tiny_sets, captured, arch):
        _, test_set = tiny_sets
        params = param_init(tiny_config(arch), seed=4)
        predict(params, test_set.raw[0], test_set.meshes[0])
        evaluate(params, test_set)
        _, logits = captured
        assert len(logits) == 2
        for out in logits:
            assert out.requires_grad is False and out._backward is None
        assert all(t.grad is None and t.requires_grad for t in params.tensors.values())

    @pytest.mark.parametrize("arch", ["cascade", "parallel"])
    def test_bitwise_equal_to_forward_on_parameters(self, tiny_sets, captured, monkeypatch,
                                                    arch):
        _, test_set = tiny_sets
        params = param_init(tiny_config(arch), seed=5)
        forward, logits = captured
        predict(params, test_set.raw[0], test_set.meshes[0])
        on_tape = forward(params, test_set.raw[:1], test_set.meshes[:1], mode="eval")
        assert on_tape._backward is not None
        np.testing.assert_array_equal(logits[0].data, on_tape.data)

        frozen_metrics = evaluate(params, test_set)
        # the same evaluation with every forward run on the parameters themselves
        monkeypatch.setattr(training.models, "forward_windows",
                            lambda _frozen, *a, **k: forward(params, *a, **k))
        assert evaluate(params, test_set).to_dict() == frozen_metrics.to_dict()

    def test_frozen_shares_memory(self):
        params = param_init(tiny_config("parallel"), seed=0)
        frozen = params.frozen()
        assert frozen.config == params.config and list(frozen.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            assert np.shares_memory(frozen.tensors[name].data, t.data)
            assert not frozen.tensors[name].requires_grad


class TestHistoryCsv:
    def test_round_trip_preserves_full_precision(self, tmp_path):
        rows = [EpochStats(1, 1.2345678901234567, 0.5, 1.1, 0.25),
                EpochStats(2, 0.9999999999999999, 0.75, 1.0, 0.5)]
        path = tmp_path / "history.csv"
        write_history(path, rows)
        with open(path, newline="") as fh:
            loaded = [EpochStats(int(r.pop("epoch")), **{k: float(v) for k, v in r.items()})
                      for r in csv.DictReader(fh)]
        assert [r.__dict__ for r in loaded] == [r.__dict__ for r in rows]


class TestCheckpoint:
    def _train_some(self, tiny_sets, epochs, seed=5):
        train_set, test_set = tiny_sets
        config = tiny_config()
        tc = TrainConfig(epochs=epochs, batch_size=16, learning_rate=1e-3,
                         seed=seed, patience=None)
        return config, tc, train(config, tc, train_set, test_set)

    def test_save_load_evaluate_bitwise(self, tiny_sets, tmp_path):
        train_set, test_set = tiny_sets
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        before = evaluate(result.params, test_set)
        path = tmp_path / "model.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history, metrics=before)
        ckpt = load_checkpoint(path)
        after = evaluate(ckpt.params, test_set)
        assert before.accuracy == after.accuracy
        assert before.mean_loss == after.mean_loss
        np.testing.assert_array_equal(before.confusion, after.confusion)
        for k in result.params.tensors:
            np.testing.assert_array_equal(result.params.tensors[k].data,
                                          ckpt.params.tensors[k].data)
        assert ckpt.metrics["accuracy"] == before.accuracy

    def test_resume_equals_uninterrupted_run(self, tiny_sets, tmp_path):
        train_set, test_set = tiny_sets
        config, tc6, straight = self._train_some(tiny_sets, epochs=6)
        _, tc3, first = self._train_some(tiny_sets, epochs=3)
        path = tmp_path / "resume.eegc"
        save_checkpoint(path, config, tc3, first.params, first.adam_state,
                        epoch=3, rng=first.rng, history=first.history)
        ckpt = load_checkpoint(path)
        resumed = train(ckpt.model_config, tc6, train_set, test_set,
                        params=ckpt.params, adam_state=ckpt.adam_state,
                        rng=ckpt.rng, history=ckpt.history)
        assert [h.__dict__ for h in resumed.history] == [h.__dict__ for h in straight.history]
        for k in straight.params.tensors:
            np.testing.assert_array_equal(straight.params.tensors[k].data,
                                          resumed.params.tensors[k].data)

    def test_loaded_state_steps_in_place(self, tiny_sets, tmp_path):
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        path = tmp_path / "step.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history)
        ckpt = load_checkpoint(path)
        state = ckpt.adam_state
        saved_step = state.step
        moments = {k: (state.first_moment[k], state.second_moment[k]) for k in state.first_moment}
        rng = np.random.default_rng(5)
        grads = {k: rng.standard_normal(t.shape).astype(t.data.dtype)
                 for k, t in ckpt.params.tensors.items()}
        stepped, state = adam_step(ckpt.params.tensors, grads, state)
        expected, in_memory = adam_step(result.params.tensors, grads, result.adam_state)
        assert state.step == in_memory.step == saved_step + 1
        for k, (m, v) in moments.items():
            assert state.first_moment[k] is m and state.second_moment[k] is v
            assert m.tobytes() == in_memory.first_moment[k].tobytes()
            assert v.tobytes() == in_memory.second_moment[k].tobytes()
            assert stepped[k].data.tobytes() == expected[k].data.tobytes()

    def test_params_of_another_config_not_saved(self, tmp_path):
        params = param_init(tiny_config("cascade"), seed=0)
        path = tmp_path / "m.eegc"
        with pytest.raises(ValueError, match="differ in arch"):
            save_checkpoint(path, tiny_config("parallel"), TrainConfig(), params,
                            init_adam(params.tensors), epoch=0,
                            rng=np.random.default_rng(0), history=[])
        assert not path.exists()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.eegc"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointFormatError, match="EEGC"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tiny_sets, tmp_path):
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        path = tmp_path / "v.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 77)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="77"):
            load_checkpoint(path)

    def test_v1_checkpoint_rejected(self, tiny_checkpoint, tmp_path):
        # v1 stored dense weights (in, out), v3 the Adam decay rates and
        # epsilon and `train_config.shuffle`, and v4 the columns of
        # `cnn.fc.weight` ordered (C, *spatial); there is no reader for any
        for version in (1, 3, 4):
            path = tmp_path / f"v{version}.eegc"
            blob = bytearray(tiny_checkpoint.read_bytes())
            blob[4:6] = struct.pack("<H", version)
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointVersionError, match=f"version {version}, expected 5"):
                load_checkpoint(path)

    def test_header_not_utf8_rejected(self, tiny_sets, tmp_path):
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        path = tmp_path / "u.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history)
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="header"):
            load_checkpoint(path)

    def test_layout_pinned(self, tiny_sets, tmp_path):
        # magic, u16 version, u32 header length, JSON header, then parameters
        # and both Adam moments, each in parameter order
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        path = tmp_path / "l.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history)
        blob = path.read_bytes()
        assert blob[:4] == b"EEGC"
        assert struct.unpack_from("<H", blob, 4) == (5,)
        (header_len,) = struct.unpack_from("<I", blob, 6)
        header = json.loads(blob[10:10 + header_len])
        # the Adam decay rates and epsilon are module constants, not state
        assert set(header["adam"]) == {"step", "learning_rate"}
        assert set(header["train_config"]) == set(TrainConfig.__dataclass_fields__)
        assert [e["name"] for e in header["tensors"]] == list(result.params.tensors)
        # the LSTM input weight is stored (4·hidden, in), as every dense weight
        shapes = {e["name"]: e["shape"] for e in header["tensors"]}
        assert shapes["rnn.l0.w"] == [4 * config.hidden, config.fc_width]
        param_bytes = sum(t.data.nbytes for t in result.params.tensors.values())
        assert len(blob) == 4 + 6 + header_len + 3 * param_bytes
        last = list(result.adam_state.second_moment.values())[-1]
        assert blob[-last.nbytes:] == last.astype(last.dtype.newbyteorder("<")).tobytes()

    def test_truncated_rejected_without_partial_state(self, tiny_sets, tmp_path):
        config, tc, result = self._train_some(tiny_sets, epochs=1)
        path = tmp_path / "t.eegc"
        save_checkpoint(path, config, tc, result.params, result.adam_state,
                        epoch=1, rng=result.rng, history=result.history)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(CheckpointTruncatedError, match="truncated"):
            load_checkpoint(path)

    def test_load_peak_is_its_arrays(self, tmp_path):
        # cnn.fc.weight is 97% of the parameters; a copy on the way in costs
        # a third of the arrays on top of them.  The load reads the
        # parameters alone; adam_state reads the two moment stores
        config = tiny_config(fc_width=1024)
        params = param_init(config, seed=0)
        path = tmp_path / "peak.eegc"
        save_checkpoint(path, config, TrainConfig(), params, init_adam(params.tensors),
                        epoch=0, rng=np.random.default_rng(0), history=[])
        param_bytes = sum(t.data.nbytes for t in params.tensors.values())
        assert params.tensors["cnn.fc.weight"].data.nbytes > 0.9 * param_bytes
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            _, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ckpt.adam_state
            _, state_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_peak <= 1.02 * param_bytes
        assert state_peak <= 1.02 * 3 * param_bytes  # the parameters already held

    def test_moments_read_once_and_kept(self, tiny_checkpoint, tmp_path):
        path = tmp_path / "kept.eegc"
        path.write_bytes(tiny_checkpoint.read_bytes())
        ckpt = load_checkpoint(path)
        state = ckpt.adam_state
        path.unlink()
        assert ckpt.adam_state is state

    @pytest.mark.parametrize("change", ["resaved", "other-save", "deleted"])
    def test_moments_of_a_changed_file_rejected(self, tiny_checkpoint, tmp_path, change):
        path = tmp_path / "changed.eegc"
        blob = tiny_checkpoint.read_bytes()
        path.write_bytes(blob)
        ckpt = load_checkpoint(path)
        if change == "resaved":  # the same bytes in a new file: only its identity differs
            with container.replacing(path) as fh:
                fh.write(blob)
        elif change == "other-save":
            params = param_init(ckpt.model_config, seed=1)
            save_checkpoint(path, ckpt.model_config, ckpt.train_config, params,
                            init_adam(params.tensors), epoch=0,
                            rng=np.random.default_rng(1), history=[])
        else:
            path.unlink()
        with pytest.raises(CheckpointError, match=f"Adam moments of {re.escape(str(path))}"):
            ckpt.adam_state

    def test_loaded_arrays_own_native_writeable_memory(self, tiny_checkpoint):
        ckpt = load_checkpoint(tiny_checkpoint)
        state = ckpt.adam_state
        for name, t in ckpt.params.tensors.items():
            for arr in (t.data, state.first_moment[name], state.second_moment[name]):
                assert arr.base is None, name
                assert arr.flags.writeable and arr.flags.c_contiguous, name
                assert arr.dtype.isnative, name

    def test_short_read_is_truncated(self, tiny_checkpoint, tmp_path, monkeypatch):
        # the file shrinks by 50 bytes after its size was taken
        path = tmp_path / "short.eegc"
        path.write_bytes(tiny_checkpoint.read_bytes()[:-50])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 50))
        with pytest.raises(CheckpointTruncatedError, match="second moment of head.out.weight"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [1, 63])
    def test_trailing_bytes_rejected(self, tiny_checkpoint, tmp_path, extra):
        path = tmp_path / "x.eegc"
        path.write_bytes(tiny_checkpoint.read_bytes() + bytes(extra))
        with pytest.raises(CheckpointFormatError, match=f"{extra} bytes after"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, cause", [
        (lambda h: h["tensors"][0].pop("shape"), KeyError),
        (lambda h: h["tensors"][0].update(dtype="floau32"), TypeError),
        (lambda h: h["rng_state"].update(bit_generator="MT"), ValueError),
        (lambda h: h["rng_state"]["state"].update(state=2**128), OverflowError),
        (lambda h: h["model_config"].update(arch="nope"), ValueError),
        (lambda h: h.pop("adam"), KeyError),
        (lambda h: h["model_config"].update(bogus=1), TypeError),
        (lambda h: h["train_config"].update(patience="3"), TypeError),
        (lambda h: h["train_config"].update(learning_rate=-1.0), ValueError),
        (lambda h: h["history"][0].update(epoch="1"), TypeError),
        (lambda h: h["history"][0].update(train_loss="nan"), TypeError),
        (lambda h: h["adam"].update(step=2.5), TypeError),
        (lambda h: h.update(epoch="one"), TypeError),
        (lambda h: h.update(comment="extra"), TypeError),
        (lambda h: h.pop("metrics"), KeyError),
    ], ids=["tensor-without-shape", "unknown-dtype", "rng-not-pcg64", "rng-state-too-large",
            "unknown-arch", "no-adam", "unknown-config-field", "patience-not-int",
            "learning-rate-negative", "history-epoch-string", "history-loss-string",
            "adam-step-float", "epoch-string", "unknown-top-level-key",
            "no-metrics"])
    def test_damaged_header_field_rejected(self, tiny_checkpoint, tmp_path, edit, cause):
        path = tmp_path / "h.eegc"
        rewrite_header(tiny_checkpoint, path, training.CHECKPOINT_FORMAT, edit)
        with pytest.raises(CheckpointFormatError, match="header") as excinfo:
            load_checkpoint(path)
        assert isinstance(excinfo.value.__cause__, cause)

    def test_config_round_trip(self, tiny_checkpoint):
        assert load_checkpoint(tiny_checkpoint).model_config == reduced_config("cascade")

    @pytest.mark.parametrize("entry", [
        {"name": "cnn.conv0.kernex"},
        {"shape": [1, 2, 3, 3]},  # same byte count as the planned [2, 1, 3, 3]
    ], ids=["renamed", "reshaped"])
    def test_tensor_table_must_match_config(self, tiny_checkpoint, tmp_path, entry):
        def edit(header):
            first = header["tensors"][0]
            assert first["name"] == "cnn.conv0.kernel" and first["shape"] == [2, 1, 3, 3]
            first.update(entry)

        path = tmp_path / "t.eegc"
        rewrite_header(tiny_checkpoint, path, training.CHECKPOINT_FORMAT, edit)
        with pytest.raises(CheckpointFormatError, match="tensor table"):
            load_checkpoint(path)
