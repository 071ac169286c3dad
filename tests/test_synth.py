import json
from dataclasses import asdict

import numpy as np
import pytest

from eegnet import dataset as ds
from eegnet import models, synth, training

from conftest import build_prepared


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        assert len(synth.default_spec().classes) == 5

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            synth.SynthSpec(classes=[])

    def test_bad_channel_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            synth.SynthSpec(classes=[synth.SynthClass("x", channels=(0,))])
        with pytest.raises(ValueError, match="out of range"):
            synth.SynthSpec(classes=[synth.SynthClass("x", channels=(65,))])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            synth.SynthSpec(classes=[synth.SynthClass("x")], noise=-1.0)

    @pytest.mark.parametrize("spec", [
        dict(noise=float("inf")),
        dict(noise=float("nan")),
        dict(classes=[synth.SynthClass("x", amplitude=float("nan"))]),
        dict(classes=[synth.SynthClass("x", frequency=float("inf"))]),
        dict(classes=[synth.SynthClass("x", phase=float("nan"))]),
    ], ids=["noise-inf", "noise-nan", "amplitude-nan", "frequency-inf", "phase-nan"])
    def test_non_finite_value_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            synth.SynthSpec(**{"classes": [synth.SynthClass("x")], **spec})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            synth.SynthSpec(classes=[synth.SynthClass("x"), synth.SynthClass("x")])

    def test_rejected_at_generation(self):
        with pytest.raises(ValueError):
            synth.synth_dataset(synth.SynthSpec(classes=[], windows_per_class=5))

    def test_spec_from_dict_round_trip(self):
        doc = {
            "classes": [{"name": "a"}, {"name": "b", "channels": [1, 2], "phase": 1.0}],
            "noise": 0.1,
            "windows_per_class": 7,
            "seed": 3,
        }
        spec = synth.spec_from_dict(doc)
        assert len(spec.classes) == 2
        assert spec.classes[1].channels == (1, 2)
        assert spec.noise == 0.1 and spec.windows_per_class == 7
        # the strict reader takes back what a spec writes as JSON
        spec = synth.default_spec()
        assert synth.spec_from_dict(json.loads(json.dumps(asdict(spec)))) == spec


class TestGeneration:
    def test_default_5_class_balanced_counts(self):
        prepared = build_prepared(windows_per_class=400, noise=0.25, seed=0)
        counts = np.bincount(prepared.labels, minlength=5)
        assert prepared.count == 2000
        assert counts.max() - counts.min() <= 1

    def test_same_spec_and_seed_identical(self):
        a = synth.synth_dataset(synth.default_spec(windows_per_class=10, seed=4))
        b = synth.synth_dataset(synth.default_spec(windows_per_class=10, seed=4))
        assert a[0].recordings == b[0].recordings
        for ra, rb in zip(a[1], b[1]):
            np.testing.assert_array_equal(ra.samples, rb.samples)
            assert ra.label == rb.label

    def test_different_seed_differs(self):
        a = synth.synth_dataset(synth.default_spec(windows_per_class=10, seed=4))
        b = synth.synth_dataset(synth.default_spec(windows_per_class=10, seed=5))
        assert not np.array_equal(a[1][0].samples, b[1][0].samples)

    def test_signal_on_declared_channels_only(self):
        spec = synth.default_spec(windows_per_class=10, noise=0.0, seed=0)
        _, recordings = synth.synth_dataset(spec)
        left = recordings[2]  # first left-early recording
        assert left.label == 1
        active = np.array(spec.classes[1].channels) - 1
        inactive = np.setdiff1d(np.arange(64), active)
        assert np.abs(left.samples[:, inactive]).max() == 0.0
        assert np.abs(left.samples[:, active]).max() > 0.5

    def test_phase_pair_shares_sample_multiset(self):
        # noise-free: a phase pair differs only in temporal order, so the
        # per-window sample multisets coincide and per-sample models cannot
        # separate the pair
        spec = synth.default_spec(windows_per_class=4, noise=0.0, seed=0)
        _, recordings = synth.synth_dataset(spec)
        early = [r for r in recordings if r.label == 1][0]
        late = [r for r in recordings if r.label == 2][0]
        w_early = early.samples[:10]
        w_late = late.samples[:10]
        ch = spec.classes[1].channels[0] - 1
        assert sorted(np.round(w_early[:, ch], 5)) == sorted(np.round(w_late[:, ch], 5))
        assert not np.allclose(w_early[:, ch], w_late[:, ch])

    def test_window_starts_phase_aligned(self):
        # signature period equals the window step, so all windows of a
        # recording carry the same waveform
        spec = synth.default_spec(windows_per_class=6, noise=0.0, seed=0)
        _, recordings = synth.synth_dataset(spec)
        rec = [r for r in recordings if r.label == 3][0]
        windows = ds.window_recordings([rec], window=10).raw
        assert len(windows) > 1
        ch = spec.classes[3].channels[0] - 1
        for w in windows[1:]:
            np.testing.assert_allclose(w[:, ch], windows[0][:, ch], atol=1e-5)


def _tiny(arch, hidden=8):
    return models.ModelConfig(arch=arch, classes=5, window=10, fc_width=16,
                              hidden=hidden, conv_maps=(2, 3, 4))


class TestSeparability:
    def test_noiseless_distinct_pair_reaches_100_percent(self):
        # two maximally distinct classes (different channel groups AND
        # different phases): even the 1D-CNN separates them perfectly
        spec = synth.default_spec(windows_per_class=30, noise=0.0, seed=1)
        spec = synth.SynthSpec(
            classes=[spec.classes[1], spec.classes[4]],
            noise=0.0, windows_per_class=30, seed=1,
        )
        _, recordings = synth.synth_dataset(spec)
        prepared = ds.window_recordings(recordings, window=10)
        train_idx, test_idx = ds.split_indices(prepared.count, 0.75, 0)
        prepared.meta = {"sample_rate": 160,
                "label_names": {"0": "a", "1": "b"},
                "split": {"seed": 0, "ratio": 0.75,
                          "train": train_idx.tolist(), "test": test_idx.tolist()},
                "skipped": []}
        train_set, test_set = prepared.train_test()
        config = models.ModelConfig(arch="cnn1d", classes=2, window=10, fc_width=16,
                                    hidden=8, conv_maps=(2, 3, 4))
        tc = training.TrainConfig(epochs=20, batch_size=16, learning_rate=1e-3,
                                  seed=0, patience=None)
        result = training.train(config, tc, train_set, test_set)
        metrics = training.evaluate(result.params, prepared)
        assert metrics.accuracy == 1.0

    def test_permutation_label_control_is_chance_level(self):
        # shuffled labels carry no signal: test accuracy ~ 1/K
        prepared = build_prepared(windows_per_class=120, noise=0.25, seed=2,
                                  split_seed=3, shuffle_labels=True)
        train_set, test_set = prepared.train_test()
        config = _tiny("cnn1d")
        tc = training.TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3,
                                  seed=0, patience=None)
        result = training.train(config, tc, train_set, test_set)
        metrics = training.evaluate(result.params, test_set)
        assert abs(metrics.accuracy - 0.2) <= 0.05
