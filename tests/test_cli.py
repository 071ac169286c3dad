import errno
import fcntl
import filecmp
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegnet.autodiff as adiff
from eegnet import cli, container, models, optim, training
from eegnet import dataset as ds

from conftest import rewrite_header


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    rc = cli.main(["synth", "--out", str(out), "--windows-per-class", "24", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def prepared_file(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep") / "data.eegw"
    rc = cli.main(["prepare", "--manifest", str(synth_dir / "manifest.json"),
                   "--out", str(out), "--seed", "3"])
    assert rc == 0
    return out


TINY_MODEL = ["--fc-width", "16", "--hidden", "8", "--epochs", "2",
              "--batch", "32", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def trained_run(prepared_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = {"conv_maps": [2, 3, 4]}
    cfg_path = out / "base.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["train", "--arch", "cascade", "--data", str(prepared_file),
                   "--out", str(out), "--config", str(cfg_path), "--seed", "4",
                   *TINY_MODEL])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_manifest_and_recordings(self, synth_dir):
        manifest = ds.load_manifest(synth_dir / "manifest.json")
        assert manifest.n_classes == 5
        assert len(manifest.recordings) == 10
        for entry in manifest.recordings:
            assert (synth_dir / entry.path).exists()

    def test_same_seed_identical_files(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        rc = cli.main(["synth", "--out", str(again), "--windows-per-class", "24",
                       "--seed", "5"])
        assert rc == 0
        for entry in ds.load_manifest(synth_dir / "manifest.json").recordings:
            assert filecmp.cmp(synth_dir / entry.path, again / entry.path, shallow=False)
        assert filecmp.cmp(synth_dir / "manifest.json", again / "manifest.json",
                           shallow=False)

    def test_invalid_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"classes": [{"name": "x", "channels": [99]}]}))
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)])
        assert rc == 2

    def test_missing_spec_is_usage_error(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--spec",
                       str(tmp_path / "nope.json")])
        assert rc == 2


class TestPrepare:
    def test_reports_window_count_matching_formula(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "p.eegw"
        rc = cli.main(["prepare", "--manifest", str(synth_dir / "manifest.json"),
                       "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        # 5 classes x 24 windows split over 2 recordings of 12 windows each
        assert "windows: 120" in captured
        prepared = ds.load_prepared(out)
        assert prepared.count == 120

    def test_damaged_manifest_is_error(self, synth_dir, tmp_path, capsys):
        # a missing label, then a sample rate below 1 and a path that is no string
        # in an otherwise good manifest
        good = json.loads((synth_dir / "manifest.json").read_text())
        no_path = {**good, "recordings": [{**good["recordings"][0], "path": 7}]}
        for doc, reason in (({"recordings": [{"path": "a.csv"}], "label_names": {"0": "a"}},
                             "not a dataset manifest"),
                            ({**good, "sample_rate": -5}, "sample_rate must be >= 1, got -5"),
                            (no_path, "not a dataset manifest (TypeError('manifest.recordings[0]"
                                      ".path must be a string, got 7'))")):
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(doc))
            out = tmp_path / "x.eegw"
            rc = cli.main(["prepare", "--manifest", str(manifest), "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"error: {manifest}: {reason}" in err
            assert not out.exists()

    def test_manifest_without_recordings_is_error(self, tmp_path, capsys):
        # nothing to load, so no windows: a damaged input, not a usage error
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"label_names": {"0": "a"}, "recordings": []}))
        out = tmp_path / "x.eegw"
        rc = cli.main(["prepare", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: no usable windows" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_manifest_is_usage_error(self, tmp_path):
        rc = cli.main(["prepare", "--manifest", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "x.eegw")])
        assert rc == 2

    def test_corrupt_recording_skipped_with_warning(self, synth_dir, tmp_path, caplog):
        manifest = ds.load_manifest(synth_dir / "manifest.json")
        corrupt = tmp_path / "corrupt"
        (corrupt / "recordings").mkdir(parents=True)
        for entry in manifest.recordings:
            (corrupt / entry.path).write_bytes((synth_dir / entry.path).read_bytes())
        (corrupt / manifest.recordings[0].path).write_text("damaged beyond repair")
        (corrupt / "manifest.json").write_bytes((synth_dir / "manifest.json").read_bytes())
        out = tmp_path / "p.eegw"
        with caplog.at_level("WARNING"):
            rc = cli.main(["prepare", "--manifest", str(corrupt / "manifest.json"),
                           "--out", str(out)])
        assert rc == 0
        assert "skipping recording" in caplog.text
        prepared = ds.load_prepared(out)
        assert prepared.count == 108  # one 12-window recording dropped
        assert prepared.meta["skipped"] == [manifest.recordings[0].path]

    def test_ratio_leaving_a_side_empty_is_usage_error(self, tmp_path, capsys):
        # 5 classes x 4 windows: int(0.01 * 20) == 0 leaves the train side empty
        assert cli.main(["synth", "--out", str(tmp_path), "--windows-per-class", "4"]) == 0
        out = tmp_path / "p.eegw"
        rc = cli.main(["prepare", "--manifest", str(tmp_path / "manifest.json"),
                       "--out", str(out), "--ratio", "0.01"])
        assert rc == 2
        assert ("error: split ratio 0.01 leaves the train side of 20 windows empty"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_odd_window_with_every_recording_skipped_is_usage_error(self, tmp_path, capsys,
                                                                     caplog):
        # the window size is checked before any recording is read
        (tmp_path / "x.csv").write_text("broken")
        ds.save_manifest(tmp_path / "manifest.json", ds.DatasetManifest(
            recordings=[ds.ManifestEntry("x.csv", "s", 0)], label_names={0: "a"}))
        out = tmp_path / "p.eegw"
        with caplog.at_level("WARNING"):
            rc = cli.main(["prepare", "--manifest", str(tmp_path / "manifest.json"),
                           "--out", str(out), "--window-size", "9"])
        assert rc == 2
        assert ("error: window size must be even and >= 2, got 9"
                in capsys.readouterr().err)
        assert "skipping recording" not in caplog.text
        assert not out.exists()


def _with_empty_side(prepared_file, dst, side):
    """A copy of `prepared_file` whose stored split lists no `side` windows."""
    rewrite_header(prepared_file, dst, ds.PREPARED_FORMAT,
                   lambda h: h["split"].update({side: []}))
    return dst


class TestTrain:
    def test_outputs_exist_and_report_accuracy(self, trained_run, capsys):
        assert (trained_run / "checkpoint.eegc").exists()
        assert (trained_run / "history.csv").exists()
        assert (trained_run / "config.json").exists()

    def test_echoed_config_is_valid_config_file(self, trained_run, prepared_file,
                                                tmp_path):
        # idempotent round-trip: feeding the echo back reproduces the run
        out2 = tmp_path / "replay"
        rc = cli.main(["train", "--config", str(trained_run / "config.json"),
                       "--out", str(out2)])
        assert rc == 0
        assert filecmp.cmp(trained_run / "history.csv", out2 / "history.csv",
                           shallow=False)
        echo1 = json.loads((trained_run / "config.json").read_text())
        echo2 = json.loads((out2 / "config.json").read_text())
        echo1.pop("out_dir"), echo2.pop("out_dir")
        assert echo1 == echo2

    def test_canonical_cascade_echo_lists_published_hyperparameters(
            self, prepared_file, tmp_path):
        out = tmp_path / "canon"
        rc = cli.main(["train", "--arch", "cascade", "--data", str(prepared_file),
                       "--out", str(out), "--epochs", "1", "--batch", "128"])
        assert rc == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["hidden"] == 64
        assert echo["fc_width"] == 1024
        assert echo["learning_rate"] == 1e-4
        assert echo["keep_prob"] == 0.5
        assert echo["conv_maps"] == [32, 64, 128]

    def test_same_seed_identical_histories(self, prepared_file, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["train", "--arch", "rnn16", "--data", str(prepared_file),
                           "--out", str(out), "--seed", "7", *TINY_MODEL])
            assert rc == 0
            runs.append(out / "history.csv")
        assert filecmp.cmp(*runs, shallow=False)

    def test_parallel_add_fusion_runs(self, prepared_file, tmp_path):
        out = tmp_path / "par"
        rc = cli.main(["train", "--arch", "parallel", "--fusion", "add",
                       "--data", str(prepared_file), "--out", str(out),
                       "--seed", "1", *TINY_MODEL])
        assert rc == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["arch"] == "parallel" and echo["fusion"] == "add"

    def test_missing_data_is_usage_error(self, tmp_path):
        rc = cli.main(["train", "--arch", "cascade",
                       "--data", str(tmp_path / "none.eegw"), "--out", str(tmp_path)])
        assert rc == 2

    def test_test_split_evaluated_once_per_epoch(self, prepared_file, tmp_path,
                                                 monkeypatch):
        calls = []
        evaluate = training.evaluate
        monkeypatch.setattr(training, "evaluate",
                            lambda *a, **kw: calls.append(1) or evaluate(*a, **kw))
        out = tmp_path / "once"
        rc = cli.main(["train", "--arch", "cascade", "--data", str(prepared_file),
                       "--out", str(out), "--conv-depth", "1", *TINY_MODEL])
        assert rc == 0
        history_rows = (out / "history.csv").read_text().splitlines()[1:]
        assert len(calls) == len(history_rows) == 2

    def test_divergence_is_error(self, prepared_file, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise training.TrainingDiverged("loss became nan at epoch 1, step 1")

        monkeypatch.setattr(training, "train", diverge)
        out = tmp_path / "diverged"
        rc = cli.main(["train", "--arch", "cascade", "--data", str(prepared_file),
                       "--out", str(out), *TINY_MODEL])
        assert rc == 1
        assert "error: loss became nan at epoch 1, step 1" in capsys.readouterr().err
        assert not (out / "checkpoint.eegc").exists()

    def test_window_mismatch_is_descriptive_failure(self, prepared_file, tmp_path):
        rc = cli.main(["train", "--arch", "cascade", "--data", str(prepared_file),
                       "--out", str(tmp_path / "w"), "--window-size", "6",
                       *TINY_MODEL])
        assert rc == 1

    # the dataset has 64 channels on a 10x11 mesh; a model of another shape
    # must be refused before anything is written
    @pytest.mark.parametrize("arch, field, value, message", [
        ("cascade", "channels", 32, "dataset channels 64 does not match config channels 32"),
        ("rnn64", "channels", 32, "dataset channels 64 does not match config channels 32"),
        ("cascade", "mesh_h", 9, "dataset mesh 10x11 does not match config mesh 9x11"),
    ], ids=["cascade-channels", "rnn64-channels", "cascade-mesh"])
    def test_input_shape_mismatch_is_descriptive_failure(self, prepared_file, tmp_path, capsys,
                                                         arch, field, value, message):
        cfg_path = tmp_path / "shape.json"
        cfg_path.write_text(json.dumps({"conv_maps": [2, 3, 4], field: value}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--arch", arch, "--data", str(prepared_file),
                       "--out", str(out), "--config", str(cfg_path), *TINY_MODEL])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "checkpoint.eegc").exists()

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_empty_split_side_is_error(self, prepared_file, tmp_path, capsys, side):
        data = _with_empty_side(prepared_file, tmp_path / "empty.eegw", side)
        rc = cli.main(["train", "--arch", "cascade", "--data", str(data),
                       "--out", str(tmp_path / "run"), *TINY_MODEL])
        assert rc == 1
        assert f"error: {data}: the {side} split holds no windows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_and_eval_never_build_dense_windows(self, prepared_file, tmp_path,
                                                      monkeypatch):
        # both run on the dataset's frames and each batch's frame index
        def dense(_self):
            raise AssertionError("dense (q, S, ...) windows built")

        monkeypatch.setattr(ds.PreparedDataset, "raw", property(dense))
        monkeypatch.setattr(ds.PreparedDataset, "meshes", property(dense))
        out = tmp_path / "frames"
        config = tmp_path / "maps.json"
        config.write_text(json.dumps({"conv_maps": [2, 3, 4]}))
        assert cli.main(["train", "--arch", "parallel", "--data", str(prepared_file),
                         "--out", str(out), "--config", str(config), *TINY_MODEL]) == 0
        assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.eegc"),
                         "--data", str(prepared_file), "--split", "all"]) == 0


class TestEvalPredict:
    def test_eval_prints_metrics_and_writes_json(self, trained_run, prepared_file,
                                                 tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--data", str(prepared_file), "--split", "test",
                       "--json-out", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "confusion matrix" in out
        doc = json.loads(report.read_text())
        confusion = np.array(doc["confusion"])
        # recomputation oracle over the emitted report
        diag = np.diag(confusion).astype(float)
        assert abs(doc["accuracy"] - diag.sum() / confusion.sum()) <= 1e-12
        for k in range(confusion.shape[0]):
            col, row = confusion[:, k].sum(), confusion[k].sum()
            p = diag[k] / col if col else 0.0
            r = diag[k] / row if row else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(doc["precision"][k] - p) <= 1e-12
            assert abs(doc["recall"][k] - r) <= 1e-12
            assert abs(doc["f1"][k] - f) <= 1e-12

    def test_predict_probabilities_sum_to_one(self, trained_run, prepared_file, capsys):
        rc = cli.main(["predict", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--windows", str(prepared_file)])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("window")]
        assert len(lines) == 120
        for line in lines[:10]:
            probs = [float(x) for x in line.split("probs=[")[1].rstrip("]").split()]
            assert abs(sum(probs) - 1.0) <= 1e-6

    def test_predict_prints_the_probabilities_of_evaluates_pass(self, trained_run, prepared_file,
                                                                capsys, monkeypatch):
        ckpt_path = trained_run / "checkpoint.eegc"
        assert cli.main(["predict", "--checkpoint", str(ckpt_path),
                         "--windows", str(prepared_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = np.array([[float(x) for x in line.split("probs=[")[1].rstrip("]").split()]
                            for line in lines])
        classes = [int(line.split("class=")[1].split()[0]) for line in lines]
        seen = []
        real = training.softmax_cross_entropy_batch

        def record(logits, labels):
            seen.append(real(logits, labels))
            return seen[-1]

        monkeypatch.setattr(training, "softmax_cross_entropy_batch", record)
        prepared = ds.load_prepared(prepared_file)
        metrics = training.evaluate(training.load_checkpoint(ckpt_path).params, prepared)
        evaluated = np.concatenate([probs for _, probs in seen])
        assert printed.tobytes() == evaluated.astype(np.float64).tobytes()
        confusion = np.zeros_like(metrics.confusion)
        np.add.at(confusion, (prepared.labels, classes), 1)
        np.testing.assert_array_equal(confusion, metrics.confusion)

    def test_predict_into_closed_pipe_exits_quietly(self, trained_run, prepared_file):
        # the reader closes the pipe after one line, as `| head -1` does; a
        # one-page pipe cannot hold the rest, so the command is still writing
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "eegnet.cli", "predict",
             "--checkpoint", str(trained_run / "checkpoint.eegc"), "--windows", str(prepared_file)],
            stdout=write_fd, stderr=subprocess.PIPE, env=env)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb", buffering=0) as out:
            assert out.readline().startswith(b"window 0:")
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    @pytest.mark.parametrize("command, data_flag", [("eval", "--data"),
                                                    ("predict", "--windows")])
    def test_scoring_never_reads_the_adam_moments(self, trained_run, prepared_file, capsys,
                                                  monkeypatch, command, data_flag):
        argv = [command, "--checkpoint", str(trained_run / "checkpoint.eegc"),
                data_flag, str(prepared_file)]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out

        def unread(ckpt):
            raise AssertionError("the Adam moments were read")

        monkeypatch.setattr(training.Checkpoint, "adam_state", property(unread))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_checkpoint_header_not_utf8_is_error(self, trained_run, prepared_file,
                                                 tmp_path, capsys):
        blob = bytearray((trained_run / "checkpoint.eegc").read_bytes())
        blob[12] = 0xFF  # inside the JSON header, which starts at byte 10
        damaged = tmp_path / "damaged.eegc"
        damaged.write_bytes(bytes(blob))
        rc = cli.main(["eval", "--checkpoint", str(damaged), "--data", str(prepared_file)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_damaged_field_is_error(self, trained_run, prepared_file,
                                               tmp_path, capsys):
        damaged = tmp_path / "damaged.eegc"
        rewrite_header(trained_run / "checkpoint.eegc", damaged, training.CHECKPOINT_FORMAT,
                       lambda h: h["model_config"].update(arch="nope"))
        rc = cli.main(["eval", "--checkpoint", str(damaged), "--data", str(prepared_file)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data_flag", [("eval", "--data"),
                                                    ("predict", "--windows")],
                             ids=["eval", "predict"])
    def test_checkpoint_tensor_table_mismatch_is_error(self, trained_run, prepared_file,
                                                       tmp_path, capsys, command, data_flag):
        damaged = tmp_path / "renamed.eegc"
        rewrite_header(trained_run / "checkpoint.eegc", damaged, training.CHECKPOINT_FORMAT,
                       lambda h: h["tensors"][0].update(name="cnn.conv0.kernex"))
        rc = cli.main([command, "--checkpoint", str(damaged), data_flag, str(prepared_file)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data_flag", [("eval", "--data"),
                                                    ("predict", "--windows")],
                             ids=["eval", "predict"])
    def test_class_count_mismatch_is_error(self, prepared_file, tmp_path, capsys,
                                           command, data_flag):
        config = models.ModelConfig("cascade", classes=3, fc_width=16, hidden=8,
                                    conv_maps=(2, 3, 4))
        params = models.param_init(config, seed=0)
        path = tmp_path / "three.eegc"
        training.save_checkpoint(path, config, training.TrainConfig(), params,
                                 optim.init_adam(params.tensors, learning_rate=1e-3),
                                 epoch=0, rng=np.random.default_rng(0), history=[])
        rc = cli.main([command, "--checkpoint", str(path), data_flag, str(prepared_file)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: dataset classes 5 does not match checkpoint classes 3" in captured.err
        assert "window 0:" not in captured.out

    @pytest.mark.parametrize("command, data_flag", [("eval", "--data"),
                                                    ("predict", "--windows")],
                             ids=["eval", "predict"])
    def test_mesh_mismatch_is_error(self, prepared_file, tmp_path, capsys, command, data_flag):
        config = models.ModelConfig("cascade", mesh_h=9, fc_width=16, hidden=8,
                                    conv_maps=(2, 3, 4))
        params = models.param_init(config, seed=0)
        path = tmp_path / "mesh9.eegc"
        training.save_checkpoint(path, config, training.TrainConfig(), params,
                                 optim.init_adam(params.tensors, learning_rate=1e-3),
                                 epoch=0, rng=np.random.default_rng(0), history=[])
        rc = cli.main([command, "--checkpoint", str(path), data_flag, str(prepared_file)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: dataset mesh 10x11 does not match checkpoint mesh 9x11" in captured.err
        assert "window 0:" not in captured.out

    def test_eval_window_mismatch_is_error(self, tiny_checkpoint, prepared_file, capsys):
        rc = cli.main(["eval", "--checkpoint", str(tiny_checkpoint),
                       "--data", str(prepared_file)])
        assert rc == 1
        assert ("error: dataset window 10 does not match checkpoint window 3"
                in capsys.readouterr().err)

    # v1 stored dense weights (in, out), v2 the LSTM input weights (in, 4·hidden),
    # v3 the Adam decay rates and epsilon and `train_config.shuffle`, v4 the
    # columns of `cnn.fc.weight` ordered (C, *spatial)
    @pytest.mark.parametrize("version", [1, 2, 3, 4], ids=["v1", "v2", "v3", "v4"])
    @pytest.mark.parametrize("command, data_flag", [("eval", "--data"),
                                                    ("predict", "--windows")],
                             ids=["eval", "predict"])
    def test_old_checkpoint_version_is_error(self, trained_run, prepared_file, tmp_path,
                                             capsys, command, data_flag, version):
        blob = bytearray((trained_run / "checkpoint.eegc").read_bytes())
        blob[4:6] = version.to_bytes(2, "little")
        old = tmp_path / f"v{version}.eegc"
        old.write_bytes(bytes(blob))
        rc = cli.main([command, "--checkpoint", str(old), data_flag, str(prepared_file)])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"error: unsupported checkpoint version {version}, expected 5" in captured.err
        assert "window 0:" not in captured.out

    # v2 stored every window whole; re-running `prepare` writes v3
    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_old_dataset_version_is_error(self, trained_run, prepared_file, tmp_path, capsys,
                                          command):
        blob = bytearray(prepared_file.read_bytes())
        blob[4:6] = (2).to_bytes(2, "little")
        old = tmp_path / "v2.eegw"
        old.write_bytes(bytes(blob))
        checkpoint = str(trained_run / "checkpoint.eegc")
        argv = {
            "train": ["train", "--arch", "cascade", "--data", str(old),
                      "--out", str(tmp_path / "run"), *TINY_MODEL],
            "eval": ["eval", "--checkpoint", checkpoint, "--data", str(old)],
            "predict": ["predict", "--checkpoint", checkpoint, "--windows", str(old)],
        }[command]
        rc = cli.main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: unsupported prepared dataset version 2, expected 3" in captured.err
        assert "window 0:" not in captured.out

    def test_label_outside_label_names_is_error(self, trained_run, prepared_file, tmp_path,
                                                capsys):
        blob = bytearray(prepared_file.read_bytes())
        blob[-1] = 9  # the last window's label, in a 5-class dataset
        damaged = tmp_path / "label9.eegw"
        damaged.write_bytes(bytes(blob))
        rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--data", str(damaged), "--split", "all"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: prepared dataset window " in err and "has label 9" in err

    @pytest.mark.parametrize("entry", [1000000, -1], ids=["past-the-end", "negative"])
    def test_split_index_outside_windows_is_error(self, trained_run, prepared_file, tmp_path,
                                                  capsys, entry):
        damaged = tmp_path / "split.eegw"
        rewrite_header(prepared_file, damaged, ds.PREPARED_FORMAT,
                       lambda h: h["split"]["test"].append(entry))
        rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--data", str(damaged)])
        assert rc == 1
        assert f"error: prepared dataset split.test holds {entry}" in capsys.readouterr().err

    def test_missing_checkpoint_is_usage_error(self, prepared_file, tmp_path):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.eegc"),
                       "--data", str(prepared_file)])
        assert rc == 2

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_eval_on_empty_split_side_is_error(self, trained_run, prepared_file, tmp_path,
                                               capsys, side):
        data = _with_empty_side(prepared_file, tmp_path / "empty.eegw", side)
        rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--data", str(data), "--split", side])
        assert rc == 1
        assert f"error: {data}: the {side} split holds no windows" in capsys.readouterr().err

    def test_eval_on_the_other_side_of_an_empty_one_runs(self, trained_run, prepared_file,
                                                         tmp_path, capsys):
        data = _with_empty_side(prepared_file, tmp_path / "empty.eegw", "test")
        rc = cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                       "--data", str(data), "--split", "train"])
        assert rc == 0
        assert "accuracy:" in capsys.readouterr().out


class TestGradcheck:
    def test_single_op_passes(self, capsys):
        rc = cli.main(["gradcheck", "--op", "elu"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS elu")

    def test_op_filter_restricts_suite(self, capsys):
        rc = cli.main(["gradcheck", "--op", "conv2d"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "conv2d" in lines[0]

    def test_unknown_op_is_usage_error(self):
        assert cli.main(["gradcheck", "--op", "bogus"]) == 2

    def test_injected_sign_flip_detected(self, monkeypatch, capsys):
        original = adiff._tanh_grad
        monkeypatch.setattr(adiff, "_tanh_grad", lambda out: -original(out))
        rc = cli.main(["gradcheck", "--op", "lstm"])
        assert rc == 1
        assert "FAIL lstm" in capsys.readouterr().out


def test_usage_error_exit_code_for_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--arch", "transformer"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, reason", [
    (["train", "--arch", "cascade", "--keep-prob", "2"], "keep probability"),
    (["train", "--arch", "cascade", "--epochs", "0"], "epochs"),
    # "--epochs 1" keeps a run that ignores the typo short
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{typo}"], "epoch"),
    (["train", "--arch", "cascade", "--config", "{garbage}"], "JSON"),
    (["synth", "--spec", "{garbage}"], "JSON"),
    (["synth", "--windows-per-class", "0"], "windows_per_class"),
    (["prepare", "--window-size", "9"], "window size"),
    (["prepare", "--ratio", "1.5"], "ratio"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{hidden}"],
     "hidden must be an int"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{patience}"],
     "patience must be an int or None"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{data}"],
     "data must be a string"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{maps}"],
     "conv_maps entries must be >= 1"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{seed}"],
     "seed must be >= 0"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{lr}"],
     "learning_rate must be finite and >= 0"),
    (["synth", "--seed", "-1"], "seed must be >= 0"),
    (["synth", "--spec", "{spec_typo}"], "unknown spec field(s): windows_per_clas"),
    (["synth", "--spec", "{class_typo}"], "unknown spec.classes[1] field(s): amplitud"),
    (["synth", "--spec", "{channel_float}"], "channels must be a list of ints, got [1.9]"),
    (["synth", "--spec", "{windows_float}"], "windows_per_class must be an int, got 2.9"),
    (["synth", "--spec", "{seed_bool}"], "seed must be an int, got True"),
    (["train", "--arch", "parallel", "--epochs", "1", "--config", "{add_unequal}"],
     "add fusion needs equal feature sizes"),
    (["train", "--arch", "parallel", "--epochs", "1", "--config", "{cat_conv_unequal}"],
     "cat-conv fusion needs equal feature sizes"),
    (["synth", "--spec", "{rate_zero}"], "sample_rate must be >= 1, got 0"),
    (["synth", "--noise", "nan"], "noise level must be finite and >= 0, got nan"),
    (["synth", "--spec", "{amplitude_nan}"], "class b: amplitude must be finite and >= 0"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{shuffle}"],
     "unknown run config field(s): shuffle"),
    (["train", "--epochs", "1", "--config", "{arch_list}"],
     "run config.arch must be a string, got ['cascade']"),
    (["train", "--arch", "cascade", "--epochs", "1", "--config", "{patience_negative}"],
     "patience must be >= 0, got -5"),
], ids=["keep-prob-2", "epochs-0", "config-typo", "config-not-json", "spec-not-json",
        "synth-zero-windows", "prepare-odd-window", "prepare-ratio-1.5", "config-hidden-float",
        "config-patience-string", "config-data-number", "config-conv-maps-zero",
        "config-seed-negative", "config-lr-negative", "synth-seed-negative",
        "spec-unknown-key", "spec-class-unknown-key", "spec-channel-float",
        "spec-windows-float", "spec-seed-bool", "config-parallel-add-unequal",
        "config-parallel-cat-conv-unequal", "spec-sample-rate-zero", "synth-noise-nan",
        "spec-amplitude-nan", "config-shuffle",
        "config-arch-list", "config-patience-negative"])
def test_bad_input_is_usage_error(argv, reason, synth_dir, prepared_file, tmp_path, capsys):
    configs = {"typo": {"epoch": 1}, "hidden": {"hidden": 8.5}, "patience": {"patience": "3"},
               "patience_negative": {"patience": -5},
               "data": {"data": 5}, "maps": {"conv_maps": [0, 3, 4]}, "seed": {"seed": -1},
               "lr": {"learning_rate": -1.0},
               "spec_typo": {"classes": [{"name": "a"}, {"name": "b"}], "windows_per_clas": 3},
               "class_typo": {"classes": [{"name": "a"}, {"name": "b", "amplitud": 2}],
                              "windows_per_class": 2},
               "channel_float": {"classes": [{"name": "a", "channels": [1.9]}]},
               "windows_float": {"classes": [{"name": "a"}], "windows_per_class": 2.9},
               "seed_bool": {"classes": [{"name": "a"}], "seed": True},
               "add_unequal": {"fusion": "add", "final_fc": False},
               "cat_conv_unequal": {"fusion": "cat-conv", "mid_fc": False},
               "rate_zero": {"classes": [{"name": "a"}, {"name": "b", "channels": [1]}],
                             "sample_rate": 0},
               "amplitude_nan": {"classes": [{"name": "a"},
                                             {"name": "b", "amplitude": float("nan")}]},
               "shuffle": {"shuffle": True}, "arch_list": {"arch": ["cascade"]}}
    files = {name: tmp_path / f"{name}.json" for name in configs}
    for name, doc in configs.items():
        files[name].write_text(json.dumps(doc))
    files["garbage"] = tmp_path / "garbage.json"
    files["garbage"].write_text("{not json")
    out = tmp_path / "out"
    inputs = {"train": ["--data", str(prepared_file)], "synth": [],
              "prepare": ["--manifest", str(synth_dir / "manifest.json")]}[argv[0]]
    if "{data}" in argv:  # the config file names the dataset, so no --data flag
        inputs = []
    rc = cli.main([argv[0], *inputs, "--out", str(out),
                   *(a.format(**files) for a in argv[1:])])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and reason in err
    assert not out.exists()
    assert not list(tmp_path.rglob("checkpoint.eegc")) and not list(tmp_path.rglob("config.json"))


@pytest.mark.parametrize("argv, named", [
    (["prepare", "--manifest", "{manifest}", "--out", "{missing}/data.eegw"],
     "{missing}/data.eegw"),
    (["prepare", "--manifest", "{manifest}", "--out", "{dir}"], "{dir}"),
    (["synth", "--out", "{file}"], "{file}/recordings"),
    (["train", "--arch", "cascade", "--data", "{data}", "--out", "{file}/run", *TINY_MODEL],
     "{file}/run"),
    (["train", "--arch", "cascade", "--data", "{dir}", "--out", "{run}", *TINY_MODEL], "{dir}"),
    (["eval", "--checkpoint", "{checkpoint}", "--data", "{data}",
      "--json-out", "{missing}/r.json"], "{missing}/r.json"),
    (["eval", "--checkpoint", "{checkpoint}", "--data", "{dir}"], "{dir}"),
    (["eval", "--checkpoint", "{dir}", "--data", "{data}"], "{dir}"),
    (["predict", "--checkpoint", "{checkpoint}", "--windows", "{dir}"], "{dir}"),
    (["predict", "--checkpoint", "{dir}", "--windows", "{data}"], "{dir}"),
], ids=["prepare-out-missing-dir", "prepare-out-dir", "synth-out-file", "train-out-under-file",
        "train-data-dir", "eval-json-out-missing-dir", "eval-data-dir", "eval-checkpoint-dir",
        "predict-windows-dir", "predict-checkpoint-dir"])
def test_unusable_path_is_error(argv, named, synth_dir, prepared_file, trained_run, tmp_path,
                                capsys, monkeypatch):
    # an output that cannot be written or an input that is a directory: exit 1
    # with `error:` naming the path, before any work is done or printed, and
    # nothing left behind
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("a file\n")
    paths = {"manifest": synth_dir / "manifest.json", "data": prepared_file,
             "checkpoint": trained_run / "checkpoint.eegc", "missing": tmp_path / "missing",
             "dir": tmp_path / "dir", "file": tmp_path / "file", "run": tmp_path / "run"}
    before = sorted(tmp_path.rglob("*"))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated before the paths were checked")

    monkeypatch.setattr(training, "evaluate", no_evaluation)
    assert cli.main([a.format(**paths) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: [Errno" in err and f"'{named.format(**paths)}'" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "a file\n"


def _open_on_a_full_disk(file, mode="r", **kwargs):
    """`open`, except that a file created for writing stores half of its
    first write and then fails as a full disk does."""
    fh = open(file, mode, **kwargs)
    if "x" in mode:
        write = fh.write

        def half_then_fail(data):
            write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = half_then_fail
    return fh


@pytest.mark.parametrize("name", ["history.csv", "manifest.json", "config.json", "report.json"])
def test_failed_text_write_leaves_the_old_file(name, synth_dir, trained_run, prepared_file,
                                               tmp_path, monkeypatch, capsys):
    writers = {
        "history.csv": lambda path: training.write_history(
            path, [training.EpochStats(1, 1.5, 0.25, 1.25, 0.5)]),
        "manifest.json": lambda path: ds.save_manifest(
            path, ds.load_manifest(synth_dir / "manifest.json")),
        "config.json": lambda path: cli._echo_config(
            path.parent, models.canonical_config("cascade"), training.TrainConfig(), "data.eegw"),
        "report.json": lambda path: cli.main(
            ["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
             "--data", str(prepared_file), "--json-out", str(path)]),
    }
    path = tmp_path / name
    path.write_bytes(b"the old file\n")
    monkeypatch.setattr(container, "open", _open_on_a_full_disk, raising=False)
    if name == "report.json":  # the CLI reports the failed write and exits 1
        assert writers[name](path) == 1
        assert f"No space left on device: '{path}'" in capsys.readouterr().err
    else:
        with pytest.raises(OSError, match="No space left on device"):
            writers[name](path)
    assert path.read_bytes() == b"the old file\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_eval_report_into_a_pipe(trained_run, prepared_file, tmp_path):
    # a pipe cannot be replaced, so the report is written into it
    fifo = tmp_path / "report.json"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["eval", "--checkpoint", str(trained_run / "checkpoint.eegc"),
                         "--data", str(prepared_file), "--json-out", str(fifo)]) == 0
        report = json.loads(os.read(reader, 1 << 16))
    finally:
        os.close(reader)
    assert report["split"] == "test" and "confusion" in report
    assert stat.S_ISFIFO(fifo.stat().st_mode)
