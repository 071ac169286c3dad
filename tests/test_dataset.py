import json
import struct

import numpy as np
import pytest

from eegnet import dataset as ds
from eegnet.layout import layout_default, to_mesh, zscore_mesh

from conftest import build_prepared


def make_recording(n_samples, label=2, seed=0):
    rng = np.random.default_rng(seed)
    return ds.Recording(subject="s1", label=label,
                        samples=rng.standard_normal((n_samples, 64)).astype(np.float32))


class TestSegmentWindows:
    def test_exact_window_count_formula(self):
        assert len(ds.segment_windows(make_recording(10))) == 1
        assert len(ds.segment_windows(make_recording(160))) == 31
        assert len(ds.segment_windows(make_recording(9))) == 0

    def test_short_recording_logs_warning(self, caplog):
        with caplog.at_level("WARNING"):
            out = ds.segment_windows(make_recording(9))
        assert out == []
        assert "shorter than window" in caplog.text

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ds.segment_windows(make_recording(20), window=9)

    def test_starts_form_arithmetic_progression(self):
        rec = make_recording(40)
        segments = ds.segment_windows(rec, window=10)
        for i, seg in enumerate(segments):
            np.testing.assert_array_equal(seg.raw, rec.samples[i * 5: i * 5 + 10])

    def test_adjacent_windows_share_half(self):
        segments = ds.segment_windows(make_recording(40), window=10)
        for a, b in zip(segments, segments[1:]):
            np.testing.assert_array_equal(a.raw[5:], b.raw[:5])
            np.testing.assert_array_equal(a.meshes[5:], b.meshes[:5])

    def test_label_inherited_by_every_window(self):
        segments = ds.segment_windows(make_recording(60, label=3))
        assert all(s.label == 3 for s in segments)

    def test_meshes_are_normalized_transform_of_raw(self):
        segments = ds.segment_windows(make_recording(20), window=10)
        for seg in segments:
            for k in range(10):
                expected = zscore_mesh(to_mesh(seg.raw[k].astype(np.float64)))
                np.testing.assert_allclose(seg.meshes[k], expected, atol=1e-5)

    def test_null_cells_zero_through_pipeline(self):
        layout = layout_default()
        segments = ds.segment_windows(make_recording(30), window=10)
        for seg in segments:
            assert np.all(seg.meshes[:, ~layout.mask] == 0)

    def test_all_zero_missing_samples_preserved(self):
        rec = make_recording(20)
        rec.samples[7] = 0.0  # a missing reading
        segments = ds.segment_windows(rec, window=10)
        assert len(segments) == 3
        np.testing.assert_array_equal(segments[0].raw[7], np.zeros(64))
        np.testing.assert_array_equal(segments[0].meshes[7], np.zeros((10, 11)))


class TestSplit:
    def test_75_25(self):
        train, test = ds.split_dataset(list(range(100)), ratio=0.75, seed=0)
        assert len(train) == 75 and len(test) == 25

    def test_deterministic_for_seed(self):
        a = ds.split_dataset(list(range(50)), ratio=0.6, seed=9)
        b = ds.split_dataset(list(range(50)), ratio=0.6, seed=9)
        assert a == b

    def test_odd_count_half_split(self):
        train, test = ds.split_dataset(list(range(101)), ratio=0.5, seed=1)
        assert sorted((len(train), len(test))) == [50, 51]
        assert sorted(train + test) == list(range(101))

    def test_partition_is_disjoint_and_exhaustive(self):
        train, test = ds.split_dataset(list(range(37)), ratio=0.7, seed=2)
        assert set(train) | set(test) == set(range(37))
        assert set(train) & set(test) == set()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ds.split_dataset([], ratio=0.75, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            ds.split_indices(10, 1.0, 0)


class TestPreparedRoundTrip:
    def test_save_load_identical(self, tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        loaded = ds.load_prepared(path)
        np.testing.assert_array_equal(loaded.raw, small_prepared.raw)
        np.testing.assert_array_equal(loaded.meshes, small_prepared.meshes)
        np.testing.assert_array_equal(loaded.labels, small_prepared.labels)
        assert loaded.meta == small_prepared.meta

    def test_truncated_file_rejected(self, tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ds.DatasetTruncatedError, match="truncated"):
            ds.load_prepared(path)

    def test_wrong_magic_rejected_naming_expected(self, tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ds.DatasetFormatError, match="EEGW"):
            ds.load_prepared(path)

    def test_version_mismatch_rejected(self, tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(ds.DatasetVersionError, match="99"):
            ds.load_prepared(path)

    def _damaged(self, tmp_path, small_prepared, offset, patch):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        return path

    def test_huge_window_count_rejected_as_truncated(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 6, struct.pack("<I", 2**32 - 1))
        with pytest.raises(ds.DatasetTruncatedError, match="truncated"):
            ds.load_prepared(path)

    def test_huge_header_length_rejected_as_truncated(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 18, struct.pack("<I", 0xFFFFFFF0))
        with pytest.raises(ds.DatasetTruncatedError, match="truncated"):
            ds.load_prepared(path)

    def test_header_not_utf8_rejected(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 30, b"\xff")
        with pytest.raises(ds.DatasetFormatError, match="header"):
            ds.load_prepared(path)

    def test_header_not_json_rejected(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 22, b"x")
        with pytest.raises(ds.DatasetFormatError, match="header"):
            ds.load_prepared(path)

    @pytest.mark.parametrize("extra", [1, 63])
    def test_trailing_bytes_rejected(self, tmp_path, small_prepared, extra):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        with open(path, "ab") as fh:
            fh.write(bytes(extra))
        with pytest.raises(ds.DatasetFormatError, match=f"{extra} bytes after"):
            ds.load_prepared(path)

    def test_failed_write_leaves_existing_file(self, tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        before = path.read_bytes()
        # labels that cannot become uint8 fail after the float blocks are written
        bad = ds.PreparedDataset(small_prepared.raw, small_prepared.meshes,
                                 np.array(["x"] * small_prepared.count), small_prepared.meta)
        with pytest.raises(ValueError):
            ds.save_prepared(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.eegw"]

    def test_layout_pinned(self, tmp_path, small_prepared):
        # magic, u16 version, u32 q, u16 S, n, rows, cols, u32 header length,
        # JSON header, float32 raw and mesh blocks, uint8 labels
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = path.read_bytes()
        assert blob[:4] == b"EEGW"
        assert struct.unpack_from("<H", blob, 4) == (1,)
        q, s, n, rows, cols = struct.unpack_from("<IHHHH", blob, 6)
        assert (q, s, n, rows, cols) == small_prepared.raw.shape + small_prepared.meshes.shape[2:]
        (header_len,) = struct.unpack_from("<I", blob, 18)
        assert json.loads(blob[22:22 + header_len]) == small_prepared.meta
        assert len(blob) == 4 + 18 + header_len + q * s * (n + rows * cols) * 4 + q
        raw_end = 22 + header_len + q * s * n * 4
        assert blob[22 + header_len:raw_end] == small_prepared.raw.astype("<f4").tobytes()
        assert blob[-q:] == small_prepared.labels.tobytes()

    def test_stored_split_partitions_dataset(self, small_prepared):
        train, test = small_prepared.train_test()
        assert train.count + test.count == small_prepared.count

    def test_empty_subset_keeps_trailing_shapes_and_dtypes(self, small_prepared):
        empty = small_prepared.subset([])
        assert empty.count == 0
        for name in ("raw", "meshes", "labels"):
            got, parent = getattr(empty, name), getattr(small_prepared, name)
            assert got.shape == (0,) + parent.shape[1:]
            assert got.dtype == parent.dtype

    def test_stored_split_with_empty_side(self, tmp_path, small_prepared):
        # a ratio small enough that int(ratio * count) == 0 leaves train empty
        ratio = 0.5 / small_prepared.count
        train_idx, test_idx = ds.split_indices(small_prepared.count, ratio, seed=0)
        meta = dict(small_prepared.meta,
                    split={"seed": 0, "ratio": ratio,
                           "train": train_idx.tolist(), "test": test_idx.tolist()})
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, ds.PreparedDataset(small_prepared.raw, small_prepared.meshes,
                                                  small_prepared.labels, meta))
        train, test = ds.load_prepared(path).train_test()
        assert train.count == 0 and train.raw.shape[1:] == small_prepared.raw.shape[1:]
        assert test.count == small_prepared.count


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((12, 64)).astype(np.float32)
        path = tmp_path / "rec.csv"
        ds.save_recording_csv(path, samples)
        entry = ds.ManifestEntry(path="rec.csv", subject="s", label=1)
        rec = ds.load_recording_csv(path, entry)
        np.testing.assert_allclose(rec.samples, samples, rtol=1e-5)
        assert rec.label == 1 and rec.subject == "s"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n1,2,3\n")
        entry = ds.ManifestEntry(path="rec.csv", subject="s", label=0)
        with pytest.raises(ds.RecordingError, match="header"):
            ds.load_recording_csv(path, entry)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        header = ",".join(f"ch{i + 1}" for i in range(64))
        row = ",".join(["1.0"] * 63 + ["nan"])
        path.write_text(f"{header}\n{row}\n")
        entry = ds.ManifestEntry(path="rec.csv", subject="s", label=0)
        with pytest.raises(ds.RecordingError, match="NaN"):
            ds.load_recording_csv(path, entry)

    @pytest.mark.parametrize("body", ["", "\n\n", "# no rows\n"], ids=["bare", "blank", "comment"])
    def test_header_only_rejected(self, tmp_path, body):
        path = tmp_path / "rec.csv"
        path.write_text(",".join(f"ch{i + 1}" for i in range(64)) + "\n" + body)
        entry = ds.ManifestEntry(path="rec.csv", subject="s", label=0)
        with pytest.raises(ds.RecordingError, match="holds no samples"):
            ds.load_recording_csv(path, entry)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        header = ",".join(f"ch{i + 1}" for i in range(64))
        path.write_text(f"{header}\nnot,numbers,at,all\n")
        entry = ds.ManifestEntry(path="rec.csv", subject="s", label=0)
        with pytest.raises(ds.RecordingError):
            ds.load_recording_csv(path, entry)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry("recordings/a.csv", "s1", 0),
                        ds.ManifestEntry("recordings/b.csv", "s2", 1)],
            label_names={0: "rest", 1: "move"},
            sample_rate=160, split_seed=3, split_ratio=0.8,
        )
        path = tmp_path / "manifest.json"
        ds.save_manifest(path, manifest)
        loaded = ds.load_manifest(path)
        assert loaded.label_names == manifest.label_names
        assert loaded.split_seed == 3 and loaded.split_ratio == 0.8
        assert [e.path for e in loaded.recordings] == ["recordings/a.csv", "recordings/b.csv"]
        assert loaded.base_dir == tmp_path

    def test_sparse_labels_rejected(self):
        with pytest.raises(ds.DatasetError, match="dense"):
            ds.DatasetManifest(recordings=[], label_names={0: "a", 2: "b"})

    def test_unknown_recording_label_rejected(self):
        with pytest.raises(ds.DatasetError, match="missing"):
            ds.DatasetManifest(
                recordings=[ds.ManifestEntry("x.csv", "s", 5)],
                label_names={0: "a"},
            )

    @pytest.mark.parametrize("doc", [
        "{not json",
        {"label_names": {"0": "a"}},
        {"recordings": []},
        {"recordings": [{"label": 0}], "label_names": {"0": "a"}},
        {"recordings": [{"path": "a.csv"}], "label_names": {"0": "a"}},
        {"recordings": [{"path": "a.csv", "label": "x"}], "label_names": {"0": "a"}},
    ], ids=["not-json", "no-recordings", "no-label-names", "no-path", "no-label",
            "label-not-int"])
    def test_damaged_manifest_rejected(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(ds.DatasetError, match="manifest.json"):
            ds.load_manifest(path)


class TestPrepareDataset:
    def test_skips_damaged_recording_and_processes_rest(self, tmp_path, caplog):
        rng = np.random.default_rng(0)
        (tmp_path / "recordings").mkdir()
        ds.save_recording_csv(tmp_path / "recordings/good.csv",
                              rng.standard_normal((20, 64)))
        (tmp_path / "recordings/bad.csv").write_text("broken")
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry("recordings/bad.csv", "s89", 0),
                        ds.ManifestEntry("recordings/good.csv", "s1", 1)],
            label_names={0: "a", 1: "b"},
            base_dir=tmp_path,
        )
        with caplog.at_level("WARNING"):
            prepared = ds.prepare_dataset(manifest, window=10, ratio=0.5, seed=0)
        assert "skipping recording" in caplog.text and "holds no samples" in caplog.text
        assert prepared.meta["skipped"] == ["recordings/bad.csv"]
        assert prepared.count == 3
        assert set(prepared.labels.tolist()) == {1}

    def test_all_damaged_raises(self, tmp_path):
        (tmp_path / "x.csv").write_text("broken")
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry("x.csv", "s", 0)],
            label_names={0: "a"},
            base_dir=tmp_path,
        )
        with pytest.raises(ds.DatasetError, match="no usable windows"):
            ds.prepare_dataset(manifest, window=10)

    def test_threaded_matches_serial(self, tmp_path):
        rng = np.random.default_rng(1)
        (tmp_path / "recordings").mkdir()
        entries = []
        for i in range(4):
            name = f"recordings/r{i}.csv"
            ds.save_recording_csv(tmp_path / name, rng.standard_normal((25, 64)))
            entries.append(ds.ManifestEntry(name, f"s{i}", i % 2))
        manifest = ds.DatasetManifest(recordings=entries, label_names={0: "a", 1: "b"},
                                      base_dir=tmp_path)
        serial = ds.prepare_dataset(manifest, window=10, threads=1)
        threaded = ds.prepare_dataset(manifest, window=10, threads=4)
        np.testing.assert_array_equal(serial.raw, threaded.raw)
        np.testing.assert_array_equal(serial.labels, threaded.labels)


def test_build_prepared_helper_balanced():
    prepared = build_prepared(windows_per_class=10, noise=0.1, seed=0)
    counts = np.bincount(prepared.labels, minlength=5)
    assert counts.tolist() == [10, 10, 10, 10, 10]
