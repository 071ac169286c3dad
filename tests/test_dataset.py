import json
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from eegnet import container
from eegnet import dataset as ds
from eegnet.layout import MASK, to_mesh, zscore_mesh

from conftest import build_prepared, rewrite_header


def make_recording(n_samples, label=2, seed=0):
    rng = np.random.default_rng(seed)
    return ds.Recording(label=label,
                        samples=rng.standard_normal((n_samples, 64)).astype(np.float32))


def windows_of(*recordings, window=10):
    return ds.window_recordings(list(recordings), window=window)


class TestSegmentWindows:
    """Windowing of in-memory recordings; every window is checked against a
    slice of its recording's samples."""

    def test_exact_window_count_formula(self):
        assert windows_of(make_recording(10)).count == 1
        assert windows_of(make_recording(160)).count == 31
        assert windows_of(make_recording(9), make_recording(10)).count == 1
        with pytest.raises(ds.DatasetError, match="no usable windows"):
            windows_of(make_recording(9))

    def test_short_recording_logs_warning(self, tmp_path, caplog):
        # a manifest entry need not name a subject; the warning names its path
        rng = np.random.default_rng(0)
        (tmp_path / "recordings").mkdir()
        for name, n_samples in (("short", 9), ("long", 20)):
            ds.save_recording_csv(tmp_path / f"recordings/{name}.csv",
                                  rng.standard_normal((n_samples, 64)))
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry("recordings/short.csv", "", 0),
                        ds.ManifestEntry("recordings/long.csv", "", 0)],
            label_names={0: "a"}, base_dir=tmp_path)
        with caplog.at_level("WARNING"):
            prepared = ds.prepare_dataset(manifest, window=10, ratio=0.5)
        assert prepared.count == 3
        assert ("recording recordings/short.csv has 9 samples, shorter than window 10"
                in caplog.text)

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError, match="even"):
            windows_of(make_recording(20), window=9)

    def test_starts_form_arithmetic_progression(self):
        rec = make_recording(40)
        prepared = windows_of(rec)
        assert prepared.count == 7
        for i, window in enumerate(prepared.raw):
            np.testing.assert_array_equal(window, rec.samples[i * 5: i * 5 + 10])

    def test_windows_never_cross_recordings(self):
        first, second = make_recording(20, seed=1), make_recording(27, label=4, seed=2)
        prepared = windows_of(first, second)
        expected = ([first.samples[s:s + 10] for s in (0, 5, 10)]
                    + [second.samples[s:s + 10] for s in (0, 5, 10, 15)])
        assert prepared.count == len(expected)
        for got, want in zip(prepared.raw, expected):
            np.testing.assert_array_equal(got, want)
        assert prepared.labels.tolist() == [2] * 3 + [4] * 4

    def test_adjacent_windows_share_half(self):
        prepared = windows_of(make_recording(40))
        # the same frames, held once, not equal copies
        np.testing.assert_array_equal(prepared.index[1:, :5], prepared.index[:-1, 5:])
        assert len(prepared.frames) == 40
        for a, b in zip(prepared.raw, prepared.raw[1:]):
            np.testing.assert_array_equal(a[5:], b[:5])
        for a, b in zip(prepared.meshes, prepared.meshes[1:]):
            np.testing.assert_array_equal(a[5:], b[:5])

    def test_label_inherited_by_every_window(self):
        prepared = windows_of(make_recording(60, label=3))
        assert prepared.labels.dtype == np.uint8
        assert prepared.labels.tolist() == [3] * 11

    def test_meshes_are_normalized_transform_of_raw(self):
        rec = make_recording(20)
        prepared = windows_of(rec)
        for i, window in enumerate(prepared.meshes):
            for k in range(10):
                expected = zscore_mesh(to_mesh(rec.samples[5 * i + k].astype(np.float64)))
                np.testing.assert_allclose(window[k], expected, atol=1e-5)

    def test_null_cells_zero_through_pipeline(self):
        prepared = windows_of(make_recording(30))
        assert np.all(prepared.meshes[:, :, ~MASK] == 0)

    def test_all_zero_missing_samples_preserved(self):
        rec = make_recording(20)
        rec.samples[7] = 0.0  # a missing reading
        prepared = windows_of(rec)
        assert prepared.count == 3
        np.testing.assert_array_equal(prepared.raw[0, 7], np.zeros(64))
        np.testing.assert_array_equal(prepared.meshes[0, 7], np.zeros((10, 11)))


class TestSplit:
    def test_75_25(self):
        train, test = ds.split_indices(100, 0.75, 0)
        assert len(train) == 75 and len(test) == 25

    def test_deterministic_for_seed(self):
        a = ds.split_indices(50, 0.6, 9)
        b = ds.split_indices(50, 0.6, 9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_odd_count_half_split(self):
        train, test = ds.split_indices(101, 0.5, 1)
        assert sorted((len(train), len(test))) == [50, 51]
        assert sorted([*train, *test]) == list(range(101))

    def test_partition_is_disjoint_and_exhaustive(self):
        train, test = ds.split_indices(37, 0.7, 2)
        assert set(train) | set(test) == set(range(37))
        assert set(train) & set(test) == set()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ds.split_indices(0, 0.75, 0)

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

    @staticmethod
    def _saved_path(tmp_path, small_prepared):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        return path

    @classmethod
    def _saved(cls, tmp_path, small_prepared) -> bytes:
        return cls._saved_path(tmp_path, small_prepared).read_bytes()

    def _damaged(self, tmp_path, small_prepared, offset, patch):
        path = tmp_path / "d.eegw"
        blob = bytearray(self._saved(tmp_path, small_prepared))
        blob[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        return path

    def test_huge_window_count_rejected_as_truncated(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 6, struct.pack("<I", 2**32 - 1))
        with pytest.raises(ds.DatasetTruncatedError, match="truncated"):
            ds.load_prepared(path)

    def test_huge_frame_count_refused_before_allocating(self, tmp_path, small_prepared):
        # 2**32 - 1 frames of 64 float32 channels would take 1 TiB
        path = self._damaged(tmp_path, small_prepared, 14, struct.pack("<I", 2**32 - 1))
        tracemalloc.start()
        try:
            with pytest.raises(ds.DatasetTruncatedError, match="truncated while reading frames"):
                ds.load_prepared(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_loaded_arrays_own_native_writeable_memory(self, tmp_path, small_prepared):
        loaded = ds.load_prepared(self._saved_path(tmp_path, small_prepared))
        for arr in (loaded.frames, loaded.starts, loaded.labels):
            assert arr.base is None
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert arr.dtype.isnative

    def test_huge_header_length_rejected_as_truncated(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 18, struct.pack("<I", 0xFFFFFFF0))
        with pytest.raises(ds.DatasetTruncatedError, match="truncated"):
            ds.load_prepared(path)

    def test_header_not_utf8_rejected(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 34, b"\xff")
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

    def test_failed_write_leaves_existing_file(self, tmp_path, small_prepared, monkeypatch):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        before = path.read_bytes()
        write = container.write

        def fail_after_frames(path, fmt, fixed, header, arrays):
            def blocks():
                yield next(iter(arrays))
                raise OSError("disk full")
            write(path, fmt, fixed, header, blocks())

        monkeypatch.setattr(container, "write", fail_after_frames)
        with pytest.raises(OSError, match="disk full"):
            ds.save_prepared(path, small_prepared.subset(np.arange(3)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.eegw"]

    @pytest.mark.parametrize("label, names", [(5, 5), (-1, 5), ("x", 5), (300, 301)],
                             ids=["past-the-keys", "negative", "string", "past-a-byte"])
    def test_label_not_a_key_not_saved(self, tmp_path, small_prepared, label, names):
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        before = path.read_bytes()
        labels = np.array([0, label])
        meta = dict(small_prepared.meta, label_names={str(k): f"c{k}" for k in range(names)})
        bad = replace(small_prepared.subset([0, 1]), labels=labels, meta=meta)
        with pytest.raises(ds.DatasetError):
            ds.save_prepared(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.eegw"]

    def test_layout_pinned(self, tmp_path, small_prepared):
        # magic, u16 version, u32 q, u16 S, n, u32 F, u32 header length, JSON
        # header, float32 (F, n) frames, uint32 window starts, uint8 labels;
        # no mesh block
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)
        blob = path.read_bytes()
        assert blob[:4] == b"EEGW"
        assert struct.unpack_from("<H", blob, 4) == (3,)
        q, s, n, f = struct.unpack_from("<IHHI", blob, 6)
        assert (q, s, n) == small_prepared.raw.shape
        (header_len,) = struct.unpack_from("<I", blob, 18)
        assert json.loads(blob[22:22 + header_len]) == small_prepared.meta
        assert len(blob) == 22 + header_len + f * n * 4 + q * 4 + q
        frames = np.frombuffer(blob, "<f4", f * n, 22 + header_len).reshape(f, n)
        starts = np.frombuffer(blob, "<u4", q, 22 + header_len + f * n * 4)
        np.testing.assert_array_equal(frames[starts[:, None] + np.arange(s)],
                                      small_prepared.raw)
        assert blob[-q:] == small_prepared.labels.tobytes()
        # S and n are fixed fields and the mesh is `layout`'s, so meta holds
        # only what the manifest and the split add
        ds.save_recording_csv(tmp_path / "rec.csv", small_prepared.frames[:20])
        manifest = ds.DatasetManifest(recordings=[ds.ManifestEntry("rec.csv", "s1", 0)],
                                      label_names={0: "a"}, base_dir=tmp_path)
        meta = ds.prepare_dataset(manifest, ratio=0.5).meta
        assert set(meta) == {"sample_rate", "label_names", "split", "skipped"}

    def test_v1_file_rejected_naming_version(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 4, struct.pack("<H", 1))
        with pytest.raises(ds.DatasetVersionError, match="version 1"):
            ds.load_prepared(path)

    def test_v2_file_rejected_naming_version(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 4, struct.pack("<H", 2))
        with pytest.raises(ds.DatasetVersionError, match="version 2, expected 3"):
            ds.load_prepared(path)

    def test_raw_nan_rejected(self, tmp_path, small_prepared):
        (header_len,) = struct.unpack_from("<I", self._saved(tmp_path, small_prepared), 18)
        nan = np.array([np.nan], dtype="<f4").tobytes()
        path = self._damaged(tmp_path, small_prepared, 22 + header_len + 4 * 37, nan)
        with pytest.raises(ds.DatasetFormatError, match="NaN"):
            ds.load_prepared(path)

    @staticmethod
    def _round_trip(tmp_path, dataset):
        path = tmp_path / "r.eegw"
        ds.save_prepared(path, dataset)
        loaded = ds.load_prepared(path)
        assert loaded.raw.shape == dataset.raw.shape
        assert loaded.raw.tobytes() == dataset.raw.tobytes()
        assert loaded.meshes.tobytes() == dataset.meshes.tobytes()
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        return struct.unpack_from("<I", path.read_bytes(), 14)[0]

    def test_shuffled_subset_round_trips(self, tmp_path, small_prepared):
        order = np.random.default_rng(0).permutation(small_prepared.count)
        self._round_trip(tmp_path, small_prepared.subset(order))

    def test_empty_subset_round_trips(self, tmp_path, small_prepared):
        assert self._round_trip(tmp_path, small_prepared.subset([])) == 0

    def test_chained_windows_share_frames(self, tmp_path, small_prepared):
        # windows 0..2 overlap by half; window 0 again reuses its frames
        assert self._round_trip(tmp_path, small_prepared.subset([0, 1, 2, 0])) == 20

    def test_negative_zero_is_not_shared_with_zero(self, tmp_path):
        # frames are shared by index, never by content: the second
        # recording's first five samples equal the first's last five, but
        # for one 0.0 that reads -0.0, and each window stores all ten
        first = make_recording(10, seed=1)
        first.samples[5, 0] = 0.0
        second = ds.Recording(1, np.concatenate([first.samples[5:],
                                                 make_recording(5, seed=2).samples]))
        for value in (-0.0, 0.0):
            second.samples[0, 0] = value
            pair = windows_of(first, second)
            pair.meta = {"label_names": {"0": "a", "1": "b", "2": "c"}}
            assert self._round_trip(tmp_path, pair) == 20
            loaded = ds.load_prepared(tmp_path / "r.eegw")
            assert np.signbit(loaded.raw[:, :, 0]).tolist() == np.signbit(
                np.stack([first.samples, second.samples])[:, :, 0]).tolist()

    def test_shuffled_non_adjacent_subset_stores_each_frame_once(self, tmp_path):
        rec = make_recording(60)
        order = [8, 1, 3, 9, 6]  # windows 8 and 9 share frames 45..49
        subset = self._eleven_windows(rec).subset(order)
        frames = set().union(*(range(5 * i, 5 * i + 10) for i in order))
        assert self._round_trip(tmp_path, subset) == len(frames) == 45
        loaded = ds.load_prepared(tmp_path / "r.eegw")
        for i, raw, meshes in zip(order, loaded.raw, loaded.meshes):
            np.testing.assert_array_equal(raw, rec.samples[5 * i: 5 * i + 10])
            for k in range(10):
                expected = zscore_mesh(to_mesh(rec.samples[5 * i + k].astype(np.float64)))
                np.testing.assert_allclose(meshes[k], expected, atol=1e-5)

    def test_repeated_window_round_trips(self, tmp_path):
        # three windows on the same ten frames: more than twice as many
        # window steps as stored frames, which the loader accepts
        rec = make_recording(60)
        repeated = self._eleven_windows(rec).subset([0, 0, 0])
        assert self._round_trip(tmp_path, repeated) == 10
        loaded = ds.load_prepared(tmp_path / "r.eegw")
        assert loaded.count == 3
        for raw in loaded.raw:
            np.testing.assert_array_equal(raw, rec.samples[:10])

    @staticmethod
    def _eleven_windows(rec):
        prepared = windows_of(rec)
        prepared.meta = {"label_names": {str(k): f"c{k}" for k in range(3)}}
        return prepared

    def test_channel_count_other_than_64_rejected(self, tmp_path, small_prepared):
        path = self._damaged(tmp_path, small_prepared, 12, struct.pack("<H", 63))
        with pytest.raises(ds.DatasetFormatError, match="63 channels"):
            ds.load_prepared(path)

    def test_holds_only_what_the_file_stores(self, tmp_path, small_prepared, monkeypatch):
        # the meshes are derived from the frames where a model reads them
        assert [f.name for f in fields(ds.PreparedDataset)] == [
            "frames", "starts", "labels", "window", "meta"]
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, small_prepared)

        def no_meshes(_samples):
            raise AssertionError("meshes computed")

        monkeypatch.setattr(ds, "normalized_meshes", no_meshes)
        ds.load_prepared(path)
        windows_of(make_recording(30))

    def test_inputs_are_the_used_frames_and_their_float32_meshes(self, small_prepared):
        subset = small_prepared.subset([9, 2, 9])
        frames, meshes, index = subset.inputs(np.float64)
        assert frames.dtype == meshes.dtype == np.float64 and len(frames) == 20
        np.testing.assert_array_equal(frames[index], subset.raw)
        np.testing.assert_array_equal(meshes[index], subset.meshes)
        assert subset.meshes.dtype == np.float32

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
        ds.save_prepared(path, replace(small_prepared, meta=meta))
        train, test = ds.load_prepared(path).train_test()
        assert train.count == 0 and train.raw.shape[1:] == small_prepared.raw.shape[1:]
        assert test.count == small_prepared.count


    def test_label_outside_label_names_rejected(self, tmp_path, small_prepared):
        # the label block ends the file; its last byte is the last window's label
        path = self._saved_path(tmp_path, small_prepared)
        blob = bytearray(path.read_bytes())
        blob[-1] = 9
        path.write_bytes(bytes(blob))
        last = small_prepared.count - 1
        with pytest.raises(ds.DatasetFormatError,
                           match=f"window {last} has label 9, not a key of label_names"):
            ds.load_prepared(path)

    @pytest.mark.parametrize("names", [{"0": "a", "2": "b"}, ["a", "b"], None],
                             ids=["sparse", "list", "missing"])
    def test_label_names_not_keyed_by_class_index_rejected(self, tmp_path, small_prepared,
                                                           names):
        path = tmp_path / "n.eegw"
        rewrite_header(self._saved_path(tmp_path, small_prepared), path, ds.PREPARED_FORMAT,
                       lambda h: h.update(label_names=names))
        with pytest.raises(ds.DatasetFormatError, match="label_names must be keyed 0..K-1"):
            ds.load_prepared(path)

    def test_label_name_not_a_string_rejected(self, tmp_path, small_prepared):
        # `eegnet eval` formats each name as a string
        path = tmp_path / "n.eegw"
        rewrite_header(self._saved_path(tmp_path, small_prepared), path, ds.PREPARED_FORMAT,
                       lambda h: h["label_names"].update({"0": None}))
        with pytest.raises(ds.DatasetFormatError,
                           match=r"must be keyed 0..K-1 \(dense\) and hold strings"):
            ds.load_prepared(path)

    @pytest.mark.parametrize("side, entry", [
        ("test", 1000000), ("test", -1), ("train", 2.0), ("train", True), ("test", "3"),
    ], ids=["past-the-end", "negative", "float", "bool", "string"])
    def test_split_entry_not_a_window_index_rejected(self, tmp_path, small_prepared,
                                                     side, entry):
        path = tmp_path / "s.eegw"
        rewrite_header(self._saved_path(tmp_path, small_prepared), path, ds.PREPARED_FORMAT,
                       lambda h: h["split"][side].append(entry))
        with pytest.raises(ds.DatasetFormatError, match=f"split.{side} holds {entry!r}, "
                                                        f"not a window index in \\[0, "):
            ds.load_prepared(path)

    @pytest.mark.parametrize("side", ["test", "train"], ids=["both-sides", "one-side-twice"])
    def test_split_index_listed_twice_rejected(self, tmp_path, small_prepared, side):
        path = tmp_path / "s.eegw"
        first = small_prepared.meta["split"]["train"][0]
        rewrite_header(self._saved_path(tmp_path, small_prepared), path, ds.PREPARED_FORMAT,
                       lambda h: h["split"][side].append(first))
        with pytest.raises(ds.DatasetFormatError, match=f"lists window {first} more than once"):
            ds.load_prepared(path)

    @pytest.mark.parametrize("split", [[1, 2], {"train": [0]}, {"test": 3}],
                             ids=["not-an-object", "no-test", "test-not-a-list"])
    def test_split_not_two_index_lists_rejected(self, tmp_path, small_prepared, split):
        path = tmp_path / "s.eegw"
        rewrite_header(self._saved_path(tmp_path, small_prepared), path, ds.PREPARED_FORMAT,
                       lambda h: h.update(split=split))
        with pytest.raises(ds.DatasetFormatError, match="split"):
            ds.load_prepared(path)


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((12, 64)).astype(np.float32)
        path = tmp_path / "rec.csv"
        ds.save_recording_csv(path, samples)
        loaded = ds.load_recording_csv(path)
        assert loaded.dtype == np.float32 and loaded.shape == samples.shape
        np.testing.assert_allclose(loaded, samples, rtol=1e-5)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ds.RecordingError, match="header"):
            ds.load_recording_csv(path)

    def test_nan_rejected(self, tmp_path):
        # 1e39 is finite in float64 but would cast to inf in float32
        path = tmp_path / "rec.csv"
        header = ",".join(f"ch{i + 1}" for i in range(64))
        for cell in ("nan", "1e39"):
            row = ",".join(["1.0"] * 63 + [cell])
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(ds.RecordingError, match="NaN, Inf or values beyond float32"):
                ds.load_recording_csv(path)

    @pytest.mark.parametrize("body", ["", "\n\n", "# no rows\n"], ids=["bare", "blank", "comment"])
    def test_header_only_rejected(self, tmp_path, body):
        path = tmp_path / "rec.csv"
        path.write_text(",".join(f"ch{i + 1}" for i in range(64)) + "\n" + body)
        with pytest.raises(ds.RecordingError, match="holds no samples"):
            ds.load_recording_csv(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        header = ",".join(f"ch{i + 1}" for i in range(64))
        path.write_text(f"{header}\nnot,numbers,at,all\n")
        with pytest.raises(ds.RecordingError):
            ds.load_recording_csv(path)


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
        assert [(e.path, e.subject, e.label) for e in loaded.recordings] == [
            ("recordings/a.csv", "s1", 0), ("recordings/b.csv", "s2", 1)]
        assert loaded.recordings == manifest.recordings
        assert loaded.base_dir == tmp_path

    def test_more_than_256_label_names_rejected(self):
        ds.DatasetManifest(recordings=[], label_names={k: str(k) for k in range(256)})
        with pytest.raises(ds.DatasetError, match="257 label names"):
            ds.DatasetManifest(recordings=[], label_names={k: str(k) for k in range(257)})

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
        {"recordings": [], "label_names": {"0": "a"}, "sample_rate": 0},
        {"recordings": [], "label_names": {"0": "a"}, "sample_rate": -5},
        # each of these loaded, coerced or ignored, before one reader checked manifests
        {"recordings": [], "label_names": {"0": "a"}, "sample_rate": 2.9},
        {"recordings": [], "label_names": {"0": "a"}, "split": {"seed": True}},
        {"recordings": [], "label_names": {"0": "a"}, "split": {"ratio": "0.5"}},
        {"recordings": [{"path": "a.csv", "subject": "s", "label": "0"}],
         "label_names": {"0": "a"}},
        {"recordings": [{"path": "a.csv", "subject": "s", "label": True}],
         "label_names": {"0": "a", "1": "b"}},
        {"recordings": [], "lable_names": {"0": "a"}, "label_names": {"0": "a"}},
        {"recordings": [{"path": "a.csv", "subjekt": "s", "subject": "s", "label": 0}],
         "label_names": {"0": "a"}},
        {"recordings": [], "label_names": {"0": 5}},
        {"recordings": [{"path": 7, "subject": "s", "label": 0}], "label_names": {"0": "a"}},
        {"recordings": [], "label_names": {"00": "a"}},
        {"recordings": [], "label_names": {"0": "a", " 1": "b"}},
        {"recordings": [], "label_names": {"0": "a", "+1": "b"}},
        {"recordings": [{"path": "a.csv", "label": 0}], "label_names": {"0": "a"}},
        [],
    ], ids=["not-json", "no-recordings", "no-label-names", "no-path", "no-label",
            "label-not-int", "sample-rate-zero", "sample-rate-negative", "sample-rate-float",
            "split-seed-bool", "split-ratio-string", "label-string", "label-bool",
            "misspelt-label-names", "misspelt-subject", "label-name-int", "path-int",
            "label-key-00", "label-key-space-1", "label-key-plus-1", "no-subject",
            "not-an-object"])
    def test_damaged_manifest_rejected(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(ds.DatasetError, match="manifest.json"):
            ds.load_manifest(path)

    def test_unreadable_manifest_rejected(self, tmp_path):
        with pytest.raises(ds.DatasetError, match="not a dataset manifest"):
            ds.load_manifest(tmp_path)


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

    @pytest.mark.parametrize("window", [9, 0])
    def test_invalid_window_rejected_before_any_recording_is_read(self, tmp_path, caplog,
                                                                  window):
        # every recording is damaged, so a late check would report no windows
        (tmp_path / "x.csv").write_text("broken")
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry("x.csv", "s", 0)],
            label_names={0: "a"},
            base_dir=tmp_path,
        )
        with caplog.at_level("WARNING"), pytest.raises(ValueError, match="even and >= 2"):
            ds.prepare_dataset(manifest, window=window)
        assert "skipping recording" not in caplog.text

    def test_stores_each_frame_once(self, tmp_path):
        # 20 samples give 3 windows and 27 give 4; a recording of q_r
        # windows stores its 5·(q_r + 1) frames once
        rng = np.random.default_rng(2)
        (tmp_path / "recordings").mkdir()
        entries = []
        for i, n_samples in enumerate((20, 27)):
            name = f"recordings/r{i}.csv"
            ds.save_recording_csv(tmp_path / name, rng.standard_normal((n_samples, 64)))
            entries.append(ds.ManifestEntry(name, f"s{i}", i))
        manifest = ds.DatasetManifest(recordings=entries, label_names={0: "a", 1: "b"},
                                      base_dir=tmp_path)
        prepared = ds.prepare_dataset(manifest, window=10)
        assert prepared.count == 3 + 4
        path = tmp_path / "d.eegw"
        ds.save_prepared(path, prepared)
        assert struct.unpack_from("<I", path.read_bytes(), 14) == (5 * (3 + 1) + 5 * (4 + 1),)
        loaded = ds.load_prepared(path)
        assert loaded.raw.tobytes() == prepared.raw.tobytes()
        assert loaded.meshes.tobytes() == prepared.meshes.tobytes()

    def test_skip_warnings_follow_manifest_order(self, tmp_path, caplog):
        (tmp_path / "recordings").mkdir()
        names = ["recordings/bad0.csv", "recordings/bad1.csv", "recordings/good.csv"]
        for name in names[:2]:
            (tmp_path / name).write_text("broken")
        ds.save_recording_csv(tmp_path / names[2],
                              np.random.default_rng(3).standard_normal((20, 64)))
        manifest = ds.DatasetManifest(
            recordings=[ds.ManifestEntry(name, f"s{i}", 0) for i, name in enumerate(names)],
            label_names={0: "a"}, base_dir=tmp_path)
        with caplog.at_level("WARNING"):
            prepared = ds.prepare_dataset(manifest, window=10)
        skips = [r.getMessage() for r in caplog.records if "skipping recording" in r.getMessage()]
        assert len(skips) == 2
        assert names[0] in skips[0] and names[1] in skips[1]
        assert prepared.meta["skipped"] == names[:2]

    @pytest.mark.parametrize("threads", [0, 2])
    def test_threads_other_than_one_raise_before_any_read(self, threads, tmp_path, monkeypatch):
        def never_called(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(ds, "load_recording_csv", never_called)
        manifest = ds.DatasetManifest(recordings=[ds.ManifestEntry("r.csv", "s0", 0)],
                                      label_names={0: "a"}, base_dir=tmp_path)
        with pytest.raises(ValueError, match="threads must be 1"):
            ds.prepare_dataset(manifest, window=10, threads=threads)


def test_build_prepared_helper_balanced():
    prepared = build_prepared(windows_per_class=10, noise=0.1, seed=0)
    counts = np.bincount(prepared.labels, minlength=5)
    assert counts.tolist() == [10, 10, 10, 10, 10]
