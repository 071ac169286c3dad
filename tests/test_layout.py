import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegnet.layout import (
    GRID,
    MASK,
    MESH_COLS,
    MESH_ROWS,
    N_CHANNELS,
    from_mesh,
    normalized_meshes,
    to_mesh,
    to_mesh_batch,
    zscore_mesh,
)


class TestDefaultLayout:
    def test_known_cells(self):
        assert GRID[4, 5] == 11
        assert GRID[9, 5] == 64
        assert GRID[0, 0] == 0

    def test_channel_29_correction(self):
        # the montage places 25..29 across row 1; 28 sits at column 6 and 29
        # at column 7 (the printed equation repeats 28 there)
        assert GRID[1, 6] == 28
        assert GRID[1, 7] == 29
        assert list(zip(*np.nonzero(GRID == 29))) == [(1, 7)]

    def test_counts(self):
        assert (MESH_ROWS, MESH_COLS, N_CHANNELS) == (10, 11, 64)
        assert MASK.sum() == 64
        assert (GRID == 0).sum() == 46
        assert GRID.size == 110

    def test_every_channel_exactly_once(self):
        occupied = sorted(GRID[MASK].tolist())
        assert occupied == list(range(1, 65))

    def test_constants_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            GRID[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            MASK[0, 0] = True


class TestMeshTransform:
    def test_zero_sample_gives_zero_mesh(self):
        mesh = to_mesh(np.zeros(64))
        np.testing.assert_array_equal(mesh, np.zeros((10, 11)))

    def test_unit_at_channel_11_lands_at_4_5(self):
        sample = np.zeros(64)
        sample[10] = 1.0  # channel 11 is index 10
        mesh = to_mesh(sample)
        assert mesh[4, 5] == 1.0
        assert mesh.sum() == 1.0

    def test_multiset_of_values_preserved(self):
        rng = np.random.default_rng(0)
        sample = rng.standard_normal(64)
        mesh = to_mesh(sample)
        assert sorted(mesh[MASK].tolist()) == sorted(sample.tolist())

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="64"):
            to_mesh(np.zeros(63))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sample = rng.standard_normal(64)
            np.testing.assert_array_equal(from_mesh(to_mesh(sample)), sample)

    def test_all_zero_mesh_inverts_to_zero_vector(self):
        np.testing.assert_array_equal(from_mesh(np.zeros((10, 11))), np.zeros(64))

    def test_nonzero_null_cell_rejected(self):
        mesh = np.zeros((10, 11))
        mesh[0, 0] = 1.0  # null corner
        with pytest.raises(ValueError, match="null"):
            from_mesh(mesh)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((3, 4, 64))
        meshes = to_mesh_batch(samples)
        for i in range(3):
            for j in range(4):
                np.testing.assert_array_equal(meshes[i, j], to_mesh(samples[i, j]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=64, max_size=64))
    def test_round_trip_property(self, values):
        sample = np.array(values)
        np.testing.assert_array_equal(from_mesh(to_mesh(sample)), sample)


class TestZscore:
    def test_constant_masked_input_gives_zeros(self):
        mesh = to_mesh(np.full(64, 7.5))
        np.testing.assert_array_equal(zscore_mesh(mesh), np.zeros((10, 11)))

    def test_all_zero_missing_sample_stays_zero(self):
        np.testing.assert_array_equal(zscore_mesh(np.zeros((10, 11))), np.zeros((10, 11)))

    def test_two_channel_symmetric_case_matches_scripted_oracle(self):
        a = 3.0
        sample = np.zeros(64)
        sample[0], sample[1] = -a, a
        out = from_mesh(zscore_mesh(to_mesh(sample)))
        # scripted oracle: mean over the 64 masked cells is 0, population
        # std is a * sqrt(2/64), so the two active channels map to +/-sqrt(32)
        std = np.sqrt((2 * a * a) / 64)
        np.testing.assert_allclose(out[0], -a / std)
        np.testing.assert_allclose(out[1], a / std)
        np.testing.assert_allclose(out[2:], 0.0, atol=1e-12)
        assert np.sign(out[0]) == -1 and np.sign(out[1]) == 1

    def test_random_mesh_normalized_statistics(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mesh = to_mesh(rng.standard_normal(64).astype(np.float64))
            out = zscore_mesh(mesh)
            vals = out[MASK]
            assert abs(vals.mean()) <= 1e-9
            assert abs(vals.std() - 1.0) <= 1e-9

    def test_null_cells_zero_after_normalization(self):
        rng = np.random.default_rng(4)
        out = zscore_mesh(to_mesh(rng.standard_normal(64) + 5.0))
        np.testing.assert_array_equal(out[~MASK], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(0.1, 100.0, allow_nan=False),
        shift=st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_shift_and_scale_invariance(self, scale, shift):
        rng = np.random.default_rng(5)
        sample = rng.standard_normal(64)
        base = zscore_mesh(to_mesh(sample))
        transformed = zscore_mesh(to_mesh(scale * sample + shift))
        np.testing.assert_allclose(transformed, base, atol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((5, 64))
        batched = normalized_meshes(samples)
        for i in range(5):
            np.testing.assert_allclose(batched[i], zscore_mesh(to_mesh(samples[i])), atol=1e-12)

    def test_huge_finite_values_give_finite_output_without_warning(self):
        # float32 statistics would overflow squaring 1e38
        sample = np.zeros(64, dtype=np.float32)
        sample[3], sample[40] = 1e38, -1e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalized_meshes(sample[None])
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        assert out[0][MASK].std() == pytest.approx(1.0, rel=1e-5)


def _oracle(frame: np.ndarray) -> np.ndarray:
    """Ingest's rule written out: float64 mean and population std over the
    64 channels, a frame with std below 1e-8 gives zeros, then placement."""
    x = np.asarray(frame, dtype=np.float64)
    std = x.std()
    return to_mesh(np.zeros(64) if std < 1e-8 else (x - x.mean()) / std)


def _oracle_frames(case: str, dtype) -> np.ndarray:
    rng = np.random.default_rng(8)
    if case == "random":
        frames = 3.0 * rng.standard_normal((6, 64)) + 2.0
    elif case == "constant":
        frames = np.stack([np.full(64, 7.5), np.zeros(64), np.full(64, -1e6)])
    else:  # huge: float32 statistics would overflow
        frames = 1e37 * rng.standard_normal((4, 64))
        frames[0] = 0.0
        frames[0, 3], frames[0, 40] = 3e38, -3e38
    return frames.astype(dtype)


class TestNormalizedMeshes:
    def test_equals_two_step_rule_bitwise(self):
        samples = np.random.default_rng(7).standard_normal((4, 6, 64)).astype(np.float32)
        out = normalized_meshes(samples)
        assert out.dtype == np.float32 and out.shape == (4, 6, 10, 11)
        per_frame = [[zscore_mesh(to_mesh(frame)) for frame in row] for row in samples]
        np.testing.assert_array_equal(out, np.array(per_frame))

    @pytest.mark.parametrize("case", ["random", "constant", "huge"])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_numpy_oracle(self, case, dtype, rtol):
        frames = _oracle_frames(case, dtype)
        out = normalized_meshes(frames)
        assert out.dtype == dtype and out.shape == (len(frames), 10, 11)
        np.testing.assert_allclose(out, np.array([_oracle(f) for f in frames]),
                                   rtol=rtol, atol=rtol)

    def test_near_constant_frame_gives_zeros(self):
        frame = 7.5 + 1e-10 * np.random.default_rng(9).standard_normal(64)
        np.testing.assert_array_equal(normalized_meshes(frame[None]), _oracle(frame)[None])
        np.testing.assert_array_equal(_oracle(frame), 0.0)
