import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegnet.layout import (
    ElectrodeLayout,
    from_mesh,
    layout_default,
    normalized_meshes,
    to_mesh,
    to_mesh_batch,
    zscore_mesh,
    zscore_mesh_batch,
)


class TestDefaultLayout:
    def test_known_cells(self):
        layout = layout_default()
        assert layout.channel_at(4, 5) == 11
        assert layout.channel_at(9, 5) == 64
        assert layout.channel_at(0, 0) is None

    def test_channel_29_correction(self):
        # the montage places 25..29 across row 1; 28 sits at column 6 and 29
        # at column 7 (the printed equation repeats 28 there)
        layout = layout_default()
        assert layout.channel_at(1, 6) == 28
        assert layout.channel_at(1, 7) == 29

    def test_counts(self):
        layout = layout_default()
        assert layout.mask.sum() == 64
        assert layout.n_null == 46
        assert layout.grid.size == 110

    def test_every_channel_exactly_once(self):
        layout = layout_default()
        occupied = sorted(layout.grid[layout.mask].tolist())
        assert occupied == list(range(1, 65))

    def test_position_of_inverts_channel_at(self):
        layout = layout_default()
        for ch in range(1, 65):
            r, c = layout.position_of(ch)
            assert layout.channel_at(r, c) == ch

    def test_duplicate_channel_rejected(self):
        grid = layout_default().grid.copy()
        row, col = layout_default().position_of(29)
        grid[row, col] = 28
        with pytest.raises(ValueError, match="exactly once"):
            ElectrodeLayout(grid)


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
        layout = layout_default()
        assert sorted(mesh[layout.mask].tolist()) == sorted(sample.tolist())

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
        layout = layout_default()
        for _ in range(20):
            mesh = to_mesh(rng.standard_normal(64).astype(np.float64))
            out = zscore_mesh(mesh)
            vals = out[layout.mask]
            assert abs(vals.mean()) <= 1e-9
            assert abs(vals.std() - 1.0) <= 1e-9

    def test_null_cells_zero_after_normalization(self):
        rng = np.random.default_rng(4)
        layout = layout_default()
        out = zscore_mesh(to_mesh(rng.standard_normal(64) + 5.0))
        np.testing.assert_array_equal(out[~layout.mask], 0.0)

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
        meshes = to_mesh_batch(rng.standard_normal((5, 64)))
        batched = zscore_mesh_batch(meshes)
        for i in range(5):
            np.testing.assert_allclose(batched[i], zscore_mesh(meshes[i]), atol=1e-12)

    def test_huge_finite_values_give_finite_output_without_warning(self):
        # float32 statistics would overflow squaring 1e38
        sample = np.zeros(64, dtype=np.float32)
        sample[3], sample[40] = 1e38, -1e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = zscore_mesh_batch(to_mesh_batch(sample[None]))
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        assert out[0][layout_default().mask].std() == pytest.approx(1.0, rel=1e-5)


class TestNormalizedMeshes:
    def test_equals_two_step_rule_bitwise(self):
        samples = np.random.default_rng(7).standard_normal((4, 6, 64)).astype(np.float32)
        out = normalized_meshes(samples)
        assert out.dtype == np.float32 and out.shape == (4, 6, 10, 11)
        np.testing.assert_array_equal(out, zscore_mesh_batch(to_mesh_batch(samples)))
