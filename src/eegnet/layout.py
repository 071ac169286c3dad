"""The electrode montage as module constants, and per-sample mesh operations.

A 64-channel EEG sample (one time step) is rearranged into a 10x11 grid that
mirrors the physical electrode montage of the acquisition headset, so that
2D convolutions see physically neighbouring signals as grid neighbours.  The
46 grid cells with no electrode are structural nulls, fixed at 0 throughout
the pipeline and excluded from normalization statistics.  The montage is
fixed, so it lives here once: `GRID` and the names derived from it.
"""

from __future__ import annotations

import numpy as np

# Channel number per grid cell, 0 = no electrode.  Channel 29 sits at row 1,
# column 7 (the montage lists channels 25..29 across that row).
GRID = np.array(
    [
        [0, 0, 0, 0, 22, 23, 24, 0, 0, 0, 0],
        [0, 0, 0, 25, 26, 27, 28, 29, 0, 0, 0],
        [0, 30, 31, 32, 33, 34, 35, 36, 37, 38, 0],
        [0, 39, 1, 2, 3, 4, 5, 6, 7, 40, 0],
        [43, 41, 8, 9, 10, 11, 12, 13, 14, 42, 44],
        [0, 45, 15, 16, 17, 18, 19, 20, 21, 46, 0],
        [0, 47, 48, 49, 50, 51, 52, 53, 54, 55, 0],
        [0, 0, 0, 56, 57, 58, 59, 60, 0, 0, 0],
        [0, 0, 0, 0, 61, 62, 63, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0],
    ],
    dtype=np.int16,
)
GRID.flags.writeable = False

MASK = GRID > 0
MASK.flags.writeable = False
MESH_ROWS, MESH_COLS = GRID.shape
N_CHANNELS = int(MASK.sum())

# channel c lives at (_ROWS[c-1], _COLS[c-1]): the cells sorted by channel
# number, less the null cells, which sort first
_ROWS, _COLS = np.unravel_index(np.argsort(GRID, axis=None)[-N_CHANNELS:], GRID.shape)
# np.take indices into a channel vector with a 0 put in front of it
_TAKE = GRID.ravel().astype(np.intp)

DEGENERATE_STD = 1e-8


def to_mesh(sample: np.ndarray) -> np.ndarray:
    """Place a 64-channel sample onto the grid; null cells are 0."""
    sample = np.asarray(sample)
    if sample.shape != (N_CHANNELS,):
        raise ValueError(f"sample must have {N_CHANNELS} channels, got shape {sample.shape}")
    mesh = np.zeros((MESH_ROWS, MESH_COLS), dtype=sample.dtype)
    mesh[_ROWS, _COLS] = sample
    return mesh


def from_mesh(mesh: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`to_mesh`; rejects meshes with non-zero null cells."""
    mesh = np.asarray(mesh)
    if mesh.shape != (MESH_ROWS, MESH_COLS):
        raise ValueError(f"mesh must be {MESH_ROWS}x{MESH_COLS}, got {mesh.shape}")
    if np.any(mesh[~MASK] != 0):
        raise ValueError("mesh has non-zero values in null (no-electrode) cells")
    return mesh[_ROWS, _COLS]


def to_mesh_batch(samples: np.ndarray) -> np.ndarray:
    """Vectorized :func:`to_mesh` over any number of leading axes."""
    samples = np.asarray(samples)
    if samples.shape[-1] != N_CHANNELS:
        raise ValueError(f"samples must have {N_CHANNELS} channels, got shape {samples.shape}")
    lead = samples.shape[:-1]
    padded = np.zeros(lead + (N_CHANNELS + 1,), dtype=samples.dtype)
    padded[..., 1:] = samples
    return np.take(padded, _TAKE, axis=-1).reshape(lead + (MESH_ROWS, MESH_COLS))


def normalized_meshes(samples: np.ndarray) -> np.ndarray:
    """Each frame's channels z-scored (see :func:`zscore_mesh`), then placed
    by :func:`to_mesh_batch`.  The statistics are float64, in which a huge
    but finite float32 value cannot overflow; the result has the samples'
    float dtype, at least float32."""
    samples = np.asarray(samples)
    x = samples.astype(np.float64)
    x -= x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.einsum("...i,...i->...", x, x)[..., None] / x.shape[-1])
    # a NaN frame keeps its NaN std, so it stays NaN rather than turning to 0
    x *= np.where(std < DEGENERATE_STD, 0.0, 1.0 / np.maximum(std, DEGENERATE_STD))
    return to_mesh_batch(x.astype(np.result_type(samples, np.float32), copy=False))


def zscore_mesh(mesh: np.ndarray) -> np.ndarray:
    """Z-score a mesh over its occupied cells.

    Statistics are taken over the montage's occupied cells (all of them, even
    cells currently reading 0, so missing readings do not shift the mask);
    population standard deviation; null cells remain exactly 0.  A frame
    whose occupied cells are (near-)constant normalizes to all zeros.
    """
    mesh = np.asarray(mesh)
    if mesh.shape != (MESH_ROWS, MESH_COLS):
        raise ValueError(f"mesh must be {MESH_ROWS}x{MESH_COLS}, got {mesh.shape}")
    return normalized_meshes(mesh[_ROWS, _COLS])
