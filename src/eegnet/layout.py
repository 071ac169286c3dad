"""Electrode mesh layout and per-sample mesh operations.

A 64-channel EEG sample (one time step) is rearranged into a 10x11 grid that
mirrors the physical electrode montage of the acquisition headset, so that
2D convolutions see physically neighbouring signals as grid neighbours.  The
46 grid cells with no electrode are structural nulls, fixed at 0 throughout
the pipeline and excluded from normalization statistics.
"""

from __future__ import annotations

import numpy as np

MESH_ROWS = 10
MESH_COLS = 11
N_CHANNELS = 64

# Channel number per grid cell, 0 = no electrode.  Channel 29 sits at row 1,
# column 7 (the montage lists channels 25..29 across that row).
_DEFAULT_GRID = np.array(
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

DEGENERATE_STD = 1e-8


class ElectrodeLayout:
    """Bijection between channel indices 1..n and occupied grid cells."""

    def __init__(self, grid: np.ndarray):
        grid = np.asarray(grid, dtype=np.int16)
        if grid.ndim != 2:
            raise ValueError("layout grid must be 2-d")
        channels = grid[grid > 0]
        n = channels.size
        if sorted(channels.tolist()) != list(range(1, n + 1)):
            raise ValueError("each channel index must appear exactly once in the grid")
        self.grid = grid
        self.rows, self.cols = grid.shape
        self.n_channels = n
        self.mask = grid > 0
        # channel c lives at (self._rows[c-1], self._cols[c-1])
        order = np.argsort(grid[self.mask])
        rr, cc = np.nonzero(self.mask)
        self._rows = rr[order]
        self._cols = cc[order]
        # np.take indices into a channel vector with a 0 put in front of it
        self._take = grid.ravel().astype(np.intp)

    def channel_at(self, row: int, col: int):
        """Channel number at a cell, or None for a null cell."""
        value = int(self.grid[row, col])
        return value if value > 0 else None

    def position_of(self, channel: int):
        if not 1 <= channel <= self.n_channels:
            raise ValueError(f"channel {channel} out of range 1..{self.n_channels}")
        return int(self._rows[channel - 1]), int(self._cols[channel - 1])

    @property
    def n_null(self) -> int:
        return self.grid.size - self.n_channels


_DEFAULT_LAYOUT = ElectrodeLayout(_DEFAULT_GRID)


def layout_default() -> ElectrodeLayout:
    """The built-in 64-channel, 10x11 montage."""
    return _DEFAULT_LAYOUT


def to_mesh(sample: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Place an n-channel sample onto the grid; null cells are 0."""
    layout = layout or _DEFAULT_LAYOUT
    sample = np.asarray(sample)
    if sample.shape != (layout.n_channels,):
        raise ValueError(
            f"sample must have {layout.n_channels} channels, got shape {sample.shape}"
        )
    mesh = np.zeros((layout.rows, layout.cols), dtype=sample.dtype)
    mesh[layout._rows, layout._cols] = sample
    return mesh


def from_mesh(mesh: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Exact inverse of :func:`to_mesh`; rejects meshes with non-zero null cells."""
    layout = layout or _DEFAULT_LAYOUT
    mesh = np.asarray(mesh)
    if mesh.shape != (layout.rows, layout.cols):
        raise ValueError(f"mesh must be {layout.rows}x{layout.cols}, got {mesh.shape}")
    if np.any(mesh[~layout.mask] != 0):
        raise ValueError("mesh has non-zero values in null (no-electrode) cells")
    return mesh[layout._rows, layout._cols]


def to_mesh_batch(samples: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Vectorized :func:`to_mesh` over any number of leading axes."""
    layout = layout or _DEFAULT_LAYOUT
    samples = np.asarray(samples)
    if samples.shape[-1] != layout.n_channels:
        raise ValueError(
            f"samples must have {layout.n_channels} channels, got shape {samples.shape}"
        )
    lead = samples.shape[:-1]
    padded = np.zeros(lead + (layout.n_channels + 1,), dtype=samples.dtype)
    padded[..., 1:] = samples
    return np.take(padded, layout._take, axis=-1).reshape(lead + (layout.rows, layout.cols))


def normalized_meshes(samples: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """``zscore_mesh_batch(to_mesh_batch(samples))`` with one placement: each
    frame's channels are z-scored (see :func:`zscore_mesh`), then placed.  The
    statistics are float64, in which a huge but finite float32 value cannot
    overflow; the result has the samples' float dtype, at least float32."""
    samples = np.asarray(samples)
    x = samples.astype(np.float64)
    x -= x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.einsum("...i,...i->...", x, x)[..., None] / x.shape[-1])
    # a NaN frame keeps its NaN std, so it stays NaN rather than turning to 0
    x *= np.where(std < DEGENERATE_STD, 0.0, 1.0 / np.maximum(std, DEGENERATE_STD))
    return to_mesh_batch(x.astype(np.result_type(samples, np.float32), copy=False), layout)


def zscore_mesh(mesh: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Z-score a mesh over its occupied cells.

    Statistics are taken over the layout-occupied cells (all of them, even
    cells currently reading 0, so missing readings do not shift the mask);
    population standard deviation; null cells remain exactly 0.  A frame
    whose occupied cells are (near-)constant normalizes to all zeros.
    """
    return zscore_mesh_batch(np.asarray(mesh)[None], layout)[0]


def zscore_mesh_batch(meshes: np.ndarray, layout: ElectrodeLayout | None = None) -> np.ndarray:
    """Vectorized per-frame z-score over any number of leading axes."""
    layout = layout or _DEFAULT_LAYOUT
    meshes = np.asarray(meshes)
    if meshes.shape[-2:] != (layout.rows, layout.cols):
        raise ValueError(f"meshes must end in {layout.rows}x{layout.cols}, got {meshes.shape}")
    return normalized_meshes(meshes[..., layout._rows, layout._cols], layout)
