"""EEG recording ingestion, windowing, splitting and dataset persistence.

Recordings arrive as CSV (one row per time sample, columns ch1..chN) plus a
JSON manifest carrying subject ids, labels, the sample rate and the split
policy.  Prepared datasets are stored in a little-endian binary container
(magic ``EEGW``, version 3) holding each raw frame once, one start offset
per window, the labels and the split.  In memory too a dataset holds each
frame once, with its mesh, and each window as a start offset, so the
50%-overlapping windows of a recording cost about one copy of its samples.
The loader rebuilds the meshes, a per-frame function of the raw frames.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import container
from .layout import MESH_COLS, MESH_ROWS, N_CHANNELS, normalized_meshes

log = logging.getLogger(__name__)

LABEL_NAMES = {
    0: "eyes-closed baseline",
    1: "both feet",
    2: "both fists",
    3: "left fist",
    4: "right fist",
}

PREPARED_MAGIC = b"EEGW"
PREPARED_VERSION = 3
# labels are stored as one byte each
MAX_CLASSES = 256


class DatasetError(Exception):
    """Base class for dataset ingestion/persistence failures."""


class RecordingError(DatasetError):
    """A single recording file failed validation."""


class DatasetFormatError(DatasetError):
    """Prepared-dataset container has the wrong magic or an unreadable header."""


class DatasetVersionError(DatasetError):
    """Prepared-dataset container has an unsupported format version."""


class DatasetTruncatedError(DatasetError):
    """Prepared-dataset container ends before its declared payload."""


# fixed fields: window count q, window length S, channels n, stored frames F
PREPARED_FORMAT = container.Format(
    "prepared dataset", PREPARED_MAGIC, PREPARED_VERSION, "IHHI",
    DatasetFormatError, DatasetVersionError, DatasetTruncatedError,
)


@dataclass
class Recording:
    """One task run: a time-ordered block of n-channel samples, one label."""

    subject: str
    label: int
    samples: np.ndarray  # (N, n) float32
    sample_rate: int = 160


@dataclass
class ManifestEntry:
    path: str
    subject: str
    label: int


@dataclass
class DatasetManifest:
    recordings: list
    label_names: dict
    sample_rate: int = 160
    split_seed: int = 0
    split_ratio: float = 0.75
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        keys = sorted(self.label_names)
        if keys != list(range(len(keys))):
            raise DatasetError(f"label indices must be dense 0..K-1, got {keys}")
        if len(keys) > MAX_CLASSES:
            raise DatasetError(f"{len(keys)} label names; a prepared dataset stores labels "
                               f"as one byte, so at most {MAX_CLASSES}")
        for entry in self.recordings:
            if entry.label not in self.label_names:
                raise DatasetError(
                    f"recording {entry.path} has label {entry.label} missing from label_names"
                )

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; a file that is not JSON or does not describe a
    manifest (a missing key, a label that is not an integer) raises
    :class:`DatasetError` naming the file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return DatasetManifest(
            recordings=[
                ManifestEntry(path=r["path"], subject=r.get("subject", ""), label=int(r["label"]))
                for r in doc["recordings"]
            ],
            label_names={int(k): v for k, v in doc["label_names"].items()},
            sample_rate=int(doc.get("sample_rate", 160)),
            split_seed=int(doc.get("split", {}).get("seed", 0)),
            split_ratio=float(doc.get("split", {}).get("ratio", 0.75)),
            base_dir=path.parent,
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DatasetError(f"{path}: not a dataset manifest ({exc!r})") from exc


def save_manifest(path, manifest: DatasetManifest) -> None:
    doc = {
        "sample_rate": manifest.sample_rate,
        "label_names": {str(k): v for k, v in manifest.label_names.items()},
        "split": {"seed": manifest.split_seed, "ratio": manifest.split_ratio},
        "recordings": [
            {"path": e.path, "subject": e.subject, "label": e.label}
            for e in manifest.recordings
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_recording_csv(path, samples: np.ndarray) -> None:
    samples = np.asarray(samples)
    header = ",".join(f"ch{i + 1}" for i in range(samples.shape[1]))
    np.savetxt(path, samples, delimiter=",", header=header, comments="", fmt="%.7g")


def load_recording_csv(path, entry: ManifestEntry, sample_rate: int = 160) -> Recording:
    """Read and validate one recording of the montage's 64 channels; raises
    RecordingError on damage."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            start = fh.tell()
            # loadtxt warns on input without rows; find a row before calling it
            if not any(line.split("#", 1)[0].strip() for line in iter(fh.readline, "")):
                raise RecordingError(f"{path}: recording holds no samples")
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise RecordingError(f"{path}: unreadable recording ({exc})") from exc
    expected = ",".join(f"ch{i + 1}" for i in range(N_CHANNELS))
    if header != expected:
        raise RecordingError(f"{path}: bad header, expected columns ch1..ch{N_CHANNELS}")
    if data.ndim != 2 or data.shape[1] != N_CHANNELS:
        raise RecordingError(f"{path}: expected {N_CHANNELS} columns, got {data.shape}")
    # NaN fails the comparison; a value past float32's range would cast to inf
    if not np.all(np.abs(data) <= np.finfo(np.float32).max):
        raise RecordingError(f"{path}: recording contains NaN, Inf or values beyond float32")
    return Recording(
        subject=entry.subject,
        label=entry.label,
        samples=data.astype(np.float32),
        sample_rate=sample_rate,
    )


# ---------------------------------------------------------------------------
# windowing and splitting

def _check_window(window: int) -> None:
    if window < 2 or window % 2:
        raise ValueError(f"window size must be even and >= 2, got {window}")


def split_indices(count: int, ratio: float, seed: int):
    """Deterministic uniform instance-level split into (train, test) indices."""
    if count == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(count)
    n_train = int(ratio * count)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


# ---------------------------------------------------------------------------
# prepared datasets

@dataclass
class PreparedDataset:
    """Windows held frame-major, plus manifest metadata, ready for training.

    Window i is the `window` consecutive frames from ``starts[i]``, so
    windows that overlap share their frames.  `raw` and `meshes` give the
    dense (q, S, ...) windows, gathered on first use and kept."""

    frames: np.ndarray        # (F, n) float32 raw frames
    frame_meshes: np.ndarray  # (F, rows, cols) float32, each frame z-scored
    starts: np.ndarray        # (q,) intp, each window's first frame
    labels: np.ndarray        # (q,) uint8
    window: int               # S, the frames per window
    meta: dict

    @property
    def count(self) -> int:
        return len(self.starts)

    @property
    def index(self) -> np.ndarray:
        """(q, S) frame index of every window step."""
        return self.starts[:, None] + np.arange(self.window)

    @cached_property
    def raw(self) -> np.ndarray:
        return np.take(self.frames, self.index, axis=0)

    @cached_property
    def meshes(self) -> np.ndarray:
        return np.take(self.frame_meshes, self.index, axis=0)

    @property
    def n_classes(self) -> int:
        return len(self.meta["label_names"])

    @property
    def label_names(self) -> dict:
        return {int(k): v for k, v in self.meta["label_names"].items()}

    def subset(self, indices) -> "PreparedDataset":
        """The windows at the given integer indices, without the stored split;
        the frames stay the parent's arrays.

        An empty sequence is allowed and gives an empty dataset with the
        parent's trailing shapes and dtypes.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            # `[]` parses as float64, which numpy refuses as an index
            indices = indices.astype(np.intp)
        meta = dict(self.meta)
        meta.pop("split", None)
        return replace(self, starts=self.starts[indices], labels=self.labels[indices], meta=meta)

    def train_test(self):
        split = self.meta.get("split")
        if not split or "train" not in split:
            raise DatasetError("dataset carries no stored split")
        return self.subset(split["train"]), self.subset(split["test"])


def window_recordings(recordings, window: int = 10) -> PreparedDataset:
    """The 50%-overlapping windows of `window` samples of each recording, with
    empty `meta`.

    Window starts form the progression 0, S/2, S, ... within a recording;
    each window carries its recording's label and never crosses into another
    recording.  Each recording's samples are held once, all-zero (missing)
    samples kept, with their meshes (the 64-channel 10x11 montage of
    :mod:`eegnet.layout`) computed once per frame.  A recording shorter than
    one window adds nothing; DatasetError if no recording is that long.
    """
    _check_window(window)
    recordings = [rec for rec in recordings if len(rec.samples) >= window]
    if not recordings:
        raise DatasetError("no usable windows: every recording was skipped or too short")
    frames = [rec.samples.astype(np.float32, copy=False) for rec in recordings]
    offsets = np.cumsum([0] + [len(f) for f in frames])
    starts = [offset + np.arange(0, len(f) - window + 1, window // 2)
              for offset, f in zip(offsets, frames)]
    return PreparedDataset(
        frames=np.concatenate(frames),
        frame_meshes=np.concatenate([normalized_meshes(f) for f in frames]),
        starts=np.concatenate(starts),
        labels=np.repeat(np.array([rec.label for rec in recordings], np.uint8),
                         [len(s) for s in starts]),
        window=window, meta={},
    )


def prepare_dataset(manifest: DatasetManifest, window: int = 10,
                    ratio: float | None = None, seed: int | None = None,
                    threads: int = 1) -> PreparedDataset:
    """Full ingestion pipeline: load -> normalize -> mesh -> window -> split.

    Recordings have the 64 channels of the 10x11 montage of
    :mod:`eegnet.layout`, which places every sample on the mesh.  `threads`
    loader threads read the recordings.  Damaged recordings are skipped with
    a warning, and so, with another, are recordings shorter than one window;
    the warnings and the remainder follow manifest order, so output and log
    are deterministic for any thread count.  An invalid window size raises
    ValueError before any recording is read.
    """
    _check_window(window)
    ratio = manifest.split_ratio if ratio is None else ratio
    seed = manifest.split_seed if seed is None else seed

    def load_one(entry):
        path = manifest.base_dir / entry.path
        try:
            return load_recording_csv(path, entry, manifest.sample_rate)
        except RecordingError as exc:
            return exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            loaded = list(pool.map(load_one, manifest.recordings))
    else:
        loaded = [load_one(e) for e in manifest.recordings]

    skipped = []
    for entry, rec in zip(manifest.recordings, loaded):
        if isinstance(rec, RecordingError):
            log.warning("skipping recording: %s", rec)
            skipped.append(entry.path)
        elif len(rec.samples) < window:
            log.warning("recording %s has %d samples, shorter than window %d; "
                        "produced 0 windows", entry.path, len(rec.samples), window)
    prepared = window_recordings([rec for rec in loaded if not isinstance(rec, RecordingError)],
                                 window)
    train_idx, test_idx = split_indices(prepared.count, ratio, seed)
    prepared.meta = {
        "window": window,
        "channels": N_CHANNELS,
        "mesh": [MESH_ROWS, MESH_COLS],
        "sample_rate": manifest.sample_rate,
        "label_names": {str(k): v for k, v in manifest.label_names.items()},
        "split": {
            "seed": seed, "ratio": ratio,
            "train": train_idx.tolist(), "test": test_idx.tolist(),
        },
        "skipped": skipped,
    }
    return prepared


def save_prepared(path, dataset: PreparedDataset) -> None:
    """Write the EEGW v3 container: fixed fields (q, S, n, F), metadata JSON,
    the (F, n) float32 frames, the (q,) uint32 window starts and the (q,)
    uint8 labels.  The meshes are left out.

    The file stores each frame that some window uses once, in the dataset's
    frame order, and the starts renumbered to match; frames no window uses
    are dropped.  Sharing goes by frame index, never by content, so a
    shuffled, partial or repeating `subset()` round-trips exactly.  A label
    that is not a key of `label_names` raises DatasetError before anything
    is written.
    """
    labels = _check_labels(dataset.meta, dataset.labels, DatasetError)
    used = np.zeros(len(dataset.frames), dtype=bool)
    used[dataset.index] = True
    starts = (np.cumsum(used) - 1)[dataset.starts]
    frames = np.asarray(dataset.frames[used], dtype=np.float32)
    container.write(path, PREPARED_FORMAT,
                    (dataset.count, dataset.window, frames.shape[1], len(frames)), dataset.meta,
                    (frames, starts.astype(np.uint32), labels.astype(np.uint8)))


def _check_labels(meta, labels, error=DatasetFormatError) -> np.ndarray:
    """Return `labels` as an array; raise `error` unless `label_names` is an
    object keyed by the dense indices "0".."K-1", as a manifest's are, with
    K <= 256, and every label is one of its keys."""
    names = meta.get("label_names") if isinstance(meta, dict) else None
    if not isinstance(names, dict) or set(names) != set(map(str, range(len(names)))):
        raise error(f"prepared dataset label_names must be keyed 0..K-1, got {names!r}")
    if len(names) > MAX_CLASSES:
        raise error(f"prepared dataset has {len(names)} label_names, more than {MAX_CLASSES}")
    labels = np.asarray(labels)
    if labels.dtype.kind in "iu":
        bad = np.flatnonzero((labels < 0) | (labels >= len(names)))
    else:
        bad = np.arange(labels.size)
    if bad.size:
        raise error(f"prepared dataset window {bad[0]} has label {labels[bad[0]]}, "
                    f"not a key of label_names {sorted(names, key=int)}")
    return labels


def _check_split(meta: dict, count: int) -> None:
    """Raise DatasetFormatError unless a stored split lists window indices:
    ints in [0, count), each of them once over both sides."""
    split = meta.get("split", {})
    if not isinstance(split, dict):
        raise DatasetFormatError(f"prepared dataset split must be an object, got {split!r}")
    if "train" not in split and "test" not in split:
        return
    sides = [split.get("train"), split.get("test")]
    for side, indices in zip(("train", "test"), sides):
        if not isinstance(indices, list):
            raise DatasetFormatError(f"prepared dataset split.{side} must be a list, "
                                     f"got {indices!r}")
        bad = [i for i in indices if type(i) is not int or not 0 <= i < count]
        if bad:
            raise DatasetFormatError(f"prepared dataset split.{side} holds {bad[0]!r}, not a "
                                     f"window index in [0, {count})")
    twice = [i for i, n in Counter(sides[0] + sides[1]).items() if n > 1]
    if twice:
        raise DatasetFormatError(f"prepared dataset split lists window {twice[0]} more than once")


def load_prepared(path) -> PreparedDataset:
    """Read an EEGW v3 container and compute the meshes once per stored
    frame by ingest's rule; no window is gathered.  Bad magic, version (v1
    and v2 included), header, truncation, a channel count other than 64, NaN
    or Inf, a window that runs past the stored frames, a label outside
    `label_names` and a stored split that does not index the windows raise
    typed errors, never a partial dataset."""
    with container.read(path, PREPARED_FORMAT) as ((q, s, n, f), meta, read_array):
        if n != N_CHANNELS:
            raise DatasetFormatError(
                f"prepared dataset has {n} channels; meshes need {N_CHANNELS}")
        frames = read_array("f4", (f, n), "frames")
        starts = read_array("u4", (q,), "window starts").astype(np.intp)
        labels = read_array("u1", (q,), "labels")
    _check_labels(meta, labels)
    _check_split(meta, q)
    if not np.all(np.isfinite(frames)):
        raise DatasetFormatError("prepared dataset frames hold NaN or Inf values")
    bad = np.flatnonzero(starts + s > f)
    if bad.size:
        raise DatasetFormatError(f"prepared dataset window {bad[0]} starts at frame "
                                 f"{starts[bad[0]]}, so its {s} frames run past the {f} stored")
    return PreparedDataset(frames=frames, frame_meshes=normalized_meshes(frames),
                           starts=starts, labels=labels, window=s, meta=meta)
