"""EEG recording ingestion, windowing, splitting and dataset persistence.

Recordings arrive as CSV (one row per time sample, columns ch1..chN) plus a
JSON manifest carrying subject ids, labels, the sample rate and the split
policy.  Prepared datasets are stored in a little-endian binary container
(magic ``EEGW``) holding the raw windows, the labels and the split; the
loader rebuilds the meshes, a per-frame function of the raw windows.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .layout import layout_default, normalized_meshes

log = logging.getLogger(__name__)

LABEL_NAMES = {
    0: "eyes-closed baseline",
    1: "both feet",
    2: "both fists",
    3: "left fist",
    4: "right fist",
}

PREPARED_MAGIC = b"EEGW"
PREPARED_VERSION = 2


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


# fixed fields: window count q, window length S, channels n
PREPARED_FORMAT = container.Format(
    "prepared dataset", PREPARED_MAGIC, PREPARED_VERSION, "IHH",
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
class WindowSegment:
    """S consecutive samples in raw and normalized-mesh form, one label."""

    raw: np.ndarray     # (S, n)
    meshes: np.ndarray  # (S, rows, cols), per-frame z-scored
    label: int


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


def load_recording_csv(path, entry: ManifestEntry, sample_rate: int = 160,
                       n_channels: int = 64) -> Recording:
    """Read and validate one recording; raises RecordingError on damage."""
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
    expected = ",".join(f"ch{i + 1}" for i in range(n_channels))
    if header != expected:
        raise RecordingError(f"{path}: bad header, expected columns ch1..ch{n_channels}")
    if data.ndim != 2 or data.shape[1] != n_channels:
        raise RecordingError(f"{path}: expected {n_channels} columns, got {data.shape}")
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

def segment_windows(recording: Recording, window: int = 10) -> list:
    """Slice a recording into 50%-overlapping windows of `window` samples.

    Starts form the arithmetic progression 0, S/2, S, ...; each window
    carries the recording's label and never crosses into another recording.
    All-zero (missing) samples are kept.  Meshes use the default 64-channel,
    10x11 montage (``layout_default``).  Returns [] when the recording is
    shorter than one window.
    """
    if window < 2 or window % 2:
        raise ValueError(f"window size must be even and >= 2, got {window}")
    samples = recording.samples
    n = samples.shape[0]
    if n < window:
        log.warning(
            "recording %s has %d samples, shorter than window %d; produced 0 windows",
            recording.subject, n, window,
        )
        return []
    step = window // 2
    meshes = normalized_meshes(samples).astype(np.float32, copy=False)
    segments = []
    for start in range(0, n - window + 1, step):
        segments.append(
            WindowSegment(
                raw=samples[start:start + window].copy(),
                meshes=meshes[start:start + window].copy(),
                label=recording.label,
            )
        )
    return segments


def split_indices(count: int, ratio: float, seed: int):
    """Deterministic uniform instance-level split into (train, test) indices."""
    if count == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(count)
    n_train = int(ratio * count)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def split_dataset(segments, ratio: float = 0.75, seed: int = 0):
    """Partition segments into disjoint, exhaustive (train, test) lists."""
    train_idx, test_idx = split_indices(len(segments), ratio, seed)
    return [segments[i] for i in train_idx], [segments[i] for i in test_idx]


# ---------------------------------------------------------------------------
# prepared datasets

@dataclass
class PreparedDataset:
    """Dense window arrays plus manifest metadata, ready for training."""

    raw: np.ndarray      # (q, S, n) float32
    meshes: np.ndarray   # (q, S, rows, cols) float32
    labels: np.ndarray   # (q,) uint8
    meta: dict

    @property
    def count(self) -> int:
        return self.raw.shape[0]

    @property
    def window(self) -> int:
        return self.raw.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.meta["label_names"])

    @property
    def label_names(self) -> dict:
        return {int(k): v for k, v in self.meta["label_names"].items()}

    def subset(self, indices) -> "PreparedDataset":
        """The windows at the given integer indices, without the stored split.

        An empty sequence is allowed and gives an empty dataset with the
        parent's trailing shapes and dtypes.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            # `[]` parses as float64, which numpy refuses as an index
            indices = indices.astype(np.intp)
        meta = dict(self.meta)
        meta.pop("split", None)
        return PreparedDataset(
            raw=self.raw[indices], meshes=self.meshes[indices],
            labels=self.labels[indices], meta=meta,
        )

    def train_test(self):
        split = self.meta.get("split")
        if not split or "train" not in split:
            raise DatasetError("dataset carries no stored split")
        return self.subset(split["train"]), self.subset(split["test"])

def from_segments(segments, meta: dict) -> PreparedDataset:
    if not segments:
        raise DatasetError("no window segments to assemble")
    return PreparedDataset(
        raw=np.stack([s.raw for s in segments]).astype(np.float32),
        meshes=np.stack([s.meshes for s in segments]).astype(np.float32),
        labels=np.array([s.label for s in segments], dtype=np.uint8),
        meta=meta,
    )


def prepare_dataset(manifest: DatasetManifest, window: int = 10,
                    ratio: float | None = None, seed: int | None = None,
                    threads: int = 1) -> PreparedDataset:
    """Full ingestion pipeline: load -> normalize -> mesh -> window -> split.

    Recordings have the 64 channels of the default 10x11 montage
    (``layout_default``), which places every sample on the mesh.  Damaged
    recordings are skipped with a warning; the remainder is processed in
    manifest order so output is deterministic for any thread count.
    """
    layout = layout_default()
    ratio = manifest.split_ratio if ratio is None else ratio
    seed = manifest.split_seed if seed is None else seed

    def load_one(entry):
        path = manifest.base_dir / entry.path
        try:
            return load_recording_csv(path, entry, manifest.sample_rate, layout.n_channels)
        except RecordingError as exc:
            log.warning("skipping recording: %s", exc)
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            loaded = list(pool.map(load_one, manifest.recordings))
    else:
        loaded = [load_one(e) for e in manifest.recordings]

    segments = []
    skipped = []
    for entry, rec in zip(manifest.recordings, loaded):
        if rec is None:
            skipped.append(entry.path)
            continue
        segments.extend(segment_windows(rec, window=window))
    if not segments:
        raise DatasetError("no usable windows: every recording was skipped or too short")

    train_idx, test_idx = split_indices(len(segments), ratio, seed)
    meta = {
        "window": window,
        "channels": layout.n_channels,
        "mesh": [layout.rows, layout.cols],
        "sample_rate": manifest.sample_rate,
        "label_names": {str(k): v for k, v in manifest.label_names.items()},
        "split": {
            "seed": seed, "ratio": ratio,
            "train": train_idx.tolist(), "test": test_idx.tolist(),
        },
        "skipped": skipped,
    }
    return from_segments(segments, meta)


def save_prepared(path, dataset: PreparedDataset) -> None:
    """Write the EEGW v2 container: fixed fields (q, S, n), metadata JSON,
    float32 raw block, uint8 labels.  The meshes are left out."""
    blocks = ((dataset.raw, np.float32), (dataset.labels, np.uint8))
    container.write(path, PREPARED_FORMAT, dataset.raw.shape, dataset.meta,
                    (np.asarray(block, dtype=dtype) for block, dtype in blocks))


def _check_labels(meta, labels: np.ndarray) -> None:
    """Raise DatasetFormatError unless `label_names` is an object keyed by
    the dense indices "0".."K-1", as a manifest's are, and every label is
    one of its keys."""
    names = meta.get("label_names") if isinstance(meta, dict) else None
    if not isinstance(names, dict) or set(names) != set(map(str, range(len(names)))):
        raise DatasetFormatError(
            f"prepared dataset label_names must be keyed 0..K-1, got {names!r}")
    bad = np.flatnonzero(labels >= len(names))
    if bad.size:
        raise DatasetFormatError(f"prepared dataset window {bad[0]} has label {labels[bad[0]]}, "
                                 f"not a key of label_names {sorted(names, key=int)}")


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
    """Read an EEGW v2 container and rebuild its meshes by ingest's rule.  Bad
    magic, version (v1 included), header, truncation, a channel count other
    than 64, NaN or Inf, a label outside `label_names` and a stored split
    that does not index the windows raise typed errors, never a partial
    dataset."""
    layout = layout_default()
    with container.read(path, PREPARED_FORMAT) as ((q, s, n), meta, read_array):
        if n != layout.n_channels:
            raise DatasetFormatError(
                f"prepared dataset has {n} channels; meshes need {layout.n_channels}")
        raw = read_array("f4", (q, s, n), "raw block")
        labels = read_array("u1", (q,), "labels")
    _check_labels(meta, labels)
    _check_split(meta, q)
    if not np.all(np.isfinite(raw)):
        raise DatasetFormatError("prepared dataset raw block holds NaN or Inf values")
    return PreparedDataset(raw=raw, meshes=normalized_meshes(raw, layout), labels=labels, meta=meta)
