"""Synthetic EEG-like datasets for desk-scale verification.

Each class is defined by a spatial template (which channels carry signal)
and a temporal signature (an oscillation frequency and phase on those
channels).  The default 5-class spec is built so class identity is only
recoverable from the joint spatial arrangement and temporal ordering:

* classes 1/2 share one channel group and differ only in phase,
* classes 3/4 share the other group and mirror the same two phases,
* class 0 is pure noise,
* both groups have equal size, so the channel-averaged time course of a
  phase pair is identically distributed.

A model that sees single time samples (or any order-invariant pooling of
them) cannot separate a phase pair, and a model that pools away channel
identity cannot separate a group pair, so spatial-only and temporal-only
architectures are strictly handicapped while joint models can reach ~100%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .dataset import DatasetManifest, ManifestEntry, Recording, _check_window
from .layout import N_CHANNELS


@dataclass
class SynthClass:
    name: str
    channels: tuple = ()      # 1-based channel indices carrying the signal
    frequency: float = 32.0   # Hz
    phase: float = 0.0        # radians
    amplitude: float = 1.0


@dataclass
class SynthSpec:
    classes: list[SynthClass]
    noise: float = 0.25
    windows_per_class: int = 400
    recordings_per_class: int = 2
    window: int = 10
    sample_rate: int = 160
    seed: int = 0

    def __post_init__(self):
        if not self.classes:
            raise ValueError("synthetic spec needs at least one class")
        if not 0 <= self.noise < np.inf:
            raise ValueError(f"noise level must be finite and >= 0, got {self.noise}")
        if self.windows_per_class < 1:
            raise ValueError("windows_per_class must be >= 1")
        if self.recordings_per_class < 1:
            raise ValueError("recordings_per_class must be >= 1")
        _check_window(self.window)
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {self.sample_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        for cls in self.classes:
            if not 0 <= cls.amplitude < np.inf:
                raise ValueError(f"class {cls.name}: amplitude must be finite and >= 0")
            if not np.isfinite([cls.frequency, cls.phase]).all():
                raise ValueError(f"class {cls.name}: frequency and phase must be finite")
            for ch in cls.channels:
                if not 1 <= ch <= N_CHANNELS:
                    raise ValueError(
                        f"class {cls.name}: channel {ch} out of range 1..{N_CHANNELS}"
                    )


# Two equal-size 3x3 electrode blocks, left and right of the grid midline.
_GROUP_LEFT = (1, 2, 3, 8, 9, 10, 15, 16, 17)
_GROUP_RIGHT = (5, 6, 7, 12, 13, 14, 19, 20, 21)


def default_spec(windows_per_class: int = 400, noise: float = 0.25, seed: int = 0,
                 window: int = 10) -> SynthSpec:
    """The canonical 5-class verification spec.

    The oscillation period equals the window step (S/2 samples), so every
    50%-overlap window start sees the same phase and class identity is
    offset-independent.
    """
    sample_rate = 160
    freq = sample_rate / (window // 2)
    return SynthSpec(
        classes=[
            SynthClass("rest"),
            SynthClass("left-early", channels=_GROUP_LEFT, frequency=freq, phase=0.0),
            SynthClass("left-late", channels=_GROUP_LEFT, frequency=freq, phase=np.pi),
            SynthClass("right-early", channels=_GROUP_RIGHT, frequency=freq, phase=0.0),
            SynthClass("right-late", channels=_GROUP_RIGHT, frequency=freq, phase=np.pi),
        ],
        noise=noise,
        windows_per_class=windows_per_class,
        window=window,
        sample_rate=sample_rate,
        seed=seed,
    )


def _recording_lengths(windows: int, parts: int, window: int) -> list:
    """Sample counts for `parts` recordings jointly yielding `windows` windows."""
    step = window // 2
    base, rem = divmod(windows, parts)
    counts = [base + (1 if i < rem else 0) for i in range(parts)]
    return [window + (q - 1) * step for q in counts if q > 0]


def synth_dataset(spec: SynthSpec):
    """Generate (manifest, recordings) for the given spec.

    Recording paths in the manifest follow the layout used by the CLI
    (``recordings/<subject>.csv``); the caller decides whether to write them.
    """
    rng = np.random.default_rng(spec.seed)
    recordings = []
    entries = []
    for label, cls in enumerate(spec.classes):
        for part, length in enumerate(
            _recording_lengths(spec.windows_per_class, spec.recordings_per_class, spec.window)
        ):
            t = np.arange(length)[:, None]
            samples = rng.normal(0.0, spec.noise, size=(length, N_CHANNELS))
            if cls.channels:
                wave = cls.amplitude * np.sin(
                    2.0 * np.pi * cls.frequency * t / spec.sample_rate + cls.phase
                )
                samples[:, np.array(cls.channels) - 1] += wave
            subject = f"synth-{cls.name}-{part}"
            recordings.append(Recording(label, samples.astype(np.float32)))
            entries.append(
                ManifestEntry(path=f"recordings/{subject}.csv", subject=subject, label=label)
            )
    manifest = DatasetManifest(
        recordings=entries,
        label_names={i: c.name for i, c in enumerate(spec.classes)},
        sample_rate=spec.sample_rate,
        split_seed=spec.seed,
        split_ratio=0.75,
    )
    return manifest, recordings


def spec_from_dict(doc: dict) -> SynthSpec:
    """Build a spec from a JSON document (the CLI's --spec file) by the rule
    of :func:`container.from_json`: a key that names no spec or class field,
    or a value of the wrong type, is an error, and values are never coerced."""
    return container.from_json(SynthSpec, doc, "spec")
