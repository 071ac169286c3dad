import json
from pathlib import Path

import numpy as np
import pytest

from eegnet import container, optim, synth, training
from eegnet import dataset as ds
from eegnet.gradcheck import reduced_config
from eegnet.models import param_init


def build_prepared(windows_per_class=20, noise=0.25, seed=0, split_seed=0,
                   ratio=0.75, window=10, shuffle_labels=False):
    """In-memory synthetic prepared dataset (no file IO)."""
    spec = synth.default_spec(windows_per_class=windows_per_class, noise=noise,
                              seed=seed, window=window)
    _, recordings = synth.synth_dataset(spec)
    prepared = ds.window_recordings(recordings, window=window)
    if shuffle_labels:
        rng = np.random.default_rng(split_seed + 1)
        prepared.labels = rng.permutation(prepared.labels)
    train_idx, test_idx = ds.split_indices(prepared.count, ratio, split_seed)
    prepared.meta = {
        "sample_rate": spec.sample_rate,
        "label_names": {str(i): c.name for i, c in enumerate(spec.classes)},
        "split": {"seed": split_seed, "ratio": ratio,
                  "train": train_idx.tolist(), "test": test_idx.tolist()},
        "skipped": [],
    }
    return prepared


@pytest.fixture(scope="session")
def small_prepared():
    return build_prepared(windows_per_class=20, noise=0.25, seed=0, split_seed=0)


def rewrite_header(src, dst, fmt, edit):
    """Copy the container at `src` to `dst` with its JSON header changed in
    place by `edit`; the fixed fields and the array bytes are kept."""
    blob = Path(src).read_bytes()
    start = len(fmt.magic) + fmt.prefix.size
    _, *fixed, header_len = fmt.prefix.unpack(blob[len(fmt.magic):start])
    header = json.loads(blob[start:start + header_len])
    edit(header)
    payload = np.frombuffer(blob[start + header_len:], dtype=np.uint8)
    container.write(dst, fmt, tuple(fixed), header, [payload])


@pytest.fixture(scope="session")
def tiny_checkpoint(tmp_path_factory):
    """An untrained reduced-size cascade checkpoint with one history row."""
    config = reduced_config("cascade")
    params = param_init(config, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.eegc"
    training.save_checkpoint(
        path, config, training.TrainConfig(epochs=2), params,
        optim.init_adam(params.tensors, learning_rate=1e-3), epoch=1,
        rng=np.random.default_rng(0), history=[training.EpochStats(1, 1.1, 0.4, 1.2, 0.3)],
    )
    return path


# Independent nested-loop oracles: direct correlation of one channels-first
# (C_in, *spatial) frame, zero-padded, with a (C_out, C_in, 3, ...) kernel,
# plus the bias; no activation.

def conv1d_loops(x, k, b):
    cin, length = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1)))
    out = np.zeros((cout, length))
    for co in range(cout):
        for i in range(length):
            acc = 0.0
            for ci in range(cin):
                for p in range(3):
                    acc += xp[ci, i + p] * k[co, ci, p]
            out[co, i] = acc + b[co]
    return out


def conv2d_loops(x, k, b):
    cin, h, w = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((cout, h, w))
    for co in range(cout):
        for y in range(h):
            for z in range(w):
                acc = 0.0
                for ci in range(cin):
                    for p in range(3):
                        for q in range(3):
                            acc += xp[ci, y + p, z + q] * k[co, ci, p, q]
                out[co, y, z] = acc + b[co]
    return out


def conv3d_loops(x, k, b):
    cin, d, h, w = x.shape
    cout = k.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((cout, d, h, w))
    for co in range(cout):
        for u in range(d):
            for y in range(h):
                for z in range(w):
                    acc = 0.0
                    for ci in range(cin):
                        for p in range(3):
                            for q in range(3):
                                for r in range(3):
                                    acc += xp[ci, u + p, y + q, z + r] * k[co, ci, p, q, r]
                    out[co, u, y, z] = acc + b[co]
    return out


CONV_LOOPS = {1: conv1d_loops, 2: conv2d_loops, 3: conv3d_loops}
