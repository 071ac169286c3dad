"""Cascade and parallel convolutional-recurrent architectures plus baselines.

Every architecture maps a batch of labeled windows (raw vectors and/or
normalized meshes) to K class logits per window through one entry point,
:func:`forward_windows`; one window is a batch of one.  Softmax lives in the
loss during training and in prediction at inference.  A forward is a pure
function of the input, the parameters, the mode and the dropout mask source.
Its mode is its dropout source: :func:`forward_windows` turns "train" into
its rng and "eval" into None, and the private blocks drop out exactly when
they are handed an rng.

Dropout placement: after the fully connected layer inside the per-step conv
stack and after the final-stage fully connected layers (the cascade head FC
and the parallel post-LSTM FC).  The parallel pre-LSTM FC and recurrent
connections carry no dropout.  Per-step conv weights are shared across the
window's time steps, and overlapping windows share frames, so the conv
stack computes its features (conv layers and ``elu(cnn.fc)``) once per
distinct frame index of a batch and gathers them back to every step; its
dropout comes after that gather, one mask entry per step.  Every dense
layer stores its weight (out, in) and runs as one :func:`autodiff.linear`
node.  Each LSTM layer is two nodes whatever the window length: its input
projection over all steps as one :func:`autodiff.linear`, with
`rnn.l{j}.w` stored (4·hidden, in), and its recurrence as one
:func:`autodiff.lstm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import convolution
from .autodiff import Tensor
from .layout import MESH_COLS, MESH_ROWS, N_CHANNELS

ARCHITECTURES = ("cascade", "parallel", "cnn1d", "cnn2d", "cnn3d", "rnn")
FUSIONS = ("cat", "add", "cat-fc", "cat-conv")

# LSTM gate layout inside the fused 4d-wide matrices: input, forget,
# candidate, output.  The forget slice of each bias starts at hidden size.
_GATES = 4


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    classes: int = 5
    window: int = 10
    channels: int = N_CHANNELS
    mesh_h: int = MESH_ROWS
    mesh_w: int = MESH_COLS
    fc_width: int = 1024
    hidden: int = 64
    conv_depth: int = 3
    lstm_depth: int = 2
    fusion: str = "cat"
    keep_prob: float = 0.5
    conv_maps: tuple = (32, 64, 128)
    mid_fc: bool = True
    final_fc: bool = True

    def __post_init__(self):
        # a caller may pass a list; the frozen config always holds a tuple
        object.__setattr__(self, "conv_maps", tuple(self.conv_maps))
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}, expected one of {ARCHITECTURES}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {self.fusion!r}, expected one of {FUSIONS}")
        if min(self.conv_maps, default=1) < 1:
            raise ValueError(f"conv_maps entries must be >= 1, got {self.conv_maps}")
        if not 1 <= self.conv_depth <= len(self.conv_maps):
            raise ValueError(f"conv depth {self.conv_depth} needs feature-map counts, have {self.conv_maps}")
        if self.lstm_depth < 1:
            raise ValueError("lstm depth must be >= 1")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep probability must be in (0, 1], got {self.keep_prob}")
        for name in ("classes", "window", "channels", "mesh_h", "mesh_w", "fc_width", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.arch == "parallel" and self.fusion in ("add", "cat-conv"):
            spatial, temporal = _spatial_feature_size(self), _temporal_feature_size(self)
            if spatial != temporal:
                raise ValueError(f"{self.fusion} fusion needs equal feature sizes, "
                                 f"got {spatial} and {temporal}")

    @property
    def maps(self) -> tuple:
        return tuple(self.conv_maps[: self.conv_depth])


def canonical_config(arch: str, **overrides) -> ModelConfig:
    """Published hyperparameters: fc width 1024, cascade hidden 64,
    parallel hidden 16, conv maps 32/64/128, keep probability 0.5."""
    defaults = {"hidden": 16} if arch == "parallel" else {}
    defaults.update(overrides)
    return ModelConfig(arch=arch, **defaults)


@dataclass
class ModelParams:
    """Learnable tensors for one configured architecture."""

    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def frozen(self) -> "ModelParams":
        """The same arrays, uncopied, as constants: a forward on them builds
        no tape and leaves every ``.grad`` alone (evaluation and prediction)."""
        return ModelParams(self.config, {name: Tensor.constant(t.data)
                                         for name, t in self.tensors.items()})


# ---------------------------------------------------------------------------
# shape plan and initialization

def _conv_spatial(config: ModelConfig) -> tuple:
    if config.arch == "cnn1d":
        return (config.channels,)
    if config.arch == "cnn3d":
        return (config.window, config.mesh_h, config.mesh_w)
    return (config.mesh_h, config.mesh_w)


def _spatial_feature_size(config: ModelConfig) -> int:
    """Per-step feature length out of the conv stack (cascade/parallel)."""
    if config.mid_fc:
        return config.fc_width
    return config.maps[-1] * config.mesh_h * config.mesh_w


def _temporal_feature_size(config: ModelConfig) -> int:
    """Output length of the parallel RNN path."""
    return config.fc_width if config.final_fc else config.hidden


def _fused_size(config: ModelConfig) -> int:
    spatial, temporal = _spatial_feature_size(config), _temporal_feature_size(config)
    if config.fusion == "cat":
        return spatial + temporal
    if config.fusion == "cat-fc":
        return config.fc_width
    return spatial  # add and cat-conv: equal sizes, checked by ModelConfig


def _plan(config: ModelConfig) -> list:
    """Ordered (name, shape, init) triples; init is 'dense', 'window_dense',
    'conv', 'lstm_w', 'lstm_u', 'bias' or 'forget_bias'.  Dense weights and
    the LSTM input weight `w` are stored (out, in), as :func:`autodiff.linear`
    takes them; the recurrent `u` (hidden, 4·hidden), as :func:`autodiff.lstm`.
    The columns of `cnn.fc.weight` (without `cnn.fc`, of the next layer)
    are ordered (*spatial, C), as the channels-last conv maps lie."""
    arch = config.arch
    plan = []

    def dense(name: str, fan_in: int, fan_out: int, kind: str = "dense"):
        plan.append((f"{name}.weight", (fan_out, fan_in), kind))
        plan.append((f"{name}.bias", (fan_out,), "bias"))

    def conv_stack(spatial_nd: int):
        in_ch = 1
        kernel = (3,) * spatial_nd
        for i, m in enumerate(config.maps):
            plan.append((f"cnn.conv{i}.kernel", (m, in_ch) + kernel, "conv"))
            plan.append((f"cnn.conv{i}.bias", (m,), "bias"))
            in_ch = m

    def conv_fc(spatial: tuple, kind: str = "dense"):
        dense("cnn.fc", config.maps[-1] * int(np.prod(spatial)), config.fc_width, kind)

    def lstm(input_size: int):
        d = config.hidden
        for j in range(config.lstm_depth):
            size = input_size if j == 0 else d
            plan.append((f"rnn.l{j}.w", (_GATES * d, size), "lstm_w"))
            plan.append((f"rnn.l{j}.u", (d, _GATES * d), "lstm_u"))
            plan.append((f"rnn.l{j}.b", (_GATES * d,), "forget_bias"))

    def temporal():
        # the raw-sample path shared by the parallel model and the rnn baseline
        if config.mid_fc:
            dense("rnn.fc_in", config.channels, config.fc_width)
        lstm(config.fc_width if config.mid_fc else config.channels)
        if config.final_fc:
            dense("rnn.fc_out", config.hidden, config.fc_width)

    if arch == "cascade":
        conv_stack(2)
        if config.mid_fc:
            conv_fc((config.mesh_h, config.mesh_w))
        lstm(_spatial_feature_size(config))
        if config.final_fc:
            dense("head.fc", config.hidden, config.fc_width)
        dense("head.out", config.fc_width if config.final_fc else config.hidden, config.classes)
    elif arch == "parallel":
        conv_stack(2)
        if config.mid_fc:
            conv_fc((config.mesh_h, config.mesh_w))
        temporal()
        if config.fusion == "cat-fc":
            joint = _spatial_feature_size(config) + _temporal_feature_size(config)
            dense("fuse", joint, config.fc_width, "window_dense")
        elif config.fusion == "cat-conv":
            plan.append(("fuse.weight", (2,), "bias"))
            plan.append(("fuse.bias", (1,), "bias"))
        dense("head.out", _fused_size(config), config.classes,
              "window_dense" if config.fusion in ("cat", "add") else "dense")
    elif arch in ("cnn1d", "cnn2d", "cnn3d"):
        conv_stack(len(_conv_spatial(config)))
        conv_fc(_conv_spatial(config), "window_dense" if arch == "cnn3d" else "dense")
        dense("head.out", config.fc_width, config.classes)
    else:  # rnn baseline
        temporal()
        dense("head.out", config.fc_width if config.final_fc else config.hidden, config.classes)
    return plan


def _glorot_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


_DRAW_CHUNK = 1 << 16  # values per uniform draw in param_init


def param_init(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic fan-in-scaled uniform initialization.

    Dense and conv weights use bound sqrt(6/(fan_in+fan_out)), each drawn
    in its stored shape (dense and LSTM `w` (out, in)); LSTM matrices are
    initialized per gate; biases start at zero except LSTM forget-gate
    biases, which start at 1.

    Two dense layers that read a whole window at once have their bound
    divided by ``config.window``; without it the untrained loss sits far
    above log K.  In the parallel model, the layer that reads the fusion
    output (``head.out.weight`` for cat/add, ``fuse.weight`` for cat-fc):
    the spatial path sums the window's correlated per-step features, so its
    input is about ``window`` times larger than the fan-in rule assumes.
    cat-conv needs no such rule, as its ``fuse.weight`` starts at zero.  In
    cnn3d, ``cnn.fc.weight``, which reads the conv features of every frame:
    under the plain rule its logits spread about 3.5 times as widely as
    cnn2d's, which averages its step logits.  A 1/sqrt(window) bound leaves
    the untrained loss up to 0.085 above log 5 on a small test config, and
    1/window brings it within 0.03, as for the other architectures.
    """
    rng = np.random.default_rng(seed)
    d = config.hidden
    tensors = {}
    for name, shape, kind in _plan(config):
        arr = np.zeros(shape, dtype)
        if kind == "forget_bias":
            arr[d: 2 * d] = 1.0
        elif kind != "bias":
            if kind == "dense":
                bound = _glorot_bound(shape[0], shape[1])
            elif kind == "window_dense":
                bound = _glorot_bound(shape[0], shape[1]) / config.window
            elif kind == "conv":
                receptive = int(np.prod(shape[2:]))
                bound = _glorot_bound(shape[1] * receptive, shape[0] * receptive)
            elif kind == "lstm_w":
                bound = _glorot_bound(shape[1], d)
            else:  # lstm_u
                bound = _glorot_bound(d, d)
            # the whole-array draw, cast, a chunk at a time: uniform takes one
            # double per value, so no full-size float64 temporary is needed
            flat = arr.reshape(-1)
            for start in range(0, flat.size, _DRAW_CHUNK):
                chunk = flat[start:start + _DRAW_CHUNK]
                chunk[...] = rng.uniform(-bound, bound, size=chunk.size)
        tensors[name] = Tensor.parameter(arr)
    return ModelParams(config=config, tensors=tensors)


# ---------------------------------------------------------------------------
# building blocks

def _dropout_rng(mode: str, rng):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and rng is None:
        raise ValueError("train mode needs an rng for dropout masks")
    return rng if mode == "train" else None


def _dense(x: Tensor, tensors: dict, name: str) -> Tensor:
    return ad.linear(x, tensors[f"{name}.weight"], tensors[f"{name}.bias"])


def _dropout(x: Tensor, config: ModelConfig, rng) -> Tensor:
    return x if rng is None else ad.dropout(x, config.keep_prob, rng)


def _dense_elu_dropout(x: Tensor, config: ModelConfig, tensors: dict, name: str, rng) -> Tensor:
    return _dropout(ad.elu(_dense(x, tensors, name)), config, rng)


def _first_appearance(ids: np.ndarray):
    """``(keep, rows)`` such that ``keep[rows]`` is the 1-D `ids`: `keep`
    holds each distinct id once, in order of first appearance."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    rows = np.empty_like(rank)
    rows[rank] = np.arange(len(rank))
    return ids[first[rank]], rows[inverse]


def _conv_stack(config: ModelConfig, tensors: dict, x: Tensor, rng, rows=None) -> Tensor:
    """Conv layers, each one :func:`convolution._conv` node (conv + bias +
    ELU), over a channels-last (N, *spatial, 1) batch; the last layer's
    (N, *spatial, C) output flattened as it lies, to features ordered
    (*spatial, C), then ``elu(cnn.fc)`` and dropout if the model has `cnn.fc`.

    Given `rows`, one :func:`autodiff.gather` puts the features of those
    rows of `x`, in that order, in place of the N before dropout, whose mask
    then has one row per entry of `rows`."""
    # every layer is channels-last in and out, so each output is the next
    # layer's lowering input as it stands and the flatten is a view
    for i in range(config.conv_depth):
        x = convolution._conv(x, tensors[f"cnn.conv{i}.kernel"], tensors[f"cnn.conv{i}.bias"])
    feats = ad.reshape(x, (x.shape[0], -1))
    with_fc = "cnn.fc.weight" in tensors
    if with_fc:
        feats = ad.elu(_dense(feats, tensors, "cnn.fc"))
    if rows is not None:
        feats = ad.gather(feats, rows)
    return _dropout(feats, config, rng) if with_fc else feats


def _frame_features(config: ModelConfig, tensors: dict, frames: np.ndarray,
                    index: np.ndarray, rng) -> Tensor:
    """(B·S, F) conv-stack features of the frames a (B, S) `index` picks, in
    index order.  Each distinct frame index runs through the conv layers
    and ``elu(cnn.fc)`` once, and the rows are gathered back before dropout."""
    keep, rows = _first_appearance(index.ravel())
    x = Tensor.constant(np.take(frames, keep, axis=0)[..., None])
    return _conv_stack(config, tensors, x, rng, rows if len(keep) < index.size else None)


def _lstm_stack(config: ModelConfig, tensors: dict, seq: Tensor) -> Tensor:
    """Run the config's stacked LSTM layers over a (B, S, in) sequence;
    returns the top layer's final hidden state (B, hidden).  Each layer is
    two tape nodes: the input projection of all steps as one
    :func:`autodiff.linear`, then the recurrence as one :func:`autodiff.lstm`."""
    batch, steps = seq.shape[:2]
    if steps == 0:
        raise ValueError("LSTM sequence must contain at least one step")
    for j in range(config.lstm_depth):
        flat = ad.reshape(seq, (batch * steps, seq.shape[2]))
        xw = ad.linear(flat, tensors[f"rnn.l{j}.w"], tensors[f"rnn.l{j}.b"])
        seq = ad.lstm(ad.reshape(xw, (batch, steps, _GATES * config.hidden)),
                      tensors[f"rnn.l{j}.u"])
    return seq[:, -1]


def _fuse(params: ModelParams, spatial: Tensor, temporal: Tensor) -> Tensor:
    """Combine (B, F) spatial and temporal feature batches by the config's
    fusion; ModelConfig has checked the kind and, for add and cat-conv,
    that the two sizes are equal.

    cat: concatenation, spatial first.  add: elementwise sum.  cat-fc:
    concatenation through a dense layer with ELU.  cat-conv: a two-channel
    pointwise (1x1) convolution, i.e. a learned weighted sum per position.
    """
    kind = params.config.fusion
    if kind == "cat":
        return ad.concat([spatial, temporal], axis=1)
    if kind == "add":
        return ad.add(spatial, temporal)
    if kind == "cat-fc":
        return ad.elu(_dense(ad.concat([spatial, temporal], axis=1), params.tensors, "fuse"))
    w = params.tensors["fuse.weight"]  # cat-conv
    weighted = ad.add(ad.mul(spatial, w[0:1]), ad.mul(temporal, w[1:2]))
    return ad.add(weighted, params.tensors["fuse.bias"])


# ---------------------------------------------------------------------------
# batched architecture forwards

def _step_features(params: ModelParams, meshes: np.ndarray, index: np.ndarray, rng) -> Tensor:
    """(B, S, F) per-step conv features of the mesh frames `index` picks; the
    conv weights are shared across steps (cascade and parallel)."""
    feats = _frame_features(params.config, params.tensors, meshes, index, rng)
    return ad.reshape(feats, index.shape + (feats.shape[1],))


def _temporal_path(params: ModelParams, raw: np.ndarray, index: np.ndarray, rng) -> Tensor:
    """The raw frames `index` picks through fc_in, the stacked LSTM and
    fc_out with dropout (the parallel model's RNN path and the rnn baseline)."""
    config = params.config
    tensors = params.tensors
    xr = Tensor.constant(np.take(raw, index.ravel(), axis=0))
    if config.mid_fc:
        xr = ad.elu(_dense(xr, tensors, "rnn.fc_in"))
    rseq = ad.reshape(xr, index.shape + (xr.shape[1],))
    h_last = _lstm_stack(config, tensors, rseq)
    if config.final_fc:
        h_last = _dense_elu_dropout(h_last, config, tensors, "rnn.fc_out", rng)
    return h_last


def _parallel_paths(params: ModelParams, raw: np.ndarray, meshes: np.ndarray,
                    index: np.ndarray, rng):
    """The parallel model's two pre-fusion feature batches: the per-step
    spatial features summed over the window, and the temporal features."""
    spatial = ad.tensor_sum(_step_features(params, meshes, index, rng), axis=1)
    return spatial, _temporal_path(params, raw, index, rng)


def forward_windows(params: ModelParams, raw: np.ndarray, meshes: np.ndarray,
                    mode: str = "eval", rng=None, index: np.ndarray | None = None) -> Tensor:
    """Batched window classification: a batch of B windows -> logits (B, K).

    Without `index`, `raw` (B, S, channels) and `meshes` (B, S, mesh_h,
    mesh_w) are the windows.  With a (B, S) integer `index`, they are
    frames, (F, channels) and (F, mesh_h, mesh_w), and step t of window b
    is frame ``index[b, t]``; the conv stack runs each distinct frame index
    of the batch once.  Each architecture reads only the input it uses:
    cnn1d and rnn the raw frames, cascade, cnn2d and cnn3d the meshes,
    parallel both.  The per-sample baselines (cnn1d, cnn2d) classify a
    window by averaging the per-step logits; the average is order-invariant,
    so these models see no temporal structure.
    """
    rng = _dropout_rng(mode, rng)
    if index is None:  # dense windows: every step its own frame
        index = np.arange(raw.shape[0] * raw.shape[1]).reshape(raw.shape[:2])
        raw = raw.reshape((-1,) + raw.shape[2:])
        meshes = meshes.reshape((-1,) + meshes.shape[2:])
    config = params.config
    arch = config.arch
    tensors = params.tensors
    if arch == "cascade":
        feats = _lstm_stack(config, tensors, _step_features(params, meshes, index, rng))
        if config.final_fc:
            feats = _dense_elu_dropout(feats, config, tensors, "head.fc", rng)
    elif arch == "parallel":
        feats = _fuse(params, *_parallel_paths(params, raw, meshes, index, rng))
    elif arch == "rnn":
        feats = _temporal_path(params, raw, index, rng)
    elif arch == "cnn3d":  # the conv reads whole windows, one (S, h, w) volume each
        x = Tensor.constant(np.take(meshes, index, axis=0)[..., None])
        feats = _conv_stack(config, tensors, x, rng)
    else:  # cnn1d, cnn2d: one conv pass per step, then the mean of the step logits
        feats = _frame_features(config, tensors, raw if arch == "cnn1d" else meshes, index, rng)
        per_step = ad.reshape(_dense(feats, tensors, "head.out"), index.shape + (config.classes,))
        return ad.mul(ad.tensor_sum(per_step, axis=1), 1.0 / index.shape[1])
    return _dense(feats, tensors, "head.out")
