"""Cascade and parallel convolutional-recurrent architectures plus baselines.

Every architecture maps one labeled window (raw vectors and/or normalized
meshes) to K class logits; softmax lives in the loss during training and in
prediction at inference.  Forward passes are pure functions of the input,
the parameters, the mode and the dropout mask source, and accept either one
window (spec-level entry points) or a batch (training paths).  A forward's
mode is its dropout source: each public entry point turns "train" into its
rng and "eval" into None, and the private blocks drop out exactly when they
are handed an rng.

Dropout placement: after the fully connected layer inside the per-step conv
stack and after the final-stage fully connected layers (the cascade head FC
and the parallel post-LSTM FC).  The parallel pre-LSTM FC and recurrent
connections carry no dropout.  Per-step conv weights are shared across the
window's time steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import convolution
from .autodiff import Tensor

ARCHITECTURES = ("cascade", "parallel", "cnn1d", "cnn2d", "cnn3d", "rnn")
FUSIONS = ("cat", "add", "cat-fc", "cat-conv")

# LSTM gate layout inside the fused 4d-wide matrices: input, forget,
# candidate, output.  The forget slice of each bias starts at hidden size.
_GATES = 4


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not _is_bool(value)


# each annotation a config field may carry: what it reads as in an error,
# and the test a value passes
_FIELD_KINDS = {
    "int": ("an int", _is_int),
    "float": ("a real number", lambda v: isinstance(v, numbers.Real) and not _is_bool(v)),
    "bool": ("a bool", _is_bool),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of ints", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


def _check_field_types(config) -> None:
    """Raise TypeError unless every field of the dataclass `config` holds its
    annotated type (``X | None`` also admits None; the annotations are
    strings, as the module postpones their evaluation).  Config files and
    checkpoint headers are JSON, which the annotations do not constrain."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if optional == "None" and value is None:
            continue
        wanted, accepts = _FIELD_KINDS[kind]
        if not accepts(value):
            raise TypeError(f"{f.name} must be {wanted}{' or None' if optional else ''}, "
                            f"got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    classes: int = 5
    window: int = 10
    channels: int = 64
    mesh_h: int = 10
    mesh_w: int = 11
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
        _check_field_types(self)
        # JSON gives a list; the frozen config always holds a tuple
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

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())


# ---------------------------------------------------------------------------
# shape plan and initialization

def _conv_spatial(config: ModelConfig, arch: str) -> tuple:
    if arch == "cnn1d":
        return (config.channels,)
    if arch == "cnn3d":
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
    if spatial != temporal:
        raise ValueError(
            f"{config.fusion} fusion needs equal feature sizes, got {spatial} and {temporal}"
        )
    return spatial


def _plan(config: ModelConfig) -> list:
    """Ordered (name, shape, init) triples; init is 'dense', 'window_dense',
    'conv', 'lstm_w', 'lstm_u', 'bias' or 'forget_bias'."""
    arch = config.arch
    plan = []

    def dense(name: str, fan_in: int, fan_out: int, kind: str = "dense"):
        plan.append((f"{name}.weight", (fan_in, fan_out), kind))
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
            plan.append((f"rnn.l{j}.w", (size, _GATES * d), "lstm_w"))
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
        conv_stack(len(_conv_spatial(config, arch)))
        conv_fc(_conv_spatial(config, arch), "window_dense" if arch == "cnn3d" else "dense")
        dense("head.out", config.fc_width, config.classes)
    else:  # rnn baseline
        temporal()
        dense("head.out", config.fc_width if config.final_fc else config.hidden, config.classes)
    return plan


def _glorot_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def param_init(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic fan-in-scaled uniform initialization.

    Dense and conv weights use bound sqrt(6/(fan_in+fan_out)); LSTM matrices
    are initialized per gate; biases start at zero except LSTM forget-gate
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
        if kind == "bias":
            arr = np.zeros(shape)
        elif kind == "forget_bias":
            arr = np.zeros(shape)
            arr[d: 2 * d] = 1.0
        else:
            if kind == "dense":
                bound = _glorot_bound(shape[0], shape[1])
            elif kind == "window_dense":
                bound = _glorot_bound(shape[0], shape[1]) / config.window
            elif kind == "conv":
                receptive = int(np.prod(shape[2:]))
                bound = _glorot_bound(shape[1] * receptive, shape[0] * receptive)
            elif kind == "lstm_w":
                bound = _glorot_bound(shape[0], d)
            else:  # lstm_u
                bound = _glorot_bound(d, d)
            arr = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor.parameter(arr.astype(dtype))
    return ModelParams(config=config, tensors=tensors)


# ---------------------------------------------------------------------------
# building blocks

def _dropout_rng(mode: str, rng):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and rng is None:
        raise ValueError("train mode needs an rng for dropout masks")
    return rng if mode == "train" else None


def _require_arch(params: ModelParams, arch: str) -> None:
    if params.config.arch != arch:
        raise ValueError(f"params are for {params.config.arch!r}, not {arch!r}")


def _dense(x: Tensor, tensors: dict, name: str) -> Tensor:
    return ad.add(ad.matmul(x, tensors[f"{name}.weight"]), tensors[f"{name}.bias"])


def _dense_elu_dropout(x: Tensor, config: ModelConfig, tensors: dict, name: str, rng) -> Tensor:
    out = ad.elu(_dense(x, tensors, name))
    return out if rng is None else ad.dropout(out, config.keep_prob, rng)


def _conv_stack(config: ModelConfig, tensors: dict, x: Tensor, rng) -> Tensor:
    """Conv layers, each one fused conv + bias + ELU node, over a channels-first
    (N, 1, *spatial) batch; the flattened last layer, then `cnn.fc` if the model has one."""
    # The layers run channels-last, (N, *spatial, C), so each output is the
    # next layer's lowering input as it stands.  Only the last layer emits
    # channels-first and C-contiguous: the flatten is then a view, and the
    # rows of cnn.fc.weight keep their (C, *spatial) order.
    h = convolution._channels_last(x, x.ndim - 2)
    last = config.conv_depth - 1
    for i in range(config.conv_depth):
        h = convolution._conv(h, tensors[f"cnn.conv{i}.kernel"], tensors[f"cnn.conv{i}.bias"],
                              elu=True, channels_first=i == last)
    flat = ad.reshape(h, (x.shape[0], -1))
    with_fc = "cnn.fc.weight" in tensors
    return _dense_elu_dropout(flat, config, tensors, "cnn.fc", rng) if with_fc else flat


def _lstm_step(x: Tensor, h: Tensor, c: Tensor, tensors: dict, layer: str, hidden: int):
    z = ad.add(ad.add(ad.matmul(x, tensors[f"{layer}.w"]), ad.matmul(h, tensors[f"{layer}.u"])),
               tensors[f"{layer}.b"])
    i = ad.sigmoid(z[:, 0 * hidden:1 * hidden])
    f = ad.sigmoid(z[:, 1 * hidden:2 * hidden])
    g = ad.tanh(z[:, 2 * hidden:3 * hidden])
    o = ad.sigmoid(z[:, 3 * hidden:4 * hidden])
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def _lstm_stack(steps: list, tensors: dict, depth: int, hidden: int) -> Tensor:
    """Run `depth` stacked LSTM layers over a step sequence of (B, in)
    tensors; returns the top layer's final hidden state (B, hidden)."""
    if not steps:
        raise ValueError("LSTM sequence must contain at least one step")
    batch = steps[0].shape[0]
    dtype = steps[0].dtype
    sequence = steps
    h = None
    for j in range(depth):
        h = Tensor.constant(np.zeros((batch, hidden), dtype=dtype))
        c = Tensor.constant(np.zeros((batch, hidden), dtype=dtype))
        outputs = []
        for x in sequence:
            h, c = _lstm_step(x, h, c, tensors, f"rnn.l{j}", hidden)
            outputs.append(h)
        sequence = outputs
    return h


def lstm_sequence(inputs, params: ModelParams) -> Tensor:
    """Stacked-LSTM readout of a step sequence: only the final time step's
    top-layer hidden state is returned."""
    steps = [x if isinstance(x, Tensor) else Tensor.constant(np.asarray(x)) for x in inputs]
    single = bool(steps) and steps[0].ndim == 1
    if single:
        steps = [ad.reshape(x, (1, -1)) for x in steps]
    out = _lstm_stack(steps, params.tensors, params.config.lstm_depth, params.config.hidden)
    return ad.reshape(out, (-1,)) if single else out


def conv_stack_forward(mesh, params: ModelParams, mode: str = "eval", rng=None) -> Tensor:
    """Per-step spatial feature vector of one (h, w) or (1, h, w) mesh."""
    rng = _dropout_rng(mode, rng)
    config = params.config
    mesh = np.asarray(mesh)
    if mesh.shape not in ((config.mesh_h, config.mesh_w), (1, config.mesh_h, config.mesh_w)):
        raise ValueError(f"mesh must be (1, {config.mesh_h}, {config.mesh_w}), got {mesh.shape}")
    meshes = mesh.reshape(1, 1, config.mesh_h, config.mesh_w)
    return ad.reshape(_step_features(params, meshes, rng), (-1,))


def fuse(spatial, temporal, kind: str, params: ModelParams | None = None) -> Tensor:
    """Combine spatial and temporal feature vectors (single or batched).

    cat: concatenation, spatial first.  add: elementwise sum.  cat-fc:
    concatenation through a dense layer with ELU.  cat-conv: a two-channel
    pointwise (1x1) convolution, i.e. a learned weighted sum per position.
    """
    if kind not in FUSIONS:
        raise ValueError(f"unknown fusion {kind!r}, expected one of {FUSIONS}")
    a = spatial if isinstance(spatial, Tensor) else Tensor.constant(np.asarray(spatial))
    b = temporal if isinstance(temporal, Tensor) else Tensor.constant(np.asarray(temporal))
    single = a.ndim == 1
    if single:
        a, b = ad.reshape(a, (1, -1)), ad.reshape(b, (1, -1))
    if kind in ("add", "cat-conv") and a.shape != b.shape:
        raise ValueError(f"{kind} fusion needs equal sizes, got {a.shape} and {b.shape}")
    if kind == "cat":
        out = ad.concat([a, b], axis=1)
    elif kind == "add":
        out = ad.add(a, b)
    elif kind == "cat-fc":
        out = ad.elu(_dense(ad.concat([a, b], axis=1), params.tensors, "fuse"))
    else:  # cat-conv
        w = params.tensors["fuse.weight"]
        bias = params.tensors["fuse.bias"]
        out = ad.add(ad.add(ad.mul(a, w[0:1]), ad.mul(b, w[1:2])), bias)
    return ad.reshape(out, (-1,)) if single else out


# ---------------------------------------------------------------------------
# batched architecture forwards

def _step_features(params: ModelParams, meshes: np.ndarray, rng) -> Tensor:
    """(B, S, F) per-step conv features of a mesh window batch; the conv
    weights are shared across steps (cascade and parallel)."""
    config = params.config
    batch, steps = meshes.shape[:2]
    x = Tensor.constant(meshes.reshape(batch * steps, 1, config.mesh_h, config.mesh_w))
    feats = _conv_stack(config, params.tensors, x, rng)
    return ad.reshape(feats, (batch, steps, feats.shape[1]))


def _temporal_path(params: ModelParams, raw: np.ndarray, rng) -> Tensor:
    """Raw window batch through fc_in, the stacked LSTM and fc_out with
    dropout (the parallel model's RNN path and the rnn baseline)."""
    config = params.config
    tensors = params.tensors
    batch, steps = raw.shape[:2]
    xr = Tensor.constant(raw.reshape(batch * steps, config.channels))
    if config.mid_fc:
        xr = ad.elu(_dense(xr, tensors, "rnn.fc_in"))
    rseq = ad.reshape(xr, (batch, steps, xr.shape[1]))
    h_last = _lstm_stack([rseq[:, s] for s in range(steps)], tensors,
                         config.lstm_depth, config.hidden)
    if config.final_fc:
        h_last = _dense_elu_dropout(h_last, config, tensors, "rnn.fc_out", rng)
    return h_last


def _parallel_paths(params: ModelParams, raw: np.ndarray, meshes: np.ndarray, rng):
    """The parallel model's two pre-fusion feature batches: the per-step
    spatial features summed over the window, and the temporal features."""
    spatial = ad.tensor_sum(_step_features(params, meshes, rng), axis=1)
    return spatial, _temporal_path(params, raw, rng)


def forward_windows(params: ModelParams, raw: np.ndarray, meshes: np.ndarray,
                    mode: str = "eval", rng=None) -> Tensor:
    """Batched window classification: (B, S, ...) arrays -> logits (B, K).

    Each architecture reads only the input it uses: cnn1d and rnn read the
    raw windows, cascade, cnn2d and cnn3d the meshes, parallel both.  The
    per-sample baselines (cnn1d, cnn2d) classify a window by averaging the
    per-step logits; the average is order-invariant, so these models see no
    temporal structure, matching their single-sample contracts.
    """
    rng = _dropout_rng(mode, rng)
    config = params.config
    arch = config.arch
    tensors = params.tensors
    if arch == "cascade":
        fseq = _step_features(params, meshes, rng)
        feats = _lstm_stack([fseq[:, s] for s in range(fseq.shape[1])], tensors,
                            config.lstm_depth, config.hidden)
        if config.final_fc:
            feats = _dense_elu_dropout(feats, config, tensors, "head.fc", rng)
    elif arch == "parallel":
        feats = fuse(*_parallel_paths(params, raw, meshes, rng), config.fusion, params)
    elif arch == "rnn":
        feats = _temporal_path(params, raw, rng)
    elif arch == "cnn3d":
        batch, steps = meshes.shape[:2]
        x = meshes.reshape(batch, 1, steps, config.mesh_h, config.mesh_w)
        feats = _conv_stack(config, tensors, Tensor.constant(x), rng)
    else:  # cnn1d, cnn2d: one conv pass per step, then the mean of the step logits
        samples = raw if arch == "cnn1d" else meshes
        batch, steps = samples.shape[:2]
        x = Tensor.constant(samples.reshape((batch * steps, 1) + _conv_spatial(config, arch)))
        feats = _conv_stack(config, tensors, x, rng)
        per_step = ad.reshape(_dense(feats, tensors, "head.out"), (batch, steps, config.classes))
        return ad.mul(ad.tensor_sum(per_step, axis=1), 1.0 / steps)
    return _dense(feats, tensors, "head.out")


# ---------------------------------------------------------------------------
# spec-level single-window entry points

def _single(params: ModelParams, arch: str, segment, mode: str, rng) -> Tensor:
    _require_arch(params, arch)
    raw, meshes = np.asarray(segment.raw), np.asarray(segment.meshes)
    return ad.reshape(forward_windows(params, raw[None], meshes[None], mode, rng), (-1,))


def cascade_forward(segment, params: ModelParams, mode: str = "eval", rng=None) -> Tensor:
    return _single(params, "cascade", segment, mode, rng)


def parallel_forward(segment, params: ModelParams, mode: str = "eval", rng=None) -> Tensor:
    return _single(params, "parallel", segment, mode, rng)


def parallel_features(segment, params: ModelParams, mode: str = "eval", rng=None):
    """The two pre-fusion feature vectors of the parallel model: the summed
    per-step spatial features and the RNN-path temporal features."""
    _require_arch(params, "parallel")
    spatial, temporal = _parallel_paths(params, np.asarray(segment.raw)[None],
                                        np.asarray(segment.meshes)[None], _dropout_rng(mode, rng))
    return ad.reshape(spatial, (-1,)), ad.reshape(temporal, (-1,))


def baseline_forward(x, params: ModelParams, kind: str, mode: str = "eval", rng=None) -> Tensor:
    """Single-input baseline contract: cnn1d takes one raw sample (n,),
    cnn2d one mesh (h, w), cnn3d a mesh window (S, h, w), rnn a raw window
    (S, n)."""
    _require_arch(params, kind)
    config = params.config
    if kind not in ("cnn1d", "cnn2d", "cnn3d", "rnn"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    x = np.asarray(x)
    expected = (config.window, config.channels) if kind == "rnn" else _conv_spatial(config, kind)
    if x.shape != expected:
        raise ValueError(f"{kind} input must have shape {expected}, got {x.shape}")
    # a one-window batch; a single cnn1d/cnn2d sample is a one-step window.
    # The architecture reads only its own input, so x serves as raw and mesh.
    window = x[None] if kind in ("cnn3d", "rnn") else x[None, None]
    return ad.reshape(forward_windows(params, window, window, mode, rng), (-1,))
