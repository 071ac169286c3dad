"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces every public function of the traced eegnet modules
by a timing wrapper, in every eegnet module namespace that holds a reference
to it (``from .x import f`` copies are found by identity).  Tensor ops of
``autodiff`` and ``convolution`` are attributed to a layer and their
returned tensors get their backward closure wrapped too, so each layer's
backward time is measured where the tape runs it.  Nothing in the package
is edited; `Tracer.uninstall` puts the originals back.

Spans nest: a span's self time is its duration minus the time of the spans
it directly encloses.  An op called from inside another op (``dropout``
calls ``mul``) is not timed on its own; the outer op owns it.  Accumulators
are kept per phase (``setup``, ``main``, ``extra``) so that set-up work and
the timed loop are reported apart.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("dataset", "layout", "convolution", "autodiff", "models", "optim", "training")
OP_MODULES = ("autodiff", "convolution")

# Matmul and bias ops are named after the parameter group they take.
PARAM_GROUPS = ("cnn.fc", "rnn.fc_in", "rnn.l0", "rnn.l1", "rnn.fc_out", "head")
_FIXED_GROUPS = {
    "elu": "elu",
    "sigmoid": "lstm_gates",
    "tanh": "lstm_gates",
    "dropout": "dropout",
    "softmax_cross_entropy": "loss",
    "softmax_cross_entropy_batch": "loss",
}
_ARITH = ("add", "mul")
# Spans that the model workloads run only while setting up.
SETUP_SPANS = ("dataset.load_prepared_s", "training.load_checkpoint_s")
# Per-layer metrics that sum or rename accumulator keys.
DERIVED = {
    "autodiff.dropout_s": ("autodiff.dropout.fwd_s", "autodiff.dropout.bwd_s"),
    "autodiff.loss_s": ("autodiff.loss.fwd_s", "autodiff.loss.bwd_s"),
    "autodiff.backward.walk_s": ("autodiff.backward.self_s",),
}


def param_group(name: str) -> str:
    """'cnn.conv1.kernel' -> 'conv1', 'rnn.l0.w' -> 'rnn.l0', 'head.fc.bias' -> 'head'."""
    parts = name.split(".")
    if parts[0] == "cnn" and parts[1].startswith("conv"):
        return parts[1]
    if parts[0] == "head":
        return "head"
    group = ".".join(parts[:2])
    return group if group in PARAM_GROUPS else "other"


def tape_nodes(root) -> int:
    """Tensors reachable from `root` through `_parents` that hold a backward closure."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            count += 1
        stack.extend(t._parents)
    return count


def _conv_counts(x, k):
    """Computed FLOPs and im2col bytes of one conv call, forward and backward."""
    xd = getattr(x, "data", x)
    kd = getattr(k, "data", k)
    nd = kd.ndim - 2
    batch = xd.shape[0] if xd.ndim == 2 + nd else 1
    positions = batch
    for extent in xd.shape[-nd:]:
        positions *= extent
    taps = 3 ** nd
    c_out, c_in = kd.shape[:2]
    item = xd.dtype.itemsize
    matmul = 2 * positions * c_in * taps * c_out
    fwd = {"convolution.flops": matmul, "convolution.lowered_bytes": positions * c_in * taps * item}
    bwd = {"convolution.flops": 0, "convolution.lowered_bytes": 0}
    if getattr(k, "requires_grad", False):
        bwd["convolution.flops"] += matmul
    if getattr(x, "requires_grad", False):
        bwd["convolution.flops"] += matmul
        bwd["convolution.lowered_bytes"] += positions * c_out * taps * item
    return fwd, bwd


class Tracer:
    """Span and count accumulators plus the wrappers that feed them."""

    def __init__(self):
        self.phases: dict = {}
        self.set_phase("inputs")
        self._stack: list = []       # frames: [start, child seconds, is_op]
        self._params: dict = {}      # id -> (tensor, parameter name)
        self._producer: dict = {}    # id -> (tensor, group of the op that made it)
        self._restore: list = []
        self._name_cache: dict = {}   # span key -> its three accumulator names

    def set_phase(self, name: str) -> None:
        self.acc = self.phases.setdefault(name, defaultdict(float))

    # -- spans -------------------------------------------------------------

    def _names(self, key: str) -> tuple:
        names = self._name_cache.get(key)
        if names is None:
            names = self._name_cache[key] = (key + "_s", key + ".self_s", key + ".calls")
        return names

    def _span(self, names: tuple, fn, args, kwargs, is_op: bool):
        stack = self._stack
        frame = [0.0, 0.0, is_op]
        stack.append(frame)
        frame[0] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            stack.pop()
            acc = self.acc
            acc[names[0]] += duration
            acc[names[1]] += duration - frame[1]
            acc[names[2]] += 1
            if stack:
                stack[-1][1] += duration

    def _add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.acc[key] += value

    def _timed_closure(self, closure, names: tuple, counts: dict | None):
        def timed(g):
            self._span(names, closure, (g,), {}, True)
            if counts:
                self._add(counts)

        timed.traced = True
        return timed

    # -- op attribution ----------------------------------------------------

    def _group(self, name: str, tensors: list) -> str:
        for t in tensors:
            hit = self._params.get(id(t))
            if hit is not None and hit[0] is t:
                return param_group(hit[1])
        if name in _FIXED_GROUPS:
            return _FIXED_GROUPS[name]
        if name in _ARITH:
            made_by = set()
            for t in tensors:
                hit = self._producer.get(id(t))
                made_by.add(hit[1] if hit is not None and hit[0] is t else None)
            if "lstm_gates" in made_by:
                return "lstm_gates"
            if len(made_by) == 1 and next(iter(made_by)) in PARAM_GROUPS:
                return next(iter(made_by))
        return "other"

    def _wrap_op(self, module: str, name: str, fn):
        from eegnet.autodiff import Tensor

        is_conv = module == "convolution"
        takes_sequence = name == "concat"

        def op(*args, **kwargs):
            if self._stack and self._stack[-1][2]:
                return fn(*args, **kwargs)
            tensors = [a for a in (args[0] if takes_sequence else args) if isinstance(a, Tensor)]
            group = self._group(name, tensors)
            fwd_counts = bwd_counts = None
            if is_conv:
                fwd_counts, bwd_counts = _conv_counts(args[0], args[1])
            key = module + "." + group
            out = self._span(self._names(key + ".fwd"), fn, args, kwargs, True)
            if fwd_counts:
                self._add(fwd_counts)
            result = out[0] if isinstance(out, tuple) else out
            if (isinstance(result, Tensor) and result._backward is not None
                    and not getattr(result._backward, "traced", False)):
                result._backward = self._timed_closure(
                    result._backward, self._names(key + ".bwd"), bwd_counts)
                self._producer[id(result)] = (result, group)
            return out

        return op

    # -- plain functions and their hooks -----------------------------------

    def _before_forward(self, args, kwargs):
        params = args[0] if args else kwargs["params"]
        self._params = {id(t): (t, name) for name, t in params.tensors.items()}
        self._producer = {}

    def _after_forward(self, out, args, kwargs, memo):
        self.acc["autodiff.tape_nodes"] += tape_nodes(out)

    def _after_backward(self, out, args, kwargs, memo):
        self._params = {}
        self._producer = {}

    @staticmethod
    def _adam_arrays(params, state) -> list:
        return [p.data for p in params.values()] + [
            a for store in (state.first_moment, state.second_moment) for a in store.values()
        ]

    def _before_adam(self, args, kwargs):
        # The old arrays are kept alive until the step returns, so that a new
        # array cannot reuse the id of one the step freed.
        return self._adam_arrays(args[0], args[2])

    def _after_adam(self, out, args, kwargs, memo):
        old = {id(a) for a in memo}
        self.acc["optim.bytes_allocated"] += sum(
            a.nbytes for a in self._adam_arrays(*out) if id(a) not in old)

    def _after_save_prepared(self, out, args, kwargs, memo):
        path = args[0] if args else kwargs["path"]
        self.acc["dataset.bytes_written"] += os.path.getsize(path)

    def _hooks(self, key: str):
        return {
            "models.forward_windows": (self._before_forward, self._after_forward),
            "autodiff.backward": (None, self._after_backward),
            "optim.adam_step": (self._before_adam, self._after_adam),
            "dataset.save_prepared": (None, self._after_save_prepared),
        }.get(key, (None, None))

    def _wrap_plain(self, key: str, fn):
        before, after = self._hooks(key)

        names = self._names(key)

        def plain(*args, **kwargs):
            memo = before(args, kwargs) if before else None
            out = self._span(names, fn, args, kwargs, False)
            if after:
                after(out, args, kwargs, memo)
            return out

        return plain

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"eegnet.{name}") for name in TRACED_MODULES}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "eegnet" or n.startswith("eegnet."))]
        for mod_name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if mod_name in OP_MODULES and attr != "backward":
                    wrapped = self._wrap_op(mod_name, attr, fn)
                else:
                    wrapped = self._wrap_plain(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, name, fn))
                            setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._restore):
            setattr(ns, name, fn)
        self._restore = []

    # -- results -----------------------------------------------------------

    def value(self, key: str, steps: int, setup_reps: int) -> float:
        """Per step of the timed loop; a set-up span that the loop does not
        run is reported per set-up repetition; 0 when the layer did no work."""
        main = self.phases.get("main", {})
        setup = self.phases.get("setup", {})
        if key in main:
            return main[key] / steps
        if key in SETUP_SPANS and key in setup:
            return setup[key] / setup_reps
        return 0.0


def layer_metrics(tracer: Tracer, names, steps: int, setup_reps: int) -> dict:
    return {
        name: sum(tracer.value(key, steps, setup_reps) for key in DERIVED.get(name, (name,)))
        for name in names
    }
