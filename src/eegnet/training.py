"""Mini-batch training with Adam, evaluation metrics and checkpointing.

Training is single-threaded over batches so a fixed (seed, config, dataset)
triple reproduces bitwise-identical histories and parameters.  Checkpoints
capture parameters, optimizer state and the RNG state, so a resumed run
matches an uninterrupted one step for step.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import container, models
from .autodiff import Tensor, backward, softmax_cross_entropy_batch, _softmax_rows
from .dataset import PreparedDataset
from .models import ModelConfig, ModelParams, param_init
from .optim import AdamState, adam_step, init_adam

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"EEGC"
CHECKPOINT_VERSION = 5


class TrainingDiverged(RuntimeError):
    """Loss or a gradient became NaN/Inf; training aborts rather than
    continuing silently or poisoning the Adam moments."""


class CheckpointError(Exception):
    pass


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


CHECKPOINT_FORMAT = container.Format(
    "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "",
    CheckpointFormatError, CheckpointVersionError, CheckpointTruncatedError,
)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0
    patience: int | None = 10
    precision: str = "f32"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        # zero is allowed: a run that never moves the parameters
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be 'f32' or 'f64', got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float


@dataclass
class Metrics:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    confusion: np.ndarray
    mean_loss: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "confusion": self.confusion.tolist(),
            "mean_loss": self.mean_loss,
        }


def metrics_from_confusion(confusion: np.ndarray, mean_loss: float) -> Metrics:
    """Derive accuracy and per-class precision/recall/F1 from a confusion
    matrix (rows = true class, columns = predicted class)."""
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    diag = np.diag(confusion).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    support = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, predicted, out=np.zeros_like(diag), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros_like(diag), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    accuracy = float(diag.sum() / total) if total else 0.0
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1,
                   confusion=confusion, mean_loss=float(mean_loss))


def _require_config(params: ModelParams, model_config: ModelConfig) -> None:
    ours, given = asdict(params.config), asdict(model_config)
    differ = [name for name in ours if ours[name] != given[name]]
    if differ:
        raise ValueError(f"params do not match the model config: they differ in "
                         f"{', '.join(differ)}")


def _batches(count: int, batch_size: int, order: np.ndarray):
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def _eval_logits(params: ModelParams, dataset: PreparedDataset):
    """Each batch's window indices and eval-mode logits, 256 windows at a
    time in window order, on frozen parameters (no tape)."""
    params = params.frozen()
    raw, meshes, index = dataset.inputs(params.tensors["head.out.bias"].dtype)
    for idx in _batches(dataset.count, 256, np.arange(dataset.count)):
        yield idx, models.forward_windows(params, raw, meshes, mode="eval", index=index[idx])


def evaluate(params: ModelParams, dataset: PreparedDataset) -> Metrics:
    """Deterministic eval-mode metrics over a labeled dataset, run through
    the model 256 windows at a time on frozen parameters (no tape)."""
    if dataset.count == 0:
        raise ValueError("cannot evaluate an empty dataset")
    k = params.config.classes
    labels = dataset.labels.astype(np.int64)
    confusion = np.zeros((k, k), dtype=np.int64)
    loss_sum = 0.0
    for idx, logits in _eval_logits(params, dataset):
        loss, probs = softmax_cross_entropy_batch(logits, labels[idx])
        loss_sum += float(loss.data) * len(idx)
        predicted = probs.argmax(axis=1)
        np.add.at(confusion, (labels[idx], predicted), 1)
    return metrics_from_confusion(confusion, loss_sum / dataset.count)


def probabilities(params: ModelParams, dataset: PreparedDataset) -> np.ndarray:
    """The (q, K) class probabilities of every window, from the pass that
    :func:`evaluate` scores, so they equal its probabilities bit for bit."""
    empty = np.zeros((0, params.config.classes), params.tensors["head.out.bias"].dtype)
    return np.concatenate([empty] + [_softmax_rows(logits.data)
                                     for _, logits in _eval_logits(params, dataset)])


def predict(params: ModelParams, raw: np.ndarray, meshes: np.ndarray):
    """Class probabilities and argmax class (ties -> lowest index) for one
    window, from a forward on frozen parameters (no tape), the window cast
    to the parameters' dtype as in :func:`evaluate`."""
    dtype = params.tensors["head.out.bias"].dtype
    logits = models.forward_windows(params.frozen(), np.asarray(raw, dtype)[None],
                                    np.asarray(meshes, dtype)[None], mode="eval")
    probs = _softmax_rows(logits.data)[0]
    return probs, int(probs.argmax())


@dataclass
class TrainResult:
    params: ModelParams
    adam_state: AdamState
    history: list
    rng: np.random.Generator
    metrics: Metrics  # eval-mode metrics of `params` on the test set


def train(model_config: ModelConfig, train_config: TrainConfig,
          train_set: PreparedDataset, test_set: PreparedDataset,
          params: ModelParams | None = None, adam_state: AdamState | None = None,
          rng: np.random.Generator | None = None, history: list | None = None,
          on_epoch=None) -> TrainResult:
    """Seeded mini-batch training loop.

    One epoch = seeded shuffle, then forward/backward/Adam per batch.  The
    history records per-epoch train loss/accuracy and eval-mode test
    loss/accuracy, its rows numbered 1, 2, ...; a run given a ``history`` of
    k rows goes on from epoch k + 1, up to ``train_config.epochs``.  The
    last evaluation comes back as ``metrics``, so the caller need not
    evaluate the final parameters again.  ``train_loss`` is
    the mean dropout-mode loss of the epoch's batches, each taken before
    that batch's update; it carries the dropout-mask noise, so it need not
    fall monotonically even under full-batch descent.  A parameter with no gradient (it took no part in
    the loss) gets a zero gradient, which Adam leaves in place.  Early
    stopping (optional) watches test loss.  A NaN/Inf loss, or a NaN/Inf
    gradient (checked before Adam, which updates ``adam_state``'s moments in
    place), aborts with a diagnostic.  Each step's gradients are released
    once Adam has used them, so none is alive through the next step, and the
    tensors of given ``params`` come back holding no ``.grad``.  Given
    ``params`` must be for ``model_config``.
    """
    if train_set.count == 0:
        raise ValueError("training set is empty")
    if test_set.count == 0:
        raise ValueError("test set is empty: every epoch ends with an evaluation on it")
    dtype = train_config.dtype
    if params is None:
        params = param_init(model_config, train_config.seed, dtype=dtype)
    _require_config(params, model_config)
    if adam_state is None:
        adam_state = init_adam(params.tensors, learning_rate=train_config.learning_rate)
    if rng is None:
        rng = np.random.default_rng(train_config.seed)
    history = list(history) if history else []

    raw, meshes, index = train_set.inputs(dtype)
    labels = train_set.labels.astype(np.int64)
    count = train_set.count
    best_loss = min((h.test_loss for h in history), default=np.inf)
    since_best = 0
    test_metrics = None

    for epoch in range(len(history), train_config.epochs):
        order = rng.permutation(count)
        loss_sum = 0.0
        correct = 0
        for step, idx in enumerate(_batches(count, train_config.batch_size, order)):
            logits = models.forward_windows(params, raw, meshes, mode="train", rng=rng,
                                            index=index[idx])
            loss, probs = softmax_cross_entropy_batch(logits, labels[idx])
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"loss became {loss_value} at epoch {epoch + 1}, step {step + 1}"
                )
            backward(loss)
            del logits, loss  # frees the step's tape and its .grads before Adam allocates
            grads = {}
            for name, t in params.tensors.items():
                grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
                t.grad = None  # the step's params may be the caller's
            # exact with no full-size temporary: NaN reaches both, ±inf one of them
            bad = next((name for name, g in grads.items()
                        if not (np.isfinite(g.min()) and np.isfinite(g.max()))), None)
            if bad is not None:
                raise TrainingDiverged(f"gradient of {bad} became non-finite at epoch "
                                       f"{epoch + 1}, step {step + 1}")
            new_tensors, adam_state = adam_step(params.tensors, grads, adam_state)
            del grads  # no gradient outlives its update into the next step
            params = ModelParams(config=params.config, tensors=new_tensors)
            loss_sum += loss_value * len(idx)
            correct += int((probs.argmax(axis=1) == labels[idx]).sum())
        test_metrics = evaluate(params, test_set)
        stats = EpochStats(
            epoch=epoch + 1,
            train_loss=loss_sum / count,
            train_acc=correct / count,
            test_loss=test_metrics.mean_loss,
            test_acc=test_metrics.accuracy,
        )
        history.append(stats)
        log.info("epoch %d: train loss %.4f acc %.4f | test loss %.4f acc %.4f",
                 stats.epoch, stats.train_loss, stats.train_acc,
                 stats.test_loss, stats.test_acc)
        if on_epoch is not None and on_epoch(stats, params):
            break
        if train_config.patience is not None:
            if stats.test_loss < best_loss - 1e-12:
                best_loss = stats.test_loss
                since_best = 0
            else:
                since_best += 1
                if since_best > train_config.patience:
                    log.info("early stop: no test-loss improvement for %d epochs",
                             train_config.patience)
                    break
    if test_metrics is None:  # resumed at or past the last epoch
        test_metrics = evaluate(params, test_set)
    return TrainResult(params=params, adam_state=adam_state, history=history, rng=rng,
                       metrics=test_metrics)


# ---------------------------------------------------------------------------
# history CSV

HISTORY_FIELDS = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")


def write_history(path, history) -> None:
    with container.replacing(path, "t", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_FIELDS)
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.train_acc),
                             repr(row.test_loss), repr(row.test_acc)])


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class _AdamHeader:
    step: int
    learning_rate: float


@dataclass
class _Header:  # the JSON header of a checkpoint
    model_config: ModelConfig
    train_config: TrainConfig
    epoch: int
    rng_state: dict
    adam: _AdamHeader
    history: list[EpochStats]
    metrics: dict | None
    tensors: list


def save_checkpoint(path, model_config: ModelConfig, train_config: TrainConfig,
                    params: ModelParams, adam_state: AdamState, epoch: int,
                    rng: np.random.Generator, history, metrics: Metrics | None = None) -> None:
    """Binary container: magic, version, JSON header, raw little-endian
    tensor payload (parameters, then Adam first/second moments).  `params`
    must be for `model_config`."""
    _require_config(params, model_config)
    values = {name: t.data for name, t in params.tensors.items()}
    stores = (values, adam_state.first_moment, adam_state.second_moment)
    header = _Header(
        model_config=model_config, train_config=train_config, epoch=epoch,
        rng_state=rng.bit_generator.state,
        adam=_AdamHeader(adam_state.step, adam_state.learning_rate),
        history=list(history), metrics=metrics.to_dict() if metrics else None,
        tensors=[{"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
                 for name, arr in values.items()],
    )
    container.write(path, CHECKPOINT_FORMAT, (), asdict(header),
                    (store[name] for store in stores for name in values))


def _read_store(read_array, tensors: list, store: str) -> dict:
    """One store of a checkpoint's arrays (parameters or a moment), read by
    name in the order of its tensor table."""
    return {e["name"]: read_array(e["dtype"], e["shape"], f"{store} of {e['name']}")
            for e in tensors}


def _identity(stat) -> tuple:
    return stat.st_size, stat.st_dev, stat.st_ino, stat.st_mtime_ns


@dataclass
class Checkpoint(_Header):
    """A loaded checkpoint: its header and the state that the header restores.

    ``adam_state`` is read from the file on first access and kept, so
    inference, which never reads the Adam moments, does not pay for them.
    That read raises :class:`CheckpointError` naming the path if the file is
    gone, or is not the one loaded: its header, size, device, inode or mtime
    differ.
    """

    params: ModelParams
    rng: np.random.Generator
    _path: Path = field(repr=False, compare=False)
    _header: dict = field(repr=False, compare=False)  # the JSON header as read
    _identity: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def adam_state(self) -> AdamState:
        try:
            with container.read(self._path, CHECKPOINT_FORMAT) as (_, header, read_array):
                # compared as text, so that a NaN in the header equals itself
                if (_identity(read_array.stat) != self._identity
                        or json.dumps(header) != json.dumps(self._header)):
                    raise CheckpointError("the file changed since it was loaded")
                for e in self.tensors:
                    read_array.skip(e["dtype"], e["shape"], f"parameters of {e['name']}")
                first, second = (_read_store(read_array, self.tensors, store)
                                 for store in ("first moment", "second moment"))
        except (OSError, CheckpointError) as exc:
            raise CheckpointError(
                f"cannot read the Adam moments of {self._path}: {exc}") from exc
        return AdamState(step=self.adam.step, first_moment=first, second_moment=second,
                         learning_rate=self.adam.learning_rate)


def load_checkpoint(path) -> Checkpoint:
    """Read an EEGC container's header and parameters.  The Adam moments
    are skipped, each declared length checked against the file, and read
    on first use of :attr:`Checkpoint.adam_state`.  Besides the container's
    own errors, a header that decodes but does not describe a checkpoint
    (by :func:`container.from_json`, the config dataclasses, the tensor
    table against the config's, or numpy's rng state) raises
    :class:`CheckpointFormatError`."""
    with container.read(path, CHECKPOINT_FORMAT) as (_, doc, read_array):
        try:
            header = container.from_json(_Header, doc, "header")
            table = {e["name"]: tuple(e["shape"]) for e in header.tensors}
            plan = {name: shape for name, shape, _ in models._plan(header.model_config)}
            if table != plan:
                wrong = sorted(set(table.items()) ^ set(plan.items()))
                raise CheckpointFormatError(
                    f"tensor table does not match the model config: {wrong}")
            values = _read_store(read_array, header.tensors, "parameters")
            for store in ("first moment", "second moment"):
                for e in header.tensors:
                    read_array.skip(e["dtype"], e["shape"], f"{store} of {e['name']}")
            params = ModelParams(
                config=header.model_config,
                tensors={name: Tensor.parameter(arr) for name, arr in values.items()},
            )
            rng = np.random.default_rng()
            rng.bit_generator.state = header.rng_state
            return Checkpoint(**vars(header), params=params, rng=rng,
                              _path=Path(path).absolute(), _header=doc,
                              _identity=_identity(read_array.stat))
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"corrupt checkpoint header: {exc!r}") from exc
