"""Mini-batch training with Adam, evaluation metrics and checkpointing.

Training is single-threaded over batches so a fixed (seed, config, dataset)
triple reproduces bitwise-identical histories and parameters.  Checkpoints
capture parameters, optimizer state and the RNG state, so a resumed run
matches an uninterrupted one step for step.
"""

from __future__ import annotations

import csv
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
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Loss became NaN/Inf; training aborts rather than continuing silently."""


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
    shuffle: bool = True
    patience: int | None = 10
    precision: str = "f32"

    def __post_init__(self):
        models._check_field_types(self)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        # zero is allowed: a run that never moves the parameters
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _as_dtype(dataset: PreparedDataset, dtype):
    return dataset.raw.astype(dtype, copy=False), dataset.meshes.astype(dtype, copy=False)


def _batches(count: int, batch_size: int, order: np.ndarray):
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def evaluate(params: ModelParams, dataset: PreparedDataset) -> Metrics:
    """Deterministic eval-mode metrics over a labeled dataset, run through
    the model 256 windows at a time."""
    if dataset.count == 0:
        raise ValueError("cannot evaluate an empty dataset")
    k = params.config.classes
    raw, meshes = _as_dtype(dataset, params.tensors["head.out.bias"].dtype)
    labels = dataset.labels.astype(np.int64)
    confusion = np.zeros((k, k), dtype=np.int64)
    loss_sum = 0.0
    for idx in _batches(dataset.count, 256, np.arange(dataset.count)):
        logits = models.forward_windows(params, raw[idx], meshes[idx], mode="eval")
        loss, probs = softmax_cross_entropy_batch(logits, labels[idx])
        loss_sum += float(loss.data) * len(idx)
        predicted = probs.argmax(axis=1)
        np.add.at(confusion, (labels[idx], predicted), 1)
    return metrics_from_confusion(confusion, loss_sum / dataset.count)


def predict(params: ModelParams, raw: np.ndarray, meshes: np.ndarray):
    """Class probabilities and argmax class (ties -> lowest index) for one window."""
    logits = models.forward_windows(params, np.asarray(raw)[None], np.asarray(meshes)[None],
                                    mode="eval")
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
          rng: np.random.Generator | None = None, start_epoch: int = 0,
          history: list | None = None, on_epoch=None) -> TrainResult:
    """Seeded mini-batch training loop.

    One epoch = seeded shuffle, then forward/backward/Adam per batch.  The
    history records per-epoch train loss/accuracy and eval-mode test
    loss/accuracy; the last evaluation comes back as ``metrics``, so the
    caller need not evaluate the final parameters again.  ``train_loss`` is
    the mean dropout-mode loss of the epoch's batches, each taken before
    that batch's update; it carries the dropout-mask noise, so it need not
    fall monotonically even under full-batch descent.  A parameter with no gradient (it took no part in
    the loss) gets a zero gradient, which Adam leaves in place.  Early
    stopping (optional) watches test loss.  A NaN/Inf loss aborts with a
    diagnostic.  Given ``params`` must be for ``model_config``.
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

    raw, meshes = _as_dtype(train_set, dtype)
    labels = train_set.labels.astype(np.int64)
    count = train_set.count
    best_loss = min((h.test_loss for h in history), default=np.inf)
    since_best = 0
    test_metrics = None

    for epoch in range(start_epoch, train_config.epochs):
        order = rng.permutation(count) if train_config.shuffle else np.arange(count)
        loss_sum = 0.0
        correct = 0
        for step, idx in enumerate(_batches(count, train_config.batch_size, order)):
            logits = models.forward_windows(params, raw[idx], meshes[idx], mode="train", rng=rng)
            loss, probs = softmax_cross_entropy_batch(logits, labels[idx])
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"loss became {loss_value} at epoch {epoch + 1}, step {step + 1}"
                )
            backward(loss)
            del logits, loss  # frees the step's tape and its .grads before Adam allocates
            grads = {
                name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.tensors.items()
            }
            new_tensors, adam_state = adam_step(params.tensors, grads, adam_state)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_FIELDS)
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.train_acc),
                             repr(row.test_loss), repr(row.test_acc)])


def read_history(path) -> list:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(EpochStats(
                epoch=int(rec["epoch"]),
                train_loss=float(rec["train_loss"]),
                train_acc=float(rec["train_acc"]),
                test_loss=float(rec["test_loss"]),
                test_acc=float(rec["test_acc"]),
            ))
    return rows


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, model_config: ModelConfig, train_config: TrainConfig,
                    params: ModelParams, adam_state: AdamState, epoch: int,
                    rng: np.random.Generator, history, metrics: Metrics | None = None) -> None:
    """Binary container: magic, version, JSON header, raw little-endian
    tensor payload (parameters, then Adam first/second moments).  `params`
    must be for `model_config`."""
    _require_config(params, model_config)
    values = {name: t.data for name, t in params.tensors.items()}
    stores = (values, adam_state.first_moment, adam_state.second_moment)
    header = {
        "model_config": asdict(model_config),
        "train_config": asdict(train_config),
        "epoch": epoch,
        "rng_state": rng.bit_generator.state,
        "adam": {
            "step": adam_state.step,
            "learning_rate": adam_state.learning_rate,
            "beta1": adam_state.beta1,
            "beta2": adam_state.beta2,
            "epsilon": adam_state.epsilon,
        },
        "history": [asdict(h) for h in history],
        "metrics": metrics.to_dict() if metrics else None,
        "tensors": [{"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
                    for name, arr in values.items()],
    }
    container.write(path, CHECKPOINT_FORMAT, (), header,
                    (store[name] for store in stores for name in values))


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    params: ModelParams
    adam_state: AdamState
    epoch: int
    rng: np.random.Generator
    history: list
    metrics: dict | None = None


def load_checkpoint(path) -> Checkpoint:
    """Read an EEGC container.  Besides the container's own errors, a header
    that decodes but does not describe a checkpoint (a missing or mistyped
    field, a config the dataclasses reject, a tensor table whose names and
    shapes differ from the config's, an rng state numpy refuses) raises
    :class:`CheckpointFormatError`."""
    with container.read(path, CHECKPOINT_FORMAT) as (_, header, read_array):
        try:
            model_config = ModelConfig(**header["model_config"])
            train_config = TrainConfig(**header["train_config"])
            table = {e["name"]: tuple(e["shape"]) for e in header["tensors"]}
            plan = {name: shape for name, shape, _ in models._plan(model_config)}
            if table != plan:
                wrong = sorted(set(table.items()) ^ set(plan.items()))
                raise CheckpointFormatError(
                    f"tensor table does not match the model config: {wrong}")
            values, first, second = (
                {e["name"]: read_array(e["dtype"], e["shape"], f"{store} of {e['name']}")
                 for e in header["tensors"]}
                for store in ("parameters", "first moment", "second moment")
            )
            params = ModelParams(
                config=model_config,
                tensors={name: Tensor.parameter(arr) for name, arr in values.items()},
            )
            adam = header["adam"]
            adam_state = AdamState(
                step=adam["step"], first_moment=first, second_moment=second,
                learning_rate=adam["learning_rate"], beta1=adam["beta1"],
                beta2=adam["beta2"], epsilon=adam["epsilon"],
            )
            rng = np.random.default_rng()
            rng.bit_generator.state = header["rng_state"]
            return Checkpoint(
                model_config=model_config,
                train_config=train_config,
                params=params,
                adam_state=adam_state,
                epoch=header["epoch"],
                rng=rng,
                history=[EpochStats(**h) for h in header["history"]],
                metrics=header.get("metrics"),
            )
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"corrupt checkpoint header: {exc!r}") from exc
