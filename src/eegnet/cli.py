"""Command-line interface for the full pipeline.

Subcommands: synth (generate a synthetic dataset), prepare (CSV recordings
-> windowed binary dataset), train, eval, predict, gradcheck.  Progress and
warnings go to standard error; machine-readable artifacts (config echo,
history CSV, checkpoints, JSON reports) go to files.  Exit codes: 0 on
success, 1 on check/training failure or a damaged manifest, dataset or
checkpoint, 2 on usage errors: a missing input file, an invalid flag value,
or a config or spec file that is not a JSON object, holds an unknown field or
gives an invalid value.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import gradcheck, synth, training
from .models import FUSIONS, ModelConfig, canonical_config
from .training import TrainConfig

log = logging.getLogger("eegnet")

# CLI-only architecture names for the rnn baseline, each with the LSTM hidden
# size it stands for (an explicit hidden size still wins).
RNN_ALIASES = {"rnn64": 64, "rnn16": 16}
CLI_ARCHES = ("cascade", "parallel", "cnn1d", "cnn2d", "cnn3d", *RNN_ALIASES)

_MODEL_FIELDS = set(ModelConfig.__dataclass_fields__)
_TRAIN_FIELDS = set(TrainConfig.__dataclass_fields__)
# every key a run config file may hold; the train flags' dests are among them
_RUN_KEYS = _MODEL_FIELDS | _TRAIN_FIELDS | {"data", "out_dir"}


class UsageError(Exception):
    pass


class ConfigMismatch(Exception):
    """Config/dataset mismatch: descriptive failure, exit code 1."""


def _threads() -> int:
    value = os.environ.get("EEGNET_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        log.warning("ignoring invalid EEGNET_THREADS=%r", value)
        return 1


def _read_json(path, what: str) -> dict:
    """The JSON object in a --config or --spec file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise UsageError(f"{what} file {path} is not readable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{what} file {path} does not hold a JSON object")
    return doc


def _run_config(args):
    """The model config, train config, dataset path and output directory of
    `eegnet train`: the config file's fields, overridden by the flags given."""
    merged = _read_json(args.config, "config") if args.config else {}
    merged.update((k, v) for k, v in vars(args).items() if k in _RUN_KEYS and v is not None)
    unknown = sorted(set(merged) - _RUN_KEYS)
    if unknown:
        raise UsageError(f"unknown run config field(s): {', '.join(unknown)}")
    if "arch" not in merged:
        raise UsageError("an architecture is required (--arch or config file)")
    for key in ("data", "out_dir"):
        if merged.get(key) is not None and not isinstance(merged[key], str):
            raise UsageError(f"{key} must be a string, got {merged[key]!r}")
    if not merged.get("data"):
        raise UsageError("a prepared dataset is required (--data or config file)")
    arch = merged.pop("arch")
    if arch in RNN_ALIASES:
        merged.setdefault("hidden", RNN_ALIASES[arch])
        arch = "rnn"
    try:
        model_config = canonical_config(
            arch, **{k: v for k, v in merged.items() if k in _MODEL_FIELDS})
        train_config = TrainConfig(**{k: v for k, v in merged.items() if k in _TRAIN_FIELDS})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid run config: {exc}") from exc
    return model_config, train_config, merged["data"], Path(merged.get("out_dir") or "run")


def _echo_config(out_dir: Path, model_config: ModelConfig, train_config: TrainConfig,
                 data: str) -> None:
    effective = {**asdict(model_config), **asdict(train_config)}
    aliases = {("rnn", hidden): alias for alias, hidden in RNN_ALIASES.items()}
    effective["arch"] = aliases.get((model_config.arch, model_config.hidden), model_config.arch)
    effective["data"] = data
    effective["out_dir"] = str(out_dir)
    blob = json.dumps(effective, indent=1)
    (out_dir / "config.json").write_text(blob + "\n")
    print(blob, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    given = {k: getattr(args, k) for k in ("seed", "noise", "windows_per_class")
             if getattr(args, k) is not None}
    try:
        if args.spec:
            spec = synth.spec_from_dict({**_read_json(args.spec, "spec"), **given})
        else:
            spec = synth.default_spec(**given)
        spec.validate()
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid synthetic spec: {exc}") from exc
    manifest, recordings = synth.synth_dataset(spec)
    out = Path(args.out)
    (out / "recordings").mkdir(parents=True, exist_ok=True)
    for entry, rec in zip(manifest.recordings, recordings):
        ds.save_recording_csv(out / entry.path, rec.samples)
    ds.save_manifest(out / "manifest.json", manifest)
    log.info("wrote %d recordings for %d classes under %s",
             len(recordings), manifest.n_classes, out)
    print(f"synthetic dataset: {len(recordings)} recordings, "
          f"{manifest.n_classes} classes -> {out / 'manifest.json'}")
    return 0


def cmd_prepare(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.exists():
        raise UsageError(f"manifest not found: {manifest_path}")
    manifest = ds.load_manifest(manifest_path)
    try:
        prepared = ds.prepare_dataset(
            manifest, window=args.window_size,
            ratio=args.ratio, seed=args.seed, threads=_threads(),
        )
    except ValueError as exc:  # an odd window size or a ratio outside (0, 1)
        raise UsageError(str(exc)) from exc
    ds.save_prepared(args.out, prepared)
    per_class = np.bincount(prepared.labels, minlength=prepared.n_classes)
    split = prepared.meta["split"]
    print(f"recordings: {len(manifest.recordings)} "
          f"(skipped {len(prepared.meta['skipped'])})")
    print(f"windows: {prepared.count} (train {len(split['train'])}, "
          f"test {len(split['test'])})")
    for label, name in sorted(prepared.label_names.items()):
        print(f"  class {label} ({name}): {per_class[label]}")
    print(f"prepared dataset -> {args.out}")
    return 0


def cmd_train(args) -> int:
    model_config, train_config, data, out_dir = _run_config(args)
    if not Path(data).exists():
        raise UsageError(f"prepared dataset not found: {data}")
    prepared = ds.load_prepared(data)
    _check_fits(model_config, "config", prepared)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir, model_config, train_config, data)
    train_set, test_set = prepared.train_test()
    log.info("training %s on %d windows (%d test)", model_config.arch,
             train_set.count, test_set.count)
    started = time.monotonic()
    result = training.train(model_config, train_config, train_set, test_set)
    elapsed = time.monotonic() - started
    training.write_history(out_dir / "history.csv", result.history)
    training.save_checkpoint(
        out_dir / "checkpoint.eegc", model_config, train_config, result.params,
        result.adam_state, epoch=result.history[-1].epoch if result.history else 0,
        rng=result.rng, history=result.history, metrics=result.metrics,
    )
    log.info("finished %d epochs in %.1fs", len(result.history), elapsed)
    print(f"final test accuracy: {result.metrics.accuracy:.4f}")
    print(f"checkpoint -> {out_dir / 'checkpoint.eegc'}")
    print(f"history -> {out_dir / 'history.csv'}")
    return 0


def _load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise UsageError(f"checkpoint not found: {path}")
    return training.load_checkpoint(path)


def _check_fits(config: ModelConfig, source: str, prepared: ds.PreparedDataset) -> None:
    """The model of `config`, which came from `source` (the run config or a
    checkpoint), reads windows of the dataset's length and scores the
    dataset's classes."""
    if prepared.window != config.window:
        raise ConfigMismatch(
            f"dataset window {prepared.window} does not match {source} window {config.window}"
        )
    if prepared.n_classes != config.classes:
        raise ConfigMismatch(
            f"dataset classes {prepared.n_classes} does not match {source} classes "
            f"{config.classes}"
        )


def _select_split(prepared: ds.PreparedDataset, which: str) -> ds.PreparedDataset:
    if which == "all":
        return prepared
    train_set, test_set = prepared.train_test()
    return train_set if which == "train" else test_set


def _format_metrics(metrics: training.Metrics, label_names: dict) -> str:
    lines = [f"accuracy: {metrics.accuracy:.4f}",
             f"mean loss: {metrics.mean_loss:.4f}"]
    lines.append(f"{'class':<24} {'precision':>9} {'recall':>9} {'f1':>9}")
    for k in range(len(metrics.precision)):
        name = label_names.get(k, str(k))
        lines.append(f"{k} {name:<22} {metrics.precision[k]:>9.4f} "
                     f"{metrics.recall[k]:>9.4f} {metrics.f1[k]:>9.4f}")
    lines.append("confusion matrix (rows = true, cols = predicted):")
    for row in metrics.confusion:
        lines.append("  " + " ".join(f"{v:>6d}" for v in row))
    return "\n".join(lines)


def cmd_eval(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint)
    if not Path(args.data).exists():
        raise UsageError(f"prepared dataset not found: {args.data}")
    prepared = ds.load_prepared(args.data)
    _check_fits(ckpt.model_config, "checkpoint", prepared)
    subset = _select_split(prepared, args.split)
    metrics = training.evaluate(ckpt.params, subset)
    print(_format_metrics(metrics, prepared.label_names))
    if args.json_out:
        report = {"split": args.split, "count": subset.count, **metrics.to_dict()}
        Path(args.json_out).write_text(json.dumps(report, indent=1) + "\n")
        log.info("json report -> %s", args.json_out)
    return 0


def cmd_predict(args) -> int:
    ckpt = _load_checkpoint(args.checkpoint)
    if not Path(args.windows).exists():
        raise UsageError(f"prepared dataset not found: {args.windows}")
    prepared = ds.load_prepared(args.windows)
    _check_fits(ckpt.model_config, "checkpoint", prepared)
    names = prepared.label_names
    for i in range(prepared.count):
        probs, cls = training.predict(ckpt.params, prepared.raw[i], prepared.meshes[i])
        rendered = " ".join(repr(float(p)) for p in probs)
        print(f"window {i}: class={cls} ({names.get(cls, cls)}) probs=[{rendered}]")
    return 0


def cmd_gradcheck(args) -> int:
    try:
        results = gradcheck.run_checks(only=args.op, seed=args.seed or 0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max rel err {res.max_rel_err:.3e} "
              f"(tolerance {res.tolerance:.0e})")
        failed += not res.passed
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # each dest is the run config key the flag overrides
    p.add_argument("--arch", choices=CLI_ARCHES, help="architecture to train")
    p.add_argument("--fusion", choices=FUSIONS, help="parallel-model fusion method")
    p.add_argument("--conv-depth", dest="conv_depth", type=int, choices=(1, 2, 3))
    p.add_argument("--lstm-depth", dest="lstm_depth", type=int, choices=(1, 2))
    p.add_argument("--window-size", dest="window", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON run config; flags override its fields")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float, help="Adam learning rate")
    p.add_argument("--keep-prob", dest="keep_prob", type=float)
    p.add_argument("--hidden", type=int, help="LSTM hidden size override")
    p.add_argument("--fc-width", dest="fc_width", type=int)
    p.add_argument("--data", help="prepared dataset (EEGW file)")
    p.add_argument("--out", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegnet",
        description="EEG intention recognition: mesh transform, windowing, "
                    "convolutional-recurrent models, training and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="JSON synthetic spec (defaults to the 5-class spec)")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--windows-per-class", dest="windows_per_class", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="ingest recordings into a windowed dataset")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="output EEGW file")
    p.add_argument("--window-size", dest="window_size", type=int, default=10)
    p.add_argument("--ratio", type=float, help="train fraction override")
    p.add_argument("--seed", type=int, help="split seed override")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train an architecture on a prepared dataset")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="prepared dataset (EEGW file)")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--json-out", dest="json_out", help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="per-window probabilities from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--windows", required=True, help="prepared dataset (EEGW file)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--op", help="restrict to checks whose name starts with this")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigMismatch, ds.DatasetError, training.CheckpointError,
            training.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
