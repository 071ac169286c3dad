"""One benchmark workload, run in a fresh process by run.py.

Each workload generates its inputs from the workload seed, sets up several
times (the median is `setup_s`), runs its timed closed loop with a single
caller for at least the requested seconds, then checks the outputs.  The
last line of standard output is one JSON object that run.py reads.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--smoke]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from eegnet import dataset, models, optim, synth, training  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = ("train-cascade", "predict-parallel", "ingest")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, SMOKE a tiny run for its tests."""

    train_windows_per_class: int   # 5 classes; the split keeps 64 for training
    train_ratio: float
    pool_windows_per_class: int    # predict-parallel pool
    ingest_windows_per_class: int
    extra_predicts: int            # predict calls behind predict_ms on train/ingest
    extra_pool: int                # distinct windows those calls cycle over
    check_windows: int             # distinct windows compared with a batch forward
    heldout_epoch: int             # heldout_loss is read after this epoch
    min_passes: int                # ingest passes at least
    setup_reps: int
    warmup_windows: int
    model: dict = field(default_factory=dict)


FULL = Sizes(train_windows_per_class=20, train_ratio=0.64, pool_windows_per_class=120,
             ingest_windows_per_class=800, extra_predicts=300, extra_pool=150,
             check_windows=100, heldout_epoch=3, min_passes=3, setup_reps=5, warmup_windows=8)
SMOKE = Sizes(train_windows_per_class=4, train_ratio=0.6, pool_windows_per_class=2,
              ingest_windows_per_class=4, extra_predicts=12, extra_pool=6,
              check_windows=4, heldout_epoch=1, min_passes=1, setup_reps=2, warmup_windows=2,
              model={"conv_maps": (2, 3, 4), "fc_width": 8, "hidden": 4})

MODEL_SEED = 0
BATCH = 64


# ---------------------------------------------------------------------------
# inputs

def write_recordings(spec, directory: Path) -> Path:
    """CSV recordings plus manifest, laid out as `eegnet synth` writes them."""
    manifest, recordings = synth.synth_dataset(spec)
    (directory / "recordings").mkdir(parents=True, exist_ok=True)
    for entry, rec in zip(manifest.recordings, recordings):
        dataset.save_recording_csv(directory / entry.path, rec.samples)
    path = directory / "manifest.json"
    dataset.save_manifest(path, manifest)
    return path


def write_prepared(spec, directory: Path, name: str, ratio=None) -> Path:
    manifest = dataset.load_manifest(write_recordings(spec, directory / name))
    path = directory / f"{name}.eegw"
    dataset.save_prepared(path, dataset.prepare_dataset(manifest, ratio=ratio, threads=1))
    return path


# ---------------------------------------------------------------------------
# prediction and its checks

def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class Predictions:
    indices: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    probs: list = field(default_factory=list)
    classes: list = field(default_factory=list)

    def add(self, params, prepared, i: int) -> None:
        start = time.perf_counter()
        probs, cls = training.predict(params, prepared.raw[i], prepared.meshes[i])
        self.latencies.append(time.perf_counter() - start)
        self.indices.append(i)
        self.probs.append(probs)
        self.classes.append(cls)

    def failures(self, params, prepared, check_windows: int) -> int:
        """Predictions whose probabilities do not sum to 1, or, for
        `check_windows` evenly spaced distinct windows, disagree with an
        eval-mode batch forward of the same windows."""
        checked = spread_indices(sorted(set(self.indices)), check_windows)
        reference = {}
        for start in range(0, len(checked), 25):
            idx = checked[start:start + 25]
            logits = models.forward_windows(params, prepared.raw[idx], prepared.meshes[idx],
                                            mode="eval")
            reference.update(zip(idx, softmax(logits.data.astype(np.float64))))
        failed = 0
        for i, probs, cls in zip(self.indices, self.probs, self.classes):
            ok = abs(float(np.sum(probs)) - 1.0) < 1e-5
            ref = reference.get(i)
            if ref is not None:
                top2 = np.sort(ref)[-2:]
                ok = (ok and np.allclose(probs, ref, rtol=1e-4, atol=1e-5)
                      and (cls == int(ref.argmax()) or top2[1] - top2[0] < 1e-5))
            failed += not ok
        return failed

    def mean_loss(self, labels, first: int) -> float:
        """Mean cross-entropy of the first `first` predictions."""
        picked = [max(float(p[labels[i]]), 1e-12)
                  for i, p in zip(self.indices[:first], self.probs[:first])]
        return float(np.mean(-np.log(picked)))

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) * 1e3


def spread_indices(pool, count: int) -> list:
    """`count` evenly spaced members of `pool` (all of it when smaller)."""
    pool = list(pool)
    if len(pool) <= count:
        return pool
    return [pool[int(j * len(pool) / count)] for j in range(count)]


def extra_predictions(params, prepared, pool, sizes: Sizes) -> Predictions:
    chosen = spread_indices(pool, sizes.extra_pool)
    preds = Predictions()
    for j in range(sizes.extra_predicts):
        preds.add(params, prepared, chosen[j % len(chosen)])
    return preds


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Outcome:
    windows_per_s: float
    predictions: Predictions
    heldout_loss: float
    bytes_per_window: float
    steps: int
    attempted: int
    failed: int
    info: dict


def median_setup(sizes: Sizes, setup_once):
    times = []
    for _ in range(sizes.setup_reps):
        state = None  # free the previous repetition before the next
        start = time.perf_counter()
        state = setup_once()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times), times


def run_train_cascade(seed, seconds, sizes, work: Path, phase):
    spec = synth.default_spec(windows_per_class=sizes.train_windows_per_class, seed=seed)
    path = write_prepared(spec, work, "train", ratio=sizes.train_ratio)
    config = models.canonical_config("cascade", **sizes.model)
    train_config = training.TrainConfig(epochs=1_000_000, batch_size=BATCH, seed=MODEL_SEED,
                                        patience=None, precision="f32")

    def setup_once():
        full = dataset.load_prepared(path)
        train_set, test_set = full.train_test()
        params = models.param_init(config, MODEL_SEED)
        adam = optim.init_adam(params.tensors, learning_rate=train_config.learning_rate)
        warm = range(sizes.warmup_windows)
        training.train(config, training.TrainConfig(epochs=1, batch_size=BATCH, patience=None),
                       train_set.subset(warm), test_set.subset(warm), params=params,
                       adam_state=optim.init_adam(params.tensors))
        training.predict(params, test_set.raw[0], test_set.meshes[0])
        return full, train_set, test_set, params, adam

    phase("setup")
    (full, train_set, test_set, params, adam), setup_s, setup_times = median_setup(sizes, setup_once)

    phase("main")
    stamps = []
    start = time.perf_counter()

    def on_epoch(stats, _params):
        stamps.append(time.perf_counter())
        return len(stamps) >= sizes.heldout_epoch and stamps[-1] - start >= seconds

    failed = 0
    try:
        result = training.train(config, train_config, train_set, test_set, params=params,
                                adam_state=adam, on_epoch=on_epoch)
        history, params = result.history, result.params
    except training.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        history, failed = [], 1
    epoch_s = np.diff([start] + stamps)
    steps_per_epoch = math.ceil(train_set.count / BATCH)
    failed += sum(not (math.isfinite(h.train_loss) and math.isfinite(h.test_loss))
                  for h in history)
    heldout = (history[sizes.heldout_epoch - 1].test_loss
               if len(history) >= sizes.heldout_epoch else float("nan"))

    phase("extra")
    preds = extra_predictions(params, test_set, range(test_set.count), sizes)
    failed += preds.failures(params, test_set, sizes.check_windows)
    return setup_s, setup_times, Outcome(
        windows_per_s=statistics.median(train_set.count / epoch_s) if len(epoch_s) else 0.0,
        predictions=preds,
        heldout_loss=heldout,
        bytes_per_window=path.stat().st_size / full.count,
        steps=max(1, len(history) * steps_per_epoch),
        attempted=max(1, len(history)) + len(preds.latencies),
        failed=failed,
        info={"epochs": len(history), "train_windows": train_set.count,
              "heldout_windows": test_set.count,
              "epoch_s": [round(float(t), 4) for t in epoch_s]},
    )


def run_predict_parallel(seed, seconds, sizes, work: Path, phase):
    spec = synth.default_spec(windows_per_class=sizes.pool_windows_per_class, seed=seed)
    pool_path = write_prepared(spec, work, "pool")
    config = models.canonical_config("parallel", **sizes.model)
    params = models.param_init(config, MODEL_SEED)
    ckpt_path = work / "parallel.ckpt"
    training.save_checkpoint(ckpt_path, config, training.TrainConfig(patience=None), params,
                             optim.init_adam(params.tensors), 0,
                             np.random.default_rng(MODEL_SEED), [])
    del params

    def setup_once():
        pool = dataset.load_prepared(pool_path)
        ckpt = training.load_checkpoint(ckpt_path)
        for i in range(2):
            training.predict(ckpt.params, pool.raw[i], pool.meshes[i])
        return pool, ckpt.params

    phase("setup")
    (pool, params), setup_s, setup_times = median_setup(sizes, setup_once)

    phase("main")
    preds = Predictions()
    start = time.perf_counter()
    while True:
        preds.add(params, pool, len(preds.latencies) % pool.count)
        if len(preds.latencies) >= pool.count and time.perf_counter() - start >= seconds:
            break

    phase("extra")
    failed = preds.failures(params, pool, sizes.check_windows)
    n = len(preds.latencies)
    return setup_s, setup_times, Outcome(
        windows_per_s=n / float(np.sum(preds.latencies)),
        predictions=preds,
        heldout_loss=preds.mean_loss(pool.labels, pool.count),
        bytes_per_window=pool_path.stat().st_size / pool.count,
        steps=n,
        attempted=n,
        failed=failed,
        info={"pool_windows": pool.count},
    )


def run_ingest(seed, seconds, sizes, work: Path, phase):
    spec = synth.default_spec(windows_per_class=sizes.ingest_windows_per_class, seed=seed)
    manifest_path = write_recordings(spec, work / "ingest")
    expected = spec.windows_per_class * len(spec.classes)
    out_path = work / "ingest.eegw"
    config = models.canonical_config("parallel", **sizes.model)

    def one_pass(manifest):
        prepared = dataset.prepare_dataset(manifest, threads=1)
        dataset.save_prepared(out_path, prepared)
        return prepared, dataset.load_prepared(out_path)

    def setup_once():
        manifest = dataset.load_manifest(manifest_path)
        params = models.param_init(config, MODEL_SEED)
        _, loaded = one_pass(manifest)
        for i in range(2):
            training.predict(params, loaded.raw[i], loaded.meshes[i])
        return manifest, params

    phase("setup")
    (manifest, params), setup_s, setup_times = median_setup(sizes, setup_once)

    phase("main")
    pass_s = []
    failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        prepared, loaded = one_pass(manifest)
        pass_s.append(time.perf_counter() - t0)
        same = all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in ((prepared.raw, loaded.raw), (prepared.meshes, loaded.meshes),
                         (prepared.labels, loaded.labels))
        )
        failed += not (same and loaded.count == expected and loaded.meta == prepared.meta)
        if len(pass_s) >= sizes.min_passes and time.perf_counter() - start >= seconds:
            break
    bytes_per_window = out_path.stat().st_size / loaded.count
    passes = len(pass_s)

    phase("extra")
    preds = extra_predictions(params, loaded, loaded.meta["split"]["test"], sizes)
    failed += preds.failures(params, loaded, sizes.check_windows)
    return setup_s, setup_times, Outcome(
        windows_per_s=statistics.median(expected / np.asarray(pass_s)),
        predictions=preds,
        heldout_loss=preds.mean_loss(loaded.labels, sizes.extra_pool),
        bytes_per_window=bytes_per_window,
        steps=passes,
        attempted=passes + len(preds.latencies),
        failed=failed,
        info={"passes": passes, "windows_per_pass": expected},
    )


RUNNERS = {
    "train-cascade": run_train_cascade,
    "predict-parallel": run_predict_parallel,
    "ingest": run_ingest,
}


# ---------------------------------------------------------------------------
# environment

def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point

def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work: Path) -> dict:
    sizes = SMOKE if smoke else FULL
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    phase = tracer.set_phase if tracer else lambda _name: None
    try:
        setup_s, setup_times, out = RUNNERS[workload](seed, seconds, sizes, work, phase)
    finally:
        if tracer:
            tracer.uninstall()
    preds = out.predictions
    e2e = {
        "windows_per_s": out.windows_per_s,
        "predict_ms_p50": preds.percentile_ms(50),
        "predict_ms_p90": preds.percentile_ms(90),
        "heldout_loss": out.heldout_loss,
        "dataset_bytes_per_window": out.bytes_per_window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    values = list(e2e.values())
    correct = out.failed == 0 and all(math.isfinite(v) and v > 0 for v in values)
    result = {
        "correct": bool(correct),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "end_to_end": e2e,
        "env": environment(workload, seed),
        "info": {**out.info, "predict_samples": len(preds.latencies),
                 "setup_reps_s": setup_times, "steps": out.steps},
    }
    if tracer:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result["per_layer"] = tracing.layer_metrics(
            tracer, [e["name"] for e in spec["per_layer"]], out.steps, sizes.setup_reps)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                     args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
