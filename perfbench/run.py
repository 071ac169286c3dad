"""Benchmark launcher: runs one workload in a fresh process and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  BLAS threads are capped at the number of
usable cores before the workload process starts, so numpy sees the cap.
With ``--trace 0`` the workload runs untraced and the end-to-end metrics
are printed.  With ``--trace 1`` it runs twice, first untraced and then
traced with the same seed and seconds; the per-layer metrics come from the
traced run and the tracing overhead is the ratio of the two.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Per-layer counts computed from shapes and object identities; they repeat exactly.
COMPUTED = ("convolution.flops", "convolution.lowered_bytes", "autodiff.tape_nodes",
            "optim.bytes_allocated")
# Per-layer metrics that run.py derives from the untraced and traced runs.
OVERHEAD = {
    "trace.windows_per_s_ratio": "windows_per_s",
    "trace.predict_ms_p50_ratio": "predict_ms_p50",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def run_child(args, trace: int, work: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the workload process")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded {DEADLINE_S:.0f} s") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def describe(result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# info {json.dumps(result['info'], sort_keys=True)}")
    print(f"# outputs: {result['attempted']} checked, {result['failed']} failed")
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{label}")
    ref = committed_heldout(env["workload"], env["seed"])
    if "heldout_loss" in result["end_to_end"]:
        note = f"committed value for seed {env['seed']}: {ref}" if ref is not None else \
            f"no committed value for seed {env['seed']}"
        print(f"# heldout_loss {result['end_to_end']['heldout_loss']:.6f} ({note})")


def committed_heldout(workload: str, seed: int):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("heldout_loss", {}).get(workload, {}).get(str(seed))


def pick(values: dict, entries) -> dict:
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in entries}


def measure(args, spec: dict, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "eegnet").is_dir():
        raise BenchError("package source src/eegnet not found in the checkout")
    base = run_child(args, 0, work / "untraced", deadline)
    if not args.trace:
        metrics = pick(base["end_to_end"], spec["end_to_end"])
        describe(base, metrics)
        return {"correct": base["correct"], "attempted": base["attempted"],
                "failed": base["failed"], "metrics": metrics}
    traced = run_child(args, 1, work / "traced", deadline)
    layers = dict(traced["per_layer"])
    for name, e2e in OVERHEAD.items():
        layers[name] = traced["end_to_end"][e2e] / base["end_to_end"][e2e]
    metrics = pick(layers, spec["per_layer"])
    describe(traced, metrics)
    print("# tracing overhead (base: the untraced run with the same seed and seconds): "
          + ", ".join(f"traced/untraced {e2e} = {layers[n]:.4f}" for n, e2e in OVERHEAD.items()))
    return {"correct": base["correct"] and traced["correct"],
            "attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and model, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = load_spec()
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
        try:
            result = measure(args, spec, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run is still using it
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
