"""Benchmark of sofic-spectra: runs one workload, checks it, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, default seed

Run from the repository root.  Each timed run is a fresh interpreter
(perfbench/worker.py), started one after another (closed loop, one caller,
threads=1, BLAS threads left at their default).  Runs start until ``--seconds``
have passed, so there is at least one and the last may end after that.  The seed picks
the input variant (seed mod 10) and so the seeds given to the configs.

With ``--trace 0`` the end-to-end metrics are printed: medians over the runs of
run_s, cpu_s and peak_rss_mb, the median set-up time over at least
SETUP_SAMPLES interpreter starts, and success_rate.  With ``--trace 1`` traced
and untraced runs alternate, and the per-layer metrics of the traced runs are
printed with the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"} (one such line per
workload when all run).  Outputs are written under .perfbench-tmp/ and removed
at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checker
import tracer
import worker

ROOT = worker.ROOT
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TMP = ROOT / ".perfbench-tmp"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
        text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 # unset means the BLAS default, one thread per core
                 "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "source_digest": checker.digest([p.read_text() for p in sources]),
    }


def run_child(argv: list[str], out: Path) -> dict:
    """Start one child, wait for it, return its result.

    ``setup_s`` runs from the spawn to the child's ready time (both
    CLOCK_MONOTONIC); ``error`` is set when the child raised, exited non-zero,
    timed out or wrote no result.
    """
    out.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s",
                "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    stderr = proc.stderr.strip()[-2000:]
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        result = {"error": f"no result, exit code {proc.returncode}: {stderr}"}
    result["wall_s"] = wall
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    if proc.returncode != 0 and not result["error"]:
        result["error"] = f"exit code {proc.returncode}: {stderr}"
    return result


def worker_argv(workload: str, variant: int, out: Path, trace: bool,
                setup_only: bool = False) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--variant", str(variant), "--out", str(out),
            "--trace", str(int(trace))]
    return argv + ["--setup-only"] if setup_only else argv


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: Path) -> list[dict]:
    """Timed runs of one workload, each checked against the reference."""
    variant = worker.variant_of(seed)
    reference = checker.load_reference(workload)
    modes = [True, False] if trace else [False]
    runs: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        for traced in modes:
            out = tmp / f"run{len(runs)}"
            result = run_child(worker_argv(workload, variant, out, traced), out)
            result["traced"] = traced
            if not result["error"]:
                result["problems"] = checker.check(workload, variant, out,
                                                   reference)
            shutil.rmtree(out, ignore_errors=True)
            runs.append(result)
    return runs


def measure_setup(workload: str, seed: int, runs: list[dict],
                  tmp: Path) -> list[float]:
    """Set-up times of the runs, topped up with set-up-only starts."""
    samples = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(samples) < SETUP_SAMPLES:
        out = tmp / f"setup{len(samples)}"
        result = run_child(worker_argv(workload, worker.variant_of(seed), out,
                                       False, setup_only=True), out)
        shutil.rmtree(out, ignore_errors=True)
        if "setup_s" not in result:
            raise RuntimeError(f"set-up failed: {result['error']}")
        samples.append(result["setup_s"])
    return samples


def failed(run: dict) -> bool:
    return bool(run["error"] or run.get("problems"))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    good = [r for r in runs if not failed(r)]
    return {
        "run_s": _median([r["run_s"] for r in good]),
        "setup_s": _median(setup),
        "cpu_s": _median([r["cpu_s"] for r in good]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        "success_rate": 1 - sum(map(failed, runs)) / len(runs),
    }


def per_layer(runs: list[dict]) -> dict:
    traced = [tracer.layer_metrics(r["trace"]) for r in runs
              if r["traced"] and r.get("trace")]
    names = traced[0] if traced else {}
    metrics = {name: _median([m[name] for m in traced]) for name in names}
    run_traced = _median([r["run_s"] for r in runs
                          if r["traced"] and not failed(r)])
    run_plain = _median([r["run_s"] for r in runs
                         if not r["traced"] and not failed(r)])
    metrics.update({"trace.run_s": run_traced,
                    "trace.untraced_run_s": run_plain,
                    "trace.overhead_s": run_traced - run_plain})
    return metrics


def result_line(runs: list[dict], metrics: dict, trace: bool) -> dict:
    """The final JSON object, with the metrics and units of BENCHMARK.json."""
    declared = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "correct": not any(map(failed, runs)),
        "attempted": len(runs),
        "failed": sum(map(failed, runs)),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    TMP.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP) as tmp:
            runs = measure(workload, seed, seconds, trace, Path(tmp))
            if trace:
                metrics = per_layer(runs)
            else:
                metrics = end_to_end(runs, measure_setup(workload, seed, runs,
                                                         Path(tmp)))
    finally:
        with contextlib.suppress(OSError):
            TMP.rmdir()
    for r in runs:
        if failed(r):
            print(f"{workload}: failed run: {r['error'] or r['problems']}",
                  file=sys.stderr)
    line = result_line(runs, metrics, trace)
    print(f"# {workload} seed={seed} variant={worker.variant_of(seed)} "
          f"trace={int(trace)} runs={len(runs)} run_s of each: "
          + " ".join(f"{r['run_s']:.3f}" for r in runs if r.get("run_s")))
    for name, m in line["metrics"].items():
        print(f"#   {name:34s} {m['value']:>16.6g} {m['unit']}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *worker.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/sofic_spectra/__init__.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a sofic-spectra checkout; missing {missing}",
              file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    workloads = list(worker.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for workload in workloads:
        line = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
