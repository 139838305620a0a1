"""Every per-layer metric is emitted, and the counts of the traced runs.

The counts are those of the program at the commit that defined the
benchmark; a change that alters how much work a pipeline does updates them
and says why.
"""

import json
import subprocess
import sys

import pytest

import run
import tracer

PER_LAYER = [m["name"] for m in run.SPEC["per_layer"]]

COUNTS = {
    "kesten-dense": {"spectral.eigen_spectrum_calls": 30,
                     "spectral.dense_solves": 30,
                     "spectral.useful_spectra": 3,
                     "spectral.useful_spectra_ratio": 0.1,
                     "spectral.dense_n3": 10 * (500**3 + 1000**3 + 2000**3)},
    # 150 exact diagonal spectra from luck_atoms, 3 weak_convergence IDS
    # spectra and 9 monotone spectra are used; 7 monotone differences are not
    "light-configs": {"spectral.eigen_spectrum_calls": 169,
                      "spectral.useful_spectra": 162,
                      "spectral.dense_solves": 19},
    "moment-oracle": {"spectral.dense_solves": 0,
                      "spectral.eigen_spectrum_calls": 0},
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_run_counts(traced_runs, workload):
    result, _ = traced_runs(workload)
    assert not result["error"]
    metrics = tracer.layer_metrics(result["trace"])
    assert set(PER_LAYER) - set(metrics) <= {
        "trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    for name, value in COUNTS[workload].items():
        assert metrics[name] == value, name


def test_traced_benchmark_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "moment-oracle", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] and line["attempted"] == 2
    assert list(line["metrics"]) == PER_LAYER
    assert line["metrics"]["trace.untraced_run_s"]["value"] > 0
