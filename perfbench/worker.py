"""One timed run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per timed run, so that peak memory and the
set-up cost belong to that run alone.  The script sets up (package, numpy and
scipy imports, configs, BLAS warm-up), records the monotonic time at which it
is ready, runs the workload and writes ``result.json`` into ``--out``:

    {"ready": <time.monotonic() at the end of set-up>, "run_s": ..., "cpu_s": ...,
     "peak_rss_mb": ..., "error": null | "<traceback>", "trace": null | {...}}

Usage: python3 perfbench/worker.py --workload NAME --variant V --out DIR
       [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Workload seeds are reduced modulo VARIANTS; reference outputs exist for each
# variant, and variant v adds v to every seed a config carries.
VARIANTS = 10

WORKLOADS = {
    "kesten-dense": ("kesten_free_group",),
    "light-configs": ("sofic_diagnostics", "weak_convergence", "luck_atoms",
                      "monotone"),
    "moment-oracle": (),
}

# moment-oracle: criterion 2 of the acceptance suite, driven through the API
ORACLE_K = 8            # expected_moment orders 1..ORACLE_K, exact mode
POWER_K = 6             # power_diagonal_check orders 1..POWER_K
ORACLE_N = 512          # torus size for the checks and the samples
ORACLE_SAMPLES = 20
ORACLE_ENTROPY = 2024   # sample seed at variant 0

# A dense solve of this size wakes the BLAS threads.  The first multi-threaded
# LAPACK call after the machine idles can stall for about a second; doing it
# here keeps that stall in setup_s and out of run_s.
WARMUP_N = 512


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def load_configs(workload: str, variant: int) -> list[tuple[str, dict]]:
    """(config name, config) pairs of a workload, seeds shifted by variant."""
    configs = []
    for name in WORKLOADS[workload]:
        config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        config["seed"] += variant
        if "seed" in config["sofic"]:
            config["sofic"]["seed"] += variant
        configs.append((name, config))
    return configs


def set_up(workload: str, variant: int) -> list[tuple[str, dict]]:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    # imported here so that its first use inside to_sparse() is not timed
    import scipy.sparse  # noqa: F401
    from sofic_spectra import cli  # noqa: F401

    configs = load_configs(workload, variant)
    a = np.random.default_rng(0).standard_normal((WARMUP_N, WARMUP_N))
    np.linalg.eigh(a + a.T)
    return configs


def run_configs(configs, out: Path, span) -> None:
    from sofic_spectra import cli
    for name, config in configs:
        with span("cli.run", name):
            cli.run(config, out_dir=out / name)


def run_moment_oracle(variant: int, out: Path) -> None:
    from fractions import Fraction

    import numpy as np
    import sofic_spectra as ss

    alphabet = ss.Alphabet(symbols=("0", "1"))
    group = ss.lattice_group(1)
    rule = ss.schrodinger_rule(group, alphabet, [Fraction(0), Fraction(5, 3)])
    model = ss.IIDProduct(alphabet=alphabet, weights=(0.7, 0.3))
    oracle = [ss.expected_moment(rule, model, k).value
              for k in range(1, ORACLE_K + 1)]
    sigma = ss.torus_approximation(1, ORACLE_N)
    goodness = ss.good_vertices(sigma, 2 * rule.hopping)
    moments = []
    for j in range(ORACLE_SAMPLES):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=ORACLE_ENTROPY + variant, spawn_key=(0, j)))
        rho = ss.sample_configuration(model, sigma, rng)
        if j == 0:
            first_rho = rho
        a = ss.assemble_induced(rule, sigma, rho, goodness).to_sparse()
        power = a
        row = []
        for k in range(1, ORACLE_K + 1):
            if k > 1:
                power = power @ a
            row.append(float(power.diagonal().sum().real) / ORACLE_N)
        moments.append(row)
    checks = [ss.power_diagonal_check(rule, sigma, first_rho, k).to_json()
              for k in range(1, POWER_K + 1)]
    (out / "oracle.json").write_text(json.dumps(
        {"expected_moment": oracle, "trace_moments": moments,
         "power_diagonal": checks}, indent=1) + "\n")


def run_workload(workload: str, variant: int, configs, out: Path,
                 tracer=None) -> None:
    span = tracer.span if tracer else (lambda *_: contextlib.nullcontext())
    with span("workload"):
        if workload == "moment-oracle":
            run_moment_oracle(variant, out)
        else:
            run_configs(configs, out, span)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--variant", type=int, choices=range(VARIANTS),
                        required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    configs = set_up(args.workload, args.variant)
    result = {"ready": time.monotonic(), "run_s": None, "cpu_s": None,
              "peak_rss_mb": None, "error": None, "trace": None}
    args.out.mkdir(parents=True, exist_ok=True)
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            run_workload(args.workload, args.variant, configs, args.out, tracer)
        except Exception:
            result["error"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        if tracer:
            tracer.uninstall()
            result["trace"] = tracer.dump()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    (args.out / "result.json").write_text(json.dumps(result) + "\n")
    return 1 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
