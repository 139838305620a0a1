"""Correctness check of one run's outputs against the committed reference.

A run's outputs are reduced to a summary per file: the row count, a hash of
every column that must match exactly, and the values of the few float columns
that may move in the last digits when summation order changes (compared to a
relative 1e-9).  Exact columns are the oracle moments, exact atom masses, the
``ok`` and ``psd_certified`` flags, the N_m counts and every other count.  IDS
curves are compared at the config's grid points only: their other rows are
eigenvalue breakpoints, whose number depends on how the eigensolver rounds
degenerate eigenvalues.  moment-oracle outputs are also checked against the
oracle they carry (trace moments within 5 standard errors of the expected
moments; the power-diagonal checks exact and without discrepancy).

The reference is ``reference/<workload>.json``: one summary per seed variant,
written by ``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import worker

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# columns that are compared within FLOAT_RTOL; every other column is exact
FLOAT_COLUMNS = {
    "moments.csv": ("empirical_mean", "empirical_se"),
    "distances.csv": ("kolmogorov",),
    "le.csv": ("le_halfwidth",),
    "punctured.csv": ("bound",),
    "monotone_summary.csv": ("norm_gap", "norm_bound"),
}
FLOAT_RTOL = 1e-9


class CheckError(ValueError):
    pass


def digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:24]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise CheckError(f"{path.name}: ragged rows")
    return header, rows


def _grid(config: dict) -> set[str]:
    import numpy as np
    g = config["beta_grid"]
    return {f"{x:.17g}" for x in np.linspace(g["min"], g["max"], g["points"])}


def _table_summary(name: str, header, rows, float_columns=()) -> dict:
    columns = list(zip(*rows)) if rows else [()] * len(header)
    return {
        "rows": len(rows),
        "exact": {h: digest(col) for h, col in zip(header, columns)
                  if h not in float_columns},
        "float": {h: [float(x) for x in col] for h, col in zip(header, columns)
                  if h in float_columns},
    }


def _file_summary(path: Path, config: dict) -> dict:
    name = path.name
    if name.startswith("ids_") and name.endswith(".json"):
        data = json.loads(path.read_text())
        header, rows = _read_csv(path.with_suffix(".csv"))
        if [data["beta"], data["value"]] != [list(c) for c in zip(*rows)]:
            raise CheckError(f"{name} disagrees with its csv")
        return {"rows": len(rows), "exact": {}, "float": {}}
    if name.endswith(".csv"):
        header, rows = _read_csv(path)
        if name.startswith("ids_"):
            grid = _grid(config)
            rows = [row for row in rows if row[0] in grid]
            if len(rows) != len(grid):
                raise CheckError(f"{name}: grid points missing")
        return _table_summary(name, header, rows, FLOAT_COLUMNS.get(name, ()))
    return {"rows": 0, "exact": {"sha256": digest([path.read_text()])},
            "float": {}}


def _oracle_summary(path: Path) -> dict:
    data = json.loads(path.read_text())
    oracle = data["expected_moment"]
    moments = data["trace_moments"]
    for k, value in enumerate(oracle, start=1):
        sample = [row[k - 1] for row in moments]
        mean = sum(sample) / len(sample)
        sd = math.sqrt(sum((x - mean) ** 2 for x in sample) / (len(sample) - 1))
        if abs(mean - value) > 5 * sd / math.sqrt(len(sample)):
            raise CheckError(f"trace moment k={k} misses the oracle by > 5 se")
    for check in data["power_diagonal"]:
        if not (check["exact"] and check["max_discrepancy"] == 0.0
                and check["fraction_tested"] == 1.0
                and check["n_tested"] == worker.ORACLE_N):
            raise CheckError(f"power_diagonal_check failed: {check}")
    return {
        "rows": len(moments),
        "exact": {"expected_moment": digest(map(repr, oracle)),
                  "power_diagonal": digest(
                      json.dumps(c, sort_keys=True)
                      for c in data["power_diagonal"])},
        "float": {"trace_moments": [x for row in moments for x in row]},
    }


def summarize(workload: str, variant: int, out: Path) -> dict:
    """Summary of every output of one run, keyed by path under ``out``."""
    if workload == "moment-oracle":
        return {"oracle.json": _oracle_summary(out / "oracle.json")}
    summary = {}
    for name, config in worker.load_configs(workload, variant):
        manifest = json.loads((out / name / "manifest.json").read_text())
        if "error" in manifest:
            raise CheckError(f"{name}: {manifest['error']}")
        summary[f"{name}/manifest.json"] = {
            "rows": len(manifest["outputs"]),
            "exact": {"config_hash": manifest["config_hash"],
                      "outputs": digest(manifest["outputs"])},
            "float": {}}
        for output in manifest["outputs"]:
            summary[f"{name}/{output}"] = _file_summary(
                out / name / output, config)
    return summary


def compare(got: dict, want: dict) -> list[str]:
    problems = [f"{key}: missing" for key in want if key not in got]
    problems += [f"{key}: not in the reference" for key in got
                 if key not in want]
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        if a["rows"] != b["rows"]:
            problems.append(f"{key}: {a['rows']} rows, want {b['rows']}")
            continue
        for column, expected in b["exact"].items():
            if a["exact"].get(column) != expected:
                problems.append(f"{key}: column {column} differs")
        for column, values in b["float"].items():
            got_values = a["float"].get(column, [])
            if len(got_values) != len(values) or not all(
                    math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
                    for x, y in zip(got_values, values)):
                problems.append(f"{key}: column {column} differs beyond "
                                f"rel {FLOAT_RTOL:g}")
    return problems


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check(workload: str, variant: int, out: Path, reference: dict) -> list[str]:
    """Problems found in one run's outputs; empty when they are correct."""
    try:
        got = summarize(workload, variant, out)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable outputs: {type(err).__name__}: {err}"]
    return compare(got, reference[str(variant)])
