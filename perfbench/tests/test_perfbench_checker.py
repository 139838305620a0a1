"""The benchmark's correctness check and result line."""

import shutil
import sys

import pytest

import checker
import run


@pytest.fixture
def light_outputs(traced_runs, tmp_path):
    """A private copy of a correct light-configs run's outputs."""
    result, out = traced_runs("light-configs")
    assert not result["error"]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def _check(out):
    return checker.check("light-configs", 0, out,
                         checker.load_reference("light-configs"))


def test_correct_outputs_pass(light_outputs):
    assert _check(light_outputs) == []


@pytest.mark.parametrize("path, column", [
    ("weak_convergence/moments.csv", "oracle"),
    ("luck_atoms/atoms.csv", "mean_mass"),
])
def test_corrupted_digit_is_a_failed_run(light_outputs, path, column):
    target = light_outputs / path
    lines = target.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    digit = next(i for i, c in enumerate(cells[col]) if c.isdigit())
    new = "7" if cells[col][digit] != "7" else "3"
    cells[col] = cells[col][:digit] + new + cells[col][digit + 1:]
    lines[1] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")

    problems = _check(light_outputs)
    assert any(path in p and column in p for p in problems)
    bad = {"error": None, "problems": problems}
    good = {"error": None, "problems": []}
    line = run.result_line([good, bad], {}, trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_raised_exception_is_a_failed_run(tmp_path):
    result = run.run_child(
        [sys.executable, "-c", "raise RuntimeError('boom')"], tmp_path)
    assert "boom" in result["error"] and run.failed(result)
    line = run.result_line([result], {}, trace=False)
    assert (line["correct"], line["failed"]) == (False, 1)


def test_printed_metrics_match_benchmark_json():
    for trace in (False, True):
        declared = run.SPEC["per_layer" if trace else "end_to_end"]
        line = run.result_line([{"error": None}], {}, trace)
        assert [(n, m["unit"]) for n, m in line["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in declared]
    runs = [{"error": None, "run_s": 1.0, "cpu_s": 2.0, "peak_rss_mb": 3.0}]
    computed = run.end_to_end(runs, [0.5])
    assert set(computed) == {m["name"] for m in run.SPEC["end_to_end"]}
