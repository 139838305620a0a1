"""Rewrite reference/<workload>.json from the outputs of the current program.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once per seed variant, each in a fresh interpreter, and
stores the summary of its outputs (see checker.py).  The summary step also
applies the checks that need no reference, so a variant whose outputs fail
them is refused.  Regenerate only when a change means to alter the outputs,
and say which outputs changed and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checker
import run
import worker


def main(argv: list[str]) -> int:
    run.TMP.mkdir(exist_ok=True)
    for workload in argv or list(worker.WORKLOADS):
        summaries = {}
        for variant in range(worker.VARIANTS):
            with tempfile.TemporaryDirectory(dir=run.TMP) as tmp:
                out = Path(tmp)
                result = run.run_child(
                    run.worker_argv(workload, variant, out, False), out)
                if result["error"]:
                    raise SystemExit(f"{workload} variant {variant}: "
                                     f"{result['error']}")
                summaries[str(variant)] = checker.summarize(
                    workload, variant, out)
            print(f"{workload} variant {variant}: {result['run_s']:.2f} s",
                  flush=True)
        checker.REFERENCE_DIR.mkdir(exist_ok=True)
        path = checker.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
