import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


@pytest.fixture(scope="session")
def traced_runs(tmp_path_factory):
    """One traced run per workload at variant 0: result dicts by workload."""
    results = {}

    def get(workload):
        if workload not in results:
            out = tmp_path_factory.mktemp(workload)
            results[workload] = (run.run_child(
                run.worker_argv(workload, 0, out, trace=True), out), out)
        return results[workload]
    return get
