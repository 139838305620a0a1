"""Spans around calls into the sofic_spectra layers, recorded from outside.

A traced run replaces each function listed in TARGETS by a wrapper that
records one span (id, parent id, name, tag, start, end) per call.  The package
modules import each other's functions by name (``from .spectral import
eigen_spectrum``), so a wrapper is bound in every sofic_spectra module that
holds the original; ``InducedOperator`` methods are wrapped at the class and
the LAPACK solvers at ``numpy.linalg``.  Spans stay in memory until
``dump()``.  Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import uuid
import weakref
from collections import Counter

STATS = ("ids_curve", "counting_function", "atom_mass", "punctured_mass",
         "punctured_mass_bound", "kolmogorov_distance", "reference_ids")

# (module, attribute, span name); "Class.method" is wrapped at the class.
TARGETS = [
    ("sofic_spectra.sofic", "torus_approximation", "sofic.build"),
    ("sofic_spectra.sofic", "random_permutation_approximation", "sofic.build"),
    ("sofic_spectra.sofic", "product_with_quotient", "sofic.build"),
    ("sofic_spectra.sofic", "lattice_quotient", "sofic.build"),
    ("sofic_spectra.sofic", "good_vertices", "sofic.good_vertices"),
    ("sofic_spectra.sofic", "sofic_defect", "sofic.defect"),
    ("sofic_spectra.measures", "sample_configuration", "measures.sample"),
    ("sofic_spectra.measures", "le_diagnostic", "measures.le_diagnostic"),
    ("sofic_spectra.operators", "assemble_induced", "operators.assemble"),
    ("sofic_spectra.operators", "assemble_graph_schrodinger",
     "operators.assemble"),
    ("sofic_spectra.operators", "InducedOperator.check_hermitian",
     "operators.check_hermitian"),
    ("sofic_spectra.operators", "InducedOperator.to_dense",
     "operators.to_dense"),
    ("sofic_spectra.operators", "InducedOperator.to_sparse",
     "operators.to_sparse"),
    ("sofic_spectra.operators", "InducedOperator.row_sum_bound",
     "operators.row_sum_bound"),
    ("sofic_spectra.operators", "expected_moment", "operators.expected_moment"),
    ("sofic_spectra.operators", "power_diagonal_check",
     "operators.power_diagonal_check"),
    ("sofic_spectra.spectral", "eigen_spectrum", "spectral.eigen_spectrum"),
    *[("sofic_spectra.spectral", name, "spectral.stats") for name in STATS],
    ("numpy.linalg", "eigh", "spectral.lapack"),
    ("numpy.linalg", "eigvalsh", "spectral.lapack"),
    ("sofic_spectra.monotone", "value_sets_of", "monotone.schedule"),
    ("sofic_spectra.monotone", "build_schedule", "monotone.schedule"),
    ("sofic_spectra.monotone", "apply_schedule", "monotone.schedule"),
    ("sofic_spectra.monotone", "monotone_ids_report", "monotone.report"),
    ("sofic_spectra.monotone", "gershgorin_psd", "monotone.gershgorin"),
    ("sofic_spectra.exact", "sum_abs_le", "exact.sum_abs_le"),
    ("sofic_spectra.cli", "validate_config", "cli.validate"),
    ("sofic_spectra.cli", "write_csv", "cli.write"),
    ("sofic_spectra.cli", "write_json", "cli.write"),
    ("sofic_spectra.cli", "_write_gnuplot", "cli.write"),
]

# span names whose self time is reported as "<name>_s"
TIMED = ("spectral.eigen_spectrum", "spectral.lapack", "spectral.stats",
         "operators.assemble", "operators.check_hermitian",
         "operators.to_dense", "operators.to_sparse",
         "operators.row_sum_bound", "operators.expected_moment",
         "operators.power_diagonal_check", "monotone.schedule",
         "monotone.report", "monotone.gershgorin", "exact.sum_abs_le",
         "sofic.build", "sofic.good_vertices", "sofic.defect",
         "measures.sample", "measures.le_diagnostic", "cli.validate",
         "cli.write", "workload")
# span names whose call count is reported as "<name>_calls"
CALLED = ("spectral.eigen_spectrum", "operators.assemble",
          "monotone.gershgorin", "exact.sum_abs_le", "sofic.good_vertices",
          "measures.sample")
# light-configs: wall time of each config's cli.run, tagged by config name
CONFIG_TAGS = ("sofic_diagnostics", "weak_convergence", "luck_atoms", "monotone")


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []     # [id, parent, name, tag, start, end]
        self.counts: Counter = Counter()
        self._stack: list = [None]
        self._patches: list = []        # (owner, attribute, original)
        self._unused: dict = {}         # id(spectrum) -> weakref, not yet used

    def _open(self, name, tag):
        record = [len(self.spans), self._stack[-1], name, tag,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record) -> None:
        record[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        record = self._open(name, tag)
        try:
            yield
        finally:
            self._close(record)

    # -- counters taken at the layer boundaries ---------------------------

    def _after(self, name: str, args, result) -> None:
        if name == "operators.assemble":
            self.counts["operators.entries"] += len(result.entries)
        elif name == "spectral.lapack":
            self.counts["spectral.dense_n3"] += args[0].shape[0] ** 3
        elif name == "spectral.eigen_spectrum":
            key = id(result)
            self._unused[key] = weakref.ref(
                result, lambda _, key=key: self._unused.pop(key, None))
        elif name == "spectral.stats" and args:
            # a spectrum counts as useful once it reaches a statistic
            if self._unused.pop(id(args[0]), None) is not None:
                self.counts["spectral.useful_spectra"] += 1

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self._after(name, args, result)
            return result
        return traced

    def install(self) -> None:
        packages = [m for n, m in list(sys.modules.items())
                    if n == "sofic_spectra" or n.startswith("sofic_spectra.")]
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(original, name))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name)
            holders = packages if module_name.startswith("sofic_spectra") \
                else [module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": dict(self.counts)}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, from its dumped spans.

    ``<name>_s`` is self time: a span's duration minus the time its child
    spans cover, summed over the spans of that name.  ``cli.<config>_s`` is
    the whole wall time of that config's ``cli.run``.
    """
    spans = trace["spans"]
    covered: Counter = Counter()
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter()
    config_s: Counter = Counter()
    for span_id, _, name, tag, start, end in spans:
        self_s[name] += end - start - covered[span_id]
        calls[name] += 1
        if name == "cli.run":
            config_s[tag] += end - start
    counts = trace["counts"]
    solved = calls["spectral.eigen_spectrum"]
    useful = counts.get("spectral.useful_spectra", 0)
    metrics = {f"{name}_s": self_s[name] for name in TIMED}
    metrics.update({f"{name}_calls": calls[name] for name in CALLED})
    metrics.update({
        "cli.self_s": self_s["cli.run"],
        **{f"cli.{tag}_s": config_s[tag] for tag in CONFIG_TAGS},
        "spectral.dense_solves": calls["spectral.lapack"],
        "spectral.dense_n3": counts.get("spectral.dense_n3", 0),
        "spectral.useful_spectra": useful,
        "spectral.useful_spectra_ratio": useful / solved if solved else 0.0,
        "operators.entries": counts.get("operators.entries", 0),
        "trace.spans": len(spans),
    })
    return metrics
