"""Dense Hermitian spectra, counting functions, IDS curves and references.

The one input is an exact InducedOperator, which is Hermitian by
construction: its constructor checks that each stored entry's transpose
holds its conjugate (``check_hermitian``, O(nnz)).  That matters here, since
LAPACK's Hermitian solvers read one triangle only and the trace identities
below cannot see a wrong other triangle of equal magnitudes.  Spectra come
from LAPACK's dense Hermitian solvers, and every float spectrum has one
certificate, checked a posteriori in O(nnz) to SOLVE_TOL: sum lambda =
tr H and sum lambda^2 = ||H||_F^2 = tr H^2, both exact from the stored
entries (``trace_moments``), never from the solver, and every |lambda|
inside the row-sum (Gershgorin) bound.  The default solver computes
eigenvalues only; ``vectors=True`` solves with ``eigh`` and discards its
eigenvectors, since written IDS breakpoints follow eigh's rounding of
degenerate eigenvalues.  Every operator is exact-rational, and a diagonal
one (the empty and the zero operator too) bypasses floating point entirely
so that eigenvalue atoms at rational energies are counted exactly: the
spectrum is its distinct values with the count below each, and counting
functions and atom masses bisect them with Fraction comparisons only.
A float counting function absorbs ties within TIE_TOL times the spectral
scale, a float atom mass counts the eigenvalues within that width, and
the punctured mass leaves out exactly what the atom mass counts.
Every guard and tolerance here is a module constant, read at call time.
IDS curves are right-continuous step functions (finite volume), an exact
eigenvalue breaking at the least float at or above it, or
piecewise-linear interpolants (analytic references); the Kolmogorov distance
evaluates both on the merged breakpoint set including left limits.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .operators import InducedOperator, trace_moments

DEFAULT_DENSE_BUDGET = 4096
SOLVE_TOL = 1e-8                # eigensolver certificate tolerance
TIE_TOL = 1e-9                  # float counting ties, relative to the scale
QUADRATURE_POINTS = 100_000     # theta-quadrature of the Z^2 reference


class EigensolverError(RuntimeError):
    pass


@dataclass
class Spectrum:
    """Sorted eigenvalues and their certificate.

    ``exact`` is set for diagonal operators: (distinct, below), the distinct
    eigenvalues as ascending Fractions and the count of eigenvalues below
    each, n last; float values are their float images.  ``residual`` is the
    trace-identity defect of a float solve, or 0.0 on the exact path.
    """

    values: np.ndarray
    residual: float
    exact: Optional[tuple] = None

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.values))) if self.n else 0.0)


def _matrix_hash(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def eigen_spectrum(op: InducedOperator, vectors: bool = False) -> Spectrum:
    """Full spectrum of a Hermitian operator (dense LAPACK path).

    Diagonal operators are solved exactly, others densely up to size
    DEFAULT_DENSE_BUDGET.  The float path certifies the eigenvalues in
    O(nnz) with the trace identities and the row-sum enclosure
    (``_certify_values``), which fails loudly above SOLVE_TOL.  By default it
    computes eigenvalues only.  ``vectors=True`` solves with ``eigh`` and
    discards the eigenvectors: eigh rounds degenerate eigenvalues otherwise
    than ``eigvalsh``, and the IDS breakpoints sample 0 of weak-convergence
    writes follow eigh's values.  The operator is Hermitian, as its
    constructor checks.
    """
    if op.is_diagonal():
        return _exact_diagonal_spectrum(op.n, op.codes, op.values)
    if op.n > DEFAULT_DENSE_BUDGET:
        raise EigensolverError(f"dense solve of size {op.n} exceeds budget "
                               f"{DEFAULT_DENSE_BUDGET}")
    dense = op.to_dense()
    try:
        solved = (np.linalg.eigh if vectors else np.linalg.eigvalsh)(dense)
    except np.linalg.LinAlgError as err:
        raise EigensolverError(
            f"eigensolver failed to converge (matrix {_matrix_hash(dense)})"
        ) from err
    w = solved[0] if vectors else solved
    return Spectrum(values=w, residual=_certify_values(op, dense, w))


def _certify_values(op: InducedOperator, dense: np.ndarray,
                    w: np.ndarray) -> float:
    """Trace-identity defect of eigenvalues w of op, checked against
    SOLVE_TOL (dense only names the matrix in errors).

    tr H and ||H||_F^2 = tr H^2 are the floats of exact traces of the
    stored entries (trace_moments, O(nnz)), never the solver's.  The defect
    max(|sum w - tr H| / scale, |sum w^2 - ||H||_F^2| / scale^2) exceeds the
    tolerance as soon as one eigenvalue is off by more than SOLVE_TOL *
    scale; every eigenvalue must also lie in the row-sum (Gershgorin)
    enclosure.
    """
    trace, frob2 = (float(op.n * m) for m in trace_moments(op, 2))
    bound = op.row_sum_bound()
    top = float(np.max(np.abs(w)))
    scale = max(1.0, top)
    if not top <= bound + SOLVE_TOL * scale:
        raise EigensolverError(
            f"eigenvalue {top:.6e} outside the row-sum bound "
            f"{bound:.6e} (matrix {_matrix_hash(dense)})")
    defect = max(abs(float(np.sum(w)) - trace) / scale,
                 abs(float(np.dot(w, w)) - frob2) / scale ** 2)
    if not defect <= SOLVE_TOL:
        raise EigensolverError(
            f"trace-identity defect {defect:.3e} above tolerance "
            f"{SOLVE_TOL:.3e} (matrix {_matrix_hash(dense)})")
    return defect


def _exact_diagonal_spectrum(n: int, codes: np.ndarray, values: tuple
                             ) -> Spectrum:
    """Spectrum of a diagonal operator from its value-coded stored entries:
    one count per distinct value, the n - nnz unstored entries are 0."""
    counts: dict = {Fraction(0): n - len(codes)}
    for v, c in zip(values, np.bincount(codes, minlength=len(values)).tolist()):
        counts[v.re] = counts.get(v.re, 0) + c
    distinct = tuple(x for x in sorted(counts) if counts[x])
    mult = [counts[x] for x in distinct]
    vals = np.repeat(np.array([float(x) for x in distinct]), mult)
    return Spectrum(values=vals, residual=0.0, exact=(
        distinct, tuple(itertools.accumulate(mult, initial=0))))


def _exact_rank(spec: Spectrum, x, side: str) -> int:
    """Exact eigenvalues < x (side "left") or <= x (side "right").

    x is made a Fraction (a float by its exact binary value), so only
    Fractions are compared; +inf lies above every eigenvalue and -inf and
    NaN below none.
    """
    if isinstance(x, float) and not math.isfinite(x):
        return spec.n if x > 0 else 0
    distinct, below = spec.exact
    find = bisect.bisect_right if side == "right" else bisect.bisect_left
    return below[find(distinct, Fraction(x))]


def counting_function(spec: Spectrum, points: Sequence) -> list[int]:
    """Number of eigenvalues <= each point, as a list of ints: one
    bisection per point (exact), or one vectorised search with ties absorbed
    within TIE_TOL * scale (float).  No eigenvalue is <= NaN on either
    path."""
    if spec.is_exact:
        return [_exact_rank(spec, b, "right") for b in points]
    x = np.asarray(points, dtype=float)
    # searchsorted sorts NaN above every value
    counts = np.searchsorted(spec.values, x + TIE_TOL * spec.scale(),
                             side="right")
    return np.where(np.isnan(x), 0, counts).tolist()


def atom_mass(spec: Spectrum, alpha) -> float:
    """Fraction of eigenvalues at alpha: exact if rational, else within
    TIE_TOL * scale of alpha, the ties counting_function absorbs."""
    if spec.n == 0:
        return 0.0
    if spec.is_exact:
        return (_exact_rank(spec, alpha, "right")
                - _exact_rank(spec, alpha, "left")) / spec.n
    return float(np.mean(np.abs(spec.values - float(alpha))
                         <= TIE_TOL * spec.scale()))


def punctured_mass(spec: Spectrum, alpha: float, eps: float) -> float:
    """Fraction of eigenvalues with |lambda - alpha| < eps that atom_mass
    does not count at alpha: exact comparisons on the exact path, else
    TIE_TOL * scale < |lambda - alpha|."""
    if not TIE_TOL < eps:
        raise ValueError(f"need eps > TIE_TOL {TIE_TOL}")
    if spec.n == 0:
        return 0.0
    if spec.is_exact:
        a, e = Fraction(alpha), Fraction(eps)
        below = _exact_rank(spec, a, "left") - _exact_rank(spec, a - e, "right")
        above = _exact_rank(spec, a + e, "left") - _exact_rank(spec, a, "right")
        return (below + above) / spec.n
    d = np.abs(spec.values - float(alpha))
    return float(np.mean((d > TIE_TOL * spec.scale()) & (d < eps)))


def punctured_mass_bound(norm_bound: float, eps: float,
                         denominator: int) -> float:
    """log(R)/log(1/(D*eps)): determinant-arithmetic bound on punctured mass
    at 0.

    For Hermitian H with D*H of Gaussian-integer entries and ||D*H|| <= R,
    the product of the nonzero eigenvalues of D*H is a nonzero integer, so
    at most a log(R)/log(1/(D*eps)) fraction of the eigenvalues of H can lie
    in the punctured interval (-eps, eps) \\ {0}.  D = 1 is the integer case.
    """
    if norm_bound < 1:
        raise ValueError("norm bound must be >= 1")
    if not 0 < denominator * eps < 1:
        raise ValueError("denominator * eps must lie in (0, 1)")
    return math.log(norm_bound) / math.log(1.0 / (denominator * eps))


# ---------------------------------------------------------------------------
# IDS curves
# ---------------------------------------------------------------------------


@dataclass
class IDSCurve:
    """Distribution-function curve: step (finite volume) or linear (analytic)."""

    xs: np.ndarray
    ys: np.ndarray
    kind: str                   # "step" (right-continuous) | "linear"

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(self.xs) < 0):
            raise ValueError("grid must be sorted")
        if np.any(np.diff(self.ys) < -1e-12):
            raise ValueError("IDS curve must be nondecreasing")
        if self.kind not in ("step", "linear"):
            raise ValueError("kind must be 'step' or 'linear'")

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "linear":
            return np.interp(x, self.xs, self.ys)
        idx = np.searchsorted(self.xs, x, side="right") - 1
        out = np.where(idx >= 0, self.ys[np.maximum(idx, 0)], 0.0)
        return out

    def eval_left(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "linear":
            return np.interp(x, self.xs, self.ys)
        idx = np.searchsorted(self.xs, x, side="left") - 1
        return np.where(idx >= 0, self.ys[np.maximum(idx, 0)], 0.0)


def _float_at_or_above(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def ids_curve(spec: Spectrum, grid: Sequence[float]) -> IDSCurve:
    """Normalized counting function as a step curve on grid + breakpoints.

    An exact eigenvalue's breakpoint is the least float >= it, the first
    float whose exact count includes it."""
    if spec.is_exact:
        breaks = [_float_at_or_above(x) for x in spec.exact[0]]
    else:
        breaks = np.unique(spec.values)
    xs = np.unique(np.concatenate([np.asarray(grid, dtype=float), breaks]))
    ys = np.asarray(counting_function(spec, xs), dtype=float) / max(spec.n, 1)
    return IDSCurve(xs=xs, ys=ys, kind="step")


def kolmogorov_distance(a: IDSCurve, b: IDSCurve) -> float:
    """sup_beta |a - b| over merged breakpoints including left limits."""
    xs = np.union1d(a.xs, b.xs)
    d1 = np.abs(a.eval(xs) - b.eval(xs)).max() if len(xs) else 0.0
    d2 = np.abs(a.eval_left(xs) - b.eval_left(xs)).max() if len(xs) else 0.0
    return float(max(d1, d2))


def reference_ids(kind: str, d: int, beta_grid: Sequence[float]) -> IDSCurve:
    """Analytic IDS reference curves.

    ``lattice_laplacian`` with d=1 is the arcsine law of the Z Laplacian,
    N(beta) = 1 - arccos(1 + beta/2)/pi on [-4, 0]; d=2 is the numerical
    self-convolution via a QUADRATURE_POINTS-point theta-quadrature
    (documented error <= 1e-4).
    """
    grid = np.asarray(sorted(beta_grid), dtype=float)
    if kind != "lattice_laplacian":
        raise ValueError(f"unsupported reference kind {kind!r}")
    if d == 1:
        ys = _arcsine_ids(grid)
        return IDSCurve(xs=grid, ys=ys, kind="linear")
    if d == 2:
        phi = (np.arange(QUADRATURE_POINTS) + 0.5) * np.pi / QUADRATURE_POINTS
        shift = 2.0 * np.cos(phi) - 2.0
        ys = np.empty(len(grid))
        for i, beta in enumerate(grid):
            ys[i] = _arcsine_ids(beta - shift).mean()
        ys = np.maximum.accumulate(ys)
        return IDSCurve(xs=grid, ys=ys, kind="linear")
    raise ValueError("lattice_laplacian reference supports d in {1, 2}")


def _arcsine_ids(beta: np.ndarray) -> np.ndarray:
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    arg = np.clip(1.0 + beta / 2.0, -1.0, 1.0)
    out = 1.0 - np.arccos(arg) / np.pi
    out[beta <= -4.0] = 0.0
    out[beta >= 0.0] = 1.0
    return out
