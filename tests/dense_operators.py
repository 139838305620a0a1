"""Exact operators from dense arrays, for tests that build matrices directly.

Not a test module; the test modules import it by name.
"""

from fractions import Fraction

import numpy as np

from sofic_spectra.exact import ComplexRational
from sofic_spectra.operators import InducedOperator


def operator_of(a) -> InducedOperator:
    """The exact operator storing the nonzero entries of the square array a.

    An integer array is stored directly: its nonzeros in row-major order,
    with one value per distinct integer, numbered by first appearance.  A
    float or complex array goes through from_entries, each entry at its
    exact binary value.
    """
    a = np.asarray(a)
    rows, cols = np.nonzero(a)
    if not np.issubdtype(a.dtype, np.integer):
        return InducedOperator.from_entries(
            len(a), dict(zip(zip(rows.tolist(), cols.tolist()),
                             a[rows, cols].tolist())))
    distinct, first, codes = np.unique(a[rows, cols], return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return InducedOperator(
        len(a), rows, cols, rank[codes],
        tuple(ComplexRational(Fraction(int(v))) for v in distinct[order]))
