"""Exact operators from dense arrays, for tests that build matrices directly,
random Hermitian entry dicts, for property tests of exact operators, and a
rule's coefficient tables, for tests that read them cell by cell.

Not a test module; the test modules import it by name.
"""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from sofic_spectra.exact import ComplexRational
from sofic_spectra.operators import InducedOperator, LocalRule


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


@st.composite
def hermitian_entries(draw, n, values, pairs=None) -> dict:
    """A random Hermitian (row, col) -> ComplexRational dict on n vertices.

    Some of the pairs i <= j (all of them by default) each draw a value v
    from values: (i, j) holds v and (j, i) its conjugate, and a diagonal
    entry holds the real part of v.  Stored zeros are kept.
    """
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    entries = {}
    for i, j in chosen:
        v = draw(st.sampled_from(values))
        if i == j:
            entries[i, i] = ComplexRational(v.re)
        else:
            entries[i, j], entries[j, i] = v, v.conjugate()
    return entries


def rule_tables(rule: LocalRule) -> dict:
    """Ball element g -> object array of c(g, w) by window code w:
    rule.values[rule.codes[i][w]] for the i-th element."""
    values = np.fromiter(rule.values, dtype=object, count=len(rule.values))
    return dict(zip(rule.elements, values[rule.codes]))
