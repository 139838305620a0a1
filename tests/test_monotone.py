import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofic_spectra.exact import CZERO, ComplexRational, sum_abs_le
from sofic_spectra.groups import free_group, lattice_group
from sofic_spectra.measures import Alphabet, binary_alphabet
from sofic_spectra import monotone
from sofic_spectra.monotone import (
    MonotonicityError,
    RationalSchedule,
    ScheduleError,
    ValueSets,
    apply_schedule,
    build_schedule,
    _difference,
    _psd_step,
    gershgorin_psd,
    monotone_ids_report,
    value_sets_of,
)
from sofic_spectra.operators import (
    AssemblyError,
    InducedOperator,
    assemble_induced,
    diagonal_rule,
    schrodinger_rule,
    table_rule,
    validate_local_rule,
)
from sofic_spectra.sofic import (
    good_vertices,
    random_permutation_approximation,
    torus_approximation,
)
from sofic_spectra.spectral import eigen_spectrum

from dense_operators import hermitian_entries, operator_of, rule_tables

Z1 = lattice_group(1)
BIN = binary_alphabet()
ONE = Alphabet(symbols=("a",))


def crat(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def zero_config(n):
    return np.zeros(n, dtype=np.int64)


def schedule_step_psd_check(rule, sched, m, sigma, rho):
    """The certificate of step m -> m+1 of the schedule on (sigma, rho), as
    monotone_ids_report computes it for each step."""
    h_m = assemble_induced(apply_schedule(rule, sched, m), sigma, rho)
    h_next = assemble_induced(apply_schedule(rule, sched, m + 1), sigma, rho)
    return _psd_step(m, h_m, h_next)


def _max_gaps(report, n):
    """max over beta of (N_m - N_target) / n, indexed by depth - 1."""
    return (report.counts - report.target_counts).max(axis=1) / n


def _diagonal_schedule(rule, diagonals, gap_constant):
    """A hand-built schedule of a one-value diagonal rule: depth m + 1 takes
    diagonals[m], with none of build_schedule's checks."""
    vs = value_sets_of(rule)
    (f,) = vs.f1
    return RationalSchedule(len(diagonals), vs, gap_constant,
                            {(m, f): a for m, a in enumerate(diagonals, 1)},
                            {})


def test_value_sets_validation():
    with pytest.raises(ScheduleError):
        ValueSets(f1=(crat(0),), f2=(), max_offdiag_per_row=0)
    with pytest.raises(ScheduleError):
        ValueSets(f1=(crat(1, 1),), f2=(), max_offdiag_per_row=0)
    with pytest.raises(ScheduleError):
        ValueSets(f1=(), f2=(crat(0, 1),), max_offdiag_per_row=1)  # not conj-closed
    vs = ValueSets(f1=(crat(1),), f2=(crat(0, 1), crat(0, -1)),
                   max_offdiag_per_row=1)
    assert vs.positive_representatives() == [crat(0, 1)]


def test_dyadic_schedule_examples():
    vs = ValueSets(f1=(crat(1),), f2=(), max_offdiag_per_row=0)
    sched = build_schedule(vs, 3)
    assert sched.gap_constant == 1
    assert [sched.a[(m, crat(1))] for m in (1, 2, 3)] == \
        [Fraction(1, 2), Fraction(7, 8), Fraction(31, 32)]
    i_val = crat(0, 1)
    vs2 = ValueSets(f1=(crat(1),), f2=(i_val, crat(0, -1)),
                    max_offdiag_per_row=1)
    sched2 = build_schedule(vs2, 2)
    assert sched2.b[(1, i_val)] == crat(Fraction(1, 4), Fraction(5, 4))
    assert sched2.b[(2, i_val)] == crat(Fraction(1, 16), Fraction(17, 16))
    assert sched2.b[(1, crat(0, -1))] == \
        crat(Fraction(1, 4), Fraction(-5, 4))


def test_schedule_rational_target_increases_strictly():
    q = crat(Fraction(7, 5))
    sched = build_schedule(ValueSets(f1=(q,), f2=(), max_offdiag_per_row=0), 6)
    vals = [sched.a[(m, q)] for m in range(1, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < Fraction(7, 5) for v in vals)
    assert all(v != 0 for v in vals)


def test_schedule_zero_nudge():
    # f = 1/2, c = 1: floor(2)/4 - 2/4 = 0 lands on zero and gets nudged
    f = crat(Fraction(1, 2))
    sched = build_schedule(ValueSets(f1=(f,), f2=(), max_offdiag_per_row=0), 2)
    assert sched.a[(1, f)] == -Fraction(1, 16)
    assert sched.a[(2, f)] > sched.a[(1, f)]


def test_schedule_real_offdiagonal_stays_real():
    one = crat(1)
    vs = ValueSets(f1=(crat(-2),), f2=(one,), max_offdiag_per_row=2)
    sched = build_schedule(vs, 4)
    for m in range(1, 5):
        b = sched.b[(m, one)]
        assert b.is_real()
        assert b.re > 1
    assert sched.b[(4, one)].re - 1 == Fraction(1, 256)


def test_schedule_requires_diagonal_values():
    with pytest.raises(ScheduleError):
        build_schedule(ValueSets(f1=(), f2=(crat(1),), max_offdiag_per_row=1), 2)


def test_apply_schedule_diagonal():
    rule = diagonal_rule(Z1, ONE, [Fraction(1)])
    sched = build_schedule(value_sets_of(rule), 3)
    out = apply_schedule(rule, sched, 2)
    e = Z1.identity()
    assert rule_tables(out)[e][0] == crat(Fraction(7, 8))
    assert validate_local_rule(out) == []


def test_apply_schedule_zero_rule_vacuous():
    rule = table_rule(Z1, ONE, 0, [])
    sched = build_schedule(ValueSets(f1=(), f2=(), max_offdiag_per_row=0), 2)
    out = apply_schedule(rule, sched, 1)
    assert all(v.is_zero() for t in rule_tables(out).values()
               for v in t.tolist())


def test_apply_schedule_irrational_schrodinger():
    rule = schrodinger_rule(Z1, ONE, [math.sqrt(2)])
    sched = build_schedule(value_sets_of(rule), 3)
    target = -2 + math.sqrt(2)
    diags = []
    for m in (1, 2, 3):
        out = apply_schedule(rule, sched, m)
        assert validate_local_rule(out) == []
        diags.append(rule_tables(out)[Z1.identity()][0].re)
    assert all(b > a for a, b in zip(diags, diags[1:]))
    assert all(float(d) < target for d in diags)


@pytest.mark.parametrize("rule", [
    schrodinger_rule(Z1, BIN, [Fraction(2), math.sqrt(2)]),
    table_rule(Z1, ONE, 1, [((1,), (0, 0, 0), 1), ((-1,), (0, 0, 0), 1)]),
], ids=["zero on one symbol", "no diagonal table"])
def test_zero_diagonal_beside_hopping_is_scheduled(rule):
    # kept at 0, the diagonal of these rows could not absorb the drift of
    # their off-diagonal approximants, and no step would be positive
    vs = value_sets_of(rule)
    assert CZERO in vs.f1
    sched = build_schedule(vs, 3)
    for m in (1, 2, 3):
        out = apply_schedule(rule, sched, m)
        assert validate_local_rule(out) == []
        assert rule_tables(out)[Z1.identity()][0] == crat(
            sched.a[(m, CZERO)])
    sig = torus_approximation(1, 6)
    rho = np.array([0, 0, 0, 1, 1, 1]) % rule.alphabet.size
    # _psd_step raises ScheduleError on a step it cannot certify
    for m in (1, 2):
        schedule_step_psd_check(rule, sched, m, sig, rho)


def test_apply_schedule_value_mismatch():
    # the check stands before every read of the schedule's tables: neither
    # 2 nor the second rule's diagonal value -2 + 2 = 0 has an approximant
    mismatched = [
        (diagonal_rule(Z1, ONE, [Fraction(2)]),
         ValueSets(f1=(crat(1),), f2=(), max_offdiag_per_row=0)),
        (schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(2)]),
         value_sets_of(schrodinger_rule(Z1, BIN,
                                        [Fraction(0), Fraction(5, 3)]))),
    ]
    for rule, values in mismatched:
        with pytest.raises(ScheduleError, match="^rule value sets do not "
                                                "match the schedule$"):
            apply_schedule(rule, build_schedule(values, 2), 1)


def test_gershgorin_float_examples():
    assert gershgorin_psd(operator_of(np.eye(3)), strict=True) is None
    assert gershgorin_psd(operator_of(np.array([[2.0, 1.0],
                                                [1.0, 2.0]]))) is None
    indefinite = operator_of(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert gershgorin_psd(indefinite) == 0
    spec = eigen_spectrum(indefinite)
    assert np.allclose(spec.values, [-1, 3])


def test_gershgorin_exact_boundary():
    from sofic_spectra.operators import InducedOperator
    # |3+4i| = 5 exactly: boundary row certified non-strict only
    entries = {(0, 0): crat(5), (1, 1): crat(5),
               (0, 1): crat(3, 4), (1, 0): crat(3, -4)}
    op = InducedOperator.from_entries(2, entries)
    assert gershgorin_psd(op) is None
    assert gershgorin_psd(op, strict=True) == 0


DYADICS = st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(-16, 16),
                    st.integers(0, 4))


def _modulus_bound(v):
    """|v| where it is rational (as for 3/4 + i), else |Re v| + |Im v|."""
    a = v.abs2()
    root = Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))
    return root if root * root == a else abs(v.re) + abs(v.im)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), data=st.data(), strict=st.booleans(),
       low=st.sampled_from([Fraction(-1, 8), Fraction(0), Fraction(1, 8)]))
def test_gershgorin_soundness_against_eigensolver(n, data, strict, low):
    # each diagonal is a bound on its row's Gershgorin radius, exact where
    # the moduli are rational, plus a slack of low or low + 1/8
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=3 * n) if pairs else st.just([]))
    entries = {}
    for i, j in chosen:
        im = data.draw(st.just(Fraction(0)) | DYADICS)
        v = ComplexRational(data.draw(DYADICS), im)
        entries[i, j], entries[j, i] = v, v.conjugate()
    slack = [low + data.draw(st.sampled_from([0, Fraction(1, 8)]))
             for _ in range(n)]
    for i in range(n):
        radius = sum((_modulus_bound(v) for (row, _), v in entries.items()
                      if row == i), Fraction(0))
        entries[i, i] = ComplexRational(radius + slack[i])
    op = InducedOperator.from_entries(n, entries)
    witness = gershgorin_psd(op, strict=strict)
    if min(slack) > 0 or (min(slack) == 0 and not strict):
        assert witness is None
    if witness is None:
        spec = eigen_spectrum(op)
        scale = max(1.0, float(np.max(np.abs(spec.values))))
        assert spec.values[0] >= -1e-10 * scale


def test_schedule_step_psd_diagonal_rule():
    rule = diagonal_rule(Z1, BIN, [Fraction(1), Fraction(3)])
    sched = build_schedule(value_sets_of(rule), 4)
    sig = torus_approximation(1, 10)
    rho = np.arange(10) % 2
    for m in (1, 2, 3):
        assert schedule_step_psd_check(rule, sched, m, sig, rho) > 0


def test_schedule_step_handbuilt_constant_offdiagonal():
    # hand-built schedule keeping rational off-diagonals fixed: differences
    # are diagonal and positive
    rule = schrodinger_rule(Z1, ONE, [Fraction(1)])
    vs = value_sets_of(rule)
    one = crat(1)
    f = crat(-1)
    sched = RationalSchedule(
        3, vs, Fraction(1),
        {(m, f): Fraction(-1) - Fraction(1, 2 ** m) for m in (1, 2, 3)},
        {(m, one): one for m in (1, 2, 3)})
    sig = torus_approximation(1, 8)
    assert schedule_step_psd_check(rule, sched, 1, sig, zero_config(8)) > 0


def test_schedule_step_zero_rows_allowed():
    # torus(1,4) has no 2-good vertices: differences are identically zero,
    # still PSD (strict dominance on no stored row is vacuous)
    rule = schrodinger_rule(Z1, ONE, [Fraction(1)])
    sched = build_schedule(value_sets_of(rule), 2)
    sig = torus_approximation(1, 4)
    assert schedule_step_psd_check(rule, sched, 1, sig, zero_config(4)) == 0.0
    h_1, h_2 = (assemble_induced(apply_schedule(rule, sched, m), sig,
                                 zero_config(4)) for m in (1, 2))
    assert len(_difference(h_2, h_1).rows) == 0


def test_strict_gershgorin_decides_only_the_stored_rows():
    # row 1 stores nothing: a zero row and column, whose unit vector is a
    # 0-eigenvector beside the positive definite block on rows 0 and 2
    two, one = crat(2), crat(1)
    op = InducedOperator.from_entries(3, {(0, 0): two, (0, 2): one,
                                          (2, 0): one, (2, 2): two})
    assert gershgorin_psd(op, strict=True) is None
    assert np.allclose(eigen_spectrum(op).values, [0, 1, 3])
    assert not op.to_dense()[:, 1].any()
    # a stored row of zeros is decided, and fails strict dominance
    stored_zero = InducedOperator.from_entries(
        3, {(0, 0): two, (1, 1): crat(0), (2, 2): two})
    assert gershgorin_psd(stored_zero, strict=True) == 1
    assert gershgorin_psd(stored_zero) is None


def test_schedule_step_certified_beside_vertices_that_are_not_good():
    # the rows of vertices that are not 2-good are empty in every depth, so
    # their difference rows are too, and the step is certified on the rest
    f2 = free_group(2)
    rule = schrodinger_rule(f2, BIN, [Fraction(0), Fraction(5, 3)])
    sched = build_schedule(value_sets_of(rule), 2)
    sig = random_permutation_approximation(2, 200, 0)
    assert good_vertices(sig, 2).fraction < 1
    rho = np.arange(200) % 2
    h_1, h_2 = (assemble_induced(apply_schedule(rule, sched, m), sig, rho)
                for m in (1, 2))
    assert len(np.unique(_difference(h_2, h_1).rows)) < 200
    assert abs(schedule_step_psd_check(rule, sched, 1, sig, rho)) < 1e-9


def test_monotone_report_sqrt2():
    rule = schrodinger_rule(Z1, ONE, [math.sqrt(2)])
    sched = build_schedule(value_sets_of(rule), 6)
    sig = torus_approximation(1, 64)
    grid = np.linspace(-5, 2, 141)
    rep = monotone_ids_report(rule, sched, sig, zero_config(64), grid)
    assert all(e > 0 for e in rep.step_min_eigenvalues)
    gaps = _max_gaps(rep, 64)
    assert gaps[-1] <= gaps[0]
    assert gaps[5] <= 0.05
    norm_gaps = np.array(rep.norm_gaps)
    assert (norm_gaps <= rep.norm_bounds).all()
    assert (np.diff(norm_gaps) < 0).all()


def test_monotone_report_rational_target():
    rule = schrodinger_rule(Z1, ONE, [Fraction(3, 2)])
    sched = build_schedule(value_sets_of(rule), 8)
    sig = torus_approximation(1, 32)
    grid = np.linspace(-4, 4, 81)
    rep = monotone_ids_report(rule, sched, sig, zero_config(32), grid)
    assert _max_gaps(rep, 32)[7] <= 0.07


@settings(max_examples=15, deadline=None)
@given(potential=st.lists(st.fractions(-3, 3, max_denominator=8), min_size=1,
                          max_size=2),
       m_max=st.integers(2, 4), side=st.integers(3, 12),
       seed=st.integers(0, 2**16))
def test_weyl_monotonicity_along_random_schedules(potential, m_max, side,
                                                  seed):
    # small rationals plus the float target sqrt(2), one per symbol
    alphabet = Alphabet(symbols=tuple("abc"[:len(potential) + 1]))
    rule = schrodinger_rule(Z1, alphabet, potential + [math.sqrt(2)])
    sched = build_schedule(value_sets_of(rule), m_max)
    sig = torus_approximation(1, side)
    rho = np.random.default_rng(seed).integers(0, alphabet.size, side)
    grid = np.linspace(-4, 6, 41)
    rep = monotone_ids_report(rule, sched, sig, rho, grid)
    assert len(rep.step_min_eigenvalues) == m_max - 1
    assert rep.counts.shape == (m_max, len(grid))
    # H_m <= H_{m+1} <= H, so N_{m+1} <= N_m and N_m >= N_target at every beta
    assert (np.diff(rep.counts, axis=0) <= 0).all()
    assert (rep.counts >= rep.target_counts).all()


def test_monotone_diagonal_counting_jumps():
    rule = diagonal_rule(Z1, ONE, [Fraction(1)])
    sched = build_schedule(value_sets_of(rule), 4)
    sig = torus_approximation(1, 6)
    grid = [0.9]
    rep = monotone_ids_report(rule, sched, sig, zero_config(6), grid)
    # a(m) crosses 0.9 between m=2 (7/8) and m=3 (31/32)
    assert rep.counts[:, 0].tolist() == [6, 6, 0, 0]


def test_monotone_report_raises_on_the_first_rise(monkeypatch):
    # diagonals that fall with depth: N_2 rises at beta = 0 and N_3 at
    # beta = -1; with the step certificate bypassed, the first rise in
    # depth-then-grid order is named
    monkeypatch.setattr(monotone, "_psd_step", lambda m, h_m, h_next: 0.0)
    rule = diagonal_rule(Z1, ONE, [Fraction(1)])
    sched = _diagonal_schedule(rule, [Fraction(1, 2), Fraction(-1, 2),
                                      Fraction(-3, 2)], Fraction(1000))
    with pytest.raises(MonotonicityError) as err:
        monotone_ids_report(rule, sched, torus_approximation(1, 6),
                            zero_config(6), [-1.0, 0.0, 1.0])
    assert str(err.value) == ("N_2(0.0) = 6 > N_1(0.0) = 0 despite "
                              "certified PSD steps")


def test_monotone_report_raises_on_a_norm_gap_beyond_its_bound():
    # every depth sits 11 below the target 1, far beyond the dyadic bound
    # 4 * 4^-m of gap constant 1; the steps are zero and certified
    rule = diagonal_rule(Z1, ONE, [Fraction(1)])
    sched = _diagonal_schedule(rule, [Fraction(-10)] * 2, Fraction(1))
    with pytest.raises(ScheduleError, match="exceeds the dyadic bound .* "
                                            "at depth 1"):
        monotone_ids_report(rule, sched, torus_approximation(1, 6),
                            zero_config(6), [0.0])


def test_schedule_step_raises_where_the_drift_beats_the_gap():
    # the off-diagonal falls by 1 between depths 1 and 2 while the diagonal
    # rises by 1/4: no row of the step is strictly dominant
    rule = schrodinger_rule(Z1, ONE, [Fraction(1)])
    vs = value_sets_of(rule)
    one, f = crat(1), crat(-1)
    sched = RationalSchedule(
        2, vs, Fraction(1),
        {(1, f): Fraction(-3, 2), (2, f): Fraction(-5, 4)},
        {(1, one): crat(2), (2, one): one})
    with pytest.raises(ScheduleError, match="step 1->2 failed strict "
                                            "certification .* schedule bug"):
        schedule_step_psd_check(rule, sched, 1, torus_approximation(1, 8),
                                zero_config(8))


def _per_entry_difference(a, b):
    """The per-entry loop _difference replaced: a new value for every entry."""
    entries = {}
    for key in set(a.entries) | set(b.entries):
        av = a.entries.get(key, crat(0))
        bv = b.entries.get(key, crat(0))
        if not isinstance(av, ComplexRational):
            av = crat(av)
        if not isinstance(bv, ComplexRational):
            bv = crat(bv)
        if not (av - bv).is_zero():
            entries[key] = av - bv
    return entries


def _exact_op(n, entries):
    return InducedOperator.from_entries(n, entries)


def test_difference_shares_one_value_per_pair_of_objects():
    x, y, z = crat(1), crat(1), crat(Fraction(1, 2))
    a = _exact_op(5, {(0, 0): x, (1, 1): x, (2, 2): x, (3, 3): x,
                      (0, 1): crat(0, 1), (1, 0): crat(0, -1)})
    b = _exact_op(5, {(2, 2): z, (0, 0): y, (1, 1): z, (3, 3): z,
                      (4, 4): Fraction(2), (0, 1): crat(0, 1),
                      (1, 0): crat(0, -1)})
    d = _difference(a, b)
    assert dict(d.entries) == _per_entry_difference(a, b)
    assert list(d.entries) == sorted(d.entries)
    assert (0, 0) not in d.entries            # x - y is zero
    assert (0, 1) not in d.entries and (1, 0) not in d.entries
    assert d.entries[(1, 1)] is d.entries[(2, 2)] is d.entries[(3, 3)]


def test_difference_of_schedule_depths_matches_per_entry_loop():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sched = build_schedule(value_sets_of(rule), 4)
    sig = torus_approximation(1, 40)
    rho = np.arange(40) % 3 % 2
    ops = [assemble_induced(apply_schedule(rule, sched, m), sig, rho)
           for m in (1, 2)]
    d = _difference(ops[1], ops[0])
    assert dict(d.entries) == _per_entry_difference(ops[1], ops[0])
    assert list(d.entries) == sorted(d.entries)
    # one object per pair of rule value objects, not one per entry
    pairs = {(id(ops[1].entries.get(k)), id(ops[0].entries.get(k)))
             for k in d.entries}
    assert len({id(v) for v in d.entries.values()}) == len(pairs) < 10


def _per_entry_norm(a, b):
    """Row-sum norm of a - b by a per-entry loop: each exact difference's
    magnitude as a float, each row summed in ascending column order."""
    sums = np.zeros(a.n)
    for (i, j), v in sorted(_per_entry_difference(a, b).items()):
        sums[i] += float(v.abs2()) ** 0.5
    return float(sums.max()) if a.n else 0.0


DIFF_VALUES = [crat(1), crat(-1), crat(Fraction(1, 3)), crat(Fraction(2, 7), 1),
               crat(0, Fraction(-5, 3)), crat(Fraction(10**20 + 1, 3)),
               crat(Fraction(1, 2**53))]


def _random_exact_op(data, n, pairs=None):
    return _exact_op(n, data.draw(hermitian_entries(n, DIFF_VALUES, pairs)))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 7), data=st.data(), layout=st.sampled_from(
           ["overlapping", "disjoint", "equal support"]), float_b=st.booleans())
def test_merged_difference_and_norm_match_per_entry_loops(n, data, layout,
                                                          float_b):
    a = _random_exact_op(data, n)
    if layout == "disjoint":
        b = _random_exact_op(data, n, [(i, j) for i in range(n)
                                       for j in range(i, n)
                                       if (i, j) not in a.entries])
    elif layout == "equal support":
        # some conjugate pairs cancel to zero, some do not
        entries = {}
        for (i, j), v in a.entries.items():
            if i <= j:
                if not data.draw(st.booleans()):
                    v = data.draw(st.sampled_from(DIFF_VALUES))
                    v = crat(v.re) if i == j else v
                entries[i, j], entries[j, i] = v, v.conjugate()
        b = _exact_op(n, entries)
    else:
        b = _random_exact_op(data, n)
    d = _difference(a, b)
    assert dict(d.entries) == _per_entry_difference(a, b)
    assert list(d.entries) == sorted(d.entries)
    if float_b:
        # b rebuilt from its float images, at their exact binary values
        b = InducedOperator.from_entries(
            n, {key: v.to_complex() for key, v in b.entries.items()})
    assert _difference(a, b).row_sum_bound().hex() == \
        _per_entry_norm(a, b).hex()


def test_difference_norm_sums_rows_in_ascending_column_order():
    # 1 + 2^-53 + 2^-53 rounds to 1; 2^-53 + 2^-53 + 1 would be 1 + 2^-52
    tiny = crat(Fraction(1, 2**53))
    a = _exact_op(3, {(0, 2): tiny, (0, 0): crat(1), (0, 1): tiny,
                      (1, 0): tiny, (2, 0): tiny})
    assert _difference(a, _exact_op(3, {})).row_sum_bound() == 1.0


def test_difference_norm_of_schedule_depths_matches_per_entry_loop():
    rule = schrodinger_rule(Z1, BIN, [Fraction(0), Fraction(5, 3)])
    sched = build_schedule(value_sets_of(rule), 5)
    sig = torus_approximation(1, 40)
    rho = np.arange(40) % 3 % 2
    target = assemble_induced(rule, sig, rho)
    for m in range(1, 6):
        op = assemble_induced(apply_schedule(rule, sched, m), sig, rho)
        assert _difference(op, target).row_sum_bound().hex() == \
            _per_entry_norm(op, target).hex()


def _ref_outcome(op, strict):
    """The per-row loop that row-pattern deduplication replaced, over the
    rows that store an entry, in ascending order."""
    rows, diag = {}, {}
    for (i, j), v in op.entries.items():
        off = rows.setdefault(i, [])
        if i == j:
            diag[i] = v.re
        else:
            off.append(v)
    for i, off in rows.items():
        if not sum_abs_le(off, diag.get(i, Fraction(0)), strict=strict):
            return i
    return None


# |1+i| and |1/2+i/3| are irrational, |3+4i| = 5 is not
OFF_VALUES = [crat(1), crat(-1), crat(1, 1), crat(Fraction(1, 2), Fraction(1, 3)),
              crat(3, 4), crat(0, Fraction(-1, 2))]
DIAG_VALUES = [crat(0), crat(1), crat(2), crat(Fraction(5, 2)), crat(5),
               crat(Fraction(29, 4)), Fraction(3)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 12), data=st.data(), strict=st.booleans())
def test_exact_gershgorin_matches_per_row_loop(n, data, strict):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=2 * n) if pairs else st.just([]))
    entries = {}
    for i in range(n):
        d = data.draw(st.sampled_from(DIAG_VALUES + [None]))
        if d is not None:
            entries[i, i] = d
    for i, j in chosen:
        v = data.draw(st.sampled_from(OFF_VALUES))
        entries[i, j] = v
        entries[j, i] = v.conjugate()
    op = InducedOperator.from_entries(n, entries)
    assert gershgorin_psd(op, strict=strict) == _ref_outcome(op, strict)


def test_exact_gershgorin_row_patterns_and_errors():
    def op(entries, n=4):
        return InducedOperator.from_entries(n, entries)

    # rows 0 and 2 share their off-diagonal pattern, not their diagonal
    hop = {(0, 1): crat(1), (1, 0): crat(1), (2, 3): crat(1), (3, 2): crat(1)}
    same_offdiag = op({**hop, (0, 0): crat(2), (1, 1): crat(5),
                       (2, 2): crat(Fraction(1, 2)), (3, 3): crat(5)})
    # rows 0 and 1 share everything but pass only non-strictly
    boundary = op({**hop, (0, 0): crat(1), (1, 1): crat(1),
                   (2, 2): crat(2), (3, 3): crat(2)})
    # rows 0 and 2 share their diagonal and off-diagonal values, but row 2
    # holds the value 1 twice
    path = {(0, 1): crat(1), (1, 0): crat(1), (1, 2): crat(1),
            (2, 1): crat(1), (2, 3): crat(1), (3, 2): crat(1)}
    multiset = op({**path, (0, 0): crat(Fraction(3, 2)), (1, 1): crat(5),
                   (2, 2): crat(Fraction(3, 2)), (3, 3): crat(5)})
    for case in (same_offdiag, boundary, multiset):
        for strict in (False, True):
            assert gershgorin_psd(case, strict=strict) == _ref_outcome(
                case, strict)
    assert gershgorin_psd(same_offdiag) == 2
    assert gershgorin_psd(multiset) == 2
    assert gershgorin_psd(boundary) is None
    assert gershgorin_psd(boundary, strict=True) == 0
    # a non-real diagonal is refused when the operator is built, so no
    # certificate ever reads one
    with pytest.raises(AssemblyError, match=r"Hermitian symmetry violated "
                                            r"at entry pair \(1,1\)$"):
        op({(0, 0): crat(1), (1, 1): crat(1, 1)}, n=2)
