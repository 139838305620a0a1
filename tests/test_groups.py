import pytest

import sofic_spectra.groups as groups_module
from sofic_spectra.groups import (
    BallCapacityError,
    GroupSpec,
    GroupValidationError,
    ball,
    free_group,
    lattice_group,
)

from window_references import PatternWindow, translate_window, word_length


def test_lattice_ball_counts():
    z1 = lattice_group(1)
    b = ball(z1, 3)
    assert len(b) == 7
    assert b.elements == tuple((k,) for k in range(-3, 4))
    z2 = lattice_group(2)
    assert len(ball(z2, 1)) == 5
    # exact lattice ball count by dynamic programming
    for d in (1, 2, 3):
        g = lattice_group(d)
        for radius in range(4):
            assert len(ball(g, radius)) == _lattice_ball_dp(d, radius)


def _lattice_ball_dp(d, radius):
    # vectors of L1 norm exactly r, one coordinate at a time
    table = [1] + [0] * radius
    for _ in range(d):
        new = []
        for r in range(radius + 1):
            total = table[r]
            for a in range(1, r + 1):
                total += 2 * table[r - a]
            new.append(total)
        table = new
    return sum(table) if d > 0 else 1


def test_free_ball_counts():
    f2 = free_group(2)
    assert len(ball(f2, 2)) == 17
    r = 2
    for radius in range(5):
        expected = 1 + 2 * r * ((2 * r - 1) ** radius - 1) // (2 * r - 2) \
            if radius else 1
        assert len(ball(f2, radius)) == expected


def test_multiply_examples():
    z2 = lattice_group(2)
    assert z2.multiply((1, 0), (0, 1)) == (1, 1)
    f2 = free_group(2)
    a, ainv, b, binv = (0,), (1,), (2,), (3,)
    assert f2.multiply(a, ainv) == ()
    # (ab)(b^-1 a) = a^2
    ab = f2.multiply(a, b)
    binv_a = f2.multiply(binv, a)
    assert f2.multiply(ab, binv_a) == (0, 0)
    assert f2.inverse((0, 2)) == (3, 1)


def test_word_length_reference_examples():
    assert word_length(free_group(2), (0, 2, 0)) == 3
    assert word_length(lattice_group(2), (2, -3)) == 5


def test_ball_edge_labels_involution():
    f2 = free_group(2)
    b = ball(f2, 2)
    edges = {(i, j): s for (i, j, s) in b.edges}
    for (i, j), s in edges.items():
        assert edges[(j, i)] == f2.inverse_generator_index(s)


def test_word_metric_matches_ball_bfs():
    # BFS distance inside B(e,4) equals |g h^-1| from normal forms
    for group in (lattice_group(2), free_group(2)):
        b = ball(group, 4)
        # the BFS word lengths are the closed-form ones
        assert b.word_lengths == tuple(word_length(group, g)
                                       for g in b.elements)
        adj = {i: [] for i in range(len(b))}
        for (i, j, _) in b.edges:
            adj[i].append(j)
        for src in range(0, len(b), 7):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            g = b.elements[src]
            for tgt, d in dist.items():
                h = b.elements[tgt]
                expected = word_length(
                    group, group.multiply(h, group.inverse(g)))
                assert d == expected


def test_ball_capacity_error(monkeypatch):
    monkeypatch.setattr(groups_module, "DEFAULT_BALL_CAPACITY", 100)
    # B(e, 6) of F_7 has over 5 * 10^6 elements: the search stops at the
    # capacity instead of building it
    with pytest.raises(BallCapacityError, match="exceeds capacity 100$"):
        ball(free_group(7), 6)


def test_a_cached_ball_is_checked_on_every_call(monkeypatch):
    assert len(ball(free_group(2), 3)) == 53
    monkeypatch.setattr(groups_module, "DEFAULT_BALL_CAPACITY", 10)
    for radius in (3, 4):
        with pytest.raises(BallCapacityError,
                           match=f"B\\(e,{radius}\\) exceeds capacity 10$"):
            ball(free_group(2), radius)


def test_translate_window_examples():
    z1 = lattice_group(1)
    w = PatternWindow(radius=2, values=tuple(range(5)))  # values at -2..2
    same = translate_window(z1, (0,), w, 2)
    assert same == w
    shifted = translate_window(z1, (1,), w, 1)
    # value at h is w(h+1): positions -1,0,1 -> w(0), w(1), w(2)
    assert shifted.values == (2, 3, 4)
    f2 = free_group(2)
    const = PatternWindow(radius=2, values=(7,) * 17)
    out = translate_window(f2, (0,), const, 1)
    assert set(out.values) == {7}


def test_translate_window_composition():
    # t_g(t_h(w)) = t_{g h}(w) where defined (shift is a left action)
    f2 = free_group(2)
    big = ball(f2, 4)
    w = PatternWindow(radius=4, values=tuple(range(len(big))))
    g, h = (0,), (2,)
    lhs = translate_window(f2, g, translate_window(f2, h, w, 3), 2)
    rhs = translate_window(f2, f2.multiply(g, h), w, 2)
    assert lhs == rhs


def test_translate_window_radius_error():
    z1 = lattice_group(1)
    w = PatternWindow(radius=1, values=(0, 0, 0))
    with pytest.raises(ValueError):
        translate_window(z1, (1,), w, 1)


def test_group_constructors_refuse_bad_parameters():
    with pytest.raises(GroupValidationError):
        lattice_group(0)
    with pytest.raises(GroupValidationError):
        free_group(0)
    with pytest.raises(GroupValidationError):
        GroupSpec(kind="finite")
