"""The ball weight snapshot: assembly, prefixes, invariants, and consistency.

Property tests draw random finite directed graphs, including negative
directed weights and pairs whose symmetric weight is not positive, and check
the snapshot-derived operators against the edge-by-edge dense oracle.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dirlap
from dirlap import (GraphGenerator, InconsistentAdjacencyError, SimConfig,
                    TruncatedOperator, ball, builtin_graph, evolve,
                    generator_from_edges)

from helpers import (BUILTINS, assert_same_ball, both_steps, counted, dense_laplacian,
                     finite_graphs, k2_generator)

PARTS = ("full", "sym", "skew")

def measure_oracle(gen, v) -> float:
    out, inn = gen.adjacency(v)
    return sum(max((out.get(u, 0.0) + inn.get(u, 0.0)) / 2.0, 0.0)
               for u in set(out) | set(inn))


@given(finite_graphs(), st.integers(min_value=0, max_value=4))
def test_snapshot_assembly_matches_dense_oracle(gen, r):
    b = ball(gen, gen.root, r)
    op = TruncatedOperator(b)
    for part in PARTS:
        np.testing.assert_allclose(op.dense(part), dense_laplacian(gen, b, part),
                                   rtol=0, atol=1e-14)
    np.testing.assert_allclose(b.measures, [measure_oracle(gen, v) for v in b.vertices],
                               rtol=0, atol=1e-14)


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_prefix_equals_smaller_ball(gen, r, extra):
    cut = ball(gen, gen.root, r + extra).prefix(r)
    direct = ball(gen, gen.root, r)
    assert cut.radius == direct.radius
    assert cut.vertices == direct.vertices
    assert cut.index == direct.index
    assert np.array_equal(cut.distances, direct.distances)
    assert np.array_equal(cut.measures, direct.measures)
    a, c = TruncatedOperator(cut), TruncatedOperator(direct)
    for part in PARTS:
        assert np.array_equal(a.dense(part), c.dense(part))


@given(finite_graphs(), st.integers(min_value=0, max_value=4))
def test_rows_sum_to_zero_and_sym_is_symmetric(gen, r):
    op = TruncatedOperator(ball(gen, gen.root, r))
    for part in PARTS:
        m = op.dense(part)
        assert np.abs(m.sum(axis=1)).max() <= 1e-13 * max(1.0, np.abs(m).max())
    sym = op.dense("sym")
    off = sym - np.diag(np.diag(sym))
    assert np.array_equal(off, off.T)


def test_late_neighbour_without_symmetric_weight_is_kept():
    # (0,) reaches (2,) only through (1,); the direct pair has w(0,2) = 1 and
    # w(2,0) = -1, so it carries no symmetric weight but a full one.
    g = generator_from_edges({((0,), (1,)): 1.0, ((1,), (0,)): 1.0,
                              ((1,), (2,)): 1.0, ((2,), (1,)): 1.0,
                              ((0,), (2,)): 1.0, ((2,), (0,)): -1.0}, root=(0,))
    b = ball(g, (0,), 2)
    assert b.vertices == [(0,), (1,), (2,)]
    full = TruncatedOperator(b).dense("full")
    assert full[0, 2] == 1.0 and full[2, 0] == -1.0
    assert np.array_equal(full, dense_laplacian(g, b, "full"))


def test_zero_weights_are_not_stored():
    # a symmetric graph has no skew weight: only the diagonal is stored
    b = ball(builtin_graph("z-lattice", d=2), (0, 0), 3)
    op = TruncatedOperator(b)
    assert op.matrix("skew").nnz == len(b)
    assert op.matrix("sym").nnz == len(b) + int((b.nbr >= 0).sum())


def test_prefix_radius_out_of_range():
    b = ball(builtin_graph("z-lattice", d=2), (0, 0), 3)
    assert b.prefix(3) is b
    with pytest.raises(ValueError):
        b.prefix(4)
    with pytest.raises(ValueError):
        b.prefix(-1)


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_ball_of_a_snapshot(gen, r, extra):
    g, reads = counted(gen)
    snap = ball(g, g.root, r + extra)
    reads.clear()
    for radius in range(r + extra + 1):
        assert_same_ball(ball(snap, snap.center, radius), snap.prefix(radius))
    assert reads == []
    # another center is cut from the snapshot, a larger radius read through its generator
    for center in snap.vertices[1:3]:
        assert_same_ball(ball(snap, center, r), ball(gen, center, r))
    assert_same_ball(ball(snap, snap.center, r + extra + 1),
                     ball(gen, gen.root, r + extra + 1))


def held_balls(snap) -> list:
    """Every ``(center, r)`` whose ball ``snap`` holds: ``dist(center) + r <= snap.radius``."""
    return [(c, r) for c, d in zip(snap.vertices, snap.distances.tolist())
            for r in range(snap.radius - d + 1)]


@pytest.mark.parametrize("name, params", BUILTINS, ids=[f"{n}{p}" for n, p in BUILTINS])
def test_held_balls_are_cut_on_both_steps(monkeypatch, name, params):
    gen = builtin_graph(name, **params)
    radius = 3 if params.get("d", 2) > 2 else 5

    def compare():
        snap = ball(gen, gen.root, radius)
        for c, r in held_balls(snap):
            assert_same_ball(ball(snap, c, r), ball(gen, c, r))

    both_steps(monkeypatch, compare)


@given(finite_graphs(), st.integers(min_value=0, max_value=4))
def test_held_balls_are_cut_without_a_read(gen, radius):
    g, reads = counted(gen)
    snap = ball(g, g.root, radius)
    reads.clear()
    cuts = [(c, r, ball(snap, c, r)) for c, r in held_balls(snap)]
    assert reads == []
    for c, r, cut in cuts:
        assert_same_ball(cut, ball(gen, c, r))


def outside_oracle(gen, b) -> list:
    """Every ``gen.edges`` neighbour of each ball vertex that lies outside the ball, in entry order."""
    return [u for v in b.vertices for u in sorted(set().union(*gen.edges(v))) if u not in b]


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_outside_lists_every_neighbour_past_the_ball(gen, r, extra):
    g, reads = counted(gen)
    snap = ball(g, g.root, r + extra)
    for b in [snap, snap.prefix(r)] + [ball(snap, c, k) for c, k in held_balls(snap)]:
        reads.clear()
        assert b.outside() == outside_oracle(gen, b)
        # only the rows that hold an outside entry are read again
        assert reads == [b.vertices[i] for i in np.unique(b.entry_rows()[b.nbr < 0])]
        if b.distances[-1] < b.radius:  # the walk exhausted its component
            away = b.nbr < 0  # so only pairs it does not follow lead out
            assert np.all((b.w_out[away] + b.w_in[away]) / 2.0 <= 0.0)


def test_outside_of_an_exhausted_walk_is_empty():
    b = ball(k2_generator(), (0,), 3)
    assert b.vertices == [(0,), (1,)] and b.outside() == []
    # a pair of symmetric weight 0 is not walked, so its far end stays outside
    g = generator_from_edges({((0,), (1,)): 1.0, ((1,), (0,)): 1.0, ((1,), (2,)): 0.5,
                              ((2,), (1,)): -0.5}, root=(0,))
    assert ball(g, (0,), 3).outside() == [(2,)]


@pytest.mark.parametrize("name, params", BUILTINS, ids=[f"{n}{p}" for n, p in BUILTINS])
def test_outside_of_builtin_balls_on_both_steps(monkeypatch, name, params):
    gen = builtin_graph(name, **params)
    radius = 3 if params.get("d", 2) > 2 else 5

    def outsides():
        snap = ball(gen, gen.root, radius)
        balls = [snap, snap.prefix(radius - 2), ball(snap, snap.vertices[1], radius - 1)]
        return [(b.outside(), outside_oracle(gen, b)) for b in balls]

    for found in both_steps(monkeypatch, outsides):
        for got, expected in found:
            assert got == expected and expected


@pytest.mark.parametrize("center, r", [((4, 0), 1), ((1, 0), 3)],
                         ids=["center-outside", "radius-one-too-large"])
def test_balls_the_snapshot_does_not_hold_are_read(center, r):
    gen = builtin_graph("z-lattice", d=2)
    g, reads = counted(gen)
    snap = ball(g, g.root, 3)
    reads.clear()
    b = ball(snap, center, r)
    assert_same_ball(b, ball(gen, center, r))
    assert sorted(reads) == sorted(b.vertices)


def test_integer_weights_read_as_floats(monkeypatch):
    g = builtin_graph("z2-advection")

    def adjacency(v):
        out, inn = g.adjacency(v)
        return ({u: int(w) for u, w in out.items()},
                {u: int(w) for u, w in inn.items()})

    twin = GraphGenerator(adjacency=adjacency, root=g.root, name=g.name)
    assert type(next(iter(twin.adjacency(g.root)[0].values()))) is int
    assert_same_ball(ball(twin, g.root, 6), ball(g, g.root, 6))
    a, b = dirlap.estimate_skew_mass(twin, 30), dirlap.estimate_skew_mass(g, 30)
    assert a.w_partial == b.w_partial and a.last_contributions == b.last_contributions
    monkeypatch.setattr(dirlap.hypotheses, "_ALPHA_RADIUS", 3)
    monkeypatch.setattr(dirlap.hypotheses, "_PI_RADII", (1, 2))
    kw = dict(r_min=2, r_max=5, max_shells=10)
    assert dirlap.check_hypotheses(twin, **kw) == dirlap.check_hypotheses(g, **kw)


def planted_line():
    """Integer line where (3,) over-reports the weight of the edge from (2,)."""
    def adjacency(v):
        (n,) = v
        out = {(n + 1,): 1.0, (n - 1,): 1.0}
        inn = {(n + 1,): 1.0, (n - 1,): 2.0 if n == 3 else 1.0}
        return out, inn

    return GraphGenerator(adjacency=adjacency, root=(0,), name="planted")


def test_planted_inconsistency_fails_evolve():
    cfg = SimConfig(t_max=1.0, sample_times=[1.0], c_speed=2.0)
    with pytest.raises(InconsistentAdjacencyError) as err:
        evolve(planted_line(), {(0,): 1.0}, cfg, part="sym")
    assert set(err.value.pair) == {(2,), (3,)}
    assert "(2,)" in str(err.value) and "(3,)" in str(err.value)
    assert isinstance(err.value, dirlap.DirlapError)


def test_missing_partner_entry_is_inconsistent():
    def adjacency(v):
        (n,) = v
        out = {(n + 1,): 1.0, (n - 1,): 1.0}
        inn = {(n + 1,): 1.0, (n - 1,): 1.0}
        if n == 1:
            out[(5,)] = 0.5  # (5,) never reports an edge from (1,)
        return out, inn

    g = GraphGenerator(adjacency=adjacency, root=(0,), name="one-sided")
    with pytest.raises(InconsistentAdjacencyError) as err:
        ball(g, (0,), 2)
    assert set(err.value.pair) == {(1,), (5,)}


def test_inconsistency_beyond_the_ball_is_not_seen():
    assert len(ball(planted_line(), (0,), 2)) == 5


@given(finite_graphs(), st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                                 max_size=4))
def test_a_grown_ball_is_the_ball_read_in_one_call(gen, steps):
    # grown in steps of 0, 1 or 2 shells, each vertex read once, past the component too
    g, reads = counted(gen)
    b = ball(g, g.root, 0, grow=True)
    r = 0
    for step in steps:
        r += step
        assert b.extend(r) is b
        assert_same_ball(b, ball(gen, gen.root, r))
    assert sorted(reads) == sorted(b.vertices)


@pytest.mark.parametrize("name, params", BUILTINS, ids=[f"{n}{p}" for n, p in BUILTINS])
def test_grown_builtin_balls_on_both_steps(monkeypatch, name, params):
    gen = builtin_graph(name, **params)

    def compare():
        b = ball(gen, gen.root, 1, grow=True)
        for r in (2, 3, 5, 8):
            b.extend(r)
            assert_same_ball(b, ball(gen, gen.root, r))

    both_steps(monkeypatch, compare)


def long_edge_line(reports):
    """The line with an edge of zero symmetric weight, w(0,4) = 1 and w(4,0) = -1.

    ``reports`` names the endpoints, ``(0,)`` and/or ``(4,)``, that report it.
    """
    def adjacency(v):
        (n,) = v
        out = {(n + 1,): 1.0, (n - 1,): 1.0}
        inn = {(n + 1,): 1.0, (n - 1,): 1.0}
        if v in reports and n in (0, 4):
            far = (4 - n,)
            out[far], inn[far] = (1.0, -1.0) if n == 0 else (-1.0, 1.0)
        return out, inn

    return GraphGenerator(adjacency=adjacency, root=(0,), name="long-edge")


def test_growth_places_an_edge_to_an_old_row():
    # (0,) reads its edge to (4,) four shells before (4,) joins the ball
    g = long_edge_line({(0,), (4,)})
    b = ball(g, (0,), 1, grow=True)
    for r in range(2, 6):
        b.extend(r)
        assert_same_ball(b, ball(g, (0,), r))
    full = TruncatedOperator(b).dense("full")
    assert full[b.index[(0,)], b.index[(4,)]] == 1.0
    assert full[b.index[(4,)], b.index[(0,)]] == -1.0


@pytest.mark.parametrize("reports", [{(0,)}, {(4,)}])
def test_growth_checks_the_pairs_it_adds(reports):
    # one endpoint of the long edge is silent: the growth that adds (4,)
    # finds the pair inconsistent, as the ball read in one call does
    g = long_edge_line(reports)
    with pytest.raises(InconsistentAdjacencyError) as one_call:
        ball(g, (0,), 4)
    b = ball(g, (0,), 3, grow=True)
    with pytest.raises(InconsistentAdjacencyError) as grown:
        b.extend(4)
    assert set(one_call.value.pair) == set(grown.value.pair) == {(0,), (4,)}


def test_growth_sees_a_planted_inconsistency_when_it_reaches_it():
    b = ball(planted_line(), (0,), 2, grow=True)
    with pytest.raises(InconsistentAdjacencyError) as err:
        b.extend(3)
    assert set(err.value.pair) == {(2,), (3,)}
    # the ball keeps the shell it read, as its radius, and grows no further
    assert b.radius == b.distances[-1] == 3 and len(b) == 7
    with pytest.raises(ValueError, match="stopped growing at radius 3.*InconsistentAdjacency"):
        b.extend(5)
    assert b.radius == 3 and len(b) == 7


def test_only_a_growing_ball_extends():
    b = ball(builtin_graph("z-lattice", d=2), (0, 0), 3)
    assert b.extend(2) is b and b.radius == 3
    with pytest.raises(ValueError, match="grow=True"):
        b.extend(4)
    grown = ball(builtin_graph("z-lattice", d=2), (0, 0), 0, budget=100, grow=True)
    with pytest.raises(dirlap.BudgetExceededError):
        grown.extend(20)
    # the ball stays at the shell it holds and cannot grow again
    assert grown.radius == 0 and len(grown) == 1
    assert grown.extend(0) is grown
    with pytest.raises(ValueError, match="stopped growing at radius 0.*BudgetExceeded"):
        grown.extend(20)
    assert grown.radius == 0 and len(grown) == 1
