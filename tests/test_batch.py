"""The batch shell step: the same walk, snapshot and skew sums as the vertex-by-vertex step.

Every builtin family has a ``batch_adjacency``.  ``geometry._walk`` reads a
shell with it when the shell holds at least ``_BATCH_MIN_SHELL`` vertices, so
setting that constant to 0 reads every shell in batch (where the keys fit)
and setting it to 10**9 reads none.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap
from dirlap import (BudgetExceededError, DegreeCapError, GraphGenerator,
                    InconsistentAdjacencyError, OscillatorSystem, PhaseLockCandidate,
                    ball, builtin_graph, estimate_skew_mass, sin_coupling,
                    validate_generator)
from dirlap import geometry, oscillator
from dirlap.oscillator import coupling_from_graph
from dirlap.hypotheses import _shell_skew

from helpers import (BUILTINS, EVERY_SHELL, NO_SHELL, assert_same_ball,
                     assert_same_edge_table, both_steps)

LIMIT = 1 << 20  # the first coordinate magnitude that the int64 key cannot hold


def walk_record(gen, root, k):
    """Every shell of the walk, as a list of vertices, and every shell's skew contribution."""
    shells, contributions = [], []
    for _, shell, rows in geometry._walk(gen, root, k):
        shells.append(geometry._vertices(shell))
        contributions.append(_shell_skew(rows))
    return shells, contributions


def holey_plane():
    """The plane lattice without the edge from (i, j) to (i + 1, j) where 3 divides i + j.

    Its batch rows have absent slots, so rows differ in length.
    """
    g = builtin_graph("z-lattice", d=2)

    def adjacency(v):
        i, j = v
        out, inn = g.adjacency(v)
        for u, lower in (((i + 1, j), i), ((i - 1, j), i - 1)):
            if (lower + j) % 3 == 0:
                del out[u], inn[u]
        return out, inn

    def batch(coords):
        nbrs, _, _ = g.batch_adjacency(coords)
        i, j = coords[:, 0], coords[:, 1]
        w = np.ones(nbrs.shape[:2])
        w[(i - 1 + j) % 3 == 0, 0] = 0.0  # slot (i - 1, j)
        w[(i + j) % 3 == 0, 3] = 0.0  # slot (i + 1, j)
        return nbrs, w, w.copy()

    return GraphGenerator(adjacency=adjacency, root=(0, 0), name="holey-plane",
                          batch_adjacency=batch)


GENERATORS = [builtin_graph(name, **params) for name, params in BUILTINS] + [holey_plane()]

roots = st.one_of(
    st.just(0),
    st.integers(min_value=-1000, max_value=1000),
    # walks that cross the key limit, where the batch step hands shells back
    st.integers(min_value=LIMIT - 6, max_value=LIMIT + 2),
    st.integers(min_value=-LIMIT - 2, max_value=-LIMIT + 6))


@settings(max_examples=45, deadline=None)
@given(st.sampled_from(GENERATORS), st.lists(roots, min_size=4, max_size=4))
def test_batch_step_is_bit_equal_to_the_vertex_step(gen, shifts):
    root = tuple(shifts[:len(gen.root)])
    radius = 4 if len(root) >= 3 else 8
    with pytest.MonkeyPatch.context() as mp:
        # the middle run turns from vertex reads to batch reads during the walk
        runs = both_steps(mp, lambda: (ball(gen, root, radius), walk_record(gen, root, radius),
                                       estimate_skew_mass(dataclasses.replace(gen, root=root),
                                                          radius)),
                          sizes=(EVERY_SHELL, 5, NO_SHELL))
    (ball_1, walk_1, skew_1) = runs[-1]
    for b, walk, skew in runs[:-1]:
        assert_same_ball(b, ball_1)
        assert walk == walk_1
        assert skew == skew_1


def test_every_builtin_takes_the_batch_step(monkeypatch):
    # example-2.2's shells hold at most 2 vertices, so it has no batch callback
    assert builtin_graph("example-2.2").batch_adjacency is None
    calls = []
    batched = [(name, params) for name, params in BUILTINS[:-1] if name != "example-2.2"]
    for name, params in batched:
        gen = builtin_graph(name, **params)

        def batch(coords, inner=gen.batch_adjacency):
            calls.append(len(coords))
            return inner(coords)

        monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", 0)
        ball(dataclasses.replace(gen, batch_adjacency=batch), gen.root, 3)
    # one call per shell 0..3, except for d = 4, whose keys do not fit
    assert len(calls) == 4 * (len(batched) - 1) == 20


def test_line_shells_stay_on_the_vertex_step():
    assert geometry._BATCH_MIN_SHELL > 2


def lattice_with(batch=None, adjacency=None, **fields):
    """The plane lattice with its callbacks swapped for the given ones."""
    g = builtin_graph("z-lattice", d=2)
    return dataclasses.replace(g, adjacency=adjacency or g.adjacency,
                               batch_adjacency=batch or g.batch_adjacency, **fields)


def test_degree_cap_on_the_batch_step(monkeypatch):
    g = lattice_with(degree_cap=3)
    errors = both_steps(monkeypatch, lambda: pytest.raises(DegreeCapError, ball, g, (0, 0), 2))
    assert [str(e.value) for e in errors] == ["vertex (0, 0) reports 4 edges, cap is 3"] * 2


def test_self_loops_are_dropped_on_the_batch_step(monkeypatch):
    plain = builtin_graph("z-lattice", d=2)

    def adjacency(v):
        out, inn = plain.adjacency(v)
        out[v] = inn[v] = 5.0
        return out, inn

    def batch(coords):
        nbrs, w_out, w_in = plain.batch_adjacency(coords)
        # the vertex itself sorts between its lower and its upper neighbours
        nbrs = np.concatenate([nbrs[:, :2], coords[:, None, :], nbrs[:, 2:]], axis=1)
        w_out = np.insert(w_out, 2, 5.0, axis=1)
        return nbrs, w_out, np.insert(w_in, 2, 5.0, axis=1)

    looped = lattice_with(batch, adjacency)
    for b in both_steps(monkeypatch, lambda: ball(looped, (0, 0), 5)):
        assert_same_ball(b, ball(plain, (0, 0), 5))


def test_inconsistent_batch_weights_raise(monkeypatch):
    plain = builtin_graph("z-lattice", d=2)

    def batch(coords):
        nbrs, w_out, w_in = plain.batch_adjacency(coords)
        w_in = w_in.copy()
        # (2, 0) reports its edge from (1, 0), its first slot, twice as heavy
        w_in[(coords == (2, 0)).all(axis=1), 0] = 2.0
        return nbrs, w_out, w_in

    monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", 0)
    with pytest.raises(InconsistentAdjacencyError) as err:
        ball(lattice_with(batch), (0, 0), 3)
    assert set(err.value.pair) == {(1, 0), (2, 0)}


def one_way_plane():
    """The plane lattice with a one-way edge (6, 0) -> (1, 0), which (1, 0) does not report.

    The walk finds (1, 0) in shell 1 and meets it again from shell 6, past
    the shell before, on both steps.
    """
    plain = builtin_graph("z-lattice", d=2)

    def adjacency(v):
        out, inn = plain.adjacency(v)
        if v == (6, 0):
            out[(1, 0)] = 1.0
        return out, inn

    def batch(coords):
        nbrs, w_out, w_in = plain.batch_adjacency(coords)
        k = len(coords)
        # a first slot, absent but at (6, 0): (1, 0) sorts before its other neighbours
        nbrs = np.concatenate([np.broadcast_to([[[1, 0]]], (k, 1, 2)), nbrs], axis=1)
        one_way = (coords == (6, 0)).all(axis=1)
        return (nbrs, np.concatenate([np.where(one_way, 1.0, 0.0)[:, None], w_out], axis=1),
                np.concatenate([np.zeros((k, 1)), w_in], axis=1))

    return lattice_with(batch, adjacency)


def test_an_older_shell_is_not_found_again(monkeypatch):
    g = one_way_plane()
    reads = Counter()

    def adjacency(v):
        reads[v] += 1
        return g.adjacency(v)

    def batch(coords):
        reads.update(map(tuple, coords.tolist()))
        return g.batch_adjacency(coords)

    counted = dataclasses.replace(g, adjacency=adjacency, batch_adjacency=batch)

    def run():
        reads.clear()
        shells, contributions = walk_record(counted, (0, 0), 8)
        walked = [v for shell in shells for v in shell]
        assert Counter(reads) == Counter(walked) == Counter(set(walked))  # each read once
        reads.clear()
        skew = estimate_skew_mass(counted, 8)
        assert Counter(reads) == Counter(set(walked))
        return shells, contributions, skew

    runs = both_steps(monkeypatch, run, sizes=(EVERY_SHELL, 5, NO_SHELL))
    assert runs[0] == runs[1] == runs[2]
    shells, contributions, _ = runs[0]
    assert (1, 0) in shells[1] and (6, 0) in shells[6]
    assert contributions[6] == 0.5  # the one-way edge's skew weight
    errors = both_steps(monkeypatch,
                        lambda: pytest.raises(InconsistentAdjacencyError, ball, g, (0, 0), 8),
                        sizes=(EVERY_SHELL, 5, NO_SHELL))
    assert [set(e.value.pair) for e in errors] == [{(1, 0), (6, 0)}] * 3


def test_the_skew_scan_keeps_few_bytes_per_vertex():
    # batch-read vertices are kept as int64 keys, not as tuples in a set
    g = builtin_graph("z2-skew-perturbed", a=0.5)
    estimate_skew_mass(g, 20)
    tracemalloc.start()
    try:
        estimate_skew_mass(g, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 20_201  # shells 0..100 hold 20,201 vertices


def test_budget_count_is_the_vertex_steps(monkeypatch):
    g = builtin_graph("z2-skew-perturbed")
    errors = both_steps(monkeypatch,
                        lambda: pytest.raises(BudgetExceededError, ball, g, (0, 0), 30,
                                              budget=500))
    # shells 0..15 hold 481 vertices; shell 16 brings the count to 545
    assert [e.value.count for e in errors] == [545, 545]


def test_row_order_does_not_follow_the_callback(monkeypatch):
    g = builtin_graph("z2-advection")

    def reversed_maps(v):
        out, inn = g.adjacency(v)
        return dict(reversed(out.items())), dict(reversed(inn.items()))

    twin = GraphGenerator(adjacency=reversed_maps, root=g.root, name=g.name)
    expected, _ = both_steps(monkeypatch, lambda: ball(g, g.root, 6))
    assert_same_ball(ball(twin, g.root, 6), expected)
    rows = np.split(expected.nbr, expected.indptr[1:-1])
    for i, row in enumerate(rows):  # every row of neighbours inside the ball is sorted
        inside = [expected.vertices[j] for j in row if j >= 0]
        assert inside == sorted(inside), expected.vertices[i]


def test_validation_accepts_every_builtin():
    for gen in GENERATORS:
        report = validate_generator(gen, 6)
        assert report.ok, report.violations


@pytest.mark.parametrize("defect", ["weights", "order", "missing", "shape", "raises"])
def test_validation_reports_a_wrong_batch_callback(defect):
    g = builtin_graph("z2-skew-perturbed", a=0.5)
    other = builtin_graph("z2-skew-perturbed", a=0.25)

    def batch(coords):
        nbrs, w_out, w_in = g.batch_adjacency(coords)
        if defect == "weights":
            return other.batch_adjacency(coords)
        if defect == "order":
            return nbrs[:, ::-1], w_out[:, ::-1], w_in[:, ::-1]
        if defect == "missing":
            w_out[:, 3] = w_in[:, 3] = 0.0
        if defect == "shape":
            return nbrs, w_out, w_in[:, :2]
        if defect == "raises":
            raise RuntimeError("no batch today")
        return nbrs, w_out, w_in

    report = validate_generator(dataclasses.replace(g, batch_adjacency=batch), 2)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"batch-mismatch"}
    if defect in ("shape", "raises"):
        assert len(report.violations) == 1 and report.violations[0].vertices == ()
    else:  # each of the 13 rows of the radius-2 sample
        assert len(report.violations) == report.vertices_checked == 13


def test_validation_reports_each_defect_once():
    def adjacency(v):
        (n,) = v
        if n == 2:
            raise RuntimeError("no adjacency at 2")
        out = {(n - 1,): 1.0, (n + 1,): 1.0}
        inn = {(n - 1,): 1.0, (n + 1,): 3.0 if n == 0 else 1.0}
        return out, inn

    calls = []

    def counted(v):
        calls.append(v)
        return adjacency(v)

    report = validate_generator(GraphGenerator(adjacency=counted, root=(0,)), 3)
    assert [(v.kind, v.vertices) for v in report.violations] == [
        ("weight-consistency", ((1,), (0,))), ("adjacency-error", ((2,),))]
    assert calls.count((2,)) == 1


def test_package_exports_no_test_only_helpers():
    for name in ("decompose_edge", "split_coupling_matrix", "poincare_quotient", "dense_expm",
                 "advection_peak", "read_json_report"):
        assert not hasattr(dirlap, name)
    for module, name in ((dirlap.oscillator, "check_coupling_gradient"),
                         (dirlap.semigroup, "dense_expm"), (dirlap.semigroup, "advection_peak"),
                         (dirlap.reports, "read_json_report")):
        assert not hasattr(module, name)


# The oscillator flow reads its coupling graph through the same two steps.

def junk_absent_slots(gen):
    """``gen`` whose batch rows put far-away coordinates in every absent slot.

    The batch contract leaves an absent slot's coordinates arbitrary, so
    nothing may read them.
    """
    def batch(coords):
        nbrs, w_out, w_in = gen.batch_adjacency(coords)
        nbrs = nbrs.copy()
        nbrs[(w_out == 0.0) & (w_in == 0.0)] = 999_999
        return nbrs, w_out, w_in

    return dataclasses.replace(gen, batch_adjacency=batch)


def sine_lattice(gen, a, b, radius):
    """The sine coupling of ``gen`` at lags ``a sin(b (v_0 + 2 v_1 + ...))``, on ``gen``'s radius ball.

    On the holey plane the graph's absent slots hold junk, and the lags
    raise on any vertex that no vertex of the ball reaches by an edge.
    """
    reached = None
    if gen.name == "holey-plane":
        reached = set(ball(gen, gen.root, radius + 1).vertices)
        gen = junk_absent_slots(gen)

    def lags(v):
        if reached is not None and v not in reached:
            raise AssertionError(f"lags read at {v}, which no edge reaches")
        return a * math.sin(b * sum((j + 1) * c for j, c in enumerate(v)))

    weight, support = coupling_from_graph(gen)
    sys_ = OscillatorSystem(omega=lambda v: 0.1 * v[0], coupling=sin_coupling(weight, support),
                            root=gen.root, name=gen.name)
    return sys_, PhaseLockCandidate(velocity=1.0, lags=lags)


def test_oscillator_flow_reads_the_coupling_graph_once_per_vertex_step_vertex(monkeypatch):
    # the walk reads by shells, the edge table the rows with an outside entry vertex by vertex
    g = builtin_graph("z2-skew-perturbed", a=0.5)
    calls = []

    def adjacency(v):
        calls.append(v)
        return g.adjacency(v)

    weight, support = coupling_from_graph(dataclasses.replace(g, adjacency=adjacency))
    sys_ = OscillatorSystem(omega=lambda v: 1.0, coupling=sin_coupling(weight, support),
                            root=g.root)
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.1 * v[0])
    for size in (EVERY_SHELL, geometry._BATCH_MIN_SHELL, NO_SHELL):
        monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", size)
        calls.clear()
        b = ball(oscillator._walk_graph(sys_), g.root, 10)
        shell_size = np.bincount(b.distances)[b.distances]
        by_vertex_step = [v for v, n in zip(b.vertices, shell_size) if n < size]
        assert Counter(calls) == Counter(by_vertex_step)
        calls.clear()
        oscillator._EdgeTable(sys_, cand, b)
        edge = [b.vertices[i] for i in np.unique(b.entry_rows()[b.nbr < 0])]
        assert edge == [v for v, d in zip(b.vertices, b.distances) if d == 10]
        assert Counter(calls) == Counter(edge)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.name)
def test_edge_table_is_the_same_on_both_steps_and_pair_by_pair(monkeypatch, gen):
    radius = 3 if len(gen.root) >= 3 else 6
    sys_, cand = sine_lattice(gen, 0.7, 0.9, radius)
    # sin_coupling wraps these callables into a graph of its own, read vertex by vertex
    pairwise = dataclasses.replace(sys_, coupling=sin_coupling(
        lambda v, u: sys_.coupling.weight(v, u), lambda v: sys_.coupling.support(v)))
    assert pairwise.coupling.graph.batch_adjacency is None

    def table(s):
        return oscillator._EdgeTable(s, cand, ball(oscillator._walk_graph(s), gen.root, radius))

    tables = both_steps(monkeypatch, lambda: table(sys_))
    tables.append(table(pairwise))
    for other in tables[1:]:
        assert_same_edge_table(tables[0], other)
