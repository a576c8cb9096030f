"""Balls, distances, volumes, and their invariants."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import dirlap
from dirlap import (GraphGenerator, ball, builtin_graph, distance,
                    estimate_skew_mass, generator_from_edges, geometry, volume)
from dirlap.errors import BudgetExceededError

from helpers import finite_graphs, l1_ball_count


class TestBall:
    def test_z2_sizes_match_brute_force(self):
        g = builtin_graph("z-lattice", d=2)
        for r in range(0, 9):
            assert len(ball(g, (0, 0), r)) == l1_ball_count(2, r)

    def test_z2_r2_is_13(self):
        assert len(ball(builtin_graph("z-lattice", d=2), (0, 0), 2)) == 13

    def test_radius_zero(self):
        b = ball(builtin_graph("z2-advection"), (4, -2), 0)
        assert b.vertices == [(4, -2)]
        assert b.distances.tolist() == [0]

    def test_line_ball(self):
        b = ball(builtin_graph("example-2.2"), (0,), 3)
        assert len(b) == 7
        assert sorted(b.vertices) == [(k,) for k in range(-3, 4)]

    def test_distances_and_index(self):
        g = builtin_graph("z-lattice", d=2)
        b = ball(g, (1, 1), 4)
        for i, v in enumerate(b.vertices):
            assert b.locate([v])[0] == i
            assert b.distances[i] == abs(v[0] - 1) + abs(v[1] - 1)
        assert b.distances.max() == 4

    def test_nesting_is_prefix(self):
        g = builtin_graph("z2-skew-perturbed", a=0.3)
        small = ball(g, (0, 0), 5)
        large = ball(g, (0, 0), 8)
        assert large.vertices[:len(small)] == small.vertices

    def test_budget(self):
        g = builtin_graph("z-lattice", d=2)
        with pytest.raises(BudgetExceededError):
            ball(g, (0, 0), 50, budget=100)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(builtin_graph("example-2.2"), (0,), -1)

    def test_measures_are_float_without_weight_entries(self):
        # a center that reports no edges leaves the snapshot without entries
        g = dirlap.generator_from_edges({((0,), (1,)): 1.0, ((1,), (0,)): 1.0},
                                        root=(5,))
        b = ball(g, (5,), 2)
        assert b.measures.dtype == np.float64
        assert b.measures.tolist() == [0.0]
        with pytest.raises(ValueError, match="nonpositive measure 0.0"):
            dirlap.estimate_alpha(g, (5,), 1)


class TestVolume:
    def test_line_volume(self):
        # all symmetric weights are 1, so every vertex has measure 2
        assert volume(builtin_graph("example-2.2"), (0,), 3) == pytest.approx(14.0)

    def test_radius_zero_is_center_measure(self):
        g = builtin_graph("example-2.2")
        assert volume(g, (0,), 0) == pytest.approx(2.0)

    def test_advection_symmetric_volume(self):
        # four symmetric edges of weight 1/2 give measure 2; 13 vertices
        assert volume(builtin_graph("z2-advection"), (0, 0), 2) == pytest.approx(26.0)

    def test_monotone_in_radius(self):
        g = builtin_graph("z2-advection")
        vols = [volume(g, (1, 1), r) for r in range(6)]
        assert all(a <= b for a, b in zip(vols, vols[1:]))

    def test_measure_positive(self):
        b = ball(builtin_graph("z2-skew-perturbed", a=0.9), (0, 0), 6)
        assert (b.measures > 0).all()


class TestDistance:
    def test_same_vertex(self):
        assert distance(builtin_graph("z-lattice", d=2), (3, 3), (3, 3), 0) == 0

    def test_l1_oracle_on_z2(self):
        g = builtin_graph("z-lattice", d=2)
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            b = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            expected = abs(a[0] - b[0]) + abs(a[1] - b[1])
            assert distance(g, a, b, 25) == expected

    def test_specific_pair(self):
        assert distance(builtin_graph("z-lattice", d=2), (0, 0), (2, 3), 10) == 5

    def test_unreachable_within_cutoff(self):
        assert distance(builtin_graph("example-2.2"), (0,), (5,), 3) is None

    def test_triangle_inequality_sampled(self):
        g = builtin_graph("z2-advection")
        rng = np.random.default_rng(4)
        pts = [(int(rng.integers(-4, 5)), int(rng.integers(-4, 5))) for _ in range(12)]
        for a, b, c in zip(pts, pts[4:], pts[8:]):
            ab = distance(g, a, b, 30)
            bc = distance(g, b, c, 30)
            ac = distance(g, a, c, 30)
            assert ac <= ab + bc

    def test_cutoff_precondition(self):
        with pytest.raises(ValueError):
            distance(builtin_graph("example-2.2"), (0,), (1,), -1)


class TestShells:
    def test_shells_partition_the_ball(self):
        g = builtin_graph("z-lattice", d=2)
        collected = []
        for k, shell in dirlap.shells(g, (0, 0), 4):
            collected.extend(shell)
        b = ball(g, (0, 0), 4)
        assert sorted(collected) == sorted(b.vertices)

    def test_shell_sizes_on_z2(self):
        sizes = [len(s) for _, s in dirlap.shells(builtin_graph("z-lattice", d=2),
                                                  (0, 0), 6)]
        assert sizes == [1, 4, 8, 12, 16, 20, 24]

    def test_every_yielded_shell_is_read_once(self):
        g = builtin_graph("z-lattice", d=2)
        reads = []

        def adjacency(v):
            reads.append(v)
            return g.adjacency(v)

        counted = GraphGenerator(adjacency=adjacency, root=g.root)
        yielded = [v for _, shell in dirlap.shells(counted, (0, 0), 4) for v in shell]
        # shells 0..4, the last one too: 41 vertices, each read once, in shell order
        assert len(yielded) == 41
        assert reads == yielded

    def test_budget_raises(self):
        # shells 0..2 hold 13 vertices; shell 3 would bring the count to 25
        seen = []
        with pytest.raises(BudgetExceededError):
            for k, _ in dirlap.shells(builtin_graph("z-lattice", d=2), (0, 0), 10,
                                      budget=20):
                seen.append(k)
        assert seen == [0, 1, 2]


@given(finite_graphs(), st.integers(min_value=3, max_value=5))
def test_ball_shells_and_skew_scan_share_one_budget_rule(g, k):
    b = ball(g, g.root, k)
    n = len(b)
    assume(n >= 2)
    # a budget of n vertices lets every walk complete
    assert ball(g, g.root, k, budget=n).vertices == b.vertices
    walked = [v for _, shell in dirlap.shells(g, g.root, k, budget=n) for v in shell]
    assert walked == b.vertices
    with pytest.MonkeyPatch.context() as mp:  # the skew scan reads the default budget
        mp.setattr(geometry, "DEFAULT_BALL_BUDGET", n)
        assert estimate_skew_mass(g, k).shells_used == b.distances[-1] + 1
    # one vertex less stops each walk before the shell that brings the count to n
    for walk in (lambda: ball(g, g.root, k, budget=n - 1),
                 lambda: list(dirlap.shells(g, g.root, k, budget=n - 1))):
        with pytest.raises(BudgetExceededError) as err:
            walk()
        assert err.value.count == n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "DEFAULT_BALL_BUDGET", n - 1)
        assert estimate_skew_mass(g, k).verdict == "inconclusive"
        # ball and shells read the default at call time too
        for walk in (lambda: ball(g, g.root, k), lambda: list(dirlap.shells(g, g.root, k))):
            with pytest.raises(BudgetExceededError):
                walk()


# Order-keeping renamings of one-axis vertices, each with an inverse: past the
# int64 key, into four axes (which have no key), across the key limit, into
# one or two axes by parity, so that rows mix vertices of both lengths, into
# halves, which must not be rounded to integers, and into -4..-1 and integers
# near 2**64, which must not wrap around to -4..-1.
RELABELS = [(lambda v: (v[0] + 2**20,), lambda v: (v[0] - 2**20,)),
            (lambda v: (v[0], 0, 0, 0), lambda v: (v[0],)),
            (lambda v: (v[0] + 2**20 - 4,), lambda v: (v[0] - 2**20 + 4,)),
            (lambda v: v if v[0] % 2 else (v[0], 0), lambda v: v[:1]),
            (lambda v: (v[0] / 2,), lambda v: (round(v[0] * 2),)),
            (lambda v: (v[0] - 4,) if v[0] < 4 else (v[0] + 2**64 - 8,),
             lambda v: (v[0] + 4,) if v[0] < 0 else (v[0] - 2**64 + 8,))]

# (0,) reaches (2,) only through (1,); the direct pair has no symmetric
# weight, so (2,) is a neighbour of (0,) that the walk finds a shell later.
LATE_NEIGHBOUR = generator_from_edges({((0,), (1,)): 1.0, ((1,), (0,)): 1.0,
                                       ((1,), (2,)): 1.0, ((2,), (1,)): 1.0,
                                       ((0,), (2,)): 1.0, ((2,), (0,)): -1.0}, root=(0,))


def relabelled(gen, f, f_inv):
    """``gen`` with each vertex ``v`` renamed ``f(v)``."""
    def adjacency(v):
        out, inn = gen.adjacency(f_inv(v))
        return {f(u): w for u, w in out.items()}, {f(u): w for u, w in inn.items()}

    return GraphGenerator(adjacency=adjacency, root=f(gen.root), name=gen.name)


@example(LATE_NEIGHBOUR, 2)
@given(finite_graphs(), st.integers(min_value=0, max_value=4))
def test_vertices_without_a_key_give_the_same_ball(gen, r):
    # renamed vertices that do not fit the key get interned ids instead, and
    # a row that numpy cannot make one array gets its ids vertex by vertex
    b = ball(gen, gen.root, r)
    for f, f_inv in RELABELS:
        other = ball(relabelled(gen, f, f_inv), f(gen.root), r)
        assert other.vertices == [f(v) for v in b.vertices]
        for name in ("distances", "measures", "indptr", "nbr", "w_out", "w_in"):
            x, y = getattr(b, name), getattr(other, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
