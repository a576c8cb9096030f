"""Graph generators, weight decomposition, and the lazy Laplacian."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirlap import (TruncatedOperator, apply_laplacian, ball, builtin_graph,
                    generator_from_edges, geometry, validate_generator)
from dirlap.errors import DegreeCapError
from dirlap.graph import GraphGenerator

from helpers import decompose_edge, dense_laplacian, finite_graphs, k2_generator


class TestDecomposeEdge:
    def test_line_graph_values(self):
        g = builtin_graph("example-2.2")
        ws, wk = decompose_edge((2,), (3,), g)
        assert ws == pytest.approx(1.0, abs=1e-15)
        assert wk == pytest.approx(-0.2, abs=1e-15)

    def test_line_graph_sym_weight_is_one_everywhere(self):
        g = builtin_graph("example-2.2")
        for n in range(-6, 7):
            ws, wk = decompose_edge((n,), (n + 1,), g)
            assert ws == 1.0
            assert wk == pytest.approx(-1.0 / (1.0 + n * n), rel=1e-15)

    def test_symmetric_pair(self):
        g = generator_from_edges({((0,), (1,)): 3.5, ((1,), (0,)): 3.5}, (0,))
        assert decompose_edge((0,), (1,), g) == (3.5, 0.0)

    def test_advection_one_way_edge(self):
        g = builtin_graph("z2-advection")
        assert decompose_edge((0, 1), (0, 0), g) == (0.5, 0.5)

    def test_absent_pair_is_zero(self):
        g = builtin_graph("example-2.2")
        assert decompose_edge((0,), (5,), g) == (0.0, 0.0)

    def test_same_vertex_rejected(self):
        g = builtin_graph("example-2.2")
        with pytest.raises(ValueError):
            decompose_edge((1,), (1,), g)


class TestSymmetricView:
    """``GraphGenerator.edges``, the checked read, and the split read from it."""

    def test_exact_symmetry_and_antisymmetry(self):
        g = builtin_graph("z2-skew-perturbed", a=0.7)
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
            axis, step = int(rng.integers(2)), int(rng.choice([-1, 1]))
            u = list(v)
            u[axis] += step
            u = tuple(u)
            ws_vu, wk_vu = decompose_edge(v, u, g)
            ws_uv, wk_uv = decompose_edge(u, v, g)
            assert ws_vu == ws_uv
            assert wk_vu + wk_uv == 0.0

    def test_decomposition_identity(self):
        g = builtin_graph("example-2.2")
        for n in range(-10, 10):
            v, u = (n,), (n + 1,)
            w_forward = g.edges(v)[0].get(u, 0.0)
            ws, wk = decompose_edge(v, u, g)
            recombined = ws + wk
            assert abs(recombined - w_forward) <= 1e-15 * max(1.0, abs(w_forward))

    def test_missing_edge_from_zero(self):
        g = builtin_graph("example-2.2")
        out, _ = g.edges((0,))
        assert (1,) not in out  # w(0,1) = 0 means no edge
        out1, _ = g.edges((1,))
        assert out1[(0,)] == 2.0

    def test_degree_cap(self):
        def adjacency(v):
            nbrs = {(v[0] + k,): 1.0 for k in range(1, 100)}
            return nbrs, dict(nbrs)

        g = GraphGenerator(adjacency=adjacency, root=(0,), degree_cap=16)
        with pytest.raises(DegreeCapError):
            g.edges((0,))

    def test_edges_pass_the_callback_maps_through(self):
        g = builtin_graph("z2-skew-perturbed")
        reported = []

        def adjacency(v):
            reported.append(g.adjacency(v))
            return reported[-1]

        out, inn = GraphGenerator(adjacency=adjacency, root=g.root).edges((2, -1))
        assert out is reported[0][0] and inn is reported[0][1]

    def test_self_loop_dropped_before_the_degree_cap(self):
        def adjacency(v):
            (n,) = v
            nbrs = {(n - 1,): 1.0, (n,): 3.0, (n + 1,): 1.0}
            return nbrs, dict(nbrs)

        out, inn = GraphGenerator(adjacency=adjacency, root=(0,), degree_cap=2).edges((0,))
        assert out == inn == {(-1,): 1.0, (1,): 1.0}


class TestApplyLaplacian:
    def test_constant_in_kernel_on_interior(self):
        g = builtin_graph("z-lattice", d=2)
        x = {(i, j): 1.0 for i in range(-2, 3) for j in range(-2, 3)
             if abs(i) + abs(j) <= 2}
        result = apply_laplacian(x, g, part="sym")
        assert abs(result[(0, 0)]) <= 1e-13

    def test_indicator_hand_values(self):
        g = builtin_graph("example-2.2")
        result = apply_laplacian({(0,): 1.0}, g, part="sym")
        assert result[(0,)] == pytest.approx(-2.0, abs=1e-14)
        assert result[(1,)] == pytest.approx(1.0, abs=1e-14)
        assert result[(-1,)] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("part", ["full", "sym", "skew"])
    def test_matches_dense_oracle(self, part):
        import dirlap

        g = builtin_graph("example-2.2")
        b = dirlap.ball(g, (0,), 4)
        rng = np.random.default_rng(11)
        x = {(k,): float(rng.normal()) for k in range(-2, 3)}
        result = apply_laplacian(x, g, part=part)
        m = dense_laplacian(g, b, part)
        index = dict(zip(b.vertices, range(len(b))))
        vec = np.zeros(len(b))
        for v, val in x.items():
            vec[index[v]] = val
        image = m @ vec
        for v, val in result.items():
            # support + one hop stays in the interior, where the ball
            # restriction is exact
            assert val == pytest.approx(float(image[index[v]]), abs=1e-13)

    def test_parts_sum_to_full(self):
        g = builtin_graph("z2-skew-perturbed", a=0.4)
        rng = np.random.default_rng(5)
        x = {(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): float(rng.normal())
             for _ in range(6)}
        full = apply_laplacian(x, g, "full")
        sym = apply_laplacian(x, g, "sym")
        skew = apply_laplacian(x, g, "skew")
        for v in full:
            assert full[v] == pytest.approx(sym.get(v, 0.0) + skew.get(v, 0.0),
                                            abs=1e-14)

    def test_symmetric_mass_conservation(self):
        g = builtin_graph("example-2.2")
        rng = np.random.default_rng(7)
        x = {(k,): float(rng.normal()) for k in range(-4, 5)}
        result = apply_laplacian(x, g, part="sym")
        l1 = sum(abs(v) for v in x.values())
        assert abs(sum(result.values())) <= 1e-12 * l1

    @given(finite_graphs(), st.sampled_from(["full", "sym", "skew"]), st.data())
    def test_matches_truncated_operator(self, g, part, data):
        b = ball(g, g.root, 3)
        values = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(b),
                                             max_size=len(b))))
        result = apply_laplacian(dict(zip(b.vertices, values)), g, part=part)
        image = TruncatedOperator(b).matrix(part) @ values
        for i, v in enumerate(b.vertices):
            # a row is the infinite graph's row when all its neighbours are in
            # the ball; the two sum in different orders, and at most 16 terms
            # of size <= 3 * 4 keep the rounding far below 1e-12
            if (b.nbr[b.indptr[i]:b.indptr[i + 1]] >= 0).all():
                assert result.get(v, 0.0) == pytest.approx(image[i], rel=1e-12, abs=1e-12)

    def test_unknown_part_rejected(self):
        with pytest.raises(ValueError):
            apply_laplacian({(0,): 1.0}, builtin_graph("example-2.2"), part="both")


class TestValidateGenerator:
    def test_line_graph_clean(self):
        report = validate_generator(builtin_graph("example-2.2"), 10)
        assert report.ok
        assert report.vertices_checked == 21

    def test_advection_clean(self):
        report = validate_generator(builtin_graph("z2-advection"), 10)
        assert report.ok

    def test_planted_inconsistency_found(self):
        def adjacency(v):
            (n,) = v
            out = {(n + 1,): 1.0, (n - 1,): 1.0}
            inn = {(n + 1,): 1.0, (n - 1,): 2.0 if n == 3 else 1.0}
            return out, inn

        g = GraphGenerator(adjacency=adjacency, root=(0,), name="planted")
        report = validate_generator(g, 5)
        kinds = {v.kind for v in report.violations}
        assert "weight-consistency" in kinds
        flagged = {frozenset(v.vertices) for v in report.violations}
        assert frozenset({(2,), (3,)}) in flagged

    def test_zero_weight_reported(self):
        def adjacency(v):
            (n,) = v
            return {(n + 1,): 0.0, (n - 1,): 1.0}, {(n + 1,): 1.0, (n - 1,): 0.0}

        g = GraphGenerator(adjacency=adjacency, root=(0,))
        report = validate_generator(g, 2)
        assert any(v.kind == "zero-weight" for v in report.violations)

    def test_self_loop_reported_once_per_vertex(self):
        def adjacency(v):
            (n,) = v
            nbrs = {(n - 1,): 1.0, (n + 1,): 1.0}
            if n % 2 == 0:
                nbrs[v] = 0.5
            return nbrs, dict(nbrs)

        report = validate_generator(GraphGenerator(adjacency=adjacency, root=(0,)), 4)
        assert report.vertices_checked == 9
        assert sorted((v.kind, v.vertices) for v in report.violations) == [
            ("self-loop", ((n,),)) for n in (-4, -2, 0, 2, 4)]

    def test_negative_symmetric_rejected(self):
        g = generator_from_edges(
            {((0,), (1,)): -2.0, ((1,), (0,)): 1.0,
             ((1,), (2,)): 1.0, ((2,), (1,)): 1.0}, (0,))
        report = validate_generator(g, 2)
        assert any(v.kind == "negative-symmetric" for v in report.violations)

    def test_negative_weight_with_positive_average_is_note(self):
        g = generator_from_edges(
            {((0,), (1,)): -0.5, ((1,), (0,)): 2.0,
             ((1,), (2,)): 1.0, ((2,), (1,)): 1.0,
             ((0,), (-1,)): 1.0, ((-1,), (0,)): 1.0}, (0,))
        report = validate_generator(g, 2)
        assert report.ok
        assert any("negative directed weight" in note for note in report.notes)

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            validate_generator(builtin_graph("example-2.2"), 0)

    def test_vertex_budget_raises(self, monkeypatch):
        from dirlap import graph
        from dirlap.errors import BudgetExceededError

        monkeypatch.setattr(graph, "_VALIDATION_BUDGET", 50)
        with pytest.raises(BudgetExceededError):
            validate_generator(builtin_graph("z-lattice", d=2), 40)


def star(cap, n_out, n_in):
    """(0,) with edges to (1,)..(n_out,) and from (-1,)..(-n_in,), with a batch callback."""
    edges = {((0,), (k,)): 1.0 for k in range(1, n_out + 1)}
    edges.update({((-k,), (0,)): 1.0 for k in range(1, n_in + 1)})
    g = generator_from_edges(edges, root=(0,), name="star")
    calls = []

    def batch(coords):
        calls.append(len(coords))
        rows = [g.adjacency(v) for v in map(tuple, coords.tolist())]
        nbrs = [sorted(out.keys() | inn.keys()) for out, inn in rows]
        deg = max(map(len, nbrs))
        coords_out = np.zeros((len(rows), deg, 1), np.int64)
        w_out, w_in = np.zeros((len(rows), deg)), np.zeros((len(rows), deg))
        for i, ((out, inn), row) in enumerate(zip(rows, nbrs)):
            for j, u in enumerate(row):
                coords_out[i, j], w_out[i, j], w_in[i, j] = u, out.get(u, 0.0), inn.get(u, 0.0)
        return coords_out, w_out, w_in

    return dataclasses.replace(g, degree_cap=cap, batch_adjacency=batch), calls


class TestDegreeCap:
    def test_each_direction_has_its_own_cap(self, monkeypatch):
        g, calls = star(3, 3, 3)
        out, inn = g.edges((0,))
        assert len(out) == len(inn) == 3
        monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", 0)
        assert len(ball(g, (0,), 1)) == 7
        assert calls == [1, 6]  # both shells were read in batch
        report = validate_generator(g, 2)
        assert report.ok, report.violations

    @pytest.mark.parametrize("n_out, n_in", [(4, 3), (3, 4)])
    def test_one_edge_over_the_cap(self, monkeypatch, n_out, n_in):
        g, calls = star(3, n_out, n_in)
        with pytest.raises(DegreeCapError, match="reports 4 edges, cap is 3"):
            g.edges((0,))
        for size in (0, 10**9):  # the batch step, then the vertex step
            monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", size)
            with pytest.raises(DegreeCapError, match="reports 4 edges, cap is 3"):
                ball(g, (0,), 1)
        assert calls == [1]
        report = validate_generator(g, 2)
        assert [(v.kind, v.vertices, v.detail) for v in report.violations] == [
            ("degree-cap", ((0,),), "4 edges exceeds cap 3")]


class TestBuiltins:
    def test_z_lattice_degrees(self):
        out, inn = builtin_graph("z-lattice", d=2).edges((3, -1))
        assert len(out) == len(inn) == 4
        assert all(w == 1.0 for w in out.values())

    def test_advection_row_zero_out_edges(self):
        out, _ = builtin_graph("z2-advection").edges((5, 0))
        assert out == {(4, 0): 1.0}

    def test_skew_perturbed_positive_weights(self):
        g = builtin_graph("z2-skew-perturbed", a=0.9)
        for v in [(0, 0), (1, 2), (-3, 1)]:
            out, inn = g.edges(v)
            assert all(w > 0 for w in out.values())
            assert all(w > 0 for w in inn.values())
            for u in out:
                assert decompose_edge(v, u, g)[0] == 1.0

    def test_skew_perturbed_parameter_range(self):
        with pytest.raises(ValueError):
            builtin_graph("z2-skew-perturbed", a=1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown graph"):
            builtin_graph("moebius")

    def test_consistency_validation_all_families(self):
        for name, kwargs in [("example-2.2", {}), ("z-lattice", {"d": 3}),
                             ("z2-advection", {}),
                             ("z2-skew-perturbed", {"a": 0.5})]:
            assert validate_generator(builtin_graph(name, **kwargs), 4).ok, name

    def test_generator_from_edges_rejects_zero_and_loops(self):
        with pytest.raises(ValueError):
            generator_from_edges({((0,), (1,)): 0.0}, (0,))
        with pytest.raises(ValueError):
            generator_from_edges({((0,), (0,)): 1.0}, (0,))

    def test_k2_finite(self):
        assert validate_generator(k2_generator(), 1).ok
