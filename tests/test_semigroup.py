"""Norms, truncated operators, heat-flow runs, and decay fitting."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirlap
from dirlap import (StateVector, TruncatedOperator, advection_oracle,
                    advection_stirling_lower, builtin_graph, evolve, fit_decay, fit_power_law,
                    generator_from_edges, norms, q_seminorm, skew_bound_check,
                    trajectory_norms)
from dirlap import semigroup
from dirlap import integrate as integrate_module
from dirlap.errors import BudgetExceededError, TruncationError
from dirlap.integrate import lanczos_expm
from dirlap.semigroup import SimConfig, q_norm_fast

from helpers import (POSITIVE_WEIGHTS, ROUNDOFF, advection_peak,
                     assert_bound_covers_disagreement, count_builds, counted, dense_expm,
                     dense_laplacian, dopri_replay, finite_graphs,
                     k2_generator, negative_line_graph, random_support_vector, record_runs,
                     record_series, series_check, tight_cut_graph, truncation_check)

INF = math.inf


def small_cfg(t_max, times=None, **kw):
    defaults = dict(rtol=1e-10, atol=1e-12, c_speed=6.0)
    defaults.update(kw)
    return SimConfig(t_max=t_max, sample_times=times, **defaults)


class TestNorms:
    def test_indicator_all_p(self):
        b = dirlap.ball(builtin_graph("example-2.2"), (0,), 2)
        x = StateVector.indicator(b, (0,))
        assert norms(x, [1, 2, 3.5, INF]) == [1.0, 1.0, 1.0, 1.0]

    def test_three_four_five(self):
        b = dirlap.ball(k2_generator(), (0,), 1)
        x = StateVector.from_dict(b, {(0,): 3.0, (1,): 4.0})
        l2, l1, linf = norms(x, [2, 1, INF])
        assert (l2, l1, linf) == (5.0, 7.0, 4.0)

    def test_p_below_one_rejected(self):
        b = dirlap.ball(k2_generator(), (0,), 1)
        with pytest.raises(ValueError):
            norms(StateVector.indicator(b, (0,)), [0.5])

    def test_nan_p_rejected(self):
        b = dirlap.ball(k2_generator(), (0,), 1)
        with pytest.raises(ValueError, match="p must be >= 1, got nan"):
            norms(StateVector.indicator(b, (0,)), [float("nan")])
        with pytest.raises(ValueError, match="p must be >= 1, got nan"):
            q_seminorm({(0,): 1.0}, k2_generator(), ["nan"])

    def test_interpolation_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.normal(size=30) * rng.uniform(0.1, 10)
            for q in (2.0, 3.0, 10.0):
                gamma = 1.0 - 1.0 / q
                lq, l1, linf = norms(x, [q, 1, INF])
                assert lq <= l1 ** (1 - gamma) * linf ** gamma * (1 + 1e-12)


class TestQSeminorm:
    def test_k2_values(self):
        g = k2_generator()
        b = dirlap.ball(g, (0,), 1)
        x = StateVector.from_dict(b, {(0,): 1.0})
        q1, qinf = q_seminorm(x, g, [1, INF])
        assert q1 == pytest.approx(2.0)  # both ordered pairs
        assert qinf == pytest.approx(1.0)

    def test_constant_vanishes(self):
        g = k2_generator()
        b = dirlap.ball(g, (0,), 1)
        x = StateVector.from_dict(b, {(0,): 2.5, (1,): 2.5})
        assert q_seminorm(x, g, [1, 2, INF]) == [0.0, 0.0, 0.0]

    def test_degree_bound_from_interaction(self):
        # Q_p is at most twice the max symmetric degree times the p-norm
        g = builtin_graph("z-lattice", d=2)
        b = dirlap.ball(g, (0, 0), 6)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = StateVector.from_dict(b, random_support_vector(g, b, rng))
            for p in (1.0, 2.0, INF):
                qp = q_seminorm(x, g, [p])[0]
                assert qp <= 2 * 4 * norms(x, [p])[0] * (1 + 1e-12)

    def test_enlargement_guard(self):
        g = builtin_graph("z-lattice", d=2)
        b = dirlap.ball(g, (0, 0), 2)
        x = StateVector.from_dict(b, {v: 1.0 for v in b.vertices})
        with pytest.raises(ValueError, match="enlarge the ball"):
            q_seminorm(x, g, [2])
        wider = StateVector.from_dict(dirlap.ball(g, (0, 0), 3), x.to_dict())
        assert q_seminorm(wider, g, [2])[0] >= 0.0
        # 20 edges join distance 2 to distance 3, each counted both ways
        assert q_seminorm(wider, g, [2])[0] == pytest.approx(math.sqrt(40))

    def test_q_norm_rejects_p_below_one(self):
        g = builtin_graph("z-lattice", d=1)
        res = evolve(g, {g.root: 1.0}, small_cfg(2.0, [1.0, 2.0], c_speed=2.0),
                     part="sym")
        assert trajectory_norms(res, kind="q", p=1.0)[1][-1] > 0.0
        with pytest.raises(ValueError, match="p must be >= 1"):
            trajectory_norms(res, kind="q", p=0.5)

    def test_dict_input_exact(self):
        # two incident line edges, both ordered directions each
        g = builtin_graph("example-2.2")
        assert q_seminorm({(0,): 1.0}, g, [1])[0] == pytest.approx(4.0)

    @given(finite_graphs(), st.integers(min_value=1, max_value=4), st.data())
    def test_matches_q_norm_fast(self, g, r, data):
        # a support within radius r - 1 has its symmetric ring inside the
        # radius-r ball, so both sums see every pair with a nonzero difference
        b = dirlap.ball(g, g.root, r)
        inner = int(np.searchsorted(b.distances, r - 1, side="right"))
        values = np.zeros(len(b))
        values[:inner] = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=inner,
                                            max_size=inner))
        q1, q2, qinf = q_seminorm(StateVector.from_values(b, values), g, [1, 2, INF])
        pairs = b.sym_pairs()
        assert qinf == q_norm_fast(values, pairs, INF)
        assert q1 == pytest.approx(q_norm_fast(values, pairs, 1.0), rel=1e-12)
        assert q2 == pytest.approx(q_norm_fast(values, pairs, 2.0), rel=1e-12)


class TestSkewBound:
    def test_symmetric_graph_lhs_zero(self):
        g = builtin_graph("z-lattice", d=2)
        lhs, rhs = skew_bound_check({(0, 0): 1.0, (1, 0): -0.5}, g)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_line_indicator_hand_values(self):
        # |L_skew 1_0| sums to |0.5| + |1| + |-0.5| = 2; the local skew mass
        # counts the four ordered pairs touching vertex 0:
        # |w_skew(0,1)| + |w_skew(0,-1)| + |w_skew(1,0)| + |w_skew(-1,0)|
        # = 1 + 0.5 + 1 + 0.5 = 3, and Q_inf of the indicator is 1
        g = builtin_graph("example-2.2")
        lhs, rhs = skew_bound_check({(0,): 1.0}, g)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(3.0, abs=1e-12)
        assert lhs <= rhs

    def test_random_vectors_respect_bound(self):
        g = builtin_graph("example-2.2")
        b = dirlap.ball(g, (0,), 8)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = random_support_vector(g, b, rng)
            lhs, rhs = skew_bound_check(x, g)
            assert lhs <= rhs * (1 + 1e-12)

    def test_lhs_adds_left_to_right(self, monkeypatch):
        # a compensated sum, as sum() is from Python 3.12 on, gives 1 + 2**-52
        monkeypatch.setattr(semigroup, "_laplacian",
                            lambda data, rows, weight: {0: 1.0, 1: 2**-53, 2: -2**-53})
        lhs, _ = skew_bound_check({(0,): 1.0}, builtin_graph("example-2.2"))
        assert lhs == 1.0


@pytest.mark.parametrize("helper", [
    skew_bound_check,
    lambda x, g: dirlap.apply_laplacian(x, g, part="full"),
    lambda x, g: q_seminorm(x, g, [1, 2, INF]),
], ids=["skew_bound_check", "apply_laplacian", "q_seminorm"])
def test_dict_helpers_read_each_vertex_once(helper):
    g, reads = counted(builtin_graph("z2-skew-perturbed"))
    helper({(0, 0): 1.0, (1, 0): -0.5, (2, 1): 0.25}, g)
    # the support and its neighbours hold 11 vertices
    assert len(reads) == len(set(reads)) == 11


class TestAdvectionOracle:
    def test_first_two_sites(self):
        for t in (0.3, 1.0, 4.2):
            assert advection_oracle(0, t) == pytest.approx(math.exp(-t))
            assert advection_oracle(1, t) == pytest.approx(t * math.exp(-t))

    def test_origin_convention(self):
        assert advection_oracle(0, 0.0) == 1.0
        assert advection_oracle(3, 0.0) == 0.0

    def test_peak_at_t_equals_i(self):
        for i in range(1, 21):
            peak = advection_oracle(i, float(i))
            assert peak == pytest.approx(advection_peak(i), rel=1e-12)
            assert advection_oracle(i, i - 0.25) < peak
            assert advection_oracle(i, i + 0.25) < peak

    def test_stirling_lower_bound(self):
        for i in range(1, 171):
            assert advection_peak(i) >= advection_stirling_lower(i)

    def test_guards(self):
        with pytest.raises(ValueError):
            advection_oracle(-1, 1.0)
        with pytest.raises(ValueError):
            advection_oracle(0, -1.0)
        with pytest.raises(ValueError):
            advection_oracle(171, 1.0)


class TestTruncatedOperator:
    def test_parts_sum_and_symmetry(self):
        g = builtin_graph("z2-skew-perturbed", a=0.6)
        b = dirlap.ball(g, (0, 0), 4)
        op = TruncatedOperator(b)
        full = op.dense("full")
        sym = op.dense("sym")
        skew = op.dense("skew")
        assert np.abs(full - sym - skew).max() <= 1e-14
        off = sym - np.diag(np.diag(sym))
        assert np.abs(off - off.T).max() == 0.0
        assert np.abs(sym.sum(axis=1)).max() <= 1e-13
        assert np.abs(full.sum(axis=1)).max() <= 1e-13

    def test_matches_dense_oracle(self):
        g = builtin_graph("example-2.2")
        b = dirlap.ball(g, (0,), 5)
        op = TruncatedOperator(b)
        for part in ("full", "sym", "skew"):
            assert np.abs(op.dense(part) - dense_laplacian(g, b, part)).max() <= 1e-14

    def test_sym_pairs_cover_skeleton(self):
        g = builtin_graph("z-lattice", d=2)
        b = dirlap.ball(g, (0, 0), 3)
        rows, cols = b.sym_pairs()
        index = dict(zip(b.vertices, range(len(b))))
        expected = {(index[v], index[u])
                    for v in b.vertices for u in b.vertices
                    if abs(v[0] - u[0]) + abs(v[1] - u[1]) == 1}
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert pairs == expected
        assert all((j, i) in pairs for i, j in pairs)

    @given(finite_graphs(), st.integers(min_value=0, max_value=4))
    def test_sym_pairs_match_operator(self, g, r):
        b = dirlap.ball(g, g.root, r)
        m = TruncatedOperator(b, ("sym",)).matrix("sym").tocoo()
        off = (m.data > 0) & (m.row != m.col)
        rows, cols = b.sym_pairs()
        assert sorted(zip(rows.tolist(), cols.tolist())) == \
            sorted(zip(m.row[off].tolist(), m.col[off].tolist()))


class TestDenseExpm:
    def test_rotation(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]]) * (math.pi / 3)
        expected = np.array([[0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
        assert np.abs(dense_expm(a) - expected).max() <= 1e-13

    def test_diagonal(self):
        d = dense_expm(np.diag([-1.0, 2.0, 0.0]))
        assert np.abs(d - np.diag([math.exp(-1), math.exp(2), 1.0])).max() <= 1e-12

    def test_nilpotent(self):
        a = np.array([[0.0, 3.0], [0.0, 0.0]])
        assert np.abs(dense_expm(a) - np.array([[1.0, 3.0], [0.0, 1.0]])).max() == 0.0

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        a = a - np.diag(a.sum(axis=1))
        one = dense_expm(a * 0.7) @ dense_expm(a * 0.3)
        assert np.abs(one - dense_expm(a)).max() <= 1e-12


class TestEvolve:
    def test_zero_initial_condition(self):
        g = builtin_graph("example-2.2")
        b = dirlap.ball(g, (0,), 3)
        res = evolve(g, StateVector.from_dict(b, {}), small_cfg(2.0, [1.0, 2.0]))
        for _, s in res:
            assert np.all(s.values == 0.0)

    @pytest.mark.parametrize("name", ["z-lattice", "example-2.2"])
    def test_dense_oracle_agreement(self, name):
        g = builtin_graph(name, d=1) if name == "z-lattice" else builtin_graph(name)
        cfg = small_cfg(8.0, [1.0, 4.0, 8.0], c_speed=10.0)
        res = evolve(g, {g.root: 1.0}, cfg, part="sym")
        a = TruncatedOperator(res.ball, ("sym",)).dense("sym")
        y0 = StateVector.indicator(res.ball, g.root).values
        for t, s in res:
            exact = dense_expm(a * t) @ y0
            assert np.abs(exact - s.values).max() <= 1e-8

    def test_semigroup_law(self):
        g = builtin_graph("example-2.2")
        cfg = small_cfg(5.0, [2.0, 5.0], atol=1e-8, rtol=1e-10, c_speed=8.0)
        direct = evolve(g, {(0,): 1.0}, cfg, part="full")
        first = direct.state_at(2.0)
        cfg2 = small_cfg(3.0, [3.0], atol=1e-8, rtol=1e-10, c_speed=8.0)
        second = evolve(g, first, cfg2, part="full")
        end_direct = direct.state_at(5.0)
        end_two_leg = second.state_at(3.0)
        diff = max(abs(end_two_leg.value_at(v) - end_direct.value_at(v))
                   for v in end_direct.ball.vertices)
        assert diff <= 20 * cfg.atol

    def test_symmetric_mass_conserved(self):
        g = builtin_graph("z-lattice", d=2)
        cfg = small_cfg(6.0, [0.0, 2.0, 6.0], atol=1e-10, rtol=1e-8, c_speed=8.0)
        res = evolve(g, {(0, 0): 1.0}, cfg, part="sym")
        masses = [float(s.values.sum()) for _, s in res]
        assert abs(masses[-1] - masses[0]) <= 100 * cfg.atol

    def test_positivity_preserved(self):
        g = builtin_graph("z-lattice", d=2)
        cfg = small_cfg(4.0, [1.0, 4.0], c_speed=8.0)
        res = evolve(g, {(0, 0): 0.7, (1, 0): 0.3}, cfg, part="sym")
        for _, s in res:
            assert s.values.min() >= -10 * cfg.atol

    def test_undersized_sym_ball_grows_to_the_krylov_reach(self):
        # a deliberately absurd light cone: the run starts on radius 9 and the
        # ball grows with the Lanczos basis to its reach, 32 shells, reading
        # each vertex once
        g, reads = counted(builtin_graph("z-lattice", d=1))
        cfg = SimConfig(t_max=6.0, sample_times=[6.0], rtol=1e-8, atol=1e-10,
                        c_speed=0.05)
        res = evolve(g, {(0,): 1.0}, cfg, part="sym")
        assert (res.retries, res.ball.radius, res.n_steps) == (0, 32, 32)
        assert res.ball.radius == res.n_steps  # support radius 0, one basis
        assert sorted(reads) == sorted(res.ball.vertices)
        assert res.richardson_diff == 0.0

    def test_undersized_sym_line_matches_dense_on_twice_the_ball(self):
        # the input that used to exhaust the two-radius comparison's retries
        # now grows from radius 10 to the reach, 64, and matches the
        # exponential on a ball of twice the radius
        g = builtin_graph("z-lattice", d=1)
        cfg = SimConfig(t_max=40.0, sample_times=[40.0], rtol=1e-8, atol=1e-10,
                        c_speed=0.05)
        res = evolve(g, {(0,): 1.0}, cfg, part="sym")
        assert (res.retries, res.ball.radius, res.n_steps) == (0, 64, 64)
        big = dirlap.ball(g, (0,), 128)
        n = len(res.ball)
        assert big.vertices[:n] == res.ball.vertices
        a = TruncatedOperator(big, ("sym",)).dense("sym")
        exact = dense_expm(a * 40.0) @ StateVector.indicator(big, (0,)).values
        got = np.pad(res.state_at(40.0).values, (0, len(big) - n))
        assert np.abs(got - exact).max() <= 1e-9

    def test_sym_restarts_stay_inside_the_grown_ball(self, monkeypatch):
        # a cap of 8 vectors forces restarts; each basis of m vectors starts
        # from the last one's output and reaches m - 1 hops further, and the
        # ball grows across the restarts to one shell past the last output
        monkeypatch.setattr(integrate_module, "_MAX_KRYLOV_DIM", 8)
        runs = []
        lanczos = semigroup.lanczos_expm

        def recording(*args, **kwargs):
            runs.append(lanczos(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(semigroup, "lanczos_expm", recording)
        g, reads = counted(builtin_graph("z-lattice", d=1))
        cfg = SimConfig(t_max=6.0, sample_times=[1.0, 3.0, 6.0], atol=1e-10, c_speed=0.05)
        res = evolve(g, {(0,): 1.0, (2,): 0.5}, cfg, part="sym")
        bases = len(runs[-1].steps)
        assert len(runs) == 1 and res.retries == 0 and bases > 1
        assert res.n_steps == runs[-1].n_steps
        # on the line each matvec spreads exactly one hop
        reach = 2 + res.n_steps - bases
        assert res.state_at(6.0).support_radius == reach == res.ball.radius - 1
        assert sorted(reads) == sorted(res.ball.vertices)

    def test_sym_samples_equal_those_on_twice_the_ball(self):
        # the ball holds the Krylov reach, so more vertices change nothing:
        # the larger run's samples are exact zeros past the ball and agree on
        # it to roundoff (bit for bit under one BLAS thread)
        g = builtin_graph("z-lattice", d=2)
        x0 = {(0, 0): 1.0, (1, -1): -0.5}
        cfg = SimConfig(t_max=10.0, sample_times=[0.5, 2.0, 10.0], c_speed=0.05)
        res = evolve(g, x0, cfg, part="sym")
        big = dirlap.ball(g, (0, 0), 2 * res.ball.radius)
        n = len(res.ball)
        assert res.retries == 0 and big.vertices[:n] == res.ball.vertices
        a = TruncatedOperator(big, ("sym",)).matrix("sym")
        ref = lanczos_expm(lambda v, rows: a @ v, StateVector.from_dict(big, x0).values,
                           cfg.resolved_sample_times(), atol=cfg.atol)
        assert ref.n_steps == res.n_steps
        for (_, s), (_, y) in zip(res, ref.samples):
            assert np.all(y[n:] == 0.0)
            assert np.abs(s.values - y[:n]).max() <= 1e-15

    def test_a_sym_ball_ends_at_the_krylov_reach(self):
        # with no c_speed a sym run plans nothing: on z2-advection at t = 20
        # the ball grows from the root to the Krylov dimension, 48 shells,
        # where the old plan read 8 sqrt(2 t) + 8 = 59; a ball of radius 88
        # (by c_speed) gives the same samples and the same norm rows
        g = builtin_graph("z2-advection")
        res = evolve(g, {g.root: 1.0}, SimConfig(t_max=20.0), part="sym")
        assert (res.retries, res.ball.radius, res.n_steps) == (0, 48, 48)
        big = evolve(g, {g.root: 1.0}, SimConfig(t_max=20.0, c_speed=4.0), part="sym")
        n = len(res.ball)
        assert big.ball.radius == 88 and big.n_steps == res.n_steps
        for (_, s), (_, z) in zip(res, big, strict=True):
            assert not z.values[n:].any()
            assert np.abs(s.values - z.values[:n]).max() <= 1e-15

    def test_sym_norm_rows_do_not_depend_on_the_ball(self):
        # norms sum to the last nonzero entry, so a run on its own ball and
        # on a c_speed ball twice as wide give the same l1, l2 and linf rows,
        # bit for bit
        g = builtin_graph("z-lattice", d=2)
        cfg = SimConfig(t_max=20.0)
        res = evolve(g, {g.root: 1.0}, cfg, part="sym")
        wide = evolve(g, {g.root: 1.0},
                      SimConfig(t_max=20.0, c_speed=2 * res.ball.radius / cfg.t_max),
                      part="sym")
        assert wide.ball.radius >= 2 * res.ball.radius
        for p in (1.0, 2.0, INF):
            assert trajectory_norms(res, p=p) == trajectory_norms(wide, p=p)

    def test_sym_rows_match_the_truncated_operator(self):
        # the growing sym operator is TruncatedOperator's, entry for entry,
        # at every radius it grows through, the outer shell's cut rows too
        for g in (builtin_graph("z2-skew-perturbed"), builtin_graph("example-2.2"),
                  negative_line_graph()):
            b = dirlap.ball(g, g.root, 0, grow=True)
            op = semigroup._SymRows(b)
            for r in (1, 2, 5, 6, 13):
                ends, n = op.grow(r)
                a = TruncatedOperator(b, ("sym",)).matrix("sym")
                m = len(b)
                assert b.radius == r and n >= m and n % 64 == 0
                assert np.array_equal(ends, semigroup._shell_ends(b))
                assert np.array_equal(op.indptr[:m + 1], a.indptr)
                assert not np.any(op.indptr[m + 1:n + 1] - a.indptr[-1])
                nnz = a.indptr[-1]
                assert np.array_equal(op.indices[:nnz], a.indices)
                assert op.data[:nnz].tobytes() == a.data.tobytes()

    @pytest.mark.parametrize("part, cfg, retries", [
        # the undersized fixture above, and the same undersized line on the full part
        ("sym", SimConfig(t_max=6.0, sample_times=[6.0], rtol=1e-8, atol=1e-10,
                          c_speed=0.05), 0),
        ("full", SimConfig(t_max=6.0, rtol=1e-8, atol=1e-10, c_speed=0.05), 2),
        ("full", small_cfg(3.0, [3.0], c_speed=8.0), 0),
    ])
    def test_one_operator_per_attempt(self, monkeypatch, part, cfg, retries):
        built = count_builds(monkeypatch, semigroup, "TruncatedOperator")
        runs = record_runs(monkeypatch)
        series = record_series(monkeypatch)
        res = evolve(builtin_graph("z-lattice", d=1), {(0,): 1.0}, cfg, part=part)
        assert res.retries == retries
        # no weight of the line is negative: nothing integrates
        assert runs == []
        if part == "sym":
            # one attempt whose one operator grows with the ball (_SymRows)
            assert built == series == [] and res.ball.radius == 32
            return
        assert len(built) == retries + 1
        assert built[-1][0] is res.ball
        # a full attempt runs the series once, on its whole ball
        assert len(series) == retries + 1
        assert series[-1].y0.size == len(res.ball)
        assert (res.n_steps, res.richardson_diff) == \
            (series[-1].result.n_steps, series[-1].result.bound)

    def test_one_dopri_run_per_attempt_with_a_negative_weight(self, monkeypatch):
        built = count_builds(monkeypatch, semigroup, "TruncatedOperator")
        runs = record_runs(monkeypatch)
        series = record_series(monkeypatch)
        cfg = SimConfig(t_max=4.0, rtol=1e-8, atol=1e-10, c_speed=0.05)
        res = evolve(negative_line_graph(), {(0,): 1.0}, cfg, part="full")
        assert (res.retries, res.ball.radius) == (2, 33)
        assert len(built) == len(runs) == 3 and series == []
        assert built[-1][0] is res.ball
        assert runs[-1].y0.size == len(res.ball)
        assert (res.n_steps, res.richardson_diff) == \
            (runs[-1].result.n_steps, runs[-1].result.bound)

    def test_primary_run_is_the_enlarged_operator_cut(self, monkeypatch):
        # the primary run the last attempt's bound stands for, rebuilt from the
        # public pieces: the enlarged ball's operator cut to the first
        # ends[radius] columns and to each window's rows, from the first
        # ends[radius] vertices, along the one run's steps, gives the oracle's
        # disagreement bit for bit, and the bound covers it
        runs = record_runs(monkeypatch)
        g = negative_line_graph()
        cfg = SimConfig(t_max=4.0, rtol=1e-8, atol=1e-10, c_speed=0.05)
        res = evolve(g, {(0,): 1.0}, cfg, part="full")
        radius = res.ball.radius - semigroup._TRUNCATION_MARGIN
        b = dirlap.ball(g, g.root, res.ball.radius)
        a = TruncatedOperator(b, ("full",)).matrix("full")
        ends = np.searchsorted(b.distances, np.arange(b.radius + 1), side="right")
        y0 = StateVector.from_dict(b, {(0,): 1.0}).values[:ends[radius]]
        steps = runs[-1].result.steps
        primary = dopri_replay(lambda t, y, rows: a[:rows, :y.size] @ y, y0,
                               cfg.resolved_sample_times(), steps, ends[:radius + 1],
                               integrate_module._WINDOW_TOL * cfg.atol)
        diff = max(float(np.max(np.abs(s.values[:y0.size] - y)))
                   for (_, s), (_, y) in zip(res, primary))
        assert res.retries == 2 and res.n_steps == len(steps)
        assert diff == truncation_check(runs[-1])[1]
        assert diff <= res.richardson_diff + ROUNDOFF

    def test_dopri_makes_one_prefix_view_per_window(self, monkeypatch):
        # a full run with a negative weight keeps its prefix view while the
        # window stays, and its samples are those of a fresh view per call
        row_prefix, dopri = semigroup._row_prefix, semigroup.integrate
        views, runs = [], []
        monkeypatch.setattr(semigroup, "_row_prefix",
                            lambda a, rows: views.append(rows) or row_prefix(a, rows))

        def recording(f, y0, times, **kwargs):
            windows = []
            res = dopri(lambda t, y, rows: windows.append(rows) or f(t, y, rows),
                        y0, times, **kwargs)
            runs.append((windows, y0, times, kwargs, res))
            return res

        monkeypatch.setattr(semigroup, "integrate", recording)
        cfg = SimConfig(t_max=4.0, rtol=1e-8, atol=1e-10, c_speed=0.05)
        res = evolve(negative_line_graph(), {(0,): 1.0}, cfg, part="full")
        assert (res.retries, len(runs)) == (2, 3)
        # the window never falls, so its distinct values are its changes
        assert views == [r for windows, *_ in runs for r in dict.fromkeys(windows)]
        assert len(views) < sum(len(windows) for windows, *_ in runs) / 10
        _, y0, times, kwargs, last = runs[-1]
        a = TruncatedOperator(res.ball, ("full",)).matrix("full")
        fresh = dopri(lambda t, y, rows: row_prefix(a, rows) @ y, y0, times, **kwargs)
        assert (fresh.n_steps, fresh.bound) == (last.n_steps, last.bound)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(fresh.samples, last.samples))

    def test_bound_covers_the_disagreement_at_every_retry(self, monkeypatch):
        # the radii 9, 17 and 25, and only the last within 10 * atol
        runs = record_runs(monkeypatch)
        cfg = SimConfig(t_max=4.0, rtol=1e-8, atol=1e-10, c_speed=0.05)
        res = evolve(negative_line_graph(), {(0,): 1.0}, cfg, part="full")
        assert (res.retries, res.ball.radius, len(runs)) == (2, 33, 3)
        assert [truncation_check(r)[0] > 10 * cfg.atol for r in runs] == [True, True, False]
        assert_bound_covers_disagreement(runs)

    def test_series_bound_covers_the_disagreement_at_every_retry(self, monkeypatch):
        # the sim-retry gate line: the radii 9, 17 and 25, and only the last
        # within 10 * atol
        series = record_series(monkeypatch)
        cfg = SimConfig(t_max=6.0, rtol=1e-8, atol=1e-10, c_speed=0.05)
        res = evolve(builtin_graph("z-lattice", d=1), {(0,): 1.0}, cfg, part="full")
        assert (res.retries, res.ball.radius, len(series)) == (2, 33, 3)
        checks = [series_check(r) for r in series]
        assert [bound > 10 * cfg.atol for bound, _ in checks] == [True, True, False]
        for bound, diff in checks:
            assert 0.0 < diff <= bound + ROUNDOFF

    def test_richardson_diff_reported_small(self):
        g = builtin_graph("example-2.2")
        cfg = small_cfg(3.0, [3.0], c_speed=8.0)
        res = evolve(g, {(0,): 1.0}, cfg, part="full")
        assert res.richardson_diff is not None
        assert res.richardson_diff <= 10 * cfg.atol

    def test_advection_axis_closed_form_small(self):
        g = builtin_graph("z2-advection")
        cfg = SimConfig(t_max=3.0, sample_times=[1.0, 3.0], rtol=1e-9,
                        atol=1e-12, c_speed=2.0)
        res = evolve(g, {(0, 0): 1.0}, cfg, part="full")
        for t, _ in res:
            state = res.state_at(t)
            for i in range(7):
                assert state.value_at((i, 0)) == pytest.approx(
                    advection_oracle(i, t), abs=1e-8)

    def test_bad_part(self):
        with pytest.raises(ValueError):
            evolve(builtin_graph("example-2.2"), {(0,): 1.0},
                   small_cfg(1.0, [1.0]), part="skew")


@settings(max_examples=60)
@given(finite_graphs(), st.floats(0.1, 4.0), st.sampled_from([0.0, 0.5]))
# the bound with mu = 0 falls 12 % short of the disagreement here
@example(tight_cut_graph(), 1.0, 0.0)
def test_bound_covers_the_two_run_disagreement(g, t_max, c_speed):
    # negative weights give the cut a positive log-norm; a one-hop margin
    # puts the cut inside the graph, where the flux is not zero.  A ball
    # with a negative weight runs DOPRI, any other the series.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_TRUNCATION_MARGIN", 1)
        runs, series = record_runs(mp), record_series(mp)
        cfg = SimConfig(t_max=t_max, sample_times=[t_max / 4, t_max], c_speed=c_speed)
        try:
            evolve(g, {g.root: 1.0}, cfg, part="full")
        except TruncationError:
            pass
        assert runs or series
        if runs:
            assert_bound_covers_disagreement(runs)
        for run in series:
            bound, diff = series_check(run)
            assert diff <= bound + ROUNDOFF


@settings(max_examples=60)
@given(finite_graphs(POSITIVE_WEIGHTS), st.floats(0.1, 4.0), st.sampled_from([0.0, 0.5]))
def test_series_matches_dense_expm_and_bounds_the_cut(g, t_max, c_speed):
    # every attempt runs the series, its bound covers the exact two-run
    # disagreement, and the samples are the dense exponential's to atol
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_TRUNCATION_MARGIN", 1)
        runs, series = record_runs(mp), record_series(mp)
        cfg = SimConfig(t_max=t_max, sample_times=[0.0, t_max / 4, t_max], c_speed=c_speed)
        try:
            res = evolve(g, {g.root: 1.0}, cfg, part="full")
        except TruncationError:
            res = None
        assert series and runs == []
        for run in series:
            bound, diff = series_check(run)
            assert diff <= bound + ROUNDOFF
        if res is not None:
            a = dense_laplacian(g, res.ball, "full")
            y0 = StateVector.indicator(res.ball, g.root).values
            for t, s in res:
                assert np.abs(dense_expm(t * a) @ y0 - s.values).max() <= cfg.atol


class TestSeries:
    def test_isolated_vertex_keeps_its_value(self):
        # no edge on the ball: rho is 0, one term, and every sample is x0
        g = generator_from_edges({((1,), (2,)): 1.0}, root=(0,))
        res = evolve(g, {(0,): 0.7}, small_cfg(5.0, [0.0, 1.0, 5.0]), part="full")
        assert len(res.ball) == 1
        assert (res.n_steps, res.richardson_diff, res.retries) == (1, 0.0, 0)
        assert all(s.values.tolist() == [0.7] for _, s in res)

    def test_a_sample_at_time_zero_is_a_copy_of_x0(self):
        g = builtin_graph("example-2.2")
        x0 = {(0,): 0.3, (1,): -1.7, (-2,): 1e-300, (3,): math.pi}
        res = evolve(g, x0, small_cfg(2.0, [0.0, 2.0]), part="full")
        assert res.n_steps > 1
        assert res[0][1].values.tolist() == StateVector.from_dict(res.ball, x0).values.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_x0_fails_before_the_first_term(self, monkeypatch, bad):
        series = record_series(monkeypatch)
        with pytest.raises(ValueError, match=f"= {bad} is not finite"):
            evolve(builtin_graph("z-lattice", d=1), {(0,): bad}, small_cfg(1.0), part="full")
        assert series == []

    def test_a_full_run_does_not_import_scipy_stats(self):
        code = ("import sys\n"
                "from dirlap import SimConfig, builtin_graph, evolve\n"
                "evolve(builtin_graph('z2-advection'), {(0, 0): 1.0},\n"
                "       SimConfig(t_max=4.0, c_speed=2.0), part='full')\n"
                "assert 'scipy.stats' not in sys.modules and 'scipy.special' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


class TestSupportSearch:
    def test_disconnected_support_stops_on_empty_frontier(self):
        g = generator_from_edges({((0,), (1,)): 1.0, ((1,), (0,)): 1.0,
                                  ((5,), (6,)): 1.0, ((6,), (5,)): 1.0}, root=(0,))
        with pytest.raises(ValueError, match="not reachable"):
            evolve(g, {(0,): 1.0, (5,): 1.0}, small_cfg(1.0))

    def test_unreachable_support_on_infinite_graph_hits_budget(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_BALL_BUDGET", 500)
        g = builtin_graph("z-lattice", d=2)
        with pytest.raises(BudgetExceededError):
            evolve(g, {(0, 0): 1.0, (0, 0, 0): 1.0}, small_cfg(1.0))


class TestFitDecay:
    def test_exact_power_law(self):
        times = np.linspace(0.0, 100.0, 60)
        values = 3.0 * (1.0 + times) ** -1.5
        fit = fit_power_law(times, values, window=(5.0, 100.0))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_filters_samples(self):
        times = list(range(0, 50))
        values = [2.0 * (1 + t) ** -1.0 for t in times]
        fit = fit_power_law(times, values, window=(10.0, 40.0))
        assert min(fit.times) >= 10.0
        assert max(fit.times) <= 40.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match=">= 8 samples"):
            fit_power_law([1, 2, 3], [1.0, 0.5, 0.25], window=(0.0, 3.0))

    def test_zero_norm_rejected(self):
        times = list(range(10))
        values = [1.0] * 9 + [0.0]
        with pytest.raises(ValueError, match="zero"):
            fit_power_law(times, values, window=(0.0, 9.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # NaN would fit with r_squared 1.0, as min(1.0, nan) is 1.0
        times = list(range(20))
        values = [(1.0 + t) ** -0.5 for t in times]
        values[12] = values[15] = bad
        with pytest.raises(ValueError, match=f"non-finite sample: t=12.0, value={bad}"):
            fit_power_law(times, values, window=(5.0, 19.0))
        times[3], values[12], values[15] = bad, 1.0, 1.0  # outside the window too
        with pytest.raises(ValueError, match=f"t={bad}, value=0.5"):
            fit_power_law(times, values, window=(5.0, 19.0))

    def test_fit_decay_on_trajectory(self):
        g = builtin_graph("z-lattice", d=1)
        ts = [0.0] + list(np.geomspace(0.5, 60.0, 24))
        cfg = SimConfig(t_max=60.0, sample_times=ts, rtol=1e-8, atol=1e-10,
                        c_speed=3.0)
        res = evolve(g, {(0,): 1.0}, cfg, part="sym")
        fit = fit_decay(res, kind="p", p=INF, window=(5.0, 60.0))
        # one-dimensional symmetric flow decays with exponent -1/2
        assert fit.exponent == pytest.approx(-0.5, abs=0.08)
        fitq = fit_decay(res, kind="q", p=INF, window=(5.0, 60.0))
        assert fitq.exponent < fit.exponent - 0.05


class TestSimConfig:
    def test_only_caller_settings_are_fields(self):
        # margin, retries and budgets are module constants, not settings
        assert [f.name for f in dataclasses.fields(SimConfig)] == \
            ["t_max", "sample_times", "rtol", "atol", "c_speed"]
        assert not hasattr(dirlap, "ValidationConfig")

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(t_max=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_max=1.0, rtol=-1e-8)
        # a non-finite tolerance would pass the truncation check vacuously
        for name in ("t_max", "rtol", "atol"):
            for x in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    SimConfig(**{"t_max": 1.0, name: x})
        # a negative speed could leave the sym ball no room to grow
        for c in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_speed"):
                SimConfig(t_max=1.0, c_speed=c)
        with pytest.raises(ValueError):
            SimConfig(t_max=1.0, sample_times=[2.0]).resolved_sample_times()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_a_bad_sample_time_fails_when_built(self, bad):
        # a NaN time used to reach the flow, which read its ball before failing
        with pytest.raises(ValueError, match="sample times must be finite and nonnegative"):
            SimConfig(t_max=1.0, sample_times=[0.5, bad])

    def test_a_sample_time_past_t_max_fails_when_built(self):
        # it used to pass until resolved_sample_times, after evolve read its balls
        with pytest.raises(ValueError, match="sample times exceed t_max"):
            SimConfig(t_max=50.0, sample_times=[10.0, 60.0])
        assert SimConfig(t_max=50.0, sample_times=[50.0]).resolved_sample_times() == [50.0]

    def test_default_sample_grid(self):
        ts = SimConfig(t_max=100.0).resolved_sample_times()
        assert ts[0] == 0.0
        assert ts[-1] == 100.0
        assert len(ts) > 30

    def test_final_time_appended(self):
        ts = SimConfig(t_max=5.0, sample_times=[1.0, 2.0]).resolved_sample_times()
        assert ts == [1.0, 2.0, 5.0]


class TestStateVector:
    def test_support_radius(self):
        g = builtin_graph("z-lattice", d=2)
        b = dirlap.ball(g, (0, 0), 5)
        x = StateVector.from_dict(b, {(0, 0): 1.0, (2, 1): -0.5})
        assert x.support_radius == 3

    def test_outside_vertex_rejected(self):
        g = builtin_graph("z-lattice", d=2)
        b = dirlap.ball(g, (0, 0), 2)
        with pytest.raises(ValueError):
            StateVector.from_dict(b, {(5, 5): 1.0})

    def test_roundtrip(self):
        g = builtin_graph("example-2.2")
        b = dirlap.ball(g, (0,), 4)
        data = {(1,): 0.25, (-3,): -1.5}
        x = StateVector.from_dict(b, data)
        assert x.to_dict() == data
        assert x.value_at((99,)) == 0.0
