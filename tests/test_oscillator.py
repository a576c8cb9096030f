"""Phase-locked states, linearization, and nonlinear stability runs."""

import ast
import dataclasses
import functools
import gc
import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

import dirlap
from dirlap import (OscillatorSystem, PhaseLockCandidate, SeparableCoupling, builtin_graph,
                    evolve, generator_from_edges, linearize, simulate_nonlinear,
                    sin_coupling, verify_phase_lock)
from dirlap import oscillator, semigroup
from dirlap.errors import BlowUpError, DegreeCapError, TruncationError
from dirlap.geometry import ball
from dirlap.graph import DEFAULT_DEGREE_CAP
from dirlap.oscillator import GenericCoupling, coupling_from_graph
from dirlap.semigroup import SimConfig, trajectory_norms
from helpers import (BUILTINS, assert_bound_covers_disagreement, assert_same_ball,
                     assert_same_edge_table, both_steps, check_coupling_gradient,
                     count_builds, decompose_edge, pairwise_sine_rhs, record_runs,
                     split_coupling_matrix, tight_cut_graph)


def uniform_sin_system(graph_name="z-lattice", omega=1.0, **params):
    g = builtin_graph(graph_name, **params)
    weight, support = coupling_from_graph(g)
    return OscillatorSystem(omega=lambda v: omega,
                            coupling=sin_coupling(weight, support),
                            root=g.root, name=f"sin/{g.name}"), g


def planted_system():
    """Sin coupling on the plane with nonuniform lags solved by construction."""
    g = builtin_graph("z-lattice", d=2)
    weight, support = coupling_from_graph(g)
    coup = sin_coupling(weight, support)

    def lags(v):
        return 0.4 * math.sin(0.9 * v[0]) + 0.2 * math.cos(1.3 * v[1])

    velocity = 0.7

    def omega(v):
        return velocity - sum(coup.h(lags(u) - lags(v), v, u)
                              for u in support(v))

    sys_ = OscillatorSystem(omega=omega, coupling=coup, root=(0, 0),
                            name="planted")
    return sys_, PhaseLockCandidate(velocity=velocity, lags=lags)


def generic_twin(coupling):
    """The sine coupling ``coupling`` as a ``GenericCoupling``, read pair by pair.

    ``h`` runs once per pair per right-hand side and the graph weight reads
    the graph each time, so the twin reads it through a cache.
    """
    weight, support = functools.cache(coupling.weight), coupling.support
    return GenericCoupling(h=lambda x, v, u: weight(v, u) * math.sin(x),
                           dh=lambda x, v, u: weight(v, u) * math.cos(x),
                           support=support)


class TestCouplingChecks:
    def test_gradient_matches_finite_differences(self):
        sys_, _ = uniform_sin_system(d=2)
        assert check_coupling_gradient(sys_, n_samples=1000) <= 1e-6

    def test_generic_coupling_gradient(self):
        g = builtin_graph("z-lattice", d=1)
        _, support = coupling_from_graph(g)
        coup = GenericCoupling(
            h=lambda x, v, u: math.sin(x) + 0.25 * math.sin(2 * x),
            dh=lambda x, v, u: math.cos(x) + 0.5 * math.cos(2 * x),
            support=support)
        sys_ = OscillatorSystem(omega=lambda v: 0.0, coupling=coup, root=(0,))
        assert check_coupling_gradient(sys_, n_samples=500) <= 1e-6

    def test_non_periodic_coupling_rejected(self):
        g = builtin_graph("z-lattice", d=1)
        _, support = coupling_from_graph(g)
        coup = GenericCoupling(h=lambda x, v, u: 0.1 * x,
                               dh=lambda x, v, u: 0.1, support=support)
        sys_ = OscillatorSystem(omega=lambda v: 0.0, coupling=coup, root=(0,))
        with pytest.raises(ValueError, match="periodic"):
            check_coupling_gradient(sys_, n_samples=50)


class TestVerifyPhaseLock:
    def test_trivial_lock_zero_residual(self):
        sys_, _ = uniform_sin_system(d=2, omega=1.3)
        cand = PhaseLockCandidate(velocity=1.3, lags=lambda v: 0.0)
        assert verify_phase_lock(sys_, cand, radius=5) == 0.0

    def test_velocity_offset_shows_up_exactly(self):
        sys_, _ = uniform_sin_system(d=2, omega=1.3)
        cand = PhaseLockCandidate(velocity=1.4, lags=lambda v: 0.0)
        assert verify_phase_lock(sys_, cand, radius=4) == pytest.approx(0.1)

    def test_planted_lags_verify(self):
        sys_, cand = planted_system()
        assert verify_phase_lock(sys_, cand, radius=6) <= 1e-10

    @pytest.mark.parametrize("field", ["omega", "lags"])
    def test_a_nan_at_one_vertex_gives_a_nan_residual(self, field):
        sys_, _ = uniform_sin_system(d=2, omega=0.0)
        cand = PhaseLockCandidate(velocity=0.0, lags=lambda v: 0.0)

        def nan_at(v):
            return math.nan if v == (1, 0) else 0.0

        if field == "omega":
            sys_ = dataclasses.replace(sys_, omega=nan_at)
        else:
            cand = dataclasses.replace(cand, lags=nan_at)
        assert math.isnan(verify_phase_lock(sys_, cand, radius=3))

    def test_negative_radius_is_an_error(self):
        sys_, _ = uniform_sin_system(d=2, omega=1.0)
        cand = PhaseLockCandidate(velocity=5.0, lags=lambda v: 0.0)
        with pytest.raises(ValueError, match="radius"):
            verify_phase_lock(sys_, cand, radius=-1)

    def test_reads_each_vertex_at_most_twice(self):
        # the CLI's check: once by the walk, and once more by the edge table
        # each row with an outside entry, the outer shell's
        g = builtin_graph("z2-skew-perturbed", a=0.5)
        reads = Counter()

        def adjacency(v):
            reads[v] += 1
            return g.adjacency(v)

        def batch(coords):
            reads.update(map(tuple, np.asarray(coords).tolist()))
            return g.batch_adjacency(coords)

        weight, support = coupling_from_graph(
            dataclasses.replace(g, adjacency=adjacency, batch_adjacency=batch))
        sys_ = OscillatorSystem(omega=lambda v: 1.0, coupling=sin_coupling(weight, support),
                                root=g.root)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        assert verify_phase_lock(sys_, cand, radius=6) == 0.0
        b = ball(g, g.root, 6)
        edge = [b.vertices[i] for i in np.unique(b.entry_rows()[b.nbr < 0])]
        assert edge == [v for v, d in zip(b.vertices, b.distances) if d == 6]
        assert reads == Counter(b.vertices) + Counter(edge)

    @staticmethod
    def support_bfs(sys_, radius):
        """The vertices within ``radius`` hops of the root along the coupling's support."""
        seen, frontier = {sys_.root}, [sys_.root]
        for _ in range(radius):
            frontier = [u for v in frontier for u in sys_.coupling.support(v)
                        if u not in seen and not seen.add(u)]
        return seen

    @pytest.mark.parametrize("system", [f"{n}{p}" for n, p in BUILTINS]
                             + ["planted", "lagged", "anti-phase"])
    def test_samples_the_support_ball(self, system):
        if system in ("planted", "lagged"):
            sys_, cand = planted_system() if system == "planted" else lagged_lock()
        elif system == "anti-phase":  # every slope is negative
            sys_, _ = uniform_sin_system(d=2)
            cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: math.pi * (sum(v) % 2))
        else:
            name, params = {f"{n}{p}": (n, p) for n, p in BUILTINS}[system]
            sys_, _ = uniform_sin_system(name, **params)
            cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        radius = 3 if len(sys_.root) >= 3 else 6
        sampled = []
        omega = sys_.omega
        sys_ = dataclasses.replace(sys_, omega=lambda v: sampled.append(v) or omega(v))
        assert verify_phase_lock(sys_, cand, radius) <= 1e-12
        assert len(sampled) == len(set(sampled))
        assert set(sampled) == self.support_bfs(sys_, radius)

    def test_a_wrong_omega_off_the_root_of_an_anti_phase_lock_shows(self):
        # the slopes at lags pi * (x mod 2) are all -1: no skeleton edge is
        # positive, but the support still reaches (3,)
        sys_, _ = uniform_sin_system(d=1)
        sys_ = dataclasses.replace(sys_, omega=lambda v: 1.5 if v == (3,) else 1.0)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: math.pi * (v[0] % 2))
        assert verify_phase_lock(sys_, cand, radius=5) == pytest.approx(0.5)
        assert verify_phase_lock(sys_, cand, radius=2) <= 1e-12

    def test_generic_coupling_needs_no_slope_and_no_degree_cap(self):
        # 70 neighbours each way, past DEFAULT_DEGREE_CAP, and no usable dh
        def support(v):
            return [(v[0] + k,) for k in range(-70, 71) if k]

        def dh(x, v, u):
            raise AssertionError("the lock check reads no slope")

        coup = GenericCoupling(h=lambda x, v, u: math.sin(x), dh=dh, support=support)
        sys_ = OscillatorSystem(omega=lambda v: 1.25 if v == (100,) else 1.0,
                                coupling=coup, root=(0,))
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        assert 70 > DEFAULT_DEGREE_CAP
        assert verify_phase_lock(sys_, cand, radius=1) == 0.0
        assert verify_phase_lock(sys_, cand, radius=2) == 0.25


class TestLinearize:
    def test_sin_coupling_at_zero_recovers_weights(self):
        # slope of k*sin at 0 is k, so the linearization weight equals the
        # coupling strength
        sys_, g = uniform_sin_system("z2-skew-perturbed", a=0.5)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        lin = linearize(sys_, cand)
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            axis, step = int(rng.integers(2)), int(rng.choice([-1, 1]))
            u = list(v)
            u[axis] += step
            u = tuple(u)
            (lo, li), (go, gi) = lin.edges(v), g.edges(v)
            assert (lo.get(u, 0.0), li.get(u, 0.0)) == (go.get(u, 0.0), gi.get(u, 0.0))

    def test_symmetric_coupling_has_no_skew(self):
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        lin = linearize(sys_, cand)
        for v in [(0, 0), (2, -1), (-3, 3)]:
            out, inn = lin.edges(v)
            for u in set(out) | set(inn):
                assert decompose_edge(v, u, lin)[1] == 0.0

    def test_linearized_generator_validates(self):
        sys_, cand = planted_system()
        report = dirlap.validate_generator(linearize(sys_, cand), 5)
        assert report.ok


class TestSplitCouplingMatrix:
    def test_symmetric_matrix_no_skew(self):
        k_sym, k_skew = split_coupling_matrix(lambda v, u: 2.0)
        assert k_sym((0,), (1,)) == 2.0
        assert k_skew((0,), (1,)) == 0.0

    def test_one_way_coupling(self):
        def k(v, u):
            return 2.0 if v < u else 0.0

        k_sym, k_skew = split_coupling_matrix(k)
        assert k_sym((0,), (1,)) == 1.0
        assert k_skew((0,), (1,)) == 1.0
        assert k_skew((1,), (0,)) == -1.0

    def test_agrees_with_edge_decomposition(self):
        g = builtin_graph("z2-skew-perturbed", a=0.35)
        def k(v, u):
            return g.edges(v)[0].get(u, 0.0)

        k_sym, k_skew = split_coupling_matrix(k)
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            axis, step = int(rng.integers(2)), int(rng.choice([-1, 1]))
            u = list(v)
            u[axis] += step
            u = tuple(u)
            ws, wk = decompose_edge(v, u, g)
            assert k_sym(v, u) == ws
            assert k_skew(v, u) == wk


class TestSimulateNonlinear:
    def test_zero_perturbation_stays_zero(self):
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=3.0, sample_times=[1.0, 3.0], rtol=1e-9,
                        atol=1e-12, c_speed=2.0)
        dev = simulate_nonlinear(sys_, cand, {(0, 0): 0.0}, cfg)
        for _, s in dev:
            assert np.all(s.values == 0.0)

    def test_blow_up_detected(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_MAX_PERTURBATION_L1", 10.0)
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=5.0, sample_times=[5.0], rtol=1e-8, atol=1e-10,
                        c_speed=2.0)
        with pytest.raises(BlowUpError, match="perturbative"):
            simulate_nonlinear(sys_, cand, {(0, 0): 3.0}, cfg)

    def test_perturbation_l1_budget(self):
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=1.0, sample_times=[1.0], c_speed=2.0)
        with pytest.raises(ValueError, match="l1 budget"):
            simulate_nonlinear(sys_, cand, {(0, 0): 2.0}, cfg)

    def test_nan_perturbation_is_over_the_l1_budget(self):
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=1.0, sample_times=[1.0], c_speed=2.0)
        with pytest.raises(ValueError, match="l1 budget"):
            simulate_nonlinear(sys_, cand, {(0, 0): math.nan}, cfg)

    def test_phase_shift_equivariance(self):
        # the interaction depends on differences only, so shifting every lag
        # by a constant shifts the locked state and leaves deviations alone
        sys_, _ = uniform_sin_system("z2-skew-perturbed", a=0.5)
        base = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        shifted = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.8)
        cfg = SimConfig(t_max=4.0, sample_times=[1.0, 4.0], rtol=1e-10,
                        atol=1e-12, c_speed=3.0)
        dev_a = simulate_nonlinear(sys_, base, {(0, 0): 0.01}, cfg)
        dev_b = simulate_nonlinear(sys_, shifted, {(0, 0): 0.01}, cfg)
        for (_, sa), (_, sb) in zip(dev_a, dev_b):
            assert np.abs(sa.values - sb.values).max() <= 10 * cfg.atol

    @staticmethod
    def assert_generic_matches_separable(sys_, cand, perturbation, t_max):
        slow = generic_twin(sys_.coupling)
        cfg = SimConfig(t_max=t_max, sample_times=[t_max / 2, t_max], rtol=1e-10,
                        atol=1e-12, c_speed=3.0)
        devs = [simulate_nonlinear(OscillatorSystem(
                    omega=sys_.omega, coupling=coup, root=sys_.root),
                    cand, perturbation, cfg)
                for coup in (sys_.coupling, slow)]
        for (_, sa), (_, sb) in zip(devs[0], devs[1]):
            assert np.abs(sa.values - sb.values).max() <= 1e-12

    def test_generic_coupling_slow_path_matches_separable(self):
        sys_, _ = uniform_sin_system(d=1, omega=0.0)
        cand = PhaseLockCandidate(velocity=0.0, lags=lambda v: 0.0)
        self.assert_generic_matches_separable(sys_, cand, {(0,): 0.05}, 2.0)

    def test_generic_coupling_matches_separable_with_nonuniform_lags(self):
        # the zero lags above give sin(lag) = 0 at every frozen exterior
        # neighbour; the planted lags do not
        sys_, cand = planted_system()
        self.assert_generic_matches_separable(sys_, cand, {(0, 0): 0.05}, 1.0)

    def test_a_steep_lag_lock_flows_on_every_coupled_pair(self):
        # lags 2x on the unit line: every slope cos 2 is negative, yet each
        # pair still couples the deviation to its neighbours
        coup = SeparableCoupling(builtin_graph("z-lattice", d=1))

        def lags(v):
            return 2.0 * v[0]

        def omega(v):
            return 1.0 - sum(coup.h(lags(u) - lags(v), v, u) for u in coup.support(v))

        sys_ = OscillatorSystem(omega=omega, coupling=coup, root=(0,))
        cand = PhaseLockCandidate(velocity=1.0, lags=lags)
        assert verify_phase_lock(sys_, cand, radius=5) <= 1e-15
        ts = [0.5, 1.0, 2.0]
        res = simulate_nonlinear(sys_, cand, {(0,): 1e-3}, SimConfig(t_max=2.0, sample_times=ts))
        assert len(res.ball) > 1
        # the oracle: the line -40..40, its two outer neighbours frozen at the lock
        line = [(x,) for x in range(-40, 41)]
        assert set(res.ball.vertices) <= set(line)
        psi_lock = np.array([lags((x,)) for x in range(-41, 42)])
        offset = np.array([omega(v) - 1.0 for v in line])

        def rhs(t, phi):
            psi = psi_lock + np.pad(phi, 1)
            return offset + np.sin(psi[2:] - psi[1:-1]) + np.sin(psi[:-2] - psi[1:-1])

        phi0 = np.array([1e-3 if v == (0,) else 0.0 for v in line])
        ref = solve_ivp(rhs, (0.0, 2.0), phi0, method="DOP853", t_eval=ts, rtol=1e-12,
                        atol=1e-15)
        for t, expected in zip(ts, ref.y.T):
            got = np.array([res.state_at(t).value_at(v) for v in line])
            assert np.abs(got - expected).max() <= 1e-8

    def test_a_coupled_pair_the_walk_does_not_follow_is_an_error(self):
        # (0,) couples to (1,) at 0.5 one way and -0.5 the other: the pair has
        # symmetric weight 0, so no walk from (0,) reaches (1,)
        g = generator_from_edges({((0,), (1,)): 0.5, ((1,), (0,)): -0.5,
                                  ((0,), (-1,)): 1.0, ((-1,), (0,)): 1.0}, root=(0,))
        sys_ = OscillatorSystem(omega=lambda v: 1.0, coupling=SeparableCoupling(g), root=(0,))
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=1.0, sample_times=[1.0], c_speed=1.0)
        with pytest.raises(ValueError, match=r"\(\(0,\), \(1,\)\) is coupled"):
            simulate_nonlinear(sys_, cand, {(0,): 0.01}, cfg)
        with pytest.raises(ValueError, match="did not follow"):
            verify_phase_lock(sys_, cand, radius=1)


_SKEW_PLANE = builtin_graph("z2-skew-perturbed", a=0.5)
_RHS_BALL = ball(_SKEW_PLANE, (0, 0), 3)  # 25 vertices, 16 exterior neighbours
_RHS_REACH = ball(_SKEW_PLANE, (0, 0), 4)


def skew_plane_coupling(kind):
    """The sine coupling of ``_SKEW_PLANE``, and the list of weight calls or None.

    ``graph`` and ``graph without batch`` read the graph; ``lambdas`` gives its
    pair as user callables, which ``sin_coupling`` wraps, and keeps their calls.
    """
    gen = _SKEW_PLANE if kind != "graph without batch" else \
        dataclasses.replace(_SKEW_PLANE, batch_adjacency=None)
    weight, support = coupling_from_graph(gen)
    if kind == "lambdas":
        calls = []

        def counted(v, u):
            calls.append((v, u))
            return weight(v, u)

        return sin_coupling(counted, lambda v: support(v)), calls
    return sin_coupling(weight, support), None


class TestSineCouplingGraph:
    """Every sine coupling is read from a graph; ``sin_coupling`` wraps user callables into one."""

    @staticmethod
    def table(weight, support, root=(0, 0), radius=3):
        """The edge table of the sine coupling on the radius-``radius`` ball it walks."""
        sys_ = OscillatorSystem(omega=lambda v: 0.3 * v[0], coupling=sin_coupling(weight, support),
                                root=root)
        cand = PhaseLockCandidate(velocity=0.2, lags=lambda v: 0.4 * v[0] - 0.3 * v[-1])
        return oscillator._EdgeTable(sys_, cand, ball(oscillator._walk_graph(sys_), root, radius))

    def test_the_graph_pair_gives_back_its_graph(self):
        # so the workload's coupling keeps its batch reads
        coup = sin_coupling(*coupling_from_graph(_SKEW_PLANE))
        assert coup.graph is _SKEW_PLANE

    def test_a_self_pair_is_dropped(self):
        weight, support = coupling_from_graph(_SKEW_PLANE)
        with_self = self.table(lambda v, u: 5.0 if u == v else weight(v, u),
                               lambda v: [v] + support(v))
        assert_same_edge_table(with_self, self.table(weight, support))

    def test_a_pair_of_zero_weight_both_ways_leaves_no_entry(self):
        weight, support = coupling_from_graph(_SKEW_PLANE)
        far = self.table(weight, lambda v: support(v) + [(v[0] + 2, v[1])])
        assert_same_edge_table(far, self.table(weight, support))

    @pytest.mark.parametrize("degree", [DEFAULT_DEGREE_CAP, DEFAULT_DEGREE_CAP + 1])
    def test_a_user_support_is_capped_like_a_graph(self, degree):
        # each vertex couples to the next `degree` vertices up the line: `degree`
        # out-neighbours and, from the vertices below, `degree` in-neighbours
        def support(v):
            return [(v[0] + j,) for j in range(-degree, degree + 1) if j]

        def weight(v, u):
            return 1.0 if u[0] > v[0] else 0.0

        if degree > DEFAULT_DEGREE_CAP:  # the walk's first read raises
            with pytest.raises(DegreeCapError):
                self.table(weight, support, (0,), 1)
        else:  # the root and its 2 * degree neighbours, each with 2 * degree pairs
            assert np.array_equal(np.bincount(self.table(weight, support, (0,), 1).src),
                                  [2 * degree] * (2 * degree + 1))


def check_harmonic_rhs(kind, lags, phi):
    """The edge table of ``kind`` on the ball it walks, under both steps, against the pairwise sum."""
    coup, calls = skew_plane_coupling(kind)
    sys_ = OscillatorSystem(omega=lambda v: 0.3 * v[0] - 0.1 * v[1], coupling=coup,
                            root=(0, 0))
    cand = PhaseLockCandidate(velocity=0.2,
                              lags=dict(zip(_RHS_REACH.vertices, lags)).__getitem__)

    def build():
        b = ball(oscillator._walk_graph(sys_), (0, 0), 3)
        assert b.vertices == _RHS_BALL.vertices
        return oscillator._EdgeTable(sys_, cand, b)

    with pytest.MonkeyPatch.context() as mp:
        tables = both_steps(mp, build)
    if calls is not None:
        # the wrapped callables: each pair read from both ends by the walk, and
        # once more by the table where its row holds an outside entry
        edge = np.isin(_RHS_BALL.entry_rows(), _RHS_BALL.entry_rows()[_RHS_BALL.nbr < 0])
        assert len(calls) == 2 * len(tables) * (_RHS_BALL.nbr.size + np.count_nonzero(edge))
    scale = np.array([sum(abs(coup.weight(v, u)) for u in coup.support(v))
                      for v in _RHS_BALL.vertices])
    expected = pairwise_sine_rhs(sys_, cand, _RHS_BALL, phi)
    for table in tables:
        assert np.count_nonzero(table.s_ext) == np.count_nonzero(table.c_ext) > 0
        err = np.abs(table.rhs(phi, phi.size) - expected)
        assert np.all(err <= 1e-14 * scale)


# lags in [0.1, 3] keep sin(lag) > 0 at the exterior neighbours, so the
# frozen-exterior row constants s_ext and c_ext are both nonzero
rhs_inputs = given(arrays(float, len(_RHS_REACH), elements=st.floats(0.1, 3.0)),
                   arrays(float, len(_RHS_BALL), elements=st.floats(-0.5, 0.5)))


@rhs_inputs
def test_harmonic_rhs_matches_pairwise_sum(lags, phi):
    check_harmonic_rhs("graph", lags, phi)


@pytest.mark.parametrize("kind", ["graph without batch", "lambdas"])
@rhs_inputs
def test_harmonic_rhs_of_other_sine_couplings_matches_pairwise_sum(kind, lags, phi):
    check_harmonic_rhs(kind, lags, phi)


@given(arrays(float, len(_RHS_REACH), elements=st.floats(0.1, 3.0)),
       arrays(float, len(_RHS_BALL), elements=st.floats(-0.5, 0.5)),
       st.integers(1, len(_RHS_BALL)), st.sampled_from(["sine", "generic"]))
def test_windowed_rhs_is_the_whole_ball_rhs_on_the_window(lags, phi, w, kind):
    weight, support = coupling_from_graph(_SKEW_PLANE)
    coup = sin_coupling(weight, support) if kind == "sine" else GenericCoupling(
        h=lambda x, v, u: weight(v, u) * (math.sin(x) + 0.25 * math.sin(2 * x)),
        dh=lambda x, v, u: weight(v, u) * (math.cos(x) + 0.5 * math.cos(2 * x)),
        support=support)
    sys_ = OscillatorSystem(omega=lambda v: 0.3 * v[0] - 0.1 * v[1], coupling=coup,
                            root=(0, 0))
    cand = PhaseLockCandidate(velocity=0.2,
                              lags=dict(zip(_RHS_REACH.vertices, lags)).__getitem__)
    n = phi.size
    cut = np.where(np.arange(n) < w, phi, 0.0)  # past the window: at the lock
    whole = oscillator._EdgeTable(sys_, cand, _RHS_BALL).rhs(cut, n)
    table = oscillator._EdgeTable(sys_, cand, _RHS_BALL)
    windowed = table.rhs(cut, w)
    scale = np.array([1.25 * sum(abs(weight(v, u)) for u in support(v))
                      for v in _RHS_BALL.vertices[:w]])
    assert windowed.shape == (w,)
    assert np.all(np.abs(windowed - whole[:w]) <= 1e-14 * scale)
    # a grown window rewrites the rows past w: the whole ball gives the whole-ball rhs
    assert np.array_equal(table.rhs(cut, n), whole)
    # a window that falls after a run on the whole ball puts the rows past it back at the lock
    table.rhs(phi, n)
    assert np.array_equal(table.rhs(cut, w), windowed)


def test_the_sine_rhs_is_its_formula_bit_for_bit():
    # the table builds the result in the products' arrays; it equals the
    # formula computed afresh, with the entries past the window at the lock
    sys_, cand = planted_system()  # nonuniform omega and lags, nonzero s_ext and c_ext
    b = ball(oscillator._walk_graph(sys_), sys_.root, 6)
    table, n = oscillator._EdgeTable(sys_, cand, b), len(b)
    ends, rng = semigroup._shell_ends(b), np.random.default_rng(7)
    assert np.count_nonzero(table.s_ext) and np.count_nonzero(table.c_ext)
    last = kept = None
    for rows in (int(ends[1]), int(ends[3]), int(ends[3]), int(ends[5]), n, n):
        phi = np.where(np.arange(n) < rows, rng.uniform(-0.5, 0.5, n), 0.0)
        psi = phi[:rows] + table.lag[:rows]
        s = np.concatenate([np.sin(psi), np.sin(table.lag[rows:])])
        c = np.concatenate([np.cos(psi), np.cos(table.lag[rows:])])
        k = table.k[:rows]
        expected = table.offset[:rows] + np.cos(psi) * (k @ s + table.s_ext[:rows]) \
            - np.sin(psi) * (k @ c + table.c_ext[:rows])
        got = table.rhs(phi, rows)
        assert np.array_equal(got, expected)
        if last is not None:  # the last call's result is no buffer the table writes again
            assert np.array_equal(last, kept)
        last, kept = got, got.copy()


def test_the_table_reads_omega_and_lags_with_no_tuple_per_vertex():
    # the workload's coupling on its radius-60 ball, 7,321 vertices: a list of
    # them all, alive while omega is read, would keep one tracked tuple each
    sys_, _ = uniform_sin_system("z2-skew-perturbed", a=0.5)
    b = ball(oscillator._walk_graph(sys_), sys_.root, 60)
    young = []

    def omega(v):
        young.append(gc.get_count()[0])  # net tracked objects made since the collection
        return 1.0

    sys_ = dataclasses.replace(sys_, omega=omega)
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    gc.collect()
    gc.disable()
    try:
        oscillator._EdgeTable(sys_, cand, b)
    finally:
        gc.enable()
    assert len(young) == len(b) == 7321
    assert max(young) < 3000


@pytest.mark.parametrize("kind", ["sine", "generic"])
def test_the_lock_check_and_the_flow_walk_the_coupling(monkeypatch, kind):
    sys_, _ = uniform_sin_system(d=1)
    if kind == "generic":
        sys_ = dataclasses.replace(sys_, coupling=generic_twin(sys_.coupling))
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    made = []  # the graphs _walk_graph gave
    make = oscillator._walk_graph
    monkeypatch.setattr(oscillator, "_walk_graph", lambda s: made.append(make(s)) or made[-1])
    # the generator of every ball walk, the support search's too
    read = [count_builds(monkeypatch, module, name) for module, name in
            ((oscillator, "ball"), (semigroup, "ball"))]
    verify_phase_lock(sys_, cand, radius=3)
    simulate_nonlinear(sys_, cand, {(0,): 0.01}, SimConfig(t_max=1.0, sample_times=[1.0]))
    assert len(made) == 2 and all(read)
    assert all(any(args[0] is g for g in made) for calls in read for args in calls)
    g = made[0]
    assert g.root == sys_.root
    if kind == "sine":
        assert g.adjacency == sys_.coupling.graph.adjacency
        assert g.batch_adjacency is sys_.coupling.graph.batch_adjacency
    else:
        assert g.degree_cap == math.inf


def test_oscillator_imports_no_private_name_of_geometry_or_graph():
    tree = ast.parse(inspect.getsource(oscillator))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert ("geometry", "ball") in imported
    assert not [name for module, name in imported
                if module in ("geometry", "graph") and name.startswith("_")]


def lagged_lock():
    """An exact lock with nonzero lags on the skew-perturbed plane.

    ``omega_v = 1 - sum_u K_vu sin(lag_u - lag_v)``, so the velocity 1 and
    the lags solve the ansatz; the cosines of the linearization are not 1.
    """
    weight, support = coupling_from_graph(_SKEW_PLANE)

    def lags(v):
        return 0.3 * math.sin(0.7 * v[0]) + 0.2 * math.cos(0.5 * v[1])

    def omega(v):
        return 1.0 - sum(weight(v, u) * math.sin(lags(u) - lags(v)) for u in support(v))

    sys_ = OscillatorSystem(omega=omega, coupling=sin_coupling(weight, support),
                            root=(0, 0), name="lagged")
    return sys_, PhaseLockCandidate(velocity=1.0, lags=lags)


def test_nonzero_lag_lock_flows_the_same_on_both_steps(monkeypatch):
    sys_, cand = lagged_lock()
    assert verify_phase_lock(sys_, cand, radius=6) <= 1e-12
    cfg = SimConfig(t_max=4.0, sample_times=[0.5, 2.0, 4.0], rtol=1e-9, atol=1e-12,
                    c_speed=2.0)
    batch, vertex = both_steps(monkeypatch, lambda: simulate_nonlinear(
        sys_, cand, {(0, 0): 0.01, (1, 0): -0.005}, cfg))
    assert (batch.n_steps, batch.richardson_diff, batch.retries) == \
        (vertex.n_steps, vertex.richardson_diff, vertex.retries)
    assert_same_ball(batch.ball, vertex.ball)
    assert len(batch) == len(vertex) == 3
    for (ta, sa), (tb, sb) in zip(batch, vertex):
        assert ta == tb and np.array_equal(sa.values, sb.values)
    assert np.any(sa.values != 0.0)


class TestNonlinearTruncation:
    """The truncation check of the nonlinear flow."""

    @staticmethod
    def run(t_max):
        sys_, _ = uniform_sin_system(d=1)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        cfg = SimConfig(t_max=t_max, sample_times=[1.0, t_max], rtol=1e-8,
                        atol=1e-10, c_speed=0.05)
        return simulate_nonlinear(sys_, cand, {(0,): 0.01}, cfg), cfg

    def test_undersized_domain_without_retries_fails(self):
        # at t_max 40 the radius still grows too slowly after every retry
        with pytest.raises(TruncationError):
            self.run(40.0)

    def test_undersized_domain_grows_until_the_radii_agree(self):
        res, cfg = self.run(6.0)
        assert res.retries >= 1
        assert res.richardson_diff <= 10 * cfg.atol

    @pytest.mark.parametrize("t_max", [6.0, 1.0])
    def test_one_edge_table_per_attempt(self, monkeypatch, t_max):
        built = count_builds(monkeypatch, oscillator, "_EdgeTable")
        runs = record_runs(monkeypatch)
        res, _ = self.run(t_max)
        assert res.retries == (2 if t_max == 6.0 else 0)
        assert len(built) == len(runs) == res.retries + 1
        assert built[-1][2] is res.ball
        # each attempt integrates once, on its whole ball
        assert runs[-1].y0.size == len(res.ball)
        assert (res.n_steps, res.richardson_diff) == \
            (runs[-1].result.n_steps, runs[-1].result.bound)

    @pytest.mark.parametrize("case", ["lagged", "twisted", "generic", "negative"])
    def test_bound_covers_the_two_run_disagreement(self, monkeypatch, case):
        cfg = SimConfig(t_max=6.0, sample_times=[1.5, 6.0], rtol=1e-9, atol=1e-12,
                        c_speed=0.05)
        if case == "lagged":  # certified: mu is 0 throughout
            sys_, cand = lagged_lock()
            perturbation = {(0, 0): 0.01, (1, 0): -0.005}
        elif case == "negative":
            # a negative sine weight: no certificate, and a bound taken with
            # mu = 0 falls short; a one-hop margin puts the cut inside
            g = tight_cut_graph()
            sys_ = OscillatorSystem(omega=lambda v: 0.0, root=g.root,
                                    coupling=sin_coupling(*coupling_from_graph(g)))
            cand = PhaseLockCandidate(velocity=0.0, lags=lambda v: 0.0)
            perturbation = {g.root: 0.01}
            cfg = SimConfig(t_max=1.0, sample_times=[0.25, 1.0], c_speed=0.0)
            monkeypatch.setattr(semigroup, "_TRUNCATION_MARGIN", 1)
        else:
            # neighbours 1.4 apart: no certificate, so mu comes from the
            # slopes, some of which the deviation turns negative early on;
            # the generic case reads them through dh
            sys_, _ = uniform_sin_system(d=1)
            if case == "generic":
                sys_ = dataclasses.replace(sys_, coupling=generic_twin(sys_.coupling))
            cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 1.4 * v[0])
            perturbation = {(0,): 0.2, (1,): -0.1}
        runs = record_runs(monkeypatch)
        res = simulate_nonlinear(sys_, cand, perturbation, cfg)
        assert res.retries == len(runs) - 1 >= 1
        assert_bound_covers_disagreement(runs)


class TestDeviationDecay:
    def test_symmetric_plane_deviation_exponent(self):
        # deviations from the trivial lock on the symmetric plane decay like
        # the plane heat kernel in sup norm
        sys_, _ = uniform_sin_system(d=2)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        ts = [0.0] + [float(t) for t in np.geomspace(0.5, 100.0, 36)]
        cfg = SimConfig(t_max=100.0, sample_times=ts, rtol=1e-8, atol=1e-11)
        dev = simulate_nonlinear(sys_, cand, {(0, 0): 0.01}, cfg)
        times, linf = trajectory_norms(dev, kind="p", p=math.inf)
        from dirlap.semigroup import fit_power_law

        fit = fit_power_law(times, linf, window=(8.0, 100.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.15)


class TestLinearNonlinearAgreement:
    def test_quadratic_shrinkage_generic_lock(self):
        # nonuniform lags keep the second derivative of the interaction alive
        # at the lock, so halving epsilon by 10 shrinks the linearization
        # error by ~100
        sys_, cand = planted_system()
        ts = [float(t) for t in np.linspace(0.5, 8.0, 16)]
        cfg = SimConfig(t_max=8.0, sample_times=ts, rtol=1e-11, atol=1e-13,
                        c_speed=3.0)
        lin = evolve(linearize(sys_, cand), {(0, 0): 1.0}, cfg, part="full")
        errs = {}
        for eps in (0.02, 0.002):
            dev = simulate_nonlinear(sys_, cand, {(0, 0): eps}, cfg)
            worst = 0.0
            for t, sl in lin:
                sd = dev.state_at(t)
                m = min(len(sl.values), len(sd.values))
                worst = max(worst, np.abs(sd.values[:m] - eps * sl.values[:m]).max())
            errs[eps] = worst
        ratio = errs[0.02] / errs[0.002]
        assert 100.0 / 3.0 <= ratio <= 300.0

    def test_sine_lock_shrinks_at_least_quadratically(self):
        # at the zero-lag lock the sine interaction is odd, so the quadratic
        # term vanishes and the shrinkage is even faster (cubic)
        sys_, _ = uniform_sin_system("z2-skew-perturbed", a=0.5)
        cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
        ts = [float(t) for t in np.linspace(0.5, 6.0, 12)]
        cfg = SimConfig(t_max=6.0, sample_times=ts, rtol=1e-11, atol=1e-13,
                        c_speed=3.0)
        lin = evolve(linearize(sys_, cand), {(0, 0): 1.0}, cfg, part="full")
        errs = {}
        for eps in (0.02, 0.002):
            dev = simulate_nonlinear(sys_, cand, {(0, 0): eps}, cfg)
            worst = 0.0
            for t, sl in lin:
                sd = dev.state_at(t)
                m = min(len(sl.values), len(sd.values))
                worst = max(worst, np.abs(sd.values[:m] - eps * sl.values[:m]).max())
            errs[eps] = worst
        assert errs[0.02] / errs[0.002] >= 100.0 / 3.0
