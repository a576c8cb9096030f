"""The Lanczos exponential of symmetric flows against the dense oracle.

Property tests draw random finite directed graphs and propagate on the
``sym`` operator of a ball around the root; the balls have at most nine
vertices, so the recurrence always exhausts them before any cap.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirlap import (SimConfig, StateVector, TruncatedOperator, ball,
                    builtin_graph, dense_expm, evolve, integrate, semigroup)
from dirlap.errors import StepSizeError
from dirlap.integrate import lanczos_expm

from helpers import finite_graphs, k2_generator

ATOL = 1e-10


def sym_operator(gen, r):
    b = ball(gen, gen.root, r)
    return TruncatedOperator(b, parts=("sym",)).matrix("sym")


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_matches_dense_expm_on_random_graphs(gen, r, times, seed, zero):
    a = sym_operator(gen, r)
    y0 = np.zeros(a.shape[0]) if zero else \
        np.random.default_rng(seed).normal(size=a.shape[0])
    ts = sorted([0.0] + times)
    res = lanczos_expm(a.dot, y0, ts, atol=ATOL)
    assert [t for t, _ in res.samples] == ts
    assert res.samples[0][1].tobytes() == y0.tobytes()
    if zero:
        assert res.n_steps == 0
    dense = a.toarray()
    for t, y in res.samples:
        exact = dense_expm(dense * t) @ y0
        assert np.abs(y - exact).max() <= 10 * ATOL * max(1.0, np.abs(exact).max())
        assert abs(y.sum() - y0.sum()) <= 100 * ATOL


@given(finite_graphs(), st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                                  max_size=4))
def test_sym_evolve_matches_dense_expm_on_the_component(gen, times):
    # a graph of at most nine vertices: the planned radius, at least 9 hops,
    # exhausts the root's component, so the ball has no outer shell to touch
    ts = sorted(times)
    cfg = SimConfig(t_max=max(ts[-1], 0.5), sample_times=ts, atol=ATOL, c_speed=0.05)
    res = evolve(gen, {gen.root: 1.0}, cfg, part="sym")
    component = ball(gen, gen.root, 9)
    assert res.retries == 0 and res.ball.vertices == component.vertices
    dense = TruncatedOperator(component, ("sym",)).dense("sym")
    y0 = StateVector.indicator(component, gen.root).values
    for t, s in res:
        assert np.abs(s.values - dense_expm(dense * t) @ y0).max() <= 10 * ATOL


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_value_fails_fast(bad):
    a = sym_operator(builtin_graph("z-lattice", d=1), 4)
    y0 = np.zeros(a.shape[0])
    y0[3] = bad
    with pytest.raises(ValueError, match=rf"y0\[3\] = {bad} is not finite"):
        lanczos_expm(a.dot, y0, [1.0], atol=ATOL)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sym_evolve_fails_fast(monkeypatch, bad):
    # a non-finite Lanczos vector would read as touching the outer shell and
    # grow the ball without end; the small budget bounds that failure mode
    monkeypatch.setattr(semigroup, "_BALL_BUDGET", 10_000)
    g = builtin_graph("z-lattice", d=1)
    cfg = SimConfig(t_max=6.0, c_speed=0.05)
    with pytest.raises(ValueError, match=f"= {bad} is not finite"):
        evolve(g, {(0,): bad}, cfg, part="sym")


def test_invariant_subspace_ends_the_recurrence():
    # on K2 the second Lanczos vector spans the rest of the ball: beta_2 = 0
    a = sym_operator(k2_generator(), 1)
    res = lanczos_expm(a.dot, np.array([1.0, 0.0]), [0.5, 3.0], atol=ATOL)
    assert res.n_steps == 2
    for t, y in res.samples:
        decay = np.exp(-2.0 * t)
        np.testing.assert_allclose(y, [(1 + decay) / 2, (1 - decay) / 2],
                                   rtol=0, atol=1e-15)


def test_restarts_stay_within_atol_in_total(monkeypatch):
    # a cap of 8 vectors takes dozens of restart segments to reach t = 60;
    # their shares of the tolerance must add up to at most atol
    monkeypatch.setattr(integrate, "_MAX_KRYLOV_DIM", 8)
    a = sym_operator(builtin_graph("z-lattice", d=1), 60)
    y0 = np.zeros(a.shape[0])
    y0[0] = 1.0
    ts = [0.0, 1.0, 4.0, 8.0, 8.0, 20.0, 60.0]
    res = integrate.lanczos_expm(a.dot, y0, ts, atol=ATOL)
    assert len(res.steps) > 20
    assert [t for t, _ in res.samples] == ts
    dense = a.toarray()
    for t, y in res.samples:
        assert np.linalg.norm(y - dense_expm(dense * t) @ y0) <= ATOL


def test_no_progress_raises(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_KRYLOV_DIM", 1)
    a = sym_operator(builtin_graph("z-lattice", d=1), 60)
    y0 = np.zeros(a.shape[0])
    y0[0] = 1.0
    with pytest.raises(StepSizeError):
        integrate.lanczos_expm(a.dot, y0, [20.0], atol=ATOL)


def test_only_full_runs_integrate_with_replay(monkeypatch):
    # sym runs never integrate; a full attempt integrates once, on its whole
    # ball, and no call passes a replay
    calls = []
    dopri = semigroup.integrate

    def recording(*args, **kwargs):
        calls.append("replay" in kwargs)
        return dopri(*args, **kwargs)

    monkeypatch.setattr(semigroup, "integrate", recording)
    g = builtin_graph("z-lattice", d=1)
    cfg = SimConfig(t_max=2.0, sample_times=[1.0, 2.0], c_speed=4.0)
    sym = evolve(g, {(0,): 1.0}, cfg, part="sym")
    assert calls == []
    assert sym.richardson_diff == 0.0
    full = evolve(g, {(0,): 1.0}, cfg, part="full")
    assert full.retries == 0
    assert calls == [False]
