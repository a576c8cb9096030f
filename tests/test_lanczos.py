"""The Lanczos exponential of symmetric flows against the dense oracle.

Property tests draw random finite directed graphs and propagate on the
``sym`` operator of a ball around the root; the balls have at most nine
vertices, so the recurrence always exhausts them before any cap.  With the
ball's shell ends the run works on BFS prefixes, checked against the
full-length run on those balls and on small lattice balls.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from dirlap import (SimConfig, StateVector, TruncatedOperator, ball,
                    builtin_graph, evolve, integrate, semigroup)
from dirlap.errors import StepSizeError
from dirlap.integrate import lanczos_expm
from dirlap.semigroup import _shell_ends

from helpers import dense_expm, finite_graphs, k2_generator, tight_cut_graph

ATOL = 1e-10


def sym_operator(gen, r):
    b = ball(gen, gen.root, r)
    return TruncatedOperator(b, parts=("sym",)).matrix("sym")


def prefix_matvec(a):
    """``matvec(v, rows)`` for a run with shell ends, checking its prefix rule.

    ``v`` must vanish past ``rows``, and ``a @ v`` must too: the rows asked
    for hold the product's whole support.
    """
    def matvec(v, rows):
        full = a @ v
        assert not v[rows:].any() and not full[rows:].any()
        return full[:rows]
    return matvec


def assert_same_run_as_full_length(gen, r, y0, ts, exact):
    """Run with and without ``ball(gen, gen.root, r)``'s shell ends and compare.

    ``exact`` asks for bit-identical samples; otherwise they agree to
    ``1e-14 * max|y|``, since a threaded BLAS dot splits a full-length vector
    differently from its prefix.  Both match ``dense_expm``.
    """
    b = ball(gen, gen.root, r)
    a = TruncatedOperator(b, parts=("sym",)).matrix("sym")
    full = lanczos_expm(lambda v, rows: a @ v, y0, ts, atol=ATOL)
    pre = lanczos_expm(prefix_matvec(a), y0, ts, atol=ATOL, shell_ends=_shell_ends(b))
    assert pre.n_steps == full.n_steps and np.array_equal(pre.steps, full.steps)
    dense = a.toarray()
    for (t, y), (tp, z) in zip(full.samples, pre.samples, strict=True):
        assert t == tp
        if exact:
            assert z.tobytes() == y.tobytes()
        else:
            assert np.abs(z - y).max() <= 1e-14 * np.abs(y).max()
        want = dense_expm(dense * t) @ y0
        assert np.abs(z - want).max() <= 10 * ATOL * max(1.0, np.abs(want).max())


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_matches_dense_expm_on_random_graphs(gen, r, times, seed, zero):
    a = sym_operator(gen, r)
    y0 = np.zeros(a.shape[0]) if zero else \
        np.random.default_rng(seed).normal(size=a.shape[0])
    ts = sorted([0.0] + times)
    res = lanczos_expm(lambda v, rows: a @ v, y0, ts, atol=ATOL)
    assert [t for t, _ in res.samples] == ts
    assert res.samples[0][1].tobytes() == y0.tobytes()
    if zero:
        assert res.n_steps == 0
    dense = a.toarray()
    for t, y in res.samples:
        exact = dense_expm(dense * t) @ y0
        assert np.abs(y - exact).max() <= 10 * ATOL * max(1.0, np.abs(exact).max())
        assert abs(y.sum() - y0.sum()) <= 100 * ATOL


@given(finite_graphs(), st.integers(min_value=0, max_value=4),
       st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_shell_ends_change_no_bit_on_random_graphs(gen, r, times, seed):
    # a random support of one to three vertices, the root or not
    n = len(ball(gen, gen.root, r))
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=rng.integers(1, min(n, 3), endpoint=True), replace=False)
    y0 = np.zeros(n)
    y0[picks] = rng.normal(size=picks.size)
    assert_same_run_as_full_length(gen, r, y0, sorted(times), exact=True)


@pytest.mark.parametrize("d, r", [(1, 60), (2, 12)])
@settings(max_examples=25)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=4, unique=True),
       st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_shell_ends_match_the_full_length_run_on_lattice_balls(d, r, support, times,
                                                               seed, restart):
    # a support of several vertices off the root; a cap of 8 vectors forces restarts
    y0 = np.zeros(len(ball(builtin_graph("z-lattice", d=d), (0,) * d, r)))
    y0[support] = np.random.default_rng(seed).normal(size=len(support))
    with mock.patch.object(integrate, "_MAX_KRYLOV_DIM", 8 if restart else 256):
        assert_same_run_as_full_length(builtin_graph("z-lattice", d=d), r, y0,
                                       sorted(times), exact=False)


def test_each_matvec_asks_for_one_shell_past_the_support(monkeypatch):
    # the plane lattice at t = 40: step j's vector is zero past shell j - 1,
    # so its product needs the rows to the end of shell j, rounded up to 64;
    # the ball grows to shell 88 and no further, so the last step's rows
    # run past it (those are zero), and one pass asks each product once
    asked, radii = [], []
    expm = semigroup.lanczos_expm

    def recording(matvec, *args, shell_ends, **kwargs):
        def asking(v, rows):
            asked.append(rows)
            radii.append(len(shell_ends(0)[0]) - 1)
            return matvec(v, rows)
        return expm(asking, *args, shell_ends=shell_ends, **kwargs)

    monkeypatch.setattr(semigroup, "lanczos_expm", recording)
    g = builtin_graph("z-lattice", d=2)
    res = evolve(g, {g.root: 1.0}, SimConfig(t_max=40.0), part="sym")
    n = len(res.ball)
    assert (res.retries, res.n_steps, res.ball.radius, n) == (0, 88, 88, 15_665)
    ends = [2 * j * (j + 1) + 1 for j in range(1, 89)]  # shells 0..j of the plane lattice
    assert asked == [-(-e // 64) * 64 for e in ends]
    assert asked[:2] == [64, 64] and asked[87] == 15_680 > n
    # the ball grows 8 shells ahead of step j, to the next error estimate
    assert radii == [-(-j // 8) * 8 for j in range(1, 89)]


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
        lanczos_expm(lambda v, rows: a @ v, y0, [1.0], atol=ATOL)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sym_evolve_fails_fast(monkeypatch, bad):
    # a non-finite start fails before the recurrence grows the ball; the
    # small budget would bound that failure mode
    monkeypatch.setattr(semigroup, "_BALL_BUDGET", 10_000)
    g = builtin_graph("z-lattice", d=1)
    cfg = SimConfig(t_max=6.0, c_speed=0.05)
    with pytest.raises(ValueError, match=f"= {bad} is not finite"):
        evolve(g, {(0,): bad}, cfg, part="sym")


def test_invariant_subspace_ends_the_recurrence():
    # on K2 the second Lanczos vector spans the rest of the ball: beta_2 = 0
    a = sym_operator(k2_generator(), 1)
    res = lanczos_expm(lambda v, rows: a @ v, np.array([1.0, 0.0]), [0.5, 3.0], atol=ATOL)
    assert res.n_steps == 2
    for t, y in res.samples:
        decay = np.exp(-2.0 * t)
        np.testing.assert_allclose(y, [(1 + decay) / 2, (1 - decay) / 2],
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("t_max", [20.0, 2000.0])
def test_the_line_flow_is_the_bessel_heat_kernel(t_max):
    # exp(t L_sym) from the root of the line is e^{-2t} I_|i|(2t) at vertex i, on
    # the infinite graph; at t = 2000 the basis restarts at the real dimension cap
    g = builtin_graph("z-lattice", d=1)
    cfg = SimConfig(t_max=t_max)
    res = evolve(g, {g.root: 1.0}, cfg, part="sym")
    hops = np.abs([v[0] for v in res.ball.vertices])
    for t, state in res:
        assert np.max(np.abs(state.values - ive(hops, 2.0 * t))) <= 10 * cfg.atol
    assert (res.n_steps > integrate._MAX_KRYLOV_DIM) == (t_max > 1000.0)


def test_restarts_stay_within_atol_in_total(monkeypatch):
    # a cap of 8 vectors takes dozens of restart segments to reach t = 60;
    # their shares of the tolerance must add up to at most atol
    monkeypatch.setattr(integrate, "_MAX_KRYLOV_DIM", 8)
    a = sym_operator(builtin_graph("z-lattice", d=1), 60)
    y0 = np.zeros(a.shape[0])
    y0[0] = 1.0
    ts = [0.0, 1.0, 4.0, 8.0, 8.0, 20.0, 60.0]
    res = integrate.lanczos_expm(lambda v, rows: a @ v, y0, ts, atol=ATOL)
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
        integrate.lanczos_expm(lambda v, rows: a @ v, y0, [20.0], atol=ATOL)


def test_only_full_runs_integrate_with_replay(monkeypatch):
    # sym runs never integrate, nor do full runs with no negative weight
    # (they run the series); a full attempt with one integrates once, on its
    # whole ball, and no call passes a replay
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
    assert calls == []
    negative = tight_cut_graph()
    full = evolve(negative, {negative.root: 1.0}, cfg, part="full")
    assert full.retries == 0
    assert calls == [False]
