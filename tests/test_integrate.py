"""Adaptive integrator accuracy, sampling, the stacked step, the live window, the replay oracle;
the uniformization series and its Poisson weights; every propagator's row-prefix contract."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap.integrate as integrate_module
from dirlap.errors import StepSizeError
from dirlap.builtins import builtin_graph
from dirlap.geometry import ball
from dirlap.graph import generator_from_edges
from dirlap.integrate import integrate, lanczos_expm, uniformize
from dirlap.semigroup import TruncatedOperator, _shell_ends

from helpers import dense_expm, dopri_replay


def test_exponential_decay_accuracy():
    res = integrate(lambda t, y, rows: -y, np.array([1.0]), [0.5, 1.0, 3.0, 10.0],
                    rtol=1e-10, atol=1e-12)
    for t, y in res.samples:
        assert y[0] == pytest.approx(np.exp(-t), abs=1e-9)


def test_cosine_forcing():
    res = integrate(lambda t, y, rows: np.array([np.cos(t)]), np.array([0.0]),
                    [1.0, 2.0, 6.0], rtol=1e-9, atol=1e-12)
    for t, y in res.samples:
        assert y[0] == pytest.approx(np.sin(t), abs=1e-8)


def test_sample_times_hit_exactly():
    wanted = [0.0, 0.3, 1.7, 2.0]
    res = integrate(lambda t, y, rows: -0.5 * y, np.array([2.0]), wanted)
    assert [t for t, _ in res.samples] == wanted


def test_initial_sample_is_initial_state():
    res = integrate(lambda t, y, rows: -y, np.array([3.0, -1.0]), [0.0, 1.0])
    t0, y0 = res.samples[0]
    assert t0 == 0.0
    assert y0.tolist() == [3.0, -1.0]


def test_replay_reproduces_exactly():
    # the oracle along integrate's own steps gives its samples bit for bit,
    # on the whole vector and on the live window of a ball
    rhs = lambda t, y, rows: np.array([-y[0], 0.3 * y[0] - y[1]])
    runs = [(rhs, np.array([1.0, 0.5]), {})]
    b = ball(builtin_graph("example-2.2"), (0,), 80)
    a = TruncatedOperator(b, parts=("full",)).matrix("full")
    runs.append((lambda t, y, rows: a[:rows] @ y, np.eye(len(b))[0],
                 {"shell_ends": _shell_ends(b)}))
    for f, y0, kw in runs:
        run = integrate(f, y0, [0.7, 2.2, 5.0], rtol=1e-8, atol=1e-11, **kw)
        again = dopri_replay(f, y0, [0.7, 2.2, 5.0], run.steps,
                             tau=integrate_module._WINDOW_TOL * 1e-11, **kw)
        assert len(again) == len(run.samples) == 3
        for (ta, ya), (tb, yb) in zip(run.samples, again):
            assert ta == tb and np.array_equal(ya, yb)
    assert ya[-1] == 0.0  # the ball's window stopped short of its edge


def test_replay_on_augmented_system():
    # the replayed system may have extra components; shared ones agree
    rhs1 = lambda t, y, rows: -y
    rhs2 = lambda t, y, rows: np.concatenate([-y[:1], [-2.0 * y[1]]])
    base = integrate(rhs1, np.array([1.0]), [1.0, 4.0], rtol=1e-9, atol=1e-12)
    big = dopri_replay(rhs2, np.array([1.0, 1.0]), [1.0, 4.0], base.steps)
    for (_, ya), (_, yb) in zip(base.samples, big):
        assert yb[0] == pytest.approx(ya[0], abs=1e-14)


def test_step_budget(monkeypatch):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 10)
    with pytest.raises(StepSizeError):
        integrate(lambda t, y, rows: -1000.0 * y, np.array([1.0]), [50.0],
                  rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("rhs, y0", [
    (lambda t, y, rows: -y, [np.nan]),  # a NaN state
    (lambda t, y, rows: np.full_like(y, np.nan), [1.0]),  # a NaN derivative
], ids=["state", "derivative"])
def test_nan_raises_at_the_first_step(rhs, y0):
    # the first step size is NaN, so no step can be accepted or rejected into range
    with pytest.raises(StepSizeError, match="not finite at t=0"):
        integrate(rhs, np.array(y0), [1.0])


def test_bad_sample_times():
    with pytest.raises(ValueError):
        integrate(lambda t, y, rows: -y, np.array([1.0]), [2.0, 1.0])
    with pytest.raises(ValueError):
        integrate(lambda t, y, rows: -y, np.array([1.0]), [-1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("propagate", [
    lambda ts: integrate(lambda t, y, rows: -y, np.array([1.0]), ts),
    lambda ts: uniformize(lambda y, rows: 0.0 * y[:rows], 1.0, np.array([1.0]), ts),
    lambda ts: lanczos_expm(lambda y, rows: -y[:rows], np.array([1.0]), ts),
], ids=["integrate", "uniformize", "lanczos_expm"])
def test_a_non_finite_sample_time_fails_before_the_run(propagate, bad):
    # a NaN time used to pass: the series failed on a NaN term count and
    # Lanczos only after a whole basis
    with pytest.raises(ValueError, match="sample times must be finite, nonnegative and sorted"):
        propagate([0.5, bad])


def test_rejections_tracked_on_abrupt_problem():
    # forcing with a sharp knee makes at least one step get rejected
    def rhs(t, y, rows):
        return np.array([1.0 / (1e-3 + abs(t - 1.0))])

    res = integrate(rhs, np.array([0.0]), [2.0], rtol=1e-8, atol=1e-10)
    assert res.n_steps > 10
    assert res.n_rejected >= 1


def test_flux_runs_and_can_abort():
    seen = []

    def flux(t, y, bound):
        seen.append(t)
        if t > 0.5:
            raise RuntimeError("stop")
        return 0.0, 0.0

    with pytest.raises(RuntimeError):
        integrate(lambda t, y, rows: -y, np.array([1.0]), [2.0], flux=flux)
    assert seen


def test_constant_flux_with_zero_mu_sums_to_its_integral():
    # without flux the bound is 0.0; with it, the same steps are taken
    c, t_end = 0.3, 5.0
    plain = integrate(lambda t, y, rows: -y, np.array([1.0]), [1.0, t_end])
    res = integrate(lambda t, y, rows: -y, np.array([1.0]), [1.0, t_end],
                    flux=lambda t, y, bound: (c, 0.0))
    assert plain.bound == 0.0
    assert res.n_steps > 1 and np.array_equal(res.steps, plain.steps)
    assert res.bound == pytest.approx(c * t_end, rel=1e-14)


def test_bound_is_the_recurrence_over_the_accepted_steps():
    # |y| as the flux and a constant mu: the bound is the recurrence over the
    # differences of the accepted step ends, bit for bit, and each call sees
    # the step's end and the sum so far
    mu, calls = 0.7, []

    def flux(t, y, bound):
        calls.append((t, float(abs(y[0])), bound))
        return calls[-1][1], mu

    res = integrate(lambda t, y, rows: -y, np.array([1.0]), [0.5, 3.0], flux=flux)
    assert len(calls) == res.n_steps > 1
    bound = g_prev = t = 0.0
    for h, (t_seen, g, seen) in zip(res.steps, calls):
        assert seen == bound
        t_prev, t = t, t + h
        assert t_seen == t
        bound = math.exp(mu * (t - t_prev)) * (bound + (t - t_prev) * max(g_prev, g))
        g_prev = g
    assert res.bound == bound


# Dormand & Prince 1980, written out apart from the module's float tableau
_DP_A = [[],
         [F(1, 5)],
         [F(3, 40), F(9, 40)],
         [F(44, 45), F(-56, 15), F(32, 9)],
         [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
         [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
         [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)]]
_DP_B4 = [F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200),
          F(187, 2100), F(1, 40)]


def _stage_powers(weights):
    """``weights . A^(k-1) . 1`` for k = 1..7, exactly: the coefficient of ``(hA)^k y``."""
    a = [row + [F(0)] * (7 - len(row)) for row in _DP_A]
    vec = [F(1)] * 7
    out = []
    for _ in range(7):
        out.append(sum(w * x for w, x in zip(weights, vec)))
        vec = [sum(a[i][j] * vec[j] for j in range(7)) for i in range(7)]
    return out


def test_tableau_gives_the_dopri5_stability_polynomial():
    # R(z) = sum_k z^k / k! to order 5, plus z^6 / 600 (Hairer, Norsett & Wanner)
    b5 = _DP_A[6] + [F(0)]
    assert [F(1)] + _stage_powers(b5) == [F(1), F(1), F(1, 2), F(1, 6), F(1, 24),
                                          F(1, 120), F(1, 600), F(0)]


def _random_generator_matrix(seed, n=30):
    """Sparse ``A`` with nonnegative off-diagonals and zero row sums."""
    rng = np.random.default_rng(seed)
    m = scipy.sparse.random(n, n, density=0.15, random_state=rng, format="csr")
    m.setdiag(0.0)
    m.eliminate_zeros()
    return (m - scipy.sparse.diags(np.asarray(m.sum(axis=1)).ravel())).tocsr()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
def test_stacked_step_is_the_stability_polynomial_of_hA(seed, h):
    a = _random_generator_matrix(seed)
    y = np.random.default_rng(seed + 1).standard_normal(a.shape[0])
    k = np.empty((7, y.size))
    k[0] = a @ y
    y_new, err = integrate_module._step(lambda t, x, rows: a @ x, 0.0, y, h, k, y.size)
    powers = [y]
    for _ in range(7):
        powers.append(h * (a @ powers[-1]))
    r = [1.0] + [float(c) for c in _stage_powers(_DP_A[6] + [F(0)])]
    e = [0.0] + [float(c5 - c4) for c5, c4 in zip(_stage_powers(_DP_A[6] + [F(0)]),
                                                   _stage_powers(_DP_B4))]
    # both are sums of the same terms (hA)^k y; the error's cancel down to h^5
    scale = sum(abs(c) * np.abs(p).max() for c, p in zip(r, powers))
    for got, coef in ((y_new, r), (err, e)):
        want = sum(c * p for c, p in zip(coef, powers))
        assert np.abs(got - want).max() <= 1e-14 * scale
    assert np.array_equal(k[6], a @ y_new)  # FSAL: the last stage is f(y_new)


@st.composite
def long_graphs(draw):
    """A random directed strip ``0 - 1 - ... - n-1`` with chords of length 2.

    Every weight is nonnegative, and each path link is present in at least
    one direction, so the BFS from vertex 0 has at least ``n / 2`` shells.
    """
    n = draw(st.integers(60, 150))
    weights = st.floats(0.0, 2.0)
    edges = {}
    for i in range(n - 1):
        fwd, back = draw(weights), draw(weights)
        if fwd == back == 0.0:
            fwd = 1.0
        for (a, b), w in (((i, i + 1), fwd), ((i + 1, i), back)):
            if w > 0.0:
                edges[(a,), (b,)] = w
    for i in draw(st.lists(st.integers(0, n - 3), max_size=n // 3, unique=True)):
        edges[(i,), (i + 2,)] = draw(st.floats(0.1, 2.0))
    return generator_from_edges(edges, root=(0,))


def whole_graph_flow(gen):
    """The whole graph as a ball, its full operator, and the root's indicator."""
    b = ball(gen, gen.root, 200)
    y0 = np.zeros(len(b))
    y0[0] = 1.0
    return b, TruncatedOperator(b, parts=("full",)).matrix("full"), y0


@settings(max_examples=25, deadline=None)
@given(long_graphs(), st.floats(2.0, 12.0), st.sampled_from([1e2, 1e3, 1e5]))
def test_windowed_run_matches_the_whole_ball_replay(gen, t_max, tol):
    # tau = tol * atol from 1e-8 to 1e-5, so the window drops entries that matter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate_module, "_WINDOW_TOL", tol)
        check_window_against_replay(gen, t_max, tol)


def check_window_against_replay(gen, t_max, tol):
    atol = 1e-10
    tau = tol * atol
    b, a, y0 = whole_graph_flow(gen)
    sizes = []

    def rhs(t, y, rows):
        sizes.append(rows)
        return a[:rows] @ y

    ts = [t_max / 3, t_max]
    win = integrate(rhs, y0, ts, rtol=1e-8, atol=atol, shell_ends=_shell_ends(b))
    whole = dopri_replay(lambda t, y, rows: a @ y, y0, ts, win.steps)
    assert min(sizes) < len(b)
    for (ta, ya), (tb, yb) in zip(win.samples, whole):
        assert ta == tb and ya.size == yb.size == len(b)
        assert np.abs(ya - yb).max() <= win.n_steps * tau + 1e-13
        # past the window the samples are exact zeros
        assert not ya[max(sizes):].any()


@settings(max_examples=10, deadline=None)
@given(long_graphs(), st.floats(2.0, 12.0))
def test_window_of_the_nonzero_entries_changes_nothing(gen, t_max):
    # at tau = 0 the window holds every nonzero entry and 8 shells more, and
    # a step reaches 7 hops, so the run is the whole-ball run: same controller
    # norm, same steps, same samples up to the order of the norm's sum
    b, a, y0 = whole_graph_flow(gen)
    ts = [t_max / 3, t_max]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate_module, "_WINDOW_TOL", 0.0)
        win = integrate(lambda t, y, rows: a[:rows] @ y, y0, ts, rtol=1e-8,
                        atol=1e-10, shell_ends=_shell_ends(b))
    whole = integrate(lambda t, y, rows: a @ y, y0, ts, rtol=1e-8, atol=1e-10)
    assert win.n_steps == whole.n_steps and win.n_rejected == whole.n_rejected
    assert np.allclose(win.steps, whole.steps, rtol=1e-12, atol=0.0)
    for (_, ya), (_, yb) in zip(win.samples, whole.samples):
        assert np.abs(ya - yb).max() <= 1e-13


def poisson_pmf(k: int, lam: float) -> float:
    """``Poisson(k; lam)`` in log space, one term at a time."""
    if lam == 0.0:
        return float(k == 0)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


@settings(max_examples=40)
@given(st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 3000.0)))
def test_poisson_window_leaves_out_at_most_the_tail(lam):
    # the window's weights are the pmf's, and the terms outside it (zero
    # weights, or past the last) hold at most the tail
    weights = integrate_module._PoissonWeights(np.array([lam]))
    first, last = int(weights.first[0]), int(weights.last[0])
    w = weights(0, last + 3)[0]
    assert not w[:first].any() and not w[last + 1:].any()
    want = [poisson_pmf(k, lam) for k in range(first, last + 1)]
    assert np.allclose(w[first:last + 1], want, rtol=1e-10, atol=0.0)
    far = math.ceil(lam + 60 * math.sqrt(lam) + 200)
    left_out = math.fsum(poisson_pmf(k, lam) for k in range(far) if not first <= k <= last)
    assert left_out <= integrate_module._POISSON_TAIL * (1 + 1e-9)


@settings(max_examples=15)
@given(long_graphs(), st.floats(0.5, 20.0))
def test_series_on_prefixes_matches_the_full_length_run_and_dense_expm(gen, t_max):
    # term k vanishes k shells past the root, so each product runs on a row
    # prefix; the samples are the full-length run's and the exponential's
    b, a, y0 = whole_graph_flow(gen)
    rate = float(np.abs(a.diagonal()).max())
    p = a / rate + scipy.sparse.identity(len(b), format="csr")
    ts = [0.0, t_max / 3, t_max]
    rows_seen = []

    def prefix(y, rows):
        rows_seen.append(rows)
        return p[:rows] @ y

    pre = uniformize(prefix, rate, y0, ts, shell_ends=_shell_ends(b))
    whole = uniformize(lambda y, rows: p @ y, rate, y0, ts)
    assert min(rows_seen) < len(b) and pre.n_steps == whole.n_steps
    dense = a.toarray()
    for (t, yp), (_, yw) in zip(pre.samples, whole.samples):
        assert np.abs(yp - yw).max() <= 1e-15
        assert np.abs(yw - dense_expm(t * dense) @ y0).max() <= 1e-12
    assert pre.samples[0][1].tolist() == y0.tolist()


def test_series_past_the_step_cap_fails_before_the_first_term(monkeypatch):
    # rate * t above the cap would need at least that many terms
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 10)

    def matvec(y, rows):
        raise AssertionError("a term ran")

    with pytest.raises(StepSizeError, match="more than 10 terms"):
        uniformize(matvec, 2.0, np.array([1.0, 0.0]), [1.0, 6.0])


def line_flow(r=100):
    """The shell ends, ``sym`` operator and root indicator of the line's radius-``r`` ball."""
    b = ball(builtin_graph("z-lattice", d=1), (0,), r)
    y0 = np.zeros(len(b))
    y0[0] = 1.0
    return _shell_ends(b), TruncatedOperator(b, parts=("sym",)).matrix("sym"), y0


def recording(a, calls):
    """``matvec(y, rows)``, the first ``rows`` entries of ``a @ y``, appending ``(y, rows, result)``."""
    def matvec(y, rows):
        calls.append((y.copy(), rows, a[:rows] @ y))
        return calls[-1][2]
    return matvec


def assert_row_prefix_contract(calls, n):
    """Every input has length ``n`` and is zero past its ``rows``; every output has ``rows`` entries."""
    assert calls
    for y, rows, out in calls:
        assert y.shape == (n,) and not y[rows:].any() and out.shape == (rows,)
    assert min(rows for _, rows, _ in calls) < n  # the prefixes were in use


def test_dopri_callbacks_keep_the_row_prefix_contract():
    # f and flux get the full-length vector, zero past the window, which never falls
    ends, a, y0 = line_flow()
    calls, states = [], []
    matvec = recording(a, calls)

    def flux(t, y, bound):
        states.append((y.copy(), calls[-1][1]))
        return 0.0, 0.0

    res = integrate(lambda t, y, rows: matvec(y, rows), y0, [1.0, 5.0], flux=flux,
                    shell_ends=ends)
    assert_row_prefix_contract(calls, y0.size)
    rows = [r for _, r, _ in calls]
    assert rows == sorted(rows) and rows[-1] < y0.size
    assert len(states) == res.n_steps
    assert all(y.shape == y0.shape and not y[r:].any() for y, r in states)


def test_series_callbacks_keep_the_row_prefix_contract():
    # each term's product, and flux gets whole terms as rows
    ends, a, y0 = line_flow()
    p = a / 2.0 + scipy.sparse.identity(y0.size, format="csr")
    calls, shapes = [], []

    def flux(terms):
        shapes.append(terms.shape)
        return np.zeros(len(terms))

    uniformize(recording(p, calls), 2.0, y0, [1.0, 5.0], flux=flux, shell_ends=ends)
    assert_row_prefix_contract(calls, y0.size)
    assert shapes and all(cols == y0.size for _, cols in shapes)


def test_lanczos_callbacks_keep_the_row_prefix_contract():
    ends, a, y0 = line_flow()
    calls = []
    integrate_module.lanczos_expm(recording(a, calls), y0, [1.0, 5.0], shell_ends=ends)
    assert_row_prefix_contract(calls, y0.size)
