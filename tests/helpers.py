"""Shared oracles and fixtures for the test suite.

The oracles here deliberately avoid the package's own BFS / fitting / sparse
assembly code paths so that agreement between the two is meaningful.
"""

import itertools
import json
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from dirlap import geometry, oscillator, semigroup
from dirlap import integrate as integrate_module
from dirlap.errors import SingularFormError
from dirlap.geometry import ball
from dirlap.graph import GraphGenerator, generator_from_edges
from dirlap.hypotheses import PoincareEstimate, _dirichlet_matrix
from dirlap.integrate import IntegrationResult, _step, _window_shells
from dirlap.reports import SCHEMA_VERSION


def dense_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    Independent of the time-stepping code on purpose: it serves as the
    oracle that simulated trajectories are checked against.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("need a square matrix")
    nrm = float(np.linalg.norm(a, np.inf))
    s = 0
    if nrm > 0.5:
        s = int(math.ceil(math.log2(nrm / 0.5)))
    b = a / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ b / k
        out = out + term
        if np.linalg.norm(term, np.inf) < 1e-18 * np.linalg.norm(out, np.inf):
            break
    for _ in range(s):
        out = out @ out
    return out


def advection_peak(i: int) -> float:
    """Maximum over time of the axis solution; attained at t = i."""
    if i < 0:
        raise ValueError("need i >= 0")
    if i == 0:
        return 1.0
    return math.exp(i * math.log(i) - math.lgamma(i + 1) - i)


def read_json_report(path: str) -> dict:
    """A report written by ``reports.write_json_report``; raises unless it carries the schema."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"report {path} carries schema {doc.get('schema')!r}, "
                         f"expected {SCHEMA_VERSION!r}")
    return doc


def l1_ball_count(d: int, r: int) -> int:
    """Brute-force count of lattice points with l1 norm <= r."""
    return sum(1 for p in itertools.product(range(-r, r + 1), repeat=d)
               if sum(abs(c) for c in p) <= r)


def ols_loglog(xs, ys) -> float:
    """Plain covariance/variance least-squares slope in log-log."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    xm, ym = xs.mean(), ys.mean()
    return float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())


def tight_cut_graph():
    """Five vertices where a truncation bound is tight under a one-hop margin.

    From the root ``(1,)``, the cut to radius 1 is ``(1,)`` and ``(3,)``,
    and the radius-2 ball adds ``(0,)``.  The one flux into the cut feeds
    the root's row, whose weight to ``(0,)`` is -0.5, so the cut's
    log-norm is 0.5: a bound taken with ``mu = 0`` falls short of the
    two-run disagreement.
    """
    return generator_from_edges({((1,), (0,)): -0.5, ((0,), (1,)): 0.5, ((3,), (1,)): 1.0,
                                 ((0,), (3,)): 1.0, ((0,), (2,)): 1.0}, root=(1,))


def negative_line_graph():
    """The integer line with weight -0.25 forward and 1.25 backward on every edge.

    Every symmetric weight is 0.5, so balls grow as on the plain line, but
    each vertex has a negative directed weight: a full run takes DOPRI5 and
    its flux bound (log-norm 0.5), not the uniformization series.
    """
    def adjacency(v):
        (i,) = v
        return {(i + 1,): -0.25, (i - 1,): 1.25}, {(i + 1,): 1.25, (i - 1,): -0.25}

    return GraphGenerator(adjacency=adjacency, root=(0,), name="negative-line")


def k2_generator():
    """Two vertices joined by a unit edge in both directions."""
    return generator_from_edges(
        {((0,), (1,)): 1.0, ((1,), (0,)): 1.0}, root=(0,), name="K2")


def counted(gen):
    """``gen`` with every adjacency call appended to the returned list."""
    reads = []

    def adjacency(v):
        reads.append(v)
        return gen.adjacency(v)

    return GraphGenerator(adjacency=adjacency, root=gen.root, name=gen.name), reads


def count_builds(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call appends its positional arguments to the returned list."""
    built = []
    make = getattr(module, name)

    def counting(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return built


class Run(NamedTuple):
    """One recorded ``integrate`` call of a truncated flow."""

    f: object
    y0: np.ndarray
    sample_times: list
    kwargs: dict
    result: IntegrationResult


def record_runs(monkeypatch) -> list:
    """Wrap ``integrate`` where ``semigroup`` and ``oscillator`` call it.

    Every finished call appends its ``Run`` to the returned list.
    """
    runs = []
    dopri = semigroup.integrate

    def recording(f, y0, sample_times, **kwargs):
        res = dopri(f, y0, sample_times, **kwargs)
        runs.append(Run(f, y0, sample_times, kwargs, res))
        return res

    monkeypatch.setattr(semigroup, "integrate", recording)
    monkeypatch.setattr(oscillator, "integrate", recording)
    return runs


class Series(NamedTuple):
    """One recorded ``uniformize`` call of a truncated flow."""

    matvec: object
    rate: float
    y0: np.ndarray
    sample_times: list
    kwargs: dict
    result: IntegrationResult


def record_series(monkeypatch) -> list:
    """Wrap ``semigroup.uniformize``: every finished call appends its ``Series`` to the returned list."""
    runs = []
    series = semigroup.uniformize

    def recording(matvec, rate, y0, sample_times, **kwargs):
        res = series(matvec, rate, y0, sample_times, **kwargs)
        runs.append(Series(matvec, rate, y0, sample_times, kwargs, res))
        return res

    monkeypatch.setattr(semigroup, "uniformize", recording)
    return runs


def series_check(run: Series) -> tuple[float, float]:
    """The bound a uniformization run reported, and the exact two-run disagreement it stands for.

    The run's operator ``A = rate (P - I)`` is read back column by column
    from its matvec of ``P``.  The disagreement is the largest
    ``|exp(tA) y0 - exp(t A11) y0[:n1]|_inf`` on the cut over the sample
    times, by ``dense_expm``: ``A11`` is ``A`` cut to the first ``n1``
    vertices, the BFS prefix of the ball's radius less
    ``semigroup._TRUNCATION_MARGIN``.
    """
    n = run.y0.size
    a = run.rate * (np.column_stack([run.matvec(e, n) for e in np.eye(n)]) - np.eye(n))
    ends = run.kwargs["shell_ends"]
    n1 = int(ends[len(ends) - 1 - semigroup._TRUNCATION_MARGIN])
    diff = max(float(np.max(np.abs((dense_expm(t * a) @ run.y0)[:n1]
                                   - dense_expm(t * a[:n1, :n1]) @ run.y0[:n1]),
                            initial=0.0))
               for t in run.sample_times)
    return run.result.bound, diff


def dopri_replay(f, y0, sample_times, steps, shell_ends=None, tau=0.0) -> list:
    """DOPRI5 along a given step sequence with no error control: ``(t, y)`` at each sample time.

    Steps with ``integrate._step`` and its FSAL stage, on the live window of
    ``integrate`` (``shell_ends`` and the threshold ``tau``; without shell
    ends, the whole vector), and samples where ``integrate`` does, so
    replaying an ``integrate`` run's own steps gives its samples bit for bit.
    ``f(t, y, rows)`` is called as ``integrate`` calls it, with the window's
    end ``rows``, which never passes the last shell end.
    """
    y = np.array(y0, dtype=float)
    n = y.size
    ends = np.array([n]) if shell_ends is None else np.asarray(shell_ends)
    times = list(sample_times)
    samples = [(ts, y.copy()) for ts in times if ts <= 0.0]
    last = _window_shells(y, ends, -1, tau)
    rows = int(ends[last])
    y[rows:] = 0.0
    k = np.zeros((7, n))
    t = 0.0
    k[0, :rows] = f(t, y, rows)
    for h in steps:
        y, _ = _step(f, t, y, h, k, rows)
        t = t + h
        grown = last if last == len(ends) - 1 else _window_shells(y, ends, last, tau)
        if grown > last:
            last, rows = grown, int(ends[grown])
            k[0, :rows] = f(t, y, rows)
        else:
            k[0, :rows] = k[6, :rows]
        while len(samples) < len(times) and t >= times[len(samples)] - 1e-12 * max(1.0, t):
            samples.append((times[len(samples)], y.copy()))
    return samples


def truncation_check(run: Run) -> tuple[float, float]:
    """The bound a truncated run reported, and the two-run disagreement it stands for.

    The primary run is the run's own right-hand side on the cut, the first
    ``n1`` ball vertices (a flow's right-hand side holds the vertices past
    its ``rows`` at rest), replayed along the run's steps from ``y0`` cut to
    ``n1`` on its own live window, whose ``rows`` never pass ``n1``, as a
    run on the cut alone takes it.  ``n1`` is the BFS prefix of the ball's
    radius less ``semigroup._TRUNCATION_MARGIN``.  The disagreement is their
    largest difference on the cut over the sample times, with the integrator
    contributing only roundoff.
    """
    r = len(run.kwargs["shell_ends"]) - 1 - semigroup._TRUNCATION_MARGIN
    ends = run.kwargs["shell_ends"][:r + 1]
    n1 = int(ends[-1])
    y0 = np.where(np.arange(run.y0.size) < n1, run.y0, 0.0)
    primary = dopri_replay(run.f, y0, run.sample_times, run.result.steps,
                           ends, integrate_module._WINDOW_TOL * run.kwargs["atol"])
    diff = max(float(np.max(np.abs(y[:n1] - z[:n1]), initial=0.0))
               for (_, y), (_, z) in zip(run.result.samples, primary))
    return run.result.bound, diff


#: how far a truncation bound may fall short of the two-run disagreement,
#: relative to the initial state's sup norm: the two runs round differently
ROUNDOFF = 1e-14


def assert_bound_covers_disagreement(runs):
    """Every recorded attempt's bound is at least its two-run disagreement, to roundoff."""
    assert runs
    for run in runs:
        bound, diff = truncation_check(run)
        assert diff <= bound + ROUNDOFF * np.max(np.abs(run.y0), initial=0.0)


def sym_neighbors(gen, v) -> dict:
    """Brute-force map ``u -> w_sym(v, u)`` over the strictly positive pairs.

    Reads the raw adjacency callback, not ``GraphGenerator.edges``.
    """
    out, inn = gen.adjacency(v)
    result = {}
    for u in set(out) | set(inn):
        if u == v:
            continue
        ws = (out.get(u, 0.0) + inn.get(u, 0.0)) / 2.0
        if ws > 0.0:
            result[u] = ws
    return result


#: every builtin family, with the parameters the tests run it at
BUILTINS = [("example-2.2", {}), ("z-lattice", {"d": 1}), ("z-lattice", {"d": 2}),
            ("z-lattice", {"d": 3}), ("z-lattice", {"d": 4}), ("z2-advection", {}),
            ("z2-skew-perturbed", {"a": 0.5}), ("z2-skew-perturbed", {"a": -0.9})]

#: ``geometry._BATCH_MIN_SHELL`` values that read every shell in batch (where
#: the keys fit) and none
EVERY_SHELL, NO_SHELL = 0, 10**9


def both_steps(monkeypatch, fn, sizes=(EVERY_SHELL, NO_SHELL)):
    """``fn()`` with every shell read in batch, then with every shell read vertex by vertex."""
    results = []
    for size in sizes:
        monkeypatch.setattr(geometry, "_BATCH_MIN_SHELL", size)
        results.append(fn())
    return results


def assert_same_ball(a, b):
    """Two balls agree in center, radius, vertices, outside vertices and every array, bit for bit."""
    assert (a.center, a.radius) == (b.center, b.radius)
    assert a.vertices == b.vertices
    assert a.locate(a.vertices).tolist() == b.locate(a.vertices).tolist() == list(range(len(a)))
    for name in ("distances", "measures", "indptr", "nbr", "w_out", "w_in"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    # an interned id depends on the read order, so ``away`` is compared decoded
    assert a.away.dtype == b.away.dtype and a.outside() == b.outside()


def assert_same_edge_table(a, b):
    """Two sine edge tables agree bit for bit: pairs, ``K``, exterior sums, offsets and lags."""
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a.k, name), getattr(b.k, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("src", "dst", "s_ext", "c_ext", "offset", "lag"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def decompose_edge(v, v2, gen) -> tuple[float, float]:
    """Split the weights between ``v`` and ``v2`` into symmetric and skew parts.

    Returns ``((w(v,v2) + w(v2,v)) / 2, (w(v,v2) - w(v2,v)) / 2)``; both are
    zero when neither directed edge exists.  Both come from the one read of
    ``v``, so ``w_sym`` is exactly symmetric and ``w_skew`` exactly
    antisymmetric in floating point.
    """
    if v == v2:
        raise ValueError("decompose_edge requires two distinct vertices")
    out, inn = gen.edges(v)
    a, b = out.get(v2, 0.0), inn.get(v2, 0.0)
    return (a + b) / 2.0, (a - b) / 2.0


def split_coupling_matrix(weight):
    """Symmetric and skew accessors ``(K + K^T)/2`` and ``(K - K^T)/2``."""

    def k_sym(v, v2) -> float:
        return (weight(v, v2) + weight(v2, v)) / 2.0

    def k_skew(v, v2) -> float:
        return (weight(v, v2) - weight(v2, v)) / 2.0

    return k_sym, k_skew


def poincare_quotient(gen, center, r: int, x: np.ndarray) -> float:
    """Evaluate the Poincare quotient of a test vector on the double ball.

    Numerator: measure-weighted variance of ``x`` over the inner ball around
    its measure-weighted mean.  Denominator: ``r^2`` times the ordered-pair
    Dirichlet sum over the double ball.  ``estimate_poincare`` must dominate
    it for every nonconstant ``x``.
    """
    b2 = ball(gen, center, 2 * r)
    x = np.asarray(x, dtype=float)
    if x.shape != (len(b2),):
        raise ValueError("test vector must be indexed by the double ball")
    inner = b2.distances <= r
    m_in = np.where(inner, b2.measures, 0.0)
    mean = float(m_in @ x) / float(m_in.sum())
    num = float(m_in @ (x - mean) ** 2)
    q = _dirichlet_matrix(b2)
    den = float(r * r * (x @ q @ x))
    if den == 0.0:
        raise ValueError("constant test vector: quotient undefined")
    return num / den


def poincare_projected(gen, center, r: int) -> PoincareEstimate:
    """``estimate_poincare`` on an orthonormal basis of the complement of 1.

    The variance form is built as ``T^T diag(m_in) T`` with
    ``T = I - 1 c^T``, both forms are projected onto the null space of the
    all-ones row, and every eigenvalue is computed.  The differential oracle
    for the grounded eigensolve, which must give the same errors and values.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    b2 = ball(gen, center, 2 * r)
    n = len(b2)
    if n < 2:
        raise ValueError("double ball has fewer than 2 vertices")

    inner = b2.distances <= r
    m_in = np.where(inner, b2.measures, 0.0)
    vol_in = float(m_in.sum())
    c = m_in / vol_in
    t = np.eye(n) - np.outer(np.ones(n), c)  # x -> x minus its weighted mean
    a = t.T @ (m_in[:, None] * t)
    den = r * r * _dirichlet_matrix(b2)

    # work on the orthogonal complement of the constant vector
    basis = scipy.linalg.null_space(np.ones((1, n)))
    a_red = basis.T @ a @ basis
    den_red = basis.T @ den @ basis
    min_eig = scipy.linalg.eigvalsh(den_red)[0]
    if min_eig <= 1e-12 * max(1.0, abs(den_red).max()):
        raise SingularFormError(
            "Dirichlet form is singular beyond constants; double ball "
            "appears disconnected")
    eigs = scipy.linalg.eigvalsh(a_red, den_red)
    return PoincareEstimate(center=center, r=r, value=float(eigs[-1]),
                            double_ball_size=n)


def dense_laplacian(gen, b, part: str) -> np.ndarray:
    """Dense in-ball Laplacian assembled edge by edge from raw adjacency.

    Independent of TruncatedOperator's sparse assembly: pulls weights via
    direct generator calls and fills a dense matrix.
    """
    n = len(b)
    m = np.zeros((n, n))
    index = dict(zip(b.vertices, range(n)))
    for i, v in enumerate(b.vertices):
        out, inn = gen.adjacency(v)
        for u in set(out) | set(inn):
            if u == v:
                continue
            j = index.get(u)
            if j is None:
                continue
            wf, wb = out.get(u, 0.0), inn.get(u, 0.0)
            w = {"full": wf, "sym": (wf + wb) / 2.0, "skew": (wf - wb) / 2.0}[part]
            m[i, j] += w
            m[i, i] -= w
    return m


def random_support_vector(gen, b, rng, n_points=5):
    """Random finitely supported vector well inside a ball (as a dict)."""
    interior = [v for k, v in enumerate(b.vertices)
                if b.distances[k] <= b.radius - 2]
    picks = rng.choice(len(interior), size=min(n_points, len(interior)),
                       replace=False)
    signs = rng.choice([-1.0, 1.0], size=len(picks))
    mags = rng.uniform(0.1, 1.0, size=len(picks))
    return {interior[int(i)]: float(s * m)
            for i, s, m in zip(picks, signs, mags)}


_weights = st.one_of(st.sampled_from([1.0, 0.5, 2.0, -0.5, -1.0]),
                     st.floats(min_value=-1.0, max_value=3.0).filter(lambda w: w != 0.0))


#: directed weights of which none is negative
POSITIVE_WEIGHTS = st.one_of(st.sampled_from([1.0, 0.5, 2.0]),
                             st.floats(min_value=0.01, max_value=3.0))


@st.composite
def finite_graphs(draw, weights=_weights):
    """A random ``generator_from_edges`` graph on up to nine vertices.

    Its directed weights are drawn from ``weights``.  The root is an
    endpoint of a pair of positive symmetric weight when there is one, so
    that the root's ball has more than one vertex.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n,
                           unique=True))
    ws = draw(st.lists(weights, min_size=len(chosen), max_size=len(chosen)))
    edges = {((a,), (b,)): w for (a, b), w in zip(chosen, ws)}
    linked = sorted({v for (a, b), w in edges.items()
                     if w + edges.get((b, a), 0.0) > 0.0 for v in (a, b)})
    root = draw(st.sampled_from(linked)) if linked else \
        (draw(st.integers(min_value=0, max_value=n - 1)),)
    return generator_from_edges(edges, root=root)


def pairwise_sine_rhs(sys, cand, b, phi) -> np.ndarray:
    """The sine lattice right-hand side summed pair by pair.

    For every ordered pair (v in ``b``, u in support(v)) it adds
    ``weight(v, u) * sin(lag_u - lag_v + phi_u - phi_v)``, with ``phi_u = 0``
    for an exterior ``u`` (frozen at the lock); per-vertex sums run in pair
    order.  The oracle for the harmonic form in ``oscillator._EdgeTable``.
    """
    coup, lag = sys.coupling, cand.lags
    n = len(b)
    index = dict(zip(b.vertices, range(n)))
    src, dst, dlag, par = [], [], [], []
    for i, v in enumerate(b.vertices):
        for u in coup.support(v):
            src.append(i)
            dst.append(index.get(u, n))
            dlag.append(lag(u) - lag(v))
            par.append(coup.weight(v, u))
    padded = np.append(phi, 0.0)
    x = np.array(dlag) + padded[dst] - padded[src]
    offset = np.array([sys.omega(v) - cand.velocity for v in b.vertices])
    return offset + np.bincount(src, weights=np.array(par) * np.sin(x), minlength=n)


def check_coupling_gradient(sys, n_samples: int = 1000, seed: int = 0,
                            dx: float = 1e-6) -> float:
    """Worst disagreement between the declared slope and finite differences.

    Samples random phase differences on random local pairs; also spot-checks
    two-pi periodicity.  Returns the max abs error (slope check only).
    """
    rng = np.random.default_rng(seed)
    view_support = sys.coupling.support
    pairs = []
    frontier = [sys.root]
    seen = {sys.root}
    while frontier and len(pairs) < 64:
        v = frontier.pop()
        for u in view_support(v):
            pairs.append((v, u))
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if not pairs:
        raise ValueError("coupling support is empty at the root")
    h, dh = sys.coupling.h, sys.coupling.dh
    worst = 0.0
    for _ in range(n_samples):
        v, u = pairs[int(rng.integers(len(pairs)))]
        x = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        fd = (h(x + dx, v, u) - h(x - dx, v, u)) / (2 * dx)
        worst = max(worst, abs(fd - dh(x, v, u)))
        per = abs(h(x + 2 * math.pi, v, u) - h(x, v, u))
        if per > 1e-12:
            raise ValueError(f"coupling is not 2*pi-periodic at x={x}: "
                             f"difference {per}")
    return worst
