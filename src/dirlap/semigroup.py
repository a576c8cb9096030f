"""Heat-flow simulation on truncated balls, norms, and decay-exponent fits.

The flow ``x' = Lx`` (or its symmetric part) on an infinite graph is
simulated on a finite ball that is large enough for the initial condition's
influence not to reach the boundary before the final time.  The ball's
operator removes the edges leaving the ball entirely, which keeps the
restriction of the symmetric part symmetric with vanishing row sums (so
constants stay in its kernel and the run conserves counting mass).

Symmetric-part runs (``part="sym"``) use the Lanczos exponential, whose
estimated error at every sample time is held under the absolute tolerance
(restart segments share it), on one ball that grows with the Krylov reach
of ``x0`` as the recurrence runs (``_krylov_flow``).  There the basis and
the error estimate are the infinite graph's, so no second radius is needed,
and no radius is planned.

Full and nonlinear runs are checked by ``_truncated_flow``, which the
linear flow here and the nonlinear flow of ``oscillator`` share: each
attempt enumerates the ball enlarged by the truncation margin, builds the
flow's operator on it and runs it once.  A linear flow with no negative
weight on that ball runs the uniformization series (``uniformize``), and
nonlinear flows, and linear ones with a negative weight, run DOPRI5
(``integrate``), the only place ``rtol`` acts.  Either propagator sums the
run's truncation bound from the coupling into the cut from the vertices
past it: how far a run on the cut to the planned radius would differ from
the run on the enlarged ball there.  It must stay within a small multiple
of the absolute tolerance, or the radius grows and the attempt repeats.

The ball is a weight snapshot (see ``geometry``), so the sparse operator is
assembled from its arrays without further adjacency calls: each vertex is
read once per enumeration (once per run for a growing ``sym`` ball) and
nothing is kept beyond the snapshot.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse

from .errors import TruncationError
from .geometry import Ball, _append, ball
from .graph import WEIGHT_PARTS, Vertex, _laplacian, _local_rows
from .integrate import _PREFIX_ALIGN, integrate, lanczos_expm, uniformize

_PARTS = tuple(WEIGHT_PARTS)

# _truncated_flow's enlargement in hops and retries, and every run's ball
# budget (read at call time)
_TRUNCATION_MARGIN = 8
_MAX_RETRIES = 3
_BALL_BUDGET = 4_000_000


@dataclass
class StateVector:
    """Finitely supported real vector over the vertices of a ball.

    Entries are implicitly zero outside the ball.
    """

    ball: Ball
    values: np.ndarray

    @property
    def support_radius(self) -> int:
        """The largest distance from the ball center carrying a nonzero value, 0 if none."""
        nz = np.flatnonzero(self.values)
        return int(self.ball.distances[nz].max()) if nz.size else 0

    @classmethod
    def from_values(cls, b: Ball, values: np.ndarray) -> "StateVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (len(b),):
            raise ValueError("values must match the ball size")
        return cls(ball=b, values=values)

    @classmethod
    def from_dict(cls, b: Ball, data: Mapping[Vertex, float]) -> "StateVector":
        values = np.zeros(len(b))
        for v, val in data.items():
            try:
                values[b.index[v]] = val
            except KeyError:
                raise ValueError(f"vertex {v} lies outside the ball") from None
        return cls.from_values(b, values)

    @classmethod
    def indicator(cls, b: Ball, v: Vertex) -> "StateVector":
        return cls.from_dict(b, {v: 1.0})

    def to_dict(self) -> dict[Vertex, float]:
        nz = np.nonzero(self.values)[0]
        return {self.ball.vertices[i]: float(self.values[i]) for i in nz}

    def value_at(self, v: Vertex) -> float:
        i = self.ball.index.get(v)
        return 0.0 if i is None else float(self.values[i])


class TruncatedOperator:
    """Sparse restrictions of L, its symmetric and skew parts, to a ball.

    Assembled from the ball's weight snapshot alone.  Edges with an endpoint
    outside the ball are dropped from the weights and from the diagonal
    alike, so every row sums to zero and the off-diagonal of the symmetric
    part is a symmetric matrix.
    """

    def __init__(self, b: Ball, parts: Sequence[str] = _PARTS):
        self.ball = b
        self.parts = tuple(parts)
        for p in self.parts:
            if p not in _PARTS:
                raise ValueError(f"unknown part {p!r}")
        self._mats = {p: _part_rows(b, p) for p in self.parts}

    def matrix(self, part: str) -> scipy.sparse.csr_matrix:
        try:
            return self._mats[part]
        except KeyError:
            raise ValueError(f"operator was built without part {part!r}") from None

    def dense(self, part: str) -> np.ndarray:
        return self.matrix(part).toarray()


def _part_rows(b: Ball, part: str, lo: int = 0) -> scipy.sparse.csr_matrix:
    """Rows ``lo`` on of ``part``'s restriction to ``b``, over all of its columns.

    Edges with an endpoint outside the ball are dropped from the weights and
    from the diagonal alike.  bincount adds each row in snapshot order, so
    the diagonal is summed in the order the neighbours were read; each row
    keeps its entries in column order.
    """
    n, e0 = len(b), int(b.indptr[lo])
    inside = b.nbr[e0:] >= 0
    rows = np.repeat(np.arange(n - lo), np.diff(b.indptr[lo:]))[inside]
    cols = b.nbr[e0:][inside]
    w = WEIGHT_PARTS[part](b.w_out[e0:][inside], b.w_in[e0:][inside])
    keep = w != 0.0
    rows, cols, w = rows[keep], cols[keep], w[keep]
    d = 0.0 - np.bincount(rows, weights=w, minlength=n - lo)
    ids = np.arange(n - lo)
    return scipy.sparse.csr_matrix(
        (np.concatenate([w, d]), (np.concatenate([rows, ids]), np.concatenate([cols, ids + lo]))),
        shape=(n - lo, n))


@dataclass
class SimConfig:
    """Settings for a truncated simulation.

    ``c_speed`` (finite, nonnegative) overrides the light-cone heuristic: the
    simulation radius is then ``support_radius + ceil(c_speed * t_max) + 8``,
    the 8 being the truncation margin.  When unset, the radius of a full or
    nonlinear run is a diffusive term from the largest vertex measure plus a
    ballistic term from the skew mass at the edge of a probe ball.  Those
    runs validate it by the truncation bound that their propagator sums
    (``uniformize`` or ``integrate``); ``_truncated_flow``'s margin (8 hops)
    and retries (3) are module constants, not settings.
    Symmetric-part runs plan no radius and read no probe ball: their ball
    starts at the support radius, or at the ``c_speed`` radius when that is
    set, and grows with the Lanczos basis to its Krylov reach.  No ball may
    exceed 4,000,000 vertices.

    ``rtol`` steers only DOPRI5 runs: nonlinear runs, and full linear runs
    with a negative weight on their ball.  ``atol`` is their absolute
    tolerance, and every truncation check must stay within ``10 * atol``.
    Symmetric-part runs are controlled by ``atol`` alone (the Lanczos
    exponential has no relative tolerance), and full linear runs with no
    negative weight run the uniformization series, which leaves out at most
    1e-16 of its Poisson mass whatever the tolerances.  ``t_max``, ``rtol``
    and ``atol`` must be finite and positive (an infinite ``atol`` would pass
    every truncation check), and sample times finite, nonnegative and at
    most ``t_max``.
    """

    t_max: float
    sample_times: Sequence[float] | None = None
    rtol: float = 1e-8
    atol: float = 1e-10
    c_speed: float | None = None

    def __post_init__(self):
        for name in ("t_max", "rtol", "atol"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if self.c_speed is not None and not 0 <= self.c_speed < math.inf:
            raise ValueError("c_speed must be finite and nonnegative")
        if self.sample_times is not None:
            if not all(0 <= float(t) < math.inf for t in self.sample_times):  # NaN fails too
                raise ValueError("sample times must be finite and nonnegative")
            if any(float(t) > self.t_max for t in self.sample_times):
                raise ValueError("sample times exceed t_max")

    def resolved_sample_times(self) -> list[float]:
        if self.sample_times is not None:
            ts = sorted(float(t) for t in self.sample_times)
            if not ts or ts[-1] < self.t_max:
                ts.append(self.t_max)
            return ts
        lo = max(self.t_max / 200.0, 1e-3)
        grid = np.geomspace(lo, self.t_max, 40)
        return [0.0] + [float(t) for t in grid]


@dataclass
class EvolveResult:
    """Trajectory of a truncated run plus the truncation bookkeeping.

    For full and nonlinear runs ``ball`` is the enlarged ball of the one
    run whose samples these are; ``richardson_diff`` is the run's truncation
    bound, summed by ``uniformize`` or ``integrate``, on the max-norm
    distance on the planned radius between this run and one on that radius
    alone, and ``retries`` counts the attempts whose bound exceeded ``10 *
    atol``.  ``n_steps`` counts the series' terms or the accepted DOPRI5
    steps.
    For symmetric-part runs ``n_steps`` is the Krylov dimension of the
    Lanczos basis (summed over restarts, if the dimension cap forced any),
    ``ball`` is the one ball the run grew (one shell past the last basis
    vector's support) and ``retries`` is 0: nothing is rerun.  Their
    ``richardson_diff`` is 0.0 by construction: the ball held every
    vector's support one shell inside its outer shell when the vector was
    multiplied, so the matvecs, Krylov vectors and error estimate are those
    of the infinite graph, and a larger ball would give the same samples.
    """

    samples: list  # (t, StateVector)
    ball: Ball
    retries: int
    n_steps: int
    richardson_diff: float

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def state_at(self, t: float) -> StateVector:
        for ts, s in self.samples:
            if abs(ts - t) <= 1e-9 * max(1.0, abs(t)):
                return s
        raise KeyError(f"no sample at t={t}")


def _planned_radius(gen, center, support_radius: int, cfg: SimConfig) -> int:
    if cfg.c_speed is not None:
        return support_radius + math.ceil(cfg.c_speed * cfg.t_max) + _TRUNCATION_MARGIN
    probe_r = support_radius + 12
    probe = ball(gen, center, probe_r, budget=_BALL_BUDGET)
    # a diffusive term from the largest measure and a ballistic one from the skew row sums
    spread = 8.0 * math.sqrt(float(probe.measures.max())) * math.sqrt(cfg.t_max)
    skew_row_abs = np.bincount(probe.entry_rows(),
                               weights=np.abs(probe.w_out - probe.w_in) / 2.0,
                               minlength=len(probe))
    spread += float(skew_row_abs[probe.distances == probe_r].max(initial=0.0)) * cfg.t_max
    return support_radius + math.ceil(spread) + _TRUNCATION_MARGIN


def _shell_ends(b: Ball) -> np.ndarray:
    """Entry ``r``: how many of ``b``'s BFS-ordered vertices lie within distance ``r``."""
    return np.searchsorted(b.distances, np.arange(b.radius + 1), side="right")


def _plan(gen, x0, cfg: SimConfig) -> tuple[Vertex, dict, int]:
    """Center (``x0``'s, or the root), support values, and the planned radius."""
    b, data = _support_ball(gen, x0)
    return b.center, data, _planned_radius(gen, b.center, b.radius, cfg)


def _truncated_flow(gen, x0, cfg: SimConfig, run) -> EvolveResult:
    """Run a flow once on a ball past the planned radius, and bound what the cut would change.

    Serves full linear and nonlinear runs.  The ball's center and radius are
    ``_plan``'s, and each attempt reads the ball enlarged by
    ``_TRUNCATION_MARGIN`` hops.  ``run(b, n1, y0, times, shell_ends)``
    builds the flow on ball ``b`` and returns its ``IntegrationResult``
    from ``y0`` on the whole ball, sampled at ``times``, whose ``bound``
    bounds how far a run on the cut to the first ``n1`` vertices, the BFS
    prefix of the radius (the primary run), would differ from it there at
    any sample time.  For a right-hand side whose cut error obeys ``e' = J e
    + flux``, ``e(0) = 0``, with ``J`` the cut's Jacobian and ``flux`` the
    coupling into the cut from the vertices past it, ``integrate`` sums that
    bound given ``|flux|_inf`` and ``mu``, the infinity log-norm of ``J``
    (Soderlind, BIT 46:631, 2006).  The bound must stay within ``10 *
    atol``; otherwise the radius grows by the margin and the attempt is
    repeated, at most ``_MAX_RETRIES`` times before ``TruncationError``.
    """
    center, data, radius = _plan(gen, x0, cfg)
    retries = 0
    while True:
        b = ball(gen, center, radius + _TRUNCATION_MARGIN, budget=_BALL_BUDGET)
        ends = _shell_ends(b)
        res = run(b, int(ends[radius]), StateVector.from_dict(b, data).values,
                  cfg.resolved_sample_times(), ends)
        if res.bound <= 10.0 * cfg.atol:
            samples = [(t, StateVector.from_values(b, y)) for t, y in res.samples]
            return EvolveResult(samples=samples, ball=b, retries=retries,
                                n_steps=res.n_steps, richardson_diff=res.bound)
        if retries >= _MAX_RETRIES:
            raise TruncationError(
                f"truncation not converged: cutting the radius-{radius + _TRUNCATION_MARGIN} "
                f"ball to radius {radius} may change the run by up to {res.bound:.3e} "
                f"(> 10 * atol = {10 * cfg.atol:.3e}) after {_MAX_RETRIES} retries")
        retries += 1
        radius += _TRUNCATION_MARGIN


def _past_cut(a: scipy.sparse.csr_matrix, n1: int) -> scipy.sparse.csr_matrix:
    """The part of ``a``'s first ``n1`` rows past column ``n1``, in the rows with an entry there."""
    out = a[:n1, n1:]
    return out[np.flatnonzero(np.diff(out.indptr))]


def _row_prefix(a: scipy.sparse.csr_matrix, rows: int) -> scipy.sparse.csr_matrix:
    """The first ``rows`` rows of ``a``, sharing its arrays, which the resize only slices."""
    if rows == a.shape[0]:
        return a
    view = copy.copy(a)
    view.resize(rows, a.shape[1])
    return view


class _SymRows:
    """The ``sym`` part of ``TruncatedOperator`` on a ball that grows, rows appended as it grows.

    Its rows are those of ``TruncatedOperator(ball, ("sym",))``, entry for
    entry.  A row's neighbours of positive symmetric weight lie within one
    shell of it, so only the rows of the outer shell change when the ball
    grows: ``grow`` cuts them off and appends them again with the rows of
    the added shells (``_part_rows``).  The vectors it multiplies have
    ``n`` entries, the ball rounded up to whole ``_PREFIX_ALIGN`` blocks;
    the rows past the ball are empty.
    """

    def __init__(self, b: Ball):
        self.ball, self.lo = b, 0  # lo: the outer shell's first row
        self.indptr = np.zeros(1, np.int32)
        self.indices = np.zeros(0, np.int32)
        self.data = np.zeros(0)
        self._build()

    def grow(self, k: int) -> tuple[np.ndarray, int]:
        """Grow the ball to radius ``k``; its shell ends and the vectors' length."""
        if k > self.ball.radius:
            self.ball.extend(k)
            self._build()
        return self.ends, self.n

    def matvec(self, y: np.ndarray, rows: int) -> np.ndarray:
        return _row_prefix(self.a, rows) @ y

    def _build(self) -> None:
        b, lo = self.ball, self.lo
        block = _part_rows(b, "sym", lo)
        start = int(self.indptr[lo])
        self.n = -(-len(b) // _PREFIX_ALIGN) * _PREFIX_ALIGN
        self.data = _append(self.data[:start], block.data)
        self.indices = _append(self.indices[:start], block.indices)
        self.indptr = _append(self.indptr[:lo + 1], np.concatenate(
            [start + block.indptr[1:], np.full(self.n - len(b), start + block.nnz)]))
        self.a = scipy.sparse.csr_matrix((self.data, self.indices, self.indptr),
                                         shape=(self.n, self.n))
        self.ends = _shell_ends(b)
        self.lo = int(np.searchsorted(b.distances, b.radius))


def _support_ball(gen, x0) -> tuple[Ball, dict]:
    """The growing ball of the support's radius around ``x0``'s center (or the root), and its values.

    The ball around the root grows shell by shell until it holds the
    support of a mapping, so each vertex is read once; a support that the
    walk does not reach raises ``ValueError`` when the walk runs out, or
    ``BudgetExceededError`` at ``_BALL_BUDGET``.
    """
    if isinstance(x0, StateVector):
        return ball(gen, x0.ball.center, x0.support_radius, budget=_BALL_BUDGET,
                    grow=True), x0.to_dict()
    data = _nonzero(x0)
    b = ball(gen, gen.root, 0, budget=_BALL_BUDGET, grow=True)
    missing = set(data).difference(b.vertices)
    while missing:
        n = len(b)
        b.extend(b.radius + 1)
        if len(b) == n:
            raise ValueError("initial support not reachable from the center")
        missing.difference_update(b.vertices[n:])
    return b, data


def _krylov_flow(gen, x0, cfg: SimConfig) -> EvolveResult:
    """``exp(t L_sym) x0`` from one Lanczos run on a ball that grows with its Krylov reach.

    The ball starts as the smallest that holds the support (``c_speed``, if
    set, adds its light cone and the margin), and ``lanczos_expm`` grows it
    through ``_SymRows.grow`` before step j asks for the rows of shell
    ``s + j``, ``s`` the shell of the start vector's last nonzero: eight
    shells at a time, to the next error estimate, which the run always
    reaches.  By the generator contract every nonzero symmetric weight is
    positive, hence an edge of the skeleton walk, so step j's vector, zero
    past shell ``s + j - 1``, meets only rows that hold all their symmetric
    neighbours, and the outer shell's truncated rows meet only its zeros:
    the products, the basis and the error estimate are the infinite
    graph's.  Growth keeps what was computed, restart segments included, so
    the samples are those of any larger ball, exact zeros past this one,
    and nothing is rerun (``retries`` 0).  The ball ends one shell past the
    last basis vector's support, or at the component's end.
    """
    b, data = _support_ball(gen, x0)
    if cfg.c_speed is not None:
        b.extend(b.radius + math.ceil(cfg.c_speed * cfg.t_max) + _TRUNCATION_MARGIN)
    op = _SymRows(b)
    res = lanczos_expm(op.matvec, StateVector.from_dict(b, data).values,
                       cfg.resolved_sample_times(), atol=cfg.atol, shell_ends=op.grow)
    b._growth = None  # the result's ball is a snapshot; its walk and ids go
    n = len(b)  # the samples are zero past the ball, whatever their length
    samples = [(t, StateVector.from_values(b, y[:n] if y.size >= n else
                                           np.concatenate([y, np.zeros(n - y.size)])))
               for t, y in res.samples]
    return EvolveResult(samples=samples, ball=b, retries=0,
                        n_steps=res.n_steps, richardson_diff=res.bound)


def evolve(gen, x0, cfg: SimConfig, part: str = "full") -> EvolveResult:
    """Integrate ``x' = Lx`` (or the symmetric part) from ``x0`` on a ball.

    ``x0`` may be a StateVector or a mapping from vertex to value.
    ``part="sym"`` computes ``exp(t L_sym) x0`` at every sample time from
    one Lanczos run (``lanczos_expm``, to ``cfg.atol`` alone; ``cfg.rtol``
    is not used) on a ball that grows with its Krylov reach (``_krylov_flow``).
    ``part="full"`` runs under ``_truncated_flow``, shared with
    ``simulate_nonlinear``, once per attempt on the enlarged ball, and only
    the full part is assembled, once per attempt.

    When no weight on the enlarged ball is negative, the run is the
    uniformization series (``uniformize``; ``cfg.rtol`` is not used) with
    ``rho`` the largest ``|a_vv|`` there.  Then ``P = I + L / rho`` is
    nonnegative, so its rows in the cut, ``P11`` to the cut and ``P12``
    past it, make ``P11`` substochastic, and the run on the cut alone is
    the same series in ``P11``.  Its error after ``k`` terms obeys
    ``e_{k+1} = P11 e_k + P12 y_k``, so ``|e_k|_inf`` is at most the sum of
    ``|P12 y_j|_inf`` over ``j < k``, the flux that ``uniformize`` weighs.
    Otherwise DOPRI5 (``integrate``) runs to ``cfg.rtol`` and ``cfg.atol``
    and sums the bound; its ``mu`` is the exact infinity log-norm of the
    operator cut to the planned radius, at least 0, and its flux is the
    cut's coupling to the rest of the ball applied to the run's state there.
    Every run is checked, and the result carries the run's ball and its
    trajectory; rebuild an operator from the ball with
    ``TruncatedOperator(result.ball, parts)``.
    """
    if part not in ("full", "sym"):
        raise ValueError("part must be 'full' or 'sym'")
    if part == "sym":
        return _krylov_flow(gen, x0, cfg)

    def run(b, n1, y0, times, ends):
        a = TruncatedOperator(b, parts=("full",)).matrix("full")
        if not np.any(b.w_out[b.nbr >= 0] < 0.0):  # the operator's off-diagonal entries
            rho = float(np.max(np.abs(a.diagonal()), initial=0.0))
            p = a / (rho or 1.0)  # with rho 0, A is 0 and P is I
            p.setdiag(p.diagonal() + 1.0)
            p12 = _past_cut(p, n1)
            return uniformize(lambda y, rows: _row_prefix(p, rows) @ y, rho, y0, times,
                              flux=lambda terms: np.max(np.abs(p12 @ terms[:, n1:].T),
                                                        axis=0, initial=0.0),
                              shell_ends=ends)
        out, cut = _past_cut(a, n1), a[:n1, :n1]
        # the exact infinity log-norm of the cut: its |row| sums, the diagonal signed
        mu = max(0.0, float((abs(cut) @ np.ones(n1) + 2 * np.minimum(cut.diagonal(), 0)).max()))

        def flux(t, y, bound):  # the coupling from past the cut into it
            return float(np.max(np.abs(out @ y[n1:]), initial=0.0)), mu

        return integrate(lambda t, y, rows: _row_prefix(a, rows) @ y, y0, times,
                         rtol=cfg.rtol, atol=cfg.atol, flux=flux, shell_ends=ends)

    return _truncated_flow(gen, x0, cfg, run)


def norms(x, ps: Iterable) -> list[float]:
    """lp norms of a state for each requested p in [1, inf].

    The sums run to the last nonzero entry, so a state on a larger ball
    that only adds zeros past it has the same norms, bit for bit.
    """
    values = x.values if isinstance(x, StateVector) else np.asarray(list(x), dtype=float)
    if values.size:
        end = values.size - int(np.argmax(values[::-1] != 0.0))  # past the last nonzero
        values = values[:end if values[end - 1] != 0.0 else 0]
    return [float(np.linalg.norm(values)) if p == 2 else _difference_norm(np.abs(values), p)
            for p in map(float, ps)]


def q_seminorm(x, gen, ps: Iterable) -> list[float]:
    """Discrete-gradient seminorms: p-norms of differences across symmetric edges.

    Sums ``|x_v' - x_v|^p`` over ordered pairs with ``v'`` in the symmetric
    neighbourhood of ``v``, exactly for the infinite graph.  For a
    StateVector the one-hop enlargement of the support must fit inside its
    ball, or ``ValueError`` is raised.  The support and then its neighbours
    are read once each (``graph._local_rows``).  The in-ball variant used on
    simulated trajectories is ``q_norm_fast`` (``trajectory_norms(kind="q")``).
    """
    data = _nonzero(x)
    domain = x.ball if isinstance(x, StateVector) else None
    diffs = _sym_differences(data, _local_rows(gen, data), domain)
    return [_difference_norm(diffs, float(p)) for p in ps]


def _nonzero(x) -> dict:
    """The nonzero entries of a StateVector or a mapping, as floats."""
    return x.to_dict() if isinstance(x, StateVector) else \
        {v: float(val) for v, val in dict(x).items() if val != 0.0}


def _sym_differences(data: dict, rows: dict, domain: Ball | None = None) -> np.ndarray:
    """``|x_v' - x_v|`` over the pairs of positive symmetric weight from the ring.

    The ring is the support and its symmetric neighbours, whose rows ``rows``
    holds (``graph._local_rows``); with a ``domain``, it must lie inside.
    """
    sym = {v: [u for u, wf, wb in row if (wf + wb) / 2.0 > 0.0] for v, row in rows.items()}
    ring = dict.fromkeys(data)
    for v in data:
        ring.update(dict.fromkeys(sym[v]))
    if domain is not None and any(v not in domain for v in ring):
        raise ValueError("support touches the ball boundary; enlarge the ball")
    return np.array([abs(data.get(u, 0.0) - data.get(v, 0.0)) for v in ring for u in sym[v]])


def _difference_norm(d: np.ndarray, p: float) -> float:
    """lp norm, p in [1, inf], of an array of absolute values; NaN p raises too."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if math.isinf(p):
        return float(d.max()) if d.size else 0.0
    return float(np.sum(d ** p) ** (1.0 / p))


def q_norm_fast(values: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
                p: float) -> float:
    """Q_p over precomputed ordered symmetric pairs (in-ball variant)."""
    rows, cols = pairs
    return _difference_norm(np.abs(values[cols] - values[rows]), p)


def skew_bound_check(x, gen) -> tuple[float, float]:
    """Evaluate both sides of the skew-part bound for one vector.

    Returns ``(|L_skew x|_1, W_local * Q_inf(x))`` where ``W_local`` sums
    ``|w_skew|`` over exactly the ordered pairs with a nonzero term, so the
    right side is a valid (sharpened) instance of the bound for finitely
    supported vectors.  All three terms come from one read of the support
    and its neighbours (``graph._local_rows``).
    """
    data = _nonzero(x)
    rows = _local_rows(gen, data)
    lhs = sum(abs(val) for val in _laplacian(data, rows, WEIGHT_PARTS["skew"]).values())
    w_local = 0.0
    for v, row in rows.items():
        xv = data.get(v, 0.0)
        for u, wf, wb in row:
            if xv != 0.0 or data.get(u, 0.0) != 0.0:
                w_local += abs((wf - wb) / 2.0)
    q_inf = _difference_norm(_sym_differences(data, rows), math.inf)
    return float(lhs), float(w_local * q_inf)


@dataclass
class DecayFit:
    """Least-squares fit of log(norm) against log(1 + t) over a window."""

    times: list[float]
    norms: list[float]
    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    label: str = "norm"


def fit_power_law(times: Sequence[float], values: Sequence[float],
                  window: tuple[float, float] | None = None,
                  label: str = "norm") -> DecayFit:
    """Fit ``value ~ C (1+t)^exponent`` by ordinary least squares in logs.

    Raises ``ValueError`` on the first sample whose time or value is not finite.
    """
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    for t, v in zip(times, values):
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValueError(f"non-finite sample: t={t}, value={v}")
    if window is None:
        hi = max(times)
        window = (max(10.0, hi / 100.0), hi)
    lo, hi = window
    sel = [(t, v) for t, v in zip(times, values) if lo <= t <= hi]
    if len(sel) < 8:
        raise ValueError(f"need >= 8 samples in window [{lo}, {hi}], got {len(sel)}")
    if any(v == 0.0 for _, v in sel):
        raise ValueError("norm hits exact zero in the fit window "
                         "(trivial trajectory?)")
    if any(v < 0.0 for _, v in sel):
        raise ValueError("norms must be positive")
    xs = np.log1p([t for t, _ in sel])
    ys = np.log([v for _, v in sel])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return DecayFit(times=[t for t, _ in sel], norms=[v for _, v in sel],
                    exponent=float(slope), intercept=float(intercept),
                    r_squared=max(0.0, min(1.0, r2)), window=(lo, hi), label=label)


def trajectory_norms(trajectory, kind: str = "p",
                     p: float = math.inf) -> tuple[list[float], list[float]]:
    """Norm values along a trajectory.

    ``kind='p'`` gives lp norms; ``kind='q'`` gives the discrete-gradient
    seminorm over the symmetric pairs inside the trajectory's ball.
    """
    if kind not in ("p", "q"):
        raise ValueError("kind must be 'p' or 'q'")
    if kind == "q":
        pairs = trajectory.ball.sym_pairs()
    times, values = [], []
    for t, state in trajectory:
        times.append(float(t))
        if kind == "p":
            values.append(norms(state, [p])[0])
        else:
            values.append(q_norm_fast(state.values, pairs, p))
    return times, values


def fit_decay(trajectory, kind: str = "p", p: float = math.inf,
              window: tuple[float, float] | None = None) -> DecayFit:
    """Fit the decay exponent of a norm along a trajectory."""
    times, values = trajectory_norms(trajectory, kind=kind, p=p)
    prefix = "Q" if kind == "q" else "l"
    suffix = "inf" if math.isinf(p) else f"{p:g}"
    return fit_power_law(times, values, window=window, label=prefix + suffix)


def advection_oracle(i: int, t: float) -> float:
    """Closed-form axis solution of the advection flow from a point source.

    Returns ``t^i / i! * exp(-t)`` evaluated in log space, with value 1 at
    ``(i, t) = (0, 0)``.
    """
    if i < 0 or t < 0:
        raise ValueError("need i >= 0 and t >= 0")
    if i > 170:
        raise ValueError("i > 170 not supported")
    if t == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(t) - math.lgamma(i + 1) - t)


def advection_stirling_lower(i: int) -> float:
    """Lower bound ``exp(-1) / sqrt(i)`` for the peak value, i >= 1."""
    if i < 1:
        raise ValueError("need i >= 1")
    return math.exp(-1.0) / math.sqrt(i)
