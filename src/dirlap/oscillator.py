"""Phase-lattice dynamics: locked states, linearization, and stability runs.

A lattice of phase oscillators evolves by

    theta_v' = omega_v + sum over v' of H(theta_v' - theta_v, v, v'),

with a smooth 2*pi-periodic interaction H supported on finitely many
neighbours per vertex.  A phase-locked candidate (common velocity plus fixed
lags) is verified by its ansatz residual; linearizing around it produces a
directed graph Laplacian whose weights are the slopes of H at the locked
phase differences, which plugs straight into the heat-flow machinery.

Nonlinear stability experiments integrate the full lattice on a truncated
ball in the co-rotating frame, freezing the exterior at the locked motion,
and return the deviation from the locked state over time.  For the sine
coupling the right-hand side is evaluated in harmonic form, two sparse
matvecs and one sin and cos per vertex (Strogatz 2000, Physica D 143:1).

A sine coupling (``SeparableCoupling``) takes its strengths from a graph,
and is read from that graph in rows, as the skeleton walk reads any graph:
the linearization reads a vertex's weights once, and a whole shell in one
``batch_adjacency`` call where the graph has one; the right-hand side takes
its coupling weights from one read of each ball vertex.  ``sin_coupling``
wraps user callables into such a graph.  A ``GenericCoupling`` is read pair
by pair through its callables, with no memo, so the right-hand side calls
``h`` once per pair on every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse

from .errors import BlowUpError
from .geometry import Ball, _index_by_id, _read_shell, _row_ids, ball
from .graph import DEFAULT_DEGREE_CAP, GraphGenerator, Vertex, _unkey
from .semigroup import SimConfig, StateVector, _truncated_flow

# simulate_nonlinear's guards, read at call time
_MAX_PERTURBATION_L1 = 1.0
_BLOWUP_THRESHOLD = math.pi / 2


@dataclass(frozen=True)
class SeparableCoupling:
    """The sine interaction ``H(x, v, v') = w(v, v') * sin(x)``, ``w`` the out-weights of ``graph``.

    A vertex's support is its neighbours in either direction, so pairs stay
    symmetric even when the strengths are not.  The separable form lets the
    right-hand side expand ``sin(psi_u - psi_v)`` into two sparse matvecs
    (see ``_EdgeTable``).
    """

    graph: GraphGenerator

    def weight(self, v: Vertex, v2: Vertex) -> float:
        return self.graph.edges(v)[0].get(v2, 0.0)

    def support(self, v: Vertex) -> list:
        out, inn = self.graph.edges(v)
        return sorted(out.keys() | inn.keys())

    def h(self, x: float, v: Vertex, v2: Vertex) -> float:
        return self.weight(v, v2) * float(np.sin(x))

    def dh(self, x: float, v: Vertex, v2: Vertex) -> float:
        return self.weight(v, v2) * float(np.cos(x))


@dataclass(frozen=True)
class GenericCoupling:
    """Interaction given by arbitrary callables ``h(x, v, v')`` and its slope."""

    h: Callable
    dh: Callable
    support: Callable[[Vertex], Iterable[Vertex]]


def sin_coupling(weight: Callable[[Vertex, Vertex], float],
                 support: Callable[[Vertex], Iterable[Vertex]]) -> SeparableCoupling:
    """The classic sine interaction with per-pair coupling strengths.

    ``coupling_from_graph``'s pair gives back its own coupling.  Any other
    callables are wrapped once into a ``GraphGenerator`` whose read of ``v``
    is ``{u: weight(v, u)}`` and ``{u: weight(u, v)}`` over ``support(v)``,
    zero weights dropped, with no ``batch_adjacency``.  So they are read
    through ``GraphGenerator.edges``: a self-pair is dropped, each direction
    is capped at ``DEFAULT_DEGREE_CAP`` (64) neighbours, and an edge table
    reads each pair's weight twice, once from each end.
    """
    owner = getattr(weight, "__self__", None)
    if isinstance(owner, SeparableCoupling) and (weight, support) == (owner.weight, owner.support):
        return owner

    def adjacency(v: Vertex):
        nb = list(support(v))  # may be a one-pass iterable
        return ({u: w for u in nb if (w := weight(v, u)) != 0.0},
                {u: w for u in nb if (w := weight(u, v)) != 0.0})

    # no walk starts from this graph, so its root is never read
    return SeparableCoupling(GraphGenerator(adjacency=adjacency, root=(), name="sin_coupling"))


def coupling_from_graph(gen: GraphGenerator) -> tuple[Callable, Callable]:
    """Use a graph's directed out-weights as coupling strengths.

    Returns the ``(weight, support)`` of ``SeparableCoupling(gen)``, which
    ``sin_coupling`` turns back into that coupling.
    """
    coup = SeparableCoupling(gen)
    return coup.weight, coup.support


@dataclass
class OscillatorSystem:
    omega: Callable[[Vertex], float]
    coupling: SeparableCoupling | GenericCoupling
    root: Vertex
    name: str = "oscillators"


@dataclass
class PhaseLockCandidate:
    """Claimed synchronous solution: common velocity plus per-vertex lags."""

    velocity: float
    lags: Callable[[Vertex], float]


def verify_phase_lock(sys: OscillatorSystem, cand: PhaseLockCandidate,
                      radius: int) -> float:
    """Max ansatz residual over the radius-``radius`` ball of the coupling's support.

    The residual at v is ``|Omega - omega_v - sum H(lag_v' - lag_v, v, v')|``,
    the deviation flow's right-hand side at zero (``_EdgeTable.rhs``).  The
    ball follows every (symmetric) support pair, whatever its slope, so an
    anti-phase lock is sampled as fully as a synchronous one; the walk and
    the table read each ball vertex once each.  A NaN residual at any vertex
    gives NaN, and a negative radius ``ValueError``.  The raw residual is
    returned; callers compare it with their own threshold and report it.
    """
    coup = sys.coupling  # the support has no degree cap of its own
    support = GraphGenerator(adjacency=lambda v: (dict.fromkeys(coup.support(v), 1.0),) * 2,
                             root=sys.root, degree_cap=math.inf)
    b = ball(support, sys.root, radius)
    return float(np.max(np.abs(_EdgeTable(sys, cand, b).rhs(np.zeros(len(b))))))


def linearize(sys: OscillatorSystem, cand: PhaseLockCandidate) -> GraphGenerator:
    """Directed graph generator of the linearization around a locked state.

    The weight from v to v' is the slope of H at the locked phase difference;
    zero slopes are pruned like absent edges.  Requires the interaction
    support to be symmetric (v' interacts with v whenever v does with v'),
    which holds for every lattice coupling used here.

    For a sine coupling a vertex read is one read of the coupling graph,
    ``w(v, v') cos(lag_v' - lag_v)`` and ``w(v', v) cos(lag_v - lag_v')`` from
    the one ``(out, inn)`` pair, and the generator has a ``batch_adjacency``
    when the graph has one: one graph batch call per shell, times the same
    cosines, with the lags read only on present slots.  A ``GenericCoupling``
    is read pair by pair through ``dh``.
    """
    coup = sys.coupling
    lag = cand.lags
    name = f"linearized({sys.name})"
    if isinstance(coup, GenericCoupling):
        def adjacency(v: Vertex):
            out = {}
            inn = {}
            for u in coup.support(v):
                w = coup.dh(lag(u) - lag(v), v, u)
                if w != 0.0:
                    out[u] = w
                wb = coup.dh(lag(v) - lag(u), u, v)
                if wb != 0.0:
                    inn[u] = wb
            return out, inn

        return GraphGenerator(adjacency=adjacency, root=sys.root, name=name)

    graph = coup.graph

    def sloped(w_out, w_in, lag_v, lag_u):
        # +0.0, not -0.0, where a weight is zero: the vertex read prunes those
        return (np.where(w_out != 0.0, w_out * np.cos(lag_u - lag_v), 0.0),
                np.where(w_in != 0.0, w_in * np.cos(lag_v - lag_u), 0.0))

    def adjacency(v: Vertex):
        out, inn = graph.edges(v)
        nb = list(out.keys() | inn.keys())
        w_out, w_in = sloped(np.array([out.get(u, 0.0) for u in nb]),
                             np.array([inn.get(u, 0.0) for u in nb]),
                             lag(v), np.array([lag(u) for u in nb]))
        return ({u: w for u, w in zip(nb, w_out.tolist()) if w != 0.0},
                {u: w for u, w in zip(nb, w_in.tolist()) if w != 0.0})

    def batch(coords):
        nc, wo, wi = graph.batch_adjacency(coords)
        nc, wo, wi = np.asarray(nc, np.int64), np.asarray(wo, float), np.asarray(wi, float)
        present = (wo != 0.0) | (wi != 0.0)  # an absent slot's coordinates are arbitrary
        lag_u = np.zeros(wo.shape)
        lag_u[present] = [lag(u) for u in zip(*nc[present].T.tolist())]
        lag_v = np.array([lag(v) for v in zip(*coords.T.tolist())])
        return (nc,) + sloped(wo, wi, lag_v[:, None], lag_u)

    # the graph's reads cap its degree, the generator's its own
    return GraphGenerator(adjacency=adjacency, root=sys.root, name=name,
                          degree_cap=min(graph.degree_cap, DEFAULT_DEGREE_CAP),
                          batch_adjacency=None if graph.batch_adjacency is None else batch)


class _EdgeTable:
    """The truncated lattice right-hand side, in the deviation phi.

    Exterior neighbours stay frozen at the lock (deviation zero).  For the
    sine coupling, with ``psi = phi + lag`` and ``K`` the in-ball coupling
    weights, ``sin(psi_u - psi_v) = sin psi_u cos psi_v - cos psi_u sin psi_v``
    gives ``offset + cos psi * (K sin psi + s_ext) - sin psi * (K cos psi +
    c_ext)``: two sparse matvecs, where ``s_ext`` and ``c_ext`` sum
    ``K_vu sin(lag_u)`` and ``K_vu cos(lag_u)`` over exterior u.  A
    ``GenericCoupling`` calls ``h`` once per ordered pair (v in ball,
    v' in support(v)) and sums each vertex's terms with ``np.bincount``.

    The pairs come from one of two gathers.  A sine coupling reads the ball's
    rows of its graph once, by the walk's own shell read (one batch call where
    the keys fit), resolves their neighbours to ball indices by id as
    ``geometry.ball`` does, and takes ``K`` from the rows' out-weights.  A
    ``GenericCoupling`` is gathered pair by pair through ``support``.  Either
    way the lags and ``omega`` are read once per ball vertex, and the lags
    once more per exterior pair.

    ``rhs`` takes the deviation on the integrator's window, the first ``w``
    ball vertices; the ball vertices past it stay at the lock like the
    exterior.  ``slopes`` gives ``H'`` at every pair, which the truncation
    bound of ``simulate_nonlinear`` reads where its certificate fails.
    """

    def __init__(self, sys: OscillatorSystem, cand: PhaseLockCandidate, b: Ball):
        self.coup, n = sys.coupling, len(b)
        self.offset = np.array([sys.omega(v) - cand.velocity for v in b.vertices])
        self.lag = np.array([cand.lags(v) for v in b.vertices])
        if isinstance(self.coup, SeparableCoupling):
            rows = _read_shell(self.coup.graph, b.vertices, None, None, None, None, False)[0]
            ids, nbr = _row_ids(b.vertices, rows, {})
            (dst,) = _index_by_id(ids, [nbr])
            away = np.flatnonzero(dst < 0)
            outside = [rows.nbr[j] for j in away] if rows.keys is None \
                else _unkey(nbr[away], len(b.center))
            dst[away] = n
            counts, k = rows.counts, np.asarray(rows.w_out, float)
        else:
            nbrs = [list(self.coup.support(v)) for v in b.vertices]
            counts = [len(us) for us in nbrs]
            dst = np.array([b.index.get(u, n) for us in nbrs for u in us], dtype=np.int64)
            outside = [u for us in nbrs for u in us if u not in b.index]
            self.pairs = [(v, u) for v, us in zip(b.vertices, nbrs) for u in us]
        self.src = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.dst = dst  # n: exterior
        ext = dst == n
        lag_u = np.append(self.lag, 0.0)[dst]
        lag_u[ext] = [cand.lags(u) for u in outside]
        self.dlag = lag_u - self.lag[self.src]
        if isinstance(self.coup, SeparableCoupling):
            inner = ~ext
            self.kw = k  # every pair's weight
            self.k = scipy.sparse.csr_matrix(
                (k[inner], (self.src[inner], dst[inner])), shape=(n, n))
            self.s_ext = np.bincount(self.src[ext], k[ext] * np.sin(lag_u[ext]), n)
            self.c_ext = np.bincount(self.src[ext], k[ext] * np.cos(lag_u[ext]), n)
        self._window = None

    def _cut(self, w: int) -> tuple:
        """The sine table on the first ``w`` ball vertices; the others stay at the lock.

        The frozen ball vertices past ``w`` join the exterior sums ``s_ext``
        and ``c_ext``.
        """
        if w == self.k.shape[0]:  # the whole ball: no copy
            return w, self.k, self.s_ext, self.c_ext
        rest = self.k[:w, w:]
        return (w, self.k[:w, :w], self.s_ext[:w] + rest @ np.sin(self.lag[w:]),
                self.c_ext[:w] + rest @ np.cos(self.lag[w:]))

    def _differences(self, phi: np.ndarray) -> np.ndarray:
        """``lag_u - lag_v + phi_u - phi_v`` of every pair, ``phi`` zero past its length."""
        padded = np.zeros(self.lag.size + 1)  # entry n: the exterior
        padded[:phi.size] = phi
        return self.dlag + padded[self.dst] - padded[self.src]

    def rhs(self, phi: np.ndarray) -> np.ndarray:
        """The right-hand side on the window of ``phi``'s length.

        A sine table is cut once per window (``_cut``); a ``GenericCoupling``
        calls ``h`` on the pairs whose ``v`` lies in the window (``src`` is
        sorted).
        """
        w = phi.size
        offset = self.offset[:w]
        if isinstance(self.coup, SeparableCoupling):
            if self._window is None or self._window[0] != w:
                self._window = self._cut(w)
            _, k, s_ext, c_ext = self._window
            psi = phi + self.lag[:w]
            s, c = np.sin(psi), np.cos(psi)
            return offset + c * (k @ s + s_ext) - s * (k @ c + c_ext)
        m = int(np.searchsorted(self.src, w))
        x = self._differences(phi)[:m].tolist()
        vals = np.array([self.coup.h(xi, v, u) for xi, (v, u) in zip(x, self.pairs)])
        return offset + np.bincount(self.src[:m], weights=vals, minlength=w)

    def slopes(self, phi: np.ndarray) -> np.ndarray:
        """``H'`` of every pair at the deviation ``phi`` on the window, the lock past it.

        ``K_vu cos(psi_u - psi_v)`` for the sine coupling, ``dh`` as
        ``linearize`` reads it for a ``GenericCoupling``.
        """
        x = self._differences(phi)
        if isinstance(self.coup, SeparableCoupling):
            return self.kw * np.cos(x)
        return np.array([self.coup.dh(xi, v, u) for xi, (v, u) in zip(x.tolist(), self.pairs)])


def simulate_nonlinear(sys: OscillatorSystem, cand: PhaseLockCandidate,
                       perturbation, cfg: SimConfig):
    """Integrate the full lattice near a locked state; return the deviation.

    Works in the co-rotating frame, so the integrated variable is directly
    the deviation from the locked solution.  Exterior oscillators stay
    frozen at the locked motion, consistent with deviations that decay.  The
    ball, its truncation bound and the retries are the full linear flow's
    (``semigroup._truncated_flow``), run on the linearization's skeleton.  A
    perturbation of l1 norm above ``_MAX_PERTURBATION_L1`` (1.0) is rejected
    with ``ValueError``, and any deviation exceeding ``_BLOWUP_THRESHOLD``
    (pi/2) in sup norm aborts with ``BlowUpError``.  One ``_EdgeTable`` is
    built per attempt, on the enlarged ball, and integrated once.

    The bound's terms at each accepted state: since ``sin`` is 1-Lipschitz,
    the flux into the cut is at most ``|K| |phi|`` over the pairs from the
    cut to the rest of the ball.  ``mu`` is 0 while a certificate holds:
    every sine weight is nonnegative and the largest lag gap over the
    table's pairs plus ``2 (sup|phi| + bound)`` is at most pi/2, so every
    slope between this run and one on the cut alone is nonnegative and the
    cut's Jacobian is a Metzler matrix whose rows sum to at most 0.
    Otherwise, and always for a ``GenericCoupling``, ``mu`` is the infinity
    log-norm of the cut's Jacobian from the slopes at the accepted state
    (``_EdgeTable.slopes``), at least 0, and a ``GenericCoupling`` weighs
    the flux by the absolute slopes.
    """
    data = perturbation.to_dict() if isinstance(perturbation, StateVector) \
        else dict(perturbation)
    if not sum(abs(v) for v in data.values()) <= _MAX_PERTURBATION_L1:  # NaN fails too
        raise ValueError(f"perturbation exceeds the l1 budget {_MAX_PERTURBATION_L1}")
    sine = isinstance(sys.coupling, SeparableCoupling)

    def flow(b, n1):
        table = _EdgeTable(sys, cand, b)
        # the pairs from the cut to the rest of the ball, and their ends
        across = (table.src < n1) & (table.dst >= n1) & (table.dst < len(b))
        src, dst = table.src[across], table.dst[across]
        kw = table.kw[across] if sine else None
        # the certificate's part fixed per table: no negative weight, and the largest lag gap
        gap = float(np.max(np.abs(table.dlag), initial=0.0)) \
            if sine and not np.any(table.kw < 0.0) else math.inf

        def terms(t, phi, bound):
            top = float(np.max(np.abs(phi)))
            if top > _BLOWUP_THRESHOLD:
                raise BlowUpError(f"deviation {top:.3f} at t={t:.3g} left the perturbative regime")
            if gap + 2.0 * (top + bound) <= math.pi / 2:
                mu, s = 0.0, table.kw
            else:
                s = table.slopes(phi)  # per-vertex sums below; the cut is the first n1
                rows = np.bincount(table.src, np.where(table.dst < n1, np.abs(s) - s, -s))[:n1]
                mu = float(np.max(rows, initial=0.0))
            live = dst < phi.size  # phi is 0 past the window
            phi_u = np.zeros(dst.size)
            phi_u[live] = phi[dst[live]]
            flux = np.bincount(src, np.abs((kw if sine else s[across]) * phi_u))
            return float(np.max(flux, initial=0.0)), mu

        return lambda t, y: table.rhs(y), terms

    return _truncated_flow(linearize(sys, cand), perturbation, cfg, flow)
