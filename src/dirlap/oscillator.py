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

The lock check and the flow walk one graph, the coupling itself
(``_walk_graph``): a sine coupling (``SeparableCoupling``) its strength
graph, with one batch call per large shell where the graph has one, and a
``GenericCoupling`` its support.  So every coupled pair is sampled whatever
its slope at the lock, and the right-hand side takes its pairs and sine
weights from the ball's snapshot, which holds one read of each vertex.
``sin_coupling`` wraps user callables into such a graph.  A
``GenericCoupling`` is evaluated pair by pair through its callables, with
no memo, so the right-hand side calls ``h`` once per pair on every
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Callable, Iterable

import numpy as np
import scipy.sparse

from .errors import BlowUpError
from .geometry import Ball, ball
from .graph import GraphGenerator, Vertex
from .integrate import _one_blas_thread, integrate
from .semigroup import SimConfig, _nonzero, _PrefixProduct, _truncated_flow

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
    through ``GraphGenerator.edges``: a self-pair is dropped, the walk
    raises ``DegreeCapError`` past ``DEFAULT_DEGREE_CAP`` (64) neighbours in
    either direction, and it reads each pair's weight twice, once from each
    end.
    """
    owner = getattr(weight, "__self__", None)
    if isinstance(owner, SeparableCoupling) and (weight, support) == (owner.weight, owner.support):
        return owner

    def adjacency(v: Vertex):
        nb = list(support(v))  # may be a one-pass iterable
        return ({u: w for u in nb if (w := weight(v, u)) != 0.0},
                {u: w for u in nb if (w := weight(u, v)) != 0.0})

    # every walk of it is re-rooted at its system's root (_walk_graph)
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


def _walk_graph(sys: OscillatorSystem) -> GraphGenerator:
    """The graph whose balls the lock check and the flow read, rooted at ``sys.root``.

    A sine coupling walks its own graph, so its batch reads stay; a
    ``GenericCoupling`` walks its support as unit weights both ways, with no
    degree cap.  Either way a ball's rows are the table's pairs, whatever
    the slope at the lock.
    """
    coup = sys.coupling
    if isinstance(coup, SeparableCoupling):
        return replace(coup.graph, root=sys.root)
    return GraphGenerator(adjacency=lambda v: (dict.fromkeys(coup.support(v), 1.0),) * 2,
                          root=sys.root, degree_cap=math.inf)


def verify_phase_lock(sys: OscillatorSystem, cand: PhaseLockCandidate,
                      radius: int) -> float:
    """Max ansatz residual over the radius-``radius`` ball of the coupling (``_walk_graph``).

    The residual at v is ``|Omega - omega_v - sum H(lag_v' - lag_v, v, v')|``,
    the deviation flow's right-hand side at zero (``_EdgeTable.rhs``).  The
    ball follows every coupled pair, whatever its slope, so an anti-phase
    lock is sampled as fully as a synchronous one; the walk reads each ball
    vertex once, and the table reads nothing.  A NaN residual at any vertex
    gives NaN, and a negative radius ``ValueError``.  The raw residual is
    returned; callers compare it with their own threshold and report it.
    """
    b = ball(_walk_graph(sys), sys.root, radius)
    return float(np.max(np.abs(_EdgeTable(sys, cand, b).rhs(np.zeros(len(b)), len(b)))))


def linearize(sys: OscillatorSystem, cand: PhaseLockCandidate) -> GraphGenerator:
    """Directed graph generator of the linearization around a locked state.

    The weight from v to v' is the slope of H at the locked phase difference;
    zero slopes are pruned like absent edges.  Requires the interaction
    support to be symmetric (v' interacts with v whenever v does with v'),
    which holds for every lattice coupling used here.

    For a sine coupling a vertex read is one read of the coupling graph,
    ``w(v, v') cos(lag_v' - lag_v)`` and ``w(v', v) cos(lag_v - lag_v')`` from
    the one ``(out, inn)`` pair; a ``GenericCoupling`` is read pair by pair
    through ``dh``.  Each read takes each lag once.  The generator has no
    ``batch_adjacency``: the lock check and the nonlinear flow walk the
    coupling (``_walk_graph``), not its linearization.
    """
    coup, lag = sys.coupling, cand.lags

    def adjacency(v: Vertex):
        lag_v = lag(v)
        if isinstance(coup, GenericCoupling):
            gap = {u: lag(u) - lag_v for u in coup.support(v)}
            return ({u: w for u, x in gap.items() if (w := coup.dh(x, v, u)) != 0.0},
                    {u: w for u, x in gap.items() if (w := coup.dh(-x, u, v)) != 0.0})
        out, inn = coup.graph.edges(v)
        gap = {u: lag(u) - lag_v for u in out.keys() | inn.keys()}
        return ({u: s for u, w in out.items() if (s := w * math.cos(gap[u])) != 0.0},
                {u: s for u, w in inn.items() if (s := w * math.cos(-gap[u])) != 0.0})

    return GraphGenerator(adjacency=adjacency, root=sys.root, name=f"linearized({sys.name})")


class _EdgeTable:
    """The truncated lattice right-hand side, in the deviation phi.

    Exterior neighbours stay frozen at the lock (deviation zero).  For the
    sine coupling, with ``psi = phi + lag`` and ``K`` the in-ball coupling
    weights, ``sin(psi_u - psi_v) = sin psi_u cos psi_v - cos psi_u sin psi_v``
    gives ``offset + cos psi * (K sin psi + s_ext) - sin psi * (K cos psi +
    c_ext)``: two sparse matvecs, where ``s_ext`` and ``c_ext`` sum
    ``K_vu sin(lag_u)`` and ``K_vu cos(lag_u)`` over exterior u.  A
    ``GenericCoupling`` calls ``h`` once per ordered pair (v in ball,
    v' != v in support(v)) and sums each vertex's terms with ``np.bincount``.

    The ball is one of ``_walk_graph(sys)``, and its snapshot entries are the
    pairs: ``src`` their rows, ``dst`` their ball index or ``n`` outside, and
    a sine table's ``K`` the rows' out-weights.  A sine table whose ball was
    not read from its coupling graph raises ``ValueError``, and so does any
    table whose ball has an exterior pair off its outer shell: a coupled
    pair that the walk did not follow, such as weights 0.5 and -0.5.  The
    lags and ``omega`` are read once per ball vertex, decoded from
    ``Ball.ids`` a slice at a time, and the lags once more per exterior
    pair, whose ends ``Ball.outside`` decodes from the ball's ids.

    ``rhs(phi, rows)`` and ``slopes(phi)`` take the whole ball's deviation,
    zero past the integrator's window ``rows``, as ``integrate`` passes it.
    ``slopes`` gives ``H'`` at every pair, which the truncation bound of
    ``simulate_nonlinear`` reads where its certificate fails.
    """

    def __init__(self, sys: OscillatorSystem, cand: PhaseLockCandidate, b: Ball):
        self.coup, n = sys.coupling, len(b)
        sine = isinstance(self.coup, SeparableCoupling)
        if sine and b.source.adjacency != self.coup.graph.adjacency:
            raise ValueError(f"the ball was read from {b.source.name}, "
                             f"not from the coupling graph {self.coup.graph.name}")
        self.src = b.entry_rows()
        ext = b.nbr < 0
        outside = b.outside()
        cut = np.flatnonzero(b.distances[self.src[ext]] < b.radius)
        if cut.size:
            v, u = b.at(self.src[ext][cut[:1]])[0], outside[cut[0]]
            raise ValueError(f"the pair ({v}, {u}) is coupled, but the walk did not follow it: "
                             f"{v} lies inside the radius-{b.radius} ball and {u} outside")
        offset, lag = [], []
        for vertices in b.slices(256):  # a slice stays below gen-0 GC's threshold, 700
            offset += [sys.omega(v) - cand.velocity for v in vertices]
            lag += [cand.lags(v) for v in vertices]
        self.offset, self.lag = np.array(offset), np.array(lag)
        self.dst = np.where(ext, n, b.nbr)  # n: exterior
        lag_u = np.append(self.lag, 0.0)[self.dst]
        lag_u[ext] = [cand.lags(u) for u in outside]
        self.dlag = lag_u - self.lag[self.src]
        if sine:
            k, inner = b.w_out, ~ext
            self.kw = k  # every pair's weight
            self.k = scipy.sparse.csr_matrix(
                (k[inner], (self.src[inner], self.dst[inner])), shape=(n, n))
            self.k_prefix = _PrefixProduct(self.k)
            self.s_ext = np.bincount(self.src[ext], k[ext] * np.sin(lag_u[ext]), n)
            self.c_ext = np.bincount(self.src[ext], k[ext] * np.cos(lag_u[ext]), n)
            # sin psi and cos psi, at the lock past the last call's rows
            self.sin, self.cos, self.psi, self.rows = np.empty(n), np.empty(n), np.empty(n), -1
        else:
            vertices, ends = b.vertices, iter(outside)
            self.pairs = [(vertices[i], vertices[j] if j >= 0 else next(ends))
                          for i, j in zip(self.src.tolist(), b.nbr.tolist())]

    def _differences(self, phi: np.ndarray) -> np.ndarray:
        """``lag_u - lag_v + phi_u - phi_v`` of every pair."""
        x = np.append(phi, 0.0)  # entry n: the exterior, at the lock
        return self.dlag + x[self.dst] - x[self.src]

    def rhs(self, phi: np.ndarray, rows: int) -> np.ndarray:
        """The right-hand side on the first ``rows`` vertices; the ball past them stays at the lock.

        A sine table keeps ``sin psi`` and ``cos psi`` of the whole ball,
        rewrites them on the first ``rows`` entries, and puts the entries
        past ``rows`` back at the lock when ``rows`` changes.  ``psi`` goes
        into a kept buffer, and the result is built in the array of the
        first product, so a call allocates only the two products.  A
        ``GenericCoupling`` calls ``h`` on the pairs whose ``v`` lies in the
        first ``rows`` (``src`` is sorted).
        """
        offset = self.offset[:rows]
        if isinstance(self.coup, SeparableCoupling):
            s, c = self.sin, self.cos
            if rows != self.rows:  # a new window
                s[rows:], c[rows:] = np.sin(self.lag[rows:]), np.cos(self.lag[rows:])
                self.rows = rows
            psi = np.add(phi[:rows], self.lag[:rows], out=self.psi[:rows])
            sr, cr = np.sin(psi, out=s[:rows]), np.cos(psi, out=c[:rows])
            # offset + cr * (K s + s_ext) - sr * (K c + c_ext), in the products' own arrays
            out, inn = self.k_prefix(s, rows), self.k_prefix(c, rows)
            out += self.s_ext[:rows]
            out *= cr
            out += offset
            inn += self.c_ext[:rows]
            inn *= sr
            out -= inn
            return out
        m = int(np.searchsorted(self.src, rows))
        x = self._differences(phi)[:m].tolist()
        vals = np.array([self.coup.h(xi, v, u) for xi, (v, u) in zip(x, self.pairs)])
        return offset + np.bincount(self.src[:m], weights=vals, minlength=rows)

    def slopes(self, phi: np.ndarray) -> np.ndarray:
        """``H'`` of every pair at the deviation ``phi``.

        ``K_vu cos(psi_u - psi_v)`` for the sine coupling, ``dh`` as
        ``linearize`` reads it for a ``GenericCoupling``.
        """
        x = self._differences(phi)
        if isinstance(self.coup, SeparableCoupling):
            return self.kw * np.cos(x)
        return np.array([self.coup.dh(xi, v, u) for xi, (v, u) in zip(x.tolist(), self.pairs)])


@_one_blas_thread
def simulate_nonlinear(sys: OscillatorSystem, cand: PhaseLockCandidate,
                       perturbation, cfg: SimConfig):
    """Integrate the full lattice near a locked state; return the deviation.

    Works in the co-rotating frame, so the integrated variable is directly
    the deviation from the locked solution.  Exterior oscillators stay
    frozen at the locked motion, consistent with deviations that decay.  The
    ball, its truncation bound and the retries are the full linear flow's
    (``semigroup._truncated_flow``), run on balls of ``_walk_graph``.  A
    perturbation of l1 norm above ``_MAX_PERTURBATION_L1`` (1.0) is rejected
    with ``ValueError``, and any deviation exceeding ``_BLOWUP_THRESHOLD``
    (pi/2) in sup norm aborts with ``BlowUpError``.  One ``_EdgeTable`` is
    built per attempt, on the enlarged ball, and integrated once.

    ``integrate`` sums the bound from two terms at each accepted state.
    Since ``sin`` is 1-Lipschitz, the flux into the cut is at most ``|K|
    |phi|`` over the pairs from the cut to the rest of the ball.  ``mu`` is
    0 while a certificate holds: every sine weight is nonnegative and the
    largest lag gap over the table's pairs plus ``2 (sup|phi| + bound)`` is
    at most pi/2, so every slope between this run and one on the cut alone
    is nonnegative and the cut's Jacobian is a Metzler matrix whose rows sum
    to at most 0.
    Otherwise, and always for a ``GenericCoupling``, ``mu`` is the infinity
    log-norm of the cut's Jacobian from the slopes at the accepted state
    (``_EdgeTable.slopes``), at least 0, and a ``GenericCoupling`` weighs
    the flux by the absolute slopes.
    """
    # left to right: from Python 3.12 on, sum() of floats is compensated
    l1 = reduce(add, map(abs, _nonzero(perturbation).values()), 0.0)
    if not l1 <= _MAX_PERTURBATION_L1:  # NaN fails too
        raise ValueError(f"perturbation exceeds the l1 budget {_MAX_PERTURBATION_L1}")
    sine = isinstance(sys.coupling, SeparableCoupling)

    def run(b, n1, y0, times, ends):
        table = _EdgeTable(sys, cand, b)
        # the pairs from the cut to the rest of the ball, and their ends
        across = (table.src < n1) & (table.dst >= n1) & (table.dst < len(b))
        src, dst = table.src[across], table.dst[across]
        kw = table.kw[across] if sine else None
        # the certificate's part fixed per table: no negative weight, and the largest lag gap
        gap = float(np.max(np.abs(table.dlag), initial=0.0)) \
            if sine and not np.any(table.kw < 0.0) else math.inf

        def flux(t, phi, bound):
            top = float(np.max(np.abs(phi)))
            if top > _BLOWUP_THRESHOLD:
                raise BlowUpError(f"deviation {top:.3f} at t={t:.3g} left the perturbative regime")
            if gap + 2.0 * (top + bound) <= math.pi / 2:
                mu, s = 0.0, table.kw
            else:
                s = table.slopes(phi)  # per-vertex sums below; the cut is the first n1
                rows = np.bincount(table.src, np.where(table.dst < n1, np.abs(s) - s, -s))[:n1]
                mu = float(np.max(rows, initial=0.0))
            into = np.bincount(src, np.abs((kw if sine else s[across]) * phi[dst]))
            return float(np.max(into, initial=0.0)), mu

        return integrate(lambda t, y, rows: table.rhs(y, rows), y0, times, rtol=cfg.rtol,
                         atol=cfg.atol, flux=flux, shell_ends=ends)

    return _truncated_flow(_walk_graph(sys), perturbation, cfg, run)
