"""Lazy directed weighted graphs and the symmetric/skew split of their weights.

A graph on a countably infinite vertex set is described by a pure adjacency
callback rather than stored.  Vertices are fixed-length tuples of integers,
which makes them hashable, totally ordered, and cheap to serialize.  For a
vertex ``v`` the callback returns both directions of incidence::

    adjacency(v) -> (out, inn)

where ``out`` maps ``v' -> w(v, v')`` for the edges leaving ``v`` and ``inn``
maps ``v'' -> w(v'', v)`` for the edges arriving at ``v``.  Absent edges carry
weight zero and must not be reported.  Both directions are required because
the symmetric weight ``(w(v,v') + w(v',v)) / 2`` needs the reverse weight
without a global reverse index.

``GraphGenerator.edges(v)`` is the one checked read of a graph: every walk,
snapshot and helper in the package reads through it, so the self-loop filter
and the degree cap apply everywhere.  Every operator derived here works with
finitely supported vectors represented as plain ``dict`` mappings from vertex
to value.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceededError, DegreeCapError

Vertex = tuple
AdjacencyFn = Callable[[Vertex], tuple[Mapping[Vertex, float], Mapping[Vertex, float]]]

#: Default bound on |out-edges| + |in-edges| reported for a single vertex.
#: Bounded degree is assumed by all the geometric estimators, so a runaway
#: generator should fail loudly instead of stalling a BFS.
DEFAULT_DEGREE_CAP = 64

#: Relative tolerance within which the two endpoints of an edge must report
#: the same directed weights.
WEIGHT_RTOL = 1e-12

#: Weight of each Laplacian part as a function of the directed pair
#: ``(w(v, v'), w(v', v))``; works on floats and on numpy arrays alike.
WEIGHT_PARTS = {
    "full": lambda wf, wb: wf,
    "sym": lambda wf, wb: (wf + wb) / 2.0,
    "skew": lambda wf, wb: (wf - wb) / 2.0,
}


def _weights_agree(a, b):
    """Whether two reports of one weight agree to ``WEIGHT_RTOL``; floats or arrays."""
    return abs(a - b) <= WEIGHT_RTOL * np.maximum(abs(a), abs(b))


@dataclass(frozen=True)
class GraphGenerator:
    """Lazy description of an infinite directed weighted graph.

    Parameters
    ----------
    adjacency:
        Pure function returning ``(out, inn)`` weight maps for a vertex.
        It must be cheap, deterministic, and safe to call from any thread.
    root:
        Enumeration origin used by ball construction and shell sums.
    name:
        Label used in reports.
    degree_cap:
        Maximum number of distinct neighbours a single vertex may report.
    """

    adjacency: AdjacencyFn
    root: Vertex
    name: str = "custom"
    degree_cap: int = DEFAULT_DEGREE_CAP

    def edges(self, v: Vertex) -> tuple[Mapping, Mapping]:
        """Checked read: the ``(out, inn)`` weight maps for ``v``, self-loops removed.

        The callback's own maps are passed through, copied only to drop a
        reported self-loop; weights are used as reported (the contract types
        them as ``float``).  Raises ``DegreeCapError`` when either map has more
        than ``degree_cap`` entries.
        """
        out, inn = self.adjacency(v)
        if v in out or v in inn:
            out = {u: w for u, w in out.items() if u != v}
            inn = {u: w for u, w in inn.items() if u != v}
        if len(out) > self.degree_cap or len(inn) > self.degree_cap:
            raise DegreeCapError(
                f"vertex {v} reports {max(len(out), len(inn))} edges, "
                f"cap is {self.degree_cap}")
        return out, inn


def generator_from_edges(edges: Mapping[tuple[Vertex, Vertex], float], root: Vertex,
                         name: str = "finite") -> GraphGenerator:
    """Build a generator from an explicit finite edge map ``{(v, v'): w}``.

    Intended for tests and small custom graphs.  Zero weights and self-loops
    are rejected up front since they violate the edge convention.
    """
    out: dict[Vertex, dict[Vertex, float]] = {}
    inn: dict[Vertex, dict[Vertex, float]] = {}
    for (a, b), w in edges.items():
        if a == b:
            raise ValueError(f"self-loop on {a} not allowed")
        if w == 0:
            raise ValueError(f"edge ({a}, {b}) has zero weight; omit it instead")
        out.setdefault(a, {})[b] = float(w)
        inn.setdefault(b, {})[a] = float(w)

    def adjacency(v: Vertex):
        return dict(out.get(v, {})), dict(inn.get(v, {}))

    return GraphGenerator(adjacency=adjacency, root=root, name=name)


def _read_once(gen: GraphGenerator) -> GraphGenerator:
    """``gen`` with each vertex's adjacency kept after its first read, for one helper call."""
    return dataclasses.replace(gen, adjacency=functools.cache(gen.adjacency))


def decompose_edge(v: Vertex, v2: Vertex, gen: GraphGenerator) -> tuple[float, float]:
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


def apply_laplacian(x: Mapping[Vertex, float], gen: GraphGenerator,
                    part: str = "full") -> dict[Vertex, float]:
    """Apply the graph Laplacian of the selected weight part to a vector.

    ``[Lx]_v = sum_{v'} w(v, v') (x_{v'} - x_v)`` with ``w`` replaced by its
    symmetric or skew part when requested.  The result is evaluated on the
    support of ``x`` enlarged by one adjacency hop, outside of which it
    vanishes, so finitely supported input yields finitely supported output.
    Each vertex is read once.
    """
    if part not in WEIGHT_PARTS:
        raise ValueError(f"unknown part {part!r}")
    weight = WEIGHT_PARTS[part]
    edges = _read_once(gen).edges
    support = [v for v, val in x.items() if val != 0.0]
    targets = set(support)
    for v in support:
        out, inn = edges(v)
        targets.update(set(out) | set(inn))
    result: dict[Vertex, float] = {}
    for v in targets:
        out, inn = edges(v)
        xv = x.get(v, 0.0)
        acc = 0.0
        for u in set(out) | set(inn):
            w = weight(out.get(u, 0.0), inn.get(u, 0.0))
            if w != 0.0:
                acc += w * (x.get(u, 0.0) - xv)
        result[v] = acc
    return result


@dataclass(frozen=True)
class Violation:
    kind: str
    vertices: tuple
    detail: str


@dataclass
class ValidationReport:
    """Outcome of sampling a generator for contract violations.

    ``violations`` are hard failures of the graph contract; ``notes`` flag
    legal but unusual structure (for instance a negative directed weight
    whose symmetric average is still positive).  ``ok`` is set from
    ``violations`` on construction.
    """

    vertices_checked: int
    violations: list[Violation]
    notes: list[str]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = not self.violations


# validate_generator's BFS raises past this many vertices; read at call time.
_VALIDATION_BUDGET = 200_000


def validate_generator(gen: GraphGenerator, sample_radius: int) -> ValidationReport:
    """Enumerate a ball around the root and check the generator contract.

    Checks, per sampled vertex: out/in weight reports agree between the two
    endpoints of every edge, no self-loop and no zero weight is reported,
    degree stays under the cap, the symmetric weights are nonnegative (a pair
    with both directed edges present must average to a strictly positive
    weight), and every vertex keeps at least one symmetric neighbour.
    Weights agree when they are within ``WEIGHT_RTOL`` of each other.
    Violations are returned, not raised; only a sample of more than
    ``_VALIDATION_BUDGET`` (200,000) vertices raises.
    """
    if sample_radius < 1:
        raise ValueError("sample_radius must be >= 1")
    violations: list[Violation] = []
    notes: list[str] = []
    cap = gen.degree_cap
    # BFS over the symmetric skeleton, tolerating per-vertex defects.
    dist = {gen.root: 0}
    order = [gen.root]
    head = 0
    adj_cache: dict[Vertex, tuple[dict, dict]] = {}

    def edges_of(v):
        if v not in adj_cache:
            adj_cache[v] = gen.adjacency(v)
        return adj_cache[v]

    while head < len(order):
        v = order[head]
        head += 1
        try:
            out, inn = edges_of(v)
        except Exception as exc:  # generator itself failed
            violations.append(Violation("adjacency-error", (v,), str(exc)))
            continue
        if v in out or v in inn:
            violations.append(Violation(
                "self-loop", (v,), "self-loop reported; edges join distinct vertices"))
        if len(out) > cap or len(inn) > cap:
            violations.append(Violation(
                "degree-cap", (v,), f"{max(len(out), len(inn))} edges exceeds cap {cap}"))
            continue
        for u, w in list(out.items()) + list(inn.items()):
            if w == 0.0:
                violations.append(Violation(
                    "zero-weight", (v, u), "zero weight reported; absent edges must be omitted"))
        sym_nbrs = []
        for u in set(out) | set(inn):
            if u == v:
                continue
            wf, wb = out.get(u, 0.0), inn.get(u, 0.0)
            ws = (wf + wb) / 2.0
            if ws < 0.0 or (wf * wb != 0.0 and ws <= 0.0):
                violations.append(Violation(
                    "negative-symmetric", (v, u),
                    f"w(v,v')={wf}, w(v',v)={wb} average to {ws}"))
            elif wf < 0.0 or wb < 0.0:
                notes.append(
                    f"negative directed weight on ({v}, {u}) with positive symmetric part")
            if ws > 0.0:
                sym_nbrs.append(u)
        if not sym_nbrs:
            violations.append(Violation(
                "isolated-vertex", (v,), "no strictly positive symmetric neighbour"))
        # Cross-check both endpoints of every incident edge.
        for u in set(out) | set(inn):
            if u == v:
                continue
            try:
                u_out, u_inn = edges_of(u)
            except Exception as exc:
                violations.append(Violation("adjacency-error", (u,), str(exc)))
                continue
            wf = out.get(u, 0.0)
            if not _weights_agree(wf, u_inn.get(v, 0.0)):
                violations.append(Violation(
                    "weight-consistency", (v, u),
                    f"out-edge weight {wf} vs in-edge report {u_inn.get(v, 0.0)}"))
            wb = inn.get(u, 0.0)
            if not _weights_agree(wb, u_out.get(v, 0.0)):
                violations.append(Violation(
                    "weight-consistency", (u, v),
                    f"in-edge report {wb} vs out-edge weight {u_out.get(v, 0.0)}"))
        if dist[v] < sample_radius:
            for u in sym_nbrs:
                if u not in dist:
                    if len(dist) >= _VALIDATION_BUDGET:
                        raise BudgetExceededError(
                            f"validation ball exceeded {_VALIDATION_BUDGET} vertices", len(dist))
                    dist[u] = dist[v] + 1
                    order.append(u)

    # BFS reaches exactly the connected component of the root within the
    # sampled radius, so connectivity of the sample holds by construction;
    # disconnection can only manifest as isolated vertices above.
    return ValidationReport(vertices_checked=len(order), violations=violations, notes=notes)
