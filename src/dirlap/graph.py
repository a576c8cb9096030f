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

``GraphGenerator.edges(v)`` is the one checked read of a single vertex: every
walk, snapshot and helper in the package reads through it, so the self-loop
filter and the degree cap apply everywhere.  A generator may also carry a
``batch_adjacency`` callback that reads a whole array of integer vertices at
once; ``geometry._walk`` uses it for large shells and applies the same
filter and cap to its rows.  ``dataclasses.replace(gen, adjacency=...)``
keeps ``batch_adjacency``, so replace it too unless both callbacks still
compute the same function.  A snapshot row lists a vertex's neighbours in
ascending (lexicographic) order whichever callback read it, so results never
depend on the iteration order of the callback's maps.  Every operator
derived here works with finitely supported vectors represented as plain
``dict`` mappings from vertex to value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceededError, DegreeCapError

Vertex = tuple
AdjacencyFn = Callable[[Vertex], tuple[Mapping[Vertex, float], Mapping[Vertex, float]]]
BatchAdjacencyFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Default bound on the out-edges, and apart on the in-edges, of a single vertex.
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


#: Bits per axis of the int64 key (>= 0) of a vertex with at most 3 integer axes,
#: each with |c| < 2**20; different axis counts give different keys.  The batch
#: walk reads only vertices with a key.
_KEY_BITS = 21
_KEY_LIMIT = 1 << (_KEY_BITS - 1)


def _keys(coords: np.ndarray) -> np.ndarray:
    """Int64 key of each coordinate row, -1 where a row does not fit; keys sort as rows do."""
    fits = ((coords > -_KEY_LIMIT) & (coords < _KEY_LIMIT)).all(axis=-1) & (coords.shape[-1] <= 3)
    key = np.zeros(coords.shape[:-1], dtype=np.int64)
    for j in range(coords.shape[-1]):
        key = (key << _KEY_BITS) | (coords[..., j] + _KEY_LIMIT)
    return np.where(fits, key, -1)


def _coords(vertices: list) -> np.ndarray | None:
    """The vertices as a ``(k, d)`` int64 array, or None unless numpy makes them integers."""
    try:
        coords = np.array(vertices)
    except (TypeError, ValueError, OverflowError):
        return None
    if coords.dtype.kind not in "biu" or coords.dtype == np.uint64:
        return None
    return coords.astype(np.int64).reshape(len(vertices), -1)


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
        Maximum number of out-edges a single vertex may report, and apart
        from them of in-edges: each direction is capped on its own.
    batch_adjacency:
        Optional vectorized form of ``adjacency`` for vertices that are tuples
        of integers.  It maps a ``(k, d)`` int64 array of vertices to
        neighbour coordinates of shape ``(k, deg, d)`` and to ``w_out`` and
        ``w_in`` of shape ``(k, deg)``, holding ``w(v, v')`` and ``w(v', v)``.
        Each row's slots are in ascending lexicographic neighbour order, and a
        slot whose two weights are both zero is absent (its coordinates are
        ignored), so rows of different length pad to one ``deg``.  It must
        compute exactly the weights ``adjacency`` reports:
        ``validate_generator`` compares the two.  ``dataclasses.replace(gen,
        adjacency=...)`` keeps this field, so replace it too unless both
        callbacks still compute the same function.
    """

    adjacency: AdjacencyFn
    root: Vertex
    name: str = "custom"
    degree_cap: int = DEFAULT_DEGREE_CAP
    batch_adjacency: BatchAdjacencyFn | None = None

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


def apply_laplacian(x: Mapping[Vertex, float], gen: GraphGenerator,
                    part: str = "full") -> dict[Vertex, float]:
    """Apply the graph Laplacian of the selected weight part to a vector.

    ``[Lx]_v = sum_{v'} w(v, v') (x_{v'} - x_v)`` with ``w`` replaced by its
    symmetric or skew part when requested.  The result is evaluated on the
    support of ``x`` enlarged by one adjacency hop, outside of which it
    vanishes, so finitely supported input yields finitely supported output.
    Each vertex is read once (``_local_rows``), and each sum runs in
    ascending neighbour order.
    """
    if part not in WEIGHT_PARTS:
        raise ValueError(f"unknown part {part!r}")
    data = {v: val for v, val in x.items() if val != 0.0}
    return _laplacian(data, _local_rows(gen, data), WEIGHT_PARTS[part])


def _local_rows(gen: GraphGenerator, support) -> dict:
    """``v -> [(neighbour, w_out, w_in), ...]`` for the support, then its new neighbours.

    Each is read once, by the walk's vertex step, so rows are in ascending
    neighbour order.
    """
    from .geometry import _scalar_step

    rows, todo = {}, list(support)
    for _ in range(2):
        rows.update(zip(todo, _scalar_step(gen.edges, todo, set(), None).entries()))
        todo = list(dict.fromkeys(u for v in todo for u, _, _ in rows[v] if u not in rows))
    return rows


def _laplacian(data: Mapping, rows: dict, weight) -> dict[Vertex, float]:
    """``apply_laplacian`` of the vector ``data`` on the rows of ``_local_rows``."""
    result = {}
    for v, row in rows.items():
        xv = data.get(v, 0.0)
        acc = 0.0
        for u, wf, wb in row:
            w = weight(wf, wb)
            if w != 0.0:
                acc += w * (data.get(u, 0.0) - xv)
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
    """Walk a ball around the root and check the generator contract.

    Checks, per sampled vertex: out/in weight reports agree between the two
    endpoints of every edge, no self-loop and no zero weight is reported,
    degree stays under the cap, the symmetric weights are nonnegative (a pair
    with both directed edges present must average to a strictly positive
    weight), and every vertex keeps at least one symmetric neighbour.
    Weights agree when they are within ``WEIGHT_RTOL`` of each other.

    The sample is shells 0..``sample_radius`` of ``geometry._walk`` over the
    raw callback read once per vertex; a vertex whose callback failed or is
    over the cap is walked without edges.  Each defect is reported once: a
    failing callback when first called, a pair on the raw maps of both
    endpoints from the endpoint visited first.  For a generator with
    ``batch_adjacency``, every sampled vertex that the batch walk would read
    is read in one batch call, and a row that differs from the checked
    single-vertex read is a ``batch-mismatch``.  Violations are returned, not
    raised; only a sample of more than ``_VALIDATION_BUDGET`` (200,000)
    vertices raises, by the walk's budget rule.
    """
    from .geometry import _walk

    if sample_radius < 1:
        raise ValueError("sample_radius must be >= 1")
    violations: list[Violation] = []
    notes: list[str] = []
    cap = gen.degree_cap
    raw: dict[Vertex, tuple | None] = {}  # the callback's maps, None once its failure is reported
    checked = set()  # unordered pairs, as (lower, higher)
    readable = []  # (v, row) of the vertices read within the cap

    def read(v):
        if v not in raw:
            try:
                raw[v] = gen.adjacency(v)
            except Exception as exc:  # generator itself failed
                raw[v] = None
                violations.append(Violation("adjacency-error", (v,), str(exc)))
        return raw[v]

    def tolerant(v):
        got = read(v)
        if got is None or len(got[0]) > cap or len(got[1]) > cap:
            return {}, {}
        return got

    walker = dataclasses.replace(gen, adjacency=tolerant, batch_adjacency=None)
    sampled = 0
    for _, shell, rows in _walk(walker, gen.root, sample_radius, _VALIDATION_BUDGET):
        sampled += len(shell)
        for v, row in zip(shell, rows.entries()):
            if raw[v] is None:
                continue
            out, inn = raw[v]
            if v in out or v in inn:
                violations.append(Violation(
                    "self-loop", (v,), "self-loop reported; edges join distinct vertices"))
            if len(out) > cap or len(inn) > cap:
                violations.append(Violation(
                    "degree-cap", (v,), f"{max(len(out), len(inn))} edges exceeds cap {cap}"))
                continue
            readable.append((v, row))
            for u, w in list(out.items()) + list(inn.items()):
                if w == 0.0:
                    violations.append(Violation("zero-weight", (v, u),
                                                "zero weight reported; absent edges must be omitted"))
            for u, wf, wb in row:
                ws = (wf + wb) / 2.0
                if ws < 0.0 or (wf * wb != 0.0 and ws <= 0.0):
                    violations.append(Violation(
                        "negative-symmetric", (v, u),
                        f"w(v,v')={wf}, w(v',v)={wb} average to {ws}"))
                elif wf < 0.0 or wb < 0.0:
                    notes.append(
                        f"negative directed weight on ({v}, {u}) with positive symmetric part")
            if all((wf + wb) / 2.0 <= 0.0 for _, wf, wb in row):
                violations.append(Violation(
                    "isolated-vertex", (v,), "no strictly positive symmetric neighbour"))
            # Cross-check both endpoints of every incident edge.
            for u, wf, wb in row:
                pair = (v, u) if v < u else (u, v)
                if pair in checked:
                    continue
                checked.add(pair)
                if read(u) is None:
                    continue
                u_out, u_inn = raw[u]
                if not _weights_agree(wf, u_inn.get(v, 0.0)):
                    violations.append(Violation(
                        "weight-consistency", (v, u),
                        f"out-edge weight {wf} vs in-edge report {u_inn.get(v, 0.0)}"))
                if not _weights_agree(wb, u_out.get(v, 0.0)):
                    violations.append(Violation(
                        "weight-consistency", (u, v),
                        f"in-edge report {wb} vs out-edge weight {u_out.get(v, 0.0)}"))

    if gen.batch_adjacency is not None:
        violations += _batch_mismatches(gen, readable)
    # The walk reaches exactly the connected component of the root within the
    # sampled radius, so connectivity of the sample holds by construction;
    # disconnection can only manifest as isolated vertices above.
    return ValidationReport(vertices_checked=sampled, violations=violations, notes=notes)


def _batch_mismatches(gen: GraphGenerator, reads: list) -> list[Violation]:
    """Compare one ``batch_adjacency`` call with the vertex step's rows ``(v, row)``.

    Only vertices that the batch walk would read take part: those with a
    key (``_keys``).  A row matches when it lists the same ``(neighbour,
    w_out, w_in)`` entries, in the same order, once self-loops and absent
    slots are dropped, as the walk drops them.
    """
    coords = _coords([v for v, _ in reads])
    keep = [] if coords is None else np.flatnonzero(_keys(coords) >= 0)
    if not len(keep):
        return []
    coords = coords[keep]
    try:
        nc, wo, wi = gen.batch_adjacency(coords)
        nc, wo, wi = np.asarray(nc, np.int64), np.asarray(wo, float), np.asarray(wi, float)
        if wo.shape != wi.shape or wo.shape[:1] != coords.shape[:1] \
                or nc.shape != wo.shape + coords.shape[1:]:
            raise ValueError(f"shapes {nc.shape}, {wo.shape}, {wi.shape} "
                             f"for {coords.shape[0]} vertices")
    except Exception as exc:
        return [Violation("batch-mismatch", (), f"batch_adjacency failed: {exc}")]
    present = ((wo != 0.0) | (wi != 0.0)) & ~(nc == coords[:, None, :]).all(axis=2)
    found = []
    for i, k in enumerate(keep):
        v, expect = reads[k]
        row = present[i]
        got = list(zip(map(tuple, nc[i][row].tolist()), wo[i][row].tolist(),
                       wi[i][row].tolist()))
        if got != expect:
            found.append(Violation("batch-mismatch", (v,),
                                   f"batch row {got} vs adjacency row {expect}"))
    return found
