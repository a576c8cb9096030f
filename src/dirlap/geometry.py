"""Metric-measure structure of the induced symmetric graph.

Distances, balls, and volumes all live on the symmetric skeleton: the
undirected graph whose edges are the pairs with strictly positive symmetric
weight.  ``ball``, ``shells`` and the skew-mass scan all walk it with one
breadth-first walk, ``_walk``, which owns the shell rule and the budget
rule.  Sorted adjacency makes the vertex order deterministic and gives the
nesting property that the vertex list of ``ball(v, r)`` is a prefix of the
vertex list of ``ball(v, r+1)``.

A ball is also a snapshot of the directed weights on it.  Enumeration reads
each vertex's ``(out, inn)`` maps exactly once, derives the vertex measure
from that read, and keeps every reported weight in CSR arrays: one row per
ball vertex, one entry per neighbour, holding the neighbour's ball index or
-1 when it lies outside.  Laplacian parts are assembled from these arrays
alone, and ``Ball.prefix(r)`` cuts the radius-``r`` ball out of a larger one
without further adjacency calls, as ``ball`` does when handed a snapshot.
Truncated simulations therefore enumerate once per attempt: the enlarged ball
of their truncation check, with the primary ball taken as its BFS prefix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, InconsistentAdjacencyError
from .graph import GraphGenerator, Vertex, _weights_agree

DEFAULT_BALL_BUDGET = 1_000_000


@dataclass
class Ball:
    """A finite ball of the symmetric skeleton: distances, measures, weights.

    ``vertices[i]`` has index ``i`` in every per-vertex array attached to the
    ball; ``index`` inverts that.  Row ``i`` of the weight snapshot spans
    entries ``indptr[i]:indptr[i+1]``, one per neighbour ``v'`` of
    ``v = vertices[i]`` in either direction: ``nbr`` holds the ball index of
    ``v'`` (-1 outside the ball), ``w_out`` holds ``w(v, v')`` and ``w_in``
    holds ``w(v', v)``; ``source`` is the generator they were read from.
    Immutable after construction by convention; a prefix shares all of these.
    """

    center: Vertex
    radius: int
    vertices: list
    index: dict
    distances: np.ndarray
    measures: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    w_out: np.ndarray
    w_in: np.ndarray
    source: GraphGenerator

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.index

    def volume(self) -> float:
        return float(self.measures.sum())

    def entry_rows(self) -> np.ndarray:
        """Row, i.e. ball index of the reporting vertex, of every snapshot entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def sym_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordered in-ball index pairs ``(rows, cols)`` with positive symmetric weight."""
        keep = (self.nbr >= 0) & ((self.w_out + self.w_in) / 2.0 > 0.0)
        return self.entry_rows()[keep], self.nbr[keep]

    def prefix(self, r: int) -> "Ball":
        """The radius-``r`` ball around the same center, cut from this one.

        Equal to ``ball(gen, center, r)`` in vertices, distances, measures and
        weights, by the BFS prefix property: neighbours beyond the prefix
        become outside entries.
        """
        if not 0 <= r <= self.radius:
            raise ValueError(f"prefix radius {r} outside [0, {self.radius}]")
        if r == self.radius:
            return self
        n = int(np.searchsorted(self.distances, r, side="right"))
        m = int(self.indptr[n])
        vertices = self.vertices[:n]
        nbr = self.nbr[:m]
        return Ball(center=self.center, radius=r, vertices=vertices,
                    index=dict(zip(vertices, range(n))),
                    distances=self.distances[:n], measures=self.measures[:n],
                    indptr=self.indptr[:n + 1], nbr=np.where(nbr < n, nbr, -1),
                    w_out=self.w_out[:m], w_in=self.w_in[:m], source=self.source)


def _check_consistency(b: Ball) -> None:
    """Raise unless both endpoints of every in-ball pair report the same weights.

    Row ``i``'s entry for ``j`` must carry the weights of row ``j``'s entry
    for ``i`` with the two directions swapped; a missing partner entry
    reports zero both ways.  Weights agree by ``graph._weights_agree``, the
    rule ``validate_generator`` applies.
    """
    inside = b.nbr >= 0
    rows, cols = b.entry_rows()[inside], b.nbr[inside]
    if not rows.size:
        return
    w_out, w_in = b.w_out[inside], b.w_in[inside]
    n = len(b)
    keys = rows * n + cols
    wanted = cols * n + rows
    order = np.argsort(keys)
    partner = order[np.minimum(np.searchsorted(keys[order], wanted), keys.size - 1)]
    found = keys[partner] == wanted
    p_out = np.where(found, w_out[partner], 0.0)
    p_in = np.where(found, w_in[partner], 0.0)
    bad = np.flatnonzero(~(_weights_agree(w_out, p_in) & _weights_agree(w_in, p_out)))
    if bad.size:
        k = bad[0]
        v, u = b.vertices[rows[k]], b.vertices[cols[k]]
        raise InconsistentAdjacencyError(
            f"adjacency callbacks disagree on the pair ({v}, {u}): {v} reports "
            f"w(v,u)={w_out[k]}, w(u,v)={w_in[k]}; {u} reports "
            f"w(v,u)={p_in[k]}, w(u,v)={p_out[k]}", (v, u))


def ball(gen, center: Vertex, r: int, budget: int = DEFAULT_BALL_BUDGET) -> Ball:
    """Enumerate the radius-``r`` ball of the symmetric skeleton around ``center``.

    The ball is shells 0..r of ``_walk``, which reads every ball vertex once
    and raises ``BudgetExceededError`` under its budget rule.  Raises
    ``InconsistentAdjacencyError`` when two ball vertices report different
    weights for the edges between them.  ``gen`` may be a ``Ball``: the balls
    it contains are cut from it as prefixes, and any other is enumerated
    through the generator it was read from.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if isinstance(gen, Ball):
        if center == gen.center and r <= gen.radius:
            return gen.prefix(r)
        gen = gen.source
    order = []
    index = {}
    distances = []
    indptr = [0]
    nbr = []  # one index array per shell, resolved once the next shell is found
    keys = []  # neighbour keys of the shell read last
    late = []  # (entry, key) of neighbours outside the ball when resolved
    w_out = []
    w_in = []
    zeros = repeat(0.0)

    def resolve():
        # every skeleton neighbour of the shell read last is indexed by now;
        # a neighbour of no symmetric weight may still be found later
        got = np.fromiter(map(index.get, keys, repeat(-1)), np.int64, len(keys))
        start = len(w_out) - len(keys)
        late.extend((start + int(i), keys[i]) for i in np.flatnonzero(got < 0))
        nbr.append(got)
        keys.clear()

    for d, shell, reads in _walk(gen, center, r, budget):
        index.update(zip(shell, range(len(order), len(order) + len(shell))))
        order += shell
        distances += repeat(d, len(shell))
        resolve()
        for out, inn, nb in reads:
            keys += nb
            w_out += map(out.get, nb, zeros)
            w_in += map(inn.get, nb, zeros)
            indptr.append(len(w_out))
    resolve()
    nbr = np.concatenate(nbr)
    for k, key in late:
        nbr[k] = index.get(key, -1)

    indptr = np.array(indptr, dtype=np.int64)
    w_out, w_in = np.array(w_out, dtype=float), np.array(w_in, dtype=float)
    ws = (w_out + w_in) / 2.0
    # bincount adds in entry order, i.e. in the order the neighbours were read;
    # 0.0 + keeps measures float when there are no entries (bincount gives int)
    measures = 0.0 + np.bincount(np.repeat(np.arange(len(order)), np.diff(indptr)),
                                 weights=np.where(ws > 0.0, ws, 0.0), minlength=len(order))
    b = Ball(center=center, radius=r, vertices=order, index=index,
             distances=np.array(distances, dtype=np.int64), measures=measures,
             indptr=indptr, nbr=nbr, w_out=w_out, w_in=w_in, source=gen)
    _check_consistency(b)
    return b


def volume(gen, center: Vertex, r: int, budget: int = DEFAULT_BALL_BUDGET) -> float:
    """Total measure of the ball: sum of vertex measures over it."""
    return ball(gen, center, r, budget=budget).volume()


def distance(gen, a: Vertex, b: Vertex, cutoff: int,
             budget: int = DEFAULT_BALL_BUDGET) -> int | None:
    """Graph distance on the symmetric skeleton, or None beyond ``cutoff``."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    for d, shell in shells(gen, a, cutoff, budget=budget):
        if b in shell:
            return d
    return None


def shells(gen, root: Vertex, max_shells: int,
           budget: int = DEFAULT_BALL_BUDGET) -> Iterator[tuple[int, list]]:
    """Yield ``(k, shell vertices)`` of ``_walk`` for k = 0..max_shells.

    Shell k is ``ball(root, k) minus ball(root, k-1)``.  Shell k is read only
    when the caller asks for shell k+1, so shell ``max_shells`` is yielded
    but never read.  Stops early when the root's component is exhausted.
    """
    for k, shell, _ in _walk(gen, root, max_shells, budget):
        yield k, shell


def _walk(gen: GraphGenerator, root: Vertex, max_shells: int, budget: int):
    """Breadth-first walk of the symmetric skeleton: ``(k, shell, reads)``.

    Shell k+1 is shell k's new neighbours of positive symmetric weight, in
    shell order with each vertex's new neighbours sorted; the first find
    wins.  Each shell is yielded before it is read.  ``reads`` reads it one
    vertex at a time, one ``gen.edges`` call each, yielding ``(out, inn,
    set(out) | set(inn))``; what the caller leaves unread is read when it
    asks for the next shell.  Shell ``max_shells`` is not expanded, and is
    read only as far as the caller reads it.  The walk stops at an empty
    shell.  Budget rule: before yielding a shell that takes the number of
    vertices found past ``budget``, it raises ``BudgetExceededError`` with
    that number as ``count``.

    ``validate_generator`` keeps its own walk because it records defective
    callbacks and goes on; ``verify_phase_lock`` and
    ``check_coupling_gradient`` walk a coupling's support, not the skeleton.
    """
    seen = {root}
    shell = [root]
    for k in range(max_shells + 1):
        if len(seen) > budget:
            raise BudgetExceededError(
                f"walk from {root} found {len(seen)} vertices, budget {budget}", len(seen))
        nxt = []
        reads = _read_shell(gen.edges, shell, seen, nxt if k < max_shells else None)
        yield k, shell, reads
        if k == max_shells:
            return
        deque(reads, maxlen=0)
        if not nxt:
            return
        shell = nxt


def _read_shell(edges, shell: list, seen: set, nxt: list | None):
    for v in shell:
        out, inn = edges(v)
        nb = set(out) | set(inn)
        if nxt is not None:
            new = []
            for u in nb - seen:  # the C-level difference first: fewer weights to read
                if (out.get(u, 0.0) + inn.get(u, 0.0)) / 2.0 > 0.0:
                    new.append(u)
            if new:
                new.sort()
                seen.update(new)
                nxt += new
        yield out, inn, nb
