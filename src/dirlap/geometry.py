"""Metric-measure structure of the induced symmetric graph.

Distances, balls, and volumes all live on the symmetric skeleton: the
undirected graph whose edges are the pairs with strictly positive symmetric
weight.  ``ball``, ``shells``, the skew-mass scan and
``graph.validate_generator`` all walk it with one breadth-first walk,
``_walk``, which owns the shell rule and the budget rule and yields each
shell with its rows, read once.  The walk keeps the vertices it has found
in a set until its first batch read, then by int64 key in a few sorted
arrays (``_Found``), and a shell that a batch read found is its coordinate
array, turned into tuples (``_vertices``) by ``shells`` but not by ``ball``
or the skew-mass scan.  Sorted adjacency
makes the vertex order deterministic and gives the nesting property that the
vertex list of ``ball(v, r)`` is a prefix of the vertex list of
``ball(v, r+1)``.  The walk reads a large shell in one ``batch_adjacency``
call when the generator has one, and a small shell vertex by vertex; both
steps give the same shells and the same rows.

A ball is also a snapshot of the directed weights on it.  Enumeration reads
each vertex's weights exactly once, derives the vertex measure from that
read, and keeps every reported weight in CSR arrays: one row per ball
vertex, one entry per neighbour in ascending neighbour order (not the order
of the callback's maps), holding the neighbour's ball index or -1 when it
lies outside, whose own id the ball keeps (``Ball.away``).  Every vertex
and every neighbour has one int64 id, its key or an interned id, and the
ids are the ball's only record of its vertices: one sort of them resolves
every neighbour after the walk and finds any vertex (``Ball.locate``), and
a vertex is made from its id only when a caller asks for it (``Ball.at``,
``Ball.outside``), so nothing a ball holds is read from its graph twice.
Laplacian parts are assembled
from these arrays alone.  ``Ball.prefix(r)`` cuts the radius-``r`` ball out
of a larger one without further adjacency calls, and ``ball`` handed a
snapshot cuts from it every ball it holds, around any of its vertices, by
the walk's shell rule on its rows.  A ball read with ``grow=True`` keeps
its walk, and ``Ball.extend`` resumes it: the new shells are appended, so
every array keeps its old entries as a prefix, and ``ball`` itself is that
growth from the center in one call.
Truncated simulations enumerate once per attempt: the enlarged ball of the
full and nonlinear flows, whose first vertices are the cut their
truncation bound is about.  A symmetric-part run reads one ball, grown
shell by shell as its Lanczos basis reaches out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BudgetExceededError, DegreeCapError, InconsistentAdjacencyError
from .graph import (GraphGenerator, Vertex, _batch_read, _coords, _decode, _ids, _keys,
                    _vertex_keys, _weights_agree)

#: The vertex budget of a walk that is given none.  Read at call time.
DEFAULT_BALL_BUDGET = 1_000_000


@dataclass
class Ball:
    """A finite ball of the symmetric skeleton: distances, measures, weights.

    ``ids[i]``, one int64 per vertex, is the only record of the vertex with
    index ``i`` in every per-vertex array attached to the ball: its key
    (``graph._keys``) or, for a vertex without one, a negative id from
    ``interned``, which gives its ``i``-th vertex the id ``-1 - i`` and is
    shared with prefixes and cuts.  ``sorted_ids`` holds the ids in
    ascending order and ``by_id`` the ball index of each, so ``locate``
    finds vertices by one search; ``at``, ``slices`` and ``vertices`` make
    vertices from ids when they are asked for: a key becomes a tuple of
    Python ints, an interned id the object the callback gave.  Row ``i``
    of the weight snapshot spans entries ``indptr[i]:indptr[i+1]``, one per
    neighbour ``v'`` of the vertex in either direction: ``nbr`` holds the
    ball index of ``v'`` (-1 outside the ball), ``w_out`` holds ``w(v,
    v')`` and ``w_in`` holds ``w(v', v)``; ``source`` is the generator they
    were read from.  ``away`` holds the id of each outside entry's
    neighbour, in entry order.
    Immutable after construction by convention, except that a ball read
    with ``grow=True`` grows in place by ``extend``, resuming its ``_walk``
    (None once it cannot grow); a prefix shares all of these.
    """

    center: Vertex
    radius: int
    ids: np.ndarray
    distances: np.ndarray
    measures: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    w_out: np.ndarray
    w_in: np.ndarray
    source: GraphGenerator
    sorted_ids: np.ndarray
    by_id: np.ndarray
    interned: dict
    away: np.ndarray
    _walk: Iterator | None = field(default=None, repr=False, compare=False)
    _error: BaseException | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, v: Vertex) -> bool:
        return bool(self.locate([v])[0] >= 0)

    @property
    def vertices(self) -> list:
        """Every vertex in ball order, made from ``ids`` on each call."""
        return self.at(slice(None))

    def at(self, rows) -> list:
        """The vertices with the ball indices ``rows`` (an index array or a slice)."""
        return _decode(self.ids[rows], list(self.interned))

    def slices(self, size: int):
        """The vertices in ball order, ``size`` at a time: one list per slice, made when asked."""
        interned = list(self.interned)
        for i in range(0, len(self), size):
            yield _decode(self.ids[i:i + size], interned)

    def locate(self, vertices: list) -> np.ndarray:
        """The ball index of each vertex, -1 where it lies outside the ball."""
        ids = _vertex_keys(vertices)
        for i in np.flatnonzero(ids < 0):
            ids[i] = self.interned.get(vertices[i], 0)  # 0 is no vertex's id
        return self.find(ids)

    def find(self, ids: np.ndarray) -> np.ndarray:
        """The ball index of each id, -1 where it lies outside the ball."""
        at = np.minimum(np.searchsorted(self.sorted_ids, ids), len(self.sorted_ids) - 1)
        return np.where(self.sorted_ids[at] == ids, self.by_id[at], -1)

    def volume(self) -> float:
        return float(self.measures.sum())

    def entry_rows(self) -> np.ndarray:
        """Row, i.e. ball index of the reporting vertex, of every snapshot entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def sym_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordered in-ball index pairs ``(rows, cols)`` with positive symmetric weight."""
        keep = (self.nbr >= 0) & ((self.w_out + self.w_in) / 2.0 > 0.0)
        return self.entry_rows()[keep], self.nbr[keep]

    def outside(self) -> list:
        """The vertex of each outside entry (``nbr == -1``), in entry order: ``away`` decoded."""
        return _decode(self.away, list(self.interned))

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
        nbr = self.nbr[:m]
        kept = self.by_id < n
        return Ball(center=self.center, radius=r, ids=self.ids[:n],
                    distances=self.distances[:n], measures=self.measures[:n],
                    indptr=self.indptr[:n + 1], nbr=np.where(nbr < n, nbr, -1),
                    w_out=self.w_out[:m], w_in=self.w_in[:m], source=self.source,
                    sorted_ids=self.sorted_ids[kept], by_id=self.by_id[kept],
                    interned=self.interned,
                    away=_nbr_ids(self, np.flatnonzero((nbr < 0) | (nbr >= n))))

    def extend(self, r: int) -> "Ball":
        """Grow this ball in place to radius ``r``, by resuming its walk; nothing if ``r <= radius``.

        Only a ball read with ``ball(..., grow=True)`` can grow.  The shells
        past the radius are read once each and appended in the walk's order,
        so every array keeps its old entries as a prefix.  A shell that a
        batch step read brings its keys as its ids; one that the vertex step
        read is given its ids by ``_ids``.  Each added row's neighbours get
        their ball index from the ball's ids, merged into ``sorted_ids``,
        and the entries that pointed outside (on a graph whose every entry
        has positive symmetric weight, those of the old outer shell) get
        theirs by looking up their ``away`` ids among the added vertices.
        Only the pairs that hold an added vertex are checked
        (``_check_consistency``): the others were checked when the ball
        reached them.  A walk that runs out of shells leaves the ball as it
        is, at radius ``r``; the walk's budget rule raises
        ``BudgetExceededError`` before it reads a shell past the budget.
        Whatever ``extend`` raises, the ball keeps what it holds, its radius
        becomes its last shell, and it grows no further: a later ``extend``
        past that radius raises ``ValueError``.
        """
        if r <= self.radius:
            return self
        if self._walk is None:
            raise ValueError(
                "only a ball read with grow=True can be extended" if self._error is None
                else f"the ball stopped growing at radius {self.radius}: {self._error!r}")
        try:
            sizes, counts, w_out, w_in, ids, nbr = [], [], [], [], [], []
            for k, shell, rows in self._walk:
                sizes.append(len(shell))
                counts.append(rows.counts)
                w_out.append(rows.w_out)
                w_in.append(rows.w_in)
                keyed = rows.keys is not None  # else the vertex step's rows
                # one int64 id per vertex and per row neighbour: its key, or an interned id
                ids.append(rows.keys if keyed else _ids(shell, self.interned))
                nbr.append(rows.nbr if keyed else _ids(rows.nbr, self.interned))
                if k == r:
                    break
            if not sizes:
                self.radius = r
                return self
            n0, m0 = len(self), int(self.indptr[-1])
            # each list of chunks goes as it is joined, and the largest temporaries
            # before the next are made
            ids = np.concatenate(ids)
            order = np.argsort(ids)  # merged into sorted_ids
            at = np.searchsorted(self.sorted_ids, ids[order])
            self.sorted_ids = np.insert(self.sorted_ids, at, ids[order])
            self.by_id = np.insert(self.by_id, at, order + n0)
            nbr_ids = np.concatenate(nbr)
            del nbr
            nbr = self.find(nbr_ids)
            inside = nbr >= 0
            away = nbr_ids[~inside]
            del nbr_ids
            counts = np.concatenate(counts, dtype=np.int64)
            w_out = np.concatenate(w_out, dtype=float)
            w_in = np.concatenate(w_in, dtype=float)
            rows = np.repeat(np.arange(len(ids)), counts)  # from n0
            ws = (w_out + w_in) / 2.0
            # bincount adds in entry order, i.e. in the order the neighbours were read;
            # 0.0 + keeps measures float when there are no entries (bincount gives int)
            measures = 0.0 + np.bincount(rows, weights=np.where(ws > 0.0, ws, 0.0),
                                         minlength=len(ids))
            del ws
            rows = rows[inside]
            rows += n0
            self.ids = _append(self.ids, ids)
            self.distances = _append(self.distances, np.repeat(
                np.arange(self.radius + 1, self.radius + 1 + len(sizes), dtype=np.int64), sizes))
            self.measures = _append(self.measures, measures)
            self.indptr = _append(self.indptr, m0 + np.cumsum(counts))
            self.nbr = _append(self.nbr, nbr)
            self.w_out = _append(self.w_out, w_out)
            self.w_in = _append(self.w_in, w_in)
            # the entries that pointed outside, looked up among the added vertices
            found = self.find(self.away)
            hit = found >= 0
            resolved = np.flatnonzero(self.nbr[:m0] < 0)[hit]
            self.nbr[resolved] = found[hit]
            self.away = _append(self.away[~hit], away)
            # the pairs that hold an added vertex: the added rows' and the resolved
            # entries; read in one call, that is every in-ball entry, a mask
            at = inside
            if resolved.size or m0:
                at = np.concatenate([resolved, m0 + np.flatnonzero(inside)])
                rows = np.concatenate([np.searchsorted(self.indptr, resolved, "right") - 1, rows])
            _check_consistency(self, rows, at)
            self.radius = r
        except BaseException as exc:
            self._walk, self._error = None, exc
            self.radius = int(self.distances.max(initial=-1))
            raise
        return self


def _nbr_ids(b: Ball, at: np.ndarray) -> np.ndarray:
    """The id of the neighbour of each entry ``at``: from ``ids``, or from ``away`` if outside."""
    ids = b.ids[b.nbr[at]]
    out = b.nbr[at] < 0
    ids[out] = b.away[np.searchsorted(np.flatnonzero(b.nbr < 0), at[out])]
    return ids


def _append(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``old`` followed by ``new``, in ``old``'s dtype; ``new`` itself when ``old`` is empty."""
    return np.concatenate([old, new], dtype=old.dtype) if len(old) else new


def _check_consistency(b: Ball, rows: np.ndarray, at: np.ndarray) -> None:
    """Raise unless both endpoints of every pair among the entries ``at`` report the same weights.

    ``at`` selects in-ball entries, by position or by a mask over all of
    them, and ``rows`` are their rows; the partner of each must be among
    them or absent.  Row ``i``'s entry for ``j`` must carry the
    weights of row ``j``'s entry for ``i`` with the two directions swapped;
    a missing partner entry reports zero both ways.  Weights agree by
    ``graph._weights_agree``, the rule ``validate_generator`` applies.
    """
    if not rows.size:
        return
    cols = b.nbr[at]
    w_out, w_in = b.w_out[at], b.w_in[at]
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
        v, u = b.at([rows[k], cols[k]])
        raise InconsistentAdjacencyError(
            f"adjacency callbacks disagree on the pair ({v}, {u}): {v} reports "
            f"w(v,u)={w_out[k]}, w(u,v)={w_in[k]}; {u} reports "
            f"w(v,u)={p_in[k]}, w(u,v)={p_out[k]}", (v, u))


def ball(gen, center: Vertex, r: int, budget: int | None = None, grow: bool = False) -> Ball:
    """Enumerate the radius-``r`` ball of the symmetric skeleton around ``center``.

    The ball is shells 0..r of ``_walk``, which reads every ball vertex once
    and raises ``BudgetExceededError`` under its budget rule; without a
    ``budget`` it reads ``DEFAULT_BALL_BUDGET`` at call time.  It is grown
    from the center in one ``Ball.extend`` call: the snapshot is the walk's
    rows, shell after shell.  Each ball vertex and each row neighbour has
    one int64 id: the batch step's key, or ``_ids`` of the vertex-step rows;
    one argsort of the ball's ids and one search give every neighbour its
    ball index, or -1 when it lies outside, even when the walk found it only
    in a later shell.  Raises ``InconsistentAdjacencyError`` when two ball
    vertices report different weights for the edges between them.  With
    ``grow`` the ball keeps its walk, so ``extend`` can grow it further.

    ``gen`` may be a ``Ball``, a snapshot.  Unless ``grow``, it holds the
    ball when ``center`` lies in it at distance ``d`` with ``d + r <=
    radius``; that ball is cut from its rows without a callback or a budget
    (``_cut``), and any other is enumerated through the generator the
    snapshot was read from.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if isinstance(gen, Ball):
        i = int(gen.locate([center])[0])
        if not grow and i >= 0 and gen.distances[i] + r <= gen.radius:
            return gen.prefix(r) if i == 0 else _cut(gen, center, i, r)
        gen = gen.source
    no_ids = np.zeros(0, np.int64)
    b = Ball(center=center, radius=-1, ids=no_ids, distances=no_ids, measures=np.zeros(0),
             indptr=np.zeros(1, np.int64), nbr=no_ids, w_out=np.zeros(0), w_in=np.zeros(0),
             source=gen, sorted_ids=no_ids, by_id=no_ids, interned={}, away=no_ids,
             _walk=_walk(gen, center, None if grow else r, budget))
    b.extend(r)
    if not grow:
        b._walk = None
    return b


def _cut(snap: Ball, center: Vertex, i: int, r: int) -> Ball:
    """``ball(snap.source, center, r)`` read from the rows of ``snap``, which holds it at index ``i``.

    The walk's shell rule on the rows: shell k+1 is the first find of each
    neighbour of positive symmetric weight that no earlier shell holds, in
    shell order and ascending neighbour order.  Every vertex of the cut
    lies within ``snap.radius`` of the snapshot's center, so its row and its
    in-ball neighbours are all in ``snap``; the measures are the
    snapshot's, and pairs it checked need no second check; the ids, their
    order and those of the outside neighbours are gathered from the
    snapshot's.
    """
    step = (snap.nbr >= 0) & ((snap.w_out + snap.w_in) / 2.0 > 0.0)
    found = np.zeros(len(snap), dtype=bool)
    found[i] = True
    shells = [np.array([i])]
    for _ in range(r):
        at = _spans(snap.indptr, shells[-1])
        reached = snap.nbr[at[step[at]]]
        reached = reached[~found[reached]]
        if not reached.size:
            break
        shell = reached[np.sort(np.unique(reached, return_index=True)[1])]
        found[shell] = True
        shells.append(shell)
    idx = np.concatenate(shells)
    at = _spans(snap.indptr, idx)
    to_cut = np.full(len(snap) + 1, -1, np.int64)  # the last slot takes the -1 entries
    to_cut[idx] = np.arange(idx.size)
    indptr = np.concatenate([[0], np.cumsum(snap.indptr[idx + 1] - snap.indptr[idx])])
    by_id = to_cut[snap.by_id]
    kept = by_id >= 0
    nbr = to_cut[snap.nbr[at]]
    return Ball(center=center, radius=r, ids=snap.ids[idx],
                distances=np.repeat(np.arange(len(shells), dtype=np.int64),
                                    [s.size for s in shells]),
                measures=snap.measures[idx], indptr=indptr, nbr=nbr,
                w_out=snap.w_out[at], w_in=snap.w_in[at], source=snap.source,
                sorted_ids=snap.sorted_ids[kept], by_id=by_id[kept], interned=snap.interned,
                away=_nbr_ids(snap, at[nbr < 0]))


def _spans(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entry positions of ``rows``, row after row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def volume(gen, center: Vertex, r: int) -> float:
    """Total measure of the ball: sum of vertex measures over it."""
    return ball(gen, center, r).volume()


def distance(gen, a: Vertex, b: Vertex, cutoff: int) -> int | None:
    """Graph distance on the symmetric skeleton, or None beyond ``cutoff``."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    for d, shell in shells(gen, a, cutoff):
        if b in shell:
            return d
    return None


def shells(gen, root: Vertex, max_shells: int,
           budget: int | None = None) -> Iterator[tuple[int, list]]:
    """Yield ``(k, shell vertices)`` of ``_walk`` for k = 0..max_shells.

    Shell k is ``ball(root, k) minus ball(root, k-1)``.  Every shell it
    yields is read once, the last one too.  Stops early when the root's
    component is exhausted.
    Without a ``budget`` the walk reads ``DEFAULT_BALL_BUDGET`` when it starts.
    """
    for k, shell, _ in _walk(gen, root, max_shells, budget):
        yield k, _vertices(shell)


#: Shells with fewer vertices are read vertex by vertex even when the generator
#: has a batch callback: below it one batch call costs more than the
#: single-vertex reads it replaces.  Read at call time.
_BATCH_MIN_SHELL = 16

class _Rows(NamedTuple):
    """One read shell: CSR rows in shell order, each in ascending neighbour order.

    Row ``i`` has ``counts[i]`` entries, holding the neighbour (``nbr``),
    ``w(v, v')`` (``w_out``) and ``w(v', v)`` (``w_in``).  The vertex-by-vertex
    step gives lists, with neighbours as vertices and ``keys`` None; the batch
    step gives arrays, with neighbours as int64 keys and ``keys`` the keys of
    the shell's vertices (see ``graph._keys``).
    """

    counts: list | np.ndarray
    nbr: list | np.ndarray
    w_out: list | np.ndarray
    w_in: list | np.ndarray
    keys: np.ndarray | None

    def entries(self) -> Iterator[list]:
        """Each row as a list of ``(neighbour, w_out, w_in)``, in shell order."""
        nbr, w_out, w_in = iter(self.nbr), iter(self.w_out), iter(self.w_in)
        for n in self.counts:
            yield list(zip(islice(nbr, n), islice(w_out, n), islice(w_in, n)))


def _walk(gen: GraphGenerator, root: Vertex, max_shells: int | None,
          budget: int | None = None):
    """Breadth-first walk of the symmetric skeleton: ``(k, shell, rows)``.

    Shell k+1 is shell k's new neighbours of positive symmetric weight, in
    shell order with each vertex's new neighbours sorted; the first find over
    all earlier shells wins.  Each shell is read once, just before it is
    yielded, and ``rows`` is its ``_Rows``; the read finds the next shell
    too, except for shell ``max_shells``, which is read but not expanded.
    With ``max_shells`` None every shell is expanded, so the walk can be
    resumed after any shell it yielded (``Ball.extend``).  The walk stops
    at an empty shell.  Budget rule: before reading a shell
    that takes the number of vertices found past ``budget``, it raises
    ``BudgetExceededError`` with that number as ``count``.  Without a
    ``budget`` the walk reads ``DEFAULT_BALL_BUDGET`` when it starts, not
    when it is defined.  Nothing it yields holds the vertices it has found.

    A shell is read in one ``gen.batch_adjacency`` call when the generator
    has one, the shell holds at least ``_BATCH_MIN_SHELL`` vertices, and it
    and every neighbour the call reports fit the int64 key; otherwise each
    vertex is read with ``gen.edges``.  Both steps drop self-loops, apply the
    degree cap and give the same rows, so which one read a shell changes
    nothing but the time.  A shell that the vertex step found is a list of
    vertices; one that a batch step found is the ``(k, d)`` int64 array of
    its coordinates, and ``_vertices`` turns either into a list.  The walk
    records what it has found in a ``_Found``: in a set until its first
    batch step, by int64 key from then on.

    ``graph.validate_generator`` walks a tolerant copy of the generator, so
    that it can record defective callbacks and go on.
    """
    budget = DEFAULT_BALL_BUDGET if budget is None else budget
    found = _Found(root)
    shell, keys = [root], None  # keys: those of a shell that a batch step found
    recent = None  # keys of the shell before, when known
    for k in count():
        if len(found) > budget:
            raise BudgetExceededError(
                f"walk from {root} found {len(found)} vertices, budget {budget}", len(found))
        expand, step = max_shells is None or k < max_shells, None
        if gen.batch_adjacency is not None and len(shell) >= _BATCH_MIN_SHELL:
            coords = shell
            if keys is None:
                coords = _coords(shell)
                keys = None if coords is None else _keys(coords)
            if keys is not None and keys.min() >= 0:
                found.keep_by_key()
                step = _batch_step(gen, shell, coords, keys, recent, found, expand)
        if step is None:
            nxt = [] if expand else None
            # once vertices are kept by key, the step only drops repeats within
            # the shell, and ``fresh`` drops those found before
            rows = _scalar_step(gen.edges, _vertices(shell),
                                set() if found.runs else found.other, nxt)
            step = rows, found.fresh(nxt) if found.runs and nxt else nxt, None
        rows, nxt, keys = step
        yield k, shell, rows
        if nxt is None or not len(nxt):
            return
        shell, recent = nxt, rows.keys


class _Found:
    """The vertices a walk has found.

    Until the walk's first batch step they are the set ``other``.  From then
    on (``keep_by_key``) a vertex with a key (``graph._keys``) is kept only
    by it, in ``runs``: sorted int64 arrays, each more than twice as long as
    the next, so there are at most ``log2`` of the count of them and each
    key is copied that many times.  ``other`` keeps the vertices that have
    none.  A tuple in a set takes about 148 bytes, a key in ``runs`` 8.
    """

    def __init__(self, root: Vertex):
        self.other, self.runs, self.n_runs = {root}, [], 0  # n_runs: the keys in runs

    def __len__(self) -> int:
        return len(self.other) + self.n_runs

    def keep_by_key(self) -> None:
        """Move every vertex of ``other`` that has a key into ``runs``, the first time."""
        if not self.runs:
            other = list(self.other)
            keys = _vertex_keys(other)
            self.other = {v for v, key in zip(other, keys.tolist()) if key < 0}
            self.add(keys[keys >= 0])

    def add(self, keys: np.ndarray) -> None:
        """Record the keys, none found before."""
        if not keys.size:
            return
        self.n_runs += keys.size
        run = np.sort(keys)
        while self.runs and len(self.runs[-1]) <= 2 * len(run):
            run = np.sort(np.concatenate([self.runs.pop(), run]), kind="stable")
        self.runs.append(run)

    def holds(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key was found before; a sorted ``keys`` is searched fastest."""
        hit = np.zeros(len(keys), dtype=bool)
        for run in self.runs:
            at = np.minimum(np.searchsorted(run, keys), len(run) - 1)
            hit |= run[at] == keys
        return hit

    def fresh(self, vertices: list) -> list:
        """Those of the vertices, none repeated, not found before, in order; now found."""
        keys = _vertex_keys(vertices)
        keyed = keys >= 0
        new = keyed & ~self.holds(keys)
        for i in np.flatnonzero(~keyed).tolist():
            new[i] = vertices[i] not in self.other
            self.other.add(vertices[i])
        self.add(keys[new & keyed])
        return [v for v, n in zip(vertices, new.tolist()) if n]


def _vertices(shell) -> list:
    """A shell of ``_walk`` as a list of vertices: a coordinate array becomes tuples."""
    if isinstance(shell, np.ndarray):
        return list(zip(*shell.T.tolist()))
    return shell


def _scalar_step(edges, shell: list, seen: set, nxt: list | None) -> _Rows:
    counts, nbr, w_out, w_in = [], [], [], []
    for v in shell:
        out, inn = edges(v)
        nb = sorted(out.keys() | inn.keys())
        counts.append(len(nb))
        nbr += nb
        for u in nb:  # ascending, so each vertex's new neighbours come sorted
            a, b = out.get(u, 0.0), inn.get(u, 0.0)
            w_out.append(a)
            w_in.append(b)
            if nxt is not None and u not in seen and (a + b) / 2.0 > 0.0:
                seen.add(u)
                nxt.append(u)
    return _Rows(counts, nbr, w_out, w_in, None)


def _batch_step(gen, shell, coords: np.ndarray, keys: np.ndarray,
                recent: np.ndarray | None, found: _Found, expand: bool):
    """A shell of ``_walk`` in one batch call, or None if a neighbour does not fit the key.

    Gives the shell's rows, then the next shell's coordinates and its keys,
    recorded in ``found``; there is no next shell unless ``expand``.
    """
    nc, wo, wi = _batch_read(gen, coords)
    nkeys = _keys(nc)
    present = ((wo != 0.0) | (wi != 0.0)) & (nkeys != keys[:, None])  # no self-loops
    if (nkeys[present] < 0).any():
        return None
    if wo.shape[1] > gen.degree_cap:
        n_out = ((wo != 0.0) & present).sum(axis=1)
        n_in = ((wi != 0.0) & present).sum(axis=1)
        over = np.flatnonzero((n_out > gen.degree_cap) | (n_in > gen.degree_cap))
        if over.size:
            i = over[0]
            raise DegreeCapError(f"vertex {_vertices(shell[i:i + 1])[0]} reports "
                                 f"{max(n_out[i], n_in[i])} edges, cap is {gen.degree_cap}")
    counts = present.sum(axis=1)
    slots = np.flatnonzero(present)
    nkeys, wo, wi = nkeys.ravel()[slots], wo.ravel()[slots], wi.ravel()[slots]
    rows = _Rows(counts, nkeys, wo, wi, keys)
    if not expand:
        return rows, None, None
    # the first find of each key that no earlier shell holds, in read order; a
    # consistent graph's neighbours lie in this shell, the one before and the next,
    # so only the others are searched for among the older shells' keys
    cand = np.flatnonzero((wo + wi) / 2.0 > 0.0)
    old = [keys] if recent is None else [recent, keys]
    n_old = sum(len(k) for k in old)
    unique, first = np.unique(np.concatenate(old + [nkeys[cand]]), return_index=True)
    keep = first >= n_old
    unique, first = unique[keep], first[keep] - n_old
    first = np.sort(first[~found.holds(unique)])
    new_keys = nkeys[cand[first]]
    found.add(new_keys)
    return rows, nc.reshape(-1, nc.shape[2])[slots[cand[first]]], new_keys
