"""Built-in graph families, loadable by name plus numeric parameters.

Families
--------
``example-2.2``
    The integer line with nearest-neighbour edges in both directions, weights
    ``w(n, n+1) = 1 - 1/(1+n^2)`` and ``w(n+1, n) = 1 + 1/(1+n^2)``.  The
    forward edge out of 0 has weight zero and is therefore absent.  Its
    symmetric graph is the unit-weight line (volume growth order 1) and its
    total skew mass converges to ``2*pi*coth(pi)``.

``z-lattice`` (parameter ``d``)
    The d-dimensional integer lattice with weight 1 in both directions on
    every nearest-neighbour pair.  Purely symmetric.

``z2-advection``
    The plane with one-way transport: every ``(i, j)`` has an edge to
    ``(i-1, j)``, rows ``j >= 1`` also point to ``(i, j-1)`` and rows
    ``j <= -1`` to ``(i, j+1)``, all with weight 1.  The symmetric graph is
    the quarter-weight plane lattice, but the skew mass grows with every
    shell, so its heat flow decays strictly slower than the symmetric rate.

``z2-skew-perturbed`` (parameter ``a``, ``|a| < 1``)
    The plane lattice with a localized directional bias: on the edge whose
    lower endpoint is ``b``, the forward weight is ``1 - a/(1+|b|^2)^2`` and
    the reverse ``1 + a/(1+|b|^2)^2``.  The symmetric weights are exactly 1,
    and the bias decays fast enough for the total skew mass to converge.

Each family also has a ``batch_adjacency`` that computes the same weights
with the same floating-point operations for a whole array of vertices, so a
walk gives the same snapshot whether it reads a vertex alone or in a batch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import GraphGenerator, Vertex

_REGISTRY: dict[str, Callable[..., GraphGenerator]] = {}

# the plane's four neighbour steps in ascending order of the neighbour
_PLANE_STEPS = np.array([(-1, 0), (0, -1), (0, 1), (1, 0)], dtype=np.int64)


def register_graph(name: str, factory: Callable[..., GraphGenerator]) -> None:
    """Register a custom family under ``name`` for config-driven loading.

    The factory returns a ``GraphGenerator``.  Its snapshot rows list each
    vertex's neighbours in ascending order whatever order the callback's maps
    have.  A factory may set ``batch_adjacency`` as well (see
    ``GraphGenerator``); a copy made with ``dataclasses.replace(gen,
    adjacency=...)`` must replace ``batch_adjacency`` too, unless both
    callbacks still compute the same function.
    """
    _REGISTRY[name] = factory


def builtin_graph(name: str, **params) -> GraphGenerator:
    """Instantiate a graph family by name.

    Raises ``ValueError`` for unknown names or bad parameters.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown graph {name!r}; known families: {known}") from None
    return factory(**params)


def _example22() -> GraphGenerator:
    def forward(n: int) -> float:
        # weight of the edge n -> n+1; exactly zero for n == 0
        return 1.0 - 1.0 / (1.0 + n * n)

    def backward(n: int) -> float:
        # weight of the edge n+1 -> n; never zero
        return 1.0 + 1.0 / (1.0 + n * n)

    def adjacency(v: Vertex):
        (n,) = v
        out: dict[Vertex, float] = {}
        inn: dict[Vertex, float] = {}
        wf = forward(n)
        if wf != 0.0:
            out[(n + 1,)] = wf
        out[(n - 1,)] = backward(n - 1)
        inn[(n + 1,)] = backward(n)
        wb = forward(n - 1)
        if wb != 0.0:
            inn[(n - 1,)] = wb
        return out, inn

    def batch(coords):
        n = coords[:, 0]
        # slots (n-1,) and (n+1,); forward(n) is 0.0 at n == 0, so one weight of a slot may be 0
        nbrs = np.stack([coords - 1, coords + 1], axis=1)
        w_out = np.stack([backward(n - 1), forward(n)], axis=1)
        w_in = np.stack([forward(n - 1), backward(n)], axis=1)
        return nbrs, w_out, w_in

    return GraphGenerator(adjacency=adjacency, root=(0,), name="example-2.2",
                          batch_adjacency=batch)


def _z_lattice(d: int = 2) -> GraphGenerator:
    d = int(d)
    if d < 1:
        raise ValueError("z-lattice needs dimension d >= 1")

    def adjacency(v: Vertex):
        nbrs = {}
        for axis in range(d):
            for step in (1, -1):
                u = list(v)
                u[axis] += step
                nbrs[tuple(u)] = 1.0
        return dict(nbrs), dict(nbrs)

    # v - e_0 < v - e_1 < ... < v - e_{d-1} < v + e_{d-1} < ... < v + e_0
    steps = np.concatenate([-np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)[::-1]])

    def batch(coords):
        ones = np.ones((len(coords), 2 * d))
        return coords[:, None, :] + steps, ones, ones

    return GraphGenerator(adjacency=adjacency, root=(0,) * d, name=f"z-lattice({d})",
                          batch_adjacency=batch)


def _z2_advection() -> GraphGenerator:
    def out_edges(i: int, j: int) -> dict[Vertex, float]:
        out = {(i - 1, j): 1.0}
        if j >= 1:
            out[(i, j - 1)] = 1.0
        elif j <= -1:
            out[(i, j + 1)] = 1.0
        return out

    def adjacency(v: Vertex):
        i, j = v
        out = out_edges(i, j)
        inn: dict[Vertex, float] = {(i + 1, j): 1.0}
        if j >= 0:
            inn[(i, j + 1)] = 1.0
        if j <= 0:
            inn[(i, j - 1)] = 1.0
        return out, inn

    def batch(coords):
        # slots (i-1, j), (i, j-1), (i, j+1), (i+1, j)
        j = coords[:, 1]
        one, zero = np.ones(len(coords)), np.zeros(len(coords))
        w_out = np.stack([one, (j >= 1) * 1.0, (j <= -1) * 1.0, zero], axis=1)
        w_in = np.stack([zero, (j <= 0) * 1.0, (j >= 0) * 1.0, one], axis=1)
        return coords[:, None, :] + _PLANE_STEPS, w_out, w_in

    return GraphGenerator(adjacency=adjacency, root=(0, 0), name="z2-advection",
                          batch_adjacency=batch)


def _z2_skew_perturbed(a: float = 0.5) -> GraphGenerator:
    a = float(a)
    if not abs(a) < 1.0:
        raise ValueError("z2-skew-perturbed requires |a| < 1 so both directed "
                         "weights stay positive")

    def bias(b: Vertex) -> float:
        # bias attached to the edge whose lower endpoint is b
        r2 = 1.0 + float(b[0] * b[0] + b[1] * b[1])
        return a / (r2 * r2)

    def batch_bias(b):
        # bias of the array's rows, with bias's operations
        r2 = 1.0 + (b[..., 0] * b[..., 0] + b[..., 1] * b[..., 1]).astype(float)
        return a / (r2 * r2)

    def adjacency(v: Vertex):
        i, j = v
        out: dict[Vertex, float] = {}
        inn: dict[Vertex, float] = {}
        # edges where v is the lower endpoint: forward lighter, reverse heavier
        d_here = bias(v)
        for u in ((i + 1, j), (i, j + 1)):
            out[u] = 1.0 - d_here
            inn[u] = 1.0 + d_here
        # edges where v is the upper endpoint
        for u in ((i - 1, j), (i, j - 1)):
            d_low = bias(u)
            out[u] = 1.0 + d_low
            inn[u] = 1.0 - d_low
        return out, inn

    def batch(coords):
        # slots (i-1, j) and (i, j-1) carry their own bias, (i, j+1) and (i+1, j) the vertex's
        nbrs = coords[:, None, :] + _PLANE_STEPS
        low = batch_bias(nbrs[:, :2])
        here = np.repeat(batch_bias(coords)[:, None], 2, axis=1)
        w_out = np.concatenate([1.0 + low, 1.0 - here], axis=1)
        w_in = np.concatenate([1.0 - low, 1.0 + here], axis=1)
        return nbrs, w_out, w_in

    return GraphGenerator(adjacency=adjacency, root=(0, 0),
                          name=f"z2-skew-perturbed({a})", batch_adjacency=batch)


register_graph("example-2.2", _example22)
register_graph("z-lattice", _z_lattice)
register_graph("z2-advection", _z2_advection)
register_graph("z2-skew-perturbed", _z2_skew_perturbed)
