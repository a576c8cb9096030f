"""Span recording around dirlap's public entry points, and the per-layer table.

The traced child process calls ``instrument(tracer)`` before it builds its
inputs.  That replaces the entry points of each ``src/dirlap`` module, as the
other modules and the workloads look them up, by wrappers that record one
span per call: name, start, end and the enclosing span.  Nothing in dirlap
itself changes.  Spans stay in memory in flat arrays and are written to one
``.npz`` file when the run ends; ``layer_metrics`` turns that file into the
per-layer numbers.

dirlap is one process with no queue or lock, so there is no waiting time to
record, and the table has no waiting column.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, float] = {}
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording a span named ``name`` around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def set(self, key: str, value: float) -> None:
        self.counters[key] = value

    def span_cost(self) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op."""
        calls = 200_000
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        traced = probe.wrap("probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    def save(self, path) -> None:
        self.set("span_cost_s", self.span_cost())
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=float),
                 end=np.frombuffer(self._end, dtype=float),
                 counters=np.array(json.dumps(self.counters)))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points where dirlap's modules and the workloads call them."""
    import dirlap
    from dirlap import geometry, hypotheses, oscillator, semigroup
    from dirlap.integrate import integrate

    ball = tracer.wrap("geometry.ball", geometry.ball,
                       lambda b: tracer.peak("ball_vertices", len(b)))
    semigroup.ball = oscillator.ball = hypotheses.ball = ball

    def operator_built(op):
        tracer.set("nnz", sum(op.matrix(p).nnz for p in op.parts))

    semigroup.TruncatedOperator = tracer.wrap(
        "semigroup.assemble", semigroup.TruncatedOperator, operator_built)

    def primary_done(res):
        tracer.add("steps_accepted", res.n_steps)
        tracer.add("steps_rejected", res.n_rejected)

    primary = tracer.wrap("integrate.primary", integrate, primary_done)
    replay = tracer.wrap("integrate.replay", integrate)

    def traced_integrate(f, *args, **kwargs):
        run = primary if kwargs.get("replay") is None else replay
        return run(tracer.wrap("integrate.rhs", f), *args, **kwargs)

    semigroup.integrate = oscillator.integrate = traced_integrate

    def flow_done(res):
        tracer.add("retries", res.retries)
        tracer.set("richardson_diff", res.richardson_diff or 0.0)

    dirlap.evolve = tracer.wrap("semigroup.evolve", dirlap.evolve, flow_done)
    dirlap.simulate_nonlinear = tracer.wrap(
        "oscillator.simulate_nonlinear", dirlap.simulate_nonlinear, flow_done)
    dirlap.verify_phase_lock = tracer.wrap(
        "oscillator.verify_phase_lock", dirlap.verify_phase_lock)

    hypotheses.fit_volume_growth = tracer.wrap(
        "hypotheses.fit_volume_growth", hypotheses.fit_volume_growth)
    hypotheses.estimate_alpha = tracer.wrap(
        "hypotheses.estimate_alpha", hypotheses.estimate_alpha)
    hypotheses.estimate_poincare = tracer.wrap(
        "hypotheses.estimate_poincare", hypotheses.estimate_poincare,
        lambda est: tracer.peak("poincare_max_n", est.double_ball_size))
    hypotheses.estimate_skew_mass = tracer.wrap(
        "hypotheses.estimate_skew_mass", hypotheses.estimate_skew_mass,
        lambda est: tracer.add("shells_used", est.shells_used))
    dirlap.check_hypotheses = tracer.wrap(
        "hypotheses.check_hypotheses", dirlap.check_hypotheses)


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics from a span file written by ``Tracer.save``.

    Times are self times (span duration minus the durations of its direct
    children, which never overlap because the program is single-threaded),
    except ``integrate.s`` and ``integrate.rhs_s``, which are whole durations
    of the primary integration and of the right-hand-side calls made in it,
    and ``semigroup.truncation_check_s``, which runs from the end of each
    primary integration to the end of the replay that follows it.
    ``trace.overhead_s`` is the span count times the cost of one span on a
    no-op call, measured in the traced process.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        start, end = data["start"], data["end"]
        counters = json.loads(str(data["counters"]))
    ids = {n: i for i, n in enumerate(names)}
    dur = end - start
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

    def mask(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    def self_s(span: str) -> float:
        return float(self_time[mask(span)].sum())

    primary = mask("integrate.primary")
    in_primary = mask("integrate.rhs") & nested & primary[np.maximum(parent, 0)]
    primary_ends = np.sort(end[primary])
    replay = mask("integrate.replay")
    before = np.searchsorted(primary_ends, start[replay]) - 1
    check_s = float(np.sum(end[replay] - primary_ends[before])) if replay.any() else 0.0

    adjacency_calls = int(mask("graph.adjacency").sum())
    ball_vertices = int(counters.get("ball_vertices", 0))
    accepted = int(counters.get("steps_accepted", 0))
    rejected = int(counters.get("steps_rejected", 0))
    integrate_s = float(dur[primary].sum())
    rhs_s = float(dur[in_primary].sum())
    return {
        "graph.adjacency_calls": adjacency_calls,
        "graph.adjacency_calls_per_vertex":
            adjacency_calls / ball_vertices if ball_vertices else 0.0,
        "graph.adjacency_s": self_s("graph.adjacency"),
        "geometry.ball_calls": int(mask("geometry.ball").sum()),
        "geometry.ball_s": self_s("geometry.ball"),
        "geometry.ball_vertices": ball_vertices,
        "semigroup.assemble_s": self_s("semigroup.assemble"),
        "semigroup.nnz": int(counters.get("nnz", 0)),
        "semigroup.truncation_check_s": check_s,
        "semigroup.retries": int(counters.get("retries", 0)),
        "semigroup.richardson_diff": float(counters.get("richardson_diff", 0.0)),
        "integrate.s": integrate_s,
        "integrate.rhs_s": rhs_s,
        "integrate.rk_overhead_s": integrate_s - rhs_s,
        "integrate.rhs_calls": int(in_primary.sum()),
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": rejected,
        "integrate.accept_ratio":
            accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "oscillator.self_s": self_s("oscillator.simulate_nonlinear"),
        "oscillator.verify_s": self_s("oscillator.verify_phase_lock"),
        "hypotheses.skew_mass_s": self_s("hypotheses.estimate_skew_mass"),
        "hypotheses.poincare_s": self_s("hypotheses.estimate_poincare"),
        "hypotheses.volume_fit_s": self_s("hypotheses.fit_volume_growth"),
        "hypotheses.alpha_s": self_s("hypotheses.estimate_alpha"),
        "hypotheses.self_s": self_s("hypotheses.check_hypotheses"),
        "hypotheses.shells_used": int(counters.get("shells_used", 0)),
        "hypotheses.poincare_max_n": int(counters.get("poincare_max_n", 0)),
        "trace.overhead_s": len(dur) * counters["span_cost_s"],
    }
