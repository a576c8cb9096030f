"""The four benchmark workloads: inputs derived from a seed, and output checks.

Each workload is a function ``(seed, wrap) -> run``.  Calling it is the
set-up: it builds the generators, configs and initial data, and it is timed
as ``setup_s``.  Calling the returned ``run()`` makes every call into dirlap
and returns the list of output checks, so its duration is ``wall_s``.

``wrap(name, fn)`` is applied to every generator adjacency callback; the
traced run passes a span recorder, the timed runs the identity.  Layer entry
points are called through the ``dirlap`` package attributes at call time so
that the traced run can swap them for recording wrappers.

Seed 0 reproduces the inputs of ``tests/test_acceptance.py`` at shorter final
times (``T_MAX``); other seeds move the inputs in ways under which the same
oracles still apply.  The final times keep one solve to a few seconds, so that
a timed run holds several solves and reports their median.  At these sizes
every ball fits the 100k-vertex view cache; the acceptance-scale advection
ball (142k vertices) does not, but one such solve takes 20 s, and on a shared
host the time of a single solve that long swings by a quarter between runs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import dirlap
from dirlap.oscillator import (OscillatorSystem, PhaseLockCandidate,
                               coupling_from_graph, sin_coupling)
from dirlap.semigroup import (SimConfig, advection_oracle,
                              advection_stirling_lower, fit_power_law,
                              trajectory_norms)

INF = math.inf
# Final simulated time per flow workload; the decay fits use the window
# (10, T_MAX), which still holds at least eight sample times.
T_MAX = {"advection": 64.0, "lattice-sym": 40.0, "oscillator": 30.0}


def check(name: str, value: float, ok: bool, limit: str) -> dict:
    return {"name": name, "value": value, "ok": bool(ok), "limit": limit}


def window(name: str, value: float, lo: float, hi: float) -> dict:
    return check(name, value, lo <= value <= hi, f"[{lo}, {hi}]")


def _graph(name: str, wrap, root=None, **params):
    gen = dirlap.builtin_graph(name, **params)
    changes = {"adjacency": wrap("graph.adjacency", gen.adjacency)}
    if root is not None:
        changes["root"] = root
    return dataclasses.replace(gen, **changes)


def advection(seed: int, wrap):
    # The graph does not depend on i, so shifting the source along the i axis
    # leaves the cost and the closed-form axis solution unchanged.
    shift = 0 if seed == 0 else int(np.random.default_rng(seed).integers(-1000, 1001))
    root = (shift, 0)
    gen = _graph("z2-advection", wrap, root=root)
    t_max = T_MAX["advection"]
    # The acceptance fixture's integer sample times, up to t_max.
    ints = [i for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 25, 32, 40,
                        50, 64, 80, 100, 128, 160, 200) if i <= t_max]
    cfg = SimConfig(t_max=t_max, sample_times=[float(i) for i in ints],
                    rtol=1e-7, atol=1e-10, c_speed=1.25)

    def run():
        res = dirlap.evolve(gen, {root: 1.0}, cfg, part="full")
        worst = max(abs(res.state_at(t).value_at((shift + i, 0)) - advection_oracle(i, t))
                    for t in (1.0, 5.0, 10.0, 20.0) for i in range(11))
        stirling = min(res.state_at(float(i)).value_at((shift + i, 0))
                       - advection_stirling_lower(i) for i in ints)
        fit = dirlap.fit_decay(res, kind="p", p=INF, window=(10.0, t_max))
        return [check("closed_form_error", worst, worst <= 1e-6, "<= 1e-6"),
                check("stirling_margin", stirling, stirling >= -1e-7, ">= -1e-7"),
                window("linf_exponent", fit.exponent, -0.65, -0.40)]

    return run


def lattice_sym(seed: int, wrap):
    root = (0, 0)
    if seed != 0:
        root = tuple(int(c) for c in np.random.default_rng(seed).integers(-1000, 1001, 2))
    gen = _graph("z-lattice", wrap, root=root, d=2)
    t_max = T_MAX["lattice-sym"]
    ts = [0.0] + [float(t) for t in np.geomspace(0.5, t_max, 48)]
    cfg = SimConfig(t_max=t_max, sample_times=ts, rtol=1e-8, atol=1e-10)

    def run():
        res = dirlap.evolve(gen, {root: 1.0}, cfg, part="sym")
        fit_inf = dirlap.fit_decay(res, kind="p", p=INF, window=(10.0, t_max))
        fit_2 = dirlap.fit_decay(res, kind="p", p=2.0, window=(10.0, t_max))
        masses = [float(s.values.sum()) for _, s in res]
        drift = max(abs(m - masses[0]) for m in masses)
        return [window("linf_exponent", fit_inf.exponent, -1.15, -0.85),
                window("l2_exponent", fit_2.exponent, -0.65, -0.40),
                check("mass_drift", drift, drift <= 100 * cfg.atol, "<= 100 * atol")]

    return run


def oscillator(seed: int, wrap):
    eps = 0.01
    root = (0, 0)
    if seed == 0:
        perturbation = {root: eps}
    else:
        # Random magnitudes over the root and its four neighbours at l1 = eps.
        # One sign for the whole pattern: mixed signs would cancel the
        # conserved mass and speed the decay out of the oracle's window.
        rng = np.random.default_rng(seed)
        support = [root, (1, 0), (-1, 0), (0, 1), (0, -1)]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights = rng.dirichlet(np.ones(len(support)))
        perturbation = {v: sign * eps * float(w) for v, w in zip(support, weights)}
    weight, support_fn = coupling_from_graph(_graph("z2-skew-perturbed", wrap, a=0.5))
    system = OscillatorSystem(omega=lambda v: 1.0,
                              coupling=sin_coupling(weight, support_fn),
                              root=root, name="sin/z2-skew-perturbed(0.5)")
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    t_max = T_MAX["oscillator"]
    ts = [0.0] + [float(t) for t in np.geomspace(0.5, t_max, 44)]
    cfg = SimConfig(t_max=t_max, sample_times=ts, rtol=1e-8, atol=1e-11)

    def run():
        dev = dirlap.simulate_nonlinear(system, cand, perturbation, cfg)
        residual = dirlap.verify_phase_lock(system, cand, radius=5)
        times, linf = trajectory_norms(dev, kind="p", p=INF)
        fit = fit_power_law(times, linf, window=(10.0, t_max), label="linf")
        _, l1 = trajectory_norms(dev, kind="p", p=1.0)
        ratio = max(l1) / eps
        return [check("lock_residual", residual, residual <= 1e-12, "<= 1e-12"),
                window("deviation_linf_exponent", fit.exponent, -1.15, -0.85),
                check("max_l1_over_eps", ratio, ratio <= 5.0, "<= 5")]

    return run


def hypotheses(seed: int, wrap):
    # check-hypotheses CLI defaults; max_shells None is the automatic choice.
    graphs = [(_graph("example-2.2", wrap), None),
              (_graph("z2-advection", wrap), 40),
              (_graph("z2-skew-perturbed", wrap, a=0.5), 300)]
    target = 2.0 * math.pi / math.tanh(math.pi)

    def run():
        line, adv, skew = [dirlap.check_hypotheses(gen, r_min=8, r_max=64, max_shells=shells,
                                                   shell_tol=1e-6, seed=seed)
                           for gen, shells in graphs]
        w_err = abs(line.skew_mass.w_partial - target)
        return [check("line_w_error", w_err, w_err <= 1e-3, "<= 1e-3"),
                check("line_verdict", line.skew_mass.verdict,
                      line.skew_mass.verdict == "convergent", "convergent"),
                check("advection_verdict", adv.skew_mass.verdict,
                      adv.skew_mass.verdict == "divergent", "divergent"),
                check("skew_verdict", skew.skew_mass.verdict,
                      skew.skew_mass.verdict == "convergent", "convergent"),
                check("skew_d_fit_error", abs(skew.vg.d_fit - 2.0),
                      abs(skew.vg.d_fit - 2.0) <= 0.1, "<= 0.1"),
                check("skew_alpha", skew.delta.alpha, skew.delta.alpha > 0.0, "> 0")]

    return run


WORKLOADS = {
    "advection": advection,
    "lattice-sym": lattice_sym,
    "oscillator": oscillator,
    "hypotheses": hypotheses,
}
