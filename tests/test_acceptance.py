"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy trajectories are shared through module-scoped fixtures; each fixture
records its wall-clock cost so the per-criterion runtime budgets include the
work done on their behalf.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import dirlap
from dirlap import (builtin_graph, check_hypotheses, estimate_poincare, estimate_skew_mass, evolve, fit_decay,
                    norms, skew_bound_check)
from dirlap.oscillator import (OscillatorSystem, PhaseLockCandidate,
                               coupling_from_graph, linearize, sin_coupling,
                               simulate_nonlinear)
from dirlap.semigroup import (SimConfig, StateVector, TruncatedOperator,
                              advection_oracle, advection_stirling_lower, fit_power_law,
                              trajectory_norms)

from helpers import advection_peak, dense_expm, k2_generator, random_support_vector

INF = math.inf


@dataclass
class Timed:
    value: object
    elapsed: float


def timed(fn) -> Timed:
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def advection_long_run():
    gen = builtin_graph("z2-advection")
    ints = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 25, 32, 40, 50, 64,
            80, 100, 128, 160, 200, 256, 320, 400]
    cfg = SimConfig(t_max=400.0, sample_times=[float(i) for i in ints],
                    rtol=1e-7, atol=1e-10, c_speed=1.25)
    return timed(lambda: (evolve(gen, {(0, 0): 1.0}, cfg, part="full"), ints))


@pytest.fixture(scope="module")
def z2_symmetric_run():
    gen = builtin_graph("z-lattice", d=2)
    ts = [0.0] + [float(t) for t in np.geomspace(0.5, 200.0, 48)]
    cfg = SimConfig(t_max=200.0, sample_times=ts, rtol=1e-8, atol=1e-10)
    return timed(lambda: evolve(gen, {(0, 0): 1.0}, cfg, part="sym"))


@pytest.fixture(scope="module")
def skew_perturbed_run():
    gen = builtin_graph("z2-skew-perturbed", a=0.5)
    ts = [0.0] + [float(t) for t in np.geomspace(0.5, 200.0, 48)]
    cfg = SimConfig(t_max=200.0, sample_times=ts, rtol=1e-8, atol=1e-10)
    return timed(lambda: evolve(gen, {(0, 0): 1.0}, cfg, part="full"))


@pytest.fixture(scope="module")
def oscillator_system():
    coupling_graph = builtin_graph("z2-skew-perturbed", a=0.5)
    weight, support = coupling_from_graph(coupling_graph)
    sys_ = OscillatorSystem(omega=lambda v: 1.0,
                            coupling=sin_coupling(weight, support),
                            root=(0, 0), name="sin/z2-skew-perturbed(0.5)")
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    return sys_, cand


@pytest.fixture(scope="module")
def oscillator_deviation_run(oscillator_system):
    sys_, cand = oscillator_system
    eps = 0.01
    ts = [0.0] + [float(t) for t in np.geomspace(0.5, 150.0, 44)]
    cfg = SimConfig(t_max=150.0, sample_times=ts, rtol=1e-8, atol=1e-11)
    return timed(lambda: (simulate_nonlinear(sys_, cand, {(0, 0): eps}, cfg),
                          eps))


def test_criterion_01_skew_mass_of_the_line_graph():
    t0 = time.perf_counter()
    est = estimate_skew_mass(builtin_graph("example-2.2"), 20_000)
    elapsed = time.perf_counter() - t0
    target = 2.0 * math.pi / math.tanh(math.pi)
    assert abs(est.w_partial - target) <= 1e-3
    assert est.verdict == "convergent"
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 01 PASS: W_partial={est.w_partial:.6f} vs "
          f"2*pi*coth(pi)={target:.6f} ({elapsed:.2f}s)")


def test_criterion_02_advection_closed_form():
    t0 = time.perf_counter()
    gen = builtin_graph("z2-advection")
    cfg = SimConfig(t_max=20.0, sample_times=[1.0, 5.0, 10.0, 20.0],
                    rtol=1e-9, atol=1e-12, c_speed=1.5)
    res = evolve(gen, {(0, 0): 1.0}, cfg, part="full")
    worst = 0.0
    for t, _ in res:
        state = res.state_at(t)
        for i in range(11):
            worst = max(worst, abs(state.value_at((i, 0)) -
                                   advection_oracle(i, t)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 02 PASS: max closed-form error {worst:.2e} "
          f"({elapsed:.1f}s)")


def test_criterion_03_advection_decay_degradation(advection_long_run):
    (res, ints), elapsed = advection_long_run.value, advection_long_run.elapsed
    t0 = time.perf_counter()
    fit = fit_decay(res, kind="p", p=INF, window=(10.0, 400.0))
    assert -0.65 <= fit.exponent <= -0.40
    # the closed-form side of the inequality is exact arithmetic
    for i in range(1, 171):
        assert advection_peak(i) >= advection_stirling_lower(i)
    # simulated peaks: the bound is attained exactly at i = 1, so the
    # comparison gets an integrator-tolerance allowance
    for i in ints:
        sim = res.state_at(float(i)).value_at((i, 0))
        assert sim >= advection_stirling_lower(i) - 1e-7
    elapsed += time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 03 PASS: advection linf exponent {fit.exponent:+.4f} "
          f"in [-0.65,-0.40]; peaks respect the Stirling bound ({elapsed:.0f}s)")


def test_criterion_04_symmetric_benchmark(z2_symmetric_run):
    res, elapsed = z2_symmetric_run.value, z2_symmetric_run.elapsed
    t0 = time.perf_counter()
    fit_inf = fit_decay(res, kind="p", p=INF, window=(10.0, 200.0))
    fit_2 = fit_decay(res, kind="p", p=2.0, window=(10.0, 200.0))
    assert -1.15 <= fit_inf.exponent <= -0.85
    assert -0.65 <= fit_2.exponent <= -0.40
    elapsed += time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 04 PASS: plane lattice linf {fit_inf.exponent:+.4f}, "
          f"l2 {fit_2.exponent:+.4f} ({elapsed:.0f}s)")


def test_criterion_05_directed_decay_desk_scale(skew_perturbed_run):
    res, elapsed = skew_perturbed_run.value, skew_perturbed_run.elapsed
    t0 = time.perf_counter()
    gen = builtin_graph("z2-skew-perturbed", a=0.5)
    report = check_hypotheses(gen, max_shells=300)
    assert abs(report.vg.d_fit - 2.0) <= 0.1
    assert report.delta.alpha > 0.0
    assert report.skew_mass.verdict == "convergent"

    fit_inf = fit_decay(res, kind="p", p=INF, window=(10.0, 200.0))
    assert -1.15 <= fit_inf.exponent <= -0.85
    _, l1_values = trajectory_norms(res, kind="p", p=1.0)
    assert max(l1_values) <= 5.0 * 1.0  # initial condition has unit l1 norm
    fit_q = fit_decay(res, kind="q", p=INF, window=(10.0, 200.0))
    assert fit_q.exponent <= fit_inf.exponent - 0.05
    elapsed += time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 05 PASS: d_fit={report.vg.d_fit:.3f}, "
          f"alpha={report.delta.alpha:.3f}, W {report.skew_mass.verdict}; "
          f"linf {fit_inf.exponent:+.3f}, Qinf {fit_q.exponent:+.3f}, "
          f"max|x|_1={max(l1_values):.3f} ({elapsed:.0f}s)")


def test_criterion_06_skew_bound_property_suite():
    rng = np.random.default_rng(2024)
    violations = 0
    for name, kwargs in (("example-2.2", {}), ("z2-skew-perturbed", {"a": 0.5})):
        gen = builtin_graph(name, **kwargs)
        b = dirlap.ball(gen, gen.root, 8)
        for _ in range(500):
            x = random_support_vector(gen, b, rng)
            lhs, rhs = skew_bound_check(x, gen)
            if lhs > rhs * (1 + 1e-12):
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 06 PASS: 500+500 random vectors, zero violations of "
          "|L_skew x|_1 <= W_local Q_inf(x)")


def test_criterion_07_interpolation_property():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(5, 60))) * rng.uniform(0.2, 5.0)
        lq_all = norms(x, [2.0, 3.0, 10.0, 1.0, INF])
        l1, linf = lq_all[3], lq_all[4]
        for q, lq in zip((2.0, 3.0, 10.0), lq_all[:3]):
            gamma = 1.0 - 1.0 / q
            if lq > l1 ** (1 - gamma) * linf ** gamma * (1 + 1e-12):
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 07 PASS: log-convexity interpolation holds on 100 "
          "random vectors for q in {2, 3, 10}")


def test_criterion_08_semigroup_and_conservation():
    gen = builtin_graph("example-2.2")
    # semigroup law
    atol = 1e-8
    cfg = SimConfig(t_max=5.0, sample_times=[2.0, 5.0], rtol=1e-10, atol=atol,
                    c_speed=8.0)
    direct = evolve(gen, {(0,): 1.0}, cfg, part="full")
    cfg2 = SimConfig(t_max=3.0, sample_times=[3.0], rtol=1e-10, atol=atol,
                     c_speed=8.0)
    relay = evolve(gen, direct.state_at(2.0), cfg2, part="full")
    end_a, end_b = direct.state_at(5.0), relay.state_at(3.0)
    law_diff = max(abs(end_b.value_at(v) - end_a.value_at(v))
                   for v in end_a.ball.vertices)
    assert law_diff <= 20 * atol

    # symmetric mass conservation
    z2 = builtin_graph("z-lattice", d=2)
    cfg3 = SimConfig(t_max=6.0, sample_times=[0.0, 3.0, 6.0], rtol=1e-8,
                     atol=1e-10, c_speed=8.0)
    res = evolve(z2, {(0, 0): 1.0}, cfg3, part="sym")
    masses = [float(s.values.sum()) for _, s in res]
    mass_drift = max(abs(m - masses[0]) for m in masses)
    assert mass_drift <= 100 * cfg3.atol

    # dense matrix-exponential oracle on a small ball
    z1 = builtin_graph("z-lattice", d=1)
    cfg4 = SimConfig(t_max=8.0, sample_times=[1.0, 4.0, 8.0], rtol=1e-10,
                     atol=1e-12, c_speed=12.0)
    res1 = evolve(z1, {(0,): 1.0}, cfg4, part="sym")
    assert len(res1.ball) <= 400
    a = TruncatedOperator(res1.ball, ("sym",)).dense("sym")
    y0 = StateVector.indicator(res1.ball, (0,)).values
    oracle_diff = max(float(np.abs(dense_expm(a * t) @ y0 - s.values).max())
                      for t, s in res1)
    assert oracle_diff <= 1e-8
    print(f"\nACCEPTANCE 08 PASS: semigroup law {law_diff:.2e} <= 20*atol; "
          f"mass drift {mass_drift:.2e} <= 100*atol; dense-exponential "
          f"disagreement {oracle_diff:.2e} <= 1e-8")


def test_criterion_09_oscillator_stability(oscillator_system,
                                           oscillator_deviation_run):
    sys_, cand = oscillator_system
    (dev, eps), elapsed = (oscillator_deviation_run.value,
                           oscillator_deviation_run.elapsed)
    t0 = time.perf_counter()
    from dirlap.oscillator import verify_phase_lock

    assert verify_phase_lock(sys_, cand, radius=5) <= 1e-12

    times, linf = trajectory_norms(dev, kind="p", p=INF)
    fit = fit_power_law(times, linf, window=(10.0, 150.0), label="linf")
    assert -1.15 <= fit.exponent <= -0.85
    _, l1 = trajectory_norms(dev, kind="p", p=1.0)
    assert max(l1) <= 5.0 * eps

    # linear-nonlinear agreement at two perturbation scales on a small ball
    ts = [float(t) for t in np.linspace(0.5, 6.0, 12)]
    cfg = SimConfig(t_max=6.0, sample_times=ts, rtol=1e-11, atol=1e-13,
                    c_speed=3.0)
    lin = evolve(linearize(sys_, cand), {(0, 0): 1.0}, cfg, part="full")
    errs = {}
    for e in (0.02, 0.002):
        d = simulate_nonlinear(sys_, cand, {(0, 0): e}, cfg)
        worst = 0.0
        for t, sl in lin:
            sd = d.state_at(t)
            m = min(len(sl.values), len(sd.values))
            worst = max(worst, float(np.abs(sd.values[:m] -
                                            e * sl.values[:m]).max()))
        errs[e] = worst
    shrinkage = errs[0.02] / errs[0.002]
    # the sine interaction is odd around the zero-lag lock, so the shrinkage
    # is at least the generic quadratic rate (here it is in fact cubic)
    assert shrinkage >= 100.0 / 3.0
    elapsed += time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 09 PASS: deviation exponent {fit.exponent:+.4f}, "
          f"max|dev|_1/eps={max(l1)/eps:.3f} <= 5, error shrinkage x{shrinkage:.0f} "
          f"({elapsed:.0f}s)")


def test_criterion_10_poincare_estimator_sanity():
    z2 = builtin_graph("z-lattice", d=2)
    values = [estimate_poincare(z2, (0, 0), r).value for r in (2, 4, 8)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert max(values) / min(values) <= 3.0
    k2 = estimate_poincare(k2_generator(), (0,), 1)
    assert abs(k2.value - 0.25) <= 1e-10
    print(f"\nACCEPTANCE 10 PASS: plane-lattice estimates {values[0]:.3f}/"
          f"{values[1]:.3f}/{values[2]:.3f} within factor 3; two-vertex "
          f"eigenproblem matches 1/4 to {abs(k2.value - 0.25):.1e}")
