"""Adaptive integrator accuracy, sampling, and replay."""

import numpy as np
import pytest

import dirlap.integrate as integrate_module
from dirlap.errors import StepSizeError
from dirlap.integrate import integrate


def test_exponential_decay_accuracy():
    res = integrate(lambda t, y: -y, np.array([1.0]), [0.5, 1.0, 3.0, 10.0],
                    rtol=1e-10, atol=1e-12)
    for t, y in res.samples:
        assert y[0] == pytest.approx(np.exp(-t), abs=1e-9)


def test_cosine_forcing():
    res = integrate(lambda t, y: np.array([np.cos(t)]), np.array([0.0]),
                    [1.0, 2.0, 6.0], rtol=1e-9, atol=1e-12)
    for t, y in res.samples:
        assert y[0] == pytest.approx(np.sin(t), abs=1e-8)


def test_sample_times_hit_exactly():
    wanted = [0.0, 0.3, 1.7, 2.0]
    res = integrate(lambda t, y: -0.5 * y, np.array([2.0]), wanted)
    assert [t for t, _ in res.samples] == wanted


def test_initial_sample_is_initial_state():
    res = integrate(lambda t, y: -y, np.array([3.0, -1.0]), [0.0, 1.0])
    t0, y0 = res.samples[0]
    assert t0 == 0.0
    assert y0.tolist() == [3.0, -1.0]


def test_replay_reproduces_exactly():
    rhs = lambda t, y: np.array([-y[0], 0.3 * y[0] - y[1]])
    y0 = np.array([1.0, 0.5])
    base = integrate(rhs, y0, [0.7, 2.2, 5.0], rtol=1e-8, atol=1e-11)
    again = integrate(rhs, y0, [0.7, 2.2, 5.0], replay=base.steps)
    assert again.steps.tolist() == base.steps.tolist()
    for (_, ya), (_, yb) in zip(base.samples, again.samples):
        assert np.array_equal(ya, yb)


def test_replay_on_augmented_system():
    # the replayed system may have extra components; shared ones agree
    rhs1 = lambda t, y: -y
    rhs2 = lambda t, y: np.concatenate([-y[:1], [-2.0 * y[1]]])
    base = integrate(rhs1, np.array([1.0]), [1.0, 4.0], rtol=1e-9, atol=1e-12)
    big = integrate(rhs2, np.array([1.0, 1.0]), [1.0, 4.0], replay=base.steps)
    for (_, ya), (_, yb) in zip(base.samples, big.samples):
        assert yb[0] == pytest.approx(ya[0], abs=1e-14)


def test_step_budget(monkeypatch):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 10)
    with pytest.raises(StepSizeError):
        integrate(lambda t, y: -1000.0 * y, np.array([1.0]), [50.0],
                  rtol=1e-10, atol=1e-13)


def test_bad_sample_times():
    with pytest.raises(ValueError):
        integrate(lambda t, y: -y, np.array([1.0]), [2.0, 1.0])
    with pytest.raises(ValueError):
        integrate(lambda t, y: -y, np.array([1.0]), [-1.0, 1.0])


def test_rejections_tracked_on_abrupt_problem():
    # forcing with a sharp knee makes at least one step get rejected
    def rhs(t, y):
        return np.array([1.0 / (1e-3 + abs(t - 1.0))])

    res = integrate(rhs, np.array([0.0]), [2.0], rtol=1e-8, atol=1e-10)
    assert res.n_steps > 10
    assert res.n_rejected >= 1


def test_step_callback_runs_and_can_abort():
    seen = []

    def cb(t, y):
        seen.append(t)
        if t > 0.5:
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError):
        integrate(lambda t, y: -y, np.array([1.0]), [2.0], step_callback=cb)
    assert seen
