"""dirlap's calls run on one OpenBLAS thread and give the caller's count back.

The counts are read from inside the calls by a graph callback, through the
same ``(set, get)`` pairs that ``integrate._openblas`` finds.
"""

import os
import subprocess
import sys
import threading

import pytest

from dirlap import (OscillatorSystem, PhaseLockCandidate, SeparableCoupling,
                    SimConfig, builtin_graph, check_hypotheses, evolve,
                    simulate_nonlinear)
from dirlap import hypotheses
from dirlap.graph import GraphGenerator
from dirlap.integrate import _one_blas_thread, _openblas


class _Stop(BaseException):
    """Raised by a callback; a BaseException, as KeyboardInterrupt is."""


def counts() -> list[int]:
    return [get_count() for _, get_count in _openblas()]


@pytest.fixture
def caller_at_two():
    """Every loaded OpenBLAS set to two threads, as a caller may have it; reset after."""
    libs = _openblas()
    if not libs:
        pytest.skip("no OpenBLAS is loaded from numpy.libs/ or scipy.libs/, "
                    "so dirlap has no thread count to set")
    before = counts()
    for set_count, _ in libs:
        set_count(2)
    assert counts() == [2] * len(libs)
    yield [2] * len(libs)
    for (set_count, _), count in zip(libs, before):
        set_count(count)


def recorded(seen: list, stop: bool = False, before_read=None) -> GraphGenerator:
    """The plane lattice, read one vertex at a time; each read appends the
    thread counts to ``seen``, then runs ``before_read`` and raises ``_Stop``
    if ``stop``."""
    lattice = builtin_graph("z-lattice", d=2)

    def adjacency(v):
        seen.append(counts())
        if before_read is not None:
            before_read()
        if stop:
            raise _Stop
        return lattice.adjacency(v)

    return GraphGenerator(adjacency=adjacency, root=lattice.root, name=lattice.name)


def run_evolve(gen):
    evolve(gen, {gen.root: 1.0}, SimConfig(t_max=1.0, c_speed=2.0), part="full")


def run_simulate_nonlinear(gen):
    system = OscillatorSystem(omega=lambda v: 1.0, coupling=SeparableCoupling(gen), root=gen.root)
    cand = PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    simulate_nonlinear(system, cand, {gen.root: 0.01}, SimConfig(t_max=1.0, c_speed=2.0))


def run_check_hypotheses(gen):
    check_hypotheses(gen, r_min=2, r_max=5, max_shells=4)


CALLS = [run_evolve, run_simulate_nonlinear, run_check_hypotheses]
IDS = ["evolve", "simulate_nonlinear", "check_hypotheses"]


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_a_call_runs_on_one_thread_and_gives_the_count_back(caller_at_two, call):
    seen = []
    call(recorded(seen))
    assert seen and all(c == [1] * len(caller_at_two) for c in seen)
    assert counts() == caller_at_two


@pytest.mark.parametrize("call", CALLS, ids=IDS)
def test_the_count_comes_back_after_an_exception(caller_at_two, call):
    seen = []
    with pytest.raises(_Stop):
        call(recorded(seen, stop=True))
    assert seen == [[1] * len(caller_at_two)]
    assert counts() == caller_at_two


def test_a_nested_call_keeps_one_thread_until_the_outermost_exits(caller_at_two, monkeypatch):
    # check_hypotheses calls estimate_poincare, itself limited, three times; the
    # skew scan reads the graph after the last of them has returned
    seen, marks = [], []
    inner = hypotheses.estimate_poincare

    def poincare(*args):
        result = inner(*args)
        marks.append((len(seen), counts()))
        return result

    monkeypatch.setattr(hypotheses, "estimate_poincare", poincare)
    run_check_hypotheses(recorded(seen))
    one = [1] * len(caller_at_two)
    assert [c for _, c in marks] == [one] * 3
    assert len(seen) > marks[-1][0]
    assert all(c == one for c in seen)
    assert counts() == caller_at_two


def test_concurrent_calls_give_the_count_back_when_both_are_done(caller_at_two):
    # both threads enter evolve; the second reads on only once the first has
    # returned, so its later reads show that the first exit kept the limit
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    errors = []

    def wait(name):
        def before_read():
            if len(seen[name]) == 1:
                both_inside.wait()
            if name == "second" and len(seen[name]) == 2 and not first_done.wait(60):
                raise TimeoutError("the first call did not return")
        return before_read

    def run(name):
        try:
            run_evolve(recorded(seen[name], before_read=wait(name)))
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)
        finally:
            if name == "first":
                first_done.set()

    threads = [threading.Thread(target=run, args=(name,)) for name in seen]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors and not any(t.is_alive() for t in threads)
    one = [1] * len(caller_at_two)
    assert len(seen["second"]) > 2
    assert all(c == one for name in seen for c in seen[name])
    assert counts() == caller_at_two


def test_many_threads_entering_at_once_never_lose_the_count(caller_at_two):
    # more threads than cores, switching often, in rounds that each start from
    # no call running: a lost update of the depth or of the saved counts shows
    # as a count of 2 inside a call or of 1 after the round
    one = [1] * len(caller_at_two)

    def enter_and_leave(inside, errors):
        try:
            for _ in range(2000):
                with _one_blas_thread:
                    inside.append(counts() == one)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            inside, errors = [], []
            threads = [threading.Thread(target=enter_and_leave, args=(inside, errors))
                       for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors and not any(t.is_alive() for t in threads)
            assert len(inside) == 3 * 2000 and all(inside)
            assert counts() == caller_at_two
    finally:
        sys.setswitchinterval(interval)


def test_reports_do_not_depend_on_the_thread_count(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-m", "dirlap.cli", "check-hypotheses",
                        "--graph", "z-lattice", "--d", "2", "--out", str(out)],
                       check=True, env=env, timeout=300, stdout=subprocess.DEVNULL)
        reports.append((out / "hypotheses.json").read_bytes())
    assert reports[0] == reports[1]
