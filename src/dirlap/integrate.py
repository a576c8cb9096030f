"""Time propagation for the truncated flows: Runge-Kutta, uniformization and Lanczos.

``integrate`` is the Dormand-Prince 5(4) embedded pair (Dormand & Prince,
J. Comput. Appl. Math. 6:19, 1980) with a standard PI step-size controller.
The seven stages of a step are the rows of one ``(7, n)`` array, and each
stage input is one product of a tableau row with the earlier stages; for a
linear ``f = A y`` a step is the method's stability polynomial applied to
``hA`` (Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations
I*).  Three features matter for the truncated-domain simulations:

* accepted steps are clipped so that every requested sample time is hit
  exactly (no interpolation);
* given ``flux``, the run sums a boundary-flux bound over its accepted
  steps, which the truncated flows read as their truncation bound;
* on a BFS-ordered ball vector the run works on the live prefix.  After
  every accepted step it finds the last entry above ``tau = 1e-10 * atol``
  (``_WINDOW_TOL``); the window runs to that entry's shell plus 8 shells,
  grows 16 shells at a time and never shrinks.  The state and the stages
  are written on the window alone, the error norm still divides by the
  full length, and the samples are exact zeros past the window.  What is
  dropped starts at most ``tau``, so a flow that contracts the sup norm
  loses about ``steps * tau`` at most.

All three propagators work on row prefixes of a BFS-ordered ball, with one
contract: a callback gets a full-length vector, zero past ``rows``, and
returns the first ``rows`` entries of its result.  ``rtol`` steers only
``integrate``, which the truncated flows run for nonlinear flows and for
linear ones with a negative weight.

``uniformize`` computes ``exp(tA) y0`` for a Metzler ``A`` with zero row
sums, such as a graph Laplacian with no negative weight, by the
uniformization series (Jensen, Skand. Aktuarietidskr. 36:87, 1953): for
``rate`` at least every ``|a_vv|``, ``P = I + A / rate`` is row-stochastic
and ``exp(tA) y0 = sum_k Poisson(k; rate t) P^k y0``.  One term costs one
product with ``P``, one run serves every sample time with its own Poisson
weights, and the weights left out of each sample's window carry at most
``_POISSON_TAIL`` of the mass, so there is no step control and no ``rtol``.
Term ``k`` of a graph operator vanishes ``k`` shells past ``y0``'s support.

``lanczos_expm`` computes ``exp(tA) y0`` for a symmetric ``A`` at every
sample time from one Lanczos basis.  It needs no step controller: each
result is within ``atol`` by Saad's a-posteriori estimate (SIAM J. Numer.
Anal. 29:209, 1992).  For a graph operator the m-step basis from ``y0``
stays within ``m - 1`` hops of ``y0``'s support, so on a ball that holds
that reach the basis and the estimate are those of the infinite graph; the
dimension, and so the reach, grows like ``sqrt(t |A|)`` (Hochbruck &
Lubich, SIAM J. Numer. Anal. 34:1911, 1997), about 90 on the plane lattice
at t = 40.  Given a BFS-ordered ball's shell ends, the recurrence works on
that reach alone: the j-th vector is zero past the shell ``j - 1`` beyond
the start vector's last nonzero, so step j multiplies, dots, normalizes and
updates only the rows to the end of the next shell, a prefix that grows by
one shell per step.  Each prefix is rounded up to whole ``_PREFIX_ALIGN``
blocks, so the run is bit-identical to the full-length one on one BLAS
thread.  The ball may grow with the run: it need only hold the next shell
when a step asks for it.  The recurrence runs once, and each basis
vector's prefix is kept for the samples.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import StepSizeError

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6:19,
# 1980).  Row i of _A weights the stages of stage i + 1; row 6 is the
# 5th-order solution, so the last stage is evaluated at it (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0] * 7,
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _A[6] - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 1_000_000

# The live window of integrate: entries at most _WINDOW_TOL * atol count as
# dead, the window keeps _WINDOW_MARGIN shells past the last live one and
# grows by _WINDOW_GROWTH shells (read at call time).
_WINDOW_TOL = 1e-10
_WINDOW_MARGIN = 8
_WINDOW_GROWTH = 16


# Lanczos: largest Krylov dimension of one basis before a restart, how many
# steps pass between error estimates, and how many kept basis vectors are
# added into the samples at once.
_MAX_KRYLOV_DIM = 256
_CHECK_EVERY = 8
_BLOCK = 8

# uniformize: the Poisson mass that each sample's window of terms leaves out
_POISSON_TAIL = 1e-16

# With shell ends, every Lanczos prefix is rounded up to a multiple of this
# many entries, capped at the vector's length.  BLAS dot kernels sum in
# fixed-width blocks, so a prefix of whole blocks sums the same entries in
# the same order as the full-length call did over a vector that is zero past
# it: the run is bit-identical to one without shell ends (on one BLAS
# thread, which _one_blas_thread gives every run; a threaded dot splits the
# two lengths differently).
_PREFIX_ALIGN = 64


@functools.cache
def _openblas() -> tuple:
    """``(set, get)`` thread-count functions of each OpenBLAS in ``numpy.libs/``
    and ``scipy.libs/`` that is loaded; ``import dirlap`` loads both wheels'."""
    if not hasattr(os, "RTLD_NOLOAD"):  # not a dlopen platform
        return ()
    found = []
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, package.__name__ + ".libs", "*openblas*"))):
            try:  # RTLD_NOLOAD: only a library that is loaded already
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads"):
                if hasattr(lib, name.format("set")):
                    set_count, get_count = lib[name.format("set")], lib[name.format("get")]
                    set_count.argtypes, set_count.restype = [ctypes.c_int], None
                    get_count.argtypes, get_count.restype = [], ctypes.c_int
                    found.append((set_count, get_count))
                    break
    return tuple(found)


class _OneBlasThread(contextlib.ContextDecorator):
    """Run a block, or each call of a decorated function, on one thread of
    every loaded OpenBLAS.  The first entry saves each library's count and
    sets 1, which every thread of the process then gets; the last exit, also
    on an error, restores the saved counts, so nested and concurrent calls
    never leave them at 1.  Without an OpenBLAS (``_openblas()`` empty) it
    does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_count, get_count()) for set_count, get_count in _openblas()]
                for set_count, _ in self._saved:
                    set_count(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_count, count in self._saved:
                    set_count(count)


_one_blas_thread = _OneBlasThread()


@dataclass
class IntegrationResult:
    """Samples of a propagation and what it cost.

    For ``integrate`` the steps are the accepted step sizes and ``n_steps``
    counts them.  For ``uniformize`` there are no steps and ``n_steps``
    counts the series terms.  For ``lanczos_expm`` each step is the time
    span covered by one Krylov basis, ``n_steps`` is the Krylov dimension
    (summed over the bases when the dimension cap forced a restart) and
    nothing is rejected.  ``integrate`` and ``uniformize`` set ``bound``,
    the flux bound their ``flux`` argument sums (0.0 without it), which the
    truncated flows report as ``richardson_diff``.
    """

    samples: list  # (t, y) pairs at the requested sample times
    steps: np.ndarray
    n_steps: int
    n_rejected: int
    bound: float = 0.0


def _checked_times(sample_times: Sequence[float]) -> list[float]:
    times = [float(t) for t in sample_times]
    if not all(0 <= t < math.inf for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be finite, nonnegative and sorted")  # NaN fails too
    if not times:
        raise ValueError("need at least one sample time")
    return times


def _checked_start(y0: np.ndarray) -> np.ndarray:
    """``y0`` as a new float array; a non-finite entry raises ``ValueError``."""
    y = np.array(y0, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"initial value y0[{bad[0]}] = {y[bad[0]]} is not finite")
    return y


def _rms(x: np.ndarray, n: int) -> float:
    """Root mean square of ``x`` padded with zeros to length ``n``."""
    return float(np.sqrt(np.sum(x ** 2) / n)) if n else 0.0


def _initial_step(f, t0, y0, f0, rtol, atol, t_span, rows):
    n = y0.size
    scale = atol + rtol * np.abs(y0[:rows])
    d0 = _rms(y0[:rows] / scale, n)
    d1 = _rms(f0 / scale, n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0.copy()
    y1[:rows] += h0 * f0
    f1 = f(t0 + h0, y1, rows)
    d2 = _rms((f1 - f0) / scale, n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


def _step(f, t, y, h, k, rows):
    """One Dormand-Prince step from ``y``, zero past ``rows``, whose derivative ``k[0]`` holds.

    Fills the stages ``k[1:, :rows]`` and returns ``y_new``, zero past ``rows``,
    and the error's first ``rows`` entries; ``k[6]`` is ``f(y_new)`` (FSAL).
    """
    yi = np.zeros(y.size)
    for i in range(1, 7):
        # h scales the i weights, not the sum over the window
        np.add(y[:rows], (h * _A[i, :i]) @ k[:i, :rows], out=yi[:rows])
        k[i, :rows] = f(t + _C[i] * h, yi, rows)
    return yi, (h * _ERR) @ k[:, :rows]


def _window_shells(y: np.ndarray, ends: np.ndarray, last: int, tau: float) -> int:
    """The last shell of the live window of ``y``, grown from ``last``.

    ``ends[r]`` counts the entries of shells 0..r of the BFS-ordered vector.
    The window reaches ``_WINDOW_MARGIN`` shells past the last entry above
    ``tau``: first exactly that far (``last`` < 0), then by whole
    ``_WINDOW_GROWTH``-shell chunks, and never past the last shell.
    """
    live = np.flatnonzero(np.abs(y) > tau)
    need = _WINDOW_MARGIN + (int(np.searchsorted(ends, live[-1], side="right"))
                             if live.size else 0)
    if need > last:
        last = need if last < 0 else \
            last + _WINDOW_GROWTH * -(-(need - last) // _WINDOW_GROWTH)
    return min(last, len(ends) - 1)


def integrate(f: Callable[[float, np.ndarray, int], np.ndarray], y0: np.ndarray,
              sample_times: Sequence[float], rtol: float = 1e-8, atol: float = 1e-10,
              flux: Callable[[float, np.ndarray, float], tuple[float, float]] | None = None,
              shell_ends: np.ndarray | None = None) -> IntegrationResult:
    """Integrate ``y' = f(t, y, rows)`` from 0, sampling at the given times.

    ``sample_times`` must be nondecreasing and nonnegative; a leading 0 is
    sampled from the initial state.  A run that needs more than
    ``_MAX_STEPS`` accepted steps, or whose step falls below ``1e-14 *
    max(1, t)`` or is not finite (as from a NaN state or derivative),
    raises ``StepSizeError``.

    ``flux(t, y, bound)`` runs after every accepted step, once the window
    has grown and before the step's samples, and may raise to abort.  It
    returns ``|flux|_inf`` and ``mu >= 0`` at the accepted state, given the
    bound so far, and the result's ``bound`` sums ``int_0^t exp(mu (t - s))
    |flux(s)|_inf ds``: a step of length ``h``, the difference of the
    accepted step ends, multiplies the sum by ``exp(mu h)`` and adds ``h
    exp(mu h)`` times the larger flux norm of its two ends (0 before the
    first), which bounds the step's share while the norm is monotone over
    it.  (The trapezoid rule fell short of the two-run disagreement by up to
    1e-4 relative where the flux feeds one cut row with one sign, so that
    the bound is tight.)  With ``mu >= 0`` the sum never falls, so its last
    value holds at every sample time.

    ``shell_ends`` are a BFS-ordered ball's shell-end offsets (entry ``r``
    counts the vertices within distance ``r``).  With them the run works on
    the live window of the module docstring, ``rows`` being its end: ``f``
    gets the full-length state or stage input, zero past ``rows``, and
    returns the first ``rows`` entries of the derivative, and ``flux`` gets
    the full-length state.  ``rows`` never falls; without shell ends it is
    the vector's length.
    """
    times = _checked_times(sample_times)
    t_end = times[-1]

    y = np.array(y0, dtype=float)
    n = y.size
    t = 0.0
    samples = [(ts, y.copy()) for ts in times if ts <= 0.0]  # the times are sorted
    next_idx = len(samples)
    if next_idx == len(times):
        return IntegrationResult(samples, np.array([]), 0, 0)

    # without shell ends the vector is one shell, so the window is all of it
    ends = np.array([n]) if shell_ends is None else np.asarray(shell_ends)
    tau = _WINDOW_TOL * atol
    last = _window_shells(y, ends, -1, tau)
    rows = int(ends[last])
    y[rows:] = 0.0
    k = np.zeros((7, n))  # zero past the window, which only grows
    k[0, :rows] = f(t, y, rows)
    taken: list[float] = []
    n_rejected = 0
    h = _initial_step(f, t, y, k[0, :rows], rtol, atol, t_end, rows)
    err_prev = 1.0
    bound = flux_prev = 0.0

    while next_idx < len(times):
        if len(taken) >= _MAX_STEPS:
            raise StepSizeError(f"exceeded {_MAX_STEPS} steps at t={t:.6g}")
        h_try = min(h, t_end - t)
        # land exactly on the next sample time
        if t + h_try > times[next_idx] - 1e-14 * max(1.0, times[next_idx]):
            h_try = times[next_idx] - t
        if not h_try > 1e-14 * max(1.0, t):  # a NaN step fails too
            raise StepSizeError(f"step size underflow or not finite at t={t:.6g}")

        y_new, err_vec = _step(f, t, y, h_try, k, rows)
        scale = atol + rtol * np.maximum(np.abs(y[:rows]), np.abs(y_new[:rows]))
        err = _rms(err_vec / scale, n)
        if not err <= 1.0:  # a NaN error rejects too
            # t and y are unchanged, so the FSAL stage k[0] stays valid
            n_rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        else:
            err = max(err, 1e-10)
            factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA
            h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = err
            t_prev, t = t, t + h_try
            y = y_new
            taken.append(h_try)
            grown = last if last == len(ends) - 1 else _window_shells(y[:rows], ends, last, tau)
            if grown > last:
                last, rows = grown, int(ends[grown])
                k[0, :rows] = f(t, y, rows)
            else:
                k[0, :rows] = k[6, :rows]
            if flux is not None:
                g, mu = flux(t, y, bound)
                dt = t - t_prev
                bound = math.exp(mu * dt) * (bound + dt * max(flux_prev, g))
                flux_prev = g
            while next_idx < len(times) and t >= times[next_idx] - 1e-12 * max(1.0, t):
                samples.append((times[next_idx], y.copy()))
                next_idx += 1

    return IntegrationResult(samples, np.array(taken), len(taken), n_rejected, bound)


class _PoissonWeights:
    """``Poisson(k; lam)`` for each of an array of ``lam``, over its window of terms.

    A window leaves out at most half of ``_POISSON_TAIL`` on either side,
    and ``first`` and ``last`` hold the windows' ends.  The weights are
    taken in log space, so ``exp(-lam)`` never underflows (Fox & Glynn, CACM
    31:440, 1988).  By Bennett's inequality at most ``exp(-40)`` of the mass
    lies farther than ``sqrt(80 lam) + 27`` from ``lam`` on either side, so
    each window is found within that range.
    """

    def __init__(self, lams: np.ndarray):
        self.lams = lams
        spread = np.sqrt(80.0 * lams) + 27.0
        self.lgam = np.array([math.lgamma(i + 1.0)
                              for i in range(int(np.max(lams + spread)) + 1)])
        with np.errstate(divide="ignore"):  # lam = 0 has all its mass at k = 0
            self.logs = np.log(lams)
        self.first = np.zeros(lams.size, dtype=int)
        self.last = np.zeros(lams.size, dtype=int)
        for i, (lam, r) in enumerate(zip(lams.tolist(), spread.tolist())):
            lo = max(0, int(lam - r))
            w = self._terms(slice(i, i + 1), lo, int(lam + r) + 1)[0]
            kept = np.flatnonzero((np.cumsum(w) > _POISSON_TAIL / 2)
                                  & (np.cumsum(w[::-1])[::-1] > _POISSON_TAIL / 2))
            self.first[i], self.last[i] = lo + kept[0], lo + kept[-1]

    def _terms(self, rows: slice, lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo, hi)
        with np.errstate(invalid="ignore"):
            logw = np.where(k == 0, 0.0, k * self.logs[rows, None])
        return np.exp(logw - self.lams[rows, None] - self.lgam[lo:hi])

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        """The weights of the terms ``lo`` to ``hi - 1`` (columns) for each ``lam`` (rows).

        A weight outside its ``lam``'s window is 0.
        """
        w = self._terms(slice(None), lo, hi)
        k = np.arange(lo, hi)
        w[(k < self.first[:, None]) | (k > self.last[:, None])] = 0.0
        return w


def uniformize(matvec: Callable[[np.ndarray, int], np.ndarray], rate: float, y0: np.ndarray,
               sample_times: Sequence[float],
               flux: Callable[[np.ndarray], np.ndarray] | None = None,
               shell_ends: np.ndarray | None = None) -> IntegrationResult:
    """``exp(tA) y0`` at every sample time by the uniformization series.

    ``A`` is a Metzler matrix with zero row sums whose every ``|a_vv|`` is
    at most ``rate``, and ``matvec(v, rows)`` returns ``(P v)[:rows]`` for the
    row-stochastic ``P = I + A / rate``, so that ``y_{k+1} = P y_k = y_k +
    A y_k / rate``.  The terms are added into one ``(samples, n)`` array a
    block of ``_BLOCK`` at a time, with their weights from
    ``_PoissonWeights(rate * t)``, each block into the samples whose
    windows it meets; a sample at time 0 is then an exact copy of ``y0``,
    and ``rate`` 0 leaves every sample so.  ``flux(terms)``, called once per
    block with the block's terms as rows, returns one nonnegative number
    ``f_k`` per term, and the result's ``bound`` is the largest ``sum_k
    w_k(t) E_k`` over the sample times, for ``E_k = f_0 + ... + f_{k-1}``:
    the weighted flux sum ``F``.  A non-finite entry of ``y0`` raises
    ``ValueError``, and ``rate * t`` above ``_MAX_STEPS`` raises
    ``StepSizeError``, before the first term.

    ``shell_ends`` are a BFS-ordered ball's shell-end offsets, as for
    ``integrate``, and ``A`` is then a graph operator on that ball.  With
    them, ``y_k`` vanishes past the shell ``s + k`` for ``y0``'s last
    nonzero shell ``s``, so term ``k``'s product asks for the rows to the
    end of shell ``s + k + 1``, and the blocks are added over those prefixes
    alone.  Without them ``rows`` is ``n``.
    """
    times = _checked_times(sample_times)
    y = _checked_start(y0)
    n = y.size
    lams = rate * np.array(times)
    if lams[-1] > _MAX_STEPS:  # the times are sorted
        raise StepSizeError(f"the series to t={times[-1]:.6g} needs more than {_MAX_STEPS} terms")
    weights = _PoissonWeights(lams)
    last = int(weights.last.max())
    ends = [n] if shell_ends is None else list(shell_ends)
    nz = np.flatnonzero(y)
    shell = int(np.searchsorted(ends, nz[-1], side="right")) if nz.size else 0
    out = np.zeros((len(times), n))
    # the terms, y_k in row k % _BLOCK; a row is zero past the prefix it was
    # last written with, and the prefixes only grow
    block = np.zeros((min(_BLOCK, last + 1), n))
    block[0] = y
    sums, e = np.zeros(len(times)), 0.0
    for k in range(last + 1):
        if k % _BLOCK == _BLOCK - 1 or k == last:
            lo = k - k % _BLOCK
            reach = ends[min(shell + k, len(ends) - 1)]  # y_k vanishes past it
            w = weights(lo, k + 1)
            live = np.flatnonzero(w.any(axis=1))  # the samples whose windows meet the block
            if live.size:
                hit = slice(live[0], live[-1] + 1)
                out[hit, :reach] += w[hit] @ block[:k + 1 - lo, :reach]
            if flux is not None:
                f = flux(block[:k + 1 - lo])
                sums += w @ (e + np.cumsum(f) - f)
                e += float(f.sum())
        if k < last:
            rows = ends[min(shell + k + 1, len(ends) - 1)]
            block[(k + 1) % _BLOCK, :rows] = matvec(block[k % _BLOCK], rows)
    return IntegrationResult([(t, row) for t, row in zip(times, out)], np.array([]),
                             last + 1, 0, float(sums.max()))


def _lanczos(matvec, v: np.ndarray, prefixes):
    """Plain three-term Lanczos recurrence from the unit vector ``v``.

    Yields ``(v_j, alpha_j, beta_j)`` for j = 1, 2, ..., where ``beta_j``
    couples ``v_j`` to ``v_{j+1}``, and stops after a zero ``beta_j`` (the
    basis spans an invariant subspace).  ``prefixes`` yields ``(p_0, n_0),
    (p_1, n_1), ...``: ``v`` vanishes past ``p_0``, and step j asks
    ``matvec(v_j, p_j)`` for the first ``p_j`` entries of ``A v_j``, which
    must hold its whole support, with ``v_j`` of length ``n_j``, which never
    falls.  Every update, dot and norm of step j runs over those entries,
    and ``v_j`` is yielded as its first ``p_{j-1}`` entries, a view that the
    step after next overwrites.  The vectors live in buffers of length
    ``n_j`` that are zero past their prefix, so ``matvec`` may read any
    column; the same inputs give bit-identical vectors on every run.
    """
    p, size = next(prefixes)
    v, v_prev, spare = _resized(v, size), np.zeros(size), np.zeros(size)
    beta_prev = 0.0
    for rows, size in prefixes:
        if size > v.size:  # the ball grew past the buffers
            v, v_prev, spare = (_resized(x, size) for x in (v, v_prev, spare))
        w = matvec(v, rows)
        w -= beta_prev * v_prev[:rows]
        alpha = float(v[:rows] @ w)
        w -= alpha * v[:rows]
        beta = float(np.linalg.norm(w))
        yield v[:p], alpha, beta
        if beta == 0.0:
            return
        # the prefixes never shrink, so this overwrites all of spare's old entries
        np.divide(w, beta, out=spare[:rows])
        v_prev, v, spare, p, beta_prev = v, spare, v_prev, rows, beta


def _resized(x: np.ndarray, n: int) -> np.ndarray:
    """A new array of ``x``'s first ``n`` entries, zeros past ``x``."""
    out = np.zeros(n)
    out[:min(n, x.size)] = x[:n]
    return out


def _tridiagonal_expm(alphas, betas, taus) -> tuple[np.ndarray, np.ndarray]:
    """``exp(tau T) e_1`` for each tau (columns) and Saad's error factors.

    The factor for tau is ``|e_m^T tau phi_1(tau T) e_1|`` with
    ``phi_1(x) = (e^x - 1) / x``: times ``beta_m |y0|`` it is the leading
    term of the error of the Krylov approximation.  When ``A`` has zero
    column sums, the mass error is exactly that product times
    ``1^T v_{m+1}``; the cruder factor ``|e_m^T exp(tau T) e_1|`` falls
    short of it by up to a factor tau.
    """
    lam, q = scipy.linalg.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[:-1]))
    x = np.outer(lam, taus)
    phi1 = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    weights = q * q[0]
    return weights @ np.exp(x), np.abs(weights[-1] @ phi1) * taus


def _first_pass(recurrence, scale, taus, tols, max_dim):
    """Run ``recurrence`` until the estimate meets ``tols`` at every tau.

    ``scale`` is ``|y0|`` and ``tols[i]`` the tolerance for ``taus[i]``.
    Returns a copy of each basis vector's prefix, the alphas and betas, the
    columns ``exp(tau T) e_1`` for ``taus``, and a mask of the taus whose
    estimate meets its tolerance (all of them unless ``max_dim`` was
    reached first).
    """
    basis, alphas, betas = [], [], []
    for j, (vj, alpha, beta) in enumerate(recurrence, 1):
        basis.append(vj.copy())
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or j == max_dim or j % _CHECK_EVERY == 0:
            coefs, factors = _tridiagonal_expm(alphas, betas, taus)
            # an invariant subspace makes the approximation exact
            met = (beta * scale * factors <= tols) | (beta == 0.0)
            if met.all() or j == max_dim:
                return basis, alphas, betas, coefs, met


def _combine(basis: list, n: int, coefs) -> list[np.ndarray]:
    """``V_m @ c`` for each column ``c`` of ``coefs``, each its own array of length ``n``.

    The basis vectors, each its prefix, are added into the results a block
    of ``_BLOCK`` at a time, and a block spans the prefix of its last
    vector: on a BFS-ordered ball that is the Krylov reach, so the pages
    past it are never written.
    """
    m = len(basis)
    outs = [np.zeros(n) for _ in range(coefs.shape[1])]
    block = np.zeros((min(_BLOCK, m), n))
    for lo in range(0, m, _BLOCK):
        group = basis[lo:lo + _BLOCK]
        # a block row is zero past the prefix it was last written with, which only grows
        for i, vj in enumerate(group):
            block[i, :vj.size] = vj
        k, reach = len(group), group[-1].size
        for out, c in zip(outs, coefs[lo:lo + k].T):
            out[:reach] += c @ block[:k, :reach]
    return outs


def lanczos_expm(matvec: Callable[[np.ndarray, int], np.ndarray], y0: np.ndarray,
                 sample_times: Sequence[float], atol: float = 1e-10,
                 shell_ends=None) -> IntegrationResult:
    """``exp(tA) y0`` at every sample time for a symmetric ``A``.

    ``matvec(v, rows)`` returns ``(A v)[:rows]`` as a new array, ``rows``
    being ``n`` without ``shell_ends``.  One pass runs the Lanczos
    recurrence, keeping a copy of each basis vector's prefix and the
    tridiagonal coefficients, until Saad's estimate ``beta_m |y0| |e_m^T
    tau phi_1(tau T_m) e_1|`` meets the tolerance at every sample time
    (checked every few steps); then the kept vectors are added into every
    sample.  If ``_MAX_KRYLOV_DIM`` vectors do not meet it, the run restarts
    from the last sample time they do reach (Sidje 1998, Expokit), or from
    the longest halving of the span to the next sample time when they reach
    none; ``StepSizeError`` is raised when not even 1/1024 of that span is
    reached.  As in Expokit, a segment of length ``tau`` from a restart
    point gets the share ``atol * tau / t_end`` of the tolerance, so the
    estimated errors of the segments before any sample time add up to at
    most ``atol`` (the flow of a symmetric negative semidefinite ``A`` does
    not amplify them).  Samples at time 0 are exact copies of ``y0``, and a
    zero ``y0`` gives zeros.  A non-finite entry of ``y0`` raises
    ``ValueError`` before the recurrence starts.

    ``shell_ends`` are a BFS-ordered ball's shell-end offsets, as for
    ``integrate``, and ``A`` is then a graph operator on that ball, whose
    rows reach one shell out.  With them every segment works on prefixes:
    its start vector vanishes past the shell ``s`` of its last nonzero, so
    ``v_j`` vanishes past shell ``s + j - 1``, and step j's ``rows`` are the
    end of shell ``s + j``, rounded up to a multiple of ``_PREFIX_ALIGN``
    and capped at the vectors' length.  For a ball that grows with the run,
    ``shell_ends`` is instead a callable ``grow(k) -> (ends, n)``: it grows
    the ball to radius ``k`` (or its whole component) before step j asks
    for shell ``k = s + j``, and returns its shell ends and the length
    ``n`` of the vectors ``matvec`` takes from then on, which never falls
    and is at least every ``rows``.  The vectors, and the samples, have the
    length ``n`` had when they were made; ``y0`` is zero-padded to the
    first ``n``.
    """
    max_dim = _MAX_KRYLOV_DIM
    times = _checked_times(sample_times)
    y = _checked_start(y0)
    grow = shell_ends
    if not callable(shell_ends):
        static = (np.array([y.size]) if shell_ends is None else np.asarray(shell_ends), y.size)

        def grow(k):
            return static
    if grow(0)[1] > y.size:
        y = _resized(y, grow(0)[1])
    samples = []
    spans: list[float] = []
    n_steps = 0
    t0 = 0.0
    k = 0  # next sample to produce
    while True:
        while k < len(times) and times[k] <= t0:
            samples.append((times[k], y.copy()))
            k += 1
        nrm = float(np.linalg.norm(y))
        if k < len(times) and nrm == 0.0:
            samples.extend((t, y.copy()) for t in times[k:])
            k = len(times)
        if k == len(times):
            return IntegrationResult(samples, np.array(spans), n_steps, 0)
        v = y / nrm
        shell = int(np.searchsorted(grow(0)[0], np.flatnonzero(v)[-1], side="right"))

        def prefixes():  # v's last nonzero shell, then one more per step
            for j in itertools.count():
                # the run takes every step to the next estimate, so the ball
                # grows that far at once
                ends, n = grow(shell + min(-(-j // _CHECK_EVERY) * _CHECK_EVERY, max_dim))
                # the shell's end, rounded up to whole blocks (see _PREFIX_ALIGN)
                end = int(ends[min(shell + j, len(ends) - 1)])
                yield min(-(-end // _PREFIX_ALIGN) * _PREFIX_ALIGN, n), n

        taus = np.array(times[k:]) - t0
        basis, alphas, betas, coefs, met = _first_pass(
            _lanczos(matvec, v, prefixes()), nrm, taus, atol * taus / times[-1], max_dim)
        reached = len(taus) if met.all() else int(np.argmin(met))
        if reached:
            span = taus[reached - 1]
            coefs = coefs[:, :reached]
        else:
            halves = taus[0] * 0.5 ** np.arange(1, 11)
            _, factors = _tridiagonal_expm(alphas, betas, halves)
            good = np.nonzero(betas[-1] * nrm * factors <= atol * halves / times[-1])[0]
            if not good.size:
                raise StepSizeError(f"Lanczos exponential makes no progress at "
                                    f"t={t0:.6g} with {max_dim} basis vectors")
            span = halves[good[0]]
            coefs, _ = _tridiagonal_expm(alphas, betas, [span])
        outs = _combine(basis, grow(0)[1], nrm * coefs)
        n_steps += len(alphas)
        spans.append(float(span))
        samples.extend(zip(times[k:k + reached], outs))
        k += reached
        t0 = times[k - 1] if reached else t0 + float(span)
        y = outs[-1]
