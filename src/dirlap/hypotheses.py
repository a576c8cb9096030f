"""Sampled estimation of the geometric hypotheses behind the decay theory.

Every quantity here is estimated on finite samples of an infinite graph, so
the reports are evidence, not proof: they disclose exactly which vertices,
radii, and shells were inspected.  The four estimators cover

* uniform polynomial volume growth (a log-log fit of ball volume vs radius),
* the local elliptic property (worst ratio of edge weight to vertex measure),
* the Poincare inequality (largest generalized Rayleigh quotient of the
  variance form against the double-ball Dirichlet form), and
* the total skew mass, accumulated shell by shell with a convergence verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import BudgetExceededError, SingularFormError
from .geometry import _walk, ball
from .graph import Vertex
from .integrate import _one_blas_thread
from .semigroup import TruncatedOperator

# check_hypotheses' ellipticity radius and Poincare radii (read at call time)
_ALPHA_RADIUS = 12
_PI_RADII = (2, 4, 8)


@dataclass
class VolumeGrowthFit:
    d_fit: float
    c_vol_low: float
    c_vol_high: float
    r_range: tuple[int, int]
    centers: list
    samples: list = field(metadata={"report": False})  # (center, r, volume)


@dataclass
class EllipticityEstimate:
    alpha: float
    witness: tuple  # (v, v') attaining the minimum
    vertices_checked: int


@dataclass
class PoincareEstimate:
    center: Vertex
    r: int
    value: float
    double_ball_size: int


@dataclass
class SkewMassEstimate:
    w_partial: float
    shells_used: int
    shells_requested: int
    tail_slope: float | None
    verdict: str  # convergent | divergent | inconclusive
    last_contributions: list[float] = field(default_factory=list)


def fit_volume_growth(gen, centers: Sequence[Vertex], r_min: int, r_max: int) -> VolumeGrowthFit:
    """Fit the volume-growth order from pooled log-log volume samples.

    ``d_fit`` is the least-squares slope of ``log Vol(v, r)`` against
    ``log r`` over every center and integer radius in range; the sandwich
    constants are the extremes of ``Vol(v, r) / r**d_fit`` over the sample,
    so the sandwich holds on the sample by construction.
    """
    if r_min < 1:
        raise ValueError("r_min must be >= 1")
    if r_max < 2 * r_min:
        raise ValueError("r_max must be at least 2 * r_min")
    if len(centers) < 3:
        raise ValueError("need at least 3 centers")

    samples = []
    for c in centers:
        b = ball(gen, c, r_max)
        # cumulative volumes by distance, one BFS per center
        vol_at = np.cumsum(np.bincount(b.distances, weights=b.measures,
                                       minlength=r_max + 1))
        for r in range(r_min, r_max + 1):
            samples.append((c, r, float(vol_at[r])))

    vols = np.array([s[2] for s in samples])
    if np.all(vols == vols[0]):
        raise ValueError("degenerate volume data: all sampled volumes equal")
    logs_r = np.log([s[1] for s in samples])
    logs_v = np.log(vols)
    slope, intercept = np.polyfit(logs_r, logs_v, 1)
    ratios = vols / np.array([s[1] for s in samples]) ** slope
    fit = VolumeGrowthFit(d_fit=float(slope), c_vol_low=float(ratios.min()),
                          c_vol_high=float(ratios.max()), r_range=(r_min, r_max),
                          centers=list(centers), samples=samples)
    assert all(fit.c_vol_low * s[1] ** fit.d_fit <= s[2] * (1 + 1e-12) and
               s[2] <= fit.c_vol_high * s[1] ** fit.d_fit * (1 + 1e-12) for s in samples)
    return fit


def estimate_alpha(gen, center: Vertex, radius: int) -> EllipticityEstimate:
    """Worst-case ratio ``w_sym(v, v') / m(v)`` over a sampled ball.

    Read from the radius ``radius + 1`` ball, which holds every ``v'``; the
    witness is the first minimiser in the snapshot's entry order.
    """
    b = ball(gen, center, radius + 1)
    n = int(np.searchsorted(b.distances, radius, side="right"))
    bad = np.flatnonzero(b.measures[:n] <= 0.0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"vertex {b.at([i])[0]} has nonpositive measure {b.measures[i]}")
    rows = b.entry_rows()[:b.indptr[n]]
    ws = (b.w_out[:rows.size] + b.w_in[:rows.size]) / 2.0
    pos = np.flatnonzero(ws > 0.0)
    if not pos.size:
        raise ValueError("sample contains no symmetric edges")
    ratios = ws[pos] / b.measures[rows[pos]]
    k = pos[np.argmin(ratios)]
    witness = tuple(b.at([rows[k], b.nbr[k]]))
    return EllipticityEstimate(alpha=float(ratios.min()), witness=witness,
                               vertices_checked=n)


def _dirichlet_matrix(b) -> np.ndarray:
    """Quadratic form of the ordered-pair Dirichlet sum over a ball.

    ``x^T Q x = sum over ordered in-ball pairs of w_sym (x_v - x_v')^2``, so
    ``Q = -2 L_sym`` from the ball's snapshot operator.
    """
    return -2.0 * TruncatedOperator(b, ("sym",)).dense("sym")


@_one_blas_thread
def estimate_poincare(gen, center: Vertex, r: int) -> PoincareEstimate:
    """Sharpest Poincare constant on one ball pair, by dense eigensolve.

    The estimate is the supremum over nonconstant vectors on the double ball
    of variance form / (r^2 * Dirichlet form), i.e. the largest generalized
    eigenvalue of the two forms on the vectors that vanish at one grounded
    vertex, the last of the double ball.  Both forms vanish on constants, so
    ``x -> x - x_g * 1`` maps any complement of the constants one-to-one onto
    those vectors without changing either form: the eigenvalues are the ones
    on the complement of the constant vector.  The double ball counts as
    disconnected (``SingularFormError``) when the grounded Dirichlet form's
    smallest eigenvalue is at most ``1e-12 * max(1, largest |entry|)``.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    b2 = ball(gen, center, 2 * r)
    n = len(b2)
    if n < 2:
        raise ValueError("double ball has fewer than 2 vertices")

    m_in = np.where(b2.distances <= r, b2.measures, 0.0)
    # sum of m_in * (x - weighted mean)^2 over the inner ball; both forms
    # grounded at the last vertex
    a = (np.diag(m_in) - np.outer(m_in, m_in) / m_in.sum())[:-1, :-1]
    den = r * r * _dirichlet_matrix(b2)[:-1, :-1]
    min_eig = scipy.linalg.eigvalsh(den, subset_by_index=[0, 0])[0]
    if min_eig <= 1e-12 * max(1.0, abs(den).max()):
        raise SingularFormError(
            "Dirichlet form is singular beyond constants; double ball "
            "appears disconnected")
    eigs = scipy.linalg.eigvalsh(a, den, subset_by_index=[n - 2, n - 2])
    return PoincareEstimate(center=center, r=r, value=float(eigs[-1]),
                            double_ball_size=n)


def estimate_skew_mass(gen, max_shells: int, tol: float = 1e-6) -> SkewMassEstimate:
    """Accumulate total skew mass shell by shell and judge convergence.

    Shell k contributes ``sum over v in shell k, v' adjacent`` of
    ``|w_skew(v, v')|``; since the shells partition the enumerated vertices,
    every ordered pair is counted exactly once.  Verdicts:

    * ``convergent``  - the graph was exhausted (the partial sum is exact),
      or the last three shell contributions are each below ``tol`` and
      non-increasing;
    * ``divergent``   - the log-log slope of the contributions over the last
      half of the shells is >= -0.1 (the tail is not summable-looking);
    * ``inconclusive`` otherwise, including whenever the vertex budget cut
      enumeration short of ``max_shells``.

    The shells are those of ``geometry._walk``, which reads each vertex
    once; the scan takes the vertex's skew row from that read.  Each row
    sum adds its entries in neighbour order and each shell sum adds its rows
    in shell order, whichever step of the walk read the shell.  The walk's
    budget is ``geometry.DEFAULT_BALL_BUDGET``, read when the scan starts;
    when the budget rule cuts the walk, the verdict is ``inconclusive`` over
    the shells completed before the cut.
    """
    if max_shells < 3:
        raise ValueError("max_shells must be >= 3")
    contributions: list[float] = []
    budget_cut = False
    try:
        for _, _, rows in _walk(gen, gen.root, max_shells):
            contributions.append(_shell_skew(rows))
    except BudgetExceededError:
        budget_cut = True
    total = reduce(add, contributions, 0.0)  # left to right, unlike sum() from Python 3.12
    exhausted = len(contributions) <= max_shells  # the shells ran out early

    tail_slope = _tail_slope(contributions)
    if budget_cut:
        verdict = "inconclusive"
    elif exhausted or total == 0.0:
        verdict = "convergent"
    elif len(contributions) >= 3 and all(c < tol for c in contributions[-3:]) \
            and contributions[-3] >= contributions[-2] >= contributions[-1]:
        verdict = "convergent"
    elif tail_slope is not None and tail_slope >= -0.1:
        verdict = "divergent"
    else:
        verdict = "inconclusive"

    return SkewMassEstimate(w_partial=float(total), shells_used=len(contributions),
                            shells_requested=max_shells + 1, tail_slope=tail_slope,
                            verdict=verdict,
                            last_contributions=[float(c) for c in contributions[-3:]])


def _shell_skew(rows) -> float:
    """Sum over a shell's rows of ``|w_skew|``, every sum added left to right."""
    if isinstance(rows.w_out, np.ndarray):
        n = len(rows.counts)  # a shell of the walk is never empty
        sums = np.bincount(np.repeat(np.arange(n), rows.counts),  # adds in entry order
                           weights=np.abs(rows.w_out - rows.w_in) / 2.0, minlength=n)
        return float(np.cumsum(sums)[-1])
    w_out, w_in = rows.w_out, rows.w_in
    c, i = 0.0, 0
    for n in rows.counts:
        row = 0.0
        for j in range(i, i + n):
            row += abs(w_out[j] - w_in[j]) / 2.0
        c += row
        i += n
    return c


def _tail_slope(contributions: list[float]) -> float | None:
    """Log-log slope of shell contributions over the last half of shells."""
    half = [(k, c) for k, c in enumerate(contributions) if k >= len(contributions) // 2
            and k > 0 and c > 0.0]
    if len(half) < 2:
        return None
    ks = np.log([k for k, _ in half])
    cs = np.log([c for _, c in half])
    if np.ptp(ks) == 0:
        return None
    return float(np.polyfit(ks, cs, 1)[0])


@dataclass
class HypothesisReport:
    graph: str
    vg: VolumeGrowthFit
    delta: EllipticityEstimate
    pi: list[PoincareEstimate]
    skew_mass: SkewMassEstimate
    max_degree_observed: int
    max_sym_weight_observed: float
    warnings: list[str] = field(default_factory=list)


@_one_blas_thread
def check_hypotheses(gen, r_min: int = 8, r_max: int = 64,
                     max_shells: int | None = None,
                     shell_tol: float = 1e-6,
                     seed: int = 0) -> HypothesisReport:
    """Run every estimator on one graph and assemble the evidence report.

    The volume fit's centers are the root and two vertices drawn (seeded)
    from the radius-3 ball around it.  Ellipticity is read on the radius
    ``_ALPHA_RADIUS`` (12) ball and the Poincare constant on the ball pairs of
    radii ``_PI_RADII`` (2, 4, 8); they and the vertex budget
    ``geometry.DEFAULT_BALL_BUDGET`` are read at call time.  When ``max_shells``
    is omitted it is picked from the fitted growth order: slowly growing
    graphs afford many shells, faster ones fewer.
    Every ball is cut from one snapshot of radius ``r_max + 3`` (or the
    largest sample radius) around the root, which holds the radius-``r_max``
    balls of the centers drawn within distance 3; only the skew-mass scan
    reads the graph again.
    """
    rng = np.random.default_rng(seed)
    snap = ball(gen, gen.root, max(r_max + 3, _ALPHA_RADIUS + 1, 2 * max(_PI_RADII)))
    nearby = snap.prefix(3).vertices[1:]
    if len(nearby) >= 2:
        picks = rng.choice(len(nearby), size=2, replace=False)
        centers = [gen.root, nearby[int(picks[0])], nearby[int(picks[1])]]
    else:
        centers = [gen.root] * 3

    vg = fit_volume_growth(snap, centers, r_min, r_max)
    delta = estimate_alpha(snap, gen.root, _ALPHA_RADIUS)
    pi = [estimate_poincare(snap, gen.root, r) for r in _PI_RADII]
    if max_shells is None:
        max_shells = 20_000 if vg.d_fit < 1.5 else 300
    skew = estimate_skew_mass(gen, max_shells, tol=shell_tol)

    probe = snap.prefix(_ALPHA_RADIUS)
    ws = (probe.w_out + probe.w_in) / 2.0
    sym = ws > 0.0
    max_deg = int(np.bincount(probe.entry_rows()[sym], minlength=len(probe)).max())
    max_w = ws[sym].max(initial=0.0)

    warnings = []
    if vg.d_fit < 2.0:
        warnings.append(
            f"fitted growth order d = {vg.d_fit:.3f} < 2: the directed decay "
            "theory checked here does not cover this regime")
    if skew.verdict == "divergent":
        warnings.append("skew mass appears divergent: finite-skew-mass "
                        "hypothesis looks violated")
    if skew.verdict == "inconclusive":
        warnings.append("skew mass convergence inconclusive at the sampled depth")
    warnings.append("estimates are sampled evidence over the reported "
                    "centers/radii, not a proof over the infinite graph")

    return HypothesisReport(graph=gen.name, vg=vg, delta=delta, pi=pi,
                            skew_mass=skew, max_degree_observed=max_deg,
                            max_sym_weight_observed=float(max_w), warnings=warnings)
