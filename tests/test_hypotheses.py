"""Volume growth, ellipticity, Poincare, and skew-mass estimators."""

import inspect
import math
import re
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dirlap
from dirlap import (GraphGenerator, SingularFormError, ball, builtin_graph,
                    check_hypotheses, estimate_alpha, estimate_poincare,
                    estimate_skew_mass, fit_volume_growth, generator_from_edges,
                    geometry, hypotheses)
from dirlap.reports import write_json_report

from helpers import (counted, finite_graphs, k2_generator, l1_ball_count, ols_loglog,
                     poincare_projected, poincare_quotient, read_json_report, sym_neighbors)

Z2_CENTERS = [(0, 0), (3, -2), (-5, 1)]


class TestFitVolumeGrowth:
    def test_z2_matches_independent_oracle(self):
        g = builtin_graph("z-lattice", d=2)
        fit = fit_volume_growth(g, Z2_CENTERS, 4, 32)
        rs = list(range(4, 33))
        # measure is 4 everywhere; one pooled sample per (center, r)
        oracle = ols_loglog(rs * 3, [4.0 * l1_ball_count(2, r) for r in rs] * 3)
        assert fit.d_fit == pytest.approx(oracle, abs=1e-9)
        assert fit.d_fit == pytest.approx(1.9113476885846814, abs=1e-9)
        assert abs(fit.d_fit - 2.0) <= 0.1

    def test_z2_sandwich_constants(self):
        g = builtin_graph("z-lattice", d=2)
        fit = fit_volume_growth(g, Z2_CENTERS, 4, 32)
        for _, r, vol in fit.samples:
            assert fit.c_vol_low * r ** fit.d_fit <= vol * (1 + 1e-12)
            assert vol <= fit.c_vol_high * r ** fit.d_fit * (1 + 1e-12)

    def test_line_growth_order_one(self):
        g = builtin_graph("example-2.2")
        fit = fit_volume_growth(g, [(0,), (2,), (-3,)], 8, 64)
        assert fit.d_fit == pytest.approx(1.0, abs=0.05)

    def test_z3_matches_oracle(self):
        # the [3, 12] window sits far from the asymptote in 3d: the honest
        # fitted order there is ~2.70, frozen from the brute-force oracle
        g = builtin_graph("z-lattice", d=3)
        fit = fit_volume_growth(g, [(0, 0, 0), (1, 1, 0), (0, -1, 2)], 3, 12)
        rs = list(range(3, 13))
        oracle = ols_loglog(rs * 3, [6.0 * l1_ball_count(3, r) for r in rs] * 3)
        assert fit.d_fit == pytest.approx(oracle, abs=1e-9)
        assert fit.d_fit == pytest.approx(2.7045820824046864, abs=1e-9)
        # wider windows drift toward the true order 3
        fit2 = fit_volume_growth(g, [(0, 0, 0), (1, 1, 0), (0, -1, 2)], 12, 40)
        assert fit2.d_fit > fit.d_fit

    def test_preconditions(self):
        g = builtin_graph("z-lattice", d=2)
        with pytest.raises(ValueError):
            fit_volume_growth(g, Z2_CENTERS, 0, 10)
        with pytest.raises(ValueError):
            fit_volume_growth(g, Z2_CENTERS, 8, 10)
        with pytest.raises(ValueError):
            fit_volume_growth(g, [(0, 0)], 4, 16)

    def test_degenerate_volumes_rejected(self):
        k2 = k2_generator()
        with pytest.raises(ValueError, match="degenerate"):
            fit_volume_growth(k2, [(0,), (1,), (0,)], 1, 2)


class TestEstimateAlpha:
    def test_advection_symmetric_graph(self):
        # w_sym = 1/2 on four edges, measure 2
        est = estimate_alpha(builtin_graph("z2-advection"), (0, 0), 5)
        assert est.alpha == pytest.approx(0.25, abs=1e-14)

    def test_line(self):
        est = estimate_alpha(builtin_graph("example-2.2"), (0,), 8)
        assert est.alpha == pytest.approx(0.5, abs=1e-14)

    def test_star_graph(self):
        edges = {}
        for k in range(5):
            edges[((0,), (k + 1,))] = 1.0
            edges[((k + 1,), (0,))] = 1.0
        star = generator_from_edges(edges, (0,))
        est = estimate_alpha(star, (0,), 1)
        assert est.alpha == pytest.approx(1.0 / 5.0)
        assert est.witness[0] == (0,)

    def test_alpha_is_exact_sample_minimum(self):
        g = builtin_graph("z2-skew-perturbed", a=0.5)
        est = estimate_alpha(g, (0, 0), 6)
        b = dirlap.ball(g, (0, 0), 6)
        for i, v in enumerate(b.vertices):
            for u, ws in sym_neighbors(g, v).items():
                assert ws >= est.alpha * b.measures[i] * (1 - 1e-12)

    @given(finite_graphs())
    def test_matches_brute_force_over_sym_neighbors(self, g):
        def brute(radius):
            b = ball(g, g.root, radius)
            best, witness = math.inf, None
            for i, v in enumerate(b.vertices):
                m = b.measures[i]
                if m <= 0.0:
                    raise ValueError(f"vertex {v} has nonpositive measure {m}")
                for u, ws in sorted(sym_neighbors(g, v).items()):
                    if ws / m < best:
                        best, witness = ws / m, (v, u)
            if witness is None:
                raise ValueError("sample contains no symmetric edges")
            return best, witness, len(b)

        for radius in range(4):
            try:
                expected = brute(radius)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    estimate_alpha(g, g.root, radius)
                continue
            est = estimate_alpha(g, g.root, radius)
            assert (est.alpha, est.witness, est.vertices_checked) == expected


class TestEstimatePoincare:
    def test_k2_hand_solved(self):
        est = estimate_poincare(k2_generator(), (0,), 1)
        # inner ball = double ball = both vertices; the quotient is constant
        # over nonconstant vectors and equals 1/4
        assert est.value == pytest.approx(0.25, abs=1e-10)

    def test_constant_shift_invariance(self):
        g = builtin_graph("z-lattice", d=2)
        rng = np.random.default_rng(0)
        b2 = dirlap.ball(g, (0, 0), 4)
        x = rng.normal(size=len(b2))
        q1 = poincare_quotient(g, (0, 0), 2, x)
        q2 = poincare_quotient(g, (0, 0), 2, x + 11.0)
        assert abs(q1 - q2) <= 1e-10 * abs(q1)

    def test_constant_vector_rejected(self):
        g = builtin_graph("z-lattice", d=2)
        b2 = dirlap.ball(g, (0, 0), 2)
        with pytest.raises(ValueError):
            poincare_quotient(g, (0, 0), 1, np.ones(len(b2)))

    def test_estimate_dominates_random_quotients(self):
        rng = np.random.default_rng(1)
        # r=8 on the skew plane is check_hypotheses' 545-vertex double ball
        for g, r in ((builtin_graph("z-lattice", d=2), 2),
                     (builtin_graph("z2-skew-perturbed", a=0.5), 8)):
            est = estimate_poincare(g, (0, 0), r)
            n = len(dirlap.ball(g, (0, 0), 2 * r))
            for _ in range(25):
                q = poincare_quotient(g, (0, 0), r, rng.normal(size=n))
                assert q <= est.value * (1 + 1e-10)

    @pytest.mark.parametrize("r", [2, 4, 8])
    def test_grounded_matches_projected_on_skew_plane(self, r):
        g = builtin_graph("z2-skew-perturbed", a=0.5)
        est = estimate_poincare(g, (0, 0), r)
        expected = poincare_projected(g, (0, 0), r)
        assert est.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
        assert est.double_ball_size == expected.double_ball_size

    @given(finite_graphs(), st.integers(min_value=1, max_value=3))
    def test_grounded_matches_projected(self, g, r):
        b2 = ball(g, g.root, 2 * r)
        ws = (b2.w_out + b2.w_in) / 2.0
        pos = ws[(b2.nbr >= 0) & (ws > 0.0)]
        # near the threshold the two singular checks read different matrices
        assume(pos.size == 0 or pos.min() >= 1e-6 * pos.max())
        try:
            expected = poincare_projected(g, g.root, r)
        except (ValueError, SingularFormError) as exc:
            with pytest.raises(type(exc)) as info:
                estimate_poincare(g, g.root, r)
            assert type(info.value) is type(exc)
            return
        est = estimate_poincare(g, g.root, r)
        assert est.value == pytest.approx(expected.value, rel=1e-9, abs=0.0)
        assert est.double_ball_size == expected.double_ball_size

    @pytest.mark.parametrize("weak", [0, 1])
    def test_nearly_cut_path_is_singular(self, weak):
        # a three-vertex path whose link `weak` has weight 1e-20
        w = [1.0, 1.0]
        w[weak] = 1e-20
        edges = {}
        for k in (0, 1):
            edges[((k,), (k + 1,))] = edges[((k + 1,), (k,))] = w[k]
        g = generator_from_edges(edges, root=(0,))
        with pytest.raises(SingularFormError):
            estimate_poincare(g, (0,), 1)

    def test_z2_uniformity_evidence(self):
        g = builtin_graph("z-lattice", d=2)
        vals = [estimate_poincare(g, (0, 0), r).value for r in (2, 4, 8)]
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert max(vals) / min(vals) <= 3.0


class TestEstimateSkewMass:
    def test_line_partial_sum_toward_limit(self):
        g = builtin_graph("example-2.2")
        est = estimate_skew_mass(g, 600)
        target = 2 * math.pi / math.tanh(math.pi)
        assert est.w_partial == pytest.approx(target, abs=7e-3)
        assert est.w_partial < target  # partial sums increase to the limit

    def test_monotone_in_shells(self):
        g = builtin_graph("example-2.2")
        parts = [estimate_skew_mass(g, n).w_partial for n in (50, 100, 200)]
        assert parts[0] < parts[1] < parts[2]

    def test_symmetric_graph_zero(self):
        est = estimate_skew_mass(builtin_graph("z-lattice", d=2), 10)
        assert est.w_partial == 0.0
        assert est.verdict == "convergent"

    def test_advection_divergent_with_exact_shell_mass(self):
        est = estimate_skew_mass(builtin_graph("z2-advection"), 48)
        assert est.verdict == "divergent"
        # shell k holds 4k vertices, each with total skew mass 2
        assert est.last_contributions == [368.0, 376.0, 384.0]
        assert est.tail_slope == pytest.approx(1.0, abs=0.05)
        assert est.w_partial == pytest.approx(2.0 + sum(8.0 * k for k in range(1, 49)))

    def test_budget_cut_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(geometry, "DEFAULT_BALL_BUDGET", 500)
        est = estimate_skew_mass(builtin_graph("z2-advection"), 100)
        assert est.verdict == "inconclusive"
        assert est.shells_used < 101

    def test_budget_cut_keeps_partial_sums(self, monkeypatch):
        monkeypatch.setattr(geometry, "DEFAULT_BALL_BUDGET", 500)
        est = estimate_skew_mass(builtin_graph("z2-skew-perturbed"), 60)
        assert est.verdict == "inconclusive"
        # shells 0..15 hold 481 vertices; shell 16 would bring the count to 545
        assert est.shells_used == 16
        assert est.w_partial == 6.410430468167932

    @pytest.mark.parametrize("budget, shells_used, verdict",
                             [(41, 5, "convergent"), (40, 4, "inconclusive")])
    def test_budget_boundary(self, monkeypatch, budget, shells_used, verdict):
        # shells 0..4 hold 41 vertices; shell 5 is never built, so it cannot
        # exceed the budget
        monkeypatch.setattr(geometry, "DEFAULT_BALL_BUDGET", budget)
        est = estimate_skew_mass(builtin_graph("z-lattice", d=2), 4)
        assert (est.shells_used, est.verdict) == (shells_used, verdict)

    def test_reads_each_vertex_once(self):
        g = builtin_graph("z2-skew-perturbed")
        reads = []

        def adjacency(v):
            reads.append(v)
            return g.adjacency(v)

        counted = GraphGenerator(adjacency=adjacency, root=g.root)
        estimate_skew_mass(counted, 20)
        # the radius-20 ball of Z^2 holds 2 * 20 * 21 + 1 vertices
        assert len(reads) == len(set(reads)) == 841

    @given(finite_graphs())
    def test_matches_ball_snapshot(self, g):
        for max_shells in (3, 4, 8):
            est = estimate_skew_mass(g, max_shells)
            b = ball(g, g.root, max_shells)
            rows = np.bincount(b.entry_rows(), weights=np.abs(b.w_out - b.w_in) / 2.0,
                               minlength=len(b))
            per_shell = [float(c) for c in np.bincount(b.distances, weights=rows)]
            assert est.shells_used == len(per_shell)
            assert est.last_contributions == per_shell[-3:]
            assert est.w_partial == reduce(add, per_shell, 0.0)

    def test_shells_add_left_to_right(self, monkeypatch):
        # a compensated sum, as sum() is from Python 3.12 on, gives 1 + 2**-51
        terms = iter([1.0, 2**-53, 2**-53, 2**-53])
        monkeypatch.setattr(hypotheses, "_shell_skew", lambda rows: next(terms))
        assert estimate_skew_mass(builtin_graph("example-2.2"), 3).w_partial == 1.0

    def test_finite_graph_exact(self):
        g = generator_from_edges(
            {((0,), (1,)): 2.0, ((1,), (0,)): 1.0,
             ((1,), (2,)): 1.0, ((2,), (1,)): 1.0}, (0,))
        est = estimate_skew_mass(g, 5)
        assert est.verdict == "convergent"
        assert est.w_partial == pytest.approx(1.0)  # |w_skew| = 1/2, both orders

    def test_min_shells(self):
        with pytest.raises(ValueError):
            estimate_skew_mass(builtin_graph("example-2.2"), 2)


class TestCheckHypotheses:
    def test_line_report(self):
        g = builtin_graph("example-2.2")
        report = check_hypotheses(g, max_shells=3000)
        assert report.vg.d_fit == pytest.approx(1.0, abs=0.05)
        assert report.delta.alpha == pytest.approx(0.5)
        assert report.skew_mass.verdict == "convergent"
        target = 2 * math.pi / math.tanh(math.pi)
        assert report.skew_mass.w_partial == pytest.approx(target, abs=2.5e-3)
        assert any("d =" in w and "< 2" in w for w in report.warnings)
        assert report.max_degree_observed == 2

    def test_json_shape(self, tmp_path):
        report = check_hypotheses(builtin_graph("example-2.2"), max_shells=100)
        path = str(tmp_path / "hypotheses.json")
        write_json_report(path, {"result": report})
        doc = read_json_report(path)["result"]
        assert set(doc) == {"graph", "vg", "delta", "pi", "skew_mass",
                            "max_degree_observed", "max_sym_weight_observed",
                            "warnings"}
        assert doc["vg"]["d_fit"] == report.vg.d_fit
        assert len(doc["pi"]) == 3

    def test_budget_reaches_skew_scan(self, monkeypatch):
        # without the budget the scan covers all 101 shells and reads divergent
        monkeypatch.setattr(hypotheses, "_ALPHA_RADIUS", 3)
        monkeypatch.setattr(hypotheses, "_PI_RADII", (1,))
        monkeypatch.setattr(geometry, "DEFAULT_BALL_BUDGET", 1000)
        report = check_hypotheses(builtin_graph("z2-advection"), r_min=2, r_max=4,
                                  max_shells=100)
        assert report.skew_mass.verdict == "inconclusive"
        assert report.skew_mass.shells_used < 101

    def test_every_vertex_read_once(self, monkeypatch):
        g = builtin_graph("z-lattice", d=2)
        g_counted, reads = counted(g)
        monkeypatch.setattr(hypotheses, "_ALPHA_RADIUS", 3)
        monkeypatch.setattr(hypotheses, "_PI_RADII", (1, 2))
        report = check_hypotheses(g_counted, r_min=2, r_max=5, max_shells=4, seed=9)
        assert report.vg.centers[0] == g.root
        assert len(set(report.vg.centers)) == 3
        # the radius-8 snapshot (r_max + 3) of 145 vertices and the 41 vertices
        # of skew shells 0..4; every other ball is cut from the snapshot
        assert len(reads) == 145 + 41
        snapshot = ball(g, g.root, 8).vertices
        assert sorted(reads[:145]) == sorted(snapshot)  # each snapshot vertex once
        assert sorted(reads[145:]) == sorted(snapshot[:41])

    def test_default_centers_deterministic(self):
        g = builtin_graph("z-lattice", d=2)
        r1 = check_hypotheses(g, r_min=2, r_max=5, max_shells=4, seed=9)
        r2 = check_hypotheses(g, r_min=2, r_max=5, max_shells=4, seed=9)
        assert r1.vg.centers == r2.vg.centers


@pytest.mark.parametrize("fn, params", [
    (check_hypotheses, ["gen", "r_min", "r_max", "max_shells", "shell_tol", "seed"]),
    (fit_volume_growth, ["gen", "centers", "r_min", "r_max"]),
    (estimate_alpha, ["gen", "center", "radius"]),
    (estimate_poincare, ["gen", "center", "r"]),
    (estimate_skew_mass, ["gen", "max_shells", "tol"]),
    (dirlap.volume, ["gen", "center", "r"]),
    (dirlap.distance, ["gen", "a", "b", "cutoff"]),
], ids=["check_hypotheses", "fit_volume_growth", "estimate_alpha", "estimate_poincare",
        "estimate_skew_mass", "volume", "distance"])
def test_only_caller_settings_are_parameters(fn, params):
    # sample radii and the vertex budget are module constants, not parameters
    assert list(inspect.signature(fn).parameters) == params
