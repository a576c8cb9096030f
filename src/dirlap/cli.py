"""Command-line front end for reproducible graph heat-flow experiments.

One subcommand per experiment kind; every run writes a schema-tagged JSON
report embedding the fully resolved spec (defaults expanded), plus
plot-ready CSV data.  Reports are deterministic given the spec and seed.

Exit codes: 0 success, 2 when a hypothesis check reports a failure verdict,
1 on errors (unknown graph, bad flags, budget exhaustion).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import builtins as graph_builtins
from . import hypotheses, oscillator, reports, semigroup
from .errors import BudgetExceededError, DirlapError, TruncationError
from .graph import validate_generator
from .integrate import _one_blas_thread


def _load_config(path: str | None) -> dict:
    """Key-value config file: one ``key = value`` pair per line, # comments."""
    if not path:
        return {}
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = value
    return cfg


def _resolve(command: str, args: argparse.Namespace, config: dict) -> dict:
    """Flag > config file > default, for ``command``'s options; a config key
    that is not one of them is an error."""
    options = _COMMANDS[command][2]
    unknown = sorted(set(config) - {opt.key for opt in options})
    if unknown:
        raise ValueError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    spec = {}
    for opt in options:
        flag_value = getattr(args, opt.key, None)
        if flag_value is not None:
            spec[opt.key] = flag_value
        elif opt.key in config:
            spec[opt.key] = opt.type(config[opt.key])
            if opt.choices is not None and spec[opt.key] not in opt.choices:
                raise ValueError(f"config key {opt.key}: {spec[opt.key]!r} is not one of "
                                 f"{', '.join(opt.choices)}")
        else:
            spec[opt.key] = opt.default
    return spec


def _embedded_spec(spec: dict) -> dict:
    """The spec as recorded in reports: everything but the output location,
    so identical experiments produce byte-identical reports anywhere."""
    return {k: v for k, v in spec.items() if k != "out"}


def _make_graph(spec: dict):
    key = {"z-lattice": "d", "z2-skew-perturbed": "a"}.get(spec["graph"])
    params = {key: spec[key]} if key and spec[key] is not None else {}
    return graph_builtins.builtin_graph(spec["graph"], **params)


def _sample_grid(t_max: float, n: int = 80) -> list[float]:
    lo = max(t_max / 400.0, 1e-3)
    return [0.0] + [float(t) for t in np.geomspace(lo, t_max, n)]


def _fit_window(t_max: float) -> tuple[float, float]:
    return (min(10.0, t_max / 4.0), t_max)


def _write_report(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    reports.write_json_report(path, payload)
    return path


def _cmd_schema_version(_spec) -> int:
    print(reports.report_schema_version())
    return 0


def _cmd_validate(spec) -> int:
    gen = _make_graph(spec)
    report = validate_generator(gen, spec["radius"])
    payload = {"action": "validate", "spec": _embedded_spec(spec), "result": report}
    path = _write_report(spec["out"], "validate.json", payload)
    print(f"validate: {'ok' if report.ok else 'VIOLATIONS'} "
          f"({report.vertices_checked} vertices) -> {path}")
    return 0 if report.ok else 2


def _cmd_check_hypotheses(spec) -> int:
    gen = _make_graph(spec)
    report = hypotheses.check_hypotheses(
        gen, r_min=spec["r_min"], r_max=spec["r_max"], max_shells=spec["shells"],
        shell_tol=spec["tol"], seed=spec["seed"])
    payload = {"action": "check-hypotheses", "spec": _embedded_spec(spec), "result": report}
    path = _write_report(spec["out"], "hypotheses.json", payload)
    failed = report.skew_mass.verdict == "divergent" or report.delta.alpha <= 0
    print(f"check-hypotheses[{gen.name}]: d_fit={report.vg.d_fit:.3f} "
          f"alpha={report.delta.alpha:.4f} W={report.skew_mass.w_partial:.5f} "
          f"({report.skew_mass.verdict}) -> {path}")
    for w in report.warnings:
        print(f"  warning: {w}")
    return 2 if failed else 0


def _cmd_simulate(spec) -> int:
    gen = _make_graph(spec)
    t_max = semigroup.SimConfig(spec["t_max"]).t_max  # checked before any grid
    p = math.inf if spec["p"].lower() in ("inf", "infinity") else float(spec["p"])
    if not p >= 1:  # checked before the flow runs; NaN fails too
        raise ValueError(f"p must be >= 1, got {p}")
    cfg = semigroup.SimConfig(t_max=t_max, sample_times=_sample_grid(t_max),
                              c_speed=spec["c_speed"])
    traj = semigroup.evolve(gen, {gen.root: 1.0}, cfg, part=spec["part"])
    window = _fit_window(t_max)
    fit = semigroup.fit_decay(traj, kind="p", p=p, window=window)
    series = {}
    for kind, pp in (("l1", 1.0), ("l2", 2.0), ("linf", math.inf)):
        series[kind] = semigroup.trajectory_norms(traj, "p", pp)
    if spec["part"] == "full":
        series["Qinf"] = semigroup.trajectory_norms(traj, "q", math.inf)
    reports.write_trajectory_csv(os.path.join(spec["out"], "trajectory.csv"), series)
    payload = {"action": "simulate", "spec": _embedded_spec(spec),
               "result": {"fit": fit,
                          "radius": traj.ball.radius,
                          "richardson_diff": traj.richardson_diff,
                          "retries": traj.retries}}
    path = _write_report(spec["out"], "simulate.json", payload)
    print(f"simulate[{gen.name}]: fitted exponent {fit.exponent:+.4f} "
          f"(r2={fit.r_squared:.5f}) over {window} -> {path}")
    return 0


def _cmd_counterexample(spec) -> int:
    t_max = semigroup.SimConfig(spec["t_max"]).t_max  # checked before any grid
    gen = graph_builtins.builtin_graph("z2-advection")

    skew = hypotheses.estimate_skew_mass(gen, max_shells=48)
    # transport moves at unit rate along each influenced direction, so a
    # light cone just above 1 plus the diffusive cushion is enough; the
    # truncation bound still validates the choice.
    grid = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20] + [round(t) for t in np.geomspace(1.0, t_max, 40)]
    sample_times = sorted({float(t) for t in grid if t <= t_max})
    cfg = semigroup.SimConfig(t_max=t_max, sample_times=sample_times, atol=1e-10,
                              c_speed=1.25)
    traj = semigroup.evolve(gen, {gen.root: 1.0}, cfg, part="full")
    fit = semigroup.fit_decay(traj, kind="p", p=math.inf, window=_fit_window(t_max))

    closed_form = []
    for t in (1.0, 5.0, 10.0, 20.0):
        if t > t_max:
            continue
        state = traj.state_at(t)
        worst = max(abs(state.value_at((i, 0)) - semigroup.advection_oracle(i, t))
                    for i in range(11))
        closed_form.append({"t": t, "max_abs_err": worst})
    peaks = []
    for t in sample_times:
        i = int(round(t))
        if abs(t - i) < 1e-9 and 1 <= i <= t_max:
            peaks.append({
                "i": i,
                "simulated": traj.state_at(float(i)).value_at((i, 0)),
                "lower_bound": semigroup.advection_stirling_lower(i),
            })
    # the bound is attained exactly at i = 1, so simulated values get an
    # integrator-tolerance allowance
    peaks_ok = all(p["simulated"] >= p["lower_bound"] - 1e-7 for p in peaks)
    symmetric_prediction = -1.0  # growth order 2, sup norm
    degraded = fit.exponent > symmetric_prediction + 0.25
    verdict = ("finite-skew-mass hypothesis violated; decay degraded below "
               "the symmetric-rate prediction" if degraded and
               skew.verdict == "divergent" else "no degradation detected")

    series = {"linf": semigroup.trajectory_norms(traj, "p", math.inf)}
    reports.write_trajectory_csv(os.path.join(spec["out"], "counterexample.csv"),
                                 series)
    payload = {"action": "counterexample", "spec": _embedded_spec(spec), "result": {
        "skew_mass": skew,
        "fit": fit,
        "symmetric_prediction": symmetric_prediction,
        "closed_form_errors": closed_form,
        "peak_bounds_hold": peaks_ok,
        "peaks": peaks,
        "verdict": verdict,
    }}
    path = _write_report(spec["out"], "counterexample.json", payload)
    print(f"counterexample: fitted exponent {fit.exponent:+.4f} vs symmetric "
          f"prediction {symmetric_prediction:+.1f}; skew mass {skew.verdict} "
          f"-> {path}")
    print(f"  verdict: {verdict}")
    return 0


def _cmd_oscillate(spec) -> int:
    eps = spec["eps"]
    t_max = semigroup.SimConfig(spec["t_max"]).t_max  # checked before any grid

    coupling_graph = graph_builtins.builtin_graph("z2-skew-perturbed", a=spec["a"])
    sys_ = oscillator.OscillatorSystem(
        omega=lambda v: 1.0,
        coupling=oscillator.SeparableCoupling(coupling_graph),
        root=coupling_graph.root,
        name=f"sin/{coupling_graph.name}")
    cand = oscillator.PhaseLockCandidate(velocity=1.0, lags=lambda v: 0.0)
    residual = oscillator.verify_phase_lock(sys_, cand, radius=6)
    if not residual <= spec["tol"]:  # a NaN residual fails too
        raise DirlapError(f"phase-lock candidate rejected: residual {residual}")

    cfg = semigroup.SimConfig(t_max=t_max, sample_times=_sample_grid(t_max),
                              rtol=1e-8, atol=1e-11)
    traj = oscillator.simulate_nonlinear(sys_, cand, {sys_.root: eps}, cfg)
    window = _fit_window(t_max)
    fit = semigroup.fit_decay(traj, kind="p", p=math.inf, window=window)
    l1_t, l1_v = semigroup.trajectory_norms(traj, "p", 1.0)
    l1_ratio = max(v / eps for v in l1_v)

    series = {"linf": semigroup.trajectory_norms(traj, "p", math.inf),
              "l1": (l1_t, l1_v)}
    reports.write_trajectory_csv(os.path.join(spec["out"], "oscillate.csv"), series)
    payload = {"action": "oscillate", "spec": _embedded_spec(spec), "result": {
        "lock_residual": residual,
        "deviation_fit": fit,
        "l1_over_eps_max": l1_ratio,
        "radius": traj.ball.radius,
        "richardson_diff": traj.richardson_diff,
    }}
    path = _write_report(spec["out"], "oscillate.json", payload)
    print(f"oscillate: deviation exponent {fit.exponent:+.4f}, "
          f"max |dev|_1/eps = {l1_ratio:.3f} -> {path}")
    return 0


def _cmd_fit_decay(spec) -> int:
    if not spec["csv"]:
        raise ValueError("fit-decay needs --csv FILE with columns t,value")
    times, values = [], []
    with open(spec["csv"], encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), 1):
            if not row or not row[0].strip() or row[0].strip().lower() == "t":
                continue
            t = float(row[0])
            if times and t < times[-1]:
                raise ValueError(f"{spec['csv']}:{lineno}: t decreases from {times[-1]} to "
                                 f"{t}; fit-decay reads one series per file")
            times.append(t)
            values.append(float(row[-1]))
    bounds = [spec["window_lo"], spec["window_hi"]]
    if bounds.count(None) == 1:
        missing = "window_hi" if bounds[1] is None else "window_lo"
        raise ValueError(f"fit-decay: {missing} is missing; set both window bounds or neither")
    window = None if bounds[0] is None else tuple(bounds)
    fit = semigroup.fit_power_law(times, values, window=window)
    payload = {"action": "fit-decay", "spec": _embedded_spec(spec), "result": fit}
    path = _write_report(spec["out"], "fit.json", payload)
    print(f"fit-decay: exponent {fit.exponent:+.4f} (r2={fit.r_squared:.5f}) "
          f"-> {path}")
    return 0


class _Option(NamedTuple):
    key: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None


_OUT = _Option("out", str, "dirlap-out", "output directory")


_T_MAX = "final simulated time"


def _graph_options(graph: str, d: int | None = None) -> list[_Option]:
    return [_Option("graph", str, graph, "graph family name"),
            _Option("a", float, None, "skew-perturbation strength"),
            _Option("d", int, d, "lattice dimension")]


# Every subcommand once: its function, help and options.  An option's key
# names it in the spec and in a config file, and its type reads a flag and a
# config value alike.  Its flag is "--" and the key with "-" for "_", except
# that fit-decay's --window LO HI sets both window_lo and window_hi.
_COMMANDS = {
    "validate": (_cmd_validate, "sample a generator for contract violations", [
        _OUT, *_graph_options("example-2.2"),
        _Option("radius", int, 10, "sampling radius")]),
    "check-hypotheses": (
        _cmd_check_hypotheses, "estimate growth order, ellipticity, Poincare, skew mass", [
            _OUT, *_graph_options("example-2.2"),
            _Option("r_min", int, 8, "smallest radius of the volume-growth fit"),
            _Option("r_max", int, 64, "largest radius of the volume-growth fit"),
            _Option("shells", int, None, "shell count for the skew-mass sum"),
            _Option("tol", float, 1e-6, "skew-mass convergence tolerance per shell"),
            _Option("seed", int, 0, "seed for the sampled fit centers")]),
    "simulate": (_cmd_simulate, "heat flow from a point source plus decay fit", [
        _OUT, *_graph_options("z-lattice", 2), _Option("t_max", float, 200.0, _T_MAX),
        _Option("p", str, "inf", "norm order to fit (number or 'inf')"),
        _Option("part", str, "full", "the Laplacian, or its symmetric part alone",
                ("full", "sym")),
        _Option("c_speed", float, None, "light-cone speed that sets the radius instead of "
                                        "the heuristic; a sym run starts there and grows")]),
    "counterexample": (_cmd_counterexample,
                       "advection flow: divergent skew mass degrades decay", [
                           _OUT, _Option("t_max", float, 400.0, _T_MAX)]),
    "oscillate": (_cmd_oscillate, "nonlinear stability of the trivial locked state", [
        _OUT, _Option("a", float, 0.5, "skew-perturbation strength of the coupling graph"),
        _Option("eps", float, 0.01, "perturbation size"),
        _Option("tol", float, 1e-8, "largest accepted phase-lock residual"),
        _Option("t_max", float, 150.0, _T_MAX)]),
    "fit-decay": (_cmd_fit_decay, "fit a power law to a t,value CSV", [
        _OUT, _Option("csv", str, None, "input CSV of one series: t in the first column, "
                                        "not decreasing, value in the last"),
        _Option("window_lo", float, None, "fit window in t; by default from max(10, "
                                          "t_last / 100) to the last t"),
        _Option("window_hi", float)]),
    "schema-version": (_cmd_schema_version, "print the report schema tag", []),
}


class _Window(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        namespace.window_lo, namespace.window_hi = values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirlap",
        description="Decay experiments on lazily generated directed graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_func, help_, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        if options:
            p.add_argument("--config", help="key=value config file; flags override it")
        for opt in options:
            help_ = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            if opt.key == "window_lo":
                p.add_argument("--window", nargs=2, type=opt.type, metavar=("LO", "HI"),
                               action=_Window, help=help_)
            elif opt.key != "window_hi":
                p.add_argument("--" + opt.key.replace("_", "-"), type=opt.type,
                               help=help_, choices=opt.choices)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        with _one_blas_thread:
            return _COMMANDS[args.command][0](_resolve(args.command, args, config))
    except DirlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (BudgetExceededError, TruncationError)):
            # what makes the run smaller, in the failing subcommand's own flags;
            # a failed truncation check needs a wider light cone, where one is a flag
            smaller = {"validate": "--radius", "check-hypotheses": "--r-max or --shells",
                       "simulate": "--t-max or --c-speed", "counterexample": "--t-max",
                       "oscillate": "--t-max"}[args.command]
            wider = isinstance(exc, TruncationError) and args.command == "simulate"
            print(f"hint: {'raise --c-speed' if wider else 'reduce ' + smaller}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
