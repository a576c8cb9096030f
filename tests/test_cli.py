"""CLI subcommands: reports, exit codes, determinism."""

import json
import math
import os
import re

import pytest

from dirlap import hypotheses, semigroup
from dirlap.cli import build_parser, main
from dirlap.errors import BudgetExceededError, InconsistentAdjacencyError

from helpers import read_json_report


def run(args):
    return main(args)


def test_schema_version(capsys):
    assert run(["schema-version"]) == 0
    assert capsys.readouterr().out.strip() == "v1"


def test_validate_clean_graph(tmp_path):
    code = run(["validate", "--graph", "example-2.2", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "validate.json"))
    assert doc["schema"] == "v1"
    assert doc["result"]["ok"] is True
    assert doc["spec"]["graph"] == "example-2.2"
    assert doc["spec"]["radius"] == 10  # defaults expanded into the spec


def test_unknown_graph_is_an_error(tmp_path, capsys):
    code = run(["validate", "--graph", "nope", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown graph" in capsys.readouterr().err


def assert_hint_names_own_options(command, capsys):
    """The last line of stderr is a hint, and every flag it names is one of ``command``'s."""
    hint = capsys.readouterr().err.splitlines()[-1]
    assert hint.startswith("hint:") and "config" not in hint
    flags = re.findall(r"--[a-z-]+", hint)
    assert flags
    (subparsers,) = build_parser()._subparsers._group_actions
    assert set(flags) <= set(subparsers.choices[command]._option_string_actions)


def test_error_hint_names_existing_options(tmp_path, capsys, monkeypatch):
    def cut(*args, **kwargs):
        raise BudgetExceededError("ball exceeded budget", 10)

    monkeypatch.setattr(hypotheses, "check_hypotheses", cut)
    code = run(["check-hypotheses", "--graph", "example-2.2", "--out", str(tmp_path)])
    assert code == 1
    assert_hint_names_own_options("check-hypotheses", capsys)


def test_truncation_hint_names_simulate_options(tmp_path, capsys):
    # a light cone too narrow for the skew-perturbed plane: the remedy is a
    # larger --c-speed, and simulate has no radius or shell flag
    code = run(["simulate", "--graph", "z2-skew-perturbed", "--t-max", "20",
                "--c-speed", "0.5", "--out", str(tmp_path)])
    assert code == 1
    assert_hint_names_own_options("simulate", capsys)
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["simulate", "counterexample", "oscillate"])
def test_non_finite_t_max_exits_1(tmp_path, capsys, command, value):
    # rejected before a sample grid is built from it
    assert run([command, "--t-max", value, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: t_max must be finite and positive"]
    assert not any(tmp_path.iterdir())


def test_no_hint_where_a_smaller_run_does_not_help(tmp_path, capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise InconsistentAdjacencyError("callbacks disagree", ((0,), (1,)))

    monkeypatch.setattr(hypotheses, "check_hypotheses", disagree)
    code = run(["check-hypotheses", "--graph", "example-2.2", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: callbacks disagree"]


def test_check_hypotheses_line_graph(tmp_path, capsys):
    code = run(["check-hypotheses", "--graph", "example-2.2",
                "--shells", "3000", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "hypotheses.json"))
    res = doc["result"]
    target = 2 * math.pi / math.tanh(math.pi)
    assert abs(res["skew_mass"]["w_partial"] - target) <= 2.5e-3
    assert res["skew_mass"]["verdict"] == "convergent"
    assert abs(res["vg"]["d_fit"] - 1.0) <= 0.05
    assert any("< 2" in w for w in res["warnings"])
    out = capsys.readouterr().out
    assert "warning" in out


def test_check_hypotheses_divergent_exits_2(tmp_path):
    code = run(["check-hypotheses", "--graph", "z2-advection",
                "--shells", "40", "--r-min", "4", "--r-max", "12",
                "--out", str(tmp_path)])
    assert code == 2
    doc = read_json_report(str(tmp_path / "hypotheses.json"))
    assert doc["result"]["skew_mass"]["verdict"] == "divergent"


def test_reports_are_bit_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["check-hypotheses", "--graph", "z2-skew-perturbed",
                    "--a", "0.5", "--r-min", "4", "--r-max", "10",
                    "--shells", "30", "--seed", "7", "--out", str(out)]) == 0
    blob1 = (out1 / "hypotheses.json").read_bytes()
    blob2 = (out2 / "hypotheses.json").read_bytes()
    assert blob1 == blob2


def test_simulate_small_run(tmp_path):
    code = run(["simulate", "--graph", "z-lattice", "--d", "1",
                "--t-max", "60", "--p", "inf", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "simulate.json"))
    assert abs(doc["result"]["fit"]["exponent"] + 0.5) <= 0.1
    csv_text = (tmp_path / "trajectory.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == "t,norm_kind,value"
    assert "linf" in csv_text and "Qinf" in csv_text


def test_fit_decay_roundtrip(tmp_path):
    data = tmp_path / "norms.csv"
    rows = ["t,value"] + [f"{t},{2.5 * (1 + t) ** -0.75}" for t in range(0, 50)]
    data.write_text("\n".join(rows))
    code = run(["fit-decay", "--csv", str(data), "--window", "5", "49",
                "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "fit.json"))
    assert abs(doc["result"]["exponent"] + 0.75) <= 1e-9


def test_fit_decay_rejects_stacked_series(tmp_path, capsys):
    # the layout of simulate's trajectory.csv: one series per norm kind, stacked
    data = tmp_path / "trajectory.csv"
    rows = ["t,norm_kind,value"]
    for kind, p in (("l1", 0.0), ("linf", 1.0)):
        rows += [f"{float(t)!r},{kind},{(1 + t) ** -p!r}" for t in range(50)]
    data.write_text("\n".join(rows) + "\n")
    code = run(["fit-decay", "--csv", str(data), "--window", "5", "49",
                "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{data}:52:" in err  # the first linf row, where t falls back to 0
    assert "one series per file" in err
    assert not (tmp_path / "fit.json").exists()


def test_fit_decay_rejects_a_nan_sample(tmp_path, capsys):
    data = tmp_path / "norms.csv"
    rows = ["t,value"] + [f"{t},{(1 + t) ** -0.5}" for t in range(50)]
    rows[21] = "20,nan"
    data.write_text("\n".join(rows))
    code = run(["fit-decay", "--csv", str(data), "--window", "5", "49",
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: non-finite sample: t=20.0, value=nan"]
    assert not (tmp_path / "fit.json").exists()


def test_simulate_rejects_a_nan_norm_order(tmp_path, capsys):
    code = run(["simulate", "--graph", "z-lattice", "--d", "1", "--t-max", "20",
                "--p", "nan", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: p must be >= 1, got nan"]
    assert not any(tmp_path.iterdir())


def test_simulate_checks_the_norm_order_before_the_flow(tmp_path, capsys, monkeypatch):
    def flow(*args, **kwargs):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(semigroup, "evolve", flow)
    code = run(["simulate", "--graph", "z-lattice", "--t-max", "20", "--p", "0.5",
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: p must be >= 1, got 0.5"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("given, missing", [("window_lo = 5", "window_hi"),
                                            ("window_hi = 49", "window_lo")],
                         ids=["lo-only", "hi-only"])
def test_fit_decay_one_window_bound_is_an_error(tmp_path, capsys, given, missing):
    data = tmp_path / "norms.csv"
    data.write_text("\n".join(["t,value"] + [f"{t},{(1 + t) ** -0.5}" for t in range(50)]))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(given + "\n")
    code = run(["fit-decay", "--config", str(cfg), "--csv", str(data),
                "--out", str(tmp_path)])
    assert code == 1
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph = z2-advection\nshells = 40\nr_min = 4\nr_max = 12\n")
    code = run(["check-hypotheses", "--config", str(cfg), "--graph",
                "example-2.2", "--shells", "100", "--out", str(tmp_path)])
    assert code == 0  # the flag overrode the divergent advection graph
    doc = read_json_report(str(tmp_path / "hypotheses.json"))
    assert doc["spec"]["graph"] == "example-2.2"
    assert doc["spec"]["shells"] == 100
    assert doc["spec"]["r_min"] == 4  # config value survived where no flag given


def test_counterexample_short_run(tmp_path, capsys):
    code = run(["counterexample", "--t-max", "60", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "counterexample.json"))
    res = doc["result"]
    assert res["skew_mass"]["verdict"] == "divergent"
    assert -0.7 <= res["fit"]["exponent"] <= -0.35
    assert res["peak_bounds_hold"] is True
    assert all(e["max_abs_err"] <= 1e-6 for e in res["closed_form_errors"])
    assert "violated" in res["verdict"]
    assert os.path.exists(tmp_path / "counterexample.csv")


def test_counterexample_below_one_fails_on_the_fit_window(tmp_path, capsys):
    # the grid keeps only times within t_max, so the error names the fit window
    code = run(["counterexample", "--t-max", "0.5", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == \
        ["error: need >= 8 samples in window [0.125, 0.5], got 1"]


def test_oscillate_short_run(tmp_path):
    code = run(["oscillate", "--a", "0.5", "--eps", "0.01",
                "--t-max", "40", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json_report(str(tmp_path / "oscillate.json"))
    res = doc["result"]
    assert res["lock_residual"] == 0.0
    assert res["l1_over_eps_max"] <= 5.0
    assert -1.4 <= res["deviation_fit"]["exponent"] <= -0.6


def test_oscillate_nan_perturbation_exits_1(tmp_path, capsys):
    code = run(["oscillate", "--eps", "nan", "--t-max", "4", "--out", str(tmp_path)])
    assert code == 1
    assert "l1 budget" in capsys.readouterr().err


def test_schema_rejects_other_versions(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "v0", "x": 1}))
    with pytest.raises(ValueError, match="schema"):
        read_json_report(str(bad))


# Arguments under which each command runs to exit 0 when the flag is accepted.
_QUICK_ARGS = {
    "validate": ["--graph", "example-2.2", "--radius", "2"],
    "simulate": ["--graph", "z-lattice", "--d", "1", "--t-max", "4"],
    "counterexample": ["--t-max", "20"],
    "oscillate": ["--t-max", "4"],
    "fit-decay": ["--window", "5", "49"],
}


@pytest.mark.parametrize("command, flag", [
    ("validate", "--seed"), ("simulate", "--seed"), ("counterexample", "--seed"),
    ("oscillate", "--seed"), ("fit-decay", "--seed"),
    ("validate", "--tol"), ("simulate", "--tol"), ("counterexample", "--tol"),
    ("fit-decay", "--tol")])
def test_flags_no_command_reads_are_rejected(tmp_path, capsys, command, flag):
    args = [command, *_QUICK_ARGS[command], "--out", str(tmp_path)]
    if command == "fit-decay":
        data = tmp_path / "norms.csv"
        data.write_text("\n".join(["t,value"] + [f"{t},{(1 + t) ** -0.5}" for t in range(50)]))
        args += ["--csv", str(data)]
    with pytest.raises(SystemExit) as exc:
        run(args + [flag, "1"])
    assert exc.value.code == 2
    # the same key in a config file is an unknown key
    key = flag[2:]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = 1\n")
    capsys.readouterr()
    assert run(args + ["--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} <= {"norms.csv", "exp.cfg"}


def test_hypotheses_report_leaves_out_volume_samples(tmp_path):
    assert run(["check-hypotheses", "--graph", "z-lattice", "--d", "2", "--r-min", "2",
                "--r-max", "4", "--shells", "5", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "hypotheses.json").read_text()
    assert "samples" not in text
    assert set(json.loads(text)["result"]["vg"]) == {"d_fit", "c_vol_low", "c_vol_high",
                                                     "r_range", "centers"}


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tol = 5\nbogus = 1\nradius = 2\n")
    code = run(["validate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "tol" in err
    assert not (tmp_path / "validate.json").exists()


def test_a_config_value_outside_the_choices_is_an_error(tmp_path, capsys, monkeypatch):
    # it used to pass the config and fail in evolve, after the graph was built
    monkeypatch.setattr(semigroup, "evolve", None)  # never reached
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph = z-lattice\nd = 1\npart = bogus\n")
    code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "part" in err and "bogus" in err and "full, sym" in err
    assert not (tmp_path / "simulate.json").exists()


def test_every_option_has_help_and_shows_its_default():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for command, parser in subparsers.items():
        for action in parser._actions:
            if action.dest in ("help", "config"):
                continue
            assert action.help, (command, action.dest)
    defaults = {"--t-max": "200.0", "--part": "full", "--d": "2", "--out": "dirlap-out"}
    helps = {a.option_strings[0]: a.help for a in subparsers["simulate"]._actions}
    for flag, default in defaults.items():
        assert helps[flag].endswith(f"(default {default})")
    assert "default" not in helps["--c-speed"]  # no default: the heuristic
    helps = {a.option_strings[0]: a.help for a in subparsers["check-hypotheses"]._actions}
    assert helps["--r-min"].endswith("(default 8)") and helps["--r-max"].endswith("(default 64)")
    helps = {a.option_strings[0]: a.help for a in subparsers["oscillate"]._actions}
    assert helps["--a"].endswith("(default 0.5)")


@pytest.mark.parametrize("command, config, flags, report", [
    ("validate", "graph = z-lattice\nd = 1\nradius = 2\n",
     ["--graph", "z-lattice", "--d", "1", "--radius", "2"], "validate.json"),
    ("check-hypotheses", "graph = z2-skew-perturbed\na = 0.5\nshells = 5\nr_min = 2\nr_max = 4\n",
     ["--graph", "z2-skew-perturbed", "--a", "0.5", "--shells", "5", "--r-min", "2",
      "--r-max", "4"], "hypotheses.json"),
    ("simulate", "graph = z-lattice\nd = 1\nt_max = 4\nc_speed = 3\n",
     ["--graph", "z-lattice", "--d", "1", "--t-max", "4", "--c-speed", "3"], "simulate.json"),
    ("fit-decay", "window_lo = 5\nwindow_hi = 49\n", ["--window", "5", "49"], "fit.json"),
], ids=["validate", "check-hypotheses", "simulate", "fit-decay"])
def test_config_file_matches_flags(tmp_path, command, config, flags, report):
    data = tmp_path / "norms.csv"
    data.write_text("\n".join(["t,value"] + [f"{t},{(1 + t) ** -0.5}" for t in range(50)]))
    extra = ["--csv", str(data)] if command == "fit-decay" else []
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert run([command, "--config", str(cfg), *extra, "--out", str(by_file)]) == 0
    assert run([command, *flags, *extra, "--out", str(by_flags)]) == 0
    assert (by_file / report).read_bytes() == (by_flags / report).read_bytes()
