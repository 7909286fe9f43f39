"""Report formats and the `drift` command line tool."""

import math
import os
import subprocess
import sys

import pytest

from driftlab import acceptance, bounds, cli, errors, oracle, processes
from driftlab.cli import (
    load_config,
    main,
    parse_potential,
    parse_process,
)
from driftlab.montecarlo import simulate_hitting
from driftlab.processes import make_simple_chain
from driftlab.report import (
    ComparisonRow,
    comparison_row,
    emit_plot_data,
    emit_report,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    verdict_for,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_ROW = ComparisonRow(
    theorem_id="mult.upper",
    direction="upper_on_ET",
    bound=79.91464547107982,
    oracle=71.95479314287364,
    sim_mean=None,
    sim_ci_lo=None,
    sim_ci_hi=None,
    preconditions="drift_D=unchecked",
    verdict="holds",
)


# --- report formats -----------------------------------------------------

def test_csv_header_and_shape():
    text = rows_to_csv([_ROW])
    lines = text.splitlines()
    assert lines[0] == (
        "theorem_id,direction,bound,oracle,sim_mean,sim_ci_lo,sim_ci_hi,"
        "preconditions,verdict"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "mult.upper"
    assert cells[2] == "79.9146454711"  # 12 significant digits
    assert cells[4] == "" and cells[5] == ""
    assert cells[8] == "holds"


def test_csv_rejects_empty():
    with pytest.raises(errors.ParameterError):
        rows_to_csv([])
    with pytest.raises(errors.ParameterError):
        rows_to_json([])


def test_json_round_trip():
    rows = [_ROW, ComparisonRow("neg.515", "upper_tail_prob", 0.25, verdict="holds")]
    back = rows_from_json(rows_to_json(rows))
    assert len(back) == 2
    assert back[0].theorem_id == "mult.upper"
    assert back[0].bound == pytest.approx(_ROW.bound, rel=1e-11)
    assert back[1].oracle is None


def test_emit_report_formats(tmp_path):
    path = tmp_path / "out.csv"
    emit_report([_ROW], "csv", str(path))
    assert path.read_text().startswith("theorem_id,")
    with pytest.raises(errors.ParameterError):
        emit_report([_ROW], "yaml", str(tmp_path / "x"))


def test_verdict_logic_per_direction():
    assert verdict_for("upper_on_ET", 10.0, oracle=9.0) == "holds"
    assert verdict_for("upper_on_ET", 10.0, oracle=11.0) == "violated"
    assert verdict_for("lower_on_ET", 10.0, oracle=11.0) == "holds"
    assert verdict_for("lower_on_ET", 10.0, oracle=9.0) == "violated"
    assert verdict_for("upper_tail_prob", 0.1, sim_mean=0.05, sim_se=0.01) == "holds"
    assert verdict_for("upper_tail_prob", 0.1, sim_mean=0.2, sim_se=0.01) == "violated"
    assert verdict_for("upper_on_ET", 10.0) == "indeterminate"
    # statistical slack: mean slightly above the bound but within 3 SE
    assert verdict_for("upper_on_ET", 10.0, sim_mean=10.5, sim_se=0.2) == "holds"
    # exact tolerance: tiny relative excess is not a violation
    assert verdict_for("upper_on_ET", 10.0, oracle=10.0 * (1 + 1e-12)) == "holds"
    # a fixed-budget value bounds from above, like upper_on_ET
    assert verdict_for("fixed_budget_value", 5.0, oracle=5.0 * (1 + 1e-12)) == "holds"
    assert verdict_for("fixed_budget_value", 5.0, oracle=5.1) == "violated"
    assert verdict_for("fixed_budget_value", 5.0, sim_mean=5.5, sim_se=0.2) == "holds"
    assert verdict_for("fixed_budget_value", 5.0, sim_mean=5.7, sim_se=0.2) == "violated"
    assert verdict_for("lower_on_ET", 10.0, sim_mean=9.5, sim_se=0.2) == "holds"
    assert verdict_for("lower_on_ET", 10.0, sim_mean=9.3, sim_se=0.2) == "violated"
    assert verdict_for("upper_tail_prob", 0.1, oracle=0.1 + 1e-10) == "holds"
    assert verdict_for("upper_tail_prob", 0.1, oracle=0.1 + 1e-8) == "violated"
    # every piece of evidence must agree
    assert verdict_for("upper_on_ET", 10.0, oracle=9.0, sim_mean=11.0, sim_se=0.1) == "violated"
    assert verdict_for("upper_on_ET", 10.0, oracle=11.0, sim_mean=9.0, sim_se=0.1) == "violated"
    assert verdict_for("upper_tail_prob", math.nan, sim_mean=0.0, sim_se=0.0) == "violated"


@pytest.mark.parametrize("cap", [10_000, 1])  # with and without finished trials
def test_comparison_row_interval_equals_run_stats_ci99(cap):
    stats = simulate_hitting(make_simple_chain("coupon", n=5), trials=200, seed=4, cap=cap)
    row = comparison_row("additive.upper", "upper_on_ET", 20.0, sim=(stats.mean, stats.se))

    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    assert same(row.sim_ci_lo, stats.ci99[0]) and same(row.sim_ci_hi, stats.ci99[1])
    assert math.isnan(stats.mean) == (cap == 1)


def test_plot_data_validation(tmp_path):
    path = str(tmp_path / "plot.csv")
    emit_plot_data({"s": [(0, 1.0, 0.9, 1.1), (1, 0.5, 0.4, 0.6)]}, path)
    lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert lines[0] == "series,x,y,ci_lo,ci_hi"
    assert lines[1].startswith("s,0,1,")
    with pytest.raises(errors.ParameterError):
        emit_plot_data({}, path)
    with pytest.raises(errors.ParameterError):
        emit_plot_data({"s": [(1, 1.0), (1, 2.0)]}, path)


# --- spec parsing -------------------------------------------------------

def test_parse_process_simple_and_ea():
    proc = parse_process("coupon(n=12)")
    assert "coupon" in proc.name
    ea = parse_process("OnePlusOneEA-leadingones(n=10,p=0.1)")
    assert ea.name == "OnePlusOneEA-leadingones(n=10,p=0.1)"
    with pytest.raises(errors.DriftError):
        parse_process("!!!")


def test_parse_potential_registry():
    g = parse_potential("glue_two_part(k=3)")
    assert g(10.0) == 6.5
    with pytest.raises(errors.ConfigError):
        parse_potential("no_such_potential")
    with pytest.raises(errors.ConfigError):
        parse_potential("expected_time")  # needs a process


@pytest.mark.parametrize(
    "spec, message",
    [
        ("plateau_upper(n=5.5,k=2)", "plateau_upper parameter 'n' must be a whole number, got 5.5"),
        ("plateau_upper(n=abc,k=2)", "plateau_upper parameter 'n' must be numeric, got 'abc'"),
        ("glue_two_part(x=1)", "glue_two_part takes no parameter 'x'; it takes k"),
        ("identity(k=1)", "identity takes no parameter 'k'; it takes none"),
        ("glue_two_part(k=1,k=2)", "glue_two_part parameter 'k' is given twice"),
    ],
)
def test_parse_potential_names_what_is_wrong(spec, message):
    with pytest.raises(errors.DriftError) as exc:
        parse_potential(spec)
    assert str(exc.value) == message


# --- config loading -----------------------------------------------------

def _write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


GOOD_CONFIG = """\
[process]
spec = coupon(n=20)

[simulation]
trials = 400
seed = 7
cap = 10000

[theorems]
mult.upper = e_x0=20, delta=0.05
"""


def test_load_config_requires_seed_and_process(tmp_path):
    with pytest.raises(errors.ConfigError, match="seed"):
        load_config(
            _write_config(tmp_path, "[process]\nspec = coupon(n=5)\n")
        )
    with pytest.raises(errors.ConfigError, match="process"):
        load_config(_write_config(tmp_path, "[simulation]\nseed = 1\n"))
    with pytest.raises(errors.ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_load_config_rejects_unknown_theorems(tmp_path):
    bad = GOOD_CONFIG + "wrong.id = a=1\n"
    with pytest.raises(errors.ConfigError, match="wrong.id"):
        load_config(_write_config(tmp_path, bad))


def test_load_config_values(tmp_path):
    cfg = load_config(_write_config(tmp_path, GOOD_CONFIG))
    assert cfg["process"] == "coupon(n=20)"
    assert cfg["trials"] == 400
    assert cfg["seed"] == 7
    assert cfg["theorems"] == [("mult.upper", {"e_x0": 20, "delta": 0.05})]


# --- end-to-end command runs --------------------------------------------

def test_run_holds_and_writes_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    cfg = GOOD_CONFIG + f"\n[output]\nreport = {report}\nformat = csv\n"
    code = main(["run", _write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("theorem_id,")
    assert ",holds" in out
    assert report.read_text() == out


def test_run_is_deterministic(tmp_path, capsys):
    path = _write_config(tmp_path, GOOD_CONFIG)
    main(["run", path])
    first = capsys.readouterr().out
    main(["run", path])
    second = capsys.readouterr().out
    assert first == second


def test_run_reports_violated_bound_with_exit_1(tmp_path, capsys):
    cfg = """\
[process]
spec = coupon(n=20)

[simulation]
trials = 0
seed = 1

[theorems]
additive.upper = e_x0=20, delta=10
"""
    code = main(["run", _write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert ",violated" in out


def test_run_unknown_theorem_exits_2(tmp_path, capsys):
    code = main(["run", _write_config(tmp_path, GOOD_CONFIG + "bogus.thm = a=1\n")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bogus.thm" in err


def test_run_emits_plot_csv(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    cfg = GOOD_CONFIG.replace("cap = 10000", "cap = 10000\nhorizon = 25")
    cfg += f"\n[output]\nplot = {plot}\n"
    code = main(["run", _write_config(tmp_path, cfg)])
    capsys.readouterr()
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "series,x,y,ci_lo,ci_hi"
    assert len(lines) == 27  # header + t = 0..25


def test_bound_command_prints_value_and_flags(capsys):
    code = main(["bound", "mult.upper", "--params", "e_x0=20, delta=0.05"])
    out = capsys.readouterr().out
    assert code == 0
    value = (1.0 + math.log(20.0)) / 0.05
    assert out.splitlines()[0] == f"mult.upper upper_on_ET {value:.12g}"
    assert "drift_D: unchecked" in out


@pytest.mark.parametrize(
    "theorem_id, params, key, value",
    [pytest.param("mult.tail", "s=2,delta=0.5,k=nan", "k", "nan", id="mult.tail-k=nan"),
     pytest.param("neg.515", "n=10,eps=-0.1,c=1,s=nan", "s", "nan", id="neg.515-s=nan"),
     pytest.param("mult.tail", "s=2,delta=-inf,k=1", "delta", "-inf", id="mult.tail-delta=-inf"),
     pytest.param("var.upper", "h=linear:inf,x0=10", "h", "inf", id="var.upper-h=linear:inf")],
)
def test_bound_command_rejects_a_non_finite_parameter(theorem_id, params, key, value, capsys):
    # a NaN passes every range check, so the calculator alone would print
    # a bound of nan and exit 0
    code = main(["bound", theorem_id, "--params", params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"drift: error: {theorem_id} parameter {key!r} must be finite, got {value}\n"
    )


@pytest.mark.parametrize("params", [["e_x0=1,delta=1,delta=4"], ["e_x0=1,delta=1", "delta=4"],
                                    ["delta=1", "e_x0=1", " delta =4"]])
def test_bound_command_names_a_key_given_twice(params, capsys):
    # a repeat within one --params item or across items; the last value
    # used to win silently
    code = main(["bound", "additive.upper", "--params", *params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "drift: error: additive.upper parameter 'delta' is given twice\n"


def test_bound_command_unknown_id(capsys):
    code = main(["bound", "nope.upper"])
    err = capsys.readouterr().err
    assert code == 2
    assert "mult.upper" in err  # lists the known ids


def _fresh(argv):
    """(exit code, stdout, stderr) of argv in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "driftlab.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("bad", [["bound"], ["bound", "mult.upper", "--params", "e_x0=abc"]])
def test_calls_after_a_failed_one_behave_as_in_fresh_processes(bad, capsys):
    # main keeps one parser: a usage error (argparse exits) or a refused
    # parameter, then a good call and the bad call again, all as a fresh
    # `drift` prints them
    good = ["bound", "mult.upper", "--params", "e_x0=20,delta=0.05"]
    want_bad, want_good = _fresh(bad), _fresh(good)
    assert want_bad[0] == 2 and want_good[0] == 0
    assert _in_process(bad, capsys) == want_bad
    assert _in_process(good, capsys) == want_good
    assert _in_process(bad, capsys) == want_bad
    # the shared default of --params is left as it was
    assert cli.build_parser().parse_args(["bound", "mult.upper"]).params == ()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "mult.upper"], "mult.upper needs parameter 'e_x0'"),
        (["bound", "fss.upper", "--params", "x0=2"], "fss.upper needs parameter 'p_leave'"),
    ],
)
def test_bound_command_names_missing_parameter(argv, message, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"drift: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "budget.add", "--params", "x0=10", "delta=1", "t=3", "pr_t_le_T=0.5"],
         "budget.add takes no parameter 'pr_t_le_T'; it takes x0, delta, t, pr_t_le_t"),
        # a misspelt required key is named as misspelt, not as missing
        (["bound", "mult.upper", "--params", "e_x=20", "delta=1"],
         "mult.upper takes no parameter 'e_x'; it takes e_x0, delta"),
        (["bound", "headwind.closed", "--params", "p_minus=0:1", "p_plus=0:0", "delta=1:1",
          "kappa=0", "x0=1"],
         "headwind.closed takes no parameter 'x0'; it takes p_minus, p_plus, delta, kappa"),
    ],
)
def test_bound_command_names_unknown_parameter(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"drift: error: {message}\n"


# the first parameter each calculator takes, in signature order
_FIRST_PARAMETER = {
    "additive.upper": "e_x0", "additive.lower": "e_x0", "additive.overshoot.upper": "e_x0",
    "mult.upper": "e_x0", "mult.tail": "s", "mult.lower.monotone": "x0",
    "mult.lower.bounded": "x0", "var.upper": "h",
    "tail.add.upper.bounded": "n", "tail.add.upper.concentrated": "n",
    "tail.add.lower.bounded": "n", "tail.add.lower.concentrated": "n", "neg.515": "n",
    "fss.upper": "p_leave", "fss.lower": "p_fwd",
    "headwind": "p_minus", "headwind.closed": "p_minus", "updrift": "n", "levelbased": "m",
    "flm.upper": "p", "flm.visit.lower": "p", "flm.visit.upper": "p",
    "budget.add": "x0", "budget.var": "h", "budget.threshold": "h",
}


@pytest.mark.parametrize("theorem_id", sorted(bounds.THEOREMS))
def test_bound_command_without_parameters_names_the_first(theorem_id, capsys):
    code = main(["bound", theorem_id])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"drift: error: {theorem_id} needs parameter {_FIRST_PARAMETER[theorem_id]!r}\n"
    )


def test_every_spec_parameter_has_a_converter():
    # an unannotated parameter would otherwise fail only at a user's prompt
    targets = [getattr(bounds, theorem.calculator) for theorem in bounds.THEOREMS.values()]
    targets += [*processes._SIMPLE_CHAINS.values(), *cli._POTENTIALS.values()]
    for fn in targets:
        for key, kind in cli._keys(fn):
            assert kind in cli._CONVERTERS, f"{fn.__name__} parameter {key!r}: {kind!r}"


# one drift bound call per theorem id, with its stdout byte for byte: the
# flags' order included, computed flags (var.upper, budget.var, levelbased)
# first and additive.lower's profile flag second
_PINNED_BOUNDS = [
    ("additive.upper", "e_x0=10,delta=0.5",
     "additive.upper upper_on_ET 20\n"
     "  drift_D: unchecked\n"
     "  non_negativity_NN: unchecked\n"),
    ("additive.lower", "e_x0=10,delta=0.5,c=2",
     "additive.lower lower_on_ET 20\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("additive.lower", "e_x0=10,delta=0.5,c=2,profile=bounded_state",
     "additive.lower lower_on_ET 20\n"
     "  drift_D: unchecked\n"
     "  state_bound_UB: unchecked\n"),
    ("additive.overshoot.upper", "e_x0=10,e_xt=-1,delta=0.5",
     "additive.overshoot.upper upper_on_ET 22\n"
     "  drift_D: unchecked\n"),
    ("mult.upper", "e_x0=20,delta=0.05",
     "mult.upper upper_on_ET 79.9146454711\n"
     "  drift_D: unchecked\n"),
    ("mult.tail", "s=50,delta=0.02,k=2",
     "mult.tail upper_tail_prob 0.135335283237\n"
     "  drift_D: unchecked\n"
     "  start_bound: unchecked\n"),
    ("mult.lower.monotone", "x0=100,delta=0.1,beta=0.25",
     "mult.lower.monotone lower_on_ET 27.6310211159\n"
     "  drift_D: unchecked\n"
     "  monotone_M: unchecked\n"
     "  concentration_C: unchecked\n"),
    ("mult.lower.bounded", "x0=100,delta=0.1,c=1,x_min=2",
     "mult.lower.bounded lower_on_ET 9.21004313518\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("var.upper", "h=linear:0.5,x_min=1,x0=10",
     "var.upper upper_on_ET 6.60517018599\n"
     "  h_monotone: pass\n"
     "  drift_D: unchecked\n"),
    ("tail.add.upper.bounded", "n=10,delta=1,c=1,s=40",
     "tail.add.upper.bounded upper_tail_prob 0.00673794699909\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("tail.add.upper.concentrated", "n=10,delta=1,c=1,eps=0.5,s=40",
     "tail.add.upper.concentrated upper_tail_prob 0.99512908905\n"
     "  drift_D: unchecked\n"
     "  concentration_C: unchecked\n"),
    ("tail.add.lower.bounded", "n=10,delta=1,c=1,s=4",
     "tail.add.lower.bounded upper_tail_prob 0.0439369336234\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("tail.add.lower.concentrated", "n=10,delta=1,c=1,eps=0.5,s=4",
     "tail.add.lower.concentrated upper_tail_prob 0.996952894067\n"
     "  drift_D: unchecked\n"
     "  concentration_C: unchecked\n"),
    ("neg.515", "n=10,eps=-0.5,c=1,s=0.5",
     "neg.515 upper_tail_prob 0.0410424993119\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("neg.515", "n=10,eps=-0.1,c=2,s=100",
     "neg.515 upper_tail_prob 1\n"
     "  drift_D: unchecked\n"
     "  step_bound_B: unchecked\n"),
    ("fss.upper", "p_leave=0.5:0.5:0.5,p_back=0:0.2:0.2,x0=3",
     "fss.upper upper_on_ET 7.92\n"
     "  down_prob_lb: unchecked\n"
     "  up_prob_ub: unchecked\n"
     "  up_steps_of_1: unchecked\n"),
    ("fss.lower", "p_fwd=0.5:0.5:0.5,p_back_lb=0:0.1:0.1,x0=3",
     "fss.lower lower_on_ET 6.88\n"
     "  down_prob_ub: unchecked\n"
     "  down_steps_of_1: unchecked\n"
     "  up_prob_lb: unchecked\n"),
    ("headwind", "p_minus=0:0.5:0.5:0.5,p_plus=0:0.1:0.1:0.1,delta=0:0:0.2:0.3,kappa=1,x0=3",
     "headwind upper_on_ET 12\n"
     "  delta_monotone: pass\n"),
    ("headwind.closed", "p_minus=0:0.5:0.5:0.5,p_plus=0:0.1:0.1:0.1,delta=0:-0.1:0.2:0.3,kappa=1",
     "headwind.closed upper_on_ET 12\n"
     "  delta_monotone: fail\n"),
    ("headwind.closed", "p_minus=0:0.5:0.5:0.5,p_plus=0:0.1:0.1:0.1,delta=0:0.3:0.2:0.4,kappa=0",
     "headwind.closed upper_on_ET 10.8333333333\n"
     "  delta_monotone: fail\n"),
    ("updrift", "n=5,k=20,e0=1,gamma0=0.5,delta=0.5",
     "updrift upper_on_ET 429.140364433\n"
     "  binomial_domination: unchecked\n"
     "  gain_at_zero: unchecked\n"),
    ("updrift", "n=5,k=20,e0=1,gamma0=0.5,delta=2",
     "updrift upper_on_ET 248.911495256\n"
     "  binomial_domination: unchecked\n"
     "  gain_at_zero: unchecked\n"),
    ("levelbased", "m=3,lam=2000000,delta=0.5,gamma0=0.5,z=0.01:0.05",
     "levelbased upper_on_ET 1.24258574105e+13\n"
     "  population_size_PS: pass\n"
     "  drift_D: unchecked\n"
     "  zero_condition: unchecked\n"),
    ("levelbased", "m=3,lam=100,delta=0.5,gamma0=0.5,z=0.01:0.05",
     "levelbased upper_on_ET nan\n"
     "  population_size_PS: fail\n"
     "  drift_D: unchecked\n"
     "  zero_condition: unchecked\n"),
    ("flm.upper", "p=0.5:0.25",
     "flm.upper upper_on_ET 6\n"
     "  monotone_levels: unchecked\n"),
    ("flm.visit.lower", "p=0.5:0.25,v=0.5:1",
     "flm.visit.lower lower_on_ET 5\n"
     "  monotone_levels: unchecked\n"),
    ("flm.visit.upper", "p=0.5:0.25,v=0.5:1",
     "flm.visit.upper upper_on_ET 5\n"
     "  monotone_levels: unchecked\n"),
    ("budget.add", "x0=10,delta=1,t=3",
     "budget.add fixed_budget_value 7\n"
     "  drift_D: unchecked\n"),
    ("budget.add", "x0=10,delta=1,t=3,pr_t_le_t=0.5",
     "budget.add fixed_budget_value 8.5\n"
     "  drift_D: unchecked\n"),
    ("budget.var", "h=linear:0.1,x0=10,t=3",
     "budget.var fixed_budget_value 7.29\n"
     "  greed_admitting: pass\n"
     "  h_convex: pass\n"
     "  drift_D: unchecked\n"),
    ("budget.var", "h=linear:0.1,x0=10,t=3,variant=limited",
     "budget.var fixed_budget_value 7.29\n"
     "  greed_admitting: pass\n"
     "  h_convex: pass\n"
     "  drift_D: unchecked\n"),
    ("budget.var", "h=linear:-0.1,x0=10,t=3,variant=limited",
     "budget.var fixed_budget_value 13.31\n"
     "  greed_admitting: pass\n"
     "  h_convex: pass\n"
     "  h_tilde_slope_at_0: fail\n"
     "  drift_D: unchecked\n"),
    ("budget.threshold", "h=linear:0.5,x=1,y=10",
     "budget.threshold fixed_budget_value 5\n"
     "  h_monotone: pass\n"),
    ("budget.threshold", "h=const:2,x=1,y=10,domain=integer",
     "budget.threshold fixed_budget_value 5\n"
     "  h_monotone: pass\n"),
]


@pytest.mark.parametrize("theorem_id, params, want", _PINNED_BOUNDS)
def test_bound_command_prints_every_theorem_as_pinned(theorem_id, params, want, capsys):
    code = main(["bound", theorem_id, "--params", params])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == want


def test_pinned_bounds_cover_every_theorem_id(capsys):
    # the ids as the unknown-id message lists them
    assert main(["bound", "nope"]) == 2
    known = capsys.readouterr().err.rstrip("\n").split("known: ")[1].split(", ")
    assert sorted({theorem_id for theorem_id, _, _ in _PINNED_BOUNDS}) == known


def test_bound_command_names_non_numeric_parameter(capsys):
    code = main(["bound", "mult.upper", "--params", "e_x0=abc", "delta=1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "mult.upper" in err and "'e_x0'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "fss.upper", "--params", "p_leave=0.5", "p_back=0.1", "x0=1"],
        ["bound", "flm.upper", "--params", "p=0.5"],
    ],
)
def test_bound_command_takes_a_number_as_a_one_element_list(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].endswith(" 2")


def test_bound_command_prints_inf_when_the_double_sum_overflows(capsys):
    p_leave = ":".join(["0.1"] * 700)
    p_back = ":".join(["0.0"] + ["0.8"] * 699)
    code = main(
        ["bound", "fss.upper", "--params", f"p_leave={p_leave}", f"p_back={p_back}", "x0=1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "fss.upper upper_on_ET inf"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fss.upper", "--params", "p_leave=0.5:0.5", "p_back=0:-0.3", "x0=2"],
         "p_back at state 1 must be non-negative and finite, got -0.3"),
        (["fss.upper", "--params", "p_leave=0:0.5", "p_back=0:0.3", "x0=2"],
         "p_leave at state 1 must be positive and finite, got 0.0"),
        (["fss.upper", "--params", "p_leave=0.5:0.5", "p_back=0:0.2:0.3", "x0=2"],
         "p_back must cover states [0..n-1]"),
        (["fss.upper", "--params", "p_leave=0.5:0.5", "p_back=0:0.2", "x0=3"],
         "x0 3 outside [0..2]"),
        (["fss.lower", "--params", "p_fwd=0.5:0", "p_back_lb=0:0.3", "x0=2"],
         "p_fwd at state 2 must be positive and finite, got 0.0"),
        (["fss.lower", "--params", "p_fwd=0.5:0.5", "p_back_lb=0:-0.1", "x0=2"],
         "p_back_lb at state 1 must be non-negative and finite, got -0.1"),
        (["fss.lower", "--params", "p_fwd=0.5:0.5", "p_back_lb=0", "x0=2"],
         "p_back_lb must cover states [0..n-1]"),
        (["fss.lower", "--params", "p_fwd=0.5:0.5", "p_back_lb=0:0.3", "x0=3"],
         "x0 3 outside [0..2]"),
    ],
)
def test_double_sum_bounds_name_their_own_keys(argv, message, capsys):
    code = main(["bound", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"drift: error: {message}\n"


@pytest.mark.parametrize(
    "params, message",
    [
        (["h=const:0", "x=1", "y=3"], "h must be positive on [1, 3], got h(1) = 0.0"),
        (["h=linear:0.1", "x=0", "y=3", "domain=integer"],
         "h must be positive on [0, 3], got h(0.0) = 0.0"),
        (["h=linear:1", "x0=1", "t=0", "variant=limited"],
         "the limited variant needs h~'(0) > 0, got 0.0"),
    ],
)
def test_budget_bounds_name_a_drift_they_cannot_divide_by(params, message, capsys):
    theorem_id = "budget.var" if "variant=limited" in params else "budget.threshold"
    code = main(["bound", theorem_id, "--params", *params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"drift: error: {message}\n"


_RUIN_CONFIG = """\
[process]
spec = gamblers_ruin(n=30)

[simulation]
trials = {trials}
seed = 9
cap = {cap}

[theorems]
{theorem}
"""


@pytest.mark.parametrize(
    "trials, cap, theorem",
    [
        # every trial censored: no mean to compare against
        (50, 5, "additive.upper = e_x0=900, delta=1"),
        # 292 of 2000 censored: the finished trials understate E[T]
        (2000, 1500, "additive.lower = e_x0=900, delta=1, c=59"),
    ],
    ids=["all_censored", "lower_bound_some_censored"],
)
def test_run_censored_simulation_does_not_judge_the_bound(
    trials, cap, theorem, tmp_path, capsys
):
    cfg = _RUIN_CONFIG.format(trials=trials, cap=cap, theorem=theorem)
    code = main(["run", _write_config(tmp_path, cfg)])
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert code == 0
    assert row[2] == row[3] == "900"  # bound and oracle
    assert row[4:7] == ["", "", ""]  # no simulation in the row
    assert row[-1] == "holds"


def test_run_does_not_judge_a_tail_bound_by_the_expected_time(tmp_path, capsys):
    # the oracle and the simulated mean are E[T], not Pr[T > s]
    cfg = GOOD_CONFIG.replace("mult.upper = e_x0=20, delta=0.05", "mult.tail = s=20, delta=0.05, k=1")
    code = main(["run", _write_config(tmp_path, cfg)])
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert code == 0
    assert row[:2] == ["mult.tail", "upper_tail_prob"]
    assert row[3:7] == ["", "", "", ""]  # neither oracle nor simulation
    assert row[-1] == "indeterminate"


def test_run_names_a_theorem_parameter_given_twice(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("e_x0=20, delta=0.05", "e_x0=20, delta=0.05, e_x0=3")
    code = main(["run", _write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "drift: error: mult.upper parameter 'e_x0' is given twice\n"


def test_run_names_missing_theorem_parameter(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("e_x0=20, delta=0.05", "e_x0=20")
    code = main(["run", _write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "mult.upper needs parameter 'delta'" in captured.err


def test_oracle_command(capsys):
    code = main(["oracle", "coupon(n=20)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "71.9547931429"


def test_oracle_command_solves_the_ea_on_bit_strings_up_to_ten_bits(capsys):
    assert main(["oracle", "OnePlusOneEA-leadingones(n=10,p=0.1)"]) == 0
    assert capsys.readouterr().out == "84.0587395857\n"


def test_run_takes_the_exact_path_for_the_ea_on_bit_strings(tmp_path, capsys):
    # the oracle column holds E[T] of the 2^6-string chain
    cfg = GOOD_CONFIG.replace("coupon(n=20)", "OnePlusOneEA-leadingones(n=6,p=0.2)")
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    oracle_value = float(dict(zip(header.split(","), row.split(",")))["oracle"])
    assert oracle_value == pytest.approx(oracle.leadingones_exact(6, 0.2), rel=1e-9)


def test_oracle_command_rejects_huge_state_space(capsys):
    code = main(["oracle", "OnePlusOneEA-leadingones(n=10000,p=0.0001)"])
    assert code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("coupon(n=abc)", "coupon parameter 'n' must be numeric, got 'abc'"),
        ("OnePlusOneEA-leadingones(n=4,p=abc)",
         "OnePlusOneEA-leadingones parameter 'p' must be numeric, got 'abc'"),
        ("RLS-onemax(n=4.5)", "RLS-onemax parameter 'n' must be a whole number, got 4.5"),
        ("coupon(n=5.5)", "coupon parameter 'n' must be a whole number, got 5.5"),
        ("RLS-onemax(n=4,q=3)", "RLS-onemax takes no parameter 'q'"),
        ("coupon(m=5)", "coupon takes no parameter 'm'; it takes n"),
        ("coupon()", "coupon needs parameter 'n'"),
        ("RLS-onemax(n=4,p=0.9)", "RLS-onemax takes no mutation rate; RLS flips exactly one bit"),
        ("OnePlusOneEA-onemax(n=4,k=3)", "OnePlusOneEA-onemax takes no k; only plateau has a radius k"),
        ("updrift(n=10,k=100,delta=1)", "updrift(n=10,k=100,delta=1) has no exact kernel"),
        ("OnePlusOneEA-leadingones(n=11,p=0.1)",
         "OnePlusOneEA-leadingones(n=11,p=0.1) has no exact kernel"),
        ("updrift(n=0,k=100,delta=1)", "updrift requires n >= 1"),
        ("updrift(n=101,k=100,delta=1)", "updrift requires n <= k"),
        ("updrift(n=10,k=100,delta=-1)", "updrift requires delta > 0"),
        ("updrift(n=10,k=100,delta=nan)", "updrift parameter 'delta' must be finite, got nan"),
        ("updrift(n=10,k=100.5,delta=1)", "updrift parameter 'k' must be a whole number, got 100.5"),
        ("RLS-foo(n=5)",
         "unknown objective 'foo'; expected onemax, leadingones, plateau or linear"),
        ("coupon(n=5,n=6)", "coupon parameter 'n' is given twice"),
        ("OnePlusOneEA-leadingones(n=4, p=0.5, p=0.1)",
         "OnePlusOneEA-leadingones parameter 'p' is given twice"),
    ],
)
def test_oracle_command_names_what_is_wrong_with_the_process(spec, message, capsys):
    code = main(["oracle", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"drift: error: {message}\n"


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["bound", "budget.var", "--params", "h=linear:0.1", "x0=10", "t=2.5"], "t", "2.5"),
        (["bound", "fss.upper", "--params", "p_leave=0.5", "p_back=0.1", "x0=1.5"], "x0", "1.5"),
        (["bound", "levelbased", "--params", "m=3.7", "lam=20000", "delta=0.5",
          "gamma0=0.5", "z=0.01:0.05"], "m", "3.7"),
    ],
)
def test_bound_command_refuses_a_fractional_count(argv, key, value, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"drift: error: {argv[1]} parameter {key!r} must be a whole number, got {value}\n"
    )


@pytest.mark.parametrize("lam", ["0", "-4", "-1000000000000"])
def test_bound_command_refuses_a_population_below_one(lam, capsys):
    code = main(["bound", "levelbased", "--params",
                 f"m=3,lam={lam},delta=0.5,gamma0=0.5,z=0.01:0.05"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"drift: error: levelbased parameter 'lam' must be at least 1, got {lam}\n"
    )


@pytest.mark.parametrize("argv", [
    ["headwind.closed", "--params", "p_minus=0:0.5:0.5,p_plus=0:0.1:0.1,delta=0:0.4:0.4,kappa=3"],
    ["headwind", "--params", "p_minus=0:0.5:0.5,p_plus=0:0.1:0.1,delta=0:0.4:0.4,kappa=3,x0=1"],
])
def test_bound_command_refuses_a_headwind_zone_past_the_top(argv, capsys):
    code = main(["bound", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "drift: error: kappa 3 above the top state n = 2\n"


def test_simulate_command(capsys):
    code = main(
        ["simulate", "geometric(p=0.5)", "--trials", "2000", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("mean ")
    mean = float(out.split()[1])
    assert abs(mean - 2.0) < 0.2
    assert "censored 0/2000" in out


def test_simulate_command_names_a_negative_seed(capsys):
    code = main(["simulate", "geometric(p=0.5)", "--trials", "10", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "drift: error: simulate_hitting parameter 'seed' must be non-negative, got -1\n"
    )


@pytest.mark.parametrize("seed", ["-1", "-2000"])
def test_suite_command_names_a_negative_seed(capsys, seed):
    code = main(["suite", "quick", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"drift: error: run_suite parameter 'seed' must be non-negative, got {seed}\n"
    )


def test_run_suite_names_a_fractional_seed():
    with pytest.raises(errors.ParameterError,
                       match="run_suite parameter 'seed' must be a whole number, got 2.5"):
        acceptance.run_suite("quick", seed=2.5)


def test_simulate_command_names_a_trial_count_below_one(capsys):
    code = main(["simulate", "coupon(n=5)", "--trials", "0", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "drift: error: simulate_hitting parameter 'trials' must be at least 1, got 0\n"
    )


def test_simulate_command_runs_the_updrift_chain_of_the_acceptance_row(capsys):
    # the updrift_levels criterion's process, seed and trials: its sim_mean
    code = main(["simulate", "updrift(n=100,k=1000,delta=1)", "--trials", "10000",
                 "--seed", "1600"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.split()[:2] == ["mean", "8.9713"]
    assert "censored 0/10000" in out


def test_suite_quick_holds(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code = main(["suite", "quick", "--output", str(out_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = rows_from_json(out_path.read_text())
    assert len(rows) == 5
    assert all(r.verdict == "holds" for r in rows)
    assert out.count("\n") == 6  # header + five rows
