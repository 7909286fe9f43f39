"""The `drift` command line tool.

Subcommands: `run` (config-driven experiment), `suite` (validation
suites), `bound` (one calculator invocation), `oracle` (exact expected
hitting time), `simulate` (seeded Monte Carlo).  Exit codes: 0 ok,
1 at least one "violated" verdict, 2 usage or configuration error.
"""

import argparse
import configparser
import re
import sys

from . import acceptance, bounds, montecarlo, oracle as oracle_mod, potentials, processes
from .errors import CapacityError, ConfigError, DriftError, UnsupportedError
from .report import VIOLATED, comparison_row, emit_plot_data, emit_report, rows_to_csv

_CALL_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?\s*$")


def _parse_scalar(text: str):
    text = text.strip()
    if ":" in text:
        return [_parse_scalar(part) for part in text.split(":")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(body: str) -> dict:
    params = {}
    if not body or not body.strip():
        return params
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item.strip()!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _parse_scalar(value)
    return params


def _parse_call(spec: str):
    match = _CALL_RE.match(spec)
    if not match:
        raise ConfigError(f"cannot parse spec {spec!r}; expected name(k=v,...)")
    return match.group(1), _parse_params(match.group(2) or "")


def parse_process(spec: str):
    """Build a catalog process from a name(k=v,...) spec.

    Simple chains use their catalog kind (coupon, geometric, ...);
    search heuristics use algorithm-objective, e.g. RLS-onemax(n=12)
    or OnePlusOneEA-leadingones(n=10,p=0.1).
    """
    name, params = _parse_call(spec)
    if "-" in name:
        algorithm, objective = name.split("-", 1)
        return processes.make_ea_process(
            algorithm,
            objective,
            n=params.get("n"),
            k=params.get("k"),
            mutation_rate=params.get("p"),
        )
    return processes.make_simple_chain(name, **params)


_POTENTIALS = {
    "identity": lambda: potentials.identity_potential(),
    "glue_two_part": potentials.glue_two_part,
    "plateau_upper": potentials.plateau_upper_potential,
    "plateau_lower": potentials.plateau_lower_potential,
    "linear_weights": potentials.linear_weights_potential,
    "walk_square_two_barrier": potentials.walk_square_two_barrier,
    "walk_square_one_barrier": potentials.walk_square_one_barrier,
}


def parse_potential(spec: str, process=None):
    name, params = _parse_call(spec)
    if name == "expected_time":
        if process is None:
            raise ConfigError("expected_time potential needs a process")
        chain = processes.to_finite_chain(process)
        return potentials.expected_time_potential(chain)
    if name not in _POTENTIALS:
        raise ConfigError(
            f"unknown potential {name!r}; expected one of "
            f"{sorted(_POTENTIALS) + ['expected_time']}"
        )
    return _POTENTIALS[name](**params)


def _drift_fn(value) -> bounds.DriftFunction:
    """linear:<delta> or const:<delta> shorthand for drift functions."""
    if isinstance(value, list) and len(value) == 2:
        kind, delta = value
        if kind == "linear":
            return bounds.linear_drift(float(delta))
        if kind == "const":
            return bounds.constant_drift(float(delta))
    raise ConfigError(f"cannot parse drift function {value!r}; use linear:d or const:d")


def _floats(value):
    """A colon-separated list; a single number is a one-element list."""
    return [float(v) for v in (value if isinstance(value, list) else [value])]


def _level_profile(p, visits=False) -> bounds.LevelProfile:
    probs = tuple(_floats(p["p"]))
    v = tuple(_floats(p["v"])) if visits else None
    return bounds.LevelProfile(m=len(probs) + 1, p=probs, v=v)


def _calc_headwind(p, x0=None, closed=False):
    params = bounds.HeadwindParams(
        p_minus=tuple(_floats(p["p_minus"])),
        p_plus=tuple(_floats(p["p_plus"])),
        delta=tuple(_floats(p["delta"])),
        kappa=int(p["kappa"]),
    )
    if closed:
        return bounds.headwind_closed(params)
    return bounds.headwind_upper(params, int(p["x0"]))


_CALCULATORS = {
    "additive.upper": lambda p: bounds.additive_upper(p["e_x0"], p["delta"]),
    "additive.lower": lambda p: bounds.additive_lower(
        p["e_x0"], p["delta"], p["c"], p.get("profile", "bounded_steps")
    ),
    "additive.overshoot.upper": lambda p: bounds.additive_overshoot_upper(
        p["e_x0"], p["e_xt"], p["delta"]
    ),
    "mult.upper": lambda p: bounds.multiplicative_upper(p["e_x0"], p["delta"]),
    "mult.tail": lambda p: bounds.multiplicative_tail(p["s"], p["delta"], p["k"]),
    "mult.lower.monotone": lambda p: bounds.multiplicative_lower_monotone(
        p["x0"], p["delta"], p["beta"]
    ),
    "mult.lower.bounded": lambda p: bounds.multiplicative_lower_bounded_step(
        p["x0"], p["delta"], p["c"], p["x_min"]
    ),
    "var.upper": lambda p: bounds.variable_drift_upper(
        _drift_fn(p["h"]), p["x_min"], p["x0"]
    ),
    "tail.add.upper.bounded": lambda p: bounds.additive_tail_upper_bounded(
        p["n"], p["delta"], p["c"], p["s"]
    ),
    "tail.add.upper.concentrated": lambda p: bounds.additive_tail_upper_concentrated(
        p["n"], p["delta"], p["c"], p["eps"], p["s"]
    ),
    "tail.add.lower.bounded": lambda p: bounds.additive_tail_lower_bounded(
        p["n"], p["delta"], p["c"], p["s"]
    ),
    "tail.add.lower.concentrated": lambda p: bounds.additive_tail_lower_concentrated(
        p["n"], p["delta"], p["c"], p["eps"], p["s"]
    ),
    "neg.515": lambda p: bounds.negative_drift_escape(
        p["n"], p["eps"], p["c"], p["s"]
    ),
    "fss.upper": lambda p: bounds.finite_state_upper(
        _floats(p["p_leave"]), _floats(p["p_back"]), int(p["x0"])
    ),
    "fss.lower": lambda p: bounds.finite_state_lower(
        _floats(p["p_fwd"]), _floats(p["p_back_lb"]), int(p["x0"])
    ),
    "headwind": lambda p: _calc_headwind(p),
    "headwind.closed": lambda p: _calc_headwind(p, closed=True),
    "updrift": lambda p: bounds.updrift_upper(
        bounds.UpDriftParams(
            n=int(p["n"]), k=int(p["k"]), e0=p["e0"],
            gamma0=p["gamma0"], delta=p["delta"],
        )
    ),
    "levelbased": lambda p: bounds.level_based(
        bounds.LevelBasedParams(
            m=int(p["m"]), lam=int(p["lam"]), delta=p["delta"],
            gamma0=p["gamma0"], z=tuple(_floats(p["z"])),
        )
    ),
    "flm.upper": lambda p: bounds.flm_upper(_level_profile(p)),
    "flm.visit.lower": lambda p: bounds.flm_visit_lower(_level_profile(p, visits=True)),
    "flm.visit.upper": lambda p: bounds.flm_visit_upper(_level_profile(p, visits=True)),
    "budget.add": lambda p: bounds.fixed_budget_additive(
        p["x0"], p["delta"], int(p["t"]), p.get("pr_t_le_t")
    ),
    "budget.var": lambda p: bounds.fixed_budget_variable(
        _drift_fn(p["h"]), p["x0"], int(p["t"]), p.get("variant", "unlimited")
    ),
    "budget.threshold": lambda p: bounds.iterated_budget_threshold(
        _drift_fn(p["h"]), p["x"], p["y"], p.get("domain", "continuous")
    ),
}


# parameters whose values are words or drift-function shorthands
_WORD_KEYS = frozenset({"profile", "variant", "domain", "h"})


def _numeric(value) -> bool:
    items = value if isinstance(value, list) else [value]
    return all(isinstance(v, (int, float)) for v in items)


def _calculate(theorem_id: str, params: dict) -> bounds.BoundReport:
    """Run one calculator; a missing or non-numeric parameter is a
    ConfigError naming it."""
    for key, value in params.items():
        if key not in _WORD_KEYS and not _numeric(value):
            raise ConfigError(
                f"{theorem_id} parameter {key!r} must be numeric, got {value!r}"
            )
    try:
        return _CALCULATORS[theorem_id](params)
    except KeyError as exc:
        raise ConfigError(f"{theorem_id} needs parameter {exc.args[0]!r}") from exc


def _flags_text(report: bounds.BoundReport) -> str:
    return ";".join(f"{f.name}={f.status}" for f in report.preconditions)


def _sim_evidence(stats, direction: str):
    """(mean, se) of the finished trials, or None where they cannot judge
    the bound: with no finished trial there is no mean, and with any
    censored trial the mean understates E[T], so it cannot refute a
    lower bound."""
    if stats is None or stats.censored == stats.trials:
        return None
    if stats.censored and direction == bounds.LOWER_ON_ET:
        return None
    return stats.mean, stats.se


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not parser.has_section("process") or not parser.has_option("process", "spec"):
        raise ConfigError("config needs [process] spec = name(k=v,...)")
    if not parser.has_section("simulation") or not parser.has_option("simulation", "seed"):
        raise ConfigError("config needs [simulation] seed = <int> (no wall-clock seeding)")
    cfg = {
        "process": parser.get("process", "spec"),
        "potential": parser.get("potential", "spec", fallback=None),
        "trials": parser.getint("simulation", "trials", fallback=0),
        "seed": parser.getint("simulation", "seed"),
        "cap": parser.getint("simulation", "cap", fallback=None),
        "horizon": parser.getint("simulation", "horizon", fallback=0),
        "theorems": [],
        "report": parser.get("output", "report", fallback=None),
        "format": parser.get("output", "format", fallback="csv"),
        "plot": parser.get("output", "plot", fallback=None),
    }
    if parser.has_section("theorems"):
        for key, value in parser.items("theorems"):
            cfg["theorems"].append((key, _parse_params(value)))
    unknown = [t for t, _ in cfg["theorems"] if t not in _CALCULATORS]
    if unknown:
        raise ConfigError(f"unknown theorem ids: {', '.join(sorted(unknown))}")
    return cfg


def run_experiment(config_path: str) -> int:
    """Execute one config: oracle when feasible, simulation, bounds."""
    cfg = load_config(config_path)
    process = parse_process(cfg["process"])
    if cfg["potential"]:
        process = potentials.lift(process, parse_potential(cfg["potential"], process))

    oracle_value = None
    try:
        chain = processes.to_finite_chain(process)
        oracle_value = oracle_mod.hitting_time_exact(chain).from_start
    except (CapacityError, UnsupportedError):
        pass

    stats = None
    if cfg["trials"] > 0:
        stats = montecarlo.simulate_hitting(
            process, cfg["trials"], cfg["seed"], cap=cfg["cap"]
        )

    rows = []
    for theorem_id, params in cfg["theorems"]:
        report = _calculate(theorem_id, params)
        rows.append(comparison_row(
            report.theorem_id, report.direction, report.bound, oracle_value,
            _sim_evidence(stats, report.direction), _flags_text(report),
        ))

    if cfg["horizon"] > 0 and cfg["plot"]:
        traj = montecarlo.simulate_trajectory(
            process, cfg["horizon"], max(cfg["trials"], 1), cfg["seed"]
        )
        pts = [
            (t, float(traj.mean[t]), float(traj.ci_lo[t]), float(traj.ci_hi[t]))
            for t in range(cfg["horizon"] + 1)
        ]
        emit_plot_data({"sim_mean": pts}, cfg["plot"])

    if rows:
        if cfg["report"]:
            emit_report(rows, cfg["format"], cfg["report"])
        sys.stdout.write(rows_to_csv(rows))
    return 1 if any(r.verdict == VIOLATED for r in rows) else 0


def _cmd_run(args) -> int:
    return run_experiment(args.config)


def _cmd_suite(args) -> int:
    rows = acceptance.run_suite(args.name, args.seed)
    if args.output:
        emit_report(rows, args.format, args.output)
    sys.stdout.write(rows_to_csv(rows))
    return 1 if any(r.verdict == VIOLATED for r in rows) else 0


def _cmd_bound(args) -> int:
    if args.theorem_id not in _CALCULATORS:
        raise ConfigError(
            f"unknown theorem id {args.theorem_id!r}; known: "
            f"{', '.join(sorted(_CALCULATORS))}"
        )
    params = {}
    for item in args.params:
        params.update(_parse_params(item))
    report = _calculate(args.theorem_id, params)
    sys.stdout.write(
        f"{report.theorem_id} {report.direction} {report.bound:.12g}\n"
    )
    for flag in report.preconditions:
        sys.stdout.write(f"  {flag.name}: {flag.status}\n")
    return 0


def _cmd_oracle(args) -> int:
    process = parse_process(args.process)
    chain = processes.to_finite_chain(process)
    solution = oracle_mod.hitting_time_exact(chain)
    sys.stdout.write(f"{solution.from_start:.12g}\n")
    return 0


def _cmd_simulate(args) -> int:
    process = parse_process(args.process)
    stats = montecarlo.simulate_hitting(process, args.trials, args.seed, cap=args.cap)
    sys.stdout.write(
        f"mean {stats.mean:.12g} ci99 ({stats.ci99[0]:.12g}, {stats.ci99[1]:.12g}) "
        f"censored {stats.censored}/{stats.trials}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drift", description="Drift-analysis workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a validation suite")
    p_suite.add_argument("name", choices=("paper_acceptance", "quick"))
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--output", default=None)
    p_suite.add_argument("--format", choices=("csv", "json"), default="csv")
    p_suite.set_defaults(fn=_cmd_suite)

    p_bound = sub.add_parser("bound", help="evaluate one bound calculator")
    p_bound.add_argument("theorem_id")
    p_bound.add_argument("--params", nargs="*", default=[])
    p_bound.set_defaults(fn=_cmd_bound)

    p_oracle = sub.add_parser("oracle", help="exact expected hitting time")
    p_oracle.add_argument("process")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo hitting times")
    p_sim.add_argument("process")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--cap", type=int, default=None)
    p_sim.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DriftError, ValueError, TypeError, KeyError, OSError) as exc:
        sys.stderr.write(f"drift: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
