"""The `drift` command line tool.

Subcommands: `run` (config-driven experiment), `suite` (validation
suites), `bound` (one calculator invocation), `oracle` (exact expected
hitting time), `simulate` (seeded Monte Carlo).  Exit codes: 0 ok,
1 at least one "violated" verdict, 2 usage or configuration error.
"""

import argparse
import configparser
import dataclasses
import functools
import inspect
import math
import re
import sys
from typing import Optional, Union, get_args, get_origin

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


def _parse_params(what: str, *bodies: str) -> dict:
    """The key=value items of the comma-separated bodies, as one dict; a
    key given twice, in one body or across them, is an error naming it."""
    params = {}
    for body in bodies:
        if not body.strip():
            continue
        for item in body.split(","):
            if "=" not in item:
                raise ConfigError(f"expected key=value, got {item.strip()!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key in params:
                raise ConfigError(f"{what} parameter {key!r} is given twice")
            params[key] = _parse_scalar(value)
    return params


def _parse_call(spec: str):
    match = _CALL_RE.match(spec)
    if not match:
        raise ConfigError(f"cannot parse spec {spec!r}; expected name(k=v,...)")
    return match.group(1), _parse_params(match.group(1), match.group(2) or "")


def parse_process(spec: str):
    """Build a catalog process from a name(k=v,...) spec.

    Simple chains use their catalog kind (coupon, geometric, ...) and
    take the keys of its builder; search heuristics use
    algorithm-objective, e.g. RLS-onemax(n=12) or
    OnePlusOneEA-leadingones(n=10,p=0.1).
    """
    name, params = _parse_call(spec)
    if "-" in name:
        algorithm, objective = name.split("-", 1)
        extra = sorted(set(params) - {"n", "k", "p"})
        if extra:
            raise ConfigError(f"{name} takes no parameter {extra[0]!r}")
        for key, value in params.items():
            _number(name, key, value)
        return processes.make_ea_process(
            algorithm, objective, params.get("n"), params.get("k"), mutation_rate=params.get("p")
        )
    if name not in processes._SIMPLE_CHAINS:
        return processes.make_simple_chain(name)  # names the known kinds
    return _bind(name, processes._SIMPLE_CHAINS[name], params)


_POTENTIALS = {
    "identity": potentials.identity_potential,
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
    return _bind(name, _POTENTIALS[name], params)


def _drift_fn(what: str, key: str, value) -> bounds.DriftFunction:
    """linear:<delta> or const:<delta> shorthand for drift functions."""
    if isinstance(value, list) and len(value) == 2:
        kind, delta = value
        if kind == "linear":
            return bounds.linear_drift(float(_number(what, key, delta)))
        if kind == "const":
            return bounds.constant_drift(float(_number(what, key, delta)))
    raise ConfigError(f"cannot parse drift function {value!r}; use linear:d or const:d")


def _number(what: str, key: str, value):
    """A parsed number as it is; text, NaN and infinities are errors
    naming the parameter (a NaN passes every range check)."""
    if not isinstance(value, (int, float)):
        raise ConfigError(f"{what} parameter {key!r} must be numeric, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} parameter {key!r} must be finite, got {value!r}")
    return value


def _floats(what: str, key: str, value) -> tuple:
    """A colon-separated list; a single number is a one-element list."""
    items = value if isinstance(value, list) else [value]
    return tuple(float(_number(what, key, v)) for v in items)


def _word(what: str, key: str, value) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{what} parameter {key!r} must be a word, got {value!r}")


def _levels(p: tuple, v: Optional[tuple] = None) -> bounds.LevelProfile:
    """The level profile of keys p and v; m is one more than len(p)."""
    return bounds.LevelProfile(m=len(p) + 1, p=p, v=v)


# annotation -> converter (what, key, parsed value) -> argument
_CONVERTERS = {
    float: _number,
    int: lambda what, key, value: processes._whole(what, key, _number(what, key, value)),
    tuple: _floats,
    str: _word,
    bounds.DriftFunction: _drift_fn,
}


def _parameters(fn):
    """(parameter, kind, maker) for each parameter of fn.  kind is the
    type its annotation names (X for Optional[X]); a maker, where there
    is one, builds the argument from its own parameters' keys."""
    for param in inspect.signature(fn).parameters.values():
        kind = param.annotation
        if get_origin(kind) is Union:
            kind = get_args(kind)[0]
        if kind is bounds.LevelProfile:
            maker = _levels
        elif dataclasses.is_dataclass(kind) and kind not in _CONVERTERS:
            maker = kind
        else:
            maker = None
        yield param, kind, maker


def _keys(fn):
    """(key, kind) of each key fn takes, in signature order."""
    for param, kind, maker in _parameters(fn):
        if maker is None:
            yield param.name, kind
        else:
            yield from _keys(maker)


def _arguments(what: str, fn, params: dict) -> dict:
    args = {}
    for param, kind, maker in _parameters(fn):
        if maker is not None:
            args[param.name] = maker(**_arguments(what, maker, params))
        elif param.name in params:
            args[param.name] = _CONVERTERS[kind](what, param.name, params[param.name])
        elif param.default is param.empty:
            raise ConfigError(f"{what} needs parameter {param.name!r}")
    return args


def _bind(what: str, fn, params: dict):
    """Call fn with the name(k=v) params of `what`, each converted by the
    annotation of the parameter that takes it.  A key that fn does not
    take is an error naming it and the keys fn takes.  Then, in
    signature order, a missing parameter without a default or a value
    that does not convert is an error naming that parameter."""
    keys = [key for key, _ in _keys(fn)]
    for key in params:
        if key not in keys:
            raise ConfigError(
                f"{what} takes no parameter {key!r}; it takes {', '.join(keys) or 'none'}"
            )
    return fn(**_arguments(what, fn, params))


def _calculate(theorem_id: str, params: dict) -> bounds.BoundReport:
    # by name at call time, so that a function replaced on `bounds` after
    # import is the one called
    return _bind(theorem_id, getattr(bounds, bounds.THEOREMS[theorem_id].calculator), params)


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
            cfg["theorems"].append((key, _parse_params(key, value)))
    unknown = [t for t, _ in cfg["theorems"] if t not in bounds.THEOREMS]
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
        # the oracle and the simulation give E[T]: they judge only bounds on it
        on_et = report.direction in (bounds.UPPER_ON_ET, bounds.LOWER_ON_ET)
        rows.append(comparison_row(
            report.theorem_id, report.direction, report.bound,
            oracle_value if on_et else None,
            _sim_evidence(stats, report.direction) if on_et else None,
            _flags_text(report),
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
    if args.theorem_id not in bounds.THEOREMS:
        raise ConfigError(
            f"unknown theorem id {args.theorem_id!r}; known: "
            f"{', '.join(sorted(bounds.THEOREMS))}"
        )
    report = _calculate(args.theorem_id, _parse_params(args.theorem_id, *args.params))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `drift` parser, built on the first call and kept: parse_args
    leaves it as it found it, and building it is most of a short
    command's time."""
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
    p_bound.add_argument("--params", nargs="*", default=())
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DriftError, ValueError, TypeError, KeyError, OSError) as exc:
        sys.stderr.write(f"drift: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
