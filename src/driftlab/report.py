"""Comparison rows and report files.

A ComparisonRow pins one bound against its ground truth (exact oracle
and/or simulation) and records the verdict.  Exact comparisons use
relative tolerance 1e-9; statistical comparisons use 3 standard
errors.
"""

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Optional

from .bounds import (
    FIXED_BUDGET_VALUE,
    LOWER_ON_ET,
    UPPER_ON_ET,
    UPPER_TAIL_PROB,
)
from .errors import ParameterError
from .montecarlo import Z99

HOLDS = "holds"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"

REL_TOL = 1e-9
SIGMA = 3.0

_CSV_COLUMNS = (
    "theorem_id", "direction", "bound", "oracle",
    "sim_mean", "sim_ci_lo", "sim_ci_hi", "preconditions", "verdict",
)


@dataclass(frozen=True)
class ComparisonRow:
    theorem_id: str
    direction: str
    bound: float
    oracle: Optional[float] = None
    sim_mean: Optional[float] = None
    sim_ci_lo: Optional[float] = None
    sim_ci_hi: Optional[float] = None
    preconditions: str = ""
    verdict: str = INDETERMINATE


def verdict_for(
    direction: str,
    bound: float,
    oracle: Optional[float] = None,
    sim_mean: Optional[float] = None,
    sim_se: Optional[float] = None,
) -> str:
    """Check a bound against oracle (exact) and/or simulation (3 SE).

    For tail directions sim_mean is the observed frequency.  The
    verdict is "violated" only on a conflict beyond tolerance and
    "indeterminate" when there is nothing to compare against.
    """
    evidence = []
    if oracle is not None:
        evidence.append((oracle, REL_TOL * max(1.0, abs(oracle))))
    if sim_mean is not None:
        evidence.append((sim_mean, SIGMA * (sim_se or 0.0)))
    if not evidence:
        return INDETERMINATE
    return HOLDS if all(_agrees(direction, bound, value, slack)
                        for value, slack in evidence) else VIOLATED


def _agrees(direction: str, bound: float, value: float, slack: float) -> bool:
    """Whether bound is consistent, within slack, with value: an exact
    or a simulated ground truth."""
    if direction in (UPPER_ON_ET, FIXED_BUDGET_VALUE):
        return bound >= value - slack
    if direction == LOWER_ON_ET:
        return bound <= value + slack
    # tail probabilities: the value must not exceed the bound
    return value <= bound + slack


def comparison_row(
    theorem_id: str,
    direction: str,
    bound: float,
    oracle: Optional[float] = None,
    sim: Optional[tuple] = None,
    preconditions: str = "",
) -> ComparisonRow:
    """Build a row and its verdict; sim is a (mean, se) pair whose 99%
    interval is mean +- Z99 se."""
    sim_mean = sim_se = sim_lo = sim_hi = None
    if sim is not None:
        sim_mean, sim_se = sim
        sim_lo, sim_hi = sim_mean - Z99 * sim_se, sim_mean + Z99 * sim_se
    return ComparisonRow(
        theorem_id=theorem_id,
        direction=direction,
        bound=bound,
        oracle=oracle,
        sim_mean=sim_mean,
        sim_ci_lo=sim_lo,
        sim_ci_hi=sim_hi,
        preconditions=preconditions,
        verdict=verdict_for(direction, bound, oracle, sim_mean, sim_se),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows) -> str:
    if not rows:
        raise ParameterError("no rows to report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        d = asdict(row)
        writer.writerow([_fmt(d[col]) for col in _CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    if not rows:
        raise ParameterError("no rows to report")
    payload = []
    for row in rows:
        d = asdict(row)
        payload.append(
            {
                k: (float(_fmt(v)) if isinstance(v, float) else v)
                for k, v in d.items()
            }
        )
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(text: str):
    return [ComparisonRow(**entry) for entry in json.loads(text)]


def emit_report(rows, fmt: str, path: str) -> str:
    """Write rows as CSV or JSON; returns the path."""
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "json":
        text = rows_to_json(rows)
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def emit_plot_data(series: dict, path: str) -> str:
    """Long-format plot CSV: series,x,y,ci_lo,ci_hi.

    series maps a series name to a list of (x, y, ci_lo, ci_hi)
    tuples (ci entries may be None); x must be strictly increasing
    within each series.
    """
    if not series or all(not pts for pts in series.values()):
        raise ParameterError("no plot data")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("series", "x", "y", "ci_lo", "ci_hi"))
    for name, pts in series.items():
        if not pts:
            raise ParameterError(f"series {name!r} is empty")
        last_x = None
        for pt in pts:
            x, y = pt[0], pt[1]
            ci_lo = pt[2] if len(pt) > 2 else None
            ci_hi = pt[3] if len(pt) > 3 else None
            if last_x is not None and x <= last_x:
                raise ParameterError(f"series {name!r} x values must increase")
            last_x = x
            writer.writerow([name, _fmt(float(x)), _fmt(float(y)),
                             _fmt(ci_lo if ci_lo is None else float(ci_lo)),
                             _fmt(ci_hi if ci_hi is None else float(ci_hi))])
    try:
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write plot data to {path}: {exc}") from exc
    return path
