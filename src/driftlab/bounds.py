"""Drift-theorem bound calculators.

One calculator per theorem: each returns a BoundReport with the
computed bound, the direction it bounds in, the inputs used and a
precondition report.  Calculators are pure arithmetic; condition
checks that need process access live in the montecarlo module and are
attached as flags by callers.
"""

from dataclasses import dataclass, field
from math import ceil, exp, inf, isnan, log, log2
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .oracle import _double_sum
from .processes import _whole

# directions a bound can take
UPPER_ON_ET = "upper_on_ET"
LOWER_ON_ET = "lower_on_ET"
UPPER_TAIL_PROB = "upper_tail_prob"
FIXED_BUDGET_VALUE = "fixed_budget_value"

PASS = "pass"
FAIL = "fail"
UNCHECKED = "unchecked"


@dataclass(frozen=True)
class PreconditionFlag:
    name: str
    status: str  # pass / fail / unchecked
    detail: str = ""


@dataclass(frozen=True)
class BoundReport:
    """A computed bound with its provenance.

    bound is clamped to [0, 1] for probability directions (NaN stays
    NaN); the raw formula value is kept in raw.  extras carries
    secondary outputs (tail pairs, weaker variants, tables).
    """

    theorem_id: str
    inputs: dict
    bound: float
    direction: str
    preconditions: tuple = ()
    raw: Optional[float] = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DriftFunction:
    """A positive drift bound h with optional exact derivative."""

    eval: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        return self.eval(x)


def constant_drift(delta: float) -> DriftFunction:
    return DriftFunction(eval=lambda x: delta)


def linear_drift(delta: float) -> DriftFunction:
    return DriftFunction(eval=lambda x: delta * x, derivative=lambda x: delta)


@dataclass(frozen=True)
class LevelProfile:
    """Per-level leave probabilities, optionally with visit bounds."""

    m: int
    p: tuple
    v: Optional[tuple] = None

    def __post_init__(self):
        if len(self.p) != self.m - 1:
            raise ParameterError("need one leave probability per non-final level")
        if any(not (0.0 < pi <= 1.0) for pi in self.p):
            raise ParameterError("leave probabilities must lie in (0, 1]")
        if self.v is not None:
            if len(self.v) != self.m - 1:
                raise ParameterError("need one visit probability per non-final level")
            if any(not (0.0 <= vi <= 1.0) for vi in self.v):
                raise ParameterError("visit probabilities must lie in [0, 1]")


def _grid_flags(h: DriftFunction, lo: float, hi: float) -> dict:
    """Flags of h on a 1000-point grid of [lo, hi], by name: h_monotone
    (h non-decreasing, with 1e-12 slack), greed_admitting (x - h(x)
    non-decreasing) and h_convex, both with 1e-9 slack."""
    xs = np.linspace(lo, hi, 1000)
    hv = np.array([h.eval(float(x)) for x in xs])
    checks = (
        ("h_monotone", np.diff(hv) >= -1e-12, f"grid check on [{lo}, {hi}] with 1000 points"),
        ("greed_admitting", np.diff(xs - hv) >= -1e-9, ""),
        ("h_convex", np.diff(hv, 2) >= -1e-9, ""),
    )
    return {name: PreconditionFlag(name, PASS if ok.all() else FAIL, detail)
            for name, ok, detail in checks}


def _clamp_prob(value: float) -> float:
    """value clipped to [0, 1]; NaN stays NaN, so a bad input never
    reads as a bound of 0."""
    return value if isnan(value) else min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Additive drift
# ---------------------------------------------------------------------------

def additive_upper(e_x0: float, delta: float) -> BoundReport:
    """Expected time at most E[X0]/delta under drift at least delta."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if e_x0 < 0:
        raise ParameterError("E[X0] must be non-negative")
    return BoundReport(
        theorem_id="additive.upper",
        inputs={"E_X0": e_x0, "delta": delta},
        bound=e_x0 / delta,
        direction=UPPER_ON_ET,
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift >= delta"),
            PreconditionFlag("non_negativity_NN", UNCHECKED),
        ),
    )


def additive_lower(
    e_x0: float, delta: float, c: float, profile: str = "bounded_steps"
) -> BoundReport:
    """Expected time at least E[X0]/delta under drift at most delta.

    profile selects which side condition the process is claimed to
    satisfy: "bounded_steps" (|steps| <= c) or "bounded_state" (values
    stay below c); both yield the same formula.
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if c <= 0:
        raise ParameterError("c must be positive")
    if profile not in ("bounded_steps", "bounded_state"):
        raise ParameterError(f"unknown precondition profile {profile!r}")
    flag_name = "step_bound_B" if profile == "bounded_steps" else "state_bound_UB"
    return BoundReport(
        theorem_id="additive.lower",
        inputs={"E_X0": e_x0, "delta": delta, "c": c, "profile": profile},
        bound=e_x0 / delta,
        direction=LOWER_ON_ET,
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift <= delta"),
            PreconditionFlag(flag_name, UNCHECKED, f"c = {c}"),
        ),
    )


def additive_overshoot_upper(e_x0: float, e_xt: float, delta: float) -> BoundReport:
    """Upper bound allowing overshoot: (E[X0] - E[X_T])/delta."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if e_xt > 0:
        raise ParameterError("E[X_T] must be <= 0 at the first crossing")
    return BoundReport(
        theorem_id="additive.overshoot.upper",
        inputs={"E_X0": e_x0, "E_XT": e_xt, "delta": delta},
        bound=(e_x0 - e_xt) / delta,
        direction=UPPER_ON_ET,
        preconditions=(PreconditionFlag("drift_D", UNCHECKED),),
    )


# ---------------------------------------------------------------------------
# Multiplicative drift
# ---------------------------------------------------------------------------

def multiplicative_upper(e_x0: float, delta: float) -> BoundReport:
    """Expected time at most (1 + ln E[X0])/delta."""
    if not (0.0 < delta <= 1.0):
        raise ParameterError("delta must lie in (0, 1]")
    if e_x0 < 1.0:
        raise ParameterError(
            "E[X0] must be >= 1 (the process lives on {0, 1} and values above 1)"
        )
    return BoundReport(
        theorem_id="mult.upper",
        inputs={"E_X0": e_x0, "delta": delta},
        bound=(1.0 + log(e_x0)) / delta,
        direction=UPPER_ON_ET,
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift >= delta * X_t"),
        ),
    )


def multiplicative_tail(s: float, delta: float, k: float) -> BoundReport:
    """Tail pair: time (k + ln s)/delta is exceeded with prob <= e^-k."""
    if not (0.0 < delta <= 1.0):
        raise ParameterError("delta must lie in (0, 1]")
    if s < 1.0:
        raise ParameterError("s must be >= 1")
    if k <= 0:
        raise ParameterError("k must be positive")
    raw = exp(-k)
    return BoundReport(
        theorem_id="mult.tail",
        inputs={"s": s, "delta": delta, "k": k},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        extras={"time_threshold": (k + log(s)) / delta},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED),
            PreconditionFlag("start_bound", UNCHECKED, "X0 <= s"),
        ),
    )


def multiplicative_lower_monotone(x0: float, delta: float, beta: float) -> BoundReport:
    """Lower bound (ln X0)/delta * (1-beta)/(1+beta) for monotone,
    concentrated processes; the weaker (1 - 2 beta) variant is kept in
    extras."""
    if not (0.0 < delta < 1.0) or not (0.0 < beta < 1.0):
        raise ParameterError("delta and beta must lie in (0, 1)")
    if x0 <= 1.0:
        raise ParameterError("X0 must exceed 1")
    main = log(x0) / delta * (1.0 - beta) / (1.0 + beta)
    weak = log(x0) / delta * (1.0 - 2.0 * beta)
    return BoundReport(
        theorem_id="mult.lower.monotone",
        inputs={"X0": x0, "delta": delta, "beta": beta},
        bound=main,
        direction=LOWER_ON_ET,
        extras={"weaker_variant": weak},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift <= delta * s"),
            PreconditionFlag("monotone_M", UNCHECKED),
            PreconditionFlag("concentration_C", UNCHECKED),
        ),
    )


def multiplicative_lower_bounded_step(
    x0: float, delta: float, c: float, x_min: float
) -> BoundReport:
    """Lower bound for processes with steps at most c, stopped at
    x_min: (1 + ln X0 - ln x_min)/(2 delta + c^2/(x_min^2 - c^2))."""
    if c <= 0 or delta <= 0:
        raise ParameterError("delta and c must be positive")
    if x_min < (2.0**0.5) * c:
        raise ParameterError("x_min must be at least sqrt(2) * c")
    if x0 < x_min:
        raise ParameterError("X0 must be at least x_min")
    denom = 2.0 * delta + c * c / (x_min * x_min - c * c)
    return BoundReport(
        theorem_id="mult.lower.bounded",
        inputs={"X0": x0, "delta": delta, "c": c, "x_min": x_min},
        bound=(1.0 + log(x0) - log(x_min)) / denom,
        direction=LOWER_ON_ET,
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift <= delta * X_t"),
            PreconditionFlag("step_bound_B", UNCHECKED, f"c = {c}"),
        ),
    )


# ---------------------------------------------------------------------------
# Variable drift
# ---------------------------------------------------------------------------

def variable_drift_upper(h: DriftFunction, x_min: float, x0: float) -> BoundReport:
    """Expected time at most 1/h(x_min) + integral of 1/h over
    [x_min, X0], for monotone non-decreasing positive h."""
    if x_min <= 0:
        raise ParameterError("x_min must be positive")
    if x0 < x_min:
        raise ParameterError("X0 must be at least x_min")
    flags = [_grid_flags(h, x_min, x0)["h_monotone"]]
    h_min = h.eval(x_min)
    if h_min <= 0:
        raise ParameterError("h must be positive at x_min")
    from scipy.integrate import quad

    integral, _err = quad(
        lambda z: 1.0 / h.eval(z), x_min, x0, epsrel=1e-9, limit=500
    )
    return BoundReport(
        theorem_id="var.upper",
        inputs={"x_min": x_min, "X0": x0},
        bound=1.0 / h_min + integral,
        direction=UPPER_ON_ET,
        preconditions=tuple(flags)
        + (PreconditionFlag("drift_D", UNCHECKED, "drift >= h(X_t)"),),
    )


# ---------------------------------------------------------------------------
# Additive concentration tails
# ---------------------------------------------------------------------------

def additive_tail_upper_bounded(n: float, delta: float, c: float, s: float) -> BoundReport:
    """Pr[T >= s] <= exp(-s delta^2/(8 c^2)) for s >= 2n/delta."""
    if delta <= 0 or c <= 0:
        raise ParameterError("delta and c must be positive")
    if s < 2.0 * n / delta:
        raise ParameterError("s must be at least 2n/delta")
    raw = exp(-s * delta * delta / (8.0 * c * c))
    return BoundReport(
        theorem_id="tail.add.upper.bounded",
        inputs={"n": n, "delta": delta, "c": c, "s": s},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift >= delta"),
            PreconditionFlag("step_bound_B", UNCHECKED, f"|steps| <= {c}"),
        ),
    )


def additive_tail_upper_concentrated(
    n: float, delta: float, c: float, eps: float, s: float
) -> BoundReport:
    """Pr[T >= s] <= exp(-(s delta/4) min(eps/4, delta eps^3/(256 c)))."""
    if delta <= 0 or c <= 0 or eps <= 0:
        raise ParameterError("delta, c and eps must be positive")
    if s < 2.0 * n / delta:
        raise ParameterError("s must be at least 2n/delta")
    inner = min(eps / 4.0, delta * eps**3 / (256.0 * c))
    raw = exp(-s * delta / 4.0 * inner)
    return BoundReport(
        theorem_id="tail.add.upper.concentrated",
        inputs={"n": n, "delta": delta, "c": c, "eps": eps, "s": s},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        extras={"min_branch": "eps/4" if eps / 4.0 <= delta * eps**3 / (256.0 * c) else "delta*eps^3/(256c)"},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED),
            PreconditionFlag("concentration_C", UNCHECKED),
        ),
    )


def additive_tail_lower_bounded(n: float, delta: float, c: float, s: float) -> BoundReport:
    """Pr[T < s] <= exp(-n^2/(8 c^2 s)) for s <= n/(2 delta)."""
    if delta <= 0 or c <= 0 or s <= 0:
        raise ParameterError("delta, c and s must be positive")
    if s > n / (2.0 * delta):
        raise ParameterError("s must be at most n/(2 delta)")
    raw = exp(-n * n / (8.0 * c * c * s))
    return BoundReport(
        theorem_id="tail.add.lower.bounded",
        inputs={"n": n, "delta": delta, "c": c, "s": s},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        extras={"tail_event": "T < s"},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift <= delta"),
            PreconditionFlag("step_bound_B", UNCHECKED),
        ),
    )


def additive_tail_lower_concentrated(
    n: float, delta: float, c: float, eps: float, s: float
) -> BoundReport:
    """Pr[T < s] <= exp(-(n/4) min(eps/4, n eps^3/(256 c s)))."""
    if delta <= 0 or c <= 0 or eps <= 0 or s <= 0:
        raise ParameterError("delta, c, eps and s must be positive")
    if s > n / (2.0 * delta):
        raise ParameterError("s must be at most n/(2 delta)")
    inner = min(eps / 4.0, n * eps**3 / (256.0 * c * s))
    raw = exp(-n / 4.0 * inner)
    return BoundReport(
        theorem_id="tail.add.lower.concentrated",
        inputs={"n": n, "delta": delta, "c": c, "eps": eps, "s": s},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        extras={"tail_event": "T < s"},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED),
            PreconditionFlag("concentration_C", UNCHECKED),
        ),
    )


# ---------------------------------------------------------------------------
# Negative drift
# ---------------------------------------------------------------------------

def negative_drift_escape(n: float, eps: float, c: float, s: float) -> BoundReport:
    """Pr[T <= s] bounded by s exp(-n |eps| / (2 c^2)) for a process
    drifting away from the target at n with steps below c."""
    if not (0.0 < c < n):
        raise ParameterError("c must satisfy 0 < c < n")
    if eps >= 0:
        raise ParameterError("eps must be negative (drift away from the target)")
    if s < 0:
        raise ParameterError("s must be non-negative")
    raw = s * exp(-n * abs(eps) / (2.0 * c * c))
    return BoundReport(
        theorem_id="neg.515",
        inputs={"n": n, "eps": eps, "c": c, "s": s},
        bound=_clamp_prob(raw),
        direction=UPPER_TAIL_PROB,
        raw=raw,
        extras={"tail_event": "T <= s"},
        preconditions=(
            PreconditionFlag("drift_D", UNCHECKED, "drift <= eps < 0"),
            PreconditionFlag("step_bound_B", UNCHECKED, f"|steps| < {c}"),
        ),
    )


# ---------------------------------------------------------------------------
# Finite state spaces
# ---------------------------------------------------------------------------

def finite_state_upper(p_leave: tuple, p_back: tuple, x0: int) -> BoundReport:
    """Double-sum upper bound for chains on [0..n] with up-steps of 1.

    p_leave[s-1] lower-bounds the probability of decreasing from s,
    p_back[s] upper-bounds the probability of increasing from s.
    """
    value = _double_sum(p_leave, p_back, x0)
    return BoundReport(
        theorem_id="fss.upper",
        inputs={"n": len(p_leave), "X0": x0},
        bound=value,
        direction=UPPER_ON_ET,
        preconditions=(
            PreconditionFlag("down_prob_lb", UNCHECKED),
            PreconditionFlag("up_prob_ub", UNCHECKED),
            PreconditionFlag("up_steps_of_1", UNCHECKED),
        ),
    )


def finite_state_lower(p_fwd: tuple, p_back_lb: tuple, x0: int) -> BoundReport:
    """Double-sum lower bound; p_fwd[s-1] upper-bounds the probability
    of decreasing (by exactly 1) from s, p_back_lb[s] lower-bounds the
    probability of increasing from s."""
    value = _double_sum(p_fwd, p_back_lb, x0)
    return BoundReport(
        theorem_id="fss.lower",
        inputs={"n": len(p_fwd), "X0": x0},
        bound=value,
        direction=LOWER_ON_ET,
        preconditions=(
            PreconditionFlag("down_prob_ub", UNCHECKED),
            PreconditionFlag("down_steps_of_1", UNCHECKED),
            PreconditionFlag("up_prob_lb", UNCHECKED),
        ),
    )


# ---------------------------------------------------------------------------
# Headwind drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadwindParams:
    """Inputs of the headwind recurrence.

    p_minus[i] and p_plus[i] are indexed by state i in [0..n]
    (p_minus[0] unused); delta[i] is the drift-minus-backflow value at
    state i; kappa bounds the zone where delta is non-positive.
    """

    p_minus: tuple
    p_plus: tuple
    delta: tuple
    kappa: int

    def __post_init__(self):
        n = len(self.delta) - 1
        if len(self.p_minus) != n + 1 or len(self.p_plus) != n + 1:
            raise ParameterError("p_minus, p_plus and delta must share length n+1")
        last_nonpos = max(
            (i for i in range(n + 1) if self.delta[i] <= 0), default=0
        )
        if self.kappa < last_nonpos:
            raise ParameterError(
                f"kappa {self.kappa} below last non-positive drift index {last_nonpos}"
            )
        for i in range(1, min(self.kappa + 1, n) + 1):
            if self.p_minus[i] <= 0:
                raise ParameterError(f"p_minus must be positive up to kappa+1 (state {i})")

    @property
    def n(self) -> int:
        return len(self.delta) - 1


def _headwind_monotone_flag(params: HeadwindParams) -> PreconditionFlag:
    d = params.delta
    ok = all(d[i] <= d[i + 1] + 1e-15 for i in range(len(d) - 1))
    return PreconditionFlag("delta_monotone", PASS if ok else FAIL)


def headwind_g(params: HeadwindParams) -> list:
    """The potential table g over [0..n+1].

    Above kappa, g sums reciprocal drifts; below, the recurrence
    brute-forces the headwind zone through the leave probabilities.
    """
    n = params.n
    g = [0.0] * (n + 2)
    for i in range(n - 1, params.kappa - 1, -1):
        g[i] = g[i + 1] + 1.0 / params.delta[i + 1]
    for i in range(min(params.kappa, n) - 1, -1, -1):
        pp = params.p_plus[i + 1]
        pm = params.p_minus[i + 1]
        g[i] = (1.0 + (pp + pm) * g[i + 1]) / pm
    return g


def headwind_upper(params: HeadwindParams, x0: int) -> BoundReport:
    """Expected hitting time of 0 at most g(0) - g(X0)."""
    if not (0 <= x0 <= params.n):
        raise ParameterError(f"X0 outside [0..{params.n}]")
    g = headwind_g(params)
    return BoundReport(
        theorem_id="headwind",
        inputs={"n": params.n, "kappa": params.kappa, "X0": x0},
        bound=g[0] - g[x0],
        direction=UPPER_ON_ET,
        extras={"g_table": tuple(g)},
        preconditions=(_headwind_monotone_flag(params),),
    )


def headwind_closed(params: HeadwindParams) -> BoundReport:
    """Closed form for g(0): the variable-drift sum above kappa scaled
    by the waiting-time product through the headwind zone, plus the
    self-loop correction sum."""
    n = params.n
    kappa = params.kappa
    tail_sum = sum(1.0 / params.delta[k] for k in range(kappa + 1, n + 1))
    prod = 1.0
    loop_sum = 0.0
    for k in range(1, kappa + 1):
        loop_sum += prod / params.p_minus[k]
        prod *= (params.p_plus[k] + params.p_minus[k]) / params.p_minus[k]
    return BoundReport(
        theorem_id="headwind.closed",
        inputs={"n": n, "kappa": kappa},
        bound=tail_sum * prod + loop_sum,
        direction=UPPER_ON_ET,
        preconditions=(_headwind_monotone_flag(params),),
    )


# ---------------------------------------------------------------------------
# Multiplicative up-drift and the level-based theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpDriftParams:
    """Parameters of the binomial up-drift bound."""

    n: int
    k: int
    e0: float
    gamma0: float
    delta: float

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParameterError("n and k must be at least 1")
        if self.e0 <= 0:
            raise ParameterError("E0 must be positive")
        if not (0.0 < self.gamma0 < 1.0):
            raise ParameterError("gamma0 must lie in (0, 1)")
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        if self.n - 1 > min(self.gamma0 * self.k, self.k / (1.0 + self.delta)):
            raise ParameterError(
                "need n - 1 <= min(gamma0 k, k/(1+delta))"
            )

    @property
    def d0(self) -> int:
        if self.delta <= 1.0:
            return min(ceil(100.0 / self.delta), self.n)
        return min(32, self.n)


def updrift_upper(params: UpDriftParams) -> BoundReport:
    """Expected time for a binomially dominated up-drifting process to
    reach n, by the two printed regime formulas."""
    d0 = params.d0
    if params.delta <= 1.0:
        bound = (
            4.0 * d0 / (0.4088 * params.e0)
            + 15.0 / (1.0 - params.gamma0) * d0 * log(2.0 * d0)
            + 2.5 * log2(params.n) * ceil(3.0 / params.delta)
        )
        regime = "delta<=1"
    else:
        bound = (
            128.0 / (0.78 * params.e0)
            + 2.6 * log(params.n) / log(1.0 + params.delta)
            + 81.0
        )
        regime = "delta>1"
    return BoundReport(
        theorem_id="updrift",
        inputs={
            "n": params.n, "k": params.k, "E0": params.e0,
            "gamma0": params.gamma0, "delta": params.delta, "D0": d0,
        },
        bound=bound,
        direction=UPPER_ON_ET,
        extras={"regime": regime},
        preconditions=(
            PreconditionFlag("binomial_domination", UNCHECKED),
            PreconditionFlag("gain_at_zero", UNCHECKED, f"E0 = {params.e0}"),
        ),
    )


@dataclass(frozen=True)
class LevelBasedParams:
    """Parameters of the level-based population theorem."""

    m: int
    lam: int
    delta: float
    gamma0: float
    z: tuple

    C1 = 56_000

    def __post_init__(self):
        if self.m < 2:
            raise ParameterError("need at least 2 levels")
        if len(self.z) != self.m - 1:
            raise ParameterError("need one z_j per level below the top")
        if any(not (0.0 < zj <= 1.0) for zj in self.z):
            raise ParameterError("z_j must lie in (0, 1]")
        if not (0.0 < self.delta <= 1.0):
            raise ParameterError("delta must lie in (0, 1]")
        if not (0.0 < self.gamma0 <= 1.0 / (1.0 + self.delta)):
            raise ParameterError("gamma0 must lie in (0, 1/(1+delta)]")
        gl = self.gamma0 * self.lam
        if abs(gl - round(gl)) > 1e-9:
            raise ParameterError("gamma0 * lambda must be an integer")


def _log2_0(x: float) -> float:
    return max(0.0, log2(x)) if x > 0 else 0.0


def level_based_t0(params: LevelBasedParams, lam: Optional[float] = None) -> float:
    lam = params.lam if lam is None else lam
    d0 = min(ceil(100.0 / params.delta), params.gamma0 * lam)
    middle = sum(
        _log2_0(2.0 * params.gamma0 * lam / (1.0 + zj * lam / d0))
        for zj in params.z
    )
    tail = sum(1.0 / zj for zj in params.z)
    return (
        7000.0 / params.delta
        * (params.m + middle / (1.0 - params.gamma0) + tail / lam)
    )


def level_based(params: LevelBasedParams) -> BoundReport:
    """Expected time 8 lambda t0 for level-based population processes.

    Checks the population-size inequality (lambda large enough against
    ln(8 t0)); the bound is withheld (NaN) when it fails.  The minimal
    admissible lambda for the same gamma0 is searched by doubling then
    bisection on multiples of gamma0's denominator.
    """
    t0 = level_based_t0(params)
    ps_rhs = 256.0 / (params.gamma0 * params.delta) * log(8.0 * t0)
    ps_ok = params.lam >= ps_rhs
    bound = 8.0 * params.lam * t0 if ps_ok else float("nan")
    return BoundReport(
        theorem_id="levelbased",
        inputs={
            "m": params.m, "lambda": params.lam, "delta": params.delta,
            "gamma0": params.gamma0, "z": tuple(params.z),
        },
        bound=bound,
        direction=UPPER_ON_ET,
        extras={
            "t0": t0,
            "c1_form": params.C1 * params.lam / params.delta * t0 / (7000.0 / params.delta),
            "minimal_lambda": _level_based_minimal_lambda(params),
        },
        preconditions=(
            PreconditionFlag(
                "population_size_PS", PASS if ps_ok else FAIL,
                f"lambda {params.lam} vs required {ps_rhs:.3f}",
            ),
            PreconditionFlag("drift_D", UNCHECKED),
            PreconditionFlag("zero_condition", UNCHECKED),
        ),
    )


def _level_based_minimal_lambda(params: LevelBasedParams) -> Optional[int]:
    """Smallest lambda with gamma0*lambda integral satisfying (PS)."""

    def admissible(lam: float) -> bool:
        t0 = level_based_t0(params, lam)
        return lam >= 256.0 / (params.gamma0 * params.delta) * log(8.0 * t0)

    # work on integer multiples k = gamma0 * lambda
    def lam_of(k: int) -> float:
        return k / params.gamma0

    k = 1
    for _ in range(64):
        if admissible(lam_of(k)):
            break
        k *= 2
    else:
        return None
    lo, hi = k // 2, k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 1 and admissible(lam_of(mid)):
            hi = mid
        else:
            lo = mid
    lam = lam_of(hi)
    return int(round(lam)) if abs(lam - round(lam)) < 1e-9 else int(ceil(lam))


# ---------------------------------------------------------------------------
# Fitness level method
# ---------------------------------------------------------------------------

def flm_upper(levels: LevelProfile) -> BoundReport:
    """Sum of reciprocal leave probabilities (p_i lower bounds)."""
    return BoundReport(
        theorem_id="flm.upper",
        inputs={"m": levels.m},
        bound=float(sum(1.0 / p for p in levels.p)),
        direction=UPPER_ON_ET,
        preconditions=(PreconditionFlag("monotone_levels", UNCHECKED),),
    )


def _flm_visit(levels: LevelProfile, theorem_id: str, direction: str) -> BoundReport:
    if levels.v is None:
        raise ParameterError("visit-probability variant requires v")
    value = float(sum(v / p for v, p in zip(levels.v, levels.p)))
    return BoundReport(
        theorem_id=theorem_id,
        inputs={"m": levels.m},
        bound=value,
        direction=direction,
        preconditions=(PreconditionFlag("monotone_levels", UNCHECKED),),
    )


def flm_visit_lower(levels: LevelProfile) -> BoundReport:
    """Sum of v_i/p_i with p_i upper bounds and v_i lower bounds."""
    return _flm_visit(levels, "flm.visit.lower", LOWER_ON_ET)


def flm_visit_upper(levels: LevelProfile) -> BoundReport:
    """Sum of v_i/p_i with p_i lower bounds and v_i upper bounds."""
    return _flm_visit(levels, "flm.visit.upper", UPPER_ON_ET)


# ---------------------------------------------------------------------------
# Fixed budget
# ---------------------------------------------------------------------------

def fixed_budget_additive(
    x0: float, delta: float, t: int, pr_t_le_t: Optional[float] = None
) -> BoundReport:
    """Upper bound on E[X_t]: X0 - t delta, scaled by Pr[t <= T] when
    the drift only holds before the target."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if t < 0:
        raise ParameterError("t must be non-negative")
    if pr_t_le_t is None:
        value = x0 - t * delta
        variant = "unlimited"
    else:
        if not (0.0 <= pr_t_le_t <= 1.0):
            raise ParameterError("probability must lie in [0, 1]")
        value = x0 - t * delta * pr_t_le_t
        variant = "limited"
    return BoundReport(
        theorem_id="budget.add",
        inputs={"X0": x0, "delta": delta, "t": t, "pr_t_le_T": pr_t_le_t},
        bound=value,
        direction=FIXED_BUDGET_VALUE,
        extras={"variant": variant},
        preconditions=(PreconditionFlag("drift_D", UNCHECKED),),
    )


def _h_tilde_derivative_at_zero(h: DriftFunction) -> float:
    if h.derivative is not None:
        return 1.0 - h.derivative(0.0)
    step = 1e-6
    d = (h.eval(step) - h.eval(-step)) / (2.0 * step)
    return 1.0 - d


def fixed_budget_variable(
    h: DriftFunction, x0: float, t: int, variant: str = "unlimited"
) -> BoundReport:
    """Upper bound on E[X_t] by iterating id - h from X0.

    The limited-time variant adds the correction h~(0)/h~'(0) for
    processes whose drift condition stops at the target.
    """
    steps = _whole("fixed_budget_variable", "t", t)
    if steps < 0:
        raise ParameterError("t must be non-negative")
    if variant not in ("unlimited", "limited"):
        raise ParameterError(f"unknown variant {variant!r}")
    grid = _grid_flags(h, 0.0, max(x0, 1.0))
    flags = (grid["greed_admitting"], grid["h_convex"])
    x = float(x0)
    for _ in range(steps):
        x = x - h.eval(x)
    value = x
    if variant == "limited":
        d0 = _h_tilde_derivative_at_zero(h)
        if d0 <= 0.0:
            raise ParameterError(f"the limited variant needs h~'(0) > 0, got {d0}")
        if d0 > 1.0:
            flags = flags + (
                PreconditionFlag("h_tilde_slope_at_0", FAIL, f"h~'(0) = {d0}"),
            )
        value = value + (0.0 - h.eval(0.0)) / d0
    return BoundReport(
        theorem_id="budget.var",
        inputs={"X0": x0, "t": t, "variant": variant},
        bound=value,
        direction=FIXED_BUDGET_VALUE,
        extras={"iterate": x},
        preconditions=flags + (PreconditionFlag("drift_D", UNCHECKED),),
    )


def iterated_budget_threshold(
    h: DriftFunction, x: float, y: float, domain: str = "continuous"
) -> BoundReport:
    """Smallest guaranteed budget t with iterate of id - h from y
    landing at or below x: the reciprocal-drift integral (continuous)
    or sum over integers [x..y-1] (integer domain)."""
    if x > y:
        raise ParameterError("need x <= y")
    flags = [_grid_flags(h, x, max(y, x + 1e-9))["h_monotone"]]

    def reciprocal(z):
        hz = h.eval(z)
        if not hz > 0:
            raise ParameterError(f"h must be positive on [{x}, {y}], got h({z}) = {hz}")
        return 1.0 / hz

    if domain == "continuous":
        from scipy.integrate import quad

        reciprocal(x)  # quad samples only inside the interval
        integral, _ = quad(reciprocal, x, y, epsrel=1e-9, limit=500)
        t = ceil(integral) if integral > 0 else 0
    elif domain == "integer":
        t = ceil(sum(reciprocal(float(i)) for i in range(int(x), int(y))))
    else:
        raise ParameterError(f"unknown domain {domain!r}")
    return BoundReport(
        theorem_id="budget.threshold",
        inputs={"x": x, "y": y, "domain": domain},
        bound=float(t),
        direction=FIXED_BUDGET_VALUE,
        extras={"budget": int(t)},
        preconditions=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Wormald's method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WormaldSystem:
    """An ODE system tracking a scaled-down stochastic process.

    f(x, z) returns the a drift derivatives; y0 are the unscaled
    initial values, m the scale; the domain D is the l-infinity ball
    of the given radius around the scaled initial point; lam is the
    deviation scale of the tracked process.
    """

    a: int
    m: float
    f: Callable
    y0: tuple
    radius: float
    lam: float

    def __post_init__(self):
        if len(self.y0) != self.a:
            raise ParameterError(f"a = {self.a} coordinates but {len(self.y0)} initial values")
        if any(abs(y) > self.m for y in self.y0):
            raise ParameterError("initial values must not exceed the scale m")
        if self.radius <= 0:
            raise ParameterError("domain radius must be positive")


@dataclass(frozen=True)
class WormaldTrajectory:
    xs: np.ndarray
    zs: np.ndarray  # shape (len(xs), a)
    exited: bool
    exit_x: Optional[float]

    def predicted(self, system: WormaldSystem, t: float) -> np.ndarray:
        """Predicted unscaled values at step count t by interpolation."""
        x = t / system.m
        out = np.empty(system.a)
        for i in range(system.a):
            out[i] = system.m * np.interp(x, self.xs, self.zs[:, i])
        return out


def wormald_track(system: WormaldSystem, horizon: float) -> WormaldTrajectory:
    """Integrate dz/dx = f(x, z) with a classical 4th-order scheme of
    fixed step 1e-3 from the scaled initial point.

    Stops at the horizon or once the point comes within lam
    (l-infinity) of the domain boundary; the exit point is reported.
    """
    step = 1e-3
    z0 = np.array(system.y0, dtype=float) / system.m
    margin = system.radius - system.lam
    xs = [0.0]
    zs = [z0.copy()]
    x = 0.0
    z = z0.copy()
    f = system.f
    exited = False
    exit_x = None
    n_steps = int(round(horizon / step))
    for _ in range(n_steps):
        k1 = np.asarray(f(x, z), dtype=float)
        k2 = np.asarray(f(x + step / 2.0, z + step / 2.0 * k1), dtype=float)
        k3 = np.asarray(f(x + step / 2.0, z + step / 2.0 * k2), dtype=float)
        k4 = np.asarray(f(x + step, z + step * k3), dtype=float)
        z = z + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x + step
        dist = max(abs(x), float(np.max(np.abs(z - z0))))
        if dist >= margin:
            exited = True
            exit_x = x
            xs.append(x)
            zs.append(z.copy())
            break
        xs.append(x)
        zs.append(z.copy())
    return WormaldTrajectory(
        xs=np.array(xs), zs=np.array(zs), exited=exited, exit_x=exit_x
    )
