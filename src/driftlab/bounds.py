"""Drift-theorem bound calculators.

One calculator per theorem, listed in THEOREMS by theorem id with the
direction it bounds in and the hypotheses it leaves unchecked.  Each
returns a BoundReport with the computed bound and a precondition
report.  Calculators are pure arithmetic; condition checks that need
process access live in the montecarlo module and are attached as flags
by callers.
"""

from dataclasses import dataclass, field
from math import ceil, exp, inf, isfinite, isnan, log, log2
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DriftError, ParameterError
from .oracle import _double_sum
from .processes import _natural, _whole

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

    direction and the unchecked flags come from the theorem's THEOREMS
    entry.  For upper_tail_prob, bound is the formula's value clamped to
    [0, 1] (NaN stays NaN) and raw the value itself; other directions
    have no raw.  extras carries secondary outputs (tail pairs, weaker
    variants, tables).
    """

    theorem_id: str
    bound: float
    direction: str
    preconditions: tuple = ()
    raw: Optional[float] = None
    extras: dict = field(default_factory=dict)


class Theorem(NamedTuple):
    """A theorem's calculator, by its name in this module, the direction
    of its bound and the names of the hypotheses no calculator checks,
    in the order its report lists them."""

    calculator: str
    direction: str
    unchecked: tuple = ()


# theorem id -> Theorem.  Callers look each calculator up by name at call
# time, so that a function replaced on this module after import is the
# one called.
THEOREMS = {
    "additive.upper": Theorem("additive_upper", UPPER_ON_ET, ("drift_D", "non_negativity_NN")),
    # the profile's step_bound_B or state_bound_UB follows
    "additive.lower": Theorem("additive_lower", LOWER_ON_ET, ("drift_D",)),
    "additive.overshoot.upper": Theorem("additive_overshoot_upper", UPPER_ON_ET, ("drift_D",)),
    "mult.upper": Theorem("multiplicative_upper", UPPER_ON_ET, ("drift_D",)),
    "mult.tail": Theorem("multiplicative_tail", UPPER_TAIL_PROB, ("drift_D", "start_bound")),
    "mult.lower.monotone": Theorem("multiplicative_lower_monotone", LOWER_ON_ET,
                                   ("drift_D", "monotone_M", "concentration_C")),
    "mult.lower.bounded": Theorem("multiplicative_lower_bounded_step", LOWER_ON_ET,
                                  ("drift_D", "step_bound_B")),
    "var.upper": Theorem("variable_drift_upper", UPPER_ON_ET, ("drift_D",)),
    "tail.add.upper.bounded": Theorem("additive_tail_upper_bounded", UPPER_TAIL_PROB,
                                      ("drift_D", "step_bound_B")),
    "tail.add.upper.concentrated": Theorem("additive_tail_upper_concentrated", UPPER_TAIL_PROB,
                                           ("drift_D", "concentration_C")),
    "tail.add.lower.bounded": Theorem("additive_tail_lower_bounded", UPPER_TAIL_PROB,
                                      ("drift_D", "step_bound_B")),
    "tail.add.lower.concentrated": Theorem("additive_tail_lower_concentrated", UPPER_TAIL_PROB,
                                           ("drift_D", "concentration_C")),
    "neg.515": Theorem("negative_drift_escape", UPPER_TAIL_PROB, ("drift_D", "step_bound_B")),
    "fss.upper": Theorem("finite_state_upper", UPPER_ON_ET,
                         ("down_prob_lb", "up_prob_ub", "up_steps_of_1")),
    "fss.lower": Theorem("finite_state_lower", LOWER_ON_ET,
                         ("down_prob_ub", "down_steps_of_1", "up_prob_lb")),
    "headwind": Theorem("headwind_upper", UPPER_ON_ET),
    "headwind.closed": Theorem("headwind_closed", UPPER_ON_ET),
    "updrift": Theorem("updrift_upper", UPPER_ON_ET, ("binomial_domination", "gain_at_zero")),
    "levelbased": Theorem("level_based", UPPER_ON_ET, ("drift_D", "zero_condition")),
    "flm.upper": Theorem("flm_upper", UPPER_ON_ET, ("monotone_levels",)),
    "flm.visit.lower": Theorem("flm_visit_lower", LOWER_ON_ET, ("monotone_levels",)),
    "flm.visit.upper": Theorem("flm_visit_upper", UPPER_ON_ET, ("monotone_levels",)),
    "budget.add": Theorem("fixed_budget_additive", FIXED_BUDGET_VALUE, ("drift_D",)),
    "budget.var": Theorem("fixed_budget_variable", FIXED_BUDGET_VALUE, ("drift_D",)),
    "budget.threshold": Theorem("iterated_budget_threshold", FIXED_BUDGET_VALUE),
}


def _report(theorem_id: str, value: float, computed: tuple = (), chosen: tuple = (),
            **extras) -> BoundReport:
    """The report of value, theorem_id's bound: its flags are the computed
    ones, then the theorem's unchecked hypotheses, then those the
    arguments chose (unchecked too).  A tail probability keeps value as
    raw, and its bound is value clamped to [0, 1]."""
    _, direction, unchecked = THEOREMS[theorem_id]
    flags = computed + tuple(PreconditionFlag(name, UNCHECKED) for name in unchecked + chosen)
    if direction != UPPER_TAIL_PROB:
        return BoundReport(theorem_id, value, direction, flags, extras=extras)
    # a NaN tail stays NaN, so a bad input never reads as a bound of 0
    bound = value if isnan(value) else min(1.0, max(0.0, value))
    return BoundReport(theorem_id, bound, direction, flags, raw=value, extras=extras)


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


# ---------------------------------------------------------------------------
# Additive drift
# ---------------------------------------------------------------------------

def additive_upper(e_x0: float, delta: float) -> BoundReport:
    """Expected time at most E[X0]/delta under drift at least delta."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if e_x0 < 0:
        raise ParameterError("E[X0] must be non-negative")
    return _report("additive.upper", e_x0 / delta)


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
    return _report("additive.lower", e_x0 / delta, chosen=(flag_name,))


def additive_overshoot_upper(e_x0: float, e_xt: float, delta: float) -> BoundReport:
    """Upper bound allowing overshoot: (E[X0] - E[X_T])/delta."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if e_xt > 0:
        raise ParameterError("E[X_T] must be <= 0 at the first crossing")
    return _report("additive.overshoot.upper", (e_x0 - e_xt) / delta)


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
    return _report("mult.upper", (1.0 + log(e_x0)) / delta)


def multiplicative_tail(s: float, delta: float, k: float) -> BoundReport:
    """Tail pair: time (k + ln s)/delta is exceeded with prob <= e^-k."""
    if not (0.0 < delta <= 1.0):
        raise ParameterError("delta must lie in (0, 1]")
    if s < 1.0:
        raise ParameterError("s must be >= 1")
    if k <= 0:
        raise ParameterError("k must be positive")
    return _report("mult.tail", exp(-k), time_threshold=(k + log(s)) / delta)


def multiplicative_lower_monotone(x0: float, delta: float, beta: float) -> BoundReport:
    """Lower bound (ln X0)/delta * (1-beta)/(1+beta) for monotone,
    concentrated processes; the weaker (1 - 2 beta) variant is kept in
    extras."""
    if not (0.0 < delta < 1.0) or not (0.0 < beta < 1.0):
        raise ParameterError("delta and beta must lie in (0, 1)")
    if x0 <= 1.0:
        raise ParameterError("X0 must exceed 1")
    return _report("mult.lower.monotone", log(x0) / delta * (1.0 - beta) / (1.0 + beta),
                   weaker_variant=log(x0) / delta * (1.0 - 2.0 * beta))


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
    return _report("mult.lower.bounded", (1.0 + log(x0) - log(x_min)) / denom)


# ---------------------------------------------------------------------------
# Variable drift
# ---------------------------------------------------------------------------

def _reciprocal_integral(theorem_id: str, reciprocal, lo: float, hi: float) -> float:
    """The integral of 1/h over [lo, hi] by `quad`, asked for 1e-9
    relative error and no absolute one.  quad's own report decides: a
    message from it (it would otherwise only warn), a non-finite value or
    an error estimate above 1e-9 of the value is an error naming the
    calculator."""
    from scipy.integrate import quad

    integral, err, *rest = quad(reciprocal, lo, hi, epsabs=0.0, epsrel=1e-9, limit=500,
                                full_output=1)
    message = " ".join(rest[1].split()) if len(rest) > 1 else ""
    if message or not isfinite(integral) or err > 1e-9 * abs(integral):
        raise DriftError(
            f"{theorem_id}: quad cannot integrate 1/h over [{lo!r}, {hi!r}] to 1e-9: "
            f"integral {integral!r}, error estimate {err!r}"
            + (f"; quad: {message}" if message else "")
        )
    return integral


def variable_drift_upper(h: DriftFunction, x_min: float, x0: float) -> BoundReport:
    """Expected time at most 1/h(x_min) + integral of 1/h over
    [x_min, X0], for monotone non-decreasing positive h."""
    if x_min <= 0:
        raise ParameterError("x_min must be positive")
    if x0 < x_min:
        raise ParameterError("X0 must be at least x_min")
    monotone = _grid_flags(h, x_min, x0)["h_monotone"]
    h_min = h.eval(x_min)
    if h_min <= 0:
        raise ParameterError("h must be positive at x_min")
    integral = _reciprocal_integral("var.upper", lambda z: 1.0 / h.eval(z), x_min, x0)
    return _report("var.upper", 1.0 / h_min + integral, (monotone,))


# ---------------------------------------------------------------------------
# Additive concentration tails
# ---------------------------------------------------------------------------

def additive_tail_upper_bounded(n: float, delta: float, c: float, s: float) -> BoundReport:
    """Pr[T >= s] <= exp(-s delta^2/(8 c^2)) for s >= 2n/delta."""
    if delta <= 0 or c <= 0:
        raise ParameterError("delta and c must be positive")
    if s < 2.0 * n / delta:
        raise ParameterError("s must be at least 2n/delta")
    return _report("tail.add.upper.bounded", exp(-s * delta * delta / (8.0 * c * c)))


def additive_tail_upper_concentrated(
    n: float, delta: float, c: float, eps: float, s: float
) -> BoundReport:
    """Pr[T >= s] <= exp(-(s delta/4) min(eps/4, delta eps^3/(256 c)))."""
    if delta <= 0 or c <= 0 or eps <= 0:
        raise ParameterError("delta, c and eps must be positive")
    if s < 2.0 * n / delta:
        raise ParameterError("s must be at least 2n/delta")
    inner = min(eps / 4.0, delta * eps**3 / (256.0 * c))
    branch = "eps/4" if eps / 4.0 <= delta * eps**3 / (256.0 * c) else "delta*eps^3/(256c)"
    return _report("tail.add.upper.concentrated", exp(-s * delta / 4.0 * inner),
                   min_branch=branch)


def additive_tail_lower_bounded(n: float, delta: float, c: float, s: float) -> BoundReport:
    """Pr[T < s] <= exp(-n^2/(8 c^2 s)) for s <= n/(2 delta)."""
    if delta <= 0 or c <= 0 or s <= 0:
        raise ParameterError("delta, c and s must be positive")
    if s > n / (2.0 * delta):
        raise ParameterError("s must be at most n/(2 delta)")
    return _report("tail.add.lower.bounded", exp(-n * n / (8.0 * c * c * s)), tail_event="T < s")


def additive_tail_lower_concentrated(
    n: float, delta: float, c: float, eps: float, s: float
) -> BoundReport:
    """Pr[T < s] <= exp(-(n/4) min(eps/4, n eps^3/(256 c s)))."""
    if delta <= 0 or c <= 0 or eps <= 0 or s <= 0:
        raise ParameterError("delta, c, eps and s must be positive")
    if s > n / (2.0 * delta):
        raise ParameterError("s must be at most n/(2 delta)")
    inner = min(eps / 4.0, n * eps**3 / (256.0 * c * s))
    return _report("tail.add.lower.concentrated", exp(-n / 4.0 * inner), tail_event="T < s")


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
    return _report("neg.515", s * exp(-n * abs(eps) / (2.0 * c * c)), tail_event="T <= s")


# ---------------------------------------------------------------------------
# Finite state spaces
# ---------------------------------------------------------------------------

def finite_state_upper(p_leave: tuple, p_back: tuple, x0: int) -> BoundReport:
    """Double-sum upper bound for chains on [0..n] with up-steps of 1.

    p_leave[s-1] lower-bounds the probability of decreasing from s,
    p_back[s] upper-bounds the probability of increasing from s.
    """
    return _report("fss.upper", _double_sum(p_leave, p_back, x0, ("p_leave", "p_back", "x0")))


def finite_state_lower(p_fwd: tuple, p_back_lb: tuple, x0: int) -> BoundReport:
    """Double-sum lower bound; p_fwd[s-1] upper-bounds the probability
    of decreasing (by exactly 1) from s, p_back_lb[s] lower-bounds the
    probability of increasing from s."""
    return _report("fss.lower", _double_sum(p_fwd, p_back_lb, x0, ("p_fwd", "p_back_lb", "x0")))


# ---------------------------------------------------------------------------
# Headwind drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadwindParams:
    """Inputs of the headwind recurrence.

    p_minus[i] and p_plus[i] are indexed by state i in [0..n]
    (p_minus[0] unused); delta[i] is the drift-minus-backflow value at
    state i; kappa, at most n, bounds the zone where delta is
    non-positive.
    """

    p_minus: tuple
    p_plus: tuple
    delta: tuple
    kappa: int

    def __post_init__(self):
        n = len(self.delta) - 1
        if len(self.p_minus) != n + 1 or len(self.p_plus) != n + 1:
            raise ParameterError("p_minus, p_plus and delta must share length n+1")
        if self.kappa > n:
            raise ParameterError(f"kappa {self.kappa} above the top state n = {n}")
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
    for i in range(params.kappa - 1, -1, -1):
        pp = params.p_plus[i + 1]
        pm = params.p_minus[i + 1]
        g[i] = (1.0 + (pp + pm) * g[i + 1]) / pm
    return g


def headwind_upper(params: HeadwindParams, x0: int) -> BoundReport:
    """Expected hitting time of 0 at most g(0) - g(X0)."""
    if not (0 <= x0 <= params.n):
        raise ParameterError(f"X0 outside [0..{params.n}]")
    g = headwind_g(params)
    return _report("headwind", g[0] - g[x0], (_headwind_monotone_flag(params),), g_table=tuple(g))


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
    flag = _headwind_monotone_flag(params)
    return _report("headwind.closed", tail_sum * prod + loop_sum, (flag,))


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
    return _report("updrift", bound, regime=regime)


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
        _natural("levelbased", "lam", self.lam, least=1)
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
    ps = PreconditionFlag("population_size_PS", PASS if ps_ok else FAIL,
                          f"lambda {params.lam} vs required {ps_rhs:.3f}")
    return _report(
        "levelbased", 8.0 * params.lam * t0 if ps_ok else float("nan"), (ps,), t0=t0,
        c1_form=params.C1 * params.lam / params.delta * t0 / (7000.0 / params.delta),
        minimal_lambda=_level_based_minimal_lambda(params),
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
    return _report("flm.upper", float(sum(1.0 / p for p in levels.p)))


def _flm_visit(levels: LevelProfile, theorem_id: str) -> BoundReport:
    if levels.v is None:
        raise ParameterError("visit-probability variant requires v")
    return _report(theorem_id, float(sum(v / p for v, p in zip(levels.v, levels.p))))


def flm_visit_lower(levels: LevelProfile) -> BoundReport:
    """Sum of v_i/p_i with p_i upper bounds and v_i lower bounds."""
    return _flm_visit(levels, "flm.visit.lower")


def flm_visit_upper(levels: LevelProfile) -> BoundReport:
    """Sum of v_i/p_i with p_i lower bounds and v_i upper bounds."""
    return _flm_visit(levels, "flm.visit.upper")


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
    return _report("budget.add", value, variant=variant)


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
            flags += (PreconditionFlag("h_tilde_slope_at_0", FAIL, f"h~'(0) = {d0}"),)
        value = value + (0.0 - h.eval(0.0)) / d0
    return _report("budget.var", value, flags, iterate=x)


def iterated_budget_threshold(
    h: DriftFunction, x: float, y: float, domain: str = "continuous"
) -> BoundReport:
    """Smallest guaranteed budget t with iterate of id - h from y
    landing at or below x: the reciprocal-drift integral (continuous)
    or sum over integers [x..y-1] (integer domain)."""
    if x > y:
        raise ParameterError("need x <= y")
    monotone = _grid_flags(h, x, max(y, x + 1e-9))["h_monotone"]

    def reciprocal(z):
        hz = h.eval(z)
        if not hz > 0:
            raise ParameterError(f"h must be positive on [{x}, {y}], got h({z}) = {hz}")
        return 1.0 / hz

    if domain == "continuous":
        reciprocal(x)  # quad samples only inside the interval
        integral = _reciprocal_integral("budget.threshold", reciprocal, x, y)
        t = ceil(integral) if integral > 0 else 0
    elif domain == "integer":
        t = ceil(sum(reciprocal(float(i)) for i in range(int(x), int(y))))
    else:
        raise ParameterError(f"unknown domain {domain!r}")
    return _report("budget.threshold", float(t), (monotone,), budget=int(t))


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
