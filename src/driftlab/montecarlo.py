"""Seeded Monte Carlo engine.

Trials are keyed by (seed, trial index) through SeedSequence spawn
keys, so results are deterministic and independent of trial execution
order.  Every process, kernel-backed or not, is simulated by the same
loop over its Process interface (sample_initial, is_target, step), so
a seed gives the same trials on every machine.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import ParameterError
from .processes import Process

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class RunStats:
    """Hitting-time statistics over independent trials.

    mean/variance/ci99 cover the uncensored trials only; censored
    counts trials truncated at the step cap, and censored_mean_lb
    reports the mean with those trials contributing the cap, a lower
    bound on the true mean.
    """

    trials: int
    mean: float
    variance: float
    ci99: tuple
    censored: int
    cap: int
    censored_mean_lb: float

    @property
    def se(self) -> float:
        return math.sqrt(self.variance / max(self.trials - self.censored, 1))


@dataclass(frozen=True)
class ConditionReport:
    """Per-state verdicts for one drift-style condition."""

    condition_id: str
    per_state: tuple
    overall: str  # pass / fail / indeterminate
    extras: dict = field(default_factory=dict)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The private randomness stream of one trial."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _hit_time(process: Process, rng, cap: int) -> int:
    state = process.sample_initial(rng)
    for t in range(cap + 1):
        if process.is_target(state):
            return t
        if t == cap:
            break
        state = process.step(state, rng)
    return -1


def sample_hitting_times(
    process: Process, trials: int, seed: int, cap: int
) -> np.ndarray:
    """Per-trial hitting times; censored trials are recorded as -1."""
    if trials < 1 or cap < 1:
        raise ParameterError("trials and cap must be at least 1")
    times = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        times[trial] = _hit_time(process, trial_rng(seed, trial), cap)
    return times


def _stats_from_times(times: np.ndarray, cap: int) -> RunStats:
    trials = len(times)
    censored = int(np.sum(times < 0))
    good = times[times >= 0].astype(float)
    if good.size:
        mean = float(np.mean(good))
        var = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
        half = _Z99 * math.sqrt(var / good.size)
        ci = (mean - half, mean + half)
    else:
        mean, var, ci = float("nan"), float("nan"), (float("nan"), float("nan"))
    clipped = np.where(times < 0, cap, times).astype(float)
    return RunStats(
        trials=trials,
        mean=mean,
        variance=var,
        ci99=ci,
        censored=censored,
        cap=cap,
        censored_mean_lb=float(np.mean(clipped)),
    )


def default_cap(upper_bound: Optional[float] = None) -> int:
    """100x the best available upper bound, or 10^7 without one."""
    if upper_bound is None or not math.isfinite(upper_bound):
        return 10_000_000
    return max(1, int(math.ceil(100.0 * upper_bound)))


def simulate_hitting(
    process: Process, trials: int, seed: int, cap: Optional[int] = None
) -> RunStats:
    """Empirical hitting-time statistics over independent trials."""
    cap = default_cap() if cap is None else cap
    times = sample_hitting_times(process, trials, seed, cap)
    return _stats_from_times(times, cap)


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-step mean and 99% CI of the process value."""

    horizon: int
    trials: int
    mean: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


def sample_trajectory(process: Process, horizon: int, seed: int, trial: int = 0) -> np.ndarray:
    """Values of one trial over t = 0..horizon (terminal value is held
    after absorption)."""
    rng = trial_rng(seed, trial)
    state = process.sample_initial(rng)
    out = np.empty(horizon + 1)
    out[0] = process.value(state)
    for t in range(1, horizon + 1):
        if not process.is_target(state):
            state = process.step(state, rng)
        out[t] = process.value(state)
    return out


def simulate_trajectory(
    process: Process, horizon: int, trials: int, seed: int
) -> TrajectoryStats:
    """Mean value curve over t = 0..horizon with pointwise 99% CIs."""
    if horizon < 0 or trials < 1:
        raise ParameterError("horizon must be >= 0 and trials >= 1")
    acc = np.zeros(horizon + 1)
    acc2 = np.zeros(horizon + 1)
    for trial in range(trials):
        vals = sample_trajectory(process, horizon, seed, trial)
        acc += vals
        acc2 += vals * vals
    mean = acc / trials
    var = np.maximum(acc2 / trials - mean * mean, 0.0)
    if trials > 1:
        var = var * trials / (trials - 1)
    half = _Z99 * np.sqrt(var / trials)
    return TrajectoryStats(
        horizon=horizon, trials=trials, mean=mean,
        ci_lo=mean - half, ci_hi=mean + half,
    )


# ---------------------------------------------------------------------------
# Drift estimation and condition verification
# ---------------------------------------------------------------------------

def _one_step_samples(process, potential, state, samples, rng) -> np.ndarray:
    out = np.empty(samples)
    for i in range(samples):
        out[i] = potential.eval(process.step(state, rng))
    return out


def estimate_drift(process: Process, potential, state, samples: int, seed: int):
    """One-step drift of the potential at a state.

    Exact from the kernel when present (zero-width CI), otherwise the
    sample mean with a 99% CI.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    base = potential.eval(state)
    if process.exact_kernel is not None:
        row = process.exact_kernel(state)
        est = sum(p * (base - potential.eval(succ)) for succ, p in row)
        return est, (est, est)
    rng = trial_rng(seed, 0)
    vals = base - _one_step_samples(process, potential, state, samples, rng)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return est, (est - _Z99 * se, est + _Z99 * se)


def _sample_states(process, rng, limit=50, keep=None, max_steps=10_000):
    """Visited-state sampling for huge state spaces: walk trajectories
    and collect distinct states."""
    seen = []
    seen_keys = set()
    attempts = 0
    while len(seen) < limit and attempts < 20:
        attempts += 1
        state = process.sample_initial(rng)
        for _ in range(max_steps):
            if (keep is None or keep(state)) and state not in seen_keys:
                seen_keys.add(state)
                seen.append(state)
                if len(seen) >= limit:
                    break
            if process.is_target(state):
                break
            state = process.step(state, rng)
    return seen


_KNOWN_CONDITIONS = (
    "additive_D", "multiplicative_D", "variable_D", "variance_Var",
    "step_bound_B", "concentration_C", "monotone_M", "greed_admitting",
)


def verify_condition(
    process: Process,
    potential,
    condition_id: str,
    state_set: Optional[Iterable] = None,
    samples: int = 10_000,
    seed: int = 0,
    delta: Optional[float] = None,
    c: Optional[float] = None,
    beta: Optional[float] = None,
    h=None,
    sense: str = ">=",
    j_max: int = 10,
) -> ConditionReport:
    """Check a named drift-style condition per state.

    Exact-kernel processes evaluate expectations exactly (no CI); a
    state fails only when its estimate (or CI) conflicts with the
    threshold.  Without an explicit state_set, non-target states are
    sampled from trajectories and the overall verdict is capped at
    "indeterminate".
    """
    if condition_id not in _KNOWN_CONDITIONS:
        raise ParameterError(f"unknown condition id {condition_id!r}")

    if condition_id == "greed_admitting":
        # property of the drift function itself, checked on a value grid
        if h is None:
            raise ParameterError("greed_admitting requires h")
        hi = max((potential.eval(s) for s, _ in (process.initial_support or ())), default=1.0)
        xs = np.linspace(0.0, max(hi, 1.0), 1000)
        ht = xs - np.array([h.eval(float(x)) for x in xs])
        ok = bool(np.all(np.diff(ht) >= -1e-9))
        return ConditionReport(
            condition_id=condition_id,
            per_state=(),
            overall="pass" if ok else "fail",
            extras={"grid_max": float(xs[-1])},
        )

    rng = trial_rng(seed, 0)
    sampled_states = state_set is None
    if sampled_states:
        states = _sample_states(
            process, rng, keep=lambda s: not process.is_target(s)
        )
    else:
        states = [s for s in state_set if not process.is_target(s)]

    exact = process.exact_kernel is not None
    tol = 1e-9
    per_state = []
    any_fail = False

    for state in states:
        base = potential.eval(state)
        if exact:
            row = [(potential.eval(succ), p) for succ, p in process.exact_kernel(state)]
            diffs = np.array([base - v for v, _ in row])
            probs = np.array([p for _, p in row])
            mean_drop = float(np.dot(probs, diffs))
            ci = (mean_drop, mean_drop)
            se = 0.0
        else:
            vals = base - _one_step_samples(process, potential, state, samples, rng)
            diffs = vals
            probs = None
            mean_drop = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            ci = (mean_drop - _Z99 * se, mean_drop + _Z99 * se)

        if condition_id in ("additive_D", "multiplicative_D", "variable_D"):
            if condition_id == "additive_D":
                if delta is None:
                    raise ParameterError("additive_D requires delta")
                threshold = delta
            elif condition_id == "multiplicative_D":
                if delta is None:
                    raise ParameterError("multiplicative_D requires delta")
                threshold = delta * base
            else:
                if h is None:
                    raise ParameterError("variable_D requires h")
                threshold = h.eval(base)
            if sense == ">=":
                ok = (mean_drop >= threshold - tol) if exact else (ci[1] >= threshold)
            else:
                ok = (mean_drop <= threshold + tol) if exact else (ci[0] <= threshold)
            estimate = mean_drop
        elif condition_id == "variance_Var":
            if delta is None:
                raise ParameterError("variance_Var requires delta")
            if exact:
                second = float(np.dot(probs, diffs * diffs))
                var = second - mean_drop * mean_drop
                ok = var >= delta - tol
                ci = (var, var)
            else:
                var = float(np.var(diffs, ddof=1))
                var_se = var * math.sqrt(2.0 / max(len(diffs) - 1, 1))
                ci = (var - _Z99 * var_se, var + _Z99 * var_se)
                ok = ci[1] >= delta
            estimate = var
        elif condition_id == "step_bound_B":
            if c is None:
                raise ParameterError("step_bound_B requires c")
            worst = float(np.max(np.abs(diffs))) if len(diffs) else 0.0
            if exact:
                # ignore zero-probability entries
                mask = probs > 0
                worst = float(np.max(np.abs(diffs[mask]))) if mask.any() else 0.0
            ok = worst <= c + tol
            estimate = worst
            ci = (worst, worst)
        elif condition_id == "concentration_C":
            if beta is None or delta is None:
                raise ParameterError("concentration_C requires beta and delta")
            if base <= 1.0:
                continue
            limit = beta * delta / math.log(base)
            cut = beta * base
            if exact:
                freq = float(np.sum(probs[diffs >= cut - tol]))
                ok = freq <= limit + tol
                ci = (freq, freq)
            else:
                freq = float(np.mean(diffs >= cut))
                p_se = math.sqrt(max(freq * (1 - freq), 1e-12) / len(diffs))
                ci = (freq - _Z99 * p_se, freq + _Z99 * p_se)
                ok = ci[0] <= limit
            estimate = freq
        elif condition_id == "monotone_M":
            if exact:
                mask = probs > 0
                worst = float(np.min(diffs[mask])) if mask.any() else 0.0
            else:
                worst = float(np.min(diffs)) if len(diffs) else 0.0
            ok = worst >= -tol
            estimate = worst
            ci = (worst, worst)

        per_state.append((state, estimate, ci, ok))
        any_fail = any_fail or not ok

    if any_fail:
        overall = "fail"
    elif exact and not sampled_states:
        overall = "pass"
    else:
        overall = "indeterminate"
    return ConditionReport(
        condition_id=condition_id,
        per_state=tuple(per_state),
        overall=overall,
        extras={"exact": exact, "sampled_states": sampled_states},
    )


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def tail_frequency(process: Process, time_threshold: int, trials: int, seed: int):
    """Empirical Pr[T > threshold] with a Wilson 99% CI."""
    if time_threshold < 0:
        raise ParameterError("threshold must be non-negative")
    if time_threshold == 0:
        times = sample_hitting_times(process, trials, seed, cap=1)
        exceed = int(np.sum(times != 0))
    else:
        times = sample_hitting_times(process, trials, seed, cap=time_threshold)
        exceed = int(np.sum(times < 0))
    frac = exceed / trials
    return frac, wilson_interval(exceed, trials)
