"""Seeded Monte Carlo engine.

Trials are keyed by (seed, trial index) through SeedSequence spawn
keys, so results are deterministic and independent of trial execution
order.  The reference for every simulation is the loop over a trial's
Process interface (sample_initial, is_target, step).  A process whose
step_law is a KernelDraw (kernel chains) or LeadingOnesEA (the (1+1) EA
on LeadingOnes) is instead stepped by the lockstep walker: all live trials
of a chunk advance together in numpy, each reading its own stream in
blocks, since rng.random(a) followed by rng.random(b) gives the numbers
of rng.random(a + b).  Its hitting times and value curves equal the
loop's trial by trial.
"""

import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .bounds import _grid_flags
from .errors import ParameterError
from .processes import KernelDraw, LeadingOnesEA, Process, _whole

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_CAP = 10_000_000  # simulate_hitting's step cap when none is given


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
    trials = _whole("sample_hitting_times", "trials", trials)
    cap = _whole("sample_hitting_times", "cap", cap)
    if trials < 1 or cap < 1:
        raise ParameterError("trials and cap must be at least 1")
    if _steps_in_lockstep(process, trials):
        return _lockstep(process, trials, seed, cap)
    times = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        times[trial] = _hit_time(process, trial_rng(seed, trial), cap)
    return times


# ---------------------------------------------------------------------------
# Lockstep walker
# ---------------------------------------------------------------------------

_FEW_TRIALS = 8  # a chain simulated with no more trials than this takes the loop
_CHUNK = 4096  # trials started together
_BLOCK_UNIFORMS = 1 << 19  # uniforms (and recorded values) held per block
_FIRST_BLOCK = 16  # steps in a chunk's first block; each next block doubles
_MIN_BLOCK = 64  # steps a full chunk's block can hold at least


class _KernelTable:
    """Padded successor and cumulative-probability rows of a KernelDraw
    chain, compiled on first visit and shared by every simulation of it.

    Row 0 is a sentinel that steps to itself.  A row's cumulative sums
    are accumulated in row order as _categorical does, and padded with
    inf and the row's last successor, which _categorical returns when u
    is at or above every sum.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.index = {}
        self.states = [None]
        self.ready = [True]
        self.succ = np.zeros((8, 1), dtype=np.int64)
        self.cum = np.full((8, 1), np.inf)

    def row(self, state) -> int:
        i = self.index.get(state)
        if i is None:
            i = self.index[state] = len(self.states)
            self.states.append(state)
            self.ready.append(False)
            if i == len(self.succ):
                self.succ = np.concatenate([self.succ, np.zeros_like(self.succ)])
                self.cum = np.concatenate([self.cum, np.full_like(self.cum, np.inf)])
        return i

    def compile(self, i: int) -> None:
        pairs = self.kernel(self.states[i])
        succ = [self.row(s) for s, _ in pairs]
        cum = []
        acc = 0.0
        for _, p in pairs:
            acc += p
            cum.append(acc)
        width = len(succ) + 1
        if width > self.succ.shape[1]:
            grow = width - self.succ.shape[1]
            self.succ = np.hstack([self.succ, np.repeat(self.succ[:, -1:], grow, axis=1)])
            self.cum = np.hstack([self.cum, np.full((len(self.cum), grow), np.inf)])
        self.succ[i, :len(succ)] = succ
        self.succ[i, len(succ):] = succ[-1]
        self.cum[i, :len(cum)] = cum
        self.ready[i] = True


# compiled rows depend on the kernel alone, so lifted copies of a process
# share its table; an entry goes when its KernelDraw does
_TABLES = weakref.WeakKeyDictionary()


class _KernelWalk:
    """Trials of a KernelDraw chain as rows of its table."""

    def __init__(self, process: Process, record: bool):
        law = process.step_law
        self.table = _TABLES.get(law)
        if self.table is None:
            self.table = _TABLES[law] = _KernelTable(law.kernel)
        self.process = process
        self.record = record
        self.width = 1
        # per simulation: 0 steps on, 1 not yet visited, 2 target
        self.flag = np.zeros(1, dtype=np.int8)
        self.val = np.full(1, np.nan)

    def _fit(self) -> None:
        grow = len(self.table.succ) - len(self.flag)
        if grow > 0:
            self.flag = np.concatenate([self.flag, np.ones(grow, dtype=np.int8)])
            self.val = np.concatenate([self.val, np.full(grow, np.nan)])

    def _visit(self, rows) -> None:
        table = self.table
        for i in np.unique(rows).tolist():
            state = table.states[i]
            if self.process.is_target(state):
                self.flag[i] = 2
            else:
                if not table.ready[i]:
                    table.compile(i)
                    self._fit()
                self.flag[i] = 0
            if self.record:
                self.val[i] = self.process.value(state)

    def _arrive(self):
        f = self.flag[self.idx]
        if not np.count_nonzero(f):
            return None
        new = self.idx[f == 1]
        if new.size:
            self._visit(new)
            f = self.flag[self.idx]
        return f == 2

    def start(self, states):
        self.idx = np.array([self.table.row(s) for s in states], dtype=np.int64)
        self._fit()
        return self._arrive()

    def draw(self, rngs, steps: int) -> np.ndarray:
        u = np.empty((len(rngs), steps))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        return u.T[:, :, None]

    def step(self, u):
        table = self.table
        j = (u < table.cum[self.idx]).argmax(axis=1)
        self.idx = table.succ[self.idx, j]
        return self._arrive()

    def stop(self, hit) -> None:
        self.idx[hit] = 0

    def keep(self, live) -> None:
        self.idx = self.idx[live]

    def values(self):
        return self.val[self.idx]


class _LeadingOnesWalk:
    """Trials of the (1+1) EA on LeadingOnes as rows of a bit matrix,
    with a 0 column after the last bit so that argmin finds LO = n."""

    def __init__(self, process: Process):
        law = process.step_law
        self.n, self.p = law.n, law.p
        self.width = law.n
        self.value = None if process.value is law.distance else process.value
        self.distance = np.arange(law.n, -1, -1, dtype=float)

    def start(self, states):
        self.bits = np.zeros((len(states), self.n + 1), dtype=bool)
        self.bits[:, :self.n] = states
        self.lo = self.bits.argmin(axis=1)
        self.live = np.ones(len(states), dtype=bool)
        self.stopped = 0
        return self._arrive()

    def _arrive(self):
        done = self.lo == self.n
        if np.count_nonzero(done) == self.stopped:
            return None
        return done & self.live

    def draw(self, rngs, steps: int) -> np.ndarray:
        flips = np.empty((len(rngs), steps, self.n), dtype=bool)
        for row, rng in zip(flips, rngs):
            np.less(rng.random(steps * self.n).reshape(steps, self.n), self.p, out=row)
        return flips.transpose(1, 0, 2)

    def step(self, flips):
        # the offspring keeps LO >= lo exactly when no bit below lo flips;
        # argmax is 0 when nothing flips, and then either choice is bits
        self.bits[:, :self.n] ^= flips & (flips.argmax(axis=1) >= self.lo)[:, None]
        self.lo = self.bits.argmin(axis=1)
        return self._arrive()

    def stop(self, hit) -> None:
        self.live &= ~hit
        self.stopped += int(np.count_nonzero(hit))

    def keep(self, live) -> None:
        self.bits, self.lo, self.live = self.bits[live], self.lo[live], self.live[live]
        self.stopped = 0

    def values(self):
        if self.value is None:
            return self.distance[self.lo]
        # the states step passes are tuples of 0/1 ints
        bits = self.bits[:, :self.n].view(np.uint8).tolist()
        return np.array([self.value(tuple(b)) for b in bits])


def _steps_in_lockstep(process: Process, trials: int) -> bool:
    """Whether the lockstep walker simulates these trials.  A lockstep
    step costs about 8 µs of numpy calls however few trials are live,
    and a chain's own step about 2 µs a trial, so chains with a few
    trials stay on the loop; an EA step on a bit string costs the loop
    more than the whole lockstep step.  A UniformPick walk has no
    lockstep walker yet and takes the loop."""
    law = process.step_law
    if isinstance(law, KernelDraw):
        return trials > _FEW_TRIALS
    return isinstance(law, LeadingOnesEA)


def _chunk_trials(width: int) -> int:
    """Trials per chunk when each step draws width uniforms."""
    return max(1, min(_CHUNK, _BLOCK_UNIFORMS // (width * _MIN_BLOCK)))


def _lockstep(process: Process, trials: int, seed: int, steps: int, sums=None) -> np.ndarray:
    """Hitting times within steps steps (-1 if none), stepping every
    live trial of a chunk together.  With sums = (acc, acc2), the value
    curves of t = 0..steps are added to them trial after trial, as the
    loop over sample_trajectory adds them.

    A walker holds one slot per live trial: start(states) and
    step(draws) return the mask of slots that reached the target (None
    when none did), draw(rngs, steps) takes each slot's next draws from
    its stream, stop(mask) drops slots from the target check, keep(mask)
    compacts the slots, and values() gives each slot's process value."""
    record = sums is not None
    if isinstance(process.step_law, KernelDraw):
        walk = _KernelWalk(process, record)
    else:
        walk = _LeadingOnesWalk(process)
    times = np.full(trials, -1, dtype=np.int64)
    chunk = _chunk_trials(walk.width)
    for first in range(0, trials, chunk):
        rngs = [trial_rng(seed, i) for i in range(first, min(first + chunk, trials))]
        size = len(rngs)
        hit = walk.start([process.sample_initial(rng) for rng in rngs])
        # pos maps a slot to its trial in the chunk; a stopped slot points
        # at the spare entry size, where nothing it writes is read
        pos = np.arange(size)
        cur = np.empty(size + 1)
        if record:
            cur[pos] = walk.values()
        if hit is not None:
            times[first + pos[hit]] = 0
            pos[hit] = size
            walk.stop(hit)
        if record:
            _add_in_order(sums, 0, cur[None, :size])
        live = int(np.count_nonzero(pos < size))
        t, block = 0, _FIRST_BLOCK
        while t < steps and (live or record):
            if live < len(pos):
                kept = pos < size
                pos = pos[kept]
                rngs = [rng for rng, k in zip(rngs, kept) if k]
                walk.keep(kept)
            span = _BLOCK_UNIFORMS // max(live * walk.width, size if record else 1)
            span = min(block, steps - t, max(1, span))
            block *= 2
            u = walk.draw(rngs, span) if live else None
            rec = np.empty((span, size)) if record else None
            for k in range(span):
                if not live:
                    if record:
                        rec[k:] = cur[:size]
                    break
                hit = walk.step(u[k])
                if record:
                    cur[pos] = walk.values()
                    rec[k] = cur[:size]
                if hit is not None:
                    times[first + pos[hit]] = t + k + 1
                    pos[hit] = size
                    walk.stop(hit)
                    live -= int(np.count_nonzero(hit))
            if record:
                _add_in_order(sums, t + 1, rec)
            t += span
    return times


def _add_in_order(sums, t0: int, rec: np.ndarray) -> None:
    """Add each trial's values (the columns of rec, times t0 onward) to
    acc and their squares to acc2, one trial after the other."""
    acc, acc2 = sums
    seg = slice(t0, t0 + len(rec))
    for total, vals in ((acc, rec.T), (acc2, rec.T * rec.T)):
        total[seg] = np.add.accumulate(np.vstack([total[None, seg], vals]), axis=0)[-1]


def _stats_from_times(times: np.ndarray, cap: int) -> RunStats:
    trials = len(times)
    censored = int(np.sum(times < 0))
    good = times[times >= 0].astype(float)
    if good.size:
        mean = float(np.mean(good))
        var = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
        half = Z99 * math.sqrt(var / good.size)
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


def simulate_hitting(
    process: Process, trials: int, seed: int, cap: Optional[int] = None
) -> RunStats:
    """Empirical hitting-time statistics over independent trials."""
    cap = _CAP if cap is None else cap
    times = sample_hitting_times(process, trials, seed, cap)
    return _stats_from_times(times, int(cap))  # sample_hitting_times checked it is whole


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
    horizon = _whole("simulate_trajectory", "horizon", horizon)
    trials = _whole("simulate_trajectory", "trials", trials)
    if horizon < 0 or trials < 1:
        raise ParameterError("horizon must be >= 0 and trials >= 1")
    acc = np.zeros(horizon + 1)
    acc2 = np.zeros(horizon + 1)
    if _steps_in_lockstep(process, trials):
        _lockstep(process, trials, seed, horizon, (acc, acc2))
    else:
        for trial in range(trials):
            vals = sample_trajectory(process, horizon, seed, trial)
            acc += vals
            acc2 += vals * vals
    mean = acc / trials
    var = np.maximum(acc2 / trials - mean * mean, 0.0)
    if trials > 1:
        var = var * trials / (trials - 1)
    half = Z99 * np.sqrt(var / trials)
    return TrajectoryStats(
        horizon=horizon, trials=trials, mean=mean,
        ci_lo=mean - half, ci_hi=mean + half,
    )


# ---------------------------------------------------------------------------
# Drift estimation and condition verification
# ---------------------------------------------------------------------------

def _one_step_drops(process: Process, potential, state, base: float, samples: int, rng):
    """(drops, probs, mean, ci) of the potential over one step from a
    state where it is base: with an exact kernel, each successor's drop,
    its probability, the exact mean and a zero-width CI; otherwise
    `samples` drawn drops, None, the sample mean and its 99% CI."""
    if process.exact_kernel is not None:
        row = process.exact_kernel(state)
        drops = np.array([base - potential.eval(succ) for succ, _ in row])
        probs = np.array([p for _, p in row])
        mean = float(np.dot(probs, drops))
        return drops, probs, mean, (mean, mean)
    after = (potential.eval(process.step(state, rng)) for _ in range(samples))
    drops = base - np.fromiter(after, dtype=float, count=samples)
    mean = float(np.mean(drops))
    se = float(np.std(drops, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return drops, None, mean, (mean - Z99 * se, mean + Z99 * se)


def estimate_drift(process: Process, potential, state, samples: int, seed: int):
    """One-step drift of the potential at a state.

    Exact from the kernel when present (zero-width CI), otherwise the
    sample mean with a 99% CI.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    _, _, est, ci = _one_step_drops(
        process, potential, state, potential.eval(state), samples, trial_rng(seed, 0)
    )
    return est, ci


def _sample_states(process, rng):
    """Visited-state sampling for huge state spaces: walk up to 20
    trajectories and collect up to 50 distinct non-target states."""
    seen = {}  # ordered as first visited
    for _ in range(20):
        state = process.sample_initial(rng)
        for _ in range(10_000):
            if process.is_target(state):
                break
            seen[state] = None
            if len(seen) >= 50:
                break
            state = process.step(state, rng)
        if len(seen) >= 50:
            break
    return list(seen)


# the parameters each condition requires
_CONDITIONS = {
    "additive_D": ("delta",),
    "multiplicative_D": ("delta",),
    "variable_D": ("h",),
    "variance_Var": ("delta",),
    "step_bound_B": ("c",),
    "concentration_C": ("beta", "delta"),
    "monotone_M": (),
    "greed_admitting": ("h",),
}


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
) -> ConditionReport:
    """Check a named drift-style condition per state.

    Exact-kernel processes evaluate expectations exactly (no CI); a
    state fails only when its estimate (or CI) conflicts with the
    threshold.  sense (">=" or "<=") says which side of the threshold
    the drift conditions ask for.  Without an explicit state_set,
    non-target states are sampled from trajectories and the overall
    verdict is capped at "indeterminate"; so is a check that examined
    no state.
    """
    if condition_id not in _CONDITIONS:
        raise ParameterError(f"unknown condition id {condition_id!r}")
    given = {"delta": delta, "c": c, "beta": beta, "h": h}
    missing = [name for name in _CONDITIONS[condition_id] if given[name] is None]
    if missing:
        raise ParameterError(f"{condition_id} requires {' and '.join(missing)}")
    if sense not in (">=", "<="):
        raise ParameterError(f"sense must be '>=' or '<=', got {sense!r}")

    if condition_id == "greed_admitting":
        # property of the drift function itself, checked on a value grid
        hi = max((potential.eval(s) for s, _ in (process.initial_support or ())), default=1.0)
        greed = _grid_flags(h, 0.0, max(hi, 1.0))["greed_admitting"]
        return ConditionReport(
            condition_id=condition_id,
            per_state=(),
            overall=greed.status,
            extras={"grid_max": float(max(hi, 1.0))},
        )

    rng = trial_rng(seed, 0)
    sampled_states = state_set is None
    if sampled_states:
        states = _sample_states(process, rng)
    else:
        states = [s for s in state_set if not process.is_target(s)]

    exact = process.exact_kernel is not None
    tol = 1e-9
    slack = tol if exact else 0.0  # an exact CI is zero-width: allow for rounding
    per_state = []
    for state in states:
        base = potential.eval(state)
        drops, probs, mean_drop, ci = _one_step_drops(
            process, potential, state, base, samples, rng
        )
        if condition_id in ("additive_D", "multiplicative_D", "variable_D"):
            if condition_id == "additive_D":
                threshold = delta
            elif condition_id == "multiplicative_D":
                threshold = delta * base
            else:
                threshold = h.eval(base)
            ok = ci[1] >= threshold - slack if sense == ">=" else ci[0] <= threshold + slack
            estimate = mean_drop
        elif condition_id == "variance_Var":
            if exact:
                var = float(np.dot(probs, drops * drops)) - mean_drop * mean_drop
                ci = (var, var)
            else:
                var = float(np.var(drops, ddof=1))
                var_se = var * math.sqrt(2.0 / max(len(drops) - 1, 1))
                ci = (var - Z99 * var_se, var + Z99 * var_se)
            ok = ci[1] >= delta - slack
            estimate = var
        elif condition_id in ("step_bound_B", "monotone_M"):
            if exact:
                drops = drops[probs > 0]  # drops that can occur
            if condition_id == "step_bound_B":
                estimate = float(np.max(np.abs(drops))) if len(drops) else 0.0
                ok = estimate <= c + tol
            else:
                estimate = float(np.min(drops)) if len(drops) else 0.0
                ok = estimate >= -tol
            ci = (estimate, estimate)
        else:  # concentration_C
            if base <= 1.0:
                continue
            limit = beta * delta / math.log(base)
            cut = beta * base
            if exact:
                freq = float(np.sum(probs[drops >= cut - tol]))
                ci = (freq, freq)
            else:
                freq = float(np.mean(drops >= cut))
                p_se = math.sqrt(max(freq * (1 - freq), 1e-12) / len(drops))
                ci = (freq - Z99 * p_se, freq + Z99 * p_se)
            ok = ci[0] <= limit + slack
            estimate = freq
        per_state.append((state, estimate, ci, ok))

    if any(not ok for *_, ok in per_state):
        overall = "fail"
    elif exact and not sampled_states and per_state:
        overall = "pass"
    else:
        overall = "indeterminate"
    return ConditionReport(
        condition_id=condition_id,
        per_state=tuple(per_state),
        overall=overall,
        extras={"exact": exact, "sampled_states": sampled_states},
    )


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple:
    """Wilson score interval for a binomial proportion.

    The ends are exactly 0 with no success and exactly 1 with no
    failure; computed, they can miss the observed frequency by rounding.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes must lie in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def tail_frequency(process: Process, time_threshold: int, trials: int, seed: int):
    """Empirical Pr[T > threshold] with a Wilson 99% CI."""
    threshold = _whole("tail_frequency", "time_threshold", time_threshold)
    if threshold < 0:
        raise ParameterError("threshold must be non-negative")
    times = sample_hitting_times(process, trials, seed, cap=max(threshold, 1))
    exceed = int(np.sum((times < 0) | (times > threshold)))
    frac = exceed / trials
    return frac, wilson_interval(exceed, trials)
