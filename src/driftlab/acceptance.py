"""End-to-end validation scenarios.

Each scenario pins one family of bound calculators against exact
oracles and seeded simulations of catalog processes and yields a
single ComparisonRow.  The full suite ("paper_acceptance") runs every
scenario; "quick" runs a fast oracle-only subset.
"""

import math
from dataclasses import replace

import numpy as np

from . import bounds, montecarlo, oracle, potentials, processes
from .bounds import (
    FIXED_BUDGET_VALUE,
    LOWER_ON_ET,
    UPPER_ON_ET,
    UPPER_TAIL_PROB,
    DriftFunction,
    HeadwindParams,
    LevelBasedParams,
    LevelProfile,
    UpDriftParams,
    WormaldSystem,
)
from .errors import ParameterError
from .montecarlo import Z99, simulate_hitting, simulate_trajectory, trial_rng
from .processes import make_ea_process, make_simple_chain, to_finite_chain
from .report import VIOLATED, ComparisonRow, comparison_row

_EXACT = 1e-9


def _close(a: float, b: float, tol: float = _EXACT) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _row(
    theorem_id: str, direction: str, bound: float, oracle_value=None, sim=None, subs=()
) -> ComparisonRow:
    """A comparison row whose preconditions are the sub-checks; a failed
    sub-check makes the row violated."""
    text = ";".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in subs)
    row = comparison_row(theorem_id, direction, bound, oracle_value, sim, text)
    if any(not ok for _, ok in subs):
        row = replace(row, verdict=VIOLATED)
    return row


# ---------------------------------------------------------------------------
# 1. Winning-streak chain: closed-form oracle 2^(k+1) - 2
# ---------------------------------------------------------------------------

def check_streak_oracle(seed: int = 0) -> ComparisonRow:
    subs = []
    last = None
    for k in range(1, 11):
        chain = to_finite_chain(make_simple_chain("winning_streak", k=k))
        got = oracle.hitting_time_exact(chain).from_start
        subs.append((f"k{k}", _close(got, 2.0 ** (k + 1) - 2.0)))
        if k == 10:
            # drift-1 route: the expected-time potential turns the chain
            # into an additive process, so E[g(X0)]/1 reproduces it
            g = potentials.expected_time_potential(chain)
            last = (bounds.additive_upper(g.eval(0), 1.0).bound, got)
    return _row("additive.upper", UPPER_ON_ET, last[0], oracle_value=last[1], subs=subs)


# ---------------------------------------------------------------------------
# 2. Fair two-barrier walk: exactly n^2 steps
# ---------------------------------------------------------------------------

def check_ruin_square(seed: int = 0) -> ComparisonRow:
    subs = []
    for n in (5, 10, 30):
        chain = to_finite_chain(make_simple_chain("gamblers_ruin", n=n))
        got = oracle.hitting_time_exact(chain).from_start
        subs.append((f"oracle_n{n}", _close(got, float(n * n))))
    n = 30
    proc = make_simple_chain("gamblers_ruin", n=n)
    square = potentials.walk_square_two_barrier(2 * n)
    e_g0 = square.eval(n)  # start value of the square potential
    upper = bounds.additive_upper(e_g0, 1.0).bound
    lower = bounds.additive_lower(e_g0, 1.0, c=2.0 * n - 1.0).bound
    subs.append(("square_upper", _close(upper, float(n * n))))
    subs.append(("square_lower", _close(lower, float(n * n))))
    interior = list(range(1, 2 * n))
    for sense, tag in ((">=", "drift_ge"), ("<=", "drift_le")):
        rep = montecarlo.verify_condition(
            proc, square, "additive_D", state_set=interior, delta=1.0, sense=sense
        )
        subs.append((tag, rep.overall == "pass"))
    stats = simulate_hitting(proc, trials=100_000, seed=seed + 200, cap=200_000)
    subs.append(("no_censoring", stats.censored == 0))
    return _row(
        "additive.upper", UPPER_ON_ET, upper,
        oracle_value=float(n * n), sim=(stats.mean, stats.se), subs=subs,
    )


# ---------------------------------------------------------------------------
# 3. Coupon collection: n H_n against every calculator that covers it
# ---------------------------------------------------------------------------

def check_coupon_bounds(seed: int = 0) -> ComparisonRow:
    subs = []
    final = None
    for n in (10, 20, 50):
        chain = to_finite_chain(make_simple_chain("coupon", n=n))
        exact = oracle.hitting_time_exact(chain).from_start
        target = n * oracle.harmonic(n)
        subs.append((f"oracle_n{n}", _close(exact, target)))
        mult = bounds.multiplicative_upper(float(n), 1.0 / n).bound
        subs.append((f"mult_n{n}", mult >= exact - _EXACT and _close(mult, n * (1.0 + math.log(n)))))
        profile = LevelProfile(
            m=n + 1,
            p=tuple((n - i) / n for i in range(n)),
            v=tuple(1.0 for _ in range(n)),
        )
        lo = bounds.flm_visit_lower(profile).bound
        hi = bounds.flm_visit_upper(profile).bound
        subs.append((f"visit_n{n}", _close(lo, exact) and _close(hi, exact)))
        low = bounds.multiplicative_lower_bounded_step(
            x0=float(n), delta=1.0 / n, c=1.0, x_min=2.0
        ).bound
        subs.append((f"lower_n{n}", low <= exact + _EXACT))
        if n == 50:
            final = (mult, exact)
    return _row("mult.upper", UPPER_ON_ET, final[0], oracle_value=final[1], subs=subs)


# ---------------------------------------------------------------------------
# 4. Multiplicative tail on coupon collection
# ---------------------------------------------------------------------------

def check_coupon_tails(seed: int = 0) -> ComparisonRow:
    n, trials = 50, 100_000
    proc = make_simple_chain("coupon", n=n)
    cap = 1000
    times = montecarlo.sample_hitting_times(proc, trials, seed + 400, cap)
    t_eff = np.where(times < 0, cap, times).astype(float)
    subs = []
    final = None
    for k in (1, 2, 3):
        rep = bounds.multiplicative_tail(s=float(n), delta=1.0 / n, k=float(k))
        thr = rep.extras["time_threshold"]
        frac = float(np.mean(t_eff > thr))
        se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / trials)
        subs.append((f"k{k}", frac <= rep.bound + 3.0 * se))
        if k == 3:
            final = (rep.bound, frac, se)
    return _row(
        "mult.tail", UPPER_TAIL_PROB, final[0],
        sim=(final[1], final[2]), subs=subs,
    )


# ---------------------------------------------------------------------------
# 5. LeadingOnes: closed-form expectation and exact visit probabilities
# ---------------------------------------------------------------------------

def check_leadingones_exactness(seed: int = 0) -> ComparisonRow:
    n, p = 10, 0.1
    exact = oracle.leadingones_exact(n, p)
    proc = make_ea_process("OnePlusOneEA", "leadingones", n=n, mutation_rate=p)
    stats = simulate_hitting(proc, trials=100_000, seed=seed + 500, cap=20_000)
    subs = [
        ("no_censoring", stats.censored == 0),
        ("mean_within_3se", abs(stats.mean - exact) <= 3.0 * stats.se),
    ]
    # the same number through the visit-probability profile: each
    # non-terminal level is occupied with probability exactly 1/2
    profile = LevelProfile(
        m=n + 1,
        p=tuple((1.0 - p) ** i * p for i in range(n)),
        v=tuple(0.5 for _ in range(n)),
    )
    subs.append(("visit_formula", _close(bounds.flm_visit_upper(profile).bound, exact)))
    small = make_ea_process("OnePlusOneEA", "leadingones", n=4, mutation_rate=0.25)
    visits = oracle.visit_probabilities_exact(to_finite_chain(small), processes._leading_ones)
    for lv in range(4):
        subs.append((f"visit_l{lv}", _close(visits[lv], 0.5)))
    subs.append(("visit_top", _close(visits[4], 1.0)))
    return _row(
        "flm.visit.upper", UPPER_ON_ET,
        bounds.flm_visit_upper(profile).bound,
        oracle_value=exact, sim=(stats.mean, stats.se), subs=subs,
    )


# ---------------------------------------------------------------------------
# 6. Triangle recolouring walk on planted 3-colorable graphs
# ---------------------------------------------------------------------------

def _pooled_walk_row(bound: float, procs, seed: int) -> ComparisonRow:
    """Pool 100 trials of each walk, the i-th seeded with seed + i, and
    check their mean against an additive upper bound."""
    pooled = np.concatenate([
        montecarlo.sample_hitting_times(proc, 100, seed + i, cap=100_000)
        for i, proc in enumerate(procs)
    ]).astype(float)
    subs = [("no_censoring", bool(np.all(pooled >= 0)))]
    mean = float(np.mean(pooled))
    se = float(np.std(pooled, ddof=1) / math.sqrt(len(pooled)))
    return _row("additive.upper", UPPER_ON_ET, bound, sim=(mean, se), subs=subs)


def check_recolour_walk(seed: int = 0) -> ComparisonRow:
    n = 30
    procs = (
        processes.make_graph_process(
            "recolour", processes.random_3colorable_graph(n, 0.5, seed=seed + 600 + i)
        )
        for i in range(20)
    )
    return _pooled_walk_row(3.0 * n * n / 8.0, procs, seed + 700)


# ---------------------------------------------------------------------------
# 7. Clause-flip walk on planted satisfiable 2-CNF formulas
# ---------------------------------------------------------------------------

def check_two_sat_walk(seed: int = 0) -> ComparisonRow:
    n, m = 20, 40
    procs = (
        processes.make_two_sat_process(processes.planted_2sat(n, m, seed=seed + 800 + i))
        for i in range(20)
    )
    return _pooled_walk_row(float(n * n), procs, seed + 900)


# ---------------------------------------------------------------------------
# 8. Plateau landscape: potential bound and coinciding double sums
# ---------------------------------------------------------------------------

def check_plateau_chain(seed: int = 0) -> ComparisonRow:
    n, k = 12, 2
    proc = make_ea_process("RLS", "plateau", n=n, k=k)
    chain = to_finite_chain(proc)
    sol = oracle.hitting_time_exact(chain)
    g = potentials.plateau_upper_potential(n, k)
    bound = g.eval(k) + float(n * (n - k))
    subs = [("potential_bound", sol.from_start <= bound + _EXACT)]
    # exact one-step probabilities feed the double-sum pair, which must
    # collapse onto the oracle from every start
    kernel = proc.exact_kernel
    p_down = []
    p_up = [0.0] * n
    for s in range(1, n + 1):
        row = dict(kernel(s))
        p_down.append(row.get(s - 1, 0.0))
        if s < n:
            p_up[s] = row.get(s + 1, 0.0)
    ok_up = ok_lo = True
    for x0 in range(1, n + 1):
        upper = bounds.finite_state_upper(p_down, p_up, x0).bound
        lower = bounds.finite_state_lower(p_down, p_up, x0).bound
        exact = sol.per_state[x0]
        ok_up = ok_up and _close(upper, exact)
        ok_lo = ok_lo and _close(lower, exact)
    subs.append(("double_sum_upper", ok_up))
    subs.append(("double_sum_lower", ok_lo))
    return _row(
        "fss.upper", UPPER_ON_ET, bound, oracle_value=sol.from_start, subs=subs
    )


# ---------------------------------------------------------------------------
# 9. Rumor spreading: level sums vs 2n(ln(n-1) + 1)
# ---------------------------------------------------------------------------

def check_rumor_levels(seed: int = 0) -> ComparisonRow:
    n = 50
    proc = make_simple_chain("rumor", n=n)
    exact = float(sum(n * (n - 1) / ((n - i) * i) for i in range(1, n)))
    profile = LevelProfile(
        m=n, p=tuple((n - i) * i / (n * (n - 1)) for i in range(1, n))
    )
    flm = bounds.flm_upper(profile).bound
    relaxed = 2.0 * n * (math.log(n - 1) + 1.0)
    chain_exact = oracle.hitting_time_exact(to_finite_chain(proc)).from_start
    subs = [
        ("level_sum", _close(flm, exact)),
        ("oracle_match", _close(chain_exact, exact)),
        ("relaxed_bound", flm <= relaxed + _EXACT),
    ]
    stats = simulate_hitting(proc, trials=20_000, seed=seed + 1000, cap=50_000)
    subs.append(("no_censoring", stats.censored == 0))
    subs.append(("mean_within_3se", abs(stats.mean - exact) <= 3.0 * stats.se))
    return _row(
        "flm.upper", UPPER_ON_ET, relaxed,
        oracle_value=exact, sim=(stats.mean, stats.se), subs=subs,
    )


# ---------------------------------------------------------------------------
# 10. Fixed budget: iterate bound vs simulated mean fitness
# ---------------------------------------------------------------------------

# The LeadingOnes floor applies the same theorem to the distance
# D = n - LO of the (1+1) EA with p = 1/n.  From distance d >= 1 the
# first zero flips and the leading ones survive with probability
# p (1-p)^(n-d), and the expected gain is then 1 + E[K] = 2 - 2^(1-d)
# (K counts the free riders among the d-1 uniform bits behind it), so
#   drift(d) / d = (1/n^2) * [(1-1/n)^(n-d) n / d] * (2 - 2^(1-d)).
# The bracket is non-increasing in d and equal at d = n-1 and d = n,
# while the last factor grows with d; at n = 100 the minimum is at
# d = n-1 (leadingones_drift_minorant checks every d against the level
# chain), which gives the linear minorant h(d) = c d / n^2 with
# c = 2 - 2^(2-n).  Iterated from E[D_0] = n - 1 + 2^-n, the floor on
# E[LO_t] is n minus the iterate, 33.641 at t = 2000.  No asymptotic
# floor such as 2t/n - 5 is used: its hidden constant is not known, and
# at this size that floor, 35, is above the exact E[LO_2000] = 34.4005.

def check_fixed_budget(seed: int = 0) -> ComparisonRow:
    n, t = 100, 50
    h = DriftFunction(
        eval=lambda x: x / (math.e * n), derivative=lambda x: 1.0 / (math.e * n)
    )
    rep = bounds.fixed_budget_variable(h, float(n) / 2.0, t)
    proc = make_ea_process("OnePlusOneEA", "onemax", n=n)
    traj = simulate_trajectory(proc, horizon=t, trials=100_000, seed=seed + 1100)
    mean_dist = float(traj.mean[t])
    se = (float(traj.ci_hi[t]) - mean_dist) / Z99
    fitness = n - mean_dist
    subs = [
        ("greed_admitting", all(f.status == "pass" for f in rep.preconditions
                                if f.name == "greed_admitting")),
        ("iterate_value", rep.bound <= 41.60),
        ("fitness_floor", fitness >= 58.40 - 3.0 * se),
    ]
    lo_t = 2000
    proc_lo = make_ea_process("OnePlusOneEA", "leadingones", n=n)
    traj_lo = simulate_trajectory(proc_lo, horizon=lo_t, trials=5000, seed=seed + 1200)
    lo_mean = n - float(traj_lo.mean[lo_t])
    lo_se = (float(traj_lo.ci_hi[lo_t]) - float(traj_lo.mean[lo_t])) / Z99
    c = 2.0 - 2.0 ** (2 - n)
    h_lo = DriftFunction(eval=lambda d: c * d / n**2)
    rep_lo = bounds.fixed_budget_variable(h_lo, n - 1.0 + 2.0**-n, lo_t)
    floor = n - rep_lo.bound
    exact = oracle.leadingones_fixed_budget_exact(n, 1.0 / n, lo_t)
    # exact drift of D at d = n - i from the level chain's kernel
    levels = np.arange(n + 1)
    drift = oracle.leadingones_level_chain(n, 1.0 / n).kernel @ levels - levels
    subs += [
        ("leadingones_floor", lo_mean >= floor - 3.0 * lo_se),
        ("leadingones_drift_minorant", all(
            h_lo.eval(float(n - i)) <= drift[i] + _EXACT * max(1.0, abs(drift[i]))
            for i in levels
        )),
        ("leadingones_budget_flags", all(f.status == "pass" for f in rep_lo.preconditions
                                         if f.name in ("greed_admitting", "h_convex"))),
        ("leadingones_floor_vs_exact", floor <= exact),
        ("leadingones_exact", abs(lo_mean - exact) <= 3.0 * lo_se),
    ]
    return _row(
        "budget.var", FIXED_BUDGET_VALUE, rep.bound,
        sim=(mean_dist, se), subs=subs,
    )


# ---------------------------------------------------------------------------
# 11. Headwind recurrence vs closed form, and against a real chain
# ---------------------------------------------------------------------------

def _random_headwind(rng: np.random.Generator) -> HeadwindParams:
    n = int(rng.integers(3, 20))
    kappa = int(rng.integers(0, min(4, n - 1)))
    neg = np.sort(rng.uniform(-1.0, -1e-3, size=kappa))
    pos = np.sort(rng.uniform(1e-2, 1.0, size=n - kappa))
    delta = [0.0] * (n + 1)
    for i in range(1, kappa + 1):
        delta[i] = float(neg[i - 1])
    for i in range(kappa + 1, n + 1):
        delta[i] = float(pos[i - kappa - 1])
    delta[0] = delta[1] - 0.1 if n >= 1 else -0.1
    p_minus = [0.0] + [float(v) for v in rng.uniform(0.05, 0.6, size=n)]
    p_plus = [0.0] + [float(v) for v in rng.uniform(0.0, 0.35, size=n)]
    return HeadwindParams(
        p_minus=tuple(p_minus), p_plus=tuple(p_plus),
        delta=tuple(delta), kappa=kappa,
    )


def check_headwind_chain(seed: int = 0) -> ComparisonRow:
    rng = trial_rng(seed + 1300, 0)
    ok_agree = True
    for _ in range(100):
        params = _random_headwind(rng)
        g0 = bounds.headwind_g(params)[0]
        closed = bounds.headwind_closed(params).bound
        ok_agree = ok_agree and _close(g0, closed)
    subs = [("recurrence_vs_closed", ok_agree)]

    # walk on [0..8] whose two states nearest the target drift away
    n = 8
    down = [0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.50, 0.60, 0.60]
    up = [0.0, 0.30, 0.25, 0.20, 0.20, 0.20, 0.10, 0.10, 0.0]

    def kernel(s):
        if s == 0:
            return [(0, 1.0)]
        row = [(s - 1, down[s])]
        if up[s] > 0.0:
            row.append((s + 1, up[s]))
        stay = 1.0 - down[s] - up[s]
        if stay > 0.0:
            row.append((s, stay))
        return row

    proc = processes._chain_process(
        "headwind_walk(n=8)", kernel, [(n, 1.0)],
        value=float, is_target=lambda s: s == 0,
    )
    sol = oracle.hitting_time_exact(to_finite_chain(proc))
    delta = [0.0] * (n + 1)
    for i in range(1, n + 1):
        delta[i] = down[i] - up[i]
    delta[0] = min(delta[1], 0.0)
    params = HeadwindParams(
        p_minus=tuple(down), p_plus=tuple(up), delta=tuple(delta), kappa=2
    )
    g = bounds.headwind_g(params)
    ok_chain = True
    for x0 in range(1, n + 1):
        ok_chain = ok_chain and sol.per_state[x0] <= g[0] - g[x0] + _EXACT
    subs.append(("chain_dominated", ok_chain))
    rep = bounds.headwind_upper(params, x0=n)
    return _row(
        "headwind", UPPER_ON_ET, rep.bound,
        oracle_value=sol.per_state[n], subs=subs,
    )


# ---------------------------------------------------------------------------
# 12. Escape probability of a downward-biased walk
# ---------------------------------------------------------------------------

def check_escape_probability(seed: int = 0) -> ComparisonRow:
    n, up_p, s = 40, 0.45, 3

    def kernel(x):
        if x >= n:
            return [(n, 1.0)]
        if x == 0:
            return [(1, up_p), (0, 1.0 - up_p)]
        return [(x + 1, up_p), (x - 1, 1.0 - up_p)]

    proc = processes._chain_process(
        f"biased_walk(n={n},up={up_p})", kernel, [(n - 2, 1.0)],
        value=lambda x: float(n - x), is_target=lambda x: x >= n,
    )
    rep = bounds.negative_drift_escape(n=float(n), eps=up_p - (1.0 - up_p), c=1.0, s=float(s))
    trials = 100_000
    frac_gt, _ci = montecarlo.tail_frequency(proc, s, trials, seed + 1400)
    frac_le = 1.0 - frac_gt
    se = math.sqrt(max(frac_le * (1.0 - frac_le), 1e-12) / trials)
    subs = [("within_bound", frac_le <= rep.bound + 3.0 * se)]
    return _row("neg.515", UPPER_TAIL_PROB, rep.bound, sim=(frac_le, se), subs=subs)


# ---------------------------------------------------------------------------
# 13. Fluid limit of coupon collection
# ---------------------------------------------------------------------------

def check_fluid_limit(seed: int = 0) -> ComparisonRow:
    m = 10_000
    system = WormaldSystem(
        a=1, m=float(m), f=lambda x, z: (-z[0],), y0=(float(m),),
        radius=2.0, lam=m ** -0.25,
    )
    traj = bounds.wormald_track(system, horizon=1.0)
    ode_err = float(np.max(np.abs(traj.zs[:, 0] - np.exp(-traj.xs))))
    subs = [("ode_error", ode_err <= 1e-6), ("no_exit", not traj.exited)]

    analytic = np.exp(-np.arange(m + 1) / m)
    good = 0
    trials = 100
    for trial in range(trials):
        rng = trial_rng(seed + 1500, trial)
        draws = rng.integers(0, m, size=m)
        # missing-coupon count after t draws = m minus distinct coupons
        _, first_idx = np.unique(draws, return_index=True)
        new = np.zeros(m + 1)
        new[first_idx + 1] = 1.0
        missing = m - np.cumsum(new)
        dev = float(np.max(np.abs(missing / m - analytic)))
        good += dev <= 0.05
    subs.append(("trials_within_band", good >= 95))
    frac_fail = (trials - good) / trials
    se = math.sqrt(max(frac_fail * (1.0 - frac_fail), 1e-12) / trials)
    return _row(
        "wormald", UPPER_TAIL_PROB, 0.05,
        sim=(frac_fail, se), subs=subs,
    )


# ---------------------------------------------------------------------------
# 14. Reduction identities between the drift calculators
# ---------------------------------------------------------------------------

def check_reduction_identities(seed: int = 0) -> ComparisonRow:
    subs = []
    ok = True
    for delta, x0 in ((0.1, 5.0), (0.5, 100.0), (1.0, 3.0)):
        var = bounds.variable_drift_upper(bounds.linear_drift(delta), 1.0, x0).bound
        mult = bounds.multiplicative_upper(x0, delta).bound
        ok = ok and abs(var - mult) <= 1e-12 * max(1.0, mult)
    subs.append(("linear_h_is_multiplicative", ok))
    ok = True
    for delta, x_min, x0 in ((0.25, 1.0, 7.0), (2.0, 0.5, 9.0)):
        var = bounds.variable_drift_upper(bounds.constant_drift(delta), x_min, x0).bound
        add = 1.0 / delta + (x0 - x_min) / delta
        ok = ok and abs(var - add) <= 1e-12 * max(1.0, add)
    subs.append(("constant_h_is_additive", ok))
    ok = True
    for c in (0.5, 3.0, 17.0):
        scaled = bounds.additive_upper(90.0 / c, 1.5 / c).bound
        plain = bounds.additive_upper(90.0, 1.5).bound
        ok = ok and abs(scaled - plain) <= 1e-12 * plain
    subs.append(("normalization_invariant", ok))
    bound = bounds.variable_drift_upper(bounds.linear_drift(0.5), 1.0, 100.0).bound
    return _row(
        "var.upper", UPPER_ON_ET, bound,
        oracle_value=bounds.multiplicative_upper(100.0, 0.5).bound, subs=subs,
    )


# ---------------------------------------------------------------------------
# 15. Up-drift simulation and the level-based calculator
# ---------------------------------------------------------------------------

def check_updrift_levels(seed: int = 0) -> ComparisonRow:
    n, k, delta, gamma0 = 100, 1000, 1.0, 0.2
    params = UpDriftParams(n=n, k=k, e0=1.0, gamma0=gamma0, delta=delta)
    rep = bounds.updrift_upper(params)
    proc = make_simple_chain("updrift", n=n, k=k, delta=delta)
    stats = simulate_hitting(proc, 10_000, seed + 1600)
    subs = [("sim_below_bound",
             stats.censored == 0 and stats.mean + 3.0 * stats.se <= rep.bound)]

    lb = LevelBasedParams(m=3, lam=20_000, delta=0.5, gamma0=0.5, z=(0.01, 0.05))
    lb_rep = bounds.level_based(lb)
    # re-derive the phase length from scratch
    d0 = min(math.ceil(100.0 / lb.delta), lb.gamma0 * lb.lam)
    middle = sum(
        max(0.0, math.log2(2.0 * lb.gamma0 * lb.lam / (1.0 + zj * lb.lam / d0)))
        for zj in lb.z
    )
    t0_ref = 7000.0 / lb.delta * (
        lb.m + middle / (1.0 - lb.gamma0) + sum(1.0 / zj for zj in lb.z) / lb.lam
    )
    subs.append(("t0_matches", _close(lb_rep.extras["t0"], t0_ref)))
    subs.append(("bound_is_8_lam_t0", _close(lb_rep.bound, 8.0 * lb.lam * t0_ref)))
    ps = [f for f in lb_rep.preconditions if f.name == "population_size_PS"]
    subs.append(("population_size", bool(ps) and ps[0].status == "pass"))
    prev = lb_rep.bound
    ok_mono = True
    for bump in (0.01, 0.03, 0.10):
        z2 = tuple(min(1.0, zj + bump) for zj in lb.z)
        b2 = bounds.level_based(
            LevelBasedParams(m=3, lam=20_000, delta=0.5, gamma0=0.5, z=z2)
        ).bound
        ok_mono = ok_mono and b2 <= prev + _EXACT
        prev = b2
    subs.append(("monotone_in_z", ok_mono))
    return _row("updrift", UPPER_ON_ET, rep.bound, sim=(stats.mean, stats.se), subs=subs)


CRITERIA = {
    "streak_oracle": check_streak_oracle,
    "ruin_square": check_ruin_square,
    "coupon_bounds": check_coupon_bounds,
    "coupon_tails": check_coupon_tails,
    "leadingones_exactness": check_leadingones_exactness,
    "recolour_walk": check_recolour_walk,
    "two_sat_walk": check_two_sat_walk,
    "plateau_chain": check_plateau_chain,
    "rumor_levels": check_rumor_levels,
    "fixed_budget": check_fixed_budget,
    "headwind_chain": check_headwind_chain,
    "escape_probability": check_escape_probability,
    "fluid_limit": check_fluid_limit,
    "reduction_identities": check_reduction_identities,
    "updrift_levels": check_updrift_levels,
}

QUICK = (
    "streak_oracle",
    "coupon_bounds",
    "plateau_chain",
    "headwind_chain",
    "reduction_identities",
)


def run_suite(name: str = "paper_acceptance", seed: int = 0) -> list:
    """Run the named suite and return one ComparisonRow per scenario."""
    seed = processes._natural("run_suite", "seed", seed)
    if name == "paper_acceptance":
        picks = tuple(CRITERIA)
    elif name == "quick":
        picks = QUICK
    else:
        raise ParameterError(f"unknown suite {name!r}")
    return [CRITERIA[c](seed=seed) for c in picks]
