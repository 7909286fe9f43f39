"""The benchmark's workloads: set-up, the jobs of one round, and the
check of every job's output.

A round is a fixed list of jobs derived from (workload seed, round
index), so the same seed gives the same inputs and every round of a
workload does the same kind and amount of work.  Jobs call driftlab
through module attributes (``montecarlo.sample_hitting_times(...)``)
at call time, so that the tracer's wrappers see them.

Every check runs outside the timed region, raises CheckFailed when an
output is wrong, and returns the units of work the job did:
trial-steps for the simulation workloads, states enumerated and solved
for ``exact``.

Why these workloads:

* ``hitting`` is a scaled copy of the tier-1 criteria that dominate
  its run time (ruin_square, coupon_tails, leadingones_exactness,
  escape_probability).  Short-trial chains are bound by setting up
  each trial's random stream, long-trial chains by stepping.  The
  recolour and 2-SAT walks have no exact kernel over a finite start
  distribution, so a faster chain walker should leave them unchanged.
* ``trajectory`` uses the same montecarlo layer with few trials that
  run a whole horizon and record every value: trial set-up nearly
  vanishes and recording counts.  It mirrors fixed_budget.
* ``exact`` runs no simulation: state enumeration, exact solves from
  tens of states to 5040, the double sums from every start, exact
  condition checks, the bound calculators through the ``drift bound``
  command and ``drift suite quick``.
"""

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from driftlab import bounds, cli, montecarlo, oracle, potentials, processes


class CheckFailed(Exception):
    """A job's output is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def derive_seed(*parts) -> int:
    """A 32-bit seed drawn from the workload seed and a job's position."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def split(rng, total: int, parts: int) -> list:
    """total cut at random into parts positive whole numbers."""
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]


# ---------------------------------------------------------------------------
# hitting
# ---------------------------------------------------------------------------

_PICKS = 8  # trials per job compared with the reference loop


def reference_time(process, seed: int, trial: int, cap: int) -> int:
    """Hitting time of one trial through the public Process interface."""
    rng = montecarlo.trial_rng(seed, trial)
    state = process.sample_initial(rng)
    for t in range(cap + 1):
        if process.is_target(state):
            return t
        if t == cap:
            break
        state = process.step(state, rng)
    return -1


def check_times(times, process, trials: int, seed: int, cap: int) -> int:
    """Shape, range and, for the first trials and a few drawn ones,
    equality with the reference loop; returns the trial-steps."""
    times = np.asarray(times)
    expect(times.shape == (trials,), f"expected {trials} times, got shape {times.shape}")
    expect(bool(np.all((times >= -1) & (times <= cap))), "a time lies outside [-1, cap]")
    drawn = np.random.default_rng(seed).choice(trials, size=min(trials, _PICKS // 2), replace=False)
    for i in sorted(set(range(min(trials, _PICKS // 2))) | {int(i) for i in drawn}):
        want = reference_time(process, seed, i, cap)
        expect(int(times[i]) == want, f"trial {i}: time {int(times[i])}, reference {want}")
    return int(np.where(times < 0, cap, times).sum())


def hit_times_job(name, process, trials, seed, cap) -> Job:
    return Job(
        f"sample_hitting_times:{name}",
        lambda: montecarlo.sample_hitting_times(process, trials, seed, cap),
        lambda times: check_times(times, process, trials, seed, cap),
    )


def hit_stats_job(name, process, trials, seed, cap) -> Job:
    def check(stats):
        times = montecarlo.sample_hitting_times(process, trials, seed, cap)
        good = times[times >= 0].astype(float)
        expect(stats.trials == trials and stats.cap == cap, "trials or cap not echoed")
        expect(stats.censored == int(np.sum(times < 0)), "censored count differs from the times")
        if good.size:
            expect(close(stats.mean, float(np.mean(good)), 1e-12), "mean differs from the times")
        clipped = np.where(times < 0, cap, times).astype(float)
        expect(close(stats.censored_mean_lb, float(np.mean(clipped)), 1e-12),
               "censored mean differs from the times")
        return check_times(times, process, trials, seed, cap)

    return Job(
        f"simulate_hitting:{name}",
        lambda: montecarlo.simulate_hitting(process, trials, seed, cap),
        check,
    )


def tail_job(name, process, trials, seed, threshold) -> Job:
    def check(result):
        frac, (lo, hi) = result
        times = montecarlo.sample_hitting_times(process, trials, seed, threshold)
        expect(frac == int(np.sum(times < 0)) / trials, "tail frequency differs from the times")
        expect(0.0 <= lo <= frac <= hi <= 1.0, "Wilson interval does not bracket the frequency")
        return check_times(times, process, trials, seed, threshold)

    return Job(
        f"tail_frequency:{name}",
        lambda: montecarlo.tail_frequency(process, threshold, trials, seed),
        check,
    )


def escape_walk(n: int = 40, up: float = 0.45):
    """The downward-biased walk of the escape_probability criterion.

    The catalog has no public constructor for a custom kernel, so this
    goes through the same helper the criterion uses."""

    def kernel(x):
        if x >= n:
            return [(n, 1.0)]
        if x == 0:
            return [(1, up), (0, 1.0 - up)]
        return [(x + 1, up), (x - 1, 1.0 - up)]

    return processes._chain_process(
        f"biased_walk(n={n},up={up})", kernel, [(n - 2, 1.0)],
        value=lambda x: float(n - x), is_target=lambda x: x >= n,
    )


# Recolour graphs and 2-SAT formulas per round, out of a pool per run.
# How long their walks take differs a lot from one instance to the next,
# and these jobs hold job_p50_s.  With the same eight in every round,
# p50 spread 0.27 (quartile distance over median) over five seeds on a
# steady machine; with each round taking the next eight of a pool of
# 64, it still spread 0.04 to 0.20 over three sets of five to ten seeds.
# So each round takes the next sixteen of 128, with three trials each.
_INSTANCES = 16
_POOL = 128


class Hitting:
    name = "hitting"
    work = "trial_steps"
    calibrated = True

    def setup(self, seed: int) -> dict:
        chain = processes.make_simple_chain
        procs = {
            "geometric": chain("geometric", p=0.5),
            "streak": chain("winning_streak", k=5),
            "coupon5": chain("coupon", n=5),
            "coupon50": chain("coupon", n=50),
            "ruin30": chain("gamblers_ruin", n=30),
            "rumor50": chain("rumor", n=50),
            "escape": escape_walk(),
            "ea_lo": processes.make_ea_process(
                "OnePlusOneEA", "leadingones", n=10, mutation_rate=0.1
            ),
        }
        for i in range(_POOL):
            graph = processes.random_3colorable_graph(30, 0.5, seed=derive_seed(seed, 1, i))
            procs[f"recolour{i}"] = processes.make_graph_process("recolour", graph)
            cnf = processes.planted_2sat(20, 40, seed=derive_seed(seed, 2, i))
            procs[f"two_sat{i}"] = processes.make_two_sat_process(cnf)
        for job in self.jobs(procs, seed, -1, scale=0.01):
            job.run()
        return procs

    def jobs(self, procs, seed: int, r: int, scale: float = 1.0) -> list:
        # (job, label, process key, trials per round, cap or tail threshold)
        chains = [
            (hit_stats_job, "geometric(p=0.5)", "geometric", 1000, 1000),
            (hit_times_job, "winning_streak(k=5)", "streak", 500, 10_000),
            (tail_job, "coupon(n=5)", "coupon5", 1000, 15),
            (hit_times_job, "coupon(n=50)", "coupon50", 150, 1000),
            (tail_job, "biased_walk(n=40)", "escape", 500, 200),
            (hit_stats_job, "rumor(n=50)", "rumor50", 150, 50_000),
            (hit_stats_job, "OnePlusOneEA-leadingones(n=10,p=0.1)", "ea_lo", 150, 20_000),
            (hit_stats_job, "gamblers_ruin(n=30)", "ruin30", 150, 200_000),
            (hit_times_job, "gamblers_ruin(n=30)", "ruin30", 150, 200_000),
        ]
        # each chain's trials are split at random between two jobs: the
        # round's work stays fixed while job sizes spread out, which keeps
        # the latency percentiles off the gaps between job kinds
        rng = np.random.default_rng(derive_seed(seed, 10, r + 1))
        sized = []
        for make, label, key, trials, limit in chains:
            sized += [(make, label, key, part, limit)
                      for part in split(rng, max(4, int(trials * scale)), 2)]
        for kind, label in (("recolour", "recolour(n=30)"), ("two_sat", "two_sat(n=20)")):
            sized += [(hit_times_job, label, f"{kind}{(r * _INSTANCES + i) % _POOL}",
                       max(2, int(3 * scale)), 100_000)
                      for i in range(_INSTANCES)]
        return [
            make(label, procs[key], trials, derive_seed(seed, 3, r + 1, j), limit)
            for j, (make, label, key, trials, limit) in enumerate(sized)
        ]


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def trajectory_job(name, process, horizon, trials, seed, start=None) -> Job:
    def check(stats):
        expect(stats.horizon == horizon and stats.trials == trials, "horizon or trials not echoed")
        mean = np.asarray(stats.mean)
        expect(mean.shape == (horizon + 1,), f"mean curve has shape {mean.shape}")
        if start is not None:
            expect(mean[0] == start, f"mean starts at {mean[0]}, expected {start}")
        ref = np.mean([montecarlo.sample_trajectory(process, horizon, seed, i)
                       for i in range(trials)], axis=0)
        err = np.abs(mean - ref)
        expect(bool(np.all(err <= 1e-9 * np.maximum(1.0, np.abs(ref)))),
               "mean differs from the mean of sample_trajectory curves")
        slack = 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        expect(bool(np.all(stats.ci_lo <= mean + slack) and np.all(mean <= stats.ci_hi + slack)),
               "confidence band does not bracket the mean")
        return trials * horizon

    return Job(
        f"simulate_trajectory:{name}",
        lambda: montecarlo.simulate_trajectory(process, horizon, trials, seed),
        check,
    )


class Trajectory:
    name = "trajectory"
    work = "trial_steps"
    calibrated = True

    def setup(self, seed: int) -> dict:
        procs = {
            "onemax": processes.make_ea_process("OnePlusOneEA", "onemax", n=100),
            "lo": processes.make_ea_process("OnePlusOneEA", "leadingones", n=100),
            "ruin": processes.make_simple_chain("gamblers_ruin", n=100),
        }
        # fills the per-process kernel caches the fast-path probe reads
        for job in self.jobs(procs, seed, -1, scale=0.01):
            job.run()
        return procs

    def jobs(self, procs, seed: int, r: int, scale: float = 1.0) -> list:
        # (label, process key, jobs per round, horizon, trials, start value).
        # Sizes are fixed and a ruin job is quicker than a OneMax job,
        # itself quicker than a LeadingOnes job, so job_p50_s falls in
        # the middle of the OneMax jobs (ranks 20-80%) and job_p90_s in
        # the middle of the LeadingOnes jobs (80-100%), not between kinds.
        mix = [
            ("gamblers_ruin(n=100)", "ruin", 2, 500, 25, 100.0),
            ("OnePlusOneEA-onemax(n=100)", "onemax", 6, 50, 100, None),
            ("OnePlusOneEA-leadingones(n=100)", "lo", 2, 2000, 3, None),
        ]
        jobs = []
        for label, key, count, horizon, trials, start in mix:
            for _ in range(count):
                jobs.append(trajectory_job(
                    label, procs[key], max(1, int(horizon * scale)), max(1, int(trials * scale)),
                    derive_seed(seed, 4, r + 1, len(jobs)), start,
                ))
        return jobs


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def check_solution(chain, sol, states=None, closed=None) -> int:
    """Residual, consistency and, when known, the closed form; returns
    the number of states enumerated and solved."""
    m = len(chain.states)
    if states is not None:
        expect(m == states, f"{m} states, expected {states}")
    expect(sol.residual <= 1e-8, f"solver residual {sol.residual}")
    t = np.array([sol.per_state[s] for s in chain.states])
    targets = sorted(chain.targets)
    expect(bool(np.all(t[targets] == 0.0)), "a target has non-zero time")
    live = np.ones(m, dtype=bool)
    live[targets] = False
    res = np.abs(t - 1.0 - chain.kernel @ t)[live]
    worst = float(np.max(res)) if res.size else 0.0
    scale = max(1.0, float(np.max(t)))
    expect(worst <= 1e-8 * scale, f"recomputed residual {worst} exceeds 1e-8 x {scale}")
    expect(close(sol.from_start, float(np.dot(chain.start, t))), "from_start is not the start average")
    if closed is not None:
        expect(close(sol.from_start, closed), f"from_start {sol.from_start!r}, closed form {closed!r}")
    return m


def chain_job(name, process, states=None, closed=None) -> Job:
    def run():
        chain = processes.to_finite_chain(process)
        return chain, oracle.hitting_time_exact(chain)

    return Job(
        f"chain+solve:{name}", run,
        lambda out: check_solution(out[0], out[1], states, closed),
    )


def leading_ones(bits) -> int:
    return next((i for i, b in enumerate(bits) if b != 1), len(bits))


def visit_job(n: int, process) -> Job:
    def run():
        chain = processes.to_finite_chain(process)
        return chain, oracle.visit_probabilities_exact(chain, leading_ones)

    def check(out):
        chain, visits = out
        expect(sorted(visits) == list(range(n + 1)), "levels missing")
        for level, prob in visits.items():
            want = 1.0 if level == n else 0.5
            expect(close(prob, want), f"level {level}: visit probability {prob!r}, expected {want}")
        return len(chain.states)

    return Job(f"visit_probabilities:RLS-leadingones(n={n})", run, check)


def harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def ea_leadingones(n: int, p: float) -> float:
    """Expected optimisation time of the (1+1) EA on LeadingOnes."""
    return 0.5 * math.fsum(1.0 / ((1.0 - p) ** i * p) for i in range(n))


def values_job(kind: str, run, wants) -> Job:
    def check(got):
        expect(len(got) == len(wants), f"{len(got)} values, expected {len(wants)}")
        for i, (g, w) in enumerate(zip(got, wants)):
            expect(close(g, w), f"value {i}: {g!r}, expected {w!r}")
        return 0

    return Job(kind, run, check)


def reflecting_walk(n: int):
    """Down/up probabilities of the fair walk on [0..n] that reflects
    at n (distance form of fair_walk_reflecting); from d the expected
    time to 0 is n^2 - (n-d)^2."""
    return [0.5] * (n - 1) + [1.0], [0.0] + [0.5] * (n - 1)


def _colon(values) -> str:
    return ":".join(repr(float(v)) for v in values)


def cli_bound_job(theorem_id: str, params: str, want: float) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["bound", theorem_id, "--params", params])
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()}")
        first = out.splitlines()[0].split()
        expect(first[0] == theorem_id, f"printed {first[0]!r}")
        expect(close(float(first[2]), want), f"bound {first[2]}, expected {want!r}")
        return 0

    return Job(f"drift bound:{theorem_id}", run, check)


def cli_suite_job(seed: int) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["suite", "quick", "--seed", str(seed)])
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()}")
        rows = list(csv.DictReader(io.StringIO(out)))
        expect(len(rows) == 5, f"{len(rows)} rows")
        expect(all(r["verdict"] == "holds" for r in rows), "a quick criterion does not hold")
        return 0

    return Job("drift suite quick", run, check)


def min_cover(graph) -> frozenset:
    for k in range(graph.n + 1):
        for cover in itertools.combinations(range(graph.n), k):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return frozenset(cover)


def rumor_time(n: int) -> float:
    return math.fsum(n * (n - 1) / ((n - i) * i) for i in range(1, n))


def chain_specs(seed: int) -> list:
    """(label, build, states or None, closed form or None) of every
    chain the exact workload enumerates and solves."""
    chain = processes.make_simple_chain
    specs = []
    for k in range(1, 13):
        specs.append((f"winning_streak(k={k})", lambda k=k: chain("winning_streak", k=k),
                      k + 1, 2.0 ** (k + 1) - 2.0))
    for n in (5, 10, 20, 50, 100, 200, 400):
        specs.append((f"coupon(n={n})", lambda n=n: chain("coupon", n=n), n + 1, n * harmonic(n)))
    for n in (5, 10, 30, 100, 300, 1000):
        specs.append((f"gamblers_ruin(n={n})", lambda n=n: chain("gamblers_ruin", n=n),
                      2 * n + 1, float(n * n)))
    # job_p90_s falls in the middle of a group of like dense solves, not
    # on a single job: with one job per size from 100 to 1000 in steps of
    # 50, p90 spread 0.29 (quartile distance over median) over six seeds
    for i in range(_P90_GROUP):
        specs.append((f"gamblers_ruin(n=800)#{i}", lambda: chain("gamblers_ruin", n=800),
                      1601, 640_000.0))
    for n in (10, 50, 200):
        specs.append((f"fair_walk_reflecting(n={n})",
                      lambda n=n: chain("fair_walk_reflecting", n=n), n + 1, float(n * n)))
        specs.append((f"rumor(n={n})", lambda n=n: chain("rumor", n=n), n, rumor_time(n)))
    for p in (0.5, 0.1):
        specs.append((f"geometric(p={p})", lambda p=p: chain("geometric", p=p), 2, 1.0 / p))
    for n in range(6, 13):
        specs.append((f"RLS-leadingones(n={n})",
                      lambda n=n: processes.make_ea_process("RLS", "leadingones", n=n),
                      2 ** n, n * n / 2.0))
    for n in (10, 30, 100):
        specs.append((f"OnePlusOneEA-onemax(n={n})",
                      lambda n=n: processes.make_ea_process("OnePlusOneEA", "onemax", n=n),
                      n + 1, None))
    for n in range(4, 8):
        specs.append((f"sorting(n={n})",
                      lambda n=n: processes.make_sorting_process(n, tuple(range(n, 0, -1))),
                      math.factorial(n), None))
    for i, n in enumerate((12, 11, 10)):
        specs.append((f"two_sat(n={n})#{i}", lambda n=n, i=i: processes.make_two_sat_process(
            processes.planted_2sat(n, 2 * n, seed=derive_seed(seed, 5, i))), 2 ** n, None))
    for i in range(4):
        specs.append((f"vertex_cover(n=9)#{i}",
                      lambda i=i: processes.make_graph_process("vertex_cover", covered_graph(seed, i)),
                      None, None))
    return specs


def covered_graph(seed: int, i: int):
    g = processes.random_graph(9, 0.3, seed=derive_seed(seed, 6, i))
    return processes.GraphInstance(n=g.n, edges=g.edges, cover=min_cover(g))


_P90_GROUP = 13
_DOUBLE_SUM_N = 100
_BOUND_DRAWS = 4


class Exact:
    name = "exact"
    work = "states"
    calibrated = False

    def setup(self, seed: int) -> dict:
        procs = {key: build() for key, build, _, _ in chain_specs(seed)}
        # fills the per-process kernel caches (OneMax) and pays the
        # one-off library set-up of the first dense solve and command
        for key in ("OnePlusOneEA-onemax(n=10)", "OnePlusOneEA-onemax(n=30)",
                    "OnePlusOneEA-onemax(n=100)", "gamblers_ruin(n=100)"):
            oracle.hitting_time_exact(processes.to_finite_chain(procs[key]))
        cli_bound_job("additive.upper", "e_x0=1,delta=1", 1.0).run()
        return procs

    def jobs(self, procs, seed: int, r: int) -> list:
        jobs = [
            chain_job(key, procs[key], states, closed)
            for key, _, states, closed in chain_specs(seed)
        ]
        for n in (8, 10):
            jobs.append(visit_job(n, procs[f"RLS-leadingones(n={n})"]))

        n = _DOUBLE_SUM_N
        down, up = reflecting_walk(n)
        walk = [float(n * n - (n - d) ** 2) for d in range(1, n + 1)]
        coupon_down = [s / n for s in range(1, n + 1)]
        starts = range(1, n + 1)
        jobs.append(values_job(
            "birth_death_exact:coupon",
            lambda: [oracle.birth_death_exact(coupon_down, [0.0] * n, d) for d in starts],
            [n * harmonic(d) for d in starts]))
        jobs.append(values_job(
            "birth_death_exact:walk",
            lambda: [oracle.birth_death_exact(down, up, d) for d in starts], walk))
        jobs.append(values_job(
            "finite_state_upper:walk",
            lambda: [bounds.finite_state_upper(down, up, d).bound for d in starts], walk))
        jobs.append(values_job(
            "finite_state_lower:walk",
            lambda: [bounds.finite_state_lower(down, up, d).bound for d in starts], walk))

        ruin = procs["gamblers_ruin(n=30)"]
        square = potentials.walk_square_two_barrier(60.0)
        coupon = procs["coupon(n=50)"]
        ident = potentials.identity_potential()
        for sense in (">=", "<="):
            jobs.append(condition_job("additive_D:gamblers_ruin(n=30)", ruin, square, range(1, 60),
                                      delta=1.0, sense=sense))
            jobs.append(condition_job("multiplicative_D:coupon(n=50)", coupon, ident, range(1, 51),
                                      delta=1.0 / 50, sense=sense))

        for j in range(_BOUND_DRAWS):
            jobs.extend(bound_jobs(np.random.default_rng(derive_seed(seed, 7, r + 1, j))))
        jobs.append(cli_suite_job(derive_seed(seed, 8, r + 1)))
        return jobs


def condition_job(name, process, potential, states, **kw) -> Job:
    states = list(states)

    def check(rep):
        expect(rep.overall == "pass", f"verdict {rep.overall}")
        expect(len(rep.per_state) == len(states), f"{len(rep.per_state)} states checked")
        return 0

    return Job(
        f"verify_condition:{name}",
        lambda: montecarlo.verify_condition(process, potential, name.split(":")[0],
                                            state_set=states, **kw),
        check,
    )


def bound_jobs(rng) -> list:
    """drift bound calls with parameters drawn from rng and their
    closed forms."""
    e_x0, delta = rng.uniform(1.0, 100.0), rng.uniform(0.1, 2.0)
    e_xt = -rng.uniform(0.0, 2.0)
    x0, rate = rng.uniform(2.0, 1000.0), rng.uniform(0.01, 1.0)
    k = rng.uniform(0.5, 5.0)
    x_min = rng.uniform(0.5, 1.5)
    n = 20
    down, up = reflecting_walk(n)
    d = int(rng.integers(1, n + 1))
    lo_n, lo_p = 10, 0.1
    ea = ea_leadingones(lo_n, lo_p)
    return [
        cli_bound_job("additive.upper", f"e_x0={e_x0!r},delta={delta!r}", e_x0 / delta),
        cli_bound_job("additive.lower", f"e_x0={e_x0!r},delta={delta!r},c=3.0", e_x0 / delta),
        cli_bound_job("additive.overshoot.upper", f"e_x0={e_x0!r},e_xt={e_xt!r},delta={delta!r}",
                      (e_x0 - e_xt) / delta),
        cli_bound_job("mult.upper", f"e_x0={x0!r},delta={rate!r}", (1.0 + math.log(x0)) / rate),
        cli_bound_job("mult.tail", f"s={x0!r},delta={rate!r},k={k!r}", math.exp(-k)),
        cli_bound_job("var.upper", f"h=linear:{rate!r},x_min=1.0,x0={x0!r}",
                      (1.0 + math.log(x0)) / rate),
        cli_bound_job("var.upper", f"h=const:{delta!r},x_min={x_min!r},x0={x0!r}",
                      1.0 / delta + (x0 - x_min) / delta),
        cli_bound_job("flm.upper", "p=" + _colon((n - i) / n for i in range(n)), n * harmonic(n)),
        cli_bound_job("flm.visit.upper",
                      "p=" + _colon((1 - lo_p) ** i * lo_p for i in range(lo_n))
                      + ",v=" + _colon([0.5] * lo_n), ea),
        cli_bound_job("fss.upper", f"p_leave={_colon(down)},p_back={_colon(up)},x0={d}",
                      float(n * n - (n - d) ** 2)),
        cli_bound_job("fss.lower", f"p_fwd={_colon(down)},p_back_lb={_colon(up)},x0={d}",
                      float(n * n - (n - d) ** 2)),
        values_job("leadingones_exact", lambda: [oracle.leadingones_exact(lo_n, lo_p)], [ea]),
    ]


WORKLOADS = {w.name: w for w in (Hitting(), Trajectory(), Exact())}
