"""Monte Carlo engine: determinism, censoring, accuracy and condition checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab import errors
from driftlab.bounds import DriftFunction, fixed_budget_variable, linear_drift
from driftlab.montecarlo import (
    _FEW_TRIALS,
    _FIRST_BLOCK,
    _chunk_trials,
    estimate_drift,
    sample_hitting_times,
    sample_trajectory,
    simulate_hitting,
    simulate_trajectory,
    tail_frequency,
    trial_rng,
    verify_condition,
    wilson_interval,
)
from driftlab.oracle import hitting_time_exact
from driftlab.potentials import (
    Potential,
    expected_time_potential,
    identity_potential,
    lift,
)
from driftlab.processes import (
    KernelDraw,
    LeadingOnesEA,
    UniformPick,
    _chain_process,
    make_ea_process,
    make_graph_process,
    make_simple_chain,
    make_sorting_process,
    make_two_sat_process,
    planted_2sat,
    random_3colorable_graph,
    to_finite_chain,
)


def test_same_seed_gives_identical_times():
    proc = make_simple_chain("coupon", n=10)
    a = sample_hitting_times(proc, trials=50, seed=7, cap=10000)
    b = sample_hitting_times(proc, trials=50, seed=7, cap=10000)
    assert np.array_equal(a, b)
    c = sample_hitting_times(proc, trials=50, seed=8, cap=10000)
    assert not np.array_equal(a, c)


def test_trials_are_order_independent():
    proc = make_simple_chain("coupon", n=10)
    few = sample_hitting_times(proc, trials=5, seed=3, cap=10000)
    many = sample_hitting_times(proc, trials=12, seed=3, cap=10000)
    assert np.array_equal(few, many[:5])


def test_censoring_marks_and_bounds():
    proc = make_simple_chain("coupon", n=10)
    times = sample_hitting_times(proc, trials=20, seed=1, cap=1)
    assert np.all(times == -1)
    stats = simulate_hitting(proc, trials=20, seed=1, cap=1)
    assert stats.censored == 20
    assert math.isnan(stats.mean)
    assert stats.censored_mean_lb == 1.0


@pytest.mark.parametrize(
    "proc",
    [
        make_simple_chain("geometric", p=0.3),
        make_simple_chain("coupon", n=10),
        make_simple_chain("rumor", n=8),
    ],
)
def test_empirical_mean_matches_oracle(proc):
    truth = hitting_time_exact(to_finite_chain(proc)).from_start
    stats = simulate_hitting(proc, trials=20000, seed=11, cap=1_000_000)
    assert stats.censored == 0
    assert abs(stats.mean - truth) <= 3.0 * stats.se, (stats.mean, truth)


def test_wilson_interval_brackets_the_point_estimate():
    lo, hi = wilson_interval(30, 100)
    assert 0.0 <= lo < 0.3 < hi <= 1.0
    for trials in range(1, 5000):
        # computed, these ends miss 0 and 1 by rounding at many counts
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0
        for successes in (0, 1, trials // 2, trials - 1, trials):
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    with pytest.raises(errors.ParameterError):
        wilson_interval(0, 0)
    # more successes than trials, or fewer than none
    for successes in (5, -1):
        with pytest.raises(errors.ParameterError, match="successes must lie in"):
            wilson_interval(successes, 3)


def test_tail_frequency_on_deterministic_chain():
    proc = make_simple_chain("geometric", p=1.0)  # always hits at t = 1
    frac, (lo, hi) = tail_frequency(proc, 1, trials=200, seed=0)
    assert frac == 0.0
    frac0, _ = tail_frequency(proc, 0, trials=200, seed=0)
    assert frac0 == 1.0


def test_estimate_drift_exact_kernel_zero_width_ci():
    proc = make_simple_chain("coupon", n=10)
    est, ci = estimate_drift(proc, identity_potential(), 4, samples=10, seed=0)
    assert est == pytest.approx(0.4, abs=1e-12)
    assert ci == (est, est)


def test_estimate_drift_sampled_ci_covers_truth():
    proc = dataclasses.replace(make_simple_chain("coupon", n=10), exact_kernel=None)
    est, (lo, hi) = estimate_drift(proc, identity_potential(), 4, samples=20000, seed=0)
    assert lo <= 0.4 <= hi
    assert hi - lo < 0.05


def test_verify_additive_condition_on_unit_drift_lift():
    base = make_simple_chain("winning_streak", k=4)
    chain = to_finite_chain(base)
    lifted = lift(base, expected_time_potential(chain))
    g = expected_time_potential(chain)
    interior = [s for i, s in enumerate(chain.states) if i not in chain.targets]
    rep = verify_condition(
        lifted, g, "additive_D", state_set=interior, delta=1.0, sense=">="
    )
    assert rep.overall == "pass"
    rep2 = verify_condition(
        lifted, g, "additive_D", state_set=interior, delta=1.0, sense="<="
    )
    assert rep2.overall == "pass"
    rep3 = verify_condition(
        lifted, g, "additive_D", state_set=interior, delta=1.1, sense=">="
    )
    assert rep3.overall == "fail"


def test_verify_step_bound_condition():
    proc = make_simple_chain("gamblers_ruin", n=3)
    states = [1, 2, 3, 4, 5]
    ok = verify_condition(
        proc, identity_potential(), "step_bound_B", state_set=states, c=1.0
    )
    assert ok.overall == "pass"
    bad = verify_condition(
        proc, identity_potential(), "step_bound_B", state_set=states, c=0.5
    )
    assert bad.overall == "fail"


def test_verify_variance_condition():
    proc = make_simple_chain("gamblers_ruin", n=3)
    rep = verify_condition(
        proc, identity_potential(), "variance_Var", state_set=[1, 2, 3, 4, 5], delta=1.0
    )
    assert rep.overall == "pass"


def test_verify_monotone_condition_fails_on_two_sided_walk():
    proc = make_simple_chain("gamblers_ruin", n=3)
    rep = verify_condition(
        proc, identity_potential(), "monotone_M", state_set=[1, 2, 3]
    )
    assert rep.overall == "fail"
    coupon = make_simple_chain("coupon", n=6)
    rep2 = verify_condition(
        coupon, identity_potential(), "monotone_M", state_set=[1, 2, 3, 4, 5, 6]
    )
    assert rep2.overall == "pass"


def test_sampled_states_cap_verdict_at_indeterminate():
    proc = make_simple_chain("coupon", n=6)
    rep = verify_condition(
        proc, identity_potential(), "additive_D", delta=1.0 / 6.0, sense=">="
    )
    assert rep.overall == "indeterminate"
    assert rep.extras["sampled_states"]


def test_unknown_condition_rejected():
    with pytest.raises(errors.ParameterError):
        verify_condition(
            make_simple_chain("coupon", n=4), identity_potential(), "no_such"
        )


def test_condition_checks_give_no_false_pass():
    coupon = make_simple_chain("coupon", n=6)
    ident = identity_potential()
    # a missing parameter is an error even when no state needs it
    with pytest.raises(errors.ParameterError, match="delta"):
        verify_condition(coupon, ident, "additive_D", state_set=[0])
    with pytest.raises(errors.ParameterError, match="sense"):
        verify_condition(coupon, ident, "additive_D", state_set=[1, 2], delta=1.0, sense="==")
    # a check that examined no state cannot pass
    empty = verify_condition(coupon, ident, "additive_D", state_set=[], delta=1.0)
    assert empty.overall == "indeterminate"
    assert empty.per_state == ()


def test_verify_variable_drift_condition():
    # coupon(6) drifts by exactly d/6 at d missing coupons
    coupon = make_simple_chain("coupon", n=6)
    states = [1, 2, 3, 4, 5, 6]
    for sense in (">=", "<="):
        rep = verify_condition(coupon, identity_potential(), "variable_D", state_set=states,
                               h=linear_drift(1 / 6), sense=sense)
        assert rep.overall == "pass"
    rep = verify_condition(coupon, identity_potential(), "variable_D", state_set=states,
                           h=linear_drift(0.2))
    assert rep.overall == "fail"
    assert [est for _, est, _, _ in rep.per_state] == pytest.approx([d / 6 for d in states])


def test_verify_concentration_condition():
    # coupon(6) drops by 1 with probability d/6; with beta = 0.1 every
    # such drop reaches beta * d, against the limit beta * delta / ln d
    coupon = make_simple_chain("coupon", n=6)
    states = [1, 2, 3, 4, 5, 6]
    ok = verify_condition(coupon, identity_potential(), "concentration_C", state_set=states,
                          beta=0.1, delta=20.0)
    assert ok.overall == "pass"
    assert [s for s, *_ in ok.per_state] == [2, 3, 4, 5, 6]  # d = 1 has ln d = 0
    assert [est for _, est, _, _ in ok.per_state] == pytest.approx([d / 6 for d in states[1:]])
    bad = verify_condition(coupon, identity_potential(), "concentration_C", state_set=states,
                           beta=0.1, delta=1.0)
    assert bad.overall == "fail"


@pytest.mark.parametrize("greedy", [True, False])
def test_greed_admitting_agrees_with_the_fixed_budget_flag(greedy):
    h = linear_drift(0.1) if greedy else DriftFunction(eval=lambda x: 2.0 - x if x < 1.5 else x)
    coupon = make_simple_chain("coupon", n=6)  # the grid runs to the start value 6
    rep = verify_condition(coupon, identity_potential(), "greed_admitting", h=h)
    flags = {f.name: f.status for f in fixed_budget_variable(h, 6.0, 3).preconditions}
    assert rep.overall == flags["greed_admitting"] == ("pass" if greedy else "fail")
    assert rep.extras["grid_max"] == 6.0


@pytest.mark.parametrize("state_set", [[1, 2, 3, 4, 5, 6], None], ids=["explicit", "sampled"])
def test_sampled_one_step_draws_fail_or_stay_indeterminate(state_set):
    # the drift d/6 lies in [1/6, 1]
    coupon = dataclasses.replace(make_simple_chain("coupon", n=6), exact_kernel=None)
    far_above = verify_condition(coupon, identity_potential(), "additive_D",
                                 state_set=state_set, samples=500, delta=5.0)
    assert far_above.overall == "fail"
    far_below = verify_condition(coupon, identity_potential(), "additive_D",
                                 state_set=state_set, samples=500, delta=0.01)
    assert far_below.overall == "indeterminate"
    assert not far_below.extras["exact"]
    assert all(ok and lo <= est <= hi for _, est, (lo, hi), ok in far_below.per_state)


def test_trajectory_holds_value_after_absorption():
    proc = make_simple_chain("geometric", p=1.0)
    vals = sample_trajectory(proc, horizon=5, seed=0)
    assert vals[0] == 1.0
    assert np.all(vals[1:] == 0.0)


def test_trajectory_stats_shape_and_monotone_mean_for_coupon():
    proc = make_simple_chain("coupon", n=10)
    stats = simulate_trajectory(proc, horizon=30, trials=2000, seed=2)
    assert stats.mean.shape == (31,)
    assert stats.mean[0] == pytest.approx(10.0)
    assert np.all(np.diff(stats.mean) <= 1e-12)
    assert np.all(stats.ci_lo <= stats.mean) and np.all(stats.mean <= stats.ci_hi)


def test_parameter_validation():
    proc = make_simple_chain("coupon", n=4)
    with pytest.raises(errors.ParameterError):
        sample_hitting_times(proc, trials=0, seed=0, cap=10)
    with pytest.raises(errors.ParameterError):
        sample_hitting_times(proc, trials=10, seed=0, cap=0)
    with pytest.raises(errors.ParameterError):
        simulate_trajectory(proc, horizon=-1, trials=10, seed=0)
    with pytest.raises(errors.ParameterError):
        estimate_drift(proc, identity_potential(), 2, samples=0, seed=0)


@pytest.mark.parametrize("trials", [4, 100])  # the loop and the lockstep walker
def test_whole_valued_float_counts_are_taken_on_every_path(trials):
    proc = make_simple_chain("coupon", n=5)
    times = sample_hitting_times(proc, trials, 1, cap=10**6)
    assert np.array_equal(sample_hitting_times(proc, trials, 1, cap=1e6), times)
    assert np.array_equal(sample_hitting_times(proc, float(trials), 1, cap=10**6), times)
    assert simulate_hitting(proc, float(trials), 1, cap=1e6) == simulate_hitting(
        proc, trials, 1, cap=10**6
    )
    curve = simulate_trajectory(proc, 20.0, float(trials), 1)
    assert np.array_equal(curve.mean, simulate_trajectory(proc, 20, trials, 1).mean)
    assert tail_frequency(proc, 10.0, trials, 1) == tail_frequency(proc, 10, trials, 1)
    for call, key in (
        (lambda: sample_hitting_times(proc, trials, 1, cap=2.5), "cap"),
        (lambda: sample_hitting_times(proc, trials + 0.5, 1, cap=10), "trials"),
        (lambda: simulate_trajectory(proc, 20.5, trials, 1), "horizon"),
        (lambda: simulate_trajectory(proc, 20, trials + 0.5, 1), "trials"),
        (lambda: tail_frequency(proc, 2.5, trials, 1), "time_threshold"),
    ):
        with pytest.raises(errors.ParameterError, match=f"parameter '{key}' must be a whole"):
            call()


def test_trial_rng_streams_are_distinct():
    a = trial_rng(0, 0).random(4)
    b = trial_rng(0, 1).random(4)
    c = trial_rng(0, 0).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


# --- every simulation matches the Process reference loop trial by trial ----

def _reference_run(process, trials, seed, cap, horizon):
    """Hitting times and value curves from a plain loop over the
    Process interface, one trial_rng stream per trial."""
    times = np.empty(trials, dtype=np.int64)
    curves = np.empty((trials, horizon + 1))
    for i in range(trials):
        rng = trial_rng(seed, i)
        state = process.sample_initial(rng)
        t = 0
        while not process.is_target(state):
            if t == cap:
                t = -1
                break
            state = process.step(state, rng)
            t += 1
        times[i] = t

        rng = trial_rng(seed, i)
        state = process.sample_initial(rng)
        curves[i, 0] = process.value(state)
        for t in range(1, horizon + 1):
            if not process.is_target(state):
                state = process.step(state, rng)
            curves[i, t] = process.value(state)
    return times, curves


def _assert_matches_reference(process, trials, seed, cap, horizon):
    times, curves = _reference_run(process, trials, seed, cap, horizon)
    assert np.array_equal(sample_hitting_times(process, trials, seed, cap), times)
    for i in range(trials):
        assert np.array_equal(sample_trajectory(process, horizon, seed, i), curves[i])
    stats = simulate_trajectory(process, horizon, trials, seed)
    np.testing.assert_allclose(stats.mean, curves.mean(axis=0), rtol=0, atol=1e-12)


_CATALOG = {
    "coupon": lambda: make_simple_chain("coupon", n=10),
    "geometric": lambda: make_simple_chain("geometric", p=0.3),
    "winning_streak": lambda: make_simple_chain("winning_streak", k=4),
    "gamblers_ruin": lambda: make_simple_chain("gamblers_ruin", n=5),
    "fair_walk_reflecting": lambda: make_simple_chain("fair_walk_reflecting", n=5),
    "rumor": lambda: make_simple_chain("rumor", n=10),
    "RLS-onemax": lambda: make_ea_process("RLS", "onemax", n=8),
    "EA-onemax": lambda: make_ea_process("OnePlusOneEA", "onemax", n=8),
    "RLS-plateau": lambda: make_ea_process("RLS", "plateau", n=8, k=2),
    "EA-plateau": lambda: make_ea_process("OnePlusOneEA", "plateau", n=8, k=2),
    "EA-leadingones": lambda: make_ea_process(
        "OnePlusOneEA", "leadingones", n=8, mutation_rate=0.1
    ),
    "RLS-leadingones": lambda: make_ea_process("RLS", "leadingones", n=6),
    "sorting": lambda: make_sorting_process(4, (4, 3, 2, 1)),
    "two_sat": lambda: make_two_sat_process(planted_2sat(6, 8, seed=4)),
    # rows summing to 0.6: _categorical takes the last entry for u >= 0.6
    "short-rows": lambda: _chain_process(
        "short-rows", lambda s: [(s - 1, 0.3), (s + 1, 0.3)], [(3, 1.0)],
        value=float, is_target=lambda s: s in (0, 6),
    ),
    "lifted-coupon": lambda: lift(
        make_simple_chain("coupon", n=10),
        Potential(eval=lambda d: d / 3.0 + 0.1, description="third"),
    ),
    "lifted-EA-leadingones": lambda: lift(
        make_ea_process("OnePlusOneEA", "leadingones", n=8, mutation_rate=0.1),
        Potential(eval=lambda bits: bits.count(0) / 3.0, description="zeros/3"),
    ),
}

# (catalog name, trials, cap, horizon) at the lockstep walker's seams: one
# trial past a chunk, a cap and a horizon that cut a block of draws short,
# and trajectories whose trials absorb at many different times
_SEAMS = {
    "chunk+3": ("coupon", _chunk_trials(1) + 3, 10_000, 25),
    "EA-chunk+3": ("EA-leadingones", _chunk_trials(8) + 3, 10_000, 25),
    "cut-block": ("gamblers_ruin", 60, _FIRST_BLOCK + 5, 3 * _FIRST_BLOCK + 5),
    "EA-cut-block": ("EA-leadingones", 60, _FIRST_BLOCK + 5, 3 * _FIRST_BLOCK + 5),
    "absorbing": ("coupon", 60, 10_000, 80),
    "EA-absorbing": ("EA-leadingones", 60, 10_000, 300),
}


@pytest.mark.parametrize(
    "name, trials, cap, horizon",
    [pytest.param(name, 60, cap, 25, id=f"{name}-{cap}")
     for cap in (10_000, 5) for name in sorted(_CATALOG)]
    + [pytest.param(*case, id=seam) for seam, case in _SEAMS.items()],
)
def test_simulation_matches_reference_loop_trial_by_trial(name, trials, cap, horizon):
    _assert_matches_reference(_CATALOG[name](), trials, seed=17, cap=cap, horizon=horizon)


@pytest.mark.parametrize("name, trials", [("lifted-coupon", _chunk_trials(1) + 3),
                                          ("lifted-EA-leadingones", _chunk_trials(8) + 3)])
def test_trajectory_adds_trials_in_trial_order(name, trials):
    # without a step law, simulate_trajectory adds the sample_trajectory
    # curves one trial after the other; the lockstep walker must give the
    # same floats (these values are not exact binary fractions, so another
    # order of addition rounds differently)
    process, horizon, seed = _CATALOG[name](), 40, 23
    loop = dataclasses.replace(process, step_law=None)
    got = simulate_trajectory(process, horizon, trials, seed)
    want = simulate_trajectory(loop, horizon, trials, seed)
    for field in ("mean", "ci_lo", "ci_hi"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_lockstep_walker_takes_the_processes_its_step_law_describes():
    graph = random_3colorable_graph(9, 0.5, seed=1)
    lockstep = {
        KernelDraw: ["coupon", "gamblers_ruin", "rumor", "EA-onemax", "RLS-plateau",
                     "lifted-coupon"],
        LeadingOnesEA: ["EA-leadingones", "lifted-EA-leadingones"],
    }
    loop = {
        "recolour": make_graph_process("recolour", graph),
        "two_sat": _CATALOG["two_sat"](),
        "RLS-leadingones": _CATALOG["RLS-leadingones"](),
        "sorting": _CATALOG["sorting"](),
    }
    for law, names in lockstep.items():
        for name in names:
            process = _CATALOG[name]()
            assert type(process.step_law) is law, name
            assert _reference_steps(process, _FEW_TRIALS + 1) == 0, name
    for name, process in loop.items():
        assert type(process.step_law) is UniformPick, name
        assert _reference_steps(process, _FEW_TRIALS + 1) > 0, name
    # a chain's own step is cheaper than a lockstep step of a few trials;
    # the EA's step on a bit string is not
    assert _reference_steps(_CATALOG["coupon"](), _FEW_TRIALS) > 0
    assert _reference_steps(_CATALOG["EA-leadingones"](), 1) == 0


def _reference_steps(process, trials):
    """Calls of Process.step while simulating hitting times and a mean curve."""
    calls = []

    def step(state, rng):
        calls.append(1)
        return process.step(state, rng)

    counted = dataclasses.replace(process, step=step)
    sample_hitting_times(counted, trials=trials, seed=3, cap=50)
    simulate_trajectory(counted, horizon=20, trials=trials, seed=3)
    return len(calls)


@st.composite
def _small_chains(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    weights = st.lists(st.integers(min_value=0, max_value=4), min_size=m, max_size=m)
    rows = []
    for _ in range(m):
        w = draw(weights.filter(any))
        rows.append([(j, wj / sum(w)) for j, wj in enumerate(w) if wj])
    start = draw(weights.filter(any))
    targets = draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
    return _chain_process(
        "random-chain",
        lambda s: rows[s],
        [(j, wj / sum(start)) for j, wj in enumerate(start) if wj],
        value=float,
        is_target=lambda s: s in targets,
    )


@settings(max_examples=50, deadline=None)
@given(process=_small_chains(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_chains_match_reference_loop_trial_by_trial(process, seed):
    _assert_matches_reference(process, trials=20, seed=seed, cap=40, horizon=10)


@settings(max_examples=50, deadline=None)
@given(process=_small_chains(),
       values=st.lists(st.floats(min_value=-10, max_value=10), min_size=6, max_size=6))
def test_estimate_drift_equals_the_condition_checks_estimate(process, values):
    g = Potential(eval=lambda s: values[s], description="random")
    states = to_finite_chain(process).states
    rep = verify_condition(process, g, "additive_D", state_set=states, delta=0.0)
    checked = [s for s in states if not process.is_target(s)]
    assert [s for s, *_ in rep.per_state] == checked
    for state, est, _, _ in rep.per_state:
        assert estimate_drift(process, g, state, samples=1, seed=0)[0] == est


def test_lifted_leadingones_ea_simulates_through_its_own_value():
    # lift() appends "|zeros" to the name; simulation must neither parse
    # the name nor replace the lifted value by n - LO
    plain = make_ea_process("OnePlusOneEA", "leadingones", n=10, mutation_rate=0.1)
    zeros = Potential(eval=lambda bits: float(bits.count(0)), description="zeros")
    lifted = lift(plain, zeros)
    assert np.array_equal(
        sample_hitting_times(lifted, trials=40, seed=5, cap=100_000),
        sample_hitting_times(plain, trials=40, seed=5, cap=100_000),
    )

    horizon, trials = 40, 30
    stats = simulate_trajectory(lifted, horizon=horizon, trials=trials, seed=5)
    curves = [sample_trajectory(lifted, horizon, 5, i) for i in range(trials)]
    np.testing.assert_allclose(stats.mean, np.mean(curves, axis=0), rtol=0, atol=1e-12)
    unlifted = simulate_trajectory(plain, horizon=horizon, trials=trials, seed=5)
    # zeros never exceed n - LO, and fall short of it at the uniform start
    assert np.all(stats.mean <= unlifted.mean)
    assert stats.mean[0] < unlifted.mean[0]
