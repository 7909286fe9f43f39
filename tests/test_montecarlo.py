"""Monte Carlo engine: determinism, censoring, accuracy and condition checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab import errors, montecarlo
from driftlab.bounds import DriftFunction, fixed_budget_variable, linear_drift
from driftlab.montecarlo import (
    _FEW_TRIALS,
    _FIRST_BLOCK,
    _chunk_trials,
    _trial_rngs,
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
    BitFlipEA,
    KernelDraw,
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


def test_condition_checks_on_the_ea_on_bit_strings_are_exact_up_to_ten_bits():
    # the bit-flip law's kernel gives the exact drift up to n = 10, so a
    # state list gets a verdict; from n = 11 the drift is sampled
    for n, exact in ((10, True), (11, False)):
        proc = make_ea_process("OnePlusOneEA", "leadingones", n=n, mutation_rate=0.2)
        g = Potential(eval=proc.value, description="n - LO")
        states = [(0,) * n, (1, 0) + (1,) * (n - 2)]
        rep = verify_condition(proc, g, "monotone_M", state_set=states, samples=200)
        assert rep.extras["exact"] is exact
        assert rep.overall == ("pass" if exact else "indeterminate")


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
    for spec, call, key, problem in (
        ("sample_trajectory", lambda: sample_trajectory(proc, -1, 0), "horizon",
         "must be non-negative, got -1"),
        ("sample_trajectory", lambda: sample_trajectory(proc, 5, 0, trial=-1), "trial",
         "must be non-negative, got -1"),
        ("estimate_drift", lambda: estimate_drift(proc, identity_potential(), 2, -1, 0),
         "samples", "must be at least 1, got -1"),
        # an exact kernel draws no samples, but a count below 1 is still wrong
        ("verify_condition", lambda: verify_condition(
            proc, identity_potential(), "additive_D", [2], samples=0, delta=0.1),
         "samples", "must be at least 1, got 0"),
        # the entries that hand their counts on name themselves
        ("simulate_hitting", lambda: simulate_hitting(proc, 0, 1), "trials",
         "must be at least 1, got 0"),
        ("simulate_hitting", lambda: simulate_hitting(proc, 5, 1, cap=0), "cap",
         "must be at least 1, got 0"),
        ("tail_frequency", lambda: tail_frequency(proc, 3, 0, 1), "trials",
         "must be at least 1, got 0"),
    ):
        with pytest.raises(errors.ParameterError, match=f"^{spec} parameter '{key}' {problem}$"):
            call()


# the loop and the lockstep walker
@pytest.mark.parametrize("trials", [_FEW_TRIALS, 25 * _FEW_TRIALS])
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
    assert np.array_equal(sample_trajectory(proc, 20.0, 1, trial=float(trials)),
                          sample_trajectory(proc, 20, 1, trial=trials))
    potential = identity_potential()
    assert estimate_drift(proc, potential, 2, 100.0, 1) == estimate_drift(proc, potential, 2, 100, 1)
    for call, key in (
        (lambda: sample_hitting_times(proc, trials, 1, cap=2.5), "cap"),
        (lambda: sample_hitting_times(proc, trials + 0.5, 1, cap=10), "trials"),
        (lambda: simulate_trajectory(proc, 20.5, trials, 1), "horizon"),
        (lambda: simulate_trajectory(proc, 20, trials + 0.5, 1), "trials"),
        (lambda: tail_frequency(proc, 2.5, trials, 1), "time_threshold"),
        (lambda: sample_trajectory(proc, 2.5, 1), "horizon"),
        (lambda: sample_trajectory(proc, 20, 1, trial=trials + 0.5), "trial"),
        (lambda: estimate_drift(proc, potential, 2, trials + 0.5, 1), "samples"),
        (lambda: verify_condition(proc, potential, "additive_D", [2], samples=trials + 0.5,
                                  delta=0.1), "samples"),
    ):
        with pytest.raises(errors.ParameterError, match=f"parameter '{key}' must be a whole"):
            call()


_WORDS = st.integers(min_value=1, max_value=8).flatmap(
    lambda words: st.integers(min_value=0, max_value=2 ** (32 * words) - 1)
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32]),
        st.integers(min_value=0, max_value=5).map(lambda k: 2**128 + k),
        _WORDS,
    ),
    count=st.integers(min_value=1, max_value=50),
    data=st.data(),
)
def test_batched_streams_equal_trial_rng(seed, count, data):
    first = data.draw(st.integers(min_value=0, max_value=2**32 - 1 - count), label="first")
    k = data.draw(st.integers(min_value=1, max_value=1000), label="k")
    for trial, rng in enumerate(_trial_rngs(seed, first, count), first):
        want = trial_rng(seed, trial)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random() == want.random()
        assert rng.integers(k) == want.integers(k)
        assert rng.binomial(k, 0.3) == want.binomial(k, 0.3)
        for got, ref in zip(rng.spawn(2) + rng.spawn(2), want.spawn(2) + want.spawn(2)):
            assert got.bit_generator.state == ref.bit_generator.state


def test_trials_from_two_to_the_32_take_trial_rng(monkeypatch):
    calls = []

    def counted(seed, trial):
        calls.append(trial)
        return trial_rng(seed, trial)

    monkeypatch.setattr(montecarlo, "trial_rng", counted)
    first = 2**32 - 2
    rngs = _trial_rngs(5, first, 4)
    assert calls == [2**32, 2**32 + 1]
    for trial, rng in enumerate(rngs, first):
        assert rng.bit_generator.state == trial_rng(5, trial).bit_generator.state


def test_simulations_build_streams_a_chunk_at_a_time(monkeypatch):
    def refuse(seed, trial):
        raise AssertionError(f"trial_rng({seed}, {trial}) called")

    monkeypatch.setattr(montecarlo, "trial_rng", refuse)
    # the lockstep walker, its hand-off to the chain's walk on compiled
    # rows, and a UniformPick walk on the loop
    for process in (_CATALOG["gamblers_ruin"](), _CATALOG["two_sat"]()):
        sample_hitting_times(process, trials=60, seed=17, cap=10_000)
        simulate_trajectory(process, horizon=25, trials=60, seed=17)


@pytest.mark.parametrize("seed, problem", [
    (-1, "must be non-negative, got -1"),
    (1.5, "must be a whole number, got 1.5"),
])
def test_every_simulation_entry_names_a_bad_seed(seed, problem):
    proc = make_simple_chain("coupon", n=5)
    for spec, call in (
        ("sample_hitting_times", lambda: sample_hitting_times(proc, 4, seed, cap=10)),
        ("simulate_hitting", lambda: simulate_hitting(proc, 100, seed, cap=10)),
        ("simulate_trajectory", lambda: simulate_trajectory(proc, 10, 4, seed)),
        ("sample_trajectory", lambda: sample_trajectory(proc, 10, seed)),
        ("tail_frequency", lambda: tail_frequency(proc, 5, 4, seed)),
        ("estimate_drift", lambda: estimate_drift(proc, identity_potential(), 2, 10, seed)),
        ("verify_condition", lambda: verify_condition(
            proc, identity_potential(), "additive_D", [2], seed=seed, delta=0.1)),
    ):
        with pytest.raises(errors.ParameterError, match=f"^{spec} parameter 'seed' {problem}$"):
            call()
    # a whole float is the integer seed
    assert np.array_equal(sample_hitting_times(proc, 100, 3.0, 50),
                          sample_hitting_times(proc, 100, 3, 50))
    assert np.array_equal(sample_trajectory(proc, 10, 3.0), sample_trajectory(proc, 10, 3))


_PICK_SIZES = (1, 2, 3, 7, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1)


# near 2**32 half of the draws of 2**31 + 1 and a quarter of 3 * 2**30's
# are rejected; a start draw of odd size leaves a half-word buffered
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       start=st.sampled_from([0, 1, 9, 31]),
       sizes=st.lists(st.sampled_from(_PICK_SIZES), min_size=1, max_size=300))
def test_raw_draws_give_the_generators_integers(seed, start, sizes):
    rng = np.random.default_rng(seed)
    if start:
        rng.integers(0, 2, size=start)
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    draws = montecarlo._RawDraws(rng)
    for k in sizes:
        assert draws.integers(k) == twin.integers(k), k


@pytest.mark.parametrize("k", [0, 2**32])
def test_raw_draws_refuse_a_size_outside_one_to_two_to_the_32(k):
    with pytest.raises(ValueError):
        montecarlo._RawDraws(np.random.default_rng(1)).integers(k)


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
    "EA-linear": lambda: make_ea_process("OnePlusOneEA", "linear", weights=(5, 4, 3, 2, 1)),
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
    "EA-leadingones-n1": lambda: make_ea_process(
        "OnePlusOneEA", "leadingones", n=1, mutation_rate=0.3
    ),
    "EA-leadingones-n3": lambda: make_ea_process(
        "OnePlusOneEA", "leadingones", n=3, mutation_rate=0.3
    ),
    "EA-leadingones-p0.9": lambda: make_ea_process(
        "OnePlusOneEA", "leadingones", n=4, mutation_rate=0.9
    ),
    # rows of five successors with a zero and a negative entry, whose sums
    # fall below an earlier sum and rise again (so the count of sums at or
    # below u is not _categorical's choice), and rows of three whose sums
    # turn NaN
    "running-max": lambda: _chain_process(
        "running-max",
        lambda s: ([(s - 1, 0.4), (s + 1, -0.2), (s, 0.0), (s + 2, 0.3), (s + 1, 0.5)] if s % 2
                   else [(s - 1, 0.5), (s + 2, float("nan")), (s + 1, 0.5)]),
        [(3, 0.5), (4, 0.5)], value=float, is_target=lambda s: s <= 0 or s >= 12,
    ),
    # rows of two, the first sum NaN at odd states: _categorical takes the
    # last successor there
    "nan-first": lambda: _chain_process(
        "nan-first",
        lambda s: [(s - 1, float("nan")), (s + 1, 0.5)] if s % 2 else [(s - 1, 0.6), (s + 1, 0.4)],
        [(4, 1.0)], value=float, is_target=lambda s: s <= 0 or s >= 8,
    ),
    # one successor a row: a trial started at s hits at step s
    "countdown": lambda: _chain_process(
        "countdown", lambda s: [(s - 1, 1.0)],
        [(3 * _FIRST_BLOCK + i, 0.25) for i in (1, 2, 3, 4)],
        value=float, is_target=lambda s: s == 0,
    ),
    # half the trials start on the target
    "starts-on-target": lambda: _chain_process(
        "starts-on-target", lambda s: [(s - 1, 0.5), (s + 1, 0.5)],
        [(0, 0.5), (2, 0.5)], value=float, is_target=lambda s: s in (0, 5),
    ),
}

# (catalog name, trials, cap, horizon) at the lockstep walker's seams: one
# trial past a chunk, a cap and a horizon that cut a block of draws short,
# trajectories whose trials absorb at many different times, a second chunk
# whose last few live trials finish off the walker, a trial censored at
# the cap after that, and the EA's rounds of improvements (_EA_SEAMS says
# which case reaches what), and a block of four segments in whose first
# one every live trial hits
_SEAMS = {
    "tail-in-second-chunk": ("winning_streak", _chunk_trials(1) + _FEW_TRIALS + 1, 10_000, 25),
    "censored-in-tail": ("gamblers_ruin", _FEW_TRIALS + 1, _FIRST_BLOCK + 5, 25),
    "chunk+3": ("coupon", _chunk_trials(1) + 3, 10_000, 25),
    "EA-chunk+3": ("EA-leadingones", _chunk_trials(8) + 3, 10_000, 25),
    "cut-block": ("gamblers_ruin", 60, _FIRST_BLOCK + 5, 3 * _FIRST_BLOCK + 5),
    "EA-cut-block": ("EA-leadingones", 60, _FIRST_BLOCK + 5, 3 * _FIRST_BLOCK + 5),
    "absorbing": ("coupon", 60, 10_000, 80),
    "EA-absorbing": ("EA-leadingones", 60, 10_000, 300),
    "EA-rise-on-block-end": ("EA-leadingones", 20, 10_000, 3 * _FIRST_BLOCK + 5),
    "EA-rises-in-one-block": ("EA-leadingones-n3", 10, 10_000, 25),
    "EA-hit-on-block-start": ("EA-leadingones-n3", 50, 10_000, 3 * _FIRST_BLOCK + 5),
    "EA-starts-at-optimum": ("EA-leadingones-n3", 8, _FIRST_BLOCK + 5, 25),
    "EA-n=1": ("EA-leadingones-n1", 60, 10_000, 25),
    "EA-p=0.9": ("EA-leadingones-p0.9", 60, 10_000, 3 * _FIRST_BLOCK + 5),
    "all-hit-in-first-segment": ("countdown", 60, 10_000, 5 * _FIRST_BLOCK),
    # a chain's last few live trials: a tail inside the first chunk, rows
    # first reached in the tail that widen the table (coupon's first row
    # has one successor, its others two) and outgrow its rows, or that
    # only need compiling; a cap inside a block of draws and one on a
    # block's end; trials that start on the target
    "tail-in-first-chunk": ("gamblers_ruin", 200, 10_000, 25),
    "tail-widens-table": ("coupon", 3, 10_000, 25),
    "tail-compiles-rows": ("EA-onemax", 3, 10_000, 25),
    "tail-cap-in-block": ("gamblers_ruin", 20, _FIRST_BLOCK + 5, 25),
    "tail-cap-on-block-end": ("gamblers_ruin", 20, 3 * _FIRST_BLOCK, 25),
    "tail-starts-on-target": ("starts-on-target", 20, 10_000, 25),
}

# what an EA seam case reaches, read from the reference loop's hitting
# times and rises (rises[i, t - 1]: trial i's LO rose at step t, where its
# n - LO curve falls); so few trials take blocks of _FIRST_BLOCK steps first
_EA_SEAMS = {
    "EA-rise-on-block-end": lambda times, rises: rises[:, _FIRST_BLOCK - 1].any(),
    "EA-rises-in-one-block": lambda times, rises: (rises[:, :_FIRST_BLOCK].sum(axis=1) > 1).any(),
    "EA-hit-on-block-start": lambda times, rises: (times == _FIRST_BLOCK + 1).any(),
    "EA-starts-at-optimum": lambda times, rises: (times == 0).any(),
}


@pytest.mark.parametrize(
    "name, trials, cap, horizon",
    [pytest.param(name, 60, cap, 25, id=f"{name}-{cap}")
     for cap in (10_000, 5) for name in sorted(_CATALOG)]
    + [pytest.param(*case, id=seam) for seam, case in _SEAMS.items()],
)
def test_simulation_matches_reference_loop_trial_by_trial(name, trials, cap, horizon):
    _assert_matches_reference(_CATALOG[name](), trials, seed=17, cap=cap, horizon=horizon)


@pytest.mark.parametrize("seam", sorted(_EA_SEAMS))
def test_leadingones_seam_cases_reach_their_seam(seam):
    name, trials, cap, horizon = _SEAMS[seam]
    times, curves = _reference_run(_CATALOG[name](), trials, 17, cap, horizon)
    assert _EA_SEAMS[seam](times, curves[:, 1:] < curves[:, :-1])


# what a tail seam case reaches, read from its hitting times, from each
# hand-off to _KernelWalk.finish as (live slots, t, table width, table
# rows held, rows compiled) and from the table after the run; a tail of
# at most _HAND_OFF trials starts at t = 0 and takes blocks of
# _FIRST_BLOCK, 2 _FIRST_BLOCK, ... draws
_TAIL_SEAMS = {
    "tail-in-first-chunk": lambda times, calls, table: calls[0][:2] > (0, 0),
    "tail-widens-table": lambda times, calls, table: (
        calls[0][2:4] == (1, 8) and table.width == 2 and len(table.succ) > 8),
    "tail-compiles-rows": lambda times, calls, table: sum(table.ready) > calls[0][4],
    "tail-cap-in-block": lambda times, calls, table: _censored_in_second_block(times, calls),
    "tail-cap-on-block-end": lambda times, calls, table: _censored_in_second_block(times, calls),
    "tail-starts-on-target": lambda times, calls, table: (
        (times == 0).any() and calls[0][0] == np.count_nonzero(times)),
}


def _censored_in_second_block(times, calls) -> bool:
    """Whether the tail started at t = 0, some trial hit within its
    second block and another was censored at the cap."""
    return calls[0][1] == 0 and times.max() > _FIRST_BLOCK and (times < 0).any()


@pytest.mark.parametrize("seam", sorted(_TAIL_SEAMS))
def test_tail_seam_cases_reach_their_seam(seam, monkeypatch):
    name, trials, cap, horizon = _SEAMS[seam]
    process, calls = _CATALOG[name](), []
    finish = montecarlo._KernelWalk.finish

    def spy(walk, rngs, t, cap):
        table = walk.table
        calls.append((len(rngs), t, table.width, len(table.succ), sum(table.ready)))
        return finish(walk, rngs, t, cap)

    monkeypatch.setattr(montecarlo._KernelWalk, "finish", spy)
    times = sample_hitting_times(process, trials, 17, cap)
    assert len(calls) == 1
    assert _TAIL_SEAMS[seam](times, calls, montecarlo._TABLES[process.step_law])


# caps and horizons reach past the first block of _FIRST_BLOCK steps
@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       lifted=st.booleans(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       cap=st.integers(min_value=1, max_value=24), horizon=st.integers(min_value=0, max_value=24),
       data=st.data())
def test_leadingones_ea_matches_reference_loop_trial_by_trial(n, p, lifted, seed, cap, horizon,
                                                              data):
    trials = data.draw(st.integers(min_value=1, max_value=_chunk_trials(n) + 3), label="trials")
    process = make_ea_process("OnePlusOneEA", "leadingones", n=n, mutation_rate=p)
    if lifted:
        process = lift(process, Potential(eval=lambda bits: bits.count(0) / 3.0,
                                          description="zeros/3"))
    _assert_matches_reference(process, trials, seed, cap, horizon)


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
        BitFlipEA: ["EA-leadingones", "lifted-EA-leadingones"],
    }
    loop = {
        "recolour": make_graph_process("recolour", graph),
        "two_sat": _CATALOG["two_sat"](),
        "RLS-leadingones": _CATALOG["RLS-leadingones"](),
        "sorting": _CATALOG["sorting"](),
        "EA-linear": _CATALOG["EA-linear"](),
    }
    # a chain's hitting times never take Process.step: the walker hands
    # its last few live trials, or all of a few, to the chain's walk on
    # compiled rows.  Its mean curve over a few trials takes the loop,
    # which records values on the way; the EA's curve never does
    for law, names in lockstep.items():
        for name in names:
            process = _CATALOG[name]()
            assert type(process.step_law) is law, name
            for trials in (1, _FEW_TRIALS, _FEW_TRIALS + 1, 100):
                hitting, curve = _reference_steps(process, trials)
                assert hitting == 0, (name, trials)
                assert (curve > 0) is (law is KernelDraw and trials <= _FEW_TRIALS), (name, trials)
    for name, process in loop.items():
        assert type(process.step_law) is (BitFlipEA if name == "EA-linear" else UniformPick), name
        assert min(_reference_steps(process, _FEW_TRIALS + 1)) > 0, name


def _reference_steps(process, trials):
    """Calls of Process.step while simulating hitting times, and while
    simulating a mean curve."""
    calls = []

    def step(state, rng):
        calls.append(1)
        return process.step(state, rng)

    counted = dataclasses.replace(process, step=step)
    sample_hitting_times(counted, trials=trials, seed=3, cap=50)
    hitting = len(calls)
    simulate_trajectory(counted, horizon=20, trials=trials, seed=3)
    return hitting, len(calls) - hitting


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


# caps and horizons past several segments of _FIRST_BLOCK steps, so that
# states are first reached in the middle of one
@settings(max_examples=50, deadline=None)
@given(process=_small_chains(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_chains_match_reference_loop_trial_by_trial(process, seed):
    _assert_matches_reference(process, trials=20, seed=seed, cap=5 * _FIRST_BLOCK + 3,
                              horizon=3 * _FIRST_BLOCK + 5)


def test_a_copy_with_other_targets_walks_the_table_of_its_original():
    # the copy shares its original's KernelDraw and so its table, whose
    # rows the original compiled: the copy's target 2 is such a row, which
    # steps on after a hit, and the original's target 10 is not compiled
    # yet, so the copy compiles it where its trials reach it
    process = _CATALOG["gamblers_ruin"]()
    _assert_matches_reference(process, trials=60, seed=17, cap=300, horizon=25)
    copy = dataclasses.replace(process, is_target=lambda s: s == 2)
    _assert_matches_reference(copy, trials=60, seed=17, cap=300, horizon=3 * _FIRST_BLOCK + 5)
    times = sample_hitting_times(copy, trials=60, seed=17, cap=300)
    assert (times > 0).any() and (times < 0).any()  # hits at 2, and trials held at 10


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
