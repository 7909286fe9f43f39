"""Bound calculators: pinned arithmetic, validation and cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlab import bounds, errors
from driftlab.bounds import (
    DriftFunction,
    HeadwindParams,
    LevelBasedParams,
    LevelProfile,
    UpDriftParams,
    WormaldSystem,
    additive_lower,
    additive_overshoot_upper,
    additive_tail_lower_bounded,
    additive_tail_lower_concentrated,
    additive_tail_upper_bounded,
    additive_tail_upper_concentrated,
    additive_upper,
    constant_drift,
    finite_state_lower,
    finite_state_upper,
    fixed_budget_additive,
    fixed_budget_variable,
    flm_upper,
    flm_visit_lower,
    flm_visit_upper,
    headwind_closed,
    headwind_g,
    headwind_upper,
    iterated_budget_threshold,
    level_based,
    level_based_t0,
    linear_drift,
    multiplicative_lower_bounded_step,
    multiplicative_lower_monotone,
    multiplicative_tail,
    multiplicative_upper,
    negative_drift_escape,
    updrift_upper,
    variable_drift_upper,
    wormald_track,
)
from driftlab.oracle import birth_death_exact, harmonic


# --- additive -----------------------------------------------------------

def test_additive_upper_formula_and_validation():
    assert additive_upper(90.0, 1.5).bound == pytest.approx(60.0)
    with pytest.raises(errors.ParameterError):
        additive_upper(10.0, 0.0)
    with pytest.raises(errors.ParameterError):
        additive_upper(-1.0, 1.0)


def test_additive_lower_profiles():
    r = additive_lower(90.0, 1.5, 3.0)
    assert r.bound == pytest.approx(60.0)
    names = [f.name for f in r.preconditions]
    assert "step_bound_B" in names
    r2 = additive_lower(90.0, 1.5, 3.0, profile="bounded_state")
    assert "state_bound_UB" in [f.name for f in r2.preconditions]
    with pytest.raises(errors.ParameterError):
        additive_lower(90.0, 1.5, 3.0, profile="nope")


def test_additive_is_scale_invariant():
    base = additive_upper(90.0, 1.5).bound
    for c in (0.5, 3.0, 17.0):
        assert additive_upper(90.0 / c, 1.5 / c).bound == pytest.approx(
            base, rel=1e-12
        )


def test_overshoot_upper():
    assert additive_overshoot_upper(10.0, -2.0, 2.0).bound == pytest.approx(6.0)
    with pytest.raises(errors.ParameterError):
        additive_overshoot_upper(10.0, 0.5, 2.0)


# --- multiplicative -----------------------------------------------------

def test_multiplicative_upper_formula():
    r = multiplicative_upper(20.0, 0.05)
    assert r.bound == pytest.approx((1.0 + math.log(20.0)) / 0.05, rel=1e-12)
    with pytest.raises(errors.ParameterError):
        multiplicative_upper(0.5, 0.1)
    with pytest.raises(errors.ParameterError):
        multiplicative_upper(20.0, 1.5)


@pytest.mark.parametrize("n", [10, 50, 200])
def test_multiplicative_upper_dominates_coupon_truth(n):
    assert multiplicative_upper(float(n), 1.0 / n).bound >= n * harmonic(n)


def test_multiplicative_tail_pair():
    r = multiplicative_tail(50.0, 0.02, 2.0)
    assert r.bound == pytest.approx(math.exp(-2.0))
    assert r.extras["time_threshold"] == pytest.approx((2.0 + math.log(50.0)) / 0.02)


def test_multiplicative_lower_monotone_variants():
    r = multiplicative_lower_monotone(100.0, 0.1, 0.25)
    main = math.log(100.0) / 0.1 * 0.75 / 1.25
    assert r.bound == pytest.approx(main)
    assert r.extras["weaker_variant"] == pytest.approx(math.log(100.0) / 0.1 * 0.5)
    assert r.bound >= r.extras["weaker_variant"]


def test_multiplicative_lower_bounded_step_validation():
    r = multiplicative_lower_bounded_step(50.0, 0.02, 1.0, 2.0)
    denom = 2 * 0.02 + 1.0 / (4.0 - 1.0)
    assert r.bound == pytest.approx((1.0 + math.log(50.0) - math.log(2.0)) / denom)
    with pytest.raises(errors.ParameterError):
        multiplicative_lower_bounded_step(50.0, 0.02, 2.0, 2.0)  # x_min < sqrt(2) c


# --- variable drift -----------------------------------------------------

def test_variable_drift_reduces_to_multiplicative():
    for e_x0, delta in ((20.0, 0.05), (7.0, 0.3), (1000.0, 0.001)):
        v = variable_drift_upper(linear_drift(delta), 1.0, e_x0).bound
        m = multiplicative_upper(e_x0, delta).bound
        assert v == pytest.approx(m, rel=1e-9)


def test_variable_drift_reduces_to_additive():
    v = variable_drift_upper(constant_drift(1.5), 1.0, 90.0).bound
    assert v == pytest.approx(1.0 / 1.5 + 89.0 / 1.5, rel=1e-12)


def test_variable_drift_flags_non_monotone_h():
    h = DriftFunction(eval=lambda x: 2.0 - x if x < 1.5 else x)
    r = variable_drift_upper(h, 0.5, 3.0)
    flag = {f.name: f.status for f in r.preconditions}
    assert flag["h_monotone"] == "fail"


# --- tails --------------------------------------------------------------

def test_additive_tail_pinned_values():
    r = additive_tail_lower_bounded(100.0, 1.0, 1.0, 50.0)
    assert r.bound == pytest.approx(math.exp(-25.0))
    r = additive_tail_upper_bounded(100.0, 1.0, 1.0, 400.0)
    assert r.bound == pytest.approx(math.exp(-50.0))
    with pytest.raises(errors.ParameterError):
        additive_tail_upper_bounded(100.0, 1.0, 1.0, 100.0)  # s < 2n/delta
    with pytest.raises(errors.ParameterError):
        additive_tail_lower_bounded(100.0, 1.0, 1.0, 51.0)  # s > n/(2 delta)


def test_additive_tail_concentrated_min_branch():
    r = additive_tail_upper_concentrated(100.0, 1.0, 1.0, 0.5, 400.0)
    inner = min(0.5 / 4.0, 0.5**3 / 256.0)
    assert r.bound == pytest.approx(math.exp(-400.0 / 4.0 * inner))
    assert r.extras["min_branch"] == "delta*eps^3/(256c)"
    r2 = additive_tail_lower_concentrated(100.0, 1.0, 1.0, 0.5, 50.0)
    inner2 = min(0.5 / 4.0, 100.0 * 0.5**3 / (256.0 * 50.0))
    assert r2.bound == pytest.approx(math.exp(-25.0 * inner2))


def test_probability_bounds_clamped_with_raw_kept():
    r = multiplicative_tail(50.0, 1.0, 1e-9)
    assert r.bound <= 1.0
    r2 = negative_drift_escape(40.0, -0.1, 1.0, 10**9)
    assert r2.bound == 1.0
    assert r2.raw > 1.0


def test_probability_bounds_keep_a_nan_input_as_nan():
    # a clamp to 0 would read as the strongest bound and could hold
    assert math.isnan(multiplicative_tail(2.0, 0.5, math.nan).bound)
    assert math.isnan(negative_drift_escape(10.0, -0.1, 1.0, math.nan).bound)


def test_negative_drift_pinned_example():
    r = negative_drift_escape(40.0, -0.1, 1.0, 3.0)
    assert r.bound == pytest.approx(3.0 * math.exp(-2.0))
    assert negative_drift_escape(40.0, -0.1, 1.0, 0.0).bound == 0.0
    with pytest.raises(errors.ParameterError):
        negative_drift_escape(40.0, -0.1, 50.0, 3.0)  # c >= n
    with pytest.raises(errors.ParameterError):
        negative_drift_escape(40.0, 0.1, 1.0, 3.0)  # drift not negative


# --- finite state spaces ------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_finite_state_sums_are_exact_on_birth_death(trial):
    rng = np.random.default_rng(2000 + trial)
    n = int(rng.integers(2, 40))
    p_down = list(rng.uniform(0.1, 0.5, size=n))
    p_up = list(rng.uniform(0.0, 0.3, size=n))
    p_up[0] = 0.0
    x0 = int(rng.integers(1, n + 1))
    exact = birth_death_exact(p_down, p_up, x0)
    assert finite_state_upper(p_down, p_up, x0).bound == pytest.approx(exact, rel=1e-9)
    assert finite_state_lower(p_down, p_up, x0).bound == pytest.approx(exact, rel=1e-9)


def test_finite_state_validation():
    with pytest.raises(errors.ParameterError):
        finite_state_upper([0.5, 0.0], [0.0, 0.1], 2)
    with pytest.raises(errors.ParameterError):
        finite_state_upper([0.5, 0.5], [0.0], 2)
    with pytest.raises(errors.ParameterError):
        finite_state_upper([0.5, 0.5], [0.0, 0.1], 3)


# --- headwind -----------------------------------------------------------

def _headwind_example():
    # drift is non-positive through state 2, positive above
    p_minus = (0.0, 0.10, 0.20, 0.30, 0.40, 0.50)
    p_plus = (0.0, 0.30, 0.25, 0.20, 0.10, 0.0)
    delta = (-0.3, -0.3, -0.05, 0.10, 0.30, 0.50)
    return HeadwindParams(p_minus=p_minus, p_plus=p_plus, delta=delta, kappa=2)


def test_headwind_recurrence_matches_closed_form():
    params = _headwind_example()
    g = headwind_g(params)
    assert g[0] == pytest.approx(headwind_closed(params).bound, rel=1e-12)
    assert headwind_upper(params, 0).bound == 0.0
    assert headwind_upper(params, params.n).bound == pytest.approx(g[0] - g[params.n])


def test_headwind_g_is_decreasing():
    g = headwind_g(_headwind_example())
    assert all(a >= b for a, b in zip(g, g[1:]))


def test_headwind_kappa_must_cover_nonpositive_drift():
    with pytest.raises(errors.ParameterError):
        HeadwindParams(
            p_minus=(0.0, 0.1, 0.2, 0.3),
            p_plus=(0.0, 0.3, 0.2, 0.0),
            delta=(-0.2, -0.1, -0.1, 0.1),
            kappa=1,
        )


def test_headwind_monotone_flag_detects_non_monotone_delta():
    params = HeadwindParams(
        p_minus=(0.0, 0.2, 0.3, 0.4),
        p_plus=(0.0, 0.1, 0.1, 0.0),
        delta=(-0.1, 0.3, 0.1, 0.2),
        kappa=0,
    )
    flags = {f.name: f.status for f in headwind_upper(params, 3).preconditions}
    assert flags["delta_monotone"] == "fail"


# --- up-drift and level-based -------------------------------------------

def test_updrift_regimes():
    small = updrift_upper(UpDriftParams(n=100, k=1000, e0=1.0, gamma0=0.2, delta=0.5))
    assert small.extras["regime"] == "delta<=1"
    big = updrift_upper(UpDriftParams(n=100, k=1000, e0=1.0, gamma0=0.2, delta=2.0))
    assert big.extras["regime"] == "delta>1"
    assert big.bound == pytest.approx(
        128.0 / (0.78 * 1.0) + 2.6 * math.log(100.0) / math.log(3.0) + 81.0
    )
    with pytest.raises(errors.ParameterError):
        UpDriftParams(n=100, k=100, e0=1.0, gamma0=0.2, delta=0.5)


def test_level_based_bound_and_population_check():
    params = LevelBasedParams(m=3, lam=20000, delta=0.5, gamma0=0.5, z=(0.01, 0.05))
    r = level_based(params)
    assert r.bound == pytest.approx(8.0 * 20000 * level_based_t0(params))
    flags = {f.name: f.status for f in r.preconditions}
    assert flags["population_size_PS"] == "pass"
    assert r.extras["minimal_lambda"] is not None

    small = LevelBasedParams(m=3, lam=100, delta=0.5, gamma0=0.5, z=(0.01, 0.05))
    r2 = level_based(small)
    assert math.isnan(r2.bound)
    assert {f.name: f.status for f in r2.preconditions}["population_size_PS"] == "fail"


def test_level_based_minimal_lambda_is_tight():
    params = LevelBasedParams(m=3, lam=20000, delta=0.5, gamma0=0.5, z=(0.01, 0.05))
    lam_min = level_based(params).extras["minimal_lambda"]

    def admissible(lam):
        t0 = level_based_t0(params, lam)
        return lam >= 256.0 / (params.gamma0 * params.delta) * math.log(8.0 * t0)

    assert admissible(lam_min)
    assert not admissible(lam_min - 1.0 / params.gamma0)


def test_level_based_validation():
    with pytest.raises(errors.ParameterError):
        LevelBasedParams(m=3, lam=101, delta=0.5, gamma0=0.5, z=(0.1, 0.1))
    with pytest.raises(errors.ParameterError):
        LevelBasedParams(m=3, lam=100, delta=0.5, gamma0=0.8, z=(0.1, 0.1))


# --- fitness levels -----------------------------------------------------

def test_flm_upper_equals_coupon_truth_with_exact_levels():
    n = 20
    profile = LevelProfile(m=n + 1, p=tuple((n - i) / n for i in range(n)))
    assert flm_upper(profile).bound == pytest.approx(n * harmonic(n), rel=1e-12)


def test_flm_visit_variants_need_v():
    profile = LevelProfile(m=3, p=(0.5, 0.25))
    with pytest.raises(errors.ParameterError):
        flm_visit_lower(profile)
    withv = LevelProfile(m=3, p=(0.5, 0.25), v=(1.0, 0.5))
    assert flm_visit_lower(withv).bound == pytest.approx(2.0 + 2.0)
    assert flm_visit_upper(withv).bound == flm_visit_lower(withv).bound


def test_level_profile_validation():
    with pytest.raises(errors.ParameterError):
        LevelProfile(m=3, p=(0.5,))
    with pytest.raises(errors.ParameterError):
        LevelProfile(m=3, p=(0.5, 0.0))
    with pytest.raises(errors.ParameterError):
        LevelProfile(m=3, p=(0.5, 0.5), v=(1.0, 1.5))


# --- fixed budget -------------------------------------------------------

def test_fixed_budget_additive_variants():
    assert fixed_budget_additive(100.0, 0.5, 40).bound == pytest.approx(80.0)
    assert fixed_budget_additive(100.0, 0.5, 40, pr_t_le_t=0.5).bound == pytest.approx(
        90.0
    )
    with pytest.raises(errors.ParameterError):
        fixed_budget_additive(100.0, 0.5, 40, pr_t_le_t=1.5)


def test_fixed_budget_variable_takes_a_whole_number_of_steps():
    h = linear_drift(0.1)
    with pytest.raises(errors.ParameterError, match=r"^fixed_budget_variable parameter 't' "
                                                    r"must be a whole number, got 2\.5$"):
        fixed_budget_variable(h, 100.0, 2.5)
    assert fixed_budget_variable(h, 100.0, 2.0).bound == fixed_budget_variable(h, 100.0, 2).bound


def test_fixed_budget_variable_iterates_geometric_decay():
    h = linear_drift(0.1)
    r = fixed_budget_variable(h, 100.0, 10)
    assert r.bound == pytest.approx(100.0 * 0.9**10, rel=1e-12)
    flags = {f.name: f.status for f in r.preconditions}
    assert flags["greed_admitting"] == "pass"
    assert flags["h_convex"] == "pass"


def test_fixed_budget_limited_adds_slope_correction():
    h = DriftFunction(eval=lambda x: 0.1 * x + 0.5, derivative=lambda x: 0.1)
    unlimited = fixed_budget_variable(h, 100.0, 5).bound
    limited = fixed_budget_variable(h, 100.0, 5, variant="limited").bound
    assert limited == pytest.approx(unlimited - 0.5 / 0.9, rel=1e-9)


def test_budget_threshold_constant_drift_counts_steps():
    r = iterated_budget_threshold(constant_drift(1.0), 5.0, 20.0)
    assert r.bound == 15.0
    # 15 steps of x - 1 from 20 reach 5, and 14 do not
    assert fixed_budget_variable(constant_drift(1.0), 20.0, 15).bound <= 5.0
    assert fixed_budget_variable(constant_drift(1.0), 20.0, 14).bound > 5.0


def test_budget_threshold_integer_domain_harmonic():
    n = 30
    h = DriftFunction(eval=lambda x: x / n if x >= 1 else 1.0 / n)
    r = iterated_budget_threshold(h, 1.0, float(n), domain="integer")
    assert r.bound == math.ceil(sum(n / i for i in range(1, n)))
    with pytest.raises(errors.ParameterError):
        iterated_budget_threshold(h, 1.0, float(n), domain="weird")
    with pytest.raises(errors.ParameterError):
        iterated_budget_threshold(h, 5.0, 1.0)


# --- fluid limit --------------------------------------------------------

def test_wormald_tracks_exponential_decay():
    sys = WormaldSystem(
        a=1, m=1000.0, f=lambda x, z: (-z[0],), y0=(1000.0,), radius=2.0, lam=0.01
    )
    traj = wormald_track(sys, horizon=1.0)
    assert not traj.exited
    err = np.max(np.abs(traj.zs[:, 0] - np.exp(-traj.xs)))
    assert err < 1e-6
    # predicted unscaled value at half the scale's worth of steps
    assert traj.predicted(sys, 500.0)[0] == pytest.approx(
        1000.0 * math.exp(-0.5), rel=1e-6
    )


def test_wormald_constant_system_stays_put():
    sys = WormaldSystem(
        a=2, m=100.0, f=lambda x, z: (0.0, 0.0), y0=(50.0, 10.0), radius=0.5, lam=0.01
    )
    traj = wormald_track(sys, horizon=0.3)
    assert not traj.exited
    assert np.allclose(traj.zs[-1], (0.5, 0.1))


def test_wormald_exits_small_domain():
    sys = WormaldSystem(
        a=1, m=100.0, f=lambda x, z: (1.0,), y0=(0.0,), radius=0.05, lam=0.001
    )
    traj = wormald_track(sys, horizon=1.0)
    assert traj.exited
    assert traj.exit_x == pytest.approx(0.05, abs=2e-3)


@pytest.mark.parametrize("a, y0", [(2, (50.0,)), (1, (50.0, 10.0))])
def test_wormald_system_needs_one_initial_value_per_coordinate(a, y0):
    with pytest.raises(errors.ParameterError, match=f"a = {a} coordinates but {len(y0)} initial"):
        WormaldSystem(a=a, m=100.0, f=lambda x, z: (0.0,) * a, y0=y0, radius=1.0, lam=0.1)


def test_wormald_accepts_initial_value_at_the_scale():
    WormaldSystem(a=1, m=100.0, f=lambda x, z: (0.0,), y0=(100.0,), radius=1.0, lam=0.1)
    with pytest.raises(errors.ParameterError):
        WormaldSystem(
            a=1, m=100.0, f=lambda x, z: (0.0,), y0=(100.5,), radius=1.0, lam=0.1
        )


# --- property checks ----------------------------------------------------

@given(
    e_x0=st.floats(min_value=1.0, max_value=1e6),
    delta=st.floats(min_value=1e-6, max_value=1.0),
)
def test_multiplicative_never_beats_additive_from_one(e_x0, delta):
    # with drift delta * x <= delta * E[X0] the multiplicative bound must
    # dominate the additive bound computed at the weakest drift delta*1
    m = multiplicative_upper(e_x0, delta).bound
    assert m <= e_x0 / delta + 1e-6 * m


@given(
    s=st.floats(min_value=1.0, max_value=1e6),
    delta=st.floats(min_value=1e-6, max_value=1.0),
    k=st.floats(min_value=1e-3, max_value=50.0),
)
def test_multiplicative_tail_monotone_in_k(s, delta, k):
    r1 = multiplicative_tail(s, delta, k)
    r2 = multiplicative_tail(s, delta, k + 1.0)
    assert r2.bound <= r1.bound
    assert r2.extras["time_threshold"] >= r1.extras["time_threshold"]
