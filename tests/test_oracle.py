"""Exact hitting-time oracles against closed forms and each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab import errors
from driftlab.oracle import (
    birth_death_exact,
    harmonic,
    hitting_time_exact,
    leadingones_exact,
    leadingones_fixed_budget_exact,
    leadingones_level_chain,
    visit_probabilities_exact,
)
from driftlab.processes import (
    FiniteChain,
    _chain_process,
    make_ea_process,
    make_simple_chain,
    to_finite_chain,
)


def _solve(proc):
    return hitting_time_exact(to_finite_chain(proc))


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_winning_streak_closed_form(k):
    sol = _solve(make_simple_chain("winning_streak", k=k))
    assert sol.from_start == pytest.approx(2.0 ** (k + 1) - 2.0, rel=1e-9)


# n=1001 has 2001 non-target states
@pytest.mark.parametrize("n", [2, 5, 12, 30, 1001])
def test_fair_walk_two_barriers_is_n_squared(n):
    sol = _solve(make_simple_chain("gamblers_ruin", n=n))
    assert sol.from_start == pytest.approx(float(n * n), rel=1e-9)
    assert sol.residual <= 1e-8


@pytest.mark.parametrize("n", [1, 3, 10, 50])
def test_coupon_collector_harmonic_form(n):
    sol = _solve(make_simple_chain("coupon", n=n))
    assert sol.from_start == pytest.approx(n * harmonic(n), rel=1e-9)


def test_geometric_chain_reciprocal_mean():
    sol = _solve(make_simple_chain("geometric", p=0.3))
    assert sol.from_start == pytest.approx(1.0 / 0.3, rel=1e-9)


def test_per_state_times_are_zero_on_targets_and_monotone_for_coupon():
    chain = to_finite_chain(make_simple_chain("coupon", n=12))
    sol = hitting_time_exact(chain)
    assert sol.per_state[0] == 0.0
    times = [sol.per_state[i] for i in range(13)]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert sol.residual < 1e-9


def test_harmonic_log_bounds():
    for n in (1, 10, 1000, 10**6):
        h = harmonic(n)
        assert math.log(n) < h <= math.log(n) + 1.0


def test_harmonic_rejects_nonpositive():
    with pytest.raises(errors.ParameterError):
        harmonic(0)


def _random_birth_death_chain(rng, n):
    p_down = rng.uniform(0.05, 0.6, size=n)
    p_up = rng.uniform(0.0, 0.35, size=n)
    p_up[0] = 0.0  # state 0 is absorbing
    return p_down, p_up


@pytest.mark.parametrize("trial", range(20))
def test_birth_death_closed_form_matches_linear_solve(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 200))
    p_down, p_up = _random_birth_death_chain(rng, n)
    start = int(rng.integers(1, n + 1))

    states = list(range(n + 1))
    kernel = np.zeros((n + 1, n + 1))
    kernel[0, 0] = 1.0
    for s in range(1, n + 1):
        pd = p_down[s - 1]
        pu = p_up[s] if s < n else 0.0
        kernel[s, s - 1] = pd
        if s < n:
            kernel[s, s + 1] = pu
        kernel[s, s] = 1.0 - pd - pu
    start_vec = np.zeros(n + 1)
    start_vec[start] = 1.0
    chain = FiniteChain(
        states=tuple(states), kernel=kernel, start=start_vec, targets=frozenset({0})
    )
    solve = hitting_time_exact(chain).from_start
    closed = birth_death_exact(list(p_down), list(p_up), start)
    assert closed == pytest.approx(solve, rel=1e-9)


@st.composite
def _birth_death_chains(draw):
    """(p_down, p_up, start) of a birth-death chain on [0..n], n <= 11."""
    n = draw(st.integers(min_value=1, max_value=11))
    p_down = [draw(st.floats(min_value=0.2, max_value=1.0)) for _ in range(n)]
    p_up = [0.0] + [
        draw(st.floats(min_value=0.0, max_value=min(0.5, 1.0 - pd))) for pd in p_down[:-1]
    ]
    return p_down, p_up, draw(st.integers(min_value=0, max_value=n))


@settings(max_examples=100, deadline=None)
@given(_birth_death_chains())
def test_birth_death_oracle_equals_the_enumerated_chain_solve(chain):
    p_down, p_up, start = chain
    n = len(p_down)

    def kernel(s):
        if s == 0:
            return [(0, 1.0)]
        pd, pu = p_down[s - 1], p_up[s] if s < n else 0.0
        return [(s - 1, pd), (s + 1, pu), (s, 1.0 - pd - pu)]

    process = _chain_process(
        "birth-death", kernel, [(start, 1.0)], value=float, is_target=lambda s: s == 0
    )
    solve = hitting_time_exact(to_finite_chain(process)).from_start
    assert birth_death_exact(p_down, p_up, start) == pytest.approx(solve, rel=1e-9, abs=0)


def test_birth_death_validates_inputs():
    with pytest.raises(errors.ParameterError):
        birth_death_exact([0.5, 0.0], [0.0, 0.2], 2)
    with pytest.raises(errors.ParameterError):
        birth_death_exact([0.8, 0.5], [0.0, 0.3], 2)
    with pytest.raises(errors.ParameterError):
        birth_death_exact([0.5], [0.0], 2)


def test_birth_death_overflow_returns_inf():
    assert birth_death_exact([0.1] * 700, [0.0] + [0.8] * 699, 1) == math.inf


def test_birth_death_product_underflowing_to_zero_stays_finite():
    # the up/down product 4e-400 underflows to 0 before the log-space switch
    assert birth_death_exact([0.5] * 3, [0.0, 1e-200, 1e-200], 1) == 2.0


@pytest.mark.parametrize("n", [30, 100, 300])
def test_leadingones_tracks_quadratic_growth(n):
    exact = leadingones_exact(n, 1.0 / n)
    reference = n * n * (math.e - 1.0) / 2.0
    assert 0.9 <= exact / reference <= 1.1


def test_leadingones_rejects_bad_rate():
    with pytest.raises(errors.ParameterError):
        leadingones_exact(10, 0.0)
    with pytest.raises(errors.ParameterError):
        leadingones_exact(10, 1.0)
    with pytest.raises(errors.ParameterError):
        leadingones_exact(0, 0.1)


@pytest.mark.parametrize("n, p", [(4, 0.25), (10, 0.1), (30, 1.0 / 30), (100, 0.01)])
def test_leadingones_level_chain_matches_closed_form(n, p):
    got = hitting_time_exact(leadingones_level_chain(n, p)).from_start
    assert got == pytest.approx(leadingones_exact(n, p), rel=1e-9)


def test_leadingones_fixed_budget_starts_at_uniform_mean():
    for n in (1, 5, 20):
        assert leadingones_fixed_budget_exact(n, 1.0 / (n + 1), 0) == pytest.approx(
            1.0 - 2.0**-n, rel=1e-12
        )


def test_leadingones_fixed_budget_grows_to_n():
    n = 12
    values = [leadingones_fixed_budget_exact(n, 1.0 / n, t) for t in range(0, 3001, 100)]
    # up to rounding: the mass sums to 1 only within a few ulps
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(v <= n + 1e-12 for v in values)
    assert values[-1] > n - 0.01


def test_leadingones_fixed_budget_rejects_bad_inputs():
    for n, p, t in ((0, 0.1, 5), (10, 0.0, 5), (10, 1.0, 5), (10, 0.1, -1), (10, 0.1, 1.5)):
        with pytest.raises(errors.ParameterError):
            leadingones_fixed_budget_exact(n, p, t)


def test_absorption_failure_names_the_stranded_state():
    kernel = np.array([[1.0, 0.0], [0.0, 1.0]])
    chain = FiniteChain(
        states=(0, 1),
        kernel=kernel,
        start=np.array([0.0, 1.0]),
        targets=frozenset({0}),
    )
    with pytest.raises(errors.StructureError) as exc:
        hitting_time_exact(chain)
    assert exc.value.offender == 1


def test_coupon_visits_every_level():
    chain = to_finite_chain(make_simple_chain("coupon", n=8))
    visits = visit_probabilities_exact(chain, lambda s: 8 - s)
    for level, v in visits.items():
        assert v == pytest.approx(1.0, abs=1e-12)


def test_visit_probabilities_reject_decreasing_levels():
    chain = to_finite_chain(make_simple_chain("gamblers_ruin", n=4))
    with pytest.raises(errors.MonotonicityError) as exc:
        visit_probabilities_exact(chain, lambda s: s)
    assert exc.value.offender == (4, 3)


def test_visit_probabilities_name_the_first_decreasing_edge_in_row_order():
    # rows hold states 4, 3, 5, 2, 6, ...; row 0 never decreases, and
    # 3 -> 4 (row 1) comes before 5 -> 4, 2 -> 3, ...
    chain = to_finite_chain(make_simple_chain("gamblers_ruin", n=4))
    with pytest.raises(errors.MonotonicityError) as exc:
        visit_probabilities_exact(chain, lambda s: abs(s - 4))
    assert exc.value.offender == (3, 4)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_visit_probabilities_reject_a_state_trapped_below_a_level():
    # state 0 (level 1) is absorbing, so the system below level 2 is singular
    chain = FiniteChain(
        states=(0, 1, 2),
        kernel=np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]),
        start=np.array([0.0, 1.0, 0.0]),
        targets=frozenset({0, 2}),
    )
    with pytest.raises(errors.StructureError):
        visit_probabilities_exact(chain, {1: 0, 0: 1, 2: 2})


def test_rls_leadingones_visits_each_level_below_the_top_with_probability_half():
    n = 8
    chain = to_finite_chain(make_ea_process("RLS", "leadingones", n=n))
    leading_ones = lambda bits: next((i for i, b in enumerate(bits) if b != 1), n)
    visits = visit_probabilities_exact(chain, leading_ones)
    assert sorted(visits) == list(range(n + 1))
    for level in range(n):
        assert visits[level] == pytest.approx(0.5, abs=1e-12)
    assert visits[n] == pytest.approx(1.0, abs=1e-12)


def test_finite_chain_rejects_a_negative_kernel_entry():
    kernel = np.array([[1.0, 0.0, 0.0], [0.75, -0.25, 0.5], [0.0, 0.0, 1.0]])
    with pytest.raises(errors.StructureError) as exc:
        FiniteChain(
            states=(0, 1, 2),
            kernel=kernel,
            start=np.array([0.0, 1.0, 0.0]),
            targets=frozenset({0, 2}),
        )
    assert exc.value.offender == 1


def test_finite_chain_rejects_a_negative_start_probability():
    kernel = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(errors.StructureError) as exc:
        FiniteChain(
            states=(0, 1),
            kernel=kernel,
            start=np.array([1.5, -0.5]),
            targets=frozenset({0}),
        )
    assert exc.value.offender == 1


def test_all_target_chain_has_zero_time():
    kernel = np.array([[1.0]])
    chain = FiniteChain(
        states=(0,), kernel=kernel, start=np.array([1.0]), targets=frozenset({0})
    )
    sol = hitting_time_exact(chain)
    assert sol.from_start == 0.0
    assert sol.per_state == {0: 0.0}
