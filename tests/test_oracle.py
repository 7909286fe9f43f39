"""Exact hitting-time oracles against closed forms and each other."""

import math

import numpy as np
import pytest
import scipy.sparse
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


def test_visit_probabilities_with_a_target_below_a_level():
    # state 0 (level 1) is absorbing, so it never enters level 2: its h is 0
    chain = FiniteChain(
        states=(0, 1, 2),
        kernel=np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]),
        start=np.array([0.0, 1.0, 0.0]),
        targets=frozenset({0, 2}),
    )
    visits = visit_probabilities_exact(chain, {1: 0, 0: 1, 2: 2})
    assert visits == {0: 1.0, 1: 0.5, 2: 0.5}


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
    # and a NaN or infinite one, which no comparison with 0 catches
    for row in ([0.75, -0.25, 0.5], [0.5, math.nan, 0.5], [math.inf, -math.inf, 0.0]):
        kernel = np.array([[1.0, 0.0, 0.0], row, [0.0, 0.0, 1.0]])
        with pytest.raises(errors.StructureError, match="kernel entry at state 1") as exc:
            FiniteChain(
                states=(0, 1, 2),
                kernel=kernel,
                start=np.array([0.0, 1.0, 0.0]),
                targets=frozenset({0, 2}),
            )
        assert exc.value.offender == 1


def test_finite_chain_names_the_state_whose_row_does_not_sum_to_one():
    kernel = np.array([[1.0, 0.0], [0.75, 0.75]])
    with pytest.raises(errors.StructureError) as exc:
        FiniteChain(
            states=("a", "b"), kernel=kernel, start=np.array([0.0, 1.0]), targets=frozenset({0})
        )
    assert str(exc.value) == "kernel row at 'b' sums to 1.5"
    assert exc.value.offender == "b"


def test_finite_chain_rejects_a_negative_start_probability():
    # and a NaN or infinite one
    for start in ([1.5, -0.5], [1.0, math.nan], [1.0, math.inf]):
        kernel = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(errors.StructureError, match="start probability at state 1") as exc:
            FiniteChain(
                states=(0, 1),
                kernel=kernel,
                start=np.array(start),
                targets=frozenset({0}),
            )
        assert exc.value.offender == 1


def test_finite_chain_rejects_a_start_vector_of_the_wrong_length():
    # zip would pair only the first two entries: from_start 0.0, not 2.0
    kernel = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(errors.StructureError, match="start vector"):
        FiniteChain(
            states=(0, 1), kernel=kernel, start=np.array([0.0, 0.0, 1.0]), targets=frozenset({0})
        )


@pytest.mark.parametrize("target", [-1, 2])
def test_finite_chain_rejects_a_target_index_outside_the_states(target):
    kernel = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(errors.StructureError, match=f"target index {target} outside") as exc:
        FiniteChain(
            states=(0, 1), kernel=kernel, start=np.array([1.0, 0.0]),
            targets=frozenset({1, target}),
        )
    assert exc.value.offender == target


def test_finite_chain_keeps_its_kernel_in_canonical_compressed_rows():
    dense = np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]])
    chain = FiniteChain(
        states=(0, 1, 2), kernel=dense, start=np.array([0.0, 0.0, 1.0]), targets=frozenset({0})
    )
    assert isinstance(chain.kernel, scipy.sparse.csr_array)
    assert chain.kernel.has_canonical_format
    assert chain.kernel.nnz == 6
    assert np.array_equal(chain.kernel.toarray(), dense)
    # unsorted, repeated and zero entries are merged on a copy of the caller's arrays
    given = scipy.sparse.csr_array(
        (np.array([0.5, 0.25, 0.0, 0.25, 0.0, 1.0]), np.array([1, 0, 1, 0, 0, 1]),
         np.array([0, 4, 6])),
        shape=(2, 2),
    )
    chain = FiniteChain(
        states=(0, 1), kernel=given, start=np.array([1.0, 0.0]), targets=frozenset({1})
    )
    assert chain.kernel.has_canonical_format
    assert chain.kernel.data.tolist() == [0.5, 0.5, 1.0]
    assert chain.kernel.indices.tolist() == [0, 1, 1]
    assert given.data.tolist() == [0.5, 0.25, 0.0, 0.25, 0.0, 1.0]
    assert given.indices.tolist() == [1, 0, 1, 0, 0, 1]


def test_dense_and_csr_kernels_give_the_same_hitting_times():
    chain = to_finite_chain(make_simple_chain("gamblers_ruin", n=12))
    dense = FiniteChain(
        states=chain.states, kernel=chain.kernel.toarray(), start=chain.start,
        targets=chain.targets,
    )
    by_csr = hitting_time_exact(chain).per_state
    by_dense = hitting_time_exact(dense).per_state
    assert repr(by_dense) == repr(by_csr)


def test_enumerated_kernel_holds_only_its_nonzeros():
    chain = to_finite_chain(make_simple_chain("coupon", n=9000))
    kernel = chain.kernel
    assert isinstance(kernel, scipy.sparse.csr_array)
    assert kernel.has_canonical_format
    assert kernel.shape == (9001, 9001)
    assert kernel.data.nbytes + kernel.indices.nbytes + kernel.indptr.nbytes < 1_000_000


def test_absorption_failure_names_the_lowest_index_stranded_state():
    # 2 -> 3 <-> 4 never reach target 0; 1 does through 5
    kernel = np.zeros((6, 6))
    kernel[0, 0] = kernel[2, 3] = kernel[3, 4] = kernel[4, 3] = kernel[5, 0] = 1.0
    kernel[1, 5] = kernel[1, 1] = 0.5
    chain = FiniteChain(
        states=("t", "a", "b", "c", "d", "e"),
        kernel=kernel,
        start=np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        targets=frozenset({0}),
    )
    with pytest.raises(errors.StructureError, match="'b'") as exc:
        hitting_time_exact(chain)
    assert exc.value.offender == "b"


def test_all_target_chain_has_zero_time():
    kernel = np.array([[1.0]])
    chain = FiniteChain(
        states=(0,), kernel=kernel, start=np.array([1.0]), targets=frozenset({0})
    )
    sol = hitting_time_exact(chain)
    assert sol.from_start == 0.0
    assert sol.per_state == {0: 0.0}
