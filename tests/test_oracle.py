"""Exact hitting-time oracles against closed forms and each other."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from driftlab import errors, oracle
from driftlab.oracle import (
    _double_sum,
    _solve_transient,
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _double_sum([math.nan], [0.0], 1),
         "p_down at state 1 must be positive and finite, got nan"),
        (lambda: _double_sum([0.5, math.inf], [0.0, 0.2], 1), "p_down at state 2 .* got inf"),
        (lambda: birth_death_exact([0.5, 0.5], [0.0, math.nan], 2),
         "p_up at state 1 must be non-negative and finite, got nan"),
        (lambda: _double_sum([0.5, 0.5], [0.0, -0.3], 2), "p_up at state 1 .* got -0.3"),
        (lambda: _double_sum([0.5] * 3, [0.0, 0.2, math.inf], 1), "p_up at state 2 .* got inf"),
        # the lowest bad state is named, whichever list holds it
        (lambda: _double_sum([0.5, 0.5, -1.0], [0.0, -0.2, 0.1], 3), "p_up at state 1 "),
    ],
)
def test_double_sum_names_the_lowest_bad_probability(call, message):
    with pytest.raises(errors.ParameterError, match=message):
        call()


def _exact_double_sum(p_down, p_up, start):
    """The double sum in exact rationals, as a float (inf beyond the range)."""
    n, inner, total = len(p_down), Fraction(0), Fraction(0)
    for s in range(n, 0, -1):
        ratio = Fraction(p_up[s]) / Fraction(p_down[s - 1]) if s < n else 0
        inner = 1 / Fraction(p_down[s - 1]) + ratio * inner
        if s <= start:
            total += inner
    try:
        return float(total)
    except OverflowError:
        return math.inf


def _extreme_ratio_chain(seed):
    """Up/down ratios from 1e-200 to 1e200, one in ten of them zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p_down = (10.0 ** rng.uniform(-3, 0, size=n)).tolist()
    ratio = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-200, 200, size=n))
    p_up = [0.0] + (ratio[1:] * p_down[1:]).tolist()
    return p_down, p_up, int(rng.integers(0, n + 1))


# n = 449: the inner sum from state 6 on is about 8^443, beyond the float
# range, and p_up[5] = 1e-200 brings the one from state 5 back into it
_BACK_IN_RANGE = ([0.1] * 449, [0.8] * 5 + [1e-200] + [0.8] * 443)


@pytest.mark.parametrize(
    "p_down, p_up, start",
    [_extreme_ratio_chain(seed) for seed in range(40)]
    + [(*_BACK_IN_RANGE, 5), (*_BACK_IN_RANGE, 6)]
    # an inner sum of 1e-300 below a reciprocal of 1e30: no power of two
    # taken from the small sum may scale the large term past the range
    + [([1e-30, 1e300], [0.0, 0.5], 1)],
)
def test_double_sum_is_its_exact_value(p_down, p_up, start):
    exact = _exact_double_sum(p_down, p_up, start)
    assert _double_sum(p_down, p_up, start) == pytest.approx(exact, rel=1e-12, abs=0)


def test_reflecting_walk_double_sum_is_exact_from_every_start():
    # the fair walk on [0..n] that reflects at n: E[T] from d is n^2 - (n-d)^2
    n = 100
    p_down, p_up = [0.5] * (n - 1) + [1.0], [0.0] + [0.5] * (n - 1)
    assert [birth_death_exact(p_down, p_up, d) for d in range(n + 1)] == \
        [float(n * n - (n - d) ** 2) for d in range(n + 1)]


def test_birth_death_overflow_returns_inf():
    assert birth_death_exact([0.1] * 700, [0.0] + [0.8] * 699, 1) == math.inf


def test_birth_death_product_underflowing_to_zero_stays_finite():
    # the up/down product 4e-400 underflows to 0 in plain floats
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


def test_visit_probabilities_past_a_closed_class_below_a_level():
    # 1 <-> 2 is closed at level 1 and is not a target; 3 (level 0) goes
    # to the target 0 (level 2) or into the cycle, and 4 (level 0) stays
    # or moves to 3.  Solving over the cycle would be singular, and the
    # mass from 4 reaches both levels above it only through 3.
    chain = FiniteChain(
        states=(0, 1, 2, 3, 4),
        kernel=np.array([
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.5],
        ]),
        start=np.array([0.0, 0.2, 0.0, 0.0, 0.8]),
        targets=frozenset({0}),
    )
    visits = visit_probabilities_exact(chain, {0: 2, 1: 1, 2: 1, 3: 0, 4: 0})
    assert visits == pytest.approx({0: 0.8, 1: 0.6, 2: 0.4}, rel=1e-15)


def test_rls_leadingones_visits_each_level_below_the_top_with_probability_half(monkeypatch):
    n = 8
    chain = to_finite_chain(make_ea_process("RLS", "leadingones", n=n))
    leading_ones = lambda bits: next((i for i, b in enumerate(bits) if b != 1), n)
    solves = []

    def counted(*args):
        solves.append(args)
        return _solve_transient(*args)

    monkeypatch.setattr(oracle, "_solve_transient", counted)
    visits = visit_probabilities_exact(chain, leading_ones)
    assert len(solves) == 1
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


def test_finite_chain_names_an_empty_kernel_row():
    kernel = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(errors.StructureError) as exc:
        FiniteChain(
            states=("a", "b"), kernel=kernel, start=np.array([1.0, 0.0]), targets=frozenset({0})
        )
    assert str(exc.value) == "kernel row at 'b' sums to 0.0"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
)))
def test_scipy_labels_strong_components_sinks_first(graph):
    # the staged solve relies on this order, which scipy's documentation
    # does not promise (its algorithm is Pearce's, 2005)
    n, edges = graph
    rows = np.array([u for u, _ in edges], dtype=int)
    cols = np.array([v for _, v in edges], dtype=int)
    pattern = scipy.sparse.csr_array((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    count, label = scipy.sparse.csgraph.connected_components(pattern, connection="strong")
    for u, v in edges:
        assert label[u] >= label[v]


@st.composite
def _staged_chains(draw):
    """(chain, level of each state) of up to 31 states, built from groups:
    group 0 is the target, every later group a single state, a single
    state with a self-loop, or a block of 2-4 states on a cycle, and
    leads to at least one earlier group.  The groups are the chain's
    strong components; state indices are shuffled, so that they say
    nothing about the order of the components, and levels never fall
    along a transition."""
    kinds = draw(st.lists(st.sampled_from(["single", "loop", "block"]), min_size=1, max_size=10))
    weight = st.integers(min_value=1, max_value=9)
    groups, n = [[0]], 1
    for kind in kinds:
        size = draw(st.integers(min_value=2, max_value=4)) if kind == "block" else 1
        groups.append(list(range(n, n + size)))
        n += size
    weights = np.zeros((n, n))
    weights[0, 0] = 1.0
    for g, kind in enumerate(kinds, start=1):
        members = groups[g]
        for i, s in enumerate(members):
            if kind == "loop":
                weights[s, s] += draw(weight)
            if kind == "block":
                weights[s, members[(i + 1) % len(members)]] += draw(weight)
                weights[s, draw(st.sampled_from(members))] += draw(weight)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            earlier = groups[draw(st.integers(min_value=0, max_value=g - 1))]
            weights[draw(st.sampled_from(members)), draw(st.sampled_from(earlier))] += draw(weight)
    spread = draw(st.integers(min_value=1, max_value=3))
    level = np.repeat([(len(groups) - 1 - g) // spread for g in range(len(groups))],
                      [len(members) for members in groups])
    index = np.array(draw(st.permutations(range(n))))
    kernel = np.zeros((n, n))
    kernel[np.ix_(index, index)] = weights / weights.sum(axis=1, keepdims=True)
    levels = np.zeros(n, dtype=int)
    levels[index] = level
    chain = FiniteChain(
        states=tuple(range(n)), kernel=kernel, start=np.full(n, 1.0 / n),
        targets=frozenset({int(index[0])}),
    )
    return chain, levels


@settings(max_examples=200, deadline=None)
@given(_staged_chains())
def test_staged_solve_matches_a_dense_solve(drawn):
    chain, levels = drawn
    kernel = chain.kernel.toarray()
    n = len(chain.states)
    keep = np.ones(n, dtype=bool)
    keep[list(chain.targets)] = False
    want = np.zeros(n)
    want[keep] = np.linalg.solve(np.eye(keep.sum()) - kernel[np.ix_(keep, keep)], np.ones(keep.sum()))
    got = hitting_time_exact(chain).per_state
    np.testing.assert_allclose([got[s] for s in chain.states], want, rtol=1e-12, atol=0)

    # a matrix right-hand side is solved column by column as its vectors
    columns = np.column_stack((np.ones(keep.sum()), np.arange(1.0, keep.sum() + 1)))
    together, _ = _solve_transient(chain.kernel, keep, columns)
    for j in range(columns.shape[1]):
        alone, _ = _solve_transient(chain.kernel, keep, columns[:, j])
        np.testing.assert_allclose(together[:, j], alone, rtol=1e-12, atol=0)

    # entering level l from below it: every state below l leaves that set
    visits = visit_probabilities_exact(chain, dict(zip(chain.states, levels.tolist())))
    assert sorted(visits) == sorted(set(levels.tolist()))
    for level, prob in visits.items():
        below, at = levels < level, levels == level
        h = at.astype(float)
        h[below] = np.linalg.solve(np.eye(below.sum()) - kernel[np.ix_(below, below)],
                                   kernel[np.ix_(below, at)].sum(axis=1))
        np.testing.assert_allclose(prob, chain.start @ h, rtol=1e-12, atol=0)


def test_one_component_chain_is_one_lu_on_a_in_state_order():
    chain = to_finite_chain(make_simple_chain("gamblers_ruin", n=30))
    keep = np.ones(len(chain.states), dtype=bool)
    keep[list(chain.targets)] = False
    a = scipy.sparse.csr_array(
        scipy.sparse.eye_array(int(keep.sum())) - chain.kernel[keep][:, keep])
    want = scipy.sparse.linalg.spsolve(a, np.ones(a.shape[0]), permc_spec="MMD_AT_PLUS_A")
    got = hitting_time_exact(chain).per_state
    walk = [s for s, k in zip(chain.states, keep) if k]
    assert repr([got[s] for s in walk]) == repr(want.tolist())

    # single states that lead into the walk are solved after it, apart
    # from its LU: "u" -> "v" -> the walk's start, "w" -> "u"
    m = len(chain.states)
    kernel = np.zeros((m + 3, m + 3))
    kernel[:m, :m] = chain.kernel.toarray()
    kernel[m, m + 1] = kernel[m, m] = 0.5
    kernel[m + 1, 0] = 1.0
    kernel[m + 2, m] = kernel[m + 2, 1] = 0.5
    fed = FiniteChain(
        states=chain.states + ("u", "v", "w"), kernel=kernel,
        start=np.append(chain.start, [0.0, 0.0, 0.0]), targets=chain.targets,
    )
    got = hitting_time_exact(fed).per_state
    assert repr([got[s] for s in walk]) == repr(want.tolist())
    assert got["v"] == 1.0 + got[chain.states[0]]
    assert got["u"] == pytest.approx(2.0 + got["v"], rel=1e-15)


def test_a_singular_kept_block_is_a_structure_error():
    # 1 <-> 2 never leave {1, 2, 3}; 3 leads into them
    kernel = scipy.sparse.csr_array(np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
    ]))
    keep = np.array([False, True, True, True])
    with pytest.raises(errors.StructureError, match="singular") as exc:
        _solve_transient(kernel, keep, np.ones(3))
    assert exc.value.offender == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_leadingones_level_chain_is_the_bit_chain_seen_by_its_level(n):
    # weak lumpability: from the uniform start the EA's 2^n-string chain
    # and the level chain take the closed form's time.  At p = 0.9 and
    # n = 8 (E[T] = 6.2e6) the string chain's solve agrees to 5e-9 only
    for p in (0.05, 0.3, 1.0 / (n + 1), 0.7):
        ea = make_ea_process("OnePlusOneEA", "leadingones", n=n, mutation_rate=p)
        exact = leadingones_exact(n, p)
        assert hitting_time_exact(to_finite_chain(ea)).from_start == pytest.approx(exact, rel=1e-9)
        level = hitting_time_exact(leadingones_level_chain(n, p)).from_start
        assert level == pytest.approx(exact, rel=1e-9)


def test_whole_number_arguments_are_checked():
    with pytest.raises(errors.ParameterError,
                       match=r"^harmonic parameter 'n' must be a whole number, got 2\.5$"):
        harmonic(2.5)
    assert harmonic(3.0) == harmonic(3)
    for t in (math.nan, math.inf, 2.5):
        with pytest.raises(errors.ParameterError, match="^leadingones_fixed_budget_exact "
                           f"parameter 't' must be a whole number, got {t}$"):
            leadingones_fixed_budget_exact(10, 0.1, t)
    assert leadingones_fixed_budget_exact(10, 0.1, 3.0) == leadingones_fixed_budget_exact(
        10, 0.1, 3)


def test_visit_probabilities_name_a_state_the_levels_miss():
    chain = to_finite_chain(make_simple_chain("coupon", n=4))
    with pytest.raises(errors.StructureError, match="^levels give state 3 no level$") as exc:
        visit_probabilities_exact(chain, {4: 0, 2: 2, 1: 3, 0: 4})
    assert exc.value.offender == 3
