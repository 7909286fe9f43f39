"""Potential constructions: domains, shapes and lifting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlab import errors
from driftlab.montecarlo import sample_hitting_times
from driftlab.oracle import hitting_time_exact
from driftlab.potentials import (
    expected_time_potential,
    gap_potential,
    glue_two_part,
    identity_potential,
    lift,
    linear_weights_potential,
    normalize,
    plateau_lower_potential,
    plateau_upper_potential,
    table_potential,
    walk_square_one_barrier,
    walk_square_two_barrier,
)
from driftlab.processes import make_simple_chain, to_finite_chain


def test_identity_is_the_identity():
    g = identity_potential()
    assert g(3) == 3.0
    assert g(0.5) == 0.5


@given(
    x=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    k=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_glue_two_part_is_concave_majorized_by_both_pieces(x, k):
    g = glue_two_part(k)
    val = g(x)
    assert val <= x + 1e-9
    assert val <= (x + k) / 2.0 + 1e-9
    assert val == pytest.approx(min(x, (x + k) / 2.0), rel=1e-12, abs=1e-12)


def test_glue_two_part_continuous_at_seam():
    g = glue_two_part(7.0)
    assert g(7.0) == pytest.approx(7.0)
    assert g(7.0 + 1e-9) == pytest.approx(7.0, abs=1e-8)


def test_glue_rejects_negative_seam():
    with pytest.raises(errors.ParameterError):
        glue_two_part(-1.0)


def test_gap_potential_prefix_sums_and_domain():
    g = gap_potential([1.0, 2.0, 4.0])
    assert [g(d) for d in range(4)] == [0.0, 1.0, 3.0, 7.0]
    with pytest.raises(errors.OutOfDomainError):
        g(4)
    with pytest.raises(errors.OutOfDomainError):
        g(1.5)
    with pytest.raises(errors.ParameterError):
        gap_potential([1.0, 0.0])


def test_plateau_upper_gaps_are_geometric_then_linear():
    n, k = 10, 3
    g = plateau_upper_potential(n, k)
    assert g(1) - g(0) == pytest.approx((2 * n) ** 3)
    assert g(2) - g(1) == pytest.approx((2 * n) ** 2)
    assert g(k) - g(k - 1) == pytest.approx(2 * n)
    assert g(k + 2) - g(k + 1) == pytest.approx(n)
    with pytest.raises(errors.ParameterError):
        plateau_upper_potential(5, 1)


def test_plateau_lower_flat_outside_plateau():
    n, k = 10, 4
    g = plateau_lower_potential(n, k)
    assert g(k + 1) == g(k)
    assert g(n) == g(k)
    r = (n - k) / k
    assert g(1) - g(0) == pytest.approx(r**k)
    assert g(k) - g(k - 1) == pytest.approx(r)


def test_linear_weights_bounds_zero_count():
    n = 8
    g = linear_weights_potential(n)
    bits = (1, 0, 1, 0, 0, 1, 1, 0)
    zeros = bits.count(0)
    val = g(bits)
    assert zeros <= val <= 2 * zeros
    assert g((1,) * n) == 0.0
    with pytest.raises(errors.OutOfDomainError):
        g((1, 0))


def test_walk_squares_vanish_only_at_their_barriers():
    g2 = walk_square_two_barrier(10)
    assert g2(0) == 0.0 and g2(10) == 0.0 and g2(5) == 25.0
    g1 = walk_square_one_barrier(10)
    assert g1(10) == 0.0 and g1(0) == 100.0
    with pytest.raises(errors.OutOfDomainError):
        g2(11)
    with pytest.raises(errors.OutOfDomainError):
        g1(-0.5)


def test_normalize_scales_values():
    g = normalize(identity_potential(), 4.0)
    assert g(8) == 2.0
    with pytest.raises(errors.ParameterError):
        normalize(identity_potential(), 0.0)


def test_table_potential_raises_outside_table():
    g = table_potential({0: 1.5, 1: 0.0})
    assert g(0) == 1.5
    with pytest.raises(errors.OutOfDomainError):
        g(2)


def test_expected_time_potential_has_unit_drift():
    proc = make_simple_chain("winning_streak", k=4)
    chain = to_finite_chain(proc)
    g = expected_time_potential(chain)
    for i, s in enumerate(chain.states):
        if i in chain.targets:
            assert g(s) == pytest.approx(0.0, abs=1e-9)
            continue
        row = slice(chain.kernel.indptr[i], chain.kernel.indptr[i + 1])
        drift = g(s) - sum(
            p * g(chain.states[j])
            for j, p in zip(chain.kernel.indices[row], chain.kernel.data[row])
        )
        assert drift == pytest.approx(1.0, abs=1e-9)


def test_lift_preserves_hitting_times_on_the_same_stream():
    base = make_simple_chain("coupon", n=8)
    chain = to_finite_chain(base)
    lifted = lift(base, expected_time_potential(chain))
    t_base = sample_hitting_times(base, trials=200, seed=42, cap=100000)
    t_lift = sample_hitting_times(lifted, trials=200, seed=42, cap=100000)
    assert np.array_equal(t_base, t_lift)


def test_lifted_chain_oracle_matches_base_oracle():
    base = make_simple_chain("gamblers_ruin", n=4)
    chain = to_finite_chain(base)
    lifted = lift(base, glue_two_part(2.0))
    lifted_chain = to_finite_chain(lifted)
    a = hitting_time_exact(chain).from_start
    b = hitting_time_exact(lifted_chain).from_start
    assert a == pytest.approx(b, rel=1e-12)
