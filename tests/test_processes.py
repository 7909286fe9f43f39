"""Process catalog: kernels, chains, instances and serialization."""

import copy
import math

import numpy as np
import pytest

from driftlab import errors, processes
from driftlab.montecarlo import trial_rng
from driftlab.processes import (
    CnfInstance,
    GraphInstance,
    UniformPick,
    make_ea_process,
    make_graph_process,
    make_simple_chain,
    make_sorting_process,
    make_two_sat_process,
    to_finite_chain,
)


def _empirical_vs_kernel(process, state, samples=4000, seed=0):
    """Empirical one-step frequencies must sit within 4 SE of the
    exact kernel probabilities."""
    rng = trial_rng(seed, 0)
    counts = {}
    for _ in range(samples):
        succ = process.step(state, rng)
        counts[succ] = counts.get(succ, 0) + 1
    for succ, p in process.exact_kernel(state):
        freq = counts.pop(succ, 0) / samples
        se = math.sqrt(max(p * (1 - p), 1e-12) / samples)
        assert abs(freq - p) <= 4 * se + 1e-9, (state, succ, freq, p)
    assert not counts, f"sampled successors missing from the kernel: {counts}"


@pytest.mark.parametrize(
    "process,state",
    [
        (make_simple_chain("coupon", n=5), 3),
        (make_simple_chain("gamblers_ruin", n=3), 2),
        (make_simple_chain("rumor", n=5), 2),
        (make_simple_chain("generalized_coupon", n=4, p=0.3), 4),
        (make_ea_process("RLS", "plateau", n=6, k=2), 1),
        (make_ea_process("OnePlusOneEA", "onemax", n=6), 3),
    ],
)
def test_step_matches_kernel(process, state):
    _empirical_vs_kernel(process, state)


def test_kernel_rows_are_distributions():
    for proc in (
        make_simple_chain("coupon", n=7),
        make_ea_process("RLS", "plateau", n=8, k=3),
        make_ea_process("OnePlusOneEA", "plateau", n=8, k=3),
    ):
        chain = to_finite_chain(proc)
        assert np.allclose(chain.kernel.sum(axis=1), 1.0, atol=1e-12)
        for t in chain.targets:
            assert chain.kernel[t, t] == pytest.approx(1.0, abs=1e-12)


def test_chain_capacity_error_carries_count():
    proc = make_simple_chain("coupon", n=50)
    with pytest.raises(errors.CapacityError) as exc:
        to_finite_chain(proc, max_states=10)
    assert exc.value.count > 10


def test_unknown_kind_rejected():
    with pytest.raises(errors.ParameterError, match="unknown chain kind"):
        make_simple_chain("no_such_chain", n=3)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n": 5, "m": 5}, "coupon takes no parameter 'm'; it takes n$"),
        ({}, "coupon needs parameter 'n'$"),
    ],
)
def test_simple_chain_names_a_key_its_kind_does_not_take(params, message):
    with pytest.raises(errors.ParameterError, match=message):
        make_simple_chain("coupon", **params)


def test_reflecting_walk_moves_surely_from_origin():
    proc = make_simple_chain("fair_walk_reflecting", n=6)
    assert proc.exact_kernel(0) == [(1, 1.0)]


def test_rls_never_worsens_fitness():
    n, k = 9, 3
    proc = make_ea_process("RLS", "plateau", n=n, k=k)

    def fitness(d):
        return n - d if d == 0 or d >= k else n - k

    for d in range(n + 1):
        for succ, p in proc.exact_kernel(d):
            if p > 0:
                assert fitness(succ) >= fitness(d)


def test_ea_distance_kernel_mass_splits_correctly():
    # flipping exactly one of d zero bits improves onemax; staying put
    # absorbs every rejected mutation
    n = 5
    proc = make_ea_process("OnePlusOneEA", "onemax", n=n)
    row = dict(proc.exact_kernel(2))
    p = 1.0 / n
    # one zero flipped and no one destroyed, or both zeros flipped
    # together with exactly one of the three ones
    expected = 2 * p * (1 - p) ** 4 + 3 * p**3 * (1 - p) ** 2
    assert row[1] == pytest.approx(expected, rel=1e-12)
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def _rls_distance_row(n, d, fitness):
    """RLS from distance d, written out: one of the d zeros flips with
    probability d/n, one of the n - d ones with (n - d)/n, and the flip
    is kept when the fitness does not fall."""
    if d == 0:
        return [(0, 1.0)]
    row = {}
    succ = d - 1 if fitness(d - 1) >= fitness(d) else d
    row[succ] = row.get(succ, 0.0) + d / n
    if d < n:
        succ = d + 1 if fitness(d + 1) >= fitness(d) else d
        row[succ] = row.get(succ, 0.0) + (n - d) / n
    return sorted(row.items())


def test_rls_distance_rows_are_the_written_out_one_bit_flip():
    for n in range(1, 13):
        cases = [("onemax", None, lambda d: n - d)]
        cases += [("plateau", k, lambda d, k=k: n - d if d == 0 or d >= k else n - k)
                  for k in range(2, n + 1)]
        for objective, k, fitness in cases:
            proc = make_ea_process("RLS", objective, n=n, k=k)
            for d in range(n + 1):
                assert repr(proc.exact_kernel(d)) == repr(_rls_distance_row(n, d, fitness))


def test_updrift_starts_at_zero_and_draws_one_binomial_a_step():
    n, k, delta = 5, 20, 0.5
    proc = make_simple_chain("updrift", n=n, k=k, delta=delta)
    assert proc.exact_kernel is None and proc.step_law is None
    rng, ref = trial_rng(3, 0), trial_rng(3, 0)
    x = proc.sample_initial(rng)
    assert x == 0 and proc.value(x) == 5.0
    x = proc.step(x, rng)  # 0 -> 1 draws nothing
    assert x == 1
    while not proc.is_target(x):
        expect = int(ref.binomial(k, min(1.0, (1.0 + delta) * x / k)))
        x = proc.step(x, rng)
        assert x == expect
    assert x >= n and proc.value(x) == 0.0
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "row, message",
    [
        ([(0, 1.5), (2, -0.5)], "kernel entry at state 1 is -0.5"),
        # rounding hides it in the row sum
        ([(0, 0.5), (2, 0.5), (1, -1e-17)], "kernel entry at state 1 is -1e-17"),
    ],
)
def test_to_finite_chain_names_a_negative_kernel_entry(row, message):
    # the row at state 1 sums to 1; state 1 is the start, chain index 0
    rows = {0: [(0, 1.0)], 1: row, 2: [(2, 1.0)]}
    proc = processes._chain_process(
        "signed", rows.get, [(1, 1.0)], value=float, is_target=lambda s: s != 1
    )
    with pytest.raises(errors.StructureError) as exc:
        to_finite_chain(proc)
    assert str(exc.value) == message
    assert exc.value.offender == 1


def test_linear_objective_validates_weights():
    with pytest.raises(errors.ParameterError):
        make_ea_process("RLS", "linear", weights=(1.0, 2.0))
    with pytest.raises(errors.ParameterError):
        make_ea_process("RLS", "linear", weights=(2.0, -1.0))
    proc = make_ea_process("RLS", "linear", weights=(3.0, 2.0, 1.0))
    assert proc.value((1, 1, 1)) == 0.0
    assert make_ea_process("RLS", "linear", n=3, weights=(3, 2, 1)).name == proc.name
    with pytest.raises(errors.ParameterError, match="n=7 but 3 weights"):
        make_ea_process("RLS", "linear", n=7, weights=(3, 2, 1))


@pytest.mark.parametrize(
    "algorithm, objective, extra, message",
    [
        ("RLS", "onemax", {"mutation_rate": 0.9}, "RLS-onemax takes no mutation rate"),
        ("OnePlusOneEA", "leadingones", {"k": 3}, "OnePlusOneEA-leadingones takes no k"),
    ],
)
def test_ea_process_refuses_a_parameter_it_would_ignore(algorithm, objective, extra, message):
    with pytest.raises(errors.ParameterError, match=message):
        make_ea_process(algorithm, objective, n=4, **extra)


def test_sorting_inversions_never_increase():
    start = (4, 3, 2, 1)
    proc = make_sorting_process(4, start)
    rng = trial_rng(11, 0)
    state = proc.sample_initial(rng)
    last = proc.value(state)
    for _ in range(50):
        state = proc.step(state, rng)
        now = proc.value(state)
        assert now <= last
        last = now
    assert proc.is_target(tuple(sorted(start)))


_PICK_WALKS = {
    "two_sat": lambda: make_two_sat_process(processes.planted_2sat(8, 16, seed=3)),
    "recolour": lambda: make_graph_process(
        "recolour", processes.random_3colorable_graph(9, 0.6, seed=1)
    ),
    "sorting": lambda: make_sorting_process(5, (5, 4, 3, 2, 1)),
}


@pytest.mark.parametrize("name", list(_PICK_WALKS))
def test_pick_walk_step_and_kernel_follow_its_law(name):
    # step makes exactly the documented integers calls and moves to the
    # entry they pick; the kernel gives each entry 1/(groups * group)
    # mass, summed per successor in pick order
    proc = _PICK_WALKS[name]()
    law = proc.step_law
    assert type(law) is UniformPick
    several_groups = 0
    for trial in range(20):
        rng = trial_rng(13, trial)
        state = proc.sample_initial(rng)
        for _ in range(25):
            if proc.is_target(state):
                break
            groups = law.groups(state)
            several_groups += len(groups) > 1
            row = {}
            for group in groups:
                for entry in group:
                    succ = law.move(state, entry)
                    row[succ] = row.get(succ, 0.0) + 1.0 / (len(groups) * len(group))
            assert proc.exact_kernel(state) == list(row.items())
            clone = copy.deepcopy(rng)
            group = groups[int(clone.integers(len(groups)))] if len(groups) > 1 else groups[0]
            want = law.move(state, group[int(clone.integers(len(group)))])
            succ = proc.step(state, rng)
            assert succ == want
            assert rng.bit_generator.state == clone.bit_generator.state
            assert dict(proc.exact_kernel(state))[succ] > 0
            state = succ
    assert (several_groups > 0) == (name == "recolour")


def test_sorting_row_is_the_hand_enumeration_over_pairs():
    # pairs in order (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); the inversions
    # of (2, 4, 1, 3) are at (0,2), (1,2) and (1,3)
    proc = make_sorting_process(4, (2, 4, 1, 3))
    sixth = 1.0 / 6
    assert proc.exact_kernel((2, 4, 1, 3)) == [
        ((2, 4, 1, 3), sixth + sixth + sixth),
        ((1, 4, 2, 3), sixth),
        ((2, 1, 4, 3), sixth),
        ((2, 3, 1, 4), sixth),
    ]


def test_pick_walk_without_groups_stays_and_draws_nothing():
    inst = GraphInstance(n=3, edges=((0, 1), (1, 2)), cover=frozenset({1}))
    proc = make_graph_process("vertex_cover", inst)
    state = (1, frozenset({1}))
    rng = trial_rng(0, 0)
    before = rng.bit_generator.state
    assert proc.step(state, rng) == state
    assert rng.bit_generator.state == before
    assert proc.exact_kernel(state) == [(state, 1.0)]


def test_graph_instance_rejects_improper_coloring():
    with pytest.raises(errors.StructureError):
        GraphInstance(n=3, edges=((0, 1),), coloring=(0, 0, 1))


def test_recolour_requires_planted_coloring():
    inst = GraphInstance(n=3, edges=((0, 1),))
    with pytest.raises(errors.ParameterError):
        make_graph_process("recolour", inst)


def test_recolour_triangle_free_starts_absorbed():
    inst = GraphInstance(n=4, edges=((0, 1), (1, 2)), coloring=(0, 1, 2, 0))
    proc = make_graph_process("recolour", inst)
    rng = trial_rng(0, 0)
    assert proc.is_target(proc.sample_initial(rng))


def test_recolour_agreement_moves_up_with_prob_one_third():
    inst = processes.random_3colorable_graph(12, 0.9, seed=4)
    proc = make_graph_process("recolour", inst)
    rng = trial_rng(5, 0)
    checked = 0
    for trial in range(50):
        state = proc.sample_initial(trial_rng(5, trial))
        if proc.is_target(state):
            continue
        y = proc.value(state)
        up = sum(p for succ, p in proc.exact_kernel(state) if proc.value(succ) == y + 1)
        down = sum(p for succ, p in proc.exact_kernel(state) if proc.value(succ) == y - 1)
        assert up == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert down == pytest.approx(1.0 / 3.0, abs=1e-12)
        checked += 1
    assert checked > 10


def test_vertex_cover_value_counts_missing_cover_vertices():
    inst = GraphInstance(n=3, edges=((0, 1), (1, 2)), cover=frozenset({1}))
    proc = make_graph_process("vertex_cover", inst)
    start = (0, frozenset())
    assert proc.value(start) == 1.0
    assert proc.value((1, frozenset({1}))) == 0.0


def test_two_sat_flips_one_variable_of_an_unsatisfied_clause():
    inst = processes.planted_2sat(8, 16, seed=3)
    proc = make_two_sat_process(inst)
    rng = trial_rng(9, 0)
    state = proc.sample_initial(rng)
    for _ in range(30):
        if proc.is_target(state):
            break
        succ = proc.step(state, rng)
        assert sum(a != b for a, b in zip(state, succ)) == 1
        state = succ


def test_planted_2sat_is_satisfied_by_its_assignment():
    inst = processes.planted_2sat(10, 25, seed=7)
    for (v1, pol1), (v2, pol2) in inst.clauses:
        assert inst.assignment[v1] == pol1 or inst.assignment[v2] == pol2


def test_cnf_instance_rejects_violated_planted():
    clause = (((0, True), (1, True)),)
    with pytest.raises(errors.StructureError):
        CnfInstance(n=2, clauses=clause, assignment=(False, False))


def test_graph_serialization_round_trip():
    inst = processes.random_3colorable_graph(9, 0.4, seed=1)
    back = processes.graph_from_text(processes.graph_to_text(inst))
    assert back.n == inst.n
    assert back.edges == inst.edges
    assert back.coloring == inst.coloring


def test_cnf_serialization_round_trip():
    inst = processes.planted_2sat(6, 12, seed=2)
    back = processes.cnf_from_dimacs(processes.cnf_to_dimacs(inst))
    assert back.n == inst.n
    assert back.clauses == inst.clauses
    assert back.assignment == inst.assignment


def test_value_hits_zero_exactly_at_target_for_distance_chains():
    for proc in (
        make_simple_chain("coupon", n=6),
        make_simple_chain("winning_streak", k=4),
        make_simple_chain("rumor", n=6),
    ):
        chain = to_finite_chain(proc)
        for i, s in enumerate(chain.states):
            assert (proc.value(s) == 0.0) == (i in chain.targets)


def test_lifted_process_keeps_transition_structure():
    base = make_simple_chain("coupon", n=6)
    from driftlab.potentials import identity_potential, lift

    lifted = lift(base, identity_potential())
    assert lifted.exact_kernel(3) == base.exact_kernel(3)
    assert lifted.name != base.name


def test_chain_start_distribution_matches_initial_support():
    proc = make_ea_process("OnePlusOneEA", "onemax", n=10)
    chain = to_finite_chain(proc)
    for (state, p) in proc.initial_support:
        assert chain.start[chain.index_of(state)] == pytest.approx(p, abs=1e-12)
    assert chain.start.sum() == pytest.approx(1.0, abs=1e-12)
