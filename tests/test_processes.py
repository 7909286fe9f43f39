"""Process catalog: kernels, chains, instances and step laws."""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftlab import errors, processes
from driftlab.montecarlo import (
    sample_hitting_times,
    simulate_trajectory,
    trial_rng,
    verify_condition,
)
from driftlab.oracle import hitting_time_exact
from driftlab.potentials import identity_potential, lift
from driftlab.processes import (
    BitFlipEA,
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


def test_to_finite_chain_asks_is_target_once_per_state():
    proc = make_simple_chain("coupon", n=6)
    asked = []

    def is_target(state):
        asked.append(state)
        return proc.is_target(state)

    chain = to_finite_chain(dataclasses.replace(proc, is_target=is_target))
    assert asked == list(chain.states)
    assert chain.targets == to_finite_chain(proc).targets


def test_chain_capacity_error_carries_count():
    proc = make_simple_chain("coupon", n=50)
    with pytest.raises(errors.CapacityError) as exc:
        to_finite_chain(proc, max_states=10)
    assert exc.value.count > 10


@pytest.mark.parametrize("proc, size", [
    (make_ea_process("RLS", "leadingones", n=8), 256),
    (make_ea_process("OnePlusOneEA", "leadingones", n=6), 64),
    (make_graph_process("recolour", processes.random_3colorable_graph(5, 0.8, seed=1)), 32),
    (make_sorting_process(5, (5, 4, 3, 2, 1)), 120),
])
def test_chain_capacity_counts_the_start_support(proc, size):
    # every state of the bit-string chains is in the start's support, and
    # sorting's are reached from one start; the array routes and the loop
    # count them alike
    for p in (proc, dataclasses.replace(proc, step_law=None)):
        for max_states in (1, 3, size - 1):
            with pytest.raises(errors.CapacityError, match=f"max_states={max_states}$") as exc:
                to_finite_chain(p, max_states=max_states)
            assert exc.value.count == max_states + 1
        assert len(to_finite_chain(p, max_states=size).states) == size


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


def test_to_finite_chain_hands_over_summed_sorted_zero_free_rows():
    # "a" lists "b" twice around the earlier column of "a", and "z" with no mass
    rows = {"a": [("b", 0.25), ("z", 0.0), ("a", 0.25), ("b", 0.5)]}
    proc = processes._chain_process(
        "repeats", rows.get, [("a", 1.0)], value=lambda s: float(s == "a"),
        is_target=lambda s: s == "b",
    )
    chain = to_finite_chain(proc)
    assert chain.states == ("a", "b")
    assert chain.targets == frozenset({1})
    assert chain.start.tolist() == [1.0, 0.0]
    assert chain.kernel.indptr.tolist() == [0, 2, 3]
    assert chain.kernel.indices.tolist() == [0, 1, 1]
    assert chain.kernel.data.tolist() == [0.25, 0.75, 1.0]


def test_to_finite_chain_names_a_row_that_does_not_sum_to_one():
    rows = {"a": [("b", 0.5), ("c", 0.5)], "c": [("b", 0.4), ("a", 0.5)]}
    proc = processes._chain_process(
        "leaky", rows.get, [("a", 1.0)], value=lambda s: float(s != "b"),
        is_target=lambda s: s == "b",
    )
    with pytest.raises(errors.StructureError) as exc:
        to_finite_chain(proc)
    assert str(exc.value) == "kernel row at 'c' sums to 0.9"
    assert exc.value.offender == "c"


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


@pytest.mark.parametrize(
    "algorithm, objective, message",
    [
        ("SA", "onemax", "unknown algorithm 'SA'"),
        ("RLS", "foo", "unknown objective 'foo'; expected onemax, leadingones, plateau or linear"),
        ("OnePlusOneEA", "OneMax", "unknown objective 'OneMax'"),
    ],
)
def test_ea_process_names_an_unknown_algorithm_or_objective(algorithm, objective, message):
    with pytest.raises(errors.ParameterError, match=message):
        make_ea_process(algorithm, objective, n=5)


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
    "vertex_cover": lambda: make_graph_process("vertex_cover", GraphInstance(
        n=6, edges=((0, 1), (0, 2), (0, 3), (3, 4), (4, 5)), cover=frozenset({0, 4})
    )),
    "RLS-leadingones": lambda: make_ea_process("RLS", "leadingones", n=6),
}
# the walks whose target is "no groups left"; sorting and RLS name their own
_NO_GROUPS_TARGET = ("two_sat", "recolour", "vertex_cover")


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
    assert (several_groups > 0) == (name in ("recolour", "vertex_cover"))


@pytest.mark.parametrize("name", list(_PICK_WALKS))
def test_pick_walk_takes_its_target_from_its_law(name):
    proc = _PICK_WALKS[name]()
    law = proc.step_law
    assert (law.target is None) == (name in _NO_GROUPS_TARGET)
    if law.target is not None:
        assert proc.is_target is law.target
    hits = 0
    for trial in range(20):
        rng = trial_rng(17, trial)
        state = proc.sample_initial(rng)
        for _ in range(200):
            if law.target is None:
                assert proc.is_target(state) == (not law.groups(state))
            else:
                # every pair or every bit stays a group at the target
                assert law.groups(state)
            if proc.is_target(state):
                hits += 1
                break
            state = proc.step(state, rng)
    assert hits > 0


def test_pick_walk_scans_groups_once_per_visited_state():
    # a walk on 0..4 that steps down or up (only down at 4) and stops at
    # 0, where it has no groups; its target, step and kernel share the
    # groups of each state
    calls = []

    def groups(d):
        calls.append(d)
        return () if d == 0 else ((-1, 1),) if d < 4 else ((-1,),)

    law = UniformPick(groups, lambda d, step: d + step)
    proc = processes._pick_process("updown", law, lambda rng: 2, float, ((2, 1.0),))
    times = sample_hitting_times(proc, 30, seed=4, cap=10_000)
    assert times.min() >= 1
    assert len(calls) == int((times + 1).sum())
    calls.clear()
    chain = to_finite_chain(proc)
    assert calls == list(chain.states) == [2, 1, 3, 0, 4]
    # the condition checker skips the target 0 as it comes to it
    calls.clear()
    rep = verify_condition(proc, identity_potential(), "step_bound_B", state_set=range(5), c=1)
    assert calls == [0, 1, 2, 3, 4]
    assert rep.per_state == tuple((d, 1.0, (1.0, 1.0), True) for d in range(1, 5))


def test_pick_walk_with_regroup_scans_only_its_starts():
    # the walk above, handing each successor's groups on: the loop scans
    # each trial's start and no other state, and the hitting times and
    # curves are the walk's without regroup
    calls = []

    def groups_of(d):
        return () if d == 0 else ((-1, 1),) if d < 4 else ((-1,),)

    def groups(d):
        calls.append(d)
        return groups_of(d)

    def move(d, step):
        return d + step

    def walk(law):
        return processes._pick_process("updown", law, lambda rng: 2, float, ((2, 1.0),))

    law = UniformPick(groups, move, regroup=lambda found, step, d: groups_of(d))
    proc, plain = walk(law), walk(UniformPick(groups, move))
    times = sample_hitting_times(proc, 30, seed=4, cap=10_000)
    assert calls == [2] * 30
    assert np.array_equal(times, sample_hitting_times(plain, 30, seed=4, cap=10_000))
    # a trial that ends at 2 leaves the memo on the next trial's start
    calls.clear()
    got = simulate_trajectory(proc, 12, 30, seed=4)
    assert set(calls) == {2}
    want = simulate_trajectory(plain, 12, 30, seed=4)
    for field in ("mean", "ci_lo", "ci_hi"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    # the kernel does not regroup: to_finite_chain scans each state once
    calls.clear()
    chain = to_finite_chain(walk(law))
    assert calls == list(chain.states) == [2, 1, 3, 0, 4]


def test_recolour_regroups_each_successor_as_its_scan_does():
    # along seeded walks at n = 30, every entry of every group of a
    # visited state regroups to its successor's scanned groups, in order
    checked = 0
    for seed in (600, 601):
        proc = make_graph_process("recolour", processes.random_3colorable_graph(30, 0.5, seed=seed))
        law = proc.step_law
        for trial in range(2):
            rng = trial_rng(seed, trial)
            state = proc.sample_initial(rng)
            while not proc.is_target(state):
                found = law.groups(state)
                for group in found:
                    for v in group:
                        succ = law.move(state, v)
                        assert law.regroup(found, v, succ) == law.groups(succ)
                        checked += 1
                state = proc.step(state, rng)
    assert checked > 1000


def test_two_sat_groups_are_the_first_clause_its_literals_reject():
    rng = np.random.default_rng(5)
    firsts = set()
    for seed in range(4):
        inst = processes.planted_2sat(20, 40, seed=seed)
        law = make_two_sat_process(inst).step_law
        planted = inst.assignment
        near = [tuple(a != (i in flips) for i, a in enumerate(planted))
                for flips in itertools.combinations(range(20), 2)]
        uniform = [tuple(rng.integers(0, 2, size=20).astype(bool).tolist()) for _ in range(100)]
        for assignment in [planted] + near + uniform:
            rejected = [c for c in inst.clauses if not processes._clause_satisfied(c, assignment)]
            want = ((rejected[0][0][0], rejected[0][1][0]),) if rejected else ()
            assert law.groups(assignment) == want
            firsts.add(inst.clauses.index(rejected[0]) if rejected else None)
    # planted, early and late first clauses all occur
    assert None in firsts and 0 in firsts and max(firsts - {None}) >= 20


def test_sorting_target_is_the_sorted_permutation():
    for start in ((4, 3, 2, 1, 5), (0, 2, 1, 3, 4)):
        proc = make_sorting_process(5, start)
        for perm in itertools.permutations(start):
            assert proc.is_target(perm) == (proc.value(perm) == 0)


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
    state = (0, 1, 0)
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
    start = (0, 0, 0)
    assert proc.value(start) == 1.0
    assert proc.value((0, 1, 0)) == 0.0


def test_vertex_cover_scans_its_edges_once_per_visited_state():
    # value, is_target and step share the walk's groups: each state a
    # trajectory visits scans the edges once, absorbed or not
    class Edges(tuple):
        scans = 0

        def __iter__(self):
            self.scans += 1
            return super().__iter__()

    edges = Edges(((0, 1), (0, 2), (0, 3), (3, 4), (4, 5)))
    proc = make_graph_process("vertex_cover", GraphInstance(n=6, edges=edges, cover=frozenset({0, 4})))
    times = sample_hitting_times(proc, 50, seed=3, cap=3)
    assert (times < 0).any() and (times > 0).any()
    edges.scans = 0
    simulate_trajectory(proc, 3, 50, seed=3)
    assert edges.scans == int(np.where(times < 0, 4, times + 1).sum())


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: processes.planted_2sat(20, 40.5, seed=1), "'m' must be a whole number"),
        (lambda: processes.planted_2sat(2.5, 4, seed=1), "'n' must be a whole number"),
        (lambda: processes.random_3colorable_graph(30.5, 0.5, seed=1), "'n' must be a whole"),
        (lambda: processes.random_graph(9.5, 0.5, seed=1), "'n' must be a whole number"),
        (lambda: make_sorting_process(4.5, (4, 3, 2, 1)), "'n' must be a whole number"),
        (lambda: processes.random_3colorable_graph(30, 1.5, seed=1), "'edge_probability'"),
        (lambda: processes.random_graph(9, -0.3, seed=1), "'edge_probability'"),
        (lambda: processes.random_graph(9, float("nan"), seed=1), "'edge_probability'"),
        (lambda: processes.planted_2sat(20, 40, seed=-1), "'seed' must be non-negative, got -1"),
        (lambda: processes.random_graph(9, 0.3, seed=1.5), "'seed' must be a whole number"),
        # no seed would draw OS entropy, and the instance could not be rebuilt
        (lambda: processes.random_3colorable_graph(9, 0.5, seed=None), "'seed' must be a whole"),
    ],
)
def test_instance_generators_name_a_bad_argument(build, message):
    with pytest.raises(errors.ParameterError, match=message):
        build()


def test_instance_generators_take_whole_floats_as_ints():
    assert processes.random_3colorable_graph(30.0, 0.5, seed=1) == \
        processes.random_3colorable_graph(30, 0.5, seed=1)
    assert processes.planted_2sat(20.0, 40.0, seed=1) == processes.planted_2sat(20, 40, seed=1)
    assert make_sorting_process(4.0, (4, 3, 2, 1)).name == "sorting(n=4)"


def test_cnf_instance_rejects_violated_planted():
    clause = (((0, True), (1, True)),)
    with pytest.raises(errors.StructureError):
        CnfInstance(n=2, clauses=clause, assignment=(False, False))


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


# --- the (1+1) EA on bit strings: step and kernel from one bit-flip law ---

_BIT_FLIP_EAS = {
    "leadingones": lambda: make_ea_process("OnePlusOneEA", "leadingones", n=4, mutation_rate=0.3),
    "linear": lambda: make_ea_process("OnePlusOneEA", "linear", weights=(3, 2, 1),
                                      mutation_rate=0.4),
    # 0.2 + 0.1 > 0.3 in floats, so the step keeps 100 -> 011 and refuses
    # 011 -> 100; the kernel must round the fitness as the step does
    "linear-rounding": lambda: make_ea_process("OnePlusOneEA", "linear", weights=(0.3, 0.2, 0.1)),
}


@pytest.mark.parametrize("name", list(_BIT_FLIP_EAS))
def test_bit_flip_step_and_kernel_follow_its_law(name):
    # step draws exactly rng.random(n) and flips the bits whose uniform is
    # below p, unless the fitness falls; the kernel gives each flip mask m
    # the mass p^|m| (1-p)^(n-|m|), summed per successor
    proc = _BIT_FLIP_EAS[name]()
    law = proc.step_law
    assert type(law) is BitFlipEA and proc.value is law.distance
    n, p = law.n, law.p

    def offspring(bits, mask):
        cand = tuple(b ^ int(m) for b, m in zip(bits, mask))
        return cand if law.fitness(cand) >= law.fitness(bits) else bits

    for bits in itertools.product((0, 1), repeat=n):
        assert proc.is_target(bits) == all(bits)
        row = {}
        for mask in itertools.product((0, 1), repeat=n):
            succ = offspring(bits, mask)
            row[succ] = row.get(succ, 0.0) + p ** sum(mask) * (1 - p) ** (n - sum(mask))
        got = dict(proc.exact_kernel(bits))
        assert got == pytest.approx(row, rel=1e-12, abs=0)
        for trial in range(4):
            rng = trial_rng(7, trial)
            clone = copy.deepcopy(rng)
            assert proc.step(bits, rng) == offspring(bits, clone.random(n) < p)
            assert rng.bit_generator.state == clone.bit_generator.state


def test_bit_flip_kernel_builds_its_tables_on_its_first_call():
    n, calls = 10, []

    def fitness(bits):
        calls.append(bits)
        return processes._leading_ones(bits)

    sample_initial, support = processes._uniform_bits(n, (0, 1))
    law = BitFlipEA(n, 0.1, fitness, lambda bits: 0.0)
    proc = processes._bit_flip_process("EA", law, sample_initial, support)
    assert calls == []
    proc.exact_kernel((0,) * n)
    assert len(calls) == 2**n
    proc.exact_kernel((1, 0) * (n // 2))
    assert len(calls) == 2**n
    for big in (make_ea_process("OnePlusOneEA", "leadingones", n=11),
                make_ea_process("OnePlusOneEA", "linear", weights=range(11, 0, -1))):
        assert big.exact_kernel is None
        with pytest.raises(errors.UnsupportedError, match="has no exact kernel"):
            to_finite_chain(big)


def _bits_process(algorithm, n, fitness):
    """algorithm on tuples of n bits under fitness: the bit-flip law at
    p = 0.3, or RLS's one uniform bit flip."""
    sample_initial, support = processes._uniform_bits(n, (0, 1))
    if algorithm == "OnePlusOneEA":
        law = BitFlipEA(n, 0.3, fitness, lambda bits: 0.0)
        return processes._bit_flip_process("EA", law, sample_initial, support)
    every_bit = (range(n),)
    law = UniformPick(lambda bits: every_bit, processes.FlipBit((0, 1), fitness), all)
    return processes._pick_process("RLS", law, sample_initial, lambda bits: 0.0, support)


@pytest.mark.parametrize("algorithm", ["RLS", "OnePlusOneEA"])
@pytest.mark.parametrize("n", range(1, 9))
def test_distance_chains_are_the_bit_chains_lumped_by_hamming_distance(algorithm, n):
    # strong lumpability (Kemeny & Snell, Finite Markov Chains, ch. 6):
    # every string at distance d puts the mass of the distance chain's row
    # d into each distance class, and the start lumps to its start
    rate = {"mutation_rate": 0.3} if algorithm == "OnePlusOneEA" else {}
    cases = [("onemax", None, lambda d: n - d)]
    cases += [("plateau", k, lambda d, k=k: processes._plateau_fitness(d, n, k))
              for k in sorted({2, (n + 1) // 2, n}) if 2 <= k <= n]
    for objective, k, fitness in cases:
        chain = to_finite_chain(_bits_process(algorithm, n, lambda bits: fitness(n - sum(bits))))
        dist = n - np.array(chain.states).sum(axis=1)
        rows = processes._rows_of(chain.kernel.indptr)
        into = np.bincount(rows * (n + 1) + dist[chain.kernel.indices], chain.kernel.data,
                           len(dist) * (n + 1)).reshape(len(dist), n + 1)
        lumped = make_ea_process(algorithm, objective, n=n, k=k, **rate)
        quotient = np.zeros((n + 1, n + 1))
        for d in range(n + 1):
            for e, q in lumped.exact_kernel(d):
                quotient[d, e] += q
        np.testing.assert_allclose(into, quotient[dist], rtol=0, atol=1e-12)
        start = np.zeros(n + 1)
        for d, q in lumped.initial_support:
            start[d] += q
        np.testing.assert_allclose(np.bincount(dist, chain.start, n + 1), start, rtol=0,
                                   atol=1e-15)


def _assert_same_chain(got, want):
    assert got.states == want.states
    # the entries' types too, since 1 == 1.0
    assert [tuple(map(type, s)) for s in got.states] == [tuple(map(type, s)) for s in want.states]
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got.kernel, field), getattr(want.kernel, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.start.dtype == want.start.dtype and np.array_equal(got.start, want.start)
    assert got.targets == want.targets


def _loop_chain(proc):
    """to_finite_chain's breadth-first loop over the process's kernel."""
    return to_finite_chain(dataclasses.replace(proc, step_law=None))


def _no_rows(state):
    raise AssertionError("an array route reads no kernel rows")


def _law_chain(proc):
    """to_finite_chain's array route, which must not fall back on the loop."""
    return to_finite_chain(dataclasses.replace(proc, exact_kernel=_no_rows))


def _ea(n, p):
    return make_ea_process("OnePlusOneEA", "leadingones", n=n, mutation_rate=p)


def _sorting(start):
    return make_sorting_process(len(start), start)


_ARRAY_CHAINS = {
    **{f"RLS-leadingones(n={n})": lambda n=n: make_ea_process("RLS", "leadingones", n=n)
       for n in range(1, 13)},
    "RLS-linear": lambda: make_ea_process("RLS", "linear", weights=(0.3, 0.2, 0.1, 0.05)),
    **{f"two_sat(n={n})": lambda n=n: make_two_sat_process(processes.planted_2sat(n, 2 * n, seed=n))
       for n in (12, 11, 10)},
    "recolour(n=9)": lambda: make_graph_process(
        "recolour", processes.random_3colorable_graph(9, 0.5, seed=1)),
    # the chain does not read the cover, so every vertex stands for it
    **{f"vertex_cover(n={n})": lambda n=n: make_graph_process("vertex_cover", GraphInstance(
        n=n, edges=processes.random_graph(n, 0.4, seed=n).edges, cover=frozenset(range(n))))
       for n in (6, 9)},
    **{f"EA-leadingones(n={n},p={p})": lambda n=n, p=p: _ea(n, p)
       for n in (1, 4, 8, 10) for p in (0.1, 0.5, 0.9)},
    "EA-linear": lambda: make_ea_process("OnePlusOneEA", "linear", weights=(5, 3, 2, 1),
                                         mutation_rate=0.4),
    "lifted": lambda: lift(make_ea_process("RLS", "leadingones", n=6), identity_potential()),
    **{f"sorting(n={n})": lambda n=n: _sorting(tuple(range(n, 0, -1))) for n in range(2, 8)},
    "sorting-shuffled": lambda: _sorting((3, 6, 1, 5, 2, 4)),
    "sorting-sorted": lambda: _sorting((1, 2, 3, 4, 5)),
    "sorting-0-based": lambda: _sorting((2, 0, 3, 1, 4)),
    "sorting-float": lambda: _sorting((3.0, 1.0, 4.0, 2.0)),
    "sorting-int64": lambda: _sorting(tuple(np.int64(v) for v in (4, 2, 5, 1, 3))),
    # base-15 codes of 15 entries reach 15^15 - 1, near the top of int64
    "sorting(n=15)-nearly-sorted": lambda: _sorting((2, 1, *range(3, 14), 15, 14)),
    "sorting-lifted": lambda: lift(_sorting((4, 1, 3, 2)), identity_potential()),
    # RLS from one string reaches new strings, and rejects flips to
    # strings it has not reached
    "RLS-leadingones(n=8)-one-string": lambda: _started(
        make_ea_process("RLS", "leadingones", n=8), ((1, 1, 0, 1, 0, 0, 1, 0), 1.0)),
    "RLS-linear-one-string": lambda: _started(
        make_ea_process("RLS", "linear", weights=(0.3, 0.2, 0.1, 0.05)), ((0, 1, 0, 0), 1.0)),
    "two_sat(n=10)-one-string-twice": lambda: _started(
        _ARRAY_CHAINS["two_sat(n=10)"](), ((False,) * 10, 0.25), ((True, False) * 5, 0.5),
        ((False,) * 10, 0.25)),
    "EA-leadingones(n=4,p=0.5)-shuffled": lambda: _shuffled(_ea(4, 0.5)),
    "EA-leadingones(n=6,p=0.3)-one-string": lambda: _started(_ea(6, 0.3), ((0, 1) * 3, 1.0)),
}


def _started(proc, *support):
    """proc with the start support, pairs of (state, mass)."""
    return dataclasses.replace(proc, initial_support=support)


def _shuffled(proc):
    """proc with its start support in a seeded random order."""
    support = proc.initial_support
    return _started(proc, *(support[i] for i in np.random.default_rng(0).permutation(len(support))))


@pytest.mark.parametrize("name", list(_ARRAY_CHAINS))
def test_array_chains_from_their_law_equal_the_loops(name):
    proc = _ARRAY_CHAINS[name]()
    _assert_same_chain(_law_chain(proc), _loop_chain(proc))


@pytest.mark.parametrize("name", list(_ARRAY_CHAINS))
def test_array_chains_fill_max_states_as_the_loops(name):
    # at its own state count a chain's codes outnumber max_states unless
    # its start holds every tuple, so both ways of finding a code are met
    proc = _ARRAY_CHAINS[name]()
    want = _loop_chain(proc)
    size = len(want.states)
    _assert_same_chain(to_finite_chain(dataclasses.replace(proc, exact_kernel=_no_rows),
                                       max_states=size), want)
    with pytest.raises(errors.CapacityError, match=f"max_states={size - 1}$") as exc:
        to_finite_chain(proc, max_states=size - 1)
    assert exc.value.count == size


def test_sorting_past_fifteen_entries_takes_the_loop():
    # base-16 codes of 16 entries would not fit in int64
    start = (2, 1, *range(3, 17))
    proc = _sorting(start)
    with pytest.raises(AssertionError, match="an array route reads no kernel rows"):
        _law_chain(proc)
    assert to_finite_chain(proc).states == (start, tuple(range(1, 17)))


@pytest.mark.parametrize("name", ["RLS-leadingones(n=10)", "two_sat(n=11)", "recolour(n=9)",
                                  "vertex_cover(n=9)", "EA-leadingones(n=8,p=0.1)",
                                  "sorting(n=6)", "sorting(n=7)"])
def test_array_chains_solve_bitwise_as_the_loops(name):
    proc = _ARRAY_CHAINS[name]()
    got = hitting_time_exact(to_finite_chain(proc))
    want = hitting_time_exact(_loop_chain(proc))
    assert got.per_state == want.per_state and got.from_start == want.from_start


@pytest.mark.parametrize("name", ["RLS-leadingones(n=5)", "two_sat(n=10)",
                                  "EA-leadingones(n=4,p=0.5)"])
def test_bit_chain_with_a_start_out_of_product_order_takes_the_array_route(name):
    proc = _ARRAY_CHAINS[name]()
    support = proc.initial_support
    for shuffled in (support[::-1], support[1:] + support[:1]):
        moved = _started(proc, *shuffled)
        chain = _law_chain(moved)
        assert chain.states == tuple(s for s, _ in shuffled)
        _assert_same_chain(chain, _loop_chain(moved))


@st.composite
def _flip_walks(draw):
    """A FlipBit walk on the strings of n <= 6 bits, started from all of
    them or from a non-empty list of them, repeats allowed, each entry
    with the same mass: up to three groups of bit positions a state, of
    unequal sizes or none, an optional fitness with ties and an optional
    target set."""
    n = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.sampled_from([(0, 1), (False, True)]))
    strings = list(itertools.product(values, repeat=n))
    group = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    table = {s: tuple(map(tuple, draw(st.lists(group, max_size=3)))) for s in strings}
    scores = draw(st.none() | st.lists(st.integers(min_value=0, max_value=2),
                                       min_size=len(strings), max_size=len(strings)))
    fitness = None if scores is None else dict(zip(strings, scores)).__getitem__
    hits = draw(st.none() | st.sets(st.sampled_from(strings)))
    starts = draw(st.just(strings)
                  | st.lists(st.sampled_from(strings), min_size=1, max_size=len(strings) + 2))
    law = UniformPick(table.__getitem__, processes.FlipBit(values, fitness),
                      None if hits is None else hits.__contains__)
    return processes._pick_process("flip-walk", law, lambda rng: starts[0], lambda s: 0.0,
                                   tuple((s, 1.0 / len(starts)) for s in starts))


@st.composite
def _swap_walks(draw):
    """A SwapInversion walk from a random permutation of n <= 6 entries:
    up to three groups of position pairs a state, chosen by its first
    entry, with pairs in either order, equal, negative or repeated
    positions, and an optional target set."""
    n = draw(st.integers(min_value=1, max_value=6))
    start = tuple(draw(st.permutations(range(n))))
    position = st.integers(min_value=-n, max_value=n - 1)
    group = st.lists(st.tuples(position, position), min_size=1, max_size=4)
    table = draw(st.lists(st.lists(group, max_size=3), min_size=n, max_size=n))
    hits = draw(st.none() | st.sets(st.permutations(range(n)).map(tuple), max_size=3))
    law = UniformPick(lambda perm: table[perm[0]], processes.SwapInversion(),
                      None if hits is None else hits.__contains__)
    return processes._pick_process("swap-walk", law, lambda rng: start, lambda s: 0.0,
                                   ((start, 1.0),))


@settings(max_examples=100, deadline=None)
@given(proc=_flip_walks() | _swap_walks())
def test_random_pick_walks_from_their_law_equal_the_loops(proc):
    _assert_same_chain(_law_chain(proc), _loop_chain(proc))
