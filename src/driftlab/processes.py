"""Stochastic process catalog and exact finite-chain extraction.

A Process couples a sampleable Markov process with a real-valued view
(the scalar sequence X_t) and a target predicate defining the hitting
time T = inf{t : X_t hits the target}.  Every catalog process that
admits a tractable exact transition kernel carries one, so that the
oracle module can solve for expected hitting times without sampling.
"""

import inspect
import operator
from dataclasses import dataclass
from itertools import chain, compress, product, repeat
from math import comb
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ParameterError, StructureError, UnsupportedError

State = Any
Kernel = Callable[[State], list[tuple[State, float]]]


@dataclass(frozen=True, eq=False)
class KernelDraw:
    """step(state, rng) is one _categorical draw over kernel(state):
    one rng.random() per step, compared with the running sum of the row
    in row order."""

    kernel: Kernel


@dataclass(frozen=True)
class BitFlipEA:
    """step is the (1+1) EA over tuples of n 0/1 ints: one
    rng.random(n) per step, bit i flips where its uniform is below p,
    and the offspring is kept when its fitness is not lower.  The exact
    kernel (n <= 10) gives each flip mask m mass p^|m| (1-p)^(n-|m|).
    The target is the all-ones string; distance is the value view
    make_ea_process built (n - LeadingOnes, or the zero bits' weight)."""

    n: int
    p: float
    fitness: Callable[[State], float]
    distance: Callable[[State], float]


@dataclass(frozen=True, eq=False)
class UniformPick:
    """step picks one of groups(state) uniformly, then one entry of that
    group uniformly, and returns move(state, entry).  Its draws are
    rng.integers(len(groups)), left out when there is one group (numpy's
    integers(1) draws nothing), then rng.integers(len(group)); with no
    groups the state stays and nothing is drawn.  The exact kernel gives
    each entry mass 1/(len(groups)·len(group)), summed per successor in
    pick order.  target(state) is the target predicate; None means a
    state is a target exactly when it has no groups.  groups must be a
    pure function of the state, so the process may compute them once
    per state for its target, its step and its kernel.  regroup(groups,
    entry, succ), optional, must return exactly groups(succ), as a list
    in the same order, whenever groups is groups(state) and succ is
    move(state, entry); step then hands the successor's groups on
    without a scan."""

    groups: Callable[[State], Sequence[Sequence]]
    move: Callable[[State, Any], State]
    target: Optional[Callable[[State], bool]] = None
    regroup: Optional[Callable[[Sequence, Any, State], Sequence]] = None


@dataclass(frozen=True, eq=False)
class FlipBit:
    """The move of a UniformPick walk on tuples whose entries are the two
    values: move(bits, i) switches entry i to the other value.  With a
    fitness, the flipped tuple is kept only when its fitness is not lower
    (RLS), else bits stays.  Read as the binary number x of its entries'
    ranks, a tuple of n entries flipped at i is x ^ (1 << (n-1-i)), which
    to_finite_chain uses."""

    values: tuple
    fitness: Optional[Callable[[State], float]] = None

    def __call__(self, bits: tuple, i: int) -> tuple:
        values = self.values
        cand = bits[:i] + (values[bits[i] == values[0]],) + bits[i + 1:]
        fitness = self.fitness
        if fitness is None or fitness(cand) >= fitness(bits):
            return cand
        return bits


@dataclass(frozen=True)
class SwapInversion:
    """The move of a UniformPick walk on tuples of n distinct entries:
    move(perm, (i, j)) swaps entries i and j when perm[i] > perm[j], else
    returns perm.  Read as the base-n number of its entries' ranks, a
    tuple whose entries i and j swap gains (rank[j] - rank[i]) *
    (n^(n-1-i) - n^(n-1-j)), which to_finite_chain uses."""

    def __call__(self, perm: tuple, pair) -> tuple:
        i, j = pair
        if perm[i] <= perm[j]:
            return perm
        lst = list(perm)
        lst[i], lst[j] = lst[j], lst[i]
        return tuple(lst)


@dataclass(frozen=True)
class Process:
    """A sampleable stochastic process with a scalar view and a target.

    Fields
    ------
    name : str
        Human-readable identifier, used in reports.
    sample_initial : callable(rng) -> state
        Draws a start state from the initial distribution.
    step : callable(state, rng) -> state
        One transition; deterministic given the randomness stream.
    value : callable(state) -> float
        The scalar view X_t (distance to target for catalog processes).
    is_target : callable(state) -> bool
        Target predicate defining T.
    exact_kernel : callable(state) -> [(state, prob)], optional
        Exact one-step distribution; present when tractable.
    initial_support : tuple of (state, prob), optional
        Explicit initial distribution, needed for exact solving.
    step_law : KernelDraw, BitFlipEA or UniformPick, optional
        How step uses its randomness.  montecarlo steps many trials at
        once with the same draws for KernelDraw (simple and distance
        chains) and BitFlipEA on LeadingOnes.  A BitFlipEA process (the
        (1+1) EA on leadingones and linear) gets is_target, step and,
        for n <= 10, exact_kernel from its law, and so does a
        UniformPick walk (recolour, vertex cover, 2-SAT, sorting, RLS on
        bit strings), whose three compute the groups of a state once
        between them.  The rest are stepped trial by trial, as is None,
        where only step itself says.  to_finite_chain builds the chain
        of a BitFlipEA, or of a UniformPick walk with a FlipBit move
        (RLS, 2-SAT, recolour, vertex cover) or a SwapInversion move
        (sorting), by one array route from integer codes of its states,
        reading the law itself; the KernelDraw chains keep its loop over
        exact_kernel.  lift keeps the law; a process given another step,
        target or kernel must drop it.
    """

    name: str
    sample_initial: Callable[[np.random.Generator], State]
    step: Callable[[State, np.random.Generator], State]
    value: Callable[[State], float]
    is_target: Callable[[State], bool]
    exact_kernel: Optional[Kernel] = None
    initial_support: Optional[tuple[tuple[State, float], ...]] = None
    step_law: Union[KernelDraw, BitFlipEA, UniformPick, None] = None


def _rows_of(indptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry of CSR arrays with this indptr."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Explicit finite-state chain with absorbing targets.

    states is an indexed list of (hashable) state labels, kernel a
    row-stochastic matrix (kept as a canonical csr_array of its positive
    entries; other 2-D input is converted on a copy), start a probability
    vector over states and targets the set of absorbing target indices.
    This is the one place that canonicalises and checks a kernel: the
    copy sums duplicate entries, sorts each row by column and drops
    zeros; a negative or non-finite entry is named, and so is the row
    that sums furthest from 1 when any misses it by more than 1e-12.
    """

    states: tuple
    kernel: "scipy.sparse.csr_array"
    start: np.ndarray
    targets: frozenset

    def __post_init__(self):
        import scipy.sparse

        n = len(self.states)
        kernel = self.kernel
        if kernel.shape != (n, n):
            raise StructureError("kernel shape does not match state count")
        if not (isinstance(kernel, scipy.sparse.csr_array) and kernel.has_canonical_format
                and kernel.data.all()):
            kernel = scipy.sparse.csr_array(kernel, dtype=float, copy=True)
            kernel.sum_duplicates()
            kernel.eliminate_zeros()
            object.__setattr__(self, "kernel", kernel)
        if np.shape(self.start) != (n,):
            raise StructureError(f"start vector has shape {np.shape(self.start)}, not ({n},)")
        # entry k belongs to the state whose end is the first one past k
        for what, probs, ends in (("kernel entry", kernel.data, kernel.indptr[1:]),
                                  ("start probability", self.start, np.arange(1, n + 1))):
            ok = (probs >= 0.0) & (probs < np.inf)
            if not ok.all():
                k = int(np.argmin(ok))
                state = self.states[int(np.searchsorted(ends, k, "right"))]
                raise StructureError(f"{what} at state {state!r} is {float(probs[k])!r}",
                                     offender=state)
        rows = _rows_of(kernel.indptr)
        sums = np.bincount(rows, weights=kernel.data, minlength=n)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise StructureError(
                f"kernel row at {self.states[bad]!r} sums to {float(sums[bad])!r}",
                offender=self.states[bad],
            )
        if abs(self.start.sum() - 1.0) > 1e-12:
            raise StructureError("start vector does not sum to 1")
        on_diagonal = kernel.indices == rows
        diagonal = np.zeros(n)
        diagonal[rows[on_diagonal]] = kernel.data[on_diagonal]
        for t in sorted(self.targets):
            if not 0 <= t < n:
                raise StructureError(f"target index {t} outside [0..{n - 1}]", offender=t)
            if abs(diagonal[t] - 1.0) > 1e-12:
                raise StructureError(
                    f"target state {self.states[t]!r} is not absorbing",
                    offender=self.states[t],
                )

    def index_of(self, state) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise StructureError(f"state {state!r} not in chain", offender=state)


@dataclass(frozen=True)
class GraphInstance:
    """Undirected graph with optional planted structure.

    coloring, when present, is a proper 3-coloring (class index per
    vertex); cover, when present, is a minimum vertex cover.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    coloring: Optional[tuple[int, ...]] = None
    cover: Optional[frozenset] = None

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise StructureError(f"edge ({u}, {v}) references invalid vertices")
        if self.coloring is not None:
            if len(self.coloring) != self.n:
                raise StructureError("coloring length does not match vertex count")
            for (u, v) in self.edges:
                if self.coloring[u] == self.coloring[v]:
                    raise StructureError(
                        f"planted coloring is not proper on edge ({u}, {v})",
                        offender=(u, v),
                    )


@dataclass(frozen=True)
class CnfInstance:
    """2-CNF formula with a planted satisfying assignment.

    Clauses are pairs of literals (variable index, polarity); polarity
    True means the positive literal.
    """

    n: int
    clauses: tuple[tuple[tuple[int, bool], tuple[int, bool]], ...]
    assignment: tuple[bool, ...]

    def __post_init__(self):
        if len(self.assignment) != self.n:
            raise StructureError("assignment length does not match variable count")
        for clause in self.clauses:
            if len(clause) != 2:
                raise StructureError("clause does not have exactly 2 literals")
            (v1, _), (v2, _) = clause
            if v1 == v2:
                raise StructureError(f"clause {clause} repeats a variable")
            if not (0 <= v1 < self.n and 0 <= v2 < self.n):
                raise StructureError(f"clause {clause} references invalid variables")
            if not _clause_satisfied(clause, self.assignment):
                raise StructureError(
                    f"planted assignment violates clause {clause}", offender=clause
                )


def _clause_satisfied(clause, assignment) -> bool:
    return any(assignment[var] == polarity for (var, polarity) in clause)


def _categorical(rng: np.random.Generator, pairs):
    """Sample from a finite distribution given as (outcome, prob) pairs."""
    u = rng.random()
    acc = 0.0
    for outcome, p in pairs:
        acc += p
        if u < acc:
            return outcome
    return pairs[-1][0]


def _whole(spec: str, key: str, value) -> int:
    """A size parameter as an int; a non-integral value is an error naming it."""
    if isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ParameterError(f"{spec} parameter {key!r} must be a whole number, got {value!r}")


def _natural(spec: str, key: str, value, least: int = 0) -> int:
    """A whole parameter as an int; a fractional one, or one below least,
    is a ParameterError naming the entry and the parameter.  SeedSequence
    takes seeds and spawn keys (trials) >= 0."""
    value = _whole(spec, key, value)
    if value < least:
        bound = f"at least {least}" if least else "non-negative"
        raise ParameterError(f"{spec} parameter {key!r} must be {bound}, got {value}")
    return value


def _chain_process(name, kernel_map, start_pairs, value, is_target) -> Process:
    """Assemble a Process from an explicit kernel over hashable states."""

    def step(state, rng):
        return _categorical(rng, kernel_map(state))

    def sample_initial(rng):
        return _categorical(rng, start_pairs)

    return Process(
        name=name,
        sample_initial=sample_initial,
        step=step,
        value=value,
        is_target=is_target,
        exact_kernel=kernel_map,
        initial_support=tuple(start_pairs),
        step_law=KernelDraw(kernel_map),
    )


def _pick_process(name, law: UniformPick, sample_initial, value,
                  initial_support=None) -> Process:
    """Assemble a Process whose target, step and exact kernel all follow
    law.  They share one memo of law.groups for the state asked about
    last, matched by identity: the loop asks is_target and then step of
    a state, to_finite_chain asks is_target and then exact_kernel, so
    each visited state's groups are computed once.  With law.regroup,
    step leaves the memo on its successor, which the loop asks about
    next, so a walk scans only its start.  The memo holds its state, so
    no other state can take that state's id."""
    last = [object(), ()]
    move, regroup = law.move, law.regroup
    if not inspect.isfunction(move):
        move = move.__call__  # a typed move's bound method skips the instance's call slot

    def groups(state):
        if state is not last[0]:
            last[:] = state, law.groups(state)
        return last[1]

    def step(state, rng):
        found = groups(state)
        if not found:
            return state
        # the draws index as they are: numpy's ints and _RawDraws' alike
        group = found[rng.integers(len(found))] if len(found) > 1 else found[0]
        entry = group[rng.integers(len(group))]
        succ = move(state, entry)
        if regroup is not None:
            last[:] = succ, regroup(found, entry, succ)
        return succ

    def exact_kernel(state):
        found = groups(state)
        if not found:
            return [(state, 1.0)]
        row: dict = {}
        for group in found:
            p = 1.0 / (len(found) * len(group))
            for entry in group:
                succ = move(state, entry)
                row[succ] = row.get(succ, 0.0) + p
        return list(row.items())

    return Process(
        name=name,
        sample_initial=sample_initial,
        step=step,
        value=value,
        is_target=law.target or (lambda state: not groups(state)),
        exact_kernel=exact_kernel,
        initial_support=initial_support,
        step_law=law,
    )


def _uniform_bits(n: int, values: tuple):
    """(sample_initial, support) of a uniform string of n entries drawn
    from the two values: one rng.integers(0, 2, size=n) per start.  The
    support is enumerated only where that is sensible, for n <= 12;
    larger instances rely on sampling and get None."""

    def sample_initial(rng):
        return tuple(values[b] for b in rng.integers(0, 2, size=n).tolist())

    if n > 12:
        return sample_initial, None
    prob = 0.5**n
    return sample_initial, tuple((bits, prob) for bits in product(values, repeat=n))


# ---------------------------------------------------------------------------
# Simple chain catalog
# ---------------------------------------------------------------------------

def make_simple_chain(kind: str, **params) -> Process:
    """Construct one of the elementary catalog chains.

    Supported kinds: coupon(n), generalized_coupon(n, p), geometric(p),
    winning_streak(k), gamblers_ruin(n), fair_walk_reflecting(n),
    rumor(n), updrift(n, k, delta).  States are integers; value is the
    natural distance to the target (missing coupons, remaining streak,
    coins to a barrier, uninformed people, missing population).  A key
    the kind does not take, or a missing one, is an error naming it.
    """
    if kind not in _SIMPLE_CHAINS:
        raise ParameterError(
            f"unknown chain kind {kind!r}; expected one of {sorted(_SIMPLE_CHAINS)}"
        )
    builder = _SIMPLE_CHAINS[kind]
    keys = inspect.signature(builder).parameters
    for key in params:
        if key not in keys:
            raise ParameterError(f"{kind} takes no parameter {key!r}; it takes {', '.join(keys)}")
    for key in keys:
        if key not in params:
            raise ParameterError(f"{kind} needs parameter {key!r}")
    for key in ("n", "k"):
        if key in params:
            params[key] = _whole(kind, key, params[key])
    return builder(**params)


def _coupon(n: int) -> Process:
    if n < 1:
        raise ParameterError("coupon requires n >= 1")

    def kernel(d):
        if d <= 0:
            return [(0, 1.0)]
        if d == n:
            return [(d - 1, 1.0)]
        return [(d - 1, d / n), (d, 1.0 - d / n)]

    return _chain_process(
        f"coupon(n={n})", kernel, [(n, 1.0)],
        value=float, is_target=lambda d: d == 0,
    )


def _generalized_coupon(n: int, p: float) -> Process:
    # each of the d missing coupons is obtained independently with
    # probability p in every round
    if n < 1:
        raise ParameterError("generalized_coupon requires n >= 1")
    if not (0.0 < p <= 1.0):
        raise ParameterError("generalized_coupon requires p in (0, 1]")

    def kernel(d):
        if d <= 0:
            return [(0, 1.0)]
        return [
            (d - j, comb(d, j) * p**j * (1.0 - p) ** (d - j))
            for j in range(d + 1)
        ]

    return _chain_process(
        f"generalized_coupon(n={n},p={p})", kernel, [(n, 1.0)],
        value=float, is_target=lambda d: d == 0,
    )


def _geometric(p: float) -> Process:
    if not (0.0 < p <= 1.0):
        raise ParameterError("geometric requires p in (0, 1]")

    def kernel(s):
        if s == 0:
            return [(0, 1.0)]
        if p >= 1.0:
            return [(0, 1.0)]
        return [(0, p), (1, 1.0 - p)]

    return _chain_process(
        f"geometric(p={p})", kernel, [(1, 1.0)],
        value=float, is_target=lambda s: s == 0,
    )


def _winning_streak(k: int) -> Process:
    # state = current streak length; a fair coin either extends the
    # streak or resets it to 0
    if k < 1:
        raise ParameterError("winning_streak requires k >= 1")

    def kernel(i):
        if i >= k:
            return [(k, 1.0)]
        return [(i + 1, 0.5), (0, 0.5)]

    return _chain_process(
        f"winning_streak(k={k})", kernel, [(0, 1.0)],
        value=lambda i: float(k - i), is_target=lambda i: i >= k,
    )


def _gamblers_ruin(n: int) -> Process:
    # fair coin walk on [0..2n] started at n, both barriers absorbing
    if n < 1:
        raise ParameterError("gamblers_ruin requires n >= 1")

    def kernel(s):
        if s == 0 or s == 2 * n:
            return [(s, 1.0)]
        return [(s - 1, 0.5), (s + 1, 0.5)]

    return _chain_process(
        f"gamblers_ruin(n={n})", kernel, [(n, 1.0)],
        value=lambda s: float(min(s, 2 * n - s)),
        is_target=lambda s: s == 0 or s == 2 * n,
    )


def _fair_walk_reflecting(n: int) -> Process:
    # fair walk on [0..n]; 0 is reflective (moves to 1 surely), n absorbs
    if n < 1:
        raise ParameterError("fair_walk_reflecting requires n >= 1")

    def kernel(s):
        if s == n:
            return [(n, 1.0)]
        if s == 0:
            return [(1, 1.0)]
        return [(s - 1, 0.5), (s + 1, 0.5)]

    return _chain_process(
        f"fair_walk_reflecting(n={n})", kernel, [(0, 1.0)],
        value=lambda s: float(n - s), is_target=lambda s: s == n,
    )


def _rumor(n: int) -> Process:
    # state = number of informed people; a uniformly chosen person calls
    # a uniformly chosen other person
    if n < 2:
        raise ParameterError("rumor requires n >= 2")

    def kernel(i):
        if i >= n:
            return [(n, 1.0)]
        p = (n - i) * i / (n * (n - 1))
        return [(i + 1, p), (i, 1.0 - p)]

    return _chain_process(
        f"rumor(n={n})", kernel, [(1, 1.0)],
        value=lambda i: float(n - i), is_target=lambda i: i >= n,
    )


def _updrift(n: int, k: int, delta: float) -> Process:
    # population of x individuals among k: from 0 one individual appears,
    # otherwise each of the k is present with probability (1+delta)x/k;
    # the target is a population of at least n.  It has no exact kernel.
    if n < 1:
        raise ParameterError("updrift requires n >= 1")
    if n > k:
        raise ParameterError("updrift requires n <= k")
    if not delta > 0.0:
        raise ParameterError("updrift requires delta > 0")

    def step(x, rng):
        return 1 if x == 0 else int(rng.binomial(k, min(1.0, (1.0 + delta) * x / k)))

    return Process(
        name=f"updrift(n={n},k={k},delta={delta})",
        sample_initial=lambda rng: 0,
        step=step,
        value=lambda x: float(max(n - x, 0)),
        is_target=lambda x: x >= n,
    )


# kind -> builder; the builders' signatures are the keys each kind takes
_SIMPLE_CHAINS = {
    "coupon": _coupon,
    "generalized_coupon": _generalized_coupon,
    "geometric": _geometric,
    "winning_streak": _winning_streak,
    "gamblers_ruin": _gamblers_ruin,
    "fair_walk_reflecting": _fair_walk_reflecting,
    "rumor": _rumor,
    "updrift": _updrift,
}


# ---------------------------------------------------------------------------
# Randomized local search and the (1+1) EA
# ---------------------------------------------------------------------------

def _binomial_start(n: int):
    """Exact distribution of the Hamming distance of a uniform start."""
    total = 2.0**n
    return tuple((d, comb(n, d) / total) for d in range(n + 1))


def _plateau_fitness(d: int, n: int, k: int) -> int:
    # fitness as a function of Hamming distance d to the optimum: the
    # optimum and all points outside the plateau score n - d, the
    # plateau ring 1 <= d < k scores n - k
    if d == 0 or d >= k:
        return n - d
    return n - k


def _binom_pmf_row(m: int, p: float) -> np.ndarray:
    q = 1.0 - p
    return np.array([comb(m, j) * p**j * q ** (m - j) for j in range(m + 1)])


def _distance_kernel(flips, fitness: Callable[[int], int]) -> Kernel:
    """Projected kernel of a mutation with greedy selection on Hamming
    distance, valid whenever the fitness depends on the bit string only
    through the distance.  flips(d) lists the mutation's outcomes from
    distance d as (zeros corrected, ones destroyed, prob)."""

    cache: dict[int, list] = {}

    def kernel(d):
        if d in cache:
            return cache[d]
        masses: dict[int, float] = {}
        f_cur = fitness(d)
        for b, a, prob in flips(d):
            if prob == 0.0:
                continue
            cand = d - b + a
            succ = cand if fitness(cand) >= f_cur else d
            masses[succ] = masses.get(succ, 0.0) + prob
        row = sorted(masses.items())
        cache[d] = row
        return row

    return kernel


def _leading_ones(bits: tuple) -> int:
    lo = 0
    for b in bits:
        if b != 1:
            break
        lo += 1
    return lo


def make_ea_process(
    algorithm: str,
    objective: str,
    n: Optional[int] = None,
    k: Optional[int] = None,
    weights: Optional[tuple] = None,
    mutation_rate: Optional[float] = None,
) -> Process:
    """Construct RLS or the (1+1) EA on a benchmark objective.

    algorithm is "RLS" (flips exactly one uniformly chosen bit) or
    "OnePlusOneEA" (flips each bit independently with the mutation
    rate, default 1/n).  Offspring are accepted on ties, matching the
    greedy selection rule f(y) >= f(x).

    objective is one of "onemax", "leadingones", "plateau" (requires
    k) or "linear" (requires strictly decreasing positive weights).
    The value view is the distance to the optimum: n minus fitness for
    onemax and leadingones, Hamming distance for plateau, and the
    weighted gap for linear.

    onemax and plateau are tracked through their Hamming distance,
    which is an exact Markov projection by symmetry; leadingones and
    linear keep the full bit string as state.
    """
    if algorithm not in ("RLS", "OnePlusOneEA"):
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    if objective not in ("onemax", "leadingones", "plateau", "linear"):
        raise ParameterError(
            f"unknown objective {objective!r}; expected onemax, leadingones, plateau or linear"
        )
    spec = f"{algorithm}-{objective}"
    if objective == "linear":
        if weights is None:
            raise ParameterError("linear objective requires weights")
        weights = tuple(float(w) for w in weights)
        if n is not None and _whole(spec, "n", n) != len(weights):
            raise ParameterError(f"{spec} has n={n} but {len(weights)} weights")
        n = len(weights)
        if any(w <= 0 for w in weights):
            raise ParameterError("linear weights must be positive")
        if any(weights[i] <= weights[i + 1] for i in range(n - 1)):
            raise ParameterError("linear weights must be strictly decreasing")
    if algorithm == "RLS" and mutation_rate is not None:
        raise ParameterError(f"{spec} takes no mutation rate; RLS flips exactly one bit")
    if objective != "plateau" and k is not None:
        raise ParameterError(f"{spec} takes no k; only plateau has a radius k")
    n = None if n is None else _whole(spec, "n", n)
    if n is None or n < 1:
        raise ParameterError("objective requires n >= 1")
    if objective == "plateau":
        k = None if k is None else _whole(spec, "k", k)
        if k is None or not (2 <= k <= n):
            raise ParameterError("plateau requires 2 <= k <= n")
    if algorithm == "OnePlusOneEA":
        p = 1.0 / n if mutation_rate is None else float(mutation_rate)
        if not (0.0 < p < 1.0):
            raise ParameterError("mutation_rate must lie in (0, 1)")
    else:
        p = None

    name = f"{algorithm}-{objective}(n={n}"
    if objective == "plateau":
        name += f",k={k}"
    if algorithm == "OnePlusOneEA":
        name += f",p={p!r}"
    name += ")"

    if objective in ("onemax", "plateau"):
        # distance-chain representation
        if objective == "onemax":
            fitness = lambda d: n - d
        else:
            fitness = lambda d: _plateau_fitness(d, n, k)

        if algorithm == "RLS":
            # one bit flips: one of the n - d ones, or one of the d zeros
            def flips(d):
                return [(0, 1, (n - d) / n), (1, 0, d / n)]
        else:
            # independent flips: b of the d zeros and a of the n - d ones
            def flips(d):
                probs = np.outer(_binom_pmf_row(d, p), _binom_pmf_row(n - d, p)).tolist()
                return [(b, a, q) for b, row in enumerate(probs) for a, q in enumerate(row)]
        kernel = _distance_kernel(flips, fitness)

        return _chain_process(
            name, kernel, _binomial_start(n),
            value=float, is_target=lambda d: d == 0,
        )

    # full bit-string representations
    if objective == "leadingones":
        fitness_bits = _leading_ones
        value = lambda bits: float(n - _leading_ones(bits))
    else:  # linear
        def fitness_bits(bits):
            return sum(w for w, b in zip(weights, bits) if b)

        def value(bits):
            return float(sum(w for w, b in zip(weights, bits) if not b))

    optimum = (1,) * n
    is_target = lambda bits: bits == optimum
    sample_initial, support = _uniform_bits(n, (0, 1))

    if algorithm == "RLS":
        every_bit = (range(n),)
        return _pick_process(
            name, UniformPick(lambda bits: every_bit, FlipBit((0, 1), fitness_bits), is_target),
            sample_initial, value, support,
        )
    return _bit_flip_process(name, BitFlipEA(n, p, fitness_bits, value), sample_initial, support)


def _mask_tables(law: BitFlipEA, strings) -> tuple[np.ndarray, np.ndarray]:
    """The fitness of each of the 2^n strings, given in product order, and
    the mass of each flip mask m, so that string x with the flips of m is
    string x ^ m."""
    flips = np.array(strings).sum(axis=1)
    return (np.array([law.fitness(s) for s in strings]),
            law.p**flips * (1.0 - law.p) ** (law.n - flips))


def _mask_row(fit: np.ndarray, mass: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The successors of string x under the (1+1) EA, ascending, and
    their masses: each mask's mass summed per successor in mask order."""
    cand = np.arange(len(fit)) ^ x
    row = np.bincount(np.where(fit[cand] >= fit[x], cand, x), mass, len(fit))
    succ = np.flatnonzero(row)
    return succ, row[succ]


def _bit_flip_process(name, law: BitFlipEA, sample_initial, initial_support) -> Process:
    """Assemble a Process whose target, step and, for n <= 10, exact
    kernel follow law.  The kernel's tables are built on its first call."""
    n, p, fitness = law.n, law.p, law.fitness
    optimum = (1,) * n
    tables = []

    def step(bits, rng):
        mask = rng.random(n) < p
        if not mask.any():
            return bits
        cand = tuple(int(b) ^ int(m) for b, m in zip(bits, mask))
        return cand if fitness(cand) >= fitness(bits) else bits

    def exact_kernel(bits):
        if not tables:
            strings = list(product((0, 1), repeat=n))
            tables[:] = strings, {s: x for x, s in enumerate(strings)}, *_mask_tables(law, strings)
        strings, index, fit, mass = tables
        succ, probs = _mask_row(fit, mass, index[bits])
        return list(zip([strings[y] for y in succ.tolist()], probs.tolist()))

    return Process(
        name=name,
        sample_initial=sample_initial,
        step=step,
        value=law.distance,
        is_target=lambda bits: bits == optimum,
        exact_kernel=exact_kernel if n <= 10 else None,
        initial_support=initial_support,
        step_law=law,
    )


# ---------------------------------------------------------------------------
# Graph and formula processes
# ---------------------------------------------------------------------------

def _triangles(instance: GraphInstance) -> tuple[tuple[int, int, int], ...]:
    adj = [set() for _ in range(instance.n)]
    for (u, v) in instance.edges:
        adj[u].add(v)
        adj[v].add(u)
    tris = []
    for (u, v) in instance.edges:
        a, b = min(u, v), max(u, v)
        for w in adj[a] & adj[b]:
            if w > b:
                tris.append((a, b, w))
    return tuple(sorted(tris))


def make_graph_process(kind: str, instance: GraphInstance) -> Process:
    """Construct the recolouring walk or the greedy vertex-cover process.

    recolour: states are 2-colorings; while a monochromatic triangle
    exists, one is chosen uniformly and one of its vertices (uniform)
    has its color flipped.  The value is the agreement count with the
    planted coloring on the union U of its first two classes, and the
    state is a target once no monochromatic triangle remains.  Total or
    zero agreement on U implies that, because every triangle has one
    vertex in each planted class.

    vertex_cover: states are 0/1 tuples over the vertices, 1 for a
    chosen vertex, starting from none; while an uncovered edge exists,
    one is chosen uniformly and a uniform endpoint is chosen too (a
    FlipBit of an unchosen vertex).  The value counts planted-cover
    vertices still missing.
    """
    if kind == "recolour":
        return _make_recolour(instance)
    if kind == "vertex_cover":
        return _make_vertex_cover(instance)
    raise ParameterError(f"unknown graph process kind {kind!r}")


def _make_recolour(instance: GraphInstance) -> Process:
    if instance.coloring is None:
        raise ParameterError("recolour requires a planted 3-coloring")
    n = instance.n
    tris = _triangles(instance)
    chi = instance.coloring
    u_set = tuple(v for v in range(n) if chi[v] in (0, 1))
    u_size = len(u_set)
    through = [[] for _ in range(n)]  # the triangles at each vertex, in tris order
    for t in tris:
        for v in t:
            through[v].append(t)

    def mono(coloring):
        return [
            t for t in tris
            if coloring[t[0]] == coloring[t[1]] == coloring[t[2]]
        ]

    def regroup(found, v, coloring):
        # flipping v breaks every monochromatic triangle through v and can
        # make only triangles through v monochromatic; tris is sorted, so
        # sorting restores its order
        kept = [t for t in found if v not in t]
        made = [t for t in through[v] if coloring[t[0]] == coloring[t[1]] == coloring[t[2]]]
        return sorted(kept + made)

    def agreement(coloring):
        # vertices of U whose current binary color matches the planted class
        return sum(1 for v in u_set if coloring[v] == chi[v])

    def value(coloring):
        # the agreement walk itself; absorbing at 0 and u_size, so the
        # generic value <= 0 target convention does not apply here
        return float(agreement(coloring))

    sample_initial, support = _uniform_bits(n, (0, 1))
    law = UniformPick(mono, FlipBit((0, 1)), regroup=regroup)
    return _pick_process(f"recolour(n={n})", law, sample_initial, value, support)


def _make_vertex_cover(instance: GraphInstance) -> Process:
    if instance.cover is None:
        raise ParameterError("vertex_cover requires a planted minimum cover")
    cover = instance.cover
    edges = instance.edges

    def uncovered(chosen):
        return [e for e in edges if not chosen[e[0]] and not chosen[e[1]]]

    def value(chosen):
        # the built process's is_target shares its memo of uncovered edges
        return 0.0 if process.is_target(chosen) else float(sum(1 - chosen[v] for v in cover))

    # an uncovered edge's endpoints are unchosen, so a flip adds one
    start = (0,) * instance.n
    process = _pick_process(
        f"vertex_cover(n={instance.n})", UniformPick(uncovered, FlipBit((0, 1))),
        lambda rng: start, value, ((start, 1.0),),
    )
    return process


def make_two_sat_process(instance: CnfInstance) -> Process:
    """Random walk on assignments of a satisfiable 2-CNF formula.

    While some clause is unsatisfied, the lowest-index such clause is
    selected and one of its two variables (uniform) is flipped.  The
    value view is n minus the agreement count with the planted
    assignment; the target is any satisfying assignment.
    """
    n = instance.n
    clauses = instance.clauses
    planted = instance.assignment
    # a clause as its two literals and its groups: its variables, as one group
    rows = tuple((a, pa, b, pb, ((a, b),)) for (a, pa), (b, pb) in clauses)

    def unsat_variables(assignment):
        # the groups of the first unsatisfied clause
        for a, pa, b, pb, groups in rows:
            if assignment[a] != pa and assignment[b] != pb:
                return groups
        return ()

    def value(assignment):
        agree = sum(1 for a, b in zip(assignment, planted) if a == b)
        return float(n - agree)

    sample_initial, support = _uniform_bits(n, (False, True))
    return _pick_process(
        f"two_sat(n={n},m={len(clauses)})", UniformPick(unsat_variables, FlipBit((False, True))),
        sample_initial, value, support,
    )


def make_sorting_process(n: int, start: tuple) -> Process:
    """Random-swap sorting: pick two positions uniformly, swap them if
    they form an inversion.  The value is the inversion count."""
    n = _whole("sorting", "n", n)
    if n < 2:
        raise ParameterError("sorting requires n >= 2")
    start = tuple(start)
    if sorted(start) != list(range(1, n + 1)) and sorted(start) != list(range(n)):
        raise ParameterError("start must be a permutation of [n]")

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    every_pair = (pairs,)
    goal = tuple(sorted(start))  # the one permutation without inversions

    def inversions(perm):
        return sum(1 for i, j in pairs if perm[i] > perm[j])

    law = UniformPick(lambda perm: every_pair, SwapInversion(), lambda perm: perm == goal)
    return _pick_process(
        f"sorting(n={n})", law, lambda rng: start, lambda perm: float(inversions(perm)),
        ((start, 1.0),),
    )


# ---------------------------------------------------------------------------
# Finite-chain extraction
# ---------------------------------------------------------------------------

def to_finite_chain(process: Process, max_states: int = 10_000) -> FiniteChain:
    """Enumerate the reachable state space of a kernel-backed process.

    Breadth-first exploration from the support of the initial
    distribution; target states are made absorbing.  Each row is handed
    to FiniteChain as the kernel lists it, less its zero entries, and
    FiniteChain checks it.  Raises a capacity error once more than
    max_states states have been discovered, the start's among them.

    One array route, _code_chain, builds the same chain, array for
    array, for a BitFlipEA and for a UniformPick walk with a FlipBit or
    SwapInversion move, whenever every start state is a tuple of n
    entries over k values with k^n < 2^63: 0 and 1 for the EA, the
    FlipBit's two values, or for a swap walk the n distinct entries of
    its first start, which every start state must order.  The kernel
    chains and every other process or start take the loop.
    """
    if process.exact_kernel is None:
        raise UnsupportedError(f"{process.name} has no exact kernel")
    if process.initial_support is None:
        raise UnsupportedError(f"{process.name} has no explicit initial distribution")
    built = _code_chain(process, max_states)
    if built is not None:
        return built

    index: dict = {}
    order: list = []
    for state, _ in process.initial_support:
        if state not in index:
            if len(order) >= max_states:
                raise _too_many(max_states)
            index[state] = len(order)
            order.append(state)
    cols: list[int] = []
    probs: list[float] = []
    ends = [0]
    targets = []
    # the loop reaches the states appended to order while it runs, so it
    # visits them breadth-first and appends their rows in index order
    for state in order:
        if process.is_target(state):
            targets.append(len(ends) - 1)
            row = ((state, 1.0),)
        else:
            row = process.exact_kernel(state)
        for succ, p in row:
            # a zero-mass successor is not reached, so it is no state
            if p == 0.0:
                continue
            j = index.get(succ)
            if j is None:
                if len(order) >= max_states:
                    raise _too_many(max_states)
                j = index[succ] = len(order)
                order.append(succ)
            cols.append(j)
            probs.append(p)
        ends.append(len(cols))

    import scipy.sparse

    m = len(order)
    kernel = scipy.sparse.csr_array((probs, cols, ends), shape=(m, m), dtype=float)
    start = np.zeros(m)
    for state, p in process.initial_support:
        start[index[state]] += p
    return FiniteChain(
        states=tuple(order), kernel=kernel, start=start, targets=frozenset(targets)
    )


def _too_many(max_states: int) -> CapacityError:
    return CapacityError(f"state space exceeds max_states={max_states}", count=max_states + 1)


def _code_chain(process: Process, max_states: int) -> Optional[FiniteChain]:
    """The chain to_finite_chain's loop would build for a process its
    docstring sends here, else None.  A state's code is the base-k number
    of its entries' ranks; a level's successors' codes come by arithmetic,
    and only new states are built as tuples, from the values."""
    law, support = process.step_law, process.initial_support
    move = getattr(law, "move", None)
    labels = tuple(map(operator.itemgetter(0), support))
    if not labels or set(map(type, labels)) != {tuple}:
        return None
    values = ((0, 1) if isinstance(law, BitFlipEA) else move.values if isinstance(move, FlipBit)
              else sorted(labels[0]) if isinstance(move, SwapInversion) else None)
    if values is None:
        return None
    n = law.n if isinstance(law, BitFlipEA) else len(labels[0])
    k, rank = len(values), {v: r for r, v in enumerate(values)}
    if len(rank) < k or k**n >= 2**63 or set(map(len, labels)) != {n}:
        return None
    # each entry's rank, -1 for none of the values; byte-sized ints in one pass
    try:
        raw = np.frombuffer(b"".join(map(bytes, labels)), np.uint8)
        digits = np.fromiter(map(rank.get, range(raw.max(initial=0) + 1), repeat(-1)), np.int64)[raw]
    except (TypeError, ValueError):
        digits = np.fromiter(map(rank.get, chain.from_iterable(labels), repeat(-1)), np.int64)
    digits = digits.reshape(len(labels), n)
    if (digits < 0).any() or (isinstance(move, SwapInversion)
                              and (np.sort(digits) != np.arange(n)).any()):
        return None
    power = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    by_rank = np.fromiter(values, dtype=object, count=k)
    # state indices by code, over every code if there are max_states or fewer
    table = np.full(k**n, -1) if k**n <= max_states else None
    reached = digits @ power
    start_at, first = _placed(reached, reached[:0], table, max_states)
    if len(first) < len(labels):  # a state the start lists twice
        labels, reached, digits = [labels[i] for i in first.tolist()], reached[first], digits[first]
    order = level = list(labels)
    if isinstance(law, BitFlipEA):
        fit, flip_mass = _mask_tables(law, list(product(values, repeat=n)))
        top = k**n - 1  # the all-ones string, the one target
    elif isinstance(move, FlipBit):
        flip = np.append(power, 0)  # entry n flips nothing
        fitness, fit = move.fitness, np.empty(0, dtype=np.int64)
    codes, moved, parts, targets = reached, slice(None), [], []
    while level:
        lo = len(order) - len(level)  # the level's first index
        if isinstance(law, BitFlipEA):
            hits = np.flatnonzero(codes == top).tolist()
            succs, probs = zip(*[_mask_row(fit, flip_mass, c) if c != top else ([top], [1.0])
                                 for c in codes.tolist()])
            x = np.repeat(np.arange(len(level)), list(map(len, succs)))
            succ, mass = np.concatenate(succs), np.concatenate(probs)
        elif isinstance(move, FlipBit):
            # a target, or a state without groups, picks entry n and stays
            hits, x, mass, entries = _picks(law, level, n)
            own = codes[x]
            succ = own ^ flip[entries]
            if fitness is not None:
                # RLS keeps a flip not lower in fitness; strings of no state come last
                fit = np.concatenate((fit, [fitness(s) for s in level]))
                trial, fresh = _placed(succ, reached, None if table is None else table.copy(),
                                       np.inf)
                strings = by_rank[(succ[fresh, None] // power % k).T].tolist()
                theirs = [fitness(s) for s in zip(*strings)]
                succ = np.where(np.concatenate((fit, theirs))[trial] >= fit[lo:][x], succ, own)
        else:
            # pair (0, 0) swaps nothing: a target or a state without groups stays
            hits, x, mass, pairs = _picks(law, level, (0, 0))
            i, j = pairs.T
            # rank[j] < rank[i] exactly where the pair is an inversion, which moves
            drop = digits[x, j] - digits[x, i]
            moved = np.flatnonzero(drop < 0)
            succ = codes[x[moved]] + drop[moved] * (power[i[moved]] - power[j[moved]])
        targets += [lo + h for h in hits]
        col = x + lo
        col[moved], first = _placed(succ, reached, table, max_states)
        parts.append(_merged_rows(x, col, mass, len(level), len(order) + len(first)))
        codes = succ[first]
        reached = np.concatenate((reached, codes))
        digits = (codes[:, None] // power % k).astype(np.int8)
        level = list(zip(*by_rank[digits.T].tolist()))
        order += level
    import scipy.sparse
    m = len(order)
    counts, indices, data = map(np.concatenate, zip(*parts))
    kernel = scipy.sparse.csr_array((data, indices, np.append(0, np.cumsum(counts))), shape=(m, m))
    start = np.bincount(start_at, np.fromiter(map(operator.itemgetter(1), support), float), m)
    return FiniteChain(states=tuple(order), kernel=kernel, start=start,
                       targets=frozenset(targets))


def _placed(codes, reached, table, max_states):
    """(index, first) of codes, given reached, the states' codes in index
    order, and table, their indices by code or None: each code's index,
    those of no state numbered on by first occurrence, into table, and the
    positions of their first occurrences."""
    m, keys = len(reached), codes
    if table is None:
        uniq, keys = np.unique(np.concatenate((reached, codes)), return_inverse=True)
        table = np.full(len(uniq), -1)
        table[keys[:m]] = np.arange(m)
        keys = keys[m:]
    found = table[keys]
    fresh = np.flatnonzero(found < 0)
    if not len(fresh):
        return found, fresh
    unknown = keys[fresh]
    table[unknown] = len(codes)
    np.minimum.at(table, unknown, fresh)
    fresh = fresh[table[unknown] == fresh]
    if m + len(fresh) > max_states:
        raise _too_many(max_states)
    table[keys[fresh]] = np.arange(m, m + len(fresh))
    found[found < 0] = table[unknown]
    return found, fresh


def _picks(law: UniformPick, states, stay):
    """(targets, state, mass, entry) of the UniformPick walk law from
    states: the targets as indices into states, then, over its picks in
    row order and then pick order, each pick's state index, mass and
    entry as arrays.  groups and target are called once per state; a
    target, or a state without groups, picks stay with mass 1."""
    target, groups = law.target, law.groups
    stays = ((stay,),)
    rows = list(map(groups, states))
    hit = list(map(target, states)) if target is not None else list(map(operator.not_, rows))
    rows = [stays if h or not found else found for found, h in zip(rows, hit)]
    hits = list(compress(range(len(rows)), hit))
    picked = list(chain.from_iterable(rows))
    per_row = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    sizes = np.fromiter(map(len, picked), dtype=np.intp, count=len(picked))
    owner = np.repeat(np.arange(len(rows)), per_row)
    # a group handed out for many states is converted once; picked holds
    # every group, so no two of them share an id
    ids = list(map(id, picked))
    arrays = {key: np.array(group, dtype=np.intp) for key, group in dict(zip(ids, picked)).items()}
    entries = np.concatenate(list(map(arrays.__getitem__, ids)))
    return (hits, np.repeat(owner, sizes), np.repeat(1.0 / (per_row[owner] * sizes), sizes),
            entries)


def _merged_rows(rows, cols, mass, nrows: int, ncols: int):
    """(counts, indices, data) of the nrows x ncols CSR rows with mass
    summed at each (row, col) in input order, as the loop sums a row in
    pick order, the columns of each row ascending and counts its entries."""
    keys = rows * ncols + cols
    if not (keys[1:] > keys[:-1]).all():
        by_key = np.argsort(keys, kind="stable")
        keys = keys[by_key]
        head = np.concatenate(([True], keys[1:] != keys[:-1]))
        mass = np.bincount(np.cumsum(head) - 1, weights=mass[by_key])
        keys = keys[head]
        cols = keys % ncols
    return np.diff(np.searchsorted(keys, np.arange(nrows + 1) * ncols)), cols, mass


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def _check_edge_probability(spec: str, p) -> None:
    """An edge probability outside [0, 1], NaN too, is an error naming it."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{spec} parameter 'edge_probability' must be in [0, 1], got {p!r}")


def random_3colorable_graph(n: int, edge_probability: float, seed: int) -> GraphInstance:
    """Random graph with a planted proper 3-coloring.

    Vertices are split round-robin into three near-equal classes and
    each inter-class pair becomes an edge independently.
    """
    n = _whole("random_3colorable_graph", "n", n)
    _check_edge_probability("random_3colorable_graph", edge_probability)
    if n < 3:
        raise ParameterError("3-colorable generator requires n >= 3")
    rng = np.random.default_rng(_natural("random_3colorable_graph", "seed", seed))
    chi = tuple(v % 3 for v in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if chi[u] != chi[v] and rng.random() < edge_probability:
                edges.append((u, v))
    return GraphInstance(n=n, edges=tuple(edges), coloring=chi)


def random_graph(n: int, edge_probability: float, seed: int) -> GraphInstance:
    """Erdos-Renyi graph without planted structure."""
    n = _whole("random_graph", "n", n)
    _check_edge_probability("random_graph", edge_probability)
    if n < 1:
        raise ParameterError("random_graph requires n >= 1")
    rng = np.random.default_rng(_natural("random_graph", "seed", seed))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                edges.append((u, v))
    return GraphInstance(n=n, edges=tuple(edges))


def planted_2sat(n: int, m: int, seed: int) -> CnfInstance:
    """Random 2-CNF with a planted satisfying assignment.

    The assignment is sampled uniformly; each clause picks two distinct
    variables and random polarities, then one literal is corrected (at
    random among the two) whenever the clause would be violated.
    """
    n = _whole("planted_2sat", "n", n)
    m = _whole("planted_2sat", "m", m)
    if n < 2:
        raise ParameterError("planted_2sat requires n >= 2")
    if m < 1:
        raise ParameterError("planted_2sat requires m >= 1")
    rng = np.random.default_rng(_natural("planted_2sat", "seed", seed))
    assignment = tuple(bool(b) for b in rng.integers(0, 2, size=n))
    clauses = []
    for _ in range(m):
        v1, v2 = rng.choice(n, size=2, replace=False)
        lits = [
            (int(v1), bool(rng.integers(0, 2))),
            (int(v2), bool(rng.integers(0, 2))),
        ]
        if not any(assignment[var] == pol for (var, pol) in lits):
            fix = int(rng.integers(2))
            var = lits[fix][0]
            lits[fix] = (var, assignment[var])
        clauses.append((lits[0], lits[1]))
    return CnfInstance(n=n, clauses=tuple(clauses), assignment=assignment)
