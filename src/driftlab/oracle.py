"""Exact expected-hitting-time computation.

Ground truth for every bound: absorbing-chain linear solves, the
birth-death double-sum closed form, the LeadingOnes closed formula
and level chain, harmonic numbers and exact level visit probabilities.
"""

from dataclasses import dataclass
from math import exp, inf, log
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import MonotonicityError, ParameterError, StructureError
from .processes import FiniteChain


@dataclass(frozen=True)
class HittingTimeSolution:
    """Exact expected hitting times of an absorbing chain.

    per_state maps each state label to its expected time (0 on
    targets), from_start averages per_state over the start
    distribution, residual is the max-norm residual of the linear
    solve.
    """

    per_state: dict
    from_start: float
    residual: float


def _check_absorption(chain: FiniteChain) -> None:
    """Every state must reach a target with probability 1.

    Reachability of the target set is checked by reverse traversal on
    the kernel's support graph; unreachable states are named.
    """
    n = len(chain.states)
    support = chain.kernel > 0.0
    reached = np.zeros(n, dtype=bool)
    stack = list(chain.targets)
    for t in stack:
        reached[t] = True
    while stack:
        j = stack.pop()
        for i in np.nonzero(support[:, j])[0]:
            if not reached[i]:
                reached[i] = True
                stack.append(int(i))
    bad = np.nonzero(~reached)[0]
    if bad.size:
        state = chain.states[int(bad[0])]
        raise StructureError(
            f"no target reachable from state {state!r}", offender=state
        )


def _solve_transient(kernel: np.ndarray, keep: np.ndarray, b: np.ndarray):
    """Solve (I - Q) x = b, Q the kernel on the states in the mask keep,
    by one sparse LU (minimum-degree ordering on A^T + A) at any size.
    Returns x and the max-norm residual; a singular A is a StructureError."""
    n, m = len(keep), int(keep.sum())
    pos = np.cumsum(keep) - 1
    r, c = np.nonzero(kernel)
    inside = keep[r] & keep[c]
    # A's pattern in row-major order: Q's nonzeros and the diagonal
    key = np.union1d(r[inside] * n + c[inside], np.flatnonzero(keep) * (n + 1))
    r, c = np.divmod(key, n)
    indptr = np.searchsorted(pos[r], np.arange(m + 1))
    a = scipy.sparse.csr_array(((r == c) - kernel[r, c], pos[c], indptr), shape=(m, m))
    x = scipy.sparse.linalg.spsolve(a, b, permc_spec="MMD_AT_PLUS_A")
    residual = float(np.max(np.abs(a @ x - b)))
    if not np.isfinite(residual):
        raise StructureError("singular system: a kept state never leaves the kept states")
    return x, residual


def hitting_time_exact(chain: FiniteChain) -> HittingTimeSolution:
    """Solve (I - Q) t = 1 on the non-target states of a finite chain,
    by the one sparse LU of _solve_transient at every chain size."""
    _check_absorption(chain)
    keep = np.ones(len(chain.states), dtype=bool)
    keep[list(chain.targets)] = False
    t = np.zeros(len(chain.states))
    residual = 0.0
    if keep.any():
        t[keep], residual = _solve_transient(chain.kernel, keep, np.ones(int(keep.sum())))
    return HittingTimeSolution(
        per_state=dict(zip(chain.states, t.tolist())),
        from_start=float(sum(p * x for p, x in zip(chain.start, t.tolist()))),
        residual=residual,
    )


def _double_sum(p_down, p_up, start: int) -> float:
    """Sum over start levels s of sum over i >= s of the reciprocal
    down-probability weighted by the running up/down ratio product.

    p_down[s-1] belongs to state s in [1..n], p_up[s] to state s in
    [0..n-1] (p_up[0] is unused).  Products are tracked with running
    updates and switch to log space once they leave the safe float
    range; a zero up-probability truncates the inner sum exactly, and
    a term beyond the float range counts as inf.
    """
    p_down = [float(p) for p in p_down]
    p_up = [float(p) for p in p_up]
    n = len(p_down)
    if len(p_up) != n:
        raise ParameterError("p_up must cover states [0..n-1]")
    if not (0 <= start <= n):
        raise ParameterError(f"start {start} outside [0..{n}]")
    for s, pd in enumerate(p_down, start=1):
        if pd <= 0.0:
            raise ParameterError(f"p_down at state {s} must be positive")
    total = 0.0
    for s in range(1, start + 1):
        prod = 1.0
        log_prod = 0.0
        use_log = False
        for i in range(s, n + 1):
            pd = p_down[i - 1]
            if use_log:
                try:
                    term = exp(log_prod - log(pd))
                except OverflowError:
                    term = inf
            else:
                term = prod / pd
            total += term
            if i < n:
                ratio = p_up[i] / pd
                if ratio == 0.0:
                    break
                if use_log:
                    log_prod += log(ratio)
                else:
                    scaled = prod * ratio
                    if 1e-300 < scaled < 1e300:
                        prod = scaled
                    else:
                        use_log = True
                        # a product that underflows to 0 takes its log from the factors
                        log_prod = log(scaled) if scaled else log(prod) + log(ratio)
    return total


def birth_death_exact(p_down, p_up, start: int) -> float:
    """Expected hitting time of 0 for a birth-death chain on [0..n].

    p_down[s-1] is the probability of moving from s to s-1 (s in
    [1..n]), p_up[s] the probability of moving from s to s+1 (s in
    [0..n-1], with p_up of the top state treated as 0).  With exact
    inputs this equals the absorbing-chain linear solve.
    """
    for s, (pd, pu) in enumerate(zip(p_down, [*p_up[1:], 0.0]), start=1):
        if float(pd) + float(pu) > 1.0 + 1e-12:
            raise ParameterError(f"p_down + p_up exceeds 1 at state {s}")
    return _double_sum(p_down, p_up, start)


def _check_leadingones(n: int, p: float) -> None:
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not (0.0 < p < 1.0):
        raise ParameterError("p must lie in (0, 1)")


def leadingones_exact(n: int, p: float) -> float:
    """Exact expected optimization time of the (1+1) EA on LeadingOnes
    with mutation rate p, summed in ascending order."""
    _check_leadingones(n, p)
    total = 0.0
    for i in range(n):
        total += 1.0 / ((1.0 - p) ** i * p)
    return 0.5 * total


def leadingones_level_chain(n: int, p: float) -> FiniteChain:
    """The (1+1) EA on LeadingOnes as a chain on its leading-ones count.

    Exact because the bits behind the first zero stay uniformly random
    (Boettcher, Doerr & Neumann, PPSN 2010).  The start level is i with
    probability 2^-(i+1) for i < n and 2^-n at n.  From level i < n the
    first zero flips while the i leading ones survive with probability
    (1-p)^i p; the jump is then to i+1+K, where the free riders K
    follow P(K=k) = 2^-(k+1) for k < n-i-1 and the rest of the mass
    goes to n.
    """
    _check_leadingones(n, p)
    kernel = np.zeros((n + 1, n + 1))
    for i in range(n):
        q = (1.0 - p) ** i * p
        kernel[i, i] = 1.0 - q
        for k in range(n - i - 1):
            kernel[i, i + 1 + k] = q * 0.5 ** (k + 1)
        kernel[i, n] = q * 0.5 ** (n - i - 1)
    kernel[n, n] = 1.0
    start = 0.5 ** np.arange(1, n + 2)
    start[n] = 0.5**n
    return FiniteChain(
        states=tuple(range(n + 1)), kernel=kernel, start=start,
        targets=frozenset({n}),
    )


def leadingones_fixed_budget_exact(n: int, p: float, t: int) -> float:
    """Exact E[LO_t] of the (1+1) EA on LeadingOnes after t steps, by
    pushing the start distribution of the level chain through t steps."""
    if int(t) != t or t < 0:
        raise ParameterError("t must be a non-negative integer")
    chain = leadingones_level_chain(n, p)
    dist = chain.start
    for _ in range(int(t)):
        dist = dist @ chain.kernel
    return float(dist @ np.arange(n + 1))


def harmonic(n: int) -> float:
    """The n-th harmonic number by direct summation."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def visit_probabilities_exact(chain: FiniteChain, levels) -> dict:
    """Exact probability that each level is ever occupied.

    levels maps chain states to integer levels and must be monotone
    non-decreasing along every positive-probability transition; the
    offending edge is named otherwise.  One absorption solve per
    level: the chain restricted to levels below i is substochastic and
    the probability of entering level i (rather than jumping past it)
    solves a linear system over those states.
    """
    if callable(levels):
        level_of = levels
    else:
        table = dict(levels)
        level_of = lambda s: table[s]

    n = len(chain.states)
    lv = np.array([level_of(s) for s in chain.states])
    r, c = np.nonzero(chain.kernel)
    down = np.nonzero(lv[c] < lv[r])[0]
    if down.size:
        i, j = chain.states[r[down[0]]], chain.states[c[down[0]]]
        raise MonotonicityError(
            f"level decreases along transition {i!r} -> {j!r}", offender=(i, j)
        )

    result = {}
    for level in sorted(set(int(x) for x in lv)):
        below = lv < level
        at = lv == level
        # probability of ever entering the level, starting below it
        h = np.zeros(n)
        h[at] = 1.0
        if below.any():
            b = chain.kernel[below][:, at].sum(axis=1)
            h[below], _ = _solve_transient(chain.kernel, below, b)
        result[level] = float(np.dot(chain.start, h))
    return result
