"""Potential-function constructions and process lifting.

A Potential maps process states to non-negative reals with value 0 on
targets.  Lifting a process by a potential replaces its scalar view
while leaving dynamics and targets untouched, so hitting times are
preserved by construction.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .errors import OutOfDomainError, ParameterError
from .processes import FiniteChain, Process


@dataclass(frozen=True)
class Potential:
    """A state-to-real map with a text label.

    eval raises OutOfDomainError for states outside the documented
    domain instead of extrapolating silently.
    """

    eval: Callable[[Any], float]
    description: str

    def __call__(self, state) -> float:
        return self.eval(state)


def identity_potential() -> Potential:
    return Potential(eval=lambda x: float(x), description="identity")


def table_potential(values: dict, description: str = "table") -> Potential:
    """Potential backed by an explicit state -> value table."""
    table = dict(values)

    def ev(state):
        try:
            return float(table[state])
        except KeyError:
            raise OutOfDomainError(f"state {state!r} not in potential table")

    return Potential(eval=ev, description=description)


def lift(process: Process, g: Potential) -> Process:
    """Replace the scalar view of a process by g.

    Dynamics, initial distribution and target predicate are unchanged,
    so the hitting time of the lifted process equals the original's
    pointwise per randomness stream.
    """
    return replace(process, value=g.eval, name=f"{process.name}|{g.description}")


def glue_two_part(k: float) -> Potential:
    """Concave glue map over real-valued states.

    x below k is kept, x at or above k is averaged with k; continuous
    at the seam and 1/2-sloped above it.
    """
    if k < 0:
        raise ParameterError("glue seam must be non-negative")

    def ev(x):
        x = float(x)
        return x if x < k else (x + k) / 2.0

    return Potential(eval=ev, description=f"glue_two_part(k={k})")


def gap_potential(gaps) -> Potential:
    """Potential over integer distances from a positive gap sequence.

    g(d) is the sum of the first d gaps; g(0) = 0 and g is strictly
    increasing.  Defined for d in [0..len(gaps)].
    """
    gaps = [float(a) for a in gaps]
    if any(a <= 0 for a in gaps):
        raise ParameterError("all gaps must be positive")
    prefix = np.concatenate([[0.0], np.cumsum(gaps)])

    def ev(d):
        if d != int(d) or not (0 <= int(d) < len(prefix)):
            raise OutOfDomainError(
                f"distance {d!r} outside [0..{len(prefix) - 1}]"
            )
        return float(prefix[int(d)])

    return Potential(eval=ev, description=f"gap_potential(m={len(gaps)})")


def plateau_upper_potential(n: int, k: int) -> Potential:
    """Steeply geometric gaps inside the plateau, linear tail outside.

    Over Hamming distance d: gaps (2n)^(k-d) up to the plateau radius
    k, then slope n beyond it.
    """
    if not (2 <= k <= n):
        raise ParameterError("plateau potential requires 2 <= k <= n")
    g0 = sum((2.0 * n) ** (k - d) for d in range(k))

    def ev(d):
        if d != int(d) or not (0 <= int(d) <= n):
            raise OutOfDomainError(f"distance {d!r} outside [0..{n}]")
        d = int(d)
        if d <= k:
            return float(sum((2.0 * n) ** (k - i) for i in range(d)))
        return float(g0 + (d - k) * n)

    return Potential(eval=ev, description=f"plateau_upper(n={n},k={k})")


def plateau_lower_potential(n: int, k: int) -> Potential:
    """Shallow geometric gaps inside the plateau, flat outside."""
    if not (2 <= k <= n):
        raise ParameterError("plateau potential requires 2 <= k <= n")
    r = (n - k) / k
    g0 = sum(r ** (k - d) for d in range(k))

    def ev(d):
        if d != int(d) or not (0 <= int(d) <= n):
            raise OutOfDomainError(f"distance {d!r} outside [0..{n}]")
        d = int(d)
        if d <= k:
            return float(sum(r ** (k - i) for i in range(d)))
        return float(g0)

    return Potential(eval=ev, description=f"plateau_lower(n={n},k={k})")


def linear_weights_potential(n: int) -> Potential:
    """Per-bit weights 2 - i/n over bit strings (zero bits count).

    Each missing bit contributes between 1 and 2, so the number of
    zero bits is at least half the potential.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    weights = np.array([2.0 - (i + 1) / n for i in range(n)])

    def ev(bits):
        if len(bits) != n:
            raise OutOfDomainError(f"expected a bit string of length {n}")
        return float(sum(w for w, b in zip(weights, bits) if not b))

    return Potential(eval=ev, description=f"linear_weights(n={n})")


def walk_square_two_barrier(n: float) -> Potential:
    """x(n - x) over values in [0, n]; zero exactly at both barriers."""

    def ev(x):
        x = float(x)
        if not (0.0 <= x <= n):
            raise OutOfDomainError(f"value {x!r} outside [0, {n}]")
        return x * (n - x)

    return Potential(eval=ev, description=f"walk_square_two_barrier(n={n})")


def walk_square_one_barrier(n: float) -> Potential:
    """n^2 - x^2 over values in [0, n]; zero exactly at the barrier n."""

    def ev(x):
        x = float(x)
        if not (0.0 <= x <= n):
            raise OutOfDomainError(f"value {x!r} outside [0, {n}]")
        return n * n - x * x

    return Potential(eval=ev, description=f"walk_square_one_barrier(n={n})")


def expected_time_potential(chain: FiniteChain) -> Potential:
    """Exact expected hitting time as a potential over chain states.

    The lifted chain has drift exactly 1 at every non-target state.
    """
    from .oracle import hitting_time_exact

    solution = hitting_time_exact(chain)
    return table_potential(solution.per_state, description="expected_time")
