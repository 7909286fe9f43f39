"""Exact expected-hitting-time computation.

Ground truth for every bound: absorbing-chain linear solves, the
birth-death double-sum closed form, the LeadingOnes closed formula
and level chain, harmonic numbers and exact level visit probabilities.
"""

from dataclasses import dataclass
from math import ceil, frexp, inf, ldexp, log, sqrt
from typing import Callable

import numpy as np

from .errors import MonotonicityError, ParameterError, StructureError
from .processes import FiniteChain, _rows_of, _whole


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


def _solve_order(kernel, keep: np.ndarray):
    """The kept states in the solve order of A = I - Q's block-triangular
    form (the form KLU uses: Davis & Palamadai Natarajan, ACM TOMS 37(3),
    2010), as positions among the kept states, and the part of each.

    scipy labels strong components sinks first: every edge between
    components runs from a higher label to a lower one, so one pass over
    the labels in ascending order meets each component after all it
    leads to.  A block (a component of several kept states) sits one
    stage above every component it leads to, a single state at the stage
    of its highest successor.  Each stage is two parts, its blocks and
    then its single states in descending label order, so that every
    entry of A outside a row's own part lies in an earlier part.

    A is singular when some kept state cannot leave the kept states; the
    same pass finds them, and the StructureError names the lowest index
    as its offender."""
    import scipy.sparse.csgraph

    count, label = scipy.sparse.csgraph.connected_components(kernel, connection="strong")
    lr, lc = label[_rows_of(kernel.indptr)], label[kernel.indices]
    cross = np.flatnonzero(lr != lc)
    cross = cross[np.argsort(lr[cross])]
    ptr = np.searchsorted(lr[cross], np.arange(count + 1)).tolist()
    succ = lc[cross].tolist()
    # the components are the whole kernel's: one that keep splits is solved
    # as one block, and its kept states leave through the others
    size = np.bincount(label[keep], minlength=count)
    stage, leaves = [0] * count, (size < np.bincount(label, minlength=count)).tolist()
    for k, grows in enumerate((size > 1).tolist()):
        top = 0
        for j in succ[ptr[k]:ptr[k + 1]]:
            if stage[j] > top:
                top = stage[j]
            leaves[k] = leaves[k] or leaves[j]
        stage[k] = top + grows
    if not all(leaves):
        i = int(np.flatnonzero(~np.array(leaves)[label])[0])
        raise StructureError(f"singular system: kept state {i} never leaves the kept states",
                             offender=i)
    # descending labels, each component's states in index order
    lab = label[keep]
    part = (2 * np.array(stage) + (size < 2))[lab]
    order = np.argsort(part * count - lab, kind="stable")
    return order, part[order]


def _ordered_system(kernel, keep: np.ndarray, order: np.ndarray):
    """A = I - Q as CSR arrays (indptr, indices, data), its rows and
    columns the kept states in the given order: Q's nonzeros and the
    diagonal, each row's entries by column."""
    m = order.size
    r, c = _rows_of(kernel.indptr), kernel.indices
    inside = keep[r] & keep[c]
    pos = np.empty(len(keep), dtype=np.int64)
    pos[np.flatnonzero(keep)[order]] = np.arange(m)
    q_key = pos[r[inside]] * m + pos[c[inside]]
    key = np.sort(np.concatenate((q_key, np.arange(m) * (m + 1))))
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    a = np.zeros(key.size)
    a[np.searchsorted(key, q_key)] = kernel.data[inside]
    r, c = np.divmod(key, m)
    return np.searchsorted(r, np.arange(m + 1)), c, (r == c) - a


def _row_sums(rows: np.ndarray, vals: np.ndarray, xs: np.ndarray, n: int) -> np.ndarray:
    """For each of n rows, the sum of vals times xs over its entries, in
    entry order, for each of xs's k columns: an (n, k) array.  A bincount
    a column costs small parts less than building a scipy sparse product."""
    return np.column_stack([np.bincount(rows, vals * col, minlength=n) for col in xs.T])


_U = 2.0**-52  # the unit roundoff u of float64
_CG_CAP = 2  # CG's iterations on a part, in units of its step bound k(eps)
_CG_SLACK = 16  # CG stands once max|b - Ax| <= this * u * max|b| * (1 + 2/eps)


def _cg_bound(eps: float) -> int:
    """k(eps) = ceil(sqrt(2/eps) ln(2/u) / 2): CG reduces the error of a
    system whose spectrum lies in [eps, 2] by u within about this many
    iterations."""
    return ceil(0.5 * sqrt(2.0 / eps) * log(2.0 / _U))


def _cg_margin(ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> float:
    """The margin eps of a part whose own matrix A (CSR arrays, columns
    from 0) takes CG, or 0 where it does not.

    A takes CG when it is exactly symmetric and
    eps = min_i a_ii - sum_{j != i} |a_ij| > 0: A = I - Q has no positive
    entry off its diagonal, so eps is its least row sum, and every state
    leaves the part with probability at least eps a step.  By Gershgorin
    A's spectrum then lies in [eps, 2].  A bound k(eps) of n or more, for
    n states, leaves the part to its LU; as eps <= 1, so does any n up
    to k(1) = 26, before any sum is taken."""
    n = ptr.size - 1
    if n <= _cg_bound(1.0):
        return 0.0
    eps = float(np.add.reduceat(vals, ptr[:-1]).min())  # every row holds its diagonal
    if not (eps > 0 and _cg_bound(eps) < n):
        return 0.0
    # A^T's entries in its row order: a stable sort of A's by column
    rows = _rows_of(ptr)
    t = np.argsort(cols, kind="stable")
    same = np.array_equal(cols[t], rows) and np.array_equal(rows[t], cols)
    return eps if same and np.array_equal(vals[t], vals) else 0.0


def _conjugate_gradients(a, b: np.ndarray, eps: float):
    """Solve a x = b for a part that takes CG with margin eps, b an
    (n, k) matrix, by conjugate gradients (Hestenes & Stiefel, J. Res.
    NBS 49(6), 1952) on all columns at once, one sparse product an
    iteration.

    x stands when each column's max|b - ax| is at most _CG_SLACK u
    max|b| (1 + 2/eps); a zero column is done at once.  As |x| <=
    max|b|/eps, 2 max|b|/eps bounds |a||x|, so this is a backward error
    of a few u, the floor that rounding leaves to b - ax.  A column
    leaves the iteration once the 2-norm of its residual, tracked by the
    recurrence, is within that bound; b - ax is checked at the end.  None
    if _CG_CAP k(eps) iterations do not get there.  Each column is first
    scaled by a power of two, exactly, to a max|b| in [1/2, 1), so that
    no dot product under- or overflows.  Dot products are numpy
    reductions, not BLAS, so x does not depend on the thread count."""
    scale = np.ldexp(1.0, np.frexp(np.abs(b).max(axis=0))[1])
    b = b / scale
    tol = _CG_SLACK * _U * (1.0 + 2.0 / eps) * np.abs(b).max(axis=0)
    x = np.zeros(b.shape)
    live = np.flatnonzero(tol)
    r, t2 = b[:, live], tol[live] ** 2
    xs, p, rr = np.zeros(r.shape), r, np.add.reduce(r * r)
    for _ in range(_CG_CAP * _cg_bound(eps)):
        if not live.size:
            break
        ap = a @ p
        alpha = rr / np.add.reduce(p * ap)
        xs += alpha * p
        r = r - alpha * ap
        rr, last = np.add.reduce(r * r), rr
        p = r + rr / last * p
        done = rr <= t2
        if done.any():
            x[:, live[done]] = xs[:, done]
            on = ~done
            live, xs, r, p, rr, t2 = live[on], xs[:, on], r[:, on], p[:, on], rr[on], t2[on]
    if live.size or (np.abs(b - a @ x).max(axis=0) > tol).any():
        return None
    return x * scale


def _solve_transient(kernel, keep: np.ndarray, b: np.ndarray):
    """Solve (I - Q) x = b, Q the CSR kernel on the states in the mask keep
    and b a vector or an (m, k) matrix of k right-hand sides, part by part
    in _solve_order.

    A part of blocks is solved by conjugate gradients where _cg_margin
    finds its own matrix symmetric and leaking fast enough.  Where it
    does not, or CG does not stand within its cap, the part is one
    sparse LU (minimum-degree ordering on A^T + A; its matrix is block
    diagonal, so fill stays inside each block).  A part of single states
    is solved by one LU in natural order: they are upper triangular,
    which has no fill.  Values already solved enter the right-hand side
    by the part's sums over its earlier columns.  A one-component system
    is one part on A in state order, an acyclic one one triangular
    solve.

    Returns x, shaped as b, and the max-norm residual.  A singular A
    raises _solve_order's StructureError; a non-finite residual raises
    one without an offender."""
    import scipy.sparse.linalg

    order, part = _solve_order(kernel, keep)
    m = order.size
    starts = [0, *(np.flatnonzero(part[1:] != part[:-1]) + 1).tolist(), m]
    indptr, c, a = _ordered_system(kernel, keep, order)
    shape, b = b.shape, b[order].reshape(m, -1)
    x = np.empty(b.shape)
    for lo, hi in zip(starts[:-1], starts[1:]):
        e0, e1 = indptr[lo], indptr[hi]
        ptr, cols, vals = indptr[lo:hi + 1] - e0, c[e0:e1] - lo, a[e0:e1]
        rhs = b[lo:hi]
        # entries in earlier parts (columns below lo) enter the right-hand
        # side; a part that has none is its own matrix, with no copy
        early = cols < 0
        if early.any():
            rows = _rows_of(ptr)
            rhs = rhs - _row_sums(rows[early], vals[early], x[cols[early] + lo], hi - lo)
            own = ~early
            ptr = np.searchsorted(rows[own], np.arange(hi - lo + 1))
            cols, vals = cols[own], vals[own]
        mat = scipy.sparse.csr_array((vals, cols, ptr), shape=(hi - lo, hi - lo))
        eps = 0.0 if part[lo] & 1 else _cg_margin(ptr, cols, vals)
        got = _conjugate_gradients(mat, rhs, eps) if eps else None
        if got is None:
            got = scipy.sparse.linalg.spsolve(
                mat, rhs, permc_spec="NATURAL" if part[lo] & 1 else "MMD_AT_PLUS_A")
        x[lo:hi] = got.reshape(hi - lo, -1)
    residual = float(np.max(np.abs(_row_sums(_rows_of(indptr), a, x[c], m) - b)))
    if not np.isfinite(residual):
        raise StructureError("singular system: the solve is not finite")
    out = np.empty(x.shape)
    out[order] = x
    return out.reshape(shape), residual


def hitting_time_exact(chain: FiniteChain) -> HittingTimeSolution:
    """Solve (I - Q) t = 1 on the non-target states of a finite chain by
    _solve_transient; the lowest-index state reaching no target is named."""
    keep = np.ones(len(chain.states), dtype=bool)
    keep[list(chain.targets)] = False
    t = np.zeros(len(chain.states))
    residual = 0.0
    if keep.any():
        try:
            t[keep], residual = _solve_transient(chain.kernel, keep, np.ones(int(keep.sum())))
        except StructureError as err:
            if err.offender is None:
                raise
            state = chain.states[err.offender]
            raise StructureError(f"no target reachable from state {state!r}",
                                 offender=state) from None
    return HittingTimeSolution(
        per_state=dict(zip(chain.states, t.tolist())),
        from_start=float(sum(p * x for p, x in zip(chain.start.tolist(), t.tolist()))),
        residual=residual,
    )


_TINY = 2.0**-1022  # the least normal float


def _double_sum(p_down, p_up, start: int, names=("p_down", "p_up", "start")) -> float:
    """Sum over start levels s of the inner sums S_s = sum over i >= s of
    the reciprocal down-probability weighted by the up/down ratio product.

    p_down[s-1] belongs to state s in [1..n], p_up[s] to state s in
    [0..n-1] (p_up[0] is unused).  An error names the three arguments by
    names, the caller's keys for them.  One pass from the top takes
    S_s = 1/p_down(s) + p_up(s)/p_down(s) * S_{s+1}, a zero ratio ending
    the inner sum exactly.  S_{s+1} is carried as m * 2**e, e >= 0, so an
    inner sum beyond the float range can come back into it further down;
    a ratio beyond the range, or below its normal floats, moves its power
    of two into e the same way, and a product that this takes below 1 is
    a plain float.  The scaling is exact, and only a total beyond the
    range is inf.
    """
    p_down = [float(p) for p in p_down]
    p_up = [float(p) for p in p_up]
    n = len(p_down)
    down, up, first = names
    if len(p_up) != n:
        raise ParameterError(f"{up} must cover states [0..n-1]")
    if not (0 <= start <= n):
        raise ParameterError(f"{first} {start} outside [0..{n}]")
    for s, (pd, pu) in enumerate(zip(p_down, [*p_up[1:], 0.0]), start=1):
        if not (0.0 < pd < inf):
            raise ParameterError(f"{down} at state {s} must be positive and finite, got {pd!r}")
        if not (0.0 <= pu < inf):
            raise ParameterError(f"{up} at state {s} must be non-negative and finite, got {pu!r}")
    m, e, total = 0.0, 0, 0.0
    for s in range(n, 0, -1):
        pd = p_down[s - 1]
        pu = p_up[s] if s < n else 0.0
        ratio = pu / pd
        if pu and not _TINY <= ratio < inf:  # carry the ratio's power of two in e instead
            (um, uk), (dm, dk) = frexp(pu), frexp(pd)
            ratio, e = um / dm, e + uk - dk
            if e < 0:  # the scaled product is below 1: a plain float, added as one
                m, e, ratio = ldexp(ratio * m, e), 0, 1.0
        if ratio:
            m, k = frexp(ldexp(1.0 / pd, -e) + ratio * m)
            e += k
        else:
            m, e = frexp(1.0 / pd)
        if e < 0:  # a sum below 1 is a plain float; e >= 0 keeps ldexp(1/pd, -e) finite
            m, e = ldexp(m, e), 0
        if s <= start:
            total += ldexp(m, e) if e <= 1024 else inf  # m < 1 keeps 2**1024 * m finite
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
    t = _whole("leadingones_fixed_budget_exact", "t", t)
    if t < 0:
        raise ParameterError("t must be a non-negative integer")
    chain = leadingones_level_chain(n, p)
    kernel = chain.kernel.toarray()
    dist = chain.start
    for _ in range(t):
        dist = dist @ kernel
    return float(dist @ np.arange(n + 1))


def harmonic(n: int) -> float:
    """The n-th harmonic number by direct summation."""
    n = _whole("harmonic", "n", n)
    if n < 1:
        raise ParameterError("n must be >= 1")
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def visit_probabilities_exact(chain: FiniteChain, levels) -> dict:
    """Exact probability that each level is ever occupied.

    levels maps chain states to integer levels (a callable or a dict
    that must give every state one) and must be monotone non-decreasing
    along every positive-probability transition; the state without a
    level, or the offending edge, is named otherwise.  So a walk enters
    a level at most once from below: P(level L is occupied) is the start
    mass at L plus start · (I - Q)^-1 b_L over the transient states
    (their strong component has an entry leaving it), b_L the kernel
    mass from below L into L.  One _solve_transient takes every level as
    a column of a dense (states × levels) matrix, which suits a few
    thousand states.
    """
    import scipy.sparse.csgraph

    if not callable(levels):
        table = dict(levels)
        missing = [s for s in chain.states if s not in table]
        if missing:
            raise StructureError(f"levels give state {missing[0]!r} no level", offender=missing[0])
        levels = table.__getitem__
    lv = np.array([levels(s) for s in chain.states])
    r, c = _rows_of(chain.kernel.indptr), chain.kernel.indices
    down = np.flatnonzero(lv[c] < lv[r])
    if down.size:
        i, j = chain.states[r[down[0]]], chain.states[c[down[0]]]
        raise MonotonicityError(
            f"level decreases along transition {i!r} -> {j!r}", offender=(i, j)
        )

    values, at = np.unique(lv, return_inverse=True)
    visits = np.bincount(at, chain.start, minlength=values.size)
    _, label = scipy.sparse.csgraph.connected_components(chain.kernel, connection="strong")
    transient = np.isin(label, label[r[label[r] != label[c]]])
    if transient.any():
        # b[i, L]: the mass from state i into level L, where i lies below L
        b = chain.kernel @ (at[:, None] == np.arange(values.size))
        b[lv[:, None] >= values] = 0.0
        x, _ = _solve_transient(chain.kernel, transient, b[transient])
        visits += chain.start[transient] @ x
    return dict(zip(values.tolist(), visits.tolist()))
