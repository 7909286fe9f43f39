"""Fair random walk between two absorbing barriers via a potential.

The walk itself has zero drift, so no additive bound applies to it
directly.  The squared potential x (n - x) drops by exactly 1 per
step in expectation, turning the problem into a textbook additive
drift application: starting from the middle of [0, n], both the upper
and the lower bound land on (n/2)^2 and the exact solve confirms it.
"""

from driftlab import make_simple_chain, simulate_hitting, to_finite_chain
from driftlab.bounds import additive_lower, additive_upper
from driftlab.montecarlo import verify_condition
from driftlab.oracle import hitting_time_exact
from driftlab.potentials import lift, walk_square_two_barrier

N = 40  # barriers at 0 and N, start at N/2

process = make_simple_chain("gamblers_ruin", n=N // 2)
g = walk_square_two_barrier(float(N))
lifted = lift(process, g)

start_value = g(N // 2)
upper = additive_upper(e_x0=start_value, delta=1.0)
lower = additive_lower(e_x0=start_value, delta=1.0, c=float(N - 1))
exact = hitting_time_exact(to_finite_chain(process)).from_start

print(f"potential at the start   {start_value:.1f}")
print(f"additive upper bound     {upper.bound:.1f}")
print(f"additive lower bound     {lower.bound:.1f}")
print(f"exact expected time      {exact:.1f}")

# the drift condition is checkable exactly on the interior states
report = verify_condition(
    lifted, g, "additive_D", state_set=range(1, N), delta=1.0, sense=">="
)
print(f"drift >= 1 on interior states: {report.overall}")

stats = simulate_hitting(process, trials=20_000, seed=5, cap=1_000_000)
print(f"simulated mean           {stats.mean:.1f}  99% CI {stats.ci99}")
