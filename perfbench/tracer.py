"""Spans and counters recorded around driftlab's public functions.

The tracer never edits driftlab: while installed it replaces module
attributes with timing wrappers at every place the attribute is looked
up (``montecarlo.to_finite_chain`` as well as
``processes.to_finite_chain``), and restores them on removal.

A span has a name, a start, an end and a parent.  Calls that happen
once per trial or per step (``trial_rng``, ``Process.step``,
``Process.sample_initial``) are too many to keep one by one; they are
counted and timed in buckets attached to the innermost open span, and
their time counts as child time of that span.

Self time of a span is its duration minus the part of it covered by
its child spans (as a union of intervals, so that children running on
pool threads cannot cover more than the parent) and minus the time of
its bucketed calls.
"""

import dataclasses
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: object  # int id or None
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)
    fine: dict = dataclasses.field(default_factory=dict)  # name -> [calls, busy_s]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def child_times(spans) -> dict:
    """Map span id -> time covered by its children and bucketed calls."""
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = union_length(kids.get(s.id, ()), s.start, s.end)
        out[s.id] = covered + sum(busy for _, busy in s.fine.values())
    return out


def self_times(spans) -> dict:
    """Map span id -> self time (never negative)."""
    child = child_times(spans)
    return {s.id: max(0.0, s.duration - child[s.id]) for s in spans}


class Tracer:
    """Records spans while active; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count()  # next() is atomic, so pool threads get distinct ids
        self._local = threading.local()
        self._main = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # pool threads (cli's ThreadPoolExecutor) hang under the span
        # the main thread is blocked in
        return self._main[-1] if self._main else None

    @contextmanager
    def span(self, name: str, attrs=None):
        if not self.active:
            yield None
            return
        parent = self._top()
        s = Span(
            id=next(self._ids), name=name,
            parent=None if parent is None else parent.id, start=_clock(),
            attrs=dict(attrs or {}),
        )
        self.spans.append(s)
        stack = self._stack()
        stack.append(s)
        try:
            yield s
        finally:
            s.end = _clock()
            stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """A wrapper recording one span per call; annotate(args, kwargs,
        result) returns counters stored on the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name) as s:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    s.attrs.update(annotate(args, kwargs, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_fine(self, name: str, fn):
        """A wrapper adding each call to a bucket on the innermost span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            top = tracer._top()
            if top is not None:
                bucket = top.fine.get(name)
                if bucket is None:
                    bucket = top.fine[name] = [0, 0.0]
                bucket[0] += 1
                bucket[1] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_process(self, process):
        """The same process with its step and initial draw bucketed."""
        return dataclasses.replace(
            process,
            step=self.wrap_fine("processes.step", process.step),
            sample_initial=self.wrap_fine("processes.sample_initial", process.sample_initial),
        )

    def patch(self, modules, original, wrapper):
        """Replace original by wrapper wherever a module binds it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_dict(self, table: dict, key, wrapper):
        self._patches.append((table, key, table[key]))
        table[key] = wrapper

    def unpatch(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    def write_jsonl(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": selfs[s.id],
                    "attrs": s.attrs,
                    "buckets": {k: {"calls": c, "busy_s": b} for k, (c, b) in s.fine.items()},
                }) + "\n")


def public_functions(module):
    """Functions defined in module whose names do not start with '_'."""
    return [
        (name, obj) for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


# ---------------------------------------------------------------------------
# driftlab's layers
# ---------------------------------------------------------------------------

QUICK_CRITERIA = (
    "streak_oracle", "coupon_bounds", "plateau_chain",
    "headwind_chain", "reduction_identities",
)


def _array_bytes(kernel) -> int:
    """Bytes held by a dense array or a scipy sparse matrix."""
    if hasattr(kernel, "nbytes"):
        return int(kernel.nbytes)
    return sum(int(getattr(kernel, a).nbytes) for a in ("data", "indices", "indptr"))


def _arguments_of(fn):
    sig = inspect.signature(fn)

    def args_of(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return args_of


def install(tracer: Tracer) -> None:
    """Wrap every public function of driftlab's modules where it is
    looked up.  Undo with tracer.unpatch()."""
    import numpy as np

    import driftlab
    from driftlab import (
        _fastwalk, acceptance, bounds, cli, montecarlo, oracle, potentials,
        processes, report,
    )

    everywhere = [
        driftlab, montecarlo, processes, oracle, bounds, potentials,
        report, acceptance, cli,
    ]

    hit_args = _arguments_of(montecarlo.sample_hitting_times)
    traj_args = _arguments_of(montecarlo.simulate_trajectory)

    def hitting(args, kwargs, times):
        cap = hit_args(args, kwargs)["cap"]
        return {
            "trials": int(len(times)),
            "trial_steps": int(np.where(times < 0, cap, times).sum()),
            "censored": int(np.sum(times < 0)),
        }

    def trajectory(args, kwargs, stats):
        a = traj_args(args, kwargs)
        return {"trial_steps": int(a["trials"]) * int(a["horizon"])}

    def chain(args, kwargs, ch):
        return {"states": len(ch.states), "kernel_bytes": _array_bytes(ch.kernel)}

    def solve(args, kwargs, sol):
        ch = args[0] if args else kwargs["chain"]
        return {"states": len(ch.states), "residual": float(sol.residual)}

    annotate = {
        "montecarlo.sample_hitting_times": hitting,
        "montecarlo.simulate_trajectory": trajectory,
        "processes.to_finite_chain": chain,
        "oracle.hitting_time_exact": solve,
    }

    for mod in (montecarlo, processes, oracle, bounds, potentials, report, cli):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in public_functions(mod):
            full = f"{short}.{name}"
            if full == "montecarlo.trial_rng":
                wrapper = tracer.wrap_fine(full, fn)
            else:
                wrapper = tracer.wrap(full, fn, annotate.get(full))
            if full == "processes.to_finite_chain":
                # chains montecarlo builds for its fast paths get their own
                # span around the processes one
                tracer.patch([m for m in everywhere if m is not montecarlo], fn, wrapper)
                tracer.patch([montecarlo], fn, tracer.wrap("montecarlo.to_finite_chain", wrapper))
            else:
                tracer.patch(everywhere, fn, wrapper)

    for name in list(acceptance.CRITERIA):
        fn = acceptance.CRITERIA[name]
        wrapper = tracer.wrap(f"acceptance.{name}", fn)
        tracer.patch([acceptance], fn, wrapper)
        tracer.patch_dict(acceptance.CRITERIA, name, wrapper)

    for name, fn in list(vars(_fastwalk).items()):
        if callable(fn) and not name.startswith("_") and name not in ("njit", "np"):
            tracer.patch([_fastwalk], fn, tracer.wrap_fine("montecarlo._fastwalk", fn))


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "montecarlo.trial_rng.calls": ("count", "lower"),
    "montecarlo.trial_rng.us_per_call": ("us", "lower"),
    "montecarlo.trial_rng.busy_s": ("s", "lower"),
    "montecarlo.sample_hitting_times.busy_s": ("s", "lower"),
    "montecarlo.sample_hitting_times.self_s": ("s", "lower"),
    "montecarlo.sample_hitting_times.trials": ("count", "higher"),
    "montecarlo.sample_hitting_times.trial_steps": ("count", "higher"),
    "montecarlo.sample_hitting_times.censored": ("count", "lower"),
    "montecarlo.sample_hitting_times.steps_per_s": ("1/s", "higher"),
    "montecarlo.simulate_trajectory.busy_s": ("s", "lower"),
    "montecarlo.simulate_trajectory.self_s": ("s", "lower"),
    "montecarlo.simulate_trajectory.trial_steps": ("count", "higher"),
    "montecarlo.simulate_trajectory.steps_per_s": ("1/s", "higher"),
    "montecarlo.reference_step_share": ("ratio", "lower"),
    "montecarlo.to_finite_chain.calls": ("count", "lower"),
    "montecarlo.to_finite_chain.discarded": ("count", "lower"),
    "montecarlo._fastwalk.calls": ("count", "higher"),
    "processes.step.calls": ("count", "lower"),
    "processes.step.busy_s": ("s", "lower"),
    "processes.sample_initial.calls": ("count", "lower"),
    "processes.to_finite_chain.calls": ("count", "lower"),
    "processes.to_finite_chain.busy_s": ("s", "lower"),
    "processes.to_finite_chain.states": ("count", "higher"),
    "processes.to_finite_chain.states_per_s": ("1/s", "higher"),
    "processes.to_finite_chain.kernel_bytes": ("bytes_computed", "lower"),
    "processes.to_finite_chain.kernel_bytes_max": ("bytes_computed", "lower"),
    "oracle.hitting_time_exact.calls": ("count", "lower"),
    "oracle.hitting_time_exact.busy_s": ("s", "lower"),
    "oracle.hitting_time_exact.states": ("count", "higher"),
    "oracle.hitting_time_exact.max_residual": ("1", "lower"),
    "oracle.visit_probabilities_exact.busy_s": ("s", "lower"),
    "oracle.birth_death_exact.busy_s": ("s", "lower"),
    "bounds.calls": ("count", "higher"),
    "bounds.busy_s": ("s", "lower"),
    "bounds.calls_per_s": ("1/s", "higher"),
    "potentials.busy_s": ("s", "lower"),
    "report.busy_s": ("s", "lower"),
    "cli.main.calls": ("count", "higher"),
    "cli.main.busy_s": ("s", "lower"),
    **{f"acceptance.{c}.busy_s": ("s", "lower") for c in QUICK_CRITERIA},
    "trace.overhead_s": ("s", "lower"),
    "trace.rounds": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.max_child_share": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans, have_numba: bool) -> dict:
    """Per-layer figures from the spans of the traced rounds (all
    PER_LAYER names except the trace.* ones the runner adds)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    child = child_times(spans)

    def outermost(prefix):
        out = []
        for s in spans:
            if not s.name.startswith(prefix):
                continue
            p = s.parent
            while p is not None and not by_id[p].name.startswith(prefix):
                p = by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(items):
        return sum(s.duration for s in items)

    def attr(items, key):
        return sum(s.attrs.get(key, 0) for s in items)

    def bucket(name):
        calls = sum(s.fine[name][0] for s in spans if name in s.fine)
        secs = sum(s.fine[name][1] for s in spans if name in s.fine)
        return calls, secs

    m = {}
    rng_calls, rng_s = bucket("montecarlo.trial_rng")
    m["montecarlo.trial_rng.calls"] = rng_calls
    m["montecarlo.trial_rng.us_per_call"] = _ratio(rng_s * 1e6, rng_calls)
    m["montecarlo.trial_rng.busy_s"] = rng_s

    hit = named("montecarlo.sample_hitting_times")
    m["montecarlo.sample_hitting_times.busy_s"] = busy(hit)
    m["montecarlo.sample_hitting_times.self_s"] = sum(selfs[s.id] for s in hit)
    m["montecarlo.sample_hitting_times.trials"] = attr(hit, "trials")
    hit_steps = attr(hit, "trial_steps")
    m["montecarlo.sample_hitting_times.trial_steps"] = hit_steps
    m["montecarlo.sample_hitting_times.censored"] = attr(hit, "censored")
    m["montecarlo.sample_hitting_times.steps_per_s"] = _ratio(hit_steps, busy(hit))

    traj = named("montecarlo.simulate_trajectory")
    traj_steps = attr(traj, "trial_steps")
    m["montecarlo.simulate_trajectory.busy_s"] = busy(traj)
    m["montecarlo.simulate_trajectory.self_s"] = sum(selfs[s.id] for s in traj)
    m["montecarlo.simulate_trajectory.trial_steps"] = traj_steps
    m["montecarlo.simulate_trajectory.steps_per_s"] = _ratio(traj_steps, busy(traj))

    step_calls, step_s = bucket("processes.step")
    m["montecarlo.reference_step_share"] = _ratio(step_calls, hit_steps + traj_steps)
    mc_chains = len(named("montecarlo.to_finite_chain"))
    m["montecarlo.to_finite_chain.calls"] = mc_chains
    m["montecarlo.to_finite_chain.discarded"] = 0 if have_numba else mc_chains
    m["montecarlo._fastwalk.calls"] = bucket("montecarlo._fastwalk")[0]

    m["processes.step.calls"] = step_calls
    m["processes.step.busy_s"] = step_s
    m["processes.sample_initial.calls"] = bucket("processes.sample_initial")[0]

    chains = named("processes.to_finite_chain")
    states = attr(chains, "states")
    m["processes.to_finite_chain.calls"] = len(chains)
    m["processes.to_finite_chain.busy_s"] = busy(chains)
    m["processes.to_finite_chain.states"] = states
    m["processes.to_finite_chain.states_per_s"] = _ratio(states, busy(chains))
    m["processes.to_finite_chain.kernel_bytes"] = attr(chains, "kernel_bytes")
    m["processes.to_finite_chain.kernel_bytes_max"] = max(
        (s.attrs.get("kernel_bytes", 0) for s in chains), default=0
    )

    solves = named("oracle.hitting_time_exact")
    m["oracle.hitting_time_exact.calls"] = len(solves)
    m["oracle.hitting_time_exact.busy_s"] = busy(solves)
    m["oracle.hitting_time_exact.states"] = attr(solves, "states")
    m["oracle.hitting_time_exact.max_residual"] = max(
        (s.attrs.get("residual", 0.0) for s in solves), default=0.0
    )
    m["oracle.visit_probabilities_exact.busy_s"] = busy(named("oracle.visit_probabilities_exact"))
    m["oracle.birth_death_exact.busy_s"] = busy(named("oracle.birth_death_exact"))

    calc = outermost("bounds.")
    m["bounds.calls"] = len(calc)
    m["bounds.busy_s"] = busy(calc)
    m["bounds.calls_per_s"] = _ratio(len(calc), busy(calc))
    m["potentials.busy_s"] = busy(outermost("potentials."))
    m["report.busy_s"] = busy(outermost("report."))
    mains = named("cli.main")
    m["cli.main.calls"] = len(mains)
    m["cli.main.busy_s"] = busy(mains)
    for c in QUICK_CRITERIA:
        m[f"acceptance.{c}.busy_s"] = busy(named(f"acceptance.{c}"))

    m["trace.spans"] = len(spans)
    m["trace.max_child_share"] = max(
        (_ratio(child[s.id], s.duration) for s in spans), default=0.0
    )
    return m
