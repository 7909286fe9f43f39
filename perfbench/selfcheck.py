"""Self-checks of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Corrupting one trial's hitting time, one exact value or one point
   of a mean curve, or a job that raises, makes the round count a
   failed job and go on.
2. Self time and child time on a synthetic span tree.
3. BENCHMARK.json lists exactly the workloads and metrics the code
   reports, with the same units.
"""

import dataclasses
import json
import os
import sys

import numpy as np

import run

run.import_driftlab()

import tracer  # noqa: E402
import workloads  # noqa: E402
from driftlab import processes  # noqa: E402


def corrupted(job, corrupt):
    honest = job.run
    return dataclasses.replace(job, run=lambda: corrupt(honest()))


def check_corruption():
    coupon5 = processes.make_simple_chain("coupon", n=5)
    times_job = workloads.hit_times_job("coupon(n=5)", coupon5, 20, 7, 1000)

    def bump_trial(times):
        times = times.copy()
        times[3] += 1
        return times

    coupon10 = processes.make_simple_chain("coupon", n=10)
    exact_job = workloads.chain_job("coupon(n=10)", coupon10, 11, 10 * workloads.harmonic(10))

    def bump_state(out):
        chain, sol = out
        per_state = dict(sol.per_state)
        per_state[5] *= 1.0 + 1e-6
        return chain, dataclasses.replace(sol, per_state=per_state)

    def bump_start(out):
        chain, sol = out
        return chain, dataclasses.replace(sol, from_start=sol.from_start * (1.0 + 1e-6))

    ruin = processes.make_simple_chain("gamblers_ruin", n=10)
    curve_job = workloads.trajectory_job("gamblers_ruin(n=10)", ruin, 30, 5, 7, 10.0)

    def bump_curve(stats):
        mean = np.array(stats.mean)
        mean[12] *= 1.0 + 1e-6
        return dataclasses.replace(stats, mean=mean)

    def boom():
        raise RuntimeError("raised on purpose")

    jobs = [
        times_job,
        corrupted(times_job, bump_trial),
        exact_job,
        corrupted(exact_job, bump_state),
        corrupted(exact_job, bump_start),
        curve_job,
        corrupted(curve_job, bump_curve),
        workloads.Job("raises", boom, lambda out: 0),
        exact_job,
    ]
    failures = []
    results = run.run_round(jobs, failures=failures)
    oks = [job[3] for job in results]
    assert oks == [True, False, True, False, False, True, False, False, True], oks
    assert len(failures) == 5
    fail_frac = oks.count(False) / len(oks)
    assert fail_frac > 0


def check_self_time():
    Span = tracer.Span
    spans = [
        Span(0, "job.x", None, 0.0, 10.0),
        Span(1, "montecarlo.a", 0, 1.0, 4.0),
        Span(2, "montecarlo.b", 0, 3.0, 6.0),  # overlaps a, as on a pool thread
        Span(3, "bounds.c", 1, 2.0, 3.0),
        Span(4, "bounds.d", 3, 2.2, 2.6),
    ]
    spans[0].fine["processes.step"] = [5, 1.5]
    child = tracer.child_times(spans)
    selfs = tracer.self_times(spans)
    expected_self = {0: 10.0 - 5.0 - 1.5, 1: 2.0, 2: 3.0, 3: 0.6, 4: 0.4}
    for i, want in expected_self.items():
        assert abs(selfs[i] - want) < 1e-12, (i, selfs[i], want)
    assert all(child[s.id] <= s.duration for s in spans)
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0
    m = tracer.layer_metrics(spans, have_numba=False)
    assert m["bounds.calls"] == 1 and abs(m["bounds.busy_s"] - 1.0) < 1e-12
    assert m["processes.step.calls"] == 5
    assert m["trace.max_child_share"] <= 1.0


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracer.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table, f"{key} in BENCHMARK.json differs from the code"


def main() -> int:
    for check in (check_corruption, check_self_time, check_benchmark_json):
        check()
        print(f"{check.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
