"""driftlab's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hitting --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each in its own process
    python3 perfbench/run.py --acceptance-map               # time the 15 criteria once
    python3 perfbench/selfcheck.py                          # checks of the benchmark itself

One workload runs in one process as a closed loop: a single client
issues the next job when the previous one returns, with no threads of
its own.  Jobs come in rounds (see workloads.py); rounds repeat until
the next one would end after --seconds, and at least one round runs.
Each job's output is checked outside the timed region; a job that
raises or fails its check counts as failed and the run goes on.  The
result, its provenance and every job's time also go to
perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics.  On hitting and trajectory, whose time goes to
the interpreter, job times are reference seconds: each measured job
time multiplied by CALIBRATION_REF_S over the mean time of a fixed
pure-Python loop (calibrate) run right before and right after the job.
The shared host this benchmark is tuned on switches between speed
levels up to 1.6x apart, for seconds to minutes at a time, and the
loop slows with it.  On five 35-s runs of each, the run-to-run spread
of wall_s (quartile distance over median) was 0.14 measured and 0.01
calibrated on trajectory, and 0.12 and 0.01 on hitting.  A change to
driftlab moves a reference time as much as the measured one.  exact
spends most of its time in compiled sparse LU, which the loop does not
track: calibrated job by job, its wall_s spread 0.12 over six seeds
against 0.05 measured, so its job times are as measured.  So is
setup_s on every workload: it goes mostly to imports and barely
followed the loop (five trajectory set-ups spread 0.04 measured, 0.16
calibrated).  The measured figures are printed as well and kept in the
result file.

  setup_s      median over five fresh interpreters of the time to
               import driftlab, build the workload's processes and
               instances and warm up
  wall_s       the time to all verdicts of one round: the median over
               rounds of the summed job times
  job_p50_s,   percentiles of the job times over the run; the job count
  job_p90_s    and the jobs above p90 are printed before the JSON line
  work_per_s   units of work per second of job time: trial-steps on
               hitting and trajectory (trial_steps_per_s), states
               enumerated and solved on exact (states_per_s); one
               name, because every workload reports every metric
  peak_rss_mb  ru_maxrss of this process

The share of failed jobs is failed / attempted in the JSON line; it is
not a metric because it reads 0 on a correct commit.

With --trace 1 rounds run in pairs, untraced then traced on the same
inputs, and the JSON line holds the per-layer metrics of tracer.py
from the traced rounds, with trace.overhead_s the traced wall_s minus
the untraced one.  Spans are written to
perfbench/out/trace-<workload>-seed<seed>.jsonl.  Layers never wait on
one another (one process, no queues), so waiting time is not
applicable and not reported.
"""

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

# One BLAS thread unless the caller sets otherwise: the benchmark is a
# single-thread closed loop, and on a 2-vCPU shared host two BLAS
# threads made exact's dense solves slower and noisier (job_p90_s
# 0.15-0.22 s over three runs, against 0.12-0.14 s with one thread).
# Set before numpy is first imported; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_p50_s": ("s", "lower"),
    "job_p90_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
WORKLOAD_NAMES = ("hitting", "trajectory", "exact")
SETUP_REPEATS = 5
# seconds the calibrate() loop takes at the reference speed, about the
# middle of the levels of a 2-vCPU Intel Xeon host under CPython 3.11
CALIBRATION_REF_S = 0.0016
_MAX_REPORTED_FAILURES = 5
_clock = time.perf_counter


def import_driftlab():
    """Import driftlab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "driftlab", "__init__.py")):
        sys.exit(f"perfbench: no driftlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import driftlab

    if not os.path.abspath(driftlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: driftlab imported from {driftlab.__file__}, not {SRC}")
    return driftlab


def _spin() -> float:
    acc, seen = 0.0, {}
    for i in range(8_000):
        seen[i & 255] = i
        acc += (i * 0.5) % 3.0
    return acc + len(seen)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the median of five."""
    times = []
    for _ in range(5):
        t0 = _clock()
        _spin()
        times.append(_clock() - t0)
    return statistics.median(times)


def time_fresh_setup(name: str, seed: int) -> float:
    """Seconds to import driftlab, build the workload's processes and
    instances and warm up, all in a new interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import driftlab, driftlab.cli\n"
        "from workloads import WORKLOADS\n"
        "WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, SRC, HERE, name, str(seed)], capture_output=True,
        text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def provenance(seed) -> dict:
    import numpy
    import scipy
    from driftlab import _fastwalk

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as a, open(os.path.join(index, "type")) as b, \
                    open(os.path.join(index, "size")) as c:
                caches[f"L{a.read().strip()} {b.read().strip()}"] = c.read().strip()
        except OSError:
            continue
    env = (
        "DRIFT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "have_numba": bool(_fastwalk.HAVE_NUMBA),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "env": {k: os.environ.get(k) for k in env},
        "seed": seed,
    }


def run_round(jobs, tracer=None, failures=None, calibrated=False) -> list:
    """Run jobs one after another; returns (kind, seconds, work, ok,
    scale) per job.  Only job.run is timed and traced.  With calibrated,
    the loop runs right before and right after each job and scale is
    CALIBRATION_REF_S over their mean; otherwise scale is 1."""
    results = []
    for job in jobs:
        out = err = None
        before = calibrate() if calibrated else None
        if tracer is not None:
            tracer.active = True
        t0 = _clock()
        try:
            with tracer.span("job." + job.kind) if tracer is not None else nullcontext():
                out = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            err = exc
        finally:
            seconds = _clock() - t0
            if tracer is not None:
                tracer.active = False
        scale = 2.0 * CALIBRATION_REF_S / (before + calibrate()) if calibrated else 1.0
        work = 0
        if err is None:
            try:
                work = job.check(out)
            except Exception as exc:  # includes CheckFailed
                err = exc
        del out
        if err is not None and failures is not None:
            failures.append((job.kind, "".join(traceback.format_exception(err))))
        results.append((job.kind, seconds, work, err is None, scale))
    return results


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run rounds for the given time, and return the result."""
    import numpy as np
    import tracer as tracing
    from driftlab import _fastwalk
    from workloads import WORKLOADS, derive_seed

    workload = WORKLOADS[name]
    setups = [time_fresh_setup(name, seed) for _ in range(SETUP_REPEATS)]
    procs = workload.setup(seed)

    tracer = tracing.Tracer() if trace else None
    traced_procs = (
        {k: tracer.wrap_process(p) for k, p in procs.items()} if trace else None
    )
    def round_jobs(table, r):
        # shuffled, so that a slow spell of the machine hits a mix of
        # jobs rather than every job of one kind
        jobs = workload.jobs(table, seed, r)
        order = np.random.default_rng(derive_seed(seed, 9, r)).permutation(len(jobs))
        return [jobs[i] for i in order]

    failures = []
    plain, traced = [], []
    start = _clock()
    r = 0
    while True:
        plain.append(run_round(round_jobs(procs, r), failures=failures,
                               calibrated=workload.calibrated))
        if trace:
            tracing.install(tracer)
            try:
                traced.append(run_round(round_jobs(traced_procs, r), tracer, failures))
            finally:
                tracer.unpatch()
        r += 1
        elapsed = _clock() - start
        if elapsed + elapsed / r > seconds:
            break

    every = [job for rnd in plain + traced for job in rnd]
    result = {
        "correct": all(job[3] for job in every),
        "attempted": len(every),
        "failed": sum(1 for job in every if not job[3]),
    }
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, _fastwalk.HAVE_NUMBA)
        plain_wall, traced_wall = ([sum(job[1] for job in rnd) for rnd in rounds]
                                   for rounds in (plain, traced))
        metrics["trace.overhead_s"] = statistics.fmean(traced_wall) - statistics.fmean(plain_wall)
        metrics["trace.rounds"] = r
        units = tracing.PER_LAYER
        os.makedirs(OUT, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl"))
    else:
        work = sum(job[2] for rnd in plain for job in rnd)

        def summary(scaled):
            rounds = [[job[1] * (job[4] if scaled else 1.0) for job in rnd] for rnd in plain]
            times = [t for rnd in rounds for t in rnd]
            return {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(sum(rnd) for rnd in rounds),
                "job_p50_s": float(np.percentile(times, 50)),
                "job_p90_s": float(np.percentile(times, 90)),
                "work_per_s": work / sum(times),
            }

        measured = summary(False)
        metrics = summary(True)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["measured"] = measured
        units = END_TO_END
        jobs = sum(len(rnd) for rnd in plain)
        above = sum(1 for rnd in plain for job in rnd if job[1] * job[4] > metrics["job_p90_s"])
        print(f"jobs: {jobs} in {r} rounds, {above} above p90")
        if workload.calibrated:
            print("measured, not calibrated: " + json.dumps(measured))
        print(f"work_per_s counts {workload.work}")
    result["metrics"] = {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}
    result["rounds"] = plain
    for kind, text in failures[:_MAX_REPORTED_FAILURES]:
        sys.stderr.write(f"perfbench: job {kind} failed\n{text}")
    return result


def print_result(name: str, seed: int, trace: int, result: dict, prov: dict) -> None:
    """Write the result file, print a readable summary, and print the
    JSON line last."""
    rounds = result.pop("rounds")
    measured = result.pop("measured", None)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"workload {name}: fail_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} jobs)")
    for key, m in result["metrics"].items():
        print(f"  {key:48s} {m['value']!r:>24} {m['unit']}")
    if trace:
        print("  waiting: not applicable (one process, no queues)")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "provenance": prov, **result, "measured": measured,
                   "rounds": rounds}, fh, indent=1)
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((name, "fail_frac", result["failed"] / result["attempted"], "1"))
        rows.extend((name, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    for name, key, value, unit in rows:
        print(f"{name:11s} {key:48s} {value!r:>24} {unit}")
    return status


def acceptance_map(seed: int) -> int:
    """Wall time and verdict of each paper_acceptance criterion, once.
    fixed_budget reads violated by design."""
    from driftlab import acceptance

    rows = []
    for name in list(acceptance.CRITERIA):
        t0 = _clock()
        try:
            verdict = acceptance.CRITERIA[name](seed=seed).verdict
        except Exception as exc:  # record and go on to the next criterion
            verdict = f"error: {type(exc).__name__}: {exc}"
        rows.append({"criterion": name, "wall_s": _clock() - t0, "verdict": verdict})
        print(f"{name:24s} {rows[-1]['wall_s']:10.3f} s  {verdict}", flush=True)
    print(f"{'total':24s} {sum(r['wall_s'] for r in rows):10.3f} s")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"acceptance-map-seed{seed}.json"), "w") as fh:
        json.dump({"provenance": provenance(seed), "criteria": rows}, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    what.add_argument("--acceptance-map", action="store_true",
                      help="time each paper_acceptance criterion once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_driftlab()
    if args.acceptance_map:
        return acceptance_map(args.seed)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, args.seed, args.trace, result, provenance(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
