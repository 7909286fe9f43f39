"""Seeded outputs pinned by digest: every catalog process and seam case
of test_montecarlo, and the pick walks below, give the hitting times and
mean curves stored in data/seeded_digests.json.

The tests there compare each walker with the Process loop; a change
that moves both alike (in _categorical, the trial streams or
sample_initial) passes them and fails here.  Running this file adds the
configurations the data file lacks and leaves every stored entry as it
is:

    PYTHONPATH=src python tests/test_seeded_digests.py

It checks every stored entry first; when one differs it names the
configuration, writes nothing and exits with status 1.  Replacing an
entry is a deliberate act: delete it from the JSON by hand, run this
file, and name the reason in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from driftlab.montecarlo import (
    _FEW_TRIALS,
    _chunk_trials,
    sample_hitting_times,
    simulate_trajectory,
)
from driftlab.processes import (
    GraphInstance,
    KernelDraw,
    make_graph_process,
    make_two_sat_process,
    planted_2sat,
    random_3colorable_graph,
)
from test_montecarlo import _CATALOG, _SEAMS

_FILE = Path(__file__).parent / "data" / "seeded_digests.json"
_SEEDS = (17, 3)
_HEAD = 8  # leading values stored in the clear, shown when a digest differs

# pick walks at the sizes the acceptance criteria simulate, and small
# ones; a UniformPick walk always takes the loop, so one trial count
_PICK_WALKS = {
    "recolour-n30": lambda: make_graph_process(
        "recolour", random_3colorable_graph(30, 0.5, seed=600)),
    "recolour-n9": lambda: make_graph_process(
        "recolour", random_3colorable_graph(9, 0.6, seed=1)),
    "two_sat-n20": lambda: make_two_sat_process(planted_2sat(20, 40, seed=800)),
    "vertex_cover-n6": lambda: make_graph_process("vertex_cover", GraphInstance(
        n=6, edges=((0, 1), (0, 2), (0, 3), (3, 4), (4, 5)), cover=frozenset({0, 4}))),
}
_PROCESSES = {**_CATALOG, **_PICK_WALKS}
_CHAINS = sorted(name for name, make in _CATALOG.items() if isinstance(make().step_law, KernelDraw))

# the live trials at which the lockstep walker hands a chain's trials to
# its walk on the compiled rows; written out, so that a retuned constant
# renames no stored configuration
_HAND_OFF = 32


def _configs() -> dict:
    """id -> (catalog name, trials, seed, cap or None, horizon or None):
    every catalog process on both sides of the loop/lockstep split, every
    seam case and every pick walk, each with both seeds; and hitting
    times alone of every chain on both sides of _HAND_OFF, of a second
    chunk just past it, and of the pick walks at the hitting benchmark's
    three trials a job."""
    cases = [(name, trials, 10_000, 25) for name in sorted(_CATALOG)
             for trials in (_FEW_TRIALS, 25 * _FEW_TRIALS)]
    cases += list(_SEAMS.values())
    cases += [(name, 20, 10_000, 25) for name in sorted(_PICK_WALKS)]
    hitting = [(name, trials, 10_000) for name in _CHAINS for trials in (_HAND_OFF, _HAND_OFF + 1)]
    hitting += [("gamblers_ruin", _chunk_trials(1) + _HAND_OFF + 1, 10_000)]
    hitting += [(name, 3, 10_000) for name in sorted(_PICK_WALKS)]
    configs = {}
    for seed in _SEEDS:
        for name, trials, cap, horizon in cases:
            run = f"{name}:trials={trials}:seed={seed}"
            configs[f"hitting:{run}:cap={cap}"] = (name, trials, seed, cap, None)
            configs[f"trajectory:{run}:horizon={horizon}"] = (name, trials, seed, None, horizon)
        for name, trials, cap in hitting:
            configs[f"hitting:{name}:trials={trials}:seed={seed}:cap={cap}"] = (
                name, trials, seed, cap, None)
    return configs


def _output(name, trials, seed, cap, horizon) -> np.ndarray:
    """The int64 hitting times, or the float64 mean curve and band."""
    process = _PROCESSES[name]()
    if cap is not None:
        return sample_hitting_times(process, trials, seed, cap).astype("<i8")
    stats = simulate_trajectory(process, horizon, trials, seed)
    return np.concatenate([stats.mean, stats.ci_lo, stats.ci_hi]).astype("<f8")


def _digest(values: np.ndarray) -> dict:
    return {"count": int(values.size),
            "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            "head": values[:_HEAD].tolist()}


_CONFIGS = _configs()
_STORED = json.loads(_FILE.read_text()) if _FILE.exists() else {}


def test_the_file_covers_exactly_the_configurations():
    assert sorted(_STORED) == sorted(_CONFIGS)


@pytest.mark.parametrize("config", list(_CONFIGS))
def test_seeded_output_equals_its_stored_digest(config):
    got = _digest(_output(*_CONFIGS[config]))
    want = _STORED[config]
    assert got == want, (f"{config}: first values stored {want['head']}, now {got['head']}; "
                         f"count {want['count']} -> {got['count']}")


def _add_missing() -> int:
    """Write the stored entries and the digests of the configurations
    the file lacks; 1, and nothing written, if a stored digest differs."""
    digests, moved = {}, []
    for config in sorted(_CONFIGS):
        digests[config] = _digest(_output(*_CONFIGS[config]))
        if _STORED.get(config, digests[config]) != digests[config]:
            moved.append(config)
    for config in moved:
        print(f"{config}: differs from its stored digest", file=sys.stderr)
    if moved:
        return 1
    added = sorted(set(_CONFIGS) - set(_STORED))
    dropped = sorted(set(_STORED) - set(_CONFIGS))
    lines = [f"{json.dumps(c)}: {json.dumps(digests[c], sort_keys=True)}" for c in sorted(_CONFIGS)]
    _FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"added {len(added)}, dropped {len(dropped)} no longer configured: {dropped}")
    return 0


if __name__ == "__main__":
    sys.exit(_add_missing())
