"""Seeded outputs pinned by digest: every catalog process and seam case
of test_montecarlo, and the pick walks below, give the hitting times and
mean curves stored in data/seeded_digests.json.

The tests there compare each walker with the Process loop; a change
that moves both alike (in _categorical, the trial streams or
sample_initial) passes them and fails here.  Regenerating the file is a
deliberate act, named with its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_seeded_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from driftlab.montecarlo import _FEW_TRIALS, sample_hitting_times, simulate_trajectory
from driftlab.processes import (
    GraphInstance,
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


def _configs() -> dict:
    """id -> (catalog name, trials, seed, cap or None, horizon or None):
    every catalog process on both sides of the loop/lockstep split, every
    seam case and every pick walk, each with both seeds."""
    cases = [(name, trials, 10_000, 25) for name in sorted(_CATALOG)
             for trials in (_FEW_TRIALS, 25 * _FEW_TRIALS)]
    cases += list(_SEAMS.values())
    cases += [(name, 20, 10_000, 25) for name in sorted(_PICK_WALKS)]
    configs = {}
    for name, trials, cap, horizon in cases:
        for seed in _SEEDS:
            run = f"{name}:trials={trials}:seed={seed}"
            configs[f"hitting:{run}:cap={cap}"] = (name, trials, seed, cap, None)
            configs[f"trajectory:{run}:horizon={horizon}"] = (name, trials, seed, None, horizon)
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


if __name__ == "__main__":
    lines = [f"{json.dumps(c)}: {json.dumps(_digest(_output(*_CONFIGS[c])), sort_keys=True)}"
             for c in sorted(_CONFIGS)]
    _FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
