"""Acceptance gate: one pass/fail line per validation criterion.

Each criterion cross-checks a bound calculator against the exact
oracle and/or a seeded simulation; the test passes only when the
resulting verdict is "holds" and every checked precondition passed.
Its report line must also equal the stored one byte for byte, so that
a change meant to keep every seeded number cannot move one.
"""

from pathlib import Path

import pytest

from driftlab import acceptance, processes
from driftlab.cli import main
from driftlab.oracle import hitting_time_exact
from driftlab.report import HOLDS, rows_to_csv

_SEED = 0
_DATA = Path(__file__).parent / "data"
# `drift suite paper_acceptance --seed 0`: a header, then one line per
# criterion in CRITERIA order
_GOLDEN = (_DATA / "paper_acceptance_seed0.csv").read_text().splitlines()


@pytest.mark.parametrize("criterion", list(acceptance.CRITERIA))
def test_criterion(criterion):
    row = acceptance.CRITERIA[criterion](seed=_SEED)
    assert row.verdict == HOLDS, (
        f"criterion {criterion}: verdict {row.verdict!r} "
        f"(bound {row.bound!r}, oracle {row.oracle!r}, "
        f"sim_mean {row.sim_mean!r}, preconditions {row.preconditions!r})"
    )
    line = rows_to_csv([row]).splitlines()[1]
    assert line == _GOLDEN[1 + list(acceptance.CRITERIA).index(criterion)]


def test_golden_report_covers_every_criterion():
    assert len(_GOLDEN) == 1 + len(acceptance.CRITERIA)


def test_suite_quick_output_is_byte_identical(capsys):
    assert main(["suite", "quick", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (_DATA / "suite_quick_seed3.csv").read_text()


@pytest.mark.parametrize("n", [9, 12])
def test_pick_walk_bounds_hold_exactly_at_enumerable_n(n):
    # recolour_walk and two_sat_walk simulate n = 30 and n = 20; on the
    # same generators at n = 9 and 12 every state's exact E[T] is within
    # the additive bounds those rows check, 3n^2/8 and n^2
    walks = [
        (3.0 * n * n / 8.0, processes.make_graph_process(
            "recolour", processes.random_3colorable_graph(n, 0.5, seed=600 + i)))
        for i in range(3)
    ] + [
        (float(n * n), processes.make_two_sat_process(
            processes.planted_2sat(n, 2 * n, seed=800 + i)))
        for i in range(3)
    ]
    for bound, proc in walks:
        chain = processes.to_finite_chain(proc)
        assert len(chain.states) == 2**n
        worst = max(hitting_time_exact(chain).per_state.values())
        assert worst <= bound, (proc.name, worst, bound)
