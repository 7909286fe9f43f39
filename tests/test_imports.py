"""What `import driftlab` loads: numpy, and no scipy submodule until a
chain, a solve or an integral needs it."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPARSE = ("scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph")
LATE = SPARSE + ("scipy.linalg", "scipy.integrate", "scipy.special", "scipy.optimize")


def loaded_after(code: str) -> set:
    """The modules of LATE that a fresh interpreter holds after code."""
    probe = f"{code}\nimport sys\nprint(*(m for m in {LATE!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(done.stdout.split())


def test_import_loads_no_scipy_submodule():
    assert loaded_after("import driftlab, driftlab.cli") == set()


def test_exact_solve_loads_sparse_but_not_integrate():
    loaded = loaded_after(
        "from driftlab import oracle, processes\n"
        "oracle.hitting_time_exact(processes.to_finite_chain("
        "processes.make_simple_chain('coupon', n=5)))"
    )
    assert set(SPARSE) <= loaded
    assert "scipy.integrate" not in loaded


def test_variable_drift_loads_integrate():
    loaded = loaded_after(
        "from driftlab import bounds\n"
        "bounds.variable_drift_upper(bounds.linear_drift(0.5), 1.0, 10.0)"
    )
    assert "scipy.integrate" in loaded
