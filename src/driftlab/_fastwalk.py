"""Whether numba is importable, recorded as provenance in benchmark
results.  No simulation path uses it: every walk runs through the
Process interface in `montecarlo`.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
