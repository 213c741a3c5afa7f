"""Import paths for the benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest bench/tests``. The
benchmark modules live in ``bench/``, the library in ``src/`` and the
brute-force oracles in ``tests/oracles.py``.
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "tests", ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
