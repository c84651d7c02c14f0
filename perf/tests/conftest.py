"""The benchmark's self-tests: ``python -m pytest perf/tests -q``.

Not part of the repository's tier-1 suite: they test the measuring
instrument, not the program.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for path in (PERF.parent / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
