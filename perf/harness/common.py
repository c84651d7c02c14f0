"""What every workload is handed and what it hands back."""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import tempfile
from pathlib import Path

from harness import stats

PERF_DIR = Path(__file__).resolve().parent.parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
OUT = PERF_DIR / "out"

#: The seed whose outcomes are stored in ``expected.json``.
DEFAULT_SEED = 0


class Context:
    """One run's arguments, and temp dirs that die with the run."""

    def __init__(self, seed, seconds, clock, quick=False, tails=True):
        self.seed = seed
        self.seconds = seconds
        self.clock = clock
        self.quick = quick
        #: Are tail percentiles reported?  Then counts have the floor
        #: that leaves ten samples beyond them.
        self.tails = tails and not quick
        self._tmp = []

    def shortened(self, share):
        """This run at *share* of its length and without tail
        percentiles (the served half of a traced run); temp dirs stay
        this context's to remove."""
        other = Context(self.seed, self.seconds * share, self.clock,
                        self.quick, tails=False)
        other._tmp = self._tmp
        return other

    @property
    def server_cpu(self):
        """The core the server is pinned to (None: not pinned)."""
        return self.clock.cpus["server"] if self.clock.cpus else None

    def scale(self, per_second, floor=1, quick=None):
        """A count proportional to ``--seconds``; *quick* replaces it in
        ``--quick`` runs, *floor* bounds it from below otherwise."""
        if self.quick and quick is not None:
            return quick
        return max(floor if self.tails else 1,
                   round(self.seconds * per_second))

    def tmpdir(self):
        OUT.mkdir(exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        self._tmp.append(path)
        return path

    def cleanup(self):
        while self._tmp:
            shutil.rmtree(self._tmp.pop(), ignore_errors=True)


class Result:
    """Metrics plus the operation counts the driver reads."""

    def __init__(self):
        self.metrics = {}      # name -> (value, unit)
        self.counts = {}       # name -> samples behind the metric
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcome = {}      # what expected.json stores for seed 0
        self.notes = {}

    def put(self, name, value, unit, count=None):
        self.metrics[name] = (value, unit)
        if count is not None:
            self.counts[name] = count

    def put_percentile(self, name, chunks_ms, fraction, enforce):
        """A latency percentile, windowed over *chunks_ms* as
        :func:`stats.windowed_percentile` says; when *enforce*, too few
        samples to have ten beyond it is a failed operation."""
        count = sum(len(chunk) for chunk in chunks_ms)
        self.expect(
            not enforce or stats.supported(count, fraction),
            f"{name}: {count} samples leave fewer than "
            f"{stats.MIN_BEYOND} beyond the percentile",
        )
        self.put(name, stats.windowed_percentile(chunks_ms, fraction),
                 "ms", count)

    def expect(self, condition, message):
        """A wrong output is a failed operation."""
        if not condition:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(message)

    @property
    def correct(self):
        return self.failed == 0


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle():
    """Collect between repeats, outside any timed region, so that one
    repeat's garbage is not another's pause."""
    gc.collect()


def digest(lines):
    sha = hashlib.sha256()
    for line in lines:
        sha.update(str(line).encode() + b"\n")
    return sha.hexdigest()[:16]
