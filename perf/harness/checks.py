"""Correctness beyond what the workloads check as they run.

For the default seed every workload's outcome is compared with the one
stored in ``expected.json``.  For any other seed (or run length) a
reduced-size copy of the workload runs on its own matcher and on the
naive matcher — the reference implementation — and both must fire the
same rules on the same time tags and end in the same working memory.
"""

from __future__ import annotations

import json

from harness import embed_workloads as embedded
from harness import gen
from harness.common import DEFAULT_SEED, PERF_DIR

EXPECTED = PERF_DIR / "expected.json"

REDUCED = {
    "embed_bulk": (300, 3, 10),
    "act_collection": (30, 60),
    "dips_sql": (2, 30, 3, 5),
}


def _reduced_outcomes(name, seed):
    if name in REDUCED:
        _sizes, inputs_of, repeat, matcher = embedded.WORKLOADS[name]
        inputs = inputs_of(seed, REDUCED[name])
        return [repeat(inputs, matcher=m).outcome
                for m in (matcher, "naive")]
    stream = gen.window_stream(seed, 0, 9, window=3, facts=6, qualify=4)
    return [embedded.window_repeat(stream, matcher=m).outcome
            for m in ("rete", "naive")]


def differential(name, seed, result):
    own, naive = _reduced_outcomes(name, seed)
    result.attempted += 1
    result.expect(
        own == naive and own[0] > 0,
        f"reduced-size copy: {own} on the workload's matcher, "
        f"{naive} on the naive matcher",
    )


def load_expected():
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def check(name, ctx, result, traced=False, record=False):
    """Compare with the stored outcome when there is one for these
    arguments, else fall back on the reduced-size differential.  A
    traced run does other amounts of work than the stored ones."""
    stored = load_expected()
    key = f"{name}/seconds={ctx.seconds:g}"
    if traced or ctx.quick or ctx.seed != DEFAULT_SEED or (
        key not in stored and not record
    ):
        differential(name, ctx.seed, result)
        return
    if record:
        stored[key] = result.outcome
        with open(EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    result.attempted += 1
    result.expect(
        result.outcome == stored[key],
        f"outcome {result.outcome} differs from the stored "
        f"{stored[key]}",
    )
