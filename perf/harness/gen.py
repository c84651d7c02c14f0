"""Seeded input generators.

The same seed gives byte-identical inputs (see ``tests/test_gen.py``).
A seed changes names, values and order but not how much work an input
is: every seed draws from the same multiset of shapes, so runs with
different seeds are comparable and their spread is the machine's.
"""

from __future__ import annotations

import json
import random

from harness.programs import KERNEL_DEPTS, WINDOW_DEPTS, WINDOW_SALARY_FLOOR

WINDOW_TICKS = 50          # ticks a fact stays in working memory
WINDOW_FACTS = 20          # emp facts per tick
WINDOW_QUALIFY = 14        # of which this many pass note-emp's test

ORDER_STATUSES = ("open", "closed", "held", "void", "hold2")


def _rng(*parts):
    # String seeds hash through SHA-512: stable across processes.
    return random.Random("/".join(str(part) for part in parts))


# -- WINDOW (serve_window, serve_durable) -------------------------------------


def window_depts():
    return [("dept", {"name": f"d{d}"}) for d in range(WINDOW_DEPTS)]


def window_stream(seed, session, ticks, window=WINDOW_TICKS,
                  facts=WINDOW_FACTS, qualify=WINDOW_QUALIFY):
    """*ticks* fact batches for one session: *facts* ``emp`` facts, of
    which *qualify* pass ``note-emp``'s test, and the ``expire`` marker
    that retires the tick leaving the *window*."""
    rng = _rng("window", seed, session)
    stream = []
    for tick in range(ticks):
        depts = [(tick * facts + j) % WINDOW_DEPTS for j in range(facts)]
        rng.shuffle(depts)
        qualifies = [True] * qualify + [False] * (facts - qualify)
        rng.shuffle(qualifies)
        batch = []
        for i in range(facts):
            salary = (
                rng.randrange(WINDOW_SALARY_FLOOR + 1, 2501)
                if qualifies[i]
                else rng.randrange(1000, WINDOW_SALARY_FLOOR + 1)
            )
            batch.append(("emp", {
                "name": f"s{session}e{tick * facts + i}",
                "dept": f"d{depts[i]}",
                "salary": salary,
                "tick": tick,
            }))
        batch.append(("expire", {"before": tick - window + 1}))
        stream.append(batch)
    return stream


def window_expected_wm(stream):
    """Working memory after every tick of *stream* ran to quiescence,
    worked out from the inputs alone: the departments, the facts of the
    last WINDOW_TICKS ticks, and a ``seen`` per qualifying fact."""
    expected = [(wme_class, tuple(sorted(values.items())))
                for wme_class, values in window_depts()]
    for batch in stream[-WINDOW_TICKS:]:
        for wme_class, values in batch:
            if wme_class != "emp":
                continue
            expected.append((wme_class, tuple(sorted(values.items()))))
            if values["salary"] > WINDOW_SALARY_FLOOR:
                expected.append(("seen", tuple(sorted({
                    "name": values["name"], "tick": values["tick"],
                }.items()))))
    return sorted(expected, key=repr)


def window_expected_size(ticks_done):
    """``len(wm)`` once *ticks_done* ticks ran to quiescence."""
    live = min(ticks_done, WINDOW_TICKS)
    return WINDOW_DEPTS + live * (WINDOW_FACTS + WINDOW_QUALIFY)


# -- KERNEL (embed_bulk) ------------------------------------------------------


def kernel_orders(seed, count):
    """*count* ``order`` facts: every seed shuffles the same multiset."""
    orders = [
        ("order", {
            "dept": f"d{(i // 50) % KERNEL_DEPTS}",
            "status": ORDER_STATUSES[i % 5],
            "priority": (i // 5) % 10,
            "qty": (i * 7 + i // 1000) % 97,
        })
        for i in range(count)
    ]
    _rng("kernel", seed, "orders").shuffle(orders)
    return orders


def kernel_depts():
    return [("dept", {"name": f"d{d}", "cap": 90 + d % 5})
            for d in range(KERNEL_DEPTS)]


#: Every ``dept`` cap is below this and above KERNEL_QTY_IDLE, so an
#: order at or over KERNEL_QTY_OVER is in every ``over-cap`` set while
#: ``held``, and one at or under KERNEL_QTY_IDLE is in none.
KERNEL_QTY_OVER = 95
KERNEL_QTY_IDLE = 89


def kernel_updates(seed, orders, batches, per_batch, flips=2):
    """*batches* lists of ``(order index, updates)``; an index is drawn
    once at most, so every update hits a live fact.

    Each batch is the same amount of work whatever the seed: *flips*
    ``held`` orders leave every ``over-cap`` set, *flips* others enter
    them, and the rest change status and priority but can be in none.
    """
    rng = _rng("kernel", seed, "updates")
    leave, enter, idle = [], [], []
    for index, (_class, values) in enumerate(orders):
        if values["qty"] >= KERNEL_QTY_OVER:
            (leave if values["status"] == "held" else enter).append(index)
        elif values["qty"] <= KERNEL_QTY_IDLE:
            idle.append(index)
    for stratum in (leave, enter, idle):
        rng.shuffle(stratum)
    flips = min(flips, len(leave) // batches, len(enter) // batches)
    updates = []
    for b in range(batches):
        batch = [(leave.pop(), {"status": "closed"}) for _ in range(flips)]
        batch += [(enter.pop(), {"status": "held"}) for _ in range(flips)]
        batch += [
            (idle.pop(), {
                "status": ("open", "void", "closed")[(b + i) % 3],
                "priority": (b * 3 + i) % 10,
            })
            for i in range(per_batch - len(batch))
        ]
        rng.shuffle(batch)
        updates.append(batch)
    return updates


# -- ACT (act_collection) -----------------------------------------------------


def act_items(seed, count):
    values = list(range(count))
    _rng("act", seed, count).shuffle(values)
    return [("item", {"status": "raw", "value": value})
            for value in values] + [("control", {"phase": "start"})]


# -- DIPS (dips_sql) ----------------------------------------------------------


def dips_depts():
    return [("dept", {"name": f"d{d}"}) for d in range(WINDOW_DEPTS)]


def dips_emps(seed, batches, per_batch):
    count = batches * per_batch
    emps = [
        ("emp", {
            "name": f"e{i}",
            "dept": f"d{i % WINDOW_DEPTS}",
            "salary": 1000 + (i * 7) % 1500,
        })
        for i in range(count)
    ]
    _rng("dips", seed, "emps").shuffle(emps)
    return [emps[b * per_batch:(b + 1) * per_batch] for b in range(batches)]


def dips_updates(seed, count, batches, per_batch):
    rng = _rng("dips", seed, "updates")
    picks = rng.sample(range(count), batches * per_batch)
    return [
        [(picks[b * per_batch + i], {"salary": 1000 + rng.randrange(1500)})
         for i in range(per_batch)]
        for b in range(batches)
    ]


def fingerprint(inputs):
    """Canonical bytes of generated inputs, for the determinism tests."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
