"""The rule-service layer: a long-lived, multi-tenant engine server.

The paper's endpoint is a rule base served like a database: many
clients, one shared compiled rule program, per-client working
memories.  This package is that shape —

* :mod:`repro.service.protocol` — the NDJSON wire protocol;
* :mod:`repro.service.rulebase` — parse-once shared rule bases keyed
  by content hash;
* :mod:`repro.service.session` — per-tenant engine sessions with
  TTL/LRU eviction, WAL-backed resume, and the exactly-once request
  journal;
* :mod:`repro.service.server` — the asyncio front end with bounded
  admission queues, backpressure, deadlines, circuit breakers, and
  drain-mode shutdown;
* :mod:`repro.service.client` — a blocking client with transparent
  reconnect, jittered backoff, and idempotency keys;
* :mod:`repro.service.chaos` — deterministic wire/lifecycle fault
  injection for proving all of the above;
* :mod:`repro.service.loadgen` — the concurrency/latency benchmark
  and chaos soak driver.

See ``docs/SERVICE.md``.
"""

from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.client import (
    AmbiguousRequestError,
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
)
from repro.service.rulebase import RuleBase, RuleBaseCache, rule_base_key
from repro.service.server import RuleService, ServiceConfig, ServiceThread
from repro.service.session import Session, SessionRegistry

__all__ = [
    "AmbiguousRequestError",
    "ChaosConfig",
    "ChaosInjector",
    "RuleBase",
    "RuleBaseCache",
    "RuleService",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceThread",
    "Session",
    "SessionRegistry",
    "rule_base_key",
]
