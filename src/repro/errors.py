"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems define narrower classes:
parsing (:class:`ParseError`), rule semantics (:class:`RuleError`),
working-memory misuse (:class:`WorkingMemoryError`), the inference engine
(:class:`EngineError`), the relational substrate (:class:`DatabaseError`),
and the DIPS layer (:class:`DipsError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ParseError(ReproError):
    """A rule or SQL source string could not be parsed.

    Carries the ``line`` and ``column`` (1-based) where parsing failed,
    when known, so error messages point at the offending token.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class RuleError(ReproError):
    """A rule is syntactically valid but semantically ill-formed.

    Examples: a ``:scalar`` clause naming a variable that never appears,
    an aggregate over a non-set variable, an RHS referencing an unbound
    pattern variable, or a ``foreach`` over a scalar.
    """


class WorkingMemoryError(ReproError):
    """Invalid working-memory operation.

    Examples: making a WME of an undeclared class, referencing an
    undeclared attribute, or removing a time tag that is not present.
    """


class EngineError(ReproError):
    """Runtime failure inside the recognize-act cycle or RHS execution."""


class ConflictResolutionError(EngineError):
    """An unknown or inapplicable conflict-resolution strategy was chosen."""


class FiringError(EngineError):
    """A rule firing failed and was rolled back atomically.

    Raised (under the ``halt`` error policy) after the engine has
    restored working memory, the conflict set, and the refraction
    stamp to their exact pre-fire state.  Carries enough context to
    diagnose the poison instantiation:

    ``rule_name``, ``cycle``, ``attempt`` (1-based), ``action_path``
    (indexes into the RHS action tree, outermost first; empty when the
    failure preceded the first action), ``stage`` (``"rhs"`` for an
    action failure, ``"commit"`` for a write-ahead-log failure while
    publishing the firing's effects), and ``__cause__`` — the original
    exception.
    """

    def __init__(self, message, *, rule_name, cycle, attempt=1,
                 action_path=(), stage="rhs"):
        super().__init__(message)
        self.rule_name = rule_name
        self.cycle = cycle
        self.attempt = attempt
        self.action_path = tuple(action_path)
        self.stage = stage

    @property
    def action_index(self):
        """Top-level index of the failed RHS action (None if before any)."""
        return self.action_path[0] if self.action_path else None


class LivelockError(EngineError):
    """A run watchdog detected a refire cycle and ``on_livelock='raise'``.

    The same instantiation identity (rule plus WME *contents*, not time
    tags) fired more than the configured threshold with no net change
    to working-memory contents between firings.
    """


class DatabaseError(ReproError):
    """Base error for the relational substrate (:mod:`repro.rdb`)."""


class SchemaError(DatabaseError):
    """A table/schema definition or row violates declared structure."""


class StorageError(DatabaseError):
    """A storage backend failed or rejected an operation.

    Raised for unknown backend specs, values outside the backend's
    storable domain (the substrate's value domain is strings, numbers,
    and NULL), and unexpected errors surfaced by an out-of-core engine
    (e.g. sqlite).  Batch operations that raise this guarantee the
    table is unchanged — writes are all-or-nothing per statement.
    """


class QueryError(DatabaseError):
    """A logical query plan is invalid or cannot be evaluated."""


class SqlError(QueryError):
    """The mini-SQL dialect parser rejected a statement."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. commit after abort)."""


class TransactionConflict(TransactionError):
    """Two transactions made conflicting accesses; the loser aborts.

    This is the mechanism DIPS relies on (paper section 8.1): concurrently
    executed instantiations that touch the same WMEs invalidate each other.
    """


class DipsError(ReproError):
    """Failure in the DIPS DBMS-based matcher (:mod:`repro.dips`)."""


class DurabilityError(ReproError):
    """Base error for the durability subsystem (:mod:`repro.durability`)."""


class WalError(DurabilityError):
    """The write-ahead log cannot be appended to or is malformed.

    Raised when opening a log directory for append finds mid-log
    corruption (use :meth:`RuleEngine.recover` instead), or when a
    configuration value (fsync policy, segment size) is invalid.
    """


class AppendRefused(WalError, OSError):
    """A write-ahead append failed and left none of its frame in the
    log; it carries the errno of the failure behind it."""


class RecoveryError(DurabilityError):
    """Recovery cannot reconstruct a consistent state.

    Raised for silently-corrupt WAL middles (a CRC-failed record with
    valid records after it), missing segments, damaged checkpoints, and
    log records that reference state the replay does not have.  A
    torn or truncated *final* record is NOT an error — recovery drops
    the unflushed tail and proceeds.
    """


class ServiceError(ReproError):
    """Failure in the rule-service layer (:mod:`repro.service`).

    Raised for session-registry misuse (unknown or duplicate session
    ids, ids unsafe to map onto a WAL directory name) and for server
    configuration problems.  Protocol-level failures are reported to
    the client as error responses, not exceptions.
    """


class AdmissionError(ServiceError):
    """A request was rejected by admission control (backpressure).

    Carries ``retry_after`` (seconds), surfaced to clients as a
    ``busy`` response so they can back off and retry instead of piling
    onto a saturated session or server.
    """

    def __init__(self, message, retry_after=0.05):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineError(ServiceError):
    """A request's deadline expired before the server could serve it.

    Raised when a ``deadline_ms``-carrying request is still queued (on
    admission, the session lock, or the executor) when its deadline
    passes.  Surfaced to clients as a ``deadline`` error response; by
    construction the request was *not* applied, so retrying with a
    fresh deadline is always safe.  A deadline that expires mid-run
    does not raise — the run watchdog stops the run and reports
    ``stopped="deadline"`` in an ok response instead.
    """
