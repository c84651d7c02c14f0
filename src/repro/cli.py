"""An OPS5-style command-line interpreter for the engine.

Usage::

    python -m repro.cli [program.ops]
                        [--matcher rete|naive|dips]
                        [--backend memory|sqlite|sqlite:PATH]
                        [--strategy lex|mea] [--run N] [--watch LEVEL]
                        [--on-error POLICY]
                        [--profile] [--profile-json FILE]
                        [--wal-dir DIR] [--fsync always|batch|off]
                        [--checkpoint]
    python -m repro.cli recover DIR [--run N] [--no-wal] ...

``--backend`` picks the relational storage backend for the ``dips``
matcher's COND tables — ``memory`` (default), ``sqlite`` (private
in-memory database, queries pushed down to real SQL), or
``sqlite:PATH`` (out-of-core, file-backed).  The ``REPRO_RDB_BACKEND``
environment variable supplies the default; the flag wins.  Other
matchers ignore it.  ``serve`` refuses ``sqlite:PATH``: its sessions
would all share the one file.  See ``docs/STORAGE.md``.

The ``--matcher`` names come from the registry in :mod:`repro.match`;
the flags the three commands share (``--matcher``, ``--backend``,
``--strategy``, ``--on-error``) are declared once, in
:func:`_add_engine_options`.

``--on-error`` sets the engine-wide firing error policy — ``halt``
(default), ``skip``, ``retry[:n[:backoff[:then]]]``, or
``quarantine[:k]`` — see ``docs/RELIABILITY.md``; the ``on-error``
REPL command changes it (optionally per rule) at runtime, and
``deadletters`` / ``quarantined`` / ``release`` inspect and undo what
containment did.

``--wal-dir`` enables the durability subsystem: every working-memory
delta-set and firing is appended to a write-ahead log in *DIR* (fsync
policy per ``--fsync``), the ``checkpoint`` REPL command (or
``--checkpoint`` in batch mode) writes an atomic snapshot, and the
``recover`` subcommand rebuilds the session from the log after a
crash.  See ``docs/DURABILITY.md``.

``--profile`` collects node-level match statistics (join tests, index
probes vs scans, token churn, S-node marks, per-rule timings) and
prints the per-rule/per-node profile tables when the session ends; the
``profile`` REPL command prints them on demand.  ``--profile-json``
additionally writes the structured snapshot to *FILE* on exit.

With a program file and ``--run``, executes in batch mode and prints
the ``write`` output.  Without ``--run`` it drops into a REPL:

========================  ====================================================
command                   effect
========================  ====================================================
``(p ...)``               define a rule (multi-line until parens balance)
``(literalize c a ...)``  declare a WME class
``make class ^a v ...``   add a WME
``remove N``              remove the WME with time tag N
``modify N ^a v ...``     modify the WME with time tag N
``run [N]``               fire until quiescence (or at most N firings)
``step``                  fire the dominant instantiation once
``wm [class]``            show working memory
``cs``                    show the conflict set, dominant first
``matches RULE``          show a rule's instantiations and their tokens
``watch LEVEL``           0 = silent, 1 = firings, 2 = + WM changes
``strategy lex|mea``      switch conflict resolution
``on-error P [RULE]``     set the error policy (engine-wide or per rule)
``deadletters``           show abandoned (skip/quarantine) firings
``quarantined``           show quarantined rules and why
``release RULE``          re-admit a quarantined rule
``excise RULE``           remove a rule at runtime (WAL-logged)
``replace RULE (p ...)``  atomically swap a rule for one-line source
``stats``                 engine counters (+ match totals with --profile)
``profile``               per-rule/per-node match-work tables (--profile)
``checkpoint``            write a durability checkpoint (--wal-dir)
``load FILE``             load a program file
``exit``                  leave
========================  ====================================================
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.conflict import strategy_named
from repro.engine.engine import RuleEngine
from repro.errors import ReproError
from repro.lang.printer import format_ce
from repro.match import MATCHER_NAMES, build_matcher
from repro.symbols import coerce_literal


def _parse_attribute_args(tokens):
    """``^a v ^b w`` argument pairs into a dict of coerced values."""
    values = {}
    index = 0
    while index < len(tokens):
        attribute = tokens[index]
        if not attribute.startswith("^") or index + 1 >= len(tokens):
            raise ReproError(
                "expected ^attribute value pairs, e.g. ^team A ^name Jack"
            )
        values[attribute[1:]] = coerce_literal(tokens[index + 1])
        index += 2
    return values


class ReplSession:
    """One interactive session; ``execute`` returns printable output."""

    def __init__(self, matcher="rete", strategy="lex", watch=1,
                 profile=False, wal_dir=None, fsync="batch",
                 on_error="halt", engine=None, backend=None):
        from repro.engine.stats import MatchStats

        self.profile_stats = None
        if engine is not None:
            # A recovered engine: adopt it (and its stats) wholesale.
            self.engine = engine
            if isinstance(engine.stats, MatchStats):
                self.profile_stats = engine.stats
        else:
            if profile:
                self.profile_stats = MatchStats()
            durability = None
            if wal_dir:
                from repro.durability import DurabilityConfig

                durability = DurabilityConfig(wal_dir, fsync=fsync)
            self.engine = RuleEngine(matcher=build_matcher(matcher,
                                                           backend),
                                     strategy=strategy,
                                     stats=self.profile_stats,
                                     durability=durability,
                                     on_error=on_error)
        self.watch = watch
        self._pending = ""
        self.engine.wm.attach(self._wm_observer)

    def close(self):
        """Flush and close the durability log, if one is attached."""
        self.engine.close()

    def profile_report(self):
        """The per-rule/per-node profile tables (with tracer drops)."""
        if self.profile_stats is None:
            return "profiling is off (start with --profile)"
        report = self.profile_stats.format_report()
        tracer = self.engine.tracer
        if tracer.dropped_records:
            report += (
                f"\n\ntracer ring buffer dropped "
                f"{tracer.dropped_firings} firing record(s) and "
                f"{tracer.dropped_output} output line(s)"
            )
        return report

    # -- observation ------------------------------------------------------

    def _wm_observer(self, event):
        if self.watch >= 2:
            print(f"  {event.sign}{event.wme!r}")

    def _report_firing(self, instantiation):
        if self.watch >= 1 and instantiation is not None:
            tags = " ".join(str(t) for t in instantiation.recency_key())
            print(f"fire {instantiation.rule.name} [{tags}]")

    # -- command dispatch -----------------------------------------------------

    def execute(self, line):
        """Execute one input line; returns output text ('' for silent).

        Rule/literalize definitions may span lines: the session buffers
        until parentheses balance.
        """
        if self._pending:
            return self._continue_definition(line)
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            return ""
        if stripped.startswith("("):
            return self._continue_definition(line)
        parts = stripped.split()
        command, arguments = parts[0], parts[1:]
        handler = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if handler is None:
            return f"unknown command: {command} (try 'help')"
        try:
            return handler(arguments) or ""
        except ReproError as error:
            return f"error: {error}"

    def _continue_definition(self, line):
        self._pending += line + "\n"
        if self._pending.count("(") > self._pending.count(")"):
            return "..."
        source, self._pending = self._pending, ""
        try:
            rules = self.engine.load(source)
        except ReproError as error:
            return f"error: {error}"
        if rules:
            return "defined " + ", ".join(rule.name for rule in rules)
        return "ok"

    # -- commands ---------------------------------------------------------------

    def _cmd_help(self, arguments):
        return __doc__.split("========", 1)[0] + (
            "commands: make remove modify run step wm cs matches watch "
            "parallel excise replace strategy on-error deadletters "
            "quarantined release stats profile checkpoint network load "
            "exit"
        )

    def _cmd_make(self, arguments):
        if not arguments:
            return "usage: make class ^attr value ..."
        wme = self.engine.make(
            arguments[0], **_parse_attribute_args(arguments[1:])
        )
        return f"made {wme!r}"

    def _cmd_remove(self, arguments):
        for argument in arguments:
            self.engine.remove(int(argument))
        return f"removed {len(arguments)} element(s)"

    def _cmd_modify(self, arguments):
        if not arguments:
            return "usage: modify time-tag ^attr value ..."
        wme = self.engine.modify(
            int(arguments[0]), **_parse_attribute_args(arguments[1:])
        )
        return f"now {wme!r}"

    def _cmd_run(self, arguments):
        limit = int(arguments[0]) if arguments else None
        letters_before = len(self.engine.dead_letters)
        fired = 0
        while limit is None or fired < limit:
            letters = len(self.engine.dead_letters)
            instantiation = self.engine.step()
            if instantiation is None:
                break
            if len(self.engine.dead_letters) > letters:
                continue  # abandoned by its error policy, not a firing
            self._report_firing(instantiation)
            fired += 1
        lines = [f"{fired} firing(s)"]
        abandoned = len(self.engine.dead_letters) - letters_before
        if abandoned:
            lines.append(
                f"{abandoned} firing(s) abandoned (see deadletters)"
            )
        lines.extend(list(self.engine.tracer.output)[-20:])
        self.engine.tracer.output.clear()
        return "\n".join(lines)

    def _cmd_parallel(self, arguments):
        max_cycles = int(arguments[0]) if arguments else None
        result = self.engine.run_parallel(max_cycles)
        cycles, fired, conflicted, abandoned = result
        lines = [
            f"{cycles} cycle(s): {fired} fired, "
            f"{conflicted} invalidated, {abandoned} abandoned"
        ]
        lines.extend(list(self.engine.tracer.output)[-20:])
        self.engine.tracer.output.clear()
        return "\n".join(lines)

    def _cmd_step(self, arguments):
        instantiation = self.engine.step()
        if instantiation is None:
            return "nothing to fire"
        self._report_firing(instantiation)
        output = list(self.engine.tracer.output)
        self.engine.tracer.output.clear()
        return "\n".join([f"fired {instantiation.rule.name}"] + output)

    def _cmd_wm(self, arguments):
        wmes = (
            self.engine.wm.of_class(arguments[0])
            if arguments
            else list(self.engine.wm)
        )
        if not wmes:
            return "working memory is empty"
        return "\n".join(repr(wme) for wme in wmes)

    def _cmd_cs(self, arguments):
        ordered = self.engine.conflict_set.ordered(self.engine.strategy)
        if not ordered:
            return "conflict set is empty"
        lines = []
        for rank, instantiation in enumerate(ordered, start=1):
            tags = " ".join(str(t) for t in instantiation.recency_key())
            marker = "" if instantiation.eligible() else " (fired)"
            kind = "SOI" if instantiation.is_set_oriented else "inst"
            lines.append(
                f"{rank}. {instantiation.rule.name} [{tags}] "
                f"{kind}{marker}"
            )
        return "\n".join(lines)

    def _cmd_matches(self, arguments):
        if not arguments:
            return "usage: matches rule-name"
        rule_name = arguments[0]
        rule = self.engine.rules.get(rule_name)
        if rule is None:
            return f"no rule named {rule_name}"
        lines = [format_ce(ce) for ce in rule.ces]
        for instantiation in self.engine.conflict_set.of_rule(rule_name):
            lines.append("instantiation:")
            for token in instantiation.tokens():
                tags = ", ".join(
                    "-" if w is None else str(w.time_tag)
                    for w in token.wmes()
                )
                lines.append(f"  [{tags}]")
        return "\n".join(lines)

    def _cmd_watch(self, arguments):
        if arguments:
            self.watch = int(arguments[0])
        return f"watch level {self.watch}"

    def _cmd_strategy(self, arguments):
        if arguments:
            self.engine.strategy = strategy_named(arguments[0])
        return f"strategy {self.engine.strategy.name}"

    def _cmd_stats(self, arguments):
        lines = [
            f"rules: {len(self.engine.rules)}",
            f"wm size: {len(self.engine.wm)}",
            f"conflict set: {len(self.engine.conflict_set)}",
            f"firings: {self.engine.cycle_count}",
        ]
        if self.profile_stats is not None:
            lines.extend(f"{key}: {value}" for key, value in
                         self.profile_stats.totals.items())
        return "\n".join(lines)

    def _cmd_profile(self, arguments):
        return self.profile_report()

    def _cmd_checkpoint(self, arguments):
        if self.engine.durability is None:
            return "durability is off (start with --wal-dir DIR)"
        path = self.engine.checkpoint()
        return f"checkpoint written to {path}"

    def _cmd_on_error(self, arguments):
        if not arguments:
            reliability = self.engine.reliability
            lines = [f"default: {reliability.default_policy!r}"]
            for rule_name, policy in sorted(
                reliability.rule_policies.items()
            ):
                lines.append(f"{rule_name}: {policy!r}")
            return "\n".join(lines)
        rule = arguments[1] if len(arguments) > 1 else None
        policy = self.engine.set_error_policy(arguments[0], rule=rule)
        scope = rule if rule is not None else "default"
        return f"on-error {scope}: {policy!r}"

    def _cmd_deadletters(self, arguments):
        letters = self.engine.dead_letters
        if not letters:
            return "no dead letters"
        return "\n".join(repr(letter) for letter in letters)

    def _cmd_quarantined(self, arguments):
        quarantined = self.engine.quarantined_rules()
        if not quarantined:
            return "no rules are quarantined"
        lines = []
        for rule_name, info in sorted(quarantined.items()):
            lines.append(
                f"{rule_name}: {info['failures']} failure(s), "
                f"quarantined at cycle {info['cycle']} "
                f"({info['reason']}); {info['parked']} parked"
            )
        return "\n".join(lines)

    def _cmd_release(self, arguments):
        if not arguments:
            return "usage: release rule-name"
        rule_name = arguments[0]
        if rule_name not in self.engine.quarantined_rules():
            return f"{rule_name} is not quarantined"
        restored = self.engine.release_rule(rule_name)
        return f"released {rule_name}: {restored} instantiation(s) back"

    def _cmd_excise(self, arguments):
        if not arguments:
            return "usage: excise rule-name"
        self.engine.excise(arguments[0])
        return f"excised {arguments[0]}"

    def _cmd_replace(self, arguments):
        if len(arguments) < 2:
            return "usage: replace rule-name (p new-rule ...)"
        rule_name, source = arguments[0], " ".join(arguments[1:])
        rule = self.engine.replace_rule(rule_name, source)
        if rule.name == rule_name:
            return f"replaced {rule_name}"
        return f"replaced {rule_name} with {rule.name}"

    def _cmd_network(self, arguments):
        from repro.rete import ReteNetwork
        from repro.rete.explain import describe_network

        if not isinstance(self.engine.matcher, ReteNetwork):
            return "network dump is only available with the rete matcher"
        return describe_network(self.engine.matcher)

    def _cmd_load(self, arguments):
        if not arguments:
            return "usage: load file.ops"
        try:
            with open(arguments[0]) as handle:
                source = handle.read()
        except OSError as error:
            return f"error: {error}"
        rules = self.engine.load(source)
        return f"loaded {len(rules)} rule(s)"

    def _cmd_exit(self, arguments):
        raise SystemExit(0)


def _run_session(session, options):
    """Batch-run or REPL-loop *session*; always closes the WAL cleanly.

    The ``finally`` matters for durability: an error exit (say, the
    stats snapshot failing to write) must still flush and fsync the
    log, or the tail of the session would be lost to a mere I/O error.
    """

    def finish():
        if session.profile_stats is None:
            return
        print()
        print(session.profile_report())
        if options.profile_json:
            try:
                with open(options.profile_json, "w") as handle:
                    handle.write(session.profile_stats.to_json(indent=2))
            except OSError as error:
                print(f"error: cannot write stats snapshot: {error}")
            else:
                print(
                    f"stats snapshot written to {options.profile_json}"
                )

    try:
        if getattr(options, "program", None):
            print(session.execute(f"load {options.program}"))
        if options.run is not None:
            print(session.execute(f"run {options.run}"))
            if getattr(options, "checkpoint", False):
                print(session.execute("checkpoint"))
            finish()
            return 0

        print("repro-ops — type 'help' for commands, 'exit' to leave")
        while True:
            try:
                line = input("ops> ")
            except (EOFError, KeyboardInterrupt):
                print()
                finish()
                return 0
            try:
                output = session.execute(line)
            except SystemExit:
                finish()
                return 0
            if output:
                print(output)
    finally:
        session.close()


def _add_engine_options(parser, *, matcher, strategy, on_error):
    """Declare the engine-configuration flags every command shares.

    *matcher* / *strategy* / *on_error* are the command's defaults;
    ``recover`` passes None for all three, meaning "what the log
    recorded" (error policies are not persisted, so there None means
    the engine default).
    """

    def default_of(value):
        return f"default: {value or 'as recorded in the log'}"

    parser.add_argument(
        "--matcher", choices=MATCHER_NAMES, default=matcher,
        help=f"match algorithm ({default_of(matcher)})",
    )
    parser.add_argument(
        "--backend", metavar="SPEC", default=None,
        help="storage backend for the dips matcher: memory, sqlite "
        "(in-memory SQL pushdown), or sqlite:PATH (file-backed, "
        "out-of-core); default: a recovered checkpoint's backend, else "
        "REPRO_RDB_BACKEND, else memory",
    )
    parser.add_argument(
        "--strategy", choices=("lex", "mea"), default=strategy,
        help=f"conflict-resolution strategy ({default_of(strategy)})",
    )
    parser.add_argument(
        "--on-error", metavar="POLICY", default=on_error,
        help="firing error policy: halt, skip, "
        "retry[:n[:backoff[:then]]], or quarantine[:k] "
        f"(default: {on_error or 'halt'}; policies are not persisted, "
        "so restate yours when recovering)",
    )


def _recover_parser():
    parser = argparse.ArgumentParser(
        prog="repro-ops recover",
        description="rebuild a session from its write-ahead log",
    )
    parser.add_argument("wal_dir", help="WAL directory to recover from")
    _add_engine_options(parser, matcher=None, strategy=None, on_error=None)
    parser.add_argument("--run", type=int, metavar="N")
    parser.add_argument("--watch", type=int, default=1)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--profile-json", metavar="FILE")
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a checkpoint after --run completes",
    )
    parser.add_argument(
        "--no-wal",
        action="store_true",
        help="recover read-only: do not resume logging to the WAL",
    )
    return parser


def _recover_main(argv):
    options = _recover_parser().parse_args(argv)

    stats = None
    if options.profile or options.profile_json is not None:
        from repro.engine.stats import MatchStats

        stats = MatchStats()
    try:
        engine = RuleEngine.recover(
            options.wal_dir,
            matcher=options.matcher,
            backend=options.backend,
            strategy=options.strategy,
            stats=stats,
            durability=not options.no_wal,
            on_error=options.on_error,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = engine.recovery_report
    source = (
        f"checkpoint {report.checkpoint_path}"
        if report.checkpoint_path
        else "empty state (no checkpoint)"
    )
    notes = []
    if report.tail_damaged:
        notes.append("damaged tail dropped")
    if report.dropped_records:
        notes.append(
            f"incomplete firing rolled back, "
            f"{report.dropped_records} record(s)"
        )
    print(
        f"recovered from {source}: {report.restored_wmes} WME(s) "
        f"restored, {report.replayed_deltas} delta(s) and "
        f"{report.replayed_firings} firing(s) replayed"
        + (f" ({'; '.join(notes)})" if notes else "")
    )
    session = ReplSession(watch=options.watch, engine=engine)
    return _run_session(session, options)


def _serve_parser():
    parser = argparse.ArgumentParser(
        prog="repro-ops serve",
        description="run the multi-tenant rule service "
        "(NDJSON-over-TCP; see docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7471,
        help="listen port (0 = ephemeral; default 7471)",
    )
    parser.add_argument(
        "--wal-root",
        metavar="DIR",
        default=None,
        help="enable per-session durability: each session logs to "
        "DIR/<session-id> (default: durability off)",
    )
    parser.add_argument(
        "--fsync", choices=("always", "batch", "off"), default="batch",
        help="session WAL fsync policy: always = per record, batch = "
        "once per served request, before its response (default), "
        "off = never",
    )
    # Per-session defaults: a create request may override each one.
    _add_engine_options(parser, matcher="rete", strategy="lex",
                        on_error="halt")
    parser.add_argument(
        "--max-sessions", type=int, default=256,
        help="session table size; beyond it the LRU idle session is "
        "evicted (default 256)",
    )
    parser.add_argument(
        "--idle-ttl", type=float, default=300.0,
        help="seconds of inactivity before a session is checkpointed "
        "and evicted (default 300)",
    )
    parser.add_argument(
        "--session-queue", type=int, default=16,
        help="pending requests admitted per session (default 16)",
    )
    parser.add_argument(
        "--global-queue", type=int, default=128,
        help="pending requests admitted server-wide (default 128)",
    )
    parser.add_argument(
        "--engine-workers", type=int, default=4,
        help="threads running engine work (default 4)",
    )
    parser.add_argument(
        "--run-limit", type=int, default=10_000,
        help="firing-limit watchdog cap per run request (default 10000)",
    )
    parser.add_argument(
        "--run-wall-clock", type=float, default=30.0,
        help="wall-clock watchdog cap per run request, seconds "
        "(default 30)",
    )
    parser.add_argument(
        "--run-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit cleanly (smoke tests)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="inject faults, e.g. 'disconnect=0.05,delay=0.05,"
        "kill=0.02,seed=7' (see repro.service.chaos; soak testing "
        "only)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds a drain shutdown (SIGTERM) waits for in-flight "
        "requests before checkpointing sessions (default 10)",
    )
    parser.add_argument(
        "--journal-limit", type=int, default=512,
        help="idempotency keys remembered per session for "
        "request dedup (default 512)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive engine failures that open a session's "
        "circuit breaker (default 5)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=1.0,
        help="seconds an open breaker rejects requests before "
        "admitting a half-open probe (default 1)",
    )
    return parser


def _serve_main(argv):
    options = _serve_parser().parse_args(argv)

    import asyncio
    import signal

    from repro.service.server import RuleService, ServiceConfig

    try:
        config = ServiceConfig(
            host=options.host,
            port=options.port,
            wal_root=options.wal_root,
            fsync=options.fsync,
            matcher=options.matcher,
            backend=options.backend,
            strategy=options.strategy,
            on_error=options.on_error,
            max_sessions=options.max_sessions,
            idle_ttl=options.idle_ttl,
            session_queue=options.session_queue,
            global_queue=options.global_queue,
            engine_workers=options.engine_workers,
            run_limit=options.run_limit,
            run_wall_clock=options.run_wall_clock,
            chaos=options.chaos,
            drain_grace=options.drain_grace,
            journal_limit=options.journal_limit,
            breaker_threshold=options.breaker_threshold,
            breaker_cooldown=options.breaker_cooldown,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    async def _serve():
        service = RuleService(config)
        await service.start()
        host, port = service.address
        durable = (
            f"wal_root={options.wal_root}" if options.wal_root
            else "durability off"
        )
        chaos = f", chaos={options.chaos}" if options.chaos else ""
        print(
            f"rule service listening on {host}:{port} "
            f"({durable}, {options.engine_workers} engine worker(s), "
            f"max {options.max_sessions} sessions{chaos})",
            flush=True,
        )
        # SIGTERM → graceful drain: stop accepting, finish in-flight
        # requests, checkpoint every session for fast resume.
        drain_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(
                signal.SIGTERM, drain_requested.set
            )
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal-handler support
        try:
            wait_drain = asyncio.create_task(drain_requested.wait())
            if options.run_seconds is not None:
                serving = asyncio.create_task(
                    asyncio.sleep(options.run_seconds)
                )
            else:
                serving = asyncio.create_task(service.serve_forever())
            done, _pending = await asyncio.wait(
                {serving, wait_drain},
                return_when=asyncio.FIRST_COMPLETED,
            )
            serving.cancel()
            wait_drain.cancel()
            for task in done:
                if not task.cancelled() and task.exception():
                    raise task.exception()
            if drain_requested.is_set():
                print(
                    "SIGTERM: draining (finishing in-flight requests, "
                    "checkpointing sessions)",
                    file=sys.stderr, flush=True,
                )
                await service.stop(drain=True)
        finally:
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; sessions closed", file=sys.stderr)
    return 0


def _main_parser():
    parser = argparse.ArgumentParser(
        prog="repro-ops",
        description="OPS5/C5 interpreter with set-oriented constructs "
        "(Gordin & Pasik, SIGMOD 1991 reproduction)",
    )
    parser.add_argument("program", nargs="?", help="program file to load")
    _add_engine_options(parser, matcher="rete", strategy="lex",
                        on_error="halt")
    parser.add_argument(
        "--run",
        type=int,
        metavar="N",
        help="batch mode: run at most N firings and exit",
    )
    parser.add_argument("--watch", type=int, default=1)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect match statistics; print the profile on exit",
    )
    parser.add_argument(
        "--profile-json",
        metavar="FILE",
        help="write the structured stats snapshot to FILE on exit "
        "(implies --profile)",
    )
    parser.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="enable durability: write-ahead log WM changes and "
        "firings into DIR",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help="WAL fsync policy: always = per record, batch = once per "
        "batch or whole run (default), off = never",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a durability checkpoint after --run completes",
    )
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "recover":
        return _recover_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    options = _main_parser().parse_args(argv)

    try:
        session = ReplSession(
            matcher=options.matcher,
            strategy=options.strategy,
            watch=options.watch,
            profile=options.profile or options.profile_json is not None,
            wal_dir=options.wal_dir,
            fsync=options.fsync,
            on_error=options.on_error,
            backend=options.backend,
        )
    except ReproError as error:
        # E.g. --wal-dir pointing at a previous session's log: a fresh
        # engine refuses it and directs the user to `recover`.
        print(f"error: {error}", file=sys.stderr)
        return 1
    return _run_session(session, options)


if __name__ == "__main__":
    sys.exit(main())
