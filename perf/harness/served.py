"""The served path: the server as a separate process, two client
threads, closed-loop and open-loop drivers.

The server is ``python -m repro.cli serve`` with its default
``ServiceConfig``; the load comes from this process over two
connections.  Client retries are off, so every refusal is counted.
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter

from repro.service.client import ServiceClient, ServiceClientError

from harness import gen

LISTEN_TIMEOUT_S = 60.0
FACTS_EVERY = 20           # every Nth closed-loop tick also dumps facts


def clean_env(src_dir):
    """The environment without ``REPRO_*``, so runs measure defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src_dir)
    return env


class Server:
    """One ``repro.cli serve`` subprocess; a context manager that never
    leaves the process behind."""

    def __init__(self, src_dir, log_path, wal_root=None, cpu=None):
        self.src_dir = src_dir
        self.log_path = log_path
        self.wal_root = wal_root
        self.cpu = cpu
        self.process = None
        self.address = None

    def start(self):
        """Start and wait until the port is bound; returns seconds."""
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0"]
        if self.wal_root is not None:
            command += ["--wal-root", str(self.wal_root)]
        started = perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, env=clean_env(self.src_dir),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log,
            )
        if self.cpu is not None:
            # Before the server makes its threads: they inherit the pin.
            os.sched_setaffinity(self.process.pid, {self.cpu})
        ready, _, _ = select.select(
            [self.process.stdout], [], [], LISTEN_TIMEOUT_S
        )
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(
                f"server did not start: {line!r} (see {self.log_path})"
            )
        host, port = line.split("listening on ")[1].split()[0].split(":")
        self.address = (host, int(port))
        return perf_counter() - started

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self):
        """SIGKILL — the crash the durable workload recovers from, and
        the exit on every failure path."""
        self._end(signal.SIGKILL)

    def stop(self):
        self._end(signal.SIGTERM)

    def _end(self, signum):
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signum)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.kill()


def connect(address):
    return ServiceClient(*address, timeout=120.0, max_retries=0,
                         auto_reconnect=False)


class SessionDriver:
    """One tenant: a connection, a session, its tick stream, and what
    came back."""

    def __init__(self, address, session, stream, durable):
        self.client = connect(address)
        self.session = session
        self.stream = stream
        self.durable = durable
        self.ticks_done = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.firings = 0
        self.event_lines = 0
        self.writes = hashlib.sha256()
        self.create_ms = None
        self.rulebase_hit = None
        self.problems = []

    def close(self):
        self.client.close()

    def reconnect(self, address):
        """Drop the connection to a dead server for one to a new one."""
        self.client.close()
        self.client = connect(address)

    def _request(self, label, call):
        """One request; a refusal or error is counted, not raised."""
        self.attempted += 1
        try:
            return call()
        except (ServiceClientError, ConnectionError, OSError) as error:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{self.session} {label}: {error}")
            return None

    def _expect(self, condition, message):
        if not condition:
            self.wrong += 1
            if len(self.problems) < 5:
                self.problems.append(f"{self.session}: {message}")

    def create(self, program, resume=False):
        started = perf_counter()
        response = self._request("create", lambda: self.client.create(
            self.session, program, durable=self.durable, resume=resume,
        ))
        self.create_ms = (perf_counter() - started) * 1000.0
        if response is not None:
            self.rulebase_hit = bool(response.get("rulebase_hit"))
            self._expect(response.get("durable") == self.durable,
                         f"create answered durable={response.get('durable')}")
        return response

    def preload(self):
        facts = gen.window_depts()
        response = self._request(
            "preload", lambda: self.client.assert_facts(self.session, facts)
        )
        if response is not None:
            self._expect(response.get("ingested") == len(facts),
                         "preload ingested the wrong number of facts")

    def checkpoint(self):
        return self._request(
            "checkpoint", lambda: self.client.checkpoint(self.session)
        )

    def tick(self, dump=False):
        """The next tick: ``assert`` the batch, ``run`` to quiescence,
        and on request a ``facts`` dump.  Returns when it started, when
        each request was answered, and when the dump was (or None)."""
        batch = self.stream[self.ticks_done]
        started = perf_counter()
        response = self._request(
            "assert", lambda: self.client.assert_facts(self.session, batch)
        )
        asserted = perf_counter()
        if response is not None:
            self._expect(response.get("ingested") == len(batch),
                         f"assert ingested {response.get('ingested')}")
        outcome = self._request(
            "run", lambda: self.client.run(self.session)
        )
        finished = perf_counter()
        self.ticks_done += 1
        if outcome is not None:
            summary, events = outcome
            self.firings += summary.get("fired", 0)
            self.event_lines += len(events)
            for line in events:
                if line.get("event") == "write":
                    self.writes.update(line["text"].encode() + b"\n")
            self._expect(
                summary.get("stopped") == "quiescent"
                and summary.get("wm_size")
                == gen.window_expected_size(self.ticks_done),
                f"tick {self.ticks_done}: run stopped "
                f"{summary.get('stopped')} with {summary.get('wm_size')} "
                f"WMEs",
            )
        dumped = None
        if dump:
            self.dump()
            dumped = perf_counter()
        return started, asserted, finished, dumped

    def dump(self):
        """``facts``: working memory as sorted (class, tag, values)."""
        outcome = self._request(
            "facts", lambda: self.client.facts(self.session)
        )
        if outcome is None:
            return None
        return sorted(
            (line["class"], line["tag"], tuple(sorted(line["values"].items())))
            for line in outcome[1]
        )

    def check_final_state(self):
        """The dump must equal what the inputs say working memory holds."""
        dumped = self.dump()
        if dumped is None:
            return
        contents = sorted(((c, v) for c, _tag, v in dumped), key=repr)
        expected = gen.window_expected_wm(self.stream[:self.ticks_done])
        self._expect(contents == expected,
                     "final working memory differs from the inputs' model")


def run_pair(functions):
    """Run one function per client thread; re-raise what any raised."""
    errors = []

    def guarded(function):
        try:
            function()
        except BaseException as error:  # re-raised below, on the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(f,), daemon=True)
               for f in functions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Samples:
    """Raw times of one phase, pooled over the clients.  Durations are
    worked out afterwards, once the core clock can be read."""

    OPS = {"assert": (1, 2), "run": (2, 3), "tick": (0, 3), "facts": (3, 4)}

    def __init__(self):
        self.lock = threading.Lock()
        #: (origin, started, asserted, finished, dumped, client); origin
        #: is the due time in an open loop, else the start.
        self.ticks = []

    def add(self, client, times, due=None):
        origin = times[0] if due is None else due
        with self.lock:
            self.ticks.append((origin, *times, client))

    def concurrent_end(self):
        """When the first client ran out of ticks: after it the other
        has the server to itself, so nothing later is counted."""
        last = {}
        for tick in self.ticks:
            last[tick[5]] = max(tick[3], last.get(tick[5], 0.0))
        return min(last.values())

    def finishes(self):
        return [tick[3] for tick in self.ticks]

    def intervals(self, op, until=None):
        """``(start, end)`` of every *op* answered by *until*, in the
        order the ticks were due."""
        first, last = self.OPS[op]
        return [
            (tick[first], tick[last]) for tick in sorted(self.ticks, key=lambda t: t[0])
            if tick[last] is not None
            and (until is None or tick[3] <= until)
        ]

    def late_fraction(self, tolerance=0.001):
        """Share of open-loop ticks sent later than they were due."""
        return sum(
            1 for tick in self.ticks if tick[1] - tick[0] > tolerance
        ) / len(self.ticks)


def closed_loop(drivers, ticks, samples):
    """Every client sends its next tick when the previous one is
    answered.  Returns ``(start, end)`` of the phase."""
    barrier = threading.Barrier(len(drivers))
    starts = []

    def client(index, driver):
        barrier.wait(timeout=60)
        starts.append(perf_counter())
        for _ in range(ticks):
            dump = (driver.ticks_done + 1) % FACTS_EVERY == 0
            samples.add(index, driver.tick(dump=dump))

    run_pair([
        lambda i=i, d=d: client(i, d) for i, d in enumerate(drivers)
    ])
    return min(starts), max(samples.finishes())


def open_loop_schedule(count, rate, offset, do_tick, clock=perf_counter,
                       sleep=time.sleep):
    """Call ``do_tick(due)`` *count* times on a fixed schedule of *rate*
    per second starting *offset* seconds from now.

    The schedule never slows: when a tick is still being served at the
    next due time, the next one goes out the moment the connection is
    free and is timed from when it was due, so a stall is charged to
    every request it delayed.
    """
    origin = clock() + offset
    for i in range(count):
        due = origin + i / rate
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        do_tick(due)


def open_loop(drivers, ticks, rate, samples):
    """Each client sends *ticks* ticks at *rate* per second, the clients
    half a period apart."""
    barrier = threading.Barrier(len(drivers))

    def client(index, driver):
        barrier.wait(timeout=60)
        open_loop_schedule(
            ticks, rate, index / (rate * len(drivers)),
            lambda due: samples.add(index, driver.tick(), due=due),
        )

    run_pair([
        lambda i=i, d=d: client(i, d) for i, d in enumerate(drivers)
    ])
