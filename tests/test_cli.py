"""Unit tests for the command-line interpreter session."""

import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import ReplSession, _parse_attribute_args, main


@pytest.fixture
def session():
    return ReplSession(watch=0)


class TestDefinitions:
    def test_single_line_rule(self, session):
        output = session.execute("(p r (goal) --> (write done))")
        assert output == "defined r"

    def test_multi_line_rule_buffers(self, session):
        assert session.execute("(p r") == "..."
        assert session.execute("  (goal)") == "..."
        assert session.execute("  --> (write done))") == "defined r"

    def test_literalize(self, session):
        assert session.execute("(literalize goal id)") == "ok"
        assert session.execute("make goal ^id 1").startswith("made")

    def test_parse_error_reported(self, session):
        output = session.execute("(p broken))")
        assert output.startswith("error:")


class TestWorkingMemoryCommands:
    def test_make_wm_remove(self, session):
        session.execute("make player ^team A ^name Jack")
        listing = session.execute("wm")
        assert "Jack" in listing
        assert session.execute("remove 1") == "removed 1 element(s)"
        assert session.execute("wm") == "working memory is empty"

    def test_modify(self, session):
        session.execute("make player ^team A")
        output = session.execute("modify 1 ^team B")
        assert "^team B" in output

    def test_wm_filter_by_class(self, session):
        session.execute("make a ^x 1")
        session.execute("make b ^x 2")
        assert "b" not in session.execute("wm a")

    def test_numeric_coercion(self):
        values = _parse_attribute_args(["^n", "42", "^s", "abc"])
        assert values == {"n": 42, "s": "abc"}

    def test_bad_pairs_reported(self, session):
        output = session.execute("make player team A")
        assert output.startswith("error:")


class TestExecutionCommands:
    def test_run_and_output(self, session):
        session.execute("(p r (goal) --> (write hello))")
        session.execute("make goal")
        output = session.execute("run")
        assert "1 firing(s)" in output
        assert "hello" in output

    def test_step(self, session):
        session.execute("(p r (goal) --> (write hi))")
        session.execute("make goal")
        assert "fired r" in session.execute("step")
        assert session.execute("step") == "nothing to fire"

    def test_cs_listing(self, session):
        session.execute("(p r [goal ^id <i>] --> (write x))")
        session.execute("make goal ^id 1")
        session.execute("make goal ^id 2")
        listing = session.execute("cs")
        assert "r" in listing and "SOI" in listing

    def test_matches(self, session):
        session.execute("(p r (a ^x <v>) (b ^y <v>) --> (write x))")
        session.execute("make a ^x 1")
        session.execute("make b ^y 1")
        output = session.execute("matches r")
        assert "instantiation:" in output
        assert "[1, 2]" in output

    def test_strategy_switch(self, session):
        assert session.execute("strategy mea") == "strategy mea"
        assert session.execute("strategy") == "strategy mea"

    def test_stats(self, session):
        session.execute("(p r (goal) --> (write x))")
        session.execute("make goal")
        session.execute("run")
        stats = session.execute("stats")
        assert stats.splitlines() == [
            "rules: 1", "wm size: 1", "conflict set: 1", "firings: 1",
        ]

    def test_stats_with_profile_adds_match_totals(self):
        session = ReplSession(watch=0, profile=True)
        session.execute("(p r (goal) --> (write x))")
        session.execute("make goal")
        session.execute("make noise")
        session.execute("run")
        lines = session.execute("stats").splitlines()
        assert lines[:4] == [
            "rules: 1", "wm size: 2", "conflict set: 1", "firings: 1",
        ]
        totals = session.profile_stats.totals
        assert lines[4:] == [f"{key}: {value}"
                             for key, value in totals.items()]
        # Join right activations, not WMEs: ``noise`` reaches no join.
        assert "right_activations: 1" in lines


class TestMisc:
    def test_unknown_command(self, session):
        assert "unknown command" in session.execute("frobnicate")

    def test_blank_and_comment_lines(self, session):
        assert session.execute("") == ""
        assert session.execute("; a comment") == ""

    def test_help(self, session):
        assert "commands:" in session.execute("help")

    def test_load_file(self, session, tmp_path):
        program = tmp_path / "prog.ops"
        program.write_text(
            "(literalize goal id)\n(p r (goal) --> (write loaded))\n"
        )
        assert session.execute(f"load {program}") == "loaded 1 rule(s)"

    def test_exit_raises_system_exit(self, session):
        with pytest.raises(SystemExit):
            session.execute("exit")


class TestBatchMode:
    def test_main_batch(self, tmp_path, capsys):
        program = tmp_path / "prog.ops"
        program.write_text(
            """
            (literalize item n)
            (p r (item ^n <n>) --> (write saw <n>))
            """
        )
        # Batch mode loads and runs; with no WMEs it just reports 0.
        assert main([str(program), "--run", "5", "--watch", "0"]) == 0
        captured = capsys.readouterr()
        assert "loaded 1 rule(s)" in captured.out
        assert "0 firing(s)" in captured.out

    def test_main_matcher_choice(self, tmp_path, capsys):
        program = tmp_path / "prog.ops"
        program.write_text("(p r (goal) --> (write hi))")
        assert main(
            [str(program), "--run", "1", "--matcher", "naive"]
        ) == 0


class TestExciseCommand:
    def test_excise_via_repl(self, session):
        session.execute("(p r (goal) --> (write hi))")
        session.execute("make goal")
        assert session.execute("excise r") == "excised r"
        assert "0 firing(s)" in session.execute("run")
        assert session.execute("excise ghost").startswith("error:")


class TestReliabilityCommands:
    def _poison(self, on_error):
        session = ReplSession(watch=0, on_error=on_error)
        session.engine.register_function(
            "explode", lambda *a: (_ for _ in ()).throw(ValueError("boom"))
        )
        session.execute("(literalize item n)")
        session.execute("(p bad (item ^n <n>) --> (call explode))")
        session.execute("make item ^n 1")
        return session

    def test_on_error_show_and_set(self, session):
        assert "default: halt" in session.execute("on-error")
        assert session.execute("on-error skip") == "on-error default: skip"
        assert session.execute("on-error retry:2 bad") \
            == "on-error bad: retry(2, backoff=0.0, skip)"
        listing = session.execute("on-error")
        assert "bad: retry" in listing
        assert session.execute("on-error bogus").startswith("error:")

    def test_run_reports_abandoned_firings(self):
        session = self._poison("skip")
        output = session.execute("run")
        assert "0 firing(s)" in output
        assert "1 firing(s) abandoned" in output

    def test_deadletters_listing(self):
        session = self._poison("skip")
        assert session.execute("deadletters") == "no dead letters"
        session.execute("run")
        listing = session.execute("deadletters")
        assert "bad" in listing and "boom" in listing

    def test_quarantined_and_release(self):
        session = self._poison("quarantine:1")
        assert session.execute("quarantined") \
            == "no rules are quarantined"
        session.execute("run")
        listing = session.execute("quarantined")
        assert "bad" in listing and "1 failure(s)" in listing
        assert session.execute("release ghost") \
            == "ghost is not quarantined"
        assert session.execute("release bad") \
            == "released bad: 1 instantiation(s) back"
        assert session.execute("quarantined") \
            == "no rules are quarantined"

    def test_halt_policy_reports_error(self):
        session = self._poison("halt")
        output = session.execute("run")
        assert output.startswith("error:")
        assert "bad" in output

    def test_main_on_error_flag(self, tmp_path, capsys):
        program = tmp_path / "prog.ops"
        program.write_text(
            """
            (literalize item n)
            (p bad (item ^n <n>) --> (remove 2))
            """
        )
        assert main(
            [str(program), "--run", "5", "--watch", "0",
             "--on-error", "skip"]
        ) == 0
        captured = capsys.readouterr()
        assert "abandoned" not in captured.out  # nothing matched
        assert main(
            [str(program), "--run", "5", "--on-error", "bogus"]
        ) == 1


class TestServeCommand:
    def test_file_backed_backend_is_refused(self, tmp_path, capsys):
        path = tmp_path / "t.db"
        assert main(["serve", "--port", "0", "--run-seconds", "0",
                     "--backend", f"sqlite:{path}"]) == 1
        assert "backend" in capsys.readouterr().err
        assert not path.exists()

    def test_sigterm_drain_with_idle_connection_prints_no_traceback(self):
        # A handler parked in readline used to be cancelled by
        # asyncio.run at exit, one CancelledError traceback apiece.
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            port = int(banner.split("listening on ")[1].split()[0]
                       .rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), 10) as idle:
                idle.sendall(b'{"op":"ping","id":1}\n')
                assert b'"pong":true' in idle.recv(4096)
                server.send_signal(signal.SIGTERM)
                _, stderr = server.communicate(timeout=30)
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0
        assert "draining" in stderr
        assert "Traceback" not in stderr
