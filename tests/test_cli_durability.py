"""The CLI durability surface: --wal-dir, checkpoint, recover."""

import pytest

from repro.cli import ReplSession, main

PROGRAM = """
(literalize reading sensor value)
(p seen (reading ^sensor <s> ^value <v>) --> (write <s>))
"""


def _durable_session(tmp_path, **kwargs):
    session = ReplSession(
        watch=0, wal_dir=str(tmp_path / "wal"), fsync="off", **kwargs
    )
    for line in PROGRAM.strip().splitlines():
        session.execute(line)
    return session


class TestReplDurability:
    def test_checkpoint_command(self, tmp_path):
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        out = session.execute("checkpoint")
        assert "checkpoint written to" in out
        assert (tmp_path / "wal" / "CURRENT").exists()
        session.close()

    def test_checkpoint_without_wal_dir(self):
        session = ReplSession(watch=0)
        assert "durability is off" in session.execute("checkpoint")

    def test_close_flushes_cleanly(self, tmp_path):
        from repro.durability.wal import read_log_tail

        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.close()
        payloads, _, damage = read_log_tail(tmp_path / "wal")
        assert damage is None
        assert any(p.get("k") == "d" for p in payloads)

    def test_stats_show_wal_counters(self, tmp_path):
        session = _durable_session(tmp_path, profile=True)
        session.execute("make reading ^sensor t1 ^value 10")
        counters = session.profile_stats.counters
        assert counters["wal_appends"] > 0
        assert counters["wal_bytes"] > 0
        session.close()


class TestMainFlags:
    def test_batch_mode_with_checkpoint(self, tmp_path, capsys):
        program = tmp_path / "p.ops"
        program.write_text(PROGRAM)
        rc = main([
            str(program), "--run", "5",
            "--wal-dir", str(tmp_path / "wal"),
            "--fsync", "off", "--checkpoint",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoint written to" in out
        assert (tmp_path / "wal" / "CURRENT").exists()

    def test_recover_subcommand_round_trip(self, tmp_path, capsys):
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        # Simulated crash: no close().
        rc = main(["recover", str(tmp_path / "wal"), "--run", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered from empty state (no checkpoint)" in out
        assert "1 firing(s)" in out
        assert "t1" in out

    def test_recover_uses_checkpoint(self, tmp_path, capsys):
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.execute("checkpoint")
        session.close()
        rc = main([
            "recover", str(tmp_path / "wal"), "--run", "0", "--no-wal",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint" in out
        assert "1 WME(s) restored" in out

    def test_recover_with_sqlite_backend(self, tmp_path, capsys):
        # Both overrides on one command line: the recovered dips
        # matcher takes the sqlite backend.
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.close()
        rc = main([
            "recover", str(tmp_path / "wal"),
            "--matcher", "dips", "--backend", "sqlite",
            "--run", "5", "--no-wal",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 WME(s) restored" in out or "1 delta(s)" in out
        assert "t1" in out

    def test_recover_rete_with_backend_flag(self, tmp_path, capsys):
        # rete takes no backend; the flag is accepted and ignored.
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.close()
        rc = main([
            "recover", str(tmp_path / "wal"),
            "--matcher", "rete", "--backend", "sqlite",
            "--run", "5", "--no-wal",
        ])
        assert rc == 0
        assert "t1" in capsys.readouterr().out

    def test_recover_missing_directory_fails(self, tmp_path, capsys):
        rc = main(["recover", str(tmp_path / "nothing")])
        assert rc == 1
        assert "no write-ahead log" in capsys.readouterr().err

    def test_recover_resumes_logging_by_default(self, tmp_path, capsys):
        from repro.durability.wal import read_log_tail

        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        before, _, _ = read_log_tail(tmp_path / "wal")
        rc = main(["recover", str(tmp_path / "wal"), "--run", "5"])
        assert rc == 0
        after, _, damage = read_log_tail(tmp_path / "wal")
        # The recovered session logged its own meta + firing records.
        assert len(after) > len(before)
        assert damage is None


class TestErrorExitClosesWal:
    def test_profile_json_failure_still_closes_wal(self, tmp_path,
                                                   capsys):
        """The satellite-2 regression: an OSError on the stats
        snapshot path must not leave the WAL unflushed/unclosed."""
        from repro.durability.wal import WriteAheadLog, read_log_tail

        program = tmp_path / "p.ops"
        program.write_text(PROGRAM)
        bad_target = tmp_path / "no" / "such" / "dir" / "stats.json"
        rc = main([
            str(program), "--run", "5",
            "--wal-dir", str(tmp_path / "wal"), "--fsync", "off",
            "--profile-json", str(bad_target),
        ])
        assert rc == 0
        assert "cannot write stats snapshot" in capsys.readouterr().out
        # The log closed cleanly: no tail damage, and it can be
        # reopened for append immediately.
        _, _, damage = read_log_tail(tmp_path / "wal")
        assert damage is None
        WriteAheadLog(tmp_path / "wal", fsync="off").close()

    def test_recover_run_profile_json_failure(self, tmp_path, capsys):
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.close()
        bad_target = tmp_path / "no" / "stats.json"
        rc = main([
            "recover", str(tmp_path / "wal"), "--run", "5",
            "--profile-json", str(bad_target),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cannot write stats snapshot" in out
        from repro.durability.wal import read_log_tail

        _, _, damage = read_log_tail(tmp_path / "wal")
        assert damage is None


class TestRecoveredSessionAdoptsStats:
    def test_profile_stats_adopted(self, tmp_path):
        session = _durable_session(tmp_path)
        session.execute("make reading ^sensor t1 ^value 10")
        session.close()
        from repro import RuleEngine
        from repro.engine.stats import MatchStats

        engine = RuleEngine.recover(
            tmp_path / "wal", stats=MatchStats(), durability=False
        )
        adopted = ReplSession(watch=0, engine=engine)
        assert adopted.profile_stats is engine.stats
        report = adopted.execute("profile")
        assert "per-node match work" in report
        assert "replayed_deltas" in report


@pytest.mark.parametrize("fsync", ["always", "batch", "off"])
def test_fsync_flag_accepted(tmp_path, fsync, capsys):
    program = tmp_path / "p.ops"
    program.write_text(PROGRAM)
    rc = main([
        str(program), "--run", "1",
        "--wal-dir", str(tmp_path / "wal"), "--fsync", fsync,
    ])
    assert rc == 0
