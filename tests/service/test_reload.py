"""Hot rule reload over the wire: add/remove/replace ops, per-tenant
copy-on-write rule-base divergence, exactly-once retries, drain.

The multi-tenant contract: sessions created from one program share one
:class:`RuleBase` (one parse).  A tenant that reloads rules *forks* its
rule base — untouched tenants keep sharing the parent — and tenants
reloading to byte-identical programs converge on one forked entry.
"""

from __future__ import annotations

import pytest

from repro.service import (
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceThread,
)

PROGRAM = """
(literalize order id status total)
(literalize flag id note)
(p flag-open
  (order ^id <i> ^status open)
  -->
  (make flag ^id <i> ^note open)
  (write flag <i>))
(p audit-held
  (order ^id <i> ^status held)
  -->
  (write held <i>))
"""

BIG_RULE = (
    "(p flag-big (order ^id <i> ^total {<t> > 100}) "
    "--> (write big <i> <t>))"
)

FLAG_V2 = (
    "(p flag-open (order ^id <i> ^status open) "
    "--> (write flag2 <i>))"
)


@pytest.fixture
def server(tmp_path):
    with ServiceThread(ServiceConfig(
        port=0, wal_root=str(tmp_path / "wal"), engine_workers=2,
    )) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as connection:
        yield connection


class TestWireOps:
    def test_add_rule_round_trip(self, client):
        created = client.create("s1", PROGRAM, durable=False)
        assert created["rules"] == 2
        response = client.add_rule("s1", BIG_RULE)
        assert response["rule"] == "flag-big"
        assert response["rules"] == 3
        assert isinstance(response["version"], str)
        client.assert_facts(
            "s1", [("order", {"id": 1, "status": "open", "total": 500})]
        )
        run, events = client.run("s1")
        fired = sorted(
            e["rule"] for e in events if e["event"] == "firing"
        )
        assert fired == ["flag-big", "flag-open"]

    def test_remove_rule_round_trip(self, client):
        client.create("s2", PROGRAM, durable=False)
        response = client.remove_rule("s2", "audit-held")
        assert response["rule"] == "audit-held"
        assert response["rules"] == 1
        client.assert_facts(
            "s2", [("order", {"id": 7, "status": "held", "total": 1})]
        )
        run, events = client.run("s2")
        assert run["fired"] == 0

    def test_replace_rule_round_trip(self, client):
        client.create("s3", PROGRAM, durable=False)
        response = client.replace_rule("s3", "flag-open", FLAG_V2)
        assert response["rule"] == "flag-open"
        assert response["replaced"] == "flag-open"
        assert response["rules"] == 2
        client.assert_facts(
            "s3", [("order", {"id": 9, "status": "open", "total": 1})]
        )
        _, events = client.run("s3")
        writes = [e for e in events if e["event"] == "write"]
        assert [w["text"] for w in writes] == ["flag2 9"]

    def test_reload_counters_and_session_info(self, client):
        client.create("s4", PROGRAM, durable=False)
        client.add_rule("s4", BIG_RULE)
        client.remove_rule("s4", "flag-big")
        client.replace_rule("s4", "flag-open", FLAG_V2)
        stats = client.stats()
        assert stats["server"]["rules_added"] == 1
        assert stats["server"]["rules_removed"] == 1
        assert stats["server"]["rules_replaced"] == 1
        info = next(
            s for s in stats["sessions"] if s["session"] == "s4"
        )
        assert info["reloads"] == 3
        assert info["rules"] == 2

    def test_version_changes_only_when_program_changes(self, client):
        client.create("s5", PROGRAM, durable=False)
        first = client.add_rule("s5", BIG_RULE)
        second = client.remove_rule("s5", "flag-big")
        third = client.add_rule("s5", BIG_RULE)
        assert first["version"] != second["version"]
        assert first["version"] == third["version"]


class TestValidation:
    def test_add_rule_requires_source(self, client):
        client.create("v1", PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as err:
            client.request("add_rule", session="v1")
        assert err.value.response["error"] == "bad_request"

    def test_remove_rule_requires_name(self, client):
        client.create("v2", PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as err:
            client.request("remove_rule", session="v2")
        assert err.value.response["error"] == "bad_request"

    def test_unknown_rule_is_an_engine_error(self, client):
        client.create("v3", PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as err:
            client.remove_rule("v3", "ghost")
        assert err.value.response["error"] == "engine"
        # The session survives the failed surgery.
        assert client.stats()["server"].get("rules_removed", 0) == 0

    def test_duplicate_add_is_an_engine_error(self, client):
        client.create("v4", PROGRAM, durable=False)
        with pytest.raises(ServiceClientError) as err:
            client.add_rule("v4", "(p flag-open (order ^id <i>) "
                                  "--> (write x))")
        assert err.value.response["error"] == "engine"

    def test_reload_rejected_while_draining(self, server, client):
        client.create("v5", PROGRAM, durable=False)
        server.begin_drain()
        with pytest.raises(ServiceBusyError):
            client.add_rule("v5", BIG_RULE)


class TestCopyOnWriteFork:
    def test_untouched_tenants_keep_sharing_the_parent(self, client):
        for sid in ("t1", "t2", "t3"):
            client.create(sid, PROGRAM, durable=False)
        before = client.stats()["rule_bases"]
        assert before["rule_bases"] == 1
        assert before["sessions_built"] == 3

        forked = client.replace_rule("t1", "flag-open", FLAG_V2)
        assert forked["forked"] is True
        after = client.stats()["rule_bases"]
        assert after["rule_bases"] == 2
        assert after["forks"] == 1

        # The untouched tenants still run the ORIGINAL rule body.
        client.assert_facts(
            "t2", [("order", {"id": 2, "status": "open", "total": 1})]
        )
        _, events = client.run("t2")
        writes = [e["text"] for e in events if e["event"] == "write"]
        assert writes == ["flag 2"]

    def test_identical_reloads_converge_on_one_fork(self, client):
        for sid in ("c1", "c2"):
            client.create(sid, PROGRAM, durable=False)
        first = client.replace_rule("c1", "flag-open", FLAG_V2)
        second = client.replace_rule("c2", "flag-open", FLAG_V2)
        assert first["forked"] is True
        assert second["forked"] is False
        assert first["version"] == second["version"]
        stats = client.stats()["rule_bases"]
        assert stats["forks"] == 1
        assert stats["rule_bases"] == 2
        assert client.stats()["server"]["rulebase_forks"] == 1


class TestExactlyOnce:
    def test_keyed_replace_dedups(self, client):
        client.create("e1", PROGRAM, durable=True)
        first = client.replace_rule(
            "e1", "flag-open", FLAG_V2, key="swap-1"
        )
        again = client.replace_rule(
            "e1", "flag-open", FLAG_V2, key="swap-1"
        )
        assert "deduped" not in first
        assert again["deduped"] is True
        assert again["rule"] == first["rule"]
        assert again["rules"] == first["rules"]
        assert client.stats()["server"]["deduped_requests"] >= 1
        # Applied once: replacing again without the key is a fresh
        # surgery (the rule exists, so the swap succeeds again).
        client.replace_rule("e1", "flag-open", FLAG_V2)

    def test_durable_reload_survives_close_and_resume(self, client):
        client.create("e2", PROGRAM, durable=True)
        client.add_rule("e2", BIG_RULE)
        client.replace_rule("e2", "flag-open", FLAG_V2)
        client.close_session("e2", checkpoint=True)

        resumed = client.create("e2", "", resume=True)
        assert resumed["resumed"] is True
        assert resumed["rules"] == 3
        client.assert_facts(
            "e2", [("order", {"id": 4, "status": "open", "total": 900})]
        )
        _, events = client.run("e2")
        writes = sorted(
            e["text"] for e in events if e["event"] == "write"
        )
        assert writes == ["big 4 900", "flag2 4"]
