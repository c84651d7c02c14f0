"""The match-acceleration lattice, pinned in one place.

Matcher names live in :data:`repro.match.MATCHERS`; every surface that
offers a choice must read them, and the options this lattice used to
have (a TREAT matcher, a kernel mode in any spelling, a process
executor, a columnar knob, an alpha-filter hook, a sharded matcher, a
firing-pool width, match counters kept beside
:class:`~repro.engine.stats.MatchStats`, a per-WME removal path beside
the delta-set one, a second Figure 3 decide stage beside the S-node's)
must stay gone.
"""

import inspect
import pkgutil
import types

import pytest

import repro
import repro.match
import repro.rdb
from repro import MatchStats, RuleEngine, cli
from repro.dips import DipsMatcher
from repro.durability import checkpoint, recover_engine
from repro.durability import recovery
from repro.errors import ReproError
from repro.match import base as match_base
from repro.match import (
    MATCHER_NAMES,
    MATCHERS,
    NaiveMatcher,
    build_matcher,
    matcher_class,
    matcher_name,
)
from repro.rdb.backend import StorageBackend
from repro.rdb.sqlite_backend import SqliteBackend, SqliteTableStorage
from repro.rete import ReteNetwork
from repro.rete.alpha import AlphaMemory, AlphaNetwork
from repro.rete.beta import TwoInputNode
from repro.service import ServiceClient, ServiceConfig
from repro.service.session import SessionRegistry


def _modules(package):
    """A namespace of *package*'s submodules: what it can import."""
    return types.SimpleNamespace(**{
        module.name: module
        for module in pkgutil.iter_modules(package.__path__)
    })


def _own(cls):
    """A namespace of what *cls* itself defines, inherited names aside."""
    return types.SimpleNamespace(**vars(cls))

PARSERS = {
    "main": cli._main_parser,
    "recover": cli._recover_parser,
    "serve": cli._serve_parser,
}


def _choices(parser, flag):
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return tuple(action.choices)


def test_the_lattice_is_three_matchers():
    assert MATCHER_NAMES == ("rete", "naive", "dips")


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_registry_names_round_trip(name):
    matcher = build_matcher(name, backend="memory")
    assert type(matcher) is matcher_class(name)
    assert matcher_name(matcher) == name
    assert hasattr(matcher, "storage_backend") == MATCHERS[name].takes_backend


def test_unregistered_matchers_are_typed_errors_or_unnamed():
    with pytest.raises(ReproError, match="unknown matcher"):
        build_matcher("oracle")
    with pytest.raises(ReproError, match="unknown matcher"):
        build_matcher(["rete"])
    with pytest.raises(
        ReproError, match=r"expected one of rete, naive, dips\)"
    ):
        build_matcher("sharded")
    with pytest.raises(ReproError, match=r"^unknown matcher 'treat' "
                       r"\(expected one of rete, naive, dips\)$"):
        build_matcher("treat")
    with pytest.raises(ReproError, match="unknown matcher 'treat'"):
        RuleEngine(matcher="treat")
    assert matcher_name(object()) is None

    class Traced(ReteNetwork):
        pass

    assert matcher_name(Traced()) is None


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_cli_choices_come_from_the_registry(command, capsys):
    parser = PARSERS[command]()
    assert _choices(parser, "--matcher") == MATCHER_NAMES


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_kernels_flag_is_a_usage_error(command, capsys):
    positional = ["wal"] if command == "recover" else []
    with pytest.raises(SystemExit) as info:
        PARSERS[command]().parse_args(positional + ["--kernels", "off"])
    assert info.value.code == 2
    assert "unrecognized arguments: --kernels" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_workers_flag_is_a_usage_error(command, capsys):
    positional = ["wal"] if command == "recover" else []
    with pytest.raises(SystemExit) as info:
        PARSERS[command]().parse_args(positional + ["--workers", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_sharded_matcher_is_a_usage_error(command, capsys):
    positional = ["wal"] if command == "recover" else []
    with pytest.raises(SystemExit) as info:
        PARSERS[command]().parse_args(positional + ["--matcher", "sharded"])
    assert info.value.code == 2
    assert "invalid choice: 'sharded'" in capsys.readouterr().err


def test_serve_engine_workers_default_is_a_constant():
    # The executor width is a plain default, no longer read from an
    # environment variable shared with the engine.
    assert cli._serve_parser().parse_args([]).engine_workers == 4
    assert cli._serve_parser().parse_args(
        ["--engine-workers", "2"]
    ).engine_workers == 2


@pytest.mark.parametrize("instance, removed", [
    (ReteNetwork(), "interested_in"),
    (AlphaNetwork(), "handles_class"),
    (RuleEngine(), "workers"),
    (RuleEngine(), "_pool"),
    (ReteNetwork(), "stats"),
    (NaiveMatcher(), "stats"),
    (MatchStats(), "join_test"),
    (match_base, "CountingListener"),
    (SqliteBackend, "serialize"),
    (SqliteBackend, "restore"),
    (SqliteBackend, "save_next_id"),
    (SqliteTableStorage, "reload_counter"),
    (StorageBackend, "supports_file_backup"),
    (StorageBackend, "serialize"),
    (StorageBackend, "restore"),
    (DipsMatcher, "begin_restore"),
    (DipsMatcher, "end_restore"),
    (checkpoint, "DIPS_DB_NAME"),
    (recovery, "_prime_dips"),
    (ReteNetwork(), "_remove_wme"),
    (AlphaNetwork(), "remove_wme"),
    (AlphaMemory, "remove"),
    (TwoInputNode, "right_retract"),
    (_modules(repro.rdb), "storage"),
    (_modules(repro.match), "grouping"),
    (_modules(repro.match), "treat"),
    (repro.match, "TreatMatcher"),
    (repro, "TreatMatcher"),
    (_own(NaiveMatcher), "set_listener"),
    (_own(DipsMatcher), "set_listener"),
    (_own(NaiveMatcher), "_grouper_listener"),
    (_own(DipsMatcher), "_grouper_listener"),
], ids=["rete-interested_in", "alpha-handles_class",
        "engine-workers", "engine-_pool", "rete-stats",
        "naive-stats", "matchstats-join_test",
        "match_base-CountingListener", "sqlite-serialize",
        "sqlite-restore", "sqlite-save_next_id",
        "sqlite_storage-reload_counter",
        "backend-supports_file_backup", "backend-serialize",
        "backend-restore", "dips-begin_restore", "dips-end_restore",
        "checkpoint-DIPS_DB_NAME", "recovery-_prime_dips",
        "rete-_remove_wme", "alpha-remove_wme", "alpha_memory-remove",
        "two_input-right_retract", "rdb-storage-module",
        "match-grouping-module", "match-treat-module",
        "match-TreatMatcher", "repro-TreatMatcher",
        "naive-set_listener", "dips-set_listener", "naive-_grouper_listener",
        "dips-_grouper_listener"])
def test_removed_hooks_stay_removed(instance, removed):
    assert not hasattr(instance, removed)


@pytest.mark.parametrize("callable_, removed", [
    (ReteNetwork.__init__, "executor"),
    (ReteNetwork.__init__, "columnar"),
    (AlphaNetwork.__init__, "columnar"),
    (ReteNetwork.on_batch, "alpha_filter"),
    (AlphaNetwork.add_batch, "alpha_filter"),
    (RuleEngine.__init__, "kernels"),
    (ReteNetwork.__init__, "kernels"),
    (AlphaNetwork.__init__, "kernels"),
    (AlphaMemory.__init__, "kernels"),
    (build_matcher, "kernels"),
    (recover_engine, "kernels"),
    (SessionRegistry.__init__, "default_kernels"),
    (SessionRegistry.create, "kernels"),
    (ServiceConfig.__init__, "kernels"),
    (ServiceClient.create, "kernels"),
    (cli.ReplSession.__init__, "kernels"),
    (RuleEngine.__init__, "workers"),
    (RuleEngine.parallel_cycle, "workers"),
    (RuleEngine.fire, "plan"),
    (recover_engine, "workers"),
    (SessionRegistry.create, "workers"),
    (ServiceClient.create, "workers"),
    (cli.ReplSession.__init__, "workers"),
    (checkpoint.write_checkpoint, "binary_members"),
    (ServiceConfig.__init__, "trace_limit"),
])
def test_removed_options_stay_removed(callable_, removed):
    assert removed not in inspect.signature(callable_).parameters


def test_process_executor_is_not_an_option():
    with pytest.raises(TypeError):
        ReteNetwork(executor="process")


def test_kernel_mode_is_not_an_option(monkeypatch):
    with pytest.raises(TypeError):
        ReteNetwork(kernels="off")
    # Once a typed error for "exec"; now no code reads the variable.
    monkeypatch.setenv("REPRO_KERNELS", "exec")
    assert ReteNetwork().alpha.memory_count == 0
