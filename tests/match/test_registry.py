"""The match-acceleration lattice, pinned in one place.

Matcher names live in :data:`repro.match.MATCHERS`, kernel modes in
:data:`repro.rete.kernels.KERNEL_MODES`; every surface that offers a
choice must read those, and the options this lattice used to have
(``exec`` kernels, a process executor, a columnar knob, an alpha-filter
hook) must stay gone.
"""

import inspect

import pytest

from repro import cli
from repro.errors import ReproError
from repro.match import (
    MATCHER_NAMES,
    MATCHERS,
    build_matcher,
    matcher_class,
    matcher_name,
)
from repro.rete import ReteNetwork, ShardedReteNetwork
from repro.rete.alpha import AlphaNetwork
from repro.rete.kernels import KERNEL_MODES, resolve_kernels

PARSERS = {
    "main": cli._main_parser,
    "recover": cli._recover_parser,
    "serve": cli._serve_parser,
}


def _choices(parser, flag):
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return tuple(action.choices)


def test_the_lattice_is_five_matchers_and_two_kernel_modes():
    assert MATCHER_NAMES == ("rete", "treat", "naive", "dips", "sharded")
    assert KERNEL_MODES == ("off", "closure")


@pytest.mark.parametrize("name", MATCHER_NAMES)
def test_registry_names_round_trip(name):
    matcher = build_matcher(name, kernels="off", backend="memory")
    assert type(matcher) is matcher_class(name)
    assert matcher_name(matcher) == name
    assert hasattr(matcher, "storage_backend") == MATCHERS[name].takes_backend


def test_unregistered_matchers_are_typed_errors_or_unnamed():
    with pytest.raises(ReproError, match="unknown matcher"):
        build_matcher("oracle")
    with pytest.raises(ReproError, match="unknown matcher"):
        build_matcher(["rete"])
    assert matcher_name(object()) is None

    class Traced(ReteNetwork):
        pass

    assert matcher_name(Traced()) is None


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_cli_choices_come_from_the_registry(command, capsys):
    parser = PARSERS[command]()
    assert _choices(parser, "--matcher") == MATCHER_NAMES
    assert _choices(parser, "--kernels") == KERNEL_MODES
    positional = ["wal"] if command == "recover" else []
    with pytest.raises(SystemExit) as info:
        parser.parse_args(positional + ["--kernels", "exec"])
    assert info.value.code == 2
    assert "invalid choice: 'exec'" in capsys.readouterr().err


def test_exec_kernels_are_an_unknown_mode(monkeypatch):
    with pytest.raises(ReproError, match="unknown kernel mode 'exec'"):
        resolve_kernels("exec")
    monkeypatch.setenv("REPRO_KERNELS", "exec")
    with pytest.raises(ReproError, match="unknown kernel mode 'exec'"):
        ReteNetwork()


@pytest.mark.parametrize("callable_, removed", [
    (ShardedReteNetwork.__init__, "executor"),
    (ReteNetwork.__init__, "columnar"),
    (AlphaNetwork.__init__, "columnar"),
    (ReteNetwork.on_batch, "alpha_filter"),
    (AlphaNetwork.add_batch, "alpha_filter"),
])
def test_removed_options_stay_removed(callable_, removed):
    assert removed not in inspect.signature(callable_).parameters


def test_process_executor_is_not_an_option():
    with pytest.raises(TypeError):
        ShardedReteNetwork(executor="process")
