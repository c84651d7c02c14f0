"""Public API smoke tests: exports resolve, docstrings exist."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.bench",
    "repro.cli",
    "repro.core",
    "repro.dips",
    "repro.engine",
    "repro.errors",
    "repro.lang",
    "repro.match",
    "repro.rdb",
    "repro.rete",
    "repro.symbols",
    "repro.wm",
]


class TestExports:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_imports_and_is_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize(
        "name",
        [n for n in PUBLIC_MODULES if "." in n or n == "repro"],
    )
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", ()):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_top_level_surface(self):
        import repro

        for symbol in (
            "RuleEngine", "ReteNetwork", "NaiveMatcher",
            "WorkingMemory", "WME", "parse_rule", "parse_program",
            "RuleBuilder",
        ):
            assert symbol in repro.__all__


class TestDocstrings:
    def test_public_classes_documented(self):
        import repro
        from repro.dips import DipsMatcher
        from repro.rdb import Database, Table

        for cls in (
            repro.RuleEngine, repro.ReteNetwork, repro.WorkingMemory,
            DipsMatcher, Database, Table,
        ):
            assert inspect.getdoc(cls)

    def test_engine_public_methods_documented(self):
        import repro

        for name, member in inspect.getmembers(
            repro.RuleEngine, predicate=inspect.isfunction
        ):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"RuleEngine.{name} undocumented"


class TestCompatibility:
    def test_ops5_compute_alias(self):
        from repro import RuleEngine

        engine = RuleEngine()
        engine.add_rule(
            "(p r (n ^v <v>) --> (make out ^v (compute <v> * 2 + 1)))"
        )
        engine.make("n", v=3)
        engine.run(limit=2)
        assert engine.wm.find("out", v=7)
