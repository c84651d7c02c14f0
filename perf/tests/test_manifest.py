import json
import re
from pathlib import Path


PERF = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_exact_keys():
    assert set(manifest()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }


def test_limits():
    m = manifest()
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert m["paths"] == ["perf"]
    assert len(m["command"]) <= 32
    runs = 4 + 22 * len(m["workloads"])
    assert runs * 30 <= 3420, "the driver's runs must fit its budget"


def test_names_units_and_bounds():
    m = manifest()
    names = []
    for workload in m["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for entry in m["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in m["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used once"


def test_setup_metric_is_declared():
    setup = [e for e in manifest()["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        e["bound"] for e in manifest()["end_to_end"])
