"""BENCHMARK.json, metrics.py and METRICS.md describe the same benchmark."""

import json
import re
from pathlib import Path

from perfbench.measure import WORKLOADS
from perfbench.metrics import BOUNDS, END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _entries(metrics):
    return [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in metrics]


def test_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_end_to_end_match_the_catalog():
    declared = [{k: m[k] for k in ("name", "unit", "better")}
                for m in SPEC["end_to_end"]]
    assert declared == _entries(END_TO_END)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds == BOUNDS
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_match_the_catalog():
    assert SPEC["per_layer"] == _entries(PER_LAYER)


def test_names_and_units_are_well_formed():
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in (*END_TO_END, *PER_LAYER))
    assert all(m.better in ("lower", "higher")
               for m in (*END_TO_END, *PER_LAYER))


def test_reference_names_every_metric_and_workload():
    text = (HERE / "METRICS.md").read_text()
    for name in [m.name for m in (*END_TO_END, *PER_LAYER)] + list(WORKLOADS):
        assert f"`{name}`" in text, name
