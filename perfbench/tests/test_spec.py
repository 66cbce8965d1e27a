"""BENCHMARK.json is well formed and agrees with what run.py prints."""

import json
import re
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420   # 10 s: start-up, set-up, spans


def test_names_units_and_bounds():
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_the_runner(tmp_path):
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    for name in ("optimize_p60", "optimize_p200"):
        assert isinstance(workloads.make(name, tmp_path, 1), workloads.Optimize)
    with pytest.raises(ValueError):
        workloads.make("nope", tmp_path, 1)


def test_tracer_finds_every_phase_function_and_the_genome_decoder():
    from spans import Tracer

    tracer = Tracer("dice_pareto", extra=[workloads.cli.main])
    assert set(workloads.PHASE_FUNCTIONS) <= set(tracer.functions)
    assert "dice_pareto.model.PolicyMatrix.from_genome" in tracer.traced_names
    assert "dice_pareto.cli.main" in tracer.traced_names
