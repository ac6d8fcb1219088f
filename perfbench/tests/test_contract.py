"""BENCHMARK.json describes exactly what the benchmark reports."""

import json
from pathlib import Path

import layers
import run

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_metric_tables_match_the_report():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER]


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
