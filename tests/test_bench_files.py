"""The shape of every committed BENCH_<PR>.json, the record of a change's
benchmark runs against its parent that tests/bench_record.py writes."""

import copy
import json
from pathlib import Path

import pytest

from bench_record import problems

FILES = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_is_well_formed(path):
    assert problems(json.loads(path.read_text())) == []


def _drop_metric(obj):
    del obj["workloads"]["seal"]["child"][0]["metrics"]["solve_p50_ms"]


def _extra_workload(obj):
    obj["workloads"]["extra"] = copy.deepcopy(obj["workloads"]["tower"])


@pytest.mark.parametrize("spoil", [
    lambda obj: obj.pop("parent"),
    lambda obj: obj["workloads"].pop("small"),
    _extra_workload,
    _drop_metric,
    lambda obj: obj["workloads"]["tower"]["parent"][0]["metrics"]["ok_share"].update(value="1.0"),
    lambda obj: obj["workloads"]["tower"]["parent"][0]["metrics"]["setup_s"].update(value=float("nan")),
    lambda obj: obj["workloads"]["symbolic"]["median"]["child"].update(peak_rss_mb=True),
    lambda obj: obj["workloads"]["symbolic"]["child_wins"].pop("throughput_ops_s"),
    lambda obj: obj["workloads"]["small"]["parent"].pop(),
    lambda obj: obj.update(seeds=[]),
], ids=["no parent", "three workloads", "five workloads", "a metric missing", "a string value", "a nan value",
        "a bool median", "a win count missing", "a line missing", "no seed"])
def test_a_malformed_bench_file_fails(spoil):
    obj = json.loads(FILES[-1].read_text())
    spoil(obj)
    assert problems(obj)
