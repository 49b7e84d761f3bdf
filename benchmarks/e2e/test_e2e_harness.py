"""Fast checks of the e2e harness itself (mock backend, fractions of a second).

The benchmark's numbers come from the real CKKS backend; here the mock
backend stands in so that the catalogue, the tail rule, the paced schedule and
the output check are covered by the ordinary test run.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_programs  # noqa: E402
import e2e_workloads  # noqa: E402
from e2e_stats import Tracer, paced_schedule, supports_percentile, unattributed_fraction  # noqa: E402
from e2e_workloads import ENCRYPTED_SPECS, SETUP_REPS, TAIL_PERCENTILE, RunConfig, run_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: The two larger networks take a second per sweep; the fast run's zoo probe compiles the rest.
LEFT_OUT = ("squeezenet-cifar", "lenet5-medium")


@pytest.fixture(scope="module")
def catalogue():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def config(tmp_path: Path, traced: bool) -> RunConfig:
    return RunConfig(
        seed=7, seconds=0.75, traced=traced, src_dir=ROOT / "src", out_dir=tmp_path,
        backend="mock",
    )  # fmt: skip


@pytest.fixture(scope="module")
def traced_results(catalogue, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e")
    zoo = [entry for entry in e2e_programs.compile_zoo() if entry.name not in LEFT_OUT]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e2e_programs, "compile_zoo", lambda: zoo)
        return {
            workload["name"]: run_workload(workload["name"], config(out_dir, traced=True))
            for workload in catalogue["workloads"]
        }


def test_catalogue_is_well_formed(catalogue):
    metrics = catalogue["end_to_end"] + catalogue["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in catalogue["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in catalogue["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= catalogue["end_to_end"][0].items()
    assert max(m["bound"] for m in catalogue["end_to_end"]) == catalogue["end_to_end"][0]["bound"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in catalogue["workloads"])
    assert len(catalogue["per_layer"]) <= 128 and 2 <= len(catalogue["workloads"]) <= 8
    assert set(e2e_workloads.WORKLOADS) == set(SETUP_REPS) == {w["name"] for w in catalogue["workloads"]}
    assert set(TAIL_PERCENTILE) <= set(SETUP_REPS)


def test_every_named_metric_is_emitted_and_vice_versa(catalogue, traced_results):
    end_to_end = {m["name"] for m in catalogue["end_to_end"]}
    per_layer = {m["name"] for m in catalogue["per_layer"]}
    emitted = set()
    for name, result in traced_results.items():
        assert result.failed == 0 and result.attempted > 0, name
        assert end_to_end <= set(result.metrics), name
        assert all(result.metrics[metric] != 0 for metric in end_to_end), name
        emitted |= set(result.metrics) - end_to_end
    assert emitted <= per_layer, sorted(emitted - per_layer)
    missing = per_layer - emitted - {f"core.compiler.compile_s.{n}" for n in LEFT_OUT}
    assert not missing, sorted(missing)


def test_traced_runs_keep_spans_and_close_the_budget(traced_results):
    spans = traced_results["rotate_sum"].spans
    assert {"name", "request", "parent", "seconds"} <= set(spans[0])
    roots = [span for span in spans if span["name"] == "request"]
    assert roots and all("start" in span and "end" in span for span in roots)
    assert traced_results["batch_pairs"].notes["zoo_verifier"] == "mock"
    tracer = Tracer()
    root = tracer.add("request", 1.0)
    trip = tracer.add("net.roundtrip", 0.7, parent=root)
    tracer.add("serving.execute", 0.6, parent=trip)
    tracer.add("api.client.encrypt", 0.2, parent=root)
    # 0.1 s of the request and 0.1 s of the round trip have no layer span.
    assert unattributed_fraction(tracer) == pytest.approx(0.2)


def test_a_tail_needs_ten_samples_beyond():
    assert supports_percentile(100, 90) and not supports_percentile(99, 90)
    assert supports_percentile(40, 75) and not supports_percentile(39, 75)
    assert supports_percentile(200, 95) and supports_percentile(1000, 99)


def test_paced_schedule_is_a_pure_function_of_the_seed():
    first = paced_schedule(3, seconds=2.0, rate=4.0)
    assert first == paced_schedule(3, seconds=2.0, rate=4.0)
    assert first != paced_schedule(4, seconds=2.0, rate=4.0)
    assert len(first) == 8
    gaps = {round(b - a, 9) for a, b in zip(first, first[1:])}
    assert gaps == {0.25}


def test_wrong_expected_output_counts_as_failed_not_as_timed(monkeypatch, tmp_path):
    spec = ENCRYPTED_SPECS["rotate_sum"]

    def off_by_one_sometimes(x):
        return spec.reference(x) + (1.0 if x[0] > 0 else 0.0)

    monkeypatch.setitem(ENCRYPTED_SPECS, "rotate_sum", spec._replace(reference=off_by_one_sometimes))
    monkeypatch.setitem(SETUP_REPS, "rotate_sum", 1)
    result = run_workload("rotate_sum", config(tmp_path, traced=False))
    assert 0 < result.failed < result.attempted
    assert result.samples == result.attempted - result.failed
    assert result.metrics["slo_attained_frac"] == pytest.approx(result.samples / result.attempted)
