"""The benchmark's own tests: seeded traffic, declared metrics, tiny runs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, speed, traffic
from perfbench import workloads as wl

REPO = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A two-stage demo bundle: trains in seconds, serves every workload."""
    from repro.serving.demo import build_two_stage_demo_service

    directory = tmp_path_factory.mktemp("perfbench") / "bundle"
    build_two_stage_demo_service(seed=0).save(directory)
    return directory


def _declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: traffic.distinct_telemetry(seed, 300),
        lambda seed: traffic.zipf_stream(seed, 100)[1].take(500),
        lambda seed: traffic.live_tail(seed, 200, 300),
    ],
    ids=["distinct_telemetry", "zipf_stream", "live_tail"],
)
def test_same_seed_same_stream(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_streams_never_run_dry():
    pool, zipf = traffic.zipf_stream(2, 50)
    first = zipf.take(3000)
    assert len(first) == 3000 and {e.line for e in first} <= {e.line for e in pool}
    assert zipf.served() == first
    cycle = traffic.Cycle(traffic.distinct_telemetry(2, 40))
    taken = cycle.take(30) + cycle.take(30)
    assert cycle.passes == 1.5 and cycle.served() == taken
    assert [e.line for e in taken[40:]] == [e.line for e in taken[:20]]
    assert all(a.timestamp < b.timestamp for a, b in zip(taken, taken[1:]))


def test_live_tail_carries_campaigns_and_many_hosts():
    history, events = traffic.live_tail(3, 200, 400)
    assert not any(e.host.startswith("victim-") for e in history)
    victims = [e for e in events if e.host.startswith("victim-")]
    assert victims and all(e.malicious for e in victims)
    assert len({e.host for e in events}) > 10


def test_local_slowdowns_average_the_readings_around_each_call():
    ref = speed.REFERENCE_S
    assert list(speed.local_slowdowns([ref] * 7, window=3)) == pytest.approx([1.0] * 7)
    slow = speed.local_slowdowns([ref, ref, 4 * ref, 4 * ref], window=3)
    assert list(slow) == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert speed.slowdown([]) == 1.0 and 0 < speed.probe() < 1.0


def test_calibrated_figures_are_at_the_reference_speed():
    phase = wl.Phase(events=200, calls=100, seconds=1.0, cpu_seconds=1.0)
    phase.call_seconds.extend([0.01] * 100)
    phase.call_cpu.extend([0.01] * 100)
    phase.call_events.extend([2] * 100)
    phase.readings.extend([2 * speed.REFERENCE_S] * 100)  # twice as slow
    measured = bench.phase_figures(phase, calibrated=False)
    calibrated = bench.phase_figures(phase, calibrated=True)
    assert measured["throughput_eps"] == pytest.approx(200.0)
    assert measured["latency_p50_ms"] == pytest.approx(10.0)
    assert calibrated["throughput_eps"] == pytest.approx(400.0)
    assert calibrated["latency_p50_ms"] == pytest.approx(5.0)
    assert calibrated["cpu_us_per_event"] == pytest.approx(measured["cpu_us_per_event"] / 2)


def test_metric_names_are_declared():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(wl.WORKLOADS)
    for name in list(bench.END_TO_END) + list(bench.PER_LAYER):
        assert NAME.match(name), name


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_has_no_errors(name, bundle, tmp_path):
    report = bench.run_workload(
        name, bundle, tmp_path / "run", seed=0, seconds=0.6, trace=True, scale=0.02,
        setup_rounds=1,
    )
    assert report["failed"] == 0, report
    assert report["error_rate"] == 0.0
    assert report["correct"] and report["attempted"] > 0
    assert set(report["end_to_end"]) == set(bench.END_TO_END)
    assert set(report["per_layer"]) == set(bench.PER_LAYER)
    assert report["end_to_end"]["throughput_eps"] > 0
    assert 0 < report["per_layer"]["trace.coverage_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_last_line_is_the_result(bundle, trace, tmp_path, monkeypatch, capsys):
    from perfbench import run, world

    monkeypatch.setattr(world, "ensure_bundle", lambda root: (bundle, 0.0))
    monkeypatch.setattr(world, "cache_root", lambda repo: tmp_path)
    monkeypatch.setattr(wl, "WARM_POOL", 64)
    monkeypatch.setattr(wl, "SETUP_ROUNDS", 1)
    assert run.main(["--workload", "warm_zipf", "--seed", "1", "--seconds", "0.5",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert set(metric) == {"value", "unit"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_ingest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
