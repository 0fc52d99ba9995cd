"""Tests of the end-to-end benchmark itself.

Run from the checkout root with ``python3 -m pytest e2ebench/tests``.
A tiny-size run of every workload must print every named metric with
its unit, and a tampered answer must trip the correctness check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2ebench import conveyor, fleet, portal, wire  # noqa: E402
from e2ebench.common import CorrectnessError, Spans  # noqa: E402
from e2ebench.metrics import (  # noqa: E402
    LAYER_MOVES,
    WORKLOAD_METRICS,
    WORKLOADS,
    end_to_end,
    per_layer,
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(workload: str, trace: int) -> tuple:
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    detail, result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(end_to_end())
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for generic, (named, unit) in WORKLOAD_METRICS[workload].items():
        assert generic in detail["end_to_end"]
        assert detail["named"][named]["unit"] == unit
    assert detail["succeeded"] + detail["failed"] == detail["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload: str) -> None:
    _, result = _result(workload, 1)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(per_layer())
    assert result["metrics"]["gen.cpu_share"]["value"] > 0


def test_every_per_layer_metric_says_what_it_should_move() -> None:
    assert set(LAYER_MOVES) == {name for name, _ in per_layer()}


def test_missing_source_tree_exits_nonzero_without_result(tmp_path: Path) -> None:
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for source in (ROOT / "e2ebench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "wire-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _nudge(values: list) -> list:
    return [float(np.nextafter(values[0], np.inf))] + list(values[1:])


def test_tampered_wire_answer_trips_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    decode = wire.decode_answer

    def tampered(raw: bytes) -> dict:
        answer = decode(raw)
        answer["position"] = _nudge(answer["position"])
        return answer

    monkeypatch.setattr(wire, "decode_answer", tampered)
    with pytest.raises(CorrectnessError, match="wire answer"):
        wire.run(seed=4, seconds=0.3, trace=False, spans=Spans(), tiny=True)


def test_tampered_portal_answer_trips_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.pipeline.contract import EstimationReport

    burst = portal.burst

    def tampered(engine, pallet):
        reports = burst(engine, pallet)
        first = reports[0]
        fields = {name: getattr(first, name) for name in EstimationReport.__dataclass_fields__}
        fields["position"] = np.asarray(_nudge(list(first.position)))
        return [EstimationReport(**fields)] + reports[1:]

    monkeypatch.setattr(portal, "burst", tampered)
    with pytest.raises(CorrectnessError, match="batched"):
        portal.run(seed=4, seconds=0.3, trace=False, spans=Spans(), tiny=True)


def test_tampered_stream_fix_trips_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    decode = conveyor.decode_fix

    def tampered(raw: bytes) -> dict:
        fix = decode(raw)
        fix["position"] = _nudge(fix["position"])
        return fix

    monkeypatch.setattr(conveyor, "decode_fix", tampered)
    with pytest.raises(CorrectnessError, match="one-shot"):
        conveyor.run(seed=4, seconds=1.0, trace=False, spans=Spans(), tiny=True)


def test_tampered_calibration_record_trips_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    committed = fleet.committed_records

    def tampered(store, name, depth):
        records = list(committed(store, name, depth))
        first = records[0]
        records[0] = first.__class__(**{
            **{field: getattr(first, field) for field in first.__dataclass_fields__},
            "phase_offset_rad": float(np.nextafter(first.phase_offset_rad, np.inf)),
        })
        return records

    monkeypatch.setattr(fleet, "committed_records", tampered)
    with pytest.raises(CorrectnessError, match="direct"):
        fleet.run(seed=4, seconds=0.3, trace=False, spans=Spans(), tiny=True)


def test_host_adjustment_takes_out_steal_and_cpu_speed() -> None:
    from e2ebench.common import REFERENCE_S, Meter, wall_metrics

    meter = Meter()
    meter.stop()
    # Two 1 s windows: 10% steal, then none; fixed work took 1.25x its reference time.
    meter.marks = [(0.0, 0, 0), (1.0, 10, 100), (2.0, 10, 200)]
    meter.probes = [1.25 * REFERENCE_S] * 3
    assert meter.running_s(0.0, 2.0) == pytest.approx(0.81 + 1.0)
    assert meter.running_s(0.5, 1.5) == pytest.approx(0.5 * 0.81 + 0.5)
    metrics = wall_metrics(meter, 181.0, [(0.0, 0.1), (1.0, 1.1), (1.5, 1.6)])
    assert metrics["throughput_per_s"] == pytest.approx(90.5)
    assert metrics["host_adj_throughput_per_s"] == pytest.approx(125.0)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["host_adj_latency_p50_ms"] == pytest.approx(80.0)
    assert metrics["host_slowness"] == pytest.approx(1.25)
