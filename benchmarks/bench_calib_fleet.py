"""Fleet recalibration throughput and registry latency under load.

Exercises the whole calibration-registry loop (:mod:`repro.calib` over
:mod:`repro.datasets.fleet`) at fleet sizes 10 / 100 / 500: seed every
antenna from a known-trajectory scan, drift the fleet half a day, then
measure

* **recalibration throughput** — antennas recalibrated per second when
  one scheduler cycle fans the calibration solves through the process
  executor and commits versions under compare-and-swap;
* **store read latency under serve load** — p50/p99 of the resolver-path
  reads (``offsets_for`` + ``centers_for``) while a background thread
  commits fresh versions into the same store, the contention pattern a
  serving front end sees during a rolling recalibration;
* **staleness-detection lag** — wall time of one full
  :class:`repro.calib.DriftMonitor` fleet evaluation, i.e. how long
  after a drift alarm the fleet health verdict can flip;
* **commit latency against history depth** (``deep_commit``) — commit
  p50 on antennas holding 1 and 720 versions (a month of hourly
  recalibration) and their ratio. A commit appends one line, so the
  ratio stays near 1; a store that rewrote history per commit would
  show roughly the depth.

One antenna per fleet is re-solved directly and compared against the
committed record, so the bench also proves the fanned-out path is
**bit-identical** to an in-process :func:`calibrate_antenna` call.

CI runs the quick sizing on every PR and gates
``fleets.10.recal_antennas_per_sec`` against
``benchmarks/baselines/BENCH_calib_fleet.json`` (20% tolerance plus an
absolute floor) and ``deep_commit.depth_ratio`` against an absolute
ceiling; the nightly slow job refreshes the baseline artifact at full
sizing.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_calib_fleet.py --out BENCH_calib_fleet.json
    PYTHONPATH=src python benchmarks/bench_calib_fleet.py --quick   # CI sizing

or under pytest-benchmark along with the other benches::

    PYTHONPATH=src pytest benchmarks/bench_calib_fleet.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time

import numpy as np

from repro.calib import (
    CalibrationRecord,
    CalibrationStore,
    DriftMonitor,
    RecalibrationScheduler,
    StalenessPolicy,
    fleet_scan_source,
    solve_calibration_task,
)
from repro.datasets.fleet import AntennaFleet, FleetDriftConfig

#: Fleet sizes measured (full sizing).
FLEET_SIZES = (10, 100, 500)

#: Fleet sizes in ``--quick`` (CI) sizing.
QUICK_FLEET_SIZES = (10,)

#: Simulated drift applied between the seed pass and the timed
#: recalibration cycle (hours).
DRIFT_HOURS = 12.0

#: Resolver-path reads timed per fleet for the latency percentiles.
READ_SAMPLES = 400

#: DriftMonitor fleet evaluations timed per fleet.
DETECT_SAMPLES = 20

#: History depths (versions already committed) of the deep-commit section.
SHALLOW_DEPTH = 1
DEEP_DEPTH = 720

#: Antennas per depth; each takes one timed commit.
DEEP_COMMITS = 40


def _read_latency_under_load(store: CalibrationStore, fleet: AntennaFleet) -> dict:
    """p50/p99 of resolver-path reads while a thread commits versions.

    The writer loop re-commits the latest record of each antenna in
    round-robin (cheap but exercises the full lock + fsync path), which
    is the contention a serving resolver sees during a rolling
    recalibration: every commit bumps the generation and forces the next
    read to miss its cache.
    """
    names = fleet.names
    stop = threading.Event()
    commits = [0]

    def writer() -> None:
        index = 0
        while not stop.is_set():
            name = names[index % len(names)]
            record = store.latest(name)
            store.commit(
                record.to_calibration(),
                source="manual",
                reads=record.reads,
                residual_rms_m=record.residual_rms_m,
            )
            commits[0] += 1
            index += 1

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    latencies = np.empty(READ_SAMPLES)
    try:
        for sample in range(READ_SAMPLES):
            started = time.perf_counter()
            store.offsets_for(names)
            store.centers_for(names, dim=2)
            latencies[sample] = time.perf_counter() - started
    finally:
        stop.set()
        thread.join()
    micros = latencies * 1e6
    return {
        "reads": READ_SAMPLES,
        "commits_during_load": commits[0],
        "read_p50_us": round(float(np.percentile(micros, 50)), 2),
        "read_p99_us": round(float(np.percentile(micros, 99)), 2),
    }


def _detection_latency(store: CalibrationStore, fleet: AntennaFleet) -> dict:
    """Staleness-detection pass latency: one full fleet evaluation.

    Every antenna gets enough drift alarms to trip the policy first, so
    the timed pass does the full alarm-window arithmetic and flags the
    whole fleet — the worst-case verdict.
    """
    monitor = DriftMonitor(store, StalenessPolicy(max_drift_alarms=2))
    for name in fleet.names:
        for _ in range(3):
            monitor.observe_alarm(name, drift_m=0.05)
    passes = np.empty(DETECT_SAMPLES)
    for sample in range(DETECT_SAMPLES):
        started = time.perf_counter()
        health = monitor.evaluate()
        passes[sample] = time.perf_counter() - started
    assert len(health.stale()) == len(fleet.names), "alarms did not flag the fleet"
    millis = passes * 1e3
    return {
        "stale_flagged": len(health.stale()),
        "detect_p50_ms": round(float(np.percentile(millis, 50)), 4),
        "detect_p99_ms": round(float(np.percentile(millis, 99)), 4),
    }


def _seed_history(root: str, depth: int) -> CalibrationStore:
    """A store of :data:`DEEP_COMMITS` antennas holding ``depth`` versions each.

    The history is written in the store's own line format rather than
    committed one version at a time, then synced, so the timed commits
    do not pay for flushing it.
    """
    fleet = AntennaFleet(FleetDriftConfig(size=DEEP_COMMITS, seed=0))
    CalibrationStore(root)
    for name in fleet.names:
        antenna = fleet.antenna(name)
        record = CalibrationRecord(
            antenna=name,
            version=1,
            physical_center=tuple(antenna.physical_center_array),
            estimated_center=tuple(antenna.phase_center),
            phase_offset_rad=antenna.phase_offset_rad,
            created_unix=time.time(),
            source="seed",
        )
        lines = [
            json.dumps(record.with_version(version).to_dict()) + "\n"
            for version in range(1, depth + 1)
        ]
        with open(f"{root}/antennas/{name}.jsonl", "w") as handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
    return CalibrationStore(root, create=False)


def _deep_commit_latency() -> dict:
    """Commit p50 at a shallow and a deep history depth, and their ratio.

    Commits alternate between the two stores so both see the same disk
    and scheduler noise.
    """
    timings = {SHALLOW_DEPTH: np.empty(DEEP_COMMITS), DEEP_DEPTH: np.empty(DEEP_COMMITS)}
    with tempfile.TemporaryDirectory(prefix="bench-calib-deep-") as root:
        stores = {depth: _seed_history(f"{root}/{depth}", depth) for depth in timings}
        for index in range(DEEP_COMMITS):
            for depth, store in stores.items():
                name = store.antennas()[index]
                calibration = store.latest(name).to_calibration()
                started = time.perf_counter()
                record = store.commit(calibration, source="manual", expected_version=depth)
                timings[depth][index] = time.perf_counter() - started
                assert record.version == depth + 1
    shallow, deep = (float(np.percentile(timings[depth], 50)) * 1e3 for depth in timings)
    return {
        "commits": DEEP_COMMITS,
        "shallow_depth": SHALLOW_DEPTH,
        "deep_depth": DEEP_DEPTH,
        "shallow_p50_ms": round(shallow, 4),
        "deep_p50_ms": round(deep, 4),
        "depth_ratio": round(deep / shallow, 3),
    }


def _run_fleet(size: int, seed: int, executor: str) -> dict:
    """One fleet size: seed, drift, timed recalibration cycle, latencies."""
    fleet = AntennaFleet(FleetDriftConfig(size=size, seed=seed))
    with tempfile.TemporaryDirectory(prefix="bench-calib-") as root:
        store = CalibrationStore(root)
        seeder = RecalibrationScheduler(
            store, fleet_scan_source(fleet), executor=executor, source="seed"
        )
        seed_started = time.perf_counter()
        seed_report = seeder.recalibrate(fleet.names)
        seed_s = time.perf_counter() - seed_started
        assert not seed_report.failures, f"seed pass failed: {seed_report.failures}"

        fleet.advance(DRIFT_HOURS * 3600.0)
        scheduler = RecalibrationScheduler(
            store, fleet_scan_source(fleet, salt=1), executor=executor
        )
        report = scheduler.recalibrate(fleet.names)
        assert not report.failures, f"recalibration failed: {report.failures}"
        assert len(report.committed) == size

        # The fanned-out solve must be bit-identical to an in-process one.
        probe = fleet.names[size // 2]
        task = scheduler.build_tasks([probe])[0]
        direct = solve_calibration_task(task)
        committed = store.latest(probe)
        identity_ok = bool(
            committed.phase_offset_rad == direct.calibration.phase_offset_rad
            and np.array_equal(
                np.asarray(committed.estimated_center),
                np.asarray(direct.calibration.estimated_center),
            )
        )
        assert identity_ok, f"fan-out diverged from direct solve for {probe}"

        payload = {
            "size": size,
            "seed_commit_s": round(seed_s, 3),
            "recal_cycle_s": round(report.duration_s, 3),
            "recal_committed": len(report.committed),
            "recal_antennas_per_sec": round(report.antennas_per_sec, 2),
            "identity_ok": identity_ok,
        }
        payload.update(_detection_latency(store, fleet))
        payload.update(_read_latency_under_load(store, fleet))
        return payload


def run_study(
    fleet_sizes=FLEET_SIZES, seed: int = 0, executor: str = "process"
) -> dict:
    """The full study: one run per fleet size."""
    fleets = {str(size): _run_fleet(size, seed, executor) for size in fleet_sizes}
    return {
        "drift_hours": DRIFT_HOURS,
        "executor": executor,
        "fleet_sizes": list(fleet_sizes),
        "fleets": fleets,
        "deep_commit": _deep_commit_latency(),
    }


def test_bench_calib_fleet(benchmark):
    """Smoke-sized run: the 10-antenna fleet loop, identity holds."""
    payload = benchmark.pedantic(
        run_study,
        kwargs={"fleet_sizes": (10,), "executor": "serial"},
        iterations=1,
        rounds=1,
    )
    fleet = payload["fleets"]["10"]
    print()
    print("== fleet recalibration, antennas/second ==")
    print(
        f"  {fleet['size']:>4} antennas: {fleet['recal_antennas_per_sec']:8.2f} ant/s   "
        f"detect p99 {fleet['detect_p99_ms']:.3f} ms   "
        f"read p99 {fleet['read_p99_us']:.1f} us"
    )
    deep = payload["deep_commit"]
    print(
        f"  commit p50 at depth {deep['shallow_depth']}: {deep['shallow_p50_ms']:.3f} ms, "
        f"at depth {deep['deep_depth']}: {deep['deep_p50_ms']:.3f} ms "
        f"(ratio {deep['depth_ratio']:.2f})"
    )
    assert fleet["identity_ok"]
    assert fleet["recal_committed"] == 10
    assert fleet["recal_antennas_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI sizing: fleet sizes {QUICK_FLEET_SIZES}",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="process",
        help="repro.parallel backend the scheduler fans solves through",
    )
    parser.add_argument(
        "--out", default="BENCH_calib_fleet.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    sizes = QUICK_FLEET_SIZES if args.quick else FLEET_SIZES
    payload = run_study(sizes, seed=args.seed, executor=args.executor)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
