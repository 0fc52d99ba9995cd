"""``fleet-recal``: scheduled recalibration of a deep calibration store.

A fleet of :data:`ANTENNAS` portal antennas, each already holding
:data:`DEPTH` committed versions (a month of hourly recalibration), is
recalibrated in back-to-back ``RecalibrationScheduler.recalibrate``
cycles with the default executor. The calibration scans are simulated
before timing and served from a lookup, so a cycle spends its time in
``repro.calib`` (solve fan-out and commits), not in the RF simulator.

A second thread reads the store the way serving does (see
:class:`Reader`); each read is timed from the commit that made it due.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from e2ebench import common
from e2ebench.common import Result, Spans, check, median, percentile

NAME = "fleet-recal"
ANTENNAS = 24
DEPTH = 720

#: Store opens per run; ``setup_s`` is their steal-adjusted median.
OPENS = 7

#: Accuracy every committed phase center must reach against the truth.
MAX_MEDIAN_ERR_MM = 15.0
MAX_ERR_MM = 60.0


def build_store(root: Path, seed: int, antennas: int, depth: int) -> Tuple[Any, Dict[str, Any]]:
    """Write a store of ``depth`` hourly versions per antenna; pre-simulate scans.

    The history follows the fleet's drift (true phase center and offset
    plus a few millimetres / centiradians of calibration noise). Returns
    the drifted fleet and one calibration task per antenna at its
    current truth.
    """
    from repro.calib import fleet_scan_source
    from repro.calib.records import CalibrationRecord
    from repro.core.calibration import AntennaCalibration
    from repro.datasets.fleet import AntennaFleet, FleetDriftConfig

    fleet = AntennaFleet(FleetDriftConfig(size=antennas, seed=seed))
    rng = np.random.default_rng(seed)
    lines: Dict[str, List[str]] = {name: [] for name in fleet.names}
    first_unix = time.time() - depth * 3600.0
    for version in range(1, depth + 1):
        fleet.advance(3600.0)
        for name in fleet.names:
            antenna = fleet.antenna(name)
            calibration = AntennaCalibration(
                antenna_name=name,
                physical_center=antenna.physical_center_array,
                estimated_center=antenna.phase_center + rng.normal(0.0, 0.002, 3),
                phase_offset_rad=float(np.mod(
                    antenna.phase_offset_rad + fleet.tag.phase_offset_rad
                    + rng.normal(0.0, 0.02), 2.0 * np.pi)),
            )
            record = CalibrationRecord.from_calibration(
                calibration, version=version, created_unix=first_unix + 3600.0 * version,
                source="scheduled", reads=1394, residual_rms_m=0.001)
            lines[name].append(json.dumps(record.to_dict()))
    (root / "antennas").mkdir(parents=True)
    for name, records in lines.items():
        (root / "antennas" / f"{name}.jsonl").write_text("\n".join(records) + "\n")
    (root / "meta.json").write_text(
        json.dumps({"format": 1, "generation": depth * antennas}, indent=2) + "\n")
    source = fleet_scan_source(fleet, salt=seed)
    return fleet, {name: source(name) for name in fleet.names}


class Reader:
    """Serving's read path to the store, beside the recalibration cycles.

    Serving reads calibrations through ``CalibrationResolver``, whose
    cache is stamped with the store's commit generation: the first
    request after a commit misses and re-reads ``centers_for`` +
    ``offsets_for``; every other request is a cache hit. So serving
    reads the store once per commit. The reader resolves one request
    naming every antenna as soon as a commit lands (a server under
    steady traffic). Each commit is timed from the moment it landed
    (``reads``) and from the start of its cycle (``visible``) to the
    end of the first resolve that includes it.
    """

    def __init__(self, store: Any, names: Sequence[str]) -> None:
        from repro.calib import CalibrationResolver
        from repro.pipeline.contract import EstimationRequest

        self.store = store
        self.resolver = CalibrationResolver(store)
        self.request = EstimationRequest(phases_rad=np.zeros(len(names)), antennas=tuple(names))
        self.cycle_start = 0.0
        self.due: List[Tuple[int, float, float]] = []
        self.reads: List[Tuple[float, float]] = []
        self.visible: List[Tuple[float, float]] = []
        self.cpu_s = 0.0
        self._wake = threading.Condition()
        self._stopping = False

    def landed(self, record: Any) -> None:
        """Commit callback; runs on the committing thread under the store lock."""
        generation = self.store.generation
        with self._wake:
            self.due.append((generation, time.perf_counter(), self.cycle_start))
            self._wake.notify()

    def stop(self) -> None:
        with self._wake:
            self._stopping = True
            self._wake.notify()

    def run(self) -> None:
        """Resolve after each commit until stopped and every commit is read."""
        cpu = time.thread_time()
        names = len(self.request.antennas)
        while True:
            with self._wake:
                while not self.due and not self._stopping:
                    self._wake.wait()
                if not self.due:
                    break
            generation = self.store.generation
            resolved = self.resolver.resolve(self.request)
            now = time.perf_counter()
            if resolved.positions.shape != (names, 3) or \
                    resolved.offset_corrections_rad.shape != (names,):
                raise RuntimeError(f"bad resolve shapes {resolved.positions.shape}")
            with self._wake:
                while self.due and self.due[0][0] <= generation:
                    _, landed, cycle_start = self.due.pop(0)
                    self.reads.append((landed, now))
                    self.visible.append((cycle_start, now))
        self.cpu_s = time.thread_time() - cpu


#: (start, end, report) of one recalibration cycle.
Cycle = Tuple[float, float, Any]


def load(scheduler: Any, names: Sequence[str], seconds: float,
         spans: Spans) -> Tuple[List[Cycle], Reader, float]:
    """Recalibrate cycle after cycle for ``seconds`` beside the reader.

    Returns the cycles, the reader and the wall seconds.
    """
    reader = Reader(scheduler.store, names)
    thread = threading.Thread(target=reader.run)
    cycles: List[Cycle] = []
    token = scheduler.store.subscribe(reader.landed)
    started = time.perf_counter()
    thread.start()
    try:
        while time.perf_counter() - started < seconds:
            begun = reader.cycle_start = time.perf_counter()
            report = scheduler.recalibrate(names)
            ended = time.perf_counter()
            spans.add("RecalibrationScheduler.recalibrate", begun, ended,
                      committed=len(report.committed))
            cycles.append((begun, ended, report))
    finally:
        scheduler.store.unsubscribe(token)
        reader.stop()
        thread.join()
    wall = time.perf_counter() - started
    check(not reader.due and len(reader.reads) == committed(cycles),
          f"the reader saw {len(reader.reads)} of {committed(cycles)} commits")
    return cycles, reader, wall


def committed_records(store: Any, name: str, depth: int) -> Sequence[Any]:
    """The versions committed to ``name`` since the history was built."""
    return store.history(name)[depth:]


def verify(store: Any, fleet: Any, tasks: Dict[str, Any], depth: int, spans: Spans,
           cycles: int) -> Tuple[List[float], List[float], Dict[str, Any]]:
    """Every committed version must equal a direct solve of its scan.

    Returns the phase-center errors in mm, the direct solve times and
    the direct solves.
    """
    from repro.calib import solve_calibration_task

    errors: List[float] = []
    solve_s: List[float] = []
    outcomes: Dict[str, Any] = {}
    for name in fleet.names:
        started = time.perf_counter()
        outcomes[name] = solve_calibration_task(tasks[name])
        solve_s.append(time.perf_counter() - started)
        direct = outcomes[name].calibration
        spans.add("solve_calibration_task", started, started + solve_s[-1], antenna=name)
        committed = committed_records(store, name, depth)
        check(len(committed) == cycles, f"{name}: {len(committed)} commits for {cycles} cycles")
        for record in committed:
            check(
                record.phase_offset_rad == direct.phase_offset_rad
                and np.array_equal(np.asarray(record.estimated_center), direct.estimated_center),
                f"{name} v{record.version}: committed {record.estimated_center} "
                f"{record.phase_offset_rad} != direct {direct.estimated_center} "
                f"{direct.phase_offset_rad}",
            )
        truth = fleet.antenna(name).phase_center
        errors.append(1e3 * float(np.linalg.norm(direct.estimated_center - truth)))
    check(median(errors) <= MAX_MEDIAN_ERR_MM, f"median error {median(errors):.2f} mm")
    check(max(errors) <= MAX_ERR_MM, f"worst error {max(errors):.2f} mm")
    return errors, solve_s, outcomes


def _layers(store: Any, names: Sequence[str], outcomes: Dict[str, Any], cycles: Sequence[Cycle],
            solve_s: Sequence[float], open_s: float, jobs: Any, spans: Spans) -> Dict[str, float]:
    """Per-layer metrics: the traced cycles, then direct commits and reads."""
    from repro.parallel import resolve_jobs

    commit_s: List[float] = []
    written = common.proc_wchar()
    for _ in range(2):
        for name in names:
            outcome = outcomes[name]
            commit_s += common.timed_probe(
                spans, "CalibrationStore.commit",
                lambda: store.commit(outcome.calibration, source="scheduled",
                                     reads=outcome.reads,
                                     residual_rms_m=outcome.residual_rms_m), 1)
    written = common.proc_wchar() - written
    read_s = common.timed_probe(
        spans, "CalibrationStore.read",
        lambda: (store.offsets_for(names), store.centers_for(names)), 200)
    cycle_ms = median([1e3 * (end - start) for start, end, _ in cycles])
    return {
        "calib.solve_ms": 1e3 * median(solve_s),
        "calib.commit_p50_ms": 1e3 * percentile(commit_s, 50),
        "calib.commit_p90_ms": 1e3 * percentile(commit_s, 90),
        "calib.bytes_per_commit": written / len(commit_s),
        "calib.read_us": 1e6 * median(read_s),
        "calib.open_s": open_s,
        # The solves run on resolve_jobs() pool workers at once; the
        # commits run one after another.
        "parallel.fanout_overhead_ms":
            cycle_ms - 1e3 * sum(solve_s) / resolve_jobs(jobs)
            - len(names) * 1e3 * percentile(commit_s, 50),
    }


def committed(cycles: Sequence[Cycle]) -> int:
    return sum(len(report.committed) for _, _, report in cycles)


def run(seed: int, seconds: float, trace: bool, spans: Spans, tiny: bool = False) -> Result:
    from repro.calib import CalibrationStore, RecalibrationScheduler

    antennas, depth = (4, 20) if tiny else (ANTENNAS, DEPTH)
    root = common.WORKDIR / f"fleet-store-{seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        fleet, tasks = build_store(root, seed, antennas, depth)
        def open_store(last: bool) -> Tuple[Any, float, float]:
            started = time.perf_counter()
            store = CalibrationStore(root, create=False)
            return store, started, time.perf_counter()

        store, setup_s, setup_wall_s = common.timed_setups(open_store, OPENS)
        names = list(fleet.names)
        scheduler = RecalibrationScheduler(store, tasks.__getitem__)
        meter = common.Meter()
        cycles, reader, wall = load(scheduler, names, seconds, Spans())
        cpu_s, steal = meter.stop()
        all_cycles = list(cycles)
        layers: Dict[str, float] = {}
        if trace:
            traced_meter = common.Meter()
            traced, traced_reader, traced_wall = load(scheduler, names, seconds, spans)
            traced_cpu_s, _ = traced_meter.stop()
            all_cycles += traced
        errors, solve_s, outcomes = verify(store, fleet, tasks, depth, spans, len(all_cycles))
        if trace:
            layers = _layers(store, names, outcomes, traced, solve_s, setup_wall_s,
                             scheduler.jobs, spans)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    cpu_ms = 1e3 * cpu_s / committed(cycles)
    e2e = common.wall_metrics(meter, committed(cycles), reader.visible)
    read_us = [1e6 * (end - start) for start, end in reader.reads]
    failed = sum(
        len(report.failures) + len(report.conflicts) for _, _, report in all_cycles
    )
    if trace:
        layers["obs.trace_overhead_pct"] = common.overhead_pct(
            cpu_ms, 1e3 * traced_cpu_s / committed(traced))
        layers["gen.cpu_share"] = traced_reader.cpu_s / traced_wall
    named = {
        "cpu_ms_per_recal": (cpu_ms, "ms"),
        "recal_per_s": (e2e["throughput_per_s"], "1/s"),
        "recal_visible_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "recal_visible_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "recal_visible_p99_ms": (e2e["latency_p99_ms"], "ms"),
        "calib_read_p50_us": (percentile(read_us, 50), "us"),
        "calib_read_p90_us": (percentile(read_us, 90), "us"),
        "calib_read_p99_us": (percentile(read_us, 99), "us"),
        "calib_err_mm": (median(errors), "mm"),
        "setup_wall_s": (setup_wall_s, "s"),
        "cycles": (float(len(cycles)), "count"),
        "read_samples": (float(len(reader.reads)), "count"),
        "resolver_misses": (float(reader.resolver.stats()["misses"]), "count"),
        "gen_cpu_share": (reader.cpu_s / wall, "ratio"),
        "host_steal_share": (steal, "ratio"),
    }
    return Result(
        attempted=len(all_cycles) * len(names),
        failed=failed,
        e2e={**e2e, "cpu_ms_per_op": cpu_ms, "setup_s": setup_s},
        named=named,
        info={"threads": 2, "connections": 0, "antennas": antennas,
              "history_depth": depth, "reads": "one resolve per commit",
              "executor": scheduler.executor},
        layers=layers,
    )
