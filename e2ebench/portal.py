"""``portal-burst``: pallets of tags through an in-process ``ServeEngine``.

A logistics portal reads a whole pallet at once: 32 tags x 60 reads
that all share the pass's trajectory. Each pallet is submitted in one
burst to an engine built with the default ``ServeConfig``; the next
pallet follows when the last tag of the previous one has answered. The
network front end does no work here: this workload isolates
micro-batching, the ``batch_prepare`` template cache and the fused IRLS.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from e2ebench import common
from e2ebench.common import Result, Spans, check, median

NAME = "portal-burst"
TAGS = 32
READS = 60

#: Distinct pallets, cycled in order (32 x 64 requests > the result cache).
POOL = 64

WARMUP_PALLETS = 20

#: Fresh engines started per run, each on the next pallet; ``setup_s`` is
#: their steal-adjusted median.
SETUPS = 151

#: Pallets per run re-solved through scalar ``estimate()`` bit for bit.
SAMPLE_PALLETS = 2

NOISE_RAD = 0.05
MAX_MEDIAN_ERR_MM = 20.0
MAX_ERR_MM = 300.0


def make_inputs(seed: int, pallets: int) -> Tuple[List[List[Any]], np.ndarray]:
    """One portal trajectory; ``pallets`` x :data:`TAGS` tags read along it."""
    from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
    from repro.pipeline.contract import EstimationRequest

    rng = np.random.default_rng(seed)
    half = rng.uniform(0.55, 0.65)
    x = np.linspace(-half, half, READS)
    positions = np.column_stack([x, np.zeros(READS)])
    out: List[List[Any]] = []
    truths = np.empty((pallets, TAGS, 2))
    for pallet in range(pallets):
        tags = np.column_stack([rng.uniform(-0.3, 0.3, TAGS), rng.uniform(0.6, 1.2, TAGS)])
        distances = np.linalg.norm(positions[None, :, :] - tags[:, None, :], axis=2)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
            + rng.uniform(0.0, TWO_PI, (TAGS, 1))
            + rng.normal(0.0, NOISE_RAD, (TAGS, READS)),
            TWO_PI,
        )
        out.append([EstimationRequest(positions=positions, phases_rad=row) for row in phases])
        truths[pallet] = tags
    return out, truths


def _setup(first: Sequence[Any], keep: bool) -> Tuple[Any, float, float]:
    """Engine start plus the first pallet answered, with cold geometry caches."""
    from repro.core.batch_prepare import clear_template_cache
    from repro.core.sweep import clear_pair_cache
    from repro.serve.engine import ServeConfig, ServeEngine

    clear_template_cache()
    clear_pair_cache()
    started = time.perf_counter()
    engine = ServeEngine(ServeConfig())
    for ticket in [engine.submit("lion", request) for request in first]:
        ticket.result()
    ended = time.perf_counter()
    if not keep:
        engine.close()
        return None, started, ended
    engine.clear_cache()
    return engine, started, ended


Pallet = Tuple[int, float, float, List[Any]]


def burst(engine: Any, pallet: Sequence[Any]) -> List[Any]:
    """Submit a whole pallet at once; its reports, or the exceptions raised."""
    tickets = [engine.submit("lion", request) for request in pallet]
    out: List[Any] = []
    for ticket in tickets:
        try:
            out.append(ticket.result())
        except Exception as error:  # noqa: BLE001 - a failed tag is counted, not fatal
            out.append(error)
    return out


def load(engine: Any, pallets: Sequence[List[Any]], start: int,
         seconds: float) -> Tuple[List[Pallet], float, float]:
    """Burst pallets for ``seconds``; returns records, wall and generator CPU."""
    cpu = time.thread_time()
    records: List[Pallet] = []
    started = time.perf_counter()
    deadline = started + seconds
    index = start
    while time.perf_counter() < deadline:
        begun = time.perf_counter()
        reports = burst(engine, pallets[index % len(pallets)])
        records.append((index, begun, time.perf_counter(), reports))
        index += 1
    return records, time.perf_counter() - started, time.thread_time() - cpu


def failures(records: Sequence[Pallet]) -> int:
    return sum(isinstance(r, Exception) for _, _, _, reports in records for r in reports)


def verify(records: Sequence[Pallet], pallets: Sequence[List[Any]], truths: np.ndarray,
           sample: int) -> List[float]:
    """Check every answer; returns the position errors in mm."""
    from repro.pipeline import estimate

    errors: List[float] = []
    for index, _, _, reports in records:
        check(len(reports) == TAGS, f"pallet {index}: {len(reports)} answers")
        for tag, report in enumerate(reports):
            if isinstance(report, Exception):
                continue
            position = np.asarray(report.position, dtype=float)
            check(position.shape == (2,) and bool(np.all(np.isfinite(position))),
                  f"pallet {index} tag {tag}: bad position {report.position}")
            truth = truths[index % len(truths), tag]
            errors.append(1e3 * float(np.linalg.norm(position - truth)))
    check(len(errors) > 0, "no pallet completed")
    check(median(errors) <= MAX_MEDIAN_ERR_MM, f"median error {median(errors):.2f} mm")
    check(max(errors) <= MAX_ERR_MM, f"worst error {max(errors):.2f} mm")
    for slot in np.linspace(0, len(records) - 1, min(sample, len(records))).astype(int):
        index, _, _, reports = records[slot]
        for tag, request in enumerate(pallets[index % len(pallets)]):
            scalar = estimate("lion", request)
            check(
                not isinstance(reports[tag], Exception),
                f"pallet {index} tag {tag}: {reports[tag]!r} where scalar answered",
            )
            check(
                np.array_equal(reports[tag].position, scalar.position)
                and reports[tag].config_hash == scalar.config_hash
                and reports[tag].diagnostics == scalar.diagnostics,
                f"pallet {index} tag {tag}: batched {reports[tag].position} != "
                f"scalar {scalar.position}",
            )
    return errors


def _layers(records: Sequence[Pallet], pallets: Sequence[List[Any]], stats: Tuple[Any, Any],
            snapshots: Tuple[Any, Any], makespans_ms: Sequence[float],
            spans: Spans) -> Dict[str, float]:
    """Per-layer metrics of the traced phase.

    The traced phase turns the program's metrics registry on to read
    ``serve.batch_wait_seconds``, and off again before the layer calls
    are timed; the engine overhead is taken against the untraced
    phase's pallet makespans (``makespans_ms``).
    """
    from repro.core.batch_prepare import prepare_batch
    from repro.pipeline import create_estimator
    from repro.serve.batching import execute_batch

    estimator = create_estimator("lion", None)
    execute_s, prepare_batch_s, estimate_s, prepare_s = [], [], [], []
    for slot in np.linspace(0, len(records) - 1, min(8, len(records))).astype(int):
        pallet = pallets[records[slot][0] % len(pallets)]
        execute_s += common.timed_probe(
            spans, "serve.execute_batch", lambda: execute_batch(estimator, pallet), 3)
        prepare_batch_s += common.timed_probe(
            spans, "batch_prepare.prepare_batch",
            lambda: prepare_batch(estimator.localizer, pallet), 3)
        request = pallet[0]
        estimate_s += common.timed_probe(
            spans, "pipeline.estimate", lambda: estimator.estimate(request), 3)
        prepare_s += common.timed_probe(
            spans, "LionLocalizer.prepare",
            lambda: estimator.localizer.prepare(request.positions, request.phases_rad), 3)

    from repro.obs.history import MetricsHistory, histogram_delta

    history = MetricsHistory()
    for snapshot in snapshots:
        sample = history.observe(snapshot)
    wait = histogram_delta(sample, "serve.batch_wait_seconds")
    return {
        **common.engine_ratios(*(common.engine_counters({"per_shard": [st]}) for st in stats)),
        "serve.batch_wait_p50_ms": 1e3 * common.histogram_quantile(wait, 0.5),
        "serve.engine_overhead_ms": median(makespans_ms) - 1e3 * median(execute_s),
        "core.execute_batch_us": 1e6 * median(execute_s),
        "core.prepare_batch_us": 1e6 * median(prepare_batch_s),
        "core.estimate_us": 1e6 * median(estimate_s),
        "core.prepare_us": 1e6 * median(prepare_s),
        "core.solve_us": 1e6 * (median(estimate_s) - median(prepare_s)),
        "solver.irls_iterations_mean": float(np.mean(
            [r.diagnostics["iterations"] for _, _, _, reports in records for r in reports
             if not isinstance(r, Exception)])),
    }


def run(seed: int, seconds: float, trace: bool, spans: Spans, tiny: bool = False) -> Result:
    from repro.obs import disable_metrics, enable_metrics, get_registry

    pallets, truths = make_inputs(seed, 8 if tiny else POOL)
    first = itertools.cycle(pallets)
    engine, setup_s, setup_wall_s = common.timed_setups(
        lambda last: _setup(next(first), keep=last), 3 if tiny else SETUPS)
    try:
        warm_started = time.perf_counter()
        warm = 2 if tiny else WARMUP_PALLETS
        for index in range(warm):
            burst(engine, pallets[index % len(pallets)])
        warmup_s = time.perf_counter() - warm_started
        meter = common.Meter()
        records, wall, cpu = load(engine, pallets, warm, seconds)
        cpu_s, steal = meter.stop()
        layers: Dict[str, float] = {}
        if trace:
            enable_metrics()
            stats0, snap0 = engine.stats(), get_registry().snapshot()
            traced_meter = common.Meter()
            traced, traced_wall, traced_cpu = load(engine, pallets, warm + len(records), seconds)
            traced_cpu_s, _ = traced_meter.stop()
            stats1, snap1 = engine.stats(), get_registry().snapshot()
            disable_metrics()
            for index, start, end, _ in traced:
                spans.add("client.pallet", start, end, pallet=index)
    finally:
        engine.close()

    errors = verify(records, pallets, truths, SAMPLE_PALLETS)
    makespans = [1e3 * (end - start) for _, start, end, _ in records]
    failed = failures(records)
    attempted = len(records) * TAGS
    cpu_ms = 1e3 * cpu_s / (attempted - failed)
    e2e = common.wall_metrics(meter, attempted - failed,
                              [(start, end) for _, start, end, _ in records])
    if trace:
        verify(traced, pallets, truths, SAMPLE_PALLETS)
        attempted += len(traced) * TAGS
        failed += failures(traced)
        layers = _layers(traced, pallets, (stats0, stats1), (snap0, snap1), makespans, spans)
        layers["obs.trace_overhead_pct"] = common.overhead_pct(
            cpu_ms, 1e3 * traced_cpu_s / (len(traced) * TAGS - failures(traced)))
        layers["gen.cpu_share"] = traced_cpu / traced_wall
    named = {
        "cpu_ms_per_tag": (cpu_ms, "ms"),
        "tags_per_s": (e2e["throughput_per_s"], "1/s"),
        "pallet_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "pallet_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "pallet_p99_ms": (e2e["latency_p99_ms"], "ms"),
        "position_err_mm": (median(errors), "mm"),
        "setup_wall_s": (setup_wall_s, "s"),
        "warmup_s": (warmup_s, "s"),
        "samples": (float(len(records)), "count"),
        "gen_cpu_share": (cpu / wall, "ratio"),
        "host_steal_share": (steal, "ratio"),
    }
    return Result(
        attempted=attempted,
        failed=failed,
        e2e={**e2e, "cpu_ms_per_op": cpu_ms, "setup_s": setup_s},
        named=named,
        info={"threads": 1, "connections": 0, "tags_per_pallet": TAGS,
              "reads_per_tag": READS, "distinct_pallets": len(pallets),
              "checked_bit_identical": SAMPLE_PALLETS * TAGS * (2 if trace else 1)},
        layers=layers,
    )
