"""``wire-paper``: LION 2D locates over HTTP at the paper's scale.

Every request is a distinct 400-read line scan (its own sweep and tag),
sent as ``POST /v1/locate`` by :data:`CLIENTS` closed-loop keep-alive
connections to a fresh ``lion serve --port 0`` process. The request
pool is cycled in order and is larger than the server's 128-entry
result cache, so no request is ever answered from that cache.
"""

from __future__ import annotations

import http.client
import itertools
import json
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from e2ebench import common
from e2ebench.common import Result, Server, Spans, check, median

NAME = "wire-paper"
READS = 400
CLIENTS = 2

#: Distinct request bodies, cycled in order (> the 128-entry result cache).
POOL = 512

#: Answers per run re-solved in-process and compared bit for bit.
SAMPLE = 48

#: Simulator noise and the accuracy every answer must reach.
NOISE_RAD = 0.05
MAX_MEDIAN_ERR_MM = 10.0
MAX_ERR_MM = 100.0

WARMUP_S = 1.0


def make_inputs(seed: int, count: int) -> Tuple[List[bytes], List[Any], np.ndarray]:
    """``count`` distinct line scans: bodies, requests and true tag positions."""
    from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
    from repro.pipeline.contract import EstimationRequest

    rng = np.random.default_rng(seed)
    bodies: List[bytes] = []
    requests: List[Any] = []
    truths = np.empty((count, 2))
    for index in range(count):
        center = rng.uniform(-0.2, 0.2)
        half = rng.uniform(0.5, 0.7)
        x = np.linspace(center - half, center + half, READS)
        positions = np.column_stack([x, np.full(READS, rng.uniform(-0.05, 0.05))])
        tag = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.6, 1.2)])
        distances = np.linalg.norm(positions - tag, axis=1)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
            + rng.uniform(0.0, TWO_PI)
            + rng.normal(0.0, NOISE_RAD, READS),
            TWO_PI,
        )
        requests.append(EstimationRequest(positions=positions, phases_rad=phases))
        truths[index] = tag
        bodies.append(json.dumps({
            "estimator": "lion",
            "request": {"positions": positions.tolist(), "phases_rad": phases.tolist()},
        }).encode())
    return bodies, requests, truths


def decode_answer(raw: bytes) -> Dict[str, Any]:
    """One ``/v1/locate`` response body."""
    return json.loads(raw)


Record = Tuple[int, float, float, int, bytes]


def _client(
    server: Server,
    bodies: Sequence[bytes],
    counter: "itertools.count[int]",
    deadline: float,
    out: List[Tuple[List[Record], float]],
) -> None:
    """One closed-loop connection: send the next body as soon as one answers."""
    cpu = time.thread_time()
    conn = server.connect()
    records: List[Record] = []
    while True:
        started = time.perf_counter()
        if started >= deadline:
            break
        index = next(counter)
        try:
            conn.request("POST", "/v1/locate", body=bodies[index % len(bodies)])
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = server.connect()
            status, raw = 0, b""
        records.append((index, started, time.perf_counter(), status, raw))
    conn.close()
    out.append((records, time.thread_time() - cpu))


def load(server: Server, bodies: Sequence[bytes], counter: "itertools.count[int]",
         seconds: float) -> Tuple[List[Record], float, float]:
    """Run the closed loop; returns records, wall and client CPU seconds."""
    return common.run_clients(_client, (server, bodies, counter), CLIENTS, seconds, order=1)


def verify(records: Sequence[Record], requests: Sequence[Any], truths: np.ndarray,
           sample: int) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Check every answer; returns decoded answers and errors in mm.

    Every 200 answer must carry a finite position near the true tag; a
    spread sample must equal the in-process ``estimate()`` bit for bit.
    """
    from repro.pipeline import estimate

    answers: List[Dict[str, Any]] = []
    errors: List[float] = []
    ok = [r for r in records if r[3] == 200]
    for index, _, _, _, raw in ok:
        answer = decode_answer(raw)
        position = np.asarray(answer["position"], dtype=float)
        check(position.shape == (2,) and bool(np.all(np.isfinite(position))),
              f"request {index}: bad position {answer.get('position')}")
        errors.append(1e3 * float(np.linalg.norm(position - truths[index % len(truths)])))
        answers.append(answer)
    check(len(errors) > 0, "no request succeeded")
    check(median(errors) <= MAX_MEDIAN_ERR_MM, f"median error {median(errors):.2f} mm")
    check(max(errors) <= MAX_ERR_MM, f"worst error {max(errors):.2f} mm")
    for slot in np.linspace(0, len(ok) - 1, min(sample, len(ok))).astype(int):
        index = ok[slot][0]
        report = estimate("lion", requests[index % len(requests)])
        check(
            answers[slot]["position"] == np.asarray(report.position).tolist()
            and answers[slot]["config_hash"] == report.config_hash,
            f"request {index}: wire answer {answers[slot]['position']} != in-process "
            f"{np.asarray(report.position).tolist()}",
        )
    return answers, errors


def _rtts_ms(records: Sequence[Record]) -> List[float]:
    return [1e3 * (end - start) for _, start, end, status, _ in records if status == 200]


def _layers(records: Sequence[Record], answers: Sequence[Dict[str, Any]],
            bodies: Sequence[bytes], requests: Sequence[Any], before: Tuple[Any, Any],
            after: Tuple[Any, Any], spans: Spans) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced phase, and its latency ledger.

    Server time per request is the ``server_ms`` the front end stamps on
    each answer; the in-process layer calls are timed afterwards on a
    spread sample of the same requests, unloaded.
    """
    from repro.pipeline import create_estimator
    from repro.serve.net.protocol import encode_report_payload, parse_locate_body
    from repro.serve.net.worker import report_payload

    metrics0, statz0 = before
    metrics1, statz1 = after
    ok = [r for r in records if r[3] == 200]
    server_ms = [float(a["server_ms"]) for a in answers]
    rtts = _rtts_ms(records)
    estimator = create_estimator("lion", None)
    slots = np.linspace(0, len(ok) - 1, min(SAMPLE, len(ok))).astype(int)
    parse_s, estimate_s, prepare_s, encode_s, overhead_ms = [], [], [], [], []
    for slot in slots:
        index = ok[slot][0] % len(bodies)
        body, request = bodies[index], requests[index]
        parse_s += common.timed_probe(spans, "net.parse_locate_body",
                                      lambda: parse_locate_body(body), 3)
        times = common.timed_probe(spans, "pipeline.estimate",
                                   lambda: estimator.estimate(request), 3)
        estimate_s += times
        overhead_ms.append(server_ms[slot] - 1e3 * median(times))
        prepare_s += common.timed_probe(
            spans, "LionLocalizer.prepare",
            lambda: estimator.localizer.prepare(request.positions, request.phases_rad), 3)
        report = estimator.estimate(request)
        encode_s += common.timed_probe(
            spans, "net.encode_report_payload",
            lambda: json.dumps(encode_report_payload(
                report_payload(report, False), 0, 1.0, request_id="r")), 3)
    request_hist = common.histogram_delta(
        metrics0, metrics1, "lion_serve_net_request_seconds", route="/v1/locate")
    wait_hist = common.histogram_delta(metrics0, metrics1, "lion_serve_batch_wait_seconds")
    engine = common.engine_ratios(common.engine_counters(statz0), common.engine_counters(statz1))
    gaps = [rtt - s for rtt, s in zip(rtts, server_ms)]
    layers = {
        "net.server_p50_ms": 1e3 * common.histogram_quantile(request_hist, 0.5),
        "net.client_gap_p50_ms": median(gaps),
        "net.parse_us": 1e6 * median(parse_s),
        "net.encode_us": 1e6 * median(encode_s),
        "net.overhead_p50_ms": median(overhead_ms),
        "net.body_kb": float(np.mean([len(b) for b in bodies])) / 1024.0,
        "net.shed_total": common.counter_delta(metrics0, metrics1, "lion_serve_net_shed_total"),
        "serve.batch_wait_p50_ms": 1e3 * common.histogram_quantile(wait_hist, 0.5),
        "core.estimate_us": 1e6 * median(estimate_s),
        "core.prepare_us": 1e6 * median(prepare_s),
        "core.solve_us": 1e6 * (median(estimate_s) - median(prepare_s)),
        "solver.irls_iterations_mean": float(np.mean(
            [a["diagnostics"]["iterations"] for a in answers])),
        **engine,
    }
    total = layers["net.client_gap_p50_ms"] + layers["net.overhead_p50_ms"] + \
        layers["core.estimate_us"] / 1e3
    rtt_p50 = median(rtts)
    ledger = [
        "  ledger (traced phase, p50 of each stage, ms):",
        f"    net.client_gap_p50_ms {layers['net.client_gap_p50_ms']:.4f}"
        f" + net.overhead_p50_ms {layers['net.overhead_p50_ms']:.4f}"
        f" + core.estimate_us/1e3 {layers['core.estimate_us'] / 1e3:.4f}"
        f" = {total:.4f}  vs locate_p50_ms {rtt_p50:.4f}"
        f"  residual {rtt_p50 - total:+.4f}",
    ]
    return layers, ledger


def run(seed: int, seconds: float, trace: bool, spans: Spans, tiny: bool = False) -> Result:
    pool = 160 if tiny else POOL
    bodies, requests, truths = make_inputs(seed, pool)
    server, setup_s, setup_wall_s = common.launch_server(
        f"wire-{seed}", launches=1 if tiny else None)
    try:
        counter = itertools.count()
        warm_started = time.perf_counter()
        load(server, bodies, counter, 0.2 if tiny else WARMUP_S)
        warmup_s = time.perf_counter() - warm_started
        meter = common.Meter(server)
        records, wall, cpu = load(server, bodies, counter, seconds)
        cpu_s, steal = meter.stop()
        phases = [records]
        layers: Dict[str, float] = {}
        ledger: List[str] = []
        if trace:
            before = (server.metrics(), server.get_json("/statz"))
            traced_meter = common.Meter(server)
            traced, traced_wall, traced_cpu = load(server, bodies, counter, seconds)
            traced_cpu_s, _ = traced_meter.stop()
            after = (server.metrics(), server.get_json("/statz"))
            for index, start, end, status, _ in traced:
                spans.add("client.locate", start, end, request=index, status=status)
            phases.append(traced)
    finally:
        server.stop()

    answers, errors = verify(records, requests, truths, SAMPLE // 2)
    rtts = _rtts_ms(records)
    succeeded = len(rtts)
    e2e = common.wall_metrics(
        meter, succeeded, [(start, end) for _, start, end, status, _ in records
                           if status == 200])
    attempted = sum(len(p) for p in phases)
    failed = sum(1 for p in phases for r in p if r[3] != 200)
    cpu_ms = 1e3 * cpu_s / succeeded
    if trace:
        traced_answers, _ = verify(traced, requests, truths, SAMPLE // 2)
        layers, ledger = _layers(traced, traced_answers, bodies, requests, before, after, spans)
        layers["obs.trace_overhead_pct"] = common.overhead_pct(
            cpu_ms, 1e3 * traced_cpu_s / len(traced_answers))
        layers["gen.cpu_share"] = traced_cpu / traced_wall
    named = {
        "cpu_ms_per_locate": (cpu_ms, "ms"),
        "locate_per_s": (e2e["throughput_per_s"], "1/s"),
        "locate_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "locate_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "locate_p99_ms": (e2e["latency_p99_ms"], "ms"),
        "position_err_mm": (median(errors), "mm"),
        "setup_wall_s": (setup_wall_s, "s"),
        "warmup_s": (warmup_s, "s"),
        "samples": (float(succeeded), "count"),
        "gen_cpu_share": (cpu / wall, "ratio"),
        "host_steal_share": (steal, "ratio"),
    }
    return Result(
        attempted=attempted,
        failed=failed,
        e2e={**e2e, "cpu_ms_per_op": cpu_ms, "setup_s": setup_s},
        named=named,
        info={"threads": CLIENTS, "connections": CLIENTS,
              "server_launches": 1 if tiny else common.SERVER_LAUNCHES,
              "distinct_bodies": pool, "checked_bit_identical": SAMPLE // 2 * len(phases)},
        layers=layers,
        ledger=ledger,
    )
