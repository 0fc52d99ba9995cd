"""``stream-conveyor``: streaming tag sessions over HTTP.

Tags pass a reader on a conveyor. Each of :data:`CONNECTIONS` keep-alive
connections keeps :data:`LIVE` sessions open: a session is opened with
``POST /v1/sessions``, fed its :data:`READS` reads in 16-read NDJSON
chunks round-robin with the connection's other sessions, then closed
with ``DELETE`` for its final fix, and a new tag takes its slot. Slots
start staggered so sessions do not open and close in lockstep.
"""

from __future__ import annotations

import http.client
import itertools
import json
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from e2ebench import common
from e2ebench.common import Result, Server, Spans, check, median, percentile

NAME = "stream-conveyor"
CONNECTIONS = 2
LIVE = 25
READS = 128
CHUNK = 16
CHUNKS = READS // CHUNK

#: Distinct simulated tag passes, cycled (each session gets a new tag id).
POOL = 256

#: Closed sessions per run whose final fix is re-solved in-process.
SAMPLE = 24

NOISE_RAD = 0.05
MAX_MEDIAN_ERR_MM = 10.0
MAX_ERR_MM = 100.0

WARMUP_S = 1.0


class Pass:
    """One simulated tag pass: its reads as arrays and as NDJSON chunks."""

    def __init__(self, positions: np.ndarray, phases: np.ndarray, times: np.ndarray,
                 truth: np.ndarray) -> None:
        self.positions, self.phases, self.truth = positions, phases, truth
        self.chunks: List[bytes] = []
        for start in range(0, READS, CHUNK):
            lines = [
                json.dumps({"t": float(times[k]), "position": positions[k].tolist(),
                            "phase": float(phases[k])})
                for k in range(start, start + CHUNK)
            ]
            self.chunks.append(("\n".join(lines) + "\n").encode())


def make_inputs(seed: int, count: int) -> List[Pass]:
    from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI

    rng = np.random.default_rng(seed)
    passes: List[Pass] = []
    for _ in range(count):
        start = rng.uniform(-1.1, -0.9)
        x = np.linspace(start, start + 2.0, READS)
        positions = np.column_stack([x, np.zeros(READS)])
        tag = np.array([rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.3)])
        distances = np.linalg.norm(positions - tag, axis=1)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
            + rng.uniform(0.0, TWO_PI)
            + rng.normal(0.0, NOISE_RAD, READS),
            TWO_PI,
        )
        passes.append(Pass(positions, phases, np.linspace(0.0, 2.54, READS), tag))
    return passes


#: (kind, session number, start, end, status, body) of one HTTP exchange.
Record = Tuple[str, int, float, float, int, bytes]


class _Slot:
    def __init__(self, delay: int) -> None:
        self.delay = delay
        self.session = -1
        self.chunk = 0


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: "bytes | None") -> Tuple[int, bytes]:
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def _client(server: Server, passes: Sequence[Pass], numbers: "itertools.count[int]",
            live: int, deadline: float, out: List[Tuple[List[Record], float]]) -> None:
    """One connection cycling its ``live`` slots until the deadline."""
    cpu = time.thread_time()
    conn = server.connect()
    records: List[Record] = []
    slots = [_Slot(index % CHUNKS) for index in range(live)]

    def call(kind: str, number: int, method: str, path: str, body: "bytes | None") -> int:
        nonlocal conn
        started = time.perf_counter()
        try:
            status, raw = _exchange(conn, method, path, body)
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = server.connect()
            status, raw = 0, b""
        records.append((kind, number, started, time.perf_counter(), status, raw))
        return status

    for slot in itertools.cycle(slots):
        if time.perf_counter() >= deadline:
            break
        if slot.delay:
            slot.delay -= 1
            continue
        if slot.session < 0:
            slot.session, slot.chunk = next(numbers), 0
            body = json.dumps({"tag": f"tag-{slot.session}", "session_id": f"s{slot.session}"})
            if call("open", slot.session, "POST", "/v1/sessions", body.encode()) != 201:
                slot.session = -1
                continue
        data = passes[slot.session % len(passes)]
        path = f"/v1/sessions/s{slot.session}"
        call("feed", slot.session, "POST", path + "/reads", data.chunks[slot.chunk])
        slot.chunk += 1
        if slot.chunk == CHUNKS:
            call("close", slot.session, "DELETE", path, None)
            slot.session = -1
    conn.close()
    out.append((records, time.thread_time() - cpu))


def load(server: Server, passes: Sequence[Pass], numbers: "itertools.count[int]",
         live: int, seconds: float) -> Tuple[List[Record], float, float]:
    """Run every connection for ``seconds``; records, wall and client CPU."""
    return common.run_clients(_client, (server, passes, numbers, live), CONNECTIONS, seconds,
                              order=2)


def _expected_status(kind: str) -> int:
    return 201 if kind == "open" else 200


def failures(records: Sequence[Record]) -> int:
    return sum(1 for r in records if r[4] != _expected_status(r[0]))


def decode_fix(raw: bytes) -> Any:
    """The final fix carried by one ``DELETE`` response body."""
    return json.loads(raw)["estimate"]


def verify(records: Sequence[Record], passes: Sequence[Pass], sample: int) -> List[float]:
    """Check every final fix; returns their errors in mm.

    Every ``DELETE`` answer must carry a windowed fix over all the tag's
    reads near the true tag; a spread sample must equal a one-shot
    ``estimate()`` of the same window bit for bit.
    """
    from repro.pipeline import estimate
    from repro.pipeline.contract import EstimationRequest

    closes = [r for r in records if r[0] == "close" and r[4] == 200]
    check(len(closes) > 0, "no session was closed")
    errors: List[float] = []
    fixes: List[List[float]] = []
    for _, number, _, _, _, raw in closes:
        fix = decode_fix(raw)
        check(fix is not None and fix["source"] == "windowed" and fix["reads"] == READS,
              f"session {number}: final fix {fix}")
        position = np.asarray(fix["position"], dtype=float)
        check(position.shape == (2,) and bool(np.all(np.isfinite(position))),
              f"session {number}: bad position {fix['position']}")
        errors.append(1e3 * float(np.linalg.norm(position - passes[number % len(passes)].truth)))
        fixes.append(fix["position"])
    check(median(errors) <= MAX_MEDIAN_ERR_MM, f"median error {median(errors):.2f} mm")
    check(max(errors) <= MAX_ERR_MM, f"worst error {max(errors):.2f} mm")
    for slot in np.linspace(0, len(closes) - 1, min(sample, len(closes))).astype(int):
        data = passes[closes[slot][1] % len(passes)]
        report = estimate("lion", EstimationRequest(positions=data.positions,
                                                    phases_rad=data.phases))
        check(fixes[slot] == np.asarray(report.position).tolist(),
              f"session {closes[slot][1]}: final fix {fixes[slot]} != one-shot "
              f"{np.asarray(report.position).tolist()}")
    return errors


def _layers(records: Sequence[Record], passes: Sequence[Pass], before: Tuple[Any, Any],
            after: Tuple[Any, Any], spans: Spans) -> Dict[str, float]:
    from repro.serve.net.sessions import parse_reads_ndjson
    from repro.stream import SessionManager, StreamConfig

    metrics0, statz0 = before
    metrics1, statz1 = after
    feeds = [r for r in records if r[0] == "feed" and r[4] == 200]
    closes = [r for r in records if r[0] == "close" and r[4] == 200]
    feed_rtt_ms = [1e3 * (end - start) for _, _, start, end, _, _ in feeds]
    manager = SessionManager(defaults=StreamConfig(), max_sessions=SAMPLE + 1)
    parse_s, feed_s, close_s, resolve_s = [], [], [], []
    for number in range(SAMPLE):
        data = passes[number % len(passes)]
        session = manager.open_session(f"probe-{number}", session_id=f"p{number}")
        for chunk in data.chunks:
            reads = parse_reads_ndjson(chunk)
            parse_s += common.timed_probe(spans, "net.parse_reads_ndjson",
                                          lambda: parse_reads_ndjson(chunk), 1)
            feed_s += common.timed_probe(spans, "SessionManager.feed",
                                         lambda: manager.feed(session.session_id, reads), 1)
        resolve_s += common.timed_probe(spans, "TagSession.final_resolve",
                                        session.final_resolve, 1)
        close_s += common.timed_probe(spans, "SessionManager.close_session",
                                      lambda: manager.close_session(session.session_id), 1)
    fast_updates = sum(
        1
        for record in feeds
        for event in json.loads(record[5])["events"]
        if event["kind"] == "position_updated" and event["source"] == "fast"
    )
    on_reads: Dict[str, Any] = {"route": lambda route: route.endswith("/reads")}
    server_hist = common.histogram_delta(
        metrics0, metrics1, "lion_serve_net_request_seconds", **on_reads)
    server_p50_ms = 1e3 * common.histogram_quantile(server_hist, 0.5)
    resolves = statz1["sessions"]["resolves_direct"] - statz0["sessions"]["resolves_direct"]
    tags = max(len(closes), 1)
    return {
        "net.server_p50_ms": server_p50_ms,
        "net.client_gap_p50_ms": median(feed_rtt_ms) - server_p50_ms,
        "net.feed_parse_us": 1e6 * median(parse_s),
        "net.feed_overhead_p50_ms": median(feed_rtt_ms) - 1e3 * median(feed_s),
        "net.body_kb": float(np.mean([len(c) for p in passes for c in p.chunks])) / 1024.0,
        "net.shed_total": common.counter_delta(metrics0, metrics1, "lion_serve_net_shed_total"),
        "stream.feed_us": 1e6 * median(feed_s),
        "stream.close_us": 1e6 * median(close_s),
        "stream.resolve_p50_ms": 1e3 * median(resolve_s),
        "stream.windowed_resolves_per_tag": resolves / tags,
        "stream.fast_updates_per_tag": fast_updates / tags,
    }


def run(seed: int, seconds: float, trace: bool, spans: Spans, tiny: bool = False) -> Result:
    passes = make_inputs(seed, 32 if tiny else POOL)
    live = 2 if tiny else LIVE
    server, setup_s, setup_wall_s = common.launch_server(
        f"conveyor-{seed}", launches=1 if tiny else None)
    try:
        numbers = itertools.count()
        warm_started = time.perf_counter()
        load(server, passes, numbers, live, 0.3 if tiny else WARMUP_S)
        warmup_s = time.perf_counter() - warm_started
        meter = common.Meter(server)
        records, wall, cpu = load(server, passes, numbers, live, seconds)
        cpu_s, steal = meter.stop()
        phases = [records]
        layers: Dict[str, float] = {}
        if trace:
            before = (server.metrics(), server.get_json("/statz"))
            traced_meter = common.Meter(server)
            traced, traced_wall, traced_cpu = load(server, passes, numbers, live, seconds)
            traced_cpu_s, _ = traced_meter.stop()
            after = (server.metrics(), server.get_json("/statz"))
            for kind, number, start, end, status, _ in traced:
                spans.add(f"client.{kind}", start, end, session=number, status=status)
            phases.append(traced)
    finally:
        server.stop()

    errors = verify(records, passes, SAMPLE // 2)

    def reads(batch: Sequence[Record]) -> int:
        return CHUNK * sum(1 for r in batch if r[0] == "feed" and r[4] == 200)

    e2e = common.wall_metrics(
        meter, reads(records),
        [(r[2], r[3]) for r in records if r[0] == "feed" and r[4] == 200])
    feed_ms = [1e3 * (r[3] - r[2]) for r in records if r[0] == "feed" and r[4] == 200]
    fix_ms = [1e3 * (r[3] - r[2]) for r in records if r[0] == "close" and r[4] == 200]
    cpu_ms = 1e3 * cpu_s / reads(records)
    if trace:
        verify(traced, passes, SAMPLE // 2)
        layers = _layers(traced, passes, before, after, spans)
        layers["obs.trace_overhead_pct"] = common.overhead_pct(
            cpu_ms, 1e3 * traced_cpu_s / reads(traced))
        layers["gen.cpu_share"] = traced_cpu / traced_wall
    named = {
        "cpu_ms_per_read": (cpu_ms, "ms"),
        "reads_per_s": (e2e["throughput_per_s"], "1/s"),
        "feed_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "feed_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "feed_p99_ms": (e2e["latency_p99_ms"], "ms"),
        "fix_p50_ms": (percentile(fix_ms, 50), "ms"),
        "position_err_mm": (median(errors), "mm"),
        "setup_wall_s": (setup_wall_s, "s"),
        "warmup_s": (warmup_s, "s"),
        "feed_samples": (float(len(feed_ms)), "count"),
        "fix_samples": (float(len(fix_ms)), "count"),
        "gen_cpu_share": (cpu / wall, "ratio"),
        "host_steal_share": (steal, "ratio"),
    }
    return Result(
        attempted=sum(len(p) for p in phases),
        failed=sum(failures(p) for p in phases),
        e2e={**e2e, "cpu_ms_per_op": cpu_ms, "setup_s": setup_s},
        named=named,
        info={"threads": CONNECTIONS, "connections": CONNECTIONS,
              "live_sessions_per_connection": live, "reads_per_session": READS,
              "chunk_reads": CHUNK, "server_launches": 1 if tiny else common.SERVER_LAUNCHES},
        layers=layers,
    )
