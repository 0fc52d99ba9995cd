"""Shared machinery of the end-to-end benchmark.

Statistics, CPU accounting, the host adjustment of wall-clock figures
(steal and CPU speed), the in-memory span recorder of traced runs, the
server process every HTTP workload drives, and readers for the
server's ``/metrics`` and ``/statz`` endpoints. Nothing here imports
the program under test at module level, so ``run.py`` can check that
the source tree exists before anything touches it.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Checkout root: the benchmark lives one directory below it.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Scratch space for server logs, calibration stores and span dumps.
WORKDIR = ROOT / ".bench_run"

#: Fresh server launches per run; ``setup_s`` is their steal-adjusted median.
SERVER_LAUNCHES = 3


class CorrectnessError(Exception):
    """An answer disagreed with its reference; no number may be printed."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CorrectnessError` unless ``condition`` holds."""
    if not condition:
        raise CorrectnessError(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if len(values) == 0:
        raise CorrectnessError("no samples to summarise")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def own_cpu_s() -> float:
    """CPU seconds of this process and its reaped children so far (``cpu_ms_per_op``)."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def tree_cpu_s(root: int) -> float:
    """CPU seconds so far of process ``root`` and all its live descendants."""
    parents: Dict[int, int] = {}
    used: Dict[int, float] = {}
    ticks = float(os.sysconf("SC_CLK_TCK"))
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        parents[int(entry)] = int(fields[1])
        used[int(entry)] = (int(fields[11]) + int(fields[12])) / ticks
    tree = {root}
    grown = True
    while grown:
        grown = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grown = True
    return sum(used.get(pid, 0.0) for pid in tree)


def system_cpu_s(server: "Optional[Server]" = None) -> float:
    """CPU seconds so far of the benchmark process plus ``server``'s process tree."""
    return own_cpu_s() + (tree_cpu_s(server.proc.pid) if server is not None else 0.0)


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


#: Seconds between two reads of the host's steal counters during a phase.
WINDOW_S = 0.5

#: CPU seconds :func:`e2ebench.probe.reference_work` takes on the 2-CPU VM
#: the benchmark was tuned on; it sets only the scale of the host-adjusted
#: metrics.
REFERENCE_S = 0.9e-3


class Meter:
    """CPU seconds used, the host's steal share window by window, and the
    host's CPU speed, over one phase.

    A background thread reads ``/proc/stat`` every :data:`WINDOW_S`, so
    each interval of the phase can be charged the steal of its windows
    (see :meth:`running_s`), and has the probe process
    (:mod:`e2ebench.probe`) time fixed work (see :meth:`slowness`).
    """

    def __init__(self, server: "Optional[Server]" = None) -> None:
        self.server = server
        self._cpu = system_cpu_s(server)
        self.marks: List[Tuple[float, int, int]] = [(time.perf_counter(), *host_ticks())]
        self.probes: List[float] = []
        self._probe_proc = subprocess.Popen(
            [sys.executable, "-m", "e2ebench.probe"], cwd=str(ROOT),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        atexit.register(self._close_probe)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _probe(self) -> None:
        assert self._probe_proc.stdin is not None and self._probe_proc.stdout is not None
        self._probe_proc.stdin.write("\n")
        self._probe_proc.stdin.flush()
        self.probes.append(float(self._probe_proc.stdout.readline()))

    def _close_probe(self) -> None:
        if self._probe_proc.poll() is None:
            self._probe_proc.communicate(timeout=30.0)

    def _sample(self) -> None:
        while not self._stop.wait(WINDOW_S):
            self.marks.append((time.perf_counter(), *host_ticks()))
            self._probe()

    def stop(self) -> Tuple[float, float]:
        """CPU seconds used and the host's steal share, since the meter started."""
        self._stop.set()
        self._thread.join()
        cpu = system_cpu_s(self.server) - self._cpu
        self.marks.append((time.perf_counter(), *host_ticks()))
        self._probe()
        self._close_probe()
        first, last = self.marks[0], self.marks[-1]
        return cpu, ratio(last[1] - first[1], last[2] - first[2])

    def running_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` in which both CPUs ran for this host.

        Each window's wall time is weighted by ``(1 - steal)**2``: a
        window's steal share is the chance that a CPU was taken away,
        and the benchmark's closed loops hand work from one CPU to the
        other (client and server, generator and workers), so they move
        only while both run. On a 2-CPU VM, 5 wire-paper runs at 1-12%
        steal had a throughput spread (quartile distance over median) of
        0.20 as measured and 0.04 with this weight; weighting by
        ``1 - steal`` alone took 5 runs at 1-15% steal only from 0.29
        to 0.16.
        """
        total = 0.0
        for before, after in zip(self.marks, self.marks[1:]):
            overlap = min(end, after[0]) - max(start, before[0])
            if overlap > 0:
                steal = ratio(after[1] - before[1], after[2] - before[2])
                total += overlap * (1.0 - steal) ** 2
        return total

    def slowness(self) -> float:
        """CPU time the probe's fixed work took in this phase over :data:`REFERENCE_S`.

        A shared host's CPUs also run slower or faster for minutes at a
        time with no steal at all (other tenants' load on shared cores
        and caches, clock changes), and every operation's CPU time moves
        with them. On a 2-CPU VM, 6 fleet-recal runs whose CPU time per
        recalibration ranged 24.6-30.9 ms had the median time of this
        fixed work track it (correlation 0.97), and dividing it out
        narrowed their steal-adjusted throughputs from 43.5-56.1/s to
        49.1-54.1/s. That was measured in a thread of the load
        generator; in-process workloads skewed such a thread by up to
        2x through the GIL, so the work now runs in its own process.
        """
        return median(self.probes) / REFERENCE_S


def wall_metrics(meter: Meter, ops: float,
                 latencies: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Throughput and latency percentiles of one stopped phase, as measured
    and host-adjusted.

    ``ops`` operations completed while ``meter`` ran; ``latencies`` holds
    the ``(start, end)`` times of each latency sample. A host-adjusted
    figure has the steal taken out (:meth:`Meter.running_s`) and is
    scaled to the reference CPU speed (:meth:`Meter.slowness`).
    """
    start, end = meter.marks[0][0], meter.marks[-1][0]
    slowness = meter.slowness()
    measured = [1e3 * (done - begun) for begun, done in latencies]
    adjusted = [1e3 * meter.running_s(begun, done) / slowness for begun, done in latencies]
    return {
        "throughput_per_s": ops / (end - start),
        "latency_p50_ms": percentile(measured, 50),
        "latency_p90_ms": percentile(measured, 90),
        "latency_p99_ms": percentile(measured, 99),
        "host_adj_throughput_per_s": ops * slowness / meter.running_s(start, end),
        "host_adj_latency_p50_ms": percentile(adjusted, 50),
        "host_adj_latency_p90_ms": percentile(adjusted, 90),
        "host_slowness": slowness,
    }


def timed_setups(setup: Callable[[bool], Tuple[Any, float, float]],
                 count: int) -> Tuple[Any, float, float]:
    """Run ``setup(last)`` ``count`` times; keep what the last one returns.

    ``setup`` returns what it set up and the start and end of the part
    that counts as set-up. Returns the last one's result, the median
    host-adjusted set-up time (``setup_s``, adjusted as
    :func:`wall_metrics` adjusts a latency) and the median wall time.
    """
    meter = Meter()
    intervals: List[Tuple[float, float]] = []
    kept = None
    for attempt in range(count):
        kept, started, ended = setup(attempt == count - 1)
        intervals.append((started, ended))
    meter.stop()
    slowness = meter.slowness()
    return (kept, median([meter.running_s(a, b) / slowness for a, b in intervals]),
            median([b - a for a, b in intervals]))


# ----------------------------------------------------------------------
# tracing: spans recorded by the benchmark's own code, kept in memory
# ----------------------------------------------------------------------
@dataclass
class Spans:
    """In-memory span log; written out once, at the end of a run."""

    enabled: bool = False
    records: List[Dict[str, Any]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record one finished span (``attrs`` carry the request it belongs to)."""
        if not self.enabled:
            return
        with self._lock:
            self.records.append({"name": name, "start": start, "end": end, **attrs})

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records) + "\n")


def timed_probe(spans: Spans, name: str, fn: Callable[[], Any], repeat: int) -> List[float]:
    """Call a layer's public function ``repeat`` times, one span each."""
    out: List[float] = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        ended = time.perf_counter()
        spans.add(name, started, ended)
        out.append(ended - started)
    return out


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
_BANNER = re.compile(r"listening on http://[^:\s]+:(\d+)")


class Server:
    """``python -m repro serve --port 0`` in its own process.

    Started with no tuning flags, so it runs the shipped defaults. The
    port is parsed from the startup banner; the constructor returns
    once ``/readyz`` answers 200.
    """

    def __init__(self, log_name: str) -> None:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(WORKDIR / log_name, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(WORKDIR),
            env=env,
            text=True,
        )
        try:
            self.port = self._read_port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _BANNER.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server exited before printing its listening banner")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, _ = self.request("GET", "/readyz")
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("server never reported ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Any:
        status, raw = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(raw)

    def metrics(self) -> "Scrape":
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics returned {status}")
        return Scrape.parse(raw.decode())

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def launch_server(log_prefix: str, launches: Optional[int] = None) -> Tuple[Server, float, float]:
    """Start ``launches`` (default :data:`SERVER_LAUNCHES`) fresh servers
    one after another and keep the last.

    Returns the live server and, as :func:`timed_setups` does, the
    median launch-to-ready time steal-adjusted and as measured.
    """
    servers: List[Server] = []

    def launch(last: bool) -> Tuple[Server, float, float]:
        if servers:
            servers[-1].stop()
        started = time.perf_counter()
        servers.append(Server(f"{log_prefix}-{len(servers)}.log"))
        return servers[-1], started, time.perf_counter()

    return timed_setups(launch, launches or SERVER_LAUNCHES)


def run_clients(client: Callable[..., None], args: Tuple[Any, ...], count: int,
                seconds: float, order: int) -> Tuple[List[Any], float, float]:
    """Run ``count`` client threads for ``seconds``.

    Each thread calls ``client(*args, deadline, out)`` and appends
    ``(records, cpu_seconds)`` to ``out``. Returns every record sorted by
    field ``order`` (its start time), the wall seconds and the clients'
    summed CPU seconds.
    """
    out: List[Tuple[List[Any], float]] = []
    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(*args, started + seconds, out))
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    records = sorted((r for chunk, _ in out for r in chunk), key=lambda r: r[order])
    return records, wall, sum(cpu for _, cpu in out)


# ----------------------------------------------------------------------
# /metrics and /statz readers
# ----------------------------------------------------------------------
_SERIES = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


@dataclass
class Scrape:
    """One Prometheus text scrape: ``(name, labels) -> value``."""

    series: List[Tuple[str, Dict[str, str], float]]

    @classmethod
    def parse(cls, text: str) -> "Scrape":
        series: List[Tuple[str, Dict[str, str], float]] = []
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            match = _SERIES.match(line)
            if match:
                labels = dict(_LABEL.findall(match.group(3) or ""))
                series.append((match.group(1), labels, float(match.group(4))))
        return cls(series)

    def total(self, name: str, **where: Any) -> float:
        """Sum of every series of ``name`` whose labels match ``where``.

        A ``where`` value is either the exact label value or a predicate
        on it.
        """
        return sum(
            value
            for series_name, labels, value in self.series
            if series_name == name and _matches(labels, where)
        )

    def buckets(self, name: str, **where: Any) -> Dict[float, float]:
        """Cumulative bucket counts of histogram ``name``, summed over series."""
        out: Dict[float, float] = {}
        for series_name, labels, value in self.series:
            if series_name != f"{name}_bucket" or not _matches(labels, where):
                continue
            edge = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            out[edge] = out.get(edge, 0.0) + value
        return out


def _matches(labels: Dict[str, str], where: Dict[str, Any]) -> bool:
    for key, wanted in where.items():
        value = labels.get(key)
        if callable(wanted):
            if value is None or not wanted(value):
                return False
        elif value != wanted:
            return False
    return True


def counter_delta(before: Scrape, after: Scrape, name: str, **where: Any) -> float:
    return after.total(name, **where) - before.total(name, **where)


def histogram_delta(before: Scrape, after: Scrape, name: str, **where: Any) -> Any:
    """The :class:`repro.obs.history.HistDelta` of one histogram between scrapes."""
    from repro.obs.history import HistDelta

    first, second = before.buckets(name, **where), after.buckets(name, **where)
    edges = sorted(edge for edge in second if edge != float("inf"))
    cumulative = [second[e] - first.get(e, 0.0) for e in edges]
    cumulative.append(second.get(float("inf"), 0.0) - first.get(float("inf"), 0.0))
    counts = [int(round(cumulative[0]))] + [
        int(round(cumulative[i] - cumulative[i - 1])) for i in range(1, len(cumulative))
    ]
    total_sum = after.total(f"{name}_sum", **where) - before.total(f"{name}_sum", **where)
    return HistDelta(buckets=tuple(edges), counts=tuple(counts), sum=total_sum)


def histogram_quantile(delta: Any, q: float) -> float:
    from repro.obs.history import quantile

    value = quantile(delta, q)
    return 0.0 if value is None else float(value)


def engine_counters(statz: Dict[str, Any]) -> Dict[str, float]:
    """Engine counters of ``/statz`` summed over shards (flat keys)."""
    out: Dict[str, float] = {}
    for shard in statz.get("per_shard", []):
        for key, value in shard.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = out.get(key, 0.0) + value
            elif isinstance(value, dict):
                for sub, inner in value.items():
                    if isinstance(inner, (int, float)) and not isinstance(inner, bool):
                        out[f"{key}.{sub}"] = out.get(f"{key}.{sub}", 0.0) + inner
    return out


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator / denominator) if denominator else 0.0


def engine_ratios(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``serve.*`` dispatch ratios from two engine-counter snapshots."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    batched, scalar = delta("batched_requests"), delta("scalar_requests")
    template = delta("template_cache.hits") + delta("template_cache.misses")
    return {
        "serve.batch_size_mean": ratio(batched + scalar, delta("batches")),
        "serve.scalar_share": ratio(scalar, batched + scalar),
        "serve.result_cache_hit_ratio": ratio(delta("cache_hits"), delta("submitted")),
        "serve.template_hit_ratio": ratio(delta("template_cache.hits"), template),
    }


# ----------------------------------------------------------------------
# generator accounting
# ----------------------------------------------------------------------
def proc_wchar() -> int:
    """Bytes this process has passed to write syscalls (``/proc/self/io``)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def overhead_pct(untraced: float, traced: float) -> float:
    """How much more CPU per operation the traced phase took, in percent."""
    return 100.0 * (traced - untraced) / untraced


@dataclass
class Result:
    """What one workload run reports to ``run.py``.

    ``e2e`` holds the end-to-end metrics by their generic names,
    ``named`` the workload's own metrics as ``(value, unit)``, ``layers``
    the per-layer metrics of a traced run (absent ones print as 0).
    """

    attempted: int
    failed: int
    e2e: Dict[str, float]
    named: Dict[str, Tuple[float, str]]
    info: Dict[str, Any]
    layers: Dict[str, float] = field(default_factory=dict)
    ledger: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        from e2ebench.metrics import per_layer

        self.layers = {name: float(self.layers.get(name, 0.0)) for name, _ in per_layer()}
