"""What each metric the benchmark prints means, beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the checkout root is the one list of metric names,
units and directions; :func:`end_to_end` and :func:`per_layer` read it.

Every workload computes the same generic end-to-end metrics, because
each must report every gated one. What an operation and its latency are
on each workload is given in :data:`WORKLOAD_METRICS`:

- ``throughput_per_s``: operations completed per wall second.
- ``latency_p50_ms`` / ``latency_p90_ms`` / ``latency_p99_ms``:
  percentiles of the workload's own latency.
- ``host_adj_*``: the same figures with the host taken out: the time
  the hypervisor took away from the CPUs (``steal`` in ``/proc/stat``)
  is removed window by window, and the rest is scaled to a reference CPU
  speed measured by timing fixed work (see
  :meth:`e2ebench.common.Meter.running_s` and
  :meth:`~e2ebench.common.Meter.slowness`). On a shared host both move
  by 20% or more within an hour and are charged to no process.
- ``cpu_ms_per_op``: CPU time of every process of the run (load
  generator, server front end, shard workers, pool workers) per
  completed operation.
- ``setup_s``: the workload's set-up time, the host-adjusted median of
  several (``setup_wall_s`` is the median as measured).
- ``host_slowness``: the CPU-speed factor divided out, 1 at the
  reference speed.

The untraced run's last line carries the ones ``BENCHMARK.json`` gates;
the line before it carries all of them, then the workload's metrics by
the names users know (``locate_per_s``, ``locate_p50_ms``,
``fix_p50_ms``, ``calib_read_p50_us`` and the rest, sample counts), the
accuracy against simulator truth (``position_err_mm`` /
``calib_err_mm``, which a correctness check bounds) and the host's
steal share.

The traced run prints every per-layer metric. A layer the workload
does not drive reports 0: no work was done there. :data:`LAYER_MOVES`
records, before any change is measured, which end-to-end metric on
which workload each per-layer metric should move.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _metrics(kind: str) -> List[Tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in json.loads(SPEC.read_text())[kind]]


def end_to_end() -> List[Tuple[str, str]]:
    """``(name, unit)`` of the end-to-end metrics, in ``BENCHMARK.json`` order."""
    return _metrics("end_to_end")


def per_layer() -> List[Tuple[str, str]]:
    """``(name, unit)`` of the per-layer metrics, in ``BENCHMARK.json`` order."""
    return _metrics("per_layer")


#: What an operation is on each workload, and the workload's own names
#: for the generic end-to-end metrics.
WORKLOAD_METRICS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "wire-paper": {
        "cpu_ms_per_op": ("cpu_ms_per_locate", "ms"),
        "throughput_per_s": ("locate_per_s", "1/s"),
        "latency_p50_ms": ("locate_p50_ms", "ms"),
        "latency_p90_ms": ("locate_p90_ms", "ms"),
    },
    "portal-burst": {
        "cpu_ms_per_op": ("cpu_ms_per_tag", "ms"),
        "throughput_per_s": ("tags_per_s", "1/s"),
        "latency_p50_ms": ("pallet_p50_ms", "ms"),
        "latency_p90_ms": ("pallet_p90_ms", "ms"),
    },
    "stream-conveyor": {
        "cpu_ms_per_op": ("cpu_ms_per_read", "ms"),
        "throughput_per_s": ("reads_per_s", "1/s"),
        "latency_p50_ms": ("feed_p50_ms", "ms"),
        "latency_p90_ms": ("feed_p90_ms", "ms"),
    },
    "fleet-recal": {
        "cpu_ms_per_op": ("cpu_ms_per_recal", "ms"),
        "throughput_per_s": ("recal_per_s", "1/s"),
        "latency_p50_ms": ("recal_visible_p50_ms", "ms"),
        "latency_p90_ms": ("recal_visible_p90_ms", "ms"),
    },
}

_TPUT, _P50 = "host_adj_throughput_per_s", "host_adj_latency_p50_ms"
_NET = f"{_P50} (locate_p50_ms) and {_TPUT} (locate_per_s) on wire-paper"
_FEED = f"{_P50} (feed_p50_ms) on stream-conveyor"
_SERVE = f"{_P50} (pallet_p50_ms) and {_TPUT} (tags_per_s) on portal-burst; none on wire-paper"
_BATCH = f"{_P50} (pallet_p50_ms) and {_TPUT} (tags_per_s) on portal-burst"
_CORE = (f"{_TPUT} (tags_per_s) on portal-burst; on wire-paper only up to its share of "
         "the request (about a quarter of locate_p50_ms)")
_STREAM = f"{_TPUT} (reads_per_s) on stream-conveyor, and fix_p50_ms"
_RECAL = f"{_TPUT} (recal_per_s) and {_P50} (recal_visible_p50_ms) on fleet-recal"
_READ = f"{_P50} (recal_visible_p50_ms) and calib_read_p50_us on fleet-recal"

#: Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_MOVES: Dict[str, str] = {
    "net.server_p50_ms": _NET,
    "net.client_gap_p50_ms": _NET,
    "net.parse_us": _NET,
    "net.encode_us": _NET,
    "net.overhead_p50_ms": _NET,
    "net.feed_parse_us": _FEED,
    "net.feed_overhead_p50_ms": _FEED,
    "net.body_kb": _NET,
    "net.shed_total": "none expected: 0 on every workload at this load",
    "serve.batch_size_mean": _SERVE,
    "serve.batch_wait_p50_ms": _SERVE,
    "serve.scalar_share": _SERVE,
    "serve.result_cache_hit_ratio": "none: 0 on every workload by construction",
    "serve.template_hit_ratio": _SERVE,
    "serve.engine_overhead_ms": _SERVE,
    "core.estimate_us": _CORE,
    "core.prepare_us": _CORE,
    "core.solve_us": _CORE,
    "core.prepare_batch_us": _BATCH,
    "core.execute_batch_us": _BATCH,
    "solver.irls_iterations_mean": _CORE,
    "stream.feed_us": _STREAM,
    "stream.close_us": _STREAM,
    "stream.resolve_p50_ms": _STREAM,
    "stream.windowed_resolves_per_tag": _STREAM,
    "stream.fast_updates_per_tag": _STREAM,
    "calib.solve_ms": _RECAL,
    "calib.commit_p50_ms": _RECAL,
    "calib.commit_p90_ms": _RECAL,
    "calib.bytes_per_commit": _RECAL,
    "calib.read_us": _READ,
    "calib.open_s": "setup_s on fleet-recal",
    "parallel.fanout_overhead_ms": _RECAL,
    "obs.trace_overhead_pct": "none: extra CPU per operation of the traced phase",
    "gen.cpu_share": "none: shows whether the load generator is the bottleneck",
}

WORKLOADS: Tuple[str, ...] = tuple(WORKLOAD_METRICS)
