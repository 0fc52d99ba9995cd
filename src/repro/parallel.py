"""Parallel execution layer for the evaluation stack.

Every heavy workload in this repository — Monte-Carlo studies, the
adaptive (range, interval) sweep, figure regeneration — reduces to the
same pattern: map an independent, deterministic function over a list of
work items and fold the results in order. This module factors that
pattern into a small executor abstraction with three interchangeable
backends:

- ``"serial"`` — a plain loop; the reference semantics.
- ``"thread"`` — a thread pool; useful when the work releases the GIL
  (BLAS-heavy solves) or is I/O bound.
- ``"process"`` — a process pool; true CPU parallelism. Work functions
  and their arguments must be picklable (module-level callables).

All backends preserve item order, so a deterministic work function gives
bit-identical results on every backend — parallelism never changes an
answer, only how fast it arrives. Worker count resolves, in priority
order: an explicit ``jobs=`` argument, :func:`set_default_jobs` (the CLI
``--jobs`` flag), the ``LION_JOBS`` environment variable, and finally
``os.cpu_count()``.

Registry-dispatched estimation composes with these backends through
:func:`repro.pipeline.estimate_many`, which fans a batch of requests for
one named estimator over any executor here.

When observability is on (see :mod:`repro.obs`), every ``map`` records
per-chunk latency histograms, item/chunk counters, and a worker-
utilization gauge (labelled by backend), and the process backend runs
each chunk against an isolated child registry whose snapshot — plus any
spans the work recorded — is merged back into the parent, so child-
process metrics are never lost. With observability off, dispatch takes
the exact pre-instrumentation path after a single flag check.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, TypeVar

import numpy as np

from repro.obs import (
    LATENCY_BUCKETS_S,
    attach_spans,
    get_registry,
    metrics_enabled,
    obs_enabled,
    tracing_enabled,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Environment variable consulted by :func:`resolve_jobs`.
JOBS_ENV_VAR = "LION_JOBS"

EXECUTOR_NAMES = ("serial", "thread", "process")

_default_jobs: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the session-wide default worker count (the CLI ``--jobs`` flag).

    Pass ``None`` to clear the override and fall back to ``LION_JOBS`` /
    ``os.cpu_count()``.

    Raises:
        ValueError: on a non-positive worker count.
    """
    global _default_jobs
    if jobs is not None and jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    _default_jobs = jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count from argument, session default, env, and CPUs.

    Raises:
        ValueError: on a non-positive explicit count or ``LION_JOBS``.
    """
    if jobs is not None:
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        return jobs
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(JOBS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as error:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from error
        if value <= 0:
            raise ValueError(f"{JOBS_ENV_VAR} must be positive, got {value}")
        return value
    return max(os.cpu_count() or 1, 1)


def chunk_items(items: Sequence[ItemT], chunk_size: int) -> List[List[ItemT]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``.

    Order is preserved: concatenating the chunks restores ``items``.

    Raises:
        ValueError: on a non-positive chunk size.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    sequence = list(items)
    return [sequence[i : i + chunk_size] for i in range(0, len(sequence), chunk_size)]


def default_chunk_size(item_count: int, jobs: int, chunks_per_worker: int = 4) -> int:
    """Chunk size giving each worker a few chunks (load balancing vs overhead)."""
    if item_count <= 0:
        return 1
    return max(1, -(-item_count // max(jobs * chunks_per_worker, 1)))


def _apply_chunk(fn: Callable[[ItemT], ResultT], chunk: List[ItemT]) -> List[ResultT]:
    """Run ``fn`` over one chunk; module-level so process backends can pickle it."""
    return [fn(item) for item in chunk]


def _call_catching(fn: Callable[[ItemT], ResultT], item: ItemT) -> Tuple[bool, Any]:
    """Run ``fn`` on one item, capturing the exception instead of raising.

    Module-level (and wrapped via :func:`functools.partial`) so the process
    backend can pickle it when ``fn`` itself is picklable.
    """
    try:
        return True, fn(item)
    except Exception as error:  # noqa: BLE001 - isolation is the point
        return False, error


#: What an observed chunk returns: (results, metrics snapshot or None,
#: serialized spans or None, busy seconds, worker pid).
ObservedChunk = Tuple[List[Any], Dict[str, Any] | None, List[Dict[str, Any]] | None, float, int]


def _apply_chunk_observed(
    fn: Callable[[ItemT], ResultT],
    chunk: List[ItemT],
    isolate: bool,
    metrics_on: bool,
    tracing_on: bool,
) -> ObservedChunk:
    """Observed variant of :func:`_apply_chunk`, timing the chunk.

    With ``isolate=True`` (process backend) the chunk runs against a fresh
    metrics registry and an emptied span buffer, and returns both as
    picklable payloads for the parent to merge — child-process metrics and
    spans are never lost, regardless of the pool's start method (the
    enable flags are re-asserted explicitly for spawn-style workers).
    Thread workers (``isolate=False``) record straight into the shared
    registry, which is thread-safe, so only timing comes back.
    """
    start = time.perf_counter()
    if not isolate:
        results = [fn(item) for item in chunk]
        return results, None, None, time.perf_counter() - start, threading.get_ident()
    if metrics_on:
        _obs_metrics.enable_metrics()
    if tracing_on:
        _obs_trace.enable_tracing()
    with _obs_metrics.scoped_registry() as registry:
        # Drop spans inherited from a forked parent — including any still-
        # open span on the inherited thread-local stack, which would
        # otherwise silently swallow the chunk's spans as its children.
        _obs_trace.reset_tracing()
        results = [fn(item) for item in chunk]
        payload = registry.snapshot() if metrics_on else None
        spans = _obs_trace.drain_spans() if tracing_on else None
    return results, payload, spans, time.perf_counter() - start, os.getpid()


class Executor(ABC):
    """Order-preserving map/map-reduce over independent work items."""

    name: str = "abstract"

    @abstractmethod
    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        """Apply ``fn`` to every item, returning results in item order.

        The first exception raised by ``fn`` propagates (for parallel
        backends, after in-flight work completes).
        """

    def map_catching(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[Tuple[bool, Any]]:
        """Apply ``fn`` to every item, capturing per-item exceptions.

        Returns ``(ok, payload)`` pairs in item order: ``(True, result)``
        for items that succeeded and ``(False, exception)`` for items whose
        call raised. Unlike :meth:`map`, one failing item never aborts the
        rest — the isolation the serving layer (:mod:`repro.serve`) needs
        so a degenerate request degrades alone instead of poisoning its
        dispatch group.
        """
        return self.map(functools.partial(_call_catching, fn), items)

    def map_reduce(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        reduce_fn: Callable[[Any, ResultT], Any] | None = None,
        initial: Any = None,
    ) -> Any:
        """Map ``fn`` over ``items`` and fold the results in item order.

        With no ``reduce_fn`` this returns the mapped list. The fold is
        always performed serially, in item order, so reductions that are
        not associative-commutative still give backend-independent
        results.
        """
        results = self.map(fn, items)
        if reduce_fn is None:
            return results
        accumulator = initial
        for result in results:
            accumulator = reduce_fn(accumulator, result)
        return accumulator


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        if not metrics_enabled():
            return [fn(item) for item in items]
        start = time.perf_counter()
        results = [fn(item) for item in items]
        elapsed = time.perf_counter() - start
        _record_map_metrics(self.name, len(results), [elapsed], 1, 1, elapsed)
        return results


def _record_map_metrics(
    backend: str,
    items: int,
    chunk_seconds: List[float],
    jobs: int,
    workers_used: int,
    wall_s: float,
) -> None:
    """Fold one ``map``'s latency/utilization numbers into the registry."""
    registry = get_registry()
    registry.counter("parallel.items_total", backend=backend).inc(items)
    registry.counter("parallel.chunks_total", backend=backend).inc(len(chunk_seconds))
    latency = registry.histogram(
        "parallel.chunk_seconds", buckets=LATENCY_BUCKETS_S, backend=backend
    )
    for seconds in chunk_seconds:
        latency.observe(seconds)
    # Utilization: fraction of the pool's wall-clock capacity spent inside
    # chunks; 1.0 means every worker was busy the whole map.
    busy = sum(chunk_seconds)
    registry.gauge("parallel.worker_utilization", backend=backend).set(
        min(busy / (wall_s * jobs), 1.0) if wall_s > 0 else 0.0
    )
    registry.gauge("parallel.workers_used", backend=backend).set(workers_used)


class _PoolExecutor(Executor):
    """Shared chunking logic for the thread and process backends."""

    #: Whether workers need isolated metric/span collection for merge-back
    #: (True for process pools; thread pools share the parent's registry).
    _isolate_obs = False

    def __init__(self, jobs: int | None = None, chunk_size: int | None = None) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = chunk_size

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        sequence = list(items)
        if not sequence:
            return []
        observing = obs_enabled()
        if self.jobs == 1 or len(sequence) == 1:
            if not metrics_enabled():
                return [fn(item) for item in sequence]
            start = time.perf_counter()
            results = [fn(item) for item in sequence]
            elapsed = time.perf_counter() - start
            _record_map_metrics(self.name, len(results), [elapsed], 1, 1, elapsed)
            return results
        size = self.chunk_size or default_chunk_size(len(sequence), self.jobs)
        chunks = chunk_items(sequence, size)
        if not observing:
            worker = functools.partial(_apply_chunk, fn)
            flattened: List[ResultT] = []
            for chunk_result in self._map_chunks(worker, chunks):
                flattened.extend(chunk_result)
            return flattened
        return self._map_observed(fn, chunks, len(sequence))

    def _map_observed(
        self,
        fn: Callable[[ItemT], ResultT],
        chunks: List[List[ItemT]],
        item_count: int,
    ) -> List[ResultT]:
        """Observed dispatch: time chunks, merge worker metrics/spans back."""
        worker = functools.partial(
            _apply_chunk_observed,
            fn,
            isolate=self._isolate_obs,
            metrics_on=metrics_enabled(),
            tracing_on=tracing_enabled(),
        )
        start = time.perf_counter()
        observed = self._map_chunks(worker, chunks)
        wall = time.perf_counter() - start
        flattened: List[ResultT] = []
        chunk_seconds: List[float] = []
        worker_pids: set[int] = set()
        merged_spans: List[Dict[str, Any]] = []
        registry = get_registry()
        for results, payload, spans, busy_s, pid in observed:
            flattened.extend(results)
            chunk_seconds.append(busy_s)
            worker_pids.add(pid)
            if payload is not None:
                registry.merge(payload)
            if spans:
                merged_spans.extend(spans)
        if metrics_enabled():
            _record_map_metrics(
                self.name, item_count, chunk_seconds, self.jobs, len(worker_pids), wall
            )
        if merged_spans and tracing_enabled():
            attach_spans(merged_spans)
        return flattened

    def _map_chunks(
        self, worker: Callable[[List[ItemT]], Any], chunks: List[List[ItemT]]
    ) -> List[Any]:
        raise NotImplementedError


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend; best when the work releases the GIL."""

    name = "thread"

    def _map_chunks(
        self, worker: Callable[[List[ItemT]], Any], chunks: List[List[ItemT]]
    ) -> List[Any]:
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(worker, chunks))


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend; work function and items must be picklable."""

    name = "process"
    _isolate_obs = True

    def _map_chunks(
        self, worker: Callable[[List[ItemT]], Any], chunks: List[List[ItemT]]
    ) -> List[Any]:
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(worker, chunks))


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to one array living in POSIX shared memory.

    Attributes:
        name: the ``multiprocessing.shared_memory`` segment name.
        shape / dtype: how workers reconstruct the ndarray view.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedArrayBundle:
    """Parent-side owner of a set of arrays placed in shared memory once.

    Process-backend work items that all reference the same large arrays
    (scan ``positions``, the preprocessed ``profile``) would otherwise
    re-pickle those arrays into every dispatched chunk. The bundle copies
    each array into its own ``multiprocessing.shared_memory`` segment up
    front; chunks then carry only the tiny :class:`SharedArraySpec`
    handles, and workers map the bytes via :func:`attach_shared_arrays`
    — zero-copy and byte-exact, so results are bit-identical to the
    pickling path. ``None`` values pass through as ``None`` (optional
    arrays keep their meaning).

    Use as a context manager; segments are closed and unlinked on exit,
    after the map completes.
    """

    def __init__(self, **arrays: np.ndarray | None) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.specs: Dict[str, SharedArraySpec | None] = {}
        try:
            for key, value in arrays.items():
                if value is None:
                    self.specs[key] = None
                    continue
                data = np.ascontiguousarray(value)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(data.nbytes, 1)
                )
                self._segments.append(segment)
                view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
                view[...] = data
                self.specs[key] = SharedArraySpec(
                    name=segment.name, shape=tuple(data.shape), dtype=data.dtype.str
                )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False


#: Worker-side attachment cache: one mapping per segment per process.
_ATTACHED_SEGMENTS: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def attach_shared_arrays(
    specs: Mapping[str, SharedArraySpec | None],
) -> Dict[str, np.ndarray | None]:
    """Worker-side inverse of :class:`SharedArrayBundle`: specs -> arrays.

    Attachments are cached per process (a worker serves many chunks of
    one map). Python 3.11 registers every attachment with the resource
    tracker (python/cpython#82300); when this process runs its *own*
    tracker, that registration would unlink the parent-owned segment a
    second time at exit, so it is undone. Workers spawned through
    ``multiprocessing`` share the parent's tracker — there the parent's
    single registration must survive the attach, so nothing is undone.
    Returned views are read-only — workers share one mapping.
    """
    try:  # pragma: no cover - tracker plumbing is start-method dependent
        from multiprocessing import resource_tracker

        tracker_inherited = resource_tracker._resource_tracker._fd is not None
    except Exception:
        tracker_inherited = True
    arrays: Dict[str, np.ndarray | None] = {}
    for key, spec in specs.items():
        if spec is None:
            arrays[key] = None
            continue
        cached = _ATTACHED_SEGMENTS.get(spec.name)
        if cached is None:
            segment = shared_memory.SharedMemory(name=spec.name)
            if not tracker_inherited:
                try:  # pragma: no cover - own-tracker processes only
                    resource_tracker.unregister(segment._name, "shared_memory")
                except Exception:
                    pass
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
            view.flags.writeable = False
            cached = (segment, view)
            _ATTACHED_SEGMENTS[spec.name] = cached
        arrays[key] = cached[1]
    return arrays


def get_executor(
    spec: str | Executor | None,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> Executor:
    """Build (or pass through) an executor from a backend name.

    Args:
        spec: ``"serial"``, ``"thread"``, ``"process"``, an existing
            :class:`Executor` (returned as-is), or ``None`` for serial.
        jobs: worker count for pool backends; see :func:`resolve_jobs`.
        chunk_size: items per dispatched chunk for pool backends; the
            default targets a few chunks per worker.

    Raises:
        ValueError: on an unknown backend name.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec == "thread":
        return ThreadExecutor(jobs=jobs, chunk_size=chunk_size)
    if spec == "process":
        return ProcessExecutor(jobs=jobs, chunk_size=chunk_size)
    raise ValueError(
        f"unknown executor {spec!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
