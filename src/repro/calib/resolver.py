"""Serve-time calibration resolution with a one-generation cache.

A serving request for the differential multi-antenna estimator can name
its antennas (``EstimationRequest.antennas``) instead of shipping
explicit centers and offset corrections; the resolver fills those fields
from the registry's latest committed calibrations at prepare time. The
lookup is cached per ``(antenna tuple, dim)`` for the store's current
commit **generation**: any commit anywhere in the fleet advances the
generation, and the next lookup clears the cache and re-reads — serving
picks up a freshly committed calibration without watching individual
antennas or invalidating entries by hand.

Correctness note: the resolver *rewrites the request* rather than
patching the estimator call, so the engine's result-cache fingerprint
covers the resolved arrays — two requests naming the same antennas
across a recalibration hash differently and never share a cached result.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.calib.store import CalibrationStore
from repro.lru import BoundedLRU
from repro.obs import get_registry, metrics_enabled
from repro.pipeline.contract import EstimationRequest


class CalibrationResolver:
    """Resolves ``request.antennas`` into centers and offset corrections.

    Args:
        store: the calibration registry.
        max_entries: LRU bound on distinct ``(antennas, dim)`` tuples
            kept per generation.
    """

    def __init__(self, store: CalibrationStore, max_entries: int = 256) -> None:
        self.store = store
        self._cache: BoundedLRU[Tuple[np.ndarray, np.ndarray]] = BoundedLRU(
            "calib", max(1, int(max_entries))
        )
        # Guards the generation the cache holds: a lookup that read an
        # older generation must neither clear the newer entries nor store
        # its own after another lookup cleared the cache for a newer one.
        self._lock = threading.Lock()
        self._generation = store.generation

    # -- lookup -----------------------------------------------------------

    def lookup(
        self, antennas: Tuple[str, ...], dim: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Centers ``(n, dim)`` and relative offsets ``(n,)``, cached."""
        generation = self.store.generation
        with self._lock:
            if generation > self._generation:
                self._cache.clear(reset_counters=False)
                self._generation = generation
        key = (antennas, dim)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        centers = self.store.centers_for(antennas, dim=dim)
        offsets = self.store.offsets_for(antennas)
        centers.setflags(write=False)
        offsets.setflags(write=False)
        entry = (centers, offsets)
        with self._lock:
            if generation == self._generation:
                self._cache.put(key, entry)
        if metrics_enabled():
            get_registry().gauge("serve.calib.generation").set(float(generation))
        return entry

    # -- request rewriting ------------------------------------------------

    def resolve(self, request: EstimationRequest) -> EstimationRequest:
        """Fill ``positions`` / ``offset_corrections_rad`` from the store.

        No-op when the request names no antennas or already carries both
        fields explicitly (explicit values always win). Raises
        :class:`repro.calib.errors.UnknownAntennaError` for antennas the
        store has never seen.
        """
        antennas = request.antennas
        if not antennas:
            return request
        needs_positions = request.positions is None
        needs_offsets = request.offset_corrections_rad is None
        if not needs_positions and not needs_offsets:
            return request
        started = time.perf_counter()
        dim = len(request.bounds) if request.bounds is not None else 3
        centers, offsets = self.lookup(tuple(antennas), dim)
        fields: Dict[str, Any] = {}
        if needs_positions:
            fields["positions"] = centers
        if needs_offsets:
            fields["offset_corrections_rad"] = offsets
        resolved = replace(request, **fields)
        if metrics_enabled():
            get_registry().histogram("serve.calib.resolve_seconds").observe(
                time.perf_counter() - started
            )
        return resolved

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Cache counters for ``stats()`` / ``/statz`` payloads."""
        info = self._cache.info()
        return {
            "generation": self.store.generation,
            "entries": info["size"],
            "hits": info["hits"],
            "misses": info["misses"],
            "hit_rate": info["hit_rate"],
        }

    def invalidate(self) -> None:
        """Drop every cached entry (tests, manual store surgery)."""
        self._cache.clear(reset_counters=False)


def resolver_stats(resolver: Optional[CalibrationResolver]) -> Dict[str, Any]:
    """``stats()`` of a maybe-absent resolver, JSON-safe."""
    if resolver is None:
        return {"enabled": False}
    return {"enabled": True, **resolver.stats()}
