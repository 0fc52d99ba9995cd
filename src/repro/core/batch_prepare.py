"""Batched request-path preprocessing: ``prepare()`` across a serve batch.

:meth:`LionLocalizer.prepare` is the front half of every LION request —
validation, phase preprocessing (unwrap + smoothing), mask application,
reference selection, degeneracy handling, and the Eq. (6) distance
differences. The serving engine used to run it one request at a time in
Python, which bounded the whole stack once the solve was fused
(ROADMAP item 4). This module runs the same pipeline *batch-first*:

* **Stacked preprocessing** — requests whose scans share a read count
  and segment structure stack into one ``(members, reads)`` matrix;
  ``np.unwrap`` and the segment-wise moving average run once along the
  row axis. Both are sequential-per-row operations, so every row is
  bit-identical to the scalar :meth:`LionLocalizer.preprocess_phase`
  (``tests/test_batch_prepare.py`` pins this bitwise). Ragged batches
  (mixed read counts or segment layouts) simply form more groups —
  each group is padded only by its own membership, never with fake
  reads, so no padding value can leak into a real profile.

* **Shared geometry plans** — everything in a prepared scan except the
  phase-dependent pieces (``used_profile``, ``delta_d``) is the scan's
  :class:`repro.core.plan.GeometryPlan`, which depends only on
  ``(positions, segments, mask, reference override, dim)``. Repeat
  geometries — warehouse portals and the streaming re-solve traffic of
  :mod:`repro.stream`, where many tags re-read one deployment
  trajectory — hit the content-keyed plan cache and skip masking,
  reference selection, degeneracy detection, and frame rotation.

* **Opt-in float32** — ``dtype=np.float32`` runs the phase pipeline in
  single precision for callers that trade exactness for throughput
  (``ServeConfig(dtype="float32")``). The float64 default is
  bit-identical to per-request ``prepare()``; the float32 path is
  bounded by property tests (phases carry radians of order 10^2 and the
  delta scale is ~1e-2, so single precision keeps distance differences
  within ~1e-5 m of the float64 pipeline).

Failures stay per-member: a request that the scalar ``prepare()`` would
reject gets its ``ValueError`` (or subclass) in its result slot; its
batchmates are prepared exactly as if the bad member never existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.localizer import LionLocalizer, PreparedScan
from repro.core.plan import PLAN_CACHE, GeometryPlan, cached_plan, memoized_digest
from repro.obs import get_registry, metrics_enabled
from repro.pipeline.contract import EstimationRequest

__all__ = [
    "PreparedMember",
    "batch_prepare",
    "clear_template_cache",
    "prepare_batch",
    "template_cache_info",
]


@dataclass
class PreparedMember:
    """One request's slot in a batched prepare.

    Exactly one of ``prepared`` / ``error`` is set; ``plan`` is the
    geometry plan that produced ``prepared`` (its recipes serve the
    fused solve).
    """

    prepared: Optional[PreparedScan] = None
    error: Optional[ValueError] = None
    plan: Optional[GeometryPlan] = None


# Old name of the plan cache's info; BENCH_prepare and the tests read it.
template_cache_info = PLAN_CACHE.info
# Old name of the plan cache's clear; benchmarks and the e2e harness import it.
clear_template_cache = PLAN_CACHE.clear


# ---------------------------------------------------------------------------
# batched preprocessing
# ---------------------------------------------------------------------------


def _segment_runs(segment_ids: Optional[np.ndarray], n: int) -> List[np.ndarray]:
    """The per-segment index runs the scalar ``smooth_profile`` iterates."""
    if segment_ids is None:
        return [np.arange(n)]
    ids = np.asarray(segment_ids, dtype=int)
    boundaries = np.flatnonzero(np.diff(ids) != 0) + 1
    return np.split(np.arange(n), boundaries)


def _batched_moving_average(chunk: np.ndarray, window: int) -> np.ndarray:
    """Row-wise centered moving average, bit-identical per row.

    The same cumulative-sum difference as
    :func:`repro.signalproc.smoothing.moving_average`, run along the last
    axis of a ``(members, samples)`` stack. ``np.cumsum`` accumulates
    each row sequentially exactly as the 1-D call does, and the window
    arithmetic is elementwise, so row ``i`` of the output equals the
    scalar filter applied to row ``i``.
    """
    members, n = chunk.shape
    if window == 1 or n <= 1:
        return chunk
    cumsum = np.concatenate(
        [np.zeros((members, 1), dtype=chunk.dtype), np.cumsum(chunk, axis=1)], axis=1
    )
    half = min(window // 2, n - 1)
    index = np.arange(n)
    reach = np.minimum(half, np.minimum(index, n - 1 - index))
    return (cumsum[:, index + reach + 1] - cumsum[:, index - reach]) / (2 * reach + 1)


def _batched_preprocess(
    localizer: LionLocalizer,
    stacked_phases: np.ndarray,
    segment_ids: Optional[np.ndarray],
) -> np.ndarray:
    """Unwrap + smooth a ``(members, reads)`` stack of wrapped profiles.

    Equivalent to :meth:`LionLocalizer.preprocess_phase` per row. Hampel
    filtering is a data-dependent scalar loop, so configs with
    ``hampel_window > 1`` fall back to the scalar path per member (the
    caller routes those before stacking).
    """
    profile = np.unwrap(
        stacked_phases, discont=localizer.preprocess.jump_threshold_rad, axis=1
    )
    window = localizer.preprocess.smoothing_window
    if window <= 1:
        return profile
    for run in _segment_runs(segment_ids, profile.shape[1]):
        if run.size == 0:
            continue
        profile[:, run] = _batched_moving_average(profile[:, run], window)
    return profile


# ---------------------------------------------------------------------------
# the batched prepare
# ---------------------------------------------------------------------------


def prepare_batch(
    localizer: LionLocalizer,
    requests: Sequence[EstimationRequest],
    dtype: "np.dtype | type" = np.float64,
) -> List[PreparedMember]:
    """Run ``prepare()`` for a group of requests as stacked batch work.

    The rich-result twin of :func:`batch_prepare`: every slot carries the
    prepared scan (or the per-member ``ValueError``) and the geometry
    plan that produced it.

    Args:
        localizer: the group's configured localizer (one per batch — the
            serve engine groups requests by config hash).
        requests: the member requests, in batch order.
        dtype: ``np.float64`` (default, bit-identical to the scalar
            path) or ``np.float32`` (opt-in throughput mode; phase
            preprocessing and distance differences run in single
            precision).

    Returns:
        One :class:`PreparedMember` per request, in request order.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"dtype must be float64 or float32, got {dtype}")
    members: List[PreparedMember] = [PreparedMember() for _ in requests]
    # Serving batches often carry the same array objects across members
    # (streaming re-solves, replayed scans, load generators); the
    # requests keep them alive for the call.
    digest = memoized_digest()

    # Stage 1 — resolve each member's geometry plan (cached), validate its
    # phases against it, and group the survivors by (reads, segment
    # layout) for stacked preprocessing.
    groups: Dict[tuple, List[int]] = {}
    for index, request in enumerate(requests):
        member = members[index]
        try:
            if request.positions is None or request.phases_rad is None:
                missing = [
                    name
                    for name in ("positions", "phases_rad")
                    if getattr(request, name) is None
                ]
                raise ValueError(f"request is missing required fields: {missing}")
            plan = cached_plan(
                localizer,
                request.positions,
                request.segment_ids,
                request.exclude_mask,
                request.reference_index,
                digest,
            )
            plan.check_phases(request.phases_rad)
        except ValueError as error:
            member.error = error
            continue
        member.plan = plan
        groups.setdefault((plan.n_reads, digest(request.segment_ids)), []).append(index)

    # Stage 2 — stacked preprocessing per group, then Eq. (6) per plan.
    hampel = localizer.preprocess.hampel_window > 1
    for (n_reads, _seg_key), group in groups.items():
        stacked = np.empty((len(group), n_reads), dtype=dtype)
        for slot, index in enumerate(group):
            stacked[slot] = requests[index].phases_rad
        segment_ids = requests[group[0]].segment_ids
        if hampel:
            profiles = np.empty_like(stacked)
            for slot in range(len(group)):
                profiles[slot] = localizer.preprocess_phase(
                    stacked[slot],
                    segment_ids=np.asarray(segment_ids, dtype=int)
                    if segment_ids is not None
                    else None,
                ).astype(dtype, copy=False)
        else:
            profiles = _batched_preprocess(localizer, stacked, segment_ids)

        # Members sharing a plan complete as one stack; a mixed group
        # (same layout, different masks) completes one stack per plan.
        by_plan: Dict[int, List[int]] = {}
        for slot, index in enumerate(group):
            by_plan.setdefault(id(members[index].plan), []).append(slot)
        for slots in by_plan.values():
            plan = members[group[slots[0]]].plan
            assert plan is not None
            prepared = plan.complete_rows(profiles[slots], localizer.wavelength_m)
            for slot, scan in zip(slots, prepared):
                members[group[slot]].prepared = scan
    if metrics_enabled():
        get_registry().histogram(
            "serve.prepare_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).observe(float(len(requests)))
    return members


def batch_prepare(
    localizer: LionLocalizer,
    requests: Sequence[EstimationRequest],
    dtype: "np.dtype | type" = np.float64,
) -> List[PreparedScan | ValueError]:
    """Batched :meth:`LionLocalizer.prepare` over a group of requests.

    Returns one slot per request, in order: the
    :class:`~repro.core.localizer.PreparedScan` — bit-identical in
    float64 to ``localizer.prepare(...)`` on the same request — or the
    ``ValueError`` subclass that member raises on the scalar path.
    See :func:`prepare_batch` for the rich per-member records the serve
    layer consumes.
    """
    results: List[PreparedScan | ValueError] = []
    for member in prepare_batch(localizer, requests, dtype=dtype):
        if member.error is not None:
            results.append(member.error)
        else:
            assert member.prepared is not None
            results.append(member.prepared)
    return results
