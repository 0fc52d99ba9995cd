"""Geometry plans: the phase-independent half of a LION solve, built once.

The radical system of Eq. (6)-(9) splits into two halves. The geometry
half is the masked positions, the Eq. (6) reference, the degeneracy
frame (missing axis, 2D line-frame rotation), the pairs, and the
``2 (p_i - p_j)`` / ``|p_i|^2 - |p_j|^2`` radical-row terms. The phase
half is ``delta_d``. Only the phase half changes when a portal re-reads
one trajectory, a Monte-Carlo trial re-noises one scan, or a stream
re-solves an unchanged window.

:func:`build_plan` builds the geometry half; :meth:`GeometryPlan.complete`
adds one profile's phase half and returns the :class:`PreparedScan`;
:meth:`GeometryPlan.recipe` memoizes the per-interval
:class:`AssemblyRecipe` on the plan. One-shot ``LionLocalizer.prepare``
builds an uncached plan; the batched, fused-sweep and incremental paths
share plans through :data:`PLAN_CACHE` via :func:`cached_plan`, keyed on
content digests, so every path produces bit-identical prepared scans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import TWO_PI
from repro.core.lowerdim import detect_missing_axis
from repro.core.pairing import auto_pairs
from repro.core.system import LinearSystem
from repro.geometry.transforms import to_line_frame_2d
from repro.lru import BoundedLRU

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.localizer import LionLocalizer

Pair = Tuple[int, int]


class TooFewReadsError(ValueError):
    """A scan (or its exclusion mask) leaves fewer than three usable reads.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the adaptive sweep maps it to the stable
    ``"too_few_reads"`` rejection label.
    """


class DegenerateGeometryError(ValueError):
    """The scan geometry cannot observe a position of the requested dim.

    Raised for the Sec. III-C unsolvable cases (e.g. a single straight
    line for a 3D target). Subclasses :class:`ValueError`; the adaptive
    sweep maps it to the stable ``"degenerate_geometry"`` label.
    """


@dataclass(frozen=True)
class PreparedScan:
    """A scan reduced to its solve-ready, pairing-independent pieces.

    Produced by :meth:`GeometryPlan.complete`. Everything here depends
    only on the (masked) geometry and the preprocessed profile, not on
    the pairing interval. Prepared scans completed from one cached plan
    share its geometry arrays; nothing downstream mutates them.

    Attributes:
        solve_points: included positions in the solve frame (rotated for
            collinear 2D scans), shape ``(k, dim)``.
        used_profile: preprocessed phases of the included reads.
        used_segments: segment ids of the included reads, or ``None``.
        reference_index: Eq. (6) reference, index into included reads.
        missing_axis: axis to recover via ``d_r``, or ``None``.
        rotation / frame_origin: the 2D line-frame transform, or ``None``.
        delta_d: Eq. (6) distance differences of the included reads.
    """

    solve_points: np.ndarray
    used_profile: np.ndarray
    used_segments: np.ndarray | None
    reference_index: int
    missing_axis: int | None
    rotation: np.ndarray | None
    frame_origin: np.ndarray | None
    delta_d: np.ndarray


class AssemblyRecipe:
    """The phase-independent half of one radical system (Eq. 7).

    Holds the pair selection and the geometry terms of
    :func:`repro.core.radical.radical_rows`: the spatial coefficients
    ``2 (p_i - p_j)``, the position part ``|p_i|^2 - |p_j|^2`` of the
    right-hand side, and the pair index columns. :meth:`assemble` then
    completes the system from one ``delta_d`` with exactly the operations
    (and operation order) ``build_system`` would run, so the assembled
    system is bit-identical to an uncached build.
    """

    __slots__ = ("pairs", "index_i", "index_j", "spatial", "squared", "dim", "_geometry32")

    def __init__(self, pairs: Tuple[Pair, ...], points: np.ndarray, dim: int) -> None:
        # Mirror radical_rows' validation. Everything here is
        # phase-independent, so a failure is deterministic per plan and
        # interval, and is raised again on every call.
        if len(pairs) == 0:
            raise ValueError("need at least one pair of reads")
        index = np.asarray(pairs, dtype=int)
        if index.min() < 0 or index.max() >= points.shape[0]:
            raise ValueError("pair index out of range")
        pi = points[index[:, 0]]
        pj = points[index[:, 1]]
        if np.any(np.all(np.isclose(pi, pj), axis=1)):
            raise ValueError("radical equation undefined for coincident tag positions")
        self.pairs = pairs
        self.index_i = np.ascontiguousarray(index[:, 0])
        self.index_j = np.ascontiguousarray(index[:, 1])
        self.spatial = 2.0 * (pi - pj)
        self.squared = np.einsum("ij,ij->i", pi, pi) - np.einsum("ij,ij->i", pj, pj)
        self.dim = dim
        self._geometry32: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def assemble(self, delta_d: np.ndarray) -> LinearSystem:
        """Complete the system from one profile's distance differences."""
        di = delta_d[self.index_i]
        dj = delta_d[self.index_j]
        matrix = np.empty((self.spatial.shape[0], self.dim + 1))
        matrix[:, : self.dim] = self.spatial
        matrix[:, self.dim] = 2.0 * (di - dj)
        rhs = self.squared - di**2 + dj**2
        return LinearSystem(matrix=matrix, rhs=rhs, dim=self.dim)

    def geometry32(self) -> Tuple[np.ndarray, np.ndarray]:
        """Float32 casts of the geometry terms, computed once per recipe.

        The serving engine's float32 pipeline assembles padded system
        stacks directly from these. The lazy fill is idempotent, so a
        racing double-compute is harmless.
        """
        if self._geometry32 is None:
            self._geometry32 = (
                self.spatial.astype(np.float32),
                self.squared.astype(np.float32),
            )
        return self._geometry32


@dataclass(frozen=True, eq=False)
class GeometryPlan:
    """Everything a prepared scan holds except its phases, plus recipes.

    Attributes:
        dim: spatial dimension the plan was built for.
        n_reads: reads in the full (unmasked) scan.
        include: indices of the reads the mask keeps.
        solve_points / used_segments / reference_index / missing_axis /
            rotation / frame_origin: as on :class:`PreparedScan`.
    """

    dim: int
    n_reads: int
    include: np.ndarray
    solve_points: np.ndarray
    used_segments: np.ndarray | None
    reference_index: int
    missing_axis: int | None
    rotation: np.ndarray | None
    frame_origin: np.ndarray | None
    _recipes: Dict[float, AssemblyRecipe] = field(default_factory=dict, repr=False)

    def check_phases(self, phases: np.ndarray) -> None:
        """Reject a raw phase vector that does not fit this scan.

        Raises:
            ValueError: on a shape mismatch or non-finite phases.
        """
        if phases.shape != (self.n_reads,):
            raise ValueError(f"phases must have shape ({self.n_reads},), got {phases.shape}")
        if not np.isfinite(phases).all():
            raise ValueError("phases contain non-finite values; filter failed reads upstream")

    def complete(self, profile: np.ndarray, wavelength_m: float) -> PreparedScan:
        """Add one preprocessed profile's phase half (Eq. 6).

        ``profile`` covers all ``n_reads`` reads; the result never
        aliases it (fancy indexing copies).
        """
        used = profile[self.include]
        scale = wavelength_m / (2.0 * TWO_PI)
        return self._prepared(used, scale * (used - used[self.reference_index]))

    def complete_rows(self, profiles: np.ndarray, wavelength_m: float) -> List[PreparedScan]:
        """:meth:`complete` for a ``(members, n_reads)`` stack, vectorized.

        Row ``i`` is bit-identical to ``complete(profiles[i])``; the scale
        takes the stack's dtype, so a float32 stack stays single precision.
        """
        used = profiles[:, self.include]
        scale = profiles.dtype.type(wavelength_m / (2.0 * TWO_PI))
        delta = scale * (used - used[:, self.reference_index, np.newaxis])
        return [self._prepared(used[row], delta[row]) for row in range(used.shape[0])]

    def _prepared(self, used_profile: np.ndarray, delta_d: np.ndarray) -> PreparedScan:
        return PreparedScan(
            solve_points=self.solve_points,
            used_profile=used_profile,
            used_segments=self.used_segments,
            reference_index=self.reference_index,
            missing_axis=self.missing_axis,
            rotation=self.rotation,
            frame_origin=self.frame_origin,
            delta_d=delta_d,
        )

    def recipe(self, interval_m: float) -> AssemblyRecipe:
        """The pairing/assembly recipe at ``interval_m``, memoized per plan.

        Pair selection reads only the solve-frame positions and segment
        structure, never the phases. Failures are not memoized; they are
        raised again on every call, like the uncached path.
        """
        key = float(interval_m)
        recipe = self._recipes.get(key)
        if recipe is None:
            pairs = tuple(auto_pairs(self.solve_points, self.used_segments, key, self.dim))
            recipe = self._recipes.setdefault(
                key, AssemblyRecipe(pairs, self.solve_points, self.dim)
            )
        return recipe


def build_plan(
    localizer: "LionLocalizer",
    points: np.ndarray,
    segment_ids: Optional[np.ndarray],
    exclude_mask: Optional[np.ndarray],
    reference_index: Optional[int],
) -> GeometryPlan:
    """Validate one scan's geometry and build its plan.

    Applies the mask, picks the Eq. (6) reference (the middle read of
    the most-populated segment, or of the scan), detects the missing
    axis, and rotates a non-axis-aligned 2D line into its own frame.

    Raises:
        TooFewReadsError: fewer than three (included) reads.
        DegenerateGeometryError: the scan cannot observe a ``dim``-D
            position (e.g. a single straight line for a 3D target).
        ValueError: on malformed positions, mask, or reference index.
    """
    dim = localizer.dim
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (n, 2) or (n, 3), got {points.shape}")
    if points.shape[0] < 3:
        raise TooFewReadsError("need at least three reads to localize")
    if not np.all(np.isfinite(points)):
        raise ValueError("positions contain non-finite values")

    keep = np.ones(points.shape[0], dtype=bool)
    if exclude_mask is not None:
        mask = np.asarray(exclude_mask, dtype=bool)
        if mask.shape != keep.shape:
            raise ValueError("exclude_mask must match the number of reads")
        keep = ~mask
    include = np.flatnonzero(keep)
    if include.size < 3:
        raise TooFewReadsError("need at least three included reads")
    used_segments = (
        np.asarray(segment_ids, dtype=int)[include] if segment_ids is not None else None
    )

    if reference_index is None:
        if used_segments is not None:
            # Middle of the most-populated sweep: keeps the reference
            # read far from trajectory corners, where even symmetric
            # smoothing has reduced support.
            ids, counts = np.unique(used_segments, return_counts=True)
            largest = ids[int(np.argmax(counts))]
            members = np.flatnonzero(used_segments == largest)
            reference_index = int(members[members.size // 2])
        else:
            reference_index = include.size // 2
    if not 0 <= reference_index < include.size:
        raise ValueError("reference index out of range of included reads")

    used_points = points[include]
    if dim == 2:
        used_points = used_points[:, :2]
    elif used_points.shape[1] == 2:
        used_points = np.hstack([used_points, np.zeros((used_points.shape[0], 1))])

    # Degeneracy handling: find the axis (if any) the scan never moves
    # along; for 2D a non-axis-aligned line is rotated into its frame.
    rotation: np.ndarray | None = None
    frame_origin: np.ndarray | None = None
    solve_points = used_points
    try:
        missing_axis = detect_missing_axis(used_points, span_threshold_m=1e-6)
    except ValueError as error:
        raise DegenerateGeometryError(
            f"trajectory cannot observe a {dim}-D position: {error}"
        ) from error
    if dim == 2 and missing_axis is None and _is_collinear(used_points):
        direction = _principal_direction(used_points)
        frame_origin = used_points[0].copy()
        solve_points, rotation = to_line_frame_2d(used_points, frame_origin, direction)
        missing_axis = 1
    return GeometryPlan(
        dim=dim,
        n_reads=int(points.shape[0]),
        include=include,
        solve_points=solve_points,
        used_segments=used_segments,
        reference_index=int(reference_index),
        missing_axis=missing_axis,
        rotation=rotation,
        frame_origin=frame_origin,
    )


def _is_collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether all 2D points lie on one straight line."""
    centered = points - points.mean(axis=0)
    singular_values = np.linalg.svd(centered, compute_uv=False)
    return bool(singular_values[-1] <= tol * max(singular_values[0], 1.0))


def _principal_direction(points: np.ndarray) -> np.ndarray:
    """Dominant direction of a point cloud (first right singular vector)."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction: np.ndarray = vt[0]
    return direction


# ---------------------------------------------------------------------------
# the content-keyed plan cache
# ---------------------------------------------------------------------------

#: Process-wide plans of recently seen geometries, shared by the batched
#: serve prepare, the fused adaptive sweep, and incremental re-solves.
PLAN_CACHE: "BoundedLRU[GeometryPlan]" = BoundedLRU("plan", 1024)


def content_digest(array: Optional[np.ndarray]) -> bytes:
    """Content digest of an array (shape, dtype, bytes) for cache keys.

    ``None`` digests to ``b""`` so optional inputs (segments, masks) key
    uniformly.
    """
    if array is None:
        return b""
    data = np.ascontiguousarray(array)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr((data.shape, data.dtype.str)).encode())
    hasher.update(data.tobytes())
    return hasher.digest()


def memoized_digest() -> Callable[[Optional[np.ndarray]], bytes]:
    """:func:`content_digest` memoized on array identity, for one call.

    Batches and sweeps pass the same array objects (one trajectory, one
    segment vector) for many plan lookups; the memo digests each once.
    Keys are ``id()``s, so every array digested must stay alive as long
    as the memo does.
    """
    memo: Dict[int, bytes] = {}

    def digest(array: Optional[np.ndarray]) -> bytes:
        token = id(array)
        value = memo.get(token)
        if value is None:
            value = memo[token] = content_digest(array)
        return value

    return digest


def cached_plan(
    localizer: "LionLocalizer",
    positions: np.ndarray,
    segment_ids: Optional[np.ndarray],
    exclude_mask: Optional[np.ndarray],
    reference_index: Optional[int],
    digest: Callable[[Optional[np.ndarray]], bytes] = content_digest,
) -> GeometryPlan:
    """:func:`build_plan` through :data:`PLAN_CACHE`.

    The key is ``(positions, segments, mask)`` digests plus the
    reference override and ``dim``. A plan is stored only once it has
    validated, so a failing geometry raises again on every call.
    ``digest`` may be a :func:`memoized_digest`.
    """
    key = (
        digest(positions),
        digest(segment_ids),
        digest(exclude_mask),
        reference_index,
        localizer.dim,
    )
    plan = PLAN_CACHE.get(key)
    if plan is None:
        plan = build_plan(localizer, positions, segment_ids, exclude_mask, reference_index)
        PLAN_CACHE.put(key, plan)
    return plan
