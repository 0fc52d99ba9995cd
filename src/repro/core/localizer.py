"""High-level LION localizer: wrapped phases in, position out.

:class:`LionLocalizer` wires the whole Sec. IV pipeline together:
preprocessing (unwrap + smooth), Eq. (6) distance differences, pair
selection, system assembly, the (weighted) least-squares solve, and
lower-dimension coordinate recovery. It is symmetric in who moves: give it
tag positions to locate an antenna (calibration), or antenna-relative
positions to locate a tag (the conveyor and turntable applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.lowerdim import RecoveryResult, recover_coordinate_from_reference
from repro.core.pairing import auto_pairs
# The scan types and errors live with the plan; re-exported here, where
# callers have always imported them from.
from repro.core.plan import DegenerateGeometryError as DegenerateGeometryError
from repro.core.plan import PreparedScan as PreparedScan
from repro.core.plan import TooFewReadsError as TooFewReadsError
from repro.core.plan import build_plan
from repro.core.solvers import (
    Solution,
    solve_least_squares,
    solve_weighted_least_squares,
)
from repro.core.system import LinearSystem, build_system
from repro.core.weights import gaussian_residual_weights
from repro.obs import span, tracing_enabled
from repro.signalproc.smoothing import hampel_filter, smooth_phase_profile
from repro.signalproc.unwrap import unwrap_phase

Method = Literal["wls", "ls"]


@dataclass(frozen=True)
class PreprocessConfig:
    """Signal preprocessing knobs (paper Sec. IV-A).

    Attributes:
        smoothing_window: moving-average window in samples (1 disables).
        jump_threshold_rad: unwrap jump threshold; ``pi`` per the paper.
        hampel_window: when positive, apply Hampel outlier rejection of
            this window before smoothing (multipath spike removal).
    """

    smoothing_window: int = 9
    jump_threshold_rad: float = float(np.pi)
    hampel_window: int = 0


@dataclass(frozen=True)
class LocalizationResult:
    """Full output of one localization run.

    Attributes:
        position: estimated target position, shape ``(dim,)``, meters.
        reference_distance_m: estimated ``d_r``.
        solution: the underlying least-squares solution (residuals,
            weights, iteration count).
        system: the assembled linear system (for diagnostics).
        recovered_axis: index of the coordinate recovered from ``d_r``
            via the lower-dimension path, or ``None``.
        recovery: details of that recovery (both candidates), or ``None``.
        reference_position: the tag position used as Eq. (6) reference.
    """

    position: np.ndarray
    reference_distance_m: float
    solution: Solution
    system: LinearSystem
    recovered_axis: int | None
    recovery: RecoveryResult | None
    reference_position: np.ndarray

    @property
    def mean_residual(self) -> float:
        """Weighted mean residual of the final solve (adaptive-selection signal)."""
        return self.solution.mean_residual


@dataclass
class LionLocalizer:
    """Configurable LION pipeline.

    Attributes:
        dim: spatial dimension of the answer, 2 or 3.
        wavelength_m: carrier wavelength.
        method: ``"wls"`` (paper default) or ``"ls"``.
        interval_m: default scanning interval (pair spacing), meters.
        positive_side: deployment prior for lower-dimension recovery —
            whether the target lies on the positive side of the scan along
            the unobserved axis.
        preprocess: signal preprocessing configuration.
        max_iterations / tolerance_m: WLS iteration control.
    """

    dim: int = 2
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    method: Method = "wls"
    interval_m: float = 0.25
    positive_side: bool = True
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    max_iterations: int = 20
    tolerance_m: float = 1e-6

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.wavelength_m <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.method not in ("wls", "ls"):
            raise ValueError(f"method must be 'wls' or 'ls', got {self.method!r}")
        if self.interval_m <= 0.0:
            raise ValueError("interval must be positive")

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def preprocess_phase(
        self,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Unwrap and smooth a continuous wrapped-phase profile.

        Unwrapping runs over the whole profile (the scan is continuous,
        transits included); smoothing and outlier rejection run *per
        segment* — a moving average across a trajectory corner would mix
        reads with discontinuous phase slope and bias the profile there.
        """
        profile = unwrap_phase(
            np.asarray(wrapped_phase_rad, dtype=float),
            self.preprocess.jump_threshold_rad,
        )
        return self.smooth_profile(profile, segment_ids)

    def smooth_profile(
        self,
        profile: np.ndarray,
        segment_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Smoothing half of :meth:`preprocess_phase`, on an unwrapped profile.

        Split out so streaming callers that maintain the unwrap
        incrementally (:class:`repro.core.incremental.IncrementalScanAssembler`)
        can apply exactly the batch outlier-rejection and moving-average
        treatment to a reconstructed window profile. Mutates and returns
        ``profile`` in place (callers pass a fresh copy).
        """
        if segment_ids is None:
            runs = [np.arange(profile.shape[0])]
        else:
            ids = np.asarray(segment_ids, dtype=int)
            boundaries = np.flatnonzero(np.diff(ids) != 0) + 1
            runs = np.split(np.arange(profile.shape[0]), boundaries)
        for run in runs:
            if run.size == 0:
                continue
            chunk = profile[run]
            if self.preprocess.hampel_window > 1:
                chunk, _ = hampel_filter(chunk, self.preprocess.hampel_window)
            if self.preprocess.smoothing_window > 1:
                chunk = smooth_phase_profile(chunk, self.preprocess.smoothing_window)
            profile[run] = chunk
        return profile

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def locate(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> LocalizationResult:
        """Locate the target from one continuous scan (traced as ``locate``)."""
        if not tracing_enabled():
            return self._locate_impl(
                positions,
                wrapped_phase_rad,
                segment_ids=segment_ids,
                exclude_mask=exclude_mask,
                pairs=pairs,
                interval_m=interval_m,
                reference_index=reference_index,
                assume_preprocessed=assume_preprocessed,
            )
        with span("locate", dim=self.dim, method=self.method):
            return self._locate_impl(
                positions,
                wrapped_phase_rad,
                segment_ids=segment_ids,
                exclude_mask=exclude_mask,
                pairs=pairs,
                interval_m=interval_m,
                reference_index=reference_index,
                assume_preprocessed=assume_preprocessed,
            )

    def _locate_impl(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> LocalizationResult:
        """Locate the target from one continuous scan.

        Args:
            positions: known scan positions, shape ``(n, 2)`` or ``(n, 3)``,
                in time order. For ``dim == 2`` a 3-column input uses the
                first two columns (scan and target must share the plane).
            wrapped_phase_rad: reported wrapped phases, shape ``(n,)``, in
                the same time order — assumed *continuously* sampled so the
                whole profile unwraps as one piece (include transit reads
                of multi-line scans; mark them with ``exclude_mask``).
            segment_ids: per-read sweep ids. When exactly three data
                segments are present and ``dim == 3``, the structured
                three-line pairing of Sec. IV-B1 is used automatically.
            exclude_mask: boolean mask of reads to keep for unwrapping but
                exclude from equations (transit reads, out-of-range reads).
            pairs: explicit pair selection (indices into the *included*
                reads); overrides automatic pairing.
            interval_m: scanning interval override for this call.
            reference_index: index (into included reads) of the Eq. (6)
                reference; defaults to the middle read, which keeps the
                reference inside the antenna's main beam.
            assume_preprocessed: when True, ``wrapped_phase_rad`` is taken
                to be an already unwrapped and smoothed profile (from
                :meth:`preprocess_phase`) and preprocessing is skipped.
                Preprocessing depends only on the full profile — not on
                the exclusion mask or interval — so callers sweeping many
                configurations over one scan (``repro.core.adaptive``)
                hoist it out of the per-configuration loop.

        Raises:
            TooFewReadsError: when fewer than three (included) reads remain.
            DegenerateGeometryError: on an unobservable geometry (e.g. a
                single straight line for a 3D target).
            ValueError: on shape mismatches or other solve failures.
        """
        prepared = self.prepare(
            positions,
            wrapped_phase_rad,
            segment_ids=segment_ids,
            exclude_mask=exclude_mask,
            reference_index=reference_index,
            assume_preprocessed=assume_preprocessed,
        )
        return self._solve_prepared(prepared, pairs=pairs, interval_m=interval_m)

    def prepare(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> PreparedScan:
        """Validate, preprocess, and reduce one scan to its solve-ready pieces.

        This is exactly the front half of :meth:`locate`: an uncached
        :func:`repro.core.plan.build_plan` (geometry validation, mask,
        reference, degeneracy frame), phase validation and preprocessing,
        then :meth:`GeometryPlan.complete <repro.core.plan.GeometryPlan.complete>`.
        ``locate`` is ``prepare`` + ``_solve_prepared``. The one-shot path
        touches no cache; batch engines reach the same plan through
        :func:`repro.core.plan.cached_plan`.

        Copy contract: inputs are never mutated, and the returned
        :class:`PreparedScan` never aliases caller arrays — every array it
        carries is produced by index-array selection or arithmetic, both
        of which allocate. ``assume_preprocessed`` therefore uses the
        caller's phase array in place (read-only) instead of defensively
        copying it; sweep engines call this per candidate window, so that
        copy was pure overhead.

        Raises:
            TooFewReadsError / DegenerateGeometryError / ValueError: as on
                :meth:`locate`.
        """
        phases = np.asarray(wrapped_phase_rad, dtype=float)
        plan = build_plan(self, positions, segment_ids, exclude_mask, reference_index)
        plan.check_phases(phases)
        if assume_preprocessed:
            profile = phases  # read-only from here; complete() copies via indexing
        else:
            profile = self.preprocess_phase(
                phases,
                segment_ids=np.asarray(segment_ids, dtype=int)
                if segment_ids is not None
                else None,
            )
        return plan.complete(profile, self.wavelength_m)

    def _solve_prepared(
        self,
        prepared: PreparedScan,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
    ) -> LocalizationResult:
        """Pair, assemble, and solve one prepared scan."""
        if pairs is None:
            pairs = auto_pairs(
                prepared.solve_points,
                prepared.used_segments,
                interval_m or self.interval_m,
                self.dim,
            )
        system = build_system(
            prepared.solve_points, prepared.delta_d, pairs, dim=self.dim
        )
        if self.method == "wls":
            solution = solve_weighted_least_squares(
                system,
                weight_function=gaussian_residual_weights,
                max_iterations=self.max_iterations,
                tolerance_m=self.tolerance_m,
            )
        else:
            solution = solve_least_squares(system)
        return self._finalize_solution(prepared, system, solution)

    def _finalize_solution(
        self, prepared: PreparedScan, system: LinearSystem, solution: Solution
    ) -> LocalizationResult:
        """Recover the missing coordinate and rotate back to world frame."""
        position = solution.position.copy()
        reference_position = prepared.solve_points[prepared.reference_index].copy()
        recovery: RecoveryResult | None = None
        if prepared.missing_axis is not None:
            recovery = recover_coordinate_from_reference(
                position,
                prepared.missing_axis,
                max(solution.reference_distance, 0.0),
                reference_position,
                positive_side=self.positive_side,
            )
            position = recovery.position

        if prepared.rotation is not None and prepared.frame_origin is not None:
            position = prepared.rotation.T @ position + prepared.frame_origin
            reference_position = prepared.rotation.T @ reference_position + prepared.frame_origin

        return LocalizationResult(
            position=position,
            reference_distance_m=solution.reference_distance,
            solution=solution,
            system=system,
            recovered_axis=prepared.missing_axis,
            recovery=recovery,
            reference_position=reference_position,
        )
