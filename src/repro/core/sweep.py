"""Fused adaptive-sweep engine: shared prep, cached pairing, one batch solve.

The adaptive parameter selection of Sec. IV-C1 solves a 6x6
(range, interval) grid per localization; the legacy path ran each cell
through a full scalar :meth:`LionLocalizer.locate` — per-cell masking,
per-cell pairing, per-cell scalar IRLS. The cells are far from
independent, though:

* every cell of one grid *row* shares the same range-window mask, so
  masking / reference selection / degeneracy handling collapse to one
  :class:`repro.core.plan.GeometryPlan` per distinct mask, and Eq. (6)
  to one ``plan.complete`` per row;
* pair selection — and the geometry half of the radical rows (Eq. 7):
  the spatial coefficients ``2 (p_i - p_j)`` and the position term of the
  right-hand side — depend only on the masked geometry and the interval,
  never on the phases, so each ``(mask, interval)`` assembly recipe is
  built once on its plan, and plans are *cached across calls*
  (Monte-Carlo trials re-use one trajectory with fresh phase noise,
  hitting the plan cache every sweep after the first); per trial only
  the phase-dependent ``d_r`` column and right-hand side are computed;
* the per-cell IRLS solves collapse into one padded
  ``(cells, max_rows, dim + 2)`` assembly tensor handed to the masked
  batch kernel (:func:`repro.core.solvers.solve_weighted_least_squares_masked_batch`),
  whose solutions are bit-identical to the scalar solver.

:func:`fused_sweep` therefore returns exactly the per-cell results (and
per-cell ``ValueError`` rejections) the legacy per-cell dispatch would
produce, only faster; ``tests/test_adaptive_fused.py`` pins the
equivalence bitwise.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.localizer import LionLocalizer, LocalizationResult
from repro.core.plan import (
    PLAN_CACHE,
    GeometryPlan,
    PreparedScan,
    cached_plan,
    memoized_digest,
)
from repro.core.solvers import (
    solve_least_squares,
    solve_weighted_least_squares_masked_batch,
)
from repro.core.system import LinearSystem
from repro.core.weights import gaussian_residual_weights

#: One grid cell: ``(range_m, interval_m, row)`` where ``row`` indexes the
#: stacked exclusion-mask matrix (one row per distinct range window).
Cell = Tuple[float, float, int]

#: Per-cell outcome: the localization, or the ``ValueError`` that cell
#: would have raised on the scalar path (callers classify it).
CellResult = Union[LocalizationResult, ValueError]

# Old name of the plan cache's clear (recipes live on plans); the e2e harness imports it.
clear_pair_cache = PLAN_CACHE.clear


# ---------------------------------------------------------------------------
# the fused sweep
# ---------------------------------------------------------------------------


def fused_sweep(
    localizer: LionLocalizer,
    points: np.ndarray,
    profile: np.ndarray,
    segments: np.ndarray | None,
    excludes: np.ndarray,
    cells: Sequence[Cell],
) -> List[CellResult]:
    """Solve every grid cell of one adaptive sweep as a fused batch.

    Args:
        localizer: the configured :class:`LionLocalizer`.
        points: full scan positions, shape ``(n, 2)`` or ``(n, 3)``.
        profile: the *preprocessed* phase profile, shape ``(n,)``.
        segments: per-read segment ids, or ``None``.
        excludes: stacked per-range exclusion masks, shape
            ``(ranges, n)`` — row ``cells[i][2]`` is cell ``i``'s mask.
        cells: the grid cells to solve, in sweep order.

    Returns:
        Per-cell results aligned with ``cells``: a
        :class:`LocalizationResult`, or the ``ValueError`` the scalar
        per-cell path would have raised (bit-identical either way).
    """
    results: List[CellResult | None] = [None] * len(cells)

    # Stage 1 — one plan and one prepared scan per distinct range window:
    # every cell of a grid row shares that row's mask. The mask views stay
    # referenced for the whole loop, as the identity-keyed digest requires.
    masks = {row: excludes[row] for row in sorted({cell[2] for cell in cells})}
    digest = memoized_digest()
    plans: Dict[int, Tuple[GeometryPlan, PreparedScan] | ValueError] = {}
    for row, mask in masks.items():
        try:
            plan = cached_plan(localizer, points, segments, mask, None, digest)
            plan.check_phases(profile)
            plans[row] = (plan, plan.complete(profile, localizer.wavelength_m))
        except ValueError as error:
            plans[row] = error

    # Stage 2 — the plan's per-interval recipe, phase-dependent assembly.
    pending: List[Tuple[int, PreparedScan, LinearSystem]] = []
    for index, (range_m, interval_m, row) in enumerate(cells):
        entry = plans[row]
        if isinstance(entry, ValueError):
            results[index] = entry
            continue
        plan, prepared = entry
        try:
            system = plan.recipe(interval_m).assemble(prepared.delta_d)
        except ValueError as error:
            results[index] = error
            continue
        pending.append((index, prepared, system))

    # Stage 3 — one masked batch solve over the padded assembly tensor
    # (columns [:dim+1] hold each cell's coefficient matrix, the last
    # column its rhs), then the shared finalize path per cell.
    if pending:
        if localizer.method == "wls":
            counts = np.array([system.equation_count for _, _, system in pending])
            max_rows = int(counts.max())
            columns = localizer.dim + 1
            assembly = np.zeros((len(pending), max_rows, columns + 1))
            valid = np.arange(max_rows)[np.newaxis, :] < counts[:, np.newaxis]
            for slot, (_, _, system) in enumerate(pending):
                assembly[slot, : counts[slot], :columns] = system.matrix
                assembly[slot, : counts[slot], -1] = system.rhs
            solutions = solve_weighted_least_squares_masked_batch(
                assembly[:, :, :columns],
                assembly[:, :, -1],
                valid,
                weight_function=gaussian_residual_weights,
                max_iterations=localizer.max_iterations,
                tolerance_m=localizer.tolerance_m,
            )
        else:
            solutions = [solve_least_squares(system) for _, _, system in pending]
        for (index, prepared, system), solution in zip(pending, solutions):
            try:
                results[index] = localizer._finalize_solution(
                    prepared, system, solution
                )
            except ValueError as error:
                results[index] = error
    return results  # type: ignore[return-value]
