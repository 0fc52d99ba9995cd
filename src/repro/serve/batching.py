"""Group keys and the fused batch executor of the serving engine.

The engine's dispatch unit is a *group*: requests sharing
``(estimator, config_hash, dim)``. Members of one group run through one
estimator configuration, so a batchable group — batch LION with the WLS
solver — collapses into a single fused dispatch: batched
validation/preprocess/preparation across the whole group
(:func:`repro.core.batch_prepare.prepare_batch` — stacked unwrap and
smoothing, geometry through the content-keyed plan cache of
:mod:`repro.core.plan`), pair selection and radical-row geometry from
each plan's memoized recipe (concurrent requests usually observe one
deployment trajectory, so both amortize to lookups), and one stacked
IRLS over every member's system. The float64 default runs
:func:`repro.core.solvers.solve_weighted_least_squares_batch`, whose
solutions are bit-identical to the scalar solver; the opt-in float32
path (``ServeConfig(dtype="float32")``) assembles padded single-precision
stacks straight from the recipe geometry and solves them through
the normal-equation GEMM kernel
(:func:`repro.core.solvers.solve_weighted_least_squares_fast_batch`),
trading bit-exactness for throughput within property-tested bounds. A
member that fails preparation or assembly carries its ``ValueError`` in
the result slot — the engine resolves it through the scalar path so one
bad request degrades alone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch_prepare import PreparedMember, prepare_batch
from repro.core.localizer import LionLocalizer, LocalizationResult, PreparedScan
from repro.core.lowerdim import RecoveryResult
from repro.core.plan import AssemblyRecipe
from repro.core.solvers import (
    Solution,
    solve_weighted_least_squares_batch,
    solve_weighted_least_squares_fast_batch,
)
from repro.core.system import LinearSystem
from repro.core.weights import gaussian_residual_weights
from repro.obs import current_span, tracing_enabled
from repro.pipeline.config import EstimatorConfig
from repro.pipeline.contract import EstimationReport, EstimationRequest
from repro.pipeline.estimators import LionEstimator

#: One dispatch group: ``(estimator name, config hash, dim)``.
GroupKey = Tuple[str, str, int]

#: Per-member outcome of a fused dispatch: the report, or the
#: ``ValueError`` the scalar path would raise for that member.
MemberResult = Union[EstimationReport, ValueError]


def group_key(name: str, config: EstimatorConfig, config_hash: str) -> GroupKey:
    """Dispatch-group key of one request.

    ``dim`` is part of the key even though it is already folded into the
    config hash: it keeps the key self-describing for metrics labels and
    guards against hash-collision pathologies joining 2D and 3D members.
    Configs without a ``dim`` (scan-frame baselines) key as 0.
    """
    return (name, config_hash, int(getattr(config, "dim", 0)))


def is_batchable(name: str, config: EstimatorConfig) -> bool:
    """Whether requests of this estimator/config fuse into one solve.

    Batch LION with the WLS solver is the (paper-default) fused path; its
    IRLS batch kernel is pinned bit-identical to the scalar solver.
    Everything else — grid searches, streaming, scan-frame baselines, the
    plain-LS variant — dispatches per request.
    """
    return name == "lion" and getattr(config, "method", None) == "wls"


def _solve_float32(
    pending: Sequence[Tuple[int, PreparedScan, AssemblyRecipe]],
) -> Tuple[List[Solution], List[LinearSystem], List[Dict[str, Any]]]:
    """Pad the pending members' float32 systems and run the GEMM kernel.

    Assembly goes straight from each recipe's cached float32 geometry and
    the member's float32 ``delta_d`` into the padded stack — no float64
    :class:`LinearSystem` detour. The returned systems are views into the
    stack (single precision), carried on each report's ``raw.system``
    for diagnostics. The per-member diagnostic scalars (mean residual,
    mean |residual|, iteration counts) come back as ready-made dicts,
    computed over the padded stacks in a handful of vector ops instead of
    per-member :class:`Solution` property reductions.
    """
    counts = np.array([recipe.index_i.size for _, _, recipe in pending])
    max_rows = int(counts.max())
    dim = pending[0][2].dim
    columns = dim + 1
    matrices = np.zeros((len(pending), max_rows, columns), dtype=np.float32)
    rhs = np.zeros((len(pending), max_rows), dtype=np.float32)
    mask = np.arange(max_rows)[np.newaxis, :] < counts[:, np.newaxis]
    # Members resolved from the same plan's recipe (the common serve case:
    # one deployment trajectory) share index arrays and geometry, so their
    # rows assemble in one vector op per group instead of one per member.
    by_recipe: Dict[int, List[int]] = {}
    for slot, (_, _, recipe) in enumerate(pending):
        by_recipe.setdefault(id(recipe), []).append(slot)
    for slots in by_recipe.values():
        recipe = pending[slots[0]][2]
        spatial32, squared32 = recipe.geometry32()
        rows = recipe.index_i.size
        deltas = np.stack([pending[slot][1].delta_d for slot in slots])
        di = deltas[:, recipe.index_i]
        dj = deltas[:, recipe.index_j]
        idx = np.asarray(slots)
        matrices[idx, :rows, :dim] = spatial32
        matrices[idx, :rows, dim] = 2.0 * (di - dj)
        rhs[idx, :rows] = squared32 - di * di + dj * dj
    solutions = solve_weighted_least_squares_fast_batch(matrices, rhs, mask)
    systems = [
        LinearSystem(
            matrix=matrices[slot, : counts[slot]],
            rhs=rhs[slot, : counts[slot]],
            dim=dim,
        )
        for slot in range(len(pending))
    ]
    # Batched diagnostics: residuals of the *final* estimates (ejected
    # members included — their scalar-solved estimates drop back into the
    # stack) normalized by row norms, then masked weighted/unweighted
    # means, all over the padded (batch, rows) arrays at once.
    estimates = np.stack(
        [solution.estimate for solution in solutions]
    ).astype(np.float32)
    residuals = np.einsum("bmc,bc->bm", matrices, estimates) - rhs
    residuals[~mask] = 0.0
    norms = np.sqrt(np.einsum("bmc,bmc->bm", matrices, matrices))
    norms[norms == 0.0] = 1.0
    normalized = residuals / norms
    weights = np.zeros_like(rhs)
    for slot, solution in enumerate(solutions):
        weights[slot, : counts[slot]] = solution.weights
    weight_totals = weights.sum(axis=1, dtype=np.float64)
    weighted_sums = (weights * normalized).sum(axis=1, dtype=np.float64)
    counts_f = counts.astype(np.float64)
    plain_means = normalized.sum(axis=1, dtype=np.float64) / counts_f
    denominators = np.where(weight_totals > 0.0, weight_totals, 1.0)
    mean_residuals = np.where(
        weight_totals > 0.0, weighted_sums / denominators, plain_means
    )
    mean_abs = np.abs(normalized).sum(axis=1, dtype=np.float64) / counts_f
    diagnostics: List[Dict[str, Any]] = [
        {
            "mean_residual": float(mean_residuals[slot]),
            "mean_abs_residual": float(mean_abs[slot]),
            "iterations": int(solution.iterations),
            "converged": bool(solution.converged),
        }
        for slot, solution in enumerate(solutions)
    ]
    return solutions, systems, diagnostics


def _finalize_float32_batch(
    localizer: LionLocalizer,
    pending: Sequence[Tuple[int, PreparedScan, AssemblyRecipe]],
    solutions: Sequence[Solution],
    systems: Sequence[LinearSystem],
) -> List[LocalizationResult]:
    """Batched ``_finalize_solution``: recovery + frame rotation as stacks.

    The scalar finalize is ~30µs/member of small-array numpy dispatch
    (per-member ``vstack``, 2x2 rotations, per-member sqrt). Here the
    missing-axis recovery runs once per distinct axis over all affected
    members, and the rotate-back runs once per shared rotation matrix
    (members completed from one cached plan share the object), leaving
    only dataclass construction per member. Semantics match
    :meth:`LionLocalizer._finalize_solution` exactly — same candidate
    ordering, same radicand clipping, same pre-rotation recovery frame.
    """
    dim = localizer.dim
    estimates = np.stack([solution.estimate for solution in solutions]).astype(
        np.float64
    )
    positions = estimates[:, :dim].copy()
    reference_distances = estimates[:, dim]
    clipped = np.maximum(reference_distances, 0.0)
    reference_positions = np.stack(
        [
            prepared.solve_points[prepared.reference_index]
            for _, prepared, _ in pending
        ]
    )
    recoveries: List[RecoveryResult | None] = [None] * len(pending)
    by_axis: Dict[int, List[int]] = {}
    for slot, (_, prepared, _) in enumerate(pending):
        if prepared.missing_axis is not None:
            by_axis.setdefault(prepared.missing_axis, []).append(slot)
    for axis, slots in by_axis.items():
        idx = np.asarray(slots)
        observed = [a for a in range(dim) if a != axis]
        in_plane = positions[idx][:, observed] - reference_positions[idx][:, observed]
        radicands = clipped[idx] ** 2 - np.einsum("ij,ij->i", in_plane, in_plane)
        offsets = np.sqrt(np.maximum(radicands, 0.0))
        high = positions[idx].copy()
        high[:, axis] = reference_positions[idx, axis] + offsets
        low = positions[idx].copy()
        low[:, axis] = reference_positions[idx, axis] - offsets
        chosen = high if localizer.positive_side else low
        candidates = np.stack([high, low], axis=1)
        positions[idx] = chosen
        for row, slot in enumerate(slots):
            recoveries[slot] = RecoveryResult(
                position=chosen[row],
                candidates=candidates[row],
                radicand=float(radicands[row]),
            )
    by_rotation: Dict[int, Tuple[PreparedScan, List[int]]] = {}
    for slot, (_, prepared, _) in enumerate(pending):
        if prepared.rotation is not None and prepared.frame_origin is not None:
            entry = by_rotation.setdefault(id(prepared.rotation), (prepared, []))
            entry[1].append(slot)
    for prepared, slots in by_rotation.values():
        idx = np.asarray(slots)
        rotation = prepared.rotation
        origin = prepared.frame_origin
        assert rotation is not None and origin is not None
        # rotation.T @ p == p @ rotation, batched over all member rows.
        positions[idx] = positions[idx] @ rotation + origin
        reference_positions[idx] = reference_positions[idx] @ rotation + origin
    results: List[LocalizationResult] = []
    for slot, ((_, prepared, _), solution, system) in enumerate(
        zip(pending, solutions, systems)
    ):
        results.append(
            LocalizationResult(
                position=positions[slot],
                reference_distance_m=float(reference_distances[slot]),
                solution=solution,
                system=system,
                recovered_axis=prepared.missing_axis,
                recovery=recoveries[slot],
                reference_position=reference_positions[slot],
            )
        )
    return results


def execute_batch(
    estimator: LionEstimator,
    requests: Sequence[EstimationRequest],
    request_ids: Optional[Sequence[Optional[str]]] = None,
    dtype: str = "float64",
) -> List[MemberResult]:
    """Run one batchable group through the fused prepare/pair/solve path.

    Returns one slot per request, in request order: the
    :class:`EstimationReport` (field-identical to
    ``estimator.estimate(request)`` on the float64 default), or the
    ``ValueError`` subclass that member raised during validation,
    preparation, or assembly. The batch solvers eject members they cannot
    handle (rank-deficient, singular, non-finite) to exact scalar solves
    internally, so a bad member never perturbs its neighbours.

    Args:
        estimator: the group's configured LION estimator.
        requests: the member requests, in batch order.
        request_ids: when given (one per request, ``None`` entries
            allowed), annotates the enclosing span with a ``member_error``
            event per failed slot, so a stitched request trace shows
            *which* member of a fused batch fell back and why.
        dtype: ``"float64"`` (bit-identical) or ``"float32"`` (the
            throughput pipeline: single-precision preprocess, assembly,
            and normal-equation IRLS, property-test-bounded accuracy).
    """

    def _note_member_error(index: int, error: ValueError) -> None:
        if request_ids is None or not tracing_enabled():
            return
        parent = current_span()
        if parent is not None:
            parent.add_event(
                kind="member_error",
                member=index,
                request_id=request_ids[index],
                error=type(error).__name__,
            )

    localizer = estimator.localizer
    use_float32 = dtype == "float32"
    results: List[MemberResult | None] = [None] * len(requests)
    members: List[PreparedMember] = prepare_batch(
        localizer, requests, dtype=np.float32 if use_float32 else np.float64
    )
    pending: List[Tuple[int, PreparedScan, AssemblyRecipe]] = []
    for index, member in enumerate(members):
        if member.error is not None:
            results[index] = member.error
            _note_member_error(index, member.error)
            continue
        prepared, plan = member.prepared, member.plan
        assert prepared is not None and plan is not None
        try:
            recipe = plan.recipe(localizer.interval_m)
        except ValueError as error:
            results[index] = error
            _note_member_error(index, error)
            continue
        pending.append((index, prepared, recipe))

    if pending:
        if use_float32:
            solutions, systems, diagnostics = _solve_float32(pending)
            finalized = _finalize_float32_batch(localizer, pending, solutions, systems)
            for slot, ((index, prepared, _), result) in enumerate(
                zip(pending, finalized)
            ):
                member_diag = diagnostics[slot]
                member_diag["recovered_axis"] = prepared.missing_axis
                results[index] = estimator.report(result, diagnostics=member_diag)
        else:
            systems = [
                recipe.assemble(prepared.delta_d)
                for _, prepared, recipe in pending
            ]
            solutions = solve_weighted_least_squares_batch(
                systems,
                weight_function=gaussian_residual_weights,
                max_iterations=localizer.max_iterations,
                tolerance_m=localizer.tolerance_m,
            )
            for (index, prepared, _), solution, system in zip(
                pending, solutions, systems
            ):
                try:
                    results[index] = estimator.report(
                        localizer._finalize_solution(prepared, system, solution)
                    )
                except ValueError as error:
                    results[index] = error
                    _note_member_error(index, error)
    final: List[MemberResult] = []
    for result in results:
        if result is None:  # pragma: no cover - every slot is filled above
            raise RuntimeError("batch execution left an unfilled result slot")
        final.append(result)
    return final
