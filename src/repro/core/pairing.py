"""Pair-selection strategies for building radical equations.

The quality of the linear system depends on which read pairs become rows.
Sec. IV-B1's principle: *guarantee the diversity of displacement along
different axes* — every unknown coordinate needs pairs whose displacement
excites it. The strategies here range from the paper's structured
three-line pairing to generic lag/spacing pairs for arbitrary trajectories
(the random and all-pairs variants exist for the pairing ablation).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]


def lag_pairs(count: int, lag: int) -> List[Pair]:
    """Pairs ``(i, i + lag)`` for every valid ``i``.

    Suits any single continuous trajectory: with constant speed and read
    rate, a fixed index lag is a fixed scanning interval.

    Raises:
        ValueError: if ``lag`` is not positive or no pair fits.
    """
    if lag <= 0:
        raise ValueError(f"lag must be positive, got {lag}")
    if count - lag < 1:
        raise ValueError(f"no pairs: {count} reads with lag {lag}")
    return [(i, i + lag) for i in range(count - lag)]


def spacing_pairs(
    positions: np.ndarray, spacing_m: float, tolerance_m: float | None = None
) -> List[Pair]:
    """Pairs of reads separated by ``spacing_m`` meters of tag displacement.

    Works on any trajectory shape, including circles where index lag and
    chord length are not proportional. For each read ``i``, the first later
    read whose Euclidean displacement from ``i`` reaches ``spacing_m``
    (within ``tolerance_m``) is paired with it.

    Args:
        positions: tag positions, shape ``(n, dim)``.
        spacing_m: desired pair displacement, meters.
        tolerance_m: acceptable overshoot; defaults to half the median
            inter-sample step.

    Raises:
        ValueError: on non-positive spacing or when no pair qualifies.
    """
    points = np.asarray(positions, dtype=float)
    if spacing_m <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing_m}")
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two reads")
    if tolerance_m is None:
        steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
        positive = steps[steps > 0.0]
        tolerance_m = float(np.median(positive)) if positive.size else spacing_m * 0.1
    # This two-pointer scan is the adaptive sweep's hottest loop; plain
    # float arithmetic on Python rows avoids ~n tiny-array round trips
    # through np.linalg.norm (squaring, summing, and sqrt are all single
    # correctly-rounded IEEE ops, so the accepted pairs are unchanged).
    coords = points.tolist()
    dim = points.shape[1]
    limit = spacing_m + tolerance_m + 1e-12
    pairs: List[Pair] = []
    j = 0
    for i in range(n):
        first = coords[i]
        if j < i + 1:
            j = i + 1
        displacement = 0.0
        while j < n:
            row = coords[j]
            if dim == 2:
                dx = row[0] - first[0]
                dy = row[1] - first[1]
                squared = dx * dx + dy * dy
            elif dim == 3:
                dx = row[0] - first[0]
                dy = row[1] - first[1]
                dz = row[2] - first[2]
                squared = dx * dx + dy * dy + dz * dz
            else:
                squared = sum((a - b) * (a - b) for a, b in zip(row, first))
            displacement = math.sqrt(squared)
            if displacement >= spacing_m:
                break
            j += 1
        if j >= n:
            break
        if displacement <= limit:
            pairs.append((i, j))
    if not pairs:
        raise ValueError(
            f"no read pairs with spacing {spacing_m} m (trajectory too short?)"
        )
    return pairs


def all_pairs(count: int, max_pairs: int | None = None) -> List[Pair]:
    """Every ``(i, j)`` with ``i < j``; optionally deterministically thinned.

    Quadratic in ``count`` — intended for ablations, not production use.

    Raises:
        ValueError: if fewer than two reads are given.
    """
    if count < 2:
        raise ValueError("need at least two reads")
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    if max_pairs is not None and len(pairs) > max_pairs:
        stride = len(pairs) / max_pairs
        pairs = [pairs[int(k * stride)] for k in range(max_pairs)]
    return pairs


def random_pairs(count: int, pair_count: int, rng: np.random.Generator) -> List[Pair]:
    """``pair_count`` distinct random pairs (ablation baseline).

    Raises:
        ValueError: if fewer than two reads or ``pair_count`` exceeds the
            number of distinct pairs.
    """
    if count < 2:
        raise ValueError("need at least two reads")
    total = count * (count - 1) // 2
    if not 0 < pair_count <= total:
        raise ValueError(f"pair_count must be in [1, {total}], got {pair_count}")
    chosen = rng.choice(total, size=pair_count, replace=False)
    pairs: List[Pair] = []
    for flat in np.sort(chosen):
        # Invert the triangular flattening (i, j) -> flat index.
        i = int(count - 2 - np.floor((np.sqrt(4 * count * (count - 1) - 8 * flat - 7) - 1) / 2))
        j = int(flat + i + 1 - count * (count - 1) // 2 + (count - i) * (count - i - 1) // 2)
        pairs.append((i, j))
    return pairs


def cross_segment_pairs(
    positions: np.ndarray,
    segment_ids: np.ndarray,
    segment_a: int,
    segment_b: int,
    match_axis: int = 0,
    max_mismatch_m: float = 0.01,
) -> List[Pair]:
    """Pairs matching reads of one segment to same-``match_axis`` reads of another.

    Used by the three-line pairing: a read at ``x_i`` on line L1 is paired
    with the read nearest to ``x_i`` on L2 (or L3), so the pair's
    displacement is purely along the inter-line offset axis.

    Args:
        positions: all tag positions, shape ``(n, dim)``.
        segment_ids: per-read segment ids, shape ``(n,)``.
        segment_a: id of the reference segment (paper: L1).
        segment_b: id of the partner segment.
        match_axis: coordinate along which reads are matched (paper: x).
        max_mismatch_m: drop matches whose ``match_axis`` coordinates
            differ by more than this.

    Raises:
        ValueError: if either segment has no reads.
    """
    points = np.asarray(positions, dtype=float)
    segments = np.asarray(segment_ids, dtype=int)
    index_a = np.flatnonzero(segments == segment_a)
    index_b = np.flatnonzero(segments == segment_b)
    if index_a.size == 0 or index_b.size == 0:
        raise ValueError(
            f"segments {segment_a} and {segment_b} must both contain reads"
        )
    coords_b = points[index_b, match_axis]
    order = np.argsort(coords_b)
    sorted_b = coords_b[order]
    size = sorted_b.size
    # Vectorized nearest-neighbor match: each reference read considers the
    # two sorted partners bracketing its insertion slot; ties go to the
    # lower-coordinate partner, as the scalar scan did.
    targets = points[index_a, match_axis]
    slots = np.searchsorted(sorted_b, targets)
    lower = np.clip(slots - 1, 0, size - 1)
    upper = np.clip(slots, 0, size - 1)
    lower_mismatch = np.where(slots > 0, np.abs(sorted_b[lower] - targets), np.inf)
    upper_mismatch = np.where(slots < size, np.abs(sorted_b[upper] - targets), np.inf)
    use_upper = upper_mismatch < lower_mismatch
    mismatch = np.where(use_upper, upper_mismatch, lower_mismatch)
    nearest = np.where(use_upper, upper, lower)
    keep = mismatch <= max_mismatch_m
    return [
        (int(a), int(b))
        for a, b in zip(index_a[keep], index_b[order[nearest[keep]]])
    ]


def three_line_pairs(
    positions: np.ndarray,
    segment_ids: np.ndarray,
    interval_m: float,
    line_ids: Sequence[int] = (0, 1, 2),
    match_axis: int = 0,
) -> List[Pair]:
    """The structured pairing of Sec. IV-B1 for the Fig. 11 scan.

    Three families of pairs, one per unknown coordinate:

    * **x**: ``(P_i, P_{i+k})`` within the reference line L1, where the
      index lag ``k`` realises the scanning interval ``x_o = interval_m``;
    * **y**: ``(P_i on L1, same-x read on L3)``;
    * **z**: ``(P_i on L1, same-x read on L2)``.

    Args:
        positions: all tag positions, shape ``(n, 3)``.
        segment_ids: per-read segment ids.
        interval_m: scanning interval ``x_o`` for the within-line pairs.
        line_ids: segment ids of (L1, L2, L3) in that order.
        match_axis: sweep axis (0 = x).

    Returns:
        The concatenated pair list (x pairs, then y, then z).

    Raises:
        ValueError: if any line lacks reads or no x-pair fits the interval.
    """
    points = np.asarray(positions, dtype=float)
    segments = np.asarray(segment_ids, dtype=int)
    l1, l2, l3 = line_ids
    index_l1 = np.flatnonzero(segments == l1)
    if index_l1.size < 2:
        raise ValueError("reference line needs at least two reads")

    # Within-L1 pairs at the requested interval along the sweep axis.
    coords = points[index_l1, match_axis]
    order = np.argsort(coords)
    sorted_idx = index_l1[order]
    sorted_coords = coords[order]
    step = float(np.median(np.diff(sorted_coords)))
    if step <= 0.0:
        raise ValueError("reference line reads do not advance along the sweep axis")
    lag = max(int(round(interval_m / step)), 1)
    if sorted_idx.size - lag < 1:
        raise ValueError(
            f"interval {interval_m} m too large for sweep of "
            f"{sorted_coords[-1] - sorted_coords[0]:.3f} m"
        )
    pairs: List[Pair] = [
        (int(sorted_idx[i]), int(sorted_idx[i + lag]))
        for i in range(sorted_idx.size - lag)
    ]

    pairs += cross_segment_pairs(points, segments, l1, l3, match_axis)
    pairs += cross_segment_pairs(points, segments, l1, l2, match_axis)
    return pairs


def multisegment_pairs(
    positions: np.ndarray,
    segment_ids: np.ndarray,
    interval_m: float,
    unique_ids: np.ndarray | None = None,
) -> List[Pair]:
    """Generic pairing for multi-segment scans that are not the three-line scan.

    Pairs within each segment at the interval, plus across consecutive
    segments by matching the sweep coordinate.

    Raises:
        ValueError: if no pair can be built at all.
    """
    if unique_ids is None:
        unique_ids = np.unique(segment_ids)
    pairs: List[Pair] = []
    unique = [int(v) for v in unique_ids]
    for segment in unique:
        index = np.flatnonzero(segment_ids == segment)
        if index.size < 2:
            continue
        try:
            local = spacing_pairs(positions[index], interval_m)
        except ValueError:
            continue
        pairs += [(int(index[i]), int(index[j])) for i, j in local]
    for first, second in zip(unique, unique[1:]):
        pairs += cross_segment_pairs(positions, segment_ids, first, second)
    if not pairs:
        raise ValueError("could not build any radical-equation pairs")
    return pairs


def auto_pairs(
    positions: np.ndarray,
    segment_ids: np.ndarray | None,
    interval_m: float,
    dim: int,
) -> Sequence[Pair]:
    """The LION solver's default pair selection, from the scan structure.

    Three segments in 3D take the structured :func:`three_line_pairs`;
    other multi-segment scans take :func:`multisegment_pairs`; a single
    sweep takes :func:`spacing_pairs`, falling back to the widest index
    lag when the trajectory is shorter than the interval.
    """
    if segment_ids is not None:
        unique_ids = np.unique(segment_ids)
        if dim == 3 and unique_ids.size == 3:
            ids = tuple(int(v) for v in unique_ids)
            return three_line_pairs(positions, segment_ids, interval_m, line_ids=ids)
        if unique_ids.size > 1:
            return multisegment_pairs(positions, segment_ids, interval_m, unique_ids)
    try:
        return spacing_pairs(positions, interval_m)
    except ValueError:
        return lag_pairs(positions.shape[0], max(positions.shape[0] // 2, 1))
