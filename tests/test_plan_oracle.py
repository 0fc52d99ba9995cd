"""Every prepare path agrees with the one-shot path on generated scans.

The geometry half of a LION solve is built by
:func:`repro.core.plan.build_plan` and reached four ways: the uncached
one-shot :meth:`LionLocalizer.prepare`, the batched serve prepare (cold
and warm plan cache), the streaming :class:`IncrementalScanAssembler`,
and the fused adaptive sweep. On random, straight-line (including
non-axis-aligned 2D lines, which take the rotation frame) and
multi-segment scans, with random exclusion masks, reference overrides,
NaN phases and too few included reads, every path must return
bit-identical prepared scans and solutions, or raise the same error type.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.batch_prepare import batch_prepare
from repro.core.incremental import IncrementalScanAssembler
from repro.core.localizer import LionLocalizer, PreparedScan
from repro.core.plan import PLAN_CACHE
from repro.core.sweep import fused_sweep
from repro.pipeline.contract import EstimationRequest
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.raster import RasterScan

_FIELDS = (
    "solve_points",
    "used_profile",
    "used_segments",
    "reference_index",
    "missing_axis",
    "rotation",
    "frame_origin",
    "delta_d",
)


@st.composite
def scans(draw):
    """``(localizer, positions, phases, segments, mask, reference)``."""
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("random", "line", "multi")))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    segments = None
    transit = None
    if kind == "random":
        n = draw(st.integers(min_value=3, max_value=48))
        width = draw(st.sampled_from((2, 3)))
        positions = rng.uniform(-0.6, 0.6, size=(n, width))
    elif kind == "line":
        angle = draw(st.floats(min_value=0.0, max_value=np.pi))
        length = draw(st.floats(min_value=0.3, max_value=1.2))
        start = rng.uniform(-0.3, 0.3, size=3)
        start[2] = 0.0
        end = start + length * np.array([np.cos(angle), np.sin(angle), 0.0])
        samples = LinearTrajectory(start, end).sample(speed_mps=0.1, read_rate_hz=30.0)
        positions = samples.positions[:, :dim]
    else:
        raster = RasterScan(
            -0.4,
            0.4,
            row_axis=draw(st.sampled_from(("y", "z"))),
            row_count=draw(st.integers(min_value=2, max_value=4)),
            row_spacing=0.1,
        )
        samples = raster.sample(speed_mps=0.2, read_rate_hz=30.0)
        positions = samples.positions if dim == 3 else samples.positions[:, :2]
        segments = samples.segment_ids
        if draw(st.booleans()):
            transit = raster.transit_mask(samples)
    n = positions.shape[0]
    target = rng.uniform(-0.5, 0.5, size=positions.shape[1]) + 0.8
    distances = np.linalg.norm(positions - target, axis=1)
    phases = np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + rng.normal(0.0, 0.05, n),
        TWO_PI,
    )
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        phases[rng.integers(n)] = np.nan
    mask = transit
    mask_kind = draw(st.sampled_from(("none", "random", "heavy")))
    if mask_kind != "none":
        keep = 0.5 if mask_kind == "random" else 2.5 / n
        extra = rng.random(n) > keep
        mask = extra if mask is None else mask | extra
    reference = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
    localizer = LionLocalizer(dim=dim, interval_m=draw(st.sampled_from((0.05, 0.1, 0.25))))
    return localizer, positions, phases, segments, mask, reference


def _outcome(fn):
    try:
        return fn()
    except ValueError as error:
        return error


def _assert_same_prepared(ours, theirs):
    if isinstance(theirs, ValueError):
        assert type(ours) is type(theirs), (ours, theirs)
        return
    assert isinstance(ours, PreparedScan), ours
    for name in _FIELDS:
        a, b = getattr(ours, name), getattr(theirs, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


def _assert_same_result(ours, theirs):
    if isinstance(theirs, ValueError):
        assert type(ours) is type(theirs), (ours, theirs)
        return
    assert not isinstance(ours, ValueError), ours
    assert np.array_equal(ours.position, theirs.position)
    assert ours.reference_distance_m == theirs.reference_distance_m
    assert np.array_equal(ours.solution.residuals, theirs.solution.residuals)


@given(scans())
@settings(max_examples=120, deadline=None)
def test_prepare_paths_agree(scan):
    localizer, positions, phases, segments, mask, reference = scan
    expected = _outcome(
        lambda: localizer.prepare(
            positions,
            phases,
            segment_ids=segments,
            exclude_mask=mask,
            reference_index=reference,
        )
    )
    request = EstimationRequest(
        positions=positions,
        phases_rad=phases,
        segment_ids=segments,
        exclude_mask=mask,
        reference_index=reference,
    )
    PLAN_CACHE.clear()
    cold = batch_prepare(localizer, [request])[0]
    warm = batch_prepare(localizer, [request])[0]
    _assert_same_prepared(cold, expected)
    _assert_same_prepared(warm, expected)

    # The assembler validates reads as they arrive, so it joins on
    # unmasked scans with finite phases.
    if mask is None and np.isfinite(phases).all():
        assembler = IncrementalScanAssembler(localizer, max_reads=positions.shape[0])
        for index in range(positions.shape[0]):
            segment = 0 if segments is None else int(segments[index])
            assembler.append(positions[index], phases[index], segment_id=segment)
        _assert_same_prepared(_outcome(lambda: assembler.prepare(reference)), expected)
        if reference is None:
            located = _outcome(
                lambda: localizer.locate(positions, phases, segment_ids=segments)
            )
            _assert_same_result(_outcome(assembler.resolve), located)


@given(scans(), st.lists(st.sampled_from((0.05, 0.1, 0.25, 0.5)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_fused_sweep_cells_match_scalar_locate(scan, intervals):
    localizer, positions, phases, segments, mask, _ = scan
    n = positions.shape[0]
    profile = localizer.preprocess_phase(phases, segment_ids=segments)
    base = np.zeros(n, dtype=bool) if mask is None else mask
    window = np.abs(positions[:, 0] - positions[:, 0].mean()) > 0.3
    excludes = np.stack([base, base | window])
    cells = [(0.0, interval, row) for row in (0, 1) for interval in intervals]
    PLAN_CACHE.clear()
    for _ in range(2):  # cold, then warm plan cache
        fused = fused_sweep(localizer, positions, profile, segments, excludes, cells)
        for (_, interval, row), ours in zip(cells, fused):
            theirs = _outcome(
                lambda: localizer.locate(
                    positions,
                    profile,
                    segment_ids=segments,
                    exclude_mask=excludes[row],
                    interval_m=interval,
                    assume_preprocessed=True,
                )
            )
            _assert_same_result(ours, theirs)
