"""Fused vs per-cell throughput of the adaptive (range, interval) sweep.

Runs the paper's default 6x6 sweep grid over a Monte-Carlo-style sequence
of re-noised scans, once through the legacy per-cell dispatch and once
through the fused engine (shared preparation, cached pairing, masked
batch IRLS), asserts the two are bit-identical per repeat, and records
cells/second, the fused speedup, and the plan-cache hit rate as JSON
(``BENCH_adaptive_sweep.json``). CI runs the quick sizing on every PR,
uploads the JSON, and fails if fused cells/second regresses more than
20% against ``benchmarks/baselines/BENCH_adaptive_sweep.json``.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py --out BENCH_adaptive_sweep.json
    PYTHONPATH=src python benchmarks/bench_adaptive_sweep.py --quick   # CI smoke sizing

or under pytest-benchmark along with the other benches::

    PYTHONPATH=src pytest benchmarks/bench_adaptive_sweep.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import ParameterGrid, _adaptive_localize_impl
from repro.core.localizer import LionLocalizer
from repro.core.plan import PLAN_CACHE
from repro.obs import collect_manifest

#: Reads per scan; the paper-scale line scan the sweep masks down.
READS = 400

_TARGET = np.array([0.08, 0.85])
_X = np.linspace(-0.6, 0.6, READS)
_POSITIONS = np.stack([_X, np.zeros_like(_X)], axis=1)
_DISTANCES = np.linalg.norm(_POSITIONS - _TARGET, axis=1)


def _phases(seed: int) -> np.ndarray:
    """One re-noised wrapped profile of the fixed trajectory."""
    rng = np.random.default_rng(seed)
    return np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * _DISTANCES
        + 0.4
        + rng.normal(0.0, 0.05, READS),
        TWO_PI,
    )


def _sweep_once(localizer, phases, grid, fused):
    return _adaptive_localize_impl(
        localizer, _POSITIONS, phases, grid=grid, fused=fused
    )


def run_study(repeats: int) -> Dict[str, object]:
    """Time both sweep paths over ``repeats`` re-noised scans."""
    grid = ParameterGrid()
    cells = sum(
        1
        for range_m in grid.ranges_m
        for interval_m in grid.intervals_m
        if interval_m < range_m
    )
    localizer = LionLocalizer(dim=2)
    profiles = [_phases(seed) for seed in range(repeats)]

    timings: Dict[str, float] = {}
    positions: Dict[str, List[np.ndarray]] = {}
    PLAN_CACHE.clear()
    for mode, fused in (("per_cell", False), ("fused", True)):
        start = time.perf_counter()
        results = [_sweep_once(localizer, phases, grid, fused) for phases in profiles]
        timings[mode] = time.perf_counter() - start
        positions[mode] = [result.position for result in results]
    cache = PLAN_CACHE.info()

    # The fused engine must not change the answer, only the wall clock.
    for ours, theirs in zip(positions["fused"], positions["per_cell"]):
        assert np.array_equal(ours, theirs), "fused sweep changed the result"

    cells_per_sec = {
        mode: cells * repeats / seconds for mode, seconds in timings.items()
    }
    return {
        "benchmark": "adaptive_sweep_fused",
        "repeats": repeats,
        "reads": READS,
        "grid_cells": cells,
        "cpu_count": os.cpu_count(),
        "seconds": {mode: round(seconds, 4) for mode, seconds in timings.items()},
        "cells_per_sec": {
            mode: round(rate, 2) for mode, rate in cells_per_sec.items()
        },
        "speedup_fused": round(cells_per_sec["fused"] / cells_per_sec["per_cell"], 3),
        "plan_cache": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "hit_rate": cache["hit_rate"] or 0.0,
        },
        "manifest": collect_manifest(
            seed=0, config={"repeats": repeats, "reads": READS, "grid_cells": cells}
        ).to_dict(),
    }


def test_bench_adaptive_sweep_fused_matches(benchmark):
    """Smoke-sized study: fused path is bit-identical and faster."""
    payload = benchmark.pedantic(run_study, kwargs={"repeats": 4}, iterations=1, rounds=1)
    print()
    print("== adaptive sweep, cells/second ==")
    for mode, rate in payload["cells_per_sec"].items():
        print(f"  {mode:>9}: {rate:9.1f}")
    print(f"  fused speedup: {payload['speedup_fused']:.2f}x")
    print(f"  plan-cache hit rate: {payload['plan_cache']['hit_rate']:.0%}")
    assert payload["speedup_fused"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=30,
        help="re-noised sweeps per mode (default: 30)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (8 repeats)"
    )
    parser.add_argument(
        "--out", default="BENCH_adaptive_sweep.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    repeats = 8 if args.quick else args.repeats
    payload = run_study(repeats)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
