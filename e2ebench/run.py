"""End-to-end benchmark of the LION service.

One command runs one named workload against the program as users run
it, checks every answer, and prints each metric by name with its unit::

    python3 e2ebench/run.py --workload wire-paper --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``wire-paper``: ``POST /v1/locate`` of 400-read line scans, 2 keep-alive
  connections against a fresh ``lion serve --port 0`` process.
- ``portal-burst``: pallets of 32 tags x 60 reads through an in-process
  ``ServeEngine``; each pallet shares one portal trajectory.
- ``stream-conveyor``: HTTP streaming sessions, 2 connections x 25 live
  tags, 16-read NDJSON chunks, ``DELETE`` for the final fix.
- ``fleet-recal``: ``RecalibrationScheduler`` cycles over 24 antennas that
  each hold ~720 committed versions, with a reader that resolves the
  fleet's calibrations after each commit, as serving does.

Inputs are generated from ``--seed`` before any timing starts. With
``--trace 0`` the last stdout line is the result object with the
end-to-end metrics that ``BENCHMARK.json`` lists (their generic names
are explained in ``e2ebench/metrics.py``); with ``--trace 1`` it
carries the per-layer metrics of a second, traced load phase, and
spans are written under ``.bench_run/``. Lines before the last one give the workload's own
named metrics, counts and, when traced, the latency ledger. A failed
correctness check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_MODULES = {
    "wire-paper": "wire",
    "portal-burst": "portal",
    "stream-conveyor": "conveyor",
    "fleet-recal": "fleet",
}


def _number(value: float) -> float:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"metric is not finite: {value}")
    return float(value)


def _unit(name: str) -> str:
    """Unit of a generic end-to-end metric, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_ms_per_op", "ms"), ("_s", "s"),
                         ("_slowness", "ratio")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the LION service.")
    parser.add_argument("--workload", required=True, choices=sorted(_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from e2ebench import common
    from e2ebench.metrics import end_to_end, per_layer

    module = importlib.import_module(f"e2ebench.{_MODULES[args.workload]}")
    spans = common.Spans(enabled=bool(args.trace))
    started = time.perf_counter()
    try:
        result = module.run(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            spans=spans, tiny=args.tiny,
        )
    except common.CorrectnessError as error:
        print(f"e2ebench: correctness check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    named = {
        name: {"value": round(value, 6), "unit": unit}
        for name, (value, unit) in result.named.items()
    }
    generic = {
        name: {"value": round(value, 6), "unit": _unit(name)}
        for name, value in result.e2e.items()
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "attempted": result.attempted,
        "succeeded": result.attempted - result.failed,
        "failed": result.failed,
        "named": named,
        "end_to_end": generic,
        "info": result.info,
        "run_s": round(time.perf_counter() - started, 3),
    }))
    for name, metric in {**generic, **named}.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        for line in result.ledger:
            print(line)
        trace_path = common.WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        spans.dump(trace_path)
        print(f"  spans: {len(spans.records)} written to {trace_path.relative_to(ROOT)}")
        metrics = {
            name: {"value": _number(result.layers[name]), "unit": unit}
            for name, unit in per_layer()
        }
    else:
        metrics = {
            name: {"value": _number(result.e2e[name]), "unit": unit}
            for name, unit in end_to_end()
        }
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - a crash must exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
