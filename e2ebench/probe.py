"""Host-speed probe: fixed work timed in CPU time, one measurement per request.

Runs as its own process (``python3 -m e2ebench.probe`` from the checkout
root), so the workload's threads and GIL do not touch what it measures.
Each line on stdin asks for one measurement; the answer is the CPU
seconds :func:`reference_work` took, one line on stdout. It exits when
stdin closes.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def reference_work() -> float:
    """A fixed mix of interpreter and small-array work, about a millisecond of CPU."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    values = np.linspace(0.0, 1.0, 512)
    for _ in range(40):
        values = np.sqrt(values * values + 1.0) - 0.5
    return total + float(values[0])


def main() -> None:
    for _ in sys.stdin:
        started = time.process_time()
        reference_work()
        print(time.process_time() - started, flush=True)


if __name__ == "__main__":
    main()
