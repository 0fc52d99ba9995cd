"""Crash injection: SIGKILL a committing process, then reopen the store.

A committer process opens the store and commits calibrations in a loop
(round-robin over a few antennas, CAS on each), printing ``antenna
version`` after every ``commit()`` returns — that line is the
acknowledgement. It is killed with ``SIGKILL`` at a random moment,
several rounds over the same store. After every kill the store must
reopen with contiguous versions from 1, every acknowledged version
present, and a generation equal to the number of records on disk.

Importing :mod:`repro` takes about a second, so one launcher process
imports it once and forks a fresh committer for each round; the
launcher reports ``dead`` once it has reaped the killed committer, after
every acknowledgement that committer wrote.
"""

import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.calib import CalibrationStore

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")

ROUNDS = 8

#: Kill the launcher's whole process group if the test runs this long.
DEADLINE_S = 60.0

_LAUNCHER = textwrap.dedent(
    """
    import os
    import sys

    import numpy as np

    from repro.calib import CalibrationStore
    from repro.core.calibration import AntennaCalibration


    def say(*words):
        # One write per line: a kill can then never leave half a line.
        os.write(1, (" ".join(map(str, words)) + "\\n").encode())


    def commit_forever(root):
        store = CalibrationStore(root)
        names = ("ant-000", "ant-001", "rack/7#a")
        say("ready", os.getpid())
        step = 0
        while True:
            name = names[step % len(names)]
            record = store.commit(
                AntennaCalibration(
                    antenna_name=name,
                    physical_center=np.array([0.0, 0.8, 0.0]),
                    estimated_center=np.array([0.01, 0.81, 0.005 * step]),
                    phase_offset_rad=0.001 * step,
                ),
                source="scheduled",
                expected_version=store.latest_version(name),
            )
            say(name, record.version)
            step += 1


    for _ in sys.stdin:
        pid = os.fork()
        if pid == 0:
            try:
                commit_forever(sys.argv[1])
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        say("dead", status)
    """
)


def _kill_round(launcher: subprocess.Popen, rng: random.Random) -> list:
    """Fork a committer, SIGKILL it at a random moment, return its acks."""
    launcher.stdin.write(b"go\n")
    launcher.stdin.flush()
    ready = launcher.stdout.readline().split()
    assert ready[:1] == [b"ready"], ready
    time.sleep(rng.uniform(0.0, 0.05))
    os.kill(int(ready[1]), signal.SIGKILL)
    acked = []
    for line in iter(launcher.stdout.readline, b""):
        if line.startswith(b"dead"):
            assert os.WTERMSIG(int(line.split()[1])) == signal.SIGKILL
            return acked
        name, version = line.decode().rsplit(" ", 1)
        acked.append((name, int(version)))
    raise AssertionError("the launcher exited before reaping its committer")


def _check_rounds(launcher: subprocess.Popen, root: Path) -> None:
    rng = random.Random(20260117)
    acked_total = 0
    for _ in range(ROUNDS):
        acked = _kill_round(launcher, rng)
        acked_total += len(acked)
        store = CalibrationStore(root, create=False)
        for name in store.antennas():
            versions = [record.version for record in store.history(name)]
            assert versions == list(range(1, len(versions) + 1))
        for name, version in acked:
            assert store.get(name, version).antenna == name
        lines = sum(
            len(path.read_bytes().splitlines())
            for path in (root / "antennas").glob("*.jsonl")
        )
        assert store.generation == lines
        assert store.generation >= acked_total
    assert acked_total > 0, "the committer never acknowledged a commit"


def test_sigkill_mid_commit_loses_no_acknowledged_version(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    launcher = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, str(tmp_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    # A blocked pipe read would otherwise hang the suite; killing the
    # group (launcher and committer) turns it into EOF and a failure.
    watchdog = threading.Timer(DEADLINE_S, os.killpg, (launcher.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _check_rounds(launcher, tmp_path)
    finally:
        watchdog.cancel()
        launcher.stdin.close()
        launcher.wait(timeout=10)
    assert launcher.returncode == 0
