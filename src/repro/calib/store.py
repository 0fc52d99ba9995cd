"""Append-only, versioned per-antenna calibration store.

Durability model: one JSON-lines file per antenna under
``<root>/antennas/`` (versions ascending, one
:meth:`~repro.calib.records.CalibrationRecord.to_dict` per line) plus a
``meta.json`` holding the format version and ``meta_set`` entries
(fsynced temp file + ``os.replace``, then an fsync of the root, whose
parent is fsynced too when the store is created). A commit writes its one line
through an ``O_APPEND`` descriptor and fsyncs the file before returning;
an antenna's first commit also fsyncs ``antennas/``. History is never
rewritten. A crash mid-append can leave a torn, never-acknowledged last
line with no newline: the next open truncates it, logs a warning and
counts ``calib.torn_tail_total``. A complete line that fails to parse,
anywhere in a file, fails the open with
:class:`~repro.calib.errors.CorruptRecordError`. Reads are served from
an in-memory index loaded at open.

Concurrency model: one writer process, many reader threads. A process
holds the store open and serializes commits under an internal lock;
compare-and-swap versioning (``expected_version``) turns lost races —
two schedulers recalibrating the same antenna, an operator POST landing
mid-cycle — into explicit :class:`~repro.calib.errors.VersionConflictError`
instead of silent overwrites. The store-wide ``generation`` counter
increments on every commit and is derived on open as the total record
count, so it can never fall behind the records; caches keyed on it (the
serve-side :class:`~repro.calib.resolver.CalibrationResolver`) invalidate
without watching individual antennas.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calib.errors import (
    CorruptRecordError,
    UnknownAntennaError,
    VersionConflictError,
)
from repro.calib.records import CalibrationRecord
from repro.core.calibration import AntennaCalibration, relative_phase_offsets
from repro.obs import LATENCY_BUCKETS_S, get_logger, get_registry, metrics_enabled

#: On-disk format version, bumped on incompatible layout changes.
FORMAT_VERSION = 1

#: ``calib.commit_seconds`` / ``calib.fsync_seconds`` buckets: an
#: append + fsync takes tens to hundreds of microseconds.
_COMMIT_BUCKETS_S = (2.5e-5, 5e-5, 1e-4, 2.5e-4) + LATENCY_BUCKETS_S

_logger = get_logger("calib.store")

_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _safe_filename(antenna: str) -> str:
    """Filesystem-safe encoding of an antenna name (reversible enough:
    the real name lives inside every record; the filename is only a
    bucket key)."""
    encoded = "".join(
        ch if ch in _SAFE_CHARS else f"%{ord(ch):02x}" for ch in antenna
    )
    return f"{encoded}.jsonl"


def _fsync(fd: int) -> None:
    started = time.perf_counter()
    os.fsync(fd)
    if metrics_enabled():
        elapsed = time.perf_counter() - started
        get_registry().histogram("calib.fsync_seconds", buckets=_COMMIT_BUCKETS_S).observe(elapsed)


def _append_durably(path: Path, data: bytes, sync_dir: bool) -> None:
    """Append ``data`` to ``path`` and fsync it (and its directory when
    ``sync_dir``); a failed write is truncated away, never left torn."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            _fsync(fd)
        except OSError:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)
    if sync_dir:
        _fsync_dir(path.parent)


def _fsync_dir(path: Path) -> None:
    """Fsync a directory, making its entries (creates, renames) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


class CalibrationStore:
    """The fleet calibration registry; see module docstring for layout.

    Args:
        root: store directory; created when ``create`` is true.
        create: create the directory tree and ``meta.json`` if absent.
        clock: injectable wall clock (tests); defaults to ``time.time``.

    Raises:
        FileNotFoundError: ``create=False`` and the store does not exist.
        CorruptRecordError: a persisted record or the meta file fails to
            parse or validate on load.
    """

    def __init__(
        self,
        root: str | Path,
        create: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._root = Path(root)
        self._antennas_dir = self._root / "antennas"
        self._meta_path = self._root / "meta.json"
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        self._lock = threading.RLock()
        self._index: Dict[str, List[CalibrationRecord]] = {}
        self._generation = 0
        self._meta_extra: Dict[str, Any] = {}
        self._listeners: Dict[int, Callable[[CalibrationRecord], None]] = {}
        self._next_token = 0
        if not self._meta_path.exists():
            if not create:
                raise FileNotFoundError(f"no calibration store at {self._root}")
            self._antennas_dir.mkdir(parents=True, exist_ok=True)
            self._write_meta()
            # _write_meta synced the root (meta.json, antennas/); the
            # parent holds the root's own entry.
            _fsync_dir(self._root.parent)
        self._load()

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        try:
            meta = json.loads(self._meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptRecordError(f"unreadable store meta: {exc}") from exc
        if meta.get("format") != FORMAT_VERSION:
            raise CorruptRecordError(
                f"unsupported store format {meta.get('format')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        # Older stores persisted "generation"; it is derived from the records.
        self._meta_extra = {
            key: value
            for key, value in meta.items()
            if key not in ("format", "generation")
        }
        self._index = {}
        for path in sorted(self._antennas_dir.glob("*.jsonl")):
            records: List[CalibrationRecord] = []
            for line_no, line in enumerate(self._read_lines(path), start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as exc:
                    raise CorruptRecordError(
                        f"{path.name}:{line_no}: invalid JSON: {exc}"
                    ) from exc
                records.append(CalibrationRecord.from_dict(payload))
            if not records:
                continue
            expected = list(range(1, len(records) + 1))
            if [record.version for record in records] != expected:
                raise CorruptRecordError(
                    f"{path.name}: versions must be contiguous from 1, "
                    f"got {[record.version for record in records]}"
                )
            names = {record.antenna for record in records}
            if len(names) != 1:
                raise CorruptRecordError(f"{path.name}: mixed antenna names {names}")
            self._index[records[0].antenna] = records
        self._generation = sum(len(records) for records in self._index.values())

    @staticmethod
    def _read_lines(path: Path) -> List[str]:
        """The file's complete lines; a torn tail (an unacknowledged append
        cut short by a crash) is truncated away first."""
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            _logger.warning(
                "%s: truncating %d-byte torn tail of an interrupted append", path, len(data) - end
            )
            with open(path, "r+b") as handle:
                handle.truncate(end)
                os.fsync(handle.fileno())
            if metrics_enabled():
                get_registry().counter("calib.torn_tail_total").inc()
            data = data[:end]
        return data.decode("utf-8").splitlines()

    # -- meta -------------------------------------------------------------

    def _write_meta(self) -> None:
        tmp = self._meta_path.with_name(self._meta_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"format": FORMAT_VERSION, **self._meta_extra}, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._meta_path)
        _fsync_dir(self._root)

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    @property
    def generation(self) -> int:
        """Store-wide commit counter: the total record count, so it
        increments on every commit."""
        with self._lock:
            return self._generation

    def meta_get(self, key: str, default: Any = None) -> Any:
        """Read an auxiliary meta entry (e.g. the CLI's fleet-sim state)."""
        with self._lock:
            return self._meta_extra.get(key, default)

    def meta_set(self, key: str, value: Any) -> None:
        """Persist an auxiliary JSON-safe meta entry atomically."""
        with self._lock:
            self._meta_extra[key] = value
            self._write_meta()

    # -- reads ------------------------------------------------------------

    def antennas(self) -> Tuple[str, ...]:
        """All antenna names with at least one record, sorted."""
        with self._lock:
            return tuple(sorted(self._index))

    def latest_version(self, antenna: str) -> int:
        """Current version of ``antenna``; 0 when it has no records."""
        with self._lock:
            records = self._index.get(antenna)
            return records[-1].version if records else 0

    def latest(self, antenna: str) -> CalibrationRecord:
        """The newest record for ``antenna``.

        Raises:
            UnknownAntennaError: no records for that antenna.
        """
        with self._lock:
            records = self._index.get(antenna)
            if not records:
                raise UnknownAntennaError(antenna)
            return records[-1]

    def get(self, antenna: str, version: int) -> CalibrationRecord:
        """A specific committed version.

        Raises:
            UnknownAntennaError: no records for that antenna.
            KeyError: the antenna exists but not that version.
        """
        with self._lock:
            records = self._index.get(antenna)
            if not records:
                raise UnknownAntennaError(antenna)
            if not 1 <= version <= len(records):
                raise KeyError(
                    f"antenna {antenna!r} has versions 1..{len(records)}, "
                    f"requested {version}"
                )
            return records[version - 1]

    def history(self, antenna: str) -> Tuple[CalibrationRecord, ...]:
        """All committed versions of ``antenna``, oldest first.

        Raises:
            UnknownAntennaError: no records for that antenna.
        """
        with self._lock:
            records = self._index.get(antenna)
            if not records:
                raise UnknownAntennaError(antenna)
            return tuple(records)

    # -- commit -----------------------------------------------------------

    def commit(
        self,
        calibration: AntennaCalibration,
        *,
        source: str = "scan",
        reads: Optional[int] = None,
        residual_rms_m: Optional[float] = None,
        config_hash: Optional[str] = None,
        manifest: Optional[Mapping[str, Any]] = None,
        expected_version: Optional[int] = None,
    ) -> CalibrationRecord:
        """Append a new calibration version for one antenna.

        The store assigns ``version = latest + 1``. With
        ``expected_version`` given, the commit succeeds only if it equals
        the current latest (0 for a first commit) — the compare-and-swap
        that serializes racing recalibrations.

        Returns:
            The committed record (with its assigned version).

        Raises:
            VersionConflictError: the CAS check failed.
        """
        return self._commit(
            calibration.antenna_name,
            expected_version,
            lambda version: CalibrationRecord.from_calibration(
                calibration,
                version=version,
                created_unix=float(self._clock()),
                source=source,
                reads=reads,
                residual_rms_m=residual_rms_m,
                config_hash=config_hash,
                manifest=manifest,
            ),
        )

    def commit_record(
        self,
        record: CalibrationRecord,
        *,
        expected_version: Optional[int] = None,
    ) -> CalibrationRecord:
        """Commit a fully-formed record, restamping its version.

        The HTTP surface uses this: the wire payload parses into a
        record, the store assigns the authoritative version and commit
        time.

        Raises:
            VersionConflictError: the CAS check failed.
        """
        return self._commit(record.antenna, expected_version, record.with_version)

    def _commit(
        self,
        antenna: str,
        expected_version: Optional[int],
        build: Callable[[int], CalibrationRecord],
    ) -> CalibrationRecord:
        """CAS-check, then append the next version durably, under the lock."""
        with self._lock:
            started = time.perf_counter()
            current = self.latest_version(antenna)
            if expected_version is not None and expected_version != current:
                raise VersionConflictError(antenna, expected_version, current)
            record = build(current + 1)
            first = antenna not in self._index
            if first:
                self._antennas_dir.mkdir(parents=True, exist_ok=True)
            line = (json.dumps(record.to_dict()) + "\n").encode("utf-8")
            _append_durably(self._antennas_dir / _safe_filename(antenna), line, sync_dir=first)
            self._index.setdefault(antenna, []).append(record)
            self._generation += 1
            for callback in list(self._listeners.values()):
                callback(record)
            if metrics_enabled():
                elapsed = time.perf_counter() - started
                get_registry().histogram("calib.commit_seconds", buckets=_COMMIT_BUCKETS_S).observe(elapsed)
            return record

    # -- commit listeners -------------------------------------------------

    def subscribe(self, callback: Callable[[CalibrationRecord], None]) -> int:
        """Register a post-commit callback; returns an unsubscribe token.

        Callbacks fire synchronously on the committing thread, after the
        record is durable and the generation has advanced.
        """
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._listeners[token] = callback
            return token

    def unsubscribe(self, token: int) -> None:
        """Remove a previously registered commit callback."""
        with self._lock:
            self._listeners.pop(token, None)

    # -- fleet views ------------------------------------------------------

    def records_for(
        self,
        antennas: Sequence[str],
        versions: Optional[Mapping[str, int]] = None,
    ) -> Tuple[CalibrationRecord, ...]:
        """Latest (or pinned-version) records for an ordered antenna list.

        Raises:
            UnknownAntennaError: any antenna without records.
        """
        pins = dict(versions or {})
        with self._lock:
            return tuple(
                self.get(name, pins[name]) if name in pins else self.latest(name)
                for name in antennas
            )

    def offsets_for(
        self,
        antennas: Sequence[str],
        reference_index: int = 0,
        versions: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Relative phase offsets (reference antenna cancelled), ordered.

        Exactly :func:`repro.core.calibration.relative_phase_offsets`
        over the stored calibrations — what
        ``lion-multiantenna``'s ``offset_corrections_rad`` consumes.
        """
        records = self.records_for(antennas, versions=versions)
        calibrations = [record.to_calibration() for record in records]
        relative = relative_phase_offsets(calibrations, reference_index=reference_index)
        return np.asarray([relative[name] for name in antennas], dtype=float)

    def centers_for(
        self,
        antennas: Sequence[str],
        dim: int = 3,
        versions: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Calibrated phase centers, shape ``(n, dim)``, ordered."""
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        records = self.records_for(antennas, versions=versions)
        centers = np.asarray(
            [record.estimated_center for record in records], dtype=float
        )
        return centers[:, :dim]

    def fleet_status(
        self,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """JSON-safe fleet summary for ``/statz`` and ``lion calib status``.

        With ``max_age_s`` given, antennas whose latest record is older
        are counted (and listed) as stale-by-age; drift-alarm staleness
        is the :class:`~repro.calib.staleness.DriftMonitor`'s job.
        """
        timestamp = float(self._clock()) if now is None else float(now)
        with self._lock:
            latest = {name: records[-1] for name, records in self._index.items()}
            generation = self._generation
        stale = [
            name
            for name, record in sorted(latest.items())
            if max_age_s is not None and record.age_s(timestamp) > max_age_s
        ]
        return {
            "generation": generation,
            "antennas": len(latest),
            "versions_total": sum(record.version for record in latest.values()),
            "stale_by_age": stale,
            "latest": {
                name: record.summary(now=timestamp)
                for name, record in sorted(latest.items())
            },
        }
