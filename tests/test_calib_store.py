"""Tests for the versioned calibration store (repro.calib.store/records)."""

import json
import os
import stat

import numpy as np
import pytest

from repro.calib import (
    CalibrationRecord,
    CalibrationResolver,
    CalibrationStore,
    CorruptRecordError,
    UnknownAntennaError,
    VersionConflictError,
)
from repro.core.calibration import AntennaCalibration
from repro.obs import disable_metrics, enable_metrics, scoped_registry


def _calibration(name="ant-000", offset=1.25, center=(0.01, 0.81, 0.005)):
    return AntennaCalibration(
        antenna_name=name,
        physical_center=np.array([0.0, 0.8, 0.0]),
        estimated_center=np.array(center),
        phase_offset_rad=offset,
    )


class TestCalibrationRecord:
    def test_round_trip(self):
        record = CalibrationRecord.from_calibration(
            _calibration(),
            version=3,
            created_unix=1234.5,
            source="scan",
            reads=400,
            residual_rms_m=0.0012,
            manifest={"run": "abc"},
        )
        clone = CalibrationRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.manifest == {"run": "abc"}

    def test_to_calibration_inverts_from_calibration(self):
        calibration = _calibration(offset=5.9)
        record = CalibrationRecord.from_calibration(
            calibration, version=1, created_unix=0.0, source="scan"
        )
        back = record.to_calibration()
        assert back.antenna_name == calibration.antenna_name
        assert back.phase_offset_rad == calibration.phase_offset_rad
        assert np.array_equal(back.estimated_center, calibration.estimated_center)

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(CorruptRecordError):
            CalibrationRecord.from_dict({"antenna": "a"})

    def test_validation(self):
        with pytest.raises(CorruptRecordError):
            CalibrationRecord(
                antenna="a",
                version=0,
                physical_center=(0.0, 0.0, 0.0),
                estimated_center=(0.0, 0.0, 0.0),
                phase_offset_rad=0.0,
                created_unix=0.0,
            )
        with pytest.raises(CorruptRecordError):
            CalibrationRecord(
                antenna="a",
                version=1,
                physical_center=(0.0, 0.0),
                estimated_center=(0.0, 0.0, 0.0),
                phase_offset_rad=0.0,
                created_unix=0.0,
            )


class TestCalibrationStore:
    def test_commit_assigns_contiguous_versions(self, tmp_path):
        store = CalibrationStore(tmp_path)
        first = store.commit(_calibration(offset=1.0), source="scan")
        second = store.commit(_calibration(offset=2.0), source="scheduled")
        assert (first.version, second.version) == (1, 2)
        assert store.latest("ant-000").phase_offset_rad == 2.0
        assert store.get("ant-000", 1).phase_offset_rad == 1.0
        assert [r.version for r in store.history("ant-000")] == [1, 2]
        assert store.generation == 2

    def test_unknown_antenna_and_version(self, tmp_path):
        store = CalibrationStore(tmp_path)
        with pytest.raises(UnknownAntennaError):
            store.latest("ghost")
        store.commit(_calibration(), source="scan")
        with pytest.raises(KeyError):
            store.get("ant-000", 7)

    def test_cas_conflict(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration(), source="scan", expected_version=0)
        with pytest.raises(VersionConflictError) as excinfo:
            store.commit(_calibration(), source="scan", expected_version=0)
        assert excinfo.value.antenna == "ant-000"
        assert excinfo.value.expected == 0
        assert excinfo.value.actual == 1
        # Matching token commits fine.
        record = store.commit(_calibration(), source="scan", expected_version=1)
        assert record.version == 2

    def test_persistence_across_reopen(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration("rack/7#a", offset=0.5), source="manual")
        store.commit(_calibration("rack/7#a", offset=0.75), source="manual")
        store.meta_set("sim", {"seed": 9})
        reopened = CalibrationStore(tmp_path, create=False)
        assert reopened.antennas() == ("rack/7#a",)
        assert reopened.latest("rack/7#a").phase_offset_rad == 0.75
        assert reopened.generation == store.generation
        assert reopened.meta_get("sim") == {"seed": 9}

    def test_corrupt_line_fails_load(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration(), source="scan")
        jsonl = next((tmp_path / "antennas").glob("*.jsonl"))
        jsonl.write_text(jsonl.read_text() + "not json\n")
        with pytest.raises(CorruptRecordError):
            CalibrationStore(tmp_path, create=False)

    def test_subscribers_fire_post_commit(self, tmp_path):
        store = CalibrationStore(tmp_path)
        seen = []
        token = store.subscribe(lambda record: seen.append(record.version))
        store.commit(_calibration(), source="scan")
        store.unsubscribe(token)
        store.commit(_calibration(), source="scan")
        assert seen == [1]

    def test_offsets_and_centers_with_version_pins(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration("a", offset=1.0), source="scan")
        store.commit(_calibration("b", offset=2.0), source="scan")
        store.commit(_calibration("a", offset=1.5), source="scan")
        latest = store.offsets_for(("a", "b"))
        pinned = store.offsets_for(("a", "b"), versions={"a": 1})
        assert latest[1] - latest[0] == pytest.approx(0.5)
        assert pinned[1] - pinned[0] == pytest.approx(1.0)
        centers = store.centers_for(("a", "b"), dim=2)
        assert centers.shape == (2, 2)
        with pytest.raises(UnknownAntennaError):
            store.offsets_for(("a", "ghost"))

    def test_fleet_status_rollup(self, tmp_path):
        clock = [1000.0]
        store = CalibrationStore(tmp_path, clock=lambda: clock[0])
        store.commit(_calibration("a"), source="scan")
        clock[0] += 7200.0
        store.commit(_calibration("b"), source="scan")
        status = store.fleet_status(max_age_s=3600.0, now=clock[0])
        assert status["antennas"] == 2
        assert status["versions_total"] == 2
        assert status["stale_by_age"] == ["a"]
        assert status["latest"]["a"]["version"] == 1

    def test_meta_survives_atomic_write(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.meta_set("note", [1, 2, 3])
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["note"] == [1, 2, 3]
        assert meta["format"] == 1


class TestDurability:
    """The on-disk contract: real appends, fsynced, never rewriting history."""

    def test_generation_is_derived_from_records(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration("a"), source="scan")
        store.commit(_calibration("b"), source="scan")
        store.commit(_calibration("a"), source="scan")
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert "generation" not in meta
        meta["generation"] = 1  # a stale hint from an older layout is ignored
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        reopened = CalibrationStore(tmp_path, create=False)
        assert reopened.generation == store.generation == 3
        assert reopened.meta_get("generation") is None

    def test_torn_tail_is_truncated(self, tmp_path):
        store = CalibrationStore(tmp_path)
        for offset in (1.0, 2.0, 3.0):
            store.commit(_calibration(offset=offset), source="scan")
        jsonl = next((tmp_path / "antennas").glob("*.jsonl"))
        intact = jsonl.read_bytes()
        jsonl.write_bytes(intact + intact.splitlines(keepends=True)[-1][:40])
        enable_metrics()
        try:
            with scoped_registry() as registry:
                reopened = CalibrationStore(tmp_path, create=False)
                counters = registry.snapshot()["counters"]
        finally:
            disable_metrics()
        assert jsonl.read_bytes() == intact
        assert [c["value"] for c in counters if c["name"] == "calib.torn_tail_total"] == [1.0]
        assert [r.phase_offset_rad for r in reopened.history("ant-000")] == [1.0, 2.0, 3.0]
        assert reopened.generation == 3
        record = reopened.commit(_calibration(offset=4.0), source="scan", expected_version=3)
        assert record.version == 4
        again = CalibrationStore(tmp_path, create=False)
        assert [r.version for r in again.history("ant-000")] == [1, 2, 3, 4]

    def test_torn_only_line_leaves_empty_antenna(self, tmp_path):
        CalibrationStore(tmp_path)
        (tmp_path / "antennas" / "ant-000.jsonl").write_bytes(b'{"antenna": "ant-0')
        store = CalibrationStore(tmp_path, create=False)
        assert store.antennas() == ()
        assert store.commit(_calibration(), source="scan").version == 1
        assert CalibrationStore(tmp_path, create=False).latest_version("ant-000") == 1

    def test_corrupt_mid_file_line_still_fails(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration(offset=1.0), source="scan")
        store.commit(_calibration(offset=2.0), source="scan")
        jsonl = next((tmp_path / "antennas").glob("*.jsonl"))
        first, second = jsonl.read_bytes().splitlines(keepends=True)
        jsonl.write_bytes(first[:30] + b"\n" + second)
        with pytest.raises(CorruptRecordError):
            CalibrationStore(tmp_path, create=False)

    def test_commit_appends_and_fsyncs(self, tmp_path, monkeypatch):
        file_fsyncs = []
        dir_fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                file_fsyncs.append(fd)
            elif stat.S_ISDIR(info.st_mode):
                dir_fsyncs.append(info.st_ino)
            real_fsync(fd)

        def inode(path):
            return os.stat(path).st_ino

        monkeypatch.setattr(os, "fsync", counting_fsync)
        root = tmp_path / "store"
        store = CalibrationStore(root)
        # Creation makes meta.json (and antennas/) durable in the root and
        # the root durable in its parent.
        assert dir_fsyncs == [inode(root), inode(tmp_path)]
        del dir_fsyncs[:]
        store.meta_set("fleet", {"seed": 1})
        assert dir_fsyncs == [inode(root)]
        del dir_fsyncs[:]

        for offset in (1.0, 2.0, 3.0):
            store.commit(_calibration(offset=offset), source="scan")
        # Only the antenna's first commit creates its file.
        assert dir_fsyncs == [inode(root / "antennas")]
        jsonl = next((root / "antennas").glob("*.jsonl"))
        del file_fsyncs[:]
        for commits in range(1, 4):
            before = jsonl.read_bytes()
            store.commit(_calibration(offset=float(commits)), source="scan")
            after = jsonl.read_bytes()
            # History is never rewritten: the old bytes are a prefix.
            assert after[: len(before)] == before
            assert after.count(b"\n") == before.count(b"\n") + 1
            assert len(file_fsyncs) >= commits
        assert dir_fsyncs == [inode(root / "antennas")]

    def test_commit_records_latency_histograms(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration(), source="scan")
        enable_metrics()
        try:
            with scoped_registry() as registry:
                store.commit(_calibration(), source="scan")
                histograms = {h["name"]: h["count"] for h in registry.snapshot()["histograms"]}
        finally:
            disable_metrics()
        assert histograms["calib.commit_seconds"] == 1
        assert histograms["calib.fsync_seconds"] >= 1


class TestResolverCache:
    def test_commit_clears_cache_and_keeps_one_generation(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.commit(_calibration("a", offset=1.0), source="scan")
        store.commit(_calibration("b", offset=2.0), source="scan")
        resolver = CalibrationResolver(store)
        first = resolver.lookup(("a", "b"), 3)
        assert resolver.lookup(("a", "b"), 3) is first
        resolver.lookup(("b",), 3)
        assert resolver.stats()["entries"] == 2

        store.commit(_calibration("a", offset=1.5), source="scan")
        centers, offsets = resolver.lookup(("a", "b"), 3)
        assert offsets.tolist() == store.offsets_for(("a", "b")).tolist()
        assert offsets.tolist() != first[1].tolist()
        stats = resolver.stats()
        # The older generation's entries are gone; the counters are not.
        assert stats["entries"] == 1
        assert (stats["hits"], stats["misses"]) == (1, 3)
        assert stats["generation"] == store.generation == 3
