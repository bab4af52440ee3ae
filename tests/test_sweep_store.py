"""Tests for the persistent sweep result store and resume semantics.

The fault-side behaviour (quarantine, worker deaths, the kill-resume
equivalence acceptance test) lives in ``tests/test_sweep_faults.py``; this
module pins down the store itself: content keying, atomic entries, corrupt
entries degrading to misses, and the incremental/resume contract of
``run_sweep(store=...)``.
"""

import dataclasses
import json
import os

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.store import STORE_VERSION, ResultStore
from repro.engine.sweep import SweepPoint, build_grid, run_sweep, run_sweep_spec
from repro.specs import OverlaySpec, SimSpec, SweepSpec


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _grid(kernels=("gradient", "poly5"), variant="v1"):
    return build_grid(list(kernels), overlays=[OverlaySpec(variant=variant)])


def _rows_equal(left, right, ignore=("elapsed_s", "attempts")):
    """Grid rows compare equal modulo wall-clock and retry accounting."""
    strip = lambda r: {
        k: v for k, v in dataclasses.asdict(r).items() if k not in ignore
    }
    return [strip(r) for r in left] == [strip(r) for r in right]


class TestKeying:
    def test_key_is_stable_across_store_instances(self, tmp_path):
        point = SweepPoint("gradient", OverlaySpec("v1"), SimSpec(engine="fast"))
        key_a = ResultStore(str(tmp_path / "a")).key_for(point)
        key_b = ResultStore(str(tmp_path / "b")).key_for(point)
        assert key_a == key_b

    def test_auto_depth_and_explicit_depth_share_a_key(self, tmp_path):
        store = ResultStore(str(tmp_path))
        auto = SweepPoint("gradient", OverlaySpec("v1", depth=None), SimSpec())
        # gradient on v1 auto-sizes to depth 4; the explicit spec is the
        # same overlay, so the same content key.
        explicit = SweepPoint("gradient", OverlaySpec("v1", depth=4), SimSpec())
        assert store.key_for(auto) == store.key_for(explicit)

    def test_sim_spec_changes_the_key(self, tmp_path):
        store = ResultStore(str(tmp_path))
        a = SweepPoint("gradient", OverlaySpec("v1"), SimSpec(num_blocks=12))
        b = SweepPoint("gradient", OverlaySpec("v1"), SimSpec(num_blocks=24))
        assert store.key_for(a) != store.key_for(b)

    def test_kernel_changes_the_key(self, tmp_path):
        store = ResultStore(str(tmp_path))
        a = SweepPoint("gradient", OverlaySpec("v1"), SimSpec())
        b = SweepPoint("poly5", OverlaySpec("v1"), SimSpec())
        assert store.key_for(a) != store.key_for(b)


class TestRoundTrip:
    def test_put_get_round_trips_a_result(self, tmp_path):
        store = ResultStore(str(tmp_path))
        [row] = run_sweep(_grid(["gradient"]), jobs=1)
        point = _grid(["gradient"])[0]
        key = store.key_for(point)
        store.put(key, point, row)
        restored = store.get(key, point)
        assert restored is not None
        assert dataclasses.asdict(restored) == dataclasses.asdict(row)
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_entries_are_json_files_with_no_temp_leftovers(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(), jobs=1, store=store)
        names = os.listdir(tmp_path)
        assert len(names) == 2
        assert all(name.endswith(".json") for name in names)
        assert not [n for n in names if ".tmp" in n]

    def test_entry_is_self_describing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        assert entry["version"] == STORE_VERSION
        assert entry["point"]["kernel"] == "gradient"
        assert entry["result"]["kernel"] == "gradient"

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        point = _grid(["gradient"])[0]
        assert store.get(store.key_for(point), point) is None
        assert store.stats.misses == 1

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        with open(path, "w") as handle:
            handle.write('{"version":')  # truncated by an unclean shutdown
        point = _grid(["gradient"])[0]
        assert store.get(store.key_for(point), point) is None
        assert store.stats.corrupt == 1

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["version"] = STORE_VERSION + 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        point = _grid(["gradient"])[0]
        assert store.get(store.key_for(point), point) is None
        assert store.stats.corrupt == 1

    def test_version_1_entries_are_recomputed_not_reused(self, tmp_path):
        # Version 1 rows and keys carried the retired steady-state detector.
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["version"] = 1
        entry["point"]["sim"]["detector"] = "occupancy"
        entry["result"]["detector"] = "occupancy"
        with open(path, "w") as handle:
            json.dump(entry, handle)
        probe = ResultStore(str(tmp_path))
        assert probe.results() == []
        run_sweep(_grid(["gradient"]), jobs=1, store=probe)
        assert (probe.stats.hits, probe.stats.writes) == (0, 1)

    def test_entry_layout_carries_no_detector(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        assert "detector" not in entry["point"]["sim"]
        assert "detector" not in entry["result"]

    def test_unknown_row_field_is_a_miss(self, tmp_path):
        # A current-version entry whose row no longer fits SweepResult is
        # re-measured and rewritten, never half-loaded.
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["result"]["detector"] = "occupancy"
        with open(path, "w") as handle:
            json.dump(entry, handle)
        probe = ResultStore(str(tmp_path))
        point = _grid(["gradient"])[0]
        assert probe.get(probe.key_for(point), point) is None
        assert probe.stats.corrupt == 1
        run_sweep(_grid(["gradient"]), jobs=1, store=probe)
        assert probe.stats.writes == 1
        assert probe.get(probe.key_for(point), point) is not None

    def test_clear_empties_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(), jobs=1, store=store)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestResume:
    def test_second_run_is_all_store_hits(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = run_sweep(_grid(), jobs=1, store=store)
        probe = ResultStore(str(tmp_path))
        second = run_sweep(_grid(), jobs=1, store=probe)
        assert _rows_equal(first, second)
        assert probe.stats.hits == len(first)
        assert probe.stats.writes == 0

    def test_resumed_rows_match_a_fresh_run(self, tmp_path):
        # Run half the grid, then the full grid against the same store: the
        # resumed full run must equal a storeless fresh run row for row.
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        resumed = run_sweep(_grid(), jobs=1, store=ResultStore(str(tmp_path)))
        fresh = run_sweep(_grid(), jobs=1)
        assert _rows_equal(resumed, fresh)

    def test_resume_false_remeasures_but_still_writes(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        probe = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=probe, resume=False)
        assert probe.stats.hits == 0
        assert probe.stats.writes == 1

    def test_progress_events_stream_in_completion_order(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        events = []
        run_sweep(_grid(), jobs=1, store=ResultStore(str(tmp_path)),
                  progress=events.append)
        assert [e.completed for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        by_kernel = {e.point.kernel: e for e in events}
        assert by_kernel["gradient"].cached is True
        assert by_kernel["poly5"].cached is False
        assert by_kernel["poly5"].result.kernel == "poly5"

    def test_infeasible_rows_are_stored_and_resume(self, tmp_path):
        # linear scheduling of a kernel deeper than the overlay is an
        # infeasible grid point: a deterministic verdict, stored like data.
        grid = build_grid(
            ["chebyshev"],
            overlays=[OverlaySpec(variant="v1", depth=2, scheduler="linear")],
        )
        store = ResultStore(str(tmp_path))
        [first] = run_sweep(grid, jobs=1, store=store)
        assert first.infeasible and not first.quarantined
        probe = ResultStore(str(tmp_path))
        [second] = run_sweep(grid, jobs=1, store=probe)
        assert probe.stats.hits == 1
        assert second.error == first.error


class TestSpecAndSessionPlumbing:
    def test_sweep_spec_store_dir_round_trips(self, tmp_path):
        spec = SweepSpec(
            kernels=("gradient",),
            overlays=(OverlaySpec("v1"),),
            jobs=1,
            retries=1,
            timeout_s=30.0,
            store_dir=str(tmp_path),
            resume=False,
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_run_sweep_spec_uses_the_store(self, tmp_path):
        spec = SweepSpec(
            kernels=("gradient",),
            overlays=(OverlaySpec("v1"),),
            jobs=1,
            store_dir=str(tmp_path),
        )
        first = run_sweep_spec(spec)
        assert len(ResultStore(str(tmp_path))) == 1
        second = run_sweep_spec(spec)
        assert _rows_equal(first, second)

    def test_toolchain_sweep_honors_store_and_progress(self, tmp_path):
        toolchain = Toolchain(cache=ScheduleCache())
        spec = SweepSpec(
            kernels=("gradient",),
            overlays=(OverlaySpec("v1"),),
            jobs=1,
            store_dir=str(tmp_path),
        )
        events = []
        toolchain.sweep(spec, progress=events.append)
        assert [e.cached for e in events] == [False]
        events.clear()
        toolchain.sweep(spec, progress=events.append)
        assert [e.cached for e in events] == [True]
