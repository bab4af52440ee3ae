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

import pytest

from repro.api import Toolchain
from repro.engine import store as store_module
from repro.engine.cache import ScheduleCache, dfg_content_hash, write_atomic
from repro.engine.store import STORE_VERSION, ResultStore, StoreKey
from repro.engine.sweep import SweepPoint, build_grid, run_sweep
from repro.kernels.library import get_kernel, kernel_names
from repro.metrics.models import CalibratedModel
from repro.specs import OverlaySpec, SimSpec, SweepSpec, TuneSpec
from repro.tune import tune


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

    def test_memoised_keys_equal_keys_built_from_scratch(self, tmp_path):
        # Sweep-store's grid shape, each point next to the same point with
        # the explicit depth its depth=None resolves to.
        sim = SimSpec(engine="fast", num_blocks=64, seed=3)
        store = ResultStore(str(tmp_path))
        points = []
        for point in build_grid(
            overlays=[
                OverlaySpec(variant, fifo_depth=fifo)
                for variant in ("v1", "v2", "v3", "v4", "v5")
                for fifo in (8, 32)
            ],
            sim=sim,
            schedulers=("linear", "clustered", "modulo", "auto"),
        ):
            depth = point.overlay.resolve(get_kernel(point.kernel)).depth
            explicit = dataclasses.replace(point.overlay, depth=depth)
            points += [point, SweepPoint(point.kernel, explicit, sim)]
        assert len(points) == len(kernel_names()) * 5 * 2 * 4 * 2
        for point in points:
            dfg = get_kernel(point.kernel)
            scratch = StoreKey(
                kernel=point.kernel,
                dfg_hash=dfg_content_hash(dfg),
                overlay=point.overlay.resolve(dfg).to_dict(),
                sim=point.sim.to_dict(),
            ).digest()
            assert store.key_for(point) == scratch, point
            assert store.key_for(dataclasses.replace(point)) == scratch, point
        for auto, explicit in zip(points[::2], points[1::2]):
            assert store.key_for(auto) == store.key_for(explicit), auto

    @pytest.mark.parametrize(
        "point, key",
        [
            (
                SweepPoint("gradient", OverlaySpec("v1"), SimSpec(engine="fast")),
                "559f958a66a6b2e38ad6901a537da222",
            ),
            (
                SweepPoint(
                    "poly7",
                    OverlaySpec("v3", fifo_depth=8, scheduler="modulo"),
                    SimSpec(engine="fast", num_blocks=64, seed=5),
                ),
                "b0739efd15ecd8c9b5a462f208ad8d22",
            ),
        ],
        ids=["gradient-v1", "poly7-v3-modulo"],
    )
    def test_keys_are_pinned(self, tmp_path, point, key):
        store = ResultStore(str(tmp_path))
        assert store.key_for(point) == key
        assert store.key_for(point) == key  # from the memo


class TestWarmPasses:
    def test_a_second_sweep_derives_no_key_and_reads_each_entry_once(
        self, tmp_path, monkeypatch
    ):
        spec = SweepSpec(
            kernels=("gradient", "poly5"),
            overlays=(OverlaySpec("v1"), OverlaySpec("v3", fifo_depth=8)),
            sim=SimSpec(engine="fast", num_blocks=8),
            jobs=1,
            schedulers=("linear", "clustered"),
            store_dir=str(tmp_path),
        )
        toolchain = Toolchain(ScheduleCache())
        first = toolchain.sweep(spec)
        stores, opened = [], []

        class Probe(ResultStore):
            def __init__(self, root):
                super().__init__(root)
                stores.append(self)

        def refuse(*args):
            raise AssertionError("a warm pass derived a store key again")

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store_module, "ResultStore", Probe)
        monkeypatch.setattr(store_module, "get_kernel", refuse)
        monkeypatch.setattr(store_module, "dfg_content_hash", refuse)
        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        second = toolchain.sweep(spec)
        [probe] = stores
        assert (probe.stats.hits, probe.stats.misses) == (len(first), 0)
        assert sorted(opened) == probe.entry_paths()
        assert [row.as_row() for row in second] == [row.as_row() for row in first]


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
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)

    def test_a_directory_at_the_entry_path_is_a_corrupt_miss(self, tmp_path):
        point = _grid(["gradient"])[0]
        run_sweep([point], jobs=1, store=ResultStore(str(tmp_path)))
        [path] = ResultStore(str(tmp_path)).entry_paths()
        os.unlink(path)
        os.mkdir(path)
        probe = ResultStore(str(tmp_path))
        assert probe.get(probe.key_for(point), point) is None
        assert (probe.stats.misses, probe.stats.corrupt) == (1, 1)
        assert list(probe.results()) == []

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
        assert list(probe.results()) == []
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("measured_ii", "garbage"),
            ("overlay_depth", True),
            ("latency_cycles", 1.5),
            ("matches_reference", 1),
            ("kernel", None),
            ("error", 5),
            ("quarantined", 0),
        ],
        ids=["str-for-float", "bool-for-int", "float-for-int", "int-for-bool",
             "none-for-str", "int-for-optional-str", "int-for-bool-flag"],
    )
    def test_a_mistyped_row_field_is_a_corrupt_miss(self, tmp_path, field, value):
        store = ResultStore(str(tmp_path))
        [row] = run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["result"][field] = value
        write_atomic(path, json.dumps(entry))
        probe = ResultStore(str(tmp_path))
        assert list(probe.results()) == []
        [again] = run_sweep(_grid(["gradient"]), jobs=1, store=probe)
        assert (probe.stats.hits, probe.stats.corrupt, probe.stats.writes) == (0, 1, 1)
        assert _rows_equal([again], [row])
        assert _read_json(path)["result"][field] == row.as_row()[field]

    @pytest.mark.parametrize(
        "field, value",
        [("fmax_mhz", 250), ("measured_ii", None), ("matches_reference", None)],
        ids=["int-for-float", "none-for-optional-float", "none-for-optional-bool"],
    )
    def test_declared_field_types_load(self, tmp_path, field, value):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["result"][field] = value
        write_atomic(path, json.dumps(entry))
        probe = ResultStore(str(tmp_path))
        [row] = run_sweep(_grid(["gradient"]), jobs=1, store=probe)
        assert (probe.stats.hits, probe.stats.corrupt) == (1, 0)
        assert getattr(row, field) == value

    def test_a_tune_remeasures_mistyped_frontier_rows(self, tmp_path):
        spec = TuneSpec(
            kernel="gradient",
            variants=("v1", "v3"),
            schedulers=("linear",),
            budget=2,
            jobs=1,
            sim=SimSpec(engine="fast", num_blocks=8),
            store_dir=str(tmp_path),
        )
        toolchain = Toolchain(ScheduleCache())
        first = toolchain.tune(spec=spec)
        paths = ResultStore(str(tmp_path)).entry_paths()
        assert len(paths) == 2
        for path in paths:
            entry = _read_json(path)
            entry["result"]["measured_ii"] = "garbage"
            write_atomic(path, json.dumps(entry))
        probe = ResultStore(str(tmp_path))
        assert tune(spec, toolchain=toolchain, store=probe) == first
        assert (probe.stats.hits, probe.stats.corrupt, probe.stats.writes) == (0, 2, 2)

    def test_stored_key_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        run_sweep(_grid(["gradient"]), jobs=1, store=store)
        [path] = store.entry_paths()
        entry = _read_json(path)
        entry["key"] = "0" * 32
        with open(path, "w") as handle:
            json.dump(entry, handle)
        probe = ResultStore(str(tmp_path))
        point = _grid(["gradient"])[0]
        assert probe.get(probe.key_for(point), point) is None
        assert (probe.stats.misses, probe.stats.corrupt) == (1, 1)
        # The row is still readable, so it still feeds calibration.
        assert len(list(probe.results())) == 1

    def test_unwritable_root_drops_the_row_silently(self, tmp_path):
        root = tmp_path / "file"
        root.write_text("not a directory")
        store = ResultStore(str(root))
        point = _grid(["gradient"])[0]
        [row] = run_sweep([point], jobs=1)
        store.put(store.key_for(point), point, row)
        assert store.stats.writes == 0
        # Such a root holds no entries, so a lookup is a plain miss.
        assert store.get(store.key_for(point), point) is None
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)

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

    def test_toolchain_sweep_uses_the_store(self, tmp_path):
        spec = SweepSpec(
            kernels=("gradient",),
            overlays=(OverlaySpec("v1"),),
            jobs=1,
            store_dir=str(tmp_path),
        )
        first = Toolchain().sweep(spec)
        assert len(ResultStore(str(tmp_path))) == 1
        second = Toolchain().sweep(spec)
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


class _ListingCounter(ResultStore):
    """A store that counts how often its entries are listed."""

    def __init__(self, root):
        super().__init__(root)
        self.listings = 0

    def entry_paths(self):
        self.listings += 1
        return super().entry_paths()


def _populated_store(tmp_path):
    """Rows of two kernels on two variants and two strategies, plus one
    unreadable entry."""
    root = str(tmp_path)
    grid = build_grid(
        ["gradient", "poly5"],
        overlays=[OverlaySpec("v1"), OverlaySpec("v3")],
        schedulers=["linear", "clustered"],
    )
    run_sweep(grid, jobs=1, store=ResultStore(root))
    with open(os.path.join(root, "truncated.json"), "w") as handle:
        handle.write('{"version": ')
    return root


def _tune_spec(model):
    return TuneSpec(
        kernel="gradient", variants=("v1", "v3"), fifo_depths=(32,),
        schedulers=("linear", "clustered"), model=model, budget=2, jobs=1,
        sim=SimSpec(engine="fast"),
    )


class TestTuneStoreReads:
    """A tune reads the store's rows only when its model fits them."""

    @pytest.mark.parametrize("model", ["analytic", "warmup-aware"])
    def test_closed_form_tune_lists_no_entries(self, tmp_path, model):
        probe = _ListingCounter(_populated_store(tmp_path))
        result = tune(_tune_spec(model), toolchain=Toolchain(cache=ScheduleCache()), store=probe)
        assert result.best.simulated
        assert probe.listings == 0
        assert (probe.stats.hits, probe.stats.writes) == (2, 0)

    def test_calibrated_tune_fits_every_readable_row_once(self, tmp_path, monkeypatch):
        root = _populated_store(tmp_path)
        expected = list(ResultStore(root).results())
        assert len(expected) == len(ResultStore(root)) - 1 == 8
        fitted = []
        real_fit = CalibratedModel.fit

        def spying_fit(model, results):
            rows = list(results)
            fitted.append(rows)
            return real_fit(model, rows)

        monkeypatch.setattr(CalibratedModel, "fit", spying_fit)
        probe = _ListingCounter(root)
        tune(_tune_spec("calibrated"), toolchain=Toolchain(cache=ScheduleCache()), store=probe)
        assert probe.listings == 1
        assert fitted == [expected]

    def test_results_reads_nothing_until_iterated(self, tmp_path):
        probe = _ListingCounter(_populated_store(tmp_path))
        rows = probe.results()
        assert probe.listings == 0
        assert next(rows).kernel in ("gradient", "poly5")
        assert probe.listings == 1


class TestWriteAtomic:
    def test_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "out" / "entry.json"
        write_atomic(str(path), "first")
        write_atomic(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(path.parent) == ["entry.json"]

    def test_failed_write_raises_and_leaves_no_temp_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(OSError):
            write_atomic(str(taken), "text")  # os.replace onto a directory
        with pytest.raises(TypeError):
            write_atomic(str(tmp_path / "entry.json"), 42)
        assert os.listdir(tmp_path) == ["taken"]
