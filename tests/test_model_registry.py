"""Performance-model registry contract suite (mirrors the scheduler one).

Three layers of guarantees:

* **registry mechanics** — lookup, registration (decorator form included),
  fresh instances per lookup (fitted state never leaks between sessions);
  duplicate/unknown handling and built-in protection are tested once for
  every registry in ``tests/test_registries.py``;
* **prediction caching** — :meth:`repro.api.Toolchain.predict` keys its
  memo on the model's *cache token*, so two models never collide, fitting
  a calibrated model invalidates its pre-fit predictions, and the sim
  spec is part of the key;
* **spec plumbing** — ``TuneSpec`` validates model/objective/budget at
  construction, ``TuneSpec``/``TuneResult`` JSON round-trip exactly, and
  the ``models``/``tune`` CLI subcommands speak the same registry.
"""

import json
from types import SimpleNamespace

import pytest

from repro.api import Toolchain
from repro.cli import main
from repro.engine.cache import ScheduleCache
from repro.errors import ConfigurationError
from repro.metrics.models import (
    AnalyticModel,
    CalibratedModel,
    ModelPrediction,
    PerformanceModel,
    get_model,
    model_entries,
    model_names,
    register_model,
    resolve_model,
    unregister_model,
)
from repro.specs import (
    OBJECTIVES,
    OverlaySpec,
    SimSpec,
    TuneCandidate,
    TuneResult,
    TuneSpec,
)

BUILTINS = ("analytic", "warmup-aware", "calibrated")


class TestRegistryMechanics:
    def test_builtins_are_registered(self):
        names = model_names()
        for name in BUILTINS:
            assert name in names

    def test_get_model_returns_a_performance_model(self):
        for name in BUILTINS:
            assert isinstance(get_model(name), PerformanceModel)

    def test_get_model_returns_fresh_instances(self):
        # Fitted state must never leak between sessions through the registry.
        first = get_model("calibrated")
        first.fit([{"kernel": "gradient", "scheduler": "linear",
                    "analytic_ii": 2.0, "measured_ii": 4.0}])
        second = get_model("calibrated")
        assert first is not second
        assert second.cache_token == "calibrated"  # unfitted

    def test_resolve_model_passes_instances_through(self):
        model = AnalyticModel()
        assert resolve_model(model) is model
        assert isinstance(resolve_model("analytic"), AnalyticModel)

    def test_register_and_unregister_a_custom_model(self):
        class DoubledModel(AnalyticModel):
            """Analytic II doubled (deliberately unsound, test-only)."""

            name = "doubled"

            def _ii(self, dfg, schedule, scheduler):
                return 2.0 * super()._ii(dfg, schedule, scheduler)

        register_model("doubled", DoubledModel)
        try:
            assert "doubled" in model_names()
            assert isinstance(get_model("doubled"), DoubledModel)
            # A custom model is selectable end to end through TuneSpec.
            spec = TuneSpec(kernel="gradient", model="doubled")
            assert spec.model == "doubled"
        finally:
            unregister_model("doubled")
        assert "doubled" not in model_names()
        with pytest.raises(ConfigurationError):
            TuneSpec(kernel="gradient", model="doubled")

    def test_decorator_form(self):
        @register_model("decorated", description="decorator-registered")
        class DecoratedModel(AnalyticModel):
            name = "decorated"

        try:
            assert isinstance(get_model("decorated"), DecoratedModel)
            [entry] = [e for e in model_entries() if e.name == "decorated"]
            assert entry.description == "decorator-registered"
        finally:
            unregister_model("decorated")

    def test_factory_must_produce_a_performance_model(self):
        register_model("broken-factory", lambda: object())
        try:
            with pytest.raises(ConfigurationError, match="PerformanceModel"):
                get_model("broken-factory")
        finally:
            unregister_model("broken-factory")


class TestPredictionCaching:
    def test_model_name_is_part_of_the_cache_key(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        analytic = tc.predict(handle, model="analytic")
        warmup = tc.predict(handle, model="warmup-aware")
        assert analytic.model == "analytic"
        assert warmup.model == "warmup-aware"
        # Same schedule, different cycle policies: the memo kept them apart.
        assert warmup.cycles != analytic.cycles
        assert warmup.warmup_bound_cycles > 0 == analytic.warmup_bound_cycles

    def test_warm_predict_is_a_memo_hit(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        first = tc.predict(handle, model="analytic")
        assert tc.predict(handle, model="analytic") is first

    def test_sim_spec_is_part_of_the_cache_key(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        short = tc.predict(handle, sim=SimSpec(num_blocks=4))
        long = tc.predict(handle, sim=SimSpec(num_blocks=64))
        assert long.cycles > short.cycles

    def test_fitting_invalidates_the_calibrated_memo(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1", scheduler="linear"))
        model = get_model("calibrated")
        before = tc.predict(handle, model=model)
        model.fit([{"kernel": "gradient", "scheduler": "linear",
                    "analytic_ii": before.ii, "measured_ii": 2 * before.ii}])
        after = tc.predict(handle, model=model)
        # The fit doubled the correction; a stale memo would return `before`.
        assert after.ii == pytest.approx(2 * before.ii)
        assert model.cache_token != "calibrated"

    @pytest.mark.parametrize("first", ["auto", "clustered"])
    def test_requested_strategy_is_part_of_the_cache_key(self, first):
        """``auto`` and the strategy it resolves to share one artifact, but
        a model reads the requested name, so each gets its own prediction
        whichever is asked first."""
        model = get_model("calibrated").fit([
            {"kernel": "qspline", "scheduler": "clustered",
             "measured_ii": 20.0, "analytic_ii": 10.0},
        ])
        tc = Toolchain(cache=ScheduleCache())
        strategies = [first] + [s for s in ("auto", "clustered") if s != first]
        handles = {
            s: tc.compile("qspline", OverlaySpec("v3", scheduler=s))
            for s in strategies
        }
        assert handles["auto"].key == handles["clustered"].key
        calibrated = {s: tc.predict(handles[s], model=model) for s in strategies}
        analytic = {s: tc.predict(handles[s], model="analytic") for s in strategies}
        for strategy, handle in handles.items():
            direct = model.predict(
                handle.dfg, handle.overlay, handle.schedule, scheduler=strategy
            )
            assert calibrated[strategy] == direct
            assert analytic[strategy].scheduler == strategy
        assert calibrated["auto"].ii == pytest.approx(11.0)
        assert calibrated["clustered"].ii == pytest.approx(22.0)


class TestCalibration:
    def test_fit_keeps_the_conservative_group_minimum(self):
        model = CalibratedModel()
        model.fit([
            {"kernel": "k", "scheduler": "linear",
             "analytic_ii": 2.0, "measured_ii": 6.0},
            {"kernel": "k", "scheduler": "linear",
             "analytic_ii": 2.0, "measured_ii": 4.0},
        ])
        assert model._ratios[("k", "linear")] == pytest.approx(2.0)

    def test_fit_accepts_result_objects_and_skips_bad_rows(self):
        rows = [
            SimpleNamespace(kernel="k", scheduler="s", analytic_ii=3.0,
                            measured_ii=6.0, error=None, quarantined=False),
            SimpleNamespace(kernel="k", scheduler="s", analytic_ii=3.0,
                            measured_ii=3.0, error="boom", quarantined=False),
            SimpleNamespace(kernel="k", scheduler="s", analytic_ii=3.0,
                            measured_ii=None, error=None, quarantined=False),
            SimpleNamespace(kernel="k", scheduler="s", analytic_ii=3.0,
                            measured_ii=3.0, error=None, quarantined=True),
        ]
        model = CalibratedModel().fit(rows)
        assert model._ratios == {("k", "s"): pytest.approx(2.0)}

    def test_unfitted_pairs_fall_back_to_analytic(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v1"))
        assert (
            tc.predict(handle, model="calibrated").ii
            == tc.predict(handle, model="analytic").ii
        )


class TestSpecPlumbing:
    def test_tune_spec_round_trips_through_json(self):
        spec = TuneSpec(
            kernel="qspline",
            variants=("v1", "v3"),
            depths=(None, 8),
            fifo_depths=(4, 32),
            schedulers=("linear", "modulo"),
            model="warmup-aware",
            objective="gops",
            budget=5,
            sim=SimSpec(engine="fast", num_blocks=24),
            jobs=2,
            store_dir="/tmp/somewhere",
            resume=False,
        )
        clone = TuneSpec.from_json(spec.to_json())
        assert clone == spec

    def test_tune_spec_validates_at_construction(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            TuneSpec(kernel="")
        with pytest.raises(ConfigurationError, match="model"):
            TuneSpec(kernel="gradient", model="no-such-model")
        with pytest.raises(ConfigurationError, match="objective"):
            TuneSpec(kernel="gradient", objective="speed")
        with pytest.raises(ConfigurationError, match="budget"):
            TuneSpec(kernel="gradient", budget=0)
        with pytest.raises(ConfigurationError):
            TuneSpec(kernel="gradient", schedulers=("no-such-strategy",))
        with pytest.raises(ConfigurationError, match="FIFO"):
            TuneSpec(kernel="gradient", fifo_depths=(1,))
        with pytest.raises(ConfigurationError, match="depths"):
            TuneSpec(kernel="gradient", depths=(0,))

    def test_objectives_constant_matches_the_spec_gate(self):
        for objective in OBJECTIVES:
            assert TuneSpec(kernel="gradient", objective=objective)

    def test_tune_result_round_trips_through_json(self):
        tc = Toolchain(cache=ScheduleCache())
        result = tc.tune(
            "gradient", variants=("v1", "v2"), budget=2, jobs=1
        )
        clone = TuneResult.from_json(result.to_json())
        assert clone == result
        assert clone.best == result.best

    def test_tune_candidate_rejects_negative_rank(self):
        with pytest.raises(ConfigurationError, match="rank"):
            TuneCandidate(overlay=OverlaySpec("v1"), rank=-1)

    def test_tune_result_rejects_out_of_range_best_index(self):
        candidate = TuneCandidate(overlay=OverlaySpec("v1"), rank=0)
        spec = TuneSpec(kernel="gradient")
        with pytest.raises(ConfigurationError, match="best_index"):
            TuneResult(spec=spec, candidates=(candidate,), best_index=1)

    def test_unknown_json_fields_fail_loudly(self):
        spec = TuneSpec(kernel="gradient")
        data = spec.to_dict()
        data["budgett"] = 3
        with pytest.raises(ConfigurationError, match="budgett"):
            TuneSpec.from_dict(data)


class TestCLI:
    def test_models_lists_the_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_models_json(self, capsys):
        assert main(["models", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} >= set(BUILTINS)
        [default] = [row for row in rows if row["default"]]
        assert default["name"] == "analytic"

    def test_tune_json_round_trips_into_a_tune_result(self, capsys):
        assert main([
            "tune", "--kernel", "gradient", "--variants", "v1,v2",
            "--budget", "2", "--jobs", "1", "--json",
        ]) == 0
        result = TuneResult.from_json(capsys.readouterr().out)
        assert result.spec.kernel == "gradient"
        assert result.num_simulated == 2
        assert result.best is not None and result.best.simulated

    def test_tune_text_output_names_the_choice(self, capsys):
        assert main([
            "tune", "--kernel", "gradient", "--variants", "v1",
            "--schedulers", "linear", "--budget", "1", "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "chosen: gradient" in out
        assert "scheduler=linear" in out

    def test_tune_unknown_model_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune", "--kernel", "gradient", "--model", "bogus"])


# ---------------------------------------------------------------------------
# registry concurrency (the service PR: workers race user registrations)
# ---------------------------------------------------------------------------
class TestRegistryConcurrency:
    def test_parallel_distinct_registrations_all_land(self):
        import threading

        names = [f"conc_model_{i}" for i in range(16)]
        barrier = threading.Barrier(len(names))
        errors = []

        def worker(name):
            barrier.wait()
            try:
                register_model(name, AnalyticModel, description=name)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in names]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            registered = model_names()
            for name in names:
                assert name in registered
                assert isinstance(get_model(name), AnalyticModel)
        finally:
            for name in names:
                unregister_model(name)
        assert not set(names) & set(model_names())

    def test_parallel_same_name_registration_has_one_winner(self):
        import threading

        K = 12
        barrier = threading.Barrier(K)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                register_model("conc_model_dup", AnalyticModel)
            except ConfigurationError:
                with lock:
                    outcomes.append("lost")
            else:
                with lock:
                    outcomes.append("won")

        threads = [threading.Thread(target=worker) for _ in range(K)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert outcomes.count("won") == 1
            assert outcomes.count("lost") == K - 1
            assert "conc_model_dup" in model_names()
        finally:
            unregister_model("conc_model_dup")
