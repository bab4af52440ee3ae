"""Tests for the typed spec objects of :mod:`repro.specs`."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.overlay.architecture import DEFAULT_FIXED_DEPTH
from repro.overlay.fu import FU_VARIANTS, get_variant
from repro.specs import ENGINES, OverlaySpec, SimSpec, SweepSpec


class TestOverlaySpec:
    def test_defaults(self):
        spec = OverlaySpec()
        assert spec.variant == "v1"
        assert spec.depth is None
        assert spec.fixed is None
        assert spec.fifo_depth == 32

    def test_variant_canonicalised_from_alias_and_instance(self):
        assert OverlaySpec(variant="V1").variant == "v1"
        assert OverlaySpec(variant=get_variant("v3")).variant == "v3"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(variant="v9")

    def test_zero_depth_sentinel_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(depth=0)

    def test_fixed_requires_write_back_variant(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(variant="v1", fixed=True)

    def test_is_fixed_follows_variant_nature(self):
        assert not OverlaySpec(variant="v1").is_fixed
        assert OverlaySpec(variant="v3").is_fixed
        assert not OverlaySpec(variant="v3", fixed=False).is_fixed

    def test_build_overlay_auto_sizes_critical_path(self, gradient):
        overlay = OverlaySpec(variant="v1").build_overlay(gradient)
        assert overlay.depth == 4
        assert not overlay.fixed_depth

    def test_build_overlay_auto_sizes_fixed_depth(self):
        overlay = OverlaySpec(variant="v3").build_overlay()
        assert overlay.depth == DEFAULT_FIXED_DEPTH
        assert overlay.fixed_depth

    def test_build_overlay_depth_override(self, gradient):
        overlay = OverlaySpec(variant="v1", depth=6).build_overlay(gradient)
        assert overlay.depth == 6
        assert not overlay.fixed_depth
        fixed = OverlaySpec(variant="v3", depth=4).build_overlay()
        assert fixed.depth == 4 and fixed.fixed_depth

    def test_build_overlay_requires_dfg_for_critical_path(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec(variant="v1").build_overlay()

    def test_resolve_is_concrete(self, gradient):
        resolved = OverlaySpec(variant="v1").resolve(gradient)
        assert resolved.depth == 4
        assert resolved.fixed is False
        # Resolving again is a fixed point.
        assert resolved.resolve(gradient) == resolved

    def test_hashable_and_usable_as_dict_key(self):
        d = {OverlaySpec("v1"): 1, OverlaySpec("v2", depth=8): 2}
        assert d[OverlaySpec("v1")] == 1

    def test_json_round_trip_identity(self):
        for spec in (
            OverlaySpec(),
            OverlaySpec(variant="v3", depth=8, fixed=True),
            OverlaySpec(variant="v2", depth=5, fifo_depth=4),
        ):
            assert OverlaySpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            OverlaySpec.from_dict({"variant": "v1", "depht": 3})


class TestSimSpec:
    def test_defaults(self):
        spec = SimSpec()
        assert spec.engine == "cycle"
        assert spec.num_blocks == 12
        assert spec.seed == 0
        assert spec.trace is False
        assert spec.verify is True

    def test_engines_constant_matches_validation(self):
        for engine in ENGINES:
            assert SimSpec(engine=engine).engine == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            SimSpec(engine="warp")

    def test_retired_detector_field_rejected(self):
        # Specs serialised before the detector option was removed carry a
        # "detector" field; the unknown-field check rejects them.
        with pytest.raises(ConfigurationError, match="detector"):
            SimSpec.from_dict({"engine": "fast", "detector": "occupancy"})
        with pytest.raises(ConfigurationError, match="detector"):
            SimSpec.from_json('{"engine": "fast", "detector": "legacy"}')

    def test_layout_is_exactly_the_simulation_knobs(self):
        # The dict form feeds sweep-store keys and the service wire format.
        assert set(SimSpec().to_dict()) == {"engine", "num_blocks", "seed", "trace", "verify"}
        with pytest.raises(TypeError):
            SimSpec(engine="fast", detector="occupancy")

    def test_json_round_trip_identity(self):
        for spec in (
            SimSpec(),
            SimSpec(engine="fast", num_blocks=64, seed=7),
            SimSpec(trace=True, verify=False),
        ):
            assert SimSpec.from_json(spec.to_json()) == spec


class TestSweepSpec:
    def _spec(self, **kwargs):
        defaults = dict(
            kernels=("gradient", "qspline"),
            overlays=(OverlaySpec("v1"), OverlaySpec("v3", depth=8)),
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_sim_defaults_to_fast_engine(self):
        assert self._spec().sim == SimSpec(engine="fast")

    def test_grid_size(self):
        assert len(self._spec()) == 4

    def test_lists_coerced_to_tuples_for_hashability(self):
        spec = SweepSpec(kernels=["gradient"], overlays=[OverlaySpec("v1")])
        assert isinstance(spec.kernels, tuple)
        assert isinstance(spec.overlays, tuple)
        hash(spec)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kernels=(), overlays=(OverlaySpec("v1"),))
        with pytest.raises(ConfigurationError):
            SweepSpec(kernels=("gradient",), overlays=())

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(jobs=0)

    def test_json_round_trip_identity(self):
        spec = self._spec(sim=SimSpec(engine="fast", num_blocks=24), jobs=2)
        assert SweepSpec.from_json(spec.to_json()) == spec
        # The JSON form is plain data (storable next to sweep results).
        parsed = json.loads(spec.to_json())
        assert parsed["kernels"] == ["gradient", "qspline"]
        assert parsed["overlays"][0]["variant"] == "v1"

    def test_overlay_dicts_accepted_in_constructor(self):
        spec = SweepSpec(
            kernels=("gradient",), overlays=({"variant": "v1", "depth": 4},)
        )
        assert spec.overlays[0] == OverlaySpec("v1", depth=4)

    def test_robustness_knob_defaults(self):
        spec = self._spec()
        assert spec.retries == 2
        assert spec.timeout_s is None
        assert spec.store_dir is None
        assert spec.resume is True

    def test_robustness_knobs_round_trip(self):
        spec = self._spec(retries=0, timeout_s=12.5, store_dir="/tmp/s", resume=False)
        assert SweepSpec.from_json(spec.to_json()) == spec
        parsed = json.loads(spec.to_json())
        assert parsed["retries"] == 0
        assert parsed["timeout_s"] == 12.5
        assert parsed["store_dir"] == "/tmp/s"
        assert parsed["resume"] is False

    def test_sim_with_retired_detector_field_rejected(self):
        data = self._spec().to_dict()
        data["sim"]["detector"] = "legacy"
        with pytest.raises(ConfigurationError, match="detector"):
            SweepSpec.from_json(json.dumps(data))

    def test_pre_robustness_json_still_loads(self):
        # Spec JSON written before the retry/store fields existed must keep
        # loading with the defaults.
        old = self._spec().to_dict()
        for key in ("retries", "timeout_s", "store_dir", "resume"):
            del old[key]
        assert SweepSpec.from_dict(old) == self._spec()

    def test_bad_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(retries=-1)
        with pytest.raises(ConfigurationError):
            self._spec(retries=True)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            self._spec(timeout_s=-5.0)
