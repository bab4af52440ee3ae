"""The one JSON codec of the frozen records (:class:`repro.specs.Record`).

Each record's ``to_dict`` is pinned, key order included, to the layout its
hand-written codec produced before the codec was derived from the fields:
the dict feeds sweep-store keys, the service's wire envelopes and the fault
plan handed to sweep workers.
"""

import dataclasses
import json

import pytest

from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.store import ResultStore
from repro.engine.sweep import SweepPoint, run_sweep
from repro.errors import ConfigurationError
from repro.specs import (
    OverlaySpec,
    SimSpec,
    SweepSpec,
    TuneCandidate,
    TuneResult,
    TuneSpec,
    spec_from_wire,
    spec_to_wire,
)
from repro.verify.diagnostics import Diagnostic, Severity, VerifyReport


def _overlay(variant, depth=None, fixed=None, fifo_depth=32, scheduler="auto"):
    return {
        "variant": variant,
        "depth": depth,
        "fixed": fixed,
        "fifo_depth": fifo_depth,
        "scheduler": scheduler,
    }


def _sim(engine, num_blocks=12, seed=0, trace=False, verify=True):
    return {
        "engine": engine,
        "num_blocks": num_blocks,
        "seed": seed,
        "trace": trace,
        "verify": verify,
    }


_CANDIDATE = TuneCandidate(
    overlay=OverlaySpec("v2", depth=4),
    rank=1,
    predicted_ii=2.0,
    predicted_cycles=48.0,
    predicted_latency_ns=31.5,
    predicted_gops=1.25,
    fmax_mhz=300.0,
    simulated=True,
    measured_ii=2.5,
    measured_gops=1.0,
    measured_cycles=60,
    measured_latency_cycles=14,
    ii_error=0.2,
)
_CANDIDATE_DICT = {
    "overlay": _overlay("v2", depth=4),
    "rank": 1,
    "predicted_ii": 2.0,
    "predicted_cycles": 48.0,
    "predicted_latency_ns": 31.5,
    "predicted_gops": 1.25,
    "fmax_mhz": 300.0,
    "simulated": True,
    "measured_ii": 2.5,
    "measured_gops": 1.0,
    "measured_cycles": 60,
    "measured_latency_cycles": 14,
    "ii_error": 0.2,
    "error": None,
}
_INFEASIBLE_DICT = {
    "overlay": _overlay("v1"),
    "rank": 2,
    **{
        name: None
        for name in (
            "predicted_ii",
            "predicted_cycles",
            "predicted_latency_ns",
            "predicted_gops",
            "fmax_mhz",
        )
    },
    "simulated": False,
    **{
        name: None
        for name in (
            "measured_ii",
            "measured_gops",
            "measured_cycles",
            "measured_latency_cycles",
            "ii_error",
        )
    },
    "error": "infeasible",
}
_DIAGNOSTIC = Diagnostic(
    code="SCHED003",
    severity=Severity.WARNING,
    message="late operand",
    pass_name="schedule",
    stage=1,
    slot=2,
)
_DIAGNOSTIC_DICT = {
    "code": "SCHED003",
    "severity": "warning",
    "message": "late operand",
    "pass_name": "schedule",
    "stage": 1,
    "slot": 2,
    "node": None,
}
_RULE = FaultRule(
    mode="stall",
    kernel="gradient",
    variant="v3",
    times=2,
    exit_code=7,
    stall_s=1.5,
    message="boom",
)
_RULE_DICT = {
    "mode": "stall",
    "kernel": "gradient",
    "variant": "v3",
    "scheduler": None,
    "times": 2,
    "exit_code": 7,
    "stall_s": 1.5,
    "message": "boom",
}
_DEFAULT_RULE_DICT = {
    "mode": "raise",
    "kernel": None,
    "variant": None,
    "scheduler": None,
    "times": None,
    "exit_code": 13,
    "stall_s": 60.0,
    "message": "injected fault",
}

#: One instance of each record class, with the dict its codec must produce.
RECORDS = {
    "OverlaySpec": (
        OverlaySpec("v3", depth=6, fixed=True, fifo_depth=8, scheduler="modulo"),
        _overlay("v3", depth=6, fixed=True, fifo_depth=8, scheduler="modulo"),
    ),
    "SimSpec": (
        SimSpec(engine="fast", num_blocks=64, seed=5, verify=False),
        _sim("fast", num_blocks=64, seed=5, verify=False),
    ),
    "SweepSpec": (
        SweepSpec(
            kernels=("gradient", "poly7"),
            overlays=(OverlaySpec("v1"), OverlaySpec("v3", fifo_depth=8)),
            sim=SimSpec(engine="batched", num_blocks=16),
            jobs=2,
            schedulers=("linear", "modulo"),
            retries=1,
            timeout_s=30.0,
            store_dir="results/store",
            resume=False,
        ),
        {
            "kernels": ["gradient", "poly7"],
            "overlays": [_overlay("v1"), _overlay("v3", fifo_depth=8)],
            "sim": _sim("batched", num_blocks=16),
            "jobs": 2,
            "schedulers": ["linear", "modulo"],
            "retries": 1,
            "timeout_s": 30.0,
            "store_dir": "results/store",
            "resume": False,
        },
    ),
    "TuneSpec": (
        TuneSpec(
            kernel="poly7",
            variants=("v1", "v3"),
            depths=(None, 4),
            fifo_depths=(2, 8),
            schedulers=("linear",),
            model="warmup-aware",
            objective="gops",
            budget=3,
            sim=SimSpec(engine="fast", num_blocks=24),
            jobs=1,
            store_dir="results/tune",
            resume=False,
        ),
        {
            "kernel": "poly7",
            "variants": ["v1", "v3"],
            "depths": [None, 4],
            "fifo_depths": [2, 8],
            "schedulers": ["linear"],
            "model": "warmup-aware",
            "objective": "gops",
            "budget": 3,
            "sim": _sim("fast", num_blocks=24),
            "jobs": 1,
            "store_dir": "results/tune",
            "resume": False,
        },
    ),
    "TuneCandidate": (_CANDIDATE, _CANDIDATE_DICT),
    "TuneResult": (
        TuneResult(
            spec=TuneSpec(kernel="gradient", variants=("v1", "v2")),
            candidates=(
                _CANDIDATE,
                TuneCandidate(overlay=OverlaySpec("v1"), rank=2, error="infeasible"),
            ),
            best_index=0,
        ),
        {
            "spec": {
                "kernel": "gradient",
                "variants": ["v1", "v2"],
                "depths": [None],
                "fifo_depths": [32],
                "schedulers": None,
                "model": "analytic",
                "objective": "ii",
                "budget": 8,
                "sim": _sim("fast"),
                "jobs": None,
                "store_dir": None,
                "resume": True,
            },
            "candidates": [_CANDIDATE_DICT, _INFEASIBLE_DICT],
            "best_index": 0,
        },
    ),
    "Diagnostic": (_DIAGNOSTIC, _DIAGNOSTIC_DICT),
    "VerifyReport": (
        VerifyReport(
            kernel="gradient",
            variant="v1",
            scheduler="linear",
            passes=("dfg", "schedule"),
            diagnostics=(_DIAGNOSTIC,),
        ),
        {
            "kernel": "gradient",
            "variant": "v1",
            "scheduler": "linear",
            "passes": ["dfg", "schedule"],
            "diagnostics": [_DIAGNOSTIC_DICT],
        },
    ),
    "FaultRule": (_RULE, _RULE_DICT),
    "FaultPlan": (
        FaultPlan(rules=(_RULE, FaultRule()), state_dir="results/faults"),
        {"rules": [_RULE_DICT, _DEFAULT_RULE_DICT], "state_dir": "results/faults"},
    ),
}


def _json_native(value):
    """True when ``value`` holds only the types ``json.loads`` returns."""
    if type(value) is dict:
        return all(type(key) is str and _json_native(item) for key, item in value.items())
    if type(value) is list:
        return all(_json_native(item) for item in value)
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordCodec:
    def test_to_dict_is_the_pinned_layout(self, name):
        record, expected = RECORDS[name]
        data = record.to_dict()
        assert data == expected
        # Same keys in the same order, nested dicts included, and no enum,
        # tuple or record left unconverted.
        assert json.dumps(data) == json.dumps(expected)
        assert _json_native(data)

    def test_keys_are_exactly_the_field_names(self, name):
        record, _ = RECORDS[name]
        names = [field.name for field in dataclasses.fields(record)]
        assert list(record.to_dict()) == names
        # to_dict reads __dict__: a record keeps nothing else there.
        assert list(vars(record)) == names

    def test_from_dict_round_trips(self, name):
        record, _ = RECORDS[name]
        cls = type(record)
        assert cls.from_dict(record.to_dict()) == record
        assert cls.from_json(record.to_json()) == record
        assert record.to_json() == json.dumps(record.to_dict(), sort_keys=True)

    def test_unknown_key_is_a_configuration_error(self, name):
        record, _ = RECORDS[name]
        cls = type(record)
        message = rf"unknown {cls.__name__} field\(s\) 'bogus'"
        with pytest.raises(ConfigurationError, match=message):
            cls.from_dict({**record.to_dict(), "bogus": 1})


@pytest.mark.parametrize(
    "tag, name",
    [("overlay", "OverlaySpec"), ("sim", "SimSpec"), ("sweep", "SweepSpec"), ("tune", "TuneSpec")],
)
def test_wire_envelope_is_the_pinned_layout(tag, name):
    spec, expected = RECORDS[name]
    envelope = spec_to_wire(spec)
    assert json.dumps(envelope) == json.dumps({"type": tag, "data": expected})
    assert spec_from_wire(envelope) == spec


def test_fault_plan_json_is_what_workers_read():
    plan, _ = RECORDS["FaultPlan"]
    assert plan.to_json() == (
        '{"rules": [{"exit_code": 7, "kernel": "gradient", "message": "boom", '
        '"mode": "stall", "scheduler": null, "stall_s": 1.5, "times": 2, "variant": "v3"}, '
        '{"exit_code": 13, "kernel": null, "message": "injected fault", "mode": "raise", '
        '"scheduler": null, "stall_s": 60.0, "times": null, "variant": null}], '
        '"state_dir": "results/faults"}'
    )


def test_nested_records_coerce_from_their_dicts():
    sweep = SweepSpec(
        kernels=("gradient",), overlays=({"variant": "v2"},), sim={"engine": "cycle"}
    )
    assert sweep.overlays == (OverlaySpec("v2"),)
    assert sweep.sim == SimSpec(engine="cycle")
    assert TuneSpec(kernel="gradient", sim={"num_blocks": 4}).sim == SimSpec(num_blocks=4)
    report = VerifyReport(
        kernel="k", variant="v1", scheduler="auto", diagnostics=[_DIAGNOSTIC_DICT]
    )
    assert report.diagnostics == (_DIAGNOSTIC,)
    with pytest.raises(ConfigurationError, match="unknown SimSpec field"):
        SweepSpec(kernels=("gradient",), overlays=(OverlaySpec(),), sim={"engines": "fast"})


# ---------------------------------------------------------------------------
# the sweep store's key is built from two records' dicts
# ---------------------------------------------------------------------------
PINNED_POINT = SweepPoint(
    "poly7",
    OverlaySpec("v3", fifo_depth=8, scheduler="modulo"),
    SimSpec(engine="fast", num_blocks=64, seed=5),
)
PINNED_KEY = "b0739efd15ecd8c9b5a462f208ad8d22"

#: The store entry of PINNED_POINT as the store wrote it before the codec
#: was derived from the fields.
PINNED_ENTRY = {
    "key": PINNED_KEY,
    "point": {
        "kernel": "poly7",
        "overlay": _overlay("v3", fifo_depth=8, scheduler="modulo"),
        "sim": _sim("fast", num_blocks=64, seed=5),
    },
    "result": {
        "analytic_ii": 18.0,
        "attempts": 1,
        "elapsed_s": 0.04788282300069113,
        "engine": "fast",
        "error": None,
        "fmax_mhz": 285.9196,
        "kernel": "poly7",
        "latency_cycles": 122,
        "matches_reference": True,
        "measured_ii": 18.0,
        "num_blocks": 64,
        "overlay_depth": 8,
        "overlay_name": "V3x8",
        "quarantined": False,
        "scheduler": "modulo",
        "throughput_gops": 0.6194924666666666,
        "total_cycles": 1256,
        "variant": "v3",
    },
    "version": 2,
}


def test_store_key_is_pinned(tmp_path):
    assert ResultStore(str(tmp_path)).key_for(PINNED_POINT) == PINNED_KEY


def test_store_written_before_resumes(tmp_path):
    path = tmp_path / f"poly7-v3-{PINNED_KEY}.json"
    path.write_text(json.dumps(PINNED_ENTRY, indent=2, sort_keys=True) + "\n")
    store = ResultStore(str(tmp_path))
    [row] = run_sweep([PINNED_POINT], jobs=1, store=store)
    assert (store.stats.hits, store.stats.misses, store.stats.writes) == (1, 0, 0)
    assert dataclasses.asdict(row) == PINNED_ENTRY["result"]
