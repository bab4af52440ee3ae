"""Registry mechanics, once for every plug-in point.

Scheduling strategies, performance models, verification passes and seeded
verifier defects all live in a :class:`repro.registry.Registry`.  Each case
below runs on all four, through the public functions callers use: a taken
name needs ``replace``, an unknown name lists the registered ones, and the
built-ins cannot be removed.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.metrics.models import (
    MODELS,
    AnalyticModel,
    get_model,
    model_names,
    register_model,
    unregister_model,
)
from repro.registry import Registry, describe
from repro.schedule.linear import schedule_linear
from repro.schedule.registry import (
    SCHEDULERS,
    get_scheduler,
    is_builtin_scheduler,
    register_scheduler,
    scheduler_names,
    unregister_scheduler,
)
from repro.verify.engine import PASSES, get_pass, pass_names, register_pass, run_passes
from repro.verify.mutate import (
    MUTATIONS,
    MutationSpec,
    apply_mutation,
    get_mutation,
    mutation_names,
)


def _add_mutation(name, replace=False):
    spec = MutationSpec(name, "spec", "SPEC001", "test-only defect")
    MUTATIONS.add(name, (spec, lambda ctx: None), replace)


PLUGINS = {
    "scheduler strategy": SimpleNamespace(
        table=SCHEDULERS,
        register=lambda name, replace=False: register_scheduler(
            name, schedule_linear, replace=replace
        ),
        lookup=get_scheduler,
        unregister=unregister_scheduler,
        names=scheduler_names,
        builtins=("auto", "linear", "clustered", "modulo", "alap"),
    ),
    "performance model": SimpleNamespace(
        table=MODELS,
        register=lambda name, replace=False: register_model(
            name, AnalyticModel, replace=replace
        ),
        lookup=get_model,
        unregister=unregister_model,
        names=model_names,
        builtins=("analytic", "warmup-aware", "calibrated"),
    ),
    "verification pass": SimpleNamespace(
        table=PASSES,
        register=lambda name, replace=False: register_pass(
            name, lambda ctx: [], family="TEST", replace=replace
        ),
        # An unknown selection fails before the context is looked at.
        lookup=lambda name: run_passes(None, passes=[name]),
        unregister=PASSES.remove,
        names=pass_names,
        builtins=("dfg", "schedule", "regalloc", "binary", "spec"),
    ),
    "mutation": SimpleNamespace(
        table=MUTATIONS,
        register=_add_mutation,
        lookup=lambda name: apply_mutation(None, name),
        unregister=MUTATIONS.remove,
        names=mutation_names,
        builtins=tuple(mutation_names()),
    ),
}


@pytest.fixture(params=sorted(PLUGINS))
def plugin(request):
    return SimpleNamespace(kind=request.param, **vars(PLUGINS[request.param]))


def test_builtins_come_first_in_registration_order(plugin):
    names = list(plugin.names())
    assert names[: len(plugin.builtins)] == list(plugin.builtins)
    assert all(plugin.table.is_builtin(name) for name in plugin.builtins)


def test_unknown_name_lists_the_registered_ones(plugin):
    message = rf"unknown {plugin.kind} 'no-such-entry'; registered: .*{plugin.builtins[-1]}"
    with pytest.raises(ConfigurationError, match=message):
        plugin.lookup("no-such-entry")


def test_taken_name_needs_replace(plugin):
    plugin.register("test-dup")
    try:
        first = plugin.table.get("test-dup")
        with pytest.raises(ConfigurationError, match="already registered"):
            plugin.register("test-dup")
        assert plugin.table.get("test-dup") is first
        plugin.register("test-dup", replace=True)
        assert plugin.table.get("test-dup") is not first
    finally:
        plugin.unregister("test-dup")
    assert "test-dup" not in plugin.names()


def test_replacing_a_builtin_keeps_its_place(plugin):
    name = plugin.builtins[0]
    entry = plugin.table.get(name)
    with pytest.raises(ConfigurationError, match="already registered"):
        plugin.table.add(name, entry)
    plugin.table.add(name, entry, replace=True)
    assert plugin.table.get(name) is entry
    assert list(plugin.names()).index(name) == 0


def test_builtins_cannot_be_removed(plugin):
    for name in plugin.builtins:
        with pytest.raises(ConfigurationError, match="built-in"):
            plugin.unregister(name)
        assert name in plugin.names()


def test_removing_an_unknown_name_is_a_no_op(plugin):
    before = list(plugin.names())
    plugin.unregister("never-registered")
    assert list(plugin.names()) == before


def test_empty_names_are_refused(plugin):
    with pytest.raises(ConfigurationError, match="non-empty"):
        plugin.register("")


def test_public_wrappers_read_the_shared_tables():
    assert get_pass("dfg") is PASSES.get("dfg")
    assert get_mutation("dfg-cycle") is MUTATIONS.get("dfg-cycle")[0]
    assert is_builtin_scheduler("modulo") and not is_builtin_scheduler("no-such-entry")
    assert get_model("analytic") is not get_model("analytic")  # fresh per lookup


def test_description_defaults_to_the_first_docstring_line():
    def documented():
        """First line.

        More text.
        """

    assert describe(documented) == "First line."
    assert describe(documented, "given") == "given"
    assert describe(lambda: None) == ""
    table = Registry("widget")
    with pytest.raises(ConfigurationError, match="unknown widget 'x'; registered: $"):
        table.get("x")
