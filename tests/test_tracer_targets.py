"""The names the benchmark's tracer patches must still exist.

``benchmarks/tracing.py`` wraps enforcekit functions and methods by name.
A refactor that renames or drops one of them would otherwise break only
the traced benchmark runs, which tier-1 does not exercise.
"""

import importlib
import importlib.util
from types import SimpleNamespace

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "enforcekit_bench_tracing", ROOT / "benchmarks" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

LAYERS = ("events", "dsl", "policy", "enforcement", "oracle", "simulator", "cli")


def _layer(name: str):
    return importlib.import_module(f"enforcekit.{name}")


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _ in tracing.SPANNED_FUNCTIONS + tracing.COUNTED_FUNCTIONS]
    + [("oracle", "enumerate_traces"), ("oracle", "enforce_trace")],
)
def test_patched_functions_resolve(module, attr):
    assert callable(getattr(_layer(module), attr))


@pytest.mark.parametrize(
    "module, cls, attr",
    [(m, c, a) for m, c, a, _ in tracing.COUNTED_METHODS]
    + [("enforcement", "ProactiveModule", "alphabet_match")],
)
def test_patched_methods_are_defined_on_their_class(module, cls, attr):
    assert callable(vars(getattr(_layer(module), cls))[attr])


def test_renumbered_is_a_staticmethod_of_trace():
    assert isinstance(vars(_layer("events").Trace)["renumbered"], staticmethod)


def test_tracer_installs_and_restores_cleanly():
    mods = SimpleNamespace(**{name: _layer(name) for name in LAYERS})
    before = {name: dict(vars(mod)) for name, mod in vars(mods).items()}
    renumbered = vars(mods.events.Trace)["renumbered"]
    with tracing.Tracer(mods):
        assert vars(mods.events.Trace)["renumbered"] is not renumbered
    assert vars(mods.events.Trace)["renumbered"] is renumbered
    for name, mod in vars(mods).items():
        assert all(vars(mod)[attr] is value for attr, value in before[name].items())


def test_tracer_counts_instances_on_enforce_and_simulate():
    mods = SimpleNamespace(**{name: _layer(name) for name in LAYERS})
    camera = mods.dsl.parse_policy((ROOT / "catalog" / "camera_release.policy").read_text())
    trace = mods.events.parse_trace("1 api:Camera.open@A1\n2 cb:onPause@A1\n")
    scenario = mods.simulator.parse_scenario((ROOT / "scenarios" / "plumeria-leak.scn").read_text())
    tracer = tracing.Tracer(mods)
    with tracer:
        registry = mods.enforcement.ModuleRegistry.from_policies([camera])
        mods.enforcement.enforce_trace(registry, trace)
        registry.reset()
        mods.simulator.run_scenario(scenario, registry)
    _spans, counts, live_peak = tracer.take()
    assert counts["enforcement.instance_steps"] > 0
    assert counts["enforcement.instances_created"] > 0
    assert live_peak > 0


# ``benchmarks/workloads.py`` calls these on every run, traced or not, so a
# rename breaks the untraced runs too.
@pytest.mark.parametrize(
    "module, attr",
    [
        ("dsl", "parse_document"),
        ("policy", "validate_policy"),
        ("oracle", "validate_monitor"),
        ("oracle", "check"),
        ("simulator", "parse_scenario"),
        ("simulator", "run_scenario"),
        ("cli", "main"),
    ],
)
def test_workload_functions_resolve(module, attr):
    assert callable(getattr(_layer(module), attr))


def test_workload_types_resolve():
    assert _layer("policy").Severity.ERROR.name == "ERROR"
    assert isinstance(_layer("policy").PolicySpec, type)
    assert isinstance(_layer("simulator").ToggleStep, type)


def test_workloads_can_reactivate_and_reset_a_registry():
    # The steps simulate-fleet takes between passes to start from a fresh stack.
    camera = _layer("dsl").parse_policy((ROOT / "catalog" / "camera_release.policy").read_text())
    registry = _layer("enforcement").ModuleRegistry.from_policies([camera])
    registry.set_active("CameraRelease", False)
    for module in registry.modules:
        if not module.active:
            registry.set_active(module.name, True)
    registry.reset()
    assert [(m.name, m.active, len(m.instances)) for m in registry.modules] == [
        ("CameraRelease", True, 0)
    ]
