"""Tests of the benchmark itself: generators, smoke runs, tracing.

Run from the root of a checkout with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "verify-catalog": lambda seed: workloads.VerifyCatalog(ROOT, seed, shorten=2),
    "enforce-stream": lambda seed: workloads.EnforceStream(ROOT, seed, n_events=600),
    "simulate-fleet": lambda seed: workloads.SimulateFleet(ROOT, seed, n_scenarios=40),
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_generators_give_the_same_bytes_for_the_same_seed():
    assert generate.stream_trace(7, 2000) == generate.stream_trace(7, 2000)
    assert generate.fleet(7, 50) == generate.fleet(7, 50)
    assert generate.verify_cases(7, "p") == generate.verify_cases(7, "p")
    assert generate.stream_trace(7, 2000)[0] != generate.stream_trace(8, 2000)[0]
    assert generate.fleet(7, 50) != generate.fleet(8, 50)


def test_stream_has_the_promised_shape():
    text, model = generate.stream_trace(3, 5000)
    lines = text.splitlines()
    assert len(lines) == model.events == 5000
    services = [l for l in lines if "registerService@" in l and "unregister" not in l]
    assert len({l.split()[-1] for l in services}) == len(services)  # fresh ids
    assert 0.2 < model.noise / model.events < 0.3
    assert model.inserted > 0 and all(model.input_violations.values())


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_reference_checks(name, trace):
    result = run.run_workload(TINY[name](1), seconds=0, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[section]}
    for entry in bench[section]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_a_verifier_that_always_says_yes_is_caught():
    workload = TINY["verify-catalog"](1)
    mods = run.timed_setup(workload)[0]
    real = mods.cli.brute_force_verify

    def optimistic(policy, monitor, universe, **kwargs):
        verdict = real(policy, monitor, universe, **kwargs)
        return mods.oracle.Verdict(True, True, traces_checked=verdict.traces_checked)

    mods.cli.brute_force_verify = optimistic
    problems = workload.check_pass(workload.run_pass())
    assert any(p.startswith("identity:") for p in problems)


def test_a_stream_enforcer_that_drops_insertions_is_caught():
    workload = TINY["enforce-stream"](1)
    mods = run.timed_setup(workload)[0]
    real = mods.cli.enforce_trace

    def lazy(registry, trace):
        _enforced, report = real(registry, trace)
        return trace, report

    mods.cli.enforce_trace = lazy
    workload.check_pass(workload.run_pass())
    assert any("enforced trace violates" in p for p in workload.check_final())


def _bindings(mods) -> dict:
    """Every attribute of every enforcekit module and class, by identity."""
    seen = {}
    for module in tracing._namespaces():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("enforcekit"):
                for cls_attr, cls_value in vars(value).items():
                    seen[(module.__name__, attr, cls_attr)] = cls_value
    return seen


def test_tracing_restores_every_wrapped_function():
    workload = TINY["simulate-fleet"](1)
    mods = run.timed_setup(workload)[0]
    before = _bindings(mods)
    tracer = tracing.Tracer(mods)
    with tracer:
        assert mods.oracle.enforce_trace is not before[("enforcekit.oracle", "enforce_trace")]
        workload.run_pass()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    spans, counts, _live = tracer.take()
    assert spans and counts["events.event_constructions"] > 0


def test_self_time_subtracts_children_and_folds_same_name_nesting():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("dsl.load", 1.0, 3.0, 0),
        ("dsl.load", 1.5, 2.5, 1),  # parse_document calling parse_policy
        ("enforcement.enforce_trace", 4.0, 9.0, 0),
        ("events.renumbered", 8.0, 9.0, 3),
    ]
    total, self_time, calls = tracing.span_totals(spans)
    assert total["dsl.load"] == 2.0 and calls["dsl.load"] == 1
    assert self_time["dsl.load"] == 2.0
    assert self_time["cli.main"] == 3.0
    assert self_time["enforcement.enforce_trace"] == 4.0
