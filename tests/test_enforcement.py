"""Proactive enforcement pipeline: instances, fan-out, chaining, reports."""

import dataclasses
import doctest

import pytest
from hypothesis import given, settings, strategies as st

import enforcekit
from enforcekit import (
    DefaultAction,
    DispatchError,
    EnforcementError,
    Event,
    EventKind,
    EventPattern,
    INPUT,
    ModuleRegistry,
    OutputTemplate,
    PolicySpec,
    ProactiveModule,
    SynthEvent,
    Trace,
    Transition,
    UnknownModuleError,
    check,
    enforce_event,
    enforce_trace,
    parse_monitor,
    parse_policy,
    serialize_trace,
)
from enforcekit import policy as policy_module
from enforcekit.enforcement import (
    INSERT,
    SUPPRESS,
    AutomatonInstance,
    EditRecord,
    EnforcementReport,
    ModuleCounts,
    _account,
)

from conftest import BINDER_PATTERNS, CATALOG, PLAIN_PATTERNS, SHADOWED_PATTERNS, policies

API = EventKind.API_CALL
CB = EventKind.CALLBACK

CAMERA = parse_policy((CATALOG / "camera_release.policy").read_text())
OSGI = parse_policy((CATALOG / "osgi_unregister.policy").read_text())


def _registry(*policies: PolicySpec, limit: int = 16) -> ModuleRegistry:
    return ModuleRegistry.from_policies(policies, insert_depth_limit=limit)


def _literals(events) -> list[str]:
    return [e.literal() for e in events]


def _chain_link(i: int) -> PolicySpec:
    """Policy P<i> that prepends api p<i+1> to every api p<i> it sees."""
    source = EventPattern(API, f"p{i}")
    out = OutputTemplate((SynthEvent(API, f"p{i + 1}"), INPUT))
    return PolicySpec(
        f"P{i}", ("S",), "S", (Transition("S", source, "S", out),), alphabet=(source,)
    )


def _suppressor(name: str, api_name: str) -> PolicySpec:
    pattern = EventPattern(API, api_name)
    return PolicySpec(
        name,
        ("S",),
        "S",
        (Transition("S", pattern, "S", OutputTemplate(())),),
        alphabet=(pattern,),
    )


class TestAutomatonStep:
    """Single-instance edit steps, checked against hand-derived outputs."""

    def test_open_moves_free_to_held_and_passes(self):
        inst = AutomatonInstance(CAMERA, ("A1",), "FREE")
        open_ = Event.api("Camera.open", "A1", seq=1)
        assert inst.step(open_) == [open_]
        assert inst.current == "HELD"

    def test_pause_in_held_inserts_release_before_input(self):
        inst = AutomatonInstance(CAMERA, ("A1",), "HELD")
        pause = Event.cb("onPause", "A1", seq=2)
        out = inst.step(pause)
        assert len(out) == 2
        release, emitted = out
        assert release.synthetic
        assert release.kind is API
        assert release.name == "Camera.release"
        assert release.component == "A1"
        assert release.seq == 2
        assert emitted is pause
        assert inst.current == "FREE"

    def test_pause_in_free_falls_through_to_default_allow(self):
        inst = AutomatonInstance(CAMERA, ("A1",), "FREE")
        pause = Event.cb("onPause", "A1", seq=1)
        assert inst.step(pause) == [pause]
        assert inst.current == "FREE"

    def test_double_open_is_allowed_without_state_change(self):
        inst = AutomatonInstance(CAMERA, ("A1",), "HELD")
        open_ = Event.api("Camera.open", "A1", seq=3)
        assert inst.step(open_) == [open_]
        assert inst.current == "HELD"

    def test_suppress_transition_emits_nothing(self):
        policy = _suppressor("Muffle", "noisy")
        inst = AutomatonInstance(policy, (), "S")
        assert inst.step(Event.api("noisy", "C1", seq=1)) == []


class TestEnforceEvent:
    def test_event_outside_every_alphabet_passes_through(self):
        registry = _registry(CAMERA)
        resume = Event.cb("onResume", "A1", seq=1)
        assert enforce_event(registry, resume) == [resume]

    def test_pause_while_holding_camera_gets_a_release(self):
        registry = _registry(CAMERA)
        open_ = Event.api("Camera.open", "A1", seq=1)
        pause = Event.cb("onPause", "A1", seq=2)
        assert enforce_event(registry, open_) == [open_]
        out = enforce_event(registry, pause)
        assert _literals(out) == ["!api:Camera.release@A1", "cb:onPause@A1"]
        assert out[1] is pause

    def test_components_are_tracked_independently(self):
        registry = _registry(CAMERA)
        enforce_event(registry, Event.api("Camera.open", "A1", seq=1))
        pause_other = Event.cb("onPause", "A2", seq=2)
        assert enforce_event(registry, pause_other) == [pause_other]

    def test_dispatch_error_propagates_from_single_event(self):
        registry = _registry(OSGI)
        with pytest.raises(DispatchError, match="lacks binder attribute 'service'"):
            enforce_event(registry, Event.api("registerService", "B1", seq=1))


class TestBroadcast:
    """Binder-free events under per-binder instancing fan out to instances."""

    def test_stop_unregisters_in_ascending_key_order(self):
        registry = _registry(OSGI)
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S1"),
                Event.api("registerService", "B1", service="S2"),
                Event.cb("stop", "B1"),
            ]
        )
        out, report = enforce_trace(registry, trace)
        assert _literals(out.events) == [
            "api:registerService@B1{service=S1}",
            "api:registerService@B1{service=S2}",
            "!api:unregisterService@B1{service=S1}",
            "!api:unregisterService@B1{service=S2}",
            "cb:stop@B1",
        ]
        assert report.counts["OsgiUnregister"].inserted == 2

    def test_insertion_order_ignores_registration_order(self):
        registry = _registry(OSGI)
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S2"),
                Event.api("registerService", "B1", service="S1"),
                Event.cb("stop", "B1"),
            ]
        )
        out, _ = enforce_trace(registry, trace)
        # Key order, not arrival order: S1 is released first either way.
        assert _literals(out.events)[2:] == [
            "!api:unregisterService@B1{service=S1}",
            "!api:unregisterService@B1{service=S2}",
            "cb:stop@B1",
        ]

    def test_only_still_registered_services_are_released(self):
        registry = _registry(OSGI)
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S1"),
                Event.api("registerService", "B1", service="S2"),
                Event.api("unregisterService", "B1", service="S1"),
                Event.cb("stop", "B1"),
            ]
        )
        out, _ = enforce_trace(registry, trace)
        assert _literals(out.events)[3:] == [
            "!api:unregisterService@B1{service=S2}",
            "cb:stop@B1",
        ]

    def test_instances_registered_out_of_order_receive_broadcasts(self):
        registry = _registry(OSGI)
        for bundle, service in [("B1", "S2"), ("B1", "S1"), ("B2", "S3")]:
            enforce_event(registry, Event.api("registerService", bundle, service=service))
        assert _literals(enforce_event(registry, Event.cb("stop", "B1", seq=1))) == [
            "!api:unregisterService@B1{service=S1}",
            "!api:unregisterService@B1{service=S2}",
            "cb:stop@B1",
        ]

    def test_instances_are_a_read_only_view_kept_by_the_module(self):
        registry = _registry(OSGI)
        module = registry.module("OsgiUnregister")
        enforce_event(registry, Event.api("registerService", "B1", service="S1"))
        assert len(module.instances) == 1
        with pytest.raises(TypeError):
            module.instances[("B1", "S2")] = module.instances[("B1", "S1")]
        with pytest.raises(AttributeError):
            module.instances = {}
        with pytest.raises(TypeError, match="instances"):
            ProactiveModule(OSGI, instances={})

    def test_broadcast_with_no_instances_passes_and_creates_none(self):
        registry = _registry(OSGI)
        stop = Event.cb("stop", "B1", seq=1)
        assert enforce_event(registry, stop) == [stop]
        assert registry.module("OsgiUnregister").instances == {}

    def test_broadcast_is_scoped_to_the_event_component(self):
        registry = _registry(OSGI)
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S1"),
                Event.api("registerService", "B2", service="S2"),
                Event.cb("stop", "B1"),
            ]
        )
        out, _ = enforce_trace(registry, trace)
        assert _literals(out.events)[2:] == [
            "!api:unregisterService@B1{service=S1}",
            "cb:stop@B1",
        ]


class TestInsertionDepth:
    def test_limit_one_trips_on_the_second_insertion(self):
        registry = _registry(_chain_link(0), _chain_link(1), limit=1)
        with pytest.raises(EnforcementError) as exc:
            enforce_event(registry, Event.api("p0", "C1", seq=7))
        assert str(exc.value) == (
            "insertion depth limit 1 exceeded (module chain: P0 -> P1)"
        )
        assert exc.value.seq == 7

    def test_enforce_trace_prefixes_the_input_seq(self):
        registry = _registry(_chain_link(0), _chain_link(1), limit=1)
        with pytest.raises(EnforcementError) as exc:
            enforce_trace(registry, Trace((Event.api("p0", "C1", seq=7),)))
        assert str(exc.value) == (
            "seq 7: insertion depth limit 1 exceeded (module chain: P0 -> P1)"
        )
        assert exc.value.seq == 7

    def test_default_limit_stops_a_seventeen_module_chain(self):
        registry = ModuleRegistry.from_policies([_chain_link(i) for i in range(17)])
        with pytest.raises(EnforcementError) as exc:
            enforce_event(registry, Event.api("p0", "C1", seq=1))
        message = str(exc.value)
        assert "insertion depth limit 16 exceeded" in message
        assert " -> ".join(f"P{i}" for i in range(17)) in message

    def test_raising_the_limit_lets_the_chain_complete(self):
        registry = _registry(*(_chain_link(i) for i in range(17)), limit=17)
        out = enforce_event(registry, Event.api("p0", "C1", seq=1))
        assert _literals(out) == [f"!api:p{i}@C1" for i in range(17, 0, -1)] + [
            "api:p0@C1"
        ]

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ModuleRegistry([], 0)

    @pytest.mark.parametrize("limit", [True, False, 2.5, "16", None])
    def test_limit_must_be_an_int(self, limit):
        with pytest.raises(TypeError, match="insert_depth_limit must be an int"):
            ModuleRegistry([], limit)

    @pytest.mark.parametrize("field, value", [("modules", ()), ("insert_depth_limit", 0)])
    def test_registry_fields_cannot_be_reassigned(self, field, value):
        registry = _registry(CAMERA)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(registry, field, value)
        assert len(registry.modules) == 1
        assert registry.insert_depth_limit == 16


class TestModuleChaining:
    def test_synthesized_events_are_rewritten_downstream(self):
        a = EventPattern(API, "a")
        b = EventPattern(API, "b")
        first = PolicySpec(
            "First",
            ("S",),
            "S",
            (Transition("S", a, "S", OutputTemplate((SynthEvent(API, "b"), INPUT))),),
            alphabet=(a,),
        )
        second = PolicySpec(
            "Second",
            ("S",),
            "S",
            (Transition("S", b, "S", OutputTemplate((SynthEvent(API, "c"), INPUT))),),
            alphabet=(b,),
        )
        registry = _registry(first, second)
        out = enforce_event(registry, Event.api("a", "C1", seq=1))
        assert _literals(out) == ["!api:c@C1", "!api:b@C1", "api:a@C1"]

    def test_upstream_modules_never_see_synthesized_events(self):
        x = EventPattern(API, "x")
        inserter = PolicySpec(
            "Inserter",
            ("S",),
            "S",
            (
                Transition(
                    "S",
                    EventPattern(API, "b"),
                    "S",
                    OutputTemplate((SynthEvent(API, "x"), INPUT)),
                ),
            ),
            alphabet=(EventPattern(API, "b"),),
        )
        registry = _registry(_suppressor("Muffle", "x"), inserter)
        # A plain x is eaten by the upstream suppressor ...
        assert enforce_event(registry, Event.api("x", "C1", seq=1)) == []
        # ... but an x synthesized downstream of it survives.
        out = enforce_event(registry, Event.api("b", "C1", seq=2))
        assert _literals(out) == ["!api:x@C1", "api:b@C1"]

    def test_modules_run_in_the_order_given(self):
        a = ProactiveModule(_suppressor("A", "a"))
        b = ProactiveModule(_suppressor("B", "b"))
        assert ModuleRegistry([b, a]).modules == (b, a)

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ValueError, match="names must be unique"):
            _registry(_suppressor("Same", "a"), _suppressor("Same", "b"))
        with pytest.raises(ValueError, match="names must be unique"):
            ModuleRegistry([ProactiveModule(CAMERA), ProactiveModule(CAMERA)])


class TestActivation:
    def test_unknown_module_name(self):
        registry = _registry(CAMERA)
        with pytest.raises(
            UnknownModuleError, match="no module named 'Nope' in the registry"
        ):
            registry.set_active("Nope", True)

    @pytest.mark.parametrize("active", ["off", "", 0, 1, None])
    def test_flag_must_be_a_bool(self, active):
        registry = _registry(CAMERA)
        with pytest.raises(TypeError, match="'active' must be a bool"):
            registry.set_active("CameraRelease", active)
        assert registry.module("CameraRelease").active is True

    def test_every_module_starts_active(self):
        assert ProactiveModule(CAMERA).active is True
        with pytest.raises(TypeError, match="'active'"):
            ProactiveModule(CAMERA, active=False)

    @pytest.mark.parametrize("field, value", [("active", "no"), ("policy", OSGI)])
    def test_module_fields_cannot_be_reassigned(self, field, value):
        registry = _registry(CAMERA)
        module = registry.module("CameraRelease")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(module, field, value)
        for holder in (module, registry):
            with pytest.raises(TypeError):
                vars(holder)
        assert (module.active, module.policy) == (True, CAMERA)
        trace = Trace.renumbered([Event.api("Camera.open", "A1"), Event.cb("onPause", "A1")])
        out, _ = enforce_trace(registry, trace)
        assert _literals(out) == ["api:Camera.open@A1", "!api:Camera.release@A1", "cb:onPause@A1"]

    def test_modules_and_registries_compare_and_hash_by_identity(self):
        # Each holds the state of a run, so it equals only itself.
        first, second = ProactiveModule(CAMERA), ProactiveModule(CAMERA)
        assert first != second and first == first
        opened = Event.api("Camera.open", "A1", seq=1)
        first.step(opened, first.alphabet_match(opened))
        assert first.instances and first == first
        other = ProactiveModule(OSGI)
        registry = ModuleRegistry([other, first])
        assert registry.modules == (other, first)
        assert registry == registry != ModuleRegistry([other, first])
        assert len({first, second, other, registry}) == 4
        assert hash(first) == hash(first) and hash(registry) == hash(registry)

    def test_inactive_module_is_identity(self):
        registry = _registry(CAMERA)
        enforce_event(registry, Event.api("Camera.open", "A1", seq=1))
        registry.set_active("CameraRelease", False)
        pause = Event.cb("onPause", "A1", seq=2)
        assert enforce_event(registry, pause) == [pause]

    def test_reactivation_starts_from_a_clean_slate(self):
        registry = _registry(CAMERA)
        enforce_event(registry, Event.api("Camera.open", "A1", seq=1))
        registry.set_active("CameraRelease", False)
        registry.set_active("CameraRelease", True)
        assert registry.module("CameraRelease").instances == {}
        # The reactivated module never saw the open, so the pause passes.
        pause = Event.cb("onPause", "A1", seq=2)
        assert enforce_event(registry, pause) == [pause]

    def test_activating_an_active_module_keeps_its_state(self):
        registry = _registry(CAMERA)
        enforce_event(registry, Event.api("Camera.open", "A1", seq=1))
        registry.set_active("CameraRelease", True)
        out = enforce_event(registry, Event.cb("onPause", "A1", seq=2))
        assert _literals(out) == ["!api:Camera.release@A1", "cb:onPause@A1"]

    def test_reset_drops_instances_but_keeps_flags(self):
        registry = _registry(CAMERA)
        enforce_event(registry, Event.api("Camera.open", "A1", seq=1))
        registry.set_active("CameraRelease", False)
        registry.reset()
        module = registry.module("CameraRelease")
        assert module.instances == {}
        assert not module.active


class TestEnforceTrace:
    def test_empty_trace(self):
        out, report = enforce_trace(_registry(CAMERA), Trace(()))
        assert out.events == ()
        assert report.delta == 0

    def test_compliant_trace_is_unchanged(self):
        trace = Trace.renumbered(
            [
                Event.api("Camera.open", "A1"),
                Event.api("Camera.release", "A1"),
                Event.cb("onPause", "A1"),
            ]
        )
        out, report = enforce_trace(_registry(CAMERA), trace)
        assert out.events == trace.events
        assert report.total.inserted == 0
        assert report.total.suppressed == 0

    def test_output_is_renumbered_from_one(self):
        trace = Trace.renumbered(
            [Event.api("Camera.open", "A1"), Event.cb("onPause", "A1")]
        )
        out, report = enforce_trace(_registry(CAMERA), trace)
        assert _literals(out.events) == [
            "api:Camera.open@A1",
            "!api:Camera.release@A1",
            "cb:onPause@A1",
        ]
        assert [e.seq for e in out.events] == [1, 2, 3]
        # The edit is attributed to the input seq that triggered it.
        (record,) = report.records
        assert record.seq == 2
        assert record.module == "CameraRelease"
        assert record.action == INSERT
        assert str(record) == (
            "seq=2 module=CameraRelease action=insert event=!api:Camera.release@A1"
        )

    def test_dispatch_error_is_wrapped_with_the_seq(self):
        trace = Trace.renumbered([Event.api("registerService", "B1")])
        with pytest.raises(EnforcementError, match="seq 1: ") as exc:
            enforce_trace(_registry(OSGI), trace)
        assert exc.value.seq == 1
        assert "lacks binder attribute 'service'" in str(exc.value)

    @pytest.mark.parametrize("first", ["api a", "api a{x=one}"])
    def test_taken_transition_binds_its_own_binder(self, first):
        # The first alphabet pattern an event matches need not be the
        # pattern of the transition it takes; the template must still see
        # the value the taken transition binds, not a stale or missing one.
        policy = parse_policy(
            f"policy Echo instantiate per-component alphabet {first}, api a{{x=$v}} "
            "initial S state S: on api a{x=$v} -> S emit [api b{x=$v}, $in] end"
        )
        trace = Trace.renumbered(
            [Event.api("a", "C1", x="two"), Event.api("a", "C1", x="one")]
        )
        out, _report = enforce_trace(_registry(policy), trace)
        assert _literals(out.events) == [
            "!api:b@C1{x=two}",
            "api:a@C1{x=two}",
            "!api:b@C1{x=one}",
            "api:a@C1{x=one}",
        ]

    def test_suppression_shortens_the_trace(self):
        trace = Trace.renumbered(
            [Event.api("noisy", "C1"), Event.api("quiet", "C1")]
        )
        out, report = enforce_trace(_registry(_suppressor("Muffle", "noisy")), trace)
        assert _literals(out.events) == ["api:quiet@C1"]
        counts = report.counts["Muffle"]
        assert counts.suppressed == 1
        assert counts.passed == 0
        assert report.delta == -1

    def test_all_modules_deactivated_is_identity(self):
        registry = _registry(CAMERA, OSGI)
        registry.set_active("CameraRelease", False)
        registry.set_active("OsgiUnregister", False)
        trace = Trace.renumbered(
            [
                Event.api("Camera.open", "A1"),
                Event.api("registerService", "B1", service="S1"),
                Event.cb("onPause", "A1"),
                Event.cb("stop", "B1"),
            ]
        )
        out, report = enforce_trace(registry, trace)
        assert out.events == trace.events
        assert report.delta == 0

    def test_enforcement_is_deterministic(self):
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S2"),
                Event.api("Camera.open", "A1"),
                Event.api("registerService", "B1", service="S1"),
                Event.cb("stop", "B1"),
                Event.cb("onPause", "A1"),
            ]
        )
        first, first_report = enforce_trace(_registry(CAMERA, OSGI), trace)
        second, second_report = enforce_trace(_registry(CAMERA, OSGI), trace)
        assert serialize_trace(first) == serialize_trace(second)
        assert first_report.records == second_report.records


def test_transition_index_is_built_once_per_spec(monkeypatch):
    calls = []
    original = policy_module.index_transitions

    def counting(transitions):
        calls.append(transitions)
        return original(transitions)

    monkeypatch.setattr(policy_module, "index_transitions", counting)
    policy = parse_policy((CATALOG / "osgi_unregister.policy").read_text())
    monitor = parse_monitor((CATALOG / "osgi.monitor").read_text())
    events = [
        Event.api("registerService", f"B{b}", service=f"S{s}")
        for b in range(10)
        for s in range(10)
    ]
    events += [Event.cb("stop", f"B{b}") for b in range(10)]
    registry = _registry(policy)
    enforced, report = enforce_trace(registry, Trace.renumbered(events))
    assert len(registry.module("OsgiUnregister").instances) == 100
    assert report.total.inserted == 100
    assert check(enforced, monitor) == []
    assert len(check(Trace.renumbered(events), monitor)) == 100
    assert len(calls) <= 2  # one policy, one monitor


def test_package_docstring_example_runs():
    parser = doctest.DocTestParser()
    example = parser.get_doctest(enforcekit.__doc__, {}, "enforcekit", None, 0)
    result = doctest.DocTestRunner().run(example)
    assert result.attempted > 0
    assert result.failed == 0


def _bundle_reference_model(events) -> list[Event]:
    """Straight-line re-statement of the unregister-on-stop behaviour."""
    registered: dict[str, set[str]] = {}
    out: list[Event] = []
    for event in events:
        held = registered.setdefault(event.component, set())
        if event.name == "registerService":
            held.add(event.attrs["service"])
            out.append(event)
        elif event.name == "unregisterService":
            held.discard(event.attrs["service"])
            out.append(event)
        else:  # stop
            for service in sorted(held):
                out.append(
                    Event(
                        API,
                        "unregisterService",
                        event.component,
                        seq=event.seq,
                        synthetic=True,
                        attrs={"service": service},
                    )
                )
            held.clear()
            out.append(event)
    return out


@st.composite
def _bundle_events(draw):
    component = draw(st.sampled_from(["B1", "B2"]))
    name = draw(
        st.sampled_from(["registerService", "unregisterService", "stop"])
    )
    if name == "stop":
        return Event.cb("stop", component)
    return Event.api(name, component, service=draw(st.sampled_from(["S1", "S2", "S3"])))


@given(st.lists(_bundle_events(), max_size=12))
def test_broadcast_agrees_with_the_reference_model(events):
    trace = Trace.renumbered(events)
    out, _ = enforce_trace(_registry(OSGI), trace)
    expected = Trace.renumbered(_bundle_reference_model(trace.events))
    assert out.events == expected.events


_MIXED_EVENTS = st.sampled_from(
    [
        Event.api("Camera.open", "A1"),
        Event.api("Camera.release", "A1"),
        Event.cb("onPause", "A1"),
        Event.cb("onResume", "A1"),
        Event.api("registerService", "B1", service="S1"),
        Event.api("registerService", "B1", service="S2"),
        Event.api("unregisterService", "B1", service="S1"),
        Event.cb("stop", "B1"),
    ]
)


@given(st.lists(_MIXED_EVENTS, max_size=10))
def test_report_accounts_for_every_length_change(events):
    trace = Trace.renumbered(events)
    out, report = enforce_trace(_registry(CAMERA, OSGI), trace)
    assert len(out.events) - len(trace.events) == report.delta
    total = report.total
    assert len(report.records) == total.inserted + total.suppressed


def test_a_passed_event_counts_one_pass_and_no_record():
    registry = _registry(CAMERA)
    module = registry.modules[0]
    event = Event.api("Camera.open", "A1", 1)
    emitted = module.step(event, module.policy.match(event))
    assert len(emitted) == 1 and emitted[0] is event
    report = EnforcementReport.for_registry(registry)
    _account(report, module.name, event, emitted)
    assert report.counts == {module.name: ModuleCounts(passed=1)}
    assert report.records == []
    assert enforce_event(registry, Event.api("Camera.open", "A2", 2), report) == [
        Event.api("Camera.open", "A2", 2)
    ]
    assert report.counts == {module.name: ModuleCounts(passed=2)}
    assert report.records == []


def test_a_caller_made_report_gains_the_counts_of_the_modules_that_step():
    registry = _registry(CAMERA, OSGI)
    report = EnforcementReport()
    enforce_event(registry, Event.api("Camera.open", "A1", 1), report)
    enforce_event(registry, Event.cb("onPause", "A1", 2), report)
    assert report.counts == {"CameraRelease": ModuleCounts(inserted=1, passed=2)}
    assert [str(r) for r in report.records] == [
        "seq=2 module=CameraRelease action=insert event=!api:Camera.release@A1"
    ]


def _broadcast_reactive(spec: PolicySpec) -> set[str]:
    """States in which a binder-free broadcast can change an instance."""
    if spec.default is DefaultAction.SUPPRESS:
        return set(spec.states)
    free = {(p.kind, p.name) for p in spec.alphabet if not p.binder()}
    return {t.source for t in spec.transitions if (t.pattern.kind, t.pattern.name) in free}


@pytest.mark.parametrize("default", list(DefaultAction))
@given(
    ops=st.lists(
        st.one_of(_bundle_events(), st.sampled_from(["reset", "off", "on", "save", "restore"])),
        max_size=24,
    )
)
def test_broadcast_index_holds_the_live_keys_in_reactive_states(default, ops):
    registry = _registry(CAMERA, dataclasses.replace(OSGI, default=default))
    module = registry.module("OsgiUnregister")
    spec = module.policy
    reactive = _broadcast_reactive(spec)

    def check_index():
        for component in ("B1", "B2"):
            instances = module.instances.items()
            expected = {k for k, i in instances if k[0] == component and i.current in reactive}
            assert set(module._keys_by_component.get(component, ())) == expected

    saved = module._snapshot()
    for seq, op in enumerate(ops, 1):
        if op == "reset":
            registry.reset()
        elif op in ("off", "on"):
            registry.set_active(module.name, op == "on")
        elif op == "save":
            # The verify walk's snapshot, copied so later steps leave it be.
            saved = tuple((key, state, dict(b)) for key, state, b in module._snapshot())
        elif op == "restore":
            module._restore(saved)
        else:
            enforce_event(registry, dataclasses.replace(op, seq=seq))
        check_index()
    module._restore(module._snapshot())  # as the verify walk does at each node
    check_index()


def test_a_step_whose_template_fails_keeps_its_state_and_index():
    policy = parse_policy(
        "policy Trip\n"
        "instantiate per-binder res\n"
        "alphabet api arm{res=$r}, cb stop\n"
        "initial IDLE\n"
        "state IDLE:\n"
        "  on api arm{res=$r} -> ARMED emit [api note{tag=$t}, $in]\n"
        "state ARMED:\n"
        "  on cb stop -> IDLE emit [api disarm{res=$r}, $in]\n"
        "end\n"
    )
    registry = _registry(policy)
    with pytest.raises(EnforcementError, match=r"unbound binder '\$t'"):
        enforce_event(registry, Event.api("arm", "C1", seq=1, res="r1"))
    assert registry.module("Trip").instances[("C1", "r1")].current == "IDLE"
    stop = Event.cb("stop", "C1", seq=2)
    assert enforce_event(registry, stop) == [stop]


# The stack as it was written before module steps returned one emitted
# list: instance selection, the (pre, emit-input, post) fan-out and a
# dispatch that recursed once per module an event passed. It keeps its own
# instance tables and scans every module, so it shares neither the key
# index nor the candidate index with the code under test.


def _reference_select(policy, instances, event, pattern):
    keys, bindings = policy.route(event, pattern, instances)
    selected = []
    for key in keys:
        instance = instances.get(key)
        if instance is None:
            instance = instances[key] = AutomatonInstance(policy, key, policy.initial)
        if bindings:
            instance.bindings.update(bindings)
        selected.append(instance)
    return selected


def _reference_apply(policy, instances, event, pattern, report, origin_seq):
    pre, post, suppressed = [], [], False
    for instance in _reference_select(policy, instances, event, pattern):
        outputs = instance.step(event)
        if len(outputs) == 1 and outputs[0] is event:
            continue
        for position, emitted in enumerate(outputs):
            if emitted is event:
                pre.extend(outputs[:position])
                post.extend(outputs[position + 1 :])
                break
        else:
            suppressed = True
            pre.extend(outputs)
    counts = report.counts[policy.name]
    counts.inserted += len(pre) + len(post)
    if suppressed:
        counts.suppressed += 1
        report.records.append(EditRecord(origin_seq, policy.name, SUPPRESS, event.literal()))
    else:
        counts.passed += 1
    for synth in pre + post:
        report.records.append(EditRecord(origin_seq, policy.name, INSERT, synth.literal()))
    return pre, not suppressed, post


def _reference_dispatch(stack, limit, event, start, depth, chain, report, origin_seq):
    for idx in range(start, len(stack)):
        policy, active, instances = stack[idx]
        pattern = policy.match(event) if active else None
        if pattern is None:
            continue
        pre, emit_input, post = _reference_apply(
            policy, instances, event, pattern, report, origin_seq
        )
        next_chain = chain + (policy.name,)
        if (pre or post) and depth + 1 > limit:
            raise EnforcementError(
                f"insertion depth limit {limit} exceeded "
                f"(module chain: {' -> '.join(next_chain)})",
                seq=origin_seq,
            )
        out = []
        for synth in pre:
            out += _reference_dispatch(
                stack, limit, synth, idx + 1, depth + 1, next_chain, report, origin_seq
            )
        if emit_input:
            out += _reference_dispatch(
                stack, limit, event, idx + 1, depth, chain, report, origin_seq
            )
        for synth in post:
            out += _reference_dispatch(
                stack, limit, synth, idx + 1, depth + 1, next_chain, report, origin_seq
            )
        return out
    return [event]


def reference_enforce_trace(policies, active, limit, trace):
    """``enforce_trace`` on a fresh stack of ``policies`` in priority order."""
    stack = [(policy, on, {}) for policy, on in zip(policies, active)]
    report = EnforcementReport({policy.name: ModuleCounts() for policy in policies})
    out = []
    for event in trace:
        try:
            out += _reference_dispatch(stack, limit, event, 0, 0, (), report, event.seq)
        except (DispatchError, EnforcementError) as err:
            raise EnforcementError(f"seq {event.seq}: {err}", seq=event.seq) from err
    return Trace.renumbered(out), report


_STACK_EVENTS = st.sampled_from(
    [
        make(name, component, **attrs)
        for component in ("C1", "C2")
        for make, name, attrs in [
            # Events the plain-pattern policies match or synthesize.
            (Event.cb, "onStop", {}),
            (Event.api, "acquire", {}),
            (Event.api, "release", {"mode": "fast"}),
            (Event.api, "release", {"mode": "slow"}),
            # Events the binder-pattern policies match or synthesize.
            (Event.cb, "stop", {}),
            (Event.api, "acquire", {"res": "r1"}),
            (Event.api, "acquire", {"res": "r2"}),
            (Event.api, "release", {"res": "r1"}),
            (Event.api, "release", {"res": "r2"}),
        ]
    ]
)


def _outcome(run):
    try:
        out, report = run()
    except EnforcementError as err:
        return "error", str(err), err.seq
    return "ok", out.events, report.counts, report.records


def _edits_from_the_start(policy: PolicySpec) -> bool:
    return any(
        t.source == policy.initial and any(item is not INPUT for item in t.output.items)
        for t in policy.transitions
    )


# Draws lean towards insertion chains, where the depth limit matters: most
# stacks share one alphabet, every policy can insert from its initial
# state, and a module is off one time in four.
_STACKS = st.sampled_from(
    [PLAIN_PATTERNS, BINDER_PATTERNS, SHADOWED_PATTERNS, None]
).flatmap(
    lambda patterns: st.lists(
        policies(patterns).filter(_edits_from_the_start), min_size=1, max_size=3
    )
)


@settings(max_examples=200)
@given(
    _STACKS,
    st.lists(st.sampled_from([True, True, True, False]), min_size=3, max_size=3),
    st.lists(_STACK_EVENTS, max_size=8),
)
def test_stack_agrees_with_the_reference_dispatch(specs, active, events):
    specs = [dataclasses.replace(spec, name=f"M{i}") for i, spec in enumerate(specs)]
    active = active[: len(specs)]
    trace = Trace.renumbered(events)
    for limit in (1, 2, 3):
        registry = _registry(*specs, limit=limit)
        for spec, on in zip(specs, active):
            registry.set_active(spec.name, on)
        expected = _outcome(lambda: reference_enforce_trace(specs, active, limit, trace))
        assert _outcome(lambda: enforce_trace(registry, trace)) == expected
