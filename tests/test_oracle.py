"""Monitor replay, trace enumeration, and bounded exhaustive verification."""

import pytest
from hypothesis import given, settings, strategies as st

from enforcekit import (
    EnforcementError,
    Event,
    EventKind,
    EventPattern,
    EventUniverse,
    ModuleRegistry,
    MonitorAutomaton,
    OutputTemplate,
    PolicySpec,
    Trace,
    Transition,
    Verdict,
    Violation,
    brute_force_verify,
    check,
    enforce_trace,
    enumerate_traces,
    parse_event_literal,
    parse_monitor,
    parse_policy,
)

from conftest import (
    BINDER_PATTERNS,
    CATALOG,
    PLAIN_PATTERNS,
    ROOT,
    camera_alphabet,
    monitors,
    policies,
)

API = EventKind.API_CALL
CB = EventKind.CALLBACK

CAMERA_MONITOR = parse_monitor((CATALOG / "camera.monitor").read_text())

OPEN = Event.api("Camera.open", "A1")
RELEASE = Event.api("Camera.release", "A1")
PAUSE = Event.cb("onPause", "A1")
RESUME = Event.cb("onResume", "A1")


def _camera_patterns() -> tuple[EventPattern, ...]:
    return (
        EventPattern(API, "Camera.open"),
        EventPattern(API, "Camera.release"),
        EventPattern(CB, "onPause"),
    )


def _identity_policy() -> PolicySpec:
    """Observes the camera alphabet but never edits anything."""
    return PolicySpec("Identity", ("S",), "S", alphabet=_camera_patterns())


def _release_eater() -> PolicySpec:
    """Suppresses every Camera.release: unsound and opaque on purpose."""
    release = EventPattern(API, "Camera.release")
    return PolicySpec(
        "ReleaseEater",
        ("S",),
        "S",
        (Transition("S", release, "S", OutputTemplate(())),),
        alphabet=(release,),
    )


class TestCheck:
    def test_pause_while_holding_the_camera_is_a_violation(self, camera_monitor):
        trace = Trace.renumbered([OPEN, PAUSE])
        assert check(trace, camera_monitor) == [Violation(2, ("A1",), "LEAKED")]

    def test_violation_message(self, camera_monitor):
        (violation,) = check(Trace.renumbered([OPEN, PAUSE]), camera_monitor)
        assert str(violation) == "seq 2: instance A1 entered error state LEAKED"

    def test_release_before_pause_is_clean(self, camera_monitor):
        assert check(Trace.renumbered([OPEN, RELEASE, PAUSE]), camera_monitor) == []

    def test_empty_trace_is_clean(self, camera_monitor):
        assert check(Trace(()), camera_monitor) == []

    def test_unmatched_alphabet_events_self_loop(self, camera_monitor):
        # A pause with no prior open stays in FREE, a release in FREE too.
        assert check(Trace.renumbered([PAUSE, RELEASE, PAUSE]), camera_monitor) == []

    def test_events_outside_the_alphabet_are_invisible(self, camera_monitor):
        trace = Trace.renumbered([OPEN, RESUME, RELEASE, PAUSE])
        assert check(trace, camera_monitor) == []

    def test_error_states_absorb(self, camera_monitor):
        trace = Trace.renumbered([OPEN, PAUSE, OPEN, PAUSE])
        assert check(trace, camera_monitor) == [Violation(2, ("A1",), "LEAKED")]

    def test_components_violate_independently(self, camera_monitor):
        trace = Trace.renumbered(
            [
                Event.api("Camera.open", "A1"),
                Event.api("Camera.open", "A2"),
                Event.cb("onPause", "A1"),
                Event.cb("onPause", "A2"),
            ]
        )
        assert check(trace, camera_monitor) == [
            Violation(3, ("A1",), "LEAKED"),
            Violation(4, ("A2",), "LEAKED"),
        ]

    def test_broadcast_checks_every_bound_instance(self, osgi_monitor):
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S2"),
                Event.api("registerService", "B1", service="S1"),
                Event.cb("stop", "B1"),
            ]
        )
        assert check(trace, osgi_monitor) == [
            Violation(3, ("B1", "S1"), "LEAKED"),
            Violation(3, ("B1", "S2"), "LEAKED"),
        ]

    def test_unkeyable_events_are_ignored(self, osgi_monitor, osgi_policy):
        # registerService without its service attribute cannot be routed:
        # the monitor skips it and keeps replaying the other instances,
        # while the enforcer stops at its seq.
        trace = Trace.renumbered(
            [
                Event.api("registerService", "B1", service="S1"),
                Event.api("registerService", "B1"),
                Event.cb("stop", "B1"),
            ]
        )
        assert check(trace, osgi_monitor) == [Violation(3, ("B1", "S1"), "LEAKED")]
        with pytest.raises(EnforcementError, match="lacks binder attribute") as err:
            enforce_trace(ModuleRegistry.from_policies([osgi_policy]), trace)
        assert err.value.seq == 2

    def test_singleton_key_prints_as_placeholder(self):
        boom = EventPattern(API, "boom")
        monitor = MonitorAutomaton(
            "Singleton",
            ("OK", "BAD"),
            "OK",
            error_states=frozenset({"BAD"}),
            transitions=(Transition("OK", boom, "BAD", None),),
            alphabet=(boom,),
        )
        (violation,) = check(Trace.renumbered([Event.api("boom", "C1")]), monitor)
        assert str(violation) == "seq 1: instance <singleton> entered error state BAD"


class TestMonitorStructure:
    def test_error_states_must_be_declared(self):
        with pytest.raises(ValueError, match="unknown state BAD"):
            MonitorAutomaton("M", ("OK",), "OK", error_states=frozenset({"BAD"}))

    def test_error_states_must_be_absorbing(self):
        boom = EventPattern(API, "boom")
        with pytest.raises(ValueError, match="must not have outgoing transitions"):
            MonitorAutomaton(
                "M",
                ("OK", "BAD"),
                "OK",
                error_states=frozenset({"BAD"}),
                transitions=(Transition("BAD", boom, "OK", None),),
                alphabet=(boom,),
            )

    def test_monitor_transitions_carry_no_outputs(self):
        boom = EventPattern(API, "boom")
        with pytest.raises(ValueError, match="must not carry outputs"):
            MonitorAutomaton(
                "M",
                ("OK",),
                "OK",
                transitions=(Transition("OK", boom, "OK", OutputTemplate(())),),
                alphabet=(boom,),
            )


class TestEnumeration:
    def test_size_counts_every_length_up_to_the_bound(self):
        universe = EventUniverse((OPEN, RELEASE), 8)
        assert universe.size() == sum(2**k for k in range(9))
        assert universe.size() == 511

    def test_acceptance_universe_holds_87381_traces(self):
        assert EventUniverse(camera_alphabet(), 8).size() == 87381

    def test_enumeration_matches_the_size(self):
        universe = EventUniverse((OPEN, RELEASE, PAUSE), 3)
        traces = list(enumerate_traces(universe))
        assert len(traces) == universe.size() == 40

    def test_shortest_first_then_declaration_order(self):
        a = Event.api("a", "C1")
        b = Event.api("b", "C1")
        traces = list(enumerate_traces(EventUniverse((a, b), 2)))
        assert [[e.literal() for e in t] for t in traces] == [
            [],
            ["api:a@C1"],
            ["api:b@C1"],
            ["api:a@C1", "api:a@C1"],
            ["api:a@C1", "api:b@C1"],
            ["api:b@C1", "api:a@C1"],
            ["api:b@C1", "api:b@C1"],
        ]

    def test_enumerated_traces_are_renumbered(self):
        universe = EventUniverse((OPEN, RELEASE), 3)
        for trace in enumerate_traces(universe):
            assert [e.seq for e in trace] == list(range(1, len(trace.events) + 1))

    def test_alphabet_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            EventUniverse((OPEN, Event.api("Camera.open", "A1")), 2)

    def test_alphabet_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            EventUniverse((), 2)

    def test_bound_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            EventUniverse((OPEN,), 0)

    @pytest.mark.parametrize("max_len", [True, False, 2.5, "3", None])
    def test_bound_must_be_an_int(self, max_len):
        with pytest.raises(TypeError, match="max_len must be an int"):
            EventUniverse((OPEN,), max_len)


class TestBruteForceVerify:
    def test_camera_policy_is_sound_and_transparent(
        self, camera_policy, camera_monitor, camera_universe_len3
    ):
        verdict = brute_force_verify(
            camera_policy, camera_monitor, camera_universe_len3
        )
        assert verdict.ok
        assert verdict.sound and verdict.transparent
        assert verdict.traces_checked == camera_universe_len3.size() == 85
        assert verdict.sound_counterexamples == []
        assert verdict.transparent_counterexamples == []

    def test_unregister_policy_is_sound_and_transparent(
        self, osgi_policy, osgi_monitor
    ):
        universe = EventUniverse(
            (
                Event.api("registerService", "B1", service="S1"),
                Event.api("unregisterService", "B1", service="S1"),
                Event.cb("stop", "B1"),
            ),
            3,
        )
        verdict = brute_force_verify(osgi_policy, osgi_monitor, universe)
        assert verdict.ok

    def test_doing_nothing_is_not_sound(self, camera_monitor, camera_universe_len3):
        verdict = brute_force_verify(
            _identity_policy(), camera_monitor, camera_universe_len3
        )
        assert not verdict.sound
        assert verdict.transparent  # identity never edits anything
        assert not verdict.ok
        first = verdict.sound_counterexamples[0]
        assert [e.literal() for e in first] == ["api:Camera.open@A1", "cb:onPause@A1"]

    def test_eating_releases_is_neither_sound_nor_transparent(
        self, camera_monitor, camera_universe_len3
    ):
        verdict = brute_force_verify(
            _release_eater(), camera_monitor, camera_universe_len3
        )
        assert not verdict.sound
        assert not verdict.transparent
        first = verdict.transparent_counterexamples[0]
        assert [e.literal() for e in first] == ["api:Camera.release@A1"]

    def test_counterexamples_are_capped_but_the_scan_is_not(
        self, camera_monitor, camera_universe_len3
    ):
        verdict = brute_force_verify(
            _identity_policy(),
            camera_monitor,
            camera_universe_len3,
            counterexample_limit=2,
        )
        assert len(verdict.sound_counterexamples) == 2
        assert verdict.traces_checked == 85

    def test_a_zero_limit_keeps_no_counterexamples_but_still_fails(
        self, camera_monitor, camera_universe_len3
    ):
        policy = parse_policy((ROOT / "benchmarks/identity.policy").read_text())
        verdict = brute_force_verify(
            policy, camera_monitor, camera_universe_len3, counterexample_limit=0
        )
        assert not verdict.sound and verdict.transparent
        assert verdict.sound_counterexamples == []
        assert verdict.traces_checked == 85


def reference_verify(
    policy: PolicySpec,
    monitor: MonitorAutomaton,
    universe: EventUniverse,
    *,
    counterexample_limit: int = 10,
) -> Verdict:
    """The verifier as a plain loop: enforce and check every trace afresh."""
    registry = ModuleRegistry.from_policies([policy])
    verdict = Verdict(sound=True, transparent=True)
    for trace in enumerate_traces(universe):
        verdict.traces_checked += 1
        registry.reset()
        enforced, _report = enforce_trace(registry, trace)
        if check(enforced, monitor):
            verdict.sound = False
            if len(verdict.sound_counterexamples) < counterexample_limit:
                verdict.sound_counterexamples.append(trace)
        if enforced.events != trace.events and not check(trace, monitor):
            verdict.transparent = False
            if len(verdict.transparent_counterexamples) < counterexample_limit:
                verdict.transparent_counterexamples.append(trace)
    return verdict


def _assert_agrees_with_reference(policy, monitor, universe, limit=10) -> None:
    """Same verdict and counterexamples, or the same enforcement error."""
    try:
        want = reference_verify(policy, monitor, universe, counterexample_limit=limit)
    except EnforcementError as err:
        with pytest.raises(EnforcementError) as got:
            brute_force_verify(policy, monitor, universe, counterexample_limit=limit)
        assert (str(got.value), got.value.seq) == (str(err), err.seq)
        return
    got = brute_force_verify(policy, monitor, universe, counterexample_limit=limit)
    for kind in ("sound_counterexamples", "transparent_counterexamples"):
        literals = [[[e.literal() for e in t] for t in getattr(v, kind)] for v in (got, want)]
        assert literals[0] == literals[1], kind
    assert got == want


class TestWalkAgreesWithTheLoop:
    """The depth-first walk against :func:`reference_verify`."""

    @pytest.mark.parametrize(
        "policy, monitor, events, max_len",
        [
            ("catalog/camera_release.policy", "catalog/camera.monitor", camera_alphabet(), 4),
            ("benchmarks/identity.policy", "catalog/camera.monitor", camera_alphabet(), 4),
            (
                "catalog/osgi_unregister.policy",
                "catalog/osgi.monitor",
                (
                    Event.api("registerService", "B1", service="S1"),
                    Event.api("registerService", "B1", service="S2"),
                    Event.api("unregisterService", "B1", service="S2"),
                    Event.cb("stop", "B1"),
                ),
                4,
            ),
            (
                "catalog/react_cleanup.policy",
                "catalog/react.monitor",
                (
                    Event.api("setTimer", "C1", timer="T1"),
                    Event.api("clearTimer", "C1", timer="T1"),
                    Event.cb("componentWillUnmount", "C1"),
                    Event.cb("componentWillUnmount", "C2"),
                ),
                4,
            ),
        ],
    )
    def test_shipped_pairs(self, policy, monitor, events, max_len):
        _assert_agrees_with_reference(
            parse_policy((ROOT / policy).read_text()),
            parse_monitor((ROOT / monitor).read_text()),
            EventUniverse(events, max_len),
            limit=50,
        )

    def test_an_edit_can_be_undone_later(self):
        # A !-synthetic release is held back and reinserted, equal to the
        # input, on the next stop: after that stop the output is the input
        # again, so the trace is not a transparency counterexample, though
        # its prefix is.
        policy = parse_policy(
            "policy Defer instantiate per-component alphabet api release, cb onStop "
            "initial S state S: on api release -> D emit [] "
            "state D: on cb onStop -> S emit [api release, $in] end"
        )
        monitor = parse_monitor("monitor AcceptAll alphabet cb onStop initial S state S: end")
        universe = EventUniverse(
            (parse_event_literal("!api:release@C1"), Event.cb("onStop", "C1")), 3
        )
        _assert_agrees_with_reference(policy, monitor, universe, limit=100)
        verdict = brute_force_verify(policy, monitor, universe, counterexample_limit=100)
        opaque = [[e.literal() for e in t] for t in verdict.transparent_counterexamples]
        assert ["!api:release@C1"] in opaque
        assert ["!api:release@C1", "cb:onStop@C1"] not in opaque

    def test_the_first_failing_trace_in_enumeration_order_is_reported(self):
        # The walk reaches acquire;acquire;stop (fails at seq 3) before the
        # bare stop (fails at seq 1); the shorter one is the one reported.
        policy = parse_policy(
            "policy P instantiate per-component alphabet api acquire{res=$r}, cb stop "
            "initial S state S: on cb stop -> S emit [api release{res=$r}, $in] end"
        )
        monitor = parse_monitor("monitor M alphabet cb stop initial S state S: end")
        universe = EventUniverse((Event.api("acquire", "C1"), Event.cb("stop", "C1")), 3)
        with pytest.raises(EnforcementError) as err:
            brute_force_verify(policy, monitor, universe)
        assert err.value.seq == 1
        assert str(err.value).startswith("seq 1: unbound binder '$r'")
        _assert_agrees_with_reference(policy, monitor, universe)


def test_long_traces_need_no_recursion(camera_policy, camera_monitor):
    # 2,000 events deep, past Python's default recursion limit of 1,000.
    universe = EventUniverse((OPEN,), 2000)
    verdict = brute_force_verify(camera_policy, camera_monitor, universe)
    assert verdict.ok
    assert verdict.traces_checked == 2001


# Universe events for generated policies, per alphabet: routable ones, a
# !-synthetic one equal to what the policies insert, one outside the
# alphabet, and one that per-binder instancing cannot route (no res).
_UNIVERSE_EVENTS = {
    PLAIN_PATTERNS: [
        parse_event_literal(text)
        for text in (
            "cb:onStop@C1",
            "cb:onStop@C2",
            "api:acquire@C1",
            "api:release@C1{mode=fast}",
            "!api:release@C1{mode=fast}",
            "api:release@C1",
        )
    ],
    BINDER_PATTERNS: [
        parse_event_literal(text)
        for text in (
            "api:acquire@C1{res=r1}",
            "api:acquire@C1{res=r2}",
            "api:release@C1{res=r1}",
            "!api:release@C1{res=r1}",
            "cb:stop@C1",
            "cb:stop@C2",
            "api:acquire@C1",
            "cb:onStop@C1",
        )
    ],
}


@st.composite
def _verify_inputs(draw):
    patterns = draw(st.sampled_from([PLAIN_PATTERNS, BINDER_PATTERNS]))
    events = draw(
        st.lists(st.sampled_from(_UNIVERSE_EVENTS[patterns]), min_size=1, max_size=3, unique=True)
    )
    return (
        draw(policies(patterns)),
        draw(monitors(patterns, can_fail=draw(st.booleans()))),
        EventUniverse(tuple(events), draw(st.integers(1, 4))),
        draw(st.integers(1, 3)),
    )


@settings(max_examples=200, deadline=None)
@given(_verify_inputs())
def test_walk_agrees_with_the_loop_on_generated_policies(inputs):
    policy, monitor, universe, limit = inputs
    _assert_agrees_with_reference(policy, monitor, universe, limit)


def _camera_reference_model(events) -> list[Violation]:
    """Boolean restatement of the camera monitor: held/leaked per component."""
    held: dict[str, bool] = {}
    leaked: dict[str, bool] = {}
    violations: list[Violation] = []
    for event in events:
        c = event.component
        if leaked.get(c):
            continue
        if event.name == "Camera.open":
            held[c] = True
        elif event.name == "Camera.release":
            held[c] = False
        elif event.name == "onPause" and held.get(c):
            leaked[c] = True
            violations.append(Violation(event.seq, (c,), "LEAKED"))
    return violations


_CAMERA_EVENTS = st.builds(
    lambda name, component: (
        Event.cb(name, component)
        if name in ("onPause", "onResume")
        else Event.api(name, component)
    ),
    st.sampled_from(["Camera.open", "Camera.release", "onPause", "onResume"]),
    st.sampled_from(["A1", "A2"]),
)


@given(st.lists(_CAMERA_EVENTS, max_size=14))
def test_check_agrees_with_the_reference_model(events):
    trace = Trace.renumbered(events)
    assert check(trace, CAMERA_MONITOR) == _camera_reference_model(trace.events)


@given(st.lists(_CAMERA_EVENTS, max_size=12), st.integers(min_value=0, max_value=12))
def test_violations_are_prefix_monotone(events, cut):
    trace = Trace.renumbered(events)
    cut = min(cut, len(trace.events))
    prefix = Trace(trace.events[:cut])
    full = check(trace, CAMERA_MONITOR)
    assert check(prefix, CAMERA_MONITOR) == [v for v in full if v.seq <= cut]
