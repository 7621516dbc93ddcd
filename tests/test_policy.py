"""Policy model: patterns, templates, automata, and static validation."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from enforcekit import (
    BUILTIN_RESOURCES,
    Binder,
    Diagnostic,
    DefaultAction,
    DeniedAcquire,
    DispatchError,
    EditRecord,
    Event,
    EventKind,
    EventPattern,
    EventUniverse,
    INPUT,
    Instancing,
    LeakRecord,
    LifecycleDiagnostic,
    Literal,
    MonitorAutomaton,
    OutputTemplate,
    PASS,
    PolicySpec,
    Severity,
    SynthEvent,
    ToggleStep,
    Transition,
    Violation,
    builtin_lifecycle,
    parse_document,
    parse_scenario,
    validate_policy,
)
from enforcekit.enforcement import AutomatonInstance
from enforcekit.policy import patterns_overlap

from conftest import (
    BINDER_PATTERNS, CATALOG, PLAIN_PATTERNS, SHADOWED_PATTERNS, monitors, policies,
)


def pat(kind: EventKind, name: str, **constraints) -> EventPattern:
    items = tuple(
        (k, Binder(v[1:]) if isinstance(v, str) and v.startswith("$") else Literal(v))
        for k, v in constraints.items()
    )
    return EventPattern(kind, name, items)


API = EventKind.API_CALL
CB = EventKind.CALLBACK


def route(event: Event, pattern: EventPattern, instancing: Instancing, live=()):
    """Route through a one-pattern policy over ``pattern`` alone."""
    binder_attr = pattern.binder()[0] if instancing is Instancing.PER_BINDER else None
    spec = PolicySpec(
        "P", ("S",), "S", alphabet=(pattern,), instancing=instancing, binder_attr=binder_attr
    )
    return spec.route(event, pattern, live)


def instance_keys(event: Event, spec: PolicySpec, live=()):
    """Keys the spec routes an event to, after matching its alphabet."""
    pattern = spec.match(event)
    assert pattern is not None
    keys, _bindings = spec.route(event, pattern, live)
    return keys


class TestEventPattern:
    def test_literal_constraints_gate_matching(self):
        p = pat(API, "registerService", service="S1")
        assert p.matches(Event.api("registerService", "B1", service="S1"))
        assert not p.matches(Event.api("registerService", "B1", service="S2"))
        assert not p.matches(Event.api("registerService", "B1"))

    def test_binder_constraints_do_not_gate_matching(self):
        p = pat(API, "registerService", service="$s")
        assert p.matches(Event.api("registerService", "B1", service="S1"))
        # Matching is not gated, but routing the missing attribute fails.
        assert p.matches(Event.api("registerService", "B1"))
        with pytest.raises(DispatchError, match="lacks binder attribute 'service'"):
            route(Event.api("registerService", "B1"), p, Instancing.PER_BINDER)

    def test_kind_and_name_must_match_exactly(self):
        p = pat(API, "Camera.open")
        assert not p.matches(Event.cb("Camera.open", "A1"))
        assert not p.matches(Event.api("Camera.release", "A1"))

    def test_bind_returns_variable_assignment(self):
        p = pat(API, "setTimer", timer="$t")
        event = Event.api("setTimer", "C1", timer="T9")
        assert route(event, p, Instancing.PER_BINDER) == ([("C1", "T9")], {"t": "T9"})
        # Keying ignores the binder outside per-binder instancing; the
        # binding is still carried.
        assert route(event, p, Instancing.PER_COMPONENT) == ([("C1",)], {"t": "T9"})

    def test_at_most_one_binder(self):
        with pytest.raises(ValueError, match="at most one binder"):
            EventPattern(API, "x", (("a", Binder("p")), ("b", Binder("q"))))

    def test_a_constraint_is_a_literal_or_a_binder(self):
        with pytest.raises(TypeError, match=r"^bad constraint for 'k': 'v'$"):
            EventPattern(API, "x", (("k", "v"),))

    def test_text_form(self):
        assert pat(API, "registerService", service="$s").text() == (
            "api registerService{service=$s}"
        )
        assert pat(CB, "onPause").text() == "cb onPause"


def _scan_binder(pattern: EventPattern):
    for key, constraint in pattern.constraints:
        if isinstance(constraint, Binder):
            return key, constraint.var
    return None


def _scan_literals(pattern: EventPattern):
    return tuple((k, c.value) for k, c in pattern.constraints if isinstance(c, Literal))


_CONSTRAINTS = st.dictionaries(
    st.sampled_from(["a", "b", "res"]),
    st.one_of(
        st.builds(Literal, st.sampled_from(["v1", "v2"])),
        st.builds(Binder, st.sampled_from(["x", "y"])),
    ),
    max_size=3,
).filter(lambda c: sum(isinstance(v, Binder) for v in c.values()) <= 1)


@given(st.sampled_from(list(EventKind)), _CONSTRAINTS, _CONSTRAINTS)
def test_pattern_binder_and_literals_agree_with_a_scan(kind, constraints, others):
    pattern = EventPattern(kind, "op", tuple(constraints.items()))
    assert pattern.binder() == _scan_binder(pattern)
    assert pattern._literals == _scan_literals(pattern)
    # Both are private fields that replace rebuilds; equality, hashing and
    # repr see only the constraints.
    other = dataclasses.replace(pattern, constraints=tuple(others.items()))
    assert other.binder() == _scan_binder(other)
    assert other._literals == _scan_literals(other)
    same = EventPattern(kind, "op", tuple(reversed(constraints.items())))
    assert same == pattern and hash(same) == hash(pattern)
    assert "_literals" not in repr(pattern) and "_binder" not in repr(pattern)


class TestOutputTemplate:
    def test_at_most_one_input_placeholder(self):
        with pytest.raises(ValueError):
            OutputTemplate((INPUT, INPUT))

    def test_pass_template(self):
        assert PASS.emits_input
        assert PASS.text() == "[$in]"

    def test_text_of_insert_before(self):
        template = OutputTemplate((SynthEvent(API, "Camera.release"), INPUT))
        assert template.text() == "[api Camera.release, $in]"

    def test_suppress_is_empty(self):
        template = OutputTemplate(())
        assert not template.emits_input
        assert template.text() == "[]"


def _automaton(transitions, states=("FREE", "HELD"), default=DefaultAction.ALLOW):
    return dict(states=states, initial="FREE", transitions=transitions, default=default)


def _camera_spec(**overrides):
    open_, release, pause = (
        pat(API, "Camera.open"),
        pat(API, "Camera.release"),
        pat(CB, "onPause"),
    )
    fields = dict(
        name="CameraRelease",
        **_automaton(
            (
                Transition("FREE", open_, "HELD", PASS),
                Transition("HELD", release, "FREE", PASS),
                Transition(
                    "HELD",
                    pause,
                    "FREE",
                    OutputTemplate((SynthEvent(API, "Camera.release"), INPUT)),
                ),
            )
        ),
        alphabet=(open_, release, pause),
        instancing=Instancing.PER_COMPONENT,
    )
    fields.update(overrides)
    return PolicySpec(**fields)


class TestAutomatonStructure:
    def test_unknown_target_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state X"):
            PolicySpec("P", **_automaton((Transition("FREE", pat(API, "a"), "X", PASS),)))

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError, match="duplicate state FREE"):
            PolicySpec("P", **_automaton((), states=("FREE", "FREE")))

    def test_initial_must_be_declared(self):
        with pytest.raises(ValueError, match="unknown state FREE"):
            PolicySpec(
                "P", states=("A",), initial="FREE", transitions=(), default=DefaultAction.ALLOW
            )

    def test_transition_pattern_must_be_in_alphabet(self):
        with pytest.raises(ValueError, match="not in the alphabet"):
            _camera_spec(alphabet=(pat(API, "Camera.open"),))

    def test_per_binder_requires_binder_pattern(self):
        with pytest.raises(ValueError, match="per-binder"):
            _camera_spec(instancing=Instancing.PER_BINDER, binder_attr="service")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                dict(instancing=Instancing.PER_BINDER),
                "per-binder instancing requires a binder attribute",
            ),
            (
                dict(
                    instancing=Instancing.PER_BINDER,
                    binder_attr="k",
                    transitions=(),
                    alphabet=(pat(API, "a", j="$x"),),
                ),
                "binder on attribute 'j' does not match per-binder key 'k'",
            ),
            (
                dict(binder_attr="service"),
                "binder_attr is only meaningful with per-binder instancing",
            ),
        ],
        ids=["per-binder-without-key", "stray-binder-key", "key-without-per-binder"],
    )
    def test_binder_key_rules(self, overrides, message):
        with pytest.raises(ValueError) as exc:
            _camera_spec(**overrides)
        assert str(exc.value) == message


_A = pat(API, "a")
# Specs with two faults each, and the one the constructor reports: it checks
# the states, then the kind's own transition rule, then the shared rules.
_FIRST_ERRORS = [
    pytest.param(
        PolicySpec, dict(transitions=(Transition("S", _A, "X", PASS),)), "unknown state X",
        id="policy-unknown-target-and-off-alphabet",
    ),
    pytest.param(
        PolicySpec,
        dict(name="bad name", transitions=(Transition("S", _A, "S", None),), alphabet=(_A,)),
        "transition S -> S is missing an output template",
        id="policy-missing-output-and-bad-name",
    ),
    pytest.param(
        PolicySpec, dict(name="bad name", states=("S", "S")), "duplicate state S",
        id="policy-duplicate-state-and-bad-name",
    ),
    pytest.param(
        PolicySpec, dict(statement="a\nb", alphabet=(_A, _A)), "statement must be a single line",
        id="policy-multiline-statement-and-duplicate-pattern",
    ),
    pytest.param(
        PolicySpec,
        dict(transitions=(Transition("S", _A, "S", PASS),), instancing=Instancing.PER_BINDER),
        "pattern 'api a' is not in the alphabet",
        id="policy-off-alphabet-and-per-binder-without-binder",
    ),
    pytest.param(
        MonitorAutomaton,
        dict(
            error_states=frozenset({"BAD"}),
            transitions=(Transition("BAD", _A, "S", None),),
            alphabet=(_A, _A),
        ),
        "error state BAD must not have outgoing transitions",
        id="monitor-error-state-exit-and-duplicate-pattern",
    ),
    pytest.param(
        MonitorAutomaton,
        dict(error_states=frozenset({"X"}), transitions=(Transition("S", _A, "S", PASS),)),
        "unknown state X",
        id="monitor-unknown-error-state-and-output",
    ),
    pytest.param(
        MonitorAutomaton,
        dict(name="bad name", transitions=(Transition("S", _A, "S", PASS),), alphabet=(_A,)),
        "monitor transitions must not carry outputs",
        id="monitor-output-and-bad-name",
    ),
    pytest.param(
        MonitorAutomaton, dict(initial="Z", error_states=frozenset({"X"})), "unknown state Z",
        id="monitor-unknown-initial-and-unknown-error-state",
    ),
    pytest.param(
        MonitorAutomaton,
        dict(name="bad name", binder_attr="k", alphabet=(pat(API, "a", k="$v"),)),
        "monitor name 'bad name' must be a non-empty run of [A-Za-z0-9_.-]",
        id="monitor-bad-name-and-stray-binder-attr",
    ),
]


@pytest.mark.parametrize("cls, fields, message", _FIRST_ERRORS)
def test_first_error_is_unchanged(cls, fields, message):
    with pytest.raises(ValueError) as exc:
        cls(**{"name": "X", "states": ("S", "BAD"), "initial": "S", **fields})
    assert str(exc.value) == message


class TestValidatePolicy:
    def test_camera_policy_is_clean(self, camera_policy):
        assert validate_policy(camera_policy) == []

    def test_nondeterminism_is_an_error(self):
        pause = pat(CB, "onPause")
        spec = _camera_spec(
            **_automaton(
                (
                    Transition("FREE", pause, "FREE", PASS),
                    Transition("FREE", pause, "HELD", PASS),
                )
            ),
            alphabet=(pause,),
        )
        diags = validate_policy(spec)
        assert [d.severity for d in diags] == [Severity.ERROR]
        assert "can match the same event" in diags[0].message

    def test_overlapping_literal_and_binder_is_nondeterministic(self):
        a = pat(API, "registerService", service="S1")
        b = pat(API, "registerService", service="$s")
        spec = PolicySpec(
            name="P",
            states=("S",),
            initial="S",
            transitions=(
                Transition("S", a, "S", PASS),
                Transition("S", b, "S", PASS),
            ),
            default=DefaultAction.ALLOW,
            alphabet=(a, b),
            instancing=Instancing.PER_BINDER,
            binder_attr="service",
        )
        assert any(d.severity is Severity.ERROR for d in validate_policy(spec))

    def test_disjoint_literals_are_deterministic(self):
        a = pat(API, "registerService", service="S1")
        b = pat(API, "registerService", service="S2")
        spec = PolicySpec(
            name="P",
            states=("S",),
            initial="S",
            transitions=(
                Transition("S", a, "S", PASS),
                Transition("S", b, "S", PASS),
            ),
            default=DefaultAction.ALLOW,
            alphabet=(a, b),
        )
        assert validate_policy(spec) == []

    def test_unreachable_state_is_a_warning(self):
        spec = _camera_spec(
            **_automaton((), states=("FREE", "ZOMBIE")),
            alphabet=(),
        )
        diags = validate_policy(spec)
        assert [d.severity for d in diags] == [Severity.WARNING]
        assert "ZOMBIE is unreachable" in diags[0].message

    def test_off_alphabet_synthesis_is_a_warning(self):
        open_ = pat(API, "Camera.open")
        spec = _camera_spec(
            **_automaton(
                (
                    Transition(
                        "FREE",
                        open_,
                        "HELD",
                        OutputTemplate((SynthEvent(API, "Torch.off"), INPUT)),
                    ),
                ),
            ),
            alphabet=(open_,),
        )
        diags = validate_policy(spec)
        assert any(
            d.severity is Severity.WARNING and "outside the policy alphabet" in d.message
            for d in diags
        )

    def test_suppressing_a_callback_is_a_warning(self):
        pause = pat(CB, "onPause")
        spec = _camera_spec(
            **_automaton((Transition("FREE", pause, "FREE", OutputTemplate(())),)),
            alphabet=(pause,),
        )
        diags = validate_policy(spec)
        assert any("desynchronize" in d.message for d in diags)

    def test_suppressing_an_api_call_is_not_flagged(self):
        open_ = pat(API, "Camera.open")
        spec = _camera_spec(
            **_automaton(
                (Transition("FREE", open_, "FREE", OutputTemplate(())),),
                states=("FREE",),
            ),
            alphabet=(open_,),
        )
        assert validate_policy(spec) == []


class TestInstanceKeys:
    def test_singleton_key_is_empty(self):
        spec = _camera_spec(instancing=Instancing.SINGLETON)
        assert instance_keys(Event.api("Camera.open", "A1"), spec) == [()]

    def test_per_component_key(self, camera_policy):
        assert instance_keys(Event.api("Camera.open", "A1"), camera_policy) == [("A1",)]

    def test_per_binder_key(self, osgi_policy):
        event = Event.api("registerService", "B1", service="S2")
        assert instance_keys(event, osgi_policy) == [("B1", "S2")]

    def test_binder_free_pattern_broadcasts(self, osgi_policy):
        stop = Event.cb("stop", "B1")
        assert instance_keys(stop, osgi_policy) == []
        live = {("B1", "S2"): 0, ("B2", "S1"): 0, ("B1", "S1"): 0}
        assert instance_keys(stop, osgi_policy, live) == [("B1", "S1"), ("B1", "S2")]

    def test_missing_binder_attribute_is_a_dispatch_error(self, osgi_policy):
        with pytest.raises(DispatchError, match="lacks binder attribute 'service'"):
            instance_keys(Event.api("registerService", "B1"), osgi_policy)

    def test_off_alphabet_event_matches_no_pattern(self, camera_policy):
        assert camera_policy.match(Event.cb("onResume", "A1")) is None


# --- the spec's indexes against a linear scan ------------------------------
#
# Every pattern name of the generated alphabets, under either kind, with
# and without its literal and ``res`` attributes, on two components.

_ATTR_VARIANTS = (
    {}, {"mode": "fast"}, {"mode": "slow"}, {"res": "R1"}, {"mode": "fast", "res": "R1"}
)
_SCAN_EVENTS = [
    Event(kind, name, component, attrs=attrs)
    for name in dict.fromkeys(p.name for p in PLAIN_PATTERNS + BINDER_PATTERNS)
    for kind in EventKind
    for component in ("C1", "C2")
    for attrs in _ATTR_VARIANTS
]


@given(st.one_of(policies(), monitors()))
def test_indexes_agree_with_a_linear_scan(spec):
    for event in _SCAN_EVENTS:
        first = next((p for p in spec.alphabet if p.matches(event)), None)
        assert spec.match(event) is first
        for state in spec.states:
            scan = (t for t in spec.transitions if t.source == state)
            first = next((t for t in scan if t.pattern.matches(event)), None)
            assert spec.transition(state, event) is first


@given(st.one_of(policies(), policies(SHADOWED_PATTERNS)))
def test_a_broadcast_leaves_states_outside_the_reactive_set_alone(spec):
    # Broadcasts skip instances in these states, so stepping one must pass
    # the event and keep its state and bindings.
    for event in _SCAN_EVENTS:
        pattern = spec.match(event)
        if pattern is None or pattern.binder() is not None:
            continue
        for state in set(spec.states) - spec._broadcast_states:
            instance = AutomatonInstance(spec, (event.component, "R1"), state)
            assert instance.step(event) == [event]
            assert (instance.current, instance.bindings) == (state, {})


# --- soundness of the determinism check ---------------------------------
#
# If validate_policy reports no nondeterminism, then no concrete event over
# the declared alphabet can match two transitions from the same state. The
# check uses patterns_overlap, which over-approximates; this property pins
# the direction that matters.

_NAMES = ["op", "op2"]
_ATTR_VALUES = ["v1", "v2"]


def _pattern_pool():
    pool = []
    for name in _NAMES:
        pool.append(pat(API, name))
        pool.append(pat(CB, name))
        for value in _ATTR_VALUES:
            pool.append(pat(API, name, k=value))
    return pool


def _concrete_events():
    events = []
    for name in _NAMES:
        events.append(Event.api(name, "C1"))
        events.append(Event.cb(name, "C1"))
        for value in _ATTR_VALUES:
            events.append(Event.api(name, "C1", k=value))
            events.append(Event.cb(name, "C1", k=value))
    return events


@given(st.lists(st.sampled_from(_pattern_pool()), min_size=1, max_size=4, unique=True))
def test_determinism_check_is_sound(patterns):
    transitions = tuple(Transition("S", p, "S", PASS) for p in patterns)
    spec = PolicySpec(
        name="P",
        states=("S",),
        initial="S",
        transitions=transitions,
        default=DefaultAction.ALLOW,
        alphabet=tuple(patterns),
    )
    nondet = [d for d in validate_policy(spec) if d.severity is Severity.ERROR]
    if nondet:
        return  # flagged: nothing to prove
    for event in _concrete_events():
        matching = [t for t in transitions if t.pattern.matches(event)]
        assert len(matching) <= 1, f"{event.literal()} matched {len(matching)} transitions"


@given(
    st.sampled_from(_pattern_pool()),
    st.sampled_from(_pattern_pool()),
)
def test_overlap_is_symmetric(a, b):
    assert patterns_overlap(a, b) == patterns_overlap(b, a)


_VALUES = {
    "diagnostic": lambda: Diagnostic(Severity.WARNING, "state X is unreachable"),
    "literal": lambda: Literal("S1"),
    "binder": lambda: Binder("s"),
    "pattern": lambda: pat(API, "registerService", service="$s", mode="fast"),
    "input": lambda: INPUT,
    "template": lambda: OutputTemplate((SynthEvent(API, "Camera.release"), INPUT)),
    "transition": lambda: Transition("S", pat(CB, "onPause"), "S", PASS),
    "policy": lambda: parse_document((CATALOG / "osgi_unregister.policy").read_text()),
    "monitor": lambda: parse_document((CATALOG / "camera.monitor").read_text()),
    "lifecycle": lambda: builtin_lifecycle("activity"),
    "resource": lambda: BUILTIN_RESOURCES[1],
    "scenario": lambda: parse_scenario(
        "lifecycle osgi-bundle\ncomponent B1\nlc B1 start\n"
        "call B1 registerService service=S1\ntoggle OsgiUnregister off\n"
    ),
    "toggle": lambda: ToggleStep("OsgiUnregister", False),
    "universe": lambda: EventUniverse((Event.api("open", "C1"), Event.cb("onPause", "C1")), 3),
    "edit": lambda: EditRecord(4, "CameraRelease", "insert", "!api:Camera.release@A1"),
    "violation": lambda: Violation(3, ("A1",), "Leaked"),
    "lifecycle diagnostic": lambda: LifecycleDiagnostic(2, "A1", "onStop", "created"),
    "leak": lambda: LeakRecord("C1", "unmounted", "timer", "T1", 5),
    "denied": lambda: DeniedAcquire("B2", "service", "S1", "B1", 5),
}


@pytest.mark.parametrize("build", _VALUES.values(), ids=_VALUES)
def test_values_cannot_be_changed_through_vars(build):
    value = build()
    with pytest.raises(TypeError):
        vars(value)
    with pytest.raises(AttributeError):
        value.extra = 1
    for field in dataclasses.fields(value)[:1]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    assert value == build()


@pytest.mark.parametrize("build", _VALUES.values(), ids=_VALUES)
def test_copies_of_values_are_equal_and_hash_alike(build):
    value = build()
    copies = [
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
        dataclasses.replace(value),
    ]
    for copied in copies:
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)

