"""Event model: trace parsing/serialization and lifecycle replay."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from enforcekit import (
    Event,
    EventKind,
    Trace,
    TraceParseError,
    TraceValidationError,
    parse_event_literal,
    parse_trace,
    serialize_trace,
    validate_lifecycle,
)
from enforcekit.simulator import builtin_lifecycle


def test_parse_two_line_trace():
    trace = parse_trace("1 api:Camera.open@A1\n2 cb:onPause@A1")
    assert len(trace) == 2
    assert [e.kind for e in trace] == [EventKind.API_CALL, EventKind.CALLBACK]
    assert trace[0].name == "Camera.open"
    assert trace[1].component == "A1"
    assert not any(e.synthetic for e in trace)


def test_parse_empty_text_gives_empty_trace():
    assert parse_trace("") == Trace(())


def test_parse_skips_blanks_and_comments():
    text = "# header\n\n1 api:Camera.open@A1\n  \n# trailing\n"
    assert len(parse_trace(text)) == 1


def test_parse_rejects_non_monotone_seq():
    with pytest.raises(TraceValidationError, match="non-monotone seq at line 2"):
        parse_trace("1 api:Camera.open@A1\n1 cb:onPause@A1")


def test_parse_attrs_and_synthetic_marker():
    trace = parse_trace("3 !api:unregisterService@B1 service=S1")
    event = trace[0]
    assert event.synthetic
    assert event.attrs == {"service": "S1"}
    assert event.seq == 3


_PARSE_ERRORS = [
    ("x api:Camera.open@A1", "sequence number", 1),
    # Sequence numbers are ASCII digits: not superscripts, not other scripts.
    ("\u00b2 api:Camera.open@A1", "expected sequence number", 1),
    ("\u0663 api:Camera.open@A1", "expected sequence number", 1),
    ("1api:Camera.open@A1", "space after sequence number", 2),
    ("1 rpc:Camera.open@A1", "unknown event kind", 3),
    ("1 api:Camera.open", "'@' before component", 7),
    ("1 api:Camera.open@A1 service", "key=value", 22),
    ("1 api:open@A1 k=v k=w", "duplicate attribute", 19),
]


# Case ids name the line and the message only, so adding a case's column
# does not rename the case.
@pytest.mark.parametrize(
    "line, fragment, column",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _PARSE_ERRORS],
)
def test_parse_errors_carry_position(line, fragment, column):
    with pytest.raises(TraceParseError, match=fragment) as exc:
        parse_trace(line)
    assert exc.value.line == 1
    assert exc.value.column == column


def test_serialize_empty_trace():
    assert serialize_trace(Trace(())) == ""


def test_serialize_single_event():
    trace = Trace((Event.api("Camera.open", "A1", 1),))
    assert serialize_trace(trace) == "1 api:Camera.open@A1"


def test_serialize_marks_synthetic_events():
    trace = Trace(
        (
            Event.api("Camera.open", "A1", 1),
            Event(EventKind.API_CALL, "Camera.release", "A1", 2, synthetic=True),
        )
    )
    assert serialize_trace(trace) == "1 api:Camera.open@A1\n2 !api:Camera.release@A1"


def test_serialize_sorts_attrs_by_key():
    event = Event(EventKind.API_CALL, "call", "C1", 1, attrs={"z": "1", "a": "2"})
    assert serialize_trace(Trace((event,))) == "1 api:call@C1 a=2 z=1"


def test_event_literal_round_trip():
    event = Event(EventKind.API_CALL, "registerService", "B1", 0, True, {"service": "S1"})
    assert event.literal() == "!api:registerService@B1{service=S1}"
    assert parse_event_literal(event.literal()) == event


@pytest.mark.parametrize("bad", ["Camera.open@A1", "api:x", "api:x@", "api:x@A1{k}"])
def test_bad_event_literals_rejected(bad):
    with pytest.raises(ValueError):
        parse_event_literal(bad)


def test_event_validates_identifiers():
    with pytest.raises(ValueError):
        Event.api("has space", "A1")
    with pytest.raises(ValueError):
        Event.api("ok", "")
    with pytest.raises(ValueError):
        Event.api("ok", "A1", k="bad value")


def test_event_keeps_a_read_only_copy_of_attrs():
    attrs = {"service": "S1"}
    event = Event(EventKind.API_CALL, "registerService", "B1", attrs=attrs)
    attrs["service"] = "bad value!"
    assert event.literal() == "api:registerService@B1{service=S1}"
    assert event.attrs == {"service": "S1"}
    with pytest.raises(TypeError):
        event.attrs["service"] = "S2"
    assert copy.deepcopy(event) == event
    assert pickle.loads(pickle.dumps(event)) == event


def test_events_are_hashable():
    first = Event(EventKind.API_CALL, "open", "C1", attrs={"a": "1", "b": "2"})
    second = Event(EventKind.API_CALL, "open", "C1", attrs={"b": "2", "a": "1"})
    assert hash(first) == hash(second)
    assert {first, second, Event.api("open", "C1")} == {first, Event.api("open", "C1")}
    assert len({first, second}) == 1
    assert first.attrs == {"a": "1", "b": "2"}
    assert {"b": "2", "a": "1"} == second.attrs


def test_trace_rejects_decreasing_seq():
    with pytest.raises(TraceValidationError):
        Trace((Event.api("a", "C", 2), Event.api("b", "C", 1)))


def test_renumbered_assigns_one_based_seq():
    trace = Trace.renumbered([Event.api("a", "C", 9), Event.api("b", "C", 9)])
    assert [e.seq for e in trace] == [1, 2]


# --- round-trip property -----------------------------------------------

_ident = st.text("abcdefgXYZ0123_.-", min_size=1, max_size=8)
_attrs = st.dictionaries(_ident, _ident, max_size=3)
_event = st.builds(
    lambda kind, name, component, attrs: Event(kind, name, component, 0, False, attrs),
    st.sampled_from(list(EventKind)),
    _ident,
    _ident,
    _attrs,
)


@given(st.lists(_event, max_size=12))
def test_round_trip_without_synthetic_events(events):
    trace = Trace.renumbered(events)
    assert parse_trace(serialize_trace(trace)) == trace


@given(st.lists(_event, max_size=8), st.lists(st.booleans(), max_size=8))
def test_round_trip_preserves_synthetic_flags(events, flags):
    marked = [
        Event(e.kind, e.name, e.component, 0, flag, e.attrs)
        for e, flag in zip(events, flags)
    ]
    trace = Trace.renumbered(marked)
    assert parse_trace(serialize_trace(trace)) == trace


@given(st.lists(_event, max_size=12))
def test_serialization_is_stable(events):
    trace = Trace.renumbered(events)
    assert serialize_trace(trace) == serialize_trace(trace)


# --- lifecycle replay ---------------------------------------------------


def _cbs(*names: str, component: str = "A1") -> Trace:
    return Trace.renumbered(Event.cb(name, component) for name in names)


def test_compliant_activity_sequence_has_no_diagnostics():
    model = builtin_lifecycle("activity")
    trace = _cbs("onCreate", "onResume", "onPause")
    assert validate_lifecycle(trace, model, "A1") == []


def test_pause_before_create_is_flagged():
    # Replay starts in the pseudo-state that precedes onCreate, so an
    # immediate onPause has no enabled transition.
    model = builtin_lifecycle("activity")
    diags = validate_lifecycle(_cbs("onPause"), model, "A1")
    assert len(diags) == 1
    assert diags[0].message == "onPause not enabled in state initial"
    assert diags[0].seq == 1


def test_empty_trace_is_vacuously_valid():
    model = builtin_lifecycle("activity")
    assert validate_lifecycle(Trace(()), model, "A1") == []


def test_other_components_and_api_calls_ignored():
    model = builtin_lifecycle("activity")
    trace = Trace.renumbered(
        [
            Event.cb("onPause", "OTHER"),
            Event.api("onPause", "A1"),  # api-call, not a callback
            Event.cb("onCreate", "A1"),
        ]
    )
    assert validate_lifecycle(trace, model, "A1") == []


def test_diagnostics_do_not_advance_state():
    # A flagged callback leaves the replay state unchanged: onCreate is
    # still enabled after the stray onPause.
    model = builtin_lifecycle("activity")
    diags = validate_lifecycle(_cbs("onPause", "onCreate", "onResume"), model, "A1")
    assert [d.callback for d in diags] == ["onPause"]


@given(st.lists(st.sampled_from(["onCreate", "onResume", "onPause", "onDestroy"]), max_size=10))
def test_lifecycle_validation_is_prefix_monotone(names):
    model = builtin_lifecycle("activity")
    full = validate_lifecycle(_cbs(*names), model, "A1")
    for cut in range(len(names)):
        prefix = validate_lifecycle(_cbs(*names[:cut]), model, "A1")
        assert prefix == full[: len(prefix)]
