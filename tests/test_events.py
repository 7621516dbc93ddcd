"""Event model: trace parsing/serialization and lifecycle replay."""

import copy
import dataclasses
import pickle
import re
import sys

import pytest
from hypothesis import given, strategies as st

from enforcekit import (
    Event,
    EventKind,
    EventPattern,
    EventUniverse,
    ModuleRegistry,
    SynthEvent,
    Trace,
    TraceParseError,
    TraceValidationError,
    enforce_trace,
    parse_event_literal,
    parse_policy,
    parse_trace,
    serialize_trace,
    validate_lifecycle,
)
from enforcekit.events import _Attrs, _trusted
from enforcekit.oracle import _positioned
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
    # Columns count from the start of the line, leading blanks included.
    ("   x api:a@A1", "expected sequence number", 4),
    ("\t1 rpc:a@A1", "unknown event kind", 4),
    # More digits than int() converts by default (4,300).
    ("9" * 5000 + " api:a@A1", "sequence number is too long", 1),
    ("  " + "9" * 5000 + " rpc:a@A1", "sequence number is too long", 3),
]


# Case ids name the line, cut to 40 characters, and the message only, so
# adding a case's column does not rename the case.
@pytest.mark.parametrize(
    "line, fragment, column",
    [pytest.param(*case, id=f"{case[0][:40]}-{case[1]}") for case in _PARSE_ERRORS],
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


@pytest.mark.parametrize(
    "bad",
    ["Camera.open@A1", "api:x", "api:x@", "api:x@A1{k}", "api:a@A1{x=1,x=2}", "api:x@A1{k=v"],
)
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


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(lambda: Event("api", "a", "C1").literal(), "api:a@C1", id="Event-str-kind"),
        pytest.param(lambda: EventPattern("api", "a").text(), "api a", id="pattern-str-kind"),
        pytest.param(
            lambda: EventPattern("cb", "a").matches(Event.cb("a", "C1")),
            True,
            id="pattern-str-kind-matches",
        ),
        pytest.param(lambda: SynthEvent("api", "a").text(), "api a", id="synth-str-kind"),
        pytest.param(lambda: Event("rpc", "a", "C1"), ValueError, id="Event-bad-kind"),
        pytest.param(lambda: EventPattern("rpc", "a"), ValueError, id="pattern-bad-kind"),
        pytest.param(lambda: SynthEvent("rpc", "a"), ValueError, id="synth-bad-kind"),
        pytest.param(lambda: Event.api("a", "C1", 1.5), TypeError, id="float-seq"),
        pytest.param(lambda: Event.api("a", "C1", True), TypeError, id="bool-seq"),
        pytest.param(lambda: Event.api("a", "C1", "1"), TypeError, id="str-seq"),
        pytest.param(lambda: Event.api("a", "C1", -1), ValueError, id="negative-seq"),
        pytest.param(lambda: Event.api("a", "C1", 10**5000), ValueError, id="unprintable-seq"),
        pytest.param(
            lambda: parse_trace(serialize_trace(Trace((Event.api("a", "C1", 10**2000),))))[0].seq,
            10**2000,
            id="long-printable-seq",
        ),
    ],
)
def test_constructors_enforce_kind_and_seq_types(build, expected):
    # A kind given as its text is coerced to EventKind; anything else that
    # would build an event no parser can read back is refused.
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            build()
    else:
        assert build() == expected


def test_unprintable_seq_names_the_limit():
    # serialize_trace could not write such a seq, and parse_trace refuses it.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"seq has more than {limit} digits"):
        Event.api("a", "C1", 10**limit)
    assert Event.api("a", "C1", 10**limit - 1).seq == 10**limit - 1


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


_FROZEN_VALUES = {
    "validated event": lambda: Event(EventKind.API_CALL, "open", "C1", 3, True, {"a": "1"}),
    "trusted event": lambda: _trusted(
        EventKind.API_CALL, "open", "C1", 3, True, _Attrs({"a": "1"})
    ),
    "parsed event": lambda: parse_trace("1 api:open@C1\n2 cb:stop@C1 a=1")[1],
    "trace": lambda: parse_trace("1 api:open@C1 a=1\n2 !cb:stop@C1"),
}


@pytest.mark.parametrize("build", _FROZEN_VALUES.values(), ids=_FROZEN_VALUES)
def test_events_and_traces_cannot_be_changed_after_construction(build):
    value = build()
    with pytest.raises(TypeError):
        vars(value)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        del value.extra
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, field)
    assert value == build()


@pytest.mark.parametrize("build", _FROZEN_VALUES.values(), ids=_FROZEN_VALUES)
def test_copies_of_events_and_traces_are_equal_and_hash_alike(build):
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
        assert repr(copied) == repr(value)


def test_trace_rejects_decreasing_seq():
    with pytest.raises(TraceValidationError):
        Trace((Event.api("a", "C", 2), Event.api("b", "C", 1)))


def test_renumbered_assigns_one_based_seq():
    trace = Trace.renumbered([Event.api("a", "C", 9), Event.api("b", "C", 9)])
    assert [e.seq for e in trace] == [1, 2]


def test_renumbered_keeps_events_already_in_place():
    events = [
        Event.api("a", "C1", 1),
        Event.cb("b", "C2", 5),
        Event(EventKind.API_CALL, "c", "C3", 3, True, {"k": "v"}),
    ]
    trace = Trace.renumbered(events)
    assert trace[0] is events[0]
    assert trace[1] == dataclasses.replace(events[1], seq=2)
    assert trace[2] is events[2]


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


@given(
    st.lists(
        st.builds(
            dataclasses.replace, _event, seq=st.integers(0, 6), synthetic=st.booleans()
        ),
        max_size=8,
    )
)
def test_renumbered_copies_only_the_events_that_move(events):
    trace = Trace.renumbered(events)
    assert len(trace) == len(events)
    for position, (event, out) in enumerate(zip(events, trace), 1):
        if event.seq == position:
            assert out is event
        else:
            assert out is not event
            assert out == dataclasses.replace(event, seq=position)
            assert hash(out) == hash(dataclasses.replace(event, seq=position))
            assert type(out.attrs) is _Attrs and out.attrs is event.attrs


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


# --- the trace-line parser against the field-by-field one ----------------


def _reference_parse_trace_line(line: str, lineno: int, start: int) -> Event:
    """Each line parsed field by field, as before the one-pattern parser.

    The only change is the check of an over-long seq, which the old parser
    let through to ``int()`` as a bare ``ValueError``.
    """
    n = len(line)
    digits = re.compile("[0-9]+").match(line, start)
    if digits is None:
        raise TraceParseError("expected sequence number", lineno, start + 1)
    pos = digits.end()
    try:
        seq = int(digits[0])
    except ValueError:
        raise TraceParseError("sequence number is too long", lineno, start + 1) from None
    if pos >= n or line[pos] != " ":
        raise TraceParseError("expected space after sequence number", lineno, pos + 1)
    pos += 1
    synthetic = False
    if pos < n and line[pos] == "!":
        synthetic = True
        pos += 1
    colon = line.find(":", pos)
    if colon < 0:
        raise TraceParseError("expected 'cb:' or 'api:'", lineno, pos + 1)
    kind_text = line[pos:colon]
    if kind_text not in ("cb", "api"):
        raise TraceParseError(f"unknown event kind {kind_text!r}", lineno, pos + 1)
    at = line.find("@", colon + 1)
    if at < 0:
        raise TraceParseError("expected '@' before component", lineno, colon + 2)
    name = line[colon + 1 : at]
    end = line.find(" ", at + 1)
    if end < 0:
        end = n
    component = line[at + 1 : end]
    attrs: dict[str, str] = {}
    pos = end
    while pos < n:
        pos += 1  # skip the single separating space
        tok_end = line.find(" ", pos)
        if tok_end < 0:
            tok_end = n
        token = line[pos:tok_end]
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise TraceParseError(
                f"expected attribute 'key=value', got {token!r}", lineno, pos + 1
            )
        if key in attrs:
            raise TraceParseError(f"duplicate attribute {key!r}", lineno, pos + 1)
        attrs[key] = value
        pos = tok_end
    try:
        return Event(EventKind(kind_text), name, component, seq, synthetic, attrs)
    except ValueError as err:
        raise TraceParseError(str(err), lineno, colon + 2) from err


def reference_parse_trace(text: str) -> Trace:
    """:func:`parse_trace` as it was before the one-pattern line parser."""
    events: list[Event] = []
    prev_seq = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        start = len(line) - len(line.lstrip())
        if start == len(line) or line[start] == "#":
            continue
        event = _reference_parse_trace_line(line, lineno, start)
        if event.seq <= prev_seq:
            raise TraceValidationError(f"non-monotone seq at line {lineno}")
        prev_seq = event.seq
        events.append(event)
    return Trace(tuple(events))


def _outcome(parse, text: str):
    try:
        return parse(text)
    except TraceParseError as err:
        return type(err), str(err), err.line, err.column
    except TraceValidationError as err:
        return type(err), str(err)


def _mutate(line: str, edits) -> str:
    for position, replacement in edits:
        at = position % (len(line) + 1)
        line = line[:at] + replacement + line[at + 1 :]
    return line


# Trace lines as the README and the CLI tests write them.
_SHIPPED_LINES = [
    "1 api:Camera.open@A1",
    "2 cb:onPause@A1",
    "3 !api:unregisterService@B1 service=S1",
    "4 api:setTimer@C1 timer=T1",
    "# a comment",
    "   ",
]
# Mutations replace one character with a piece; "" deletes it.
_PIECES = [
    "", "!", ":", "@", "=", " ", "  ", "\t", "\u00b2", "\u0663", "#", "a", "k=v", "k=w",
    "cb", "api", "rpc", "1", "0", "9" * 4301, "9" * 30,
]
_piece = st.sampled_from(_PIECES)
_valid_line = st.one_of(
    st.sampled_from(_SHIPPED_LINES),
    st.lists(_event, min_size=1, max_size=3).map(
        lambda events: serialize_trace(Trace.renumbered(events))
    ),
)
_mutated_line = st.builds(
    _mutate, _valid_line, st.lists(st.tuples(st.integers(0, 200), _piece), max_size=3)
)
_random_line = st.lists(_piece, max_size=12).map("".join)


@given(st.lists(st.one_of(_valid_line, _mutated_line, _random_line), max_size=4))
def test_line_parser_agrees_with_the_field_by_field_parser(chunks):
    text = "\n".join(chunks)
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


@pytest.mark.parametrize(
    "text",
    [
        "1 api:a@A1 k=v k=w",
        "1 api:a@A1 k=v  x=y",
        "1 api:a@A1 k==v",
        "1 api:a@A1 k=v=w",
        "1 api:a@A1\t k=v",
        "1 !!api:a@A1",
        "01 api:a@A1\n2 cb:b@B2 x=\u00b2",
    ],
)
def test_line_parser_agrees_on_near_misses(text):
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace, text)


# --- events copied without validation -----------------------------------

_ECHO = parse_policy(
    """
policy Echo
instantiate per-binder key
alphabet api put{key=$v}
initial S
state S:
  on api put{key=$v} -> S emit [api echo{key=$v, tag=T1}, $in]
end
"""
)


def _assert_indistinguishable(copied: Event, validated: Event) -> None:
    assert copied == validated
    assert hash(copied) == hash(validated)
    assert repr(copied) == repr(validated)
    assert type(copied.attrs) is _Attrs
    with pytest.raises(TypeError):
        copied.attrs["key"] = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        copied.seq = 99
    assert pickle.loads(pickle.dumps(copied)) == copied
    assert copy.deepcopy(copied) == copied
    assert repr(pickle.loads(pickle.dumps(copied))) == repr(copied)


@given(_ident, _ident, st.booleans(), _attrs)
def test_copied_events_cannot_be_told_from_validated_ones(component, value, flag, attrs):
    event = Event(EventKind.API_CALL, "put", component, 7, flag, {**attrs, "key": value})
    renumbered = Trace.renumbered([event])[0]
    _assert_indistinguishable(renumbered, dataclasses.replace(event, seq=1))
    positioned = _positioned(EventUniverse((event,), max_len=2))[1][0]
    _assert_indistinguishable(positioned, dataclasses.replace(event, seq=2))
    text = serialize_trace(Trace((event,)))
    _assert_indistinguishable(parse_trace(text)[0], reference_parse_trace(text)[0])
    enforced, _report = enforce_trace(ModuleRegistry.from_policies([_ECHO]), Trace((event,)))
    synthesized = Event(
        EventKind.API_CALL, "echo", component, 1, True, {"key": value, "tag": "T1"}
    )
    _assert_indistinguishable(enforced[0], synthesized)
    _assert_indistinguishable(enforced[1], dataclasses.replace(event, seq=2))
