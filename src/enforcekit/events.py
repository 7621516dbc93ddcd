"""Core event model: intercepted events, traces, and lifecycle models.

Everything else in the toolkit is built on the types in this module. All
values are immutable and all operations are pure functions, so they can be
shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping

__all__ = [
    "EventKind",
    "Event",
    "Trace",
    "LifecycleModel",
    "LifecycleDiagnostic",
    "TraceParseError",
    "TraceValidationError",
    "parse_trace",
    "serialize_trace",
    "parse_event_literal",
    "validate_lifecycle",
]

# Names, components, attribute keys and attribute values all share one
# identifier charset so that every serialization (trace lines, compact event
# literals, policy patterns) is unambiguous and round-trips exactly. The
# policy lexer builds its names from the same character class.
_IDENT_CHAR = "[A-Za-z0-9_.-]"
_IDENT_RE = re.compile(_IDENT_CHAR + "+")
# Sequence numbers are ASCII digits only; ``str.isdigit`` also accepts
# superscripts and other scripts' digits.
_SEQ_RE = re.compile("[0-9]+")


class EventKind(str, Enum):
    """Kind of an intercepted event."""

    CALLBACK = "cb"  # lifecycle callback invoked by the framework
    API_CALL = "api"  # call into a library operation


class _PositionedError(ValueError):
    """An input error at a 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TraceParseError(_PositionedError):
    """A trace line could not be parsed. Carries 1-based line and column."""


class TraceValidationError(ValueError):
    """Well-formed lines that violate a trace invariant (e.g. seq order)."""


def _check_ident(value: str, what: str) -> None:
    if not _IDENT_RE.fullmatch(value):
        raise ValueError(
            f"{what} {value!r} must be a non-empty run of {_IDENT_CHAR}"
        )


class _Attrs(dict):
    """A read-only dict: the attributes an :class:`Event` owns.

    Events built from another event's attributes (``dataclasses.replace``,
    renumbering) share them instead of copying, which is safe only
    because nothing can change them. For the same reason they can be
    hashed, which makes :class:`Event` hashable.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("event attributes are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        # pickle and copy would otherwise refill the copy item by item.
        return (_Attrs, (dict(self),))


@dataclass(frozen=True)
class Event:
    """One intercepted occurrence: a lifecycle callback or an API call.

    ``synthetic`` marks events that were inserted by an enforcement module
    rather than observed from the application. ``attrs`` carries call
    arguments worth dispatching on (for example ``service=S1``); it is
    serialized sorted by key, so two events that differ only in attribute
    insertion order compare and serialize identically. The event keeps a
    read-only copy of ``attrs``, so the caller's dict can change afterwards
    without changing the event.
    """

    kind: EventKind
    name: str
    component: str
    seq: int = 0
    synthetic: bool = False
    attrs: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_ident(self.name, "event name")
        _check_ident(self.component, "component")
        if self.seq < 0:
            raise ValueError(f"seq must be non-negative, got {self.seq}")
        if type(self.attrs) is not _Attrs:
            object.__setattr__(self, "attrs", _Attrs(self.attrs))
        for key, value in self.attrs.items():
            _check_ident(key, "attribute key")
            _check_ident(value, f"attribute value for {key!r}")

    @staticmethod
    def cb(name: str, component: str, seq: int = 0, **attrs: str) -> "Event":
        return Event(EventKind.CALLBACK, name, component, seq, attrs=attrs)

    @staticmethod
    def api(name: str, component: str, seq: int = 0, **attrs: str) -> "Event":
        return Event(EventKind.API_CALL, name, component, seq, attrs=attrs)

    def literal(self) -> str:
        """Compact single-token form: ``[!]kind:name@component{k=v,...}``.

        Used in reports and on the command line, where the space-separated
        trace line form would be ambiguous.
        """
        bang = "!" if self.synthetic else ""
        body = f"{bang}{self.kind.value}:{self.name}@{self.component}"
        if self.attrs:
            pairs = ",".join(f"{k}={self.attrs[k]}" for k in sorted(self.attrs))
            body += "{" + pairs + "}"
        return body


def parse_event_literal(text: str) -> Event:
    """Parse the compact ``[!]kind:name@component{k=v,...}`` form.

    The sequence number of the returned event is 0; callers position the
    event themselves.
    """
    original = text
    synthetic = text.startswith("!")
    if synthetic:
        text = text[1:]
    head, colon, rest = text.partition(":")
    if not colon or head not in ("cb", "api"):
        raise ValueError(f"bad event literal {original!r}: expected 'cb:' or 'api:'")
    name, at, tail = rest.partition("@")
    if not at:
        raise ValueError(f"bad event literal {original!r}: missing '@component'")
    attrs: dict[str, str] = {}
    component = tail
    if "{" in tail:
        component, brace, attr_text = tail.partition("{")
        if not attr_text.endswith("}"):
            raise ValueError(f"bad event literal {original!r}: unterminated attributes")
        for pair in attr_text[:-1].split(","):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ValueError(f"bad event literal {original!r}: bad attribute {pair!r}")
            attrs[key] = value
    try:
        return Event(EventKind(head), name, component, 0, synthetic, attrs)
    except ValueError as err:
        raise ValueError(f"bad event literal {original!r}: {err}") from err


@dataclass(frozen=True)
class Trace:
    """A finite, totally ordered sequence of events with increasing seq."""

    events: tuple[Event, ...] = ()

    def __post_init__(self):
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        prev = -1
        for event in self.events:
            if event.seq <= prev:
                raise TraceValidationError(
                    f"non-monotone seq {event.seq} after {prev}"
                )
            prev = event.seq

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, index):
        return self.events[index]

    @staticmethod
    def renumbered(events: Iterable[Event]) -> "Trace":
        """Build a trace from events in order, assigning seq 1..n."""
        return Trace(tuple(replace(e, seq=i) for i, e in enumerate(events, 1)))


def _parse_trace_line(line: str, lineno: int) -> Event:
    n = len(line)
    digits = _SEQ_RE.match(line)
    if digits is None:
        raise TraceParseError("expected sequence number", lineno, 1)
    pos = digits.end()
    seq = int(digits[0])
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


def parse_trace(text: str) -> Trace:
    """Parse the line-oriented trace format.

    Blank lines and lines starting with ``#`` are skipped. Raises
    :class:`TraceParseError` on a malformed line and
    :class:`TraceValidationError` when seq values do not strictly increase.
    """
    events: list[Event] = []
    prev_seq = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        event = _parse_trace_line(line, lineno)
        if event.seq <= prev_seq:
            raise TraceValidationError(f"non-monotone seq at line {lineno}")
        prev_seq = event.seq
        events.append(event)
    return Trace(tuple(events))


def _format_trace_line(event: Event) -> str:
    bang = "!" if event.synthetic else ""
    parts = [f"{event.seq} {bang}{event.kind.value}:{event.name}@{event.component}"]
    for key in sorted(event.attrs):
        parts.append(f"{key}={event.attrs[key]}")
    return " ".join(parts)


def serialize_trace(trace: Trace) -> str:
    """Render a trace in the canonical line format (no trailing newline).

    The output is stable: equal traces always serialize to identical bytes,
    and ``parse_trace(serialize_trace(t)) == t`` for every valid trace.
    """
    return "\n".join(_format_trace_line(e) for e in trace)


@dataclass(frozen=True)
class LifecycleModel:
    """Deterministic finite state machine over lifecycle callbacks."""

    name: str
    states: frozenset[str]
    initial: str
    transitions: frozenset[tuple[str, str, str]]  # (from, callback, to)

    def __post_init__(self):
        if not isinstance(self.states, frozenset):
            object.__setattr__(self, "states", frozenset(self.states))
        if not isinstance(self.transitions, frozenset):
            object.__setattr__(self, "transitions", frozenset(self.transitions))
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in states")
        table: dict[tuple[str, str], str] = {}
        for source, callback, target in self.transitions:
            if source not in self.states or target not in self.states:
                raise ValueError(
                    f"transition ({source}, {callback}, {target}) leaves declared states"
                )
            if (source, callback) in table:
                raise ValueError(
                    f"nondeterministic lifecycle: two transitions from "
                    f"{source!r} on {callback!r}"
                )
            table[(source, callback)] = target
        object.__setattr__(self, "_table", table)

    def target(self, state: str, callback: str) -> str | None:
        """Destination state for ``callback`` in ``state``, or None."""
        return self._table.get((state, callback))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class LifecycleDiagnostic:
    """One callback that was not enabled in the component's current state."""

    seq: int
    component: str
    callback: str
    state: str

    @property
    def message(self) -> str:
        return f"{self.callback} not enabled in state {self.state}"

    def __str__(self) -> str:
        return f"seq {self.seq}: {self.component}: {self.message}"


def validate_lifecycle(
    trace: Trace, model: LifecycleModel, component: str
) -> list[LifecycleDiagnostic]:
    """Replay one component's callbacks against a lifecycle model.

    API calls and other components' events are ignored. A callback with no
    outgoing transition yields one diagnostic and leaves the replay state
    unchanged, so diagnostics are advisory and prefix-monotone: validating a
    prefix of the trace yields a prefix of the diagnostics.
    """
    state = model.initial
    diagnostics: list[LifecycleDiagnostic] = []
    for event in trace:
        if event.component != component or event.kind is not EventKind.CALLBACK:
            continue
        target = model.target(state, event.name)
        if target is None:
            diagnostics.append(
                LifecycleDiagnostic(event.seq, component, event.name, state)
            )
        else:
            state = target
    return diagnostics
