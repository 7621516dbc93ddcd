"""Core event model: intercepted events, traces, and lifecycle models.

Everything else in the toolkit is built on the types in this module. All
values are immutable and all operations are pure functions, so they can be
shared freely between threads. Events and traces have no instance
``__dict__``: their fields are slots, which ``vars()`` cannot reach.

An event's fields are checked once, where it enters the program: by
:class:`Event` itself (and so by ``Event.cb``, ``Event.api`` and
:func:`parse_event_literal`), and by :func:`parse_trace`, whose line pattern
admits only valid fields. Copies made inside the toolkit, such as
renumbered events, synthesized events and the verifier's positioned
alphabet, reuse fields that were checked already and skip the checks.
"""

from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Container, Iterable, Iterator, Mapping

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


def _frozen(cls):
    """``dataclass(frozen=True, slots=True)`` whose every attribute write raises
    ``FrozenInstanceError``; CPython 3.11's own raises ``TypeError`` for a non-field."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


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


def _set_kind(value) -> None:
    """Coerce a frozen dataclass's ``kind`` field to :class:`EventKind`.

    An unknown kind raises ``ValueError``.
    """
    if type(value.kind) is not EventKind:
        object.__setattr__(value, "kind", EventKind(value.kind))


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


_NO_ATTRS = _Attrs()  # read-only, so every attribute-less event can share it


@_frozen
class Event:
    """One intercepted occurrence: a lifecycle callback or an API call.

    ``synthetic`` marks events that were inserted by an enforcement module
    rather than observed from the application. ``attrs`` carries call
    arguments worth dispatching on (for example ``service=S1``); it is
    serialized sorted by key, so two events that differ only in attribute
    insertion order compare and serialize identically. The event keeps a
    read-only copy of ``attrs``, so the caller's dict can change afterwards
    without changing the event. It has no instance ``__dict__``: its fields
    are slots, and no attribute can be set or added after construction.
    """

    kind: EventKind
    name: str
    component: str
    seq: int = 0
    synthetic: bool = False
    attrs: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _set_kind(self)
        _check_ident(self.name, "event name")
        _check_ident(self.component, "component")
        if not isinstance(self.seq, int) or isinstance(self.seq, bool):
            raise TypeError(f"seq must be an int, got {self.seq!r}")
        if self.seq < 0:
            raise ValueError(f"seq must be non-negative, got {self.seq}")
        if self.seq.bit_length() > 2000:  # str() takes any int under 640 digits
            try:
                str(self.seq)
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"seq has more than {limit} digits, str()'s limit") from None
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
        body = f"{bang}{_KIND_TEXT[self.kind]}:{self.name}@{self.component}"
        if self.attrs:
            pairs = ",".join(f"{k}={self.attrs[k]}" for k in sorted(self.attrs))
            body += "{" + pairs + "}"
        return body


_new_event = object.__new__
# Each field's slot setter: a direct write, cheaper than object.__setattr__.
_put_kind, _put_name, _put_component, _put_seq, _put_synthetic, _put_attrs = (
    vars(Event)[f].__set__ for f in ("kind", "name", "component", "seq", "synthetic", "attrs"))


def _trusted(
    kind: EventKind, name: str, component: str, seq: int, synthetic: bool, attrs: _Attrs
) -> Event:
    """An :class:`Event` from fields that were validated already, unchecked.

    ``attrs`` must already be an ``_Attrs``. The fields fill the same slots
    as the dataclass's own ``__init__`` fills, so the event cannot be told
    from a validated one.
    """
    event = _new_event(Event)
    _put_kind(event, kind)
    _put_name(event, name)
    _put_component(event, component)
    _put_seq(event, seq)
    _put_synthetic(event, synthetic)
    _put_attrs(event, attrs)
    return event


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
    if not colon or head not in _KINDS:
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
            if key in attrs:
                raise ValueError(f"bad event literal {original!r}: duplicate attribute {key!r}")
            attrs[key] = value
    try:
        return Event(_KINDS[head], name, component, 0, synthetic, attrs)
    except ValueError as err:
        raise ValueError(f"bad event literal {original!r}: {err}") from err


@_frozen
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
        """Build a trace from events in order, assigning seq 1..n.

        An event already numbered by its position is kept, not copied.
        """
        trusted = _trusted
        return Trace(tuple([
            e if e.seq == i else trusted(e.kind, e.name, e.component, i, e.synthetic, e.attrs)
            for i, e in enumerate(events, 1)
        ]))


# Each kind's text: the one table trace lines, event literals and patterns read.
_KINDS = {kind.value: kind for kind in EventKind}
_KIND_TEXT = {kind: text for text, kind in _KINDS.items()}  # kind.value is slow on 3.11
# A whole valid trace line from the seq on: this one match checks every field.
_LINE_RE = re.compile(
    f"([0-9]+) (!?)({'|'.join(map(re.escape, _KINDS))}):({_IDENT_CHAR}+)@({_IDENT_CHAR}+)"
    f"((?: {_IDENT_CHAR}+={_IDENT_CHAR}+)*)"
)


def _parse_trace_line(line: str, lineno: int, start: int) -> Event:
    """Parse ``line[start:]`` field by field; columns count from the start of
    ``line``. Runs only where a :data:`_LINE_RE` match gives no event, so in
    practice it raises :class:`TraceParseError` at the first bad field.
    """
    n = len(line)
    digits = _SEQ_RE.match(line, start)
    if digits is None:
        raise TraceParseError("expected sequence number", lineno, start + 1)
    pos = digits.end()
    try:
        seq = int(digits[0])
    except ValueError:  # more digits than int() may convert
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
    if kind_text not in _KINDS:
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
        return Event(_KINDS[kind_text], name, component, seq, synthetic, attrs)
    except ValueError as err:
        raise TraceParseError(str(err), lineno, colon + 2) from err


def _scan_trace(text: str, seen: Container[tuple[EventKind, str]] | None) -> list[Event | str]:
    """The items of a trace file, checked as :func:`parse_trace` documents.

    Each item is an :class:`Event`, except where ``seen`` is given and a
    line has no attributes and a (kind, name) not in ``seen``: that item is
    the line's text after the seq, which :func:`_format_trace_line` would
    write for its event.
    """
    items: list[Event | str] = []
    prev_seq = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        start = 0
        match = _LINE_RE.fullmatch(line)  # most lines: valid, nothing to strip
        if match is None:
            line = line.rstrip()
            start = len(line) - len(line.lstrip())
            if start == len(line) or line[start] == "#":
                continue
            match = _LINE_RE.fullmatch(line, start)
        item = None
        if match:
            seq_text, bang, kind, name, component, tail = match.groups()
            attrs = _Attrs(token.split("=") for token in tail[1:].split(" ")) if tail else _NO_ATTRS
            try:
                seq = int(seq_text)
            except ValueError:  # more digits than int() converts
                pass
            else:
                if not tail and seen is not None and (_KINDS[kind], name) not in seen:
                    item = line[match.end(1) + 1 :]
                elif len(attrs) == tail.count(" "):  # else a key repeats
                    item = _trusted(_KINDS[kind], name, component, seq, bool(bang), attrs)
        if item is None:  # the field walk reports the first bad field
            item = _parse_trace_line(line, lineno, start)
            seq = item.seq
        if seq <= prev_seq:
            raise TraceValidationError(f"non-monotone seq at line {lineno}")
        prev_seq = seq
        items.append(item)
    return items


def parse_trace(text: str) -> Trace:
    """Parse the line-oriented trace format.

    Blank lines and lines starting with ``#`` are skipped. Raises
    :class:`TraceParseError` on a malformed line and
    :class:`TraceValidationError` when seq values do not strictly increase.
    """
    return Trace(tuple(_scan_trace(text, None)))


def _format_trace_line(event: Event, seq: int) -> str:
    """``event``'s trace line, numbered ``seq`` whatever its own seq is."""
    bang = "!" if event.synthetic else ""
    line = f"{seq} {bang}{_KIND_TEXT[event.kind]}:{event.name}@{event.component}"
    attrs = event.attrs
    return " ".join([line, *(f"{k}={attrs[k]}" for k in sorted(attrs))]) if attrs else line


def serialize_trace(trace: Trace) -> str:
    """Render a trace in the canonical line format (no trailing newline).

    Each line is :func:`_format_trace_line` at the event's own seq, the
    formatter ``enforcekit enforce`` writes with. Equal traces serialize to
    identical bytes, and ``parse_trace(serialize_trace(t)) == t``.
    """
    return "\n".join(_format_trace_line(e, e.seq) for e in trace)


@_frozen
class LifecycleModel:
    """Deterministic finite state machine over lifecycle callbacks."""

    name: str
    states: frozenset[str]
    initial: str
    transitions: frozenset[tuple[str, str, str]]  # (from, callback, to)
    _table: dict[tuple[str, str], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.states, frozenset):
            object.__setattr__(self, "states", frozenset(self.states))
        if not isinstance(self.transitions, frozenset):
            object.__setattr__(self, "transitions", frozenset(self.transitions))
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in states")
        table: dict[tuple[str, str], str] = {}
        for source, callback, target in self.transitions:
            _check_ident(callback, "callback")  # run_scenario emits it unchecked
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
        return self._table.get((state, callback))


@_frozen
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
