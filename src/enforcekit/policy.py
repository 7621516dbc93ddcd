"""Policies and monitors: event patterns, output templates, keyed automata.

A policy describes a deterministic finite automaton whose transitions both
consume intercepted events and emit an output sequence: the event itself, a
replacement, nothing (suppression), or the event surrounded by synthesized
events (insertion). Instances of the automaton are keyed per policy: one
global instance, one per component, or one per bound attribute value.

A monitor is the same keyed automaton without outputs, with absorbing
error states instead (Ligatti, Bauer and Walker's edit automata that never
edit). :class:`PolicySpec` and :class:`MonitorAutomaton` share one flat
shape and one constructor, which validates the spec and builds its
alphabet and transition indexes. Each spec is the runtime its callers
step: it matches events, picks transitions and routes events to instance
keys. This module owns the rules of a spec, for specs built in code and
parsed from text alike; :mod:`enforcekit.dsl` owns only the grammar.
Every value here is frozen and slotted, so not even ``vars()`` reaches
its fields.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum
from typing import ClassVar, Iterable, Union

from .events import _KIND_TEXT, Event, EventKind, _check_ident, _frozen, _set_kind

__all__ = [
    "Severity",
    "Diagnostic",
    "Literal",
    "Binder",
    "Constraint",
    "EventPattern",
    "InputRef",
    "INPUT",
    "PASS",
    "SynthEvent",
    "OutputTemplate",
    "Transition",
    "DefaultAction",
    "Instancing",
    "PolicySpec",
    "MonitorAutomaton",
    "DispatchError",
    "patterns_overlap",
    "validate_policy",
]


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@_frozen
class Diagnostic:
    """One finding from a validator; errors make a spec unusable."""

    severity: Severity
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: {self.message}"


class DispatchError(ValueError):
    """An event matched a pattern but cannot be routed to an instance."""


class _SpecError(ValueError):
    """A rule broken by one element, ``where`` = ``("initial", 0)``,
    ``("states", i)`` or ``("transitions", i)``, indexing the given fields."""

    def __init__(self, message: str, field_name: str, index: int = 0):
        super().__init__(message)
        self.where = (field_name, index)


@_frozen
class Literal:
    """Attribute constraint: the attribute must equal this value."""

    value: str


@_frozen
class Binder:
    """Attribute constraint that captures the attribute value as ``$var``."""

    var: str


Constraint = Union[Literal, Binder]


def _normalize_constraints(constraints):
    items = tuple(sorted(constraints, key=lambda kv: kv[0]))
    seen: set[str] = set()
    binders, literals = [], []
    for key, constraint in items:
        _check_ident(key, "pattern attribute key")
        if key in seen:
            raise ValueError(f"duplicate attribute key {key!r} in pattern")
        seen.add(key)
        if isinstance(constraint, Binder):
            _check_ident(constraint.var, "binder name")
            binders.append((key, constraint.var))
        elif isinstance(constraint, Literal):
            _check_ident(constraint.value, f"literal value for {key!r}")
            literals.append((key, constraint.value))
        else:
            raise TypeError(f"bad constraint for {key!r}: {constraint!r}")
    if len(binders) > 1:
        raise ValueError("at most one binder is allowed per pattern")
    return items, binders, tuple(literals)


@_frozen
class EventPattern:
    """Matches events by exact kind and name plus attribute constraints.

    A literal constraint requires the attribute to be present with that
    value. A binder constraint does not restrict matching; it names the
    attribute whose value keys per-binder instances and feeds templates.
    The binder and the literals are private fields that equality, hashing
    and ``repr`` ignore, and that ``replace`` rebuilds.

    In an output template a pattern is the event a transition inserts: it
    takes the component of the triggering input, and its attribute values
    come from its literals and from binder variables in scope.
    """

    kind: EventKind
    name: str
    constraints: tuple[tuple[str, Constraint], ...] = ()
    _binder: tuple[str, str] | None = field(init=False, repr=False, compare=False)
    _literals: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_kind(self)
        _check_ident(self.name, "pattern name")
        constraints, binders, literals = _normalize_constraints(self.constraints)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_binder", binders[0] if binders else None)
        object.__setattr__(self, "_literals", literals)

    def binder(self) -> tuple[str, str] | None:
        """The (attribute key, binder var) pair, if this pattern has one."""
        return self._binder

    def matches(self, event: Event) -> bool:
        if event.kind is not self.kind or event.name != self.name:
            return False
        for key, value in self._literals:
            if event.attrs.get(key) != value:
                return False
        return True

    def text(self) -> str:
        """Concrete syntax, e.g. ``api registerService{service=$s}``."""
        body = f"{_KIND_TEXT[self.kind]} {self.name}"
        if self.constraints:
            inner = ", ".join(
                f"{k}=${c.var}" if isinstance(c, Binder) else f"{k}={c.value}"
                for k, c in self.constraints
            )
            body += "{" + inner + "}"
        return body


@_frozen
class InputRef:
    """The ``$in`` placeholder: the intercepted event itself."""


INPUT = InputRef()


# A template item other than ``$in`` is the pattern of the event it inserts;
# ``SynthEvent`` names that role for code that builds templates.
SynthEvent = EventPattern
TemplateItem = Union[InputRef, EventPattern]


@_frozen
class OutputTemplate:
    """Ordered output of a transition: synthesized events around ``$in``.

    An empty template suppresses the input; a template without ``$in`` but
    with synthesized events replaces it.
    """

    items: tuple[TemplateItem, ...] = ()

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        inputs = sum(1 for item in self.items if isinstance(item, InputRef))
        if inputs > 1:
            raise ValueError("the $in placeholder may appear at most once")

    @property
    def emits_input(self) -> bool:
        return any(isinstance(item, InputRef) for item in self.items)

    def text(self) -> str:
        rendered = [
            "$in" if isinstance(item, InputRef) else item.text() for item in self.items
        ]
        return "[" + ", ".join(rendered) + "]"


PASS = OutputTemplate((INPUT,))


@_frozen
class Transition:
    """``source --pattern--> target`` with an output template.

    Monitor transitions carry no output (``output is None``).
    """

    source: str
    pattern: EventPattern
    target: str
    output: OutputTemplate | None = None


class DefaultAction(Enum):
    """Behavior for alphabet events with no matching transition."""

    ALLOW = "allow"
    SUPPRESS = "suppress"


class Instancing(Enum):
    """How automaton instances are keyed."""

    SINGLETON = "singleton"
    PER_COMPONENT = "per-component"
    PER_BINDER = "per-binder"


InstanceKey = tuple[str, ...]

# Members read on every step, bound once: a class-level enum read is slow on CPython 3.11.
_ALLOW, _PER_BINDER = DefaultAction.ALLOW, Instancing.PER_BINDER
_SINGLETON, _PER_COMPONENT = Instancing.SINGLETON, Instancing.PER_COMPONENT


@_frozen
class _KeyedSpec:
    """The fields and checks policies and monitors share.

    ``alphabet`` is the set of event patterns the automaton observes;
    events matching no alphabet pattern are invisible to it. Every
    transition pattern must be one of the alphabet patterns. The
    constructor indexes the alphabet by (kind, name) and the transitions
    by (state, kind, name), once per spec; the indexes are private fields
    that equality, hashing and ``repr`` ignore, and that ``replace``
    rebuilds. A rule broken by one state or transition raises a
    ``_SpecError`` with its index. What a step does with the chosen
    transition stays with its caller: outputs and the default action for
    the enforcer, self-loops and absorbing error states for monitors.
    """

    kind: ClassVar[str]  # "policy" or "monitor", as in the text language
    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    alphabet: tuple[EventPattern, ...] = ()
    instancing: Instancing = Instancing.SINGLETON
    binder_attr: str | None = None
    statement: str = ""
    _by_name: dict = field(init=False, repr=False, compare=False)
    _by_state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states, given = tuple(self.states), tuple(self.transitions)
        order: dict[str, int] = {}  # each state's index
        for i, state in enumerate(states):
            _check_ident(state, "state name")
            if state in order:
                raise _SpecError(f"duplicate state {state}", "states", i)
            order[state] = i
        if self.initial not in order:
            raise _SpecError(f"unknown state {self.initial}", "initial")
        for i, t in enumerate(given):
            for state in (t.source, t.target):
                if state not in order:
                    raise _SpecError(f"unknown state {state}", "transitions", i)
        self._check_kind(order, given)
        # Stable-sort by source state declaration order: serialization
        # groups transitions under their state block, so this makes it a
        # faithful round trip for automata built in code too.
        transitions = tuple(sorted(given, key=lambda t: order[t.source]))
        alphabet = tuple(self.alphabet)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "alphabet", alphabet)
        _check_ident(self.name, f"{self.kind} name")
        if "\n" in self.statement or "\r" in self.statement:
            raise ValueError("statement must be a single line")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate alphabet pattern")
        for i, t in enumerate(given):
            if t.pattern not in alphabet:
                message = f"pattern '{t.pattern.text()}' is not in the alphabet"
                raise _SpecError(message, "transitions", i)
        binder_attr = self.binder_attr
        if self.instancing is Instancing.PER_BINDER:
            if not binder_attr:
                raise ValueError("per-binder instancing requires a binder attribute")
            binder_keys = {p.binder()[0] for p in alphabet if p.binder()}
            if not binder_keys:
                raise ValueError(
                    "per-binder instancing requires at least one alphabet "
                    "pattern with a binder"
                )
            stray = binder_keys - {binder_attr}
            if stray:
                raise ValueError(
                    f"binder on attribute {sorted(stray)[0]!r} does not match "
                    f"per-binder key {binder_attr!r}"
                )
        elif binder_attr is not None:
            raise ValueError("binder_attr is only meaningful with per-binder instancing")
        by_name: dict[tuple[EventKind, str], list[EventPattern]] = {}
        for pattern in alphabet:
            by_name.setdefault((pattern.kind, pattern.name), []).append(pattern)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_state", index_transitions(transitions))

    def _check_kind(self, order: dict[str, int], transitions) -> None:
        """The kind's own rules, checked after the states and before the rest;
        ``order`` maps each state to its index."""
        raise NotImplementedError

    def match(self, event: Event) -> EventPattern | None:
        """First alphabet pattern matching the event, or None."""
        for pattern in self._by_name.get((event.kind, event.name), ()):
            if pattern.matches(event):
                return pattern
        return None

    def transition(self, state: str, event: Event) -> Transition | None:
        """First transition out of ``state`` matching the event, or None."""
        for t in self._by_state.get((state, event.kind, event.name), ()):
            if t.pattern.matches(event):
                return t
        return None

    def route(
        self, event: Event, pattern: EventPattern, live: Iterable[InstanceKey]
    ) -> tuple[list[InstanceKey], dict[str, str]]:
        """Instance keys an event matching ``pattern`` addresses, and its binding.

        The key is ``()`` for singleton, ``(component,)`` for per-component
        and ``(component, value)`` for per-binder instancing, where value is
        the attribute the pattern's binder names. Under per-binder
        instancing a binder-free pattern broadcasts: it addresses the keys
        in ``live`` that belong to the event's component, in ascending
        order, and creates none. ``live`` may be every live key or a
        module's unordered index (see :class:`ProactiveModule`); this sort
        is the one ordering of a broadcast. The binding maps the pattern's
        binder variable to the event's value, when the event carries one.

        Missing binder attribute: an event that matches a binder pattern
        under per-binder instancing but lacks the bound attribute cannot be
        keyed, and routing it raises :class:`DispatchError`. ``check``
        skips such an event, so a monitor stays total over any trace;
        ``enforce_trace`` fails with an ``EnforcementError`` that carries
        the event's seq.
        """
        bound = pattern._binder
        instancing = self.instancing
        bindings: dict[str, str] = {}
        if bound is not None:
            attr, var = bound
            value = event.attrs.get(attr)
            if value is not None:
                bindings[var] = value
            elif instancing is _PER_BINDER:
                raise DispatchError(
                    f"event {event.literal()} matches pattern '{pattern.text()}' "
                    f"but lacks binder attribute {attr!r}"
                )
        if instancing is _SINGLETON:
            return [()], bindings
        if instancing is _PER_COMPONENT:
            return [(event.component,)], bindings
        if bound is None:
            component = event.component
            return sorted(k for k in live if k[0] == component), bindings
        return [(event.component, value)], bindings


@_frozen
class PolicySpec(_KeyedSpec):
    """A named, instantiable enforcement policy: a finite edit automaton.

    Every transition carries an output template. ``default`` applies to
    alphabet events with no matching transition. A broadcast can edit or
    change state only in the broadcast-reactive states, a private
    attribute: every state under default suppress, else the sources of
    transitions on the (kind, name) of a binder-free alphabet pattern.
    """

    kind: ClassVar[str] = "policy"
    default: DefaultAction = DefaultAction.ALLOW
    _broadcast_states: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _KeyedSpec.__post_init__(self)  # a slotted dataclass has no zero-argument super()
        free = {(p.kind, p.name) for p in self.alphabet if p.binder() is None}
        reactive = self.states if self.default is DefaultAction.SUPPRESS else [
            state for state, kind, name in self._by_state if (kind, name) in free]
        object.__setattr__(self, "_broadcast_states", frozenset(reactive))

    def _check_kind(self, order, transitions):
        for i, t in enumerate(transitions):
            if t.output is None:
                message = f"transition {t.source} -> {t.target} is missing an output template"
                raise _SpecError(message, "transitions", i)


@_frozen
class MonitorAutomaton(_KeyedSpec):
    """Deterministic acceptor with absorbing error states.

    The monitor is total over its alphabet: an alphabet event with no
    matching transition self-loops. Events outside the alphabet are
    invisible. Instances are keyed exactly like policy instances, by the
    same :meth:`route`.
    """

    kind: ClassVar[str] = "monitor"
    error_states: frozenset[str] = frozenset()

    def _check_kind(self, order, transitions):
        error_states = frozenset(self.error_states)
        object.__setattr__(self, "error_states", error_states)
        for state in error_states:
            if state not in order:
                raise ValueError(f"unknown state {state}")
        for i, t in enumerate(transitions):
            if t.output is not None:
                raise _SpecError("monitor transitions must not carry outputs", "transitions", i)
            if t.source in error_states:
                message = f"error state {t.source} must not have outgoing transitions"
                raise _SpecError(message, "states", order[t.source])


def patterns_overlap(a: EventPattern, b: EventPattern) -> bool:
    """True if some concrete event can match both patterns.

    Sound over-approximation: binders are treated as wildcards, so two
    patterns are disjoint only when they disagree on kind, name, or a
    literal constraint for a shared key.
    """
    if a.kind is not b.kind or a.name != b.name:
        return False
    lits_a, lits_b = dict(a._literals), dict(b._literals)
    return all(lits_a[k] == lits_b[k] for k in lits_a.keys() & lits_b.keys())


def automaton_diagnostics(spec: PolicySpec | MonitorAutomaton) -> list[Diagnostic]:
    """Findings policies and monitors share, from states and transitions.

    Errors: pairs of same-state transitions that can match the same event.
    Warnings: states unreachable from the initial state.
    """
    states, transitions, initial = spec.states, spec.transitions, spec.initial
    out: list[Diagnostic] = []
    for state in states:
        outgoing = [t for t in transitions if t.source == state]
        for i, first in enumerate(outgoing):
            for second in outgoing[i + 1 :]:
                if patterns_overlap(first.pattern, second.pattern):
                    out.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"state {state}: transitions on '{first.pattern.text()}' "
                            f"and '{second.pattern.text()}' can match the same event",
                        )
                    )
    edges: dict[str, set[str]] = {s: set() for s in states}
    for t in transitions:
        edges[t.source].add(t.target)
    reached, stack = {initial}, [initial]
    while stack:
        for nxt in edges[stack.pop()] - reached:
            reached.add(nxt)
            stack.append(nxt)
    out += [
        Diagnostic(
            Severity.WARNING, f"state {state} is unreachable from initial state {initial}"
        )
        for state in states
        if state not in reached
    ]
    return out


def validate_policy(spec: PolicySpec) -> list[Diagnostic]:
    """Semantic diagnostics for a structurally valid policy.

    Errors: nondeterminism (two same-state transitions that can match one
    concrete event). Warnings: unreachable states, synthesized events
    outside the policy's own alphabet (they may target downstream modules),
    and suppressed lifecycle callbacks.
    """
    diagnostics = automaton_diagnostics(spec)
    alphabet_names = {(p.kind, p.name) for p in spec.alphabet}
    for t in spec.transitions:
        assert t.output is not None
        for item in t.output.items:
            if isinstance(item, EventPattern) and (item.kind, item.name) not in alphabet_names:
                diagnostics.append(
                    Diagnostic(
                        Severity.WARNING,
                        f"transition {t.source} -> {t.target} inserts "
                        f"'{item.text()}' outside the policy alphabet",
                    )
                )
        if t.pattern.kind is EventKind.CALLBACK and not t.output.emits_input:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    f"transition {t.source} -> {t.target} suppresses lifecycle "
                    f"callback '{t.pattern.text()}'; suppressed callbacks can "
                    f"desynchronize the component lifecycle",
                )
            )
    return diagnostics


def index_transitions(
    transitions: tuple[Transition, ...]
) -> dict[tuple[str, EventKind, str], tuple[Transition, ...]]:
    """Group transitions by (source state, event kind, event name)."""
    table: dict[tuple[str, EventKind, str], list[Transition]] = {}
    for t in transitions:
        table.setdefault((t.source, t.pattern.kind, t.pattern.name), []).append(t)
    return {key: tuple(group) for key, group in table.items()}
